import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from collapse_lab import closed_form as cf
from collapse_lab import trainer as tr
from collapse_lab.data import Dataset, center
from collapse_lab.spectrum import DataSpectrum, compute_spectrum

from conftest import make_instance, params_from_minimum
from oracles import reduce_to_factorization


def kl_var_term(hp, sigma):
    ratio = sigma**2 / hp.eta_enc**2
    return 0.5 * hp.beta * float(np.sum(ratio - 1.0 - np.log(ratio)))


def least_residual(sp, hp, sigma):
    """Minimum of the reduced factorization at the stds ``sigma``: the loss
    at the per-mode optimum, on the reduced scale, less its std-only terms."""
    modes = cf.per_mode(sp.zeta_padded(hp.latent_dim), hp.beta, hp.decvar, hp.eta_enc, sigma)
    return float(2.0 * hp.decvar * cf.loss_at_optimum(sp, modes, hp.decvar) - np.sum(modes.kl))


def mode_objective(hp, zeta, sigma):
    """Objective of one mode at the encoder std ``sigma``."""
    modes = cf.per_mode(zeta, hp.beta, hp.decvar, hp.eta_enc, sigma)
    return float(modes.fit + modes.kl)


def argmin_1d(fun, bracket):
    """Golden-section argmin refined by bisecting the sign of a central
    finite-difference derivative.

    Function-value minimization alone locates an argmin only to
    ~sqrt(eps); the derivative-sign bisection (step large enough to beat
    rounding noise, small enough to keep the quadratic bias ~1e-10)
    tightens it to ~1e-9."""
    result = optimize.minimize_scalar(
        fun, bracket=bracket, method="golden", options={"xtol": 1e-12}
    )
    x = float(result.x)
    h = 1e-5 * x
    slope = lambda t: fun(t + h) - fun(t - h)
    lo, hi = x * (1 - 1e-3), x * (1 + 1e-3)
    if slope(lo) > 0 or slope(hi) < 0:
        return x
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "field, value",
    [("beta", np.inf), ("beta", np.nan), ("eta_enc", np.inf), ("eta_dec", np.inf),
     ("eta_dec", np.nan)],
)
def test_hyperparams_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        cf.Hyperparams(**{"beta": 1.0, "latent_dim": 2, field: value})


class TestFactorizationReduction:
    def test_unit_ridge(self):
        _, sp = make_instance(seed=1)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2, eta_enc=1.0, eta_dec=1.0)
        problem = reduce_to_factorization(sp, hp, np.ones(2))
        assert problem.ridge == 1.0

    def test_reduced_value_matches_full_loss(self, rng):
        """The reduced objective equals 2 eta_dec^2 times the full loss
        minus its std-only term, shifted by the data constant, for any
        parameter pair, not just optimal ones."""
        ds, sp = make_instance(seed=7, dim_x=4, dim_y=4)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=1.3, latent_dim=3, eta_dec=0.8, eta_enc=1.2)
        sigma = rng.uniform(0.5, 1.5, size=3)
        problem = reduce_to_factorization(sp, hp, sigma)
        constant = sp.target_power - np.sum(sp.singular_values**2)
        for _ in range(5):
            u = rng.normal(size=(4, 3))
            v = rng.normal(size=(sp.rank, 3))
            params = tr.ModelParams(
                decoder=u, encoder=problem.w_from_v(v), log_sigma=np.log(sigma)
            )
            full = tr.eval_loss(params, m, hp)
            reduced = problem.evaluate(u, v)
            expected = 2 * hp.decvar * (full - kl_var_term(hp, sigma)) - constant
            np.testing.assert_allclose(reduced, expected, atol=1e-8)

    def test_encoder_map_round_trip(self, rng):
        _, sp = make_instance(seed=8, dim_x=5, dim_y=3, rank=3)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        problem = reduce_to_factorization(sp, hp, np.ones(2))
        v = rng.normal(size=(sp.rank, 2))
        np.testing.assert_allclose(problem.v_from_w(problem.w_from_v(v)), v, atol=1e-10)

    def test_zero_cross_moment_minimizer_is_zero(self):
        sp = DataSpectrum.from_singular_values([0.0, 0.0], dim_y=2)
        modes = cf.per_mode(sp.zeta_padded(2), 1.0, 1.0, 1.0, np.ones(2))
        assert np.all(modes.decoder == 0.0) and np.all(modes.encoder == 0.0)


class TestOptimalFactors:
    def test_single_mode_against_numeric_minimization(self):
        """Scalar instance zeta=2, beta=1, sigma=1: numerically minimize
        the reduced objective and compare with the closed form (1, 1)."""
        sp = DataSpectrum.from_singular_values([2.0], dim_y=1)
        hp = cf.Hyperparams(beta=1.0, latent_dim=1)
        problem = reduce_to_factorization(sp, hp, np.ones(1))

        best = min(
            (
                optimize.minimize(
                    lambda p: problem.evaluate(p[:1].reshape(1, 1), p[1:].reshape(1, 1)),
                    x0,
                    method="BFGS",
                )
                for x0 in ([0.5, 0.5], [-1.0, 2.0], [2.0, -0.3])
            ),
            key=lambda r: r.fun,
        )
        modes = cf.per_mode(sp.zeta_padded(1), hp.beta, hp.decvar, hp.eta_enc, np.ones(1))
        lam, theta = modes.decoder, modes.encoder
        assert lam[0] == pytest.approx(1.0) and theta[0] == pytest.approx(1.0)
        assert abs(best.x[0] * best.x[1]) == pytest.approx(lam[0] * theta[0], abs=1e-6)
        assert best.fun == pytest.approx(problem.evaluate(lam.reshape(1, 1), theta.reshape(1, 1)), abs=1e-8)

    def test_collapsed_when_signal_below_threshold(self):
        sp = DataSpectrum.from_singular_values([0.5], dim_y=1)
        # sqrt(beta) sigma = 2 > 0.5
        modes = cf.per_mode(sp.zeta_padded(1), 4.0, 1.0, 1.0, np.ones(1))
        assert modes.decoder[0] == 0.0 and modes.encoder[0] == 0.0

    def test_modes_beyond_data_rank_are_zero(self):
        sp = DataSpectrum.from_singular_values([3.0], dim_y=1)
        modes = cf.per_mode(sp.zeta_padded(4), 1.0, 1.0, 1.0, np.ones(4))
        assert np.all(modes.decoder[1:] == 0.0) and np.all(modes.encoder[1:] == 0.0)

    def test_prior_sigma_specializes_general_formula(self):
        """Stds pinned at the prior give the factors of an explicit
        sigma = eta_enc."""
        _, sp = make_instance(seed=11)
        hp = cf.Hyperparams(beta=2.0, latent_dim=3, eta_enc=0.7, eta_dec=1.4, sigma_mode="fixed")
        gm = cf.global_minimum(sp, hp)
        modes = cf.per_mode(sp.zeta_padded(3), hp.beta, hp.decvar, 0.7, np.full(3, 0.7))
        np.testing.assert_array_equal(gm.decoder_singvals, modes.decoder)
        np.testing.assert_array_equal(gm.encoder_singvals, modes.encoder)

    def test_complete_collapse_condition(self):
        sp = DataSpectrum.from_singular_values([1.9, 1.0], dim_y=2)
        # sqrt(beta) eta_dec = 2 > 1.9
        modes = cf.per_mode(sp.zeta_padded(2), 4.0, 1.0, 1.0, 1.0)
        assert np.all(modes.decoder == 0.0) and np.all(modes.encoder == 0.0)

    def test_two_mode_instance_against_numeric_oracle(self, rng):
        """beta=4, zeta=(3,1): expected factors (sqrt(2), 0), (sqrt(1/2), 0);
        cross-checked by minimizing the reduced objective over full 2x2
        matrices from several starts."""
        sp = DataSpectrum.from_singular_values([3.0, 1.0], dim_y=2)
        hp = cf.Hyperparams(beta=4.0, latent_dim=2)
        modes = cf.per_mode(sp.zeta_padded(2), hp.beta, hp.decvar, hp.eta_enc, np.ones(2))
        lam, theta = modes.decoder, modes.encoder
        np.testing.assert_allclose(lam, [np.sqrt(2.0), 0.0], atol=1e-12)
        np.testing.assert_allclose(theta, [np.sqrt(0.5), 0.0], atol=1e-12)

        problem = reduce_to_factorization(sp, hp, np.ones(2))
        objective = lambda p: problem.evaluate(p[:4].reshape(2, 2), p[4:].reshape(2, 2))
        best = min(
            (
                optimize.minimize(objective, rng.normal(size=8), method="BFGS")
                for _ in range(8)
            ),
            key=lambda r: r.fun,
        )
        assert best.fun == pytest.approx(np.sum(modes.fit), abs=1e-7)
        u = best.x[:4].reshape(2, 2)
        v = best.x[4:].reshape(2, 2)
        np.testing.assert_allclose(
            np.linalg.svd(u @ v.T, compute_uv=False), lam * theta, atol=1e-5
        )


class TestOptimalSigma:
    def test_prior_branch(self):
        sp = DataSpectrum.from_singular_values([1.0], dim_y=1)
        hp = cf.Hyperparams(beta=2.0, latent_dim=1, eta_enc=0.9)
        assert cf.optimal_sigma(sp, hp)[0] == 0.9

    def test_tight_branch_value(self):
        sp = DataSpectrum.from_singular_values([2.0], dim_y=1)
        hp = cf.Hyperparams(beta=1.0, latent_dim=1)
        assert cf.optimal_sigma(sp, hp)[0] == pytest.approx(0.5)

    def test_golden_section_agrees_with_branch_formula(self, rng):
        """Minimize the per-mode objective numerically; the closed-form
        branch must match within 1e-8 on random instances."""
        for _ in range(25):
            beta = float(rng.uniform(0.2, 6.0))
            zeta = float(rng.uniform(0.0, 3.0))
            hp = cf.Hyperparams(
                beta=beta,
                latent_dim=1,
                eta_enc=float(rng.uniform(0.5, 2.0)),
                eta_dec=float(rng.uniform(0.5, 2.0)),
            )
            sp = DataSpectrum.from_singular_values([zeta], dim_y=1)
            predicted = cf.optimal_sigma(sp, hp)[0]
            numeric = argmin_1d(
                lambda s: mode_objective(hp, zeta, s),
                bracket=(1e-6 * hp.eta_enc, 0.9 * hp.eta_enc, 8.0 * hp.eta_enc),
            )
            assert numeric == pytest.approx(predicted, abs=1e-8)

    def test_bounded_by_prior(self, rng):
        _, sp = make_instance(seed=17)
        for beta in (0.3, 1.0, 5.0):
            hp = cf.Hyperparams(beta=beta, latent_dim=4, eta_enc=1.3)
            sigma = cf.optimal_sigma(sp, hp)
            assert np.all(sigma > 0) and np.all(sigma <= 1.3)


class TestGlobalMinimum:
    def test_soft_threshold_products(self):
        _, sp = make_instance(seed=23, dim_x=5, dim_y=5)
        hp = cf.Hyperparams(beta=1.5, latent_dim=5)
        gm = cf.global_minimum(sp, hp)
        zeta = sp.zeta_padded(5)
        expected = np.where(
            zeta > 0, np.maximum(0.0, zeta**2 - hp.beta * hp.decvar) / np.where(zeta > 0, zeta, 1.0), 0.0
        )
        np.testing.assert_allclose(
            gm.decoder_singvals * gm.encoder_singvals, expected, atol=1e-12
        )

    def test_complete_collapse_zeroes_model(self):
        sp = DataSpectrum.from_singular_values([1.2, 0.8], dim_y=2)
        hp = cf.Hyperparams(beta=2.0, latent_dim=2)  # beta > zeta_max^2
        gm = cf.global_minimum(sp, hp)
        assert np.all(gm.decoder == 0.0) and np.all(gm.encoder == 0.0)
        assert np.all(gm.collapse_flags)
        assert np.all(gm.sigma == hp.eta_enc)

    def test_product_singular_values_via_encoder_map(self):
        ds, sp = make_instance(seed=29, dim_x=6, dim_y=4, rank=4)
        hp = cf.Hyperparams(beta=0.9, latent_dim=3)
        gm = cf.global_minimum(sp, hp)
        v = (sp.basis * np.sqrt(sp.eigenvalues)).T @ gm.encoder
        sv = np.linalg.svd(gm.decoder @ v.T, compute_uv=False)
        expected = np.zeros_like(sv)
        k = min(hp.latent_dim, sp.n_modes)
        expected[:k] = (gm.decoder_singvals * gm.encoder_singvals)[:k]
        np.testing.assert_allclose(sv, expected, atol=1e-8)

    def test_rotation_leaves_loss_invariant(self, rng):
        """Latent-basis freedom of the optimum: any orthogonal mixing when
        the optimal stds are isotropic (fixed-std mode; complete collapse),
        signed permutations when they are not (diagonal covariances do not
        survive dense rotations)."""
        ds, sp = make_instance(seed=31, dim_x=4, dim_y=4)
        m = tr.Moments.from_dataset(ds)

        hp_fixed = cf.Hyperparams(beta=0.7, latent_dim=3, sigma_mode="fixed")
        base = tr.eval_loss(
            params_from_minimum(cf.global_minimum(sp, hp_fixed), hp_fixed), m, hp_fixed
        )
        for seed in range(5):
            gm_rot = cf.global_minimum(
                sp, hp_fixed, rotation=cf.random_rotation(3, seed)
            )
            rotated = tr.eval_loss(params_from_minimum(gm_rot, hp_fixed), m, hp_fixed)
            assert abs(rotated - base) <= 1e-10

        hp_learn = cf.Hyperparams(beta=0.7, latent_dim=3, sigma_mode="learnable")
        base = tr.eval_loss(
            params_from_minimum(cf.global_minimum(sp, hp_learn), hp_learn), m, hp_learn
        )
        for seed in range(5):
            gm_rot = cf.global_minimum(
                sp, hp_learn, rotation=cf.random_signed_permutation(3, seed)
            )
            rotated = tr.eval_loss(params_from_minimum(gm_rot, hp_learn), m, hp_learn)
            assert abs(rotated - base) <= 1e-10

        # complete collapse: the model is zero, stds isotropic, any P works
        hp_big = cf.Hyperparams(beta=200.0, latent_dim=3, sigma_mode="learnable")
        base = tr.eval_loss(
            params_from_minimum(cf.global_minimum(sp, hp_big), hp_big), m, hp_big
        )
        gm_rot = cf.global_minimum(sp, hp_big, rotation=cf.random_rotation(3, 9))
        assert abs(
            tr.eval_loss(params_from_minimum(gm_rot, hp_big), m, hp_big) - base
        ) <= 1e-10

        with pytest.raises(ValueError):
            cf.global_minimum(sp, hp_fixed, rotation=np.ones((3, 3)))

    def test_flags_match_zero_factors(self):
        _, sp = make_instance(seed=37, dim_y=5)
        hp = cf.Hyperparams(beta=1.1, latent_dim=6)
        gm = cf.global_minimum(sp, hp)
        np.testing.assert_array_equal(gm.collapse_flags, gm.decoder_singvals == 0.0)
        np.testing.assert_array_equal(gm.collapse_flags, gm.encoder_singvals == 0.0)

    def test_factors_are_non_increasing(self):
        _, sp = make_instance(seed=41, dim_x=6, dim_y=6)
        hp = cf.Hyperparams(beta=0.8, latent_dim=6)
        gm = cf.global_minimum(sp, hp)
        assert np.all(np.diff(gm.decoder_singvals) <= 1e-12)
        assert np.all(np.diff(gm.encoder_singvals) <= 1e-12)

    def test_predicted_loss_is_global_lower_bound(self, rng):
        """Sample 100 random parameter settings; none may beat the
        predicted minimum."""
        ds, sp = make_instance(seed=43, dim_x=4, dim_y=3)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=1.2, latent_dim=3)
        gm = cf.global_minimum(sp, hp)
        for _ in range(100):
            params = tr.ModelParams(
                decoder=rng.normal(size=(3, 3)) * rng.uniform(0.1, 3),
                encoder=rng.normal(size=(4, 3)) * rng.uniform(0.1, 3),
                log_sigma=rng.uniform(-2, 1, size=3),
            )
            assert tr.eval_loss(params, m, hp) >= gm.predicted_loss - 1e-10

    @pytest.mark.parametrize("sigma_mode", ["fixed", "learnable"])
    @pytest.mark.parametrize(
        "seed, d1, eta_enc, eta_dec", [(43, 3, 1.0, 1.0), (44, 6, 0.7, 1.3)]
    )
    def test_predicted_loss_is_loss_at_minimizer(self, sigma_mode, seed, d1, eta_enc, eta_dec):
        """The closed-form loss equals the exact loss evaluated at the
        closed-form point, target residual included, in both std modes."""
        ds, _ = make_instance(seed=seed, dim_x=5, dim_y=4)
        noise = 0.3 * np.random.default_rng(seed).standard_normal(ds.y.shape)
        sp = compute_spectrum(center(Dataset(ds.x, ds.y + noise))[0])
        m = tr.Moments.from_spectrum(sp)
        hp = cf.Hyperparams(
            beta=2.0, latent_dim=d1, eta_enc=eta_enc, eta_dec=eta_dec, sigma_mode=sigma_mode
        )
        gm = cf.global_minimum(sp, hp)
        loss = tr.eval_loss(params_from_minimum(gm, hp), m, hp)
        assert sp.target_power > np.sum(sp.singular_values**2)
        assert np.any(gm.collapse_flags) and not np.all(gm.collapse_flags)
        assert gm.predicted_loss == pytest.approx(loss, rel=1e-12, abs=0.0)

    def test_gradient_vanishes_at_minimum(self):
        ds, sp = make_instance(seed=47, dim_x=5, dim_y=4)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=1.4, latent_dim=3)
        gm = cf.global_minimum(sp, hp)
        grad = tr.eval_grad(params_from_minimum(gm, hp), m, hp)
        worst = max(
            np.max(np.abs(grad.decoder)),
            np.max(np.abs(grad.encoder)),
            np.max(np.abs(grad.log_sigma)),
        )
        assert worst <= 1e-6

    def test_requires_fixed_decoder_variance(self):
        _, sp = make_instance(seed=53)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2, decvar_mode="learnable")
        with pytest.raises(ValueError):
            cf.global_minimum(sp, hp)


class TestMinimalValues:
    def test_zero_signal_zero_value(self):
        sp = DataSpectrum.from_singular_values([0.0], dim_y=1)
        hp = cf.Hyperparams(beta=1.0, latent_dim=1)
        assert least_residual(sp, hp, np.ones(1)) == 0.0

    def test_fully_clamped_value_is_total_power(self):
        sp = DataSpectrum.from_singular_values([1.5, 1.0], dim_y=2)
        hp = cf.Hyperparams(beta=9.0, latent_dim=2)
        value = least_residual(sp, hp, np.ones(2))
        assert value == pytest.approx(1.5**2 + 1.0)

    def test_truncated_tail_counts_fully(self):
        sp = DataSpectrum.from_singular_values([2.0, 1.0, 0.5], dim_y=3)
        hp = cf.Hyperparams(beta=1e-12, latent_dim=1)
        value = least_residual(sp, hp, np.ones(1))
        assert value == pytest.approx(1.0 + 0.25, abs=1e-5)

    def test_matches_evaluated_optimum(self, rng):
        """Self-consistency: plugging the optimal factors back into the
        reduced objective reproduces the closed-form value."""
        for seed in range(6):
            _, sp = make_instance(seed=100 + seed, dim_x=4, dim_y=4)
            hp = cf.Hyperparams(
                beta=float(rng.uniform(0.3, 4.0)),
                latent_dim=int(rng.integers(1, 6)),
                eta_enc=float(rng.uniform(0.6, 1.5)),
                eta_dec=float(rng.uniform(0.6, 1.5)),
            )
            sigma = rng.uniform(0.4, 1.4, size=hp.latent_dim)
            d1 = hp.latent_dim
            modes = cf.per_mode(sp.zeta_padded(d1), hp.beta, hp.decvar, hp.eta_enc, sigma)
            problem = reduce_to_factorization(sp, hp, sigma)
            u = np.zeros((sp.dim_y, d1))
            v = np.zeros((sp.rank, d1))
            k = min(d1, sp.n_modes)
            u[:, :k] = sp.left_vectors[:, :k] * modes.decoder[:k]
            v[:, :k] = sp.right_vectors[:, :k] * modes.encoder[:k]
            np.testing.assert_allclose(
                problem.evaluate(u, v),
                least_residual(sp, hp, sigma),
                atol=1e-8,
            )

    def test_min_loss_complete_collapse(self):
        sp = DataSpectrum.from_singular_values([1.2, 0.9], dim_y=2)
        hp = cf.Hyperparams(beta=3.0, latent_dim=2, eta_dec=1.5)
        expected = np.sum(sp.singular_values**2) / (2 * 1.5**2)
        assert cf.global_minimum(sp, hp).predicted_loss == pytest.approx(expected)

    def test_min_loss_vanishes_as_beta_to_zero(self):
        sp = DataSpectrum.from_singular_values([2.0, 1.0], dim_y=2)
        hp = cf.Hyperparams(beta=1e-8, latent_dim=2)
        assert 0 <= cf.global_minimum(sp, hp).predicted_loss < 1e-5


class TestInvariances:
    def test_collapse_independent_of_eta_enc(self):
        _, sp = make_instance(seed=59, dim_y=5)
        reference = None
        for eta_enc in (0.25, 1.0, 4.0):
            hp = cf.Hyperparams(beta=1.8, latent_dim=4, eta_enc=eta_enc)
            flags = cf.global_minimum(sp, hp).collapse_flags
            if reference is None:
                reference = flags
            np.testing.assert_array_equal(flags, reference)

    def test_beta_and_eta_dec_interchangeable(self):
        """Only the product sqrt(beta) * eta_dec matters for the fixed-std
        factors and the collapse pattern."""
        _, sp = make_instance(seed=61, dim_y=4)
        pairs = [(4.0, 1.0), (1.0, 2.0), (16.0, 0.5), (0.25, 4.0)]
        results = []
        for beta, eta_dec in pairs:
            hp = cf.Hyperparams(beta=beta, latent_dim=3, eta_dec=eta_dec)
            modes = cf.per_mode(sp.zeta_padded(3), beta, hp.decvar, hp.eta_enc, hp.eta_enc)
            flags = cf.global_minimum(sp, hp).collapse_flags
            results.append((modes.decoder, modes.encoder, flags))
        for lam, theta, flags in results[1:]:
            np.testing.assert_allclose(lam, results[0][0], rtol=1e-12)
            np.testing.assert_allclose(theta, results[0][1], rtol=1e-12)
            np.testing.assert_array_equal(flags, results[0][2])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
        st.floats(0.05, 20.0),
    )
    def test_zero_factor_iff_flag(self, raw, beta):
        zeta = np.sort(np.asarray(raw))[::-1]
        sp = DataSpectrum.from_singular_values(zeta, dim_y=len(raw))
        hp = cf.Hyperparams(beta=beta, latent_dim=len(raw))
        gm = cf.global_minimum(sp, hp)
        for i in range(len(raw)):
            assert (gm.decoder_singvals[i] == 0.0) == bool(gm.collapse_flags[i])
            assert (gm.encoder_singvals[i] == 0.0) == bool(gm.collapse_flags[i])
