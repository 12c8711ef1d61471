import numpy as np
import pytest

from collapse_lab import closed_form as cf
from collapse_lab import decoder_variance as dv
from collapse_lab import trainer as tr
from collapse_lab.data import Dataset
from collapse_lab.errors import (
    DegenerateVariance,
    DivergenceError,
    ShapeError,
)
from collapse_lab.spectrum import DataSpectrum

from conftest import assert_sinks_below, make_instance, sink_run


def pack_grad(params, hp, grad=None, src=None):
    names = tr._trainable_fields(params, hp)
    if grad is None:
        grad = tr.eval_grad(params, src, hp)
    return names, tr._pack(grad, names)


def numeric_grad(params, src, hp, h=1e-6):
    names = tr._trainable_fields(params, hp)
    x0 = tr._pack(params, names)
    out = np.zeros_like(x0)
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e[j] = h
        plus = params.copy()
        tr._unpack(plus, names, x0 + e)
        minus = params.copy()
        tr._unpack(minus, names, x0 - e)
        out[j] = (tr.eval_loss(plus, src, hp) - tr.eval_loss(minus, src, hp)) / (2 * h)
    return out


def random_params(rng, dim_x, dim_y, d1, scale=0.7, bias=False, ddv=False, log_s=None):
    return tr.ModelParams(
        decoder=rng.normal(size=(dim_y, d1)) * scale,
        encoder=rng.normal(size=(dim_x, d1)) * scale,
        log_sigma=rng.uniform(-1.0, 0.5, size=d1),
        enc_bias=rng.normal(size=d1) * 0.4 if bias else None,
        dec_bias=rng.normal(size=dim_y) * 0.4 if bias else None,
        var_slope=rng.normal(size=(d1, dim_x)) * 0.15 if ddv else None,
        var_offset=rng.uniform(0.8, 1.3, size=d1) if ddv else None,
        log_decvar=log_s,
    )


class TestEvalLoss:
    def test_origin_value_is_target_power(self):
        """At the zero model with prior stds, only the reconstruction of
        nothing remains: E||y||^2 / (2 eta_dec^2)."""
        ds, sp = make_instance(seed=2, dim_x=3, dim_y=3)
        hp = cf.Hyperparams(beta=1.3, latent_dim=2, eta_dec=1.4)
        params = tr.ModelParams(
            decoder=np.zeros((3, 2)),
            encoder=np.zeros((3, 2)),
            log_sigma=np.full(2, np.log(hp.eta_enc)),
        )
        expected = sp.target_power / (2 * hp.decvar)
        assert tr.eval_loss(params, ds, hp) == pytest.approx(expected, rel=1e-12)

    def test_spectrum_and_dataset_agree(self, rng):
        ds, sp = make_instance(seed=3, dim_x=4, dim_y=3)
        hp = cf.Hyperparams(beta=0.9, latent_dim=3)
        params = random_params(rng, 4, 3, 3)
        a = tr.eval_loss(params, ds, hp)
        b = tr.eval_loss(params, sp, hp)
        assert a == pytest.approx(b, rel=1e-10)

    def test_monte_carlo_validates_noise_reduction(self, rng):
        """Sampled encoder noise reproduces the integrated-out loss within
        three standard errors."""
        ds, _ = make_instance(seed=5, dim_x=3, dim_y=3, n=200)
        hp = cf.Hyperparams(beta=1.1, latent_dim=2)
        params = random_params(rng, 3, 3, 2)
        closed = tr.eval_loss(params, ds, hp)
        mc, se = tr.eval_loss_monte_carlo(params, ds, hp, n_draws=3000, seed=11)
        assert abs(mc - closed) <= 3 * se
        mc2, _ = tr.eval_loss_monte_carlo(params, ds, hp, n_draws=3000, seed=11)
        assert mc2 == mc  # deterministic for a fixed seed

    def test_loss_only_paths_share_terms_once(self, rng, monkeypatch):
        """The loss-only evaluations build the shared terms once and give
        value_and_grad's loss to the bit."""
        ds, _ = make_instance(seed=5, dim_x=3, dim_y=3, n=200)
        hp = cf.Hyperparams(beta=1.1, latent_dim=2, decvar_mode="learnable")
        params = random_params(rng, 3, 3, 2, bias=True, ddv=True, log_s=0.3)
        calls, core = [], tr._core_terms

        def counted(*args):
            calls.append(1)
            return core(*args)

        monkeypatch.setattr(tr, "_core_terms", counted)
        loss = tr.eval_loss(params, ds, hp)
        assert len(calls) == 1
        assert loss == tr.value_and_grad(params, ds, hp)[0]
        calls.clear()
        tr.eval_loss_monte_carlo(params, ds, hp, n_draws=2)
        assert len(calls) == 1

    def test_solution_loss_matches_closed_form_value(self):
        ds, sp = make_instance(seed=7, dim_x=5, dim_y=4)
        hp = cf.Hyperparams(beta=1.7, latent_dim=3)
        gm = cf.global_minimum(sp, hp)
        loss = tr.eval_loss(tr.params_from_minimum(gm, hp), ds, hp)
        assert loss == pytest.approx(
            cf.min_loss_value(sp, hp) + cf.loss_offset(sp, hp.decvar), abs=1e-8
        )

    def test_shape_mismatch_raises(self, rng):
        ds, _ = make_instance(seed=9, dim_x=3, dim_y=2)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        params = random_params(rng, 4, 2, 2)  # wrong input dim
        with pytest.raises(ShapeError):
            tr.eval_loss(params, ds, hp)

    def test_ddv_needs_samples(self, rng):
        _, sp = make_instance(seed=11, dim_x=3, dim_y=2)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        params = random_params(rng, 3, 2, 2, ddv=True)
        with pytest.raises(ShapeError):
            tr.eval_loss(params, sp, hp)

    def test_ddv_zero_std_sample_raises(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ds = Dataset(x=x, y=x.copy(), centered=True)
        hp = cf.Hyperparams(beta=1.0, latent_dim=1)
        params = tr.ModelParams(
            decoder=np.zeros((2, 1)),
            encoder=np.zeros((2, 1)),
            log_sigma=np.zeros(1),
            var_slope=np.array([[1.0, 0.0]]),
            var_offset=np.array([1.0]),  # |x0 + 1| = 0 on the second sample
        )
        with pytest.raises(DegenerateVariance):
            tr.eval_loss(params, ds, hp)


class TestEvalGrad:
    @pytest.mark.parametrize("bias,ddv,learn_s", [
        (False, False, False),
        (True, False, False),
        (False, True, False),
        (True, True, True),
        (False, False, True),
    ])
    def test_matches_central_finite_differences(self, rng, bias, ddv, learn_s):
        ds, _ = make_instance(seed=13, dim_x=4, dim_y=3, n=150)
        hp = cf.Hyperparams(
            beta=1.4,
            latent_dim=3,
            eta_enc=1.1,
            eta_dec=0.9,
            decvar_mode="learnable" if learn_s else "fixed",
        )
        for trial in range(2):
            params = random_params(
                rng, 4, 3, 3, bias=bias, ddv=ddv, log_s=0.3 if learn_s else None
            )
            names, analytic = pack_grad(params, hp, src=ds)
            numeric = numeric_grad(params, ds, hp)
            scale = 1.0 + np.max(np.abs(numeric))
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_gradient_vanishes_at_optimal_biases(self, rng):
        """For any encoder/decoder, zeroing the bias gradient requires the
        encoder bias to cancel the input mean and the decoder bias to
        match the target mean."""
        for seed in range(20):
            g = np.random.default_rng(seed)
            n, dim_x, dim_y, d1 = 60, 3, 2, 2
            x = g.normal(size=(n, dim_x)) + g.normal(size=dim_x) * 2.0
            y = g.normal(size=(n, dim_y)) + g.normal(size=dim_y) * 2.0
            ds = Dataset(x=x, y=y)
            hp = cf.Hyperparams(beta=1.2, latent_dim=d1)
            params = random_params(g, dim_x, dim_y, d1, bias=True)
            params.enc_bias = -params.encoder.T @ x.mean(axis=0)
            params.dec_bias = y.mean(axis=0)
            grad = tr.eval_grad(params, ds, hp)
            assert np.max(np.abs(grad.enc_bias)) <= 1e-8
            assert np.max(np.abs(grad.dec_bias)) <= 1e-8


class TestTrain:
    def test_converges_at_solution_immediately(self):
        ds, sp = make_instance(seed=17, dim_x=4, dim_y=4)
        hp = cf.Hyperparams(beta=1.2, latent_dim=3)
        gm = cf.global_minimum(sp, hp)
        result = tr.train(
            tr.params_from_minimum(gm, hp), ds, hp, tr.TrainConfig(grad_tol=1e-7)
        )
        assert result.converged and result.steps == 0

    def test_recovers_closed_form_minimum(self):
        ds, sp = make_instance(seed=19, dim_x=5, dim_y=5, scale=1.2)
        hp = cf.Hyperparams(beta=1.1, latent_dim=4)
        gm = cf.global_minimum(sp, hp)
        first = tr.train(
            0, sp, hp, tr.TrainConfig("adam", 5e-3, max_steps=8000, grad_tol=1e-9)
        )
        result = tr.train(
            first.params, sp, hp, tr.TrainConfig("gd", 0.05, max_steps=2500, grad_tol=1e-9)
        )
        rel = abs(result.final_loss - gm.predicted_loss) / (1 + abs(gm.predicted_loss))
        assert rel < 1e-6

    def test_complete_collapse_training_zeroes_model(self):
        ds, sp = make_instance(seed=23, dim_x=4, dim_y=4)
        top = float(sp.singular_values[0] ** 2)
        hp = cf.Hyperparams(beta=top * 1.3, latent_dim=3)
        first = tr.train(1, sp, hp, tr.TrainConfig("adam", 5e-3, max_steps=6000, grad_tol=1e-10))
        result = tr.train(
            first.params, sp, hp, tr.TrainConfig("gd", 0.05, max_steps=2000, grad_tol=1e-10)
        )
        assert np.linalg.norm(result.params.decoder) <= 1e-3
        v = (sp.basis * np.sqrt(sp.eigenvalues)).T @ result.params.encoder
        assert np.linalg.norm(v) <= 1e-3
        np.testing.assert_allclose(result.params.sigma, hp.eta_enc, atol=1e-3)

    def test_plain_gd_descends_monotonically(self):
        ds, sp = make_instance(seed=29, dim_x=4, dim_y=3)
        hp = cf.Hyperparams(beta=0.8, latent_dim=2)
        result = tr.train(
            3, sp, hp, tr.TrainConfig("gd", 0.5, max_steps=400, grad_tol=0.0), trace=True
        )
        diffs = np.diff(result.loss_trace)
        assert np.all(diffs <= 0.0)

    def test_divergence_raises_at_bad_init(self):
        ds, sp = make_instance(seed=31, dim_x=3, dim_y=3)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        bad = tr.init_params(sp, hp, seed=0)
        bad.log_sigma = np.full(2, 800.0)  # sigma^2 overflows to inf
        bad.decoder = np.ones((3, 2))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(DivergenceError) as err:
                tr.train(bad, sp, hp, tr.TrainConfig("adam", 1e-3, max_steps=10))
        assert err.value.step == 0

    def test_divergence_raises_mid_run(self):
        """An absurd step size on the learnable decoder variance drives it
        to exact zero within a few steps; the 1/s term overflows and the
        failing step is reported."""
        sp = DataSpectrum.from_singular_values([1.5, 1.0], dim_y=2)
        hp = cf.Hyperparams(beta=0.5, latent_dim=2, decvar_mode="learnable")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(DivergenceError) as err:
                tr.train(
                    0, sp, hp, tr.TrainConfig("adam", 400.0, max_steps=50, grad_tol=0.0)
                )
        assert err.value.step >= 1

    def test_deterministic_for_fixed_seed(self):
        ds, sp = make_instance(seed=37, dim_x=3, dim_y=3)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        cfg = tr.TrainConfig("adam", 1e-3, max_steps=300, grad_tol=1e-12)
        a = tr.train(5, sp, hp, cfg)
        b = tr.train(5, sp, hp, cfg)
        assert a.final_loss == b.final_loss
        assert a.params.decoder.tobytes() == b.params.decoder.tobytes()

    def test_rotating_converged_model_keeps_loss(self):
        """With isotropic stds the converged loss is exactly blind to an
        orthogonal remix of the latent columns."""
        ds, sp = make_instance(seed=43, dim_x=4, dim_y=3)
        hp = cf.Hyperparams(beta=0.9, latent_dim=3, sigma_mode="fixed")
        result = tr.train(
            2, sp, hp, tr.TrainConfig("adam", 5e-3, max_steps=4000, grad_tol=1e-9)
        )
        base = tr.eval_loss(result.params, ds, hp)
        for seed in range(4):
            rot = cf.random_rotation(3, seed)
            rotated = result.params.copy()
            rotated.decoder = result.params.decoder @ rot
            rotated.encoder = result.params.encoder @ rot
            assert abs(tr.eval_loss(rotated, ds, hp) - base) <= 1e-10

    def test_trained_biases_land_on_optimal_values(self):
        g = np.random.default_rng(47)
        x = g.normal(size=(80, 3)) + np.array([2.0, -1.0, 0.5])
        m = g.normal(size=(2, 3))
        y = x @ m.T + np.array([1.5, -0.7])
        ds = Dataset(x=x, y=y)
        hp = cf.Hyperparams(beta=0.8, latent_dim=2)
        init = tr.init_params(ds, hp, seed=0, bias=True)
        first = tr.train(init, ds, hp, tr.TrainConfig("adam", 5e-3, max_steps=6000, grad_tol=1e-10))
        result = tr.train(
            first.params, ds, hp, tr.TrainConfig("gd", 0.05, max_steps=2500, grad_tol=1e-10)
        )
        p = result.params
        np.testing.assert_allclose(
            p.enc_bias, -p.encoder.T @ x.mean(axis=0), atol=1e-3
        )
        np.testing.assert_allclose(p.dec_bias, y.mean(axis=0), atol=1e-3)


class TestDataDependentVariance:
    def test_flat_twin_identical_when_slope_zero(self, rng):
        ds, _ = make_instance(seed=53, dim_x=3, dim_y=2, n=100)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        params = random_params(rng, 3, 2, 2, ddv=True)
        params.var_slope = np.zeros_like(params.var_slope)
        lhs, rhs = tr.ddv_inequality_check(params, ds, hp)
        assert lhs == rhs

    def test_inequality_holds_over_100_draws(self):
        ds, _ = make_instance(seed=59, dim_x=3, dim_y=2, n=120)
        hp = cf.Hyperparams(beta=1.4, latent_dim=2)
        g = np.random.default_rng(61)
        for _ in range(100):
            params = random_params(g, 3, 2, 2, ddv=True)
            lhs, rhs = tr.ddv_inequality_check(params, ds, hp)
            assert lhs >= rhs - 1e-10

    def test_training_flattens_the_slope(self):
        ds, _ = make_instance(seed=67, dim_x=3, dim_y=3, n=200)
        hp = cf.Hyperparams(beta=1.2, latent_dim=2)
        init = tr.init_params(ds, hp, seed=4, ddv=True)
        first = tr.train(init, ds, hp, tr.TrainConfig("adam", 5e-3, max_steps=8000, grad_tol=1e-10))
        result = tr.train(
            first.params, ds, hp, tr.TrainConfig("gd", 0.05, max_steps=3000, grad_tol=1e-10)
        )
        assert np.linalg.norm(result.params.var_slope) <= 1e-3


class TestLearnableDecoderVariance:
    def test_converges_to_profile_optimum(self):
        zeta = np.array([2.2, 1.6, 0.9, 0.5])
        sp = DataSpectrum.from_singular_values(zeta, dim_y=5)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2, decvar_mode="learnable")
        sol = dv.solve_decoder_variance(sp, hp)
        first = tr.train(0, sp, hp, tr.TrainConfig("adam", 5e-3, max_steps=8000, grad_tol=1e-10))
        result = tr.train(
            first.params, sp, hp, tr.TrainConfig("gd", 0.05, max_steps=2500, grad_tol=1e-10)
        )
        assert abs(result.params.decvar - sol.s_star) / sol.s_star <= 1e-3

    def test_ill_posed_variance_decays_past_any_floor(self):
        """In the ill-posed regime the decoder variance has no minimizer;
        training pushes it below every decade threshold for good."""
        zeta = np.array([1.8, 1.2, 0.7])
        sp = DataSpectrum.from_singular_values(zeta, dim_y=3)
        hp = cf.Hyperparams(beta=0.5, latent_dim=3, decvar_mode="learnable")
        assert dv.solve_decoder_variance(sp, hp).regime == dv.REGIME_ILL_POSED
        assert_sinks_below(sink_run(sp, hp, seed=1), floor=1e-4)
