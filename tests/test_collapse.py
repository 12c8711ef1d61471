import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapse_lab import closed_form as cf
from collapse_lab import collapse as cl
from collapse_lab import decoder_variance as dv
from collapse_lab.data import Dataset, center
from collapse_lab.spectrum import DataSpectrum, compute_spectrum

from conftest import make_instance
from oracles import minimize_profile, numeric_hessian_check

PAPER_TOP5 = [5.12, 3.74, 3.25, 2.84, 2.57]


class TestPredictFixed:
    def test_published_spectrum_no_collapse_at_beta_3(self):
        """Under the fixed-variance rule the thresholds are zeta_i^2, so
        beta = 3 collapses nothing for the published top-5 spectrum: even
        the weakest mode has zeta_5^2 = 6.6."""
        sp = DataSpectrum.from_singular_values(PAPER_TOP5, dim_y=5)
        hp = cf.Hyperparams(beta=3.0, latent_dim=5)
        report = cl.predict(sp, hp)
        assert not report.collapse_flags.any()
        assert report.regime == cl.REGIME_NONE
        np.testing.assert_allclose(report.mode_thresholds, np.array(PAPER_TOP5) ** 2)

    def test_tiny_beta_no_collapse(self):
        _, sp = make_instance(seed=3)
        hp = cf.Hyperparams(beta=1e-9, latent_dim=4)
        assert cl.predict(sp, hp).regime == cl.REGIME_NONE

    def test_beta_above_max_threshold_complete(self):
        _, sp = make_instance(seed=5)
        top = sp.singular_values[0] ** 2
        hp = cf.Hyperparams(beta=float(top) * 1.001, latent_dim=4)
        report = cl.predict(sp, hp)
        assert report.regime == cl.REGIME_COMPLETE
        assert report.collapse_flags.all()
        assert report.hessian_psd

    def test_regimes_consistent_with_flags(self):
        _, sp = make_instance(seed=7, dim_y=5)
        mid = float(np.median(sp.singular_values**2))
        report = cl.predict(sp, cf.Hyperparams(beta=mid * 1.01, latent_dim=5))
        assert report.regime == cl.REGIME_PARTIAL

    def test_flags_agree_bit_for_bit_with_solver(self, rng):
        """The predictor's flags and the global minimum's flags are the
        same booleans on every shared mode, for any draw."""
        for seed in range(8):
            _, sp = make_instance(seed=80 + seed, dim_x=5, dim_y=4)
            hp = cf.Hyperparams(
                beta=float(rng.uniform(0.05, 8.0)),
                latent_dim=int(rng.integers(1, 7)),
                eta_dec=float(rng.uniform(0.5, 1.5)),
            )
            from collapse_lab.closed_form import global_minimum

            gm = global_minimum(sp, hp)
            report = cl.predict(sp, hp)
            k = min(hp.latent_dim, sp.n_modes)
            np.testing.assert_array_equal(
                gm.collapse_flags[:k], report.collapse_flags[:k]
            )


class TestHessianOrigin:
    def test_zero_signal_is_psd(self):
        sp = DataSpectrum.from_singular_values([0.0], dim_y=2)
        report = cl.predict(sp, cf.Hyperparams(beta=1.0, latent_dim=1))
        psd, min_q = report.hessian_psd, report.min_hessian_quadratic
        # pure regularizer: worst curvature is 2 min(sigma^2, ridge)
        assert psd and min_q == pytest.approx(2.0)

    def test_boundary_equality_gives_zero_quadratic(self):
        sp = DataSpectrum.from_singular_values([2.0], dim_y=1)
        report = cl.predict(sp, cf.Hyperparams(beta=4.0, latent_dim=1))
        psd, min_q = report.hessian_psd, report.min_hessian_quadratic
        assert min_q == 0.0 and psd

    def test_psd_iff_complete_collapse_on_200_instances(self, rng):
        """The sign of the curvature at the origin and the global collapse
        predicate agree exactly, with no tolerance."""
        mismatches = 0
        for _ in range(200):
            k = int(rng.integers(1, 6))
            zeta = np.sort(rng.uniform(0.0, 2.5, size=k))[::-1]
            sp = DataSpectrum.from_singular_values(zeta, dim_y=k + 1)
            hp = cf.Hyperparams(
                beta=float(rng.uniform(0.05, 8.0)),
                latent_dim=int(rng.integers(1, k + 2)),
                eta_enc=float(rng.choice([0.25, 1.0, 4.0])),
                eta_dec=float(rng.uniform(0.5, 1.5)),
            )
            report = cl.predict(sp, hp)
            complete = report.regime == cl.REGIME_COMPLETE
            if (report.min_hessian_quadratic >= 0) != complete or report.hessian_psd != complete:
                mismatches += 1
        assert mismatches == 0


LOG_UNIFORM_ETA = st.floats(-1.0, 1.0).map(lambda u: 2.0**u)  # in [0.5, 2]


def _assert_one_verdict(sp, hp, beta=None):
    """Both blocks of ``predict``: the curvature verdict is complete
    collapse, and in the fixed block the printed curvature has its sign.
    With ``beta`` None, each block is queried at the top threshold it
    printed."""
    for decvar_mode in ("fixed", "learnable"):
        block_hp = replace(hp, decvar_mode=decvar_mode)
        if beta is None:
            block_hp = replace(block_hp, beta=float(cl.predict(sp, block_hp).mode_thresholds[0]))
        report = cl.predict(sp, block_hp)
        assert report.hessian_psd == (report.regime == cl.REGIME_COMPLETE), decvar_mode
        if decvar_mode == "fixed":
            assert (report.min_hessian_quadratic >= 0) == report.hessian_psd


class TestOneVerdict:
    """The origin test, the regime and the flags read one survivor rule,
    also with beta exactly on a printed threshold, where a curvature taken
    as a difference of near-equal terms used to round to either sign."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(0.05, 5.0), min_size=1, max_size=4),
        st.integers(0, 2),
        st.integers(1, 5),
        LOG_UNIFORM_ETA,
        LOG_UNIFORM_ETA,
    )
    # here a float's ** rounds zeta^2 one ulp above the array square per_mode takes
    @example([2.337234668120873], 0, 1, 0.5327110846408608, 1.535852100555914)
    def test_verdict_at_top_threshold(self, zeta, extra_dims, d1, eta_enc, eta_dec):
        sp = DataSpectrum.from_singular_values(sorted(zeta, reverse=True),
                                               dim_y=len(zeta) + extra_dims)
        hp = cf.Hyperparams(beta=1.0, latent_dim=d1, eta_enc=eta_enc, eta_dec=eta_dec)
        _assert_one_verdict(sp, hp)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.floats(0.05, 20.0),
           LOG_UNIFORM_ETA, LOG_UNIFORM_ETA)
    def test_zero_spectrum_is_complete(self, n_modes, d1, beta, eta_enc, eta_dec):
        """Every threshold of a zero spectrum is 0, so any beta is past them."""
        sp = DataSpectrum.from_singular_values([0.0] * n_modes, dim_y=n_modes)
        hp = cf.Hyperparams(beta=beta, latent_dim=d1, eta_enc=eta_enc, eta_dec=eta_dec)
        _assert_one_verdict(sp, hp, beta=beta)
        assert cl.predict(sp, hp).regime == cl.REGIME_COMPLETE


class TestNumericHessian:
    def test_sign_agreement_both_ways(self):
        _, sp = make_instance(seed=11, dim_x=4, dim_y=4)
        saddle_hp = cf.Hyperparams(beta=0.4, latent_dim=3)
        report = cl.predict(sp, saddle_hp)
        psd, min_q = report.hessian_psd, report.min_hessian_quadratic
        assert not psd and min_q < -1e-4
        assert numeric_hessian_check(sp, saddle_hp) < 0

        flat_hp = cf.Hyperparams(beta=float(sp.singular_values[0] ** 2 * 3), latent_dim=3)
        report = cl.predict(sp, flat_hp)
        psd, min_q = report.hessian_psd, report.min_hessian_quadratic
        assert psd and min_q > 1e-4
        assert numeric_hessian_check(sp, flat_hp) >= -1e-6

    def test_zero_signal_pure_decoder_curvature(self):
        """With no signal the quadratic form along decoder-only directions
        is exactly twice the squared encoder std."""
        sp = DataSpectrum.from_singular_values([0.0, 0.0], dim_y=2)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2, eta_enc=1.4)
        worst = numeric_hessian_check(sp, hp, n_directions=64, seed=1)
        # every direction mixes decoder and encoder; the decoder part
        # contributes 2 sigma^2, the encoder part 2 beta decvar / eta_enc^2
        assert worst >= min(2 * 1.4**2, 2 * 1.0 / 1.4**2) - 1e-6
        params_curv = numeric_hessian_check(sp, hp, n_directions=1, seed=3)
        assert params_curv > 0

    def test_rejects_bad_direction_count(self):
        _, sp = make_instance(seed=13)
        with pytest.raises(ValueError):
            numeric_hessian_check(sp, cf.Hyperparams(beta=1.0, latent_dim=2), 0)


class TestBetaSweep:
    def test_rank_steps_down_to_zero(self):
        _, sp = make_instance(seed=17, dim_x=5, dim_y=5, scale=1.2)
        hp = cf.Hyperparams(beta=1.0, latent_dim=5)
        thresholds = np.sort(sp.singular_values**2)[::-1]
        grid = np.unique(
            np.concatenate([thresholds * 0.95, thresholds * 1.05, [1e-3]])
        )
        grid.sort()
        rows = cl.beta_sweep(sp, hp, grid)
        ranks = [r.rank for r in rows]
        assert ranks[0] == 5 and ranks[-1] == 0
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))
        # complete collapse exactly above the top threshold
        for row in rows:
            if row.beta > thresholds[0]:
                assert row.rank == 0 and row.regime == cl.REGIME_COMPLETE

    def test_grid_below_thresholds_constant_rank(self):
        _, sp = make_instance(seed=19, dim_y=4)
        floor = float(np.min(sp.singular_values[sp.singular_values > 0] ** 2))
        hp = cf.Hyperparams(beta=1.0, latent_dim=4)
        rows = cl.beta_sweep(sp, hp, np.linspace(floor * 0.01, floor * 0.9, 7))
        assert len({r.rank for r in rows}) == 1

    def test_single_point_grid(self):
        _, sp = make_instance(seed=23)
        rows = cl.beta_sweep(sp, cf.Hyperparams(beta=1.0, latent_dim=2), [1.5])
        assert len(rows) == 1 and rows[0].beta == 1.5

    def test_sigma_rises_to_prior_at_threshold_and_stays(self):
        """Each mode's optimal std climbs to the prior value exactly at its
        own collapse threshold and is constant beyond."""
        zeta = np.array([2.0, 1.2])
        sp = DataSpectrum.from_singular_values(zeta, dim_y=2)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2, eta_enc=0.8)
        thr = zeta**2
        for i, t in enumerate(thr):
            at = cf.optimal_sigma(sp, replace(hp, beta=float(t)))
            assert at[i] == pytest.approx(0.8)
            beyond = cf.optimal_sigma(sp, replace(hp, beta=float(t) * 2.7))
            assert beyond[i] == 0.8
            just_below = cf.optimal_sigma(sp, replace(hp, beta=float(t) * 0.99))
            assert just_below[i] == pytest.approx(0.8 * np.sqrt(0.99))

    def test_rejects_bad_grid(self):
        _, sp = make_instance(seed=31)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        with pytest.raises(ValueError):
            cl.beta_sweep(sp, hp, [2.0, 1.0])
        with pytest.raises(ValueError):
            cl.beta_sweep(sp, hp, [])

    @pytest.mark.parametrize("sigma_mode", ["fixed", "learnable"])
    @pytest.mark.parametrize("d1", [2, 6])
    def test_fixed_decvar_rows_equal_scalar_closed_forms(self, sigma_mode, d1):
        """Each row of the one-pass sweep is bit for bit the per-beta
        scalar answer, with d1 below and beyond the data rank of 4."""
        _, sp = make_instance(seed=29, dim_x=4, dim_y=5)
        hp = cf.Hyperparams(beta=1.0, latent_dim=d1, eta_enc=0.8, eta_dec=1.1,
                            sigma_mode=sigma_mode)
        top = float(sp.singular_values[0] ** 2) / hp.decvar
        rows = cl.beta_sweep(sp, hp, np.linspace(0.02, 1.2 * top, 40))
        assert {r.regime for r in rows} == {cl.REGIME_NONE, cl.REGIME_PARTIAL,
                                            cl.REGIME_COMPLETE}
        for row in rows:
            hp_b = replace(hp, beta=row.beta)
            gm = cf.global_minimum(sp, hp_b)
            assert row.loss == gm.predicted_loss
            assert row.rank == np.count_nonzero(~gm.collapse_flags)
            assert row.regime == cl.predict(sp, hp_b).regime
            np.testing.assert_array_equal(row.sigma, np.sort(gm.sigma)[::-1])
            assert row.s_star is None

    def test_one_per_mode_pass(self, monkeypatch):
        """A sweep evaluates the per-mode kernel once, whatever its length."""
        calls, kernel = [], cf.per_mode

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(cf, "per_mode", counted)
        monkeypatch.setattr(cl, "per_mode", counted)
        sp = DataSpectrum.from_singular_values(PAPER_TOP5, dim_y=5)
        for decvar_mode in ("fixed", "learnable"):
            calls.clear()
            hp = cf.Hyperparams(beta=1.0, latent_dim=5, decvar_mode=decvar_mode)
            cl.beta_sweep(sp, hp, np.linspace(0.1, 30.0, 300))
            assert len(calls) == 1, decvar_mode

    def test_one_bound_table_per_call(self, monkeypatch):
        """A learnable sweep and a learnable predict each build the bound
        table once, and a sweep builds no per-beta solution object."""
        bounds, solutions = [], []
        table, solution = dv.beta_bounds, dv.DecVarSolution

        def counted_bounds(*args, **kwargs):
            bounds.append(1)
            return table(*args, **kwargs)

        def counted_solution(*args, **kwargs):
            solutions.append(1)
            return solution(*args, **kwargs)

        monkeypatch.setattr(dv, "beta_bounds", counted_bounds)
        monkeypatch.setattr(dv, "DecVarSolution", counted_solution)
        sp = DataSpectrum.from_singular_values(PAPER_TOP5, dim_y=5)
        hp = cf.Hyperparams(beta=1.0, latent_dim=5, decvar_mode="learnable")
        cl.beta_sweep(sp, hp, np.linspace(0.1, 30.0, 300))
        assert (len(bounds), len(solutions)) == (1, 0)
        bounds.clear()
        cl.predict(sp, hp)
        assert (len(bounds), len(solutions)) == (1, 1)

    def test_learnable_decvar_rows_track_solver(self):
        sp = DataSpectrum.from_singular_values(PAPER_TOP5, dim_y=5)
        hp = cf.Hyperparams(beta=1.0, latent_dim=5, decvar_mode="learnable")
        rows = cl.beta_sweep(sp, hp, np.linspace(0.5, 6.0, 12))
        ranks = [r.rank for r in rows]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))
        assert dv.REGIME_BOUNDARY in {r.regime for r in rows}
        for row in rows:
            hp_b = replace(hp, beta=row.beta)
            sol = dv.solve_decoder_variance(sp, hp_b)
            assert (row.regime, row.rank, row.s_star) == (
                sol.regime, sol.surviving_modes, sol.s_star
            )
            if row.regime == dv.REGIME_ILL_POSED:
                assert row.s_star is None and np.isnan(row.loss)
                assert not row.sigma.any()
                continue
            if row.regime == dv.REGIME_BOUNDARY:
                # the profile loss is flat on the whole minimizer set
                s = sol.s_interval[1]
                inside = dv.profile_loss(sp, hp_b, 0.5 * s)
                assert row.loss == pytest.approx(inside, rel=1e-12)
            else:
                # an independent check: the numeric argmin of the profile
                s = row.s_star
                assert s == pytest.approx(minimize_profile(sp, hp_b), rel=1e-6)
            assert row.loss == dv.profile_loss(sp, hp_b, s) + cf.loss_offset(sp, s)


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.1, 4.0), st.floats(1.2, 8.0))
    def test_flags_monotone_in_beta(self, seed, beta, factor):
        g = np.random.default_rng(seed)
        zeta = np.sort(g.uniform(0.0, 2.5, size=4))[::-1]
        sp = DataSpectrum.from_singular_values(zeta, dim_y=4)
        lo = cl.predict(sp, cf.Hyperparams(beta=beta, latent_dim=4)).collapse_flags
        hi = cl.predict(sp, cf.Hyperparams(beta=beta * factor, latent_dim=4)).collapse_flags
        assert np.all(hi | ~lo)  # collapsed modes stay collapsed

    def test_target_scaling_scales_thresholds(self):
        ds, sp = make_instance(seed=37, dim_x=4, dim_y=3)
        c = 3.0
        scaled, _, _ = center(Dataset(ds.x, c * ds.y))
        sp_scaled = compute_spectrum(scaled)
        np.testing.assert_allclose(
            sp_scaled.singular_values, c * sp.singular_values, atol=1e-9
        )
        hp = cf.Hyperparams(beta=1.0, latent_dim=3)
        np.testing.assert_allclose(
            cl.predict(sp_scaled, hp).mode_thresholds,
            c**2 * cl.predict(sp, hp).mode_thresholds,
            rtol=1e-9,
        )
