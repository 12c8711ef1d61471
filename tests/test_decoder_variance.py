import numpy as np
import pytest
from dataclasses import replace

from collapse_lab import closed_form as cf
from collapse_lab import decoder_variance as dv
from collapse_lab.errors import DomainError
from collapse_lab.spectrum import DataSpectrum

from conftest import random_case3_spectrum
from oracles import minimize_profile, residual_power

PAPER_TOP5 = [5.12, 3.74, 3.25, 2.84, 2.57]


def finite_diff(fun, x, h=1e-7):
    return (fun(x + h) - fun(x - h)) / (2 * h)


class TestProfileLoss:
    def test_zero_spectrum_is_pure_partition_term(self):
        sp = DataSpectrum.from_singular_values([0.0, 0.0], dim_y=3)
        hp = cf.Hyperparams(beta=1.0, latent_dim=2)
        for s in (0.01, 0.5, 2.0):
            assert dv.profile_loss(sp, hp, s) == pytest.approx(1.5 * np.log(s))
        # decreasing toward s -> 0: no minimizer
        assert dv.profile_loss(sp, hp, 1e-6) < dv.profile_loss(sp, hp, 1e-3)

    def test_rejects_nonpositive_variance(self):
        sp = DataSpectrum.from_singular_values([1.0], dim_y=1)
        hp = cf.Hyperparams(beta=1.0, latent_dim=1)
        with pytest.raises(DomainError):
            dv.profile_loss(sp, hp, 0.0)
        with pytest.raises(DomainError):
            dv.profile_loss(sp, hp, -1.0)

    def test_continuous_and_smooth_at_mode_thresholds(self):
        """Each threshold s = zeta_i^2 / beta is a kink of the formula but
        the function and its derivative stay continuous there."""
        sp = DataSpectrum.from_singular_values([2.0, 1.3, 0.6], dim_y=4)
        hp = cf.Hyperparams(beta=1.7, latent_dim=3)
        for zeta in sp.singular_values:
            s_kink = zeta**2 / hp.beta
            eps = 1e-6
            left = dv.profile_loss(sp, hp, s_kink - eps)
            right = dv.profile_loss(sp, hp, s_kink + eps)
            assert abs(left - right) < 1e-4
            d_left = finite_diff(lambda s: dv.profile_loss(sp, hp, s), s_kink - 10 * eps)
            d_right = finite_diff(lambda s: dv.profile_loss(sp, hp, s), s_kink + 10 * eps)
            assert abs(d_left - d_right) < 1e-3

    def test_rises_past_the_upper_bracket_point(self):
        """At s = zeta_1^2/beta + sum(zeta^2) the profile is provably
        increasing, so no minimizer hides beyond the search bracket."""
        sp = DataSpectrum.from_singular_values([2.0, 1.0], dim_y=2)
        hp = cf.Hyperparams(beta=0.8, latent_dim=2)
        s_plus = sp.singular_values[0] ** 2 / hp.beta + np.sum(sp.singular_values**2)
        assert finite_diff(lambda s: dv.profile_loss(sp, hp, s), s_plus) > 0


class TestSolver:
    def test_stationarity_condition(self, rng):
        """d2 * s_star equals the residual power at s_star whenever the
        optimum is interior."""
        for _ in range(20):
            sp, hp = random_case3_spectrum(rng)
            sol = dv.solve_decoder_variance(sp, hp)
            if sol.s_star is None:
                continue
            gap = sp.dim_y * sol.s_star - residual_power(sp, hp, sol.s_star)
            assert abs(gap) <= 1e-10 * max(1.0, sp.dim_y * sol.s_star)

    def test_unique_sign_change_of_derivative(self, rng):
        sp, hp = random_case3_spectrum(rng, n_modes=5, d1=3, d2=6)
        sol = dv.solve_decoder_variance(sp, hp)
        grid = np.geomspace(sol.s_star * 1e-3, sol.s_star * 1e3, 2000)
        derivs = np.array(
            [finite_diff(lambda s: dv.profile_loss(sp, hp, s), s, h=1e-6 * s) for s in grid]
        )
        signs = np.sign(derivs[np.abs(derivs) > 1e-9])
        flips = np.count_nonzero(np.diff(signs) != 0)
        assert flips == 1

    def test_matches_numeric_oracle_on_random_spectra(self, rng):
        for _ in range(20):
            sp, hp = random_case3_spectrum(rng)
            sol = dv.solve_decoder_variance(sp, hp)
            if sol.s_star is None:
                continue
            numeric = minimize_profile(sp, hp)
            assert abs(numeric - sol.s_star) / sol.s_star <= 1e-6

    def test_complete_collapse_bullet(self):
        zeta = np.array([2.0, 1.5, 0.9])
        sp = DataSpectrum.from_singular_values(zeta, dim_y=4)
        threshold = 4 * zeta[0] ** 2 / np.sum(zeta**2)
        hp = cf.Hyperparams(beta=1.3 * threshold, latent_dim=2)
        sol = dv.solve_decoder_variance(sp, hp)
        assert sol.regime == dv.REGIME_COMPLETE
        assert sol.surviving_modes == 0
        assert sol.s_star == pytest.approx(np.sum(zeta**2) / 4)
        assert sol.beta_interval[0] == pytest.approx(threshold)
        numeric = minimize_profile(sp, hp)
        assert numeric == pytest.approx(sol.s_star, rel=1e-6)

    def test_no_collapse_bullet(self):
        zeta = np.array([2.0, 1.5, 0.9, 0.5])
        d1, d2 = 2, 5
        sp = DataSpectrum.from_singular_values(zeta, dim_y=d2)
        tail = np.sum(zeta[d1:] ** 2)
        bound = d2 * zeta[d1 - 1] ** 2 / (d1 * zeta[d1 - 1] ** 2 + tail)
        hp = cf.Hyperparams(beta=0.62 * bound, latent_dim=d1)
        sol = dv.solve_decoder_variance(sp, hp)
        assert sol.regime == dv.REGIME_NO_COLLAPSE
        assert sol.surviving_modes == d1
        assert sol.s_star == pytest.approx(tail / (d2 - hp.beta * d1))
        assert sol.beta_interval == (0.0, pytest.approx(bound))
        numeric = minimize_profile(sp, hp)
        assert numeric == pytest.approx(sol.s_star, rel=1e-6)

    def test_partial_interval_and_membership(self, rng):
        zeta = np.sort(rng.uniform(0.5, 3.0, size=5))[::-1]
        sp = DataSpectrum.from_singular_values(zeta, dim_y=6)
        hp_probe = cf.Hyperparams(beta=1.0, latent_dim=4)
        rows = dv.beta_breakpoints(sp, hp_probe)
        partial_rows = [r for r in rows if r["regime"] == dv.REGIME_PARTIAL]
        assert partial_rows
        for row in partial_rows:
            beta_mid = 0.5 * (row["beta_lo"] + row["beta_hi"])
            sol = dv.solve_decoder_variance(
                sp, cf.Hyperparams(beta=beta_mid, latent_dim=4)
            )
            assert sol.regime == dv.REGIME_PARTIAL
            assert sol.surviving_modes == row["surviving_modes"]
            # s_star sits inside the threshold window of its own count
            p = sol.surviving_modes
            assert zeta[p] ** 2 / beta_mid <= sol.s_star < zeta[p - 1] ** 2 / beta_mid

    def test_boundary_interval_flat_profile(self):
        """Equal spectrum with matching dims: at beta = d2/d_hat the whole
        initial segment is a global-minimum set and the profile is flat on
        it; just above, collapse begins."""
        zeta = np.array([1.5, 1.5, 1.5])
        sp = DataSpectrum.from_singular_values(zeta, dim_y=3)
        hp = cf.Hyperparams(beta=1.0, latent_dim=3)
        sol = dv.solve_decoder_variance(sp, hp)
        assert sol.regime == dv.REGIME_BOUNDARY
        assert sol.s_interval is not None
        top = sol.s_interval[1]
        assert top == pytest.approx(zeta[0] ** 2)
        grid = np.linspace(top * 1e-4, top * 0.999, 400)
        values = np.array([dv.profile_loss(sp, hp, s) for s in grid])
        assert values.max() - values.min() <= 1e-10
        above = dv.solve_decoder_variance(sp, cf.Hyperparams(beta=1.2, latent_dim=3))
        assert above.regime in (dv.REGIME_PARTIAL, dv.REGIME_COMPLETE)
        assert above.surviving_modes < 3

    def test_ill_posed_argmin_chases_zero(self):
        sp = DataSpectrum.from_singular_values([1.2, 0.8], dim_y=2)
        hp = cf.Hyperparams(beta=0.5, latent_dim=2)  # beta < d2/d_hat = 1
        sol = dv.solve_decoder_variance(sp, hp)
        assert sol.regime == dv.REGIME_ILL_POSED
        assert sol.s_star is None
        for s_lo in (1e-3, 1e-5, 1e-7):
            argmin = minimize_profile(sp, hp, s_range=(s_lo, 10.0))
            assert argmin == pytest.approx(s_lo)

    def test_zero_spectrum_always_ill_posed(self):
        sp = DataSpectrum.from_singular_values([0.0, 0.0], dim_y=3)
        for beta in (0.2, 1.0, 7.0):
            sol = dv.solve_decoder_variance(sp, cf.Hyperparams(beta=beta, latent_dim=2))
            assert sol.regime == dv.REGIME_ILL_POSED

    def test_regime_stable_inside_reported_interval(self, rng):
        for _ in range(10):
            sp, hp = random_case3_spectrum(rng)
            sol = dv.solve_decoder_variance(sp, hp)
            lo, hi = sol.beta_interval
            if not np.isfinite(hi):
                hi = lo * 3 + 10
            probes = np.linspace(max(lo, 1e-9) + 1e-9, hi - 1e-9, 5)
            for beta in probes:
                again = dv.solve_decoder_variance(
                    sp, replace(hp, beta=float(beta))
                )
                assert again.regime == sol.regime
                assert again.surviving_modes == sol.surviving_modes


class TestConsistencyAcrossModules:
    def test_small_beta_never_collapses_when_latent_undersized(self, rng):
        """beta below d2/d_star guarantees no collapse whenever the latent
        is strictly smaller than the signal rank."""
        violations = 0
        for _ in range(50):
            n_modes = int(rng.integers(3, 7))
            d1 = int(rng.integers(1, n_modes))
            d2 = int(rng.integers(n_modes, n_modes + 5))
            zeta = np.sort(rng.uniform(0.3, 3.0, size=n_modes))[::-1]
            sp = DataSpectrum.from_singular_values(zeta, dim_y=d2)
            for beta in rng.uniform(1e-3, d2 / n_modes, size=10):
                sol = dv.solve_decoder_variance(
                    sp, cf.Hyperparams(beta=float(beta), latent_dim=d1)
                )
                if sol.regime != dv.REGIME_NO_COLLAPSE:
                    violations += 1
        assert violations == 0

    def test_surviving_count_matches_fixed_variance_solution(self, rng):
        """Feeding s_star back as a fixed decoder variance reproduces the
        regime's surviving-mode count exactly."""
        for _ in range(20):
            sp, hp = random_case3_spectrum(rng)
            sol = dv.solve_decoder_variance(sp, hp)
            if sol.s_star is None:
                continue
            hp_fixed = cf.Hyperparams(
                beta=hp.beta,
                latent_dim=hp.latent_dim,
                eta_dec=float(np.sqrt(sol.s_star)),
            )
            gm = cf.global_minimum(sp, hp_fixed)
            zeta = sp.zeta_padded(hp.latent_dim)
            alive = np.count_nonzero((~gm.collapse_flags) & (zeta > 0))
            assert alive == sol.surviving_modes

    def test_breakpoints_tile_the_beta_axis(self, rng):
        sp, hp = random_case3_spectrum(rng, n_modes=5, d1=3, d2=7)
        rows = dv.beta_breakpoints(sp, hp)
        assert rows[0]["beta_lo"] == 0.0
        assert not np.isfinite(rows[-1]["beta_hi"])
        for prev, nxt in zip(rows, rows[1:]):
            assert nxt["beta_lo"] == pytest.approx(prev["beta_hi"])
        counts = [r["surviving_modes"] for r in rows]
        assert counts == sorted(counts, reverse=True)


class TestGridLookup:
    def test_grid_rows_are_the_scalar_solutions(self):
        """Each entry of one grid lookup is the one-beta solution, with
        every regime on the grid, the boundary point included."""
        sp = DataSpectrum.from_singular_values(PAPER_TOP5, dim_y=5)
        hp = cf.Hyperparams(beta=1.0, latent_dim=5)
        bounds = dv.beta_bounds(sp, hp)
        grid = np.sort(np.append(np.linspace(0.25, 6.0, 24), bounds))
        found = dv.classify(sp, hp, grid)
        assert set(found.regime.tolist()) == {
            dv.REGIME_ILL_POSED, dv.REGIME_BOUNDARY, dv.REGIME_PARTIAL, dv.REGIME_COMPLETE
        }
        for i, beta in enumerate(grid.tolist()):
            sol = dv.solve_decoder_variance(sp, replace(hp, beta=beta))
            assert (found.regime[i], found.surviving_modes[i]) == (
                sol.regime, sol.surviving_modes
            )
            assert (found.beta_lo[i], found.beta_hi[i]) == sol.beta_interval
            s_star = found.s_star[i]
            assert (sol.s_star is None and np.isnan(s_star)) or s_star == sol.s_star
            if sol.s_interval is not None:
                assert found.s[i] == sol.s_interval[1]

    def test_beta_on_all_tied_bounds_is_the_boundary(self):
        sp = DataSpectrum.from_singular_values([1.5, 1.5, 1.5], dim_y=3)
        hp = cf.Hyperparams(beta=1.0, latent_dim=3)
        assert dv.beta_bounds(sp, hp).tolist() == [1.0, 1.0, 1.0]
        found = dv.classify(sp, hp, [np.nextafter(1.0, 0), 1.0, np.nextafter(1.0, 2)])
        assert found.regime.tolist() == [
            dv.REGIME_ILL_POSED, dv.REGIME_BOUNDARY, dv.REGIME_COMPLETE
        ]
        assert found.s[1] == 2.25 and np.isnan(found.s[0])

    def test_overlap_of_inverted_tied_bounds_stays_with_the_earlier_row(self):
        """Rounding puts the bound of the tied modes 3 and 4 one ulp above
        that of mode 3, so two rows of the table share that one beta; the
        row listed first holds it, in the lookup as in the table."""
        sp = DataSpectrum.from_singular_values([5.12, 5.12, 3.74, 3.74, 2, 1, 0.3], dim_y=9)
        hp = cf.Hyperparams(beta=1.0, latent_dim=5)
        bounds = dv.beta_bounds(sp, hp)
        assert bounds[3] == np.nextafter(bounds[2], np.inf)
        rows = dv.beta_breakpoints(sp, hp)
        first = next(r for r in rows if r["beta_lo"] <= bounds[2] < r["beta_hi"])
        assert first["surviving_modes"] == 4
        sol = dv.solve_decoder_variance(sp, replace(hp, beta=float(bounds[2])))
        assert (sol.regime, sol.surviving_modes) == (dv.REGIME_PARTIAL, 4)
        assert sol.beta_interval == (first["beta_lo"], first["beta_hi"])


class TestPublishedSpectrum:
    def test_progression_is_monotone_and_ordered(self):
        """The published top-5 spectrum marches from all modes alive to
        complete collapse as beta grows, losing the weakest mode first."""
        sp = DataSpectrum.from_singular_values(PAPER_TOP5, dim_y=5)
        betas = np.linspace(0.25, 6.0, 120)
        counts = []
        for beta in betas:
            sol = dv.solve_decoder_variance(sp, cf.Hyperparams(beta=float(beta), latent_dim=5))
            counts.append(sol.surviving_modes)
        assert counts[0] == 5 and counts[-1] == 0
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert set(counts) == {0, 1, 2, 3, 4, 5}

    def test_collapse_order_is_reverse_spectrum_order(self):
        sp = DataSpectrum.from_singular_values(PAPER_TOP5, dim_y=5)
        hp = cf.Hyperparams(beta=1.0, latent_dim=5)
        rows = dv.beta_breakpoints(sp, hp)
        partial = [r for r in rows if r["regime"] == dv.REGIME_PARTIAL]
        assert [r["surviving_modes"] for r in partial] == [4, 3, 2, 1]


class TestPinnedStds:
    """Pinned encoder stds change the decoder-variance problem: for
    zeta = (3, 2, 1), d2 = 4, beta = 2 the learnable-std optimum is
    s* = 2.5, while training with pinned stds converges to s = 3.125."""

    sp = DataSpectrum.from_singular_values([3.0, 2.0, 1.0], dim_y=4)
    hp = cf.Hyperparams(beta=2.0, latent_dim=3, sigma_mode="fixed", decvar_mode="learnable")

    def test_regime_analysis_rejects_pinned_stds(self):
        with pytest.raises(DomainError):
            dv.solve_decoder_variance(self.sp, self.hp)
        with pytest.raises(DomainError):
            dv.beta_breakpoints(self.sp, self.hp)
        learnable = replace(self.hp, sigma_mode="learnable")
        assert dv.solve_decoder_variance(self.sp, learnable).s_star == pytest.approx(2.5)

    def test_profile_loss_follows_the_pinned_problem(self):
        assert minimize_profile(self.sp, self.hp) == pytest.approx(3.125, rel=1e-6)
        # stationarity: only the top mode survives, explaining 3 * sqrt(2 * 3.125)
        assert residual_power(self.sp, self.hp, 3.125) == pytest.approx(4 * 3.125)
