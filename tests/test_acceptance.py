"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (visible with ``pytest -s`` or on failure).

Every tolerance here is part of the package contract; see README.
"""

import time

import numpy as np
import pytest

from collapse_lab import closed_form as cf
from collapse_lab import collapse as cl
from collapse_lab import decoder_variance as dv
from collapse_lab import trainer as tr
from collapse_lab.data import Dataset
from collapse_lab.spectrum import DataSpectrum
from collapse_lab.verify import _learned_singvals, run_oracle_suite

from conftest import assert_sinks_below, make_instance, params_from_minimum, sink_run
from oracles import ddv_inequality_check, minimize_profile, numeric_hessian_check
from test_closed_form import argmin_1d, mode_objective

PAPER_TOP5 = [5.12, 3.74, 3.25, 2.84, 2.57]


def report(number: int, description: str, passed: bool):
    print(f"ACCEPTANCE {number} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {number}: {description}"


# ---------------------------------------------------------------------------
# 1. Trained minima reproduce the closed-form minima
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    started = time.time()
    suite = run_oracle_suite(n_instances=20, seed=20260811)
    elapsed = time.time() - started
    worst_loss = max(r.loss_rel_err for r in suite.rows)
    worst_sv = max(r.sv_max_err for r in suite.rows)
    report(
        1,
        f"20-instance oracle equivalence: loss rel err <= {worst_loss:.2e} "
        f"(tol 1e-4), singular-value err <= {worst_sv:.2e} (tol 1e-3), "
        f"{elapsed:.0f}s",
        suite.all_passed and elapsed < 120.0,
    )


# ---------------------------------------------------------------------------
# 2. Optimal encoder stds: branch formula vs numeric minimization/training
# ---------------------------------------------------------------------------


def test_criterion_2_optimal_sigma():
    rng = np.random.default_rng(7)
    worst_numeric = 0.0
    for _ in range(30):
        hp = cf.Hyperparams(
            beta=float(rng.uniform(0.2, 6.0)),
            latent_dim=1,
            eta_enc=float(rng.uniform(0.5, 2.0)),
            eta_dec=float(rng.uniform(0.5, 2.0)),
        )
        zeta = float(rng.uniform(0.0, 3.0))
        sp = DataSpectrum.from_singular_values([max(zeta, 0.0)], dim_y=1)
        predicted = cf.optimal_sigma(sp, hp)[0]
        numeric = argmin_1d(
            lambda s: mode_objective(hp, zeta, s),
            bracket=(1e-6 * hp.eta_enc, 0.9 * hp.eta_enc, 8.0 * hp.eta_enc),
        )
        worst_numeric = max(worst_numeric, abs(numeric - predicted))

    _, sp = make_instance(seed=15, dim_x=5, dim_y=5, n=800, scale=1.6)
    hp = cf.Hyperparams(beta=2.5, latent_dim=5)
    result = tr.train_to_minimum(0, tr.Moments.from_spectrum(sp), hp)
    sigma_err = float(
        np.max(np.abs(np.sort(result.params.sigma) - np.sort(cf.optimal_sigma(sp, hp))))
    )
    report(
        2,
        f"per-mode std: numeric argmin err <= {worst_numeric:.2e} (tol 1e-8), "
        f"trained err <= {sigma_err:.2e} (tol 1e-3)",
        worst_numeric <= 1e-8 and sigma_err <= 1e-3,
    )


# ---------------------------------------------------------------------------
# 3. Collapse thresholds flip modes under training
# ---------------------------------------------------------------------------


def _train_singvals(sp, beta, d1=5, seed=0):
    hp = cf.Hyperparams(beta=beta, latent_dim=d1)
    result = tr.train_to_minimum(seed, tr.Moments.from_spectrum(sp), hp)
    return _learned_singvals(result.params, sp), hp


def test_criterion_3_threshold_flips():
    _, sp = make_instance(seed=15, dim_x=5, dim_y=5, n=800, scale=1.6)
    z2 = sp.singular_values**2
    ok = True
    detail = []
    for i in range(5):
        below, hp_b = _train_singvals(sp, beta=float(z2[i]) * 0.9, seed=10 + i)
        above, _ = _train_singvals(sp, beta=float(z2[i]) * 1.1, seed=20 + i)
        predicted = np.maximum(0.0, z2 - z2[i] * 0.9) / sp.singular_values
        survives = abs(below[i] - predicted[i]) <= 1e-3 and below[i] > 1e-3
        collapses = above[i] <= 1e-3
        ok &= survives and collapses
        detail.append(f"mode{i + 1}:{'ok' if survives and collapses else 'BAD'}")
    # complete collapse exactly above the top threshold
    sv_above, _ = _train_singvals(sp, beta=float(z2[0]) * 1.1, seed=31)
    sv_below, _ = _train_singvals(sp, beta=float(z2[0]) * 0.9, seed=32)
    complete = np.max(sv_above) <= 1e-3 and np.max(sv_below) > 1e-3
    ok &= complete
    report(
        3,
        "training flips each mode across its threshold "
        f"({', '.join(detail)}; complete collapse above top threshold: "
        f"{'ok' if complete else 'BAD'})",
        ok,
    )


# ---------------------------------------------------------------------------
# 4. Curvature-at-origin criterion
# ---------------------------------------------------------------------------


def test_criterion_4_hessian_criterion():
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(200):
        k = int(rng.integers(1, 6))
        zeta = np.sort(rng.uniform(0.0, 2.5, size=k))[::-1]
        sp = DataSpectrum.from_singular_values(zeta, dim_y=int(rng.integers(k, k + 3)))
        hp = cf.Hyperparams(
            beta=float(rng.uniform(0.05, 8.0)),
            latent_dim=int(rng.integers(1, k + 2)),
            eta_enc=float(rng.choice([0.25, 1.0, 4.0])),
            eta_dec=float(rng.uniform(0.5, 1.5)),
        )
        r = cl.predict(sp, hp)
        complete = r.regime == cl.REGIME_COMPLETE
        if (r.min_hessian_quadratic >= 0) != complete or r.hessian_psd != complete:
            mismatches += 1

    sign_checks = 0
    sign_agreements = 0
    for seed in range(24):
        g = np.random.default_rng(100 + seed)
        zeta = np.sort(g.uniform(0.1, 2.0, size=3))[::-1]
        sp = DataSpectrum.from_singular_values(zeta, dim_y=3)
        hp = cf.Hyperparams(beta=float(g.uniform(0.1, 8.0)), latent_dim=3)
        r = cl.predict(sp, hp)
        psd, min_q = r.hessian_psd, r.min_hessian_quadratic
        if abs(min_q) <= 1e-4:
            continue
        numeric = numeric_hessian_check(sp, hp, n_directions=16, seed=seed)
        sign_checks += 1
        sign_agreements += (numeric >= -1e-6) == psd
    report(
        4,
        f"curvature criterion: {mismatches}/200 predicate mismatches (tol 0), "
        f"finite-difference sign agreement {sign_agreements}/{sign_checks}",
        mismatches == 0 and sign_checks > 10 and sign_agreements == sign_checks,
    )


# ---------------------------------------------------------------------------
# 5. Learnable decoder variance: all five regime rows
# ---------------------------------------------------------------------------


def _random_descending(rng, k, lo=0.4, hi=2.8):
    return np.sort(rng.uniform(lo, hi, size=k))[::-1]


def test_criterion_5_learnable_decoder_variance():
    rng = np.random.default_rng(13)
    checks = {}

    # rows with a unique interior optimum: no collapse / partial / complete
    worst_rel = 0.0
    for regime_target in ("no_collapse", "partial_collapse", "complete_collapse"):
        count = 0
        while count < 20:
            k = int(rng.integers(3, 7))
            zeta = _random_descending(rng, k)
            d2 = int(rng.integers(k, k + 4))
            zsq = zeta**2
            if regime_target == "no_collapse":
                d1 = int(rng.integers(1, k))
                bound = d2 * zsq[d1 - 1] / (np.sum(zsq[d1:]) + d1 * zsq[d1 - 1])
                beta = float(rng.uniform(0.2, 0.92)) * bound
            elif regime_target == "partial_collapse":
                d1 = k
                p = int(rng.integers(1, k))
                lo = d2 * zsq[p] / (np.sum(zsq[p + 1 :]) + (p + 1) * zsq[p])
                hi = d2 * zsq[p - 1] / (np.sum(zsq[p:]) + p * zsq[p - 1])
                if lo >= hi * 0.999:
                    continue
                beta = float(0.5 * (lo + hi))
            else:
                d1 = int(rng.integers(1, k + 1))
                beta = float(rng.uniform(1.05, 3.0)) * d2 * zsq[0] / np.sum(zsq)
            sp = DataSpectrum.from_singular_values(zeta, dim_y=d2)
            hp = cf.Hyperparams(beta=beta, latent_dim=d1)
            sol = dv.solve_decoder_variance(sp, hp)
            if sol.regime != regime_target:
                continue
            numeric = minimize_profile(sp, hp)
            worst_rel = max(worst_rel, abs(numeric - sol.s_star) / sol.s_star)
            count += 1
        checks[regime_target] = True
    checks["interior_rows_match_oracle"] = worst_rel <= 1e-6

    # boundary row: flat global-minimum set
    worst_flat = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 6))
        value = float(rng.uniform(0.5, 2.0))
        d2 = 2 * k  # beta = d2 / k exact in floats
        sp = DataSpectrum.from_singular_values(np.full(k, value), dim_y=d2)
        hp = cf.Hyperparams(beta=float(d2) / k, latent_dim=k)
        sol = dv.solve_decoder_variance(sp, hp)
        assert sol.regime == dv.REGIME_BOUNDARY
        top = sol.s_interval[1]
        grid = np.linspace(1e-3 * top, 0.999 * top, 200)
        values = np.array([dv.profile_loss(sp, hp, s) for s in grid])
        worst_flat = max(worst_flat, float(values.max() - values.min()))
    checks["boundary_flat"] = worst_flat <= 1e-10

    # ill-posed row: trained decoder variance sinks below 1e-4 for good
    sink_failures = 0
    for i in range(20):
        k = int(rng.integers(2, 5))
        zeta = _random_descending(rng, k, lo=0.6, hi=2.0)
        d2 = k
        beta = float(rng.uniform(0.3, 0.85))  # below d2 / k = 1
        sp = DataSpectrum.from_singular_values(zeta, dim_y=d2)
        hp = cf.Hyperparams(beta=beta, latent_dim=k, decvar_mode="learnable")
        assert dv.solve_decoder_variance(sp, hp).regime == dv.REGIME_ILL_POSED
        try:
            assert_sinks_below(sink_run(sp, hp, seed=i), floor=1e-4)
        except AssertionError:
            sink_failures += 1
    checks["ill_posed_sinks"] = sink_failures == 0

    # small beta is sufficient to avoid collapse outright
    violations = 0
    for _ in range(50):
        k = int(rng.integers(3, 7))
        d1 = int(rng.integers(1, k))
        d2 = int(rng.integers(k, k + 5))
        sp = DataSpectrum.from_singular_values(_random_descending(rng, k), dim_y=d2)
        for beta in rng.uniform(1e-3, d2 / k, size=10):
            sol = dv.solve_decoder_variance(
                sp, cf.Hyperparams(beta=float(beta), latent_dim=d1)
            )
            violations += sol.regime != dv.REGIME_NO_COLLAPSE
    checks["small_beta_sufficient"] = violations == 0

    summary = ", ".join(f"{k}:{'ok' if v else 'BAD'}" for k, v in checks.items())
    report(
        5,
        f"learnable decoder variance rows ({summary}; oracle rel err "
        f"{worst_rel:.2e}, flatness {worst_flat:.2e}, sufficiency "
        f"violations {violations}/500)",
        all(checks.values()),
    )


# ---------------------------------------------------------------------------
# 6. Optimal biases
# ---------------------------------------------------------------------------


def test_criterion_6_biases():
    worst_grad = 0.0
    for seed in range(20):
        g = np.random.default_rng(300 + seed)
        x = g.normal(size=(60, 3)) + g.normal(size=3) * 2.0
        y = g.normal(size=(60, 2)) + g.normal(size=2) * 2.0
        ds = Dataset(x=x, y=y)
        m = tr.Moments.from_dataset(ds)
        hp = cf.Hyperparams(beta=float(g.uniform(0.5, 3.0)), latent_dim=2)
        params = tr.ModelParams(
            decoder=g.normal(size=(2, 2)),
            encoder=g.normal(size=(3, 2)),
            log_sigma=g.uniform(-0.5, 0.5, size=2),
            enc_bias=np.zeros(2),
            dec_bias=np.zeros(2),
        )
        params.enc_bias = -params.encoder.T @ x.mean(axis=0)
        params.dec_bias = y.mean(axis=0)
        grad = tr.eval_grad(params, m, hp)
        worst_grad = max(
            worst_grad,
            float(np.max(np.abs(grad.enc_bias))),
            float(np.max(np.abs(grad.dec_bias))),
        )

    g = np.random.default_rng(55)
    x = g.normal(size=(100, 3)) + np.array([1.0, -2.0, 0.5])
    y = (x @ g.normal(size=(2, 3)).T) + np.array([0.8, -1.2])
    ds = Dataset(x=x, y=y)
    m = tr.Moments.from_dataset(ds)
    hp = cf.Hyperparams(beta=1.0, latent_dim=2)
    init = tr.init_params(m, hp, seed=1, bias=True)
    result = tr.train_to_minimum(init, m, hp)
    p = result.params
    trained_err = max(
        float(np.max(np.abs(p.enc_bias + p.encoder.T @ x.mean(axis=0)))),
        float(np.max(np.abs(p.dec_bias - y.mean(axis=0)))),
    )
    report(
        6,
        f"optimal biases: stationarity gradient <= {worst_grad:.2e} (tol 1e-8), "
        f"trained bias err <= {trained_err:.2e} (tol 1e-3)",
        worst_grad <= 1e-8 and trained_err <= 1e-3,
    )


# ---------------------------------------------------------------------------
# 7. Data-dependent encoder variance never helps
# ---------------------------------------------------------------------------


def test_criterion_7_data_dependent_variance():
    ds, _ = make_instance(seed=59, dim_x=3, dim_y=2, n=120)
    m = tr.Moments.from_dataset(ds)
    hp = cf.Hyperparams(beta=1.4, latent_dim=2)
    g = np.random.default_rng(17)
    worst_gap = np.inf
    for _ in range(100):
        params = tr.ModelParams(
            decoder=g.normal(size=(2, 2)) * 0.7,
            encoder=g.normal(size=(3, 2)) * 0.7,
            log_sigma=np.zeros(2),
            var_slope=g.normal(size=(2, 3)) * 0.3,
            var_offset=g.uniform(0.7, 1.4, size=2),
        )
        lhs, rhs = ddv_inequality_check(params, ds, hp)
        worst_gap = min(worst_gap, lhs - rhs)

    init = tr.init_params(m, hp, seed=3, ddv=True)
    result = tr.train_to_minimum(init, m, hp)
    slope_norm = float(np.linalg.norm(result.params.var_slope))
    report(
        7,
        f"data-dependent variance: min(lhs - rhs) = {worst_gap:.2e} "
        f"(tol -1e-10), trained slope norm {slope_norm:.2e} (tol 1e-3)",
        worst_gap >= -1e-10 and slope_norm <= 1e-3,
    )


# ---------------------------------------------------------------------------
# 8. Invariance suite
# ---------------------------------------------------------------------------


def test_criterion_8_invariances():
    ds, sp = make_instance(seed=61, dim_x=4, dim_y=4)
    m = tr.Moments.from_dataset(ds)
    checks = {}

    flags_ref = None
    for eta_enc in (0.25, 1.0, 4.0):
        hp = cf.Hyperparams(beta=1.8, latent_dim=4, eta_enc=eta_enc)
        flags = cf.global_minimum(sp, hp).collapse_flags
        flags_ref = flags if flags_ref is None else flags_ref
        checks.setdefault("eta_enc_independent", True)
        checks["eta_enc_independent"] &= bool(np.array_equal(flags, flags_ref))

    ref = None
    for beta, eta_dec in ((4.0, 1.0), (1.0, 2.0), (16.0, 0.5)):
        hp = cf.Hyperparams(beta=beta, latent_dim=3, eta_dec=eta_dec)
        modes = cf.per_mode(sp.zeta_padded(3), beta, hp.decvar, hp.eta_enc, hp.eta_enc)
        lam, theta = modes.decoder, modes.encoder
        flags = cf.global_minimum(sp, hp).collapse_flags
        if ref is None:
            ref = (lam, theta, flags)
        checks.setdefault("beta_etadec_product", True)
        checks["beta_etadec_product"] &= bool(
            np.allclose(lam, ref[0], rtol=1e-12)
            and np.allclose(theta, ref[1], rtol=1e-12)
            and np.array_equal(flags, ref[2])
        )

    # latent-basis freedom: dense rotations with isotropic stds, signed
    # permutations with per-mode stds
    hp_fixed = cf.Hyperparams(beta=0.7, latent_dim=3, sigma_mode="fixed")
    base = tr.eval_loss(
        params_from_minimum(cf.global_minimum(sp, hp_fixed), hp_fixed), m, hp_fixed
    )
    worst_rot = 0.0
    for seed in range(5):
        gm = cf.global_minimum(sp, hp_fixed, rotation=cf.random_rotation(3, seed))
        worst_rot = max(
            worst_rot,
            abs(tr.eval_loss(params_from_minimum(gm, hp_fixed), m, hp_fixed) - base),
        )
    hp_learn = cf.Hyperparams(beta=0.7, latent_dim=3)
    base_l = tr.eval_loss(
        params_from_minimum(cf.global_minimum(sp, hp_learn), hp_learn), m, hp_learn
    )
    for seed in range(5):
        gm = cf.global_minimum(
            sp, hp_learn, rotation=cf.random_signed_permutation(3, seed)
        )
        worst_rot = max(
            worst_rot,
            abs(tr.eval_loss(params_from_minimum(gm, hp_learn), m, hp_learn) - base_l),
        )
    checks["latent_basis_freedom"] = worst_rot <= 1e-10

    grid = np.linspace(0.05, float(sp.singular_values[0] ** 2) * 1.2, 40)
    prev = None
    monotone = True
    for beta in grid:
        flags = cl.predict(sp, cf.Hyperparams(beta=float(beta), latent_dim=4)).collapse_flags
        if prev is not None:
            monotone &= bool(np.all(flags | ~prev))
        prev = flags
    checks["beta_monotone_flags"] = monotone

    summary = ", ".join(f"{k}:{'ok' if v else 'BAD'}" for k, v in checks.items())
    report(8, f"invariance suite ({summary}; rotation gap {worst_rot:.2e})",
           all(checks.values()))


# ---------------------------------------------------------------------------
# 9. Published top-5 spectrum: qualitative mode-count progression
# ---------------------------------------------------------------------------


def test_criterion_9_published_spectrum_progression():
    sp = DataSpectrum.from_singular_values(PAPER_TOP5, dim_y=5)
    counts = []
    for beta in np.linspace(0.25, 6.0, 120):
        sol = dv.solve_decoder_variance(
            sp, cf.Hyperparams(beta=float(beta), latent_dim=5)
        )
        counts.append(sol.surviving_modes)
    monotone = all(a >= b for a, b in zip(counts, counts[1:]))
    full_range = counts[0] == 5 and counts[-1] == 0 and set(counts) == {0, 1, 2, 3, 4, 5}

    rows = dv.beta_breakpoints(sp, cf.Hyperparams(beta=1.0, latent_dim=5))
    partial = [r["surviving_modes"] for r in rows if r["regime"] == "partial_collapse"]
    ordered = partial == [4, 3, 2, 1]
    report(
        9,
        "published top-5 spectrum: surviving-mode count falls 5 -> 0 "
        f"monotonically ({'ok' if monotone and full_range else 'BAD'}), "
        f"collapse order weakest-first ({'ok' if ordered else 'BAD'})",
        monotone and full_range and ordered,
    )
