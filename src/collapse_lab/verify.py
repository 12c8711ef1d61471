"""End-to-end agreement suite: closed forms vs. gradient descent.

Each instance draws a random synthetic dataset and hyperparameters,
computes the analytic global minimum, then trains from a random
initialization and compares loss value, learned singular values, and
learned encoder stds (plus the learned decoder variance when requested).
Instances whose beta sits within 0.05 (in zeta^2) of a collapse threshold
are re-drawn, so the transition itself is never drawn. The margin is not a
limit of the oracle: in a probe, all 24 fixed-variance runs with beta at a
relative distance of 1e-3 or 1e-2 from a threshold met every tolerance.

A row is a mapping in the key order ``--out`` writes. ``CHECKS`` holds its
checks: the key of each error, the column that prints it and its tolerance.
A row passes when every check that ran is within its tolerance; one that did
not run holds None, prints ``--`` and fails nothing. A new check is one entry
there and the line of the row that computes its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import closed_form as cf
from . import decoder_variance as dv
from .data import center_in_place, generate, random_spec
from .spectrum import DataSpectrum, compute_spectrum, padded
# ``train`` stays bound here: bench/tests reach the trainer through ``verify.train``
from .trainer import Moments, train, train_to_minimum  # noqa: F401

# the release contract: the largest errors with which a verify instance passes
LOSS_TOL = 1e-4
SV_TOL = 1e-3
SIGMA_TOL = 1e-3
S_TOL = 1e-3

BETA_RANGE = (0.5, 10.0)  # an instance's beta is drawn uniformly from [low, high)

# (row key, printed column, tolerance), in the order the table prints them
CHECKS = (
    ("loss_rel_err", "loss", LOSS_TOL),
    ("sv_max_err", "sv", SV_TOL),
    ("sigma_max_err", "sigma", SIGMA_TOL),
    ("s_rel_err", "s", S_TOL),
)


def _passes(row: dict) -> bool:
    return all(row[key] is None or row[key] <= tol for key, _, tol in CHECKS)


def _format_row(row: dict) -> str:
    d0, d2, d1 = row["dims"]
    head = f"[{row['index']:2d}] d0={d0} d2={d2} d1={d1} beta={row['beta']:6.3f}"
    cells = [
        f"{column}=" + ("   --    " if row[key] is None else f"{row[key]:9.2e}")
        for key, column, _ in CHECKS
    ]
    status = "PASS" if row["passed"] else "FAIL"
    parts = [f"{head} alive={row['surviving']}", *cells, status, row["note"]]
    return "  ".join(part for part in parts if part)  # an empty note adds no gap


@dataclass(frozen=True)
class VerificationReport:
    """:func:`run_oracle_suite`'s rows, one mapping per instance, and whether all passed."""
    all_passed: bool
    rows: list[dict]

    def format_table(self) -> str:
        lines = [_format_row(row) for row in self.rows]
        verdict = "ALL PASS" if self.all_passed else "FAILURES PRESENT"
        lines.append(f"{len(self.rows)} instances: {verdict}")
        return "\n".join(lines)


def _draw_instance(rng: np.random.Generator, index: int):
    """Random dims, data, and a beta kept clear of collapse thresholds."""
    d0 = int(rng.integers(2, 9))
    d2 = int(rng.integers(2, 9))
    d_star = min(d0, d2)
    d1 = (2, d_star, d_star + 2)[index % 3]
    for _ in range(50):
        beta = float(rng.uniform(*BETA_RANGE))
        # scale keeps a mix of surviving and collapsed modes across the
        # beta range without blowing up the curvature spread
        scale = float(rng.uniform(0.5, 1.5)) * (1.0 + 0.5 * np.sqrt(beta))
        spec = random_spec(
            d0, d2, n_samples=400, seed=int(rng.integers(0, 2**31)), signal_scale=scale
        )
        ds = generate(spec)
        center_in_place(ds)
        sp = compute_spectrum(ds)
        margin = np.min(np.abs(sp.singular_values**2 - beta), initial=np.inf)
        if margin > 0.05:
            return sp, d1, beta
    raise RuntimeError("could not draw an instance away from thresholds")


def _learned_singvals(result_params, sp: DataSpectrum) -> np.ndarray:
    v = (sp.basis * np.sqrt(sp.eigenvalues)).T @ result_params.encoder
    return np.linalg.svd(result_params.decoder @ v.T, compute_uv=False)


def run_oracle_suite(
    n_instances: int = 20,
    seed: int = 20260811,
    learnable_decvar: bool = False,
    beta_error: float = 1.0,
) -> VerificationReport:
    """Run the agreement suite, refusing (ValueError) what it cannot run; ``beta_error``
    skews the analytic side's beta so tests can prove a mismatch is actually caught."""
    if n_instances < 1:
        raise ValueError("--instances must be >= 1")
    (low, top), factor = BETA_RANGE, beta_error
    if not 0 < factor < math.inf:  # Hyperparams would name --beta, which verify does not take
        raise ValueError(f"--inject-beta-error must be finite and > 0, got {factor}")
    if factor * math.nextafter(top, 0) == math.inf:
        raise ValueError(f"--inject-beta-error {factor} times a drawn beta below {top} overflows")
    if factor * low == 0:
        raise ValueError(f"--inject-beta-error {factor} times a drawn beta {low} underflows to 0")
    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    for index in range(n_instances):
        sp, d1, beta = _draw_instance(rng, index)
        sp = replace(sp, eigenvalues=np.ones_like(sp.eigenvalues))  # train in whitened coordinates
        hp = cf.Hyperparams(beta=beta, latent_dim=d1)
        hp_analytic = replace(hp, beta=beta * beta_error)
        moments = Moments.from_spectrum(sp)

        gm = cf.global_minimum(sp, hp_analytic)
        result = train_to_minimum(index, moments, hp)

        predicted = gm.predicted_loss
        learned_sv = _learned_singvals(result.params, sp)
        predicted_sv = padded(gm.decoder_singvals * gm.encoder_singvals, sp.n_modes)

        s_rel = None
        note = ""
        if learnable_decvar:
            sol = dv.solve_decoder_variance(sp, hp_analytic)
            if sol.s_star is not None:
                hp_s = replace(hp, decvar_mode="learnable")
                res_s = train_to_minimum(index, moments, hp_s)
                s_rel = abs(res_s.params.decvar - sol.s_star) / sol.s_star
            else:
                note = f"decvar regime {sol.regime}: no finite s*, skipped"

        row = {
            "index": index,
            "dims": (sp.ambient_dim, sp.dim_y, d1),
            "beta": beta,
            "surviving": int(np.count_nonzero(~gm.collapse_flags)),
            "loss_rel_err": abs(result.final_loss - predicted) / (1.0 + abs(predicted)),
            "sv_max_err": float(np.max(np.abs(learned_sv - predicted_sv))),
            "sigma_max_err": float(
                np.max(np.abs(np.sort(result.params.sigma) - np.sort(gm.sigma)))
            ),
            "s_rel_err": s_rel,
        }
        rows.append({**row, "passed": _passes(row), "note": note})
    return VerificationReport(rows=rows, all_passed=all(r["passed"] for r in rows))
