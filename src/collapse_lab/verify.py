"""End-to-end agreement suite: closed forms vs. gradient descent.

Each instance draws a random synthetic dataset and hyperparameters,
computes the analytic global minimum, then trains from a random
initialization and compares loss value, learned singular values, and
learned encoder stds (plus the learned decoder variance when requested).
Instances whose spectrum sits too close to a collapse threshold are
re-drawn: the optimum is non-smooth there and no first-order method can
hit tight tolerances in bounded steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import closed_form as cf
from . import decoder_variance as dv
from .data import center, generate, random_spec
from .spectrum import DataSpectrum, compute_spectrum
# ``train`` stays bound here: bench/tests reach the trainer through ``verify.train``
from .trainer import Moments, train, train_to_minimum  # noqa: F401


@dataclass(frozen=True)
class VerifyRow:
    index: int
    dims: tuple[int, int, int]          # (dim_x, dim_y, d1)
    beta: float
    surviving: int
    loss_rel_err: float
    sv_max_err: float
    sigma_max_err: float
    s_rel_err: float | None
    passed: bool
    note: str = ""

    def format(self) -> str:
        s_part = "   --    " if self.s_rel_err is None else f"{self.s_rel_err:9.2e}"
        status = "PASS" if self.passed else "FAIL"
        d0, d2, d1 = self.dims
        return (
            f"[{self.index:2d}] d0={d0} d2={d2} d1={d1} beta={self.beta:6.3f} "
            f"alive={self.surviving}  loss={self.loss_rel_err:9.2e}  "
            f"sv={self.sv_max_err:9.2e}  sigma={self.sigma_max_err:9.2e}  "
            f"s={s_part}  {status}{'  ' + self.note if self.note else ''}"
        )


@dataclass(frozen=True)
class VerificationReport:
    rows: list[VerifyRow]
    all_passed: bool

    def format_table(self) -> str:
        lines = [row.format() for row in self.rows]
        verdict = "ALL PASS" if self.all_passed else "FAILURES PRESENT"
        lines.append(f"{len(self.rows)} instances: {verdict}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {"all_passed": self.all_passed, "rows": [asdict(r) for r in self.rows]}


def _draw_instance(rng: np.random.Generator, index: int):
    """Random dims, data, and a beta kept clear of collapse thresholds."""
    d0 = int(rng.integers(2, 9))
    d2 = int(rng.integers(2, 9))
    d_star = min(d0, d2)
    d1 = (2, d_star, d_star + 2)[index % 3]
    for _ in range(50):
        beta = float(rng.uniform(0.5, 10.0))
        # scale keeps a mix of surviving and collapsed modes across the
        # beta range without blowing up the curvature spread
        scale = float(rng.uniform(0.5, 1.5)) * (1.0 + 0.5 * np.sqrt(beta))
        spec = random_spec(
            d0, d2, n_samples=400, seed=int(rng.integers(0, 2**31)), signal_scale=scale
        )
        ds = generate(spec)
        sp = compute_spectrum(center(ds)[0])
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
    loss_tol: float = 1e-4,
    sv_tol: float = 1e-3,
    sigma_tol: float = 1e-3,
    s_tol: float = 1e-3,
) -> VerificationReport:
    """Run the agreement suite; ``beta_error`` skews the analytic side's
    beta and exists so tests can prove a mismatch is actually caught."""
    rng = np.random.default_rng(seed)
    rows: list[VerifyRow] = []
    for index in range(n_instances):
        sp, d1, beta = _draw_instance(rng, index)
        hp = cf.Hyperparams(beta=beta, latent_dim=d1)
        hp_analytic = replace(hp, beta=beta * beta_error)
        moments = Moments.from_spectrum(sp)

        gm = cf.global_minimum(sp, hp_analytic)
        result = train_to_minimum(index, moments, hp)

        predicted = gm.predicted_loss
        loss_rel = abs(result.final_loss - predicted) / (1.0 + abs(predicted))
        learned_sv = _learned_singvals(result.params, sp)
        predicted_sv = np.zeros(sp.n_modes)
        k = min(d1, sp.n_modes)
        predicted_sv[:k] = (gm.decoder_singvals * gm.encoder_singvals)[:k]
        sv_err = float(np.max(np.abs(learned_sv - predicted_sv)))
        sigma_err = float(
            np.max(np.abs(np.sort(result.params.sigma) - np.sort(gm.sigma)))
        )

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

        passed = (
            loss_rel <= loss_tol
            and sv_err <= sv_tol
            and sigma_err <= sigma_tol
            and (s_rel is None or s_rel <= s_tol)
        )
        rows.append(
            VerifyRow(
                index=index,
                dims=(sp.ambient_dim, sp.dim_y, d1),
                beta=beta,
                surviving=int(np.count_nonzero(~gm.collapse_flags)),
                loss_rel_err=loss_rel,
                sv_max_err=sv_err,
                sigma_max_err=sigma_err,
                s_rel_err=s_rel,
                passed=passed,
                note=note,
            )
        )
    return VerificationReport(rows=rows, all_passed=all(r.passed for r in rows))
