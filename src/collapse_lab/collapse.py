"""Posterior-collapse prediction: per-mode thresholds, regime labels,
the curvature-at-origin criterion, and beta sweeps.

A latent mode collapses exactly when its signal strength falls to the
regularization floor: ``zeta_i^2 <= beta * eta_dec^2`` for a fixed decoder
variance. The origin of parameter space is either a saddle or the global
minimum, never a merely-local minimum, so complete collapse is detectable
from local curvature alone; :func:`numeric_hessian_check` probes that
curvature by finite differences as an independent witness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import decoder_variance as dv
from .closed_form import Hyperparams, global_minimum, per_mode
from .spectrum import DataSpectrum, effective_counts
from .trainer import ModelParams, eval_loss

REGIME_NONE = "none"
REGIME_PARTIAL = "partial"
REGIME_COMPLETE = "complete"


@dataclass(frozen=True)
class CollapseReport:
    """Per-mode collapse picture at one beta.

    ``mode_thresholds[i]`` is the beta at which mode i collapses;
    ``collapse_flags`` marks modes collapsed at the queried beta. Both
    run over the ``min(rank, dim_y)`` data modes. ``regime`` summarizes
    the representable signal modes: none / partial / complete.
    ``decvar`` carries the learnable-decoder-variance classification when
    that mode was requested, else None.
    """

    mode_thresholds: np.ndarray
    collapse_flags: np.ndarray
    regime: str
    hessian_psd: bool
    min_hessian_quadratic: float
    decvar: dv.DecVarSolution | None = None

    def to_json_dict(self) -> dict:
        out = {
            "mode_thresholds": self.mode_thresholds.tolist(),
            "collapse_flags": [bool(b) for b in self.collapse_flags],
            "regime": self.regime,
            "hessian_psd": self.hessian_psd,
            "min_hessian_quadratic": self.min_hessian_quadratic,
        }
        if self.decvar is not None:
            out["decvar"] = self.decvar.to_json_dict()
        return out


def hessian_origin_test(sp: DataSpectrum, hp: Hyperparams) -> tuple[bool, float]:
    """Sign of the worst curvature of the loss at the all-zero model.

    With encoder stds at the prior value, the minimum of the origin
    quadratic form over unit perturbations has the closed form below; it
    is non-negative exactly when the origin is the global minimum.
    """
    zeta_max = float(sp.singular_values[0]) if sp.n_modes else 0.0
    sig_sq = hp.eta_enc**2
    b = hp.beta * hp.eta_dec**2 / hp.eta_enc**2
    min_quadratic = sig_sq + b - np.sqrt((sig_sq - b) ** 2 + 4.0 * zeta_max**2)
    return bool(min_quadratic >= 0.0), float(min_quadratic)


def _regime(flags: np.ndarray) -> str:
    # flags of the representable signal modes
    if not flags.any():
        return REGIME_NONE
    return REGIME_COMPLETE if flags.all() else REGIME_PARTIAL


def predict(sp: DataSpectrum, hp: Hyperparams) -> CollapseReport:
    """Collapse flags, thresholds, and regime at the queried beta.

    With a learnable decoder variance the per-mode thresholds come from
    the profile-loss analysis instead of the fixed-variance rule, and the
    classification is attached under ``decvar``.
    """
    d_star, _, d1_hat = effective_counts(sp, hp.latent_dim)

    if hp.decvar_mode == "fixed":
        s = hp.decvar
        thresholds = sp.singular_values**2 / s
        flags = ~per_mode(sp.singular_values, hp.beta, s, hp.eta_enc).alive
        sol = None
    else:
        sol = dv.solve_decoder_variance(sp, hp)
        bounds = dv.beta_bounds(sp, hp)
        thresholds = np.zeros(d_star)
        thresholds[: bounds.size] = bounds
        flags = np.arange(1, d_star + 1) > sol.surviving_modes
    regime = _regime(flags[:d1_hat])

    if sol is not None and sol.s_star is not None:
        hp_at_opt = replace(hp, eta_dec=float(np.sqrt(sol.s_star)), decvar_mode="fixed")
        psd, min_q = hessian_origin_test(sp, hp_at_opt)
    else:
        psd, min_q = hessian_origin_test(sp, hp)

    return CollapseReport(
        mode_thresholds=thresholds,
        collapse_flags=flags,
        regime=regime,
        hessian_psd=psd,
        min_hessian_quadratic=min_q,
        decvar=sol,
    )


def numeric_hessian_check(
    sp: DataSpectrum,
    hp: Hyperparams,
    n_directions: int = 24,
    seed: int = 0,
    step: float = 3e-3,
) -> float:
    """Minimum finite-difference curvature of the reduced objective at
    the origin over sampled unit directions.

    The sample always includes the top singular pair of the cross-moment
    mixed over a grid of decoder/encoder weightings, which is where
    negative curvature shows up first; the rest are random. Curvature is
    reported on the same scale as ``min_hessian_quadratic``.
    """
    if n_directions < 1:
        raise ValueError("n_directions must be >= 1")
    rng = np.random.default_rng(seed)
    d1, d2, d0 = hp.latent_dim, sp.dim_y, sp.rank
    s = hp.decvar
    log_sigma = np.full(d1, np.log(hp.eta_enc))
    inv_root = sp.basis / np.sqrt(sp.eigenvalues)

    def curvature(delta_u: np.ndarray, delta_v: np.ndarray) -> float:
        scale = np.sqrt(np.sum(delta_u**2) + np.sum(delta_v**2))
        delta_u = delta_u / scale
        delta_w = inv_root @ (delta_v / scale)

        def f(t: float) -> float:
            params = ModelParams(
                decoder=t * delta_u, encoder=t * delta_w, log_sigma=log_sigma
            )
            return 2.0 * s * eval_loss(params, sp, hp)

        return (f(step) - 2.0 * f(0.0) + f(-step)) / step**2

    worst = np.inf
    if sp.effective_rank > 0:
        u1 = sp.left_vectors[:, 0]
        v1 = sp.right_vectors[:, 0]
        for alpha in np.linspace(0.02, 0.98, 25):
            delta_u = np.zeros((d2, d1))
            delta_v = np.zeros((d0, d1))
            delta_u[:, 0] = np.sqrt(alpha) * u1
            delta_v[:, 0] = np.sqrt(1.0 - alpha) * v1
            worst = min(worst, curvature(delta_u, delta_v))
    for _ in range(n_directions):
        worst = min(
            worst,
            curvature(rng.standard_normal((d2, d1)), rng.standard_normal((d0, d1))),
        )
    return float(worst)


@dataclass(frozen=True)
class SweepRow:
    beta: float
    loss: float
    rank: int
    regime: str
    sigma: np.ndarray
    s_star: float | None = None

    def to_json_dict(self) -> dict:
        return dv.json_safe(asdict(self))


def _fixed_row(sp: DataSpectrum, hp: Hyperparams) -> SweepRow:
    gm = global_minimum(sp, hp)
    return SweepRow(
        beta=hp.beta,
        loss=gm.predicted_loss,
        rank=int(np.count_nonzero(~gm.collapse_flags)),
        regime=predict(sp, hp).regime,
        sigma=np.sort(gm.sigma)[::-1],
    )


def _learnable_row(sp: DataSpectrum, hp: Hyperparams, sol: dv.DecVarSolution) -> SweepRow:
    hp_b = replace(hp, beta=sol.beta)
    # the profile loss is flat on the boundary interval; report its top end
    s = sol.s_star if sol.s_interval is None else sol.s_interval[1]
    if s is None:
        sigma = np.zeros(hp.latent_dim)
        loss = float("nan")
    else:
        zeta = sp.zeta_padded(hp.latent_dim)
        sigma = per_mode(zeta, hp_b.beta, s, hp.eta_enc).sigma
        offset = (sp.target_power - float(np.sum(sp.singular_values**2))) / (2.0 * s)
        loss = dv.profile_loss(sp, hp_b, s) + offset
    return SweepRow(
        beta=sol.beta,
        loss=loss,
        rank=sol.surviving_modes,
        regime=sol.regime,
        sigma=np.sort(sigma)[::-1],
        s_star=sol.s_star,
    )


def beta_sweep(sp: DataSpectrum, hp: Hyperparams, beta_grid) -> list[SweepRow]:
    """One analytic row per beta: predicted loss, surviving-mode count,
    regime, and the per-mode stds sorted descending."""
    grid = np.asarray(beta_grid, dtype=np.float64).ravel()
    if grid.size == 0:
        raise ValueError("beta grid is empty")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("beta grid must be strictly positive and ascending")
    if hp.decvar_mode == "fixed":
        return [_fixed_row(sp, replace(hp, beta=b)) for b in grid.tolist()]
    solutions = dv.solve_beta_grid(sp, hp, grid.tolist())
    return [_learnable_row(sp, hp, sol) for sol in solutions]
