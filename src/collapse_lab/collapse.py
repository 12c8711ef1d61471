"""Posterior-collapse prediction: per-mode thresholds, regime labels,
the curvature-at-origin criterion, and beta sweeps.

A latent mode collapses exactly when its signal strength falls to the
regularization floor: ``zeta_i^2 <= beta * eta_dec^2`` for a fixed decoder
variance. The origin of parameter space is either a saddle or the global
minimum, never a merely-local minimum, so complete collapse is detectable
from local curvature alone. Fixed-variance verdicts are :func:`per_mode`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import decoder_variance as dv
from .closed_form import Hyperparams, loss_at_optimum, loss_offset, per_mode
from .spectrum import DataSpectrum

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
    ``hessian_psd`` is the origin test, True exactly when the origin is the
    global minimum; ``min_hessian_quadratic`` is the worst curvature there,
    stds at the prior, at the solver's decoder variance. ``decvar`` carries
    the learnable-decoder-variance classification when that mode was
    requested, else None.
    """

    mode_thresholds: np.ndarray
    collapse_flags: np.ndarray
    regime: str
    hessian_psd: bool
    min_hessian_quadratic: float
    decvar: dv.DecVarSolution | None = None


def _origin_curvature(zeta: float, beta: float, s: float, eta_enc: float) -> float:
    # sig_sq + b - sqrt((sig_sq - b)^2 + 4 z_sq); z_sq is per_mode's square, not a float's **
    sig_sq, b, z_sq = eta_enc**2, beta * s / eta_enc**2, zeta * zeta
    return float(4.0 * (beta * s - z_sq) / (sig_sq + b + np.sqrt((sig_sq - b) ** 2 + 4.0 * z_sq)))


def _regime(flags: np.ndarray) -> np.ndarray:
    # flags of the representable signal modes on the last axis; none (zero spectrum) is complete
    partial = np.where(flags.any(axis=-1), REGIME_PARTIAL, REGIME_NONE)
    return np.where(flags.all(axis=-1), REGIME_COMPLETE, partial)


def predict(sp: DataSpectrum, hp: Hyperparams) -> CollapseReport:
    """Collapse flags, thresholds, and regime at the queried beta.

    With a learnable decoder variance the thresholds come from the bound
    table, and the flags, regime and ``hessian_psd`` from the regime table's
    surviving count; only the curvature is read at the solver's ``s``. The
    classification is attached under ``decvar``.
    """
    d_star, d1_hat = sp.n_modes, sp.signal_modes(hp.latent_dim)

    sol = None
    if hp.decvar_mode == "fixed":
        s = hp.decvar
        thresholds = sp.singular_values**2 / s
        flags = ~per_mode(sp.singular_values, hp.beta, s, hp.eta_enc).alive
    else:
        bounds = dv.beta_bounds(sp, hp)
        sol = dv.solve_decoder_variance(sp, hp, bounds)
        thresholds = np.zeros(d_star)
        thresholds[: bounds.size] = bounds
        flags = np.arange(1, d_star + 1) > sol.surviving_modes
        # the solver's s, not hp.eta_dec: s*, the flat interval's top, or s -> 0 (ill-posed)
        s = sol.s_star if sol.s_star is not None else (sol.s_interval or (0.0, 0.0))[1]
    signal = flags[:d1_hat]
    return CollapseReport(
        mode_thresholds=thresholds,
        collapse_flags=flags,
        regime=str(_regime(signal)),
        hessian_psd=bool(signal.all()),
        min_hessian_quadratic=_origin_curvature(sp.singular_values[0], hp.beta, s, hp.eta_enc),
        decvar=sol,
    )


@dataclass(frozen=True)
class SweepRow:
    beta: float
    loss: float
    rank: int
    regime: str
    sigma: np.ndarray
    s_star: float | None = None


def beta_sweep(sp: DataSpectrum, hp: Hyperparams, beta_grid) -> list[SweepRow]:
    """One analytic row per beta: predicted loss, surviving-mode count,
    regime, and the per-mode stds sorted descending, all from one
    :func:`per_mode` pass over the grid. Ill-posed rows of a learnable
    decoder variance have no optimum: nan loss and zero stds."""
    grid = np.asarray(beta_grid, dtype=np.float64).ravel()
    if grid.size == 0:
        raise ValueError("beta grid is empty")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("beta grid must be strictly positive and ascending")
    d1 = hp.latent_dim
    if hp.decvar_mode == "fixed":
        s = np.full(grid.size, hp.decvar)
    else:
        # the profile loss is flat on the boundary interval: s is its top end
        found = dv.classify(sp, hp, grid)
        s = found.s
    ok = ~np.isnan(s)
    zeta = sp.zeta_padded(d1)
    modes = per_mode(zeta, grid[ok, None], s[ok, None], hp.eta_enc, hp.pinned_sigma)
    loss = np.full(grid.size, np.nan)
    loss[ok] = loss_at_optimum(sp, modes, s[ok])
    if hp.decvar_mode == "learnable":
        loss[ok] += 0.5 * sp.dim_y * np.log(s[ok])
    loss[ok] += loss_offset(sp, s[ok])
    sigma = np.zeros((grid.size, d1))
    sigma[ok] = np.sort(modes.sigma, axis=-1)[..., ::-1]

    if hp.decvar_mode == "fixed":
        ranks = np.count_nonzero(modes.alive, axis=-1).tolist()
        regimes = _regime(~modes.alive[:, : sp.signal_modes(d1)]).tolist()
        s_stars = [None] * grid.size
    else:
        ranks = found.surviving_modes.tolist()
        regimes = found.regime.tolist()
        s_stars = np.where(np.isnan(found.s_star), None, found.s_star).tolist()
    return [
        SweepRow(*row)
        for row in zip(grid.tolist(), loss.tolist(), ranks, regimes, sigma, s_stars)
    ]
