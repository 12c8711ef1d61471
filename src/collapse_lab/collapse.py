"""Posterior-collapse prediction: per-mode thresholds, regime labels,
the curvature-at-origin criterion, and beta sweeps.

A latent mode collapses exactly when its signal strength falls to the
regularization floor: ``zeta_i^2 <= beta * eta_dec^2`` for a fixed decoder
variance. The origin of parameter space is either a saddle or the global
minimum, never a merely-local minimum, so complete collapse is detectable
from local curvature alone. Every verdict is :func:`per_mode`'s survivor test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import decoder_variance as dv
from .closed_form import Hyperparams, loss_at_optimum, loss_offset, per_mode
from .spectrum import DataSpectrum, padded

REGIME_NONE = "none"
REGIME_PARTIAL = "partial"
REGIME_COMPLETE = "complete"
SWEEP_BLOCK = 1024  # betas per per_mode pass in beta_sweep; 512 to 2048 ran fastest


@dataclass(frozen=True)
class CollapseReport:
    """Per-mode collapse picture at one beta.

    ``mode_thresholds[i]`` is the beta at which mode i collapses;
    ``collapse_flags`` marks modes collapsed at the queried beta, those with
    ``zeta_i^2 <= beta * s`` at the block's decoder variance ``s``. Both
    run over the ``min(rank, dim_y)`` data modes. ``regime`` and
    ``hessian_psd`` read the flags of the representable signal modes:
    none / partial / complete, and True exactly when all collapse, that is
    when the origin is the global minimum. ``min_hessian_quadratic`` is the
    worst curvature there, stds at the prior, at the same ``s``, so its sign
    is the origin test's. ``decvar`` carries the learnable-decoder-variance
    classification when that mode was requested, else None.
    """

    mode_thresholds: np.ndarray
    collapse_flags: np.ndarray
    regime: str
    hessian_psd: bool
    min_hessian_quadratic: float
    decvar: dv.DecVarSolution | None = None


def _origin_curvature(zeta: float, beta: float, s: float, eta_enc: float) -> float:
    # sig_sq + b - sqrt((sig_sq - b)^2 + 4 z_sq); z_sq is per_mode's square, not a float's **,
    # and hypot takes the root where a square would leave the float range (** raises there)
    sig_sq, b, z_sq = eta_enc**2, beta * s / eta_enc**2, zeta * zeta
    gap = sig_sq - b
    root = np.sqrt(gap**2 + 4.0 * z_sq) if max(abs(gap), zeta) < 4e153 else np.hypot(gap, 2 * zeta)
    # scaled by 4 after the division, so a numerator near the float range's edge stays in it
    return float((beta * s - z_sq) / (sig_sq + b + root) * 4.0)


def _regime(flags: np.ndarray) -> np.ndarray:
    # flags of the representable signal modes on the last axis; none (zero spectrum) is complete
    partial = np.where(flags.any(axis=-1), REGIME_PARTIAL, REGIME_NONE)
    return np.where(flags.all(axis=-1), REGIME_COMPLETE, partial)


def predict(sp: DataSpectrum, hp: Hyperparams) -> CollapseReport:
    """Collapse flags, thresholds, and regime at the queried beta.

    One survivor test at one decoder variance ``s`` sets the flags, the regime,
    ``hessian_psd`` and the curvature: ``hp.decvar``, or the solver's ``s`` when
    learnable (s*, the flat interval's top, or s -> 0 when ill-posed). A mode on
    its threshold, and every mode tied with it, reads collapsed. The learnable
    classification is attached under ``decvar``.
    """
    d_star, d1_hat = sp.n_modes, sp.signal_modes(hp.latent_dim)

    sol = None
    if hp.decvar_mode == "fixed":
        s = hp.decvar
        thresholds = sp.singular_values**2 / s
    else:
        thresholds = padded(dv.beta_bounds(sp, hp), d_star)
        sol = dv.solve_decoder_variance(sp, hp)
        # the solver's s, not hp.eta_dec: s*, the flat interval's top, or s -> 0 (ill-posed)
        s = sol.s_star if sol.s_star is not None else (sol.s_interval or (0.0, 0.0))[1]
    # per_mode's survivor test, bit for bit, without its stds: they have no s -> 0 limit
    flags = sp.singular_values**2 <= hp.beta * s
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
    """One row of :func:`beta_sweep`, ``sigma`` descending; ``s_star`` is the unique optimal
    decoder variance, None for a fixed one and where a learnable one has none."""
    beta: float
    loss: float
    rank: int
    regime: str
    sigma: np.ndarray
    s_star: float | None = None


def beta_sweep(sp: DataSpectrum, hp: Hyperparams, beta_grid) -> list[SweepRow]:
    """One analytic row per beta: predicted loss, surviving-mode count, regime, and the
    per-mode stds sorted descending. A learnable decoder variance classifies the grid once;
    :func:`per_mode` runs once per block of at most ``SWEEP_BLOCK`` betas, so its temporaries
    scale with the block, not the grid. Every quantity is per beta, so a row does not depend
    on the blocks. Ill-posed rows have no optimum: nan loss and zero stds."""
    grid = np.asarray(beta_grid, dtype=np.float64).ravel()
    if grid.size == 0:
        raise ValueError("beta_grid (--beta-grid) is empty")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("beta_grid (--beta-grid) must be strictly positive and ascending")
    if hp.decvar_mode == "fixed" and not np.isfinite(float(grid[-1]) * float(hp.decvar)):
        raise ValueError("beta_grid (--beta-grid) times eta_dec^2 (--eta-dec) must be finite")
    found = dv.classify(sp, hp, grid) if hp.decvar_mode == "learnable" else None
    parts = (slice(at, at + SWEEP_BLOCK) for at in range(0, grid.size, SWEEP_BLOCK))
    return [row for part in parts for row in _sweep_block(sp, hp, grid, found, part)]


def _sweep_block(
    sp: DataSpectrum, hp: Hyperparams, grid: np.ndarray, found: dv.Regimes | None, part: slice
) -> list[SweepRow]:
    d1, grid = hp.latent_dim, grid[part]  # found classifies the whole grid, None if s is fixed
    # a learnable s is s_star, or the top end of the boundary row's flat interval
    s = np.full(grid.size, hp.decvar) if found is None else found.s[part]
    ok = ~np.isnan(s)
    modes = per_mode(sp.zeta_padded(d1), grid[ok, None], s[ok, None], hp.eta_enc, hp.pinned_sigma)
    loss = np.full(grid.size, np.nan)
    loss[ok] = loss_at_optimum(sp, modes, s[ok])
    if found is not None:
        loss[ok] += 0.5 * sp.dim_y * np.log(s[ok])
    loss[ok] += loss_offset(sp, s[ok])
    sigma = np.zeros((grid.size, d1))
    sigma[ok] = np.sort(modes.sigma, axis=-1)[..., ::-1]

    if found is None:
        ranks = np.count_nonzero(modes.alive, axis=-1).tolist()
        regimes = _regime(~modes.alive[:, : sp.signal_modes(d1)]).tolist()
        s_stars = [None] * grid.size
    else:
        ranks = found.surviving_modes[part].tolist()
        regimes = found.regime[part].tolist()
        s_stars = np.where(np.isnan(found.s_star[part]), None, found.s_star[part]).tolist()
    return [
        SweepRow(*row)
        for row in zip(grid.tolist(), loss.tolist(), ranks, regimes, sigma, s_stars)
    ]
