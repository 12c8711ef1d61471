"""Learnable decoder variance: profile loss, stationarity, and the five
collapse regimes it produces as beta varies.

With the decoder variance ``s`` optimized jointly, the loss profiled over
every other parameter becomes a differentiable 1-D function ``G(s)`` (the
Gaussian partition term ``(d2/2) log s`` now matters). Its minimizer is a
piecewise-rational function of beta; depending on the spectrum shape and
beta, the minimum is attained at a unique interior point, on a whole
interval, or not at all (the infimum sits at s -> 0, driving training
toward an increasingly ill-conditioned model).

Everything here takes the target power to coincide with the spectrum
power (targets realizable by a linear map), and the regime analysis
takes the encoder stds to be learnable. The tests cross-check the
analytic solution with a numeric minimizer of :func:`profile_loss`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import closed_form as cf
from .closed_form import Hyperparams
from .errors import DomainError
from .spectrum import DataSpectrum

REGIME_ILL_POSED = "ill_posed_zero"
REGIME_BOUNDARY = "boundary_interval"
REGIME_NO_COLLAPSE = "no_collapse"
REGIME_PARTIAL = "partial_collapse"
REGIME_COMPLETE = "complete_collapse"


@dataclass(frozen=True)
class DecVarSolution:
    """Classified optimum of the profile loss at one beta.

    ``s_star`` is the unique minimizer when one exists; ``None`` in the
    ill-posed regime (infimum at s -> 0) and in the boundary regime,
    where ``s_interval`` carries the full flat set of minimizers.
    ``beta_interval`` is the half-open [lo, hi) range of beta producing
    this regime for this spectrum. ``surviving_modes`` counts modes kept
    out of collapse.
    """

    regime: str
    surviving_modes: int
    s_star: float | None
    s_interval: tuple[float, float] | None
    beta_interval: tuple[float, float]
    beta: float
    d1: int
    d2: int
    notes: str


def profile_loss(sp: DataSpectrum, hp: Hyperparams, s) -> np.ndarray | float:
    """Loss at decoder variance ``s`` with all other parameters optimal.

    Includes the ``(d2/2) log s`` partition term; excludes data constants
    that do not depend on ``s`` for realizable targets. Vectorized over
    ``s``.
    """
    s = np.asarray(s, dtype=np.float64)
    if not np.all(s > 0):
        raise DomainError(f"decoder variance must be > 0, got {s}")
    # one row of modes per decoder variance in s
    modes = cf.per_mode(
        sp.zeta_padded(hp.latent_dim), hp.beta, s[..., None], hp.eta_enc, hp.pinned_sigma
    )
    out = cf.loss_at_optimum(sp, modes, s) + 0.5 * sp.dim_y * np.log(s)
    return float(out) if out.ndim == 0 else out


def beta_bounds(sp: DataSpectrum, hp: Hyperparams) -> np.ndarray:
    """Entry p - 1 is the beta at which signal mode p flips between
    surviving and collapsed, for each of the modes within ``d1``."""
    if hp.sigma_mode != "learnable":
        raise DomainError(
            "the learnable decoder variance analysis needs learnable encoder "
            "stds (sigma_mode 'learnable', --learnable-sigma)"
        )
    d1_hat = sp.signal_modes(hp.latent_dim)
    zsq = sp.singular_values[: sp.effective_rank] ** 2
    # power of the modes below mode p, for p = 1..d1_hat
    below = np.append(np.cumsum(zsq[::-1])[::-1], 0.0)[1 : d1_hat + 1]
    return sp.dim_y / (np.arange(1, d1_hat + 1) + below / zsq[:d1_hat])


def _regime_table(sp: DataSpectrum, bounds: np.ndarray) -> list[tuple]:
    # rows (regime, p, lo, hi): p surviving modes for beta in [lo, hi),
    # ascending in beta and covering the positive axis
    b = bounds.tolist()
    top = len(b)
    if top == 0:
        return [(REGIME_ILL_POSED, 0, 0.0, np.inf)]
    if top == sp.effective_rank:
        # no mode beyond the latent space: below d2 / top nothing bounds s
        # away from zero, and at d2 / top the minimizers form an interval
        rows = [(REGIME_ILL_POSED, top, 0.0, b[-1]), (REGIME_BOUNDARY, top, b[-1], b[-1])]
    else:
        rows = [(REGIME_NO_COLLAPSE, top, 0.0, b[-1])]
    rows += [
        (REGIME_PARTIAL, p, b[p], b[p - 1]) for p in range(top - 1, 0, -1) if b[p] < b[p - 1]
    ]
    return rows + [(REGIME_COMPLETE, 0, b[0], np.inf)]


def beta_breakpoints(sp: DataSpectrum, hp: Hyperparams) -> list[dict]:
    """Full regime table of this spectrum: one row per beta interval,
    ascending in beta and covering the positive axis."""
    zsq = sp.singular_values[: sp.effective_rank] ** 2
    s_complete = float(np.sum(zsq)) / sp.dim_y
    return [
        {"regime": r, "surviving_modes": p, "beta_lo": lo, "beta_hi": hi,
         "s_star": s_complete if r == REGIME_COMPLETE else None}
        for r, p, lo, hi in _regime_table(sp, beta_bounds(sp, hp))
    ]


class Regimes(NamedTuple):
    """One entry per beta of a grid. ``s_star`` is the unique minimizer of
    the profile loss, nan where there is none; ``s`` is where the optimum
    is read: ``s_star``, the top of the flat interval on the boundary, nan
    where the problem is ill-posed."""

    regime: np.ndarray
    surviving_modes: np.ndarray
    beta_lo: np.ndarray
    beta_hi: np.ndarray
    s_star: np.ndarray
    s: np.ndarray


def classify(sp: DataSpectrum, hp: Hyperparams, betas, bounds=None) -> Regimes:
    """Classify the optimum of the profile loss at each beta of ``betas``
    (``hp.beta`` is ignored) with one lookup in the regime table. ``bounds``
    is this spectrum's :func:`beta_bounds`, computed when not given."""
    table = _regime_table(sp, beta_bounds(sp, hp) if bounds is None else bounds)
    regime, p, lo, hi = (np.array(column) for column in zip(*table))
    betas = np.asarray(betas, dtype=np.float64)
    # A beta belongs to the first row that holds it. Rows leave no gap, but
    # a one-ulp inversion of tied bounds can start a row inside the rows
    # before it, which keep the overlap; so each row starts where they end.
    starts = np.maximum.accumulate(np.append(0.0, hi[:-1]))
    row = np.searchsorted(starts, betas, side="right") - 1
    for point in np.flatnonzero(lo == hi):  # the boundary row holds its one beta
        row[betas == lo[point]] = point
    regime, p = regime[row], p[row]

    zsq = sp.singular_values[: sp.effective_rank] ** 2
    tail = np.array([float(np.sum(zsq[k:])) for k in range(zsq.size + 1)])
    s_star, s = np.full((2, betas.size), np.nan)
    unique = (regime != REGIME_ILL_POSED) & (regime != REGIME_BOUNDARY)
    s_star[unique] = s[unique] = tail[p[unique]] / (sp.dim_y - betas[unique] * p[unique])
    flat = regime == REGIME_BOUNDARY
    s[flat] = zsq[p[flat] - 1] / betas[flat]
    return Regimes(regime, p, lo[row], hi[row], s_star, s)


def solve_decoder_variance(
    sp: DataSpectrum, hp: Hyperparams, bounds=None
) -> DecVarSolution:
    """Classify the optimum of the profile loss for the queried beta: the
    one-beta case of :func:`classify`, which also says what ``bounds`` is.

    ``hp.eta_dec`` is ignored: the decoder variance is the unknown here.
    """
    regime, p, lo, hi, s_star, s = (v.item() for v in classify(sp, hp, [hp.beta], bounds))
    s_interval, notes = None, ""
    if regime == REGIME_ILL_POSED:
        notes = (
            "zero spectrum: profile loss decreases without bound as s -> 0"
            if p == 0
            else "no minimizer on (0, inf); training drives s toward 0"
        )
    elif regime == REGIME_BOUNDARY:
        s_interval = (0.0, s)
        notes = (
            "flat global-minimum set (0, s_top]; at s = s_top the "
            "smallest mode sits exactly at its threshold, so the "
            "surviving count there reads one lower"
        )
    return DecVarSolution(
        regime=regime, surviving_modes=p, s_star=None if np.isnan(s_star) else s_star,
        s_interval=s_interval, beta_interval=(lo, hi), beta=hp.beta, d1=hp.latent_dim,
        d2=sp.dim_y, notes=notes,
    )
