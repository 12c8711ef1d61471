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
takes the encoder stds to be learnable. The numeric minimizer
:func:`minimize_profile` cross-checks the analytic solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closed_form as cf
from .closed_form import Hyperparams
from .errors import DomainError
from .spectrum import DataSpectrum, effective_counts

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
    beta_interval: tuple[float, float]
    beta: float
    d1: int
    d2: int
    s_interval: tuple[float, float] | None = None
    notes: str = ""

    def to_json_dict(self) -> dict:
        return json_safe(
            {
                "regime": self.regime,
                "surviving_modes": self.surviving_modes,
                "s_star": self.s_star,
                "s_interval": self.s_interval,
                "beta_interval": self.beta_interval,
                "beta": self.beta,
                "d1": self.d1,
                "d2": self.d2,
                "notes": self.notes,
            }
        )


def json_safe(obj):
    """Copy of a JSON-bound structure with arrays and tuples as lists and
    every non-finite float as None."""
    if isinstance(obj, np.ndarray):
        return json_safe(obj.tolist())
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(value) for value in obj]
    return obj


def _require_learnable_sigma(hp: Hyperparams) -> None:
    if hp.sigma_mode != "learnable":
        raise DomainError(
            "the learnable decoder variance analysis needs learnable encoder "
            "stds (sigma_mode 'learnable', --learnable-sigma)"
        )


def _modes_at(sp: DataSpectrum, hp: Hyperparams, s) -> cf.PerMode:
    # one row of modes per decoder variance in s
    if not np.all(np.asarray(s) > 0):
        raise DomainError(f"decoder variance must be > 0, got {s}")
    zeta = sp.zeta_padded(hp.latent_dim)
    return cf.per_mode(zeta, hp.beta, np.asarray(s)[..., None], hp.eta_enc, hp.pinned_sigma)


def profile_loss(sp: DataSpectrum, hp: Hyperparams, s) -> np.ndarray | float:
    """Loss at decoder variance ``s`` with all other parameters optimal.

    Includes the ``(d2/2) log s`` partition term; excludes data constants
    that do not depend on ``s`` for realizable targets. Vectorized over
    ``s``.
    """
    s = np.asarray(s, dtype=np.float64)
    out = cf.loss_at_optimum(sp, _modes_at(sp, hp, s), s) + 0.5 * sp.dim_y * np.log(s)
    return float(out) if out.ndim == 0 else out


def residual_power(sp: DataSpectrum, hp: Hyperparams, s: float) -> float:
    """Signal power left unexplained at the optimum for decoder variance s.

    Collapsed modes contribute their full power, surviving modes only the
    shrinkage floor ``beta * s``. The stationarity condition of the
    profile loss is ``d2 * s == residual_power(s)``.
    """
    modes = _modes_at(sp, hp, s)
    # mode i explains zeta_i times the learned map's singular value
    explained = sp.zeta_padded(hp.latent_dim) * modes.decoder * modes.encoder
    return float(np.sum(sp.singular_values**2)) - float(np.sum(explained))


def beta_bounds(sp: DataSpectrum, hp: Hyperparams) -> np.ndarray:
    """Entry p - 1 is the beta at which signal mode p flips between
    surviving and collapsed, for each of the modes within ``d1``."""
    _require_learnable_sigma(hp)
    _, d_star_hat, d1_hat = effective_counts(sp, hp.latent_dim)
    zsq = sp.singular_values[:d_star_hat] ** 2
    # power of the modes below mode p, for p = 1..d1_hat
    below = np.append(np.cumsum(zsq[::-1])[::-1], 0.0)[1 : d1_hat + 1]
    return sp.dim_y / (np.arange(1, d1_hat + 1) + below / zsq[:d1_hat])


def beta_breakpoints(sp: DataSpectrum, hp: Hyperparams) -> list[dict]:
    """Full regime table of this spectrum: one row per beta interval,
    ascending in beta and covering the positive axis."""
    bounds = beta_bounds(sp, hp).tolist()
    top = len(bounds)

    def row(regime, p, lo, hi, s_star=None):
        return {
            "regime": regime,
            "surviving_modes": p,
            "beta_lo": lo,
            "beta_hi": hi,
            "s_star": s_star,
        }

    if top == 0:
        return [row(REGIME_ILL_POSED, 0, 0.0, np.inf)]
    if top == sp.effective_rank:
        # no mode beyond the latent space: below d2 / top nothing bounds s
        # away from zero, and at d2 / top the minimizers form an interval
        rows = [
            row(REGIME_ILL_POSED, top, 0.0, bounds[-1]),
            row(REGIME_BOUNDARY, top, bounds[-1], bounds[-1]),
        ]
    else:
        rows = [row(REGIME_NO_COLLAPSE, top, 0.0, bounds[-1])]
    rows += [
        row(REGIME_PARTIAL, p, bounds[p], bounds[p - 1])
        for p in range(top - 1, 0, -1)
        if bounds[p] < bounds[p - 1]
    ]
    zsq = sp.singular_values[: sp.effective_rank] ** 2
    rows.append(row(REGIME_COMPLETE, 0, bounds[0], np.inf, float(np.sum(zsq)) / sp.dim_y))
    return rows


def solve_decoder_variance(sp: DataSpectrum, hp: Hyperparams) -> DecVarSolution:
    """Classify the optimum of the profile loss for the queried beta.

    ``hp.eta_dec`` is ignored: the decoder variance is the unknown here.
    """
    return solve_beta_grid(sp, hp, [hp.beta])[0]


def solve_beta_grid(sp: DataSpectrum, hp: Hyperparams, betas) -> list[DecVarSolution]:
    """:func:`solve_decoder_variance` at each beta of ``betas`` (``hp.beta``
    is ignored), with the beta-independent regime table built once."""
    table = beta_breakpoints(sp, hp)
    return [_classify(sp, hp, table, beta) for beta in betas]


def _classify(
    sp: DataSpectrum, hp: Hyperparams, table: list[dict], beta: float
) -> DecVarSolution:
    d2 = sp.dim_y
    for r in table:
        lo, hi, p = r["beta_lo"], r["beta_hi"], r["surviving_modes"]
        if lo <= beta < hi or beta == lo == hi:
            break
    else:
        raise AssertionError("beta intervals failed to cover the positive axis")

    found = dict(
        regime=r["regime"], surviving_modes=p, beta_interval=(lo, hi), beta=beta,
        d1=hp.latent_dim, d2=d2,
    )
    zsq = sp.singular_values[: sp.effective_rank] ** 2
    if r["regime"] == REGIME_ILL_POSED:
        notes = (
            "zero spectrum: profile loss decreases without bound as s -> 0"
            if p == 0
            else "no minimizer on (0, inf); training drives s toward 0"
        )
        return DecVarSolution(**found, s_star=None, notes=notes)
    if r["regime"] == REGIME_BOUNDARY:
        return DecVarSolution(
            **found,
            s_star=None,
            s_interval=(0.0, float(zsq[p - 1]) / beta),
            notes=(
                "flat global-minimum set (0, s_top]; at s = s_top the "
                "smallest mode sits exactly at its threshold, so the "
                "surviving count there reads one lower"
            ),
        )
    return DecVarSolution(**found, s_star=float(np.sum(zsq[p:])) / (d2 - beta * p))


def minimize_profile(
    sp: DataSpectrum,
    hp: Hyperparams,
    s_range: tuple[float, float] | None = None,
    grid_points: int = 4000,
) -> float:
    """Numeric argmin of the profile loss on a bracket.

    Log-spaced grid scan followed by golden-section refinement; returns
    the bracket edge when the minimum sits there (the ill-posed case).
    The default bracket spans from well below the smallest threshold to
    a point where the profile provably rises.
    """
    if s_range is None:
        zsq = sp.singular_values**2
        top = float(zsq[0]) if zsq.size and zsq[0] > 0 else 1.0
        s1 = top / hp.beta
        s_lo = 1e-8 * max(s1, 1.0)
        s_hi = s1 + float(np.sum(zsq)) + 1.0
    else:
        s_lo, s_hi = s_range
    if not (0 < s_lo < s_hi):
        raise DomainError(f"need 0 < s_lo < s_hi, got ({s_lo}, {s_hi})")

    # scipy is a test-only extra: importing it here keeps it off the CLI's path
    from scipy import optimize

    grid = np.geomspace(s_lo, s_hi, grid_points)
    values = profile_loss(sp, hp, grid)
    idx = int(np.argmin(values))
    if idx == 0:
        return float(grid[0])
    if idx == grid_points - 1:
        return float(grid[-1])
    result = optimize.minimize_scalar(
        lambda s: profile_loss(sp, hp, s),
        bracket=(grid[idx - 1], grid[idx], grid[idx + 1]),
        method="golden",
        options={"xtol": 1e-12, "maxiter": 500},
    )
    return float(result.x)
