"""Independent references the tests check the package against: each
re-derives a claim of the paper, or a file format, by a route the package
does not take."""

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize

from collapse_lab import closed_form as cf
from collapse_lab import trainer as tr
from collapse_lab.closed_form import Hyperparams
from collapse_lab.data import Dataset
from collapse_lab.decoder_variance import profile_loss
from collapse_lab.errors import DomainError
from collapse_lab.spectrum import DataSpectrum


@dataclass(frozen=True)
class FactorizationProblem:
    """Reduced objective ||u v^T - z||_F^2 + sum_i sigma_i^2 ||u_i||^2
    + ridge ||v||_F^2, plus the maps between encoder coordinates and the
    whitened factor coordinates."""

    z: np.ndarray = field(repr=False)
    sigma: np.ndarray
    ridge: float
    basis: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)

    def evaluate(self, u: np.ndarray, v: np.ndarray) -> float:
        fit = float(np.sum((u @ v.T - self.z) ** 2))
        return fit + float(np.sum(self.sigma**2 * np.sum(u**2, axis=0))) + self.ridge * float(np.sum(v**2))

    def w_from_v(self, v: np.ndarray) -> np.ndarray:
        """Minimum-norm encoder with the prescribed whitened factor."""
        return (self.basis / np.sqrt(self.eigenvalues)) @ v

    def v_from_w(self, w: np.ndarray) -> np.ndarray:
        return (self.basis * np.sqrt(self.eigenvalues)).T @ w


def reduce_to_factorization(
    sp: DataSpectrum, hp: Hyperparams, sigma
) -> FactorizationProblem:
    """Whitened-coordinate form of the matrix part of the objective.

    For any (u, v) with encoder ``w = w_from_v(v)``, the reduced value
    equals ``2 eta_dec^2`` times the full loss minus its sigma-only term,
    up to the additive constant ``target_power - sum(zeta^2)``.
    """
    return FactorizationProblem(
        z=sp.cross_moment(),
        sigma=np.asarray(sigma, dtype=np.float64),
        ridge=hp.beta * hp.eta_dec**2 / hp.eta_enc**2,
        basis=sp.basis,
        eigenvalues=sp.eigenvalues,
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
    m = tr.Moments.from_spectrum(sp)

    def curvature(delta_u: np.ndarray, delta_v: np.ndarray) -> float:
        scale = np.sqrt(np.sum(delta_u**2) + np.sum(delta_v**2))
        delta_u = delta_u / scale
        delta_w = inv_root @ (delta_v / scale)

        def f(t: float) -> float:
            params = tr.ModelParams(
                decoder=t * delta_u, encoder=t * delta_w, log_sigma=log_sigma
            )
            return 2.0 * s * tr.eval_loss(params, m, hp)

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


def eval_loss_monte_carlo(
    p: tr.ModelParams,
    ds: Dataset,
    hp: Hyperparams,
    n_draws: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Estimate the loss by sampling the encoder noise.

    Returns (mean, standard error) over ``n_draws`` independent full
    passes; only the reconstruction expectation is sampled, every other
    term is analytic: ``eval_loss`` less the reconstruction expectation
    taken over the samples, its noise part the trace ``sum std^2 col_sq``.
    """
    b_e = p.enc_bias if p.enc_bias is not None else np.zeros(hp.latent_dim)
    b_d = p.dec_bias if p.dec_bias is not None else np.zeros(ds.dim_y)
    mean_part = ds.x @ p.encoder @ p.decoder.T + p.decoder @ b_e + b_d - ds.y
    std = ds.x @ p.var_slope.T + p.var_offset if p.ddv else np.exp(p.log_sigma)[None, :]
    s = hp.decvar if p.log_decvar is None else float(np.exp(p.log_decvar))
    col_sq = np.sum(p.decoder**2, axis=0)
    sample_fit = np.mean(np.sum(mean_part**2, axis=1)) + np.mean(std**2, axis=0) @ col_sq
    deterministic = tr.eval_loss(p, tr.Moments.from_dataset(ds), hp) - sample_fit / (2.0 * s)
    rng = np.random.default_rng(seed)
    draws = np.empty(n_draws)
    for j in range(n_draws):
        eps = rng.standard_normal(size=(ds.n_samples, hp.latent_dim)) * std
        resid = mean_part + eps @ p.decoder.T
        draws[j] = float(np.mean(np.sum(resid**2, axis=1))) / (2.0 * s)
    return deterministic + float(draws.mean()), float(draws.std(ddof=1) / np.sqrt(n_draws))


def reference_value_and_grad(
    p: tr.ModelParams, m: tr.Moments, hp: Hyperparams
) -> tuple[float, dict]:
    """The exact loss and its gradient written term by term: every mean
    and bias term kept, the reconstruction expanded in ``k a k^T`` and
    ``a k^T``, and the KL summed mode by mode with its logarithm.

    Returns the loss and a dict with the gradient of each field ``p``
    carries (``log_sigma`` is zero under a data-dependent std).
    """
    dec, enc, a, cross = p.decoder, p.encoder, m.a, m.cross
    b_e = p.enc_bias if p.enc_bias is not None else np.zeros(hp.latent_dim)
    b_d = p.dec_bias if p.dec_bias is not None else np.zeros(m.dim_y)
    k = dec @ enc.T
    c = dec @ b_e + b_d
    w_mean = enc.T @ m.mean_x
    r_mean = k @ m.mean_x + c - m.mean_y
    col_sq = np.sum(dec**2, axis=0)
    if p.ddv:
        t = m.samples_x @ p.var_slope.T + p.var_offset
        s2 = np.mean(t**2, axis=0)
    else:
        s2 = np.exp(p.log_sigma) ** 2
    s = hp.decvar if p.log_decvar is None else float(np.exp(p.log_decvar))
    eta2 = hp.eta_enc**2
    beta = hp.beta
    recon = (
        np.sum((k @ a) * k) + 2.0 * c @ (k @ m.mean_x) - 2.0 * np.sum(k * cross.T)
        + c @ c - 2.0 * c @ m.mean_y + m.target_power
    )
    fit = (recon + np.sum(s2 * col_sq)) / (2.0 * s)
    if p.ddv:
        kl = s2 / eta2 - 1.0 - np.mean(np.log(t**2), axis=0) + np.log(eta2)
    else:
        kl = s2 / eta2 - 1.0 - np.log(s2 / eta2)
    mean_term = np.sum((enc.T @ a) * enc.T) + 2.0 * b_e @ w_mean + b_e @ b_e
    loss = fit + 0.5 * beta / eta2 * mean_term + 0.5 * beta * np.sum(kl)
    if p.log_decvar is not None:
        loss += 0.5 * m.dim_y * np.log(s)

    grad = {
        "decoder": (
            (k @ a - cross.T) @ enc + np.outer(r_mean, b_e) + np.outer(c, w_mean) + dec * s2
        ) / s,
        "encoder": (a @ k.T + np.outer(m.mean_x, c) - cross) @ dec / s
        + beta / eta2 * (a @ enc + np.outer(m.mean_x, b_e)),
        "log_sigma": np.zeros(hp.latent_dim) if p.ddv
        else s2 / s * col_sq + beta * (s2 / eta2 - 1.0),
    }
    if p.enc_bias is not None:
        grad["enc_bias"] = dec.T @ r_mean / s + beta / eta2 * (w_mean + b_e)
    if p.dec_bias is not None:
        grad["dec_bias"] = r_mean / s
    if p.ddv:
        n = m.samples_x.shape[0]
        coef = col_sq / s + beta / eta2
        grad["var_slope"] = (
            coef[:, None] * (t.T @ m.samples_x) - beta * ((1.0 / t).T @ m.samples_x)
        ) / n
        grad["var_offset"] = coef * np.mean(t, axis=0) - beta * np.mean(1.0 / t, axis=0)
    if p.log_decvar is not None:
        grad["log_decvar"] = 0.5 * m.dim_y - fit
    return float(loss), grad


def ddv_inequality_check(
    p: tr.ModelParams, ds: Dataset, hp: Hyperparams
) -> tuple[float, float]:
    """Loss with a data-dependent encoder std vs. its flattened twin.

    The twin keeps the same per-mode mean variance but removes the data
    dependence (slope zero, offset raised to compensate); the original
    can never beat it. Returns (original, flattened).
    """
    if not p.ddv:
        raise ValueError("params carry no data-dependent variance")
    t = ds.x @ p.var_slope.T + p.var_offset
    flat = replace(
        p, var_slope=np.zeros_like(p.var_slope), var_offset=np.sqrt(np.mean(t**2, axis=0))
    )
    m = tr.Moments.from_dataset(ds)
    return tr.eval_loss(p, m, hp), tr.eval_loss(flat, m, hp)


def residual_power(sp: DataSpectrum, hp: Hyperparams, s: float) -> float:
    """Signal power left unexplained at the optimum for decoder variance s.

    Collapsed modes contribute their full power, surviving modes only the
    shrinkage floor ``beta * s``. The stationarity condition of the
    profile loss is ``d2 * s == residual_power(s)``.
    """
    zeta = sp.zeta_padded(hp.latent_dim)
    modes = cf.per_mode(zeta, hp.beta, s, hp.eta_enc, hp.pinned_sigma)
    # mode i explains zeta_i times the learned map's singular value
    explained = zeta * modes.decoder * modes.encoder
    return float(np.sum(sp.singular_values**2)) - float(np.sum(explained))


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


# what repr writes for a float: the CSV grammar, applied here one cell at a time
CSV_CELL = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[+-]?[0-9]+)?|-?inf|nan")


class CsvRefused(Exception):
    """The reference reader refused a file; ``row`` and ``col`` locate the
    fault as ``data.load`` does, or are None where it has no such place."""

    def __init__(self, row=None, col=None):
        super().__init__(row, col)
        self.row, self.col = row, col


def read_csv(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) of a collapse-lab CSV, read line by line and cell by cell
    with ``float``, or :class:`CsvRefused`. Faults come in ``data.load``'s
    order: the first malformed row or cell, then the first non-finite value
    in the order of a row of x then y."""
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        raise CsvRefused() from None
    if not text:
        raise CsvRefused()
    *ended, last = text.split("\n")
    lines = [line[:-1] if line.endswith("\r") else line for line in ended]
    if last:
        lines.append(last)  # no newline after it, so a "\r" there is its own
    names = lines[0].split(",")
    dim_x = len([name for name in names if name.startswith("x")])
    if names != [f"x{j}" for j in range(dim_x)] + [f"y{j}" for j in range(len(names) - dim_x)]:
        raise CsvRefused()
    rows = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(names):
            raise CsvRefused(row=i)
        for j, cell in enumerate(cells):
            if not CSV_CELL.fullmatch(cell):
                raise CsvRefused(row=i, col=j)
        rows.append([float(cell) for cell in cells])
    if not rows or dim_x in (0, len(names)):
        raise CsvRefused()
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if not math.isfinite(value):
                raise CsvRefused(row=i, col=j)
    values = np.array(rows)
    return values[:, :dim_x], values[:, dim_x:]
