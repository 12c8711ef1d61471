"""Gradient-descent oracle for the exact expected loss.

The loss is quadratic in the data, so the expectation over the training
set reduces to second moments and the expectation over the encoder noise
is integrated out analytically; gradients are exact and training is fully
deterministic. A Monte Carlo evaluation of the noise expectation exists
solely to validate that reduction.

Supported extensions beyond the core (decoder, encoder, per-mode stds):
encoder/decoder biases, a data-dependent encoder std ``|C x + f|`` (which
needs sample access for its log term), and a learnable decoder variance
(which adds the Gaussian partition term to the loss).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .closed_form import GlobalMinimum, Hyperparams
from .data import Dataset
from .errors import DegenerateVariance, DivergenceError, ShapeError
from .spectrum import DataSpectrum


@dataclass(frozen=True)
class Moments:
    """Second-moment summary of a dataset, enough to evaluate the loss.

    ``samples_x`` is kept only when the data-dependent variance terms
    (which average a per-sample logarithm) may be needed.
    """

    a: np.ndarray = field(repr=False)       # E[x x^T]
    cross: np.ndarray = field(repr=False)   # E[x y^T]
    mean_x: np.ndarray = field(repr=False)
    mean_y: np.ndarray = field(repr=False)
    target_power: float
    dim_x: int
    dim_y: int
    samples_x: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "Moments":
        n = ds.n_samples
        return cls(
            a=ds.x.T @ ds.x / n,
            cross=ds.x.T @ ds.y / n,
            mean_x=ds.x.mean(axis=0),
            mean_y=ds.y.mean(axis=0),
            target_power=float(np.sum(ds.y**2) / n),
            dim_x=ds.dim_x,
            dim_y=ds.dim_y,
            samples_x=ds.x,
        )

    @classmethod
    def from_spectrum(cls, sp: DataSpectrum) -> "Moments":
        scaled = sp.basis * sp.eigenvalues
        return cls(
            a=scaled @ sp.basis.T,
            cross=(sp.basis * np.sqrt(sp.eigenvalues)) @ sp.cross_moment().T,
            mean_x=np.zeros(sp.ambient_dim),
            mean_y=np.zeros(sp.dim_y),
            target_power=sp.target_power,
            dim_x=sp.ambient_dim,
            dim_y=sp.dim_y,
        )


DataSource = Union[Dataset, DataSpectrum, Moments]


def _moments(src: DataSource) -> Moments:
    if isinstance(src, Moments):
        return src
    if isinstance(src, Dataset):
        return Moments.from_dataset(src)
    if isinstance(src, DataSpectrum):
        return Moments.from_spectrum(src)
    raise TypeError(f"cannot evaluate against {type(src).__name__}")


@dataclass
class ModelParams:
    """All trainable quantities; optional parts default to absent.

    Stds are kept in log form so positivity is structural:
    ``sigma = exp(log_sigma)`` and, when present, the decoder variance is
    ``exp(log_decvar)``. When ``var_slope``/``var_offset`` are present the
    encoder std is the data-dependent ``|var_slope @ x + var_offset|`` and
    ``log_sigma`` is inert.
    """

    decoder: np.ndarray            # (dim_y, d1)
    encoder: np.ndarray            # (dim_x, d1)
    log_sigma: np.ndarray          # (d1,)
    enc_bias: np.ndarray | None = None
    dec_bias: np.ndarray | None = None
    var_slope: np.ndarray | None = None    # (d1, dim_x)
    var_offset: np.ndarray | None = None   # (d1,)
    log_decvar: float | None = None

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)

    @property
    def decvar(self) -> float | None:
        return None if self.log_decvar is None else float(np.exp(self.log_decvar))

    @property
    def ddv(self) -> bool:
        return self.var_slope is not None

    def copy(self) -> "ModelParams":
        dup = lambda a: None if a is None else np.array(a, copy=True)
        return ModelParams(
            decoder=np.array(self.decoder, copy=True),
            encoder=np.array(self.encoder, copy=True),
            log_sigma=np.array(self.log_sigma, copy=True),
            enc_bias=dup(self.enc_bias),
            dec_bias=dup(self.dec_bias),
            var_slope=dup(self.var_slope),
            var_offset=dup(self.var_offset),
            log_decvar=self.log_decvar,
        )


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings. ``optimizer`` is "adam" or "gd" (plain gradient
    descent with a halving-on-increase line search)."""

    optimizer: str = "adam"
    learning_rate: float = 1e-3
    max_steps: int = 10000
    grad_tol: float = 1e-7

    def __post_init__(self):
        if self.optimizer not in ("adam", "gd"):
            raise ValueError("optimizer must be 'adam' or 'gd'")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class TrainResult:
    params: ModelParams
    final_loss: float
    grad_norm: float
    steps: int
    converged: bool
    loss_trace: np.ndarray | None = None
    decvar_trace: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        return {
            "final_loss": self.final_loss,
            "grad_norm": self.grad_norm,
            "steps": self.steps,
            "converged": self.converged,
            "sigma": self.params.sigma.tolist(),
            "decvar": self.params.decvar,
        }


def init_params(
    src: DataSource,
    hp: Hyperparams,
    seed: int = 0,
    bias: bool = False,
    ddv: bool = False,
) -> ModelParams:
    """Random small initialization (entries uniform in [-0.1, 0.1]).

    Stds start at 1 (log 0), data-dependent offsets near 1, and the
    learnable decoder variance (created when ``hp.decvar_mode`` is
    learnable) starts at ``hp.eta_dec**2``.
    """
    m = _moments(src)
    rng = np.random.default_rng(seed)
    d1 = hp.latent_dim
    small = lambda *shape: rng.uniform(-0.1, 0.1, size=shape)
    log_sigma = np.zeros(d1) if hp.sigma_mode == "learnable" else np.full(
        d1, np.log(hp.eta_enc)
    )
    return ModelParams(
        decoder=small(m.dim_y, d1),
        encoder=small(m.dim_x, d1),
        log_sigma=log_sigma,
        enc_bias=np.zeros(d1) if bias else None,
        dec_bias=np.zeros(m.dim_y) if bias else None,
        var_slope=small(d1, m.dim_x) if ddv else None,
        var_offset=rng.uniform(0.9, 1.1, size=d1) if ddv else None,
        log_decvar=float(np.log(hp.decvar)) if hp.decvar_mode == "learnable" else None,
    )


def params_from_minimum(gm: GlobalMinimum, hp: Hyperparams) -> ModelParams:
    """ModelParams sitting exactly at a closed-form minimum."""
    return ModelParams(
        decoder=np.array(gm.decoder, copy=True),
        encoder=np.array(gm.encoder, copy=True),
        log_sigma=np.log(gm.sigma),
        log_decvar=float(np.log(hp.decvar)) if hp.decvar_mode == "learnable" else None,
    )


def _check_shapes(p: ModelParams, m: Moments, hp: Hyperparams) -> None:
    d1 = hp.latent_dim
    if p.decoder.shape != (m.dim_y, d1):
        raise ShapeError(f"decoder {p.decoder.shape} != ({m.dim_y}, {d1})")
    if p.encoder.shape != (m.dim_x, d1):
        raise ShapeError(f"encoder {p.encoder.shape} != ({m.dim_x}, {d1})")
    if p.log_sigma.shape != (d1,):
        raise ShapeError(f"log_sigma {p.log_sigma.shape} != ({d1},)")
    if p.ddv:
        if p.var_slope.shape != (d1, m.dim_x) or p.var_offset.shape != (d1,):
            raise ShapeError("data-dependent variance parameter shapes are off")
        if m.samples_x is None:
            raise ShapeError(
                "data-dependent variance needs sample access; pass a Dataset"
            )


def _ddv_std_matrix(p: ModelParams, m: Moments) -> np.ndarray:
    t = m.samples_x @ p.var_slope.T + p.var_offset
    if np.any(t == 0.0):
        raise DegenerateVariance("encoder std hit zero on a training sample")
    return t


def _core_terms(p: ModelParams, m: Moments, hp: Hyperparams):
    """Terms the loss and every gradient block share; the last is the
    expected reconstruction term ``E||y - decode(z)||^2 / (2 s)``."""
    k = p.decoder @ p.encoder.T
    b_e = p.enc_bias if p.enc_bias is not None else np.zeros(hp.latent_dim)
    b_d = p.dec_bias if p.dec_bias is not None else np.zeros(m.dim_y)
    c = p.decoder @ b_e + b_d
    recon = (
        float(np.sum((k @ m.a) * k))
        + 2.0 * float(c @ (k @ m.mean_x))
        - 2.0 * float(np.sum(k * m.cross.T))
        + float(c @ c)
        - 2.0 * float(c @ m.mean_y)
        + m.target_power
    )
    if p.ddv:
        t = _ddv_std_matrix(p, m)
        s2 = np.mean(t**2, axis=0)
    else:
        t = None
        s2 = p.sigma**2
    trace_term = float(np.sum(s2 * np.sum(p.decoder**2, axis=0)))
    s = p.decvar if p.log_decvar is not None else hp.decvar
    return k, b_e, c, s2, t, s, (recon + trace_term) / (2.0 * s)


def _loss(p: ModelParams, m: Moments, hp: Hyperparams):
    """Exact expected loss at ``p`` and the :func:`_core_terms` it was
    built from, which :func:`value_and_grad` reuses for the gradient."""
    _check_shapes(p, m, hp)
    core = _core_terms(p, m, hp)
    _, b_e, _, s2, t, s, fit = core
    eta2 = hp.eta_enc**2
    if p.ddv:
        kl_terms = s2 / eta2 - 1.0 - np.mean(np.log(t**2), axis=0) + np.log(eta2)
    else:
        ratio = s2 / eta2
        kl_terms = ratio - 1.0 - np.log(ratio)
    mean_term = (
        float(np.sum((p.encoder.T @ m.a) * p.encoder.T))
        + 2.0 * float(b_e @ (p.encoder.T @ m.mean_x))
        + float(b_e @ b_e)
    )
    loss = fit + 0.5 * hp.beta / eta2 * mean_term + 0.5 * hp.beta * float(np.sum(kl_terms))
    if p.log_decvar is not None:
        loss += 0.5 * m.dim_y * np.log(s)
    return float(loss), core


def value_and_grad(
    p: ModelParams, src: DataSource, hp: Hyperparams
) -> tuple[float, ModelParams]:
    """Exact expected loss at ``p`` (noise expectation integrated out)
    and its analytic gradient, which has the same structure as ``p``."""
    m = _moments(src)
    loss, (k, b_e, c, s2, t, s, fit) = _loss(p, m, hp)
    eta2 = hp.eta_enc**2
    beta = hp.beta
    r_mean = k @ m.mean_x + c - m.mean_y
    col_sq = np.sum(p.decoder**2, axis=0)

    if p.ddv:
        n = m.samples_x.shape[0]
        coef = col_sq / s + beta / eta2
        g_log_sigma = np.zeros_like(p.log_sigma)
        g_slope = coef[:, None] * (t.T @ m.samples_x / n) - beta * (
            (1.0 / t).T @ m.samples_x / n
        )
        g_offset = coef * t.mean(axis=0) - beta * np.mean(1.0 / t, axis=0)
    else:
        g_log_sigma = s2 / s * col_sq + beta * (s2 / eta2 - 1.0)
        g_slope = g_offset = None

    g_log_decvar = None if p.log_decvar is None else -fit + 0.5 * m.dim_y

    e_r_m = (k @ m.a - m.cross.T) @ p.encoder + np.outer(r_mean, b_e) + np.outer(
        c, p.encoder.T @ m.mean_x
    )
    e_x_r = m.a @ k.T + np.outer(m.mean_x, c) - m.cross
    grad = ModelParams(
        decoder=(e_r_m + p.decoder * s2) / s,
        encoder=e_x_r @ p.decoder / s
        + beta / eta2 * (m.a @ p.encoder + np.outer(m.mean_x, b_e)),
        log_sigma=g_log_sigma,
        var_slope=g_slope,
        var_offset=g_offset,
        log_decvar=g_log_decvar,
    )
    if p.enc_bias is not None:
        m_mean = p.encoder.T @ m.mean_x + b_e
        grad.enc_bias = p.decoder.T @ r_mean / s + beta / eta2 * m_mean
    if p.dec_bias is not None:
        grad.dec_bias = r_mean / s
    return loss, grad


def eval_loss(p: ModelParams, src: DataSource, hp: Hyperparams) -> float:
    """Exact expected loss at ``p``; see :func:`value_and_grad`."""
    return _loss(p, _moments(src), hp)[0]


def eval_grad(p: ModelParams, src: DataSource, hp: Hyperparams) -> ModelParams:
    """Analytic gradient at ``p``; see :func:`value_and_grad`."""
    return value_and_grad(p, src, hp)[1]


def eval_loss_monte_carlo(
    p: ModelParams,
    ds: Dataset,
    hp: Hyperparams,
    n_draws: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Estimate the loss by sampling the encoder noise.

    Returns (mean, standard error) over ``n_draws`` independent full
    passes; only the reconstruction expectation is sampled, every other
    term is analytic. Exists to validate the closed-form reduction.
    """
    loss, (_, _, c, _, t, s, fit) = _loss(p, Moments.from_dataset(ds), hp)
    deterministic = loss - fit
    rng = np.random.default_rng(seed)

    mean_part = ds.x @ p.encoder @ p.decoder.T + c - ds.y
    std = t if p.ddv else np.exp(p.log_sigma)[None, :]
    draws = np.empty(n_draws)
    for j in range(n_draws):
        eps = rng.standard_normal(size=(ds.n_samples, hp.latent_dim)) * std
        resid = mean_part + eps @ p.decoder.T
        draws[j] = float(np.mean(np.sum(resid**2, axis=1))) / (2.0 * s)
    return deterministic + float(draws.mean()), float(draws.std(ddof=1) / np.sqrt(n_draws))


def _trainable_fields(p: ModelParams, hp: Hyperparams) -> list[str]:
    names = ["decoder", "encoder"]
    if hp.sigma_mode == "learnable" and not p.ddv:
        names.append("log_sigma")
    for name in ("enc_bias", "dec_bias", "var_slope", "var_offset"):
        if getattr(p, name) is not None:
            names.append(name)
    if p.log_decvar is not None:
        names.append("log_decvar")
    return names


def _pack(p: ModelParams, names: list[str]) -> np.ndarray:
    parts = []
    for name in names:
        value = getattr(p, name)
        parts.append(np.atleast_1d(np.asarray(value, dtype=np.float64)).ravel())
    return np.concatenate(parts)


def _unpack(p: ModelParams, names: list[str], flat: np.ndarray) -> None:
    offset = 0
    for name in names:
        value = getattr(p, name)
        if name == "log_decvar":
            p.log_decvar = float(flat[offset])
            offset += 1
        else:
            size = value.size
            value[...] = flat[offset : offset + size].reshape(value.shape)
            offset += size


def train(
    init: ModelParams | int,
    src: DataSource,
    hp: Hyperparams,
    cfg: TrainConfig = TrainConfig(),
    trace: bool = False,
) -> TrainResult:
    """Run the configured first-order optimizer until the gradient
    max-norm drops below ``cfg.grad_tol`` or the step budget runs out.

    ``init`` is either explicit parameters or a seed for
    :func:`init_params`. Deterministic for a fixed seed. Raises
    :class:`DivergenceError` if the loss leaves the float range.
    """
    m = _moments(src)
    params = init.copy() if isinstance(init, ModelParams) else init_params(
        m, hp, seed=init
    )
    names = _trainable_fields(params, hp)
    x = _pack(params, names)

    loss, grad = value_and_grad(params, m, hp)
    if not np.isfinite(loss):
        raise DivergenceError(0)
    loss_trace = [loss] if trace else None
    decvar_trace = (
        [params.decvar] if trace and params.log_decvar is not None else None
    )

    adam_m = np.zeros_like(x)
    adam_v = np.zeros_like(x)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = cfg.learning_rate
    gd_step = cfg.learning_rate

    converged = False
    grad_norm = np.inf
    steps = 0
    for step in range(1, cfg.max_steps + 1):
        flat_grad = _pack(grad, names)
        grad_norm = float(np.max(np.abs(flat_grad)))
        if grad_norm <= cfg.grad_tol:
            converged = True
            break
        if cfg.optimizer == "adam":
            adam_m = beta1 * adam_m + (1 - beta1) * flat_grad
            adam_v = beta2 * adam_v + (1 - beta2) * flat_grad**2
            m_hat = adam_m / (1 - beta1**step)
            v_hat = adam_v / (1 - beta2**step)
            x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
            _unpack(params, names, x)
            loss, grad = value_and_grad(params, m, hp)
        else:
            # halving-on-increase line search, mild regrowth on success;
            # the accepted trial's gradient drives the next step
            trial = min(gd_step * 2.0, cfg.learning_rate * 1e6)
            accepted = False
            for _ in range(80):
                candidate = x - trial * flat_grad
                _unpack(params, names, candidate)
                cand_loss, cand_grad = value_and_grad(params, m, hp)
                if np.isfinite(cand_loss) and cand_loss <= loss:
                    x, loss, grad = candidate, cand_loss, cand_grad
                    gd_step = trial
                    accepted = True
                    break
                trial *= 0.5
            if not accepted:
                # no further descent at float precision; report honestly
                _unpack(params, names, x)
                steps = step
                break
        steps = step
        if not np.isfinite(loss):
            raise DivergenceError(step)
        if trace:
            loss_trace.append(loss)
            if decvar_trace is not None:
                decvar_trace.append(params.decvar)

    return TrainResult(
        params=params,
        final_loss=loss,
        grad_norm=grad_norm,
        steps=steps,
        converged=converged,
        loss_trace=None if loss_trace is None else np.asarray(loss_trace),
        decvar_trace=None if decvar_trace is None else np.asarray(decvar_trace),
    )


def train_to_minimum(
    init: ModelParams | int, src: DataSource, hp: Hyperparams
) -> TrainResult:
    """The oracle's schedule: Adam with a step-down, then line-searched
    descent, with up to three more Adam/descent rounds while the gradient
    max-norm stays above 1e-6.

    The first phase's travel budget (lr times steps) must exceed the
    distance from the small random init to the optimum, which scales with
    the largest singular value; 1e-2 * 6000 covers everything the
    ``verify`` instance generator can produce with a wide margin.
    """
    adam = lambda lr, steps: TrainConfig("adam", lr, max_steps=steps, grad_tol=1e-9)
    descent = TrainConfig("gd", 0.05, max_steps=2500, grad_tol=1e-9)
    stage1 = train(init, src, hp, adam(1e-2, 6000))
    stage2 = train(stage1.params, src, hp, adam(5e-4, 4000))
    result = train(stage2.params, src, hp, descent)
    for _ in range(3):
        if result.grad_norm <= 1e-6:
            break
        refined = train(result.params, src, hp, adam(1e-4, 6000))
        result = train(refined.params, src, hp, descent)
    return result


def ddv_inequality_check(
    p: ModelParams, ds: Dataset, hp: Hyperparams
) -> tuple[float, float]:
    """Loss with a data-dependent encoder std vs. its flattened twin.

    The twin keeps the same per-mode mean variance but removes the data
    dependence (slope zero, offset raised to compensate); the original
    can never beat it. Returns (original, flattened).
    """
    if not p.ddv:
        raise ValueError("params carry no data-dependent variance")
    m = Moments.from_dataset(ds)
    t = _ddv_std_matrix(p, m)
    lhs = eval_loss(p, m, hp)
    flat = replace_ddv(p, np.zeros_like(p.var_slope), np.sqrt(np.mean(t**2, axis=0)))
    rhs = eval_loss(flat, m, hp)
    return lhs, rhs


def replace_ddv(p: ModelParams, slope: np.ndarray, offset: np.ndarray) -> ModelParams:
    out = p.copy()
    out.var_slope = np.asarray(slope, dtype=np.float64)
    out.var_offset = np.asarray(offset, dtype=np.float64)
    return out
