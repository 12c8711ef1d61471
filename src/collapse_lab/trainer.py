"""Gradient-descent oracle for the exact expected loss.

The loss is quadratic in the data, so the expectation over the training
set reduces to second moments and the expectation over the encoder noise
is integrated out analytically; gradients are exact and training is fully
deterministic. The tests validate that reduction by Monte Carlo.

Supported extensions beyond the core (decoder, encoder, per-mode stds):
encoder/decoder biases, a data-dependent encoder std ``|C x + f|`` (which
needs sample access for its log term), and a learnable decoder variance
(which adds the Gaussian partition term to the loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .closed_form import Hyperparams
from .data import Dataset
from .errors import DegenerateVariance, DivergenceError, ShapeError
from .spectrum import DataSpectrum


@dataclass(frozen=True)
class Moments:
    """Second-moment summary of a dataset, enough to evaluate the loss.

    ``samples_x`` holds the samples the data-dependent variance terms average a
    logarithm over: :meth:`from_dataset` keeps them, :meth:`from_spectrum` cannot.
    """

    a: np.ndarray = field(repr=False)       # E[x x^T], exactly symmetric
    cross: np.ndarray = field(repr=False)   # E[x y^T], built so that cross.T is contiguous
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
            cross=(ds.y.T @ ds.x / n).T,
            mean_x=ds.x.mean(axis=0),
            mean_y=ds.y.mean(axis=0),
            target_power=float(np.sum(ds.y**2) / n),
            dim_x=ds.dim_x,
            dim_y=ds.dim_y,
            samples_x=ds.x,
        )

    @classmethod
    def from_spectrum(cls, sp: DataSpectrum) -> "Moments":
        h = sp.basis * np.sqrt(sp.eigenvalues)
        return cls(
            a=h @ h.T,  # numpy forms h h^T with syrk, exactly symmetric
            cross=(sp.cross_moment() @ h.T).T,
            mean_x=np.zeros(sp.ambient_dim),
            mean_y=np.zeros(sp.dim_y),
            target_power=sp.target_power,
            dim_x=sp.ambient_dim,
            dim_y=sp.dim_y,
        )


@dataclass
class ModelParams:
    """All trainable quantities; optional parts default to absent.

    Stds are kept in log form so positivity is structural:
    ``sigma = exp(log_sigma)`` and, when present, the decoder variance is
    ``exp(log_decvar)``. When ``var_slope``/``var_offset`` are present the
    encoder std is the data-dependent ``|var_slope @ x + var_offset|``,
    ``log_sigma`` is inert and ``sigma`` is None. Biases come as a pair, as
    do the slope and offset; ``_check_shapes`` checks every part.
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
    def sigma(self) -> np.ndarray | None:
        return None if self.ddv else np.exp(self.log_sigma)

    @property
    def decvar(self) -> float | None:
        return None if self.log_decvar is None else float(np.exp(self.log_decvar))

    @property
    def ddv(self) -> bool:
        return self.var_slope is not None


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
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0 <= self.grad_tol < np.inf:
            raise ValueError("grad_tol must be finite and >= 0")
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


def _require_moments(m: Moments) -> None:
    if not isinstance(m, Moments):
        hint = "build them with Moments.from_dataset or Moments.from_spectrum"
        raise TypeError(f"the trainer takes Moments, not {type(m).__name__}: {hint}")


def init_params(
    m: Moments,
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
    _require_moments(m)
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


def _check_shapes(p: ModelParams, m: Moments, hp: Hyperparams) -> None:
    _require_moments(m)
    d1 = hp.latent_dim
    shapes = {
        "decoder": (m.dim_y, d1), "encoder": (m.dim_x, d1), "log_sigma": (d1,), "enc_bias": (d1,),
        "dec_bias": (m.dim_y,), "var_slope": (d1, m.dim_x), "var_offset": (d1,), "log_decvar": (),
    }
    for name, shape in shapes.items():
        value = getattr(p, name)
        if value is not None and np.shape(value) != shape:
            raise ShapeError(f"{name} {np.shape(value)} != {shape}")
    for pair in (("enc_bias", "dec_bias"), ("var_slope", "var_offset")):
        absent = [name for name in pair if getattr(p, name) is None]
        if len(absent) == 1:
            raise ShapeError(f"{absent[0]} is missing: {pair[0]} and {pair[1]} come as a pair")
    if p.ddv and m.samples_x is None:
        hint = "build the Moments with Moments.from_dataset"
        raise ShapeError(f"data-dependent variance needs sample access; {hint}")


def _value_and_grad(
    p: ModelParams, m: Moments, hp: Hyperparams, grad: dict | None = None
) -> float:
    """The loss-and-gradient kernel: returns the exact expected loss at ``p`` and, given
    the dict ``grad``, writes the gradient of each field it names into its view. The halves
    share the residual ``r = k a - cross^T``, ``k = decoder encoder^T`` (its transpose is
    ``a k^T - cross``, as ``a`` is exactly symmetric), and the prior's pull ``a encoder``.
    Products use ``ndarray.dot``, which dispatches faster than ``@`` on small matrices."""
    k = p.decoder.dot(p.encoder.T)
    r = k.dot(m.a) - m.cross.T
    col_sq = np.add.reduce(p.decoder**2, axis=0)
    recon = float(np.vdot(r - m.cross.T, k))  # <k a, k> - 2 <cross^T, k>
    b_e = p.enc_bias  # the biases come as a pair; without them each mean term is 0
    if b_e is not None:
        c = p.decoder.dot(b_e) + p.dec_bias
        w_mean = p.encoder.T.dot(m.mean_x)
        r_mean = k.dot(m.mean_x) + c - m.mean_y
        recon += float(c.dot(2.0 * r_mean - c))
    recon += m.target_power
    if p.ddv:
        t = m.samples_x.dot(p.var_slope.T) + p.var_offset
        if np.any(t == 0.0):
            raise DegenerateVariance("encoder std hit zero on a training sample")
        s2 = np.mean(t**2, axis=0)
    else:
        s2 = p.sigma**2
    s = p.decvar if p.log_decvar is not None else hp.decvar
    if s == 0.0:
        raise DegenerateVariance("decoder variance underflowed to zero")
    fit = (recon + float(s2.dot(col_sq))) / (2.0 * s)  # E||y - decode(z)||^2 / (2 s)
    prior = m.a.dot(p.encoder)
    eta2 = hp.eta_enc**2
    beta = hp.beta
    if p.ddv:
        kl_terms = s2 / eta2 - 1.0 - np.mean(np.log(t**2), axis=0) + np.log(eta2)
        kl = float(np.add.reduce(kl_terms))
    else:  # the sum of s2/eta2 - 1 - log(s2/eta2), with log s2 = 2 log sigma; the
        # builtin sum overflows to inf or nan, which train reports as divergence
        sum_s2, sum_log_sigma = sum(s2.tolist()), sum(p.log_sigma.tolist())
        kl = sum_s2 / eta2 - s2.size * (1.0 - math.log(eta2)) - 2.0 * sum_log_sigma
    mean_term = float(np.vdot(prior, p.encoder))
    if b_e is not None:
        mean_term = mean_term + 2.0 * float(b_e.dot(w_mean)) + float(b_e.dot(b_e))
    loss = fit + 0.5 * beta * (mean_term / eta2 + kl)  # fit + beta KL(q(z|x) || prior)
    if p.log_decvar is not None:
        loss += 0.5 * m.dim_y * math.log(s)
    if grad is None:
        return loss

    if p.ddv or "log_sigma" in grad:
        coef = col_sq / s + beta / eta2  # 2 d loss / d s2, less the KL's log term
    if p.ddv:
        n = m.samples_x.shape[0]
        grad["var_slope"][...] = coef[:, None] * (t.T.dot(m.samples_x) / n) - beta * (
            (1.0 / t).T.dot(m.samples_x) / n
        )
        grad["var_offset"][...] = coef * t.mean(axis=0) - beta * np.mean(1.0 / t, axis=0)
    elif "log_sigma" in grad:
        np.subtract(coef * s2, beta, out=grad["log_sigma"])
    if "log_decvar" in grad:
        grad["log_decvar"][...] = -fit + 0.5 * m.dim_y

    e_r_m = r.dot(p.encoder)
    e_r_d = r.T.dot(p.decoder)
    if b_e is not None:
        e_r_m = e_r_m + np.outer(r_mean, b_e) + np.outer(c, w_mean)
        e_r_d = e_r_d + np.outer(m.mean_x, p.decoder.T.dot(c))
        prior = prior + np.outer(m.mean_x, b_e)
        grad["enc_bias"][...] = p.decoder.T.dot(r_mean) / s + beta / eta2 * (w_mean + b_e)
        grad["dec_bias"][...] = r_mean / s
    np.divide(e_r_m + p.decoder * s2, s, out=grad["decoder"])
    np.add(e_r_d / s, beta / eta2 * prior, out=grad["encoder"])
    return loss


def _flat(p: ModelParams, hp: Hyperparams | None = None) -> tuple[np.ndarray, dict]:
    """``p``'s fields (given ``hp``, only those :func:`train` updates) copied into
    one flat float64 buffer, and a view into it per field (0-d for a scalar)."""
    fixed_sigma = hp is not None and (hp.sigma_mode != "learnable" or p.ddv)
    names = [
        f.name for f in fields(p)
        if getattr(p, f.name) is not None and not (f.name == "log_sigma" and fixed_sigma)
    ]
    buf = np.concatenate([np.ravel(getattr(p, name)) for name in names])
    views, offset = {}, 0
    for name in names:
        shape = np.shape(getattr(p, name))
        views[name] = buf[offset : offset + math.prod(shape)].reshape(shape)
        offset += math.prod(shape)
    return buf, views


def eval_loss(p: ModelParams, m: Moments, hp: Hyperparams) -> float:
    """Exact expected loss at ``p``, the noise expectation integrated out."""
    _check_shapes(p, m, hp)
    return _value_and_grad(p, m, hp)


def eval_grad(p: ModelParams, m: Moments, hp: Hyperparams) -> ModelParams:
    """Analytic gradient of :func:`eval_loss` at ``p``, with the same structure as ``p``."""
    _check_shapes(p, m, hp)
    flat, grad = _flat(p)
    flat[...] = 0.0  # the stds' slot stays zero under a data-dependent std
    _value_and_grad(p, m, hp, grad)
    if "log_decvar" in grad:
        grad["log_decvar"] = float(grad["log_decvar"])
    return ModelParams(**grad)


def train(
    init: ModelParams | int,
    m: Moments,
    hp: Hyperparams,
    cfg: TrainConfig = TrainConfig(),
    trace: bool = False,
) -> TrainResult:
    """Run the configured first-order optimizer until the gradient
    max-norm drops below ``cfg.grad_tol`` or the step budget runs out.

    ``init`` is either explicit parameters or a seed for
    :func:`init_params`. Deterministic for a fixed seed. Raises
    :class:`DivergenceError` if the loss leaves the float range. Trained
    fields are views into one flat buffer ``x``, updated in place; the
    result shares no memory with ``init``."""
    params = init if isinstance(init, ModelParams) else init_params(m, hp, seed=init)
    _check_shapes(params, m, hp)
    x, views = _flat(params, hp)
    # _flat copied the trained fields; the stds are copied in case they are not trained
    params = replace(params, **{"log_sigma": params.log_sigma.copy(), **views})
    (g, grad), (g_trial, grad_trial) = _flat(params, hp), _flat(params, hp)

    loss = _value_and_grad(params, m, hp, grad)
    if not math.isfinite(loss):
        raise DivergenceError(0)
    loss_trace = [loss] if trace else None
    decvar_trace = (
        [params.decvar] if trace and params.log_decvar is not None else None
    )

    adam_m, adam_v = np.zeros_like(x), np.zeros_like(x)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = cfg.learning_rate
    gd_step = cfg.learning_rate

    converged = False
    steps = 0
    # a step that overflows shows up as a non-finite loss, reported as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.max_steps + 1):
            grad_norm = float(np.maximum.reduce(np.abs(g)))
            if grad_norm <= cfg.grad_tol:
                converged = True
                break
            if cfg.optimizer == "adam":
                # moments and x in place; with c1 = 1 - beta1^t, c2 = 1 - beta2^t the step
                # lr (m/c1) / (sqrt(v/c2) + eps) is lr sqrt(c2)/c1 m / (sqrt(v) + eps sqrt(c2))
                adam_m += (1 - beta1) * (g - adam_m)
                adam_v += (1 - beta2) * (g * g - adam_v)
                rc2 = math.sqrt(1 - beta2**step)
                x -= lr * rc2 / (1 - beta1**step) * adam_m / (np.sqrt(adam_v) + eps * rc2)
                loss = _value_and_grad(params, m, hp, grad)
            else:
                # halving-on-increase line search from ``start``, mild regrowth
                # on success; the accepted trial's gradient drives the next step
                start = x.copy()
                trial = min(gd_step * 2.0, cfg.learning_rate * 1e6)
                accepted = False
                for _ in range(80):
                    np.subtract(start, trial * g, out=x)
                    try:
                        cand_loss = _value_and_grad(params, m, hp, grad_trial)
                    except DegenerateVariance:  # a variance of exactly 0: the loss is +inf
                        cand_loss = math.inf
                    if math.isfinite(cand_loss) and cand_loss <= loss:
                        loss = cand_loss
                        g, g_trial, grad, grad_trial = g_trial, g, grad_trial, grad
                        gd_step = trial
                        accepted = True
                        break
                    trial *= 0.5
                if not accepted:
                    # no further descent at float precision; report honestly
                    x[...] = start
                    steps = step
                    break
            steps = step
            if not math.isfinite(loss):
                raise DivergenceError(step)
            if trace:
                loss_trace.append(loss)
                if decvar_trace is not None:
                    decvar_trace.append(params.decvar)
    grad_norm = float(np.maximum.reduce(np.abs(g)))  # at the returned point, after any last step

    if params.log_decvar is not None:
        params.log_decvar = float(params.log_decvar)
    return TrainResult(
        params=params,
        final_loss=loss,
        grad_norm=grad_norm,
        steps=steps,
        converged=converged,
        loss_trace=None if loss_trace is None else np.asarray(loss_trace),
        decvar_trace=None if decvar_trace is None else np.asarray(decvar_trace),
    )


def train_to_minimum(init: ModelParams | int, m: Moments, hp: Hyperparams) -> TrainResult:
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
    stage1 = train(init, m, hp, adam(1e-2, 6000))
    stage2 = train(stage1.params, m, hp, adam(5e-4, 4000))
    result = train(stage2.params, m, hp, descent)
    for _ in range(3):
        if result.grad_norm <= 1e-6:
            break
        refined = train(result.params, m, hp, adam(1e-4, 6000))
        result = train(refined.params, m, hp, descent)
    return result
