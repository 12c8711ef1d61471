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
from operator import attrgetter

import numpy as np

from .closed_form import Hyperparams
from .data import Dataset
from .errors import DegenerateVariance, DivergenceError
from .spectrum import DataSpectrum


@dataclass(frozen=True)
class Moments:
    """Second-moment summary of a dataset, enough to evaluate the loss.

    ``samples_x`` holds the samples the data-dependent variance terms average a
    logarithm over: :meth:`from_dataset` keeps them, :meth:`from_spectrum` cannot.
    A part whose shape disagrees with ``a``'s, or an ``a`` that is not exactly
    symmetric, is refused here with :class:`ValueError`.
    """

    a: np.ndarray = field(repr=False)       # E[x x^T], exactly symmetric
    cross: np.ndarray = field(repr=False)   # E[x y^T], built so that cross.T is contiguous
    mean_x: np.ndarray = field(repr=False)
    mean_y: np.ndarray = field(repr=False)
    target_power: float
    dim_x: int = field(init=False)
    dim_y: int = field(init=False)
    samples_x: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        # the kernel reads a k^T - cross as the transpose of k a - cross^T
        if np.ndim(self.a) != 2 or not np.array_equal(self.a, np.transpose(self.a)):
            raise ValueError(f"a {np.shape(self.a)} is not square and exactly symmetric")
        dim_x = len(self.a)
        if np.ndim(self.cross) != 2 or len(self.cross) != dim_x:
            raise ValueError(f"cross {np.shape(self.cross)} does not have dim_x = {dim_x} rows")
        object.__setattr__(self, "dim_x", dim_x)
        object.__setattr__(self, "dim_y", np.shape(self.cross)[1])
        for name, shape in (("mean_x", (dim_x,)), ("mean_y", (self.dim_y,))):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} {np.shape(getattr(self, name))} != {shape}")
        if self.samples_x is not None and np.shape(self.samples_x)[1:] != (dim_x,):
            raise ValueError(
                f"samples_x {np.shape(self.samples_x)} does not have dim_x = {dim_x} columns"
            )

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "Moments":
        n = ds.n_samples
        return cls(
            a=ds.x.T @ ds.x / n,
            cross=(ds.y.T @ ds.x / n).T,
            mean_x=ds.x.mean(axis=0),
            mean_y=ds.y.mean(axis=0),
            target_power=float(np.sum(ds.y**2) / n),
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


_NAMES = tuple(f.name for f in fields(ModelParams))
_parts = attrgetter(*_NAMES)  # a ModelParams' fields, in order


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
            raise ValueError("learning_rate (--lr) must be finite and > 0")
        if not 0 <= self.grad_tol < np.inf:
            raise ValueError("grad_tol (--grad-tol) must be finite and >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps (--max-steps) must be >= 1")


@dataclass
class TrainResult:
    """What :func:`train` returns; a trace holds the start's value and each step's, or None."""
    params: ModelParams
    final_loss: float
    grad_norm: float
    steps: int
    stop_reason: str  # "grad_tol", "max_steps" or "line_search_stall"
    loss_trace: np.ndarray | None = None
    decvar_trace: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "grad_tol"


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
            raise ValueError(f"{name} {np.shape(value)} != {shape}")
    for pair in (("enc_bias", "dec_bias"), ("var_slope", "var_offset")):
        absent = [name for name in pair if getattr(p, name) is None]
        if len(absent) == 1:
            raise ValueError(f"{absent[0]} is missing: {pair[0]} and {pair[1]} come as a pair")
    if (p.log_decvar is not None) != (hp.decvar_mode == "learnable"):
        raise ValueError(f"log_decvar is {p.log_decvar}, but decvar_mode is {hp.decvar_mode!r}")
    if p.ddv and m.samples_x is None:
        hint = "build the Moments with Moments.from_dataset"
        raise ValueError(f"data-dependent variance needs sample access; {hint}")


def _kernel(p: ModelParams, m: Moments, hp: Hyperparams, grad: tuple | None = None):
    """Binds the loss-and-gradient kernel to ``p``'s arrays, ``m``, ``hp`` and ``grad``, a flat
    gradient buffer and its per-field views as :func:`_flat` lays them out, read once, and
    returns an evaluator. Each call works at the values ``p``'s arrays hold then. It returns
    the exact expected loss and, given ``grad``, unless the loss exceeds the optional ``bound``,
    writes the gradient of each field it names into its view. With ``value`` false it writes
    only the gradient and returns None, skipping the KL, the mean term and, unless a learnable
    decoder variance reads it, the fit. The halves share the residual ``r = k a - cross^T``,
    ``k = decoder encoder^T`` (its transpose is ``a k^T - cross``, as ``a`` is exactly
    symmetric), and the prior's pull ``a encoder``. The workspace puts the numerators of the
    decoder's and the encoder's gradients, the first two trained fields, side by side, ``r
    encoder`` written into the decoder's, and, when the stds are trained here (learnable, not
    data-dependent), the decoder's squared column norms ``col_sq`` after them, for one division into
    the head of the flat buffer, where the stds' gradient follows the encoder's; a loss-only
    bind makes none of it. The ufuncs and the fixed buffers' methods are bound once; products
    use ``ndarray.dot`` and scalar operands are 0-d arrays, which dispatch fastest."""
    # p's fields in ModelParams' order, then their gradient views (None where absent)
    dec, enc, log_sigma, b_e, b_d, slope, offset, log_s = _parts(p)
    flat, views = grad or (None, {})
    g_dec, g_enc, g_sigma, g_be, g_bd, g_slope, g_offset, g_s = map(views.get, _NAMES)
    a, cross_t, mean_x, mean_y, xs, enc_t = m.a, m.cross.T, m.mean_x, m.mean_y, m.samples_x, enc.T
    ddv, beta, eta2, s_fixed, power = p.ddv, hp.beta, hp.eta_enc**2, hp.decvar, m.target_power
    pull, kl_const, half_dim_y = beta / eta2, log_sigma.size * (1.0 - math.log(eta2)), 0.5 * m.dim_y
    # the array operands; s_0 holds the decoder variance, rewritten per call when learnable
    pull_0, beta_0, s_0 = np.array(pull), np.array(beta), np.array(s_fixed)
    add, subtract, multiply, divide, square = np.add, np.subtract, np.multiply, np.divide, np.square
    add_reduce, vdot, outer, exp = np.add.reduce, np.vdot, np.outer, np.exp
    # the workspace, written with positional ``out``
    out_k, out_ka, out_r = np.empty((3,) + cross_t.shape)
    out_sq, out_prior = np.empty(dec.shape), np.empty(enc.shape)
    out_col, out_s2, out_coef = np.empty((3, log_sigma.size))
    dec_dot, k_dot, a_dot, r_dot, rt_dot = dec.dot, out_k.dot, a.dot, out_r.dot, out_r.T.dot
    fold = g_sigma is not None and not ddv  # col_sq / s starts the stds' gradient
    if grad is not None:  # the numerators, side by side in the flat buffer's order
        head = dec.size + enc.size
        num = np.empty(head + log_sigma.size * fold)
        num_dec = num[: dec.size].reshape(dec.shape)
        num_enc = num[dec.size : head].reshape(enc.shape)
        if fold:
            out_col = num[head:]
        g_block = flat[: num.size]

    def evaluate(bound: float = math.inf, value: bool = True) -> float | None:
        fits = value or g_s is not None  # a learnable decoder variance's gradient reads the fit
        k = dec_dot(enc_t, out_k)
        r = subtract(k_dot(a, out_ka), cross_t, out_r)
        col_sq = add_reduce(square(dec, out_sq), 0, None, out_col)
        if fits:  # k a is spent, so its row takes r - cross^T
            recon = float(vdot(subtract(r, cross_t, out_ka), k))  # <k a, k> - 2 <cross^T, k>
        if b_e is not None:  # the biases come as a pair; without them each mean term is 0
            c = dec_dot(b_e) + b_d
            w_mean = enc_t.dot(mean_x)
            r_mean = k_dot(mean_x) + c - mean_y
            if fits:
                recon += float(c.dot(2.0 * r_mean - c))
        if ddv:
            t = xs.dot(slope.T) + offset
            if np.any(t == 0.0):
                raise DegenerateVariance("encoder std hit zero on a training sample")
            s2 = np.mean(t**2, axis=0)
        else:
            s2 = square(exp(log_sigma, out_s2), out_s2)
        s = float(exp(log_s, s_0)) if log_s is not None else s_fixed
        if s == 0.0:
            raise DegenerateVariance("decoder variance underflowed to zero")
        if fits:  # E||y - decode(z)||^2 / (2 s)
            fit = (recon + power + float(s2.dot(col_sq))) / (2.0 * s)
        prior = a_dot(enc, out_prior)
        loss = None
        if value:
            if ddv:
                kl_terms = s2 / eta2 - 1.0 - np.mean(np.log(t**2), axis=0) + np.log(eta2)
                kl = float(add_reduce(kl_terms))
            else:  # the sum of s2/eta2 - 1 - log(s2/eta2), with log s2 = 2 log sigma; the
                # builtin sum overflows to inf or nan, which train reports as divergence
                sum_s2, sum_log_sigma = sum(s2.tolist()), sum(log_sigma.tolist())
                kl = sum_s2 / eta2 - kl_const - 2.0 * sum_log_sigma
            mean_term = float(vdot(prior, enc))
            if b_e is not None:
                mean_term = mean_term + 2.0 * float(b_e.dot(w_mean)) + float(b_e.dot(b_e))
            loss = fit + 0.5 * beta * (mean_term / eta2 + kl)  # fit + beta KL(q(z|x) || prior)
            if log_s is not None:
                loss += half_dim_y * math.log(s)
            if grad is None or loss > bound:
                return loss

        if ddv:  # coef is 2 d loss / d s2, less the KL's log term
            coef = add(divide(col_sq, s_0, out_coef), pull_0, out_coef)
            n = xs.shape[0]
            g_slope[...] = coef[:, None] * (t.T.dot(xs) / n) - beta * ((1.0 / t).T.dot(xs) / n)
            g_offset[...] = coef * t.mean(axis=0) - beta * np.mean(1.0 / t, axis=0)
        if g_s is not None:
            g_s[...] = -fit + half_dim_y

        e_r_m = r_dot(enc, num_dec)
        rt_dot(dec, num_enc)  # r^T decoder
        if b_e is not None:
            e_r_m = e_r_m + outer(r_mean, b_e) + outer(c, w_mean)
            add(num_enc, outer(mean_x, dec.T.dot(c)), num_enc)
            prior = prior + outer(mean_x, b_e)
            g_be[...] = dec.T.dot(r_mean) / s + pull * (w_mean + b_e)
            g_bd[...] = r_mean / s
        # the squared decoder and the prior are spent, so they take the last temporaries
        add(e_r_m, multiply(dec, s2, out_sq), num_dec)
        # the decoder's gradient, the encoder's less its pull and, folded, the stds' col_sq / s
        divide(num, s_0, g_block)
        add(g_enc, multiply(pull_0, prior, prior), g_enc)
        if fold:  # (col_sq / s + pull) s2 - beta, as ddv's coef s2 - beta
            subtract(multiply(add(g_sigma, pull_0, g_sigma), s2, g_sigma), beta_0, g_sigma)
        return loss

    return evaluate


def _flat(p: ModelParams, hp: Hyperparams | None = None, buf=None) -> tuple[np.ndarray, dict]:
    """``buf`` and a view into it per set field of ``p`` (given ``hp``, only those
    :func:`train` updates), laid out in ``ModelParams``' order, 0-d for a scalar.
    By default ``buf`` is a new float64 copy of those fields."""
    fixed_sigma = hp is not None and (hp.sigma_mode != "learnable" or p.ddv)
    parts = {
        name: value for name, value in zip(_NAMES, _parts(p))
        if value is not None and not (name == "log_sigma" and fixed_sigma)
    }
    if buf is None:
        buf = np.concatenate([np.ravel(value) for value in parts.values()], dtype=np.float64)
    views, offset = {}, 0
    for name, value in parts.items():
        views[name] = buf[offset : offset + np.size(value)].reshape(np.shape(value))
        offset += np.size(value)
    return buf, views


def eval_loss(p: ModelParams, m: Moments, hp: Hyperparams) -> float:
    """Exact expected loss at ``p``, the noise expectation integrated out."""
    _check_shapes(p, m, hp)
    return _kernel(p, m, hp)()


def eval_grad(p: ModelParams, m: Moments, hp: Hyperparams) -> ModelParams:
    """Analytic gradient of :func:`eval_loss` at ``p``, with the same structure as ``p``."""
    _check_shapes(p, m, hp)
    flat, grad = _flat(p)
    flat[...] = 0.0  # the stds' slot stays zero under a data-dependent std
    _kernel(p, m, hp, (flat, grad))()
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
    :func:`init_params`. Deterministic for a fixed seed. Adam reads only the
    gradient, so its steps skip the loss, taken only at the start, at the
    returned point and, when traced, after each step. Raises
    :class:`DivergenceError` if a loss it takes, or an Adam step's gradient
    or its square, leaves the float range. Trained fields are views into one
    flat buffer ``x``, updated in place; the result shares no memory with
    ``init``."""
    params = init if isinstance(init, ModelParams) else init_params(m, hp, seed=init)
    _check_shapes(params, m, hp)
    x, views = _flat(params, hp)
    # _flat copied the trained fields; the stds are copied in case they are not trained
    params = replace(params, **{"log_sigma": params.log_sigma.copy(), **views})
    # row 0 is the gradient g, written through its per-field views; row 1 takes g * g
    g, g2 = g_g2 = np.zeros((2, x.size))
    evaluate = _kernel(params, m, hp, _flat(params, hp, g))

    loss = evaluate()
    if not math.isfinite(loss):
        raise DivergenceError(0)
    loss_trace = [loss] if trace else None
    decvar_trace = (
        [params.decvar] if trace and params.log_decvar is not None else None
    )

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    # Adam's moments m and v stacked as rows, both stepped by one row of decays each
    adam_m, adam_v = adam = np.zeros((2, x.size))
    decay = np.array([[1 - beta1], [1 - beta2]]).repeat(x.size, axis=1)
    update, denom = diff = np.empty((2, x.size))  # scratch, free once the moments are stepped
    start, g0, trial_g0 = np.empty((3, x.size))  # GD's start point, its gradient, trial * g0
    # the per-step scalars as 0-d operands, which dispatch faster than floats
    eps_0, rate_0, trial_0 = np.empty(()), np.empty(()), np.empty(())
    lr = cfg.learning_rate
    gd_step = cfg.learning_rate
    tol2, is_adam = cfg.grad_tol * cfg.grad_tol, cfg.optimizer == "adam"
    argmax, item = g2.argmax, g2.item
    add, subtract, multiply, divide, sqrt = np.add, np.subtract, np.multiply, np.divide, np.sqrt

    stop_reason = "max_steps"
    steps = 0
    # a step that overflows shows up as a non-finite loss or, under Adam, a non-finite g * g
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.max_steps + 1):
            # max g^2 <= tol^2 wherever max |g| <= tol, as rounding is monotone, so this
            # cheaper test (argmax dispatches faster than a ufunc reduction; a NaN fails
            # both) skips the exact one only where that cannot pass; item gives a float
            multiply(g, g, g2)
            top = item(argmax())
            if top <= tol2 and np.maximum.reduce(np.abs(g)) <= cfg.grad_tol:
                stop_reason = "grad_tol"
                break
            steps = step
            if is_adam:
                if not math.isfinite(top):  # a NaN or infinity in g, or a square that overflowed
                    raise DivergenceError(step - 1, "squared gradient left the float range")
                # moments and x in place; with c1 = 1 - beta1^t, c2 = 1 - beta2^t the step
                # lr (m/c1) / (sqrt(v/c2) + eps) is lr sqrt(c2)/c1 m / (sqrt(v) + eps sqrt(c2))
                subtract(g_g2, adam, diff)
                multiply(diff, decay, diff)
                add(adam, diff, adam)
                rc2 = math.sqrt(1 - beta2**step)
                eps_0[()], rate_0[()] = eps * rc2, lr * rc2 / (1 - beta1**step)
                add(sqrt(adam_v, denom), eps_0, denom)
                divide(multiply(adam_m, rate_0, update), denom, update)
                subtract(x, update, x)
                loss = evaluate(math.inf, trace)  # None unless traced
            else:
                # halving-on-increase line search from ``start`` along the start gradient
                # ``g0``, mild regrowth on success; a trial that does not descend skips its
                # gradient, any other writes it into g
                start[...], g0[...] = x, g
                trial = min(gd_step * 2.0, cfg.learning_rate * 1e6)
                for _ in range(80):
                    trial_0[()] = trial
                    subtract(start, multiply(trial_0, g0, trial_g0), x)
                    try:
                        cand_loss = evaluate(loss)
                    except DegenerateVariance:  # a variance of exactly 0: the loss is +inf
                        cand_loss = math.inf
                    if math.isfinite(cand_loss) and cand_loss <= loss:
                        loss = cand_loss
                        gd_step = trial
                        break
                    trial *= 0.5
                else:  # no further descent at float precision; report honestly
                    x[...], g[...] = start, g0
                    stop_reason = "line_search_stall"
                    break
            if trace:  # a traced Adam step's loss may be non-finite; GD accepts only finite ones
                if not math.isfinite(loss):
                    raise DivergenceError(step)
                loss_trace.append(loss)
                if decvar_trace is not None:
                    decvar_trace.append(params.decvar)
        if loss is None:  # an untraced Adam step took none; g stays the gradient at x
            loss = evaluate(-math.inf)
    if not math.isfinite(loss):
        raise DivergenceError(steps)
    grad_norm = float(np.maximum.reduce(np.abs(g)))  # at the returned point, after any last step

    if params.log_decvar is not None:
        params.log_decvar = float(params.log_decvar)
    return TrainResult(
        params=params,
        final_loss=loss,
        grad_norm=grad_norm,
        steps=steps,
        stop_reason=stop_reason,
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

    The result is the last stage's: its ``steps`` and ``stop_reason`` say
    nothing of the stages before it.
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
