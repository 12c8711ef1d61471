"""Exact global minima of the linear latent-variable objective.

The objective couples a decoder ``U``, an encoder ``W``, and per-mode
encoder stds ``sigma`` through

    (1/2 eta_dec^2) [ E||U W^T x - y||^2 + Tr(U diag(sigma^2) U^T)
                      + beta (eta_dec^2/eta_enc^2) Tr(W^T A W) ]
    + sum_i (beta/2) (sigma_i^2/eta_enc^2 - 1 - log(sigma_i^2/eta_enc^2)).

After whitening the inputs, the matrix part reduces to a ridge-regularized
factorization of the cross-moment whose optimum is a per-mode soft
threshold of the singular values; everything here evaluates those closed
forms. The gradient-descent oracle in :mod:`collapse_lab.trainer` verifies
them independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectrum import DataSpectrum

_MODES = ("fixed", "learnable")


@dataclass(frozen=True)
class Hyperparams:
    """Scalar knobs of the objective.

    ``sigma_mode`` controls whether the encoder stds are optimized or
    pinned at the prior value ``eta_enc``; ``decvar_mode`` controls
    whether the decoder variance ``eta_dec**2`` is treated as learnable.
    """

    beta: float
    latent_dim: int
    eta_enc: float = 1.0
    eta_dec: float = 1.0
    sigma_mode: str = "learnable"
    decvar_mode: str = "fixed"

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be > 0")
        if not (self.eta_enc > 0 and self.eta_dec > 0):
            raise ValueError("eta_enc and eta_dec must be > 0")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.sigma_mode not in _MODES or self.decvar_mode not in _MODES:
            raise ValueError(f"modes must be one of {_MODES}")

    @property
    def decvar(self) -> float:
        """Decoder variance eta_dec**2."""
        return self.eta_dec**2

    @property
    def ridge(self) -> float:
        """Coefficient beta * eta_dec^2 / eta_enc^2 on the encoder factor."""
        return self.beta * self.eta_dec**2 / self.eta_enc**2

    @property
    def pinned_sigma(self) -> np.ndarray | None:
        """Encoder stds held at the prior in fixed-sigma mode; None when
        they are learnable."""
        if self.sigma_mode == "learnable":
            return None
        return np.full(self.latent_dim, float(self.eta_enc))


def _sigma_vector(hp: Hyperparams, sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    if sigma.shape != (hp.latent_dim,):
        raise ValueError(f"sigma must have shape ({hp.latent_dim},)")
    if np.any(sigma <= 0):
        raise ValueError("sigma entries must be > 0")
    return sigma


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
        sigma=_sigma_vector(hp, sigma),
        ridge=hp.ridge,
        basis=sp.basis,
        eigenvalues=sp.eigenvalues,
    )


@dataclass(frozen=True)
class PerMode:
    """Elementwise closed form of the latent modes; see :func:`per_mode`."""

    alive: np.ndarray
    decoder: np.ndarray
    encoder: np.ndarray
    sigma: np.ndarray
    fit: np.ndarray
    kl: np.ndarray


def per_mode(zeta, beta: float, s: float, eta_enc: float, sigma=None) -> PerMode:
    """Optimum of each latent mode at decoder variance ``s``.

    Mode i survives exactly when its signal beats the prior's pull on the
    mean, ``zeta_i^2 > beta * s * (sigma_i / eta_enc)^2``, which reads
    ``zeta_i^2 > beta * s`` for the optimal stds (``sigma=None``) and for
    stds pinned at the prior. Optimal stds tighten to
    ``sqrt(beta s) eta_enc / zeta_i`` on survivors and keep the prior
    value elsewhere. Surviving magnitudes split the shrunk signal between
    decoder and encoder in inverse proportion; collapsed ones are zero.
    ``fit`` is the mode's least residual of the reduced factorization and
    ``kl`` its std-only KL term, both scaled by ``2 s``; their sum is
    :func:`sigma_objective` at the returned std. Broadcasts over every
    argument.
    """
    zeta = np.asarray(zeta, dtype=np.float64)
    # a mode survives at its optimal std exactly when it survives at the
    # prior std, which is also where a collapsed mode's optimal std sits
    tested = eta_enc if sigma is None else np.asarray(sigma, dtype=np.float64)
    alive = zeta**2 > beta * s * (tested / eta_enc) ** 2
    root = np.sqrt(beta) * np.sqrt(s)
    if sigma is None:
        sigma = np.where(alive, root * eta_enc / np.where(alive, zeta, 1.0), float(eta_enc))
    else:
        sigma = tested
    # rounding can leave a survivor a hair below zero
    gap = np.maximum(0.0, np.where(alive, zeta - root * sigma / eta_enc, 0.0))
    ratio = (sigma / eta_enc) ** 2
    return PerMode(
        alive=alive,
        decoder=np.sqrt(root / (sigma * eta_enc) * gap),
        encoder=np.sqrt(sigma * eta_enc / root * gap),
        sigma=sigma,
        fit=zeta**2 - gap**2,
        kl=beta * s * (ratio - 1.0 - np.log(ratio)),
    )


def _modes(sp: DataSpectrum, hp: Hyperparams, sigma=None) -> PerMode:
    return per_mode(sp.zeta_padded(hp.latent_dim), hp.beta, hp.decvar, hp.eta_enc, sigma)


def _tail_power(sp: DataSpectrum, d1: int) -> float:
    # signal of the modes the latent space has no room for
    return float(np.sum(sp.singular_values[d1:] ** 2))


def loss_at_optimum(sp: DataSpectrum, modes: PerMode, s):
    """Loss at the per-mode optimum ``modes``, one row per decoder variance
    in ``s``, without the partition term of a learnable variance and
    without :func:`loss_offset`."""
    tail = _tail_power(sp, modes.fit.shape[-1])
    return (np.sum(modes.fit + modes.kl, axis=-1) + tail) / (2.0 * s)


def optimal_factors(
    sp: DataSpectrum, hp: Hyperparams, sigma
) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode optimal singular values (decoder, encoder) for fixed sigma.

    Mode i survives only when zeta_i exceeds sqrt(beta) sigma_i
    eta_dec / eta_enc; the surviving magnitudes split the shrunk signal
    between the two factors in inverse proportion.
    """
    modes = _modes(sp, hp, _sigma_vector(hp, sigma))
    return modes.decoder, modes.encoder


def prior_sigma_factors(sp: DataSpectrum, hp: Hyperparams) -> tuple[np.ndarray, np.ndarray]:
    """Optimal factors when every encoder std is pinned at eta_enc."""
    sigma = np.full(hp.latent_dim, hp.eta_enc)
    return optimal_factors(sp, hp, sigma)


def optimal_sigma(sp: DataSpectrum, hp: Hyperparams) -> np.ndarray:
    """Per-mode optimal encoder stds.

    A mode whose signal beats the threshold (beta eta_dec^2 < zeta_i^2)
    tightens its posterior to sqrt(beta) eta_dec eta_enc / zeta_i; all
    others sit exactly at the prior std. Modes beyond the data rank have
    zero signal and therefore also return the prior value, which is the
    stationary point of their remaining KL term.
    """
    return _modes(sp, hp).sigma


def sigma_objective(hp: Hyperparams, zeta_i: float, sigma) -> np.ndarray | float:
    """Per-mode objective as a function of a single encoder std.

    This is what :func:`optimal_sigma` minimizes in closed form; tests
    minimize it numerically as an independent check. Vectorized over
    ``sigma``.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be > 0")
    modes = per_mode(zeta_i, hp.beta, hp.decvar, hp.eta_enc, sigma)
    out = modes.fit + modes.kl
    return float(out) if out.ndim == 0 else out


def min_factorization_value(sp: DataSpectrum, hp: Hyperparams, sigma) -> float:
    """Minimum of the reduced factorization objective at fixed sigma."""
    fit = _modes(sp, hp, _sigma_vector(hp, sigma)).fit
    return float(np.sum(fit)) + _tail_power(sp, hp.latent_dim)


def min_loss_value(sp: DataSpectrum, hp: Hyperparams) -> float:
    """Minimal loss over decoder, encoder, and learnable sigma.

    Valid for a fixed decoder variance. Excludes the data-dependent
    offset :func:`loss_offset`, which vanishes whenever the target is an
    exact linear function of the input.
    """
    return float(loss_at_optimum(sp, _modes(sp, hp), hp.decvar))


def loss_offset(sp: DataSpectrum, s):
    """Target power invisible to any linear predictor, over ``2 s`` for
    decoder variance ``s``; broadcasts over ``s``.

    Adding this to :func:`min_loss_value` puts the closed form on the
    same scale as the trainer's loss.
    """
    return (sp.target_power - float(np.sum(sp.singular_values**2))) / (2.0 * s)


@dataclass(frozen=True)
class GlobalMinimum:
    """Closed-form minimizer and its predicted loss.

    ``decoder_singvals`` and ``encoder_singvals`` are the per-mode
    magnitudes of the two factors; their products are the soft-thresholded
    singular values of the learned map. ``collapse_flags[i]`` is True when
    mode i carries no signal at the optimum.
    """

    decoder_singvals: np.ndarray
    encoder_singvals: np.ndarray
    sigma: np.ndarray
    decoder: np.ndarray = field(repr=False)
    encoder: np.ndarray = field(repr=False)
    predicted_loss: float
    collapse_flags: np.ndarray

    def to_json_dict(self, include_matrices: bool = True) -> dict:
        out = {
            "decoder_singvals": self.decoder_singvals.tolist(),
            "encoder_singvals": self.encoder_singvals.tolist(),
            "sigma": self.sigma.tolist(),
            "collapse_flags": [bool(b) for b in self.collapse_flags],
            "predicted_loss": self.predicted_loss,
        }
        if include_matrices:
            out["decoder"] = self.decoder.tolist()
            out["encoder"] = self.encoder.tolist()
        return out


def random_rotation(d: int, seed: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix (QR of a Gaussian, signs fixed)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _rect_diag(rows: int, cols: int, values: np.ndarray) -> np.ndarray:
    out = np.zeros((rows, cols))
    k = min(rows, cols, values.shape[0])
    out[np.arange(k), np.arange(k)] = values[:k]
    return out


def random_signed_permutation(d: int, seed: int) -> np.ndarray:
    """Random orthogonal matrix that permutes and flips coordinates."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d)
    signs = rng.choice([-1.0, 1.0], size=d)
    out = np.zeros((d, d))
    out[perm, np.arange(d)] = signs
    return out


def global_minimum(
    sp: DataSpectrum, hp: Hyperparams, rotation: np.ndarray | None = None
) -> GlobalMinimum:
    """Assemble the full closed-form global minimum.

    ``decoder_singvals`` and ``encoder_singvals`` are the canonical
    per-mode magnitudes; ``decoder``/``encoder``/``sigma`` describe one
    concrete parameter point, whose latent columns are mixed by
    ``rotation`` (identity by default). The loss is exactly invariant
    under every orthogonal ``rotation`` when the optimal stds are
    isotropic (fixed-sigma mode, or complete collapse); with distinct
    learned stds the diagonal-covariance constraint breaks continuous
    rotations and only signed permutations (which carry ``sigma`` along)
    keep the point optimal. With a rank-deficient input second moment the
    encoder is pinned only on the input's row space; the
    minimum-Frobenius-norm representative is returned.
    """
    if hp.decvar_mode != "fixed":
        raise ValueError(
            "global_minimum needs a fixed decoder variance; resolve the "
            "learnable variance first and pass it via eta_dec"
        )
    d1, s = hp.latent_dim, hp.decvar
    modes = _modes(sp, hp, hp.pinned_sigma)
    sigma = modes.sigma

    if rotation is None:
        rotation = np.eye(d1)
    else:
        rotation = np.asarray(rotation, dtype=np.float64)
        if rotation.shape != (d1, d1):
            raise ValueError(f"rotation must be ({d1}, {d1})")
        if np.max(np.abs(rotation.T @ rotation - np.eye(d1))) > 1e-8:
            raise ValueError("rotation is not orthogonal")
        # per-column variance after mixing; exact for signed permutations
        sigma = np.sqrt(rotation.T**2 @ sigma**2)

    u = sp.left_vectors @ _rect_diag(sp.dim_y, d1, modes.decoder) @ rotation
    v = sp.right_vectors @ _rect_diag(sp.rank, d1, modes.encoder) @ rotation
    w = (sp.basis / np.sqrt(sp.eigenvalues)) @ v

    return GlobalMinimum(
        decoder_singvals=modes.decoder,
        encoder_singvals=modes.encoder,
        sigma=sigma,
        decoder=u,
        encoder=w,
        predicted_loss=float(loss_at_optimum(sp, modes, s) + loss_offset(sp, s)),
        collapse_flags=~modes.alive,
    )
