"""Spectral summary of a dataset: input second moment, whitened
cross-moment, and the singular values that drive every closed form.

Conventions: eigenvalues and singular values are stored non-increasing;
values below ``DEFAULT_TOL`` (1e-10) times the largest are clamped to
exactly zero; the sign of each left singular vector is fixed by making
its largest-magnitude entry positive (the matching right vector is
flipped with it), so repeated runs produce identical factors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class DataSpectrum:
    """Eigen/SVD data of the empirical moments.

    Sizes, ``effective_rank`` and ``tol`` are computed from the arrays, not
    passed in, and an array whose shape disagrees with the sizes is refused
    with a ValueError naming it. ``verify`` and ``sweep --train`` train on
    ``eigenvalues`` set to ones: whitened inputs, an exact change of variables.

    Attributes
    ----------
    ambient_dim : int
        Input dimension of the raw data, ``basis.shape[0]``.
    rank : int
        Number of retained (positive) eigenvalues of the input second
        moment, ``eigenvalues.size``.
    dim_y : int
        Target dimension, ``left_vectors.shape[0]``.
    tol : float
        Relative cutoff used for both clamps, always ``DEFAULT_TOL``.
    eigenvalues : (rank,) ndarray
        Positive eigenvalues, non-increasing.
    singular_values : (min(rank, dim_y),) ndarray
        Non-negative, non-increasing; sub-tolerance values clamped to 0.
    effective_rank : int
        Count of strictly positive singular values.
    target_power : float
        Mean squared norm of the target, used to reconcile losses that
        include the part of the target no linear map can explain.
    basis : (ambient_dim, rank) ndarray
        Orthonormal eigenvectors of the input second moment.
    left_vectors : (dim_y, dim_y) ndarray
    right_vectors : (rank, rank) ndarray
        Orthogonal SVD factors of the whitened cross-moment.
    """

    ambient_dim: int = field(init=False)
    rank: int = field(init=False)
    dim_y: int = field(init=False)
    tol: float = field(init=False)
    eigenvalues: np.ndarray = field(repr=False)
    singular_values: np.ndarray
    effective_rank: int = field(init=False)
    target_power: float
    basis: np.ndarray = field(repr=False)
    left_vectors: np.ndarray = field(repr=False)
    right_vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        derived = dict(ambient_dim=self.basis.shape[0], rank=self.eigenvalues.size,
                       dim_y=self.left_vectors.shape[0], tol=DEFAULT_TOL,
                       effective_rank=int(np.count_nonzero(self.singular_values)))
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        shapes = dict(eigenvalues=(self.rank,), singular_values=(min(self.rank, self.dim_y),),
                      basis=(self.ambient_dim, self.rank), left_vectors=(self.dim_y, self.dim_y),
                      right_vectors=(self.rank, self.rank))
        for name, shape in shapes.items():
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} has shape {np.shape(getattr(self, name))}, not {shape}")

    @property
    def n_modes(self) -> int:
        """min(rank, dim_y): length of the singular value vector."""
        return self.singular_values.shape[0]

    def signal_modes(self, d1: int) -> int:
        """Count of strictly positive singular values among the first ``d1``."""
        return int(np.count_nonzero(self.singular_values[:d1]))

    def cross_moment(self) -> np.ndarray:
        """Reassemble the whitened cross-moment from its SVD factors."""
        rect = rect_diag(self.singular_values, (self.dim_y, self.rank))
        return self.left_vectors @ rect @ self.right_vectors.T

    def zeta_padded(self, d1: int) -> np.ndarray:
        """The first ``d1`` singular values, extended with zeros up to length ``d1``."""
        return padded(self.singular_values, d1)

    @classmethod
    def from_singular_values(cls, zeta, dim_y: int) -> "DataSpectrum":
        """Spectrum with prescribed singular values and identity factors.

        Stands in for a dataset whose whitened cross-moment is exactly
        ``diag(zeta)``; useful for analyzing a published or constructed
        spectrum without the underlying data.
        """
        zeta = np.asarray(zeta, dtype=np.float64).ravel()
        if zeta.size == 0:
            raise ValueError("zeta (--zeta) needs at least one value")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(zeta * zeta)):
                raise ValueError("zeta (--zeta) must have finite squares")
        if np.any(zeta < 0) or np.any(np.diff(zeta) > 0):
            raise ValueError("zeta (--zeta) must be non-negative and non-increasing")
        if dim_y < zeta.size:
            raise ValueError(f"dim_y (--d2) must be >= len(zeta) = {zeta.size}, got {dim_y}")
        d0 = zeta.size
        zeta = _clamp_zeros(zeta)
        return cls(
            basis=np.eye(d0),
            eigenvalues=np.ones(d0),
            left_vectors=np.eye(dim_y),
            right_vectors=np.eye(d0),
            singular_values=zeta,
            target_power=float(np.sum(zeta**2)),
        )


def padded(values, size: int) -> np.ndarray:
    """A new vector of length ``size``: ``values`` cut there or extended with zeros."""
    out = np.zeros(size)
    out[: min(size, len(values))] = values[:size]
    return out


def rect_diag(values, shape: tuple[int, int]) -> np.ndarray:
    """A zero matrix of ``shape`` with ``values``, :func:`padded` to fit, on its diagonal."""
    out = np.zeros(shape)
    np.fill_diagonal(out, padded(values, min(shape)))
    return out


def _clamp_zeros(zeta: np.ndarray) -> np.ndarray:
    zeta = np.clip(zeta, 0.0, None)
    zeta[zeta <= DEFAULT_TOL * zeta.max(initial=0.0)] = 0.0
    zeta[zeta * zeta == 0.0] = 0.0  # squares drive the theory; kill underflow
    return zeta


def _fix_signs(f: np.ndarray, g: np.ndarray, paired: int) -> tuple[np.ndarray, np.ndarray]:
    # Largest-magnitude entry of each column made positive; the first
    # ``paired`` right vectors take their left vectors' signs instead.
    top = lambda a: a[np.argmax(np.abs(a), axis=0), np.arange(a.shape[1])]
    f_sign, g_sign = np.where(top(f) >= 0, 1.0, -1.0), np.where(top(g) >= 0, 1.0, -1.0)
    g_sign[:paired] = f_sign[:paired]
    return f * f_sign, g * g_sign


def compute_spectrum(ds: Dataset) -> DataSpectrum:
    """Eigendecompose the input second moment and SVD the whitened
    cross-moment.

    Warns when the dataset is not centered: uncentered moments are still
    processed as-is, but they answer a different question than the
    centered (equivalently, learnable-bias) problem. Beyond ``ds`` it holds one
    sample-sized temporary at a time: the squared targets, then the whitened inputs.
    """
    if not ds.centered:
        warnings.warn(
            "dataset is not centered; spectrum uses raw second moments",
            stacklevel=2,
        )
    n = ds.n_samples
    a = ds.x.T @ ds.x / n
    eigenvalues, vectors = np.linalg.eigh(a)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    top = float(eigenvalues[0]) if eigenvalues.size else 0.0
    if not top > DEFAULT_TOL:
        raise ValueError("input second moment is numerically zero")
    keep = eigenvalues > DEFAULT_TOL * top
    rank = int(np.count_nonzero(keep))
    eigenvalues = eigenvalues[:rank]
    basis = vectors[:, :rank]

    target_power = float(np.sum(ds.y**2) / n)
    whitened = ds.x @ basis
    whitened /= np.sqrt(eigenvalues)
    z = ds.y.T @ whitened / n
    f, zeta, gt = np.linalg.svd(z, full_matrices=True)
    g = gt.T
    zeta = _clamp_zeros(zeta)
    f, g = _fix_signs(f, g, paired=zeta.size)

    return DataSpectrum(
        basis=basis,
        eigenvalues=eigenvalues,
        left_vectors=f,
        right_vectors=g,
        singular_values=zeta,
        target_power=target_power,
    )

