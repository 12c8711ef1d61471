"""Synthetic dataset generation, centering, and file I/O.

Datasets are plain (n, dim) float64 matrices with rows as samples. All
randomness goes through ``numpy.random.default_rng`` (PCG64), so a fixed
seed reproduces a dataset byte for byte.

File formats
------------
CSV
    ASCII text: header row exactly ``x0,...,x{dx-1},y0,...,y{dy-1}``, then
    one sample per row: each cell is ``_CELL``, what ``repr`` writes for a
    float, each row ends at ``\\n`` or ``\\r\\n``, and no row is blank.
    Anything else, a UTF-8 byte-order mark included, is a :class:`ParseError`.
binary
    16-byte header: 4-byte magic ``CLD1`` followed by little-endian
    uint32 ``n``, ``dim_x``, ``dim_y``; then the X block and the Y block
    as little-endian float64 in row-major order. Bit-exact round trip.

Either format must hold at least one sample, one x column and one y
column. Neither reader holds the whole file: each checks and parses it
a block at a time, a CSV body in blocks of whole rows.
"""

from __future__ import annotations

import io
import os
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, ParseError

_MAGIC = b"CLD1"
_BLOCK = 1 << 20  # CSV bytes per block, then the rest of a row; 256 KiB or 4 MiB peak higher
# one CSV cell as repr writes a float; possessive, so a failed row never backtracks
_CELL = rb"(?:-?+(?:\d++(?:\.\d++)?+(?:e[+-]?+\d++)?+|inf)|nan)"
_CENTER_TOL = 1e-10
_SYMMETRY_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-12


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Dataset:
    """Paired input/target sample matrices.

    ``x`` is (n, dim_x), ``y`` is (n, dim_y); row i of each is one sample.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_matrix(self.x, "x"))
        object.__setattr__(self, "y", _as_matrix(self.y, "y"))
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"x has {self.x.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if self.x.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")

    @property
    def centered(self) -> bool:
        """Every column mean lies within ``1e-10 * max(1, largest |entry|
        of that column)``, so the test reads the same in any units."""
        for a in (self.x, self.y):
            scale = np.maximum(1.0, np.abs(a).max(axis=0, initial=0.0))
            if np.any(np.abs(a.mean(axis=0)) > _CENTER_TOL * scale):
                return False
        return True

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def dim_x(self) -> int:
        return self.x.shape[1]

    @property
    def dim_y(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a linear-target Gaussian dataset.

    Inputs are drawn i.i.d. from N(0, ``second_moment``) and targets are
    ``y = map_matrix @ x``. Any overall signal gain is folded into the
    scale of ``map_matrix``.
    """

    dim_x: int
    dim_y: int
    n_samples: int
    second_moment: np.ndarray = field(repr=False)
    map_matrix: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "second_moment", _as_matrix(self.second_moment, "second_moment")
        )
        object.__setattr__(
            self, "map_matrix", _as_matrix(self.map_matrix, "map_matrix")
        )

    def validate(self) -> None:
        if self.dim_x < 1:
            raise InvalidSpec(f"dim_x must be >= 1, got {self.dim_x}")
        if self.dim_y < 1:
            raise InvalidSpec(f"dim_y must be >= 1, got {self.dim_y}")
        a = self.second_moment
        if a.shape != (self.dim_x, self.dim_x):
            raise InvalidSpec(
                f"second_moment shape {a.shape} != ({self.dim_x}, {self.dim_x})"
            )
        if self.map_matrix.shape != (self.dim_y, self.dim_x):
            raise InvalidSpec(
                f"map_matrix shape {self.map_matrix.shape} != "
                f"({self.dim_y}, {self.dim_x})"
            )
        if self.n_samples < 1:
            raise InvalidSpec("n_samples must be >= 1")
        if np.max(np.abs(a - a.T)) > _SYMMETRY_TOL:
            raise InvalidSpec("second_moment is not symmetric within 1e-12")
        eigenvalues = np.linalg.eigvalsh(a)
        if eigenvalues.min(initial=0.0) < _EIGENVALUE_FLOOR:
            raise InvalidSpec(
                f"second_moment has eigenvalue {eigenvalues.min():g} < -1e-12"
            )


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset from a :class:`SyntheticSpec`.

    Sampling uses the eigen-factor of the second moment (A = P diag(phi) P^T,
    x = P phi^{1/2} g with g standard normal) so rank-deficient second
    moments are handled exactly.
    """
    spec.validate()
    eigenvalues, vectors = np.linalg.eigh(spec.second_moment)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    factor = vectors * np.sqrt(eigenvalues)
    rng = np.random.default_rng(spec.seed)
    g = rng.standard_normal((spec.n_samples, spec.dim_x))
    x = g @ factor.T
    y = x @ spec.map_matrix.T
    return Dataset(x=x, y=y)


def center(ds: Dataset) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Subtract column means from x and y.

    Returns the centered dataset together with the removed means, which
    are exactly the quantities needed to reconstruct the optimal encoder
    and decoder biases of the uncentered problem.
    """
    mean_x = ds.x.mean(axis=0)
    mean_y = ds.y.mean(axis=0)
    x = ds.x - mean_x
    y = ds.y - mean_y
    # one more pass kills the O(eps * scale) residual of the first
    x -= x.mean(axis=0)
    y -= y.mean(axis=0)
    return Dataset(x=x, y=y), mean_x, mean_y


def _is_csv(path) -> bool:
    return Path(path).suffix.lower() == ".csv"


def save(ds: Dataset, path) -> None:
    """Write a dataset to ``path``: CSV for a ``.csv`` suffix, else binary."""
    if _is_csv(path):
        _save_csv(ds, path)
    else:
        _save_binary(ds, path)


def load(path) -> Dataset:
    """Read a dataset written by :func:`save`, in the format its suffix picks.

    Raises :class:`ParseError` for malformed content, which includes a
    file with no sample, no x column or no y column, and a NaN or infinite
    value (located by row and by column of ``x`` then ``y``).
    """
    x, y = _load_csv(path) if _is_csv(path) else _load_binary(path)
    if 0 in (*x.shape, y.shape[1]):
        raise ParseError(
            f"{path} has n={x.shape[0]}, dim_x={x.shape[1]}, dim_y={y.shape[1]}; "
            "each must be >= 1"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        row, col = np.argwhere(~np.isfinite(np.hstack([x, y])))[0]
        raise ParseError(f"not a finite number in {path}", row=int(row), col=int(col))
    return Dataset(x=x, y=y)


def _save_csv(ds: Dataset, path) -> None:
    names = [f"x{j}" for j in range(ds.dim_x)] + [f"y{j}" for j in range(ds.dim_y)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in np.hstack([ds.x, ds.y]).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _line(raw: bytes, start: int) -> bytes:
    """The row that starts at ``start``, without its ``\\n`` or ``\\r\\n``."""
    end = raw.find(b"\n", start)
    return raw[start:] if end < 0 else raw[start:end].removesuffix(b"\r")


def _check_ascii(fh, path) -> None:
    """Refuse the file's first non-ASCII byte, if any, before any other fault.
    The grammar is ASCII, so such a byte fails the header or row check first."""
    fh.seek(0)
    while block := fh.read(_BLOCK):
        if not block.isascii():
            offset = fh.tell() - len(block) + re.search(rb"[\x80-\xff]", block).start()
            raise ParseError(f"non-ASCII byte at offset {offset} in {path}")


def _row_fault(line: bytes, width: int, row: int, path) -> ParseError:
    """What is wrong with ``line``, body row ``row``, which the row regex refused."""
    cells = line.split(b",")
    if len(cells) != width:
        return ParseError(f"expected {width} fields, got {len(cells)} in {path}", row=row)
    col = re.match(rb"(?:%s,)*+" % _CELL, line).group().count(b",")  # good cells before it
    return ParseError(f"not a number: {cells[col].decode()!r} in {path}", row=row, col=col)


def _load_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line:
            raise ParseError(f"empty file: {path}")
        header = _line(line, 0).decode("latin-1")  # any byte decodes; see _check_ascii
        names = header.split(",")
        dim_x = sum(1 for name in names if name.startswith("x"))
        dim_y = len(names) - dim_x
        if names != [f"x{j}" for j in range(dim_x)] + [f"y{j}" for j in range(dim_y)]:
            _check_ascii(fh, path)
            raise ParseError(f"bad header {header!r} in {path}")
        rows = re.compile(rb"(?:%s(?:,%s){%d}(?:\r?\n|\Z))*+" % (_CELL, _CELL, len(names) - 1))
        xs, ys = [np.empty((0, dim_x))], [np.empty((0, dim_y))]
        while block := fh.read(_BLOCK) + fh.readline():
            stop = rows.match(block).end()
            if stop < len(block):  # the first bad row starts where the match stopped
                _check_ascii(fh, path)
                row = sum(map(len, xs)) + block.count(b"\n", 0, stop)
                raise _row_fault(_line(block, stop), len(names), row, path)
            values = np.loadtxt(io.BytesIO(block), delimiter=",", comments=None, ndmin=2)
            xs.append(values[:, :dim_x].copy())
            ys.append(values[:, dim_x:].copy())
            del values  # before the next block's values are built
    x = np.concatenate(xs)
    del xs  # free x's parts before y is built
    return x, np.concatenate(ys)


def _save_binary(ds: Dataset, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", ds.n_samples, ds.dim_x, ds.dim_y))
        fh.write(np.ascontiguousarray(ds.x, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.y, dtype="<f8").tobytes())


def _load_binary(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        size, head = os.fstat(fh.fileno()).st_size, fh.read(16)
        if size == 0:
            raise ParseError(f"empty file: {path}")
        if len(head) < 16 or head[:4] != _MAGIC:
            raise ParseError(f"not a {_MAGIC.decode()} dataset: {path}")
        n, dim_x, dim_y = struct.unpack("<III", head[4:])
        expected = 16 + 8 * n * (dim_x + dim_y)
        if size != expected:
            raise ParseError(
                f"file size {size} does not match header "
                f"(n={n}, dim_x={dim_x}, dim_y={dim_y} wants {expected}) in {path}"
            )
        x = np.fromfile(fh, "<f8", n * dim_x).reshape(n, dim_x)
        return x, np.fromfile(fh, "<f8", n * dim_y).reshape(n, dim_y)


def random_spec(
    dim_x: int,
    dim_y: int,
    n_samples: int,
    seed: int,
    rank: int | None = None,
    signal_scale: float = 1.0,
) -> SyntheticSpec:
    """Build a reproducible random :class:`SyntheticSpec` from one seed.

    The second moment is a random well-conditioned PSD matrix (optionally
    rank-deficient) and the map is dense Gaussian scaled by
    ``signal_scale``; both derive from the same PCG64 stream that
    :func:`generate` will later reuse with an independent seed offset.
    """
    rng = np.random.default_rng(seed)
    rank = dim_x if rank is None else rank
    q, _ = np.linalg.qr(rng.standard_normal((dim_x, dim_x)))
    eigenvalues = np.zeros(dim_x)
    eigenvalues[:rank] = np.sort(rng.uniform(0.3, 3.0, size=rank))[::-1]
    a = (q * eigenvalues) @ q.T
    a = 0.5 * (a + a.T)
    m = signal_scale * rng.standard_normal((dim_y, dim_x)) / np.sqrt(dim_x)
    return SyntheticSpec(
        dim_x=dim_x,
        dim_y=dim_y,
        n_samples=n_samples,
        second_moment=a,
        map_matrix=m,
        seed=seed + 1,
    )
