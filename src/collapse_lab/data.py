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
a block at a time, a CSV body in blocks of whole rows. Neither rewinds,
so a pipe is refused with the messages of the same bytes in a file.

A regular CSV file ``d/x.csv`` that loads leaves ``d/.x.csv.cld1``, its sidecar (about 41%
of its size): a 32-byte BLAKE2b digest of the cell grammar, numpy's version, the bytes parsed
and the arrays in the binary format, then those arrays. A later load of the same bytes reads
the arrays from a sidecar that is a regular file of the CSV's owner or the reader and whose
digest covers them too; any other is replaced.
A pipe or an unwritable directory gets none. It is safe to delete; no option controls it.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import stat
import struct
from _blake2 import blake2b  # what hashlib.blake2b is, without hashlib's OpenSSL
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ParseError

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
            # each column's largest |entry|, exactly, without an |a| the size of a
            scale = np.maximum(1.0, np.maximum(a.max(axis=0), -a.min(axis=0)))
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
    scale of ``map_matrix``, whose shape (dim_y, dim_x) gives the sizes.
    A recipe that cannot be drawn from is refused here with :class:`ValueError`.
    """

    dim_x: int = field(init=False)
    dim_y: int = field(init=False)
    n_samples: int
    second_moment: np.ndarray = field(repr=False)
    map_matrix: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self):
        a = _as_matrix(self.second_moment, "second_moment")
        object.__setattr__(self, "second_moment", a)
        object.__setattr__(self, "map_matrix", _as_matrix(self.map_matrix, "map_matrix"))
        dim_y, dim_x = self.map_matrix.shape
        object.__setattr__(self, "dim_x", dim_x)
        object.__setattr__(self, "dim_y", dim_y)
        if dim_x < 1:
            raise ValueError(f"dim_x must be >= 1, got {dim_x}")
        if dim_y < 1:
            raise ValueError(f"dim_y must be >= 1, got {dim_y}")
        if a.shape != (dim_x, dim_x):
            raise ValueError(f"second_moment shape {a.shape} != (dim_x, dim_x), dim_x = {dim_x}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if np.max(np.abs(a - a.T)) > _SYMMETRY_TOL:
            raise ValueError("second_moment is not symmetric within 1e-12")
        eigenvalues = np.linalg.eigvalsh(a)
        if eigenvalues.min(initial=0.0) < _EIGENVALUE_FLOOR:
            raise ValueError(
                f"second_moment has eigenvalue {eigenvalues.min():g} < -1e-12"
            )


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset from a :class:`SyntheticSpec`.

    Sampling uses the eigen-factor of the second moment (A = P diag(phi) P^T,
    x = P phi^{1/2} g with g standard normal) so rank-deficient second
    moments are handled exactly.
    """
    eigenvalues, vectors = np.linalg.eigh(spec.second_moment)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    factor = vectors * np.sqrt(eigenvalues)
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((spec.n_samples, spec.dim_x)) @ factor.T  # the draws freed before y
    y = x @ spec.map_matrix.T
    return Dataset(x=x, y=y)


def center(ds: Dataset) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Subtract column means from x and y.

    Returns the centered dataset together with the removed means, which
    are exactly the quantities needed to reconstruct the optimal encoder
    and decoder biases of the uncentered problem. ``ds`` is left as it was:
    copies of its arrays are centered, by :func:`center_in_place`.
    """
    out = Dataset(x=np.copy(ds.x), y=np.copy(ds.y))  # ds's memory order sets the means' sum order
    return (out, *center_in_place(out))


def center_in_place(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Subtract column means from x and y in place and return the removed
    means: :func:`center` without the copies, for a dataset whose arrays
    nothing else reads and whose x and y share no memory."""
    means = ds.x.mean(axis=0), ds.y.mean(axis=0)
    for a, mean in zip((ds.x, ds.y), means):
        a -= mean
        a -= a.mean(axis=0)  # one more pass kills the O(eps * scale) residual of the first
    return means


def _is_csv(path) -> bool:
    return Path(path).suffix.lower() == ".csv"


def csv_lines(header: list[str], rows):
    """CSV lines, ``header`` then ``rows`` (any iterable): a float cell as ``repr`` writes it,
    so ``_CELL`` reads it back, None as an empty cell, any other (an int, a label) as ``str``."""
    for row in chain([header], rows):
        yield ",".join([
            repr(c) if type(c) is float else "" if c is None else str(c) for c in row
        ]) + "\n"


def _header(dim_x: int, dim_y: int) -> list[str]:
    """A CSV dataset's column names: ``x0..`` then ``y0..``."""
    return [f"x{j}" for j in range(dim_x)] + [f"y{j}" for j in range(dim_y)]


def save(ds: Dataset, path) -> None:
    """Write a dataset to ``path``: CSV for a ``.csv`` suffix, else binary."""
    if _is_csv(path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(csv_lines(_header(ds.dim_x, ds.dim_y), np.hstack([ds.x, ds.y]).tolist()))
    else:
        with open(path, "wb") as fh:
            fh.writelines(_layout(ds))


def load(path) -> Dataset:
    """Read a dataset written by :func:`save`, in the format its suffix picks;
    a regular CSV file goes through its sidecar (see the module docstring).

    Raises :class:`ParseError` for malformed content, which includes a
    file with no sample, no x column or no y column, and a NaN or infinite
    value (located by row and by column of ``x`` then ``y``).
    """
    with open(path, "rb") as fh:
        if not fh.peek(1):
            raise ParseError(f"empty file: {path}")
        if not _is_csv(path):
            return _dataset(*_read_binary(fh, path), path)
        mode = os.fstat(fh.fileno()).st_mode
        side = Path(path).with_name(f".{Path(path).name}.cld1")
        digest = blake2b(_CELL + np.__version__.encode(), digest_size=32)  # what decides a parse
        if stat.S_ISREG(mode) and (ds := _cached(fh, side, digest.copy())):
            return ds
        ds = _dataset(*_load_csv(fh, path, digest), path)
    if stat.S_ISREG(mode):
        _write_sidecar(side, _seal(digest, ds), ds, mode)
    return ds


def _dataset(x, y, path) -> Dataset:
    if 0 in (*x.shape, y.shape[1]):
        dims = f"n={x.shape[0]}, dim_x={x.shape[1]}, dim_y={y.shape[1]}"
        raise ParseError(f"{path} has {dims}; each must be >= 1")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        row, col = np.argwhere(~np.isfinite(np.hstack([x, y])))[0]
        raise ParseError(f"not a finite number in {path}", row=int(row), col=int(col))
    return Dataset(x=x, y=y)


def _seal(digest, ds: Dataset) -> bytes:
    """Finish ``digest``, which holds a CSV's bytes, with ``ds`` in the binary format, in place."""
    for part in _layout(ds):
        digest.update(part)
    return digest.digest()


def _cached(fh, side: Path, digest) -> Dataset | None:
    """The dataset in ``side`` if it is a trusted owner's regular file whose digest covers
    ``fh``'s bytes and its own arrays, else None. Opened following no link, waiting on no FIFO."""
    with contextlib.suppress(OSError, ParseError):
        with open(os.open(side, os.O_RDONLY | os.O_NONBLOCK | os.O_NOFOLLOW), "rb") as cache:
            info, owners = os.fstat(cache.fileno()), (os.fstat(fh.fileno()).st_uid, os.geteuid())
            if stat.S_ISREG(info.st_mode) and info.st_uid in owners:
                want = cache.read(32)
                while block := fh.read(_BLOCK):
                    digest.update(block)
                if _seal(digest, ds := _dataset(*_read_binary(cache, side), side)) == want:
                    return ds
    fh.seek(0)
    return None


def _write_sidecar(side: Path, digest: bytes, ds: Dataset, mode: int) -> None:
    """Replace ``side`` atomically, with no permission bit ``mode`` lacks, or do nothing."""
    tmp = side.with_name(f".{os.getpid()}{side.name}")
    try:
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode & 0o666), "wb") as out:
            out.writelines((digest, *_layout(ds)))
        os.replace(tmp, side)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _line(raw: bytes, start: int) -> bytes:
    """The row that starts at ``start``, without its ``\\n`` or ``\\r\\n``."""
    end = raw.find(b"\n", start)
    return raw[start:] if end < 0 else raw[start:end].removesuffix(b"\r")


def _check_ascii(raw: bytes, offset: int, fh, path) -> None:
    """Refuse the first non-ASCII byte of ``raw`` (at byte ``offset``) or of the rest of ``fh``
    before any other fault: the grammar is ASCII, and every byte before ``raw`` matched it."""
    while raw:
        if not raw.isascii():
            offset += re.search(rb"[\x80-\xff]", raw).start()
            raise ParseError(f"non-ASCII byte at offset {offset} in {path}")
        offset, raw = offset + len(raw), fh.read(_BLOCK)


def _row_fault(line: bytes, width: int, row: int, path) -> ParseError:
    """What is wrong with ``line``, body row ``row``, which the row regex refused."""
    cells = line.split(b",")
    if len(cells) != width:
        return ParseError(f"expected {width} fields, got {len(cells)} in {path}", row=row)
    col = re.match(rb"(?:%s,)*+" % _CELL, line).group().count(b",")  # good cells before it
    return ParseError(f"not a number: {cells[col].decode()!r} in {path}", row=row, col=col)


def _load_csv(fh, path, digest) -> tuple[np.ndarray, np.ndarray]:
    """Check and parse the CSV ``fh``, hashing into ``digest`` every byte it reads."""
    digest.update(line := fh.readline())
    header = _line(line, 0).decode("latin-1")  # any byte decodes; see _check_ascii
    names = header.split(",")
    dim_x = sum(1 for name in names if name.startswith("x"))
    dim_y = len(names) - dim_x
    if names != _header(dim_x, dim_y):
        _check_ascii(line, 0, fh, path)
        raise ParseError(f"bad header {header!r} in {path}")
    rows = re.compile(rb"(?:%s(?:,%s){%d}(?:\r?\n|\Z))*+" % (_CELL, _CELL, len(names) - 1))
    xs, ys = [np.empty((0, dim_x))], [np.empty((0, dim_y))]
    offset = len(line)  # of the block in the file
    while block := fh.read(_BLOCK) + fh.readline():
        digest.update(block)
        stop = rows.match(block).end()
        if stop < len(block):  # the first bad row starts where the match stopped
            _check_ascii(block[stop:], offset + stop, fh, path)
            row = sum(map(len, xs)) + block.count(b"\n", 0, stop)
            raise _row_fault(_line(block, stop), len(names), row, path)
        values = np.loadtxt(io.BytesIO(block), delimiter=",", comments=None, ndmin=2)
        xs.append(values[:, :dim_x].copy())
        ys.append(values[:, dim_x:].copy())
        del values  # before the next block's values are built
        offset += len(block)
    x = np.concatenate(xs)
    del xs  # free x's parts before y is built
    return x, np.concatenate(ys)


def _layout(ds: Dataset) -> tuple:
    """The binary format's parts: the header, the X block and the Y block."""
    head = _MAGIC + struct.pack("<III", ds.n_samples, ds.dim_x, ds.dim_y)
    return head, np.ascontiguousarray(ds.x, dtype="<f8"), np.ascontiguousarray(ds.y, dtype="<f8")


def _read_binary(fh, path) -> tuple[np.ndarray, np.ndarray]:
    """Read the binary layout from ``fh``'s position to its end, a pipe's too, into arrays."""
    info = os.fstat(fh.fileno())
    size = info.st_size - fh.tell() if stat.S_ISREG(info.st_mode) else None
    head = fh.read(16)
    if len(head) < 16 or head[:4] != _MAGIC:
        raise ParseError(f"not a {_MAGIC.decode()} dataset: {path}")
    n, dim_x, dim_y = struct.unpack("<III", head[4:])
    expected = 16 + 8 * n * (dim_x + dim_y)
    if size == expected:
        size = 16 + fh.readinto(body := bytearray(expected - 16))  # the X block, then the Y block
    elif size is None:  # a pipe's size shows only at its end, so it is read before allocating
        body = bytearray()
        while (want := min(_BLOCK, expected - 16 - len(body))) and (block := fh.read(want)):
            body += block
        size = 16 + len(body) + sum(map(len, iter(lambda: fh.read(_BLOCK), b"")))  # must end here
    if size != expected:
        header = f"n={n}, dim_x={dim_x}, dim_y={dim_y} wants {expected}"
        raise ParseError(f"file size {size} does not match header ({header}) in {path}")
    xy = np.frombuffer(body, "<f8")
    return xy[: n * dim_x].reshape(n, dim_x), xy[n * dim_x :].reshape(n, dim_y)


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
    return SyntheticSpec(n_samples=n_samples, second_moment=a, map_matrix=m, seed=seed + 1)
