import re
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collapse_lab import data
from collapse_lab.data import (
    Dataset,
    SyntheticSpec,
    center,
    generate,
    load,
    random_spec,
    save,
)
from collapse_lab.errors import InvalidSpec, ParseError
from collapse_lab.spectrum import compute_spectrum

import oracles


def test_identity_second_moment_law_of_large_numbers():
    """With A = I and n = 10000 the sample second moment lands within 0.1
    of the identity in max-entry norm."""
    spec = SyntheticSpec(5, 5, 10000, np.eye(5), np.eye(5), seed=3)
    ds = generate(spec)
    emp = ds.x.T @ ds.x / ds.n_samples
    assert np.max(np.abs(emp - np.eye(5))) < 0.1
    np.testing.assert_array_equal(ds.y, ds.x)


def test_zero_covariance_gives_zero_data():
    spec = SyntheticSpec(3, 2, 50, np.zeros((3, 3)), np.ones((2, 3)), seed=0)
    ds = generate(spec)
    assert np.all(ds.x == 0.0)
    assert np.all(ds.y == 0.0)


def test_zero_map_gives_zero_targets():
    spec = SyntheticSpec(3, 2, 50, np.eye(3), np.zeros((2, 3)), seed=0)
    assert np.all(generate(spec).y == 0.0)


def test_non_psd_second_moment_rejected():
    spec = SyntheticSpec(2, 2, 10, -np.eye(2), np.eye(2), seed=0)
    with pytest.raises(InvalidSpec):
        generate(spec)


@pytest.mark.parametrize("dims, name", [((0, 5), "dim_x"), ((3, 0), "dim_y")])
def test_zero_dimension_rejected(dims, name):
    with pytest.raises(InvalidSpec, match=name):
        generate(random_spec(*dims, n_samples=10, seed=1))


def test_asymmetric_second_moment_rejected():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InvalidSpec):
        generate(SyntheticSpec(2, 2, 10, a, np.eye(2), seed=0))


def test_generate_is_reproducible():
    spec = random_spec(4, 3, 200, seed=77)
    first = generate(spec)
    second = generate(spec)
    assert first.x.tobytes() == second.x.tobytes()
    assert first.y.tobytes() == second.y.tobytes()


def test_rank_deficient_covariance_supported():
    spec = random_spec(5, 3, 400, seed=5, rank=2)
    ds = generate(spec)
    assert np.linalg.matrix_rank(ds.x.T @ ds.x, tol=1e-8) == 2


class TestCenter:
    def test_already_centered_unchanged(self, rng):
        x = rng.normal(size=(20, 3))
        x -= x.mean(axis=0)
        x -= x.mean(axis=0)
        ds = Dataset(x=x, y=x.copy())
        out, mean_x, mean_y = center(ds)
        np.testing.assert_allclose(out.x, ds.x, atol=1e-15)
        np.testing.assert_allclose(mean_x, 0.0, atol=1e-15)
        np.testing.assert_allclose(mean_y, 0.0, atol=1e-15)

    def test_constant_column_becomes_zero(self):
        x = np.column_stack([np.full(10, 4.5), np.arange(10.0)])
        ds = Dataset(x=x, y=np.ones((10, 1)))
        out, mean_x, mean_y = center(ds)
        assert np.all(out.x[:, 0] == 0.0)
        assert mean_x[0] == 4.5
        assert mean_y[0] == 1.0

    def test_random_3x2_column_means_vanish(self, rng):
        ds = Dataset(x=rng.normal(size=(3, 2)) * 100, y=rng.normal(size=(3, 2)))
        out, _, _ = center(ds)
        assert np.max(np.abs(out.x.mean(axis=0))) < 1e-12
        assert np.max(np.abs(out.y.mean(axis=0))) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
    def test_center_is_idempotent(self, seed, n, d):
        g = np.random.default_rng(seed)
        ds = Dataset(x=g.normal(size=(n, d)) * 10, y=g.normal(size=(n, 1)))
        once, _, _ = center(ds)
        twice, _, _ = center(once)
        np.testing.assert_allclose(twice.x, once.x, atol=1e-12)
        np.testing.assert_allclose(twice.y, once.y, atol=1e-12)

    def test_units_scale_the_spectrum(self, rng):
        """The same data in other units is centered and gives the same
        spectrum, scaled: the centering test reads each column's size."""
        x = rng.normal(size=(500, 4))
        y = x @ rng.normal(size=(4, 3))
        reference = None
        for s in (1.0, 1e3, 1e6, 1e8):
            ds, _, _ = center(Dataset(s * x + 3 * s, s * y))
            assert ds.centered
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = compute_spectrum(ds).singular_values
            if reference is None:
                reference = values
            np.testing.assert_allclose(values, s * reference, rtol=1e-12, atol=0)


class TestIO:
    def test_binary_round_trip_bit_exact(self, rng, tmp_path):
        ds = Dataset(x=rng.normal(size=(4, 3)), y=rng.normal(size=(4, 2)))
        path = tmp_path / "ds.bin"
        save(ds, path)
        back = load(path)
        assert back.x.tobytes() == ds.x.tobytes()
        assert back.y.tobytes() == ds.y.tobytes()

    def test_csv_round_trip(self, rng, tmp_path):
        ds = Dataset(x=rng.normal(size=(4, 3)) * 1e6, y=rng.normal(size=(4, 2)) * 1e-7)
        path = tmp_path / "ds.csv"
        save(ds, path)
        back = load(path)
        np.testing.assert_allclose(back.x, ds.x, rtol=1e-15, atol=0)
        np.testing.assert_allclose(back.y, ds.y, rtol=1e-15, atol=0)

    def test_centered_flag_recomputed_on_load(self, rng, tmp_path):
        ds, _, _ = center(Dataset(x=rng.normal(size=(8, 2)), y=rng.normal(size=(8, 2))))
        path = tmp_path / "c.csv"
        save(ds, path)
        assert load(path).centered

    @pytest.mark.parametrize("header", ["y0,x0", "x1,x0,y0", "x0,y0,x1", "x0,y1"])
    def test_csv_header_must_be_exact(self, tmp_path, header):
        path = tmp_path / "swapped.csv"
        path.write_text(header + "\n" + ",".join(["1.0"] * len(header.split(","))) + "\n")
        with pytest.raises(ParseError, match="bad header"):
            load(path)

    def test_csv_text_pinned(self, tmp_path):
        ds = Dataset(x=[[-0.0, 1 / 3], [2.0, -1.5]], y=[[1e-300], [100.0]])
        path = tmp_path / "pinned.csv"
        save(ds, path)
        assert path.read_bytes() == (
            b"x0,x1,y0\n-0.0,0.3333333333333333,1e-300\n2.0,-1.5,100.0\n"
        )

    def test_csv_ragged_row_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,y0\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(ParseError) as err:
            load(path)
        assert err.value.row == 1

    def test_csv_non_numeric_reports_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y0\n1.0,oops\n")
        with pytest.raises(ParseError) as err:
            load(path)
        assert (err.value.row, err.value.col) == (0, 1)

    @pytest.mark.parametrize("cell", ["nan", "1e400", "-inf"])
    def test_csv_non_finite_reports_cell(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,x1,y0\n1.0,2.0,3.0\n1.0,2.0,{cell}\n4.0,{cell},5.0\n")
        with pytest.raises(ParseError, match="not a finite number") as err:
            load(path)
        assert (err.value.row, err.value.col) == (1, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_binary_non_finite_reports_cell(self, rng, tmp_path, value):
        """Cells are counted across a row of x then y, as in the CSV."""
        ds = Dataset(x=rng.normal(size=(4, 3)), y=rng.normal(size=(4, 2)))
        ds.y[2, 1] = value
        ds.x[3, 0] = value
        path = tmp_path / "bad.bin"
        save(ds, path)
        with pytest.raises(ParseError, match="not a finite number") as err:
            load(path)
        assert (err.value.row, err.value.col) == (2, 4)

    def test_csv_crlf_loads_like_lf(self, rng, tmp_path):
        ds = Dataset(x=rng.normal(size=(5, 2)), y=rng.normal(size=(5, 3)))
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        save(ds, lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = load(lf), load(crlf)
        assert (a.x.tobytes(), a.y.tobytes()) == (b.x.tobytes(), b.y.tobytes())

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_csv_values_are_float_of_each_cell(self, tmp_path, newline):
        """Each value is bit for bit what float() makes of its cell, at the
        ends of the range, on subnormals, on -0.0 and on hard roundings."""
        cells = [
            "5e-324", "4.9e-324", "1e-310", "2.2250738585072011e-308", "2.2250738585072014e-308",
            "1e-300", "-1e-300", "1e300", "-1e300", "1.7976931348623157e+308",
            "-1.7976931348623157e+308", "-0.0", "0.0", "1e23", "9007199254740993",
            "0.1000000000000000055511151231257827021181583404541015625", "-0.3333333333333333",
            "123456789012345678901234567890e-30",
        ]
        rows = [",".join(cells[i : i + 3]).encode() for i in range(0, len(cells), 3)]
        path = tmp_path / "edge.csv"
        path.write_bytes(newline.join([b"x0,x1,y0", *rows, b""]))
        ds = load(path)
        expected = np.array([float(cell) for cell in cells]).reshape(-1, 3)
        assert ds.x.tobytes() == expected[:, :2].tobytes()
        assert ds.y.tobytes() == expected[:, 2:].tobytes()
        assert ds.x.flags.c_contiguous and ds.y.flags.c_contiguous

    def test_csv_bad_cell_in_last_of_many_rows(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_bytes(b"x0,x1,y0\n" + b"1.5,-2.0,3e-7\n" * 19999 + b"4.0,-5.0,1E5\n")
        with pytest.raises(ParseError) as err:
            load(path)
        assert str(err.value) == f"not a number: '1E5' in {path} (row 19999, col 2)"

    @pytest.mark.parametrize(
        "name, raw",
        [("ragged.csv", b"x0,y0\n1,2,3\n"), ("word.csv", b"x0,y0\n1,oops\n"),
         ("nan.csv", b"x0,y0\n1,nan\n"), ("short.bin", b"CLD1" + bytes([1, 0, 0, 0] * 3))],
    )
    def test_every_parse_error_names_the_file(self, tmp_path, name, raw):
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(ParseError, match=re.escape(f"in {path}")):
            load(path)

    @pytest.mark.parametrize("name", ["empty.csv", "empty.bin"])
    def test_empty_file_rejected(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"")
        with pytest.raises(ParseError):
            load(path)

    def test_binary_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ParseError):
            load(path)

    def test_binary_truncated_rejected(self, rng, tmp_path):
        ds = Dataset(x=rng.normal(size=(4, 3)), y=rng.normal(size=(4, 2)))
        path = tmp_path / "t.bin"
        save(ds, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            load(path)


# cells beside repr's own: spellings the grammar takes, spellings only float() takes
_SPELLINGS = ["1e5", "-0", "007", "1.5e+3", "-inf", "+1", ".5", "5.", "1E5", "1.e5", "-.5",
              "NaN", "Infinity", "+inf", "-nan", "1_0", " 3", "3\t", "", "1e999"]
# what an edit inserts: mutants of a number, and the bytes that end rows and cells
_MUTANTS = ["0", "-", "+", ".", "e", "E", "i", "n", "_", " ", "\x0c", "\r", "\n", ",", "x", "\x80"]


@st.composite
def _mutated_csv(draw):
    """A CSV of repr'd floats, perhaps one cell spelled otherwise, LF or CRLF,
    then up to two edits: a byte deleted, or a mutant inserted or put in a
    byte's place."""
    dim_x, dim_y, n = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 3))
    cells = draw(st.lists(st.floats().map(repr), min_size=n * (dim_x + dim_y), max_size=n * (dim_x + dim_y)))
    if cells and draw(st.integers(0, 2)):
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_SPELLINGS))
    names = [f"x{j}" for j in range(dim_x)] + [f"y{j}" for j in range(dim_y)]
    rows = [",".join(names)] + [
        ",".join(cells[i : i + dim_x + dim_y]) for i in range(0, len(cells), dim_x + dim_y)
    ]
    raw = "".join(row + draw(st.sampled_from(["\n", "\r\n"])) for row in rows)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(raw)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        mutant = "" if edit == "delete" else draw(st.sampled_from(_MUTANTS))
        raw = raw[:at] + mutant + raw[at + (edit != "insert") :]
    return raw.encode("latin-1")


def _outcome(read):
    """What a reader made of a file: its values' bytes, or where it refused."""
    try:
        ds = read()
    except (ParseError, oracles.CsvRefused) as exc:
        return "refused", exc.row, exc.col
    return "read", ds.x.tobytes(), ds.y.tobytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_csv())
def test_csv_reader_matches_reference(tmp_path, raw):
    """load and a cell-by-cell reference reader accept the same files with
    the same values, and refuse the rest at the same place; every refusal of
    a malformed file is one ParseError naming the file."""
    path = tmp_path / "mutant.csv"
    path.write_bytes(raw)
    got = _outcome(lambda: load(path))
    assert got == _outcome(lambda: Dataset(*oracles.read_csv(raw)))
    if got[0] == "refused":
        with pytest.raises(ParseError, match=re.escape(str(path))):
            load(path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_csv(), st.integers(1, 32))
def test_csv_reader_in_small_blocks_matches_reference(tmp_path, monkeypatch, raw, block):
    """Read in blocks of a few bytes, so rows straddle blocks, load still
    agrees with the reference reader, and names the file when it refuses."""
    monkeypatch.setattr(data, "_BLOCK", block)
    path = tmp_path / "mutant.csv"
    path.write_bytes(raw)
    got = _outcome(lambda: load(path))
    assert got == _outcome(lambda: Dataset(*oracles.read_csv(raw)))
    if got[0] == "refused":
        with pytest.raises(ParseError, match=re.escape(str(path))):
            load(path)


BLOCK_EDGES = {  # name: raw bytes, then the rows read or the refusal (path as {}), row, col
    "row_straddles_blocks": (
        b"x0,y0\n1.5,2.25\n3.75,-4.5\n0.125,6.0\n", [[1.5, 2.25], [3.75, -4.5], [0.125, 6.0]]
    ),
    "bad_row_straddles_blocks": (
        b"x0,y0\n1.5,2.25\n3.75,4.5x\n", ("not a number: '4.5x' in {} (row 1, col 1)", 1, 1)
    ),
    "cr_ends_a_block": (b"x0,y0\r\n12.5,3\r\n4,5\r\n", [[12.5, 3.0], [4.0, 5.0]]),
    "blank_line_starts_a_block": (
        b"x0,y0\n1,2\n3,4\n\n5,6\n", ("expected 2 fields, got 1 in {} (row 2)", 2, None)
    ),
    "row_longer_than_a_block": (
        b"x0,x1,x2,y0\n1.0625,-2.125,3.25e-05,4.5\n6.0,7.0,8.0,9.0E1\n",
        ("not a number: '9.0E1' in {} (row 1, col 3)", 1, 3),
    ),
    "no_final_newline": (b"x0,y0\n1,2\n3,4\n5,6", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    "non_ascii_after_bad_cell": (
        b"x0,y0\n1,x\n" + b"3,4\n" * 5 + b"\x80\n", ("non-ASCII byte at offset 30 in {}", None, None)
    ),
    "non_ascii_after_bad_header": (
        b"y0,x0\n" + b"3,4\n" * 5 + b"\xe9\n", ("non-ASCII byte at offset 26 in {}", None, None)
    ),
}


@pytest.mark.parametrize("block", [7, data._BLOCK])
@pytest.mark.parametrize("name", BLOCK_EDGES)
def test_csv_block_edges(tmp_path, monkeypatch, name, block):
    """Each block ends on a whole row, and a non-ASCII byte in a later block
    is still named before an earlier bad row or header."""
    monkeypatch.setattr(data, "_BLOCK", block)
    raw, expected = BLOCK_EDGES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(raw)
    if isinstance(expected, list):
        ds = load(path)
        assert np.hstack([ds.x, ds.y]).tolist() == expected
        return
    message, row, col = expected
    with pytest.raises(ParseError) as err:
        load(path)
    assert (str(err.value), err.value.row, err.value.col) == (message.format(path), row, col)


def _traced_peak(read):
    """What ``read`` returns, and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return read(), tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_csv_reader_holds_a_block_not_the_file(tmp_path, monkeypatch):
    """A 1.9 MB CSV is checked and parsed a block at a time: the reader holds
    its columns, their parts and a few blocks, never the file's text."""
    monkeypatch.setattr(data, "_BLOCK", 1 << 16)
    path = tmp_path / "wide.csv"
    save(generate(random_spec(8, 8, 6000, seed=4)), path)
    assert path.stat().st_size > 1.8e6
    ds, peak = _traced_peak(lambda: load(path))
    assert peak <= 2 * (ds.x.nbytes + ds.y.nbytes) + 4 * data._BLOCK


def test_binary_reader_reads_into_the_arrays(tmp_path):
    path = tmp_path / "wide.bin"
    save(generate(random_spec(8, 8, 6000, seed=4)), path)
    ds, peak = _traced_peak(lambda: load(path))
    assert peak <= 1.1 * (ds.x.nbytes + ds.y.nbytes)


def test_centered_is_derived_from_the_data():
    assert [f.name for f in fields(Dataset)] == ["x", "y"]
    ds = Dataset(x=np.zeros((3, 2)), y=np.ones((3, 1)))
    assert not ds.centered
    with pytest.raises(AttributeError):
        ds.centered = True
    assert center(ds)[0].centered


def test_dataset_invariants_enforced(rng):
    with pytest.raises(ValueError):
        Dataset(x=rng.normal(size=(3, 2)), y=rng.normal(size=(4, 2)))
