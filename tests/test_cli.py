import ast
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import collapse_lab
from collapse_lab import cli, data
from collapse_lab.cli import main
from collapse_lab.data import Dataset, generate, load, random_spec, save
from collapse_lab.errors import ParseError


@pytest.fixture
def autoencode_csv(tmp_path):
    ds = generate(random_spec(4, 4, 500, seed=8))
    ds = Dataset(ds.x, ds.x)
    path = tmp_path / "auto.csv"
    save(ds, path)
    return path


def run(capsys, *argv):
    """Run the CLI in process; ``err`` is the stderr a shell would see.

    pytest's own warning capture would swallow the Python warnings that
    ``main`` lets through, so they are recorded here and appended to
    ``err`` as ``main`` would have printed them.
    """
    with warnings.catch_warnings(record=True) as caught:
        code = main(list(argv))
    captured = capsys.readouterr()
    shown = "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )
    return code, captured.out, captured.err + shown


def test_import_leaves_scipy_out():
    """scipy is a test-only extra; the CLI must start without it."""
    src = Path(collapse_lab.__file__).resolve().parents[1]
    probe = "import sys, collapse_lab.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


def _imported_names(path):
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            found.update(part for name in names for part in name.split("."))
    return found


def test_package_imports_no_scipy_and_closed_forms_no_trainer():
    """scipy serves only the test-side references, and the closed forms
    stand apart from the oracle that checks them."""
    package = Path(collapse_lab.__file__).resolve().parent
    imports = {path.stem: _imported_names(path) for path in package.glob("*.py")}
    assert [name for name, found in imports.items() if "scipy" in found] == []
    for name in ("closed_form", "decoder_variance", "collapse"):
        assert "trainer" not in imports[name], name


def test_only_cli_turns_results_into_json():
    """The wire format is the CLI's one converter; no other module has
    its own JSON writer or null-for-non-finite helper."""
    package = Path(collapse_lab.__file__).resolve().parent
    defined = [
        (path.name, node.name)
        for path in sorted(package.glob("*.py")) if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in ("to_json_dict", "json_safe")
    ]
    assert defined == []


class TestSpectrumCommand:
    def test_autoencoding_identity(self, capsys, autoencode_csv):
        code, out, _ = run(capsys, "spectrum", "--data", str(autoencode_csv))
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "collapse-lab/v1"
        np.testing.assert_allclose(
            np.array(doc["singular_values"]) ** 2, doc["eigenvalues"], atol=1e-8
        )

    def test_zero_target_warns(self, capsys, tmp_path):
        ds = generate(random_spec(3, 2, 100, seed=1))
        ds = Dataset(ds.x, np.zeros((100, 2)))
        path = tmp_path / "zero.csv"
        save(ds, path)
        code, out, err = run(capsys, "spectrum", "--data", str(path))
        assert code == 0
        assert "zero" in err.lower()
        assert all(v == 0.0 for v in json.loads(out)["singular_values"])

    def test_missing_file_exit_1_with_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.csv"
        code, _, err = run(capsys, "spectrum", "--data", str(missing))
        assert code == 1
        assert str(missing) in err

    def test_degenerate_input_exit_2(self, capsys, tmp_path):
        ds = Dataset(x=np.zeros((10, 2)), y=np.ones((10, 1)))
        path = tmp_path / "flat.csv"
        save(ds, path)
        code, _, err = run(capsys, "spectrum", "--data", str(path))
        assert code == 2
        assert "error" in err


def _refuse(constant):
    raise ValueError(f"non-finite {constant} in the output")


@pytest.fixture
def large_units_csv(tmp_path):
    """x = 1e7 N(0, 1) + 3e7, y = x M: centering leaves column means far
    above 1e-10 in absolute terms, though tiny against the entries."""
    g = np.random.default_rng(0)
    x = 1e7 * g.standard_normal((2000, 4)) + 3e7
    path = tmp_path / "large.csv"
    save(Dataset(x, x @ g.standard_normal((4, 3))), path)
    return path


DATA_COMMANDS = [  # every command that reads --data
    ("spectrum",),
    ("solve", "--beta", "1", "--d1", "2"),
    ("predict", "--beta", "1", "--d1", "2"),
    ("report", "--beta", "1", "--d1", "2"),
    ("sweep", "--d1", "2", "--beta-grid", "1:2:1"),
    ("train", "--beta", "1", "--d1", "2", "--max-steps", "50"),
]


@pytest.mark.parametrize("argv", DATA_COMMANDS)
def test_data_in_large_units(capsys, large_units_csv, argv):
    code, out, err = run(capsys, argv[0], "--data", str(large_units_csv), *argv[1:])
    assert code == 0 and err == ""
    if argv[0] == "sweep":
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert header[:4] == ["beta", "loss", "rank", "regime"] and len(rows) == 2
        assert all(len(row) == len(header) and math.isfinite(float(row[1])) for row in rows)
    else:
        assert json.loads(out, parse_constant=_refuse)["command"] == argv[0]


OVERFLOW_CSV = {  # finite cells whose squares overflow float64
    "x_1e200.csv": b"x0,y0\n1e200,1\n-1e200,2\n3e200,-3\n",
    "x_1e160.csv": b"x0,x1,y0\n1e160,1,1\n-1e160,2,2\n3e160,-3,3\n",
    "y_1e200.csv": b"x0,y0\n1,1e200\n-1,2e200\n2,-3e200\n",
}


@pytest.mark.parametrize("name", OVERFLOW_CSV)
@pytest.mark.parametrize("argv", DATA_COMMANDS)
def test_overflowing_second_moments_exit_2(capsys, tmp_path, argv, name):
    """Finite cells whose squares overflow float64 are refused before any
    moment is formed: one error line, exit 2, and no RuntimeWarning."""
    path = tmp_path / name
    path.write_bytes(OVERFLOW_CSV[name])
    code, out, err = run(capsys, argv[0], "--data", str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err == "error: the data's sum of squares overflows float64\n"


EMPTY_FILES = {
    "n0.bin": b"CLD1" + struct.pack("<III", 0, 3, 2),
    "dx0.bin": b"CLD1" + struct.pack("<III", 4, 0, 2) + bytes(8 * 4 * 2),
    "dy0.bin": b"CLD1" + struct.pack("<III", 4, 3, 0) + bytes(8 * 4 * 3),
    "rows0.csv": b"x0,x1,y0\n",
    "y0.csv": b"x0,x1\n1.0,2.0\n",
}


@pytest.mark.parametrize("name", EMPTY_FILES)
def test_file_without_samples_or_columns_exit_1(capsys, tmp_path, name):
    """Both readers share one check: at least one sample, one x column and
    one y column, else a ParseError naming the file."""
    path = tmp_path / name
    path.write_bytes(EMPTY_FILES[name])
    with pytest.raises(ParseError, match=name):
        load(path)
    code, out, err = run(capsys, "spectrum", "--data", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and name in err


NON_ASCII_FILES = {
    "bom.csv": (b"\xef\xbb\xbfx0,y0\n1,2\n2,3\n", 0),
    "latin1.csv": (b"x0,y0\n1,2\n2\xe9,3\n", 11),
}


@pytest.mark.parametrize("name", NON_ASCII_FILES)
def test_non_ascii_csv_exit_1(capsys, tmp_path, name):
    """A CSV is ASCII: a byte-order mark or any other non-ASCII byte is a
    ParseError naming the file and the byte's offset."""
    raw, offset = NON_ASCII_FILES[name]
    path = tmp_path / name
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=f"offset {offset} in .*{name}"):
        load(path)
    code, out, err = run(capsys, "spectrum", "--data", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and name in err


CONTROL_BYTES = [b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e"]


@pytest.mark.parametrize("byte", CONTROL_BYTES)
def test_csv_control_byte_does_not_split_a_row(capsys, tmp_path, byte):
    """A row ends at a newline only: a control byte that str.splitlines would
    break at leaves a ragged row 0, a ParseError naming the file."""
    path = tmp_path / "control.csv"
    path.write_bytes(b"x0,y0\n1,2" + byte + b"2,3\n3,5\n")
    with pytest.raises(ParseError, match=re.escape(f"fields, got 3 in {path}")) as err:
        load(path)
    assert err.value.row == 0
    code, out, err = run(capsys, "spectrum", "--data", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(path) in err


LOOSE_CSV = {  # name: raw bytes, the refused cell (None: a blank line), row, col
    "underscore": (b"x0,y0\n1_0,2\n3,4\n", "1_0", 0, 0),
    "leading_space": (b"x0,y0\n1,2\n 3,5\n", " 3", 1, 0),
    "trailing_space": (b"x0,y0\n1,2\n3,5 \n", "5 ", 1, 1),
    "tab": (b"x0,y0\n1,\t2\n3,5\n", "\t2", 0, 1),
    "vtab": (b"x0,y0\n1,2\n3\v,5\n", "3\v", 1, 0),
    "form_feed": (b"x0,y0\n1,2\x0c\n3,5\n", "2\x0c", 0, 1),
    "lone_cr_at_end": (b"x0,y0\n1,2\n3,5\r", "5\r", 1, 1),
    "blank_line": (b"x0,y0\n1,2\n\n3,5\n", None, 1, None),
    "plus_sign": (b"x0,y0\n+1,2\n.5,1E5\n", "+1", 0, 0),
    "bare_fraction": (b"x0,y0\n1,2\n.5,1E5\n", ".5", 1, 0),
    "trailing_dot": (b"x0,y0\n5.,2\n", "5.", 0, 0),
    "upper_exponent": (b"x0,y0\n1,2\n3,1E5\n", "1E5", 1, 1),
    "dot_exponent": (b"x0,y0\n1,1.e5\n", "1.e5", 0, 1),
    "minus_fraction": (b"x0,y0\n1,2\n-.5,3\n", "-.5", 1, 0),
    "title_nan": (b"x0,y0\n1,NaN\n", "NaN", 0, 1),
    "minus_nan": (b"x0,y0\n1,2\n-nan,3\n", "-nan", 1, 0),
    "infinity": (b"x0,y0\nInfinity,2\n", "Infinity", 0, 0),
    "plus_inf": (b"x0,y0\n1,2\n3,+inf\n", "+inf", 1, 1),
    "crlf": (b"x0,y0\r\n1,2\r\n3,5x\r\n", "5x", 1, 1),
}


@pytest.mark.parametrize("name", LOOSE_CSV)
def test_csv_accepts_only_what_save_writes(capsys, tmp_path, name):
    """A cell is what repr writes, and float() forgives more (padding, digit-group
    underscores, a '+', a bare '.', 'E', 'NaN', 'Infinity'); a blank line is no
    sample. Each is one ParseError naming the file, the row and the column."""
    raw, cell, row, col = LOOSE_CSV[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError) as err:
        load(path)
    if cell is None:
        assert str(err.value) == f"expected 2 fields, got 1 in {path} (row {row})"
    else:
        assert str(err.value) == f"not a number: {cell!r} in {path} (row {row}, col {col})"
    assert (err.value.row, err.value.col) == (row, col)
    code, out, err = run(capsys, "spectrum", "--data", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(path) in err


REFUSED_CSV = {  # every CSV the tests above refuse, and a ragged row
    **{name: raw for name, (raw, *_) in LOOSE_CSV.items()},
    **{name: raw for name, (raw, _) in NON_ASCII_FILES.items()},
    **{f"control_{byte.hex()}": b"x0,y0\n1,2" + byte + b"2,3\n3,5\n" for byte in CONTROL_BYTES},
    "ragged": b"x0,x1,y0\n1.0,2.0,3.0\n1.0,2.0\n",
    "rows0": EMPTY_FILES["rows0.csv"],
    "y0": EMPTY_FILES["y0.csv"],
}


def _refusal(path):
    with pytest.raises(ParseError) as err:
        load(path)
    return str(err.value), err.value.row, err.value.col


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("name", REFUSED_CSV)
def test_csv_refusal_does_not_depend_on_block_size(monkeypatch, tmp_path, name, block):
    """The reader checks and parses the body a block at a time. In blocks of a
    few bytes, each of these files is refused with the message, row, column
    and offset it gets when it fits in one block."""
    path = tmp_path / f"{name}.csv"
    path.write_bytes(REFUSED_CSV[name])
    whole = _refusal(path)
    monkeypatch.setattr(data, "_BLOCK", block)
    assert _refusal(path) == whole


class TestSolveCommand:
    def test_output_is_deterministic(self, capsys, autoencode_csv):
        argv = (
            "solve", "--data", str(autoencode_csv),
            "--beta", "1.5", "--d1", "3", "--learnable-sigma",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["command"] == "solve"
        assert len(doc["decoder_singvals"]) == 3
        assert len(doc["decoder"]) == 4

    def test_random_rotation_keeps_flags_and_singvals(self, capsys, autoencode_csv):
        base = json.loads(
            run(capsys, "solve", "--data", str(autoencode_csv), "--beta", "1.5",
                "--d1", "3", "--learnable-sigma")[1]
        )
        rotated = json.loads(
            run(capsys, "solve", "--data", str(autoencode_csv), "--beta", "1.5",
                "--d1", "3", "--learnable-sigma", "--random-rotation", "7")[1]
        )
        assert rotated["collapse_flags"] == base["collapse_flags"]
        assert rotated["decoder_singvals"] == base["decoder_singvals"]
        assert rotated["predicted_loss"] == base["predicted_loss"]
        assert rotated["decoder"] != base["decoder"]

    def test_missing_beta_exit_2(self, capsys, autoencode_csv):
        code, _, err = run(capsys, "solve", "--data", str(autoencode_csv), "--d1", "2")
        assert code == 2 and "beta" in err


class TestPredictCommand:
    def test_fixed_and_learnable_sections(self, capsys):
        code, out, _ = run(
            capsys, "predict", "--zeta", "5.12,3.74,3.25,2.84,2.57", "--d2", "5",
            "--d1", "5", "--beta", "1.5", "--learnable-sigma", "--learnable-decvar",
        )
        assert code == 0
        doc = json.loads(out)
        fixed = doc["fixed"]
        assert fixed["regime"] == "none"  # beta below every zeta^2
        learnable = doc["learnable"]
        assert learnable["decvar"]["regime"] == "partial_collapse"
        assert learnable["beta_breakpoints"][-1]["regime"] == "complete_collapse"

    @pytest.mark.parametrize(
        "argv",
        [
            ("predict", "--beta", "2"),
            ("sweep", "--beta-grid", "1:2:0.5"),
            ("report", "--beta", "2"),
        ],
    )
    def test_learnable_decvar_needs_learnable_sigma(self, capsys, argv):
        """With pinned stds the learnable-variance answer would be wrong
        (s* = 2.5 printed where fixed-std training reaches 3.125)."""
        code, out, err = run(
            capsys, *argv, "--zeta", "3,2,1", "--d2", "4", "--d1", "3",
            "--learnable-decvar",
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "--learnable-sigma" in err

    def test_zeta_requires_d2(self, capsys):
        code, _, err = run(capsys, "predict", "--zeta", "1.0", "--d1", "1", "--beta", "1")
        assert code == 2 and "--d2" in err

    def test_threshold_beta_reads_complete_and_psd(self, capsys):
        """beta on the top threshold collapses every mode, and the origin
        test says so with a curvature of the same sign."""
        code, out, _ = run(
            capsys, "predict", "--zeta", "3,2,1", "--d2", "3", "--d1", "3", "--beta", "9",
            "--eta-enc", "0.7",
        )
        fixed = json.loads(out)["fixed"]
        assert code == 0 and fixed["regime"] == "complete"
        assert fixed["hessian_psd"] is True and fixed["min_hessian_quadratic"] >= 0

    @pytest.mark.parametrize(
        "argv, psd",
        [
            # ill-posed: the curvature is the s -> 0 limit
            (("--d2", "3", "--beta", "0.5"), False),
            # the predict_boundary golden: the top of the flat interval
            (("--d2", "6", "--beta", "2"), False),
        ],
    )
    def test_learnable_block_ignores_eta_dec(self, capsys, argv, psd):
        """The learnable solver takes no decoder variance from the user, so
        the learnable block reads the same bytes whatever --eta-dec says."""
        blocks = []
        for eta_dec in ("0.5", "1", "10"):
            code, out, _ = run(
                capsys, "predict", "--zeta", "3,2,1", "--d1", "3", *argv, "--learnable-sigma",
                "--learnable-decvar", "--eta-dec", eta_dec,
            )
            assert code == 0
            blocks.append(json.dumps(json.loads(out)["learnable"]))
        assert blocks[0] == blocks[1] == blocks[2]
        assert json.loads(blocks[0])["hessian_psd"] is psd

    def test_zero_spectrum_is_complete(self, capsys):
        code, out, _ = run(capsys, "predict", "--zeta", "0", "--d2", "2", "--d1", "1",
                           "--beta", "1")
        fixed = json.loads(out)["fixed"]
        assert code == 0 and fixed["collapse_flags"] == [True]
        assert fixed["regime"] == "complete" and fixed["hessian_psd"] is True
        code, out, _ = run(capsys, "sweep", "--zeta", "0", "--d2", "2", "--d1", "1",
                           "--beta-grid", "1:2:1")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert code == 0 and [row[3] for row in rows] == ["complete", "complete"]


class TestSweepCommand:
    def test_csv_shape_and_monotone_rank(self, capsys, autoencode_csv):
        code, out, _ = run(
            capsys, "sweep", "--data", str(autoencode_csv), "--d1", "4",
            "--beta-grid", "0.2:3.0:0.2", "--learnable-sigma",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["beta", "loss", "rank", "regime"]
        assert header[4:] == [f"sigma_{i}" for i in range(1, 5)]
        assert len(lines) == 1 + 15
        ranks = [int(line.split(",")[2]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_single_row_grid(self, capsys, autoencode_csv):
        code, out, _ = run(
            capsys, "sweep", "--data", str(autoencode_csv), "--d1", "2",
            "--beta-grid", "1.0:1.0:0.5",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_published_spectrum_learnable_decvar(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--zeta", "5.12,3.74,3.25,2.84,2.57", "--d2", "5",
            "--d1", "5", "--beta-grid", "0.25:6.0:0.25", "--learnable-sigma",
            "--learnable-decvar",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "s_star" in lines[0].split(",")
        ranks = [int(line.split(",")[2]) for line in lines[1:]]
        assert ranks[0] == 5 and ranks[-1] == 0
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_train_columns(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        save(generate(random_spec(3, 3, 300, seed=4)), path)
        cases = [
            ["--data", str(path), "--d1", "2", "--beta-grid", "0.5:1.0:0.5"],
            # a shorter schedule stopped 1.6e-4 relative above the minimum here
            ["--synthetic", "5,5,2000,518590610", "--d1", "5", "--beta-grid", "1.5:1.5:1"],
        ]
        for argv in cases:
            code, out, _ = run(capsys, "sweep", *argv, "--learnable-sigma", "--train")
            assert code == 0
            lines = out.strip().splitlines()
            header = lines[0].split(",")
            assert "train_loss" in header and "train_sigma_1" in header
            for line in lines[1:]:
                cells = dict(zip(header, line.split(",")))
                loss, trained = float(cells["loss"]), float(cells["train_loss"])
                assert abs(trained - loss) <= 1e-4 * abs(loss), argv

    def test_json_format(self, capsys, autoencode_csv):
        code, out, _ = run(
            capsys, "sweep", "--data", str(autoencode_csv), "--d1", "2",
            "--beta-grid", "0.5:1.5:0.5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3

    @pytest.mark.parametrize(
        "grid",
        [
            "0:1:0.5", "nan:1:0.5", "1:inf:0.5", "-1:1:0.5",
            # 1e18 rows: refused before anything is allocated
            "1e-9:1e9:1e-9",
        ],
    )
    def test_bad_grid_exit_2(self, capsys, grid):
        code, out, err = run(
            capsys, "sweep", "--zeta", "3,2,1", "--d2", "3", "--d1", "3",
            f"--beta-grid={grid}",
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "--beta-grid" in err


NEGATIVE_SYNTHETIC_FIELD = {"-1,3,10,1": "d0", "3,-2,10,1": "d2", "3,3,10,-1": "seed"}


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--zeta", "1,2", "--d2", "2", "--beta", "1", "--d1", "2"),
        ("solve", "--zeta", "2,1", "--d2", "1", "--beta", "1", "--d1", "2"),
        ("solve", "--zeta", "2,x", "--d2", "2", "--beta", "1", "--d1", "2"),
        ("solve", "--zeta", "nan,1", "--d2", "2", "--beta", "1", "--d1", "2"),
        ("solve", "--zeta", "inf,1", "--d2", "2", "--beta", "1", "--d1", "2"),
        ("solve", "--zeta", "2,1", "--d2", "2", "--beta=-1", "--d1", "2"),
        ("solve", "--zeta", "2,1", "--d2", "2", "--beta", "inf", "--d1", "2"),
        ("solve", "--zeta", "2,1", "--d2", "2", "--beta", "1", "--d1", "0"),
        ("solve", "--zeta", "2,1", "--d2", "2", "--beta", "1", "--d1", "2", "--eta-enc", "0"),
        ("solve", "--zeta", "2,1", "--d2", "2", "--beta", "1", "--d1", "2", "--eta-dec", "inf"),
        ("solve", "--synthetic", "5,5,x,1", "--beta", "1", "--d1", "2"),
        ("solve", "--synthetic", "3,3,100,1", "--beta", "1", "--d1", "2",
         "--random-rotation=-1"),
        ("sweep", "--zeta", "2,1", "--d2", "2", "--d1", "0", "--beta-grid", "1:2:1"),
        # a step below the spacing of floats near lo repeats lo
        ("sweep", "--zeta", "2,1", "--d2", "2", "--d1", "2",
         "--beta-grid", "1:1.000000000000001:1e-17"),
        ("train", "--synthetic", "3,3,100,1", "--beta", "1", "--d1", "2", "--lr=-1"),
        ("train", "--synthetic", "3,3,100,1", "--beta", "1", "--d1", "2", "--lr", "inf",
         "--max-steps", "5"),
        ("train", "--synthetic", "3,3,100,1", "--beta", "1", "--d1", "2",
         "--grad-tol", "nan", "--max-steps", "5"),
        ("train", "--synthetic", "3,3,100,1", "--beta", "1", "--d1", "2",
         "--grad-tol=-1", "--max-steps", "5"),
        ("spectrum", "--synthetic", "0,5,10,1"),
        ("spectrum", "--synthetic", "3,0,10,1"),
        # negative fields are refused before anything is allocated
        ("spectrum", "--synthetic=-1,3,10,1"),
        ("spectrum", "--synthetic", "3,-2,10,1"),
        ("spectrum", "--synthetic", "3,3,10,-1"),
        # an eta whose square underflows or overflows
        ("train", "--synthetic", "3,3,100,1", "--beta", "1", "--d1", "2",
         "--eta-enc", "1e-200", "--max-steps", "5"),
        ("train", "--synthetic", "3,3,100,1", "--beta", "1", "--d1", "2",
         "--eta-dec", "1e200", "--max-steps", "5"),
        # finite inputs whose squares overflow: no warning before the error
        ("solve", "--zeta", "1e200,1", "--d2", "2", "--beta", "1", "--d1", "2"),
        ("train", "--synthetic", "3,3,100,1", "--beta", "1", "--d1", "2", "--lr", "1e200",
         "--max-steps", "5"),
        # one Adam step puts both stds near 1.2e308, so their squares' sum overflows
        ("train", "--synthetic", "3,3,100,1", "--beta", "1", "--d1", "2", "--learnable-sigma",
         "--eta-enc", "10", "--lr", "354.7"),
        # a huge step drives the learnable decoder variance to exactly zero
        ("train", "--synthetic", "3,3,100,1", "--beta", "0.2", "--d1", "3", "--learnable-decvar",
         "--learnable-sigma", "--lr", "1e5", "--max-steps", "300"),
        # sizes the machine cannot allocate: numpy refuses 10**15 float64s before
        # touching memory (10**8 would allocate gigabytes before it failed)
        ("solve", "--zeta", "3,2,1", "--d2", "3", "--beta", "1", "--d1", "1000000000000000"),
        ("sweep", "--zeta", "3,2,1", "--d2", "3", "--d1", "1000000000000000",
         "--beta-grid", "1:2:1"),
        ("spectrum", "--synthetic", "2,2,1000000000000000,1"),
    ],
)
def test_bad_argument_exit_2(capsys, argv):
    """A bad option value is invalid input: exit 2 with one line on
    stderr (so no warning either) and nothing on stdout, never a
    traceback or NaN output."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    field = NEGATIVE_SYNTHETIC_FIELD.get(argv[-1].removeprefix("--synthetic="))
    if field:
        assert "--synthetic" in err and f" {field} " in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--synthetic", "5,5,2000,42"),
        ("solve", "--zeta", "2,1", "--d2", "2", "--beta", "1", "--d1", "2"),
        ("predict", "--zeta", "2,1", "--d2", "2", "--beta", "1", "--d1", "2"),
        ("train", "--synthetic", "3,3,100,1", "--beta", "1", "--d1", "2"),
        ("report", "--zeta", "2,1", "--d2", "2", "--beta", "1", "--d1", "2"),
    ],
)
def test_format_only_on_sweep(capsys, argv):
    """Only sweep has two formats; elsewhere --format is an unknown option."""
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--format", "json"])
    assert exited.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_non_finite_json_exit_2(capsys, monkeypatch):
    """JSON is written strictly: a non-finite float is an error, never
    ``NaN`` in the output."""
    compute = cli.compute_spectrum
    monkeypatch.setattr(
        cli, "compute_spectrum", lambda ds: replace(compute(ds), target_power=float("nan"))
    )
    code, out, err = run(capsys, "spectrum", "--synthetic", "3,3,50,1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestTrainCommand:
    def test_gd_rejects_a_trial_that_zeroes_the_decvar(self, capsys):
        """A line-search trial that drives the decoder variance to exactly 0
        has loss +inf: it is rejected and the step halved, the run goes on."""
        code, out, err = run(
            capsys, "train", "--synthetic", "3,3,100,1", "--beta", "0.2", "--d1", "3",
            "--learnable-decvar", "--learnable-sigma", "--optimizer", "gd", "--lr", "1e5",
            "--max-steps", "300",
        )
        assert code == 0 and err == ""

        def refuse(constant):
            raise ValueError(f"non-finite {constant} in the output")

        doc = json.loads(out, parse_constant=refuse)
        assert doc["decvar"] > 0 and math.isfinite(doc["final_loss"])

    def test_train_json_and_trace(self, capsys, tmp_path):
        ds = generate(random_spec(3, 3, 300, seed=6))
        path = tmp_path / "d.bin"
        save(ds, path)
        trace = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "train", "--data", str(path), "--beta", "1.0", "--d1", "2",
            "--learnable-sigma", "--max-steps", "500", "--trace", str(trace),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "train"
        assert np.isfinite(doc["final_loss"])
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 2 + int(doc["steps"])  # header + init + per step

    def test_same_argv_same_bytes(self, capsys):
        argv = ("train", "--synthetic", "4,3,200,8", "--beta", "1.5", "--d1", "3",
                "--learnable-sigma", "--learnable-decvar", "--max-steps", "300", "--seed", "2")
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first[0] == 0 and first == second


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, out, _ = run(
            capsys, "verify", "--instances", "3", "--seed", "5", "--out", str(out_path)
        )
        assert code == 0
        assert "ALL PASS" in out
        doc = json.loads(out_path.read_text())
        assert (doc["schema"], doc["command"], doc["all_passed"]) == (
            "collapse-lab/v1", "verify", True
        )
        assert len(doc["rows"]) == 3

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        runs = []
        for name in ("a.json", "b.json"):
            argv = ("verify", "--instances", "1", "--learnable-decvar", "--seed", "5",
                    "--out", str(tmp_path / name))
            runs.append((run(capsys, *argv), (tmp_path / name).read_bytes()))
        assert runs[0][0][0] == 0 and runs[0] == runs[1]

    def test_zero_instances_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--instances", "0")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "--instances" in err

    def test_beta_error_hook_detected(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--instances", "2", "--seed", "5",
            "--inject-beta-error", "1.4",
        )
        assert code == 3
        assert "FAIL" in out


class TestReportCommand:
    def test_sections_present(self, capsys, autoencode_csv):
        code, out, _ = run(
            capsys, "report", "--data", str(autoencode_csv), "--beta", "1.0",
            "--d1", "3", "--learnable-sigma", "--learnable-decvar",
        )
        assert code == 0
        doc = json.loads(out)
        for key in ("spectrum", "solution", "collapse", "collapse_learnable_decvar",
                    "beta_breakpoints"):
            assert key in doc

    def test_out_file(self, capsys, autoencode_csv, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "report", "--data", str(autoencode_csv), "--beta", "1.0",
            "--d1", "2", "--out", str(out_path),
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["schema"] == "collapse-lab/v1"
