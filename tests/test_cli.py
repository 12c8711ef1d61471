import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import collapse_lab
from collapse_lab.cli import main
from collapse_lab.data import Dataset, generate, random_spec, replace_targets, save


@pytest.fixture
def autoencode_csv(tmp_path):
    ds = generate(random_spec(4, 4, 500, seed=8))
    ds = replace_targets(ds, ds.x)
    path = tmp_path / "auto.csv"
    save(ds, path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ds = replace_targets(ds, np.zeros((100, 2)))
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

    @pytest.mark.parametrize("grid", ["0:1:0.5", "nan:1:0.5", "1:inf:0.5", "-1:1:0.5"])
    def test_bad_grid_exit_2(self, capsys, grid):
        code, out, err = run(
            capsys, "sweep", "--zeta", "3,2,1", "--d2", "3", "--d1", "3",
            f"--beta-grid={grid}",
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "--beta-grid" in err


class TestTrainCommand:
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


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--instances", "3", "--seed", "5")
        assert code == 0
        assert "ALL PASS" in out

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
