"""CLI outputs pinned against recorded goldens.

Each case runs ``collapse_lab.cli.main`` in process, expects an empty
stderr and compares its stdout with ``tests/golden/<name>.out``.
Identical bytes pass at once. Otherwise both texts are parsed (JSON, or
CSV for ``sweep``) and must have the same structure and the same
non-float tokens, with every float within ``1e-12 * max(1, |golden|)``
of the golden one.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from collapse_lab.cli import main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

SYNTH = ["--synthetic", "5,5,2000,42"]
PAPER_ZETA = ["--zeta", "5.12,3.74,3.25,2.84,2.57", "--d2", "5"]
PAPER_SWEEP = [
    "sweep", *PAPER_ZETA, "--learnable-sigma", "--learnable-decvar",
    "--beta-grid", "0.25:6.0:0.25",
]
ETAS = ["--eta-enc", "0.7", "--eta-dec", "1.3"]
BEYOND_RANK = ["--synthetic", "3,4,500,7", "--d1", "5"]
TRAIN_SHORT = [
    "train", *SYNTH, "--beta", "2", "--d1", "5", "--learnable-sigma",
    "--max-steps", "200", "--seed", "3",
]

CASES = {
    # README examples (sweep printed to stdout instead of --out)
    "readme_spectrum": ["spectrum", *SYNTH],
    "readme_solve": ["solve", *SYNTH, "--beta", "2", "--d1", "5", "--learnable-sigma"],
    "readme_sweep": [
        "sweep", *SYNTH, "--d1", "5", "--learnable-sigma", "--beta-grid", "0.5:20:0.5",
    ],
    "readme_report": [
        "report", *SYNTH, "--beta", "2", "--d1", "5", "--learnable-sigma",
        "--learnable-decvar",
    ],
    # encoder stds pinned at the prior
    "solve_fixed_sigma": ["solve", *SYNTH, "--beta", "2", "--d1", "5"],
    "solve_fixed_sigma_rotated": [
        "solve", *SYNTH, "--beta", "2", "--d1", "5", "--random-rotation", "3",
    ],
    # learnable decoder variance: boundary regime, and all five regimes
    "predict_boundary": [
        "predict", "--zeta", "3,2,1", "--d2", "6", "--d1", "3", "--beta", "2",
        "--learnable-sigma", "--learnable-decvar",
    ],
    "sweep_paper_d1_5_csv": [*PAPER_SWEEP, "--d1", "5"],
    "sweep_paper_d1_5_json": [*PAPER_SWEEP, "--d1", "5", "--format", "json"],
    "sweep_paper_d1_3_csv": [*PAPER_SWEEP, "--d1", "3"],
    "sweep_paper_d1_3_json": [*PAPER_SWEEP, "--d1", "3", "--format", "json"],
    # latent width beyond the data rank
    "solve_beyond_rank": ["solve", *BEYOND_RANK, "--beta", "1", "--learnable-sigma"],
    "report_beyond_rank": [
        "report", *BEYOND_RANK, "--beta", "1", "--learnable-sigma", "--learnable-decvar",
    ],
    # sweeps past the data rank: the none regime, zero-padded modes and,
    # with a learnable decoder variance, ill-posed rows
    "sweep_beyond_rank": [
        "sweep", *BEYOND_RANK, "--learnable-sigma", "--beta-grid", "0.05:4:0.05",
    ],
    "sweep_beyond_rank_decvar": [
        "sweep", *BEYOND_RANK, "--learnable-sigma", "--learnable-decvar",
        "--beta-grid", "0.05:4:0.05",
    ],
    # stds pinned at the prior across all three fixed-variance regimes
    "sweep_pinned_json": [
        "sweep", "--synthetic", "8,8,2000,91", "--d1", "3", "--beta-grid", "0.1:12:0.1",
        "--format", "json",
    ],
    # non-default prior and decoder scales
    "solve_etas": ["solve", *SYNTH, "--beta", "2", "--d1", "5", "--learnable-sigma", *ETAS],
    "predict_etas": ["predict", *PAPER_ZETA, "--d1", "5", "--beta", "1.5", *ETAS],
    "sweep_etas_fixed_sigma": [
        "sweep", *SYNTH, "--d1", "5", "--beta-grid", "0.5:10:0.5", *ETAS,
    ],
    # short, fully deterministic training runs, one per model extension
    "train_short": [*TRAIN_SHORT],
    "train_gd": [*TRAIN_SHORT, "--optimizer", "gd", "--lr", "0.05"],
    "train_bias": [*TRAIN_SHORT, "--bias"],
    "train_ddv": [*TRAIN_SHORT, "--ddv"],
    "train_learnable_decvar": [*TRAIN_SHORT, "--learnable-decvar"],
}

_FLOAT = re.compile(r"-?(?:nan|inf|\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)")


def run_case(name: str, capsys) -> str:
    code = main(list(CASES[name]))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    return captured.out


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return [
            [float(c) if _FLOAT.fullmatch(c) else c for c in line.split(",")]
            for line in text.splitlines()
        ]


def _assert_close(got, want, where: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        if got == want or (math.isnan(got) and math.isnan(want)):
            return
        assert abs(got - want) <= REL_TOL * max(1.0, abs(want)), (
            f"{where}: {got!r} vs golden {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, capsys):
    got = run_case(name, capsys)
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if got != want:
        _assert_close(_parse(got), _parse(want), "$")


def test_comparison_rejects_a_moved_float():
    want = _parse('{"a": [1.0, "x", 2]}')
    _assert_close(_parse('{"a": [1.0000000000001, "x", 2]}'), want, "$")
    with pytest.raises(AssertionError):
        _assert_close(_parse('{"a": [1.000000000002, "x", 2]}'), want, "$")
    with pytest.raises(AssertionError):
        _assert_close(_parse('{"a": [1.0, "y", 2]}'), want, "$")
    with pytest.raises(AssertionError):
        _assert_close(_parse("beta,loss\n1.0,nan\n"), _parse("beta,loss\n1.0,2.0\n"), "$")
