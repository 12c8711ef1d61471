import json

import pytest

from stats import ErrorCount
from workloads import (
    CliCold,
    OracleVerify,
    SweepTrain,
    check_json_command,
    check_sweep_csv,
    check_verify,
    strict_json,
    sweep_header,
)


def verify_doc(*passed):
    return json.dumps({"all_passed": all(passed), "rows": [{"passed": p} for p in passed]})


def test_verify_counts_each_failed_instance():
    assert check_verify(0, verify_doc(True, True, True), 3) == (3, 0)
    assert check_verify(3, verify_doc(True, False, True), 3) == (3, 1)


@pytest.mark.parametrize(
    "rc, doc",
    [
        (0, verify_doc(True, False, True)),  # exit code disagrees with the rows
        (3, verify_doc(True, True, True)),
        (1, verify_doc(True, True, True)),
        (0, verify_doc(True, True)),  # wrong instance count
        (0, None),  # no document written
        (0, "{not json"),
        (0, '{"rows": [{"passed": true}], "x": NaN}'),
    ],
)
def test_verify_failures_fail_every_instance(rc, doc):
    assert check_verify(rc, doc, 3) == (3, 3)


def sweep_csv(rows, trained=True, d1=2):
    lines = [",".join(sweep_header(d1, False, trained))]
    for loss, train_loss in rows:
        cells = ["1.0", repr(loss), "1", "partial"] + ["1.0"] * d1
        if trained:
            cells += [repr(train_loss)] + ["1.0"] * d1
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_sweep_counts_rows_off_the_analytic_loss():
    text = sweep_csv([(2.0, 2.0 * (1 + 5e-5)), (2.0, 2.0 * (1 + 2e-4)), (3.0, 3.0)])
    assert check_sweep_csv(0, text, 2, 3, False, True) == (3, 1)


def test_sweep_skips_rows_without_a_finite_analytic_loss():
    text = sweep_csv([(float("nan"), 5.0), (1.0, 1.0)])
    assert check_sweep_csv(0, text, 2, 2, False, True) == (2, 0)


@pytest.mark.parametrize(
    "rc, text",
    [
        (2, sweep_csv([(1.0, 1.0)])),  # non-zero exit
        (0, sweep_csv([(1.0, 1.0)]).replace("train_loss", "trained")),  # header
        (0, sweep_csv([(1.0, 1.0), (1.0, 1.0)])),  # row count
        (0, ""),
    ],
)
def test_sweep_output_that_does_not_parse_fails_every_row(rc, text):
    assert check_sweep_csv(rc, text, 2, 1, False, True) == (1, 1)


def test_json_command_is_strict():
    assert check_json_command(0, '{"a": 1.5}') == (1, 0)
    assert check_json_command(2, '{"a": 1.5}') == (1, 1)
    for bad in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}', "", "[1,"):
        assert check_json_command(0, bad) == (1, 1)
    with pytest.raises(ValueError):
        strict_json('{"a": NaN}')


def test_cli_repeats_must_be_byte_identical(tmp_path):
    wl = CliCold(1, tmp_path, tmp_path)
    predict = wl.round[0]
    errors = ErrorCount()
    wl.check(predict, 0, '{"a": 1}\n', errors)
    wl.check(predict, 0, '{"a": 1}\n', errors)
    wl.check(predict, 0, '{"a":  1}\n', errors)
    assert (errors.attempted, errors.failed) == (3, 1)


def test_workload_inputs_follow_the_seed(tmp_path):
    assert CliCold(5, tmp_path, tmp_path).round == CliCold(5, tmp_path, tmp_path).round
    assert CliCold(5, tmp_path, tmp_path).round != CliCold(6, tmp_path, tmp_path).round


def test_sweep_check_is_two_sided():
    # a trained loss far above the analytic loss is the usual symptom of
    # an optimizer that stalls; one below it means a wrong closed form
    text = sweep_csv([(2.0, 2.5), (2.0, 1.5), (2.0, 2.0 * (1 - 5e-5))])
    assert check_sweep_csv(0, text, 2, 3, False, True) == (3, 2)


def test_sweep_train_scores_every_row(tmp_path):
    wl = SweepTrain(1, tmp_path, tmp_path)
    (argv,) = wl.next_round()
    rows = [(1.0, 1.0)] * (wl.n_rows - 1) + [(1.0, 3.0)]
    text = sweep_csv(rows, d1=wl.d1)
    errors = ErrorCount()
    wl.check(argv, 0, text, errors)
    assert (errors.attempted, errors.failed) == (wl.n_rows, 1)


def test_oracle_verify_reads_and_removes_its_report(tmp_path):
    wl = OracleVerify(1, tmp_path, tmp_path)
    (argv,) = wl.next_round()
    assert argv[argv.index("--out") + 1] == str(wl.out)
    errors = ErrorCount()
    wl.out.write_text(verify_doc(True, False, True))
    wl.check(argv, 3, "", errors)
    assert not wl.out.exists()
    wl.check(argv, 0, "", errors)  # a call that wrote no report fails every instance
    assert (errors.attempted, errors.failed) == (6, 4)
