import json

import pytest

import run
from conftest import ROOT
from spans import Tracer
from workloads import CliCold, OracleVerify

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_end_to_end_metrics_match_the_spec(tmp_path):
    res = run.PassResult(ops=[run.Op(1.0, 3, True, 50.0, "verify"),
                              run.Op(0.5, 0, True, 25.0, "verify")], wall=2.0)
    for wl in (OracleVerify(1, tmp_path, tmp_path), CliCold(1, tmp_path, tmp_path)):
        metrics = run.end_to_end(wl, res, [1.0, 2.0, 3.0])
        assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
        assert metrics["setup_s"][0] == 2.0
    assert run.end_to_end(OracleVerify(1, tmp_path, tmp_path), res, [1.0])[
        "work_per_ref"][0] == pytest.approx(3 / 75.0)


def test_cli_work_per_ref_takes_each_command_at_its_median(tmp_path):
    ops = [run.Op(1.0, 1, True, units, cmd) for cmd, units in
           [("a", 4.0), ("b", 6.0), ("a", 4.0), ("b", 6.0), ("a", 40.0), ("b", 6.0)]]
    assert CliCold(1, tmp_path, tmp_path).work_per_ref(ops) == pytest.approx(2 / 10.0)


def test_per_layer_metrics_match_the_spec():
    plain, traced = run.PassResult(wall=1.0), run.PassResult(wall=1.0)
    metrics = run.per_layer(plain, traced, Tracer(), 0.5, 1)
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_ref_timer_divides_each_stretch_by_its_own_probe():
    now = [0.0]
    probes = iter([0.5, 2.0, 1.0])

    def probe():
        ref = next(probes)
        now[0] += ref  # probe time is not command time
        return ref

    timer = run.RefTimer(probe, every_s=1.0, clock=lambda: now[0])
    timer.start()  # probe 0.5
    now[0] += 0.5
    timer.split()  # too soon: no probe
    now[0] += 1.0
    timer.split()  # 1.5 s at probe 0.5, then probe 2.0
    now[0] += 4.0
    assert timer.stop() == (5.5, pytest.approx(1.5 / 0.5 + 4.0 / 2.0))
    timer.start()  # probe 1.0
    now[0] += 2.0
    assert timer.stop() == (2.0, 2.0)
    assert timer.samples == [0.5, 2.0, 1.0]
