"""The benchmark workloads, their output checks and the meter.

A workload turns the benchmark seed into a stream of ``collapse-lab``
argument lists (grouped in rounds) and checks each command's output. The
seed is the only source of inputs; the program only sees the arguments
and files generated from it.

- ``oracle-verify``: ``verify --instances 3 --learnable-decvar`` with a
  fresh seed per call. The gradient-descent oracle takes nearly all the
  time; the three instances cover each latent-width class.
- ``sweep-train``: ``sweep ... --train`` over 40 betas of one spectrum, a
  fresh synthetic dataset per call. Same trainer, used row by row.
- ``cli-cold``: a fixed round of five commands, each in a fresh process,
  where start-up, the CSV reader and the closed forms do the work.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path

from stats import ErrorCount

# (module, function) pairs timed by the traced run; spans are named
# "<module>.<function>"
LAYERS = (
    ("cli", "main"),
    ("verify", "run_oracle_suite"),
    ("trainer", "train"),
    ("trainer", "eval_loss"),
    ("trainer", "eval_grad"),
    ("closed_form", "global_minimum"),
    ("closed_form", "optimal_sigma"),
    ("decoder_variance", "solve_decoder_variance"),
    ("decoder_variance", "profile_loss"),
    ("decoder_variance", "beta_breakpoints"),
    ("collapse", "beta_sweep"),
    ("collapse", "predict"),
    ("data", "load"),
    ("data", "generate"),
    ("data", "center"),
    ("spectrum", "compute_spectrum"),
)

SWEEP_REL_TOL = 1e-4
CHILD_TIMEOUT_S = 120


class StopRun(Exception):
    """Raised by the meter before a ``train`` call the run has no time for."""


class Meter:
    """Counts the work wrapped calls report and can stop a run.

    Installed in untraced and traced passes alike: it wraps ``train``,
    ``beta_sweep`` and ``load`` only, each of which runs for milliseconds
    or more per call, so its cost does not show in the timings. Before
    each ``train`` call it checks the deadline and calls ``before_train``
    (the run's reference timer) if set.
    """

    def __init__(self, clock):
        self.clock = clock
        self.counts: dict[str, float] = defaultdict(float)
        self.deadline: float | None = None
        self.before_train = None

    def reset(self, deadline=None, before_train=None) -> None:
        self.counts = defaultdict(float)
        self.deadline = deadline
        self.before_train = before_train

    def _train(self, func):
        def metered(*args, **kwargs):
            if self.deadline is not None and self.clock() >= self.deadline:
                raise StopRun
            if self.before_train is not None:
                self.before_train()
            result = func(*args, **kwargs)
            self.counts["train.calls"] += 1
            self.counts["train.steps"] += result.steps
            self.counts["train.converged"] += bool(result.converged)
            return result

        return metered

    def _beta_sweep(self, func):
        def metered(*args, **kwargs):
            rows = func(*args, **kwargs)
            self.counts["beta_sweep.rows"] += len(rows)
            return rows

        return metered

    def _load(self, func):
        def metered(path, *args, **kwargs):
            ds = func(path, *args, **kwargs)
            self.counts["load.bytes"] += os.path.getsize(path)
            return ds

        return metered

    def install(self, patches, modules, pkg) -> None:
        patches.replace(modules, pkg.trainer.train, self._train(pkg.trainer.train))
        patches.replace(
            modules, pkg.collapse.beta_sweep, self._beta_sweep(pkg.collapse.beta_sweep)
        )
        patches.replace(modules, pkg.data.load, self._load(pkg.data.load))


# ---------------------------------------------------------------- checks


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name} in JSON")


def strict_json(text: str):
    """Parse RFC 8259 JSON; NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def check_verify(rc: int, doc_text: str | None, instances: int) -> tuple[int, int]:
    """One attempt per instance; an instance fails unless it passed. An
    unreadable document or an exit code other than 0/3 fails them all."""
    try:
        rows = strict_json(doc_text)["rows"]
        passed = [bool(r["passed"]) for r in rows]
    except (TypeError, ValueError, KeyError):
        return instances, instances
    if len(passed) != instances or rc != (0 if all(passed) else 3):
        return instances, instances
    return instances, passed.count(False)


def sweep_header(d1: int, learnable_decvar: bool, trained: bool) -> list[str]:
    header = ["beta", "loss", "rank", "regime"]
    if learnable_decvar:
        header.append("s_star")
    header += [f"sigma_{i + 1}" for i in range(d1)]
    if trained:
        header += ["train_loss"] + [f"train_sigma_{i + 1}" for i in range(d1)]
    return header


def check_sweep_csv(
    rc: int, text: str, d1: int, n_rows: int, learnable_decvar: bool, trained: bool
) -> tuple[int, int]:
    """One attempt per expected row. The output must carry the expected
    header and row count; with ``trained``, every row whose analytic loss
    is finite must have a trained loss within 1e-4 relative of it."""
    lines = text.splitlines()
    header = sweep_header(d1, learnable_decvar, trained)
    if rc != 0 or not lines or lines[0].split(",") != header or len(lines) != n_rows + 1:
        return n_rows, n_rows
    if not trained:
        return n_rows, 0
    col_loss, col_train = header.index("loss"), header.index("train_loss")
    failed = 0
    for line in lines[1:]:
        cells = line.split(",")
        try:
            loss, train_loss = float(cells[col_loss]), float(cells[col_train])
        except (IndexError, ValueError):
            failed += 1
            continue
        if math.isfinite(loss) and not abs(train_loss - loss) <= SWEEP_REL_TOL * abs(loss):
            failed += 1
    return n_rows, failed


def check_json_command(rc: int, text: str) -> tuple[int, int]:
    try:
        strict_json(text)
    except ValueError:
        return 1, 1
    return 1, int(rc != 0)


# ------------------------------------------------------------- workloads


class Workload:
    """Base: ``next_round`` gives the next list of argument lists;
    ``check`` scores one finished command and adds to ``errors``."""

    name = ""
    in_process = True
    work_unit = "optimizer step"
    # (prefix, item name, call name, items per call) of the per-call figures
    figures: tuple = ()

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.warm_seed = self.rng.randrange(2**31)
        self.root = root
        self.workdir = workdir

    def setup(self, pkg) -> None:
        """Generate inputs that outlive one command (files)."""

    def warm_up(self, run_cli) -> None:
        run_cli(["train", "--synthetic", f"3,3,200,{self.warm_seed}", "--beta", "1",
                 "--d1", "2", "--max-steps", "50"])

    def next_round(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, argv, rc: int, stdout: str, errors: ErrorCount) -> None:
        raise NotImplementedError

    def work_per_ref(self, ops) -> float:
        """Work per unit of reference-probe time, over the whole run."""
        return sum(op.work for op in ops) / sum(op.ref_units for op in ops)


class OracleVerify(Workload):
    name = "oracle-verify"
    instances = 3
    figures = ("verify", "instances", "call_s", instances)

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.out = workdir / "verify.json"

    def next_round(self):
        s = self.rng.randrange(2**31)
        return [["verify", "--instances", str(self.instances), "--learnable-decvar",
                 "--seed", str(s), "--out", str(self.out)]]

    def check(self, argv, rc, stdout, errors):
        try:
            doc = self.out.read_text(encoding="utf-8")
            self.out.unlink()  # so a later call that writes nothing fails
        except OSError:
            doc = None
        errors.add(*check_verify(rc, doc, self.instances))


class SweepTrain(Workload):
    name = "sweep-train"
    d1 = 5
    n_rows = 40  # --beta-grid 0.5:20:0.5
    figures = ("sweep_train", "rows", "call_s", n_rows)

    def next_round(self):
        s = self.rng.randrange(2**31)
        return [["sweep", "--synthetic", f"5,5,2000,{s}", "--d1", str(self.d1),
                 "--learnable-sigma", "--beta-grid", "0.5:20:0.5", "--train"]]

    def check(self, argv, rc, stdout, errors):
        errors.add(*check_sweep_csv(rc, stdout, self.d1, self.n_rows, False, True))


class CliCold(Workload):
    name = "cli-cold"
    in_process = False
    work_unit = "command"
    figures = ("cli", "commands", "command_s", 1)
    csv_rows = 20000
    csv_dims = (16, 16)
    sweep_d1 = 8
    sweep_rows = 4000  # --beta-grid 0.01:40:0.01

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.csv = workdir / "data.csv"
        r = self.rng
        zeta = sorted((r.uniform(0.2, 3.0) for _ in range(6)), reverse=True)
        beta = repr(r.uniform(0.2, 4.0))
        self.csv_seed = r.randrange(2**31)
        csv = str(self.csv)
        self.round = [
            ["predict", "--zeta", ",".join(map(repr, zeta)), "--d2", "8", "--beta", beta,
             "--d1", "6", "--learnable-sigma", "--learnable-decvar"],
            ["spectrum", "--data", csv],
            ["report", "--data", csv, "--beta", beta, "--d1", "8", "--learnable-sigma",
             "--learnable-decvar"],
            ["solve", "--synthetic", f"8,6,5000,{r.randrange(2**31)}", "--beta", beta,
             "--d1", "6", "--learnable-sigma"],
            ["sweep", "--synthetic", f"8,8,20000,{r.randrange(2**31)}", "--d1",
             str(self.sweep_d1), "--learnable-sigma", "--learnable-decvar",
             "--beta-grid", "0.01:40:0.01"],
        ]
        self.first_output: dict[tuple, str] = {}

    def setup(self, pkg):
        d0, d2 = self.csv_dims
        spec = pkg.data.random_spec(d0, d2, n_samples=self.csv_rows, seed=self.csv_seed)
        pkg.data.save(pkg.data.generate(spec), self.csv)

    def warm_up(self, run_cli):
        """Nothing to run: the set-up process has imported collapse_lab.cli,
        which fills the file cache and the bytecode cache a cold command reads."""

    def next_round(self):
        return self.round

    def work_per_ref(self, ops) -> float:
        """Commands per probe unit in one round, each command costed at its
        median over the run's rounds. Each command is a fresh process whose
        time varies by tens of percent from one run to the next; the
        median keeps one slow process from moving the figure."""
        costs = defaultdict(list)
        for op in ops:
            costs[op.command].append(op.ref_units)
        return len(costs) / sum(statistics.median(c) for c in costs.values())

    def check(self, argv, rc, stdout, errors):
        if argv[0] == "sweep":
            attempted, failed = check_sweep_csv(rc, stdout, self.sweep_d1, self.sweep_rows,
                                                True, False)
            attempted, failed = 1, int(failed > 0)
        else:
            attempted, failed = check_json_command(rc, stdout)
        # identical invocations must print identical bytes
        if self.first_output.setdefault(tuple(argv), stdout) != stdout:
            failed = 1
        errors.add(attempted, failed)


WORKLOADS = {w.name: w for w in (OracleVerify, SweepTrain, CliCold)}


# ------------------------------------------------------------- processes


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(args: list[str], root: Path) -> tuple[int, str, int]:
    """Run ``python <args>`` from ``root`` with its ``src`` importable.

    Returns (exit code, stdout, peak RSS in KiB of this child alone). The
    child is reaped with ``wait4`` for its own rusage, and killed if it
    outlives ``CHILD_TIMEOUT_S``. Its stderr goes to the parent's stderr.
    """
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=root, env=child_env(root),
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss
