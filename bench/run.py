"""Benchmark entry point for collapse-lab.

Run from the root of a source checkout:

    python3 bench/run.py --workload sweep-train --seed 1 --seconds 30 --trace 0

One closed-loop client keeps one command in flight. With ``--trace 0``
the run measures the end-to-end metrics; with ``--trace 1`` it runs the
same command stream twice in process, untraced and then traced, and
reports per-layer metrics and the tracing overhead. The last line of
stdout is the result as one JSON object; the line before it holds the
workload's own figures, the sample counts and the machine facts. See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Patches, Tracer, layer_stats, package_modules, root_coverage, write_spans
from stats import ErrorCount, tail
from workloads import LAYERS, WORKLOADS, Meter, StopRun, run_python

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_ROOT_COVERAGE = 0.95
REF_ITERATIONS = 2000  # about 20 ms
PROBE_EVERY_S = 0.5
_ref_rng = np.random.default_rng(0)
REF_A, REF_B = _ref_rng.standard_normal((2, 5, 5))
REF_V = _ref_rng.standard_normal(5)
REFERENCE_CHILD = (
    "import numpy as np\n"
    "a, b = np.random.default_rng(0).standard_normal((2, 5, 5)); v = a[0]\n"
    f"for _ in range({REF_ITERATIONS}):\n"
    "    c = a @ b.T; float(np.sum(c * a)); np.exp(v); float(v @ v)\n"
)
clock = time.perf_counter


@dataclass
class Op:
    seconds: float
    work: float
    complete: bool
    ref_units: float = 0.0  # ``seconds`` in reference-probe units
    command: str = ""


class RefTimer:
    """Times commands in units of a reference probe.

    The probe runs when a command starts and, if ``every_s`` is set, again
    at the first ``train`` call after ``every_s`` seconds of command time.
    Each stretch of command time is divided by the probe taken just before
    it, so the machine's speed drift inside a long command cancels out.
    Probe time is not command time.
    """

    def __init__(self, probe, every_s=None, clock=time.perf_counter):
        self.probe = probe
        self.every_s = every_s
        self.clock = clock
        self.samples: list[float] = []

    def start(self) -> None:
        self.seconds = self.ref_units = 0.0
        self._probe()

    def split(self) -> None:
        if self.every_s is not None and self.clock() - self.mark >= self.every_s:
            self._close()
            self._probe()

    def stop(self) -> tuple[float, float]:
        """(command seconds, the same in probe units) since ``start``."""
        self._close()
        return self.seconds, self.ref_units

    def _probe(self) -> None:
        self.ref = self.probe()
        self.samples.append(self.ref)
        self.mark = self.clock()

    def _close(self) -> None:
        dt = self.clock() - self.mark
        self.seconds += dt
        self.ref_units += dt / self.ref


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    wall: float = 0.0
    errors: ErrorCount = field(default_factory=ErrorCount)
    counts: dict = field(default_factory=dict)
    child_rss_kib: int = 0

    def add(self, other: "PassResult") -> None:
        self.ops += other.ops
        self.wall += other.wall
        self.errors.add(other.errors.attempted, other.errors.failed)
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.child_rss_kib = max(self.child_rss_kib, other.child_rss_kib)


def run_in_process(pkg, argv) -> tuple[int, str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.main(argv)  # looked up per call, so wrappers apply
    return rc, buf.getvalue(), 0


def reference_loop() -> float:
    """Seconds taken by a fixed loop of small numpy operations, like the
    trainer's but not the program's: a probe of the machine's speed."""
    a, b, v = REF_A, REF_B, REF_V
    t = clock()
    for _ in range(REF_ITERATIONS):
        c = a @ b.T
        float(np.sum(c * a))
        np.exp(v)
        float(v @ v)
    return clock() - t


def reference_process(root) -> float:
    """Wall time of a fresh interpreter that imports numpy and runs the
    reference loop: the probe for commands that run in fresh processes."""
    return timed_child(["-c", REFERENCE_CHILD], root)[0]


def run_pass(wl, execute, meter, rounds, deadline_s=None, tracer=None,
             timer=None) -> PassResult:
    """Run rounds of commands until ``deadline_s`` has passed (checked
    between rounds and, for the trainer, before each ``train`` call once
    one command has finished) or until ``rounds`` runs out. A ``timer``,
    if given, also times each command in reference-probe units."""
    res = PassResult()
    steps_are_work = wl.work_unit == "optimizer step"
    meter.reset(before_train=timer and timer.split)
    t0 = clock()
    deadline = None if deadline_s is None else t0 + deadline_s
    stopped = False
    for rnd in rounds:
        if stopped or (deadline is not None and clock() >= deadline):
            break
        for argv in rnd:
            steps0 = meter.counts["train.steps"]
            if tracer is not None:
                tracer.begin_op()
            if timer is not None:
                timer.start()
            t = clock()
            try:
                rc, out, rss = execute(argv)
            except StopRun:
                stopped = True
            except Exception:  # one broken command must not end the run
                traceback.print_exc()
                rc, out, rss = -1, "", 0
            dt, ref_units = clock() - t, 0.0
            if timer is not None:
                dt, ref_units = timer.stop()
            work = meter.counts["train.steps"] - steps0 if steps_are_work else 1
            if stopped:
                if work > 0:
                    res.ops.append(Op(dt, work, False, ref_units, argv[0]))
                break
            wl.check(argv, rc, out, res.errors)
            res.child_rss_kib = max(res.child_rss_kib, rss)
            res.ops.append(Op(dt, work, True, ref_units, argv[0]))
            meter.deadline = deadline
    res.wall = clock() - t0
    res.counts = dict(meter.counts)
    return res


def load_program(root: Path):
    """Import the package from ``root/src`` and nowhere else."""
    import collapse_lab
    import collapse_lab.cli

    expected = (root / "src" / "collapse_lab").resolve()
    if Path(collapse_lab.__file__).resolve().parent != expected:
        raise SystemExit(f"error: imported collapse_lab from {collapse_lab.__file__}")
    return collapse_lab


def timed_child(args_list, root) -> tuple[float, int, str]:
    t = clock()
    rc, out, _ = run_python(args_list, root)
    return clock() - t, rc, out


def measure_setup(args, root, workdir) -> list[float]:
    """Wall time of fresh processes that each import the program, write
    the run's input files into ``workdir`` and warm up, then exit."""
    child = [str(Path(__file__).resolve()), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--setup-only", str(workdir)]
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds, rc, _ = timed_child(child, root)
        if rc != 0:
            raise SystemExit(f"error: set-up child exited with {rc}")
        samples.append(seconds)
    return samples


def import_probe(root) -> tuple[float, int]:
    """Fresh ``import collapse_lab.cli`` minus a bare interpreter start
    (medians), and whether that import loads scipy."""
    bare, full, flags = [], [], []
    probe = "import sys, collapse_lab.cli; print(int('scipy' in sys.modules))"
    for _ in range(IMPORT_REPEATS):
        bare.append(timed_child(["-c", "pass"], root)[0])
        seconds, rc, out = timed_child(["-c", probe], root)
        if rc != 0:
            raise SystemExit("error: import probe failed")
        full.append(seconds)
        flags.append(int(out.strip() or 0))
    return statistics.median(full) - statistics.median(bare), max(flags)


def machine_facts(root) -> dict:
    import numpy
    import scipy

    facts = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        facts["blas"] = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    facts["git_commit"] = facts["git_dirty"] = None
    if (root / ".git").exists():
        git = ["git", "-C", str(root)]
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            facts["git_commit"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
            facts["git_dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain"], capture_output=True, text=True, check=True
            ).stdout.strip())
    return facts


def own_figures(wl, res: PassResult) -> dict:
    """The workload's per-call figures, named as in bench/README.md. On
    the trainer workloads only commands that trained count as calls."""
    secs = [op.seconds for op in res.ops if op.complete and op.work > 0]
    if not secs:
        return {}
    prefix, items, call, per_call = wl.figures
    return {
        f"{prefix}.{items}_per_s": per_call * len(secs) / sum(secs),
        f"{prefix}.{call}.p50": statistics.median(secs),
        f"{prefix}.{call}.tail": tail(secs),
    }


def end_to_end(wl, res: PassResult, setup_samples) -> dict:
    if wl.in_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = res.child_rss_kib
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "work_per_ref": (wl.work_per_ref(res.ops), "1/ref"),
    }


def raw_rate(res: PassResult) -> float:
    """Work per second of command time (reference loops excluded)."""
    return sum(op.work for op in res.ops) / sum(op.seconds for op in res.ops)


def per_layer(plain: PassResult, traced: PassResult, tracer, import_s, scipy_flag):
    stats = layer_stats(tracer.spans)
    m: dict[str, tuple[float, str]] = {}
    for mod, func in LAYERS:
        st = stats.get(f"{mod}.{func}")
        m[f"{mod}.{func}.calls"] = (st.calls if st else 0, "count")
        m[f"{mod}.{func}.self_s"] = (st.self_s if st else 0.0, "s")
    for name in ("eval_loss", "eval_grad"):
        calls, self_s = m[f"trainer.{name}.calls"][0], m[f"trainer.{name}.self_s"][0]
        m[f"trainer.{name}.us_per_call"] = (1e6 * self_s / calls if calls else 0.0, "us")
    c = traced.counts
    steps, trains = c.get("train.steps", 0), c.get("train.calls", 0)
    evals = m["trainer.eval_loss.calls"][0] + m["trainer.eval_grad.calls"][0]
    m["trainer.steps"] = (int(steps), "count")
    m["trainer.evals_per_step"] = (evals / steps if steps else 0.0, "ratio")
    m["trainer.converged_frac"] = (c.get("train.converged", 0) / trains if trains else 0.0,
                                   "ratio")
    # one global_minimum call directly under run_oracle_suite per instance
    suites = {s.id for s in tracer.spans if s.name == "verify.run_oracle_suite"}
    instances = sum(1 for s in tracer.spans
                    if s.name == "closed_form.global_minimum" and s.parent in suites)
    verify_trains = m["trainer.train.calls"][0] if suites else 0
    m["verify.train_calls_per_instance"] = (
        verify_trains / instances if instances else 0.0, "ratio")
    m["collapse.beta_sweep.rows"] = (int(c.get("beta_sweep.rows", 0)), "count")
    m["data.load.bytes"] = (int(c.get("load.bytes", 0)), "B")
    m["cli.import_s"] = (import_s, "s")
    m["cli.scipy_imported"] = (scipy_flag, "flag")
    m["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    m["trace.overhead_frac"] = ((traced.wall - plain.wall) / plain.wall, "ratio")
    m["trace.root_coverage"] = (root_coverage(tracer.spans, traced.wall), "ratio")
    trainer_self = sum(m[f"trainer.{f}.self_s"][0] for f in ("train", "eval_loss", "eval_grad"))
    m["trace.trainer_self_share"] = (trainer_self / traced.wall, "ratio")
    return m


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up sample, writing the inputs into this directory
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "collapse_lab" / "__init__.py").is_file():
        print("error: run from the root of a collapse-lab checkout (no src/collapse_lab)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.setup_only:
        workdir = Path(args.setup_only)
        pkg = load_program(root)
        wl = WORKLOADS[args.workload](args.seed, root, workdir)
        wl.setup(pkg)
        wl.warm_up(lambda argv: run_in_process(pkg, argv))
        return 0
    workdir = root / ".bench_run" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def in_process(root, wl):
    """Program loaded and warmed up in this process, with the meter on."""
    pkg = load_program(root)
    wl.warm_up(lambda argv: run_in_process(pkg, argv))
    meter = Meter(clock)
    meter.install(Patches(), package_modules("collapse_lab"), pkg)
    return pkg, meter, lambda argv: run_in_process(pkg, argv)


def traced_run(args, root, wl, pkg, meter, execute, rounds):
    """Each round runs untraced, then again traced, until the untraced
    rounds have taken half of ``--seconds``. Back-to-back repeats keep the
    machine's slow speed drift out of the tracing overhead."""
    tracer = Tracer(clock)
    modules = package_modules("collapse_lab")
    wrapped = []
    for mod, func in LAYERS:
        original = getattr(getattr(pkg, mod), func)
        wrapped.append((original, tracer.wrap(f"{mod}.{func}", original)))
    plain, traced = PassResult(), PassResult()
    for rnd in rounds:
        if plain.wall >= args.seconds / 2:
            break
        plain.add(run_pass(wl, execute, meter, [rnd]))
        patches = Patches()
        for original, wrapper in wrapped:
            patches.replace(modules, original, wrapper)
        try:
            traced.add(run_pass(wl, execute, meter, [rnd], tracer=tracer))
        finally:
            patches.restore()
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    write_spans(tracer.spans, out_dir / f"spans_{wl.name}_seed{args.seed}.csv")
    return plain, traced, tracer


def measure(args, root, workdir) -> int:
    setup_samples = measure_setup(args, root, workdir)
    wl = WORKLOADS[args.workload](args.seed, root, workdir)
    rounds = iter(wl.next_round, None)
    errors = ErrorCount()
    if args.trace == 0:
        if wl.in_process:
            _, meter, execute = in_process(root, wl)
            timer = RefTimer(reference_loop, PROBE_EVERY_S)
        else:
            meter = Meter(clock)  # nothing to count in this process
            execute = lambda argv: run_python(["-m", "collapse_lab.cli", *argv], root)
            timer = RefTimer(lambda: reference_process(root))
        res = run_pass(wl, execute, meter, rounds, deadline_s=args.seconds, timer=timer)
        metrics = end_to_end(wl, res, setup_samples)
        passes, figures, coverage_ok = [res], own_figures(wl, res), True
        figures["work_per_s"] = raw_rate(res)
        figures["reference_s"] = {"median": statistics.median(timer.samples),
                                  "min": min(timer.samples), "samples": len(timer.samples)}
    else:
        pkg, meter, execute = in_process(root, wl)
        plain, traced, tracer = traced_run(args, root, wl, pkg, meter, execute, rounds)
        metrics = per_layer(plain, traced, tracer, *import_probe(root))
        passes, figures = [plain, traced], own_figures(wl, plain)
        # the layer map must account for the wall time of the trainer workloads
        coverage_ok = not wl.in_process or metrics["trace.root_coverage"][0] >= MIN_ROOT_COVERAGE
    for r in passes:
        errors.add(r.errors.attempted, r.errors.failed)

    print(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "work_unit": wl.work_unit,
        "error_rate": errors.rate,
        "setup_samples_s": setup_samples,
        "passes": [{"wall_s": r.wall, "ops": len(r.ops),
                    "complete_ops": sum(op.complete for op in r.ops)} for r in passes],
        "figures": figures,
        "facts": machine_facts(root),
    }))
    print(json.dumps({
        "correct": errors.failed == 0 and errors.attempted > 0 and coverage_ok,
        "attempted": errors.attempted,
        "failed": errors.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
