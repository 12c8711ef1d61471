"""Command-line entry point.

Subcommands: spectrum, solve, predict, sweep, train, verify, report.
Data comes from ``--data`` (CSV or binary), an inline ``--synthetic``
recipe, or a raw ``--zeta`` spectrum. Analysis commands center the data
first (equivalent to learnable biases); ``train`` keeps raw data when
``--bias`` is given so the biases have something to learn.

Exit codes: 0 success, 1 I/O error, 2 degenerate/invalid input,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np

from . import collapse as cl
from . import closed_form as cf
from . import decoder_variance as dv
from .data import Dataset, center_in_place, csv_lines, generate, load, random_spec
from .errors import CollapseLabError, ParseError
from .spectrum import DataSpectrum, compute_spectrum

SCHEMA = "collapse-lab/v1"
MAX_GRID_ROWS = 10**6
# in these a non-finite float means "no value" and prints null
NULL_IF_NON_FINITE = (dv.DecVarSolution, cl.SweepRow)


# each line break str.splitlines splits on, as its escape
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _refuse(message, code: int) -> int:
    """Print ``message`` on stderr as one ``error:`` line, its line breaks escaped, and
    return the exit code ``code``."""
    print(f"error: {str(message).translate(_LINE_BREAKS)}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """Refuses a command line as the commands refuse input: one ``error:`` line, exit 2."""

    def error(self, message):
        self.exit(_refuse(message, 2))

    def _get_values(self, action, arg_strings):
        # Python 3.11 drops the "--" of --X=-- as the end of the options, so --X would get []
        if arg_strings == ["--"] and action.nargs is None:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def _oracle():
    """The gradient-descent oracle, ``trainer`` and ``verify``, imported only
    by the commands that train, and always together: a wrapper put around
    ``trainer.train`` after the first of them reaches ``verify.train`` too."""
    from . import trainer, verify

    return trainer, verify


# type= callables: argparse prints each refusal as one ``argument --X: ...`` line, before any
# work. A seed is a non-negative int, as numpy's own refusal of a negative one names no option.
def _zeta(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"wants Z1,Z2,... as floats; got {text!r}") from None


def _synthetic(text: str) -> tuple[int, int, int, int]:
    try:
        d0, d2, n, seed = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"wants d0,d2,n,seed; got {text!r}") from None
    for name, value, least in (("d0", d0, 1), ("d2", d2, 1), ("n", n, 1), ("seed", seed, 0)):
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be >= {least}, got {value}")
    return d0, d2, n, seed


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _beta_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"wants lo:hi:step, got {text!r}") from None
    if not np.all(np.isfinite([lo, hi, step])):
        raise argparse.ArgumentTypeError(f"parts must be finite, got {text!r}")
    if lo <= 0 or step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("needs lo > 0, step > 0 and hi >= lo")
    rows = np.floor((hi - lo) / step + 1e-9) + 1
    if rows > MAX_GRID_ROWS:
        raise argparse.ArgumentTypeError(f"makes {rows:.4g} rows, more than {MAX_GRID_ROWS}")
    return lo + step * np.arange(int(rows))


def _add_source_args(p: argparse.ArgumentParser, allow_zeta: bool = True) -> None:
    g = p.add_argument_group("data source")
    one = g.add_mutually_exclusive_group(required=True)
    one.add_argument("--data", metavar="PATH", help="dataset file (.csv or binary)")
    one.add_argument(
        "--synthetic",
        type=_synthetic,
        metavar="D0,D2,N,SEED",
        help="generate a random linear-target dataset inline",
    )
    if allow_zeta:
        one.add_argument(
            "--zeta",
            type=_zeta,
            metavar="Z1,Z2,...",
            help="raw non-increasing singular values instead of data",
        )
        g.add_argument("--d2", type=int, help="target dimension for --zeta")


def _add_hyper_args(p: argparse.ArgumentParser) -> argparse.Action:
    g = p.add_argument_group("hyperparameters")
    beta = g.add_argument("--beta", type=float, required=True, help="KL weight")
    g.add_argument("--d1", type=int, required=True, help="latent dimension")
    g.add_argument("--eta-enc", type=float, default=1.0)
    g.add_argument("--eta-dec", type=float, default=1.0)
    g.add_argument(
        "--learnable-sigma",
        action="store_true",
        help="optimize per-mode encoder stds instead of pinning at eta-enc",
    )
    g.add_argument(
        "--learnable-decvar",
        action="store_true",
        help="treat the decoder variance as learnable",
    )
    return beta


def _add_out_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _load_dataset(args) -> Dataset:
    ds = load(args.data) if args.data is not None else generate(random_spec(*args.synthetic))
    # a finite sum of squares keeps every mean, centered value and moment finite
    if not np.isfinite(np.vdot(ds.x, ds.x) + np.vdot(ds.y, ds.y)):
        raise ValueError("the data's sum of squares overflows float64")
    return ds


def _load_spectrum(args) -> DataSpectrum:
    if getattr(args, "zeta", None) is not None:
        if args.d2 is None:
            raise ValueError("--zeta needs --d2")
        return DataSpectrum.from_singular_values(args.zeta, dim_y=args.d2)
    if getattr(args, "d2", None) is not None:  # data carries its own target dimension
        raise ValueError("--d2 goes only with --zeta")
    ds = _load_dataset(args)
    center_in_place(ds)  # the arrays were just made here, so no copy is needed
    return compute_spectrum(ds)


def _hyperparams(args) -> cf.Hyperparams:
    return cf.Hyperparams(
        beta=args.beta if args.beta is not None else 1.0,  # sweep's rows take the grid's betas
        latent_dim=args.d1,
        eta_enc=args.eta_enc,
        eta_dec=args.eta_dec,
        sigma_mode="learnable" if args.learnable_sigma else "fixed",
        decvar_mode="learnable" if args.learnable_decvar else "fixed",
    )


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path`` as UTF-8 with ``\\n`` line ends, or
    to stdout for None: everything the CLI prints but its stderr comes here."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_json(obj, null_non_finite: bool = False):
    """``obj`` in JSON's types: a dataclass becomes a dict of its fields in
    field order, arrays and tuples become lists. A non-finite float becomes
    None inside a ``NULL_IF_NON_FINITE`` type or under ``null_non_finite``;
    anywhere else it stays, for :func:`_emit_json` to refuse."""
    if is_dataclass(obj):
        null_non_finite = null_non_finite or isinstance(obj, NULL_IF_NON_FINITE)
        return {f.name: _to_json(getattr(obj, f.name), null_non_finite) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _to_json(value, null_non_finite) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_json(value, null_non_finite) for value in obj]
    if null_non_finite and isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit_json(path: str | None, command: str, payload) -> None:
    doc = {"schema": SCHEMA, "command": command, **_to_json(payload)}
    # strict RFC 8259: a non-finite float raises ValueError (exit 2), never prints NaN
    _emit(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _collapse_json(report: cl.CollapseReport) -> dict:
    # a fixed-variance report has no decvar key
    return {k: v for k, v in _to_json(report).items() if not (k == "decvar" and v is None)}


def _learnable_json(sp: DataSpectrum, hp: cf.Hyperparams) -> tuple[dict, list]:
    """The learnable-variance collapse report, and the regime table with a null open end."""
    breakpoints = _to_json(dv.beta_breakpoints(sp, hp), null_non_finite=True)
    return _collapse_json(cl.predict(sp, hp)), breakpoints


def cmd_spectrum(args) -> int:
    sp = _load_spectrum(args)
    if sp.effective_rank == 0:
        print("warning: all singular values are zero (no signal)", file=sys.stderr)
    _emit_json(args.out, "spectrum", sp)
    return 0


def cmd_solve(args) -> int:
    sp = _load_spectrum(args)
    hp = _hyperparams(args)
    gm = cf.global_minimum(sp, hp, symmetry_seed=args.random_rotation)
    _emit_json(args.out, "solve", {"hyperparams": hp, **_to_json(gm)})
    return 0


def cmd_predict(args) -> int:
    sp = _load_spectrum(args)
    hp = _hyperparams(args)
    fixed = cl.predict(sp, replace(hp, decvar_mode="fixed"))
    payload = {"hyperparams": hp, "fixed": _collapse_json(fixed)}
    if hp.decvar_mode == "learnable":
        collapse, breakpoints = _learnable_json(sp, hp)
        payload["learnable"] = {**collapse, "beta_breakpoints": breakpoints}
    _emit_json(args.out, "predict", payload)
    return 0


def cmd_sweep(args) -> int:
    if args.beta is not None:  # parsed only so that argparse reads no --beta as --beta-grid
        raise ValueError("sweep takes its betas from --beta-grid, not --beta")
    sp = _load_spectrum(args)
    hp = _hyperparams(args)
    rows = cl.beta_sweep(sp, hp, args.beta_grid)

    trained = []  # per row: the trained loss, then the trained stds descending
    if args.train:
        tr = _oracle()[0]
        moments = tr.Moments.from_spectrum(replace(sp, eigenvalues=np.ones_like(sp.eigenvalues)))
        for row in rows:
            t = tr.train_to_minimum(args.seed, moments, replace(hp, beta=row.beta))
            trained.append([t.final_loss, *np.sort(t.params.sigma)[::-1].tolist()])

    if args.format == "json":
        if trained:
            rows = [
                {**_to_json(row), "train_loss": t[0], "train_sigma": t[1:]}
                for row, t in zip(rows, trained)
            ]
        # no one beta: each row has its own
        _emit_json(args.out, "sweep", {"hyperparams": {**_to_json(hp), "beta": None}, "rows": rows})
        return 0

    learnable = hp.decvar_mode == "learnable"  # only then is there an s_star column
    sigmas = [f"sigma_{i + 1}" for i in range(hp.latent_dim)]
    header = ["beta", "loss", "rank", "regime", *(["s_star"] if learnable else []), *sigmas]
    if trained:
        header += ["train_loss", *(f"train_{name}" for name in sigmas)]
    cells = (  # made a row at a time: all 4000 rows of a long sweep as objects add about 2 MB
        [row.beta, row.loss, row.rank, row.regime, *([row.s_star] if learnable else []),
         *row.sigma.tolist(), *t]
        for row, t in zip(rows, trained or [[]] * len(rows))
    )
    _emit(args.out, "".join(csv_lines(header, cells)))
    return 0


def cmd_train(args) -> int:
    ds = _load_dataset(args)
    hp = _hyperparams(args)
    if not args.bias:
        center_in_place(ds)
    tr = _oracle()[0]
    moments = tr.Moments.from_dataset(ds)
    init = tr.init_params(moments, hp, seed=args.seed, bias=args.bias, ddv=args.ddv)
    cfg = tr.TrainConfig(
        optimizer=args.optimizer,
        learning_rate=args.lr,
        max_steps=args.max_steps,
        grad_tol=args.grad_tol,
    )
    result = tr.train(init, moments, hp, cfg, trace=bool(args.trace))
    if args.trace:
        steps = np.arange(len(result.loss_trace))
        columns = {"step": steps, "loss": result.loss_trace, "decvar": result.decvar_trace}
        columns = {name: column.tolist() for name, column in columns.items() if column is not None}
        _emit(args.trace, "".join(csv_lines(list(columns), zip(*columns.values()))))
    _emit_json(args.out, "train", {
        "hyperparams": hp, "final_loss": result.final_loss, "grad_norm": result.grad_norm,
        "steps": result.steps, "converged": result.converged,
        "sigma": result.params.sigma, "decvar": result.params.decvar,
    })
    return 0


def cmd_verify(args) -> int:
    report = _oracle()[1].run_oracle_suite(
        n_instances=args.instances,
        seed=args.seed,
        learnable_decvar=args.learnable_decvar,
        beta_error=args.inject_beta_error,
    )
    _emit(None, report.format_table() + "\n")
    if args.out:
        _emit_json(args.out, "verify", report)
    return 0 if report.all_passed else 3


def cmd_report(args) -> int:
    sp = _load_spectrum(args)
    hp = _hyperparams(args)
    fixed_hp = replace(hp, decvar_mode="fixed")
    gm = cf.global_minimum(sp, fixed_hp)
    payload = {
        "hyperparams": hp,
        "spectrum": sp,
        # the solution without its matrices
        "solution": {k: v for k, v in _to_json(gm).items() if k not in ("decoder", "encoder")},
        "collapse": _collapse_json(cl.predict(sp, fixed_hp)),
    }
    if hp.decvar_mode == "learnable":
        payload["collapse_learnable_decvar"], payload["beta_breakpoints"] = _learnable_json(sp, hp)
    _emit_json(args.out, "report", payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(  # its subparsers take its class
        prog="collapse-lab",
        description=(
            "Closed-form global minima and posterior-collapse analysis for "
            "linear latent-variable models, verified by gradient descent."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigen/SVD summary of a dataset")
    _add_source_args(p, allow_zeta=False)
    _add_out_args(p)
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("solve", help="closed-form global minimum")
    _add_source_args(p)
    _add_hyper_args(p)
    p.add_argument(
        "--random-rotation",
        type=_seed,
        metavar="SEED",
        help=(
            "apply a latent symmetry drawn from SEED to the solution: a random "
            "orthogonal rotation, or a random signed permutation with --learnable-sigma"
        ),
    )
    _add_out_args(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("predict", help="collapse thresholds and regime")
    _add_source_args(p)
    _add_hyper_args(p)
    _add_out_args(p)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("sweep", help="closed forms across a beta grid")
    _add_source_args(p)
    beta = _add_hyper_args(p)  # sweep's --beta is refused: the grid holds its betas
    beta.required, beta.help = False, argparse.SUPPRESS
    p.add_argument("--beta-grid", type=_beta_grid, required=True, metavar="LO:HI:STEP",
                   help="ascending beta grid")
    p.add_argument(
        "--train", action="store_true", help="add trained loss/sigma columns"
    )
    p.add_argument("--seed", type=_seed, default=0)
    _add_out_args(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("train", help="gradient-descent oracle run")
    _add_source_args(p, allow_zeta=False)
    _add_hyper_args(p)
    p.add_argument("--bias", action="store_true", help="learn encoder/decoder biases")
    p.add_argument(
        "--ddv", action="store_true", help="data-dependent encoder std |Cx + f|"
    )
    p.add_argument("--optimizer", choices=("adam", "gd"), default="adam")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--max-steps", type=int, default=20000)
    p.add_argument("--grad-tol", type=float, default=1e-7)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trace", metavar="PATH", help="write per-step loss CSV")
    _add_out_args(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("verify", help="closed forms vs gradient descent")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=20260811)
    p.add_argument("--learnable-decvar", action="store_true")
    p.add_argument(
        "--inject-beta-error",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="test hook: skew the analytic side's beta by this factor",
    )
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("report", help="combined JSON report")
    _add_source_args(p)
    _add_hyper_args(p)
    _add_out_args(p)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # an output path that cannot be written is refused before the work, not after it
        for option in ("out", "trace"):
            path = getattr(args, option, None)
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise OSError(f"cannot write {path}: {os.path.dirname(path)} is not a directory")
            if path and os.path.isdir(path):
                raise OSError(f"cannot write {path}: it is a directory")
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.handler(args)
    except (ParseError, OSError) as exc:
        return _refuse(exc, 1)
    except (CollapseLabError, ValueError, MemoryError) as exc:
        # ValueError: an argument outside the package's domain; MemoryError: an array too large
        return _refuse(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
