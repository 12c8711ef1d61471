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
import sys
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np

from . import collapse as cl
from . import closed_form as cf
from . import decoder_variance as dv
from . import trainer as tr
from .data import Dataset, center, generate, load, random_spec
from .errors import CollapseLabError, InvalidSpec, ParseError
from .spectrum import DataSpectrum, compute_spectrum
from .verify import run_oracle_suite

SCHEMA = "collapse-lab/v1"
MAX_GRID_ROWS = 10**6
# in these a non-finite float means "no value" and prints null
NULL_IF_NON_FINITE = (dv.DecVarSolution, cl.SweepRow)


def _add_source_args(p: argparse.ArgumentParser, allow_zeta: bool = True) -> None:
    g = p.add_argument_group("data source")
    g.add_argument("--data", metavar="PATH", help="dataset file (.csv or binary)")
    g.add_argument(
        "--synthetic",
        metavar="D0,D2,N,SEED",
        help="generate a random linear-target dataset inline",
    )
    if allow_zeta:
        g.add_argument(
            "--zeta",
            metavar="Z1,Z2,...",
            help="raw non-increasing singular values instead of data",
        )
        g.add_argument("--d2", type=int, help="target dimension for --zeta")


def _add_hyper_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("hyperparameters")
    g.add_argument("--beta", type=float, help="KL weight")
    g.add_argument("--d1", type=int, help="latent dimension")
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


def _add_out_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _parse_synthetic(text: str):
    try:
        d0, d2, n, seed = (int(v) for v in text.split(","))
    except ValueError:
        raise InvalidSpec(f"--synthetic wants d0,d2,n,seed; got {text!r}") from None
    for name, value, least in (("d0", d0, 1), ("d2", d2, 1), ("n", n, 1), ("seed", seed, 0)):
        if value < least:
            raise InvalidSpec(f"--synthetic {name} must be >= {least}, got {value}")
    return generate(random_spec(d0, d2, n_samples=n, seed=seed))


def _load_dataset(args) -> Dataset:
    if not (args.data or args.synthetic):
        raise InvalidSpec("no data source: pass --data or --synthetic")
    ds = load(args.data) if args.data else _parse_synthetic(args.synthetic)
    # a finite sum of squares keeps every mean, centered value and moment finite
    if not np.isfinite(np.vdot(ds.x, ds.x) + np.vdot(ds.y, ds.y)):
        raise ValueError("the data's sum of squares overflows float64")
    return ds


def _load_spectrum(args) -> DataSpectrum:
    if getattr(args, "zeta", None):
        if not args.d2:
            raise InvalidSpec("--zeta needs --d2")
        values = [float(v) for v in args.zeta.split(",")]
        return DataSpectrum.from_singular_values(values, dim_y=args.d2)
    return compute_spectrum(center(_load_dataset(args))[0])


def _hyperparams(args, need_beta: bool = True) -> cf.Hyperparams:
    if need_beta and args.beta is None:
        raise InvalidSpec("--beta is required")
    if args.d1 is None:
        raise InvalidSpec("--d1 is required")
    return cf.Hyperparams(
        beta=args.beta if args.beta is not None else 1.0,
        latent_dim=args.d1,
        eta_enc=args.eta_enc,
        eta_dec=args.eta_dec,
        sigma_mode="learnable" if args.learnable_sigma else "fixed",
        decvar_mode="learnable" if args.learnable_decvar else "fixed",
    )


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
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


def _emit_json(args, command: str, payload) -> None:
    doc = {"schema": SCHEMA, "command": command, **_to_json(payload)}
    # strict RFC 8259: a non-finite float raises ValueError (exit 2), never prints NaN
    _emit(args, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _collapse_json(report: cl.CollapseReport) -> dict:
    # a fixed-variance report has no decvar key
    return {k: v for k, v in _to_json(report).items() if not (k == "decvar" and v is None)}


def _beta_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise InvalidSpec(f"--beta-grid wants lo:hi:step, got {text!r}") from None
    if not np.all(np.isfinite([lo, hi, step])):
        raise InvalidSpec(f"--beta-grid parts must be finite, got {text!r}")
    if lo <= 0 or step <= 0 or hi < lo:
        raise InvalidSpec("--beta-grid needs lo > 0, step > 0 and hi >= lo")
    rows = np.floor((hi - lo) / step + 1e-9) + 1
    if rows > MAX_GRID_ROWS:
        raise InvalidSpec(f"--beta-grid makes {rows:.4g} rows, more than {MAX_GRID_ROWS}")
    return lo + step * np.arange(int(rows))


def cmd_spectrum(args) -> int:
    sp = _load_spectrum(args)
    if sp.effective_rank == 0:
        print("warning: all singular values are zero (no signal)", file=sys.stderr)
    _emit_json(args, "spectrum", sp)
    return 0


def cmd_solve(args) -> int:
    sp = _load_spectrum(args)
    hp = _hyperparams(args)
    if hp.decvar_mode == "learnable":
        raise InvalidSpec(
            "solve needs a fixed decoder variance; use predict --learnable-decvar"
        )
    rotation = None
    if args.random_rotation is not None:
        # dense rotations only preserve optimality for isotropic stds
        make = (
            cf.random_rotation
            if hp.sigma_mode == "fixed"
            else cf.random_signed_permutation
        )
        rotation = make(hp.latent_dim, args.random_rotation)
    gm = cf.global_minimum(sp, hp, rotation=rotation)
    _emit_json(args, "solve", {"hyperparams": hp, **_to_json(gm)})
    return 0


def cmd_predict(args) -> int:
    sp = _load_spectrum(args)
    hp = _hyperparams(args)
    fixed = cl.predict(sp, replace(hp, decvar_mode="fixed"))
    payload = {"hyperparams": hp, "fixed": _collapse_json(fixed)}
    if hp.decvar_mode == "learnable":
        payload["learnable"] = {
            **_collapse_json(cl.predict(sp, hp)),
            "beta_breakpoints": _to_json(dv.beta_breakpoints(sp, hp), null_non_finite=True),
        }
    _emit_json(args, "predict", payload)
    return 0


def cmd_sweep(args) -> int:
    if not args.beta_grid:
        raise InvalidSpec("--beta-grid is required")
    grid = _beta_grid(args.beta_grid)
    sp = _load_spectrum(args)
    hp = _hyperparams(args, need_beta=False)
    rows = cl.beta_sweep(sp, hp, grid)

    trained = None
    if args.train:
        moments = tr.Moments.from_spectrum(sp)
        trained = [
            tr.train_to_minimum(args.seed, moments, replace(hp, beta=row.beta))
            for row in rows
        ]

    if args.format == "json":
        if trained:
            rows = [
                {**_to_json(row), "train_loss": t.final_loss,
                 "train_sigma": np.sort(t.params.sigma)[::-1]}
                for row, t in zip(rows, trained)
            ]
        _emit_json(args, "sweep", {"hyperparams": hp, "rows": rows})
        return 0

    d1 = hp.latent_dim
    header = ["beta", "loss", "rank", "regime"]
    if hp.decvar_mode == "learnable":
        header.append("s_star")
    header += [f"sigma_{i + 1}" for i in range(d1)]
    if trained:
        header += ["train_loss"] + [f"train_sigma_{i + 1}" for i in range(d1)]
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        cells = [repr(float(row.beta)), repr(float(row.loss)), str(row.rank), row.regime]
        if hp.decvar_mode == "learnable":
            cells.append("" if row.s_star is None else repr(float(row.s_star)))
        cells += [repr(float(v)) for v in row.sigma]
        if trained:
            cells.append(repr(float(trained[i].final_loss)))
            cells += [repr(float(v)) for v in np.sort(trained[i].params.sigma)[::-1]]
        lines.append(",".join(cells))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_train(args) -> int:
    ds = _load_dataset(args)
    hp = _hyperparams(args)
    if not args.bias:
        ds = center(ds)[0]
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
        lines = ["step,loss" + (",decvar" if result.decvar_trace is not None else "")]
        for i, value in enumerate(result.loss_trace):
            row = f"{i},{value!r}"
            if result.decvar_trace is not None:
                row += f",{result.decvar_trace[i]!r}"
            lines.append(row)
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    _emit_json(args, "train", {
        "hyperparams": hp, "final_loss": result.final_loss, "grad_norm": result.grad_norm,
        "steps": result.steps, "converged": result.converged,
        "sigma": result.params.sigma, "decvar": result.params.decvar,
    })
    return 0


def cmd_verify(args) -> int:
    if args.instances < 1:
        raise InvalidSpec("--instances must be >= 1")
    report = run_oracle_suite(
        n_instances=args.instances,
        seed=args.seed,
        learnable_decvar=args.learnable_decvar,
        beta_error=args.inject_beta_error,
    )
    print(report.format_table())
    if args.out:
        _emit_json(args, "verify", report)
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
        payload["collapse_learnable_decvar"] = _collapse_json(cl.predict(sp, hp))
        payload["beta_breakpoints"] = _to_json(dv.beta_breakpoints(sp, hp), null_non_finite=True)
    _emit_json(args, "report", payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        type=int,
        metavar="SEED",
        help="apply a random orthogonal latent rotation to the solution",
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
    _add_hyper_args(p)
    p.add_argument("--beta-grid", metavar="LO:HI:STEP", help="ascending beta grid")
    p.add_argument(
        "--train", action="store_true", help="add trained loss/sigma columns"
    )
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", metavar="PATH", help="write per-step loss CSV")
    _add_out_args(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("verify", help="closed forms vs gradient descent")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=20260811)
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
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.handler(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CollapseLabError, ValueError, MemoryError) as exc:
        # ValueError: an argument outside the package's domain; MemoryError: an array too large
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
