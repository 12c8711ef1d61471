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
import sys
import warnings
from dataclasses import replace

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


def _add_out_args(p: argparse.ArgumentParser, formats=("json",)) -> None:
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    p.add_argument("--format", choices=formats, default=formats[0])


def _parse_synthetic(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidSpec(f"--synthetic wants d0,d2,n,seed; got {text!r}")
    d0, d2, n, seed = (int(v) for v in parts)
    return generate(random_spec(d0, d2, n_samples=n, seed=seed))


def _load_dataset(args) -> Dataset:
    if args.data:
        return load(args.data)
    if args.synthetic:
        return _parse_synthetic(args.synthetic)
    raise InvalidSpec("no data source: pass --data or --synthetic")


def _load_spectrum(args) -> DataSpectrum:
    if getattr(args, "zeta", None):
        if not args.d2:
            raise InvalidSpec("--zeta needs --d2")
        values = [float(v) for v in args.zeta.split(",")]
        return DataSpectrum.from_singular_values(values, dim_y=args.d2)
    ds, _, _ = _centered(_load_dataset(args))
    return compute_spectrum(ds)


def _centered(ds: Dataset):
    if ds.centered:
        return ds, np.zeros(ds.dim_x), np.zeros(ds.dim_y)
    return center(ds)


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
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(args, command: str, payload: dict) -> None:
    doc = {"schema": SCHEMA, "command": command}
    doc.update(payload)
    _emit(args, json.dumps(doc, indent=2) + "\n")


def _beta_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise InvalidSpec(f"--beta-grid wants lo:hi:step, got {text!r}") from None
    if not np.all(np.isfinite([lo, hi, step])):
        raise InvalidSpec(f"--beta-grid parts must be finite, got {text!r}")
    if lo <= 0 or step <= 0 or hi < lo:
        raise InvalidSpec("--beta-grid needs lo > 0, step > 0 and hi >= lo")
    n = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


def cmd_spectrum(args) -> int:
    sp = _load_spectrum(args)
    if sp.effective_rank == 0:
        print("warning: all singular values are zero (no signal)", file=sys.stderr)
    _emit_json(args, "spectrum", sp.to_json_dict())
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
    _emit_json(
        args,
        "solve",
        {"hyperparams": _hp_dict(hp), **gm.to_json_dict(include_matrices=True)},
    )
    return 0


def _hp_dict(hp: cf.Hyperparams) -> dict:
    return {
        "beta": hp.beta,
        "latent_dim": hp.latent_dim,
        "eta_enc": hp.eta_enc,
        "eta_dec": hp.eta_dec,
        "sigma_mode": hp.sigma_mode,
        "decvar_mode": hp.decvar_mode,
    }


def cmd_predict(args) -> int:
    sp = _load_spectrum(args)
    hp = _hyperparams(args)
    fixed = cl.predict(sp, replace(hp, decvar_mode="fixed"))
    payload = {"hyperparams": _hp_dict(hp), "fixed": fixed.to_json_dict()}
    if hp.decvar_mode == "learnable":
        learnable = cl.predict(sp, hp)
        payload["learnable"] = learnable.to_json_dict()
        payload["learnable"]["beta_breakpoints"] = dv.json_safe(
            dv.beta_breakpoints(sp, hp)
        )
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
        payload = {"hyperparams": _hp_dict(hp), "rows": []}
        for i, row in enumerate(rows):
            d = row.to_json_dict()
            if trained:
                d["train_loss"] = trained[i].final_loss
                d["train_sigma"] = np.sort(trained[i].params.sigma)[::-1].tolist()
            payload["rows"].append(d)
        _emit_json(args, "sweep", payload)
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
        ds, _, _ = _centered(ds)
    init = tr.init_params(ds, hp, seed=args.seed, bias=args.bias, ddv=args.ddv)
    cfg = tr.TrainConfig(
        optimizer=args.optimizer,
        learning_rate=args.lr,
        max_steps=args.max_steps,
        grad_tol=args.grad_tol,
    )
    result = tr.train(init, ds, hp, cfg, trace=bool(args.trace))
    if args.trace:
        lines = ["step,loss" + (",decvar" if result.decvar_trace is not None else "")]
        for i, value in enumerate(result.loss_trace):
            row = f"{i},{value!r}"
            if result.decvar_trace is not None:
                row += f",{result.decvar_trace[i]!r}"
            lines.append(row)
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    _emit_json(
        args,
        "train",
        {"hyperparams": _hp_dict(hp), **result.to_json_dict()},
    )
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
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(
                {"schema": SCHEMA, "command": "verify", **report.to_json_dict()},
                fh,
                indent=2,
            )
            fh.write("\n")
    return 0 if report.all_passed else 3


def cmd_report(args) -> int:
    sp = _load_spectrum(args)
    hp = _hyperparams(args)
    payload: dict = {"hyperparams": _hp_dict(hp), "spectrum": sp.to_json_dict()}
    solve_hp = replace(hp, decvar_mode="fixed")
    payload["solution"] = cf.global_minimum(sp, solve_hp).to_json_dict(
        include_matrices=False
    )
    payload["collapse"] = cl.predict(sp, replace(hp, decvar_mode="fixed")).to_json_dict()
    if hp.decvar_mode == "learnable":
        payload["collapse_learnable_decvar"] = cl.predict(sp, hp).to_json_dict()
        payload["beta_breakpoints"] = dv.json_safe(dv.beta_breakpoints(sp, hp))
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
    _add_out_args(p, formats=("csv", "json"))
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
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CollapseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
