"""Command line front end.

Subcommands:
    trial    solve one freshly sampled instance, print the record as JSON
    grid     run an experiment grid from a JSON config, write CSV
    solve    recover a signal from an SPR1 instance file
    moments  print the truncated second/fourth Gaussian moments

Exit codes: 0 success, 2 parse/config error, 3 I/O error. ``grid``
runs on ``--threads`` workers (default 1). ``trial`` and ``solve`` take
``pipeline.METHODS`` and the aliases ``modspec`` and ``tpmr``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import harness, instance_io
from .model import _real, truncated_gaussian_moment
from .pipeline import METHODS, SolverConfigs

_METHOD_ALIASES = {"modspec": "modified_spectral", "tpmr": "tp_mr"}
# argparse checks the resolved name against the choices, so handlers see
# only the names in METHODS
_METHOD_FLAG = dict(required=True, choices=[*METHODS, *_METHOD_ALIASES],
                    type=lambda name: _METHOD_ALIASES.get(name, name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsepr",
        description="Sparse phase retrieval solvers and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    trial = sub.add_parser("trial", help="run one Monte Carlo trial")
    trial.add_argument("--n", type=int, required=True)
    trial.add_argument("--s", type=int, required=True)
    trial.add_argument("--m", type=int, required=True)
    trial.add_argument("--method", **_METHOD_FLAG)
    trial.add_argument("--seed", type=int, required=True)
    trial.add_argument("--trial-index", type=int, default=0)
    trial.add_argument("--b", type=int, default=None,
                       help="restart count for tpmr")

    grid = sub.add_parser("grid", help="run an experiment grid")
    grid.add_argument("--config", required=True, help="grid config JSON path")
    grid.add_argument("--threads", type=int, default=1)
    grid.add_argument("--out", default="results.csv", help="CSV output path")
    grid.add_argument("--no-timing", action="store_true",
                      help="record elapsed_ms as 0 (byte-reproducible CSV)")

    solve = sub.add_parser("solve", help="solve an SPR1 instance file")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--s", type=int, required=True)
    solve.add_argument("--method", **_METHOD_FLAG)

    moments = sub.add_parser("moments",
                             help="truncated Gaussian moments of a band")
    moments.add_argument("--l", type=float, required=True)
    moments.add_argument("--u", type=float, required=True)

    return parser


def _cmd_trial(args) -> int:
    configs = None if args.b is None else SolverConfigs(restarts=args.b)
    record = harness.run_trial(args.n, args.s, args.m, args.method,
                               args.trial_index, args.seed, configs=configs)
    print(json.dumps(asdict(record)))
    return 0


def _cmd_grid(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from None
    grid = harness.grid_from_dict(data)
    # checked before --out is opened, so a refused count leaves no file
    if args.threads < 1:
        raise ValueError("the worker count must be positive")
    # --out is opened before any solve, so an unwritable path fails first;
    # appending leaves an existing file whole until the new CSV replaces it
    with open(args.out, "a", encoding="utf-8") as fh:
        result = harness.run_grid(grid, parallelism=args.threads,
                                  record_timing=not args.no_timing)
        fh.truncate(0)
        fh.write(harness.emit_csv(result.records))
    print(harness.summary_table(result.cells))
    print(f"{len(result.records)} records written to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    ensemble, signal = instance_io.load_instance(args.instance)
    report = harness.solve(ensemble, args.s, args.method,
                           truth=signal.to_dense())
    print(instance_io.format_row(report.x))
    print(json.dumps({
        "method": report.method,
        "rel_error": report.rel_error,
        "init_dist": report.init_dist,
        "iterations": report.iterations,
        "htp_stop": report.htp_stop,
        "chosen_restart": report.chosen_restart,
        "restarts_run": report.restarts_run,
        "degenerate": report.degenerate,
        "init_elapsed_s": report.init_elapsed,
        "refine_elapsed_s": report.refine_elapsed,
    }))
    return 0


def _cmd_moments(args) -> int:
    # a finite band; truncated_gaussian_moment checks 0 <= l < u
    l, u = _real(args.l, "l"), _real(args.u, "u")
    print(f"alpha = {truncated_gaussian_moment(2, l, u):.17g}")
    print(f"beta = {truncated_gaussian_moment(4, l, u):.17g}")
    return 0


_HANDLERS = {
    "trial": _cmd_trial,
    "grid": _cmd_grid,
    "solve": _cmd_solve,
    "moments": _cmd_moments,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # argparse exits 2 on bad usage
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
