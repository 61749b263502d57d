"""Command-line entry point.

Subcommands: ``run`` (execute a config), ``oracle`` (print the analytic
reference values), ``sweep`` (run with a sweep-axis override), ``report``
(re-aggregate persisted samples). Bad input (a missing or invalid config
file, a bad flag, an ``--out`` that cannot be a directory, a report
directory whose samples, manifest or summary cannot be read) ends with one
error line and exit status 2, before any sampling.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import yaml

from .config import config_from_dict, load_config
from .harness import experiment_oracle, run_experiment, write_report, reaggregate

__all__ = ["main"]


class _UsageError(Exception):
    """Bad input from the command line, reported by ``parser.error``."""


def _load(path):
    """``load_config(path)``; a file that cannot be read or is not a valid
    config is a usage error naming it."""
    try:
        return load_config(path)
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    except (ValueError, yaml.YAMLError) as exc:
        raise _UsageError(f"config file {path}: {' '.join(str(exc).split())}") from None


def _out_dir(path):
    """Create the output directory ``path``, or fail with a usage error naming ``--out``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"--out {path}: {exc.strerror}") from None
    return path


def _print_paths(paths: dict) -> int:
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load(args.config)
    out = _out_dir(args.out)
    rows = run_experiment(cfg)
    oracle = None if args.no_oracle else experiment_oracle(cfg)
    return _print_paths(write_report(rows, out, cfg=cfg, oracle=oracle,
                                     save_samples=args.save_samples))


def _cmd_oracle(args) -> int:
    cfg = _load(args.config)
    print(json.dumps(experiment_oracle(cfg), indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args.config)
    values = []
    for text in args.values.split(","):
        try:
            values.append(json.loads(text))
        except ValueError:
            raise _UsageError(f"--values: {text!r} is not a number or JSON value") from None
    try:
        cfg = dataclasses.replace(
            cfg, sweep_axis={"solver": args.solver, "name": args.param, "values": values})
    except ValueError as exc:
        raise _UsageError(f"sweep --solver/--param/--values: {exc}") from None
    out = _out_dir(args.out)
    return _print_paths(write_report(run_experiment(cfg), out, cfg=cfg,
                                     save_samples=args.save_samples))


def _saved(path, key: str):
    """``key`` of an earlier run's JSON artifact, or None without one."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            return json.load(fh).get(key)
    except (OSError, AttributeError, ValueError) as exc:  # unreadable, not JSON, not an object
        raise ValueError(f"{os.path.basename(path)}: {exc}") from None


def _cmd_report(args) -> int:
    try:
        rows = reaggregate(args.dir)
        cfg = _saved(os.path.join(args.dir, "manifest.json"), "config")
        cfg = None if cfg is None else config_from_dict(cfg)
        row_draws = _saved(os.path.join(args.dir, "manifest.json"), "row_draws")
        oracle = _saved(os.path.join(args.dir, "summary.json"), "oracle")
    except ValueError as exc:
        raise _UsageError(f"report {args.dir}: {exc}") from None
    out = _out_dir(args.out or args.dir)
    return _print_paths(write_report(  # in place, it keeps the samples to report again
        rows, out, cfg=cfg, oracle=oracle, save_samples=os.path.samefile(out, args.dir),
        row_draws=row_draws))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diffuq",
        description="Uncertainty benchmark for diffusion-prior inverse-problem solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--save-samples", action="store_true")
    p_run.add_argument("--no-oracle", action="store_true")
    p_run.set_defaults(func=_cmd_run, parser=p_run)

    p_oracle = sub.add_parser("oracle", help="print analytic reference values")
    p_oracle.add_argument("config")
    p_oracle.set_defaults(func=_cmd_oracle, parser=p_oracle)

    p_sweep = sub.add_parser("sweep", help="run with a sweep-axis override")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--solver", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 8,16,64")
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--save-samples", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep, parser=p_sweep)

    p_rep = sub.add_parser("report", help="re-aggregate persisted samples")
    p_rep.add_argument("dir")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=_cmd_report, parser=p_rep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
