"""Command-line entry point.

Subcommands: ``run`` (execute a config), ``oracle`` (print the analytic
reference values), ``sweep`` (run with a sweep-axis override), ``report``
(re-aggregate persisted samples). Worker count comes from --workers or the
DIFFUQ_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import config_from_dict, load_config
from .harness import experiment_oracle, run_experiment, write_report, reaggregate

__all__ = ["main"]


def _workers(args) -> int:
    if args.workers is not None:
        return args.workers
    return int(os.environ.get("DIFFUQ_WORKERS", "1"))


def _print_paths(paths: dict) -> int:
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    rows = run_experiment(cfg, workers=_workers(args))
    oracle = None if args.no_oracle else experiment_oracle(cfg)
    return _print_paths(write_report(rows, args.out, cfg=cfg, oracle=oracle,
                                     save_samples=args.save_samples))


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    print(json.dumps(experiment_oracle(cfg), indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = [json.loads(v) for v in args.values.split(",")]
    cfg = dataclasses.replace(
        cfg, sweep_axis={"solver": args.solver, "name": args.param, "values": values})
    rows = run_experiment(cfg, workers=_workers(args))
    return _print_paths(write_report(rows, args.out, cfg=cfg, save_samples=args.save_samples))


def _saved(path, key: str):
    """``key`` of an earlier run's JSON artifact, or None without one."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh).get(key)


def _cmd_report(args) -> int:
    rows = reaggregate(args.dir)
    cfg = _saved(os.path.join(args.dir, "manifest.json"), "config")
    return _print_paths(write_report(
        rows, args.out or args.dir, cfg=None if cfg is None else config_from_dict(cfg),
        oracle=_saved(os.path.join(args.dir, "summary.json"), "oracle")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diffuq",
        description="Uncertainty benchmark for diffusion-prior inverse-problem solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--save-samples", action="store_true")
    p_run.add_argument("--no-oracle", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="print analytic reference values")
    p_oracle.add_argument("config")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="run with a sweep-axis override")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--solver", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 8,16,64")
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--save-samples", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser("report", help="re-aggregate persisted samples")
    p_rep.add_argument("dir")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
