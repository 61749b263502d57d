"""Experiment orchestration and report emission.

``run_experiment`` turns a validated config into per-(solver, case) result
rows, sampling the cases of each solver in shared row batches;
``write_report`` emits results.csv / summary.json / manifest.json and
optionally the raw sample matrices for post-hoc re-analysis. Everything is
a pure function of (config, master_seed): reruns and parallel runs produce
byte-identical results.csv.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, config_to_dict
from .diagnostics import (coverage_eval, obs_null_variance, oracle_reference, rmse_eval,
                          _experiment_cases)
from .diffusion import build_schedule
from .gmm import build_toy_prior
from .operators import Measurement, build_operator, operator_from_json, operator_to_json
from .seeding import derive_seed
from .solvers import SampleBatch, SamplingContext, SolverSpec, resolve_solver, run_cases

__all__ = ["ResultRow", "CSV_HEADER", "run_experiment", "write_report",
           "experiment_oracle", "reaggregate"]

CSV_HEADER = (
    "experiment,solver,family,case_id,sweep_param,sweep_value,coverage,"
    "mean_width,var_obs,var_null,ratio,rmse_mean,failure_rate,"
    "hyperparameters_digest,seed"
)

_METRICS = ("coverage", "mean_width", "var_obs", "var_null", "ratio",
            "rmse_mean", "failure_rate")


@dataclass
class ResultRow:
    """One (solver, case, sweep value) result. ``wall_time`` and ``batch``
    are diagnostics only and never serialized to results.csv."""

    experiment: str
    solver: str
    family: str
    case_id: int
    sweep_param: str
    sweep_value: str
    coverage: float
    mean_width: float
    var_obs: float
    var_null: float
    ratio: float
    rmse_mean: float
    failure_rate: float
    hyperparameters_digest: str
    seed: int
    wall_time: float = 0.0
    batch: SampleBatch | None = None
    x_star: np.ndarray | None = None


def _digest(hp: dict) -> str:
    blob = json.dumps(hp, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.12g" % float(v)


def _case_metrics(batch, x_star, A):
    """Single-case diagnostics; diverged-only batches yield NaN metrics."""
    out = dict.fromkeys(_METRICS, float("nan"))
    out["failure_rate"] = batch.failure_rate
    if batch.ok_mask().sum() >= 2:
        cov = coverage_eval([batch], [x_star])
        out["coverage"] = cov.coverage_global
        out["mean_width"] = cov.mean_interval_width
        if A.is_binary():
            rep = obs_null_variance([batch], A)
            out["var_obs"] = rep.var_obs
            out["var_null"] = rep.var_null
            out["ratio"] = rep.ratio_null_obs
    if batch.ok_mask().any():
        out["rmse_mean"] = rmse_eval([batch], [x_star]).rmse_mean
    return out


def _build_problem(cfg: ExperimentConfig):
    prior = build_toy_prior(cfg.prior)
    sched = build_schedule(**cfg.schedule)
    op_args = dict(cfg.operator)
    op_args.setdefault("d", cfg.prior.d)
    A = build_operator(**op_args)
    return prior, sched, A


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> list:
    """Run every solver on every case (and sweep value) of the config.

    Each (sweep value, solver) samples all the cases from one setup
    (``run_cases``). Work may be parallelized over these (sweep value,
    solver) pairs; the returned row order and contents are independent of
    the worker count.
    """
    prior, sched, A = _build_problem(cfg)
    ctx = SamplingContext.build(prior, sched)
    master = cfg.master_seed
    cases = _experiment_cases(prior, A, cfg.sigma_y, cfg.n_cases, master)

    if cfg.sweep_axis is not None:
        groups = []
        for j, value in enumerate(cfg.sweep_axis["values"]):
            solvers = tuple(
                resolve_solver(s.name, {**s.hyperparameters,
                                        cfg.sweep_axis["name"]: value})
                if s.name == cfg.sweep_axis["solver"] else s
                for s in cfg.solvers
            )
            groups.append((j, cfg.sweep_axis["name"], str(value), solvers))
    else:
        groups = [(0, "", "", cfg.solvers)]

    tasks = []  # (param, value, spec, case seeds), one per (sweep value, solver)
    for j, param, value, solvers in groups:
        for i, spec in enumerate(solvers):
            tasks.append((param, value, spec,
                          [derive_seed(master, [("solver", i), ("sweep", j), ("case", n)])
                           for n in range(cfg.n_cases)]))

    def work(task):
        _, _, spec, seeds = task
        return run_cases(spec, cases, prior, sched, cfg.k_samples, seeds, ctx=ctx)

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(work, tasks))
    else:
        batches = [work(t) for t in tasks]

    rows = []
    for (param, value, spec, seeds), task_batches in zip(tasks, batches):
        for n, (seed, batch, m) in enumerate(zip(seeds, task_batches, cases)):
            rows.append(ResultRow(
                experiment=cfg.experiment, solver=spec.name, family=spec.family,
                case_id=n, sweep_param=param, sweep_value=value,
                hyperparameters_digest=_digest(spec.hyperparameters), seed=seed,
                wall_time=batch.wall_time, batch=batch, x_star=m.x_star,
                **_case_metrics(batch, m.x_star, A),
            ))
    return rows


def experiment_oracle(cfg: ExperimentConfig, k_samples: int | None = None):
    """Analytic reference values for the config's problem setup."""
    prior, _, A = _build_problem(cfg)
    cov, t_obs, t_null, rmse = oracle_reference(
        prior, A, cfg.sigma_y, cfg.n_cases, cfg.master_seed,
        k_samples=k_samples or cfg.k_samples,
    )
    return {"oracle_coverage": cov, "theory_var_obs": t_obs,
            "theory_var_null": t_null, "oracle_rmse": rmse}


def _summarize(rows) -> dict:
    groups = {}
    for r in rows:
        groups.setdefault((r.solver, r.sweep_param, r.sweep_value), []).append(r)
    out = {}
    for (solver, param, value), rs in groups.items():
        key = solver if not param else f"{solver}[{param}={value}]"
        entry = {"family": rs[0].family, "n_cases": len(rs),
                 "hyperparameters_digest": rs[0].hyperparameters_digest}
        for metric in _METRICS:
            vals = np.array([getattr(r, metric) for r in rs], dtype=float)
            finite = vals[np.isfinite(vals)]
            entry[metric] = float(finite.mean()) if len(finite) else float("nan")
            entry[metric + "_std"] = (
                float(finite.std(ddof=1)) if len(finite) > 1 else 0.0
            )
        out[key] = entry
    return out


def _batch_filename(index: int, row: ResultRow) -> str:
    tag = f"{row.sweep_param}-{row.sweep_value}__" if row.sweep_param else ""
    return f"row{index}__{row.solver}__{tag}case{row.case_id}.npz"


def write_report(rows, out_dir, cfg: ExperimentConfig | None = None,
                 oracle: dict | None = None, save_samples: bool = False) -> dict:
    """Emit results.csv, summary.json, manifest.json (and sample matrices).

    Returns the mapping of artifact names to paths.
    """
    if not rows:
        raise ValueError("rows must be nonempty")
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fields = [r.experiment, r.solver, r.family, r.case_id, r.sweep_param,
                      r.sweep_value, r.coverage, r.mean_width, r.var_obs,
                      r.var_null, r.ratio, r.rmse_mean, r.failure_rate,
                      r.hyperparameters_digest, r.seed]
            fh.write(",".join(_fmt(v) for v in fields) + "\n")
    paths["results.csv"] = csv_path

    summary = {"solvers": _summarize(rows)}
    if oracle is not None:
        summary["oracle"] = oracle
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    paths["summary.json"] = summary_path

    import numpy, scipy, sys
    from . import __version__
    manifest = {
        "package_version": __version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "written_at": time.time(),
        "n_rows": len(rows),
        "total_wall_time": float(sum(r.wall_time for r in rows)),
    }
    if cfg is not None:
        manifest["config"] = config_to_dict(cfg)
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    paths["manifest.json"] = manifest_path

    if save_samples:
        sample_dir = os.path.join(out_dir, "samples")
        os.makedirs(sample_dir, exist_ok=True)
        for name in os.listdir(sample_dir):  # an earlier report's, named by _batch_filename
            if re.fullmatch(r"row\d+__[a-z_]+__(.+__)?case\d+\.npz", name):
                os.remove(os.path.join(sample_dir, name))
        for index, r in enumerate(rows):
            if r.batch is None:
                continue
            np.savez(
                os.path.join(sample_dir, _batch_filename(index, r)),
                samples=r.batch.samples,
                statuses=np.array(r.batch.statuses),
                x_star=r.x_star,
                y=r.batch.measurement.y,
                meta=np.array(json.dumps({
                    "experiment": r.experiment, "solver": r.solver, "case_id": r.case_id,
                    "sweep_param": r.sweep_param, "sweep_value": r.sweep_value,
                    "seed": r.seed, "row": index,
                    "sigma_y": r.batch.measurement.sigma_y,
                    "hyperparameters": r.batch.solver.hyperparameters,
                })),
                operator=np.array(operator_to_json(r.batch.measurement.operator)),
            )
        paths["samples"] = sample_dir
    return paths


def reaggregate(out_dir) -> list:
    """Rebuild result rows from persisted sample matrices, in the order
    ``write_report`` wrote them."""
    sample_dir = os.path.join(out_dir, "samples")
    if not os.path.isdir(sample_dir):
        raise ValueError(f"no persisted samples under {out_dir}")
    rows = {}
    for name in sorted(os.listdir(sample_dir)):
        data = np.load(os.path.join(sample_dir, name))
        meta = json.loads(str(data["meta"]))
        for key in ("row", "sigma_y", "hyperparameters"):
            if key not in meta:
                raise ValueError(f"{name}: sample metadata has no {key!r}")
        A = operator_from_json(str(data["operator"]))
        m = Measurement(y=data["y"], x_star=data["x_star"], sigma_y=meta["sigma_y"],
                        operator=A, seed=meta["seed"])
        spec = SolverSpec(meta["solver"], meta["hyperparameters"])
        batch = SampleBatch(solver=spec, measurement=m, samples=data["samples"],
                            seeds=[], statuses=[str(s) for s in data["statuses"]])
        metrics = _case_metrics(batch, data["x_star"], A)
        rows[meta["row"]] = ResultRow(
            experiment=meta["experiment"], solver=spec.name, family=spec.family,
            case_id=meta["case_id"],
            sweep_param=meta["sweep_param"], sweep_value=meta["sweep_value"],
            hyperparameters_digest=_digest(spec.hyperparameters),
            seed=meta["seed"], batch=batch, x_star=data["x_star"], **metrics,
        )
    return [rows[k] for k in sorted(rows)]
