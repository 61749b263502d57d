"""Experiment orchestration and report emission.

``run_experiment`` turns a validated config into per-(solver, case) result
rows, sampling the cases of each solver in shared row batches;
``write_report`` emits results.csv / summary.json / manifest.json and
optionally the raw sample matrices for post-hoc re-analysis. Everything is
a pure function of (config, master_seed): reruns produce byte-identical
results.csv.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import zipfile
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, config_to_dict
from .diagnostics import coverage_eval, obs_null_variance, oracle_reference, rmse_eval
from . import seeding
from .operators import Measurement, operator_from_json, operator_to_json
from .seeding import derive_seed
from .solvers import SampleBatch, SolverSpec, resolve_solver, run_cases

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


def _digest(hp: dict) -> str:
    blob = json.dumps(hp, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.12g" % float(v)


def _result_row(experiment: str, case_id: int, sweep_param: str, sweep_value: str,
                seed: int, batch: SampleBatch) -> ResultRow:
    """One case's row, scored against the batch's own measurement (NaN metrics
    for a diverged-only batch); ``run_experiment`` and ``reaggregate`` both use it."""
    spec, m = batch.solver, batch.measurement
    out = dict.fromkeys(_METRICS, float("nan"))
    out["failure_rate"] = batch.failure_rate
    if batch.ok_mask().sum() >= 2:
        cov = coverage_eval([batch], [m.x_star])
        out["coverage"] = cov.coverage_global
        out["mean_width"] = cov.mean_interval_width
        if m.operator.is_binary():
            rep = obs_null_variance([batch], m.operator)
            out["var_obs"] = rep.var_obs
            out["var_null"] = rep.var_null
            out["ratio"] = rep.ratio_null_obs
    if batch.ok_mask().any():
        out["rmse_mean"] = rmse_eval([batch], [m.x_star]).rmse_mean
    return ResultRow(
        experiment=experiment, solver=spec.name, family=spec.family, case_id=case_id,
        sweep_param=sweep_param, sweep_value=sweep_value,
        hyperparameters_digest=_digest(spec.hyperparameters), seed=seed,
        wall_time=batch.wall_time, batch=batch, **out,
    )


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> list:
    """Run every solver on every case (and sweep value) of the config.

    Each (sweep value, solver spec) of ``cfg.runs`` samples all of
    ``cfg.cases`` from one setup (``run_cases``), on the calling thread.
    ``workers`` is accepted and ignored: the benchmark workload still passes
    it, and it goes once the benchmark revision drops that call.
    """
    param = cfg.sweep_axis["name"] if cfg.sweep_axis else ""

    rows = []
    for j, (value, specs) in enumerate(cfg.runs):
        for i, spec in enumerate(specs):
            seeds = [derive_seed(cfg.master_seed, [("solver", i), ("sweep", j), ("case", n)])
                     for n in range(cfg.n_cases)]
            batches = run_cases(spec, cfg.problem, cfg.cases, cfg.k_samples, seeds)
            rows += [_result_row(cfg.experiment, n, param, str(value), seed, batch)
                     for n, (seed, batch) in enumerate(zip(seeds, batches))]
    return rows


def experiment_oracle(cfg: ExperimentConfig):
    """Analytic reference values for the config's cases, scored on the rows
    ``reference_exact`` draws for case n with base seed
    ``derive_seed(master_seed, [("case", n)])``."""
    seeds = [derive_seed(cfg.master_seed, [("case", n)]) for n in range(cfg.n_cases)]
    batches = run_cases(resolve_solver("reference_exact"), cfg.problem, cfg.cases,
                        cfg.k_samples, seeds)
    cov, t_obs, t_null, rmse = oracle_reference(cfg.problem, batches)
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


_BATCH_FILE = re.compile(r"row\d+__[a-z_]+__(.+__)?case\d+\.npz")  # _batch_filename's form


def _batch_files(sample_dir) -> list:
    """The sorted names of ``_batch_filename``'s form in ``sample_dir``, if any."""
    if not os.path.isdir(sample_dir):
        return []
    return sorted(n for n in os.listdir(sample_dir) if _BATCH_FILE.fullmatch(n))


def _blas_build(module) -> dict:
    """The ``blas`` and ``lapack`` entries of numpy's or scipy's build
    configuration: the library that decides the last bits of each product."""
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    return {key: deps[key] for key in ("blas", "lapack") if key in deps}


def write_report(rows, out_dir, cfg: ExperimentConfig | None = None,
                 oracle: dict | None = None, save_samples: bool = False,
                 row_draws: str | None = None) -> dict:
    """Emit results.csv, summary.json, manifest.json (and sample matrices).

    ``row_draws`` (default: ``seeding.row_draws()``) is the draw path the
    manifest records. The sample files an earlier report left in ``out_dir``
    are removed either way, so ``samples/`` never holds rows that
    results.csv lacks. Returns the mapping of artifact names to paths.
    """
    if not rows:
        raise ValueError("rows must be nonempty")
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    csv_path = os.path.join(out_dir, "results.csv")
    columns = CSV_HEADER.split(",")
    with open(csv_path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, key)) for key in columns) + "\n")
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
        "blas": {mod.__name__: _blas_build(mod) for mod in (numpy, scipy)},
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        # the thread counts numpy's and scipy's OpenBLAS run (null: not readable)
        "blas_threads": seeding.blas_threads(),
        # which path drew the rows' numbers (see seeding._Streams); both give the same bits
        "row_draws": row_draws or seeding.row_draws(),
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

    sample_dir = os.path.join(out_dir, "samples")
    for name in _batch_files(sample_dir):
        os.remove(os.path.join(sample_dir, name))
    if save_samples:
        os.makedirs(sample_dir, exist_ok=True)
        for index, r in enumerate(rows):
            if r.batch is None:
                continue
            np.savez(
                os.path.join(sample_dir, _batch_filename(index, r)),
                samples=r.batch.samples,
                statuses=np.array(r.batch.statuses),
                x_star=r.batch.measurement.x_star,
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
    ``write_report`` wrote them. A sample file that cannot be read is a
    ValueError naming it."""
    sample_dir = os.path.join(out_dir, "samples")
    names = _batch_files(sample_dir)
    if not names:
        raise ValueError(f"no persisted samples under {out_dir}")
    rows = {}
    for name in names:
        try:
            with np.load(os.path.join(sample_dir, name)) as data:
                meta = json.loads(str(data["meta"]))
                for key in ("row", "sigma_y", "hyperparameters"):
                    if key not in meta:
                        raise ValueError(f"sample metadata has no {key!r}")
                A = operator_from_json(str(data["operator"]))
                m = Measurement(y=data["y"], x_star=data["x_star"], sigma_y=meta["sigma_y"],
                                operator=A, seed=meta["seed"])
                spec = SolverSpec(meta["solver"], meta["hyperparameters"])
                batch = SampleBatch(solver=spec, measurement=m, samples=data["samples"],
                                    seeds=[], statuses=[str(s) for s in data["statuses"]])
                rows[meta["row"]] = _result_row(meta["experiment"], meta["case_id"],
                                                meta["sweep_param"], meta["sweep_value"],
                                                meta["seed"], batch)
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{name}: {exc}") from None
    return [rows[k] for k in sorted(rows)]
