"""One workload in one process: time it, check its outputs, print JSON.

Started by ``run.py`` with the BLAS and OpenMP thread variables set to 1 and
``src`` on ``PYTHONPATH``. Prints one JSON object as its last line of
standard output. With ``--trace 0`` it reports the end-to-end figures; with
``--trace 1`` it runs the workload once untraced and once under
``layers.Tracer`` and reports the per-layer figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

import diffuq
from diffuq import (SamplingContext, build_operator, build_schedule, build_toy_prior,
                    config, harness, resolve_solver, run_batch, sample_mixture,
                    synthesize_measurement)
# The measured calls go through the module attributes (harness.run_experiment,
# ...) so that layers.Tracer sees them; this binding of write_report is the
# benchmark's own bookkeeping (results.csv digests) and stays untraced.
from diffuq.harness import write_report

import layers
import workloads

ROOT = Path(__file__).resolve().parents[1]
IO_SHARE = 0.1  # time in oracle / report cycles, as a share of the time in runs
PINNED = Path(__file__).with_name("digests.json")

_METRIC_FIELDS = ("coverage", "mean_width", "var_obs", "var_null", "ratio",
                  "rmse_mean", "failure_rate")


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def results_digest(rows, cfg, out_dir: Path) -> str:
    shutil.rmtree(out_dir, ignore_errors=True)
    paths = write_report(rows, out_dir, cfg=cfg)
    return hashlib.sha256(Path(paths["results.csv"]).read_bytes()).hexdigest()


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.raw = dict(workloads.configs(name, seed))
        self.cfgs = [(label, config.config_from_dict(d)) for label, d in self.raw.items()]
        self.problems = []  # output mismatches; any one makes the run incorrect
        self.digests = {}  # label -> results.csv sha256 of the first run
        self.oracles = {}  # label -> experiment_oracle of the first cycle
        pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
        self.pinned = pinned.get(str(seed), {}).get(name, {})
        self.rows = 0
        self.failed_rows = 0  # rows whose status is not "ok"

    def expect(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)

    def run(self, workers: int = 1):
        """run_experiment on every config; returns (wall seconds, outputs)."""
        wall, out = 0.0, []
        for label, cfg in self.cfgs:
            t0 = time.perf_counter()
            rows = harness.run_experiment(cfg, workers=workers)
            wall += time.perf_counter() - t0
            out.append((label, cfg, rows))
        return wall, out

    def check_rows(self, out, tag: str):
        for label, cfg, rows in out:
            n_rows = len(cfg.solvers) * cfg.n_cases
            self.expect(len(rows) == n_rows,
                        f"{tag}/{label}: {len(rows)} result rows, expected {n_rows}")
            for r in rows:
                bad = [s for s in r.batch.statuses if s != "ok"]
                self.rows += len(r.batch.statuses)
                self.failed_rows += len(bad)
                self.expect(not bad, f"{tag}/{label}/{r.solver}/case{r.case_id}: {len(bad)}"
                                     f" rows with status {bad[:1]}, expected 'ok'")
            digest = results_digest(rows, cfg, self.work / f"digest_{label}")
            first = self.digests.setdefault(label, digest)
            self.expect(digest == first,
                        f"{tag}/{label}: results.csv sha256 {digest} differs from"
                        f" the first run's {first}")
            pin = self.pinned.get(label)
            self.expect(pin is None or digest == pin,
                        f"{tag}/{label}: results.csv sha256 {digest} differs from"
                        f" the pinned {pin}")

    def io_cycle(self, out):
        """Times experiment_oracle, write_report(save_samples) and reaggregate."""
        oracle_s = write_s = read_s = 0.0
        report_bytes = 0
        for label, cfg, rows in out:
            report_dir = self.work / f"report_{label}"
            shutil.rmtree(report_dir, ignore_errors=True)
            t0 = time.perf_counter()
            oracle = harness.experiment_oracle(cfg)
            t1 = time.perf_counter()
            harness.write_report(rows, report_dir, cfg=cfg, oracle=oracle, save_samples=True)
            t2 = time.perf_counter()
            back = harness.reaggregate(report_dir)
            t3 = time.perf_counter()
            oracle_s, write_s, read_s = oracle_s + t1 - t0, write_s + t2 - t1, read_s + t3 - t2
            report_bytes += sum(p.stat().st_size for p in report_dir.rglob("*") if p.is_file())
            self.check_oracle(label, oracle)
            self.check_reaggregate(label, rows, back)
        return oracle_s, write_s, read_s, report_bytes

    def check_oracle(self, label, oracle):
        cov = oracle["oracle_coverage"]
        self.expect(0.0 < cov <= 1.0, f"{label}: oracle coverage {cov} outside (0, 1]")
        first = self.oracles.setdefault(label, oracle)
        self.expect(all(_same(oracle[k], first[k]) for k in first),
                    f"{label}: experiment_oracle differs between repetitions")

    def check_reaggregate(self, label, rows, back):
        key = lambda r: (r.solver, r.case_id)  # noqa: E731
        want = {key(r): r for r in rows}
        self.expect(len(back) == len(rows) and set(map(key, back)) == set(want),
                    f"{label}: reaggregate returned {len(back)} rows, wrote {len(rows)}")
        for r in back:
            w = want.get(key(r))
            if w is not None and not all(_same(getattr(r, f), getattr(w, f))
                                         for f in _METRIC_FIELDS):
                self.expect(False, f"{label}: reaggregated metrics of {key(r)} differ")

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.problems, "attempted": self.rows,
                "failed": self.failed_rows, "metrics": metrics,
                "problems": self.problems[:20], "digests": self.digests}


def _n_rows(out) -> int:
    return sum(len(r.batch.statuses) for _, _, rows in out for r in rows)


def end_to_end(w: Workload, seconds: float) -> dict:
    """Alternates timed runs with oracle / report cycles for ``seconds``.

    The machine's speed drifts over seconds, so the report cycles are spread
    between the runs rather than done in one block at the end.
    """
    start = time.perf_counter()
    rates, io, laps = [], [], []
    run_s = io_s = 0.0
    # another lap when that ends nearer to ``seconds`` than stopping now
    while not laps or seconds - (time.perf_counter() - start) > statistics.mean(laps) / 2:
        lap = time.perf_counter()
        wall, out = w.run()
        w.check_rows(out, "run")
        rates.append(_n_rows(out) / wall)
        run_s += wall
        while not io or io_s < IO_SHARE * run_s:
            t0 = time.perf_counter()
            io.append(w.io_cycle(out))
            io_s += time.perf_counter() - t0
        laps.append(time.perf_counter() - lap)

    def med(i):
        return statistics.median(c[i] for c in io)

    return {
        "rows_per_s": (statistics.median(rates), "rows/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_rows_frac": (1.0 - w.failed_rows / w.rows, "ratio"),
        "failed_rows_frac": (w.failed_rows / w.rows, "ratio"),
        "oracle_s": (med(0), "s"),
        "report_write_s": (med(1), "s"),
        "report_read_s": (med(2), "s"),
        "timed_runs": (len(rates), "count"),
        "report_cycles": (len(io), "count"),
    }


TRACED = (
    "diffusion.ReverseKernel.step", "diffusion.ReverseKernel.log_responsibilities",
    "diffusion.ReverseKernel.denoise", "gmm.denoise_batch", "gmm.score_and_denoise",
    "operators.LinearOperatorSVD.matrix", "solvers.pnpdm_z_step",
    "solvers.daps_langevin_step", "solvers.reddiff_update",
    "solvers.spectral_consistency_update", "solvers.prox_data_step",
    "operators.apply_forward", "operators.apply_pinv", "solvers.smc_ess",
    "solvers.smc_resample", "solvers.sample_one", "solvers.run_batch",
    "gmm.exact_posterior", "gmm.sample_mixture", "seeding.derive_seed",
    "diagnostics.coverage_eval", "diagnostics.obs_null_variance", "diagnostics.rmse_eval",
    "diagnostics.oracle_reference", "harness.run_experiment",
    "harness.experiment_oracle", "harness.write_report", "harness.reaggregate",
    "config.load_config",
)


def kernel_and_fps_ms(cfg, seed: int):
    """(SamplingContext.build ms, fps_smc precompute ms) on the config's problem.

    The precompute is the cold minus the warm first fps_smc run_batch of one
    row on a fresh context; both are medians over five fresh contexts.
    """
    prior = build_toy_prior(cfg.prior)
    sched = build_schedule(**cfg.schedule)
    A = build_operator(**{"d": cfg.prior.d, **cfg.operator})
    x_star = sample_mixture(prior, 1, seed)[0]
    m = synthesize_measurement(A, x_star, cfg.sigma_y, seed)
    spec = resolve_solver("fps_smc")
    build, diffs = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        ctx = SamplingContext.build(prior, sched)
        t1 = time.perf_counter()
        run_batch(spec, m, prior, sched, 1, seed, ctx=ctx)
        t2 = time.perf_counter()
        run_batch(spec, m, prior, sched, 1, seed, ctx=ctx)
        t3 = time.perf_counter()
        build.append(t1 - t0)
        diffs.append((t2 - t1) - (t3 - t2))
    return 1000.0 * statistics.median(build), 1000.0 * statistics.median(diffs)


def per_layer(w: Workload) -> dict:
    """One untraced and one traced run, the workers=2 run, and microtimings."""
    with layers.SolverTimer() as solver_timer:
        wall0, out0 = w.run()
    w.check_rows(out0, "untraced")
    for label, raw in w.raw.items():
        (w.work / f"{label}.yaml").write_text(json.dumps(raw))  # JSON is valid YAML

    with layers.Tracer() as tracer:
        for label, _ in w.cfgs:
            config.load_config(w.work / f"{label}.yaml")
        wall1, out1 = w.run()
        report_bytes = w.io_cycle(out1)[3]
    w.check_rows(out1, "traced")
    (w.work.parent / "trace_spans.json").write_text(json.dumps(tracer.records(), indent=1))

    wall2, out2 = w.run(workers=2)
    w.check_rows(out2, "workers2")

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
        metrics[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for solver in workloads.EXP1_SOLVERS:
        metrics[f"solvers.{solver}.ms_per_row"] = (solver_timer.ms_per_row(solver), "ms")
    ess = tracer.calls("solvers.smc_ess")
    metrics["solvers.smc.resample_ratio"] = (
        tracer.calls("solvers.smc_resample") / ess if ess else 0.0, "ratio")
    metrics["tracing.overhead_frac"] = (wall1 / wall0 - 1.0, "ratio")
    metrics["harness.workers2_speedup"] = (wall0 / wall2, "ratio")
    metrics["harness.report_bytes"] = (report_bytes, "bytes")

    cfg = w.cfgs[0][1]
    init_ms, precompute_ms = kernel_and_fps_ms(cfg, w.seed)
    metrics["diffusion.ReverseKernel.init_ms"] = (init_ms, "ms")
    metrics["solvers.fps_smc.precompute_ms"] = (precompute_ms, "ms")
    for name, us in layers.microtimings(cfg, w.seed).items():
        metrics[name] = (us, "us")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if not Path(diffuq.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"diffuq imported from {diffuq.__file__}, not from {ROOT / 'src'}")

    w = Workload(args.workload, args.seed, args.out / "work")
    metrics = per_layer(w) if args.trace else end_to_end(w, args.seconds)
    result = w.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    result["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "workload_thread_env": {k: v for k, v in os.environ.items()
                                             if k.endswith("_NUM_THREADS")
                                             or k == "VECLIB_MAXIMUM_THREADS"}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
