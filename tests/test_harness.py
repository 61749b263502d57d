import ctypes
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import time

import diffuq.solvers
from diffuq.cli import main
from diffuq.config import config_from_dict
from diffuq.diffusion import ReverseKernel, build_schedule
from diffuq.gmm import _Posterior, build_toy_prior
from diffuq.operators import synthesize_measurement
from diffuq.harness import (
    CSV_HEADER,
    experiment_oracle,
    reaggregate,
    run_experiment,
    write_report,
)
from diffuq.solvers import SOLVER_NAMES, run_cases

SMALL = {
    "experiment": "exp1_identity",
    "master_seed": 11,
    "sigma_y": 1.0,
    "n_cases": 2,
    "k_samples": 5,
    "schedule": {"steps": 12},
    "solvers": ["reference_exact", "ddrm"],
}


@pytest.fixture(scope="module")
def small_rows():
    return run_experiment(config_from_dict(SMALL))


def test_row_count(small_rows):
    assert len(small_rows) == 2 * 2  # solvers x cases


def test_sweep_row_count():
    data = dict(SMALL, solvers=["reference_exact", "mcg_diff"],
                sweep_axis={"solver": "mcg_diff", "name": "particles",
                            "values": [4, 8]})
    rows = run_experiment(config_from_dict(data))
    assert len(rows) == 2 * 2 * 2
    swept = [r for r in rows if r.solver == "mcg_diff"]
    assert {r.sweep_value for r in swept} == {"4", "8"}
    digests = {r.sweep_value: r.hyperparameters_digest for r in swept}
    assert digests["4"] != digests["8"]


def test_solver_fairness(small_rows):
    by_case = {}
    for r in small_rows:
        by_case.setdefault(r.case_id, []).append(r.batch.measurement.y)
    for ys in by_case.values():
        assert all(np.array_equal(ys[0], y) for y in ys)


def test_rerun_and_parallel_byte_identical(tmp_path):
    cfg = config_from_dict(SMALL)
    for out in ("a", "b"):
        write_report(run_experiment(cfg), tmp_path / out, cfg=cfg)
    a = (tmp_path / "a" / "results.csv").read_bytes()
    assert a == (tmp_path / "b" / "results.csv").read_bytes()


def test_run_experiment_starts_no_thread(tmp_path, monkeypatch):
    """``run_experiment`` samples on the calling thread: ``workers`` is
    ignored and the rows are those of a default run."""
    cfg = config_from_dict(SMALL)
    write_report(run_experiment(cfg), tmp_path / "a", cfg=cfg)

    def refuse(self):
        raise AssertionError("run_experiment started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    write_report(run_experiment(cfg, workers=8), tmp_path / "b", cfg=cfg)
    assert ((tmp_path / "a" / "results.csv").read_bytes()
            == (tmp_path / "b" / "results.csv").read_bytes())


def test_csv_header_and_formats(tmp_path, small_rows):
    cfg = config_from_dict(SMALL)
    write_report(small_rows, tmp_path, cfg=cfg)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(small_rows)
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["solver"] == "reference_exact"
    # 12-significant-digit round trip
    assert abs(float(row["coverage"]) - small_rows[0].coverage) < 1e-11


def test_summary_and_manifest(tmp_path, small_rows):
    cfg = config_from_dict(SMALL)
    oracle = experiment_oracle(cfg)
    write_report(small_rows, tmp_path, cfg=cfg, oracle=oracle)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary["solvers"]) == {"reference_exact", "ddrm"}
    for entry in summary["solvers"].values():
        assert "coverage" in entry and "coverage_std" in entry
    assert "oracle_coverage" in summary["oracle"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 11
    assert manifest["n_rows"] == len(small_rows)


def test_manifest_records_blas_builds_and_thread_variables(tmp_path, small_rows, monkeypatch):
    """manifest.json names the BLAS and LAPACK builds of numpy and scipy and
    the ``*_NUM_THREADS`` variables, so that a digest that differs on
    another machine can be traced to its build."""
    import scipy

    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    write_report(small_rows, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for module in (np, scipy):
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        assert manifest["blas"][module.__name__] == {"blas": deps["blas"],
                                                     "lapack": deps["lapack"]}
    assert manifest["thread_env"]["OMP_NUM_THREADS"] == "1"
    assert manifest["thread_env"] == {k: v for k, v in os.environ.items()
                                      if k.endswith("_NUM_THREADS")}


def test_manifest_records_the_row_draw_path(tmp_path, small_rows, monkeypatch):
    """manifest.json says whether this process drew its rows through the
    compiled loop or the numpy path (null before it makes any streams), or
    names the path it is given."""
    import diffuq.seeding

    def row_draws(**kwargs):
        write_report(small_rows, tmp_path, **kwargs)
        return json.loads((tmp_path / "manifest.json").read_text())["row_draws"]

    assert row_draws() == ("numpy" if diffuq.seeding._rowdraws() is None else "compiled")
    # a loader not yet asked, as in a process that has made no streams
    monkeypatch.setattr(diffuq.seeding, "_rowdraws", functools.cache(lambda: None))
    assert row_draws() is None
    diffuq.seeding.streams(np.arange(3, dtype=np.uint64))
    assert row_draws() == "numpy"
    assert row_draws(row_draws="compiled") == "compiled"


def test_cli_report_builds_nothing_and_keeps_the_runs_row_draws(tmp_path):
    """``diffuq report`` draws nothing, so it neither builds the row loop nor
    warns that it is unavailable, and its manifest keeps the run's
    ``row_draws``. It runs in a new interpreter with an empty cache and a
    compiler that fails, because the loop is decided once per process."""
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, SMALL), "--out", str(out), "--no-oracle",
                 "--save-samples"]) == 0
    run_draws = json.loads((out / "manifest.json").read_text())["row_draws"]
    cache = tmp_path / "cache"
    cache.mkdir()
    env = {**os.environ, "XDG_CACHE_HOME": str(cache), "CC": "false",
           "PYTHONPATH": str(Path(diffuq.solvers.__file__).resolve().parents[1])}
    code = "import sys; from diffuq.cli import main; sys.exit(main(sys.argv[1:]))"
    report = subprocess.run([sys.executable, "-c", code, "report", str(out)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert report.returncode == 0, report.stderr
    assert "RuntimeWarning" not in report.stderr
    assert not any(cache.iterdir())
    assert run_draws in ("compiled", "numpy")
    assert json.loads((out / "manifest.json").read_text())["row_draws"] == run_draws


def test_wall_time_not_in_csv(tmp_path, small_rows):
    write_report(small_rows, tmp_path)
    assert "wall_time" not in (tmp_path / "results.csv").read_text()
    assert all(r.wall_time >= 0 for r in small_rows)


def test_write_report_requires_rows(tmp_path):
    with pytest.raises(ValueError, match="nonempty"):
        write_report([], tmp_path)


def test_reaggregate_round_trip(tmp_path, small_rows):
    cfg = config_from_dict(SMALL)
    write_report(small_rows, tmp_path, cfg=cfg, save_samples=True)
    rows2 = reaggregate(tmp_path)
    assert len(rows2) == len(small_rows)
    orig = {(r.solver, r.case_id): r for r in small_rows}
    for r in rows2:
        o = orig[(r.solver, r.case_id)]
        assert r.coverage == pytest.approx(o.coverage, nan_ok=True)
        assert r.rmse_mean == pytest.approx(o.rmse_mean, nan_ok=True)


def test_huge_ddrm_eta_fails_its_rows_not_the_run(tmp_path):
    """ddrm squares eta and eta_b; at 1e200 each overflows to inf, so its
    rows diverge while the run completes with the other solver's rows."""
    for key in ("eta", "eta_b"):
        cfg = config_from_dict(dict(SMALL, n_cases=1, solvers=[
            "reference_exact", {"name": "ddrm", "hyperparameters": {key: 1e200}}]))
        with np.errstate(all="ignore"):
            rows = run_experiment(cfg)
        write_report(rows, tmp_path / key, cfg=cfg)
        by_solver = {r.solver: r for r in rows}
        assert by_solver["ddrm"].failure_rate == 1.0, key
        assert by_solver["reference_exact"].batch.statuses == ["ok"] * cfg.k_samples
        assert len((tmp_path / key / "results.csv").read_text().splitlines()) == 3


def test_reaggregate_requires_samples(tmp_path):
    with pytest.raises(ValueError, match="samples"):
        reaggregate(tmp_path)


def _assert_rows_equal_one_case_batches(cfg, rows):
    """Each result row's batch equals ``run_cases`` of its case alone, bit
    for bit, statuses and seeds included."""
    for r in rows:
        alone, = run_cases(r.batch.solver, cfg.problem, [r.batch.measurement], cfg.k_samples,
                           [r.seed])
        where = (r.solver, r.case_id)
        assert r.batch.statuses == alone.statuses, where
        assert r.batch.seeds == alone.seeds, where
        assert np.array_equal(r.batch.samples, alone.samples, equal_nan=True), where


BATCHED = dict(SMALL, n_cases=3, k_samples=3, solvers=list(SOLVER_NAMES))
BINARY_OBS8 = {"kind": "binary_svd", "obs_count": 8, "basis_mode": "coordinate"}


@pytest.mark.parametrize("experiment, operator", [
    ("exp1_identity", {}), ("exp2_binary", BINARY_OBS8)], ids=["identity", "binary_obs8"])
def test_batched_cases_equal_one_case_batches(experiment, operator):
    """All ten solvers sample their three cases as one row batch, and each
    case gets the rows ``run_cases`` gives it alone."""
    cfg = config_from_dict(dict(BATCHED, experiment=experiment, operator=operator))
    assert cfg.n_cases * cfg.k_samples <= diffuq.solvers.ROW_BUDGET
    with np.errstate(all="ignore"):
        rows = run_experiment(cfg)
        _assert_rows_equal_one_case_batches(cfg, rows)
    if operator:  # fps_smc divides by the zero singular values: every row leaves at step 0
        fps = [s for r in rows if r.solver == "fps_smc" for s in r.batch.statuses]
        assert fps == ["diverged(step=0; pseudo-inverse of zero singular values)"] * 9


def test_rows_that_leave_mid_run_take_their_measurement():
    """reddiff at sigma_y = 0.1 with 125 steps sits at its stability edge:
    rows of the first cases leave near the end while the later cases' rows
    run on, each with its own case's y."""
    cfg = config_from_dict(dict(SMALL, sigma_y=0.1, n_cases=3, k_samples=8,
                                solvers=[{"name": "reddiff",
                                          "hyperparameters": {"opt_steps": 125}}]))
    with np.errstate(all="ignore"):
        rows = run_experiment(cfg)
        _assert_rows_equal_one_case_batches(cfg, rows)
    statuses = [r.batch.statuses for r in rows]
    assert any(s.startswith("diverged(step=1") for s in statuses[0])
    assert "ok" in statuses[-1]


def test_cases_span_several_batches(monkeypatch):
    """With room for two cases per row chunk, each solver sets up once and
    advances its three cases in two chunks, and each case still gets its
    one-case rows."""
    monkeypatch.setattr(diffuq.solvers, "ROW_BUDGET", 7)
    cfg = config_from_dict(dict(BATCHED, solvers=["pnpdm", "mcg_diff", "reddiff"]))
    calls = []
    setup = diffuq.solvers._setup

    def counting_setup(spec, problem, ms):
        rows = setup(spec, problem, ms)
        calls.append((spec.name, "setup", len(ms)))

        def counting_rows(rngs, cases):
            calls.append((spec.name, "rows", sorted(set(cases))))
            return rows(rngs, cases)

        return counting_rows

    monkeypatch.setattr(diffuq.solvers, "_setup", counting_setup)
    rows = run_experiment(cfg)
    assert calls == [c for name in ("pnpdm", "mcg_diff", "reddiff")
                     for c in ((name, "setup", 3), (name, "rows", [0, 1]), (name, "rows", [2]))]
    monkeypatch.setattr(diffuq.solvers, "_setup", setup)
    _assert_rows_equal_one_case_batches(cfg, rows)


def test_row_wall_times_sum_within_the_run():
    """Each case's ``wall_time`` is its share of its batch, so the rows'
    sum, and manifest.json's ``total_wall_time``, stay within the run."""
    cfg = config_from_dict(dict(BATCHED, n_cases=4, solvers=["reference_exact", "ddrm"]))
    t0 = time.perf_counter()
    rows = run_experiment(cfg)
    wall = time.perf_counter() - t0
    assert all(r.wall_time > 0 for r in rows)
    assert sum(r.wall_time for r in rows) <= wall


def test_exp2_rows_have_null_variance():
    data = dict(SMALL, experiment="exp2_binary", solvers=["reference_exact"])
    rows = run_experiment(config_from_dict(data))
    for r in rows:
        assert np.isfinite(r.var_null)
        assert np.isfinite(r.ratio)


def test_oracle_values(toy_prior):
    cfg = config_from_dict(dict(SMALL, n_cases=4, k_samples=50))
    oracle = experiment_oracle(cfg)
    assert 0.7 <= oracle["oracle_coverage"] <= 1.0
    assert oracle["theory_var_obs"] > 0
    assert np.isnan(oracle["theory_var_null"])  # identity has no null space


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_cfg(tmp_path, data):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path)


@pytest.mark.parametrize("env, want", [
    ({}, ("1", None)),
    ({"OPENBLAS_NUM_THREADS": "3"}, ("3", None)),
    ({"OMP_NUM_THREADS": "3"}, (None, "3")),
], ids=["unset", "openblas_set", "omp_set"])
def test_import_runs_blas_on_one_thread_by_default(env, want):
    """Imported before numpy, diffuq sets OPENBLAS_NUM_THREADS to 1 unless
    it or OMP_NUM_THREADS is set, and leaves OMP_NUM_THREADS alone. Runs in
    a new interpreter, because this one has loaded numpy already."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = str(Path(diffuq.solvers.__file__).resolve().parents[1])
    code = ("import os, diffuq, numpy; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))")
    run = subprocess.run([sys.executable, "-c", code], env={**base, **env}, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.split() == [str(v) for v in want]


def _openblas_threads():
    """The thread count of numpy's bundled OpenBLAS in this process, or None
    when numpy bundles none with ``scipy_openblas_get_num_threads64_``."""
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            return ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            continue
    return None


def test_suite_runs_blas_at_the_variables_thread_count():
    """tests/conftest.py imports diffuq before numpy, so this process's
    OpenBLAS runs the thread count OPENBLAS_NUM_THREADS names (OpenBLAS caps
    it at the usable CPUs)."""
    want = os.environ.get("OPENBLAS_NUM_THREADS")
    if want is None:
        pytest.skip("OPENBLAS_NUM_THREADS is not set")
    got = _openblas_threads()
    if got is None:
        pytest.skip("numpy bundles no scipy-openblas")
    assert got == min(int(want), len(os.sched_getaffinity(0)))


def test_cli_run(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    rc = main(["run", cfg_path, "--out", str(out), "--no-oracle",
               "--save-samples"])
    assert rc == 0
    assert (out / "results.csv").exists()
    assert (out / "samples").is_dir()


def test_cli_oracle(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, dict(SMALL, n_cases=2, k_samples=10))
    assert main(["oracle", cfg_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "oracle_coverage" in out


# sha256 of what ``diffuq oracle`` prints for each shipped config (numpy 2.4.6
# and scipy 1.17.1 with their bundled OpenBLAS builds); exp2 prints coverage
# 0.946875 and rmse 1.6913081555332201
_ORACLE_SHA256 = {
    "exp1": "85534cf6eca6cae165b24df15e32b1069bd39f914927fd3cde9f6d2196698b54",
    "exp2": "93acbc9161d21d84ff651bb5e933434da025968b261da1f9530567e6afb1b930",
}


@pytest.mark.parametrize("name", sorted(_ORACLE_SHA256))
def test_cli_oracle_matches_pinned_digest(name, capsys):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.yaml"
    assert main(["oracle", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _ORACLE_SHA256[name]


def test_cli_sweep(tmp_path):
    cfg_path = write_cfg(tmp_path, dict(SMALL, solvers=["mcg_diff"]))
    out = tmp_path / "sweep_out"
    rc = main(["sweep", cfg_path, "--solver", "mcg_diff", "--param", "particles",
               "--values", "4,8", "--out", str(out)])
    assert rc == 0
    text = (out / "results.csv").read_text()
    assert "particles,4" in text and "particles,8" in text


def test_cli_report(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    main(["run", cfg_path, "--out", str(out), "--no-oracle", "--save-samples"])
    first = (out / "results.csv").read_bytes()
    rc = main(["report", str(out)])
    assert rc == 0
    assert (out / "results.csv").exists()
    assert first  # original artifacts were produced before re-aggregation


def test_cli_report_reproduces_run(tmp_path):
    data = dict(SMALL, experiment="exp2_binary", sigma_y=0.5,
                solvers=["reference_exact",
                         {"name": "mcg_diff", "hyperparameters": {"particles": 4}},
                         {"name": "mcg_diff", "hyperparameters": {"particles": 8}}])
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, data), "--out", str(out), "--save-samples"]) == 0
    before = {n: (out / n).read_bytes() for n in ("results.csv", "summary.json")}
    assert main(["report", str(out)]) == 0
    for name, blob in before.items():
        assert (out / name).read_bytes() == blob, name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["solvers"][1]["hyperparameters"] == {"particles": 4}
    specs = config_from_dict(data).solvers
    rows = reaggregate(out)
    assert [r.batch.solver for r in rows] == [s for s in specs for _ in range(2)]
    assert all(r.batch.measurement.sigma_y == 0.5 for r in rows)


@pytest.mark.parametrize("solvers, solver, param, values", [
    (["reference_exact", "mcg_diff"], "mcg_diff", "particles", "4,8"),
    (["pnpdm", "ddrm"], "pnpdm", "rho_coupling", "0.1,0.5"),
], ids=["mcg_diff-particles", "pnpdm-rho_coupling"])
def test_cli_report_reproduces_sweep(tmp_path, solvers, solver, param, values):
    """``report`` of a sweep run rewrites its results.csv and summary.json
    byte for byte."""
    data = dict(SMALL, experiment="exp2_binary", sigma_y=0.5, solvers=solvers)
    out = tmp_path / "out"
    assert main(["sweep", write_cfg(tmp_path, data), "--solver", solver, "--param", param,
                 "--values", values, "--out", str(out), "--save-samples"]) == 0
    before = {n: (out / n).read_bytes() for n in ("results.csv", "summary.json")}
    assert main(["report", str(out), "--out", str(tmp_path / "again")]) == 0
    for name, blob in before.items():
        assert (tmp_path / "again" / name).read_bytes() == blob, name
    assert f"{param},{values.split(',')[1]}" in before["results.csv"].decode()


def test_one_build_per_experiment(monkeypatch):
    """``config_from_dict`` builds the prior and the schedule once and makes
    the cases once, and two ``run_experiment`` calls and ``experiment_oracle``
    use what it made: the problem's exact posterior and reverse kernel are
    each built once. Each builder is counted at every binding in the
    package."""
    counts = {}
    for cls in (_Posterior, ReverseKernel):
        def counted_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            counts[_cls.__name__] += 1
            _init(self, *args, **kwargs)
        counts[cls.__name__] = 0
        monkeypatch.setattr(cls, "__init__", counted_init)
    for builder in (build_toy_prior, build_schedule, synthesize_measurement):
        def counted(*args, _builder=builder, **kwargs):
            counts[_builder.__name__] += 1
            return _builder(*args, **kwargs)
        counts[builder.__name__] = 0
        for name, module in list(sys.modules.items()):
            bound = getattr(module, builder.__name__, None)
            if name.split(".")[0] == "diffuq" and bound is builder:
                monkeypatch.setattr(module, builder.__name__, counted)
    cfg = config_from_dict(dict(SMALL, solvers=["reference_exact", "ddrm"],
                                sweep_axis={"solver": "ddrm", "name": "eta", "values": [0.5, 1]}))
    run_experiment(cfg)
    run_experiment(cfg)
    experiment_oracle(cfg)
    assert counts == {"_Posterior": 1, "ReverseKernel": 1, "build_toy_prior": 1,
                      "build_schedule": 1, "synthesize_measurement": cfg.n_cases}


@pytest.mark.parametrize("key", ["row", "sigma_y", "hyperparameters"])
def test_reaggregate_names_missing_metadata(tmp_path, small_rows, key):
    write_report(small_rows, tmp_path, save_samples=True)
    path = next((tmp_path / "samples").iterdir())
    data = dict(np.load(path))
    meta = json.loads(str(data["meta"]))
    del meta[key]
    np.savez(path, **{**data, "meta": np.array(json.dumps(meta))})
    with pytest.raises(ValueError, match=repr(key)):
        reaggregate(tmp_path)


def test_report_in_place_after_two_runs_into_one_directory(tmp_path):
    """A second --save-samples run into a directory replaces the sample
    files of the first, so ``report`` in place rebuilds the second run's
    results.csv, and does so again on a second call."""
    out = str(tmp_path / "out")
    assert main(["sweep", write_cfg(tmp_path, dict(SMALL, solvers=["ddnm", "dps"])),
                 "--solver", "dps", "--param", "guidance_scale", "--values", "0.1,0.2",
                 "--out", out, "--save-samples"]) == 0
    assert main(["run", write_cfg(tmp_path, dict(SMALL, n_cases=1, solvers=["ddrm"])),
                 "--out", out, "--no-oracle", "--save-samples"]) == 0
    second = (tmp_path / "out" / "results.csv").read_bytes()
    for _ in range(2):  # a report in place leaves the directory reportable
        assert main(["report", out]) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == second


def test_run_without_samples_drops_an_earlier_runs_samples(tmp_path, capsys):
    """A run without --save-samples into a directory that holds an earlier
    run's samples removes them, so ``report`` does not return the earlier
    run's rows."""
    out = str(tmp_path / "out")
    assert main(["run", write_cfg(tmp_path, dict(SMALL, solvers=["ddnm", "dps"])),
                 "--out", out, "--no-oracle", "--save-samples"]) == 0
    assert main(["run", write_cfg(tmp_path, dict(SMALL, n_cases=1, solvers=["ddrm"])),
                 "--out", out, "--no-oracle"]) == 0
    assert not list((tmp_path / "out" / "samples").iterdir())
    with pytest.raises(SystemExit) as exit_info:
        main(["report", out, "--out", str(tmp_path / "o2")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"diffuq report: error: report {out}: no persisted samples under {out}"], err


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory, small_rows):
    """A report directory with persisted samples."""
    out = tmp_path_factory.mktemp("saved")
    write_report(small_rows, out, save_samples=True)
    return str(out)


FIRST_SAMPLE = "row0__reference_exact__case0.npz"  # the file reaggregate reads first


@pytest.fixture(scope="module")
def damaged_runs(tmp_path_factory, small_rows):
    """Report directories with a damaged ``samples/``, manifest or summary, by name."""
    runs = {name: tmp_path_factory.mktemp(name) for name in
            ("truncated", "no_operator", "bad_meta", "empty", "stray", "bad_manifest",
             "bad_config", "list_summary", "manifest_dir", "summary_dir")}
    for name in ("truncated", "no_operator", "bad_meta", "bad_manifest", "bad_config",
                 "list_summary", "manifest_dir", "summary_dir"):
        write_report(small_rows, runs[name], save_samples=True)
    for name, artifact in (("manifest_dir", "manifest.json"), ("summary_dir", "summary.json")):
        (runs[name] / artifact).unlink()
        (runs[name] / artifact).mkdir()  # exists, but cannot be opened as a file
    first = {name: runs[name] / "samples" / FIRST_SAMPLE
             for name in ("truncated", "no_operator", "bad_meta")}
    (runs["bad_manifest"] / "manifest.json").write_text("{broken")
    (runs["list_summary"] / "summary.json").write_text("[1]")
    (runs["bad_config"] / "manifest.json").write_text(
        json.dumps({"config": dict(SMALL, sigma_y=-1.0)}))
    blob = first["truncated"].read_bytes()
    first["truncated"].write_bytes(blob[:len(blob) // 2])
    data = dict(np.load(first["no_operator"]))
    del data["operator"]
    np.savez(first["no_operator"], **data)
    data = dict(np.load(first["bad_meta"]))
    np.savez(first["bad_meta"], **{**data, "meta": np.array("{not json")})
    for name in ("empty", "stray"):
        (runs[name] / "samples").mkdir()
    (runs["stray"] / "samples" / "notes.txt").write_text("notes\n")
    return {name: str(out) for name, out in runs.items()}


@pytest.mark.parametrize("argv, names", [
    (["sweep", "{cfg}", "--solver", "ddrm", "--param", "eta", "--values", "8,abc"],
     "--values: 'abc'"),
    (["sweep", "{cfg}", "--solver", "ddrm", "--param", "nope", "--values", "1"], "'nope'"),
    (["run", "{missing}"], "cannot read config file {missing}"),
    (["oracle", "{missing}"], "cannot read config file {missing}"),
    (["run", "{bad}"], "config file {bad}: sigma_y must lie within"),
    (["oracle", "{broken}"], "config file {broken}: "),
    (["report", "{missing}"], "report {missing}: no persisted samples"),
    (["run", "{cfg}", "--out", "{cfg}"], "--out {cfg}: "),
    (["run", "{cfg}", "--out", "{cfg}/out"], "--out {cfg}/out: "),
    (["sweep", "{cfg}", "--solver", "ddrm", "--param", "eta", "--values", "0.5",
      "--out", "{cfg}"], "--out {cfg}: "),
    (["report", "{saved}", "--out", "{cfg}"], "--out {cfg}: "),
    (["report", "{truncated}"], f"report {{truncated}}: {FIRST_SAMPLE}: File is not a zip"),
    (["report", "{no_operator}", "--out", "{out}"],
     f"report {{no_operator}}: {FIRST_SAMPLE}: 'operator is not a file"),
    (["report", "{empty}"], "report {empty}: no persisted samples"),
    (["report", "{stray}"], "report {stray}: no persisted samples"),
    (["report", "{bad_meta}"], f"report {{bad_meta}}: {FIRST_SAMPLE}: Expecting property"),
    (["report", "{bad_manifest}"], "report {bad_manifest}: manifest.json: Expecting property"),
    (["report", "{bad_config}"], "report {bad_config}: sigma_y must lie within"),
    (["report", "{list_summary}"], "report {list_summary}: summary.json: 'list' object"),
    (["report", "{manifest_dir}", "--out", "{out}"],
     "report {manifest_dir}: manifest.json: [Errno 21] Is a directory"),
    (["report", "{summary_dir}", "--out", "{out}"],
     "report {summary_dir}: summary.json: [Errno 21] Is a directory"),
], ids=["values", "param", "missing-run", "missing-oracle", "invalid-config", "invalid-yaml",
        "report-missing", "out-file-run", "out-under-file-run", "out-file-sweep",
        "out-file-report", "report-truncated", "report-no-operator", "report-empty",
        "report-stray-file", "report-bad-meta", "report-bad-manifest",
        "report-bad-manifest-config", "report-summary-not-object", "report-manifest-unopenable",
        "report-summary-unopenable"])
def test_cli_bad_input_is_one_error_line(tmp_path, capsys, saved_run, damaged_runs, argv,
                                         names):
    """Bad input ends with exit status 2 and one error line that names the
    flag or file, and no traceback."""
    paths = {"cfg": write_cfg(tmp_path, SMALL), "missing": str(tmp_path / "nope.yaml"),
             "bad": str(tmp_path / "bad.yaml"), "broken": str(tmp_path / "broken.yaml"),
             "saved": saved_run, "out": str(tmp_path / "out"), **damaged_runs}
    Path(paths["bad"]).write_text(yaml.safe_dump(dict(SMALL, sigma_y=1e-200)))
    Path(paths["broken"]).write_text("experiment: [\n")
    argv = [a.format(**paths) for a in argv] + (
        ["--out", str(tmp_path / "out")]
        if argv[0] in ("run", "sweep") and "--out" not in argv else [])
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and names.format(**paths) in errors[0], err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_readme_python_quickstart():
    """The README's import line works, and its calls run on a tiny config."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    ns = {}
    exec(re.search(r"^from diffuq import .+$", readme, re.M).group(0), ns)
    cfg = ns["config_from_dict"]({
        "experiment": "exp1_identity",
        "master_seed": 7,
        "sigma_y": 1.0,
        "n_cases": 1,
        "k_samples": 2,
        "solvers": ["reference_exact"],
    })
    rows = ns["run_experiment"](cfg)
    assert len(rows) == 1 and rows[0].batch.statuses == ["ok", "ok"]
    assert 0.0 < ns["experiment_oracle"](cfg)["oracle_coverage"] <= 1.0
