import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from diffuq.cli import main
from diffuq.config import config_from_dict
from diffuq.harness import (
    CSV_HEADER,
    experiment_oracle,
    reaggregate,
    run_experiment,
    write_report,
)

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
    for out, workers in (("a", None), ("b", None), ("c", 8)):
        write_report(run_experiment(cfg, workers=workers), tmp_path / out,
                     cfg=cfg)
    a = (tmp_path / "a" / "results.csv").read_bytes()
    assert a == (tmp_path / "b" / "results.csv").read_bytes()
    assert a == (tmp_path / "c" / "results.csv").read_bytes()


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
    oracle = experiment_oracle(cfg, k_samples=20)
    write_report(small_rows, tmp_path, cfg=cfg, oracle=oracle)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary["solvers"]) == {"reference_exact", "ddrm"}
    for entry in summary["solvers"].values():
        assert "coverage" in entry and "coverage_std" in entry
    assert "oracle_coverage" in summary["oracle"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 11
    assert manifest["n_rows"] == len(small_rows)


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


def test_reaggregate_requires_samples(tmp_path):
    with pytest.raises(ValueError, match="samples"):
        reaggregate(tmp_path)


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


def test_cli_workers_env(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, SMALL)
    monkeypatch.setenv("DIFFUQ_WORKERS", "4")
    out = tmp_path / "env_out"
    assert main(["run", cfg_path, "--out", str(out), "--no-oracle"]) == 0
    assert (out / "results.csv").exists()


@pytest.mark.parametrize("argv, env, names", [
    (["sweep", "{cfg}", "--solver", "ddrm", "--param", "eta", "--values", "8,abc"], None,
     "--values: 'abc'"),
    (["sweep", "{cfg}", "--solver", "ddrm", "--param", "nope", "--values", "1"], None,
     "'nope'"),
    (["run", "{cfg}", "--workers", "0"], None, "argument --workers"),
    (["run", "{cfg}", "--workers", "two"], None, "argument --workers"),
    (["run", "{cfg}"], "two", "DIFFUQ_WORKERS"),
    (["run", "{cfg}"], "0", "DIFFUQ_WORKERS"),
    (["run", "{missing}"], None, "cannot read config file {missing}"),
    (["oracle", "{missing}"], None, "cannot read config file {missing}"),
    (["run", "{bad}"], None, "config file {bad}: sigma_y must lie within"),
    (["oracle", "{broken}"], None, "config file {broken}: "),
    (["report", "{missing}"], None, "report {missing}: no persisted samples"),
], ids=["values", "param", "workers-0", "workers-text", "env-text", "env-0", "missing-run",
        "missing-oracle", "invalid-config", "invalid-yaml", "report-missing"])
def test_cli_bad_input_is_one_error_line(tmp_path, monkeypatch, capsys, argv, env, names):
    """Bad input ends with exit status 2 and one error line that names the
    flag, variable or file, and no traceback."""
    paths = {"cfg": write_cfg(tmp_path, SMALL), "missing": str(tmp_path / "nope.yaml"),
             "bad": str(tmp_path / "bad.yaml"), "broken": str(tmp_path / "broken.yaml")}
    Path(paths["bad"]).write_text(yaml.safe_dump(dict(SMALL, sigma_y=1e-200)))
    Path(paths["broken"]).write_text("experiment: [\n")
    if env is None:
        monkeypatch.delenv("DIFFUQ_WORKERS", raising=False)
    else:
        monkeypatch.setenv("DIFFUQ_WORKERS", env)
    argv = [a.format(**paths) for a in argv] + (
        ["--out", str(tmp_path / "out")] if argv[0] in ("run", "sweep") else [])
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
