"""The byte-identity contract: results.csv of both benchmark workloads at the
default seed must hash to the digests pinned in perfbench/digests.json. Also
keeps the package entry points the benchmark calls beyond ``run_experiment``
working.

Reads perfbench/workloads.py, perfbench/layers.py and perfbench/digests.json;
writes only under the test's temporary directory.
"""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

from diffuq.config import config_from_dict
from diffuq.harness import run_experiment, write_report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 2024


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench("workloads")
PINNED = json.loads((PERFBENCH / "digests.json").read_text())[str(SEED)]


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_results_csv_matches_pinned_digest(workload, tmp_path):
    for label, raw in WORKLOADS.configs(workload, SEED):
        cfg = config_from_dict(raw)
        paths = write_report(run_experiment(cfg), tmp_path / label, cfg=cfg)
        digest = hashlib.sha256(Path(paths["results.csv"]).read_bytes()).hexdigest()
        assert digest == PINNED[workload][label], f"{workload}/{label}"


def test_benchmark_entry_points(tmp_path):
    """``layers.microtimings`` runs on the exp1_all config, and
    ``run_experiment`` takes ``workers=2`` with the pinned digest."""
    (label, raw), = WORKLOADS.configs("exp1_all", SEED)
    cfg = config_from_dict(raw)
    timings = _perfbench("layers").microtimings(cfg, SEED)
    assert timings and all(math.isfinite(us) and us > 0 for us in timings.values())
    paths = write_report(run_experiment(cfg, workers=2), tmp_path / label, cfg=cfg)
    digest = hashlib.sha256(Path(paths["results.csv"]).read_bytes()).hexdigest()
    assert digest == PINNED["exp1_all"][label]


def test_workers2_runs_match_pinned_digest(tmp_path):
    """Three ``run_experiment(workers=2)`` runs of exp1_all each give the
    pinned results.csv: the worker threads' LAPACK solves do not disturb
    each other."""
    (label, raw), = WORKLOADS.configs("exp1_all", SEED)
    cfg = config_from_dict(raw)
    for run in range(3):
        paths = write_report(run_experiment(cfg, workers=2), tmp_path / f"{label}-{run}", cfg=cfg)
        digest = hashlib.sha256(Path(paths["results.csv"]).read_bytes()).hexdigest()
        assert digest == PINNED["exp1_all"][label], f"run {run}"
