"""The byte-identity contract: results.csv of both benchmark workloads at the
default seed must hash to the digests pinned in perfbench/digests.json. Also
keeps the package entry points the benchmark calls beyond ``run_experiment``
working.

Reads perfbench/workloads.py, perfbench/layers.py, perfbench/workload.py,
perfbench/setup_probe.py and perfbench/digests.json; writes only under the
test's temporary directory.
"""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
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


def test_benchmark_entry_points(tmp_path, monkeypatch):
    """On the exp1_all config: ``layers.microtimings`` runs,
    ``workload.kernel_and_fps_ms`` (the ``--trace 1`` timings) returns two
    finite numbers, ``setup_probe.py`` prints its positive set-up seconds in
    a fresh process, and ``run_experiment`` takes ``workers=2`` with the
    pinned digest."""
    (label, raw), = WORKLOADS.configs("exp1_all", SEED)
    cfg = config_from_dict(raw)
    timings = _perfbench("layers").microtimings(cfg, SEED)
    assert timings and all(math.isfinite(us) and us > 0 for us in timings.values())
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workload.py imports its siblings by name
    ms = _perfbench("workload").kernel_and_fps_ms(cfg, SEED)
    assert len(ms) == 2 and all(math.isfinite(v) for v in ms)
    config_file = tmp_path / "exp1_all.yaml"
    config_file.write_text(json.dumps(raw))  # JSON is valid YAML
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    probe = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), str(config_file)],
                           env=env, capture_output=True, text=True, check=True, timeout=120)
    assert float(probe.stdout.strip().splitlines()[-1]) > 0
    paths = write_report(run_experiment(cfg, workers=2), tmp_path / label, cfg=cfg)
    digest = hashlib.sha256(Path(paths["results.csv"]).read_bytes()).hexdigest()
    assert digest == PINNED["exp1_all"][label]

