"""Pin the results.csv sha256 of every workload config for a list of seeds.

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/pin_digests.py 2024 1 2 3 ...

Writes perfbench/digests.json, which workload.py checks every run against.
Run it only on a commit whose results.csv is the reference: a later change
must reproduce these bytes, so re-pinning is a change of the benchmark.
"""

import json
import sys
import tempfile
from pathlib import Path

from diffuq import config, harness

import workloads
from workload import results_digest


def main(seeds) -> None:
    path = Path(__file__).with_name("digests.json")
    pinned = json.loads(path.read_text()) if path.exists() else {}
    scratch = Path(__file__).resolve().parents[1] / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for seed in seeds:
            for name in workloads.WORKLOADS:
                for label, raw in workloads.configs(name, seed):
                    cfg = config.config_from_dict(raw)
                    rows = harness.run_experiment(cfg)
                    digest = results_digest(rows, cfg, Path(tmp) / label)
                    pinned.setdefault(str(seed), {}).setdefault(name, {})[label] = digest
                    print(seed, name, label, digest, flush=True)
            path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
