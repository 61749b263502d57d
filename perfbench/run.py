"""diffuq benchmark: one workload, one command.

    python3 perfbench/run.py --workload exp1_all --seed 2024 --seconds 55 --trace 0

Run from the root of a checkout. With ``--trace 0`` it prints every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` every per-layer
metric. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the environment record and a readable table. The exit code is non-zero
when an output check fails (a results.csv digest, row count or status set).

The workload runs in a child process with the BLAS and OpenMP thread
variables set to 1. ``setup_s`` is the median over fresh processes of
``setup_probe.py``. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "diffuq").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "caller_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(config_file: Path, env: dict, deadline: float) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config_file)],
                              env=env, capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "diffuq" / "__init__.py").is_file():
        print(f"error: no diffuq sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    env_record = environment()
    out = ROOT / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "work").mkdir(parents=True)
    env = child_env()
    try:
        setup_s = None
        if not args.trace:
            config_file = out / "setup.yaml"  # JSON is valid YAML
            config_file.write_text(json.dumps(workloads.configs(args.workload, args.seed)[0][1]))
            setup_s = setup_seconds(config_file, env, deadline)
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(out)],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(getattr(exc, "stderr", "") or "", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "work", ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        print(proc.stderr, file=sys.stderr)
        return 1

    child = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = dict(child["metrics"])
    if setup_s is not None:
        measured["setup_s"] = {"value": setup_s, "unit": "s"}
    problems = list(child["problems"])
    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}
    correct = child["correct"] and not problems

    env_record.update(child["env"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_record, "digests": child["digests"],
              "problems": problems, "measured": measured}
    (out / "result.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env_record))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{child['attempted']} rows attempted, {child['failed']} failed")
    for name, v in measured.items():
        print(f"  {name:<52} {v['value']:>16.6g} {v['unit']}")
    for problem in problems:
        print(f"  MISMATCH {problem}")
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
