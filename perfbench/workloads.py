"""Workload definitions: the configs each workload runs, built from a seed.

Pure data with no numpy import, so the launcher can validate a workload
name without loading the program. The seed becomes ``master_seed``; the
program sees only the generated config.
"""

DEFAULT_SEED = 2024  # master_seed of configs/exp1.yaml and configs/exp2.yaml

EXP1_SOLVERS = ["reference_exact", "pnpdm", "fps_smc", "mcg_diff", "dps",
                "daps", "ddnm", "ddrm", "diffpir", "reddiff"]

# exp1_all keeps the floors a row-batched sampler needs (two cases, 16 rows
# per case) and cuts the 100-level noise grid to 40 levels, so that two
# run_experiment calls of all ten solvers fit in one timed run. Every loop
# and primitive still runs; pnpdm stays the largest share of a row.
SAMPLER_SCHEDULE = {"steps": 40}
SAMPLER_CASES, SAMPLER_ROWS = 2, 16
ORACLE_CASES, ORACLE_ROWS = 60, 100


def _cfg(experiment, seed, solvers, n_cases, k_samples, schedule=None):
    cfg = {"experiment": experiment, "master_seed": seed, "sigma_y": 1.0,
           "n_cases": n_cases, "k_samples": k_samples, "solvers": solvers}
    if schedule:
        cfg["schedule"] = dict(schedule)
    return cfg


def configs(workload: str, seed: int) -> list:
    """(label, config dict) pairs the workload runs, in order."""
    if workload == "exp1_all":
        return [("exp1", _cfg("exp1_identity", seed, EXP1_SOLVERS, SAMPLER_CASES,
                              SAMPLER_ROWS, SAMPLER_SCHEDULE))]
    if workload == "oracle_io":
        return [
            ("exp1_ref", _cfg("exp1_identity", seed, ["reference_exact"],
                              ORACLE_CASES, ORACLE_ROWS)),
            ("exp2_ref", _cfg("exp2_binary", seed, ["reference_exact"],
                              ORACLE_CASES, ORACLE_ROWS)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("exp1_all", "oracle_io")
