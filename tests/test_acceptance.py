"""End-to-end acceptance scenarios.

Each test is one acceptance criterion, stated in its docstring with the
tolerance it enforces. The heavyweight experiment runs are shared through
session fixtures; everything is deterministic given the seeds fixed here.
"""

import numpy as np
import pytest

from diffuq.config import config_from_dict
from diffuq.diagnostics import coverage_eval
from diffuq.diffusion import build_schedule
from diffuq.gmm import (
    ToyPriorSpec,
    build_toy_prior,
    exact_posterior,
    mixture_moments,
    sample_mixture,
)
from diffuq.harness import experiment_oracle, run_experiment, write_report
from diffuq.operators import build_operator, synthesize_measurement
from diffuq.seeding import derive_seed
from diffuq.solvers import SamplingContext, resolve_solver, run_batch

MASTER = 77

EXP1 = {
    "experiment": "exp1_identity",
    "master_seed": MASTER,
    "sigma_y": 1.0,
    "n_cases": 6,
    "k_samples": 50,
    "solvers": ["reference_exact", "pnpdm", "fps_smc", "mcg_diff", "dps",
                "daps", "ddnm", "ddrm", "diffpir", "reddiff"],
}

EXP2 = {
    "experiment": "exp2_binary",
    "master_seed": MASTER,
    "sigma_y": 1.0,
    "n_cases": 4,
    "k_samples": 60,
    "solvers": ["pnpdm",
                {"name": "mcg_diff", "hyperparameters": {"particles": 64}},
                "fps_smc"],
}


@pytest.fixture(scope="session")
def exp1_rows():
    return run_experiment(config_from_dict(EXP1))


@pytest.fixture(scope="session")
def exp2_rows():
    return run_experiment(config_from_dict(EXP2))


@pytest.fixture(scope="session")
def exp2_oracle():
    return experiment_oracle(config_from_dict(EXP2))


def solver_mean(rows, solver, metric):
    vals = np.array([getattr(r, metric) for r in rows if r.solver == solver])
    vals = vals[np.isfinite(vals)]
    return float(vals.mean()) if len(vals) else float("nan")


# ---------------------------------------------------------------------------
# 1. oracle self-consistency
# ---------------------------------------------------------------------------

def test_criterion_1_posterior_vs_importance_sampling(toy_prior):
    """exact_posterior moments match a 10^6-draw importance-sampling oracle
    per coordinate within 3 SE on 10 random (y, A) instances."""
    n = 1_000_000
    X = sample_mixture(toy_prior, n, 900)
    rng = np.random.default_rng(905)
    for trial in range(10):
        obs = int(rng.integers(2, 9))
        A = build_operator("binary_svd", 16, obs_count=obs,
                           basis_mode="random_orthogonal",
                           seed=int(rng.integers(1 << 31)))
        x_star = sample_mixture(toy_prior, 1, int(rng.integers(1 << 31)))[0]
        y = A.matrix() @ x_star + rng.standard_normal(16)
        post = exact_posterior(toy_prior, A, y, 1.0)
        mean, cov = mixture_moments(post)

        resid = y - X @ A.matrix().T
        logw = -0.5 * np.sum(resid**2, axis=1)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        is_mean = w @ X
        centered = X - is_mean
        se_mean = np.sqrt((w**2) @ centered**2)
        assert np.all(np.abs(is_mean - mean) < 3 * se_mean), f"mean, trial {trial}"

        is_var = w @ centered**2
        dev = centered**2 - is_var
        se_var = np.sqrt((w**2) @ dev**2)
        assert np.all(np.abs(is_var - np.diag(cov)) < 3 * se_var), \
            f"variance, trial {trial}"


# ---------------------------------------------------------------------------
# 2. calibration ceiling
# ---------------------------------------------------------------------------

def test_criterion_2_calibration_ceiling():
    """reference_exact through the coverage evaluation at A = identity:
    |coverage - oracle_coverage| < 0.03 and oracle_coverage in [0.90, 0.97]
    at N = 20 cases, K = 100 samples."""
    cfg = config_from_dict({
        "experiment": "exp1_identity", "master_seed": MASTER, "sigma_y": 1.0,
        "n_cases": 20, "k_samples": 100, "solvers": ["reference_exact"],
    })
    rows = run_experiment(cfg)
    coverage = solver_mean(rows, "reference_exact", "coverage")
    oracle = experiment_oracle(cfg)
    assert 0.90 <= oracle["oracle_coverage"] <= 0.97
    assert abs(coverage - oracle["oracle_coverage"]) < 0.03


# ---------------------------------------------------------------------------
# 3. MAP collapse
# ---------------------------------------------------------------------------

def test_criterion_3_map_collapse(exp1_rows):
    """reddiff on Experiment 1: coverage < 0.2 and per-coordinate variance
    below 1e-2 of the exact posterior variance."""
    assert solver_mean(exp1_rows, "reddiff", "coverage") < 0.2
    prior = build_toy_prior(ToyPriorSpec())
    for r in exp1_rows:
        if r.solver != "reddiff":
            continue
        m = r.batch.measurement
        post = exact_posterior(prior, m.operator, m.y, m.sigma_y)
        _, cov = mixture_moments(post)
        sample_var = r.batch.samples[r.batch.ok_mask()].var(axis=0, ddof=1)
        assert np.all(sample_var < 1e-2 * np.diag(cov)), f"case {r.case_id}"


# ---------------------------------------------------------------------------
# 4. posterior-targeting subspace variances
# ---------------------------------------------------------------------------

def test_criterion_4_posterior_targeting_subspaces(exp2_rows, exp2_oracle):
    """pnpdm and mcg_diff (64 particles) on Experiment 2: var_null > var_obs,
    ratio on the same side of 1 as theory, both variances within 3x theory."""
    t_obs = exp2_oracle["theory_var_obs"]
    t_null = exp2_oracle["theory_var_null"]
    assert t_null / t_obs > 1
    for solver in ("pnpdm", "mcg_diff"):
        v_obs = solver_mean(exp2_rows, solver, "var_obs")
        v_null = solver_mean(exp2_rows, solver, "var_null")
        assert v_null > v_obs, solver
        assert (v_null / v_obs > 1) == (t_null / t_obs > 1), solver
        assert t_obs / 3 < v_obs < 3 * t_obs, solver
        assert t_null / 3 < v_null < 3 * t_null, solver


# ---------------------------------------------------------------------------
# 5. FPS degeneracy
# ---------------------------------------------------------------------------

def test_criterion_5_fps_degeneracy(exp2_rows, exp2_oracle):
    """fps_smc on Experiment 2 surfaces the rank-deficiency failure through
    statuses/failure_rate (or a >10x null-variance blowup), without a crash."""
    rows = [r for r in exp2_rows if r.solver == "fps_smc"]
    assert rows
    flagged = all(r.failure_rate > 0 for r in rows)
    v_null = solver_mean(exp2_rows, "fps_smc", "var_null")
    blowup = np.isfinite(v_null) and v_null > 10 * exp2_oracle["theory_var_null"]
    assert flagged or blowup
    if flagged:
        statuses = {s for r in rows for s in r.batch.statuses}
        assert any(s.startswith("diverged") for s in statuses)


# ---------------------------------------------------------------------------
# 6. SMC particle-count monotonicity
# ---------------------------------------------------------------------------

def test_criterion_6_particle_monotonicity(toy_prior):
    """For mcg_diff and fps_smc at A = identity, |posterior-variance error|
    is non-increasing over particles {8, 16, 64} with paired seeds
    (one-SE slack)."""
    sched = build_schedule(0.01, 10.0, 60)
    A = build_operator("identity", 16)
    ctx = SamplingContext.build(toy_prior, sched)
    x_star = sample_mixture(toy_prior, 1, derive_seed(310, [("xstar", 0)]))[0]
    m = synthesize_measurement(A, x_star, 1.0, derive_seed(310, [("meas", 0)]))
    post = exact_posterior(toy_prior, A, m.y, 1.0)
    _, cov = mixture_moments(post)
    true_var = np.diag(cov)
    K = 240
    boot_rng = np.random.default_rng(311)

    for name in ("mcg_diff", "fps_smc"):
        errs, ses = [], []
        for particles in (8, 16, 64):
            spec = resolve_solver(name, {"particles": particles})
            batch = run_batch(spec, m, toy_prior, sched, K,
                              derive_seed(310, [("c6", 0)]), ctx=ctx)
            X = batch.samples[batch.ok_mask()]
            err = np.abs(X.var(axis=0, ddof=1) - true_var).mean()
            boot = [
                np.abs(X[boot_rng.integers(0, len(X), len(X))]
                       .var(axis=0, ddof=1) - true_var).mean()
                for _ in range(200)
            ]
            errs.append(err)
            ses.append(np.std(boot))
        for lo, hi in ((0, 1), (1, 2)):
            slack = max(ses[lo], ses[hi])
            assert errs[hi] <= errs[lo] + slack, (name, errs, ses)


# ---------------------------------------------------------------------------
# 7. split-Gibbs asymptotics
# ---------------------------------------------------------------------------

def test_criterion_7_pnpdm_asymptotics(toy_prior):
    """W1 distance to the split-target oracle is non-increasing over
    gibbs_iters {10, 50, 200} at fixed rho (one-SE slack, common seeds);
    split-target moments approach the exact posterior monotonically as
    rho decreases through {0.5, 0.2, 0.05}."""
    sched = build_schedule(0.01, 10.0, 60)
    A = build_operator("identity", 16)
    ctx = SamplingContext.build(toy_prior, sched)
    x_star = sample_mixture(toy_prior, 1, derive_seed(99, [("xstar", 0)]))[0]
    m = synthesize_measurement(A, x_star, 1.0, derive_seed(99, [("meas", 0)]))

    rho = 0.1
    split = exact_posterior(toy_prior, A, m.y, np.sqrt(1.0 + rho**2))
    K = 200
    ref = sample_mixture(split, K, 123456)

    def w1(X):
        return np.mean([np.abs(np.sort(X[:, j]) - np.sort(ref[:, j])).mean()
                        for j in range(16)])

    boot_rng = np.random.default_rng(98)
    dists, ses = [], []
    for gibbs in (10, 50, 200):
        spec = resolve_solver("pnpdm", {"rho_coupling": rho,
                                        "gibbs_iters": gibbs,
                                        "x_step": "conjugate"})
        batch = run_batch(spec, m, toy_prior, sched, K,
                          derive_seed(99, [("c7", 0)]), ctx=ctx)
        X = batch.samples
        dists.append(w1(X))
        boot = [w1(X[boot_rng.integers(0, K, K)]) for _ in range(100)]
        ses.append(np.std(boot))
    for lo, hi in ((0, 1), (1, 2)):
        slack = max(ses[lo], ses[hi])
        assert dists[hi] <= dists[lo] + slack, (dists, ses)

    # split-target moment bias shrinks monotonically in rho (analytic)
    post = exact_posterior(toy_prior, A, m.y, 1.0)
    mu_p, cov_p = mixture_moments(post)
    mean_gaps, var_gaps = [], []
    for rho_v in (0.5, 0.2, 0.05):
        sp = exact_posterior(toy_prior, A, m.y, np.sqrt(1.0 + rho_v**2))
        mu_s, cov_s = mixture_moments(sp)
        mean_gaps.append(np.abs(mu_s - mu_p).mean())
        var_gaps.append(np.abs(np.diag(cov_s) - np.diag(cov_p)).mean())
    assert mean_gaps[0] > mean_gaps[1] > mean_gaps[2]
    assert var_gaps[0] > var_gaps[1] > var_gaps[2]


# ---------------------------------------------------------------------------
# 8. accuracy trap
# ---------------------------------------------------------------------------

def test_criterion_8_accuracy_trap(exp1_rows):
    """Among the nine samplers on Experiment 1 there is a pair whose RMSE
    differ by < 20% while coverages differ by > 0.3."""
    solvers = [s for s in {r.solver for r in exp1_rows} if s != "reference_exact"]
    stats = {s: (solver_mean(exp1_rows, s, "rmse_mean"),
                 solver_mean(exp1_rows, s, "coverage")) for s in solvers}
    found = []
    for i, a in enumerate(solvers):
        for b in solvers[i + 1:]:
            ra, ca = stats[a]
            rb, cb = stats[b]
            if abs(ra - rb) / min(ra, rb) < 0.2 and abs(ca - cb) > 0.3:
                found.append((a, b))
    assert found, stats


# ---------------------------------------------------------------------------
# 9. algorithm unit fidelity
# ---------------------------------------------------------------------------

def test_criterion_9_hand_computed_fixtures():
    """Coverage and variance-split evaluations reproduce hand-computed
    outputs on 2-sample, 2-dim fixtures exactly."""
    from diffuq.diagnostics import obs_null_variance
    from diffuq.solvers import SampleBatch
    from diffuq.operators import Measurement

    A = build_operator("binary_svd", 2, obs_count=1)
    m = Measurement(y=np.zeros(2), x_star=np.array([1.0, 1.0]), sigma_y=1.0,
                    operator=A, seed=0)
    batch = SampleBatch(solver=resolve_solver("reference_exact"),
                        measurement=m,
                        samples=np.array([[0.0, 0.0], [2.0, 2.0]]),
                        seeds=[0, 1], statuses=["ok", "ok"])
    cov_rep = coverage_eval([batch], [m.x_star])
    # per dim: mean 1, sd sqrt(2); |1 - 1| <= 1.96 sqrt(2) -> hit
    assert cov_rep.coverage_global == 1.0
    assert cov_rep.mean_interval_width == 2 * 1.96 * np.sqrt(2.0)
    assert np.array_equal(cov_rep.per_case_per_dim_hits, [[1.0, 1.0]])
    assert np.array_equal(cov_rep.per_dim_variance, [2.0, 2.0])

    split = obs_null_variance([batch], A)
    # V = I: projected samples unchanged; each dim variance 2
    assert np.array_equal(split.per_dim_variance_svd, [2.0, 2.0])
    assert split.var_obs == 2.0
    assert split.var_null == 2.0
    assert split.ratio_null_obs == 1.0

    miss = SampleBatch(solver=resolve_solver("reference_exact"),
                       measurement=m,
                       samples=np.array([[0.0, 0.0], [0.0, 0.0]]),
                       seeds=[0, 1], statuses=["ok", "ok"])
    assert coverage_eval([miss], [m.x_star]).coverage_global == 0.0


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    """Two runs from one config produce byte-identical results.csv for both
    experiments."""
    for experiment, solvers in (
        ("exp1_identity", ["reference_exact", "ddrm", "mcg_diff"]),
        ("exp2_binary", ["reference_exact", "mcg_diff", "fps_smc"]),
    ):
        cfg = config_from_dict({
            "experiment": experiment, "master_seed": 13, "sigma_y": 1.0,
            "n_cases": 2, "k_samples": 5, "schedule": {"steps": 12},
            "solvers": solvers,
        })
        outputs = []
        for tag in ("r1", "r2"):
            out = tmp_path / f"{experiment}_{tag}"
            write_report(run_experiment(cfg), out, cfg=cfg)
            outputs.append((out / "results.csv").read_bytes())
        assert outputs[0] == outputs[1], experiment
