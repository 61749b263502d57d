import numpy as np
import pytest

from diffuq.diagnostics import (
    coverage_eval,
    obs_null_variance,
    oracle_reference,
    rmse_eval,
    variance_vs_k,
)
from diffuq.diffusion import build_schedule
from diffuq.gmm import (
    GaussianMixture,
    exact_posterior,
    mixture_moments,
    sample_mixture,
)
from diffuq.operators import build_operator, synthesize_measurement
import diffuq.diagnostics
from diffuq.config import _experiment_cases, config_from_dict
from diffuq.harness import experiment_oracle
from diffuq.seeding import derive_seed
from diffuq.solvers import resolve_solver, run_batch, run_cases


class FakeBatch:
    """Minimal stand-in carrying a samples matrix with all-ok statuses."""

    def __init__(self, samples, statuses=None):
        self.samples = np.asarray(samples, dtype=float)
        self.statuses = statuses or ["ok"] * len(self.samples)

    def ok_mask(self):
        return np.array([s == "ok" for s in self.statuses])


# ---------------------------------------------------------------------------
# coverage (interval calibration)
# ---------------------------------------------------------------------------

def test_coverage_constant_sampler_misses():
    batch = FakeBatch(np.zeros((10, 3)))
    rep = coverage_eval([batch], [np.ones(3)])
    assert rep.coverage_global == 0.0
    assert rep.mean_interval_width == 0.0


def test_coverage_hand_case():
    batch = FakeBatch(np.array([[0.0], [2.0]]))
    rep = coverage_eval([batch], [np.array([1.0])])
    assert rep.coverage_global == 1.0
    assert rep.mean_interval_width == pytest.approx(2 * 1.96 * np.sqrt(2.0))
    assert rep.per_dim_variance[0] == pytest.approx(2.0)


def test_coverage_iid_gaussian_prediction_interval():
    # ground truth and samples are draws from the same per-dim Gaussian,
    # so the mu +/- 1.96 sigma rule is a prediction interval
    rng = np.random.default_rng(42)
    centers = [rng.standard_normal(4) for _ in range(50)]
    truths = [c + rng.standard_normal(4) for c in centers]
    batches = [FakeBatch(c + rng.standard_normal((100, 4))) for c in centers]
    rep = coverage_eval(batches, truths)
    assert 0.92 <= rep.coverage_global <= 0.97


def test_coverage_identity_recomputable():
    rng = np.random.default_rng(7)
    truths = [rng.standard_normal(3) for _ in range(5)]
    batches = [FakeBatch(rng.standard_normal((20, 3))) for _ in truths]
    rep = coverage_eval(batches, truths)
    hits = []
    for batch, x in zip(batches, truths):
        mu = batch.samples.mean(axis=0)
        sd = batch.samples.std(axis=0, ddof=1)
        hits.append(np.abs(x - mu) <= 1.96 * sd)
    assert rep.coverage_global == np.mean(hits)
    assert np.array_equal(rep.per_case_per_dim_hits, np.array(hits, dtype=float))


def test_coverage_excludes_invalid_cases():
    good = FakeBatch(np.random.default_rng(0).standard_normal((10, 2)))
    bad = FakeBatch(np.full((10, 2), np.nan), statuses=["diverged(step=0)"] * 10)
    rep = coverage_eval([good, bad], [np.zeros(2), np.zeros(2)])
    assert rep.invalid_cases == 1
    assert rep.per_case_per_dim_hits.shape == (1, 2)
    with pytest.raises(ValueError, match="valid"):
        coverage_eval([bad], [np.zeros(2)])


# ---------------------------------------------------------------------------
# observed/null variance split
# ---------------------------------------------------------------------------

def test_obs_null_constant_sampler_zero():
    A = build_operator("binary_svd", 4, obs_count=2)
    rep = obs_null_variance([FakeBatch(np.ones((10, 4)))], A)
    assert rep.var_obs == 0.0
    assert rep.var_null == 0.0


def test_obs_null_requires_binary():
    from diffuq.operators import LinearOperatorSVD
    A = LinearOperatorSVD(np.eye(4), np.full(4, 0.5), np.eye(4))
    with pytest.raises(ValueError, match="binary"):
        obs_null_variance([FakeBatch(np.ones((4, 4)))], A)


def test_obs_null_exact_posterior_matches_theory(toy_prior):
    A = build_operator("binary_svd", 16, obs_count=8,
                       basis_mode="random_orthogonal", seed=1)
    x_star = sample_mixture(toy_prior, 1, 2)[0]
    m = synthesize_measurement(A, x_star, 1.0, 3)
    post = exact_posterior(toy_prior, A, m.y, 1.0)
    rep = obs_null_variance([FakeBatch(sample_mixture(post, 1000, 4))], A)
    _, cov = mixture_moments(post)
    dirv = np.diag(A.V.T @ cov @ A.V)
    obs, null = A.obs_null_split()
    assert rep.var_obs == pytest.approx(dirv[obs].mean(), rel=0.05)
    assert rep.var_null == pytest.approx(dirv[null].mean(), rel=0.05)


def test_obs_null_prior_sampler_matches_prior_variance(toy_prior):
    A = build_operator("binary_svd", 16, obs_count=8,
                       basis_mode="random_orthogonal", seed=5)
    n = 20_000
    rep = obs_null_variance([FakeBatch(sample_mixture(toy_prior, n, 6))], A)
    _, cov = mixture_moments(toy_prior)
    dirv = np.diag(A.V.T @ cov @ A.V)
    se = dirv * np.sqrt(3.0 / n)
    obs, null = A.obs_null_split()
    assert np.all(np.abs(rep.per_dim_variance_svd - dirv) < 3 * se)
    assert rep.ratio_null_obs == pytest.approx(
        dirv[null].mean() / dirv[obs].mean(), rel=0.1)


def test_obs_null_trace_additivity(rng):
    A = build_operator("binary_svd", 6, obs_count=3,
                       basis_mode="random_orthogonal", seed=7)
    X = rng.standard_normal((400, 6)) * np.linspace(0.3, 2.0, 6)
    rep = obs_null_variance([FakeBatch(X)], A)
    assert np.trace(np.cov(X.T)) == pytest.approx(
        rep.per_dim_variance_svd.sum(), abs=1e-10)


@pytest.mark.parametrize("evaluate", [coverage_eval, rmse_eval])
@pytest.mark.parametrize("n_batches, n_truths", [(2, 1), (1, 2), (0, 1)])
def test_evals_need_one_truth_per_batch(evaluate, n_batches, n_truths):
    """A batch without a ground truth, or a truth without a batch, is an
    error rather than silently left out of the score."""
    batches = [FakeBatch(np.arange(6.0).reshape(3, 2))] * n_batches
    with pytest.raises(ValueError, match="one ground truth per batch"):
        evaluate(batches, [np.zeros(2)] * n_truths)


# ---------------------------------------------------------------------------
# RMSE
# ---------------------------------------------------------------------------

def test_rmse_perfect_reconstruction():
    x = np.arange(4.0)
    rep = rmse_eval([FakeBatch(np.tile(x, (5, 1)))], [x])
    assert rep.rmse_mean == 0.0


def test_rmse_unit_offset():
    x = np.zeros(16)
    rep = rmse_eval([FakeBatch((x + 1.0)[None, :])], [x])
    assert rep.rmse_mean == pytest.approx(1.0)


def test_rmse_round_trip(rng):
    truths = [rng.standard_normal(8) for _ in range(3)]
    batches = [FakeBatch(rng.standard_normal((6, 8))) for _ in truths]
    rep = rmse_eval(batches, truths)
    recomputed = np.concatenate([
        np.linalg.norm(b.samples - x, axis=1) / np.sqrt(8)
        for b, x in zip(batches, truths)
    ])
    assert np.max(np.abs(np.sort(rep.per_sample_rmse) - np.sort(recomputed))) < 1e-12
    assert rep.rmse_mean == pytest.approx(recomputed.mean(), abs=1e-12)


# ---------------------------------------------------------------------------
# variance stabilization curve
# ---------------------------------------------------------------------------

def test_variance_vs_k_constant_flat():
    curve = variance_vs_k(np.ones((50, 3)), [2, 10, 50])
    assert [v for _, v in curve] == [0.0, 0.0, 0.0]


def test_variance_vs_k_stabilizes():
    hits = 0
    reps = 40
    for s in range(reps):
        X = np.random.default_rng(s).standard_normal((200, 4))
        curve = variance_vs_k(X, list(range(80, 201, 20)))
        if all(0.8 <= v <= 1.2 for _, v in curve):
            hits += 1
    assert hits >= 0.95 * reps - 1


def test_variance_vs_k_output_length(rng):
    X = rng.standard_normal((30, 2))
    grid = [2, 5, 11, 30]
    assert len(variance_vs_k(X, grid)) == len(grid)


def test_variance_vs_k_validation(rng):
    X = rng.standard_normal((10, 2))
    with pytest.raises(ValueError, match="increasing"):
        variance_vs_k(X, [5, 5])
    with pytest.raises(ValueError, match="2"):
        variance_vs_k(X, [1, 5])
    with pytest.raises(ValueError):
        variance_vs_k(X, [2, 11])


# ---------------------------------------------------------------------------
# analytic oracle
# ---------------------------------------------------------------------------

def _oracle(prior, A, sigma_y, n_cases, seed, k_samples):
    """``oracle_reference`` of an experiment's cases, case n drawn by
    ``reference_exact`` with base seed ``derive_seed(seed, [("case", n)])``."""
    ms = _experiment_cases(prior, A, sigma_y, n_cases, seed)
    seeds = [derive_seed(seed, [("case", n)]) for n in range(n_cases)]
    batches = run_cases(resolve_solver("reference_exact"), ms, prior,
                        build_schedule(0.01, 10.0, 4), k_samples, seeds)
    return oracle_reference(prior, batches)


def test_oracle_single_gaussian_identity():
    prior = GaussianMixture(np.array([1.0]), np.zeros((1, 6)),
                            np.eye(6)[None, :, :])
    A = build_operator("identity", 6)
    cov, t_obs, t_null, rmse = _oracle(prior, A, 1.0, 20, 3, k_samples=100)
    assert abs(cov - 0.95) < 0.04
    assert t_obs == pytest.approx(0.5)
    assert np.isnan(t_null)


def test_oracle_zero_operator_null_variance(toy_prior):
    A = build_operator("binary_svd", 16, obs_count=0)
    _, t_obs, t_null, _ = _oracle(toy_prior, A, 1.0, 3, 4, k_samples=10)
    _, cov = mixture_moments(toy_prior)
    assert t_null == pytest.approx(np.diag(cov).mean())
    assert np.isnan(t_obs)


def test_oracle_self_consistent_with_sampling(toy_prior):
    A = build_operator("binary_svd", 16, obs_count=8,
                       basis_mode="random_orthogonal", seed=9)
    n_cases, k = 5, 400
    _, t_obs, t_null, _ = _oracle(toy_prior, A, 1.0, n_cases, 11, k_samples=10)
    sched = build_schedule(0.01, 10.0, 4)
    spec = resolve_solver("reference_exact")
    from diffuq.seeding import derive_seed
    batches = []
    for n in range(n_cases):
        x_star = sample_mixture(toy_prior, 1, derive_seed(11, [("xstar", n)]))[0]
        m = synthesize_measurement(A, x_star, 1.0, derive_seed(11, [("meas", n)]))
        batches.append(run_batch(spec, m, toy_prior, sched, k,
                                 derive_seed(12, [("case", n)])))
    rep = obs_null_variance(batches, A)
    # 3-SE self-consistency; variance-of-variance SE across cases and dims
    se_obs = t_obs * np.sqrt(3.0 / (k * n_cases * 8))
    se_null = t_null * np.sqrt(3.0 / (k * n_cases * 8))
    assert abs(rep.var_obs - t_obs) < 3 * se_obs * 3  # covariance slack
    assert abs(rep.var_null - t_null) < 3 * se_null * 3


@pytest.mark.parametrize("experiment, operator", [
    ("exp1_identity", {"kind": "identity"}),
    ("exp2_binary", {"kind": "binary_svd", "obs_count": 8,
                     "basis_mode": "random_orthogonal", "seed": 9}),
], ids=["identity", "orthogonal_obs8"])
def test_oracle_draws_equal_reference_exact_rows(toy_prior, monkeypatch, experiment, operator):
    """``experiment_oracle`` scores, for case n, bit for bit the rows
    ``run_batch(reference_exact)`` draws for that case alone with base seed
    ``derive_seed(master_seed, [("case", n)])``."""
    seen = []

    def capture(batches, truths):
        seen.extend(batches)
        return coverage_eval(batches, truths)

    monkeypatch.setattr(diffuq.diagnostics, "coverage_eval", capture)
    n_cases, seed, k = 4, 13, 7
    cfg = config_from_dict({"experiment": experiment, "master_seed": seed, "sigma_y": 0.5,
                            "n_cases": n_cases, "k_samples": k, "operator": operator,
                            "schedule": {"steps": 4}, "solvers": ["reference_exact"]})
    experiment_oracle(cfg)
    prior, sched, A = cfg.problem
    ms = _experiment_cases(toy_prior, A, 0.5, n_cases, seed)
    assert len(seen) == n_cases
    for n, (got, m) in enumerate(zip(seen, ms)):
        ref = run_batch(resolve_solver("reference_exact"), m, prior, sched, k,
                        derive_seed(seed, [("case", n)]))
        assert np.array_equal(got.measurement.y, m.y)
        assert np.array_equal(got.samples, ref.samples)
        assert got.seeds == ref.seeds and got.statuses == ref.statuses


def _batches(prior, A, sigma_y, name="reference_exact"):
    """Two cases' batches of three rows from solver ``name``."""
    ms = _experiment_cases(prior, A, sigma_y, 2, 5)
    return run_cases(resolve_solver(name), ms, prior, build_schedule(0.01, 10.0, 4), 3, [0, 1])


def test_oracle_reference_rejects_empty_batches(toy_prior):
    with pytest.raises(ValueError, match="nonempty"):
        oracle_reference(toy_prior, [])


def test_oracle_reference_rejects_batches_of_two_setups(toy_prior):
    """Batches of another operator object, or of another sigma_y, are not one setup."""
    A = build_operator("identity", 16)
    for other in (_batches(toy_prior, build_operator("identity", 16), 1.0),
                  _batches(toy_prior, A, 0.5)):
        with pytest.raises(ValueError, match="share the operator and sigma_y"):
            oracle_reference(toy_prior, _batches(toy_prior, A, 1.0) + other)


def test_oracle_reference_rejects_other_solvers(toy_prior):
    batches = _batches(toy_prior, build_operator("identity", 16), 1.0, "ddnm")
    with pytest.raises(ValueError, match=r"reference_exact batches, got \['ddnm'\]"):
        oracle_reference(toy_prior, batches)
