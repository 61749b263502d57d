import numpy as np
import pytest

from diffuq.diffusion import (
    NoiseSchedule,
    ReverseConfig,
    ReverseKernel,
    build_schedule,
    level_index_for_sigma,
    reverse_sample,
)
from diffuq.gmm import (
    GaussianMixture,
    build_toy_prior,
    ToyPriorSpec,
    denoise_batch,
    mixture_moments,
    score_and_denoise,
)


def gaussian_prior(mu, cov):
    mu = np.asarray(mu, dtype=float)
    return GaussianMixture(np.array([1.0]), mu[None, :], np.asarray(cov)[None, :, :])


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_geometric_ratios_constant():
    sched = build_schedule(0.01, 10.0, 4)
    ratios = sched.grid[1:-1] / sched.grid[:-2]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12


def test_schedule_endpoints_exact():
    sched = build_schedule(0.01, 10.0, 33)
    assert sched.grid[0] == 10.0
    assert sched.grid[sched.last_nonzero_index] == 0.01
    assert sched.grid[-1] == 0.0


def test_single_step_schedule():
    sched = build_schedule(0.01, 10.0, 1)
    assert np.array_equal(sched.grid, [10.0, 0.01, 0.0])


def test_polynomial_schedule_decreasing():
    sched = build_schedule(0.01, 10.0, 20, spacing="polynomial")
    assert np.all(np.diff(sched.grid) < 0)
    assert sched.grid[0] == 10.0 and sched.grid[-2] == 0.01


def test_schedule_validation():
    with pytest.raises(ValueError, match="sigma_min"):
        build_schedule(1.0, 0.5, 10)
    with pytest.raises(ValueError, match="steps"):
        build_schedule(0.01, 10.0, 0)
    with pytest.raises(ValueError, match="spacing"):
        build_schedule(0.01, 10.0, 10, spacing="linear")


def test_level_index_endpoints(sched_small):
    assert level_index_for_sigma(sched_small, sched_small.sigma_max) == 0
    assert (level_index_for_sigma(sched_small, sched_small.sigma_min)
            == sched_small.last_nonzero_index)


def test_level_index_between_levels(sched_small):
    g = sched_small.grid
    rho = np.sqrt(g[3] * g[4])  # strictly between levels 3 and 4
    assert level_index_for_sigma(sched_small, rho) == 3


def test_level_index_out_of_range(sched_small):
    with pytest.raises(ValueError, match="outside"):
        level_index_for_sigma(sched_small, 11.0)


# ---------------------------------------------------------------------------
# reverse sampling
# ---------------------------------------------------------------------------

def test_degenerate_trajectory_is_tweedie(toy_prior, sched_small, rng):
    x = rng.standard_normal(16)
    out = reverse_sample(toy_prior, sched_small,
                        ReverseConfig(start_level=sched_small.sigma_min,
                                      init=x, seed=0))
    _, xhat0, _ = score_and_denoise(toy_prior, x, sched_small.sigma_min)
    assert np.allclose(out, xhat0)


def test_reverse_sample_deterministic(toy_prior, sched_small):
    a = reverse_sample(toy_prior, sched_small, ReverseConfig(seed=5))
    b = reverse_sample(toy_prior, sched_small, ReverseConfig(seed=5))
    assert np.array_equal(a, b)


def test_deterministic_mode_pure(toy_prior, sched_small, rng):
    x = rng.standard_normal(16)
    cfg = ReverseConfig(mode="deterministic_ode", start_level=10.0, init=x, seed=0)
    a = reverse_sample(toy_prior, sched_small, cfg)
    b = reverse_sample(toy_prior, sched_small, cfg)
    assert np.array_equal(a, b)


def test_init_requires_max_start_level(toy_prior, sched_small):
    with pytest.raises(ValueError, match="start_level"):
        reverse_sample(toy_prior, sched_small, ReverseConfig(start_level=1.0))


def test_unknown_mode(toy_prior, sched_small):
    with pytest.raises(ValueError, match="mode"):
        reverse_sample(toy_prior, sched_small,
                       ReverseConfig(mode="sde", seed=0))


def test_nonfinite_error_names_step(toy_prior, sched_small):
    cfg = ReverseConfig(start_level=10.0, init=np.full(16, np.inf), seed=0)
    with pytest.raises(ValueError, match="step"):
        reverse_sample(toy_prior, sched_small, cfg)


def _ancestral_batch(prior, sched, n, seed):
    kernel = ReverseKernel(prior, sched)
    rng = np.random.default_rng(seed)
    X = sched.sigma_max * rng.standard_normal((n, prior.dim))
    for i in range(len(sched.grid) - 1):
        X = kernel.step(X, i, rng)
    return X


def test_ancestral_matches_gaussian_moments():
    """Distributional soundness on a correlated Gaussian prior."""
    cov = np.array([[1.0, 0.6, 0.0], [0.6, 2.0, 0.3], [0.0, 0.3, 0.5]])
    prior = gaussian_prior([1.0, -2.0, 0.5], cov)
    sched = build_schedule(0.01, 10.0, 100)
    n = 10_000
    X = _ancestral_batch(prior, sched, n, 17)
    dv = np.diag(cov)
    mean_se = np.sqrt(dv / n)
    assert np.all(np.abs(X.mean(axis=0) - prior.means[0]) < 3 * mean_se)
    cov_se = np.sqrt((np.outer(dv, dv) + cov**2) / n)
    assert np.all(np.abs(np.cov(X.T) - cov) < 3 * cov_se)


def test_ancestral_toy_prior_mode_balance(toy_prior):
    sched = build_schedule(0.01, 10.0, 100)
    X = _ancestral_batch(toy_prior, sched, 10_000, 23)
    frac = np.mean(X[:, 7] > 0)
    se = 0.5 / np.sqrt(len(X))
    assert abs(frac - 0.5) < 3 * se


def test_ancestral_toy_prior_moments(toy_prior):
    sched = build_schedule(0.01, 10.0, 100)
    n = 10_000
    X = _ancestral_batch(toy_prior, sched, n, 29)
    mean, cov = mixture_moments(toy_prior)
    dv = np.diag(cov)
    assert np.all(np.abs(X.mean(axis=0) - mean) < 3 * np.sqrt(dv / n))
    emp = X.var(axis=0, ddof=1)
    # variance of the variance estimator, Gaussian-mixture approximation
    se = dv * np.sqrt(3.0 / n)
    assert np.all(np.abs(emp - dv) < 3 * se)


def test_reverse_sample_uses_kernel_path(toy_prior, sched_small):
    """Single-trajectory sampler equals the batch kernel driven identically."""
    seed = 99
    kernel = ReverseKernel(toy_prior, sched_small)
    rng = np.random.default_rng(seed)
    X = sched_small.sigma_max * rng.standard_normal((1, 16))
    for i in range(len(sched_small.grid) - 1):
        X = kernel.step(X, i, rng)
    out = reverse_sample(toy_prior, sched_small, ReverseConfig(seed=seed),
                         kernel=kernel)
    assert np.array_equal(out, X[0])


def test_deterministic_mode_pushes_to_modes(toy_prior, sched_small, rng):
    """The noise-free flow lands near high-density regions."""
    x = rng.standard_normal(16) * 10
    out = reverse_sample(toy_prior, sched_small,
                         ReverseConfig(mode="deterministic_ode",
                                       start_level=10.0, init=x, seed=0))
    assert np.all(np.isfinite(out))
    assert np.linalg.norm(out) < np.linalg.norm(x)


def test_kernel_oracles_bit_identical_to_gmm(toy_prior, sched_small, rng):
    """The kernel's memoised factors give the same bits as the per-call
    gmm oracles at every grid level."""
    kernel = ReverseKernel(toy_prior, sched_small)
    for level in range(sched_small.last_nonzero_index + 1):
        sigma = sched_small.grid[level]
        X = sigma * rng.standard_normal((4, 16)) + rng.standard_normal(16)
        for batch in (X, X[:1]):
            _, want = denoise_batch(toy_prior, batch, sigma)
            assert np.array_equal(kernel.denoise(batch, level), want)
        got = kernel.score_and_denoise(X[0], level)
        want = score_and_denoise(toy_prior, X[0], sigma)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
