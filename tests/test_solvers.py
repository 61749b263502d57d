import dataclasses
import hashlib
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import diffuq.gmm
import diffuq.seeding
from diffuq.gmm import _logsumexp
from diffuq.diffusion import ReverseKernel, build_schedule
from diffuq.gmm import (
    GaussianMixture,
    _component_logpdfs,
    _log_normalised,
    denoise_batch,
    exact_posterior,
    mixture_moments,
    noisy_marginal,
    sample_mixture,
    score_and_denoise,
)
from diffuq.operators import (
    LinearOperatorSVD,
    Measurement,
    apply_forward,
    apply_pinv,
    build_operator,
    synthesize_measurement,
)
from diffuq.seeding import _Streams, derive_seed
from diffuq.solvers import (
    SOLVER_FAMILIES,
    SOLVER_NAMES,
    Problem,
    SolverSpec,
    conjugate_denoising_posterior,
    daps_langevin_step,
    ddnm_projection,
    ddrm_step,
    dps_guidance_gradient,
    pnpdm_z_step,
    prox_data_step,
    reddiff_update,
    _Rows,
    _picks,
    _resample,
    resolve_solver,
    run_batch,
    run_cases,
    sample_one,
    smc_ess,
    smc_resample,
)


def gaussian_prior(mu, cov):
    mu = np.asarray(mu, dtype=float)
    return GaussianMixture(np.array([1.0]), mu[None, :], np.asarray(cov)[None, :, :])


@pytest.fixture(scope="module")
def problem(toy_prior):
    """The identity problem at sigma_y = 1 on a 40-level grid, and one of its
    measurements."""
    sched = build_schedule(0.01, 10.0, 40)
    A = build_operator("identity", 16)
    x_star = sample_mixture(toy_prior, 1, 5)[0]
    m = synthesize_measurement(A, x_star, 1.0, 6)
    return Problem(toy_prior, sched, A, 1.0), m


def _problem(prior, sched, m):
    """The problem of the measurement ``m``: its operator and sigma_y."""
    return Problem(prior, sched, m.operator, m.sigma_y)


def _batch(spec, problem, m, K, base_seed):
    """``run_cases`` of the one measurement ``m``."""
    return run_cases(spec, problem, [m], K, [base_seed])[0]


# ---------------------------------------------------------------------------
# resolution and taxonomy
# ---------------------------------------------------------------------------

def test_taxonomy_assignment():
    expected = {
        "reference_exact": "posterior_targeting",
        "pnpdm": "posterior_targeting",
        "fps_smc": "posterior_targeting",
        "mcg_diff": "posterior_targeting",
        "dps": "heuristic",
        "daps": "heuristic",
        "ddnm": "heuristic",
        "ddrm": "heuristic",
        "diffpir": "heuristic",
        "reddiff": "map_like",
    }
    assert SOLVER_FAMILIES == expected
    for name in SOLVER_NAMES:
        assert resolve_solver(name).family == expected[name]


def test_unknown_solver_lists_names():
    for build in (resolve_solver, lambda name: SolverSpec(name, {})):
        with pytest.raises(ValueError) as err:
            build("dsp")
        for name in SOLVER_NAMES:
            assert name in str(err.value)


def test_unknown_hyperparameter_rejected():
    with pytest.raises(ValueError, match="hyperparameter"):
        resolve_solver("dps", {"temperature": 1.0})


@pytest.mark.parametrize("name, hp, match", [
    ("dps", {}, "missing hyperparameter 'guidance_scale'"),
    ("pnpdm", {"rho_coupling": 0.3, "gibbs_iters": 40}, "missing hyperparameter 'x_step'"),
    ("fps_smc", {"particles": 0}, "'particles' must be an integer >= 1, got 0"),
    ("dps", {"guidance_scale": 0.3, "temperature": 1.0}, "no hyperparameter 'temperature'"),
    ("reddiff", {"lambda_reg": 0.25, "step_size": 0, "opt_steps": 300},
     "'step_size' must be a finite number > 0, got 0"),
    ("diffpir", {"lambda_reg": 0.0}, "'lambda_reg' must be a finite number > 0"),
    ("dps", [("guidance_scale", 0.3)], "must be a mapping"),
])
def test_solver_spec_checks_hyperparameters(name, hp, match):
    """The Python-API path checks what ``resolve_solver`` checks, before any
    sampler runs."""
    with pytest.raises(ValueError, match=match):
        SolverSpec(name, hp)


def test_solver_spec_keeps_values_as_given():
    hp = {"eta": 1, "eta_b": 0.5}
    spec = SolverSpec("ddrm", hp)
    assert spec.hyperparameters is hp and type(hp["eta"]) is int
    assert resolve_solver("ddrm", {"eta": 1}).hyperparameters == {"eta": 1, "eta_b": 1.0}


def test_defaults_fully_resolved():
    spec = resolve_solver("ddrm")
    assert spec.hyperparameters == {"eta": 0.85, "eta_b": 1.0}
    spec = resolve_solver("pnpdm", {"gibbs_iters": 5})
    assert spec.hyperparameters["gibbs_iters"] == 5
    assert "rho_coupling" in spec.hyperparameters


# ---------------------------------------------------------------------------
# sub-steps
# ---------------------------------------------------------------------------

def test_z_step_conjugate_average(rng):
    A = build_operator("identity", 4)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    draws = np.array([pnpdm_z_step(x, y, A, 1.0, 1.0, s) for s in range(4000)])
    target_mean = 0.5 * (x + y)
    se = np.sqrt(0.5 / len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - target_mean) < 3 * se)
    emp_cov = np.cov(draws.T)
    assert np.max(np.abs(emp_cov - 0.5 * np.eye(4))) < 0.05


def test_z_step_zero_operator(rng):
    A = build_operator("binary_svd", 4, obs_count=0)
    x = rng.standard_normal(4)
    rho = 0.7
    draws = np.array([pnpdm_z_step(x, np.zeros(4), A, 1.0, rho, s)
                      for s in range(4000)])
    se = rho / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - x) < 3 * se)
    assert np.allclose(draws.var(axis=0), rho**2, atol=0.05)


def test_z_step_validation():
    A = build_operator("identity", 2)
    with pytest.raises(ValueError, match="must be > 0"):
        pnpdm_z_step(np.zeros(2), np.zeros(2), A, 0.0, 1.0, 0)


def test_conjugate_denoising_single_gaussian(rng):
    prior = gaussian_prior(np.ones(3), 2.0 * np.eye(3))
    z = rng.standard_normal(3)
    rho = 0.5
    post = conjugate_denoising_posterior(prior, z, rho)
    c = 1.0 / (1.0 / 2.0 + 1.0 / rho**2)
    mean = c * (np.ones(3) / 2.0 + z / rho**2)
    assert np.allclose(post.means[0], mean)
    assert np.allclose(post.covs[0], c * np.eye(3), atol=1e-10)


def test_conjugate_denoising_delta_limit(toy_prior, rng):
    z = rng.standard_normal(16)
    post = conjugate_denoising_posterior(toy_prior, z, 1e-6)
    mean, _ = mixture_moments(post)
    assert np.max(np.abs(mean - z)) < 1e-4


def test_conjugate_denoising_weights_match_importance_sampling(toy_prior):
    rng = np.random.default_rng(77)
    z = sample_mixture(toy_prior, 1, rng)[0] + 0.3
    rho = 0.8
    post = conjugate_denoising_posterior(toy_prior, z, rho)
    n = 200_000
    X = z + rho * rng.standard_normal((n, 16))
    comp_rng = np.random.default_rng(78)
    lp = _component_logpdfs(toy_prior.means, toy_prior._chols, toy_prior._logdets, X)
    lp = lp + np.log(toy_prior.weights)
    # average component responsibilities under the proposal = posterior weights
    from scipy.special import logsumexp
    tot = logsumexp(lp, axis=1)
    w = np.exp(tot - tot.max())
    w /= w.sum()
    resp = np.exp(lp - tot[:, None])
    est = w @ resp
    assert np.all(np.abs(est - post.weights) < 3 * np.sqrt(np.sum(w**2)) + 0.01)


def test_dps_gradient_zero_residual(toy_prior):
    A = build_operator("identity", 16)
    x = np.ones(16)
    _, xhat0, jac = score_and_denoise(toy_prior, x, 0.8)
    g, _ = dps_guidance_gradient(xhat0[None], jac[None], xhat0, A)
    assert np.max(np.abs(g[0])) < 1e-10


def test_dps_gradient_matches_finite_differences(toy_prior, rng):
    A = build_operator("binary_svd", 16, obs_count=8,
                       basis_mode="random_orthogonal", seed=12)
    x = rng.standard_normal(16)
    y = rng.standard_normal(16)
    sigma = 0.6

    def loss(v):
        _, xhat0, _ = score_and_denoise(toy_prior, v, sigma)
        r = y - apply_forward(A, xhat0)
        return 0.5 * r @ r

    _, xhat0, jac = score_and_denoise(toy_prior, x, sigma)
    grad, resid_norm = dps_guidance_gradient(xhat0[None], jac[None], y, A)
    g = grad[0]
    assert resid_norm[0] == pytest.approx(np.sqrt(2 * loss(x)), rel=1e-12)
    h = 1e-5
    fd = np.empty(16)
    for j in range(16):
        e = np.zeros(16)
        e[j] = h
        fd[j] = (loss(x + e) - loss(x - e)) / (2 * h)
    assert np.max(np.abs(g - fd)) / np.max(np.abs(g)) < 1e-5


def test_dps_gradient_gaussian_closed_form(rng):
    cov = np.array([[2.0, 0.4], [0.4, 1.0]])
    prior = gaussian_prior([0.3, -0.2], cov)
    A = build_operator("identity", 2)
    x = rng.standard_normal(2)
    y = rng.standard_normal(2)
    sigma = 0.9
    # analytic: x_hat0 = mu + C (x - mu) with C = cov (cov + s^2 I)^-1
    C = cov @ np.linalg.inv(cov + sigma**2 * np.eye(2))
    xhat0 = prior.means[0] + C @ (x - prior.means[0])
    expected = -C.T @ (y - xhat0)
    _, denoised, jac = score_and_denoise(prior, x, sigma)
    g, _ = dps_guidance_gradient(denoised[None], jac[None], y, A)
    assert np.allclose(g[0], expected, atol=1e-10)


def test_ddnm_projection_observed_coords(rng):
    A = build_operator("binary_svd", 16, obs_count=8)
    x_star = rng.standard_normal(16)
    y = apply_forward(A, x_star)  # noiseless
    xhat0 = rng.standard_normal(16)
    out = ddnm_projection(xhat0[None], apply_pinv(A, y), A)[0]
    zb = A.V.T @ out
    yb = A.U.T @ y
    assert np.allclose(zb[:8], yb[:8], atol=1e-12)


def test_ddnm_projection_null_coords_unchanged(rng):
    A = build_operator("binary_svd", 16, obs_count=8,
                       basis_mode="random_orthogonal", seed=13)
    xhat0 = rng.standard_normal(16)
    y = rng.standard_normal(16)
    out = ddnm_projection(xhat0[None], apply_pinv(A, y), A)[0]
    _, null = A.obs_null_split()
    assert np.allclose((A.V.T @ out)[null], (A.V.T @ xhat0)[null], atol=1e-12)


def test_ddnm_projection_idempotent(rng):
    A = build_operator("binary_svd", 16, obs_count=5)
    xhat0 = rng.standard_normal(16)
    y = rng.standard_normal(16)
    once = ddnm_projection(xhat0[None], apply_pinv(A, y), A)
    twice = ddnm_projection(once, apply_pinv(A, y), A)
    assert np.allclose(once, twice, atol=1e-12)


def test_ddrm_step_observed_pull(rng):
    """At high target noise the observed coordinate moves to the whitened y."""
    A = build_operator("identity", 4)
    xhat0 = np.zeros(4)
    y = np.array([3.0, -1.0, 0.5, 2.0])
    out = ddrm_step(xhat0[None], A.spectral_y(y), A, sigma_y=0.1, sigma_t=5.0, eta=0.85,
                    eta_b=1.0, noise=np.random.default_rng(1).standard_normal((1, 4)))[0]
    # mean is exactly y (eta_b = 1); noise std sqrt(25 - 0.01)
    assert np.all(np.abs(out - y) < 5 * np.sqrt(25.0))


def test_prox_prior_dominated_limit(rng):
    A = build_operator("binary_svd", 8, obs_count=4)
    xhat0 = rng.standard_normal(8)
    y = rng.standard_normal(8)
    out = prox_data_step(xhat0[None], A.spectral_y(y), A, 1.0, 1e12)[0]
    assert np.max(np.abs(out - xhat0)) < 1e-6


def test_prox_data_dominated_limit(rng):
    A = build_operator("identity", 8)
    xhat0 = rng.standard_normal(8)
    y = rng.standard_normal(8)
    out = prox_data_step(xhat0[None], A.spectral_y(y), A, 1e-6, 1.0)[0]
    assert np.max(np.abs(out - y)) < 1e-4


def test_prox_matches_dense_solve(rng):
    A = build_operator("binary_svd", 8, obs_count=5,
                       basis_mode="random_orthogonal", seed=14)
    xhat0 = rng.standard_normal(8)
    y = rng.standard_normal(8)
    sigma_y, rho_t = 0.7, 2.3
    out = prox_data_step(xhat0[None], A.spectral_y(y), A, sigma_y, rho_t)[0]
    Am = A.matrix()
    lhs = Am.T @ Am / sigma_y**2 + rho_t * np.eye(8)
    rhs = Am.T @ y / sigma_y**2 + rho_t * xhat0
    assert np.max(np.abs(out - np.linalg.solve(lhs, rhs))) < 1e-10


def test_langevin_zero_step(rng):
    A = build_operator("identity", 4)
    x0 = rng.standard_normal(4)
    out = daps_langevin_step(x0[None], np.zeros((1, 4)), 1.0, np.zeros(4), A, 1.0, 0.0,
                             np.random.default_rng(3).standard_normal((1, 4)))
    assert np.array_equal(out[0], x0)


def test_langevin_drift_matches_finite_differences(rng):
    A = build_operator("binary_svd", 6, obs_count=3,
                       basis_mode="random_orthogonal", seed=15)
    x0 = rng.standard_normal(6)
    anchor = rng.standard_normal(6)
    y = rng.standard_normal(6)
    r_t, sigma_y = 0.8, 0.6

    def logpi(v):
        r = y - apply_forward(A, v)
        return (-0.5 * r @ r / sigma_y**2
                - 0.5 * np.sum((v - anchor) ** 2) / r_t**2)

    step = 0.01
    # extract the drift by differencing against the no-noise update
    noise = np.random.default_rng(9).standard_normal(6)
    out = daps_langevin_step(x0[None], anchor[None], r_t, y, A, sigma_y, step, noise[None])[0]
    drift = (out - np.sqrt(step) * noise - x0) / (0.5 * step)
    h = 1e-6
    fd = np.empty(6)
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        fd[j] = (logpi(x0 + e) - logpi(x0 - e)) / (2 * h)
    assert np.max(np.abs(drift - fd)) / np.max(np.abs(fd)) < 1e-6


def test_langevin_long_chain_covariance(rng):
    A = build_operator("identity", 2)
    anchor = np.array([0.5, -0.5])
    y = np.array([1.0, 0.0])
    r_t = sigma_y = 1.0
    # target precision 2 I -> covariance 0.5 I
    step = 0.05
    x = anchor[None].copy()
    chain = np.empty((30_000, 2))
    chain_rng = np.random.default_rng(10)
    for t in range(len(chain)):
        x = daps_langevin_step(x, anchor[None], r_t, y, A, sigma_y, step,
                               chain_rng.standard_normal((1, 2)))
        chain[t] = x[0]
    emp = np.cov(chain[2000:].T)
    assert np.max(np.abs(emp - 0.5 * np.eye(2))) < 0.05


def _reddiff_draws(kernel, rng):
    """One row's reddiff draws from ``rng``, in its sampler's order: a level
    of the kernel's nonzero grid, then 16 normals."""
    level = rng.integers(kernel.sched.last_nonzero_index + 1)
    return np.array([level]), rng.standard_normal((1, 16))


def test_reddiff_pure_least_squares(toy_prior):
    kernel = ReverseKernel(toy_prior, build_schedule(0.01, 10.0, 10))
    A = build_operator("identity", 16)
    y = np.linspace(-1, 1, 16)
    mu = np.zeros((1, 16))
    rng_u = np.random.default_rng(4)
    for _ in range(200):
        mu = reddiff_update(mu, y, A, 1.0, kernel, 0.0, 0.5, *_reddiff_draws(kernel, rng_u))
    assert np.max(np.abs(mu[0] - y)) < 1e-3


def test_reddiff_zero_data_gradient(toy_prior):
    kernel = ReverseKernel(toy_prior, build_schedule(0.01, 10.0, 10))
    A = build_operator("identity", 16)
    y = np.ones(16)
    out = reddiff_update(y[None].copy(), y, A, 1.0, kernel, 0.0, 0.5,
                         *_reddiff_draws(kernel, np.random.default_rng(8)))
    assert np.array_equal(out[0], y)


def test_reddiff_deterministic(toy_prior):
    kernel = ReverseKernel(toy_prior, build_schedule(0.01, 10.0, 10))
    A = build_operator("identity", 16)
    y = np.linspace(0, 1, 16)
    a, b = (reddiff_update(np.zeros((1, 16)), y, A, 1.0, kernel, 0.25, 0.5,
                           *_reddiff_draws(kernel, np.random.default_rng(55))) for _ in range(2))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("level", [-1, 11, 12, 1.0, True],
                         ids=["negative", "last_plus_1", "last_plus_2", "float", "bool"])
def test_reddiff_update_rejects_bad_levels(toy_prior, level):
    """A level that is not an integer in 0..last_nonzero_index raises the
    ValueError of ``score_rows``, which names the range, before reddiff
    reads the level's sigma from the grid."""
    kernel = ReverseKernel(toy_prior, build_schedule(0.01, 10.0, 10))
    A = build_operator("identity", 16)
    with pytest.raises(ValueError, match=r"integers in 0\.\.10"):
        reddiff_update(np.zeros((1, 16)), np.ones(16), A, 1.0, kernel, 0.25, 0.5,
                       np.array([level]), np.zeros((1, 16)))


def test_reddiff_score_from_batch_core_matches_single_point(toy_prior, rng):
    # reddiff scores each row at its own level with ``score_rows``; at every
    # level it must give the bits of the batch denoiser on that row and of
    # the single-point score
    sched = build_schedule(0.01, 10.0, 40)
    kernel = ReverseKernel(toy_prior, sched)
    for level in range(sched.last_nonzero_index + 1):
        sigma = sched.grid[level]
        for x in sigma * rng.standard_normal((5, 16)):
            score, _, _ = score_and_denoise(toy_prior, x, sigma)
            assert np.array_equal(denoise_batch(toy_prior, x, sigma)[0][0], score), level
            assert np.array_equal(kernel.score_rows(x[None], np.array([level]))[0], score), level


# ---------------------------------------------------------------------------
# SMC helpers
# ---------------------------------------------------------------------------

def test_ess_values():
    assert smc_ess(np.full(8, 1 / 8)) == pytest.approx(8.0)
    assert smc_ess(np.array([1.0, 0, 0])) == pytest.approx(1.0)
    assert smc_ess(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(2.0)


def test_ess_validation():
    with pytest.raises(ValueError, match="all-zero"):
        smc_ess(np.zeros(4))
    with pytest.raises(ValueError, match="normalized"):
        smc_ess(np.array([0.5, 0.6]))


def test_resample_one_hot(rng):
    P = rng.standard_normal((5, 3))
    w = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    out = smc_resample(P, w, 0)
    assert np.all(out == P[2])


def test_systematic_uniform_is_permutation(rng):
    P = rng.standard_normal((6, 2))
    out = smc_resample(P, np.full(6, 1 / 6), 3)
    # every particle appears exactly once
    assert np.array_equal(np.sort(out, axis=0), np.sort(P, axis=0))


@pytest.mark.parametrize("particles, weights, match", [
    (np.arange(4), np.full((2, 2), 0.25), "1-D"),
    (np.arange(3), np.full(4, 0.25), "one weight per particle"),
    (np.arange(4), np.array([0.5, np.nan, 0.25, 0.25]), "finite"),
    (np.arange(4), np.array([0.75, -0.25, 0.25, 0.25]), ">= 0"),
    (np.arange(4), np.ones(4), "normalized"),
], ids=["not_1d", "count", "not_finite", "negative", "not_normalized"])
def test_resample_rejects_bad_weights(particles, weights, match):
    with pytest.raises(ValueError, match=match):
        smc_resample(particles, weights, 0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 20), n=st.integers(1, 64),
       scale=st.sampled_from([0.0, 0.1, 1.0, 10.0, 1e3]))
def test_resample_rows_match_per_row_ess_and_resample(seed, K, n, scale):
    """The SMC samplers' row-wise resampling step picks the rows whose
    ``smc_ess`` is below n / 2 and permutes them by ``smc_resample``, with
    each row's generator left as the per-row calls leave it. Rows 0 to 3 are
    uniform, one-hot, uniform on half the particles (an ESS of n / 2) and
    not finite (left alone)."""
    rng = np.random.default_rng(seed)
    log_w = scale * rng.standard_normal((K, n))
    log_w[0] = 0.0
    log_w[1:3] = -np.inf
    log_w[1:2, rng.integers(n)] = 0.0
    log_w[2:3, : max(1, n // 2)] = 0.0
    log_w -= _logsumexp(log_w, axis=-1, keepdims=True)
    log_w[3:4, -1] = np.nan
    index, X = np.tile(np.arange(n), (K, 1)), rng.standard_normal((K, n, 2))
    X0 = X.copy()
    rngs = [np.random.default_rng([seed, k]) for k in range(K)]
    refs = [np.random.default_rng([seed, k]) for k in range(K)]
    rows = _resample(log_w, _Streams(rngs), index, X)
    resampled = []
    for k, ref in enumerate(refs):
        w = np.exp(log_w[k])
        w = w / w.sum()
        keep = np.arange(n)
        if np.isfinite(w).all() and smc_ess(w) < n / 2:
            resampled.append(k)
            keep = smc_resample(keep, w, ref)
        assert np.array_equal(index[k], keep) and np.array_equal(X[k], X0[k, keep])
        assert rngs[k].bit_generator.state == ref.bit_generator.state
    assert rows.tolist() == resampled


def test_resample_unbiased():
    w = np.array([0.1, 0.2, 0.3, 0.4])
    P = np.arange(4.0)[:, None]
    counts = np.zeros(4)
    trials = 20_000
    for s in range(trials):
        out = smc_resample(P, w, s)
        for i in range(4):
            counts[i] += np.sum(out[:, 0] == i)
    expected = 4 * w * trials
    se = np.sqrt(4 * w * (1 - w) * trials)
    assert np.all(np.abs(counts - expected) < 3 * se)


# ---------------------------------------------------------------------------
# full solvers
# ---------------------------------------------------------------------------

def test_reference_exact_matches_posterior_moments(problem):
    pb, m = problem
    spec = resolve_solver("reference_exact")
    batch = _batch(spec, pb, m, 10_000, 42)
    post = exact_posterior(pb.prior, m.operator, m.y, m.sigma_y)
    mean, cov = mixture_moments(post)
    dv = np.diag(cov)
    n = len(batch.samples)
    assert np.all(np.abs(batch.samples.mean(axis=0) - mean) < 3 * np.sqrt(dv / n))
    emp = batch.samples.var(axis=0, ddof=1)
    assert np.all(np.abs(emp - dv) < 3 * dv * np.sqrt(3.0 / n))


def _unconditional_draw(problem, seed):
    """One ancestral draw of the exact kernel from ``sigma_max`` to 0, all
    from one generator seeded with ``seed``: the draws a sampler makes when
    its measurement pull vanishes."""
    rng = np.random.default_rng(seed)
    X = problem.sched.sigma_max * rng.standard_normal((1, problem.prior.dim))
    for i in range(len(problem.sched.grid) - 1):
        X = problem.kernel.step(X, i, rng)
    return X[0]


def test_dps_guidance_off_reduces_to_unconditional(problem):
    pb, m = problem
    spec = resolve_solver("dps", {"guidance_scale": 0.0})
    for seed in (1, 2, 3):
        x, status = sample_one(spec, pb, m, seed)
        ref = _unconditional_draw(pb, seed)
        assert status == "ok"
        assert np.array_equal(x, ref)


def test_ddnm_zero_operator_reduces_to_unconditional(toy_prior, sched_small):
    A = build_operator("binary_svd", 16, obs_count=0)
    m = synthesize_measurement(A, np.zeros(16), 1.0, 1)
    pb = _problem(toy_prior, sched_small, m)
    spec = resolve_solver("ddnm")
    for seed in (4, 5):
        x, status = sample_one(spec, pb, m, seed)
        ref = _unconditional_draw(pb, seed)
        assert status == "ok"
        assert np.allclose(x, ref, atol=1e-12)


def test_diffpir_infinite_noise_reduces_to_unconditional(toy_prior, sched_small):
    A = build_operator("identity", 16)
    m = synthesize_measurement(A, np.zeros(16), 1e12, 1)
    pb = _problem(toy_prior, sched_small, m)
    spec = resolve_solver("diffpir")
    for seed in (6, 7):
        x, status = sample_one(spec, pb, m, seed)
        ref = _unconditional_draw(pb, seed)
        assert status == "ok"
        assert np.max(np.abs(x - ref)) < 1e-6


def test_all_solvers_run_and_are_deterministic(problem):
    pb, m = problem
    for name in SOLVER_NAMES:
        spec = resolve_solver(name)
        a, sa = sample_one(spec, pb, m, 13)
        b, sb = sample_one(spec, pb, m, 13)
        assert sa == sb == "ok"
        assert np.array_equal(a, b), name


def test_fps_degenerate_status_on_rank_deficient_operator(toy_prior, sched_small):
    A = build_operator("binary_svd", 16, obs_count=8,
                       basis_mode="random_orthogonal", seed=0)
    x_star = sample_mixture(toy_prior, 1, 2)[0]
    m = synthesize_measurement(A, x_star, 1.0, 3)
    x, status = sample_one(resolve_solver("fps_smc"), _problem(toy_prior, sched_small, m), m, 9)
    assert status.startswith("diverged")
    assert np.all(np.isnan(x))


def test_run_batch_contract(problem):
    """``run_batch`` of one measurement is ``run_cases`` of it on its
    problem; any ``ctx`` is ignored."""
    pb, m = problem
    spec = resolve_solver("ddrm")
    batch = run_batch(spec, m, pb.prior, pb.sched, 5, 1000)
    assert batch.samples.shape == (5, 16)
    assert len(batch.seeds) == 5
    rerun = run_batch(spec, m, pb.prior, pb.sched, 5, 1000, ctx=object())
    assert np.array_equal(batch.samples, rerun.samples)
    assert np.array_equal(batch.samples, _batch(spec, pb, m, 5, 1000).samples)
    # row k equals a standalone call with the derived seed
    k = 3
    x, _ = sample_one(spec, pb, m, derive_seed(1000, [("row", k)]))
    assert np.array_equal(batch.samples[k], x)


def test_run_batch_validation(problem):
    pb, m = problem
    with pytest.raises(ValueError, match="K"):
        run_batch(resolve_solver("ddrm"), m, pb.prior, pb.sched, 0, 1)


@pytest.mark.parametrize("K, base_seed, match", [
    (2.5, 1, "K must be an integer >= 1, got 2.5"),
    (True, 1, "K must be an integer >= 1, got True"),
    (3, 1.5, r"base seeds must be integers, got \[1.5\]"),
    (3, True, r"base seeds must be integers, got \[True\]"),
], ids=["float_K", "bool_K", "float_seed", "bool_seed"])
def test_run_cases_rejects_non_integer_K_and_seeds(problem, K, base_seed, match):
    """K = 2.5 raised numpy's TypeError, and K = True or a base seed of 1.5
    or True drew the rows of 1; each now raises a ValueError."""
    pb, m = problem
    with pytest.raises(ValueError, match=match):
        run_cases(resolve_solver("ddrm"), pb, [m], K, [base_seed])


def test_run_cases_takes_numpy_integers(problem):
    pb, m = problem
    want = _batch(resolve_solver("ddrm"), pb, m, 3, 11)
    got, = run_cases(resolve_solver("ddrm"), pb, [m], np.int64(3), [np.uint64(11)])
    assert np.array_equal(got.samples, want.samples) and got.seeds == want.seeds


def test_sample_one_dimension_check(toy_prior, sched_small):
    A = build_operator("identity", 8)
    m = synthesize_measurement(A, np.zeros(8), 1.0, 1)
    with pytest.raises(ValueError, match="dimension"):
        sample_one(resolve_solver("ddrm"), _problem(toy_prior, sched_small, m), m, 0)


# ---------------------------------------------------------------------------
# the driver: setup once per batch of cases, one row per seed
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sched12():
    return build_schedule(0.01, 10.0, 12)


@pytest.mark.parametrize("name, overrides, status", [
    ("reddiff", {"step_size": 1e200}, "diverged(step=1)"),
    ("dps", {"guidance_scale": 1e300}, "diverged(step=1)"),
    ("daps", {"step_size": 1e6}, "diverged(step=2)"),
    ("ddrm", {"eta": 1e200}, "diverged(step=5)"),
    ("ddrm", {"eta_b": 1e200}, "diverged(step=1)"),
])
def test_divergence_status_strings(toy_prior, sched12, name, overrides, status):
    A = build_operator("identity", 16)
    m = synthesize_measurement(A, np.zeros(16), 1.0, 1)
    with np.errstate(all="ignore"):
        x, got = sample_one(resolve_solver(name, overrides), _problem(toy_prior, sched12, m), m, 5)
    assert got == status
    assert np.all(np.isnan(x))


def test_fps_divergence_status_string(toy_prior, sched12):
    A = build_operator("binary_svd", 16, obs_count=8)
    m = synthesize_measurement(A, np.zeros(16), 1.0, 1)
    x, status = sample_one(resolve_solver("fps_smc"), _problem(toy_prior, sched12, m), m, 5)
    assert status == "diverged(step=0; pseudo-inverse of zero singular values)"
    assert np.all(np.isnan(x))


def _overflow_and_normal_cases(toy_prior):
    """Two cases at sigma_y = 1e-5 on the identity: one whose A^T y / sigma_y^2
    overflows, and an ordinary one."""
    A = build_operator("identity", 16)
    huge = Measurement(y=np.full(16, 1e305), x_star=np.zeros(16), sigma_y=1e-5, operator=A,
                       seed=0)
    return [huge, synthesize_measurement(A, sample_mixture(toy_prior, 1, 3)[0], 1e-5, 4)]


@pytest.mark.parametrize("x_step", ["diffusion", "conjugate"])
def test_pnpdm_overflowing_case_diverges_alone(toy_prior, sched12, x_step):
    """A z-step data term that overflows ends its rows at step 0; the other
    case of the same chunk finishes with the rows it has on its own."""
    ms = _overflow_and_normal_cases(toy_prior)
    pb = _problem(toy_prior, sched12, ms[0])
    spec = resolve_solver("pnpdm", {"x_step": x_step, "gibbs_iters": 3})
    with np.errstate(all="ignore"):
        huge, normal = run_cases(spec, pb, ms, 3, [5, 6])
    assert huge.statuses == ["diverged(step=0)"] * 3 and np.isnan(huge.samples).all()
    alone = _batch(spec, pb, ms[1], 3, 6)
    assert normal.statuses == ["ok"] * 3
    assert np.array_equal(normal.samples, alone.samples)


def test_reference_exact_non_finite_posterior_diverges(toy_prior, sched12):
    """A measurement whose posterior overflows gives NaN rows with a
    ``diverged`` status, never NaN rows marked ``ok``."""
    ms = _overflow_and_normal_cases(toy_prior)
    with np.errstate(all="ignore"):
        huge, normal = run_cases(resolve_solver("reference_exact"),
                                 _problem(toy_prior, sched12, ms[0]), ms, 4, [5, 6])
    assert huge.statuses == ["diverged(step=0; posterior is not finite)"] * 4
    assert np.isnan(huge.samples).all()
    assert normal.statuses == ["ok"] * 4 and np.isfinite(normal.samples).all()


def test_problem_reuse_across_solvers(toy_prior, sched12):
    """One problem per operator, shared by every solver and by a later pass
    after another problem ran, gives the bits of a fresh problem per call."""
    problems = [Problem(toy_prior, sched12, A, 1.0) for A in
                (build_operator("identity", 16), build_operator("binary_svd", 16, obs_count=8))]
    for n, pb in enumerate(problems + problems[:1]):
        m = synthesize_measurement(pb.operator, sample_mixture(toy_prior, 1, n)[0], 1.0, n)
        for name in SOLVER_NAMES:
            spec = resolve_solver(name)
            shared = _batch(spec, pb, m, 2, 7)
            fresh = _batch(spec, _problem(toy_prior, sched12, m), m, 2, 7)
            assert shared.statuses == fresh.statuses, (n, name)
            assert np.array_equal(shared.samples, fresh.samples, equal_nan=True), (n, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problems[0].kernel = None


def test_problem_builds_the_kernel_and_posterior_on_first_use(toy_prior, sched12):
    m = synthesize_measurement(build_operator("identity", 16), np.zeros(16), 1.0, 1)
    pb = _problem(toy_prior, sched12, m)
    assert not {"kernel", "posterior"} & set(vars(pb))
    _batch(resolve_solver("reference_exact"), pb, m, 2, 7)
    assert "kernel" not in vars(pb) and "posterior" in vars(pb)
    _batch(resolve_solver("dps"), pb, m, 2, 7)
    kernel = vars(pb)["kernel"]
    assert isinstance(kernel, ReverseKernel) and pb.kernel is kernel


def test_measurement_of_another_problem_rejected(toy_prior, sched12):
    """A measurement of another operator object, or of another sigma_y, is
    not one of the problem's."""
    pb = Problem(toy_prior, sched12, build_operator("identity", 16), 1.0)
    for A, sigma_y in ((build_operator("identity", 16), 1.0), (pb.operator, 0.5)):
        m = synthesize_measurement(A, np.zeros(16), sigma_y, 1)
        with pytest.raises(ValueError, match="problem's operator and sigma_y"):
            run_cases(resolve_solver("ddrm"), pb, [m], 3, [7])
        with pytest.raises(ValueError, match="problem's operator and sigma_y"):
            sample_one(resolve_solver("ddrm"), pb, m, 7)


def test_mcg_diff_rejects_non_binary_operator(toy_prior, sched12):
    A = LinearOperatorSVD(np.eye(16), 0.5 * np.ones(16), np.eye(16))
    m = synthesize_measurement(A, np.zeros(16), 1.0, 1)
    pb = _problem(toy_prior, sched12, m)
    spec = resolve_solver("mcg_diff")
    with pytest.raises(ValueError, match="binary"):
        _batch(spec, pb, m, 2, 3)
    with pytest.raises(ValueError, match="binary"):
        sample_one(spec, pb, m, 3)


# ---------------------------------------------------------------------------
# row batching: each row of a batch has the bits it has on its own
# ---------------------------------------------------------------------------

_OPERATORS = {
    "identity": lambda: build_operator("identity", 16),
    "binary_obs8": lambda: build_operator("binary_svd", 16, obs_count=8),
}


def _standalone_rows(spec, problem, m, base_seed, K):
    return [sample_one(spec, problem, m, derive_seed(base_seed, [("row", k)])) for k in range(K)]


# sha256 of the K = 16 pnpdm batch with the conjugate x-step, by operator
# (numpy 2.4.6 and scipy 1.17.1 with their bundled OpenBLAS builds)
_PNPDM_CONJUGATE_SHA256 = {
    "identity": "5a7265fff9fd6e8c1bfe85566213bcb85b8a98d8e184969dd137caeba404eac3",
    "binary_obs8": "b935e7a5e4ce17585b60eb11a0630846a9a746b5f23e2506f9de0b4861144c54",
}
# the same for daps at the edges of its per-level normal block: a zero step
# draws no Langevin noise (and so ignores the operator), one step draws one
# (d,) row before the re-noise
_DAPS_STEP0_SHA256 = dict.fromkeys(
    _OPERATORS, "a2c0bfb8d07a638e42a8ad8769c0328d1f47cfb50ffcf690cd2957a72c65d610")
_DAPS_ONE_STEP_SHA256 = {
    "identity": "428be446bbd2768ace0918f0624caa6f69ab53323dbb3f577c41e02bb34ec71f",
    "binary_obs8": "19c7b41ea1cf1c45e5c481fe5f47a198c8305a52cbd7c91d1f37b4c34f7d1f29",
}
_SOLVER_CASES = [
    *(pytest.param(name, {}, None, id=name) for name in SOLVER_NAMES),
    pytest.param("pnpdm", {"x_step": "conjugate"}, _PNPDM_CONJUGATE_SHA256, id="pnpdm_conjugate"),
    pytest.param("daps", {"step_size": 0.0}, _DAPS_STEP0_SHA256, id="daps_step0"),
    pytest.param("daps", {"langevin_steps": 1}, _DAPS_ONE_STEP_SHA256, id="daps_one_step"),
]


@pytest.mark.parametrize("op", sorted(_OPERATORS))
@pytest.mark.parametrize("name, overrides, pinned", _SOLVER_CASES)
def test_batch_rows_equal_standalone_draws(toy_prior, sched12, name, overrides, pinned, op):
    A = _OPERATORS[op]()
    m = synthesize_measurement(A, sample_mixture(toy_prior, 1, 21)[0], 1.0, 22)
    pb = _problem(toy_prior, sched12, m)
    spec = resolve_solver(name, overrides)
    alone = _standalone_rows(spec, pb, m, 31, 16)
    for K in (1, 3, 16):
        batch = _batch(spec, pb, m, K, 31)
        for k in range(K):
            x, status = alone[k]
            assert batch.statuses[k] == status, (K, k)
            assert np.array_equal(batch.samples[k], x, equal_nan=True), (K, k)
    if pinned:
        blob = np.ascontiguousarray(batch.samples).tobytes()
        assert hashlib.sha256(blob).hexdigest() == pinned[op]


@pytest.mark.parametrize("op", sorted(_OPERATORS))
@pytest.mark.parametrize("name, overrides, pinned", _SOLVER_CASES)
def test_run_cases_same_bits_without_the_compiled_loop(toy_prior, sched12, name, overrides, pinned,
                                                        op, monkeypatch):
    """``run_cases`` gives the same samples and statuses, byte for byte, when
    the row draws take the numpy path (the compiled loop forced off)."""
    A = _OPERATORS[op]()
    ms = [synthesize_measurement(A, sample_mixture(toy_prior, 1, 40 + n)[0], 1.0, 50 + n)
          for n in range(2)]
    pb = _problem(toy_prior, sched12, ms[0])
    spec = resolve_solver(name, overrides)
    default = run_cases(spec, pb, ms, 3, [7, 8])
    monkeypatch.setattr(diffuq.seeding, "_rowdraws", lambda: None)
    numpy_path = run_cases(spec, pb, ms, 3, [7, 8])
    for a, b in zip(default, numpy_path):
        assert a.statuses == b.statuses
        assert a.samples.tobytes() == b.samples.tobytes()


@pytest.fixture()
def fresh_rowdraws(monkeypatch, tmp_path):
    """``seeding._rowdraws`` decided afresh, with its cache under ``tmp_path``,
    and decided afresh again once the test has restored the environment."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    diffuq.seeding._rowdraws.cache_clear()
    yield tmp_path / "diffuq"
    monkeypatch.undo()
    diffuq.seeding._rowdraws.cache_clear()


def test_failed_build_falls_back_and_samples_the_same(toy_prior, sched12, monkeypatch,
                                                      fresh_rowdraws):
    """A compiler that cannot run leaves no library or temporary file in the
    cache, and the rows then draw on the numpy path with the same bits."""
    A = _OPERATORS["binary_obs8"]()
    m = synthesize_measurement(A, sample_mixture(toy_prior, 1, 61)[0], 1.0, 62)
    pb = _problem(toy_prior, sched12, m)
    specs = [resolve_solver(name) for name in ("reddiff", "mcg_diff", "daps")]
    want = [_batch(spec, pb, m, 4, 9).samples for spec in specs]
    shutil.rmtree(fresh_rowdraws, ignore_errors=True)
    diffuq.seeding._rowdraws.cache_clear()
    monkeypatch.setenv("CC", str(fresh_rowdraws / "no-such-compiler"))
    with pytest.warns(RuntimeWarning, match="through numpy.*no-such-compiler"):
        assert diffuq.seeding._rowdraws() is None
    assert not any(fresh_rowdraws.iterdir())
    for spec, samples in zip(specs, want):
        batch = _batch(spec, pb, m, 4, 9)
        assert batch.statuses == ["ok"] * 4
        assert batch.samples.tobytes() == samples.tobytes()


@pytest.mark.skipif(shutil.which(os.environ.get("CC") or "cc") is None, reason="no C compiler")
def test_row_loop_builds_into_the_cache_once(fresh_rowdraws):
    """The row loop compiles into ``$XDG_CACHE_HOME/diffuq`` under one keyed
    name, leaves no temporary file, and a second process-wide decision
    loads it without compiling again."""
    lib = diffuq.seeding._rowdraws()
    assert lib is not None
    built = list(fresh_rowdraws.iterdir())
    assert [p.name for p in built] == [Path(lib._name).name]
    assert built[0].name.startswith("rowdraws-") and built[0].suffix == ".so"
    stamp = built[0].stat().st_mtime_ns
    diffuq.seeding._rowdraws.cache_clear()
    assert diffuq.seeding._rowdraws() is not None
    assert list(fresh_rowdraws.iterdir()) == built and built[0].stat().st_mtime_ns == stamp


def test_diverged_rows_leave_the_batch_alone(toy_prior, sched12):
    """reddiff at sigma_y = 0.1 with 125 steps sits at its stability edge:
    some rows overflow near the end and the others finish."""
    A = build_operator("identity", 16)
    m = synthesize_measurement(A, sample_mixture(toy_prior, 1, 11)[0], 0.1, 12)
    pb = _problem(toy_prior, sched12, m)
    spec = resolve_solver("reddiff", {"opt_steps": 125})
    with np.errstate(all="ignore"):
        batch = _batch(spec, pb, m, 16, 5)
        alone = _standalone_rows(spec, pb, m, 5, 16)
    assert set(batch.statuses) == {"ok", "diverged(step=120)", "diverged(step=121)"}
    for k, (x, status) in enumerate(alone):
        assert batch.statuses[k] == status
        if status == "ok":
            assert np.array_equal(batch.samples[k], x)
        else:
            assert np.all(np.isnan(batch.samples[k])) and np.all(np.isnan(x))


@pytest.mark.parametrize("op", sorted(_OPERATORS))
@pytest.mark.parametrize("particles", [1, 2, 3])
@pytest.mark.parametrize("name", ["fps_smc", "mcg_diff"])
def test_smc_rows_equal_standalone_draws_at_few_particles(toy_prior, sched12, monkeypatch,
                                                          name, particles, op):
    """With few particles a component is often drawn by one particle of a
    row; that particle's products take the row-wise (gemv) path, which the
    batch must run for it while the row's other particles share a gemm.
    One-particle rows run one row per ``rows`` call: on ``sigma_min = 1``
    the responsibilities do not saturate, so a one-particle row that shared
    its solves' columns with other rows would show a one-column solve's
    other bits."""
    singletons = []
    vecmat_rows = diffuq.gmm._vecmat_rows

    def counting_vecmat_rows(X, M):
        singletons.append(len(X))
        return vecmat_rows(X, M)

    monkeypatch.setattr(diffuq.gmm, "_vecmat_rows", counting_vecmat_rows)
    A = _OPERATORS[op]()
    m = synthesize_measurement(A, sample_mixture(toy_prior, 1, 23)[0], 1.0, 24)
    spec = resolve_solver(name, {"particles": particles})
    for sched in (sched12, build_schedule(1.0, 10.0, 8)):
        pb = _problem(toy_prior, sched, m)
        alone = _standalone_rows(spec, pb, m, 41, 16)
        for K in (1, 3, 16):
            singletons.clear()
            batch = _batch(spec, pb, m, K, 41)
            for k in range(K):
                x, status = alone[k]
                assert batch.statuses[k] == status, (sched.sigma_min, K, k)
                assert np.array_equal(batch.samples[k], x, equal_nan=True), (sched.sigma_min, K, k)
        if batch.statuses != ["diverged(step=0; pseudo-inverse of zero singular values)"] * 16:
            assert sum(singletons) > 0, "no (row, level, component) subset of one particle"


def test_rows_finite_drops_companions_with_their_row():
    out = _Rows(_Streams([np.random.default_rng(k) for k in range(4)]), 3)
    X = np.zeros((4, 2, 3))
    X[1, 1, 2] = np.nan
    X[3, 0, 0] = np.inf
    log_w = np.arange(8.0).reshape(4, 2)
    path = np.arange(4.0)
    got, got_w, got_path = out.finite(X, 5, log_w, path, why="because")
    assert got.shape == (2, 2, 3)
    assert np.array_equal(got_w, log_w[[0, 2]]) and np.array_equal(got_path, [0.0, 2.0])
    assert out.statuses == ["ok", "diverged(step=5; because)", "ok", "diverged(step=5; because)"]
    assert len(out.rngs) == 2
    assert np.array_equal(out.finite(got[:, 0], 6), got[:, 0])  # no companions: X alone
    samples, statuses = out.done(np.ones((2, 3)))
    assert np.array_equal(samples[[0, 2]], np.ones((2, 3))) and np.isnan(samples[[1, 3]]).all()


@pytest.fixture(scope="module")
def kernel12(toy_prior, sched12):
    return ReverseKernel(toy_prior, sched12)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-3.0, 3.0), level=st.integers(0, 12))
def test_rowwise_primitives_match_single_rows(kernel12, K, seed, log_scale, level):
    rng = np.random.default_rng(seed)
    X = 10.0**log_scale * rng.standard_normal((K, 16))
    seeds = rng.integers(0, 2**32, size=K)
    noisy = noisy_marginal(kernel12.prior, kernel12.sched.grid[level])
    lp = kernel12._table.logpdfs_rows(X, np.full(K, level))
    resp = np.exp(_log_normalised(lp, noisy.weights))
    logr = kernel12.log_responsibilities_rows(X, level)
    den = kernel12.denoise_rows(X, level)
    stepped = kernel12.step_rows(X, level, _Streams([np.random.default_rng(s) for s in seeds]))
    levels = rng.integers(0, 13, size=K)
    scores = kernel12.score_rows(X, levels)
    score, xhat0, jac = kernel12.score_and_denoise_rows(X, level)
    grid = kernel12.sched.grid
    for k in range(K):
        row = X[k : k + 1]
        lp = _component_logpdfs(noisy.means, noisy._chols, noisy._logdets, row)
        assert np.array_equal(resp[k], np.exp(_log_normalised(lp, noisy.weights))[0])
        assert np.array_equal(logr[k], kernel12.log_responsibilities(row, level)[0])
        assert np.array_equal(den[k], kernel12.denoise(row, level)[0])
        assert np.array_equal(stepped[k],
                              kernel12.step(row, level, np.random.default_rng(seeds[k]))[0])
        assert np.array_equal(scores[k], denoise_batch(kernel12.prior, row, grid[levels[k]])[0][0])
        for got, want in zip((score, xhat0, jac),
                             score_and_denoise(kernel12.prior, X[k], grid[level])):
            assert np.array_equal(got[k], want)


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 6), n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-3.0, 3.0), level=st.integers(0, 12))
def test_step_sets_match_each_set_alone(kernel12, K, n, seed, log_scale, level):
    rng = np.random.default_rng(seed)
    X = 10.0**log_scale * rng.standard_normal((K, n, 16))
    seeds = rng.integers(0, 2**32, size=K)
    stepped = kernel12.step_sets(X, level, _Streams([np.random.default_rng(s) for s in seeds]))
    for k in range(K):
        assert np.array_equal(stepped[k],
                              kernel12.step(X[k], level, np.random.default_rng(seeds[k])))
    one = kernel12.step_sets(X[:1, :1], level, _Streams([np.random.default_rng(seeds[0])]))
    assert np.array_equal(one[0], kernel12.step(X[0, :1], level, np.random.default_rng(seeds[0])))


def test_docs_list_each_solver_under_its_family():
    """docs/solvers.md has a ``### <name>`` section for every solver, under
    the ``## <Family> family`` heading of its table family."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "solvers.md").read_text()
    family, found = None, {}
    for line in doc.splitlines():
        if line.startswith("## "):
            family = line[3:].removesuffix(" family").lower().replace("-", "_")
        elif line.startswith("### "):
            found[line[4:].strip()] = family
    assert found == SOLVER_FAMILIES


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       scale=st.sampled_from([0.0, 1.0, 30.0, 1e3]))
def test_picks_draw_matches_choice(seed, n, scale):
    """The SMC samplers' final draw is ``rng.choice(n, p=w)`` on the
    normalised weights, bit for bit, and leaves each generator in the same
    state."""
    rng = np.random.default_rng(seed)
    log_w = scale * rng.standard_normal((4, n))
    X = rng.standard_normal((4, n, 3))
    rngs = [np.random.default_rng([seed, k]) for k in range(4)]
    refs = [np.random.default_rng([seed, k]) for k in range(4)]
    samples, statuses = _picks(_Rows(_Streams(rngs), 3), X, log_w, 7)
    w = np.exp(log_w - _logsumexp(log_w, axis=-1, keepdims=True))
    for k, ref in enumerate(refs):
        assert np.array_equal(samples[k], X[k, ref.choice(n, p=w[k])])
        assert rngs[k].bit_generator.state == ref.bit_generator.state
    assert statuses == ["ok"] * 4


def test_picks_huge_and_non_finite_log_weights():
    """Log-weights of size 1e11 (a tiny sigma_y), whose normalised weights
    miss a sum of 1 by more than ``rng.choice`` allows, still draw; a row
    with a NaN or +inf log-weight leaves with its status."""
    X = np.arange(4 * 3 * 2, dtype=float).reshape(4, 3, 2)
    log_w = np.array([[-1.28143158e11] * 3,
                      [0.0, np.nan, 1.0],
                      [0.0, np.inf, 1.0],
                      [-1.49403701e11, -1.49403701e11 - 1e6, -np.inf]])
    with np.errstate(invalid="ignore"):
        rows = _Rows(_Streams([np.random.default_rng(k) for k in range(4)]), 2)
        samples, statuses = _picks(rows, X, log_w, 9)
    assert statuses == ["ok", "diverged(step=9; final weights are not finite)",
                        "diverged(step=9; final weights are not finite)", "ok"]
    assert any(np.array_equal(samples[0], x) for x in X[0])
    assert np.array_equal(samples[3], X[3, 0])
    assert np.isnan(samples[1:3]).all()
