import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.linalg.lapack import dgetrf
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import multivariate_normal

from diffuq.gmm import (
    GaussianMixture,
    ToyPriorSpec,
    build_toy_prior,
    denoise_batch,
    exact_posterior,
    mixture_cdf_1d,
    mixture_logpdf,
    mixture_moments,
    noisy_marginal,
    sample_mixture,
    score_and_denoise,
    _BAND_MAX_D,
    _logsumexp,
    _mixture_logpdfs_rows,
    _mixtures_logpdfs_rows,
    _sample_mixture_rows,
    _vecmat_rows,
)
from diffuq.operators import LinearOperatorSVD, _haar_orthogonal, build_operator


def single_gaussian(mu, cov):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return GaussianMixture(np.array([1.0]), mu[None, :], np.asarray(cov)[None, :, :])


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_toy_prior_parameters(toy_prior):
    assert toy_prior.n_components == 2
    assert np.allclose(toy_prior.weights, [0.5, 0.5])
    assert toy_prior.covs[0][0, 1] == pytest.approx(0.8)
    assert toy_prior.means[0][7] == 2.0
    assert toy_prior.means[1][7] == -2.0
    assert toy_prior.covs[0][8, 8] == 5.0
    assert toy_prior.covs[0][8, 9] == 0.0
    # means differ only at the bimodal coordinate
    diff = toy_prior.means[0] - toy_prior.means[1]
    assert np.count_nonzero(diff) == 1


def test_toy_prior_shared_block_covariance(toy_prior):
    assert np.array_equal(toy_prior.covs[0], toy_prior.covs[1])
    ds = 8
    assert np.all(toy_prior.covs[0][:ds, ds:] == 0)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        GaussianMixture(np.array([0.6, 0.6]), np.zeros((2, 2)),
                        np.stack([np.eye(2)] * 2))


def test_covariance_must_be_symmetric():
    cov = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), cov[None])


def test_covariance_must_be_positive_definite():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), cov[None])


def test_spec_invariants():
    with pytest.raises(ValueError):
        ToyPriorSpec(rho_ar=1.0)
    with pytest.raises(ValueError):
        ToyPriorSpec(sigma_w_sq=0.0)
    with pytest.raises(ValueError):
        ToyPriorSpec(bimodal_coord=9)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_logpdf_standard_normal_at_mode():
    gmm = single_gaussian([0.0], np.eye(1))
    assert mixture_logpdf(gmm, np.zeros(1)) == pytest.approx(-0.5 * np.log(2 * np.pi))


def test_logpdf_degenerate_two_component_mixture():
    one = single_gaussian([0.0], np.eye(1))
    two = GaussianMixture(np.array([0.5, 0.5]), np.zeros((2, 1)),
                          np.stack([np.eye(1)] * 2))
    x = np.array([0.7])
    assert mixture_logpdf(two, x) == pytest.approx(mixture_logpdf(one, x))


def test_logpdf_rejects_nonfinite():
    gmm = single_gaussian([0.0], np.eye(1))
    with pytest.raises(ValueError, match="non-finite"):
        mixture_logpdf(gmm, np.array([np.nan]))


def test_logpdf_matches_quadrature_on_slice(toy_prior):
    """Density along the coordinate-7 slice integrates to the analytic value."""
    base = toy_prior.means[0].copy()

    def density(t):
        x = base.copy()
        x[7] = t
        return np.exp(mixture_logpdf(toy_prior, x))

    numeric, _ = quad(density, -15, 15, limit=200)
    # oracle: integrate each component's pdf independently along the slice
    analytic = 0.0
    for c in range(2):
        mvn = multivariate_normal(toy_prior.means[c], toy_prior.covs[c])
        val, _ = quad(lambda t: mvn.pdf(np.concatenate(
            [base[:7], [t], base[8:]])), -15, 15, limit=200)
        analytic += 0.5 * val
    assert numeric == pytest.approx(analytic, rel=1e-8)


def test_logpdf_batch_matches_single(toy_prior, rng):
    X = rng.standard_normal((5, 16))
    batch = mixture_logpdf(toy_prior, X)
    singles = [mixture_logpdf(toy_prior, x) for x in X]
    assert np.allclose(batch, singles)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_deterministic(toy_prior):
    a = sample_mixture(toy_prior, 50, 7)
    b = sample_mixture(toy_prior, 50, 7)
    assert np.array_equal(a, b)


def test_sampling_symmetry_coordinate7(toy_prior):
    X = sample_mixture(toy_prior, 100_000, 11)
    # Var of coordinate 7 = 1 + mu_sep^2 = 5
    se = np.sqrt(5.0 / len(X))
    assert abs(X[:, 7].mean()) < 3 * se


def test_sampling_one_hot_weights(toy_prior):
    gmm = GaussianMixture(np.array([1.0, 0.0]), toy_prior.means, toy_prior.covs)
    X = sample_mixture(gmm, 20_000, 3)
    se = np.sqrt(np.diag(gmm.covs[0]) / len(X))
    assert np.all(np.abs(X.mean(axis=0) - gmm.means[0]) < 3 * se)


def test_sampling_rejects_bad_n(toy_prior):
    with pytest.raises(ValueError, match="n must be"):
        sample_mixture(toy_prior, 0, 1)


# ---------------------------------------------------------------------------
# noisy marginal, score, denoiser
# ---------------------------------------------------------------------------

def test_noisy_marginal_zero_sigma_is_identity(toy_prior):
    out = noisy_marginal(toy_prior, 0.0)
    assert out is toy_prior


def test_noisy_marginal_gaussian_convolution():
    gmm = single_gaussian(np.zeros(3), np.eye(3))
    out = noisy_marginal(gmm, 1.0)
    assert np.allclose(out.covs[0], 2 * np.eye(3))


def test_noisy_marginal_toy_weak_block(toy_prior):
    out = noisy_marginal(toy_prior, 2.0)
    assert out.covs[0][8, 8] == pytest.approx(9.0)
    assert np.array_equal(out.means, toy_prior.means)


def test_score_single_gaussian():
    gmm = single_gaussian(np.zeros(4), np.eye(4))
    x = np.array([2.0, 0, 0, 0])
    score, xhat0, _ = score_and_denoise(gmm, x, 1.0)
    assert score[0] == pytest.approx(-1.0)
    assert xhat0[0] == pytest.approx(1.0)


def test_score_symmetry_at_origin(toy_prior):
    score, _, _ = score_and_denoise(toy_prior, np.zeros(16), 0.5)
    assert score[7] == pytest.approx(0.0, abs=1e-12)


def test_score_jacobian_matches_finite_differences(toy_prior, rng):
    x = rng.standard_normal(16)
    sigma = 0.7
    _, _, jac = score_and_denoise(toy_prior, x, sigma)
    h = 1e-5
    fd = np.empty((16, 16))
    for j in range(16):
        e = np.zeros(16)
        e[j] = h
        sp, _, _ = score_and_denoise(toy_prior, x + e, sigma)
        sm, _, _ = score_and_denoise(toy_prior, x - e, sigma)
        # column j of the x_hat0 Jacobian: d xhat0 / d x_j
        fd[:, j] = ((x + e + sigma**2 * sp) - (x - e + sigma**2 * sm)) / (2 * h)
    assert np.max(np.abs(jac - fd)) / np.max(np.abs(jac)) < 1e-6


def test_score_requires_positive_sigma(toy_prior):
    with pytest.raises(ValueError, match="sigma_t"):
        score_and_denoise(toy_prior, np.zeros(16), 0.0)


def test_denoiser_equals_identity_posterior_mean(toy_prior, rng):
    """Tweedie x_hat0 is the posterior mean of the denoising problem."""
    x = rng.standard_normal(16) * 2
    sigma = 1.3
    _, xhat0, _ = score_and_denoise(toy_prior, x, sigma)
    identity = build_operator("identity", 16)
    post = exact_posterior(toy_prior, identity, x, sigma)
    mean, _ = mixture_moments(post)
    assert np.max(np.abs(xhat0 - mean)) < 1e-8


def test_denoise_batch_matches_single(toy_prior, rng):
    X = rng.standard_normal((7, 16))
    score_b, xhat_b = denoise_batch(toy_prior, X, 0.9)
    for k, x in enumerate(X):
        s, xh, _ = score_and_denoise(toy_prior, x, 0.9)
        assert np.allclose(score_b[k], s)
        assert np.allclose(xhat_b[k], xh)


def test_kept_factors_match_fresh_cholesky(toy_prior, rng):
    A = build_operator("binary_svd", 16, obs_count=6,
                       basis_mode="random_orthogonal", seed=4)
    mixtures = [
        toy_prior,
        noisy_marginal(toy_prior, 0.7),
        exact_posterior(toy_prior, A, rng.standard_normal(16), 0.5),
    ]
    for gmm in mixtures:
        for c, cov in enumerate(gmm.covs):
            chol = np.linalg.cholesky(cov)
            assert np.array_equal(gmm._chols[c], chol)
            assert gmm._logdets[c] == 2.0 * np.sum(np.log(np.diag(chol)))


# ---------------------------------------------------------------------------
# logsumexp
# ---------------------------------------------------------------------------

# a small pool of special values makes ties, all -inf rows, +inf and NaN common
_LSE_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -1.5, 2.0, 700.0, -np.inf, np.inf, np.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_LSE_ARGS = ({"axis": None}, {"axis": -1}, {"axis": -1, "keepdims": True})


def _assert_same_bytes(ours, ref):
    assert type(ours) is type(ref)
    assert np.shape(ours) == np.shape(ref)
    assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes()


@settings(max_examples=300, deadline=None)
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
                    elements=_LSE_ELEMENTS))
def test_logsumexp_matches_scipy_bytes(a):
    for kwargs in _LSE_ARGS:
        with np.errstate(all="ignore"):
            ref = scipy_logsumexp(a, **kwargs)
        _assert_same_bytes(_logsumexp(a, **kwargs), ref)


@pytest.mark.parametrize("rows", [
    [[1.0, 1.0], [-3.0, -3.0]],  # ties
    [[-np.inf, -np.inf], [0.0, -np.inf]],  # all -inf row
    [[np.inf, 0.0], [np.inf, np.inf]],  # +inf
    [[np.nan, 0.0], [np.nan, np.inf]],  # NaN
    [[-745.0, -746.0], [709.0, 709.5]],  # exp underflow and overflow
])
def test_logsumexp_special_rows(rows):
    a = np.array(rows)
    for kwargs in _LSE_ARGS:
        with np.errstate(all="ignore"):
            ref = scipy_logsumexp(a, **kwargs)
        _assert_same_bytes(_logsumexp(a, **kwargs), ref)
    _assert_same_bytes(_logsumexp(a[0, 0]), scipy_logsumexp(a[0, 0]))


@settings(max_examples=200, deadline=None)
@given(a=hnp.arrays(np.float64, st.tuples(st.integers(1, 16), st.integers(1, 70)),
                    elements=_LSE_ELEMENTS))
def test_logsumexp_rows_match_each_row_alone(a):
    """The SMC samplers normalise every row's weights in one call; each row
    must get the bits of a call on that row alone."""
    with np.errstate(all="ignore"):
        rows = _logsumexp(a, axis=-1, keepdims=True)
        for k in range(len(a)):
            _assert_same_bytes(rows[k, 0], _logsumexp(a[k]))


# ---------------------------------------------------------------------------
# posterior
# ---------------------------------------------------------------------------

def test_posterior_conjugate_gaussian():
    gmm = single_gaussian(np.zeros(4), np.eye(4))
    A = build_operator("identity", 4)
    post = exact_posterior(gmm, A, np.zeros(4), 1.0)
    assert np.allclose(post.means[0], 0.0)
    assert np.allclose(post.covs[0], 0.5 * np.eye(4))


def _random_mixture(rng, C, d):
    L = rng.standard_normal((C, d, d))
    covs = L @ L.transpose(0, 2, 1) + 0.5 * np.eye(d)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    return GaussianMixture(rng.dirichlet(np.ones(C)), 2.0 * rng.standard_normal((C, d)), covs)


def _random_operator(rng, d, m):
    """U diag(S) V^T with Haar U and V and singular values that may be zero."""
    k = min(m, d)
    S = np.where(rng.random(k) < 0.3, 0.0, rng.uniform(0.1, 3.0, k))
    return LinearOperatorSVD(_haar_orthogonal(m, rng), S, _haar_orthogonal(d, rng))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), C=st.integers(1, 3), d=st.integers(1, 5),
       extra_m=st.integers(-2, 2), log_sigma_y=st.floats(-1.0, 1.0))
def test_posterior_matches_dense_conditioning(seed, C, d, extra_m, log_sigma_y):
    """Each component is the Gaussian conditional of x given y under the joint
    of (x, A x + noise); the weights are the prior weights times each
    component's evidence N(y; A mu_c, A Sigma_c A^T + sigma_y^2 I)."""
    rng = np.random.default_rng(seed)
    gmm = _random_mixture(rng, C, d)
    A = _random_operator(rng, d, max(1, d + extra_m))
    sigma_y = 10.0**log_sigma_y
    Am = A.matrix()
    y = Am @ sample_mixture(gmm, 1, rng)[0] + sigma_y * rng.standard_normal(A.m)
    post = exact_posterior(gmm, A, y, sigma_y)
    log_ev = np.empty(C)
    for c in range(C):
        cov, mu = gmm.covs[c], gmm.means[c]
        cov_yy = Am @ cov @ Am.T + sigma_y**2 * np.eye(A.m)
        gain = np.linalg.solve(cov_yy, Am @ cov).T  # Sigma A^T cov_yy^-1
        np.testing.assert_allclose(post.means[c], mu + gain @ (y - Am @ mu),
                                   rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(post.covs[c], cov - gain @ Am @ cov, rtol=1e-7, atol=1e-9)
        log_ev[c] = np.log(gmm.weights[c]) + multivariate_normal.logpdf(y, Am @ mu, cov_yy)
    np.testing.assert_allclose(post.weights, np.exp(log_ev - scipy_logsumexp(log_ev)),
                               rtol=1e-7, atol=1e-12)


def test_posterior_uninformative_operator(toy_prior):
    A = build_operator("binary_svd", 16, obs_count=0)
    post = exact_posterior(toy_prior, A, np.zeros(16), 1.0)
    assert np.allclose(post.weights, toy_prior.weights)
    assert np.allclose(post.means, toy_prior.means)
    assert np.allclose(post.covs, toy_prior.covs, atol=1e-10)


def test_posterior_large_noise_recovers_prior(toy_prior):
    A = build_operator("identity", 16)
    post = exact_posterior(toy_prior, A, np.full(16, 3.0), 1e6)
    assert np.max(np.abs(post.weights - toy_prior.weights)) < 1e-3


def test_posterior_weights_match_importance_sampling(toy_prior):
    A = build_operator("binary_svd", 16, obs_count=4,
                       basis_mode="random_orthogonal", seed=5)
    rng = np.random.default_rng(6)
    x_star = sample_mixture(toy_prior, 1, rng)[0]
    y = A.matrix() @ x_star + rng.standard_normal(16)
    post = exact_posterior(toy_prior, A, y, 1.0)

    n = 200_000
    X = sample_mixture(toy_prior, n, 8)
    comp_rng = np.random.default_rng(8)
    comp = comp_rng.choice(2, size=n, p=toy_prior.weights)
    resid = y - X @ A.matrix().T
    logw = -0.5 * np.sum(resid**2, axis=1)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    est = np.array([w[comp == c].sum() for c in range(2)])
    se = np.sqrt(np.sum(w**2))  # scale of the self-normalized IS noise
    assert np.all(np.abs(est - post.weights) < 3 * max(se, 1e-3) + 0.02)


def test_posterior_mean_tower_property(toy_prior):
    """Averaging posterior means over the y-marginal gives the prior mean."""
    sigma_y = 1.0
    A = build_operator("identity", 16)
    n = 100_000
    Y = sample_mixture(noisy_marginal(toy_prior, sigma_y), n, 21)
    # identity-A posterior mean is the Tweedie denoiser; verify that shortcut
    # against exact_posterior on a few draws, then use it vectorized
    for y in Y[:20]:
        post = exact_posterior(toy_prior, A, y, sigma_y)
        mean, _ = mixture_moments(post)
        _, xhat0 = denoise_batch(toy_prior, y[None, :], sigma_y)
        assert np.max(np.abs(mean - xhat0[0])) < 1e-8
    _, means = denoise_batch(toy_prior, Y, sigma_y)
    prior_mean, prior_cov = mixture_moments(toy_prior)
    se = np.sqrt(np.diag(prior_cov) / n)  # conservative: Var(E[x|y]) <= Var(x)
    assert np.all(np.abs(means.mean(axis=0) - prior_mean) < 3 * se)


def test_posterior_rejects_bad_noise(toy_prior):
    A = build_operator("identity", 16)
    with pytest.raises(ValueError, match="sigma_y"):
        exact_posterior(toy_prior, A, np.zeros(16), 0.0)


# ---------------------------------------------------------------------------
# moments and CDF
# ---------------------------------------------------------------------------

def test_moments_single_component():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    gmm = single_gaussian([1.0, -1.0], cov)
    mean, out = mixture_moments(gmm)
    assert np.allclose(mean, [1.0, -1.0])
    assert np.allclose(out, cov)


def test_moments_bimodal_inflation():
    means = np.zeros((2, 8))
    means[0, 7], means[1, 7] = 2.0, -2.0
    gmm = GaussianMixture(np.array([0.5, 0.5]), means, np.stack([np.eye(8)] * 2))
    _, cov = mixture_moments(gmm)
    assert cov[7, 7] == pytest.approx(5.0)


def test_moments_match_monte_carlo(toy_prior):
    n = 400_000
    X = sample_mixture(toy_prior, n, 31)
    mean, cov = mixture_moments(toy_prior)
    emp = np.cov(X.T)
    dv = np.diag(cov)
    se = np.sqrt((np.outer(dv, dv) + cov**2) / n)
    assert np.all(np.abs(emp - cov) < 3 * se + 1e-12)


def test_cdf_standard_normal_interval():
    gmm = single_gaussian([0.0], np.eye(1))
    assert mixture_cdf_1d(gmm, 0, -1.96, 1.96) == pytest.approx(0.95, abs=1e-4)


def test_cdf_symmetry(toy_prior):
    assert mixture_cdf_1d(toy_prior, 7, -np.inf, 0.0) == pytest.approx(0.5)


def test_cdf_matches_posterior_sampling(toy_prior):
    A = build_operator("identity", 16)
    y = np.full(16, 0.5)
    post = exact_posterior(toy_prior, A, y, 1.0)
    a, b = -0.4, 1.1
    p = mixture_cdf_1d(post, 7, a, b)
    X = sample_mixture(post, 100_000, 41)
    freq = np.mean((X[:, 7] >= a) & (X[:, 7] <= b))
    se = np.sqrt(p * (1 - p) / len(X))
    assert abs(freq - p) < 3 * se


def test_cdf_validation(toy_prior):
    with pytest.raises(ValueError, match="coord"):
        mixture_cdf_1d(toy_prior, 16, 0, 1)
    with pytest.raises(ValueError, match="a <= b"):
        mixture_cdf_1d(toy_prior, 0, 1, 0)


def _solve_logpdfs_rows(means, chols, logdets, X):
    """The row-wise component log-pdfs by ``np.linalg.solve`` on the Cholesky
    factors ((C, d, d), or (K, C, d, d) per row): one ``gesv`` per (row,
    component)."""
    d = X.shape[-1]
    sols = np.linalg.solve(chols, (X[:, None, :] - means)[..., None])[..., 0]
    maha = np.add.reduce(sols**2, axis=-1)
    return -0.5 * (maha + logdets + d * np.log(2.0 * np.pi))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), C=st.integers(1, 3), d=st.integers(1, 16),
       K=st.integers(1, 6))
@example(seed=105, C=2, d=7, K=1)  # a pivoting factor whose getrs bits differ
def test_component_logpdfs_rows_match_solve(seed, C, d, K):
    """The kept band form of the LU factors and one ``dtbsv`` for all the
    (row, component) systems give the bits of ``np.linalg.solve`` on the
    Cholesky factors."""
    rng = np.random.default_rng(seed)
    gmm = _random_mixture(rng, C, d)
    X = 3.0 * rng.standard_normal((K, d))
    got = _mixture_logpdfs_rows(gmm, X)
    assert np.array_equal(got, _solve_logpdfs_rows(gmm.means, gmm._chols, gmm._logdets, X))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), C=st.integers(1, 3), d=st.integers(1, 16),
       K=st.integers(1, 6))
def test_component_logpdfs_rows_per_row_factors_match_solve(seed, C, d, K):
    """The per-row form ``ReverseKernel.score_rows`` uses: each row under the
    noisy marginal at its own level, against a (K, C, d, d) stacked solve."""
    rng = np.random.default_rng(seed)
    gmm = _random_mixture(rng, C, d)
    levels = [noisy_marginal(gmm, s) for s in (0.0, 0.3, 2.0, 9.0)]
    which = rng.integers(len(levels), size=K)
    noisy = [levels[i] for i in which]
    X = 3.0 * rng.standard_normal((K, d))
    got = _mixtures_logpdfs_rows(noisy, X)
    chols = np.stack([n._chols for n in noisy])
    logdets = np.stack([n._logdets for n in noisy])
    assert np.array_equal(got, _solve_logpdfs_rows(gmm.means, chols, logdets, X))


@pytest.mark.parametrize("d", [6, 16])
def test_component_logpdfs_rows_match_solve_when_lu_pivots(d):
    """A Cholesky factor whose first column has a sub-diagonal entry larger
    than its diagonal makes ``getrf`` swap rows; the mixture keeps no band
    form, and the stacked solve it takes instead gives the same bits."""
    rng = np.random.default_rng(3)
    L = np.tril(rng.uniform(0.5, 1.0, (d, d)))
    L[3, 0] = 4.0
    gmm = GaussianMixture(np.ones(1), rng.standard_normal((1, d)), (L @ L.T)[None])
    assert dgetrf(gmm._chols[0])[1][0] == 3
    assert gmm._band is None
    X = 3.0 * rng.standard_normal((50, d))
    got = _mixture_logpdfs_rows(gmm, X)
    assert np.array_equal(got, _solve_logpdfs_rows(gmm.means, gmm._chols, gmm._logdets, X))


def test_toy_prior_marginals_keep_lu_factors(toy_prior):
    """No noisy marginal of the toy prior pivots, so every row-wise solve on
    it takes the band ``dtbsv`` path."""
    for sigma in np.geomspace(1e-3, 1e3, 25):
        noisy = noisy_marginal(toy_prior, sigma)
        assert noisy._band is not None and noisy._band.shape == (32, 16)


@pytest.mark.parametrize("C", [1, 3])
def test_component_logpdfs_rows_one_dimension(C):
    """At d = 1 the band has width 0 and the solve is the division by the
    upper factor alone."""
    rng = np.random.default_rng(5)
    gmm = GaussianMixture(np.full(C, 1.0 / C), rng.standard_normal((C, 1)),
                          rng.uniform(0.1, 4.0, (C, 1, 1)))
    assert gmm._band.shape == (C, 1)
    X = 3.0 * rng.standard_normal((7, 1))
    got = _mixture_logpdfs_rows(gmm, X)
    assert np.array_equal(got, _solve_logpdfs_rows(gmm.means, gmm._chols, gmm._logdets, X))


@pytest.mark.parametrize("d", [64, 65])
def test_component_logpdfs_rows_band_limit(d):
    """Past ``_BAND_MAX_D`` the mixture keeps no band form (OpenBLAS's
    ``trsv`` switches to blocks there and ``tbsv`` does not), and both
    sides of the limit give the bits of ``np.linalg.solve``."""
    rng = np.random.default_rng(9)
    L = np.tril(rng.uniform(-0.1, 0.1, (2, d, d))) + np.eye(d)
    gmm = GaussianMixture(np.array([0.4, 0.6]), rng.standard_normal((2, d)),
                          L @ L.transpose(0, 2, 1))
    assert (gmm._band is None) == (d > _BAND_MAX_D)
    X = 3.0 * rng.standard_normal((5, d))
    got = _mixture_logpdfs_rows(gmm, X)
    assert np.array_equal(got, _solve_logpdfs_rows(gmm.means, gmm._chols, gmm._logdets, X))


def test_component_logpdfs_rows_non_finite_rows_stay_apart(toy_prior):
    """An ``inf`` row and a ``NaN`` row give NaN log-pdfs and leave every
    other row the bits of the all-finite call: the band's zeros between
    systems would otherwise spread NaN into the next row. Both the one-level
    and the per-row-level form."""
    rng = np.random.default_rng(17)
    X = 3.0 * rng.standard_normal((6, 16))
    bad = X.copy()
    bad[1, 4] = np.inf
    bad[4, 0] = np.nan
    others = [0, 2, 3, 5]
    gmm = noisy_marginal(toy_prior, 0.7)
    want, got = _mixture_logpdfs_rows(gmm, X), _mixture_logpdfs_rows(gmm, bad)
    assert np.array_equal(got[others], want[others])
    assert np.isnan(got[[1, 4]]).all()
    noisy = [noisy_marginal(toy_prior, s) for s in (0.1, 0.7, 5.0, 0.1, 2.0, 30.0)]
    want = _mixtures_logpdfs_rows(noisy, X)
    got = _mixtures_logpdfs_rows(noisy, bad)
    assert np.array_equal(got[others], want[others])
    assert np.isnan(got[[1, 4]]).all()


_WEIGHT_ENTRY = st.sampled_from([0.0, 1e-300, 1e-200, 1e-17, 1e-9, 0.3, 1.0, 5.0])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       raw=st.lists(_WEIGHT_ENTRY, min_size=1, max_size=6).filter(lambda w: max(w) > 0.1))
def test_sample_mixture_rows_component_draw_matches_choice(seed, raw):
    """The inverse-CDF component draw of ``_sample_mixture_rows`` is
    ``rng.choice(C, size=1, p=w)`` bit for bit and leaves the generator in
    the same state, with zero and tiny weights among the components."""
    w = np.array(raw) / np.sum(raw)
    C, d = len(w), 3
    gmm = GaussianMixture(w, np.arange(C * d, dtype=float).reshape(C, d),
                          np.stack([np.eye(d) * (c + 1) for c in range(C)]))
    rngs = [np.random.default_rng([seed, k]) for k in range(4)]
    refs = [np.random.default_rng([seed, k]) for k in range(4)]
    got = _sample_mixture_rows(gmm, rngs)
    for k, ref in enumerate(refs):
        comp = ref.choice(C, size=1, p=w)[0]
        noise = ref.standard_normal(d)
        want = gmm.means[comp] + _vecmat_rows(noise[None], gmm._chols[comp].T)[0]
        assert np.array_equal(got[k], want)
        assert rngs[k].bit_generator.state == ref.bit_generator.state
