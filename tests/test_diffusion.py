import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import diffuq.gmm
import diffuq.seeding
from diffuq.diffusion import (
    NoiseSchedule,
    ReverseKernel,
    build_schedule,
    level_index_for_sigma,
)
from diffuq.gmm import (
    GaussianMixture,
    build_toy_prior,
    ToyPriorSpec,
    denoise_batch,
    mixture_moments,
    score_and_denoise,
)
from diffuq.seeding import _rowdraws, _Streams, streams


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


@pytest.mark.parametrize("steps", [2.5, 3.0, True, "3"])
def test_schedule_steps_must_be_an_integer(steps):
    """A non-integer step count (or a bool) is rejected with a ValueError
    that names ``steps``, not turned into a grid."""
    with pytest.raises(ValueError, match="steps must be an integer"):
        build_schedule(0.01, 10.0, steps)
    assert build_schedule(0.01, 10.0, np.int64(3)).grid.shape == (5,)


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
    kernel = ReverseKernel(toy_prior, sched_small)
    out = kernel.step(x[None], sched_small.last_nonzero_index, np.random.default_rng(0))[0]
    _, xhat0, _ = score_and_denoise(toy_prior, x, sched_small.sigma_min)
    assert np.allclose(out, xhat0)


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
        got = kernel.score_and_denoise_rows(X[:1], level)
        want = score_and_denoise(toy_prior, X[0], sigma)
        for g, w in zip(got, want):
            assert np.array_equal(g[0], w)


@pytest.fixture(scope="module")
def kernel_small(toy_prior, sched_small):
    return ReverseKernel(toy_prior, sched_small)


@settings(max_examples=40, deadline=None)
@given(level=st.integers(0, 29), c=st.integers(0, 1))
def test_kernel_factors_are_the_gaussian_conditional(kernel_small, toy_prior, sched_small,
                                                     level, c):
    """``_B``, ``_a`` and ``_chol`` of a transition and component are the
    mean slope, mean offset and covariance factor of x_{i+1} | x_i, c,
    conditioned densely from the joint of x_{i+1} = x0 + sigma_{i+1} z and
    x_i = x_{i+1} + sqrt(sigma_i^2 - sigma_{i+1}^2) z' with x0 ~ N(mu_c, Sigma_c).
    The kernel holds one transition per nonzero level but the last, whose
    step is the Tweedie denoise."""
    n_trans = len(sched_small.grid) - 2
    assert (kernel_small._B.shape[0] == kernel_small._a.shape[0]
            == kernel_small._chol.shape[0] == n_trans)
    mu, cov = toy_prior.means[c], toy_prior.covs[c]
    s_i, s_next = sched_small.grid[level], sched_small.grid[level + 1]
    eye = np.eye(16)
    cross = cov + s_next**2 * eye  # Cov(x_{i+1}) = Cov(x_{i+1}, x_i)
    slope = np.linalg.solve(cov + s_i**2 * eye, cross).T  # cross (Sigma + s_i^2 I)^-1
    assert np.allclose(kernel_small._B[level, c], slope, rtol=0, atol=1e-12)
    assert np.allclose(kernel_small._a[level, c], mu - slope @ mu, rtol=0, atol=1e-12)
    cond_cov = cross - slope @ cross
    chol = kernel_small._chol[level, c]
    assert np.allclose(chol @ chol.T, cond_cov, rtol=0, atol=1e-12)
    assert np.array_equal(chol, np.tril(chol))


def _loop_transitions(prior, grid):
    """The kernel's transition stacks built one (level, component) at a time
    with scalar arithmetic, the reference the stacked build must equal."""
    n_trans, (C, d) = len(grid) - 2, prior.means.shape
    B, chol = np.empty((2, n_trans, C, d, d))
    a = np.empty((n_trans, C, d))
    for i in range(n_trans):
        s, s_next = grid[i], grid[i + 1]
        lam = s_next**2 / s**2
        for c in range(C):
            cov0 = np.linalg.inv(np.linalg.inv(prior.covs[c]) + np.eye(d) / s**2)
            a0 = cov0 @ np.linalg.solve(prior.covs[c], prior.means[c])
            B[i, c] = (1 - lam) * (cov0 / s**2) + lam * np.eye(d)
            a[i, c] = (1 - lam) * a0
            chol[i, c] = np.linalg.cholesky(s_next**2 * (1 - lam) * np.eye(d)
                                            + (1 - lam) ** 2 * cov0)
    return B, a, chol


@pytest.mark.parametrize("spec, steps, spacing, sigma_min, sigma_max", [
    (ToyPriorSpec(), 40, "geometric", 0.001, 50.0),
    (ToyPriorSpec(), 100, "geometric", 0.001, 50.0),
    (ToyPriorSpec(d=8, structured_dim=5, bimodal_coord=2, rho_ar=0.3), 7, "polynomial",
     0.001, 50.0),
    (ToyPriorSpec(rho_ar=0.95, sigma_w_sq=0.01), 1000, "geometric", 0.001, 50.0),
    (ToyPriorSpec(), 190, "geometric", 0.01, 10.0),
], ids=["toy40", "toy100", "d8_poly7", "ar95_1000", "toy190"])
def test_stacked_transitions_equal_the_per_level_loop(spec, steps, spacing, sigma_min,
                                                      sigma_max):
    """The stacked build gives the bits of the scalar loop: its squares are
    libm's ``pow``, as a scalar ``s**2`` is. An array's ``x**2`` rounds
    ``x * x``, which differs in the last place on 18 of the squares of the
    190-step grid."""
    prior = build_toy_prior(spec)
    kernel = ReverseKernel(prior, build_schedule(sigma_min, sigma_max, steps, spacing=spacing))
    for got, want in zip((kernel._B, kernel._a, kernel._chol),
                         _loop_transitions(prior, kernel.sched.grid)):
        assert np.array_equal(got, want)


def _level_calls(X):
    """Each public kernel method that takes a level, called on the (K, d)
    array ``X`` at a level."""
    def rngs(n):
        return _Streams([np.random.default_rng(k) for k in range(n)])

    return {
        "step": lambda kernel, level: kernel.step(X, level, np.random.default_rng(0)),
        "step_sets": lambda kernel, level: kernel.step_sets(X[None], level, rngs(1)),
        "step_rows": lambda kernel, level: kernel.step_rows(X, level, rngs(len(X))),
        "denoise": lambda kernel, level: kernel.denoise(X, level),
        "denoise_rows": lambda kernel, level: kernel.denoise_rows(X, level),
        "log_responsibilities": lambda kernel, level: kernel.log_responsibilities(X, level),
        "log_responsibilities_rows":
            lambda kernel, level: kernel.log_responsibilities_rows(X, level),
        "score_and_denoise_rows": lambda kernel, level: kernel.score_and_denoise_rows(X, level),
    }


@pytest.fixture(scope="module")
def kernel10(toy_prior):
    return ReverseKernel(toy_prior, build_schedule(0.01, 10.0, 10))


@pytest.mark.parametrize("level", [-1, 11, 12, 2.0, True],
                         ids=["negative", "L", "L_plus_1", "float", "bool"])
@pytest.mark.parametrize("method", list(_level_calls(None)))
def test_kernel_methods_reject_bad_levels(kernel10, method, level):
    """Every kernel method that takes a level raises a ValueError that names
    the range 0..last_nonzero_index for a level outside it or not an integer:
    numpy would wrap -1 to another level's factors, and index past the last
    level with a bare IndexError."""
    with pytest.raises(ValueError, match=r"level must be an integer in 0\.\.10"):
        _level_calls(np.ones((2, 16)))[method](kernel10, level)


@pytest.mark.parametrize("method", list(_level_calls(None)))
def test_kernel_methods_take_numpy_integer_levels(kernel10, method):
    """A numpy integer level gives the bits of the same Python int, at an
    inner level and at the last, whose step is the Tweedie denoise."""
    call = _level_calls(np.random.default_rng(3).standard_normal((2, 16)))[method]
    for level, np_level in ((4, np.int64(4)), (10, np.uint8(10))):
        want, got = call(kernel10, level), call(kernel10, np_level)
        for w, g in zip(want if isinstance(want, tuple) else (want,),
                        got if isinstance(got, tuple) else (got,)):
            assert np.array_equal(w, g)


def _array_bytes(obj, owners=None, seen=None) -> int:
    """The bytes of the distinct ndarray buffers reachable from ``obj``
    through attributes, lists, tuples and dicts; a view counts as the array
    that owns its memory."""
    owners = {} if owners is None else owners
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        owners[id(obj)] = obj.nbytes
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _array_bytes(item, owners, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _array_bytes(item, owners, seen)
    elif hasattr(obj, "__dict__"):
        _array_bytes(vars(obj), owners, seen)
    return sum(owners.values())


def test_kernel_holds_each_per_level_constant_once(toy_prior):
    """At 100 steps the kernel holds about six (L, C, d, d) float64 stacks:
    the noisy prior's numpy Cholesky factors, LU factors, cho_factors
    and precisions, the transition slopes and the transition factors. A
    second copy of any of them would pass 6.25 stacks."""
    kernel = ReverseKernel(toy_prior, build_schedule(0.01, 10.0, 100))
    kernel.score_and_denoise_rows(np.ones((2, 16)), 3)  # makes the precisions
    L, C, d = 101, toy_prior.n_components, toy_prior.dim
    assert _array_bytes(kernel) <= 6.25 * L * C * d * d * 8


# ---------------------------------------------------------------------------
# step_rows: the whole transition in the compiled loop, with the numpy bits
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 40), C=st.integers(1, 4),
       d=st.sampled_from([1, 3, 16]), log_scale=st.floats(-3.0, 2.0), spoiled=st.booleans())
@example(seed=0, K=32, C=2, d=16, log_scale=0.0, spoiled=False)
def test_compiled_step_rows_match_numpy(seed, K, C, d, log_scale, spoiled):
    """``step_rows`` through a whole grid gives every row the samples and the
    generator end state of the numpy path (the compiled loop forced off): the
    row log-densities, the log-normalisation and the transition (one uniform
    then d normals per row, the inverse-CDF pick and the two ``dgemv``) in
    the loop. A NaN row stays NaN through the transitions on both paths."""
    rng = np.random.default_rng(seed)
    L = np.tril(rng.uniform(-0.3, 0.3, (C, d, d)), -1) + np.eye(d)
    prior = GaussianMixture(rng.dirichlet(np.ones(C)), 2.0 * rng.standard_normal((C, d)),
                            L @ L.transpose(0, 2, 1))
    kernel = ReverseKernel(prior, build_schedule(0.01, 10.0, 12))
    assert kernel._table._lus is not None
    X0 = 10.0**log_scale * rng.standard_normal((K, d))
    if spoiled:
        X0[rng.integers(K)] = np.nan
    seeds = rng.integers(0, 2**63, size=K, dtype=np.uint64)
    last = kernel.sched.last_nonzero_index

    def run():
        rows, X, out = streams(seeds), X0, []
        for level in range(last if spoiled else last + 1):  # a NaN row fails the denoise
            X = kernel.step_rows(X, level, rows)
            out.append(X)
        return out, [rng.bit_generator.state for rng in rows.rngs]

    compiled = run()
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        mp.setattr(diffuq.seeding, "_rowdraws", lambda: None)
        numpy_path = run()
    for got, want in zip(compiled[0], numpy_path[0], strict=True):
        assert got.tobytes() == want.tobytes()
    assert compiled[1] == numpy_path[1]
    assert np.isnan(compiled[0][-1]).any(axis=-1).sum() == spoiled


# ---------------------------------------------------------------------------
# score_rows: every row at its own level, solved in one compiled call
# ---------------------------------------------------------------------------

def _score_rows_per_call(kernel, X, levels):
    """``score_rows`` with the compiled row loop forced off: one
    ``_cho_solve_vec`` (``scipy.linalg.lapack.dpotrs``) per (row, component)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffuq.seeding, "_rowdraws", lambda: None)
        return kernel.score_rows(X, levels)


def _no_per_call_solve(*args):
    raise AssertionError("the compiled path called _cho_solve_vec")


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 600), seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0),
       spread=st.floats(0.0, 3.0), dtype=st.sampled_from([np.int64, np.uint64]))
@example(K=1, seed=0, log_scale=0.0, spread=0.0, dtype=np.int64)
@example(K=600, seed=1, log_scale=3.0, spread=3.0, dtype=np.uint64)
@example(K=600, seed=2, log_scale=-3.0, spread=3.0, dtype=np.int64)
def test_compiled_and_per_call_score_rows_agree(kernel_small, K, seed, log_scale, spread, dtype):
    """The compiled ``score_rows`` gives every row the bits of the per-row
    ``_cho_solve_vec`` loop, and calls no ``gmm._cho_solve_vec``: at every level
    (each appears once K > 30; 0 and the last whenever K >= 2), for rows
    whose scales span up to six decades, with int64 and uint64 levels."""
    if _rowdraws() is None:
        pytest.skip("the compiled row loop does not build here")
    rng = np.random.default_rng(seed)
    last = kernel_small.sched.last_nonzero_index
    levels = rng.permutation(np.resize(rng.permutation(last + 1), K)).astype(dtype)
    if K >= 2:
        levels[rng.choice(K, size=2, replace=False)] = [0, last]
    scales = 10.0 ** (log_scale + spread * rng.uniform(-1.0, 1.0, size=(K, 1)))
    X = scales * rng.standard_normal((K, 16))
    want = _score_rows_per_call(kernel_small, X, levels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffuq.gmm, "_cho_solve_vec", _no_per_call_solve)
        got = kernel_small.score_rows(X, levels)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "per_call"])
def test_score_rows_non_finite_row_raises_on_both_paths(kernel_small, compiled):
    """A non-finite row raises the ValueError of ``cho_solve``'s
    ``check_finite`` on the compiled path and on the per-call path."""
    if compiled and _rowdraws() is None:
        pytest.skip("the compiled row loop does not build here")
    score_rows = kernel_small.score_rows if compiled else (
        lambda X, levels: _score_rows_per_call(kernel_small, X, levels))
    for bad in (np.inf, -np.inf, np.nan):
        X = np.ones((3, 16))
        X[1, 5] = bad
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            score_rows(X, np.array([0, 3, 30]))


@pytest.mark.parametrize("levels", [
    np.array([0, -1]),
    np.array([0, 31]),
    np.array([2**64 - 1, 0], dtype=np.uint64),
    np.array([0.0, 1.0]),
    np.array([True, False]),
    np.array([0]),
], ids=["negative", "too_large", "huge_uint64", "float", "bool", "one_short"])
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "per_call"])
def test_score_rows_rejects_bad_levels(kernel_small, levels, compiled):
    """A level that is not an integer in 0..last_nonzero_index (or a count
    of levels that is not one per row) raises a ValueError that names the
    range, on both paths, before any solve could read past the factors."""
    score_rows = kernel_small.score_rows if compiled else (
        lambda X, levels: _score_rows_per_call(kernel_small, X, levels))
    with pytest.raises(ValueError, match=r"integers in 0\.\.30"):
        score_rows(np.ones((2, 16)), levels)
