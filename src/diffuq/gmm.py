"""Exact Gaussian-mixture mathematics.

Everything downstream (samplers, diagnostics, the benchmark harness) is
validated against the closed forms in this module: mixture densities and
moments, diffusion-time marginals, scores with Tweedie denoising, and
conjugate posteriors for linear-Gaussian measurements.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrs
from scipy.special import ndtr

__all__ = [
    "GaussianMixture",
    "ToyPriorSpec",
    "build_toy_prior",
    "mixture_logpdf",
    "sample_mixture",
    "noisy_marginal",
    "score_and_denoise",
    "exact_posterior",
    "mixture_moments",
    "mixture_cdf_1d",
]

_SYM_TOL = 1e-12
_WEIGHT_TOL = 1e-12
# posterior weights below this clamp to zero before renormalization
_WEIGHT_FLOOR = 1e-300
# scipy's dgetrs can return wrong bits while another thread runs it (seen in
# a two-thread loop over ``_component_logpdfs_rows``) and ``run_experiment``
# may sample on worker threads, so every dgetrf/dgetrs call holds this lock
_GETRS_LOCK = threading.Lock()


def _as_rng(seed) -> np.random.Generator:
    """``seed`` itself if it is a Generator, else a new Generator seeded with it."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _normals(rngs, d: int) -> np.ndarray:
    """(K, d) standard normals; row k is ``rngs[k].standard_normal(d)``."""
    out = np.empty((len(rngs), d))
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    return out


# Row-wise products. Each row of a K-row batch gets the bits it would get on
# its own: a stacked matmul runs one gemv per row, where a K-row ``X @ M``
# runs one gemm, which differs from gemv in the last ulp.

def _vecmat_rows(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``X[k] @ M`` for each row of the (K, n) array ``X``."""
    return (X[:, None, :] @ M)[:, 0]


def _matvec_rows(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M @ X[k]`` (or ``M[k] @ X[k]`` for a stack ``M``) for each row of ``X``."""
    return (M @ X[:, :, None])[:, :, 0]


# Particle sets. Rows gathered from several independent sets (one row's
# particles each) get the bits each set's own ``X @ M`` gives them: for d = 16
# the row bits of a gemm do not depend on its row count once it has two rows
# or more, and a set's only row takes the gemv path.

def _alone(sets: np.ndarray) -> np.ndarray:
    """Whether each entry of the set labels ``sets`` is its set's only one."""
    return np.bincount(sets)[sets] == 1


def _vecmat_sets(X: np.ndarray, M: np.ndarray, alone) -> np.ndarray:
    """``X @ M`` for rows of independent particle sets, ``alone`` flagging the
    rows that are the only one of their set (True: every row is)."""
    if alone is True or alone.all():
        return _vecmat_rows(X, M)
    out = X @ M
    if alone.any():
        out[alone] = _vecmat_rows(X[alone], M)
    return out


def _cho_solve_vec(cf: tuple, b: np.ndarray) -> np.ndarray:
    """``cho_solve(cf, b)`` for a (d,) or (d, n) right-hand side: the same
    LAPACK ``potrs`` call and bits, without scipy's per-call wrapper. The
    caller checks that ``b`` is finite."""
    x, info = dpotrs(cf[0], b, lower=cf[1])
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _check_finite(b: np.ndarray) -> None:
    """The ValueError of ``cho_solve``'s ``check_finite`` on a non-finite ``b``."""
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")


def _logsumexp(a, axis=None, keepdims=False):
    """``log(sum(exp(a)))`` over ``axis`` for real float64 input.

    Runs the same ufunc sequence as ``scipy.special.logsumexp`` 1.17 without
    ``b``, so the results agree bit for bit, at a fraction of its per-call
    cost on small arrays: the maximum is split out of the sum, the rest
    enters through ``log1p``, and results that are not finite fall back to
    the direct ``log(sum(exp(a)))``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a[None]
    if axis is None:
        axis = tuple(range(a.ndim))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
        i_max = a == a_max
        m = np.add.reduce(i_max.astype(a.dtype), axis=axis, keepdims=True, dtype=a.dtype)
        s = np.add.reduce(np.exp(np.where(i_max, -np.inf, a) - a_max), axis=axis,
                          keepdims=True, dtype=a.dtype)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out,
                           np.log(np.add.reduce(np.exp(a), axis=axis, keepdims=True)))
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class GaussianMixture:
    """A finite Gaussian mixture with full covariances.

    Doubles as the prior, the diffusion-time noisy marginal, and the
    measurement posterior throughout the benchmark.
    """

    weights: np.ndarray
    means: np.ndarray  # (C, d)
    covs: np.ndarray  # (C, d, d)
    # lower Cholesky factor (C, d, d) and log-determinant (C,) of each
    # covariance, kept from the positive-definiteness check, and the
    # ``dgetrf`` of each Cholesky factor: C (LU factor, pivots) pairs, the
    # factor Fortran-ordered as ``dgetrs`` takes it. A factor on which
    # ``dgetrf`` swaps rows keeps ``(chol, None)`` instead: scipy's and
    # numpy's LAPACK builds then disagree in the last bit for some d >= 7.
    _chols: np.ndarray = field(init=False, compare=False, repr=False)
    _logdets: np.ndarray = field(init=False, compare=False, repr=False)
    _getrf: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        c = np.asarray(self.covs, dtype=float)
        if m.ndim != 2:
            raise ValueError("means must be a (C, d) array")
        if c.shape != (m.shape[0], m.shape[1], m.shape[1]):
            raise ValueError(
                f"covs shape {c.shape} inconsistent with means shape {m.shape}"
            )
        if w.shape != (m.shape[0],):
            raise ValueError("weights length must match component count")
        if np.any(w < 0) or abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")
        chols = np.empty(c.shape)
        logdets = np.empty(len(c))
        getrf = []
        for k, cov in enumerate(c):
            if np.max(np.abs(cov - cov.T)) > _SYM_TOL:
                raise ValueError(f"covariance {k} is not symmetric")
            try:
                chols[k] = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError(f"covariance {k} is not positive definite")
            logdets[k] = 2.0 * np.sum(np.log(np.diag(chols[k])))
            with _GETRS_LOCK:
                lu, piv, _ = dgetrf(chols[k])
            getrf.append((lu, piv) if np.array_equal(piv, np.arange(len(piv)))
                         else (chols[k], None))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covs", c)
        object.__setattr__(self, "_chols", chols)
        object.__setattr__(self, "_logdets", logdets)
        object.__setattr__(self, "_getrf", tuple(getrf))

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class ToyPriorSpec:
    """Parameters of the bimodal block-structured toy prior."""

    d: int = 16
    structured_dim: int = 8
    rho_ar: float = 0.8
    sigma_w_sq: float = 5.0
    mu_sep: float = 2.0
    bimodal_coord: int = 7

    def __post_init__(self):
        for key, value in vars(self).items():
            integral = key in ("d", "structured_dim", "bimodal_coord")
            ok = (isinstance(value, numbers.Integral) if integral
                  else isinstance(value, numbers.Real) and math.isfinite(value))
            if isinstance(value, bool) or not ok:
                want = "an integer" if integral else "a finite number"
                raise ValueError(f"prior {key} must be {want}, got {value!r}")
        if not (0 <= self.rho_ar < 1):
            raise ValueError("rho_ar must satisfy 0 <= rho_ar < 1")
        if self.sigma_w_sq <= 0:
            raise ValueError("sigma_w_sq must be positive")
        if not (0 <= self.bimodal_coord < self.structured_dim <= self.d):
            raise ValueError(
                "require 0 <= bimodal_coord < structured_dim <= d"
            )


def build_toy_prior(spec: ToyPriorSpec) -> GaussianMixture:
    """Equally-weighted two-component mixture with an AR-correlated
    structured block and an isotropic high-variance weak block.

    The two component means differ only at ``spec.bimodal_coord``
    (+/- ``spec.mu_sep``); both share the block-diagonal covariance.
    """
    d, ds = spec.d, spec.structured_dim
    idx = np.arange(ds)
    cov = np.zeros((d, d))
    cov[:ds, :ds] = spec.rho_ar ** np.abs(idx[:, None] - idx[None, :])
    cov[ds:, ds:] = spec.sigma_w_sq * np.eye(d - ds)
    mu = np.zeros(d)
    mu[spec.bimodal_coord] = spec.mu_sep
    return GaussianMixture(
        weights=np.array([0.5, 0.5]),
        means=np.stack([mu, -mu]),
        covs=np.stack([cov, cov]),
    )


def _component_logpdfs(gmm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """log N(x; mu_c, Sigma_c) for each component; x is (d,) or (n, d).

    Returns (C,) or (n, C).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    d = gmm.dim
    out = np.empty((X.shape[0], gmm.n_components))
    # one stacked solve runs the same per-component LAPACK call as C solves
    diffs = (X[None, :, :] - gmm.means[:, None, :]).transpose(0, 2, 1)  # (C, d, n)
    sols = np.linalg.solve(gmm._chols, diffs)
    for c in range(gmm.n_components):
        maha = np.add.reduce(sols[c] ** 2, axis=0)
        out[:, c] = -0.5 * (maha + gmm._logdets[c] + d * np.log(2.0 * np.pi))
    return out[0] if single else out


def _component_logpdfs_rows(means, getrf, logdets, X: np.ndarray) -> np.ndarray:
    """(K, C) log N(X[k]; mu_c, Sigma_c) with row k's bits independent of K.

    ``getrf`` holds the K * C (LU factor, pivots) pairs of the rows'
    components, row by row: ``noisy._getrf * K`` for rows of one mixture.
    ``logdets`` is (C,), or (K, C) for rows that each have their own.

    One single-right-hand-side ``dgetrs`` per (row, component) on the kept
    LU factors of the Cholesky factor is the second half of the ``gesv``
    that ``np.linalg.solve`` runs on it, so it gives the same bits (a factor
    kept as ``(chol, None)`` is solved by ``np.linalg.solve`` itself); with
    a pairwise sum per row, each row gets the bits of ``_component_logpdfs``
    on that row alone. A multi-right-hand-side solve and a sum over axis 0
    would not.
    """
    K, d = X.shape
    sols = np.empty((K, len(means), d))
    np.subtract(X[:, None, :], means, out=sols)  # solved in place, row by row
    with _GETRS_LOCK:
        for b, (lu, piv) in zip(sols.reshape(-1, d), getrf, strict=True):
            if piv is None:
                b[:] = np.linalg.solve(lu, b[:, None])[:, 0]
                continue
            _, info = dgetrs(lu, piv, b, overwrite_b=1)
            if info != 0:
                raise ValueError(f"illegal value in {-info}th argument of internal getrs")
    maha = np.add.reduce(sols**2, axis=-1)
    return -0.5 * (maha + logdets + d * np.log(2.0 * np.pi))


def mixture_logpdf(gmm: GaussianMixture, x: np.ndarray) -> float | np.ndarray:
    """log-density of the mixture at ``x``, via log-sum-exp.

    ``x`` may be a single (d,) point or an (n, d) batch.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite entries")
    lp = _component_logpdfs(gmm, x)
    return _logsumexp(lp + np.log(gmm.weights), axis=-1)


def sample_mixture(gmm: GaussianMixture, n: int, seed) -> np.ndarray:
    """Draw ``n`` i.i.d. samples; deterministic given ``seed``.

    ``seed`` may be an integer or an ``np.random.Generator``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _as_rng(seed)
    comp = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    return _mixture_draw(gmm, comp, rng.standard_normal((n, gmm.dim)), np.matmul)


def _sample_mixture_rows(gmm: GaussianMixture, rngs) -> np.ndarray:
    """One draw per generator; row k has the bits of
    ``sample_mixture(gmm, 1, rngs[k])`` at any batch size."""
    # the inverse-CDF draw of ``rng.choice(C, size=1, p=weights)``, without
    # its per-call checks of ``p``, which the mixture's constructor made
    cdf = gmm.weights.cumsum()
    cdf /= cdf[-1]
    comp = np.empty(len(rngs), dtype=int)
    noise = np.empty((len(rngs), gmm.dim))
    for k, rng in enumerate(rngs):
        comp[k] = cdf.searchsorted(rng.random(1), side="right")[0]
        rng.standard_normal(out=noise[k])
    return _mixture_draw(gmm, comp, noise, _vecmat_rows)


def _mixture_draw(gmm: GaussianMixture, comp, noise, vecmat) -> np.ndarray:
    """``means[comp] + L_comp noise`` per row, with ``vecmat`` the product."""
    out = np.empty(noise.shape)
    for c in range(gmm.n_components):
        mask = comp == c
        if not np.any(mask):
            continue
        out[mask] = gmm.means[c] + vecmat(noise[mask], gmm._chols[c].T)
    return out


def noisy_marginal(gmm: GaussianMixture, sigma_t: float) -> GaussianMixture:
    """Marginal after variance-exploding noising: Sigma_c -> Sigma_c + sigma_t^2 I."""
    if sigma_t < 0:
        raise ValueError("sigma_t must be >= 0")
    if sigma_t == 0:
        return gmm
    eye = sigma_t**2 * np.eye(gmm.dim)
    return GaussianMixture(gmm.weights, gmm.means, gmm.covs + eye)


def _log_normalised(lp: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Log responsibilities from component log-densities ``lp`` (..., C)."""
    lp = lp + np.log(weights)
    return lp - _logsumexp(lp, axis=-1, keepdims=True)


def _responsibilities(noisy: GaussianMixture, x: np.ndarray, rows: bool = False) -> np.ndarray:
    """Component responsibilities at ``x``; with ``rows``, those of each row of
    the (K, d) array ``x`` with the bits it has on its own."""
    lp = (_component_logpdfs_rows(noisy.means, noisy._getrf * len(x), noisy._logdets, x)
          if rows else _component_logpdfs(noisy, x))
    return np.exp(_log_normalised(lp, noisy.weights))


def _cho_factors(noisy: GaussianMixture) -> tuple:
    """``cho_factor`` of each component covariance."""
    return tuple(cho_factor(cov, lower=True) for cov in noisy.covs)


def _precisions(cfs: tuple, d: int) -> tuple:
    """Inverse covariance of each component from its ``cho_factor``."""
    return tuple(cho_solve(cf, np.eye(d)) for cf in cfs)


def _score_and_denoise(noisy: GaussianMixture, cfs: tuple, precs: tuple,
                       X: np.ndarray, sigma_t: float):
    """``score_and_denoise`` at each row of a (K, d) array of points of the
    noisy marginal at ``sigma_t``, given its component factors and
    precisions. Row k has the bits of a call on that row alone."""
    K, d = X.shape
    resp = _responsibilities(noisy, X, rows=True)
    score = np.zeros((K, d))
    hess = np.zeros((K, d, d))
    for c, (cf, prec) in enumerate(zip(cfs, precs)):
        diffs = X - noisy.means[c]
        _check_finite(diffs)
        g = -_cho_solve_vec(cf, diffs.T).T
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite score contribution from component {c}")
        score += resp[:, c : c + 1] * g
        hess += resp[:, c, None, None] * (-prec + g[:, :, None] * g[:, None, :])
    hess -= score[:, :, None] * score[:, None, :]
    x_hat0 = X + sigma_t**2 * score
    jacobian = np.eye(d) + sigma_t**2 * hess
    return score, x_hat0, jacobian


def _denoise_batch(noisy: GaussianMixture, cfs: tuple, X: np.ndarray, sigma_t: float,
                   rows: bool = False):
    """``denoise_batch`` of an (n, d) batch, given the noisy marginal at
    ``sigma_t`` and its component factors; with ``rows``, each row has the
    bits it has on its own. The score's solve already does: the columns of a
    multi-right-hand-side ``cho_solve`` do not depend on their count."""
    resp = _responsibilities(noisy, X, rows)  # (n, C)
    score = np.zeros_like(X)
    for c, cf in enumerate(cfs):
        diffs = X - noisy.means[c]
        _check_finite(diffs)
        g = -_cho_solve_vec(cf, diffs.T).T
        score += resp[:, c : c + 1] * g
    return score, X + sigma_t**2 * score


def score_and_denoise(gmm: GaussianMixture, x: np.ndarray, sigma_t: float):
    """Score of the noisy marginal at ``x``, the Tweedie denoiser, and the
    exact denoiser Jacobian.

    Returns ``(score, x_hat0, jacobian)`` where
    ``x_hat0 = x + sigma_t^2 * score`` and
    ``jacobian = I + sigma_t^2 * Hessian(log p_t)(x)``.
    """
    if sigma_t <= 0:
        raise ValueError("sigma_t must be > 0")
    noisy = noisy_marginal(gmm, sigma_t)
    cfs = _cho_factors(noisy)
    score, x_hat0, jacobian = _score_and_denoise(noisy, cfs, _precisions(cfs, gmm.dim),
                                                 np.asarray(x, dtype=float)[None], sigma_t)
    return score[0], x_hat0[0], jacobian[0]


def denoise_batch(gmm: GaussianMixture, X: np.ndarray, sigma_t: float):
    """Vectorized (score, x_hat0) over an (n, d) batch. No Jacobians."""
    if sigma_t <= 0:
        raise ValueError("sigma_t must be > 0")
    noisy = noisy_marginal(gmm, sigma_t)
    return _denoise_batch(noisy, _cho_factors(noisy),
                          np.atleast_2d(np.asarray(X, dtype=float)), sigma_t)


def exact_posterior(gmm: GaussianMixture, A, y: np.ndarray, sigma_y: float) -> GaussianMixture:
    """Posterior mixture for y = A x + N(0, sigma_y^2 I) with prior ``gmm``.

    Component-wise conjugate update; weights reweighted by the marginal
    evidence N(y; A mu_c, A Sigma_c A^T + sigma_y^2 I) and renormalized.
    ``A`` is a LinearOperatorSVD (anything exposing ``.matrix()`` and ``.m``).
    """
    if sigma_y <= 0:
        raise ValueError("sigma_y must be > 0")
    y = np.asarray(y, dtype=float)
    Amat = A.matrix()
    m, d = Amat.shape
    if y.shape != (m,):
        raise ValueError(f"y has dimension {y.shape}, operator output is {m}")
    AtA = Amat.T @ Amat
    Aty = Amat.T @ y

    C = gmm.n_components
    post_means = np.empty((C, d))
    post_covs = np.empty((C, d, d))
    log_w = np.empty(C)
    for c in range(C):
        try:
            prior_cf = cho_factor(gmm.covs[c], lower=True)
        except np.linalg.LinAlgError:
            raise ValueError(f"singular prior covariance in component {c}")
        prec = cho_solve(prior_cf, np.eye(d)) + AtA / sigma_y**2
        cov_cf = cho_factor(prec, lower=True)
        cov = cho_solve(cov_cf, np.eye(d))
        cov = 0.5 * (cov + cov.T)
        mean = cov @ (cho_solve(prior_cf, gmm.means[c]) + Aty / sigma_y**2)
        post_means[c] = mean
        post_covs[c] = cov
        ev_cov = Amat @ gmm.covs[c] @ Amat.T + sigma_y**2 * np.eye(m)
        ev_cf = cho_factor(ev_cov, lower=True)
        r = y - Amat @ gmm.means[c]
        logdet = 2.0 * np.sum(np.log(np.diag(ev_cf[0])))
        log_w[c] = (
            np.log(gmm.weights[c])
            - 0.5 * (r @ cho_solve(ev_cf, r) + logdet + m * np.log(2 * np.pi))
        )

    w = np.exp(log_w - _logsumexp(log_w))
    w[w < _WEIGHT_FLOOR] = 0.0
    w = w / w.sum()
    return GaussianMixture(w, post_means, post_covs)


def mixture_moments(gmm: GaussianMixture):
    """Mean and covariance of the mixture (law of total variance)."""
    mean = gmm.weights @ gmm.means
    cov = np.zeros((gmm.dim, gmm.dim))
    for c in range(gmm.n_components):
        cov += gmm.weights[c] * (gmm.covs[c] + np.outer(gmm.means[c], gmm.means[c]))
    cov -= np.outer(mean, mean)
    return mean, cov


def mixture_cdf_1d(gmm: GaussianMixture, coord: int, a: float, b: float) -> float:
    """P(a <= x_coord <= b) under the coordinate marginal of the mixture."""
    if not (0 <= coord < gmm.dim):
        raise ValueError(f"coord {coord} out of range for dimension {gmm.dim}")
    if a > b:
        raise ValueError("require a <= b")
    mu = gmm.means[:, coord]
    sd = np.sqrt(gmm.covs[:, coord, coord])
    hi = ndtr((b - mu) / sd) if np.isfinite(b) else np.ones_like(mu)
    lo = ndtr((a - mu) / sd) if np.isfinite(a) else np.zeros_like(mu)
    return float(gmm.weights @ (hi - lo))
