"""Exact Gaussian-mixture mathematics.

Everything downstream (samplers, diagnostics, the benchmark harness) is
validated against the closed forms in this module: mixture densities and
moments, diffusion-time marginals, scores with Tweedie denoising, and
conjugate posteriors for linear-Gaussian measurements.
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrs
from scipy.special import ndtr

from .seeding import _row_logpdfs, _row_normalised, _set_logpdfs, potrs_rows

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


# whether the real ``value`` is a finite float64, found without ``float()``,
# which raises OverflowError on an int past the float range
def _finite(value) -> bool:
    return abs(value) <= sys.float_info.max


def _as_rng(seed) -> np.random.Generator:
    """``seed`` itself if it is a Generator, else a new Generator seeded with it."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """How many of the nondecreasing cumulative weights ``cum[..., :]`` are
    <= each uniform ``u[...]``, capped at the last index: the inverse-CDF
    pick ``searchsorted(cum, u, side="right")`` of ``rng.choice``, row-wise."""
    return np.minimum(np.sum(u[..., None] >= cum, axis=-1), cum.shape[-1] - 1)


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


def _component_draws(comp, noise, chols, mean, sets=None) -> np.ndarray:
    """Each row's draw from its component: the rows ``rows`` with ``comp == c``
    get ``mean(c, rows, alone) + noise[rows] @ chols[c].T``, ``alone`` flagging
    the rows alone in their particle set of ``sets`` (all of them without
    ``sets``); products by ``_vecmat_sets``, so each set has its own bits."""
    out = np.empty(noise.shape)
    for c, chol in enumerate(chols):
        rows = np.flatnonzero(comp == c)
        if rows.size:
            alone = True if sets is None else _alone(sets[rows])
            out[rows] = mean(c, rows, alone) + _vecmat_sets(noise[rows], chol.T, alone)
    return out


def _cho_solve_vec(cf: tuple, b: np.ndarray) -> np.ndarray:
    """``cho_solve(cf, b)`` for a (d,) or (d, n) right-hand side: the same
    LAPACK ``potrs`` call and bits, without scipy's per-call wrapper. The
    caller checks that ``b`` is finite."""
    x, info = dpotrs(cf[0], b, lower=cf[1])
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _points(x, d: int, ndims: tuple) -> np.ndarray:
    """``x`` as a float array of points in R^d: one (d,) point if ``ndims``
    holds 1, an (n, d) batch if it holds 2. Any other shape raises a
    ValueError that names the expected ones."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in ndims or x.shape[-1] != d:
        want = " or ".join(f"({d},)" if n == 1 else f"(n, {d})" for n in ndims)
        raise ValueError(f"points have shape {x.shape}, expected {want}")
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
    # covariance, kept from the positive-definiteness check
    _chols: np.ndarray = field(init=False, compare=False, repr=False)
    _logdets: np.ndarray = field(init=False, compare=False, repr=False)

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
        for k, cov in enumerate(c):
            if np.max(np.abs(cov - cov.T)) > _SYM_TOL:
                raise ValueError(f"covariance {k} is not symmetric")
            try:
                chols[k] = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError(f"covariance {k} is not positive definite")
            logdets[k] = 2.0 * np.sum(np.log(np.diag(chols[k])))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covs", c)
        object.__setattr__(self, "_chols", chols)
        object.__setattr__(self, "_logdets", logdets)

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
            if isinstance(value, np.generic):  # stored as the Python number it equals
                value = value.item()
                object.__setattr__(self, key, value)
            integral = key in ("d", "structured_dim", "bimodal_coord")
            ok = (isinstance(value, numbers.Integral) if integral
                  else isinstance(value, numbers.Real) and _finite(value))
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


def _component_logpdfs(means, chols, logdets, X: np.ndarray) -> np.ndarray:
    """(n, C) log N(X[i]; mu_c, Sigma_c) of the (n, d) array ``X``, given the
    means (C, d), the lower Cholesky factors ``chols`` (C, d, d) of the
    covariances and their log-determinants (C,)."""
    d = X.shape[1]
    out = np.empty((X.shape[0], len(means)))
    # one stacked solve runs the same per-component LAPACK call as C solves
    diffs = (X[None, :, :] - means[:, None, :]).transpose(0, 2, 1)  # (C, d, n)
    sols = np.linalg.solve(chols, diffs)
    for c in range(len(means)):
        maha = np.add.reduce(sols[c] ** 2, axis=0)
        out[:, c] = -0.5 * (maha + logdets[c] + d * np.log(2.0 * np.pi))
    return out


def _getrf_lus(chols: np.ndarray, diag: np.ndarray) -> np.ndarray | None:
    """The packed ``getrf`` of each lower triangular factor of the stack
    ``chols`` (..., d, d) with positive diagonals ``diag``, column-major: each
    column times the reciprocal of its diagonal entry (``getrf``'s scaling;
    a division differs in the last bit), with the diagonal, its upper
    factor, kept. None if ``getrf`` would swap rows on any factor, where a
    sub-diagonal entry exceeds its column's diagonal in magnitude (``idamax``
    keeps the first of equal entries, so a tie swaps none)."""
    if (np.abs(chols) > diag[..., None, :]).any():
        return None
    lus = chols * (1.0 / diag)[..., None, :]
    lus[..., np.arange(diag.shape[-1]), np.arange(diag.shape[-1])] = diag
    return np.ascontiguousarray(lus.swapaxes(-1, -2))


def mixture_logpdf(gmm: GaussianMixture, x: np.ndarray) -> float | np.ndarray:
    """log-density of the mixture at ``x``, via log-sum-exp.

    ``x`` may be a single (d,) point or an (n, d) batch.
    """
    x = _points(x, gmm.dim, (1, 2))
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite entries")
    lp = _component_logpdfs(gmm.means, gmm._chols, gmm._logdets, np.atleast_2d(x))
    return _logsumexp((lp[0] if x.ndim == 1 else lp) + np.log(gmm.weights), axis=-1)


def sample_mixture(gmm: GaussianMixture, n: int, seed) -> np.ndarray:
    """Draw ``n`` i.i.d. samples; deterministic given ``seed``.

    ``seed`` may be an integer or an ``np.random.Generator``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _as_rng(seed)
    comp = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    # the n draws are one particle set: each component's rows take one product
    return _component_draws(comp, rng.standard_normal((n, gmm.dim)), gmm._chols,
                            lambda c, rows, alone: gmm.means[c], np.zeros(n, dtype=np.intp))


def _sample_mixture_rows(gmm: GaussianMixture, rngs) -> np.ndarray:
    """One draw per row of the streams ``rngs`` (a ``seeding._Streams``);
    row k has the bits of ``sample_mixture(gmm, 1, rngs.rngs[k])`` at any
    batch size."""
    shape = (len(rngs), *gmm.means.shape)
    return _mixture_rows(np.broadcast_to(gmm.weights, shape[:2]),
                         np.broadcast_to(gmm.means, shape), gmm._chols, rngs)


def _mixture_rows(weights, means, chols, rngs) -> np.ndarray:
    """One draw per row of the streams ``rngs``, row k from the mixture of
    the weights ``weights[k]`` (C,) and means ``means[k]`` (C, d) whose
    components share the lower Cholesky factors ``chols`` (C, d, d) of their
    covariances. Row k has the bits of ``sample_mixture`` of that mixture,
    one draw from row k's generator, at any batch size."""
    # the inverse-CDF draw of ``rng.choice(C, size=1, p=weights[k])``, without
    # its per-call checks of ``p``, which the weights' maker made
    cdf = weights.cumsum(axis=-1)
    cdf /= cdf[:, -1:]
    comp = _inverse_cdf(cdf, rngs.uniforms())
    return _component_draws(comp, rngs.normals(chols.shape[-1]), chols,
                            lambda c, rows, alone: means[rows, c])


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


class _NoisyTable:
    """The noisy marginals of the mixture ``prior`` at the levels ``sigmas``
    (sigma_t >= 0 each): Sigma_c -> Sigma_c + sigma_l^2 I for level l, with
    each constant held once, stacked on a leading level axis:

    - ``_chols`` (L, C, d, d) and ``_logdets`` (L, C): numpy's lower
      Cholesky factor and log-determinant of each covariance, as
      ``GaussianMixture`` computes them, for the log-densities;
    - ``_lus`` (L, C, d, d): those factors' packed ``getrf`` (``_getrf_lus``),
      for the row-wise log-densities; None when ``getrf`` would swap rows on
      any factor (scipy's and numpy's LAPACK builds then disagree in the
      last bit for some d >= 7);
    - ``_cho`` (L, C, d, d): scipy's ``cho_factor`` of each covariance,
      stored column-major, for the score: ``_cho[l, c].T`` is the factor
      ``dpotrs`` takes, and the stack is the one ``seeding.potrs_rows``
      reads;
    - ``_precs`` (L, C, d, d): the inverse covariances, for the denoiser
      Jacobian, made at their first use.

    ``sigmas[l]`` is kept as given: the covariances and the denoiser use
    its own square.

    The compiled row loop reads the stacks in place: the table takes the
    addresses of ``_lus``, ``_logdets`` and the means (``_at``), of ``_cho``
    and of the log weights once, and the loop offsets them by level. Each
    method that runs in the loop falls back, without it (or, for the
    log-densities, without ``_lus``), to the numpy code with the same bits.
    """

    def __init__(self, prior: GaussianMixture, sigmas):
        d = prior.dim
        self.weights, self.sigmas = prior.weights, sigmas
        self.means = np.ascontiguousarray(prior.means)
        # libm's pow, the bits of a scalar ``s**2`` (an array's ``x**2`` is x * x)
        covs = prior.covs + np.float_power(sigmas, 2)[:, None, None, None] * np.eye(d)
        self._chols = np.linalg.cholesky(covs)
        diag = np.diagonal(self._chols, axis1=-2, axis2=-1)
        self._logdets = 2.0 * np.log(diag).sum(axis=-1)
        self._lus = _getrf_lus(self._chols, diag)
        self._cho = np.stack([[cho_factor(cov, lower=True)[0].T for cov in level]
                              for level in covs])
        self._log_weights = np.log(self.weights)
        self._dlog2pi = float(d * np.log(2.0 * np.pi))
        self._at = None if self._lus is None else tuple(
            a.ctypes.data for a in (self._lus, self._logdets, self.means))
        self._cho_at, self._log_weights_at = self._cho.ctypes.data, self._log_weights.ctypes.data

    @functools.cached_property
    def _precs(self) -> np.ndarray:
        eye = np.eye(self.means.shape[1])
        return np.stack([[_cho_solve_vec((f.T, True), eye) for f in level]
                         for level in self._cho])

    def logpdfs(self, X: np.ndarray, level: int) -> np.ndarray:
        """(n, C) component log-densities of the particles ``X`` (n, d) at
        ``level``: per component one ``dtrsm`` over all of them in the
        compiled row loop (``seeding._set_logpdfs``), or without it, without
        ``_lus`` or on an entry that is not finite, one stacked
        ``np.linalg.solve``, with the same bits."""
        if self._at is not None and (out := _set_logpdfs(
                self._at, self.means.shape, self._dlog2pi, int(level), X)) is not None:
            return out
        return _component_logpdfs(self.means, self._chols[level], self._logdets[level], X)

    def logpdfs_rows(self, X: np.ndarray, levels) -> np.ndarray:
        """(K, C) component log-densities of each row of the (K, d) array
        ``X`` at its own level ``levels[k]`` (a (K,) integer array, or one
        level for every row), with row k's bits independent of K.

        OpenBLAS runs the one-column ``getrs`` of the ``gesv`` that
        ``np.linalg.solve`` runs on a Cholesky factor as a unit lower
        ``trsv`` then an upper one, here on the diagonal, so a ``trsv`` on
        the level's ``_lus`` and a division by their diagonal give each
        (row, component) system its bits: the whole computation in one call
        into the compiled row loop (``seeding._row_logpdfs``), or without it
        or ``_lus`` one stacked ``np.linalg.solve``. With a pairwise sum per
        row, each row gets the bits of ``logpdfs`` on that row alone. A
        system whose difference from the mean is not finite comes out NaN.
        """
        one = isinstance(levels, numbers.Integral)
        if self._at is not None and (out := _row_logpdfs(
                self._at, self.means.shape, self._dlog2pi, int(levels) if one else levels,
                X)) is not None:
            return out
        if one:
            levels = np.full(len(X), levels)
        d = X.shape[1]
        sols = np.subtract(X[:, None, :], self.means)  # (K, C, d)
        bad = None
        if not np.isfinite(sols).all():
            bad = ~np.isfinite(sols).all(axis=-1)
        sols = np.linalg.solve(self._chols.take(levels, axis=0), sols[..., None])[..., 0]
        maha = np.add.reduce(sols**2, axis=-1)
        if bad is not None:
            maha[bad] = np.nan
        return -0.5 * (maha + self._logdets.take(levels, axis=0) + d * np.log(2.0 * np.pi))

    def _gradients(self, X: np.ndarray, level: int):
        """-Sigma_c^-1 (X[k] - mu_c) at ``level`` for each component c, an
        (n, d) array each: one ``dpotrs`` with the rows as right-hand sides,
        whose columns do not depend on their count."""
        for c, mean in enumerate(self.means):
            diffs = X - mean
            _check_finite(diffs)
            yield -_cho_solve_vec((self._cho[level, c].T, True), diffs.T).T

    def log_normalised(self, lp: np.ndarray) -> np.ndarray:
        """``_log_normalised`` of the (n, C) component log-densities ``lp``
        with this table's weights: in the compiled row loop
        (``seeding._row_normalised``) or, without it or where a row's
        log-sum-exp is not finite, in numpy, with the same bits."""
        out = _row_normalised(lp, self._log_weights_at)
        return _log_normalised(lp, self.weights) if out is None else out

    def denoise(self, X: np.ndarray, level: int, lp: np.ndarray):
        """The score and the Tweedie denoiser ``X + sigma^2 score`` at each
        row of the (n, d) array ``X`` at ``level``, given the rows' component
        log-densities ``lp`` (n, C) there."""
        resp = np.exp(self.log_normalised(lp))
        score = np.zeros_like(X)
        for c, g in enumerate(self._gradients(X, level)):
            score += resp[:, c : c + 1] * g
        return score, X + self.sigmas[level] ** 2 * score

    def score_and_denoise(self, X: np.ndarray, level: int):
        """The score, the Tweedie denoiser and its Jacobian
        ``I + sigma^2 Hessian(log p)`` at each row of the (K, d) array ``X``
        at ``level``, each row with the bits it has on its own."""
        K, d = X.shape
        resp = np.exp(self.log_normalised(self.logpdfs_rows(X, level)))
        score = np.zeros((K, d))
        hess = np.zeros((K, d, d))
        precs = self._precs[level]
        for c, g in enumerate(self._gradients(X, level)):
            if not np.all(np.isfinite(g)):
                raise ValueError(f"non-finite score contribution from component {c}")
            score += resp[:, c : c + 1] * g
            hess += resp[:, c, None, None] * (-precs[c] + g[:, :, None] * g[:, None, :])
        hess -= score[:, :, None] * score[:, None, :]
        s2 = self.sigmas[level] ** 2
        return score, X + s2 * score, np.eye(d) + s2 * hess

    def score_rows(self, X: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """The score at each row of the (K, d) array ``X`` at its own level
        ``levels[k]`` (a (K,) intp array of this table's levels, which the
        caller checks), each row with the bits of ``denoise`` on that row
        alone. Each (row, component) solve is one LAPACK ``potrs`` on its
        level's factor: all of them in one call into the compiled row loop
        (``seeding.potrs_rows``) or, without it, one
        ``scipy.linalg.lapack.dpotrs`` call each. Both call scipy's LAPACK
        build with the same arguments, so both give the same bits. A
        non-finite row raises the ValueError that ``cho_solve`` raises."""
        resp = np.exp(self.log_normalised(self.logpdfs_rows(X, levels)))
        sols = np.subtract(X[:, None, :], self.means)  # (K, C, d), solved in place
        _check_finite(sols)
        if potrs_rows(self._cho, levels, sols, self._cho_at) is None:
            for k, level in enumerate(levels):
                for c, factor in enumerate(self._cho[level]):
                    sols[k, c] = _cho_solve_vec((factor.T, True), sols[k, c])
        score = np.zeros_like(X)
        for c in range(len(self.means)):
            score += resp[:, c : c + 1] * -sols[:, c]
        return score


def score_and_denoise(gmm: GaussianMixture, x: np.ndarray, sigma_t: float):
    """Score of the noisy marginal at ``x``, the Tweedie denoiser, and the
    exact denoiser Jacobian.

    Returns ``(score, x_hat0, jacobian)`` where
    ``x_hat0 = x + sigma_t^2 * score`` and
    ``jacobian = I + sigma_t^2 * Hessian(log p_t)(x)``.
    """
    if sigma_t <= 0:
        raise ValueError("sigma_t must be > 0")
    x = _points(x, gmm.dim, (1,))
    score, x_hat0, jacobian = _NoisyTable(gmm, (sigma_t,)).score_and_denoise(x[None], 0)
    return score[0], x_hat0[0], jacobian[0]


def denoise_batch(gmm: GaussianMixture, X: np.ndarray, sigma_t: float):
    """Vectorized (score, x_hat0) over an (n, d) batch. No Jacobians."""
    if sigma_t <= 0:
        raise ValueError("sigma_t must be > 0")
    X = np.atleast_2d(_points(X, gmm.dim, (1, 2)))
    table = _NoisyTable(gmm, (sigma_t,))
    return table.denoise(X, 0, table.logpdfs(X, 0))


class _Posterior:
    """The posterior of the mixture ``gmm`` given y = A x + N(0, sigma_y^2 I)
    (Bishop, PRML, 2006, §2.3.3), with what does not depend on y factored
    once: each component's prior ``cho_factor`` and natural mean, its
    posterior covariance ``covs`` (C, d, d) and lower Cholesky factor
    ``chols``, and the ``cho_factor`` and log-determinant of its evidence
    covariance A Sigma_c A^T + sigma_y^2 I. ``A`` is a LinearOperatorSVD
    (anything exposing ``.matrix()``).
    """

    def __init__(self, gmm: GaussianMixture, A, sigma_y: float):
        if sigma_y <= 0:
            raise ValueError("sigma_y must be > 0")
        Amat = A.matrix()
        m, d = Amat.shape
        AtA = Amat.T @ Amat
        self._At, self._sigma_sq, self._m = Amat.T, sigma_y**2, m
        self._nat = np.empty(gmm.means.shape)
        self._Amu = np.empty((gmm.n_components, m))
        self.covs = np.empty(gmm.covs.shape)
        self._ev = []  # (cho_factor, log weight, log-determinant) per component
        for c in range(gmm.n_components):
            prior_cf = cho_factor(gmm.covs[c], lower=True)
            prec = cho_solve(prior_cf, np.eye(d)) + AtA / sigma_y**2
            cov = cho_solve(cho_factor(prec, lower=True), np.eye(d))
            self.covs[c] = 0.5 * (cov + cov.T)
            self._nat[c] = cho_solve(prior_cf, gmm.means[c])
            self._Amu[c] = Amat @ gmm.means[c]
            ev_cf = cho_factor(Amat @ gmm.covs[c] @ Amat.T + sigma_y**2 * np.eye(m), lower=True)
            self._ev.append((ev_cf, np.log(gmm.weights[c]),
                             2.0 * np.sum(np.log(np.diag(ev_cf[0])))))
        self.chols = np.linalg.cholesky(self.covs)

    def condition(self, Y: np.ndarray):
        """The posterior weights (K, C) and means (K, C, d) given each row of
        the (K, m) measurements ``Y``, with the bits ``exact_posterior``
        gives that row alone: a gemv per row for A^T y and each mean, one
        ``potrs`` whose columns are the rows' evidence solves, a ``ddot``
        per row for their quadratic forms, and ``_logsumexp`` per row."""
        aty = _matvec_rows(self._At, Y) / self._sigma_sq
        means = np.empty((len(Y), *self._nat.shape))
        log_w = np.empty((len(Y), len(self._ev)))
        for c, (ev_cf, log_weight, logdet) in enumerate(self._ev):
            means[:, c] = _matvec_rows(self.covs[c], self._nat[c] + aty)
            r = Y - self._Amu[c]
            quad = (r[:, None, :] @ _cho_solve_vec(ev_cf, r.T).T[:, :, None])[:, 0, 0]
            log_w[:, c] = log_weight - 0.5 * (quad + logdet + self._m * np.log(2 * np.pi))
        w = np.exp(log_w - _logsumexp(log_w, axis=-1, keepdims=True))
        w[w < _WEIGHT_FLOOR] = 0.0
        return w / w.sum(axis=-1, keepdims=True), means


def exact_posterior(gmm: GaussianMixture, A, y: np.ndarray, sigma_y: float) -> GaussianMixture:
    """Posterior mixture for y = A x + N(0, sigma_y^2 I) with prior ``gmm``.

    Component-wise conjugate update; weights reweighted by the marginal
    evidence N(y; A mu_c, A Sigma_c A^T + sigma_y^2 I) and renormalized.
    ``A`` is a LinearOperatorSVD (anything exposing ``.matrix()`` and ``.m``).
    The one-measurement call of ``_Posterior``.
    """
    post = _Posterior(gmm, A, sigma_y)
    y = np.asarray(y, dtype=float)
    if y.shape != (A.m,):
        raise ValueError(f"y has dimension {y.shape}, operator output is {A.m}")
    _check_finite(y)
    weights, means = post.condition(y[None])
    return GaussianMixture(weights[0], means[0], post.covs)


def mixture_moments(gmm: GaussianMixture):
    """Mean and covariance of the mixture (law of total variance)."""
    return _moments(gmm.weights, gmm.means, gmm.covs)


def _moments(weights, means, covs):
    """``mixture_moments`` of the mixture of ``weights``, ``means`` and ``covs``."""
    mean = weights @ means
    cov = np.zeros(covs.shape[1:])
    for c in range(len(weights)):
        cov += weights[c] * (covs[c] + np.outer(means[c], means[c]))
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
