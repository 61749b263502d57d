"""Noise schedules and reverse-time sampling driven by the analytic score.

The reverse transition kernel of a variance-exploding diffusion over a
Gaussian mixture is itself a Gaussian mixture: conditioned on the active
component, ``p(x_{i-1} | x_i, c)`` is Gaussian with an affine mean in
``x_i`` and a covariance that depends only on the grid level. We sample
that kernel exactly (component choice by responsibility, then the
conditional Gaussian), so unconditional ancestral sampling reproduces the
prior's moments up to the initialization approximation rather than
accumulating per-step discretization bias.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .gmm import GaussianMixture, _component_draws, _inverse_cdf, _NoisyTable, _vecmat_sets
from .seeding import _Streams, _row_transitions

__all__ = [
    "NoiseSchedule",
    "build_schedule",
    "level_index_for_sigma",
    "ReverseKernel",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Strictly decreasing noise grid with a terminal zero level.

    ``grid[0] = sigma_max``, ``grid[-2] = sigma_min``, ``grid[-1] = 0``.
    """

    sigma_min: float
    sigma_max: float
    steps: int
    spacing: str
    grid: np.ndarray

    @property
    def last_nonzero_index(self) -> int:
        return len(self.grid) - 2


def _integral(value) -> bool:
    """Whether ``value`` is an integer (Python's or numpy's), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def build_schedule(sigma_min: float, sigma_max: float, steps: int,
                   spacing: str = "geometric", exponent: float = 7.0) -> NoiseSchedule:
    """Build the noise grid; endpoints are exact.

    ``spacing`` is ``geometric`` or ``polynomial`` (EDM-style interpolation
    of sigma^(1/exponent)).
    """
    if not (0 < sigma_min < sigma_max):
        raise ValueError("require 0 < sigma_min < sigma_max")
    if not _integral(steps):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    t = np.arange(steps + 1) / steps
    if spacing == "geometric":
        levels = sigma_max * (sigma_min / sigma_max) ** t
    elif spacing == "polynomial":
        p = exponent
        levels = (sigma_max ** (1 / p) + t * (sigma_min ** (1 / p) - sigma_max ** (1 / p))) ** p
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    levels[0] = sigma_max
    levels[-1] = sigma_min
    grid = np.concatenate([levels, [0.0]])
    if np.any(np.diff(grid) >= 0):
        raise ValueError("schedule grid is not strictly decreasing")
    return NoiseSchedule(sigma_min, sigma_max, steps, spacing, grid)


def level_index_for_sigma(sched: NoiseSchedule, rho: float) -> int:
    """Deepest grid index whose sigma is still >= rho.

    This is the entry point for partial reverse diffusion started from a
    coupling level rho; for rho strictly between two grid levels the upper
    level (larger sigma) is chosen.
    """
    if not (sched.sigma_min <= rho <= sched.sigma_max):
        raise ValueError(
            f"rho {rho} outside schedule range [{sched.sigma_min}, {sched.sigma_max}]"
        )
    nonzero = sched.grid[:-1]
    return int(np.max(np.flatnonzero(nonzero >= rho)))


def _row_levels(sched: NoiseSchedule, levels, K: int) -> np.ndarray:
    """``levels`` as a (K,) intp array of nonzero grid levels, one per row.
    Anything but K integers (any integer dtype) in 0..``last_nonzero_index``
    raises a ValueError that names the range."""
    levels = np.asarray(levels)
    last = sched.last_nonzero_index
    if (levels.dtype.kind not in "iu" or levels.shape != (K,)
            or K and (levels.min() < 0 or levels.max() > last)):
        raise ValueError(f"levels must be {K} integers in 0..{last} (one nonzero grid"
                         f" level per row), got {levels!r}")
    return levels.astype(np.intp)


class ReverseKernel:
    """Precomputed exact reverse transitions for one (prior, schedule) pair.

    For each grid transition sigma_i -> sigma_{i-1} and each mixture
    component, the conditional mean is affine in the current iterate and the
    conditional covariance is fixed, so the per-step work is a responsibility
    evaluation plus one matrix-vector product.

    Everything that depends only on the grid level is built once here:
    ``_table``, a ``gmm._NoisyTable`` of the noisy marginal at every nonzero
    level (the factors of the responsibilities, the score and the denoiser
    Jacobian), and per transition ``i`` (every nonzero level but the last,
    whose step is the Tweedie denoise) and component ``c``, as stacks:

    - ``_B[i, c]``, ``_a[i, c]``: slope and offset of the transition mean;
    - ``_chol[i, c]``: Cholesky factor of the transition covariance.

    ``denoise`` and ``score_and_denoise_rows`` give the same bits as
    ``gmm.denoise_batch`` and ``gmm.score_and_denoise`` at ``grid[level]``.

    The ``*_rows`` methods advance a (K, d) array of independent rows, each
    drawing from its own row of the streams ``rngs`` (a ``seeding._Streams``)
    where it draws: row k gets the bits of the same call on that row alone,
    whatever K is. ``step_sets`` does the same for a (K, n, d) array of
    particle sets, one stream per set.

    With the compiled row loop, a row step runs in it whole but for numpy's
    ``exp``, ``log1p`` and ``log``: the table's log-densities and
    log-normalisation, then the transition, which reads ``_B``, ``_a`` and
    ``_chol`` at the addresses the kernel takes once (``_at``).
    """

    def __init__(self, prior: GaussianMixture, sched: NoiseSchedule):
        self.prior = prior
        self.sched = sched
        grid = sched.grid
        self._table = _NoisyTable(prior, grid[:-1])
        # transition i: sigma_i -> sigma_{i+1}; the squares are libm's pow,
        # the bits of a scalar ``s**2`` (an array's ``x**2`` is x * x)
        s2 = np.float_power(grid[:-2], 2)[:, None, None, None]
        next2 = np.float_power(grid[1:-1], 2)[:, None, None, None]
        eye = np.eye(prior.dim)
        # x0 | x_i, c: covariance cov0, mean cov0 (x_i / s^2 + Sigma_c^-1 mu_c)
        cov0 = np.linalg.inv(np.linalg.inv(prior.covs) + eye / s2)
        nat = np.linalg.solve(prior.covs, prior.means[..., None])
        # x_{i+1} | x_i, c: mean (1-lam) E[x0|x_i,c] + lam x_i
        lam = next2 / s2
        self._B = (1 - lam) * (cov0 / s2) + lam * eye  # mean slope
        self._a = (1 - lam)[..., 0] * (cov0 @ nat)[..., 0]  # mean offset
        self._chol = np.linalg.cholesky(  # transition noise
            next2 * (1 - lam) * eye + np.float_power(1 - lam, 2) * cov0)
        # the addresses of the (C-contiguous) stacks, taken once for the
        # compiled row loop
        self._at = tuple(a.ctypes.data for a in (self._B, self._a, self._chol))

    def _level(self, level) -> int:
        """``level``, checked with no numpy call (the samplers call it per
        step): an integer, not a bool, in 0..``last_nonzero_index``."""
        last = self.sched.last_nonzero_index
        if not (_integral(level) and 0 <= level <= last):
            raise ValueError(f"level must be an integer in 0..{last}, got {level!r}")
        return level

    def log_responsibilities(self, X: np.ndarray, level: int) -> np.ndarray:
        level = self._level(level)
        return self._table.log_normalised(self._table.logpdfs(np.atleast_2d(X), level))

    def log_responsibilities_rows(self, X: np.ndarray, level: int) -> np.ndarray:
        """``log_responsibilities`` of each row of the (K, d) array ``X`` on its own."""
        return self._table.log_normalised(self._table.logpdfs_rows(X, self._level(level)))

    def step(self, X: np.ndarray, level: int, rng: np.random.Generator) -> np.ndarray:
        """One ancestral transition from grid[level] to grid[level+1].

        ``X`` is an (n, d) batch; the final transition to sigma = 0 is the
        Tweedie denoise. Consumes n uniforms and one (n, d) normal block.
        """
        return self.step_sets(np.atleast_2d(X)[None], level, _Streams([rng]))[0]

    def step_sets(self, X: np.ndarray, level: int, rngs) -> np.ndarray:
        """``step`` of each particle set ``X[k]`` of the (K, n, d) array ``X``
        with its own row of the streams ``rngs``. Set k gets the bits of
        ``step`` on that set alone when n >= 2 or K == 1: its solves run among
        all K * n particles, whose column bits do not depend on their count."""
        K, n, d = X.shape
        flat = X.reshape(K * n, d)
        if self._level(level) == self.sched.last_nonzero_index:
            return self.denoise(flat, level).reshape(X.shape)
        logr = self.log_responsibilities(flat, level)
        return self._transition(flat, level, logr, rngs.uniforms(n).ravel(),
                                rngs.normals((n, d)).reshape(K * n, d),
                                np.repeat(np.arange(K), n)).reshape(X.shape)

    def step_rows(self, X: np.ndarray, level: int, rngs) -> np.ndarray:
        """``step`` of each row of the (K, d) array ``X`` with its own row of
        the streams ``rngs``: one uniform, then d normals per row. The
        transition runs in the compiled row loop (``seeding._row_transitions``)
        or, without it, in ``_transition``, with the same bits."""
        if self._level(level) == self.sched.last_nonzero_index:
            return self.denoise_rows(X, level)
        logr = self.log_responsibilities_rows(X, level)
        out = _row_transitions(self._at, self.prior.means.shape, int(level), logr, X, rngs)
        if out is None:
            out = self._transition(X, level, logr, rngs.uniforms(), rngs.normals(X.shape[1]))
        return out

    def _transition(self, X, level, logr, u, noise, sets=None):
        """Each row's component by inverse CDF of its responsibilities at ``u``,
        then its conditional Gaussian (``gmm._component_draws``, with ``sets``)."""
        B, a = self._B[level], self._a[level]
        return _component_draws(
            _inverse_cdf(np.cumsum(np.exp(logr), axis=1), u), noise, self._chol[level],
            lambda c, rows, alone: _vecmat_sets(X[rows], B[c].T, alone) + a[c], sets)

    def denoise(self, X: np.ndarray, level: int) -> np.ndarray:
        """Tweedie posterior mean E[x0 | x_level] for an (n, d) batch."""
        level = self._level(level)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._table.denoise(X, level, self._table.logpdfs(X, level))[1]

    def denoise_rows(self, X: np.ndarray, level: int) -> np.ndarray:
        """``denoise`` of each row of the (K, d) array ``X`` on its own."""
        lp = self._table.logpdfs_rows(X, self._level(level))
        return self._table.denoise(X, level, lp)[1]

    def score_rows(self, X: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Score of the noisy prior at each row of the (K, d) array ``X``, at
        that row's own level ``levels[k]``: the bits of the score of
        ``gmm.denoise_batch`` at that row alone and ``grid[levels[k]]``.

        ``levels`` holds K integers (any integer dtype) in
        0..``last_nonzero_index``; any other level raises a ValueError that
        names the range. See ``gmm._NoisyTable.score_rows`` for the solves."""
        return self._table.score_rows(X, _row_levels(self.sched, levels, len(X)))

    def score_and_denoise_rows(self, X: np.ndarray, level: int):
        """``gmm.score_and_denoise`` of the prior at each row of the (K, d)
        array ``X`` and sigma_t = ``grid[level]``."""
        return self._table.score_and_denoise(X, self._level(level))
