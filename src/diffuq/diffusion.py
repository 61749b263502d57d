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

from dataclasses import dataclass

import numpy as np

from .gmm import (
    GaussianMixture,
    noisy_marginal,
    _alone,
    _check_finite,
    _cho_factors,
    _cho_solve_vec,
    _component_logpdfs,
    _denoise_batch,
    _log_normalised,
    _mixture_logpdfs_rows,
    _mixtures_logpdfs_rows,
    _normals,
    _precisions,
    _score_and_denoise,
    _vecmat_sets,
)

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


def build_schedule(sigma_min: float, sigma_max: float, steps: int,
                   spacing: str = "geometric", exponent: float = 7.0) -> NoiseSchedule:
    """Build the noise grid; endpoints are exact.

    ``spacing`` is ``geometric`` or ``polynomial`` (EDM-style interpolation
    of sigma^(1/exponent)).
    """
    if not (0 < sigma_min < sigma_max):
        raise ValueError("require 0 < sigma_min < sigma_max")
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


class ReverseKernel:
    """Precomputed exact reverse transitions for one (prior, schedule) pair.

    For each grid transition sigma_i -> sigma_{i-1} and each mixture
    component, the conditional mean is affine in the current iterate and the
    conditional covariance is fixed, so the per-step work is a responsibility
    evaluation plus one matrix-vector product.

    Everything that depends only on the grid level is built once here. Per
    nonzero level ``i`` and component ``c`` the kernel holds:

    - ``_noisy[i]``: the noisy marginal at ``grid[i]``, a ``GaussianMixture``
      that keeps each covariance's log-determinant and the LU factors of its
      Cholesky factor for the responsibilities;
    - ``_cho[i][c]``: ``cho_factor`` of that covariance, for the score;
    - ``_prec[i][c]``: its inverse, for the denoiser Jacobian;
    - ``_B[i, c]``, ``_a[i, c]``: slope and offset of the transition mean;
    - ``_chol[i, c]``: Cholesky factor of the transition covariance (all
      levels but the last, whose transition is the Tweedie denoise).

    ``denoise`` and ``score_and_denoise_rows`` give the same bits as
    ``gmm.denoise_batch`` and ``gmm.score_and_denoise`` at ``grid[level]``.

    The ``*_rows`` methods advance a (K, d) array of independent rows, each
    with its own generator where it draws: row k gets the bits of the same
    call on that row alone, whatever K is. ``step_sets`` does the same for a
    (K, n, d) array of particle sets, one generator per set.
    """

    def __init__(self, prior: GaussianMixture, sched: NoiseSchedule):
        self.prior = prior
        self.sched = sched
        d, C = prior.dim, prior.n_components
        grid = sched.grid
        self._noisy = [noisy_marginal(prior, s) for s in grid[:-1]]
        self._cho = [_cho_factors(noisy) for noisy in self._noisy]
        self._prec = [_precisions(cfs, d) for cfs in self._cho]
        # denoising posterior per (level, component): x0 | x_i, c
        self._B = np.empty((len(grid) - 1, C, d, d))  # mean slope
        self._a = np.empty((len(grid) - 1, C, d))  # mean offset
        self._chol = np.empty((len(grid) - 2, C, d, d))  # transition noise
        prior_prec = [np.linalg.inv(cov) for cov in prior.covs]
        prior_nat = [np.linalg.solve(cov, mu) for cov, mu in zip(prior.covs, prior.means)]
        for i, s in enumerate(grid[:-1]):
            for c in range(C):
                prec = prior_prec[c] + np.eye(d) / s**2
                cov0 = np.linalg.inv(prec)  # Cov(x0 | x_i, c)
                B0 = cov0 / s**2
                a0 = cov0 @ prior_nat[c]
                if i < len(grid) - 2:
                    lam = grid[i + 1] ** 2 / s**2
                    # x_{i-1} | x_i, c: mean = (1-lam) E[x0|x_i,c] + lam x_i
                    self._B[i, c] = (1 - lam) * B0 + lam * np.eye(d)
                    self._a[i, c] = (1 - lam) * a0
                    cov = grid[i + 1] ** 2 * (1 - lam) * np.eye(d) + (1 - lam) ** 2 * cov0
                    self._chol[i, c] = np.linalg.cholesky(cov)
                else:
                    # bookkeeping only; final sigma -> 0 uses a Tweedie denoise
                    self._B[i, c] = B0
                    self._a[i, c] = a0

    def log_responsibilities(self, X: np.ndarray, level: int) -> np.ndarray:
        noisy = self._noisy[level]
        return _log_normalised(_component_logpdfs(noisy, np.atleast_2d(X)), noisy.weights)

    def log_responsibilities_rows(self, X: np.ndarray, level: int) -> np.ndarray:
        """``log_responsibilities`` of each row of the (K, d) array ``X`` on its own."""
        noisy = self._noisy[level]
        return _log_normalised(_mixture_logpdfs_rows(noisy, X), noisy.weights)

    def step(self, X: np.ndarray, level: int, rng: np.random.Generator) -> np.ndarray:
        """One ancestral transition from grid[level] to grid[level+1].

        ``X`` is an (n, d) batch; the final transition to sigma = 0 is the
        Tweedie denoise. Consumes n uniforms and one (n, d) normal block.
        """
        return self.step_sets(np.atleast_2d(X)[None], level, [rng])[0]

    def step_sets(self, X: np.ndarray, level: int, rngs) -> np.ndarray:
        """``step`` of each particle set ``X[k]`` of the (K, n, d) array ``X``
        with its own generator ``rngs[k]``. Set k gets the bits of ``step`` on
        that set alone when n >= 2 or K == 1: its solves run among all K * n
        particles, whose column bits do not depend on their count."""
        K, n, d = X.shape
        flat = X.reshape(K * n, d)
        if level == self.sched.last_nonzero_index:
            return self.denoise(flat, level).reshape(X.shape)
        logr = self.log_responsibilities(flat, level)
        u = np.concatenate([rng.random(n) for rng in rngs])
        noise = np.concatenate([rng.standard_normal((n, d)) for rng in rngs])
        return self._transition(flat, level, logr, u, noise,
                                np.repeat(np.arange(K), n)).reshape(X.shape)

    def step_rows(self, X: np.ndarray, level: int, rngs) -> np.ndarray:
        """``step`` of each row of the (K, d) array ``X`` with its own
        generator ``rngs[k]``: one uniform, then d normals per row."""
        if level == self.sched.last_nonzero_index:
            return self.denoise_rows(X, level)
        logr = self.log_responsibilities_rows(X, level)
        u = np.array([rng.random() for rng in rngs])
        return self._transition(X, level, logr, u, _normals(rngs, X.shape[1]))

    def _transition(self, X, level, logr, u, noise, sets=None):
        """Draw each row's component by inverse CDF of its responsibilities at
        ``u``, then its conditional Gaussian; ``sets`` labels the particle
        set of each row (see ``_vecmat_sets``), and without it each row is a
        set of its own."""
        cum = np.cumsum(np.exp(logr), axis=1)
        comp = np.sum(u[:, None] >= cum, axis=1)
        comp = np.minimum(comp, self.prior.n_components - 1)
        out = np.empty_like(X)
        for c in range(self.prior.n_components):
            rows = np.flatnonzero(comp == c)
            if not rows.size:
                continue
            alone = True if sets is None else _alone(sets[rows])
            mean = _vecmat_sets(X[rows], self._B[level, c].T, alone) + self._a[level, c]
            out[rows] = mean + _vecmat_sets(noise[rows], self._chol[level, c].T, alone)
        return out

    def denoise(self, X: np.ndarray, level: int) -> np.ndarray:
        """Tweedie posterior mean E[x0 | x_level] for an (n, d) batch."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _denoise_batch(self._noisy[level], self._cho[level], X, self.sched.grid[level])[1]

    def denoise_rows(self, X: np.ndarray, level: int) -> np.ndarray:
        """``denoise`` of each row of the (K, d) array ``X`` on its own."""
        return _denoise_batch(self._noisy[level], self._cho[level], X,
                              self.sched.grid[level], rows=True)[1]

    def score_rows(self, X: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Score of the noisy prior at each row of the (K, d) array ``X``, at
        that row's own level ``levels[k]``: the bits of the score of
        ``gmm.denoise_batch`` at that row alone and ``grid[levels[k]]``.
        Each row's solve is one ``potrs`` on its level's factor; a
        non-finite row raises the ValueError that ``cho_solve`` raises."""
        means = self.prior.means
        lp = _mixtures_logpdfs_rows([self._noisy[level] for level in levels], X)
        resp = np.exp(_log_normalised(lp, self.prior.weights))
        score = np.zeros_like(X)
        for c in range(self.prior.n_components):
            diffs = X - means[c]
            _check_finite(diffs)
            g = np.empty_like(X)
            for k, level in enumerate(levels):
                g[k] = _cho_solve_vec(self._cho[level][c], diffs[k])
            score += resp[:, c : c + 1] * -g
        return score

    def score_and_denoise_rows(self, X: np.ndarray, level: int):
        """``gmm.score_and_denoise`` of the prior at each row of the (K, d)
        array ``X`` and sigma_t = ``grid[level]``."""
        return _score_and_denoise(self._noisy[level], self._cho[level], self._prec[level],
                                  X, self.sched.grid[level])

