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
    _check_finite,
    _cho_factors,
    _cho_solve_vec,
    _component_logpdfs,
    _component_logpdfs_rows,
    _denoise_batch,
    _log_normalised,
    _normals,
    _precisions,
    _score_and_denoise,
    _vecmat_rows,
)

__all__ = [
    "NoiseSchedule",
    "ReverseConfig",
    "build_schedule",
    "level_index_for_sigma",
    "ReverseKernel",
    "reverse_sample",
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


@dataclass(frozen=True)
class ReverseConfig:
    mode: str = "ancestral_sde"  # or "deterministic_ode"
    start_level: float | None = None  # defaults to sigma_max
    init: np.ndarray | None = None
    seed: int = 0


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
      that keeps each covariance's Cholesky factor and log-determinant for
      the responsibilities;
    - ``_cho[i][c]``: ``cho_factor`` of that covariance, for the score;
    - ``_prec[i][c]``: its inverse, for the denoiser Jacobian;
    - ``_B[i, c]``, ``_a[i, c]``: slope and offset of the transition mean;
    - ``_chol[i, c]``: Cholesky factor of the transition covariance (all
      levels but the last, whose transition is the Tweedie denoise).

    ``denoise`` and ``score_and_denoise`` give the same bits as
    ``gmm.denoise_batch`` and ``gmm.score_and_denoise`` at ``grid[level]``.

    The ``*_rows`` methods advance a (K, d) array of independent rows, each
    with its own generator where it draws: row k gets the bits of the same
    call on that row alone, whatever K is.
    """

    def __init__(self, prior: GaussianMixture, sched: NoiseSchedule):
        self.prior = prior
        self.sched = sched
        d, C = prior.dim, prior.n_components
        grid = sched.grid
        self._noisy = [noisy_marginal(prior, s) for s in grid[:-1]]
        self._cho = [_cho_factors(noisy) for noisy in self._noisy]
        self._prec = [_precisions(cfs, d) for cfs in self._cho]
        # per-level stacks of the responsibilities' factors, for rows that
        # each sit at their own level
        self._noisy_chols = np.stack([noisy._chols for noisy in self._noisy])
        self._noisy_logdets = np.stack([noisy._logdets for noisy in self._noisy])
        # denoising posterior per (level, component): x0 | x_i, c
        self._B = np.empty((len(grid) - 1, C, d, d))  # mean slope
        self._a = np.empty((len(grid) - 1, C, d))  # mean offset
        self._chol = np.empty((len(grid) - 2, C, d, d))  # transition noise
        prior_prec = [np.linalg.inv(cov) for cov in prior.covs]
        prior_nat = [np.linalg.solve(cov, mu) for cov, mu in zip(prior.covs, prior.means)]
        for i, s in enumerate(grid[:-1]):
            lam_next = None
            if i + 1 < len(grid) - 1:
                lam_next = grid[i + 1] ** 2 / s**2
            for c in range(C):
                prec = prior_prec[c] + np.eye(d) / s**2
                cov0 = np.linalg.inv(prec)  # Cov(x0 | x_i, c)
                B0 = cov0 / s**2
                a0 = cov0 @ prior_nat[c]
                if lam_next is not None:
                    lam = lam_next
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
        return _log_normalised(
            _component_logpdfs_rows(noisy.means, noisy._chols, noisy._logdets, X),
            noisy.weights)

    def step(self, X: np.ndarray, level: int, rng: np.random.Generator) -> np.ndarray:
        """One ancestral transition from grid[level] to grid[level+1].

        ``X`` is an (n, d) batch; the final transition to sigma = 0 is the
        Tweedie denoise. Consumes one uniform and one (n, d) normal block.
        """
        X = np.atleast_2d(X)
        if level == self.sched.last_nonzero_index:
            return self.denoise(X, level)
        logr = self.log_responsibilities(X, level)
        return self._transition(X, level, logr, rng.random(X.shape[0]),
                                rng.standard_normal(X.shape), np.matmul)

    def step_rows(self, X: np.ndarray, level: int, rngs) -> np.ndarray:
        """``step`` of each row of the (K, d) array ``X`` with its own
        generator ``rngs[k]``: one uniform, then d normals per row."""
        if level == self.sched.last_nonzero_index:
            return self.denoise_rows(X, level)
        logr = self.log_responsibilities_rows(X, level)
        u = np.array([rng.random() for rng in rngs])
        return self._transition(X, level, logr, u, _normals(rngs, X.shape[1]), _vecmat_rows)

    def _transition(self, X, level, logr, u, noise, vecmat):
        """Draw each row's component by inverse CDF of its responsibilities at
        ``u``, then its conditional Gaussian; ``vecmat`` is the product."""
        cum = np.cumsum(np.exp(logr), axis=1)
        comp = np.sum(u[:, None] >= cum, axis=1)
        comp = np.minimum(comp, self.prior.n_components - 1)
        out = np.empty_like(X)
        for c in range(self.prior.n_components):
            mask = comp == c
            if not np.any(mask):
                continue
            mean = vecmat(X[mask], self._B[level, c].T) + self._a[level, c]
            out[mask] = mean + vecmat(noise[mask], self._chol[level, c].T)
        return out

    def denoise(self, X: np.ndarray, level: int) -> np.ndarray:
        """Tweedie posterior mean E[x0 | x_level] for an (n, d) batch."""
        return self._denoise_batch(X, level)[1]

    def denoise_rows(self, X: np.ndarray, level: int) -> np.ndarray:
        """``denoise`` of each row of the (K, d) array ``X`` on its own."""
        return _denoise_batch(self._noisy[level], self._cho[level], X,
                              self.sched.grid[level], rows=True)[1]

    def _denoise_batch(self, X: np.ndarray, level: int):
        """``gmm.denoise_batch`` of the prior, (score, x_hat0), for an (n, d)
        batch at sigma_t = ``grid[level]``."""
        return _denoise_batch(self._noisy[level], self._cho[level],
                              np.atleast_2d(np.asarray(X, dtype=float)), self.sched.grid[level])

    def score_rows(self, X: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Score of the noisy prior at each row of the (K, d) array ``X``, at
        that row's own level ``levels[k]``: the bits of
        ``_denoise_batch(X[k], levels[k])[0]``. Each row's solve is one
        ``potrs`` on its level's factor; a non-finite row raises the
        ValueError that ``cho_solve`` raises."""
        means = self.prior.means
        lp = _component_logpdfs_rows(means, self._noisy_chols[levels],
                                     self._noisy_logdets[levels], X)
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

    def score_and_denoise(self, x: np.ndarray, level: int):
        """``gmm.score_and_denoise`` of the prior at one (d,) point and
        sigma_t = ``grid[level]``."""
        score, x_hat0, jacobian = self.score_and_denoise_rows(
            np.asarray(x, dtype=float)[None], level)
        return score[0], x_hat0[0], jacobian[0]

    def score_and_denoise_rows(self, X: np.ndarray, level: int):
        """``score_and_denoise`` at each row of the (K, d) array ``X``."""
        return _score_and_denoise(self._noisy[level], self._cho[level], self._prec[level],
                                  X, self.sched.grid[level])


def reverse_sample(prior: GaussianMixture, sched: NoiseSchedule, cfg: ReverseConfig,
                   kernel: ReverseKernel | None = None) -> np.ndarray:
    """Run the reverse process to sigma = 0 and return the final iterate.

    Ancestral mode draws the exact per-component reverse transitions;
    deterministic mode applies the noise-free update
    ``x_{i-1} = x_hat0 + (sigma_{i-1}/sigma_i) (x_i - x_hat0)``.
    """
    if kernel is None:
        kernel = ReverseKernel(prior, sched)
    rng = np.random.default_rng(cfg.seed)
    grid = sched.grid
    start_level = cfg.start_level if cfg.start_level is not None else sched.sigma_max
    if cfg.init is None:
        if start_level != sched.sigma_max:
            raise ValueError("without init, start_level must equal sigma_max")
        x = sched.sigma_max * rng.standard_normal((1, prior.dim))
        start = 0
    else:
        x = np.atleast_2d(np.asarray(cfg.init, dtype=float)).copy()
        start = level_index_for_sigma(sched, start_level)

    for i in range(start, len(grid) - 1):
        if cfg.mode == "ancestral_sde":
            x = kernel.step(x, i, rng)
        elif cfg.mode == "deterministic_ode":
            xhat0 = kernel.denoise(x, i)
            ratio = grid[i + 1] / grid[i]
            x = xhat0 + ratio * (x - xhat0)
        else:
            raise ValueError(f"unknown reverse mode {cfg.mode!r}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"non-finite iterate at reverse step {i}")
    return x[0]
