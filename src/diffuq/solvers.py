"""The benchmark's sampler zoo behind one uniform interface.

Ten solvers: an exact-posterior reference plus nine plug-and-play diffusion
samplers spanning three families (posterior-targeting, heuristic, MAP-like).
Each solver is assembled from small sub-steps that are tested on their own
against independent oracles. A solver sets up once per measurement and
returns ``rows(rngs) -> (X, statuses)``, which advances a batch's K rows
together, one generator per row; ``run_batch`` draws the K-sample batches
the diagnostics consume from one setup.

Loop structures are documented in docs/solvers.md and frozen by tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .diffusion import NoiseSchedule, ReverseKernel, level_index_for_sigma
from .gmm import (
    GaussianMixture,
    exact_posterior,
    sample_mixture,
    score_and_denoise,
    _as_rng,
    _logsumexp,
    _matvec_rows,
    _normals,
    _sample_mixture_rows,
)
from .operators import (
    LinearOperatorSVD,
    Measurement,
    apply_forward,
    apply_pinv,
    build_operator,
    _forward_rows,
    _pinv_rows,
)
from .seeding import derive_seed

__all__ = [
    "SOLVER_NAMES",
    "SOLVER_FAMILIES",
    "SolverSpec",
    "SampleBatch",
    "resolve_solver",
    "sample_one",
    "run_batch",
    "pnpdm_z_step",
    "conjugate_denoising_posterior",
    "dps_guidance_gradient",
    "spectral_consistency_update",
    "prox_data_step",
    "daps_langevin_step",
    "reddiff_update",
    "smc_ess",
    "smc_resample",
]


@dataclass(frozen=True)
class SolverSpec:
    """A solver name with fully resolved hyperparameters.

    Every hyperparameter of the solver must be given, and each value must
    pass the solver table's check (see ``resolve_solver``); values are kept
    as given.
    """

    name: str
    hyperparameters: dict

    def __post_init__(self):
        defaults = _entry(self.name)[1]
        hp = self.hyperparameters
        if not isinstance(hp, dict):
            raise ValueError(f"solver {self.name} hyperparameters must be a mapping, got {hp!r}")
        for key, value in hp.items():
            _check_hyperparameter(self.name, defaults, key, value)
        missing = [key for key in defaults if key not in hp]
        if missing:
            raise ValueError(f"solver {self.name} is missing hyperparameter {missing[0]!r}")

    @property
    def family(self) -> str:
        """The solver's family, from the solver table."""
        return _entry(self.name)[0]


def _entry(name: str):
    """The solver table's ``(family, defaults, sampler)`` for ``name``."""
    if not isinstance(name, str) or name not in _SOLVERS:
        raise ValueError(
            f"unknown solver {name!r}; valid names: {', '.join(SOLVER_NAMES)}"
        )
    return _SOLVERS[name]


def _check_hyperparameter(name: str, defaults: dict, key, value) -> None:
    """Reject a key the solver does not have, and a value unlike its default:
    an int >= 1, a finite number >= 0 (> 0 for the keys in ``_POSITIVE``), or
    one of a string's listed choices."""
    if key not in defaults:
        raise ValueError(
            f"solver {name} has no hyperparameter {key!r} "
            f"(accepts: {sorted(defaults) or 'none'})"
        )
    default = defaults[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, tuple):
        ok, want = value in default, f"one of {list(default)}"
    elif isinstance(default, int):
        ok, want = number and isinstance(value, int) and value >= 1, "an integer >= 1"
    elif (name, key) in _POSITIVE:
        ok, want = number and 0 < value < math.inf, "a finite number > 0"
    else:
        ok, want = number and 0 <= value < math.inf, "a finite number >= 0"
    if not ok:
        raise ValueError(f"solver {name} hyperparameter {key!r} must be {want}, got {value!r}")


def resolve_solver(name: str, overrides: dict | None = None) -> SolverSpec:
    """Fill in defaults; ``SolverSpec`` rejects unknown names and
    hyperparameters, and values unlike their default."""
    defaults = _entry(name)[1]
    if overrides is not None and not isinstance(overrides, dict):
        raise ValueError(f"solver {name} hyperparameters must be a mapping, got {overrides!r}")
    hp = {k: v[0] if isinstance(v, tuple) else v for k, v in defaults.items()}
    return SolverSpec(name=name, hyperparameters={**hp, **(overrides or {})})


@dataclass
class SampleBatch:
    """K reconstructions for one (solver, measurement) pair."""

    solver: SolverSpec
    measurement: Measurement
    samples: np.ndarray  # (K, d); diverged rows are NaN
    seeds: list
    statuses: list
    wall_time: float = 0.0

    def ok_mask(self) -> np.ndarray:
        return np.array([s == "ok" for s in self.statuses])

    @property
    def failure_rate(self) -> float:
        return 1.0 - float(np.mean(self.ok_mask()))


# ---------------------------------------------------------------------------
# algorithmic sub-steps
# ---------------------------------------------------------------------------

def _z_step_sampler(A: LinearOperatorSVD, y, sigma_y: float, rho: float):
    """``pnpdm_z_step`` as a row-wise draw ``(X, rngs) -> Z``, with the
    system, which depends only on (A, sigma_y, rho), factored once."""
    if sigma_y <= 0 or rho <= 0:
        raise ValueError("sigma_y and rho must be > 0")
    Amat = A.matrix()
    d = A.d
    prec = Amat.T @ Amat / sigma_y**2 + np.eye(d) / rho**2
    try:
        cf = cho_factor(prec, lower=True)
    except np.linalg.LinAlgError:
        raise ValueError("z-step system is not positive definite")
    aty = Amat.T @ np.asarray(y) / sigma_y**2
    cov = cho_solve(cf, np.eye(d))
    chol = np.linalg.cholesky(0.5 * (cov + cov.T))

    def draw(X, rngs):
        """One z per row of the (K, d) array ``X``, with generator ``rngs[k]``."""
        mean = cho_solve(cf, (aty + X / rho**2).T).T
        return mean + _matvec_rows(chol, _normals(rngs, d))

    return draw


def pnpdm_z_step(x, y, A: LinearOperatorSVD, sigma_y: float, rho: float, seed):
    """Exact Gaussian draw of the likelihood variable in the split target.

    z ~ N(C (A^T y / sigma_y^2 + x / rho^2), C) with
    C = (A^T A / sigma_y^2 + I / rho^2)^{-1}.
    """
    return _z_step_sampler(A, y, sigma_y, rho)(np.asarray(x)[None], [_as_rng(seed)])[0]


def conjugate_denoising_posterior(prior: GaussianMixture, z, rho: float) -> GaussianMixture:
    """Exact mixture proportional to p(x) N(x; z, rho^2 I).

    This is the oracle for the diffusion-based denoising step: both target
    the same conditional of the split joint distribution.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    identity = build_operator("identity", prior.dim)
    return exact_posterior(prior, identity, np.asarray(z, dtype=float), rho)


def _dps_gradient_parts(xhat0, jac, y, A):
    """(gradient, residual norm) of the DPS loss per row of the denoiser
    output (K, d) and its Jacobians (K, d, d)."""
    resid = np.asarray(y) - _forward_rows(A, xhat0)
    grad = _matvec_rows(-jac.transpose(0, 2, 1), _matvec_rows(A.matrix().T, resid))
    return grad, np.sqrt((resid[:, None, :] @ resid[:, :, None])[:, 0, 0])


def dps_guidance_gradient(prior: GaussianMixture, x_t, sigma_t: float, y,
                          A: LinearOperatorSVD, sigma_y: float):
    """Gradient of 0.5 ||y - A x_hat0(x_t)||^2 w.r.t. x_t.

    Uses the exact denoiser Jacobian; ``sigma_y`` is part of the uniform
    sub-step signature but the loss is unweighted (the caller folds any
    noise weighting into its guidance scale).
    """
    _, xhat0, jac = score_and_denoise(prior, x_t, sigma_t)
    grad, _ = _dps_gradient_parts(xhat0[None], jac[None], y, A)
    return grad[0]


def spectral_consistency_update(kind: str, x_hat0, y, A: LinearOperatorSVD,
                                sigma_y: float, sigma_t: float,
                                eta: float = 0.85, eta_b: float = 1.0,
                                seed=None, x_t=None, sigma_prev=None):
    """Measurement-consistency updates performed in the SVD basis.

    ``ddnm_projection``: range-space replacement A^+ y + (I - A^+ A) x_hat0
    (deterministic; ignores the noise arguments).

    ``ddrm_step``: produce the iterate at noise level ``sigma_t`` by
    blending x_hat0 with the whitened observation per singular value, with
    the regime split at sigma_t vs sigma_y / s_j. ``x_t``/``sigma_prev``
    feed the unobserved-direction momentum term; without them the
    unobserved update is pure noise injection (eta = 1 behavior).
    """
    x_hat0 = np.asarray(x_hat0, dtype=float)[None]
    if kind == "ddnm_projection":
        return _ddnm_rows(x_hat0, apply_pinv(A, np.asarray(y)), A)[0]
    if kind != "ddrm_step":
        raise ValueError(f"unknown spectral update kind {kind!r}")
    if x_t is not None:
        x_t = np.asarray(x_t, dtype=float)[None]
    return _ddrm_rows(x_hat0, A.spectral_y(y), A, sigma_y, sigma_t, eta, eta_b,
                      [_as_rng(seed)], x_t, sigma_prev)[0]


def _ddnm_rows(x_hat0, pinv_y, A):
    """``ddnm_projection`` of each row of ``x_hat0``, given ``A^+ y``."""
    return pinv_y + x_hat0 - _pinv_rows(A, _forward_rows(A, x_hat0))


def _ddrm_rows(x_hat0, yb, A, sigma_y, sigma_t, eta, eta_b, rngs, x_t=None, sigma_prev=None):
    """``ddrm_step`` of each row of ``x_hat0`` (and ``x_t``), with the
    spectral observation ``yb`` and one generator per row."""
    s = A.spectral_s()
    xb0 = _matvec_rows(A.V.T, x_hat0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ob = np.where(s > 0, yb / np.where(s > 0, s, 1.0), 0.0)
        noise_scale = np.where(s > 0, sigma_y / np.where(s > 0, s, 1.0), np.inf)

    mean = np.empty(xb0.shape)
    std = np.empty(A.d)
    if x_t is not None and sigma_prev is not None and sigma_prev > 0:
        xb_prev = _matvec_rows(A.V.T, x_t)
        momentum = (xb_prev - xb0) / sigma_prev
        eta_null = eta
    else:
        momentum = np.zeros(xb0.shape)
        eta_null = 1.0

    null = s == 0
    mean[:, null] = (xb0[:, null]
                     + np.sqrt(max(1 - eta_null**2, 0.0)) * sigma_t * momentum[:, null])
    std[null] = eta_null * sigma_t

    obs = ~null
    low = obs & (sigma_t < noise_scale)
    mean[:, low] = (xb0[:, low] + np.sqrt(max(1 - eta**2, 0.0)) * sigma_t
                    * (ob[low] - xb0[:, low]) / noise_scale[low])
    std[low] = eta * sigma_t

    high = obs & (sigma_t >= noise_scale)
    mean[:, high] = (1 - eta_b) * xb0[:, high] + eta_b * ob[high]
    var_high = sigma_t**2 - noise_scale[high] ** 2 * eta_b**2
    std[high] = np.sqrt(np.maximum(var_high, 0.0))

    xb = mean + std * _normals(rngs, A.d)
    return _matvec_rows(A.V, xb)


def prox_data_step(x_hat0, y, A: LinearOperatorSVD, sigma_y: float, rho_t: float):
    """argmin_z ||y - A z||^2 / (2 sigma_y^2) + (rho_t / 2) ||z - x_hat0||^2.

    Solved coordinate-wise in the SVD basis.
    """
    if rho_t <= 0:
        raise ValueError("rho_t must be > 0")
    return _prox_rows(np.asarray(x_hat0, dtype=float)[None], A.spectral_y(y), A,
                      sigma_y, rho_t)[0]


def _prox_rows(x_hat0, yb, A, sigma_y, rho_t):
    """``prox_data_step`` of each row of ``x_hat0``, given ``A.spectral_y(y)``."""
    s = A.spectral_s()
    xb0 = _matvec_rows(A.V.T, x_hat0)
    zb = (s * yb / sigma_y**2 + rho_t * xb0) / (s**2 / sigma_y**2 + rho_t)
    return _matvec_rows(A.V, zb)


def daps_langevin_step(x0, anchor, r_t: float, y, A: LinearOperatorSVD,
                       sigma_y: float, step_size: float, seed):
    """One unadjusted Langevin step on the anchored data posterior.

    Target: log pi(x) = -||y - A x||^2 / (2 sigma_y^2) - ||x - anchor||^2 / (2 r_t^2).
    """
    if step_size < 0:
        raise ValueError("step_size must be >= 0")
    if r_t <= 0:
        raise ValueError("r_t must be > 0")
    x0 = np.asarray(x0, dtype=float)[None]
    if step_size == 0:
        return x0[0].copy()
    return _langevin_rows(x0, np.asarray(anchor)[None], r_t, y, A, sigma_y, step_size,
                          [_as_rng(seed)])[0]


def _langevin_rows(x0, anchor, r_t, y, A, sigma_y, step_size, rngs):
    """``daps_langevin_step`` (step_size > 0) of each row, one generator per row."""
    resid = np.asarray(y) - _forward_rows(A, x0)
    drift = _matvec_rows(A.matrix().T, resid) / sigma_y**2 - (x0 - anchor) / r_t**2
    return x0 + 0.5 * step_size * drift + np.sqrt(step_size) * _normals(rngs, x0.shape[1])


def reddiff_update(mu, y, A: LinearOperatorSVD, sigma_y: float,
                   kernel: ReverseKernel, lambda_reg: float, step_size: float, seed):
    """One stochastic descent step of the variational objective.

    Data term ||y - A mu||^2 / (2 sigma_y^2) plus a score-matching
    regularizer evaluated at a uniformly drawn level of the kernel's noise
    grid with unit weighting and a detached (analytic) noise prediction.
    """
    if step_size <= 0:
        raise ValueError("step_size must be > 0")
    return _reddiff_rows(np.asarray(mu, dtype=float)[None], y, A, sigma_y, kernel,
                         lambda_reg, step_size, [_as_rng(seed)])[0]


def _reddiff_rows(mu, y, A, sigma_y, kernel, lambda_reg, step_size, rngs):
    """``reddiff_update`` of each row of ``mu``; each row draws its own level
    and noise from its own generator."""
    levels = np.empty(len(rngs), dtype=int)
    for k, rng in enumerate(rngs):
        levels[k] = rng.integers(0, kernel.sched.last_nonzero_index + 1)
    eps = _normals(rngs, mu.shape[1])
    sigma = kernel.sched.grid[levels][:, None]
    score = kernel.score_rows(mu + sigma * eps, levels)
    eps_hat = -sigma * score
    data_grad = _matvec_rows(A.matrix().T, _forward_rows(A, mu) - np.asarray(y)) / sigma_y**2
    return mu - step_size * (data_grad + lambda_reg * (eps_hat - eps))


def smc_ess(weights) -> float:
    """Effective sample size 1 / sum(w^2) of a normalized weight vector."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total == 0:
        raise ValueError("all-zero weight vector")
    if abs(total - 1.0) > 1e-12:
        raise ValueError("weights must be normalized within 1e-12")
    return float(1.0 / np.sum(w**2))


def smc_resample(particles, weights, seed) -> np.ndarray:
    """Systematic resampling of a particle set; the caller resets weights to
    uniform."""
    particles = np.asarray(particles)
    w = np.asarray(weights, dtype=float)
    n = len(w)
    rng = _as_rng(seed)
    positions = (rng.random() + np.arange(n)) / n
    idx = np.minimum(np.searchsorted(np.cumsum(w), positions), n - 1)
    return particles[idx]


# ---------------------------------------------------------------------------
# shared per-problem context and the divergence exit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingContext:
    """The (prior, schedule) constants shared by every batch of one problem.

    Immutable, so worker threads can share it. Constants that depend on the
    measurement are built by each sampler's setup, once per batch.
    """

    prior: GaussianMixture
    sched: NoiseSchedule
    kernel: ReverseKernel

    @classmethod
    def build(cls, prior: GaussianMixture, sched: NoiseSchedule) -> "SamplingContext":
        return cls(prior=prior, sched=sched, kernel=ReverseKernel(prior, sched))


def _status(step: int, why: str = "") -> str:
    return f"diverged(step={step}{'; ' + why if why else ''})"


class _Rows:
    """The rows of one batch that are still running.

    Holds each running row's generator, and the batch's result rows and
    statuses. A row whose iterate turns non-finite gets a NaN result row and
    its ``diverged(step=...)`` status, and leaves; the others keep going.
    """

    def __init__(self, rngs, dim: int):
        self.rngs = list(rngs)
        self.index = np.arange(len(self.rngs))
        self.samples = np.full((len(self.rngs), dim), np.nan)
        self.statuses = ["ok"] * len(self.rngs)

    def steps(self, n: int):
        """``range(n)``, cut short once no row is running."""
        for i in range(n):
            if not self.rngs:
                return
            yield i

    def finite(self, X: np.ndarray, step: int) -> np.ndarray:
        """The running rows of ``X`` after the non-finite ones leave at ``step``."""
        ok = np.isfinite(X).all(axis=1)
        if ok.all():
            return X
        for k in self.index[~ok]:
            self.statuses[k] = _status(step)
        self.index = self.index[ok]
        self.rngs = [rng for rng, keep in zip(self.rngs, ok) if keep]
        return X[ok]

    def done(self, X: np.ndarray):
        """(samples, statuses) of the batch, with ``X`` the running rows."""
        self.samples[self.index] = X
        return self.samples, self.statuses


class _Diverged(Exception):
    """A non-finite iterate of a one-row-at-a-time loop; its message is the
    row's status."""


def _finite(x, step: int, why: str = ""):
    """``x``, or ``_Diverged`` at ``step`` when it has a non-finite entry."""
    if not np.all(np.isfinite(x)):
        raise _Diverged(_status(step, why))
    return x


def _one_row_at_a_time(row, dim: int):
    """``rows`` of a sampler that runs ``row(rng) -> x`` once per row; a
    ``_Diverged`` row becomes a NaN row with that status."""
    def rows(rngs):
        samples = np.full((len(rngs), dim), np.nan)
        statuses = ["ok"] * len(rngs)
        for k, rng in enumerate(rngs):
            try:
                samples[k] = row(rng)
            except _Diverged as exc:
                statuses[k] = str(exc)
        return samples, statuses

    return rows


# ---------------------------------------------------------------------------
# solver loops: ``_sample_<name>(spec, m, ctx)`` does the per-measurement
# work once and returns ``rows(rngs) -> (X, statuses)``, which draws row k
# of the batch from generator ``rngs[k]``
# ---------------------------------------------------------------------------

def _init_noise(ctx: SamplingContext, rng, n: int) -> np.ndarray:
    """``n`` particles of one row at ``sigma_max``."""
    return ctx.sched.sigma_max * rng.standard_normal((n, ctx.prior.dim))


def _init_rows(ctx: SamplingContext, rngs) -> np.ndarray:
    """One start at ``sigma_max`` per row, from that row's generator."""
    return ctx.sched.sigma_max * _normals(rngs, ctx.prior.dim)


def _sample_reference_exact(spec, m, ctx):
    post = exact_posterior(ctx.prior, m.operator, m.y, m.sigma_y)
    return lambda rngs: (_sample_mixture_rows(post, rngs), ["ok"] * len(rngs))


def _kernel_guided(ctx, pull):
    """Rows of a heuristic that adds ``pull(X, i)`` to every exact kernel step."""
    def rows(rngs):
        out = _Rows(rngs, ctx.prior.dim)
        X = _init_rows(ctx, out.rngs)
        for i in out.steps(len(ctx.sched.grid) - 1):
            X = out.finite(ctx.kernel.step_rows(X, i, out.rngs) + pull(X, i), i)
        return out.done(X)

    return rows


def _sample_dps(spec, m, ctx):
    scale = spec.hyperparameters["guidance_scale"]

    def pull(X, i):
        _, xhat0, jac = ctx.kernel.score_and_denoise_rows(X, i)
        grad, resid_norm = _dps_gradient_parts(xhat0, jac, m.y, m.operator)
        return -(scale / (resid_norm[:, None] + 1e-12)) * grad

    return _kernel_guided(ctx, pull)


def _sample_daps(spec, m, ctx):
    hp = spec.hyperparameters
    grid = ctx.sched.grid
    A = m.operator
    s_max_sq = float(np.max(A.spectral_s()) ** 2)
    # stable step: inverse of the stiffest precision of the local target
    eff_steps = [hp["step_size"] / (1.0 / r_t**2 + s_max_sq / m.sigma_y**2)
                 for r_t in grid[:-1]]

    def rows(rngs):
        out = _Rows(rngs, ctx.prior.dim)
        X = _init_rows(ctx, out.rngs)
        for i in out.steps(len(eff_steps)):
            anchor = ctx.kernel.denoise_rows(X, i)
            X0 = anchor.copy()
            if eff_steps[i] != 0:
                for _ in range(hp["langevin_steps"]):
                    X0 = _langevin_rows(X0, anchor, grid[i], m.y, A, m.sigma_y,
                                        eff_steps[i], out.rngs)
            X0 = out.finite(X0, i)
            sig_next = grid[i + 1]
            X = X0 + sig_next * _normals(out.rngs, ctx.prior.dim) if sig_next > 0 else X0
        return out.done(X)

    return rows


def _sample_diffpir(spec, m, ctx):
    lam_reg = spec.hyperparameters["lambda_reg"]
    grid = ctx.sched.grid
    yb = m.operator.spectral_y(m.y)

    def pull(X, i):
        xhat0 = ctx.kernel.denoise_rows(X, i)
        z = _prox_rows(xhat0, yb, m.operator, m.sigma_y, lam_reg / grid[i] ** 2)
        lam = grid[i + 1] ** 2 / grid[i] ** 2
        return (1 - lam) * (z - xhat0)

    return _kernel_guided(ctx, pull)


def _sample_ddnm(spec, m, ctx):
    grid = ctx.sched.grid
    pinv_y = apply_pinv(m.operator, m.y)

    def pull(X, i):
        xhat0 = ctx.kernel.denoise_rows(X, i)
        proj = _ddnm_rows(xhat0, pinv_y, m.operator)
        lam = grid[i + 1] ** 2 / grid[i] ** 2
        return (1 - lam) * (proj - xhat0)

    return _kernel_guided(ctx, pull)


def _sample_ddrm(spec, m, ctx):
    hp = spec.hyperparameters
    grid = ctx.sched.grid
    yb = m.operator.spectral_y(m.y)

    def rows(rngs):
        out = _Rows(rngs, ctx.prior.dim)
        X = _init_rows(ctx, out.rngs)
        for i in out.steps(len(grid) - 1):
            xhat0 = ctx.kernel.denoise_rows(X, i)
            X = out.finite(_ddrm_rows(xhat0, yb, m.operator, m.sigma_y, grid[i + 1],
                                      hp["eta"], hp["eta_b"], out.rngs, X, grid[i]), i)
        return out.done(X)

    return rows


def _sample_reddiff(spec, m, ctx):
    hp = spec.hyperparameters
    steps = hp["opt_steps"]
    mu0 = apply_pinv(m.operator, m.y)

    def rows(rngs):
        out = _Rows(rngs, ctx.prior.dim)
        mu = np.repeat(mu0[None], len(rngs), axis=0)
        for t in out.steps(steps):
            lr = hp["step_size"] * (1.0 - t / steps)
            mu = out.finite(_reddiff_rows(mu, m.y, m.operator, m.sigma_y, ctx.kernel,
                                          hp["lambda_reg"], lr, out.rngs), t)
        return out.done(mu)

    return rows


def _sample_pnpdm(spec, m, ctx):
    hp = spec.hyperparameters
    rho = hp["rho_coupling"]
    mode = hp["x_step"]
    A = m.operator
    grid = ctx.sched.grid
    start = level_index_for_sigma(ctx.sched, rho)
    z_step = _z_step_sampler(A, m.y, m.sigma_y, rho)
    pinv_y = apply_pinv(A, m.y)

    def rows(rngs):
        out = _Rows(rngs, ctx.prior.dim)
        # data-informed start: observed directions from the pseudo-inverse,
        # unobserved directions from a prior draw; shortens the Gibbs burn-in
        X0 = _sample_mixture_rows(ctx.prior, out.rngs)
        X = pinv_y + X0 - _pinv_rows(A, _forward_rows(A, X0))
        for g in out.steps(hp["gibbs_iters"]):
            X = z_step(X, out.rngs)
            if mode == "conjugate":
                X = np.array([
                    sample_mixture(conjugate_denoising_posterior(ctx.prior, z, rho), 1, rng)[0]
                    for z, rng in zip(X, out.rngs)
                ])
            else:
                for i in range(start, len(grid) - 1):
                    X = ctx.kernel.step_rows(X, i, out.rngs)
            X = out.finite(X, g)
        return out.done(X)

    return rows


def _degenerate_keep(w, rng):
    """Systematic-resampling indices when the effective sample size of the
    weights ``w`` is below half the particle count, else None."""
    w = w / w.sum()
    if smc_ess(w) < len(w) / 2:
        return smc_resample(np.arange(len(w)), w, rng)
    return None


def _pick(log_w, rng) -> int:
    """Index of the final particle, drawn by the normalised weights."""
    w = np.exp(log_w - _logsumexp(log_w))
    return int(rng.choice(len(w), p=w))


def _sample_fps_smc(spec, m, ctx):
    n_p = spec.hyperparameters["particles"]
    kernel, grid = ctx.kernel, ctx.sched.grid
    A = m.operator
    d, C = ctx.prior.dim, ctx.prior.n_components
    s = A.spectral_s()
    obs = s > 0
    n_levels = len(grid) - 1

    # level- and component-indexed matrices of the conditional updates, one
    # per transition between nonzero levels
    n_trans = n_levels - 1
    post_chol = np.empty((n_trans, C, d, d))
    post_cov = np.empty((n_trans, C, d, d))
    trans_cov_inv = np.empty((n_trans, C, d, d))
    ev_chol = np.empty((n_trans, C, d, d))
    ev_logdet = np.empty((n_trans, C))
    obs_precision = np.empty((n_trans, d))
    for i in range(n_trans):
        sig_next = grid[i + 1]
        # per-spectral-coordinate measurement-noise variance at the
        # target level: sigma_y^2 I + sigma_{i+1}^2 A A^T
        w = m.sigma_y**2 + sig_next**2 * s**2
        with np.errstate(divide="ignore"):
            obs_precision[i] = s**2 / w
        for c in range(C):
            Ccov = kernel._chol[i, c] @ kernel._chol[i, c].T
            Cinv = np.linalg.inv(Ccov)
            trans_cov_inv[i, c] = Cinv
            P = Cinv + A.V @ np.diag(obs_precision[i]) @ A.V.T
            cov = np.linalg.inv(P)
            post_cov[i, c] = cov
            post_chol[i, c] = np.linalg.cholesky(0.5 * (cov + cov.T))
            ev_chol[i, c] = np.linalg.cholesky(
                np.diag(s) @ (A.V.T @ Ccov @ A.V) @ np.diag(s) + np.diag(w)
            )
            ev_logdet[i, c] = 2.0 * np.sum(np.log(np.diag(ev_chol[i, c])))

    def log_potential(X, level, y_level):
        """Tempered likelihood over observed spectral coordinates:
        N(y_bar_j; s_j x_bar_j, sigma_y^2 + sigma_level^2 s_j^2)."""
        yb = A.spectral_y(y_level)
        w_var = m.sigma_y**2 + grid[level] ** 2 * s**2
        diff = yb[obs] - (np.atleast_2d(X) @ A.V)[:, obs] * s[obs]
        return -0.5 * np.sum(diff**2 / w_var[obs] + np.log(2 * np.pi * w_var[obs]),
                             axis=1)

    def row(rng):
        # coupled measurement path y_j = y + A eta_j, built from sigma_min up
        eta = np.empty((n_levels, d))
        eta[n_levels - 1] = grid[n_levels - 1] * rng.standard_normal(d)
        for j in range(n_levels - 2, -1, -1):
            eta[j] = eta[j + 1] + np.sqrt(grid[j] ** 2 - grid[j + 1] ** 2) * rng.standard_normal(d)
        y_path = m.y[None, :] + apply_forward(A, eta)

        X = _init_noise(ctx, rng, n_p)
        log_w = log_potential(X, 0, y_path[0])
        for i in range(n_trans):
            yb = A.spectral_y(y_path[i + 1])
            with np.errstate(divide="ignore", invalid="ignore"):
                # whitened pseudo-observation: literal division by the singular
                # values; zero singular values poison the update (by design)
                ob = yb / s
                p_ob = obs_precision[i] * ob

            log_r = kernel.log_responsibilities(X, i)  # (n_p, C)
            means = np.empty((C, n_p, d))
            log_ev = np.empty((n_p, C))
            for c in range(C):
                means[c] = X @ kernel._B[i, c].T + kernel._a[i, c]
                mb = means[c] @ A.V * s  # S V^T mean, (n_p, d)
                diff = yb[None, :] - mb
                sol = solve_triangular(ev_chol[i, c], diff.T, lower=True)
                log_ev[:, c] = -0.5 * (np.sum(sol**2, axis=0) + ev_logdet[i, c]
                                       + d * np.log(2 * np.pi))
            log_joint = log_r + log_ev
            log_pred = _logsumexp(log_joint, axis=1)
            # auxiliary-filter telescoping: fold in the predictive evidence for
            # the next level's potential and divide out this level's own
            log_w = log_w + log_pred - log_potential(X, i, y_path[i])
            log_w = log_w - _logsumexp(log_w)
            keep = _degenerate_keep(np.exp(log_w), rng)
            if keep is not None:
                X, means, log_joint, log_pred = (
                    X[keep], means[:, keep], log_joint[keep], log_pred[keep]
                )
                log_w = np.full(n_p, -np.log(n_p))

            # propagate from the conditional p(x_{i+1} | x_i, y_{i+1})
            comp_p = np.exp(log_joint - log_pred[:, None])
            u = rng.random(n_p)
            comp = np.sum(u[:, None] >= np.cumsum(comp_p, axis=1), axis=1)
            comp = np.minimum(comp, C - 1)
            noise = rng.standard_normal((n_p, d))
            X_new = np.empty_like(X)
            for c in range(C):
                mask = comp == c
                if not np.any(mask):
                    continue
                nat = means[c][mask] @ trans_cov_inv[i, c].T + (A.V @ p_ob)[None, :]
                mean_post = nat @ post_cov[i, c].T
                X_new[mask] = mean_post + noise[mask] @ post_chol[i, c].T
            X = _finite(X_new, i, "pseudo-inverse of zero singular values")

        last = n_levels - 1
        xhat0 = kernel.denoise(X, last)
        resid = m.y[None, :] - apply_forward(A, xhat0)
        log_w = (log_w - 0.5 * np.sum(resid**2, axis=1) / m.sigma_y**2
                 - log_potential(X, last, y_path[last]))
        return xhat0[_pick(log_w, rng)]

    return _one_row_at_a_time(row, d)


def _sample_mcg_diff(spec, m, ctx):
    A = m.operator
    if not A.is_binary():
        raise ValueError("mcg_diff requires an operator with binary singular values")
    n_p = spec.hyperparameters["particles"]
    kernel, grid = ctx.kernel, ctx.sched.grid
    obs = A.spectral_s() == 1.0
    k = int(obs.sum())
    yb_obs = A.spectral_y(m.y)[obs]

    def log_potential(X, var):
        diff = (X @ A.V)[:, obs] - yb_obs
        return -0.5 * (np.sum(diff**2, axis=1) / var + k * np.log(2 * np.pi * var))

    def row(rng):
        X = _init_noise(ctx, rng, n_p)
        log_w = log_potential(X, m.sigma_y**2 + grid[0] ** 2)
        for i in range(len(grid) - 1):
            keep = _degenerate_keep(np.exp(log_w - _logsumexp(log_w)), rng)
            if keep is not None:
                X = X[keep]
                log_w = np.zeros(n_p)
            g_old = log_potential(X, m.sigma_y**2 + grid[i] ** 2)
            X = _finite(kernel.step(X, i, rng), i)
            log_w = log_w + log_potential(X, m.sigma_y**2 + grid[i + 1] ** 2) - g_old
        return X[_pick(log_w, rng)]

    return _one_row_at_a_time(row, ctx.prior.dim)


# Every solver is declared here once: name -> (family, default
# hyperparameters, sampler). A tuple default lists a string's choices, the
# first being the default; ``resolve_solver`` checks every override against
# its default's kind. Defaults tuned on the toy problem by grid search
# against the analytic oracle; every resolved value is recorded in the run
# manifest.
_SOLVERS = {
    "reference_exact": ("posterior_targeting", {}, _sample_reference_exact),
    "pnpdm": ("posterior_targeting", {"rho_coupling": 0.3, "gibbs_iters": 40,
                                      "x_step": ("diffusion", "conjugate")}, _sample_pnpdm),
    "fps_smc": ("posterior_targeting", {"particles": 20}, _sample_fps_smc),
    "mcg_diff": ("posterior_targeting", {"particles": 16}, _sample_mcg_diff),
    "dps": ("heuristic", {"guidance_scale": 0.3}, _sample_dps),
    "daps": ("heuristic", {"langevin_steps": 20, "step_size": 0.3}, _sample_daps),
    "ddnm": ("heuristic", {}, _sample_ddnm),
    "ddrm": ("heuristic", {"eta": 0.85, "eta_b": 1.0}, _sample_ddrm),
    "diffpir": ("heuristic", {"lambda_reg": 1.0}, _sample_diffpir),
    "reddiff": ("map_like", {"lambda_reg": 0.25, "step_size": 0.5, "opt_steps": 300},
                _sample_reddiff),
}

# float hyperparameters that must be > 0, not merely >= 0
_POSITIVE = {("pnpdm", "rho_coupling"), ("reddiff", "step_size"), ("diffpir", "lambda_reg")}

SOLVER_FAMILIES = {name: family for name, (family, _, _) in _SOLVERS.items()}
SOLVER_NAMES = tuple(_SOLVERS)


def _setup(spec: SolverSpec, m: Measurement, prior: GaussianMixture,
           sched: NoiseSchedule, ctx: SamplingContext | None):
    """The solver's ``rows(rngs) -> (X, statuses)`` for this measurement."""
    if m.operator.d != prior.dim:
        raise ValueError("measurement operator dimension does not match prior")
    if ctx is None:
        ctx = SamplingContext.build(prior, sched)
    elif ctx.prior is not prior or ctx.sched is not sched:
        raise ValueError("ctx was built for another prior or schedule")
    return _entry(spec.name)[2](spec, m, ctx)


def sample_one(spec: SolverSpec, m: Measurement, prior: GaussianMixture,
               sched: NoiseSchedule, seed: int, ctx: SamplingContext | None = None):
    """One reconstruction; returns (vector, status). The K = 1 case of
    ``run_batch``.

    Divergence is recorded in the status, never raised: a non-finite
    iterate yields a NaN row with status ``diverged(step=...)``.
    """
    samples, statuses = _setup(spec, m, prior, sched, ctx)([np.random.default_rng(seed)])
    return samples[0], statuses[0]


def run_batch(spec: SolverSpec, m: Measurement, prior: GaussianMixture,
              sched: NoiseSchedule, K: int, base_seed: int,
              ctx: SamplingContext | None = None) -> SampleBatch:
    """K independent reconstructions with per-row seeds derived from
    (base_seed, row index). The solver sets up for the measurement once and
    advances all K rows together, one generator per row; each row's bits do
    not depend on the others, so row k always equals a standalone
    ``sample_one`` call with the same derived seed."""
    if K < 1:
        raise ValueError("K must be >= 1")
    t0 = time.perf_counter()
    rows = _setup(spec, m, prior, sched, ctx)
    seeds = [derive_seed(base_seed, [("row", k)]) for k in range(K)]
    samples, statuses = rows([np.random.default_rng(seed) for seed in seeds])
    return SampleBatch(
        solver=spec, measurement=m, samples=samples, seeds=seeds,
        statuses=statuses, wall_time=time.perf_counter() - t0,
    )
