"""The benchmark's sampler zoo behind one uniform interface.

Ten solvers: an exact-posterior reference plus nine plug-and-play diffusion
samplers spanning three families (posterior-targeting, heuristic, MAP-like).
Each solver is assembled from small sub-steps that are tested on their own
against independent oracles; ``sample_one`` wires them into full loops and
``run_batch`` produces the K-sample batches the diagnostics consume.

Loop structures are documented in docs/solvers.md and frozen by tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .diffusion import NoiseSchedule, ReverseKernel, level_index_for_sigma
from .gmm import (
    GaussianMixture,
    exact_posterior,
    sample_mixture,
    score_and_denoise,
    _logsumexp,
)
from .operators import (
    LinearOperatorSVD,
    Measurement,
    apply_forward,
    apply_pinv,
    build_operator,
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

SOLVER_FAMILIES = {
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

SOLVER_NAMES = tuple(SOLVER_FAMILIES)

# Defaults tuned on the toy problem by grid search against the analytic
# oracle; every resolved value is recorded in the run manifest.
_DEFAULT_HYPERS = {
    "reference_exact": {},
    "dps": {"guidance_scale": 0.3},
    "daps": {"langevin_steps": 20, "step_size": 0.3},
    "diffpir": {"lambda_reg": 1.0},
    "ddnm": {},
    "ddrm": {"eta": 0.85, "eta_b": 1.0},
    "reddiff": {"lambda_reg": 0.25, "step_size": 0.5, "opt_steps": 300},
    "pnpdm": {"rho_coupling": 0.3, "gibbs_iters": 40, "x_step": "diffusion"},
    "fps_smc": {"particles": 20},
    "mcg_diff": {"particles": 16},
}


@dataclass(frozen=True)
class SolverSpec:
    """A solver identifier with fully resolved hyperparameters."""

    name: str
    family: str
    hyperparameters: dict

    def __post_init__(self):
        if self.name not in SOLVER_FAMILIES:
            raise ValueError(
                f"unknown solver {self.name!r}; valid names: {', '.join(SOLVER_NAMES)}"
            )
        if self.family != SOLVER_FAMILIES[self.name]:
            raise ValueError(
                f"solver {self.name} must have family {SOLVER_FAMILIES[self.name]!r}"
            )


def resolve_solver(name: str, overrides: dict | None = None) -> SolverSpec:
    """Fill in defaults; reject unknown names and hyperparameters."""
    if name not in SOLVER_FAMILIES:
        raise ValueError(
            f"unknown solver {name!r}; valid names: {', '.join(SOLVER_NAMES)}"
        )
    hp = dict(_DEFAULT_HYPERS[name])
    for key, value in (overrides or {}).items():
        if key not in hp:
            raise ValueError(
                f"solver {name} has no hyperparameter {key!r} "
                f"(accepts: {sorted(hp) or 'none'})"
            )
        hp[key] = value
    return SolverSpec(name=name, family=SOLVER_FAMILIES[name], hyperparameters=hp)


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


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# algorithmic sub-steps
# ---------------------------------------------------------------------------

def pnpdm_z_step(x, y, A: LinearOperatorSVD, sigma_y: float, rho: float, seed):
    """Exact Gaussian draw of the likelihood variable in the split target.

    z ~ N(C (A^T y / sigma_y^2 + x / rho^2), C) with
    C = (A^T A / sigma_y^2 + I / rho^2)^{-1}.
    """
    if sigma_y <= 0 or rho <= 0:
        raise ValueError("sigma_y and rho must be > 0")
    rng = _as_rng(seed)
    Amat = A.matrix()
    d = A.d
    prec = Amat.T @ Amat / sigma_y**2 + np.eye(d) / rho**2
    try:
        cf = cho_factor(prec, lower=True)
    except np.linalg.LinAlgError:
        raise ValueError("z-step system is not positive definite")
    mean = cho_solve(cf, Amat.T @ np.asarray(y) / sigma_y**2 + np.asarray(x) / rho**2)
    cov = cho_solve(cf, np.eye(d))
    chol = np.linalg.cholesky(0.5 * (cov + cov.T))
    return mean + chol @ rng.standard_normal(d)


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
    """(gradient, residual norm) of the DPS loss from the denoiser output."""
    resid = np.asarray(y) - apply_forward(A, xhat0)
    grad = -jac.T @ (A.matrix().T @ resid)
    return grad, float(np.linalg.norm(resid))


def dps_guidance_gradient(prior: GaussianMixture, x_t, sigma_t: float, y,
                          A: LinearOperatorSVD, sigma_y: float):
    """Gradient of 0.5 ||y - A x_hat0(x_t)||^2 w.r.t. x_t.

    Uses the exact denoiser Jacobian; ``sigma_y`` is part of the uniform
    sub-step signature but the loss is unweighted (the caller folds any
    noise weighting into its guidance scale).
    """
    _, xhat0, jac = score_and_denoise(prior, x_t, sigma_t)
    grad, _ = _dps_gradient_parts(xhat0, jac, y, A)
    return grad


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
    x_hat0 = np.asarray(x_hat0, dtype=float)
    if kind == "ddnm_projection":
        return apply_pinv(A, np.asarray(y)) + x_hat0 - apply_pinv(A, apply_forward(A, x_hat0))
    if kind != "ddrm_step":
        raise ValueError(f"unknown spectral update kind {kind!r}")

    rng = _as_rng(seed)
    s = A.spectral_s()
    xb0 = A.V.T @ x_hat0
    yb = np.zeros(A.d)
    yb[: len(A.S)] = (A.U.T @ np.asarray(y))[: len(A.S)]
    with np.errstate(divide="ignore", invalid="ignore"):
        ob = np.where(s > 0, yb / np.where(s > 0, s, 1.0), 0.0)
        noise_scale = np.where(s > 0, sigma_y / np.where(s > 0, s, 1.0), np.inf)

    mean = np.empty(A.d)
    std = np.empty(A.d)
    if x_t is not None and sigma_prev is not None and sigma_prev > 0:
        xb_prev = A.V.T @ np.asarray(x_t, dtype=float)
        momentum = (xb_prev - xb0) / sigma_prev
        eta_null = eta
    else:
        momentum = np.zeros(A.d)
        eta_null = 1.0

    null = s == 0
    mean[null] = xb0[null] + np.sqrt(max(1 - eta_null**2, 0.0)) * sigma_t * momentum[null]
    std[null] = eta_null * sigma_t

    obs = ~null
    low = obs & (sigma_t < noise_scale)
    mean[low] = xb0[low] + np.sqrt(max(1 - eta**2, 0.0)) * sigma_t * (ob[low] - xb0[low]) / noise_scale[low]
    std[low] = eta * sigma_t

    high = obs & (sigma_t >= noise_scale)
    mean[high] = (1 - eta_b) * xb0[high] + eta_b * ob[high]
    var_high = sigma_t**2 - noise_scale[high] ** 2 * eta_b**2
    std[high] = np.sqrt(np.maximum(var_high, 0.0))

    xb = mean + std * rng.standard_normal(A.d)
    return A.V @ xb


def prox_data_step(x_hat0, y, A: LinearOperatorSVD, sigma_y: float, rho_t: float):
    """argmin_z ||y - A z||^2 / (2 sigma_y^2) + (rho_t / 2) ||z - x_hat0||^2.

    Solved coordinate-wise in the SVD basis.
    """
    if rho_t <= 0:
        raise ValueError("rho_t must be > 0")
    s = A.spectral_s()
    xb0 = A.V.T @ np.asarray(x_hat0, dtype=float)
    yb = np.zeros(A.d)
    yb[: len(A.S)] = (A.U.T @ np.asarray(y))[: len(A.S)]
    zb = (s * yb / sigma_y**2 + rho_t * xb0) / (s**2 / sigma_y**2 + rho_t)
    return A.V @ zb


def daps_langevin_step(x0, anchor, r_t: float, y, A: LinearOperatorSVD,
                       sigma_y: float, step_size: float, seed):
    """One unadjusted Langevin step on the anchored data posterior.

    Target: log pi(x) = -||y - A x||^2 / (2 sigma_y^2) - ||x - anchor||^2 / (2 r_t^2).
    """
    if step_size < 0:
        raise ValueError("step_size must be >= 0")
    if r_t <= 0:
        raise ValueError("r_t must be > 0")
    x0 = np.asarray(x0, dtype=float)
    if step_size == 0:
        return x0.copy()
    rng = _as_rng(seed)
    resid = np.asarray(y) - apply_forward(A, x0)
    drift = A.matrix().T @ resid / sigma_y**2 - (x0 - np.asarray(anchor)) / r_t**2
    return x0 + 0.5 * step_size * drift + np.sqrt(step_size) * rng.standard_normal(len(x0))


def reddiff_update(mu, y, A: LinearOperatorSVD, sigma_y: float,
                   kernel: ReverseKernel, lambda_reg: float, step_size: float, seed):
    """One stochastic descent step of the variational objective.

    Data term ||y - A mu||^2 / (2 sigma_y^2) plus a score-matching
    regularizer evaluated at a uniformly drawn level of the kernel's noise
    grid with unit weighting and a detached (analytic) noise prediction.
    """
    if step_size <= 0:
        raise ValueError("step_size must be > 0")
    rng = _as_rng(seed)
    mu = np.asarray(mu, dtype=float)
    level = int(rng.integers(0, kernel.sched.last_nonzero_index + 1))
    sigma = kernel.sched.grid[level]
    eps = rng.standard_normal(len(mu))
    score, _, _ = kernel.score_and_denoise(mu + sigma * eps, level)
    eps_hat = -sigma * score
    data_grad = A.matrix().T @ (apply_forward(A, mu) - np.asarray(y)) / sigma_y**2
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


def smc_resample(particles, weights, seed, scheme: str = "systematic") -> np.ndarray:
    """Resample a particle set; the caller resets weights to uniform."""
    particles = np.asarray(particles)
    w = np.asarray(weights, dtype=float)
    n = len(w)
    rng = _as_rng(seed)
    if scheme == "systematic":
        positions = (rng.random() + np.arange(n)) / n
        idx = np.searchsorted(np.cumsum(w), positions)
    elif scheme == "multinomial":
        idx = rng.choice(n, size=n, p=w)
    else:
        raise ValueError(f"unknown resampling scheme {scheme!r}")
    idx = np.minimum(idx, n - 1)
    return particles[idx]


# ---------------------------------------------------------------------------
# shared per-batch context
# ---------------------------------------------------------------------------

@dataclass
class SamplingContext:
    """Precomputation shared across the rows of one batch."""

    prior: GaussianMixture
    sched: NoiseSchedule
    kernel: ReverseKernel
    _fps_cache: dict = field(default_factory=dict)
    _posterior_cache: dict = field(default_factory=dict)

    @classmethod
    def build(cls, prior: GaussianMixture, sched: NoiseSchedule) -> "SamplingContext":
        return cls(prior=prior, sched=sched, kernel=ReverseKernel(prior, sched))


def _exact_posterior_cached(ctx: SamplingContext, m: Measurement) -> GaussianMixture:
    key = (id(m.operator), m.y.tobytes(), m.sigma_y)
    if key not in ctx._posterior_cache:
        ctx._posterior_cache[key] = exact_posterior(ctx.prior, m.operator, m.y, m.sigma_y)
    return ctx._posterior_cache[key]


# ---------------------------------------------------------------------------
# solver loops
# ---------------------------------------------------------------------------

def _init_noise(ctx: SamplingContext, rng, n=1) -> np.ndarray:
    return ctx.sched.sigma_max * rng.standard_normal((n, ctx.prior.dim))


def _sample_reference_exact(spec, m, ctx, rng):
    post = _exact_posterior_cached(ctx, m)
    return sample_mixture(post, 1, rng)[0], "ok"


def _sample_dps(spec, m, ctx, rng):
    scale = spec.hyperparameters["guidance_scale"]
    grid = ctx.sched.grid
    x = _init_noise(ctx, rng)
    for i in range(len(grid) - 1):
        base = ctx.kernel.step(x, i, rng)
        _, xhat0, jac = ctx.kernel.score_and_denoise(x[0], i)
        grad, resid_norm = _dps_gradient_parts(xhat0, jac, m.y, m.operator)
        zeta = scale / (resid_norm + 1e-12)
        x = base - zeta * grad
        if not np.all(np.isfinite(x)):
            return np.full(ctx.prior.dim, np.nan), f"diverged(step={i})"
    return x[0], "ok"


def _sample_daps(spec, m, ctx, rng):
    hp = spec.hyperparameters
    grid = ctx.sched.grid
    A = m.operator
    s_max_sq = float(np.max(A.spectral_s()) ** 2)
    x = _init_noise(ctx, rng)[0]
    for i in range(len(grid) - 1):
        r_t = grid[i]
        anchor = ctx.kernel.denoise(x, i)[0]
        # stable step: inverse of the stiffest precision of the local target
        eff_step = hp["step_size"] / (1.0 / r_t**2 + s_max_sq / m.sigma_y**2)
        x0 = anchor.copy()
        for _ in range(int(hp["langevin_steps"])):
            x0 = daps_langevin_step(x0, anchor, r_t, m.y, A, m.sigma_y, eff_step, rng)
        if not np.all(np.isfinite(x0)):
            return np.full(ctx.prior.dim, np.nan), f"diverged(step={i})"
        sig_next = grid[i + 1]
        x = x0 + sig_next * rng.standard_normal(len(x0)) if sig_next > 0 else x0
    return x, "ok"


def _sample_diffpir(spec, m, ctx, rng):
    lam_reg = spec.hyperparameters["lambda_reg"]
    grid = ctx.sched.grid
    x = _init_noise(ctx, rng)
    for i in range(len(grid) - 1):
        sigma = grid[i]
        base = ctx.kernel.step(x, i, rng)
        xhat0 = ctx.kernel.denoise(x, i)[0]
        z = prox_data_step(xhat0, m.y, m.operator, m.sigma_y, lam_reg / sigma**2)
        lam = grid[i + 1] ** 2 / sigma**2
        x = base + (1 - lam) * (z - xhat0)
        if not np.all(np.isfinite(x)):
            return np.full(ctx.prior.dim, np.nan), f"diverged(step={i})"
    return x[0], "ok"


def _sample_ddnm(spec, m, ctx, rng):
    grid = ctx.sched.grid
    x = _init_noise(ctx, rng)
    for i in range(len(grid) - 1):
        base = ctx.kernel.step(x, i, rng)
        xhat0 = ctx.kernel.denoise(x, i)[0]
        proj = spectral_consistency_update(
            "ddnm_projection", xhat0, m.y, m.operator, m.sigma_y, grid[i]
        )
        lam = grid[i + 1] ** 2 / grid[i] ** 2
        x = base + (1 - lam) * (proj - xhat0)
        if not np.all(np.isfinite(x)):
            return np.full(ctx.prior.dim, np.nan), f"diverged(step={i})"
    return x[0], "ok"


def _sample_ddrm(spec, m, ctx, rng):
    hp = spec.hyperparameters
    grid = ctx.sched.grid
    x = _init_noise(ctx, rng)[0]
    for i in range(len(grid) - 1):
        xhat0 = ctx.kernel.denoise(x, i)[0]
        x_new = spectral_consistency_update(
            "ddrm_step", xhat0, m.y, m.operator, m.sigma_y, grid[i + 1],
            eta=hp["eta"], eta_b=hp["eta_b"], seed=rng,
            x_t=x, sigma_prev=grid[i],
        )
        if not np.all(np.isfinite(x_new)):
            return np.full(ctx.prior.dim, np.nan), f"diverged(step={i})"
        x = x_new
    return x, "ok"


def _sample_reddiff(spec, m, ctx, rng):
    hp = spec.hyperparameters
    steps = int(hp["opt_steps"])
    mu = apply_pinv(m.operator, m.y)
    for t in range(steps):
        lr = hp["step_size"] * (1.0 - t / steps)
        mu = reddiff_update(mu, m.y, m.operator, m.sigma_y, ctx.kernel,
                            hp["lambda_reg"], lr, rng)
        if not np.all(np.isfinite(mu)):
            return np.full(ctx.prior.dim, np.nan), f"diverged(step={t})"
    return mu, "ok"


def _sample_pnpdm(spec, m, ctx, rng):
    hp = spec.hyperparameters
    rho = hp["rho_coupling"]
    mode = hp["x_step"]
    grid = ctx.sched.grid
    start = level_index_for_sigma(ctx.sched, rho)
    # data-informed start: observed directions from the pseudo-inverse,
    # unobserved directions from a prior draw; shortens the Gibbs burn-in
    x0 = sample_mixture(ctx.prior, 1, rng)[0]
    x = apply_pinv(m.operator, m.y) + x0 - apply_pinv(
        m.operator, apply_forward(m.operator, x0)
    )
    for g in range(int(hp["gibbs_iters"])):
        z = pnpdm_z_step(x, m.y, m.operator, m.sigma_y, rho, rng)
        if mode == "conjugate":
            x = sample_mixture(conjugate_denoising_posterior(ctx.prior, z, rho), 1, rng)[0]
        elif mode == "diffusion":
            xx = z[None, :]
            for i in range(start, len(grid) - 1):
                xx = ctx.kernel.step(xx, i, rng)
            x = xx[0]
        else:
            raise ValueError(f"unknown pnpdm x_step {mode!r}")
        if not np.all(np.isfinite(x)):
            return np.full(ctx.prior.dim, np.nan), f"diverged(step={g})"
    return x, "ok"


class _FpsPrecomp:
    """Level- and component-indexed matrices for the FPS conditional updates."""

    def __init__(self, ctx: SamplingContext, A: LinearOperatorSVD, sigma_y: float):
        kernel, sched = ctx.kernel, ctx.sched
        prior = ctx.prior
        d, C = prior.dim, prior.n_components
        grid = sched.grid
        s = A.spectral_s()
        n_trans = len(grid) - 2  # transitions between nonzero levels
        self.s = s
        self.post_chol = np.empty((n_trans, C, d, d))
        self.post_cov = np.empty((n_trans, C, d, d))
        self.trans_cov_inv = np.empty((n_trans, C, d, d))
        self.ev_chol = np.empty((n_trans, C, d, d))
        self.obs_precision = np.empty((n_trans, d))
        for i in range(n_trans):
            sig_next = grid[i + 1]
            # per-spectral-coordinate measurement-noise variance at the
            # target level: sigma_y^2 I + sigma_{i+1}^2 A A^T
            w = sigma_y**2 + sig_next**2 * s**2
            with np.errstate(divide="ignore"):
                self.obs_precision[i] = s**2 / w
            for c in range(C):
                Ccov = kernel._chol[i, c] @ kernel._chol[i, c].T
                Cinv = np.linalg.inv(Ccov)
                self.trans_cov_inv[i, c] = Cinv
                P = Cinv + A.V @ np.diag(self.obs_precision[i]) @ A.V.T
                cov = np.linalg.inv(P)
                self.post_cov[i, c] = cov
                self.post_chol[i, c] = np.linalg.cholesky(0.5 * (cov + cov.T))
                M = (
                    np.diag(s) @ (A.V.T @ Ccov @ A.V) @ np.diag(s)
                    + np.diag(w)
                )
                self.ev_chol[i, c] = np.linalg.cholesky(M)


def _fps_precomp(ctx: SamplingContext, A: LinearOperatorSVD, sigma_y: float) -> _FpsPrecomp:
    key = (id(A), sigma_y)
    if key not in ctx._fps_cache:
        ctx._fps_cache[key] = _FpsPrecomp(ctx, A, sigma_y)
    return ctx._fps_cache[key]


def _sample_fps_smc(spec, m, ctx, rng):
    n_p = int(spec.hyperparameters["particles"])
    prior, sched, kernel = ctx.prior, ctx.sched, ctx.kernel
    grid = sched.grid
    A = m.operator
    d, C = prior.dim, prior.n_components
    pre = _fps_precomp(ctx, A, m.sigma_y)
    s = pre.s

    # coupled measurement path y_j = y + A eta_j, built from sigma_min up
    n_levels = len(grid) - 1
    eta = np.empty((n_levels, d))
    eta[n_levels - 1] = grid[n_levels - 1] * rng.standard_normal(d)
    for j in range(n_levels - 2, -1, -1):
        eta[j] = eta[j + 1] + np.sqrt(grid[j] ** 2 - grid[j + 1] ** 2) * rng.standard_normal(d)
    y_path = m.y[None, :] + apply_forward(A, eta)

    obs = s > 0

    def log_potential(X, level, y_level):
        """Tempered likelihood over observed spectral coordinates:
        N(y_bar_j; s_j x_bar_j, sigma_y^2 + sigma_level^2 s_j^2)."""
        yb = np.zeros(d)
        yb[: len(A.S)] = (A.U.T @ y_level)[: len(A.S)]
        w_var = m.sigma_y**2 + grid[level] ** 2 * s**2
        diff = yb[obs] - (np.atleast_2d(X) @ A.V)[:, obs] * s[obs]
        return -0.5 * np.sum(diff**2 / w_var[obs] + np.log(2 * np.pi * w_var[obs]),
                             axis=1)

    X = _init_noise(ctx, rng, n_p)
    log_w = log_potential(X, 0, y_path[0])
    for i in range(n_levels - 1):
        yb = np.zeros(d)
        yb[: len(A.S)] = (A.U.T @ y_path[i + 1])[: len(A.S)]
        with np.errstate(divide="ignore", invalid="ignore"):
            # whitened pseudo-observation: literal division by the singular
            # values; zero singular values poison the update (by design)
            ob = yb / s
            p_ob = pre.obs_precision[i] * ob

        log_r = kernel.log_responsibilities(X, i)  # (n_p, C)
        means = np.empty((C, n_p, d))
        log_ev = np.empty((n_p, C))
        for c in range(C):
            means[c] = X @ kernel._B[i, c].T + kernel._a[i, c]
            mb = means[c] @ A.V * s  # S V^T mean, (n_p, d)
            diff = yb[None, :] - mb
            sol = solve_triangular(pre.ev_chol[i, c], diff.T, lower=True)
            logdet = 2.0 * np.sum(np.log(np.diag(pre.ev_chol[i, c])))
            log_ev[:, c] = -0.5 * (np.sum(sol**2, axis=0) + logdet + d * np.log(2 * np.pi))
        log_joint = log_r + log_ev
        log_pred = _logsumexp(log_joint, axis=1)
        # auxiliary-filter telescoping: fold in the predictive evidence for
        # the next level's potential and divide out this level's own
        log_w = log_w + log_pred - log_potential(X, i, y_path[i])
        log_w = log_w - _logsumexp(log_w)
        w = np.exp(log_w)
        if smc_ess(w / w.sum()) < n_p / 2:
            keep = smc_resample(np.arange(n_p), w / w.sum(), rng)
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
            nat = means[c][mask] @ pre.trans_cov_inv[i, c].T + (A.V @ p_ob)[None, :]
            mean_post = nat @ pre.post_cov[i, c].T
            X_new[mask] = mean_post + noise[mask] @ pre.post_chol[i, c].T
        X = X_new
        if not np.all(np.isfinite(X)):
            return (
                np.full(d, np.nan),
                f"diverged(step={i}; pseudo-inverse of zero singular values)",
            )

    last = n_levels - 1
    xhat0 = kernel.denoise(X, last)
    resid = m.y[None, :] - apply_forward(A, xhat0)
    log_w = (log_w - 0.5 * np.sum(resid**2, axis=1) / m.sigma_y**2
             - log_potential(X, last, y_path[last]))
    w = np.exp(log_w - _logsumexp(log_w))
    pick = int(rng.choice(len(w), p=w))
    return xhat0[pick], "ok"


def _sample_mcg_diff(spec, m, ctx, rng):
    n_p = int(spec.hyperparameters["particles"])
    prior, sched, kernel = ctx.prior, ctx.sched, ctx.kernel
    grid = sched.grid
    A = m.operator
    d = prior.dim
    s = A.spectral_s()
    obs = s == 1.0
    yb = np.zeros(d)
    yb[: len(A.S)] = (A.U.T @ m.y)[: len(A.S)]

    def log_potential(X, var):
        Xb = X @ A.V
        diff = Xb[:, obs] - yb[obs]
        k = int(obs.sum())
        return -0.5 * (np.sum(diff**2, axis=1) / var + k * np.log(2 * np.pi * var))

    X = _init_noise(ctx, rng, n_p)
    log_w = log_potential(X, m.sigma_y**2 + grid[0] ** 2)
    for i in range(len(grid) - 1):
        w = np.exp(log_w - _logsumexp(log_w))
        if smc_ess(w / w.sum()) < n_p / 2:
            keep = smc_resample(np.arange(n_p), w / w.sum(), rng)
            X = X[keep]
            log_w = np.zeros(n_p)
        g_old = log_potential(X, m.sigma_y**2 + grid[i] ** 2)
        X = kernel.step(X, i, rng)
        g_new = log_potential(X, m.sigma_y**2 + grid[i + 1] ** 2)
        log_w = log_w + g_new - g_old
        if not np.all(np.isfinite(X)):
            return np.full(d, np.nan), f"diverged(step={i})"
    w = np.exp(log_w - _logsumexp(log_w))
    pick = int(rng.choice(len(w), p=w))
    return X[pick], "ok"


_SAMPLERS = {
    "reference_exact": _sample_reference_exact,
    "dps": _sample_dps,
    "daps": _sample_daps,
    "diffpir": _sample_diffpir,
    "ddnm": _sample_ddnm,
    "ddrm": _sample_ddrm,
    "reddiff": _sample_reddiff,
    "pnpdm": _sample_pnpdm,
    "fps_smc": _sample_fps_smc,
    "mcg_diff": _sample_mcg_diff,
}


def sample_one(spec: SolverSpec, m: Measurement, prior: GaussianMixture,
               sched: NoiseSchedule, seed: int, ctx: SamplingContext | None = None):
    """One reconstruction; returns (vector, status).

    Divergence is recorded in the status, never raised: a non-finite
    iterate yields a NaN row with status ``diverged(step=...)``.
    """
    if m.operator.d != prior.dim:
        raise ValueError("measurement operator dimension does not match prior")
    if ctx is None:
        ctx = SamplingContext.build(prior, sched)
    rng = np.random.default_rng(seed)
    return _SAMPLERS[spec.name](spec, m, ctx, rng)


def run_batch(spec: SolverSpec, m: Measurement, prior: GaussianMixture,
              sched: NoiseSchedule, K: int, base_seed: int,
              ctx: SamplingContext | None = None) -> SampleBatch:
    """K independent reconstructions with per-row seeds derived from
    (base_seed, row index). Row k always equals a standalone ``sample_one``
    call with the same derived seed."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if ctx is None:
        ctx = SamplingContext.build(prior, sched)
    t0 = time.perf_counter()
    seeds = [derive_seed(base_seed, [("row", k)]) for k in range(K)]
    samples = np.empty((K, prior.dim))
    statuses = []
    for k, seed in enumerate(seeds):
        x, status = sample_one(spec, m, prior, sched, seed, ctx=ctx)
        samples[k] = x
        statuses.append(status)
    return SampleBatch(
        solver=spec, measurement=m, samples=samples, seeds=seeds,
        statuses=statuses, wall_time=time.perf_counter() - t0,
    )
