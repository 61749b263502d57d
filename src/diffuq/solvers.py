"""The benchmark's sampler zoo behind one uniform interface.

Ten solvers: an exact-posterior reference plus nine plug-and-play diffusion
samplers spanning three families (posterior-targeting, heuristic, MAP-like).
Each solver is assembled from small sub-steps that are tested on their own
against independent oracles. A solver sets up once per batch of cases (the
measurements of one ``Problem``: prior, schedule, operator and ``sigma_y``)
and returns ``rows(rngs, cases) -> (X, statuses)``, which advances all rows
of the batch together, row k drawing from row k of the streams ``rngs`` (a
``seeding._Streams``) and measuring case ``cases[k]``;
``run_cases`` draws the K-sample batches of several cases from one setup,
in row chunks of at most ``ROW_BUDGET`` rows.

Loop structures are documented in docs/solvers.md and frozen by tests.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .diffusion import (NoiseSchedule, ReverseKernel, level_index_for_sigma, _integral,
                        _row_levels)
from .gmm import (
    GaussianMixture,
    exact_posterior,
    _Posterior,
    _as_rng,
    _cho_solve_vec,
    _component_draws,
    _inverse_cdf,
    _logsumexp,
    _matvec_rows,
    _mixture_rows,
    _sample_mixture_rows,
    _vecmat_sets,
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
from .seeding import _Streams, row_seeds, streams

__all__ = [
    "SOLVER_NAMES",
    "SOLVER_FAMILIES",
    "SolverSpec",
    "SampleBatch",
    "Problem",
    "resolve_solver",
    "sample_one",
    "run_batch",
    "run_cases",
    "pnpdm_z_step",
    "conjugate_denoising_posterior",
    "dps_guidance_gradient",
    "ddnm_projection",
    "ddrm_step",
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
    """K reconstructions for one (solver, measurement) pair. ``wall_time``
    is the measurement's share of the ``run_cases`` call that drew them."""

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

def _aty(A: LinearOperatorSVD, y, sigma_y: float) -> np.ndarray:
    """``A^T y / sigma_y^2``, the z-step's data term for one measurement."""
    return A.matrix().T @ np.asarray(y) / sigma_y**2


def _z_step_sampler(A: LinearOperatorSVD, sigma_y: float, rho: float):
    """``pnpdm_z_step`` as a row-wise draw ``(X, aty, noise) -> Z``, with
    ``aty`` each row's ``_aty``, ``noise`` each row's d standard normals and
    the system, which depends only on (A, sigma_y, rho), factored once."""
    if sigma_y <= 0 or rho <= 0:
        raise ValueError("sigma_y and rho must be > 0")
    Amat = A.matrix()
    d = A.d
    prec = Amat.T @ Amat / sigma_y**2 + np.eye(d) / rho**2
    try:
        cf = cho_factor(prec, lower=True)
    except np.linalg.LinAlgError:
        raise ValueError("z-step system is not positive definite")
    cov = cho_solve(cf, np.eye(d))
    chol = np.linalg.cholesky(0.5 * (cov + cov.T))

    def draw(X, aty, noise):
        """One z per row of the (K, d) array ``X``; a row whose data term is
        not finite comes out not finite."""
        mean = _cho_solve_vec(cf, (aty + X / rho**2).T).T
        return mean + _matvec_rows(chol, noise)

    return draw


def pnpdm_z_step(x, y, A: LinearOperatorSVD, sigma_y: float, rho: float, seed):
    """Exact Gaussian draw of the likelihood variable in the split target.

    z ~ N(C (A^T y / sigma_y^2 + x / rho^2), C) with
    C = (A^T A / sigma_y^2 + I / rho^2)^{-1}.
    """
    return _z_step_sampler(A, sigma_y, rho)(np.asarray(x)[None], _aty(A, y, sigma_y)[None],
                                            _Streams([_as_rng(seed)]).normals(A.d))[0]


def conjugate_denoising_posterior(prior: GaussianMixture, z, rho: float) -> GaussianMixture:
    """Exact mixture proportional to p(x) N(x; z, rho^2 I).

    This is the oracle for the diffusion-based denoising step: both target
    the same conditional of the split joint distribution.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    identity = build_operator("identity", prior.dim)
    return exact_posterior(prior, identity, np.asarray(z, dtype=float), rho)


def dps_guidance_gradient(xhat0, jac, y, A: LinearOperatorSVD):
    """Gradient of 0.5 ||y - A x_hat0(x_t)||^2 w.r.t. x_t, and the residual
    norm ||y - A x_hat0||, per row of the denoiser output ``xhat0`` (K, d)
    and its exact Jacobians ``jac`` (K, d, d); ``y`` is one measurement or
    one per row (K, m).

    The loss is unweighted: the caller folds any noise weighting into its
    guidance scale.
    """
    resid = np.asarray(y) - _forward_rows(A, xhat0)
    grad = _matvec_rows(-jac.transpose(0, 2, 1), _matvec_rows(A.matrix().T, resid))
    return grad, np.sqrt((resid[:, None, :] @ resid[:, :, None])[:, 0, 0])


def ddnm_projection(x_hat0, pinv_y, A: LinearOperatorSVD):
    """Range-space replacement A^+ y + (I - A^+ A) x_hat0 of each row of
    ``x_hat0`` (K, d), given ``pinv_y = A^+ y`` (d,) or one per row (K, d)."""
    return pinv_y + x_hat0 - _pinv_rows(A, _forward_rows(A, x_hat0))


def ddrm_step(x_hat0, yb, A: LinearOperatorSVD, sigma_y: float, sigma_t: float,
              eta: float, eta_b: float, noise, x_t=None, sigma_prev=None):
    """The iterate at noise level ``sigma_t`` from each row of ``x_hat0``
    (K, d), given each row's d standard normals ``noise`` (K, d).

    Blends x_hat0 with the whitened spectral observation
    ``yb = A.spectral_y(y)``, (d,) or one per row (K, d), per singular
    value, with the regime split at
    sigma_t vs sigma_y / s_j. ``x_t``/``sigma_prev`` feed the unobserved-direction
    momentum term; without them the unobserved update is pure noise
    injection (eta = 1 behavior).
    """
    s = A.spectral_s()
    eta, eta_b = np.float64(eta), np.float64(eta_b)  # a huge eta squares to inf, not an error
    xb0 = _matvec_rows(A.V.T, x_hat0)
    safe_s = np.where(s > 0, s, 1.0)
    ob = np.broadcast_to(np.where(s > 0, yb / safe_s, 0.0), xb0.shape)
    noise_scale = np.where(s > 0, sigma_y / safe_s, np.inf)

    mean = np.empty(xb0.shape)
    std = np.empty(A.d)
    if x_t is not None and sigma_prev is not None and sigma_prev > 0:
        momentum = (_matvec_rows(A.V.T, x_t) - xb0) / sigma_prev
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
                    * (ob[:, low] - xb0[:, low]) / noise_scale[low])
    std[low] = eta * sigma_t

    high = obs & (sigma_t >= noise_scale)
    mean[:, high] = (1 - eta_b) * xb0[:, high] + eta_b * ob[:, high]
    var_high = sigma_t**2 - noise_scale[high] ** 2 * eta_b**2
    std[high] = np.sqrt(np.maximum(var_high, 0.0))

    xb = mean + std * noise
    return _matvec_rows(A.V, xb)


def prox_data_step(x_hat0, yb, A: LinearOperatorSVD, sigma_y: float, rho_t: float):
    """argmin_z ||y - A z||^2 / (2 sigma_y^2) + (rho_t / 2) ||z - x_hat0||^2
    for each row of ``x_hat0`` (K, d), given ``yb = A.spectral_y(y)``, (d,)
    or one per row (K, d).

    Solved coordinate-wise in the SVD basis.
    """
    if rho_t <= 0:
        raise ValueError("rho_t must be > 0")
    s = A.spectral_s()
    xb0 = _matvec_rows(A.V.T, x_hat0)
    zb = (s * yb / sigma_y**2 + rho_t * xb0) / (s**2 / sigma_y**2 + rho_t)
    return _matvec_rows(A.V, zb)


def daps_langevin_step(x0, anchor, r_t: float, y, A: LinearOperatorSVD,
                       sigma_y: float, step_size: float, noise):
    """One unadjusted Langevin step on the anchored data posterior for each
    row of ``x0`` (K, d) and ``anchor``, given each row's d standard normals
    ``noise`` (K, d); ``y`` is one measurement or one per row (K, m).

    Target: log pi(x) = -||y - A x||^2 / (2 sigma_y^2) - ||x - anchor||^2 / (2 r_t^2).
    A zero step returns a copy of ``x0`` and uses no noise.
    """
    if step_size < 0:
        raise ValueError("step_size must be >= 0")
    if r_t <= 0:
        raise ValueError("r_t must be > 0")
    if step_size == 0:
        return x0.copy()
    resid = np.asarray(y) - _forward_rows(A, x0)
    drift = _matvec_rows(A.matrix().T, resid) / sigma_y**2 - (x0 - anchor) / r_t**2
    return x0 + 0.5 * step_size * drift + np.sqrt(step_size) * noise


def reddiff_update(mu, y, A: LinearOperatorSVD, sigma_y: float,
                   kernel: ReverseKernel, lambda_reg: float, step_size: float, levels, eps):
    """One stochastic descent step of the variational objective for each
    row of ``mu`` (K, d), given each row's uniform draw ``levels`` (K,) of
    the kernel's nonzero levels and its standard normals ``eps`` (K, d);
    ``y`` is one measurement or one per row (K, m).

    Data term ||y - A mu||^2 / (2 sigma_y^2) plus a score-matching
    regularizer at each row's level with unit weighting and a detached
    (analytic) noise prediction. A level that is not an integer in
    0..``last_nonzero_index`` raises ``score_rows``' ValueError.
    """
    if step_size <= 0:
        raise ValueError("step_size must be > 0")
    levels = _row_levels(kernel.sched, levels, len(mu))
    sigma = kernel.sched.grid[levels][:, None]
    score = kernel.score_rows(mu + sigma * eps, levels)
    eps_hat = -sigma * score
    data_grad = _matvec_rows(A.matrix().T, _forward_rows(A, mu) - np.asarray(y)) / sigma_y**2
    return mu - step_size * (data_grad + lambda_reg * (eps_hat - eps))


def _checked_weights(weights, ndim: int = 1) -> np.ndarray:
    """``weights`` as a float array of ``ndim`` dimensions (a stack of
    weight vectors for ``ndim`` 2), which must be finite and >= 0, and
    whose every vector must sum to 1 within 1e-12."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != ndim:
        raise ValueError("weights must be a 1-D vector")
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise ValueError("weights must be finite and >= 0")
    total = w.sum(axis=-1)
    if (total == 0).any():
        raise ValueError("all-zero weight vector")
    if (abs(total - 1.0) > 1e-12).any():
        raise ValueError("weights must be normalized within 1e-12")
    return w


def smc_ess(weights) -> float:
    """Effective sample size 1 / sum(w^2) of a normalized weight vector."""
    w = _checked_weights(weights)
    return float(1.0 / np.sum(w**2))


def smc_resample(particles, weights, seed) -> np.ndarray:
    """Systematic resampling of a particle set by its normalized weights,
    one per particle (checked as ``smc_ess`` checks them); the caller
    resets weights to uniform."""
    particles = np.asarray(particles)
    w = _checked_weights(weights)
    n = len(w)
    if len(particles) != n:
        raise ValueError(f"give one weight per particle: {n} weights, {len(particles)} particles")
    rng = _as_rng(seed)
    positions = (rng.random() + np.arange(n)) / n
    idx = np.minimum(np.searchsorted(np.cumsum(w), positions), n - 1)
    return particles[idx]


# ---------------------------------------------------------------------------
# the problem every batch samples, and the divergence exit
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Problem:
    """One inverse problem, shared by every solver and the oracle. Its
    constants are built on first use and kept: ``kernel``, the exact reverse
    kernel of the diffusion samplers, and ``posterior``, the exact posterior
    that reference_exact and the oracle condition on each measurement."""

    prior: GaussianMixture
    sched: NoiseSchedule
    operator: LinearOperatorSVD
    sigma_y: float

    def __post_init__(self):
        if self.operator.d != self.prior.dim:
            raise ValueError("measurement operator dimension does not match prior")

    @functools.cached_property
    def kernel(self) -> ReverseKernel:
        return ReverseKernel(self.prior, self.sched)

    @functools.cached_property
    def posterior(self) -> _Posterior:
        return _Posterior(self.prior, self.operator, self.sigma_y)

    def check_measurements(self, ms) -> None:
        """Reject a measurement of another operator object or ``sigma_y``."""
        if any(m.operator is not self.operator or m.sigma_y != self.sigma_y for m in ms):
            raise ValueError("each measurement must use the problem's operator and sigma_y")


class SamplingContext:
    """For the benchmark's calls only; ``run_batch`` ignores what it builds."""

    @staticmethod
    def build(prior: GaussianMixture, sched: NoiseSchedule):
        return prior, sched


class _Rows:
    """The rows of one batch that are still running.

    Holds the running rows' streams (``rngs``, a ``seeding._Streams``) and
    their per-row constants, and the batch's result rows and statuses. The
    constants are the ``per_case`` arrays, one entry per case, gathered by
    the row's case in ``cases``, and each is an attribute (``out.y``). A row
    whose iterate turns non-finite gets a NaN result row and its
    ``diverged(step=...)`` status, and leaves with its generator and
    constants; the others keep going.
    """

    def __init__(self, rngs, dim: int, cases=None, **per_case):
        self.rngs = rngs
        self.index = np.arange(len(self.rngs))
        self.samples = np.full((len(self.rngs), dim), np.nan)
        self.statuses = ["ok"] * len(self.rngs)
        self._per_row = tuple(per_case)
        for key, values in per_case.items():
            setattr(self, key, values[cases])

    def steps(self, n: int):
        """``range(n)``, cut short once no row is running."""
        for i in range(n):
            if not self.rngs:
                return
            yield i

    def finite(self, X: np.ndarray, step: int, *companions, why: str = ""):
        """The running rows of ``X`` after the rows with a non-finite entry
        leave at ``step``. With ``companions``, arrays that hold a value per
        running row, the tuple of ``X`` and their running rows."""
        ok = np.isfinite(X).all(axis=tuple(range(1, X.ndim)))
        if not ok.all():
            for k in self.index[~ok]:
                self.statuses[k] = f"diverged(step={step}{'; ' + why if why else ''})"
            self.index = self.index[ok]
            self.rngs.keep(ok)
            for key in self._per_row:
                setattr(self, key, getattr(self, key)[ok])
            X, companions = X[ok], tuple(a[ok] for a in companions)
        return (X, *companions) if companions else X

    def done(self, X: np.ndarray):
        """(samples, statuses) of the batch, with ``X`` the running rows."""
        self.samples[self.index] = X
        return self.samples, self.statuses


# ---------------------------------------------------------------------------
# solver loops: ``_sample_<name>(spec, problem, ms)`` does the work for the
# measurements ``ms`` once and returns ``rows(rngs, cases) -> (X, statuses)``,
# which draws row k from row k of the streams ``rngs`` for ``ms[cases[k]]``.
# Constants of the operator and sigma_y are built once; those of y are built
# per case with the one-case code and gathered per row
# ---------------------------------------------------------------------------

def _per_case(ms, f) -> np.ndarray:
    """``f(m.y)`` of each measurement, stacked on a leading case axis."""
    return np.array([f(m.y) for m in ms])


def _row_loop(problem: Problem, n: int, update, start=None, **per_case):
    """``rows`` of a sampler with one (K, d) iterate: from ``start(out)``
    (default: one start at ``sigma_max`` per row, from that row's generator)
    it takes the ``n`` steps ``X = update(X, i, out)``, which draw every
    number they use from ``out.rngs``, the running rows' streams, next to
    their ``per_case`` constants; a row whose update is not finite leaves."""
    def rows(rngs, cases):
        out = _Rows(rngs, problem.prior.dim, cases, **per_case)
        X = start(out) if start else problem.sched.sigma_max * out.rngs.normals(problem.prior.dim)
        for i in out.steps(n):
            X = out.finite(update(X, i, out), i)
        return out.done(X)

    return rows


def _sample_reference_exact(spec, problem, ms):
    post = problem.posterior
    weights, means = post.condition(_per_case(ms, np.asarray))

    def rows(rngs, cases):
        out = _Rows(rngs, problem.prior.dim)
        X = _mixture_rows(weights[cases], means[cases], post.chols, out.rngs)
        return out.done(out.finite(X, 0, why="posterior is not finite"))

    return rows


def _kernel_guided(problem, pull, **per_case):
    """Rows of a heuristic that adds ``pull(X, i, out)`` to every exact
    kernel step."""
    return _row_loop(problem, len(problem.sched.grid) - 1,
                     lambda X, i, out: problem.kernel.step_rows(X, i, out.rngs) + pull(X, i, out),
                     **per_case)


def _sample_dps(spec, problem, ms):
    scale = spec.hyperparameters["guidance_scale"]
    A = problem.operator

    def pull(X, i, out):
        _, xhat0, jac = problem.kernel.score_and_denoise_rows(X, i)
        grad, resid_norm = dps_guidance_gradient(xhat0, jac, out.y, A)
        return -(scale / (resid_norm[:, None] + 1e-12)) * grad

    return _kernel_guided(problem, pull, y=_per_case(ms, np.asarray))


def _sample_daps(spec, problem, ms):
    hp = spec.hyperparameters
    A, sigma_y, grid = problem.operator, problem.sigma_y, problem.sched.grid
    s_max_sq = float(np.max(A.spectral_s()) ** 2)
    # stable step: inverse of the stiffest precision of the local target
    eff_steps = [hp["step_size"] / (1.0 / r_t**2 + s_max_sq / sigma_y**2)
                 for r_t in grid[:-1]]

    def update(X, i, out):
        # one block per level: each Langevin step's normals (none for a
        # zero step, which uses none), then the re-noise unless the next
        # level is 0
        anchor = problem.kernel.denoise_rows(X, i)
        n = hp["langevin_steps"] if eff_steps[i] > 0 else 0
        noise = out.rngs.normals((n + (grid[i + 1] > 0), A.d))
        X0 = anchor
        for j in range(n):
            X0 = daps_langevin_step(X0, anchor, grid[i], out.y, A, sigma_y, eff_steps[i],
                                    noise[:, j])
        return X0 + grid[i + 1] * noise[:, n] if grid[i + 1] > 0 else X0

    return _row_loop(problem, len(eff_steps), update, y=_per_case(ms, np.asarray))


def _sample_diffpir(spec, problem, ms):
    lam_reg = spec.hyperparameters["lambda_reg"]
    A, sigma_y, grid = problem.operator, problem.sigma_y, problem.sched.grid

    def pull(X, i, out):
        xhat0 = problem.kernel.denoise_rows(X, i)
        z = prox_data_step(xhat0, out.yb, A, sigma_y, lam_reg / grid[i] ** 2)
        lam = grid[i + 1] ** 2 / grid[i] ** 2
        return (1 - lam) * (z - xhat0)

    return _kernel_guided(problem, pull, yb=_per_case(ms, A.spectral_y))


def _sample_ddnm(spec, problem, ms):
    A, grid = problem.operator, problem.sched.grid

    def pull(X, i, out):
        xhat0 = problem.kernel.denoise_rows(X, i)
        proj = ddnm_projection(xhat0, out.pinv_y, A)
        lam = grid[i + 1] ** 2 / grid[i] ** 2
        return (1 - lam) * (proj - xhat0)

    return _kernel_guided(problem, pull, pinv_y=_per_case(ms, lambda y: apply_pinv(A, y)))


def _sample_ddrm(spec, problem, ms):
    hp = spec.hyperparameters
    A, sigma_y, grid = problem.operator, problem.sigma_y, problem.sched.grid

    def update(X, i, out):
        return ddrm_step(problem.kernel.denoise_rows(X, i), out.yb, A, sigma_y, grid[i + 1],
                         hp["eta"], hp["eta_b"], out.rngs.normals(A.d), X, grid[i])

    return _row_loop(problem, len(grid) - 1, update, yb=_per_case(ms, A.spectral_y))


def _sample_reddiff(spec, problem, ms):
    hp = spec.hyperparameters
    steps = hp["opt_steps"]
    A, sigma_y = problem.operator, problem.sigma_y

    def update(mu, t, out):
        lr = hp["step_size"] * (1.0 - t / steps)
        levels = out.rngs.below(problem.sched.last_nonzero_index + 1)
        return reddiff_update(mu, out.y, A, sigma_y, problem.kernel, hp["lambda_reg"], lr, levels,
                              out.rngs.normals(A.d))

    return _row_loop(problem, steps, update, start=lambda out: out.mu0,
                     y=_per_case(ms, np.asarray), mu0=_per_case(ms, lambda y: apply_pinv(A, y)))


def _sample_pnpdm(spec, problem, ms):
    hp = spec.hyperparameters
    rho = hp["rho_coupling"]
    mode = hp["x_step"]
    prior, A, sigma_y = problem.prior, problem.operator, problem.sigma_y
    grid = problem.sched.grid
    first = level_index_for_sigma(problem.sched, rho)
    z_step = _z_step_sampler(A, sigma_y, rho)
    if mode == "conjugate":
        # the x-step's exact draw from p(x) N(x; z, rho^2 I), whose
        # constants do not depend on z
        denoise = _Posterior(prior, build_operator("identity", prior.dim), rho)

    def start(out):
        # data-informed start: observed directions from the pseudo-inverse,
        # unobserved directions from a prior draw; shortens the Gibbs burn-in
        return ddnm_projection(_sample_mixture_rows(prior, out.rngs), out.pinv_y, A)

    def update(X, g, out):
        Z = out.finite(z_step(X, out.aty, out.rngs.normals(prior.dim)), g)
        if not len(Z):
            return Z
        if mode == "conjugate":
            return _mixture_rows(*denoise.condition(Z), denoise.chols, out.rngs)
        for i in range(first, len(grid) - 1):
            Z = problem.kernel.step_rows(Z, i, out.rngs)
        return Z

    return _row_loop(problem, hp["gibbs_iters"], update, start,
                     aty=_per_case(ms, lambda y: _aty(A, y, sigma_y)),
                     pinv_y=_per_case(ms, lambda y: apply_pinv(A, y)))


def _resample(log_w, rngs, *particles) -> np.ndarray:
    """Systematic resampling of the rows whose effective sample size is below
    half their particle count, given the (K, n) log-weights ``log_w``
    normalised per row; returns those rows' indices. Row k's ESS and draw are
    those of ``smc_ess`` and ``smc_resample`` on ``exp(log_w[k])`` divided by
    its sum, with row k of the streams ``rngs`` (one uniform per resampled row), and
    the drawn indices permute axis 1 (the particles) of row k of each of
    ``particles`` in place. A row whose weights are not finite is not
    resampled."""
    w = np.exp(log_w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    n = w.shape[-1]
    rows = np.flatnonzero(1.0 / np.add.reduce(w**2, axis=-1) < n / 2)
    if rows.size:
        cum = np.cumsum(_checked_weights(w[rows], ndim=2), axis=-1)
        positions = (rngs.take(rows).uniforms()[:, None] + np.arange(n)) / n
        # ``searchsorted(cum, positions)`` per row: the number of cum entries
        # below each position. One stable sort per row of the positions
        # followed by cum puts each position after the smaller cum entries,
        # its predecessors and nothing else, so its place minus its index
        # is that number.
        order = np.argsort(np.concatenate([positions, cum], axis=-1), axis=-1, kind="stable")
        place = np.empty_like(order)
        np.put_along_axis(place, order, np.arange(2 * n), axis=-1)
        keep = np.minimum(place[:, :n] - np.arange(n), n - 1)
        for a in particles:
            a[rows] = a[rows[:, None], keep]
    return rows


def _picks(out: _Rows, X, log_w, step: int):
    """``out.done`` of row j's final particle of the (K, n, d) particles
    ``X``, drawn by its normalised weights ``exp(log_w[j])`` with row j of
    the streams ``out.rngs``. A row whose weights are not finite leaves at ``step``.

    The draw is ``rng.choice(n, p=w)``'s inverse-CDF draw without its check
    that ``w`` sums to 1 within 1e-8: for log-weights of size 1e8 or more
    (a tiny ``sigma_y``) ``exp(log_w - logsumexp(log_w))`` misses that by
    their rounding error, and the CDF's division by its last entry
    normalises them anyway."""
    w = np.exp(log_w - _logsumexp(log_w, axis=-1, keepdims=True))
    w, X = out.finite(w, step, X, why="final weights are not finite")
    cdf = w.cumsum(axis=-1)
    cdf /= cdf[:, -1:]
    return out.done(X[np.arange(len(X)), _inverse_cdf(cdf, out.rngs.uniforms())])


def _sample_fps_smc(spec, problem, ms):
    n_p = spec.hyperparameters["particles"]
    kernel, grid = problem.kernel, problem.sched.grid
    A, sigma_y = problem.operator, problem.sigma_y
    d, C = problem.prior.dim, problem.prior.n_components
    s = A.spectral_s()
    obs = s > 0
    n_levels = len(grid) - 1

    # level- and component-indexed matrices of the conditional updates, one
    # per transition between nonzero levels, built as stacks over the
    # (level, component) axes
    n_trans = n_levels - 1
    trans_cov = kernel._chol @ kernel._chol.swapaxes(-1, -2)
    trans_cov_inv = np.linalg.inv(trans_cov)
    # per-spectral-coordinate measurement-noise variance at the target
    # level: sigma_y^2 I + sigma_{i+1}^2 A A^T
    w = sigma_y**2 + grid[1 : n_trans + 1, None] ** 2 * s**2
    obs_precision = s**2 / w
    P = trans_cov_inv + (A.V @ (np.eye(d) * obs_precision[:, None, :]) @ A.V.T)[:, None]
    post_cov = np.linalg.inv(P)
    post_chol = np.linalg.cholesky(0.5 * (post_cov + post_cov.swapaxes(-1, -2)))
    ev_chol = np.linalg.cholesky(np.diag(s) @ (A.V.T @ trans_cov @ A.V) @ np.diag(s)
                                 + (np.eye(d) * w[:, None, :])[:, None])
    ev_logdet = 2.0 * np.sum(np.log(np.diagonal(ev_chol, axis1=-2, axis2=-1)), axis=-1)
    Y = _per_case(ms, np.asarray)

    def log_potential(X, level, yb):
        """Tempered likelihood of the (K, n_p, d) particles over observed
        spectral coordinates, given each row's spectral observation ``yb``
        (K, d) at ``level``: N(y_bar_j; s_j x_bar_j, sigma_y^2 + sigma_level^2 s_j^2)."""
        w_var = sigma_y**2 + grid[level] ** 2 * s**2
        diff = yb[:, obs][:, None, :] - (X @ A.V)[..., obs] * s[obs]
        return -0.5 * np.sum(diff**2 / w_var[obs] + np.log(2 * np.pi * w_var[obs]),
                             axis=-1)

    # the scale of each level's path noise, from sigma_min up: eta at the
    # last nonzero level is grid[-2] times d normals, and each level above
    # adds sqrt(grid[j]^2 - grid[j+1]^2) times d more
    path_scale = np.array([grid[n_levels - 1]] + [np.sqrt(grid[j] ** 2 - grid[j + 1] ** 2)
                                                  for j in range(n_levels - 2, -1, -1)])

    def batch(rngs, cases):
        out = _Rows(rngs, d, cases, y=Y)
        # each row's coupled measurement path y_j = y + A eta_j in the
        # spectral basis, (K, n_levels, d): eta sums one (n_levels, d) block
        # of the row's normals from sigma_min up, then goes in level order,
        # contiguous, so that its product runs the BLAS call of a one-row run
        eta = np.cumsum(path_scale[:, None] * out.rngs.normals((n_levels, d)), axis=1)
        yb_path = A.spectral_y(out.y[:, None, :]
                               + apply_forward(A, np.ascontiguousarray(eta[:, ::-1])))
        X = problem.sched.sigma_max * out.rngs.normals((n_p, d))
        log_w = log_potential(X, 0, yb_path[:, 0])
        for i in out.steps(n_trans):
            K = len(out.rngs)
            yb = yb_path[:, i + 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                # whitened pseudo-observation: literal division by the singular
                # values; zero singular values poison the update (by design)
                ob = yb / s
                p_ob = obs_precision[i] * ob

            log_r = kernel.log_responsibilities(X.reshape(K * n_p, d), i)
            means = np.empty((C, K, n_p, d))
            log_ev = np.empty((K * n_p, C))
            for c in range(C):
                means[c] = X @ kernel._B[i, c].T + kernel._a[i, c]
                diff = yb[:, None, :] - means[c] @ A.V * s  # y - S V^T mean
                sol = solve_triangular(ev_chol[i, c], diff.reshape(K * n_p, d).T, lower=True)
                log_ev[:, c] = -0.5 * (np.sum(sol**2, axis=0) + ev_logdet[i, c]
                                       + d * np.log(2 * np.pi))
            log_joint = (log_r + log_ev).reshape(K, n_p, C)
            log_pred = _logsumexp(log_joint, axis=-1)
            # auxiliary-filter telescoping: fold in the predictive evidence for
            # the next level's potential and divide out this level's own
            log_w = log_w + log_pred - log_potential(X, i, yb_path[:, i])
            log_w = log_w - _logsumexp(log_w, axis=-1, keepdims=True)
            log_w[_resample(log_w, out.rngs, X, np.moveaxis(means, 0, 2), log_joint,
                            log_pred)] = -np.log(n_p)

            # propagate from the conditional p(x_{i+1} | x_i, y_{i+1})
            comp_p = np.exp(log_joint - log_pred[..., None])
            comp = _inverse_cdf(np.cumsum(comp_p, axis=-1), out.rngs.uniforms(n_p)).ravel()
            noise = out.rngs.normals((n_p, d)).reshape(K * n_p, d)
            pull = _matvec_rows(A.V, p_ob)  # V (precision-weighted pseudo-observation)
            sets = np.repeat(np.arange(K), n_p)

            def mean_post(c, rows, alone):
                nat = (_vecmat_sets(means[c].reshape(K * n_p, d)[rows], trans_cov_inv[i, c].T,
                                    alone) + pull[sets[rows]])
                return _vecmat_sets(nat, post_cov[i, c].T, alone)

            X_new = _component_draws(comp, noise, post_chol[i], mean_post, sets)
            X, log_w, yb_path = out.finite(X_new.reshape(K, n_p, d), i, log_w, yb_path,
                                           why="pseudo-inverse of zero singular values")

        last = n_levels - 1
        xhat0 = kernel.denoise(X.reshape(-1, d), last).reshape(X.shape)
        resid = out.y[:, None, :] - apply_forward(A, xhat0)
        log_w = (log_w - 0.5 * np.sum(resid**2, axis=-1) / sigma_y**2
                 - log_potential(X, last, yb_path[:, last]))
        return _picks(out, xhat0, log_w, last)

    return batch


def _sample_mcg_diff(spec, problem, ms):
    A, sigma_y = problem.operator, problem.sigma_y
    if not A.is_binary():
        raise ValueError("mcg_diff requires an operator with binary singular values")
    n_p = spec.hyperparameters["particles"]
    kernel, grid = problem.kernel, problem.sched.grid
    obs = A.spectral_s() == 1.0
    k = int(obs.sum())
    yb_obs = _per_case(ms, lambda y: A.spectral_y(y)[obs])

    def log_potential(X, var, yb_obs):
        """(K, n_p) log potentials of the (K, n_p, d) particles, given each
        row's observed spectral coordinates ``yb_obs`` (K, k)."""
        diff = (X @ A.V)[..., obs] - yb_obs[:, None, :]
        return -0.5 * (np.sum(diff**2, axis=-1) / var + k * np.log(2 * np.pi * var))

    def batch(rngs, cases):
        out = _Rows(rngs, A.d, cases, yb_obs=yb_obs)
        X = problem.sched.sigma_max * out.rngs.normals((n_p, A.d))
        log_w = log_potential(X, sigma_y**2 + grid[0] ** 2, out.yb_obs)
        for i in out.steps(len(grid) - 1):
            log_w[_resample(log_w - _logsumexp(log_w, axis=-1, keepdims=True), out.rngs, X)] = 0.0
            g_old = log_potential(X, sigma_y**2 + grid[i] ** 2, out.yb_obs)
            X, log_w, g_old = out.finite(kernel.step_sets(X, i, out.rngs), i, log_w, g_old)
            log_w = log_w + log_potential(X, sigma_y**2 + grid[i + 1] ** 2, out.yb_obs) - g_old
        return _picks(out, X, log_w, len(grid) - 1)

    return batch


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

# ``run_cases`` advances a batch's rows, case after case, in flat chunks of
# at most this many rows, so a case may span two chunks. Larger chunks
# share each step's Python and numpy dispatch among more rows, but mcg_diff
# with 64 particles slows down past about 500 rows (14.4 to 17.9 ms per row
# at 1000), and every row holds a generator until its chunk ends;
# BENCH_pr10.json holds the sweep that chose the value.
ROW_BUDGET = 500

# float hyperparameters that must be > 0, not merely >= 0
_POSITIVE = {("pnpdm", "rho_coupling"), ("reddiff", "step_size"), ("diffpir", "lambda_reg")}

SOLVER_FAMILIES = {name: family for name, (family, _, _) in _SOLVERS.items()}
SOLVER_NAMES = tuple(_SOLVERS)


def _setup(spec: SolverSpec, problem: Problem, ms):
    """The solver's ``rows(rngs, cases) -> (X, statuses)`` for ``ms``."""
    problem.check_measurements(ms)
    return _entry(spec.name)[2](spec, problem, ms)


def sample_one(spec: SolverSpec, problem: Problem, m: Measurement, seed: int):
    """One reconstruction; returns (vector, status). Divergence is recorded
    in the status, never raised: a non-finite iterate yields a NaN row with
    status ``diverged(step=...)``."""
    rows = _setup(spec, problem, [m])
    samples, statuses = rows(_Streams([np.random.default_rng(seed)]), np.zeros(1, dtype=int))
    return samples[0], statuses[0]


def run_cases(spec: SolverSpec, problem: Problem, ms, K: int, base_seeds) -> list:
    """K independent reconstructions for each measurement of ``ms`` (each
    of ``problem``'s operator and ``sigma_y``), one ``SampleBatch`` each. Row
    k of case n draws from ``default_rng(derive_seed(base_seeds[n], [("row",
    k)]))``, through ``seeding.streams``.

    The solver sets up once, then advances the cases' rows, in order, in
    chunks of at most ``ROW_BUDGET`` rows, so a case may span two chunks. A
    row's bits do not depend on the other rows, so every batch equals
    ``run_cases`` of its case alone and row k a standalone ``sample_one``
    with its seed. Each batch's ``wall_time`` is its share (1 / len(ms)) of
    the call.
    """
    if not _integral(K) or K < 1:
        raise ValueError(f"K must be an integer >= 1, got {K!r}")
    if not ms or len(base_seeds) != len(ms):
        raise ValueError("give one base seed per measurement, and at least one measurement")
    if not all(map(_integral, base_seeds)):
        raise ValueError(f"base seeds must be integers, got {list(base_seeds)!r}")
    t0 = time.perf_counter()
    rows = _setup(spec, problem, ms)
    seeds = np.array([row_seeds(base, K) for base in base_seeds])
    flat, cases = seeds.ravel(), np.repeat(np.arange(len(ms)), K)
    # a one-particle row's solves would share columns with the other rows',
    # and a one-column solve has other bits
    size = 1 if spec.hyperparameters.get("particles") == 1 else ROW_BUDGET
    samples, statuses = np.empty((len(flat), problem.prior.dim)), []
    for a in range(0, len(flat), size):
        samples[a : a + size], st = rows(streams(flat[a : a + size]), cases[a : a + size])
        statuses += st
    share = (time.perf_counter() - t0) / len(ms)
    return [SampleBatch(solver=spec, measurement=m, samples=samples[n * K : (n + 1) * K],
                        seeds=seeds[n].tolist(), statuses=statuses[n * K : (n + 1) * K],
                        wall_time=share)
            for n, m in enumerate(ms)]


def run_batch(spec: SolverSpec, m: Measurement, prior: GaussianMixture,
              sched: NoiseSchedule, K: int, base_seed: int, ctx=None) -> SampleBatch:
    """``run_cases`` of ``m`` on a fresh ``Problem``, for the benchmark's calls
    (``ctx`` is ignored)."""
    return run_cases(spec, Problem(prior, sched, m.operator, m.sigma_y), [m], K, [base_seed])[0]
