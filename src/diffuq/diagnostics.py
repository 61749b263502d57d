"""Calibration and variance diagnostics computed from sample batches.

Three reports: interval coverage of the per-coordinate mu +/- z*sigma rule,
the observed/null-space variance decomposition in the operator's SVD basis,
and pooled per-sample RMSE. ``oracle_reference`` produces the analytic
targets those reports are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gmm import GaussianMixture, _Posterior, _moments
from .operators import LinearOperatorSVD

__all__ = [
    "CoverageReport",
    "ObsNullReport",
    "AccuracyReport",
    "coverage_eval",
    "obs_null_variance",
    "rmse_eval",
    "variance_vs_k",
    "oracle_reference",
]


@dataclass
class CoverageReport:
    """Per-(case, coordinate) interval hits and their aggregates."""

    per_case_per_dim_hits: np.ndarray  # (n_valid_cases, d), 0/1
    coverage_global: float
    mean_interval_width: float
    per_dim_variance: np.ndarray  # (d,), averaged over valid cases
    invalid_cases: int = 0


@dataclass
class ObsNullReport:
    """Sample variance split between observed and null singular directions."""

    per_dim_variance_svd: np.ndarray  # (d,), averaged over cases
    var_obs: float
    var_null: float
    ratio_null_obs: float


@dataclass
class AccuracyReport:
    rmse_mean: float
    rmse_std: float
    per_sample_rmse: np.ndarray = field(default_factory=lambda: np.empty(0))


def _ok_samples(batch) -> np.ndarray:
    return batch.samples[batch.ok_mask()]


def _check_lengths(batches, ground_truths) -> None:
    if len(batches) != len(ground_truths):
        raise ValueError(f"{len(batches)} batches for {len(ground_truths)} ground truths; "
                         "give one ground truth per batch")


def coverage_eval(batches, ground_truths, alpha_z: float = 1.96) -> CoverageReport:
    """Interval-coverage evaluation over N cases.

    For each case, per-coordinate sample mean and (ddof=1) standard deviation
    form the interval mu +/- alpha_z * sigma; the report aggregates hit
    indicators over all (case, coordinate) pairs. Cases without at least two
    valid rows are excluded and counted in ``invalid_cases``.
    """
    _check_lengths(batches, ground_truths)
    hits, widths, variances = [], [], []
    invalid = 0
    for batch, x_star in zip(batches, ground_truths):
        X = _ok_samples(batch)
        if len(X) < 2:
            invalid += 1
            continue
        mu = X.mean(axis=0)
        sd = X.std(axis=0, ddof=1)
        hits.append((np.abs(np.asarray(x_star) - mu) <= alpha_z * sd).astype(float))
        widths.append(2.0 * alpha_z * sd)
        variances.append(X.var(axis=0, ddof=1))
    if not hits:
        raise ValueError("no case had at least two valid rows")
    hits = np.array(hits)
    return CoverageReport(
        per_case_per_dim_hits=hits,
        coverage_global=float(hits.mean()),
        mean_interval_width=float(np.mean(widths)),
        per_dim_variance=np.mean(variances, axis=0),
        invalid_cases=invalid,
    )


def obs_null_variance(batches, A: LinearOperatorSVD) -> ObsNullReport:
    """Variance decomposition in the SVD basis of a binary operator.

    Samples are projected onto the right singular vectors (z = V^T x); the
    per-coordinate variances are averaged over cases and then split into
    observed (S_j = 1) and null (S_j = 0) means.
    """
    if not A.is_binary():
        raise ValueError("obs_null_variance requires binary singular values")
    per_case = []
    for batch in batches:
        X = _ok_samples(batch)
        if len(X) < 2:
            continue
        Z = X @ A.V
        per_case.append(Z.var(axis=0, ddof=1))
    if not per_case:
        raise ValueError("no case had at least two valid rows")
    per_dim = np.mean(per_case, axis=0)
    obs_idx, null_idx = A.obs_null_split()
    var_obs = float(per_dim[obs_idx].mean()) if len(obs_idx) else float("nan")
    var_null = float(per_dim[null_idx].mean()) if len(null_idx) else float("nan")
    return ObsNullReport(
        per_dim_variance_svd=per_dim,
        var_obs=var_obs,
        var_null=var_null,
        ratio_null_obs=var_null / var_obs if var_obs else float("nan"),
    )


def rmse_eval(batches, ground_truths) -> AccuracyReport:
    """Per-sample RMSE ||x - x*|| / sqrt(d), pooled over cases."""
    _check_lengths(batches, ground_truths)
    vals = []
    for batch, x_star in zip(batches, ground_truths):
        X = _ok_samples(batch)
        if len(X) == 0:
            continue
        d = X.shape[1]
        vals.append(np.linalg.norm(X - np.asarray(x_star), axis=1) / np.sqrt(d))
    if not vals:
        raise ValueError("no valid rows in any batch")
    vals = np.concatenate(vals)
    return AccuracyReport(
        rmse_mean=float(vals.mean()),
        rmse_std=float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
        per_sample_rmse=vals,
    )


def variance_vs_k(samples: np.ndarray, k_grid) -> list:
    """Running mean per-coordinate variance over the first k rows.

    Used to check how many samples are needed before the variance estimate
    stabilizes.
    """
    samples = np.asarray(samples)
    k_grid = list(k_grid)
    if any(b <= a for a, b in zip(k_grid, k_grid[1:])):
        raise ValueError("k_grid must be strictly increasing")
    if k_grid and (k_grid[0] < 2 or k_grid[-1] > len(samples)):
        raise ValueError("k_grid values must lie in [2, K]")
    return [(k, float(samples[:k].var(axis=0, ddof=1).mean())) for k in k_grid]


def oracle_reference(prior: GaussianMixture, batches):
    """Analytic reference quantities for the exact posterior draws ``batches``
    of one (prior, operator, noise) setup, one ``reference_exact`` batch per case.

    Returns (oracle_coverage, theory_var_obs, theory_var_null, oracle_rmse).
    Theory variances are the exact posterior directional variances
    (V^T Cov_post V)_jj averaged over cases and split by singular value; one
    posterior object, conditioned on the batches' ``y``, gives them. Oracle
    coverage and RMSE are the batches' own, pooled through the same
    evaluation pipeline as a solver's. Draws nothing.
    """
    if not batches:
        raise ValueError("batches must be nonempty")
    drawn_by = {b.solver.name for b in batches} - {"reference_exact"}
    if drawn_by:
        raise ValueError(f"the oracle scores reference_exact batches, got {sorted(drawn_by)}")
    ms = [b.measurement for b in batches]
    A, sigma_y = ms[0].operator, ms[0].sigma_y
    if any(m.operator is not A or m.sigma_y != sigma_y for m in ms):
        raise ValueError("the batches must share the operator and sigma_y")
    obs_idx, null_idx = A.obs_null_split() if A.is_binary() else (np.arange(A.d), [])
    post = _Posterior(prior, A, sigma_y)
    weights, means = post.condition(np.array([m.y for m in ms]))
    dir_var = sum(np.diag(A.V.T @ _moments(w, mu, post.covs)[1] @ A.V)
                  for w, mu in zip(weights, means)) / len(ms)
    truths = [m.x_star for m in ms]
    theory_obs = float(dir_var[obs_idx].mean()) if len(obs_idx) else float("nan")
    theory_null = float(dir_var[null_idx].mean()) if len(null_idx) else float("nan")
    return (coverage_eval(batches, truths).coverage_global, theory_obs, theory_null,
            rmse_eval(batches, truths).rmse_mean)
