"""Uncertainty benchmark for diffusion-prior inverse-problem solvers.

A linear-Gaussian inverse problem with a Gaussian-mixture prior has an
analytic posterior, score, and denoiser. This package uses that tractable
setting to measure whether plug-and-play diffusion samplers recover the true
posterior uncertainty, comparing each solver's coverage and subspace
variances against the exact references.
"""

__version__ = "0.1.0"

import os

# One BLAS thread unless the user chose: the samplers call BLAS on small
# matrices, where OpenBLAS's own threads only contend with each other and
# with other processes (one fps_smc batch ran 4.7 times slower with the
# default thread count on a busy 2-vCPU host). OpenBLAS reads the variable
# when numpy loads it, so this holds only if diffuq is imported first.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .gmm import (
    GaussianMixture,
    ToyPriorSpec,
    build_toy_prior,
    exact_posterior,
    mixture_logpdf,
    mixture_moments,
    noisy_marginal,
    sample_mixture,
    score_and_denoise,
)
from .operators import (
    LinearOperatorSVD,
    Measurement,
    apply_forward,
    apply_pinv,
    build_operator,
    synthesize_measurement,
)
from .diffusion import (
    NoiseSchedule,
    ReverseKernel,
    build_schedule,
    level_index_for_sigma,
)
from .seeding import derive_seed
from .solvers import (
    SOLVER_NAMES,
    Problem,
    SampleBatch,
    SamplingContext,
    SolverSpec,
    resolve_solver,
    run_batch,
    run_cases,
    sample_one,
)
from .diagnostics import (
    AccuracyReport,
    CoverageReport,
    ObsNullReport,
    coverage_eval,
    obs_null_variance,
    oracle_reference,
    rmse_eval,
    variance_vs_k,
)
from .config import ExperimentConfig, config_from_dict, load_config
from .harness import ResultRow, experiment_oracle, run_experiment, write_report

__all__ = [
    "GaussianMixture",
    "ToyPriorSpec",
    "build_toy_prior",
    "exact_posterior",
    "mixture_logpdf",
    "mixture_moments",
    "noisy_marginal",
    "sample_mixture",
    "score_and_denoise",
    "LinearOperatorSVD",
    "Measurement",
    "apply_forward",
    "apply_pinv",
    "build_operator",
    "synthesize_measurement",
    "NoiseSchedule",
    "ReverseKernel",
    "build_schedule",
    "level_index_for_sigma",
    "derive_seed",
    "SOLVER_NAMES",
    "Problem",
    "SampleBatch",
    "SamplingContext",
    "SolverSpec",
    "resolve_solver",
    "run_batch",
    "run_cases",
    "sample_one",
    "AccuracyReport",
    "CoverageReport",
    "ObsNullReport",
    "coverage_eval",
    "obs_null_variance",
    "oracle_reference",
    "rmse_eval",
    "variance_vs_k",
    "ExperimentConfig",
    "config_from_dict",
    "load_config",
    "ResultRow",
    "experiment_oracle",
    "run_experiment",
    "write_report",
]
