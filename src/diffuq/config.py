"""Experiment configuration: YAML loading with strict validation."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import yaml

from .diffusion import build_schedule
from .gmm import ToyPriorSpec, build_toy_prior, sample_mixture
from .operators import build_operator, synthesize_measurement
from .seeding import derive_seed
from .solvers import Problem, SolverSpec, resolve_solver

__all__ = ["ExperimentConfig", "load_config", "config_to_dict", "config_from_dict"]

_EXPERIMENTS = ("exp1_identity", "exp2_binary", "sweep")

_TOP_KEYS = {
    "experiment", "master_seed", "sigma_y", "n_cases", "k_samples",
    "prior", "operator", "schedule", "solvers", "sweep_axis",
}
# Both sample-count naming conventions are accepted.
_ALIASES = {"k_measurements": "n_cases", "n_samples": "k_samples"}

_SCHEDULE_DEFAULTS = {"sigma_min": 0.01, "sigma_max": 10.0, "steps": 100,
                      "spacing": "geometric"}
# The range of sigma_y, sigma_min and sigma_max. The samplers square these
# scales and invert the squares; outside about [1e-150, 1e150] that leaves
# the float range and crashes a run, so the range keeps 1e50 to spare.
_SIGMA_RANGE = (1e-100, 1e100)
# Size caps, checked before the prior and the grid are built here: without
# them a prior of d = 33,909 asked for 8.6 GiB at load time.
_MAX_D = 256
_MAX_STEPS = 10_000
# ``ReverseKernel`` holds about seven (steps + 1, C, d, d) float64 arrays
# (covariances, Cholesky factors, cho_factors, precisions, the transition
# slopes and factors, the LU bands), so the caps above alone would let
# d = 256 with 10,000 steps ask for about 70 GB. (steps + 1) * d^2 <= 2^24
# keeps the kernel under 7 * C * 2^24 * 8 bytes, about 2 GB for the toy
# prior's C = 2 components.
_MAX_KERNEL_ENTRIES = 2**24
_OPERATOR_DEFAULTS = {
    "exp1_identity": {"kind": "identity"},
    "exp2_binary": {"kind": "binary_svd", "obs_count": 8,
                    "basis_mode": "random_orthogonal", "seed": 0},
    "sweep": {"kind": "identity"},
}
# the operator keys a config may set; ``d`` is the prior's
_OPERATOR_KEYS = {"kind", "obs_count", "basis_mode", "seed"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment. The checks keep what they build, in derived
    fields: ``problem``, the ``solvers.Problem`` that every solver and the
    oracle share, ``runs`` (see ``_resolve_runs``) and, once every check has
    passed, ``cases`` (see ``_experiment_cases``)."""

    experiment: str
    master_seed: int
    sigma_y: float
    solvers: tuple  # SolverSpec tuple, fully resolved
    n_cases: int = 20
    k_samples: int = 100
    prior: ToyPriorSpec = field(default_factory=ToyPriorSpec)
    operator: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=lambda: dict(_SCHEDULE_DEFAULTS))
    sweep_axis: dict | None = None  # {"solver": name, "name": hp, "values": [...]}
    problem: Problem = field(init=False, compare=False, repr=False)
    runs: tuple = field(init=False, compare=False, repr=False)
    cases: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._check_kinds()
        _check_experiment(self.experiment)
        _check_sigma("sigma_y", self.sigma_y)
        for key in ("master_seed", "n_cases", "k_samples"):
            object.__setattr__(self, key, _integer(key, getattr(self, key)))
        if self.n_cases < 1:
            raise ValueError("n_cases must be >= 1")
        if self.k_samples < 2:
            raise ValueError("k_samples must be >= 2")
        if not self.solvers:
            raise ValueError("at least one solver is required")
        if self.experiment == "exp1_identity" and self.operator.get("kind") != "identity":
            raise ValueError("exp1_identity forces the identity operator")
        sched = self._check_schedule()
        if self.prior.d > _MAX_D:
            raise ValueError(f"prior d must be <= {_MAX_D}, got {self.prior.d!r}")
        steps, d = self.schedule["steps"], self.prior.d
        if (steps + 1) * d**2 > _MAX_KERNEL_ENTRIES:
            raise ValueError(
                f"schedule steps and prior d give a reverse kernel of (steps + 1) * d^2 ="
                f" {(steps + 1) * d**2:,} entries per array, above {_MAX_KERNEL_ENTRIES:,}"
                f" (steps = {steps}, d = {d})"
            )
        try:
            prior = build_toy_prior(self.prior)
        except ValueError as exc:
            raise ValueError(f"prior {self.prior!r} is invalid: {exc}") from None
        bad = [key for key in self.operator if key not in _OPERATOR_KEYS]
        if bad:
            raise ValueError(f"unknown operator keys: {bad}")
        counts = {key: _integer(f"operator {key}", value)
                  for key, value in self.operator.items() if key in ("obs_count", "seed")}
        object.__setattr__(self, "operator", {**self.operator, **counts})
        try:
            operator = build_operator(d=self.prior.d, **self.operator)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"operator {self.operator!r} is invalid: {exc}") from None
        problem = Problem(prior, sched, operator, self.sigma_y)
        try:
            problem.posterior  # factored here once, for reference_exact and the oracle
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"sigma_y = {self.sigma_y!r} with operator {self.operator!r} gives an exact"
                f" posterior that cannot be factored ({exc})"
            ) from None
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "runs", self._resolve_runs())
        self._check_rho_coupling()
        object.__setattr__(self, "cases", _experiment_cases(problem, self.n_cases,
                                                            self.master_seed))

    def _resolve_runs(self) -> tuple:
        """One (sweep value, solver specs) pair per sweep value, each spec of
        the swept solver given the value; ``(("", solvers),)`` without a sweep."""
        if self.sweep_axis is None:
            return (("", self.solvers),)
        missing = {"solver", "name", "values"} - set(self.sweep_axis)
        if missing:
            raise ValueError(f"sweep_axis missing keys: {sorted(missing)}")
        solver, name, values = (self.sweep_axis[k] for k in ("solver", "name", "values"))
        if not isinstance(name, str):
            raise ValueError(f"sweep_axis name must be a string, got {name!r}")
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"sweep_axis values must be a nonempty list, got {values!r}")
        known = any(s.name == solver for s in self.solvers)
        specs = self.solvers if known else (resolve_solver(solver),)  # a bad value is named first
        runs = tuple((value, tuple(resolve_solver(s.name, {**s.hyperparameters, name: value})
                                   if s.name == solver else s for s in specs)) for value in values)
        if not known:
            raise ValueError(f"sweep_axis solver {solver!r} is not one of the config's solvers")
        return runs

    def _check_kinds(self):
        """Each field built by hand has the kind the checks below read; a
        value of another kind fails here, naming its key."""
        if not _real(self.sigma_y):
            raise ValueError(f"sigma_y must be a finite number > 0, got {self.sigma_y!r}")
        if not isinstance(self.prior, ToyPriorSpec):
            raise ValueError(f"prior must be a ToyPriorSpec, got {self.prior!r}")
        for key in ("operator", "schedule"):
            if not isinstance(getattr(self, key), dict):
                raise ValueError(f"{key} must be a mapping, got {getattr(self, key)!r}")
        if not (isinstance(self.solvers, tuple)
                and all(isinstance(s, SolverSpec) for s in self.solvers)):
            raise ValueError(f"solvers must be a tuple of SolverSpec, got {self.solvers!r}")
        if not (self.sweep_axis is None or isinstance(self.sweep_axis, dict)):
            raise ValueError(f"sweep_axis must be a mapping or None, got {self.sweep_axis!r}")

    def _check_schedule(self):
        """The built schedule; a value of the wrong kind fails here, naming its key."""
        sched = self.schedule
        for key in ("sigma_min", "sigma_max", "exponent"):
            value = sched.get(key, 1.0)
            if not (_real(value) and math.isfinite(value)):
                raise ValueError(f"schedule {key} must be a finite number, got {value!r}")
        steps = _integer("schedule steps", sched.get("steps"))
        if steps > _MAX_STEPS:
            raise ValueError(f"schedule steps must be <= {_MAX_STEPS}, got {sched['steps']!r}")
        sched = {**sched, "steps": steps}
        object.__setattr__(self, "schedule", sched)
        try:
            built = build_schedule(**sched)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"schedule {sched!r} is invalid: {exc}") from None
        for key in ("sigma_min", "sigma_max"):
            _check_sigma(f"schedule {key}", sched[key])
        return built

    def _check_rho_coupling(self):
        """pnpdm starts its x-step at the grid level of ``rho_coupling``, so
        every value it runs with must lie within the schedule's range."""
        rhos = [s.hyperparameters["rho_coupling"]
                for _, specs in self.runs for s in specs if s.name == "pnpdm"]
        lo, hi = self.schedule["sigma_min"], self.schedule["sigma_max"]
        for rho in rhos:
            if not lo <= rho <= hi:
                raise ValueError(
                    f"solver pnpdm hyperparameter 'rho_coupling' must lie within the schedule's"
                    f" [sigma_min, sigma_max] = [{lo}, {hi}], got {rho!r}"
                )


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_experiment(experiment) -> None:
    if not (isinstance(experiment, str) and experiment in _EXPERIMENTS):
        raise ValueError(f"experiment must be one of {_EXPERIMENTS}, got {experiment!r}")


def _check_sigma(key: str, value) -> None:
    lo, hi = _SIGMA_RANGE
    if not lo <= value <= hi:
        raise ValueError(f"{key} must lie within [{lo:g}, {hi:g}], got {value!r}")


def _integer(key: str, value) -> int:
    """``value`` as an int; a value that is not an integral number is rejected."""
    if not (_real(value) and float(value).is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _experiment_cases(problem: Problem, n_cases: int, seed: int) -> tuple:
    """The ``n_cases`` measurements of ``problem``, each holding its ground
    truth ``x_star``; case n's truth and noise are seeded from (``seed``, n)
    alone, so every solver sees the same cases."""
    truths = [sample_mixture(problem.prior, 1, derive_seed(seed, [("xstar", n)]))[0]
              for n in range(n_cases)]
    return tuple(synthesize_measurement(problem.operator, x_star, problem.sigma_y,
                                        derive_seed(seed, [("meas", n)]))
                 for n, x_star in enumerate(truths))


def _mapping(data: dict, key: str) -> dict:
    """``data[key]``, a mapping; a missing or empty (None) one is ``{}``."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a mapping, got {value!r}")
    return value


def _parse_solvers(raw) -> tuple:
    if not isinstance(raw, list):
        raise ValueError(f"solvers must be a list, got {raw!r}")
    specs = []
    for entry in raw:
        if isinstance(entry, str):
            specs.append(resolve_solver(entry))
        elif isinstance(entry, dict):
            extra = set(entry) - {"name", "hyperparameters"}
            if extra:
                raise ValueError(f"unknown solver entry keys: {sorted(extra)}")
            if "name" not in entry:
                raise ValueError("solver entry missing required field 'name'")
            specs.append(resolve_solver(entry["name"], entry.get("hyperparameters")))
        else:
            raise ValueError(f"solver entry must be a name or mapping, got {entry!r}")
    return tuple(specs)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValueError("config root must be a mapping")
    data = {_ALIASES.get(k, k): v for k, v in data.items()}
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for req in ("experiment", "master_seed", "sigma_y", "solvers"):
        if req not in data:
            raise ValueError(f"config missing required field {req!r}")

    experiment = data["experiment"]
    _check_experiment(experiment)
    try:
        sigma_y = float(data["sigma_y"])
    except (TypeError, ValueError):
        raise ValueError(f"sigma_y must be a number, got {data['sigma_y']!r}")
    prior_args = _mapping(data, "prior")
    bad = set(prior_args) - {f.name for f in dataclasses.fields(ToyPriorSpec)}
    if bad:
        raise ValueError(f"unknown prior keys: {sorted(bad)}")
    schedule = dict(_SCHEDULE_DEFAULTS)
    sched_args = _mapping(data, "schedule")
    bad = set(sched_args) - {"sigma_min", "sigma_max", "steps", "spacing", "exponent"}
    if bad:
        raise ValueError(f"unknown schedule keys: {sorted(bad)}")
    schedule.update(sched_args)
    operator = dict(_OPERATOR_DEFAULTS.get(experiment, {}))
    operator.update(_mapping(data, "operator"))

    return ExperimentConfig(
        experiment=experiment,
        master_seed=data["master_seed"],
        sigma_y=sigma_y,
        solvers=_parse_solvers(data["solvers"]),
        n_cases=data.get("n_cases", 20),
        k_samples=data.get("k_samples", 100),
        prior=ToyPriorSpec(**prior_args),
        operator=operator,
        schedule=schedule,
        sweep_axis=data.get("sweep_axis"),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully resolved, round-trippable dict form."""
    return {
        "experiment": cfg.experiment,
        "master_seed": cfg.master_seed,
        "sigma_y": cfg.sigma_y,
        "n_cases": cfg.n_cases,
        "k_samples": cfg.k_samples,
        "prior": dataclasses.asdict(cfg.prior),
        "operator": dict(cfg.operator),
        "schedule": dict(cfg.schedule),
        "solvers": [
            {"name": s.name, "hyperparameters": dict(s.hyperparameters)}
            for s in cfg.solvers
        ],
        "sweep_axis": cfg.sweep_axis,
    }


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML config file; all defaults made explicit."""
    with open(path) as fh:
        data = yaml.safe_load(fh)
    return config_from_dict(data)
