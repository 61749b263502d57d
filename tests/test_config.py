import copy
import dataclasses

import yaml
import pytest
from hypothesis import event, given, settings, strategies as st

from diffuq.config import ExperimentConfig, config_from_dict, config_to_dict, load_config
from diffuq.harness import run_experiment
from diffuq.solvers import SOLVER_NAMES

MINIMAL = {
    "experiment": "exp1_identity",
    "master_seed": 7,
    "sigma_y": 1.0,
    "solvers": ["reference_exact"],
}


def write(tmp_path, data):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def test_minimal_round_trip(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    again = config_from_dict(config_to_dict(cfg))
    assert config_to_dict(again) == config_to_dict(cfg)
    assert cfg.n_cases == 20 and cfg.k_samples == 100
    assert cfg.operator["kind"] == "identity"
    assert cfg.schedule["steps"] == 100


def test_solver_hyperparameters_resolved(tmp_path):
    data = dict(MINIMAL, solvers=[{"name": "pnpdm",
                                   "hyperparameters": {"gibbs_iters": 5}}])
    cfg = load_config(write(tmp_path, data))
    hp = cfg.solvers[0].hyperparameters
    assert hp["gibbs_iters"] == 5
    assert "rho_coupling" in hp and "x_step" in hp


def test_missing_sigma_y_named(tmp_path):
    data = {k: v for k, v in MINIMAL.items() if k != "sigma_y"}
    with pytest.raises(ValueError, match="sigma_y"):
        load_config(write(tmp_path, data))


@pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf"), -float("inf"), "one"])
def test_sigma_y_must_be_finite_positive(bad):
    with pytest.raises(ValueError, match="sigma_y"):
        config_from_dict(dict(MINIMAL, sigma_y=bad))


def test_unknown_solver_lists_all_names(tmp_path):
    data = dict(MINIMAL, solvers=["dsp"])
    with pytest.raises(ValueError) as err:
        load_config(write(tmp_path, data))
    for name in SOLVER_NAMES:
        assert name in str(err.value)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict(dict(MINIMAL, verbose=True))


def test_unknown_prior_key_rejected():
    with pytest.raises(ValueError, match="prior"):
        config_from_dict(dict(MINIMAL, prior={"dims": 16}))


def test_sample_count_aliases():
    cfg = config_from_dict(dict(MINIMAL, k_measurements=5, n_samples=10))
    assert cfg.n_cases == 5
    assert cfg.k_samples == 10


def test_exp1_forces_identity():
    with pytest.raises(ValueError, match="identity"):
        config_from_dict(dict(MINIMAL, operator={"kind": "binary_svd",
                                                 "obs_count": 8}))


def test_exp2_operator_defaults():
    cfg = config_from_dict(dict(MINIMAL, experiment="exp2_binary"))
    assert cfg.operator["kind"] == "binary_svd"
    assert cfg.operator["obs_count"] == 8
    assert cfg.operator["basis_mode"] == "random_orthogonal"


def test_count_bounds():
    with pytest.raises(ValueError, match="n_cases"):
        config_from_dict(dict(MINIMAL, n_cases=0))
    with pytest.raises(ValueError, match="k_samples"):
        config_from_dict(dict(MINIMAL, k_samples=1))


@pytest.mark.parametrize("d, steps", [(256, 255), (40, 10_000)])
def test_kernel_size_just_under_the_bound_loads(d, steps):
    """(steps + 1) * d^2 = 256 * 256^2 = 2^24 and 10,001 * 40^2, within 2^24."""
    cfg = config_from_dict(dict(MINIMAL, prior={"d": d}, schedule={"steps": steps}))
    assert (cfg.prior.d, cfg.schedule["steps"]) == (d, steps)


@pytest.mark.parametrize("d, steps", [(256, 256), (41, 10_000)])
def test_kernel_size_just_over_the_bound_rejected(d, steps):
    """Each size passes its own cap, but the reverse kernel's (steps + 1, C,
    d, d) arrays would not fit: 257 * 256^2 and 10,001 * 41^2 exceed 2^24."""
    with pytest.raises(ValueError, match=rf"steps = {steps}, d = {d}\)"):
        config_from_dict(dict(MINIMAL, prior={"d": d}, schedule={"steps": steps}))


def test_sweep_axis_validation():
    good = dict(MINIMAL, solvers=["reference_exact", "mcg_diff"],
                sweep_axis={"solver": "mcg_diff", "name": "particles",
                            "values": [8, 16]})
    cfg = config_from_dict(good)
    assert cfg.sweep_axis["values"] == [8, 16]
    with pytest.raises(ValueError, match="sweep_axis"):
        config_from_dict(dict(MINIMAL, sweep_axis={"solver": "mcg_diff"}))
    with pytest.raises(ValueError, match="hyperparameter"):
        config_from_dict(dict(MINIMAL,
                              sweep_axis={"solver": "mcg_diff",
                                          "name": "gibbs_iters",
                                          "values": [1]}))


def test_bad_experiment_name():
    with pytest.raises(ValueError, match="experiment"):
        config_from_dict(dict(MINIMAL, experiment="exp3"))


@pytest.mark.parametrize("axis, match", [
    ({"values": []}, "values"),
    ({"values": [8, 0]}, "particles"),
    ({"solver": "fps_smc"}, "solvers"),
])
def test_sweep_axis_checks_every_value_and_the_solver(axis, match):
    data = dict(MINIMAL, solvers=["reference_exact", "mcg_diff"],
                sweep_axis={"solver": "mcg_diff", "name": "particles",
                            "values": [4, 8], **axis})
    with pytest.raises(ValueError, match=match):
        config_from_dict(data)


@pytest.mark.parametrize("name, key, value", [
    ("fps_smc", "particles", 0),
    ("fps_smc", "particles", "abc"),
    ("fps_smc", "particles", 2.7),
    ("mcg_diff", "particles", True),
    ("daps", "langevin_steps", -1),
    ("ddrm", "eta", "x"),
    ("ddrm", "eta", float("nan")),
    ("dps", "guidance_scale", None),
    ("dps", "guidance_scale", -0.1),
    ("reddiff", "step_size", float("inf")),
    ("pnpdm", "x_step", "gibbs"),
])
def test_hyperparameter_kind_checked_at_config(name, key, value):
    data = dict(MINIMAL, solvers=[{"name": name, "hyperparameters": {key: value}}])
    with pytest.raises(ValueError) as err:
        config_from_dict(data)
    for part in (name, repr(key), repr(value)):
        assert part in str(err.value)


def test_hyperparameter_values_stored_as_given():
    cfg = config_from_dict(dict(MINIMAL, solvers=[
        {"name": "dps", "hyperparameters": {"guidance_scale": 0.0}},
        {"name": "ddrm", "hyperparameters": {"eta": 1}},
        {"name": "pnpdm", "hyperparameters": {"x_step": "conjugate"}},
    ]))
    dps, ddrm, pnpdm = (s.hyperparameters for s in cfg.solvers)
    assert dps["guidance_scale"] == 0.0
    assert type(ddrm["eta"]) is int and ddrm["eta"] == 1
    assert pnpdm["x_step"] == "conjugate"
    default = config_from_dict(dict(MINIMAL, solvers=["pnpdm"])).solvers[0]
    assert default.hyperparameters["x_step"] == "diffusion"


@pytest.mark.parametrize("name, key, value, match", [
    ("reddiff", "step_size", 0, "must be a finite number > 0"),
    ("diffpir", "lambda_reg", 0, "must be a finite number > 0"),
    ("pnpdm", "rho_coupling", 0.0, "must be a finite number > 0"),
    ("pnpdm", "rho_coupling", 100.0, r"within the schedule's \[sigma_min, sigma_max\]"),
    ("pnpdm", "rho_coupling", 0.005, r"= \[0.01, 10.0\]"),
])
def test_hyperparameter_range_checked_at_config(name, key, value, match):
    data = dict(MINIMAL, solvers=[{"name": name, "hyperparameters": {key: value}}])
    with pytest.raises(ValueError, match=match) as err:
        config_from_dict(data)
    for part in (name, repr(key), repr(value)):
        assert part in str(err.value)


def test_rho_coupling_checked_against_the_config_schedule():
    data = dict(MINIMAL, solvers=["pnpdm"])
    assert config_from_dict(dict(data, schedule={"sigma_min": 0.3})).solvers[0].name == "pnpdm"
    with pytest.raises(ValueError, match="rho_coupling"):
        config_from_dict(dict(data, schedule={"sigma_min": 0.5}))
    sweep = {"solver": "pnpdm", "name": "rho_coupling", "values": [0.2, 20.0]}
    with pytest.raises(ValueError, match="got 20.0"):
        config_from_dict(dict(data, sweep_axis=sweep))
    # the swept values replace the solver's own, so only they are checked
    cfg = config_from_dict(dict(data, schedule={"sigma_min": 0.5},
                                sweep_axis=dict(sweep, values=[0.5, 2.0])))
    assert cfg.sweep_axis["values"] == [0.5, 2.0]


@pytest.mark.parametrize("schedule, solvers, match", [
    ({"sigma_min": "abc"}, ["reference_exact"], "schedule sigma_min must be a finite number"),
    ({"sigma_min": "abc"}, ["pnpdm"], "schedule sigma_min must be a finite number"),
    ({"sigma_max": float("inf")}, ["reference_exact"], "schedule sigma_max"),
    ({"steps": 0}, ["reference_exact"], "schedule .* is invalid: steps must be >= 1"),
    ({"steps": 2.5}, ["reference_exact"], "schedule steps must be an integer"),
    ({"spacing": "cubic"}, ["reference_exact"], "schedule .* is invalid: unknown spacing 'cubic'"),
    ({"spacing": "polynomial", "exponent": 0}, ["reference_exact"], "is invalid: .*division"),
    ({"sigma_min": 5.0, "sigma_max": 1.0}, ["reference_exact"], "sigma_min < sigma_max"),
])
def test_schedule_checked_at_config(schedule, solvers, match):
    with pytest.raises(ValueError, match=match):
        config_from_dict(dict(MINIMAL, solvers=solvers, schedule=schedule))


@pytest.mark.parametrize("key, value", [
    ("k_samples", 2.5), ("n_cases", 1.7), ("master_seed", 7.5), ("k_samples", True),
    ("master_seed", "7"), ("n_cases", float("nan")),
    ("operator obs_count", True), ("operator obs_count", False),
    ("operator seed", True), ("operator seed", "x"), ("operator seed", [1]),
])
def test_counts_must_be_integers(key, value):
    """A top-level count, or an ``operator`` one (of an exp2 config)."""
    section, _, sub = key.rpartition(" ")
    data = (dict(MINIMAL, experiment="exp2_binary", operator={sub: value}) if section
            else dict(MINIMAL, **{key: value}))
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        config_from_dict(data)


def test_integral_counts_load_unchanged():
    as_floats = dict(MINIMAL, experiment="exp2_binary", master_seed=7.0, n_cases=3.0,
                     k_samples=10.0, schedule={"steps": 12.0},
                     operator={"obs_count": 8.0, "seed": 3.0})
    as_ints = dict(MINIMAL, experiment="exp2_binary", n_cases=3, k_samples=10,
                   schedule={"steps": 12}, operator={"obs_count": 8, "seed": 3})
    cfg = config_from_dict(as_floats)
    assert config_to_dict(cfg) == config_to_dict(config_from_dict(as_ints))
    counts = (cfg.master_seed, cfg.n_cases, cfg.k_samples, cfg.schedule["steps"],
              cfg.problem.sched.steps, cfg.operator["obs_count"], cfg.operator["seed"])
    assert all(type(v) is int for v in counts)


@pytest.mark.parametrize("operator, match", [
    ({"kind": "blur"}, "unknown operator kind 'blur'"),
    ({"obs_count": 30}, "obs_count 30 outside"),
    ({"basis_mode": "sparse"}, "unknown basis_mode"),
    ({"d": 8, "obs_count": 4}, r"unknown operator keys: \['d'\]"),
    ({"obs_count": 4, "blur_width": 2}, r"unknown operator keys: \['blur_width'\]"),
])
def test_operator_checked_at_config(operator, match):
    with pytest.raises(ValueError, match=match):
        config_from_dict(dict(MINIMAL, experiment="exp2_binary", operator=operator))


@pytest.mark.parametrize("prior, match", [
    ({"d": "x"}, "prior d must be an integer, got 'x'"),
    ({"rho_ar": "a"}, "prior rho_ar must be a finite number, got 'a'"),
    ({"structured_dim": None}, "prior structured_dim must be an integer, got None"),
    ({"sigma_w_sq": float("nan")}, "prior sigma_w_sq must be a finite number, got nan"),
    ({"mu_sep": float("inf")}, "prior mu_sep must be a finite number, got inf"),
])
def test_prior_checked_at_config(prior, match):
    with pytest.raises(ValueError, match=match):
        config_from_dict(dict(MINIMAL, prior=prior))


def test_valid_prior_round_trip_unchanged():
    prior = {"d": 12, "structured_dim": 6, "rho_ar": 0.5, "sigma_w_sq": 3, "mu_sep": 1.5,
             "bimodal_coord": 2}
    cfg = config_from_dict(dict(MINIMAL, prior=prior))
    assert config_to_dict(cfg)["prior"] == prior
    assert config_to_dict(config_from_dict(config_to_dict(cfg))) == config_to_dict(cfg)


def _init_args(cfg) -> dict:
    """The constructor arguments of ``cfg``: its fields that are not derived."""
    return {f.name: getattr(cfg, f.name) for f in dataclasses.fields(ExperimentConfig) if f.init}


@pytest.mark.parametrize("field, value, match", [
    ("prior", {"d": 16}, "prior must be a ToyPriorSpec, got {'d': 16}"),
    ("operator", None, "operator must be a mapping, got None"),
    ("schedule", None, "schedule must be a mapping, got None"),
    ("sigma_y", "1", "sigma_y must be a finite number > 0, got '1'"),
    ("solvers", ("dps",), r"solvers must be a tuple of SolverSpec, got \('dps',\)"),
    ("sweep_axis", ["pnpdm"], r"sweep_axis must be a mapping or None, got \['pnpdm'\]"),
], ids=["prior", "operator", "schedule", "sigma_y", "solvers", "sweep_axis"])
def test_direct_construction_checks_field_kinds(field, value, match):
    """``ExperimentConfig`` built directly (not through ``config_from_dict``)
    rejects a field of the wrong kind with a ValueError that names it."""
    fields = _init_args(config_from_dict(MINIMAL))
    fields[field] = value
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**fields)


def test_direct_construction_schedule_missing_keys_named():
    fields = dict(_init_args(config_from_dict(MINIMAL)), schedule={"steps": 10})
    with pytest.raises(ValueError, match="schedule .* is invalid: .*sigma_min"):
        ExperimentConfig(**fields)
    fields["schedule"] = {"sigma_min": 0.01, "sigma_max": 10.0}
    with pytest.raises(ValueError, match="schedule steps must be an integer, got None"):
        ExperimentConfig(**fields)


@pytest.mark.parametrize("key, value, match", [
    ("sigma_y", 1e-200, "sigma_y must lie within"),
    ("sigma_y", 1e300, "sigma_y must lie within"),
    ("sigma_min", 1e-200, "schedule sigma_min must lie within"),
    ("sigma_max", 1e160, "schedule sigma_max must lie within"),
])
def test_extreme_noise_scales_rejected_at_config(key, value, match):
    """Values that crashed a run in the samplers (ValueError, OverflowError,
    ZeroDivisionError, LinAlgError) fail at the config, naming the key."""
    data = dict(MINIMAL, sigma_y=value) if key == "sigma_y" else dict(
        MINIMAL, schedule={key: value})
    with pytest.raises(ValueError, match=match):
        config_from_dict(data)


def _grid_config(key, value):
    data = {"experiment": "exp1_identity", "master_seed": 3, "sigma_y": 1.0, "n_cases": 1,
            "k_samples": 2, "solvers": list(SOLVER_NAMES), "schedule": {"steps": 10}}
    if key == "sigma_y":
        data["sigma_y"] = value
    else:
        data["schedule"][key] = value
    return data


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # rows that diverge overflow
@pytest.mark.parametrize("key", ["sigma_y", "sigma_min", "sigma_max"])
def test_noise_scale_log_grid_fails_at_config_or_runs(key):
    """On a log grid of each noise scale, every value either fails at the
    config or runs all ten solvers (one case, two rows, ten levels) without
    raising: a sampler that cannot cope leaves per-row statuses."""
    ran = 0
    for exponent in range(-300, 301, 25):
        try:
            cfg = config_from_dict(_grid_config(key, 10.0**exponent))
        except ValueError:
            continue
        rows = run_experiment(cfg)
        assert len(rows) == len(SOLVER_NAMES)
        ran += 1
    assert ran >= 4


@pytest.mark.parametrize("sigma_y, loads", [(1e-8, False), (1e-6, True)])
def test_sigma_y_with_unfactorable_posterior_fails_at_load(sigma_y, loads):
    """On exp2's rank-deficient random-orthogonal operator the exact
    posterior's covariance cannot be factored at sigma_y = 1e-8; the config
    rejects it, naming sigma_y and the operator, where 1e-6 still loads."""
    data = {"experiment": "exp2_binary", "master_seed": 2024, "sigma_y": sigma_y,
            "solvers": ["reference_exact"]}
    if loads:
        assert config_from_dict(data).sigma_y == sigma_y
        return
    with pytest.raises(ValueError, match=r"sigma_y = 1e-08 with operator \{'kind': 'binary_svd'"
                                         r".*cannot be factored"):
        config_from_dict(data)


_VALID = {
    "experiment": "exp2_binary",
    "master_seed": 7,
    "sigma_y": 0.5,
    "n_cases": 3,
    "k_samples": 4,
    "prior": {"d": 12, "structured_dim": 6, "rho_ar": 0.5, "sigma_w_sq": 3.0,
              "mu_sep": 1.5, "bimodal_coord": 2},
    "operator": {"obs_count": 5, "basis_mode": "random_orthogonal", "seed": 1},
    "schedule": {"sigma_min": 0.02, "sigma_max": 20.0, "steps": 30, "spacing": "geometric"},
    "solvers": ["reference_exact", {"name": "pnpdm", "hyperparameters": {"gibbs_iters": 3}},
                {"name": "mcg_diff"}],
    "sweep_axis": {"solver": "pnpdm", "name": "gibbs_iters", "values": [2, 4]},
}

# Integers past the size caps (prior d, schedule steps) only come from the
# sampled list, whose every entry the config rejects before allocating.
_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -0.0, 5e-324, 1e-300, 1e-101, 1e101, 1e300, 1.7e308, 10**4 + 1,
                     1e9, 2**63, 2**70, "1.0", "", "pnpdm", "identity", "polynomial"]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["name", "kind", "d", "x"]), st.integers(-3, 3), max_size=2),
)


def _paths(node, prefix=()):
    """Every key path (dict keys and list indices) into ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_fuzz_loads_or_raises_value_error(data):
    """A valid config with keys dropped, values swapped for another kind and
    extreme numbers either loads or raises ValueError, and a config that
    loads survives ``config_to_dict`` and ``config_from_dict`` unchanged."""
    cfg_dict = copy.deepcopy(_VALID)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(cfg_dict))
        if not paths:
            break
        *parents, last = data.draw(st.sampled_from(paths))
        parent = cfg_dict
        for key in parents:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = data.draw(_ODD_VALUES)
    try:
        cfg = config_from_dict(cfg_dict)
    except ValueError:
        event("rejected")
        return
    event("loaded")
    assert config_from_dict(config_to_dict(cfg)) == cfg
