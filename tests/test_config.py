import yaml
import pytest

from diffuq.config import config_from_dict, config_to_dict, load_config
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
