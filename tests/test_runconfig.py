import dataclasses
import inspect
from pathlib import Path

import pytest

from whitebench.errors import ConfigError
from whitebench.linear_flow import TimeGrid, build_flow
from whitebench.models import init_isotropic, train_to_cutoff
from whitebench.optimizers import OptimizerConfig
from whitebench.plotting import PlotSpec
from whitebench.runconfig import _SCHEMA, RunConfig, parse_config
from whitebench.synth import SyntheticSpec
from whitebench.whitening import RankPolicy, fit_whitener


CONFIG = """
[experiment]
id = demo
master_seed = 3
seeds = 0 1 2
output_dir = out

[data]
source = synthetic
d = 16
n_train = 32
n_val = 8
n_test = 8
alpha = 2.0
label_noise = 0.1
classes = 4

[whitening]
modes = none, train, full
transform = pca
rank_policy = manual

[flow]
precondition = none
grid_points = 50
"""


def test_parse_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    cfg = parse_config(path)
    assert cfg.experiment_id == "demo"
    assert cfg.get("experiment", "master_seed") == 3
    assert cfg.get("experiment", "seeds") == [0, 1, 2]
    assert cfg.get("whitening", "modes") == ["none", "train", "full"]
    assert cfg.data["alpha"] == 2.0
    assert cfg.flow["grid_points"] == 50


def test_unknown_key_is_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[data]\nsource = synthetic\nnsamples = 7\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="nsamples"):
        parse_config(path)


def test_unknown_section_is_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[dataz]\nd = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="dataz"):
        parse_config(path)


def test_bad_value_is_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[data]\nd = three\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="'d'"):
        parse_config(path)


def test_bad_whitening_mode_is_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[whitening]\nmodes = nonexistent\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="nonexistent"):
        parse_config(path)


def test_batch_size_full_keyword(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("[optimizer]\nbatch_size = full\n", encoding="utf-8")
    assert parse_config(path).optimizer["batch_size"] is None
    path.write_text("[optimizer]\nbatch_size = 16\n", encoding="utf-8")
    assert parse_config(path).optimizer["batch_size"] == 16


def test_missing_file_error():
    with pytest.raises(ConfigError, match="no such config"):
        parse_config("/nonexistent.cfg")


def _library_default(owner, name):
    if dataclasses.is_dataclass(owner):
        return next(f.default for f in dataclasses.fields(owner) if f.name == name)
    return inspect.signature(owner).parameters[name].default


# (section, key) -> (library owner, its field or parameter name): the schema default must equal
# the library's, so an unset key gives what a direct library call gives
MIRRORED_DEFAULTS = {
    **{("data", key): (SyntheticSpec, key)
       for key in ("n_val", "n_test", "spectrum", "alpha", "label_noise", "classes", "encoding")},
    ("data", "eigenvalues"): (SyntheticSpec, "custom_eigenvalues"),
    ("whitening", "transform"): (fit_whitener, "mode"),
    ("whitening", "rank_policy"): (RankPolicy, "kind"),
    ("whitening", "jitter_epsilon"): (RankPolicy, "epsilon"),
    ("model", "init_variance"): (init_isotropic, "variance"),
    ("model", "activation"): (init_isotropic, "activation"),
    ("model", "head"): (init_isotropic, "output_head"),
    ("model", "biases"): (init_isotropic, "deeper_biases"),
    ("optimizer", "name"): (train_to_cutoff, "optimizer"),
    ("optimizer", "cutoff"): (train_to_cutoff, "cutoff"),
    ("optimizer", "step_cap"): (train_to_cutoff, "step_cap"),
    ("optimizer", "record_every"): (train_to_cutoff, "record_every"),
    ("optimizer", "eta"): (OptimizerConfig, "eta"),
    ("optimizer", "batch_size"): (OptimizerConfig, "batch_size"),
    ("optimizer", "cg_tol"): (OptimizerConfig, "cg_tol"),
    ("optimizer", "initial_step"): (OptimizerConfig, "line_search_step"),  # unset: a fixed eta
    ("flow", "precondition"): (build_flow, "precondition"),
    ("flow", "grid_points"): (TimeGrid, "points"),
    ("plot", "logx"): (PlotSpec, "logx"),
    ("plot", "logy"): (PlotSpec, "logy"),
    ("plot", "title"): (PlotSpec, "title"),
}


@pytest.mark.parametrize("section, key", sorted(MIRRORED_DEFAULTS))
def test_schema_default_mirrors_the_library_default(section, key):
    assert RunConfig().get(section, key) == _library_default(*MIRRORED_DEFAULTS[section, key])


def test_schema_default_reg_lambda_mirrors_optimizer_config():
    assert RunConfig().get("optimizer", "reg_lambda") == [_library_default(OptimizerConfig, "reg_lambda")]


def test_get_prefers_the_set_value():
    cfg = RunConfig(optimizer={"eta": 0.5})
    assert cfg.get("optimizer", "eta") == 0.5
    assert cfg.get("optimizer", "step_cap") == 10000
    assert "step_cap" not in cfg.optimizer


def _readme_key_table():
    """(section, key) of every row of README's config key table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Section | Key |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    return {(section.strip(" `[]"), key.strip(" `")) for section, key in rows}


def test_readme_key_table_names_every_schema_key():
    schema_keys = {(section, key) for section, keys in _SCHEMA.items() for key in keys}
    assert _readme_key_table() == schema_keys
