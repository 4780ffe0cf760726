import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import whitebench
from whitebench import Dataset, LabelSet, apply_whitener, fit_whitener
from whitebench.cli import main
from whitebench.dataio import export_csv, export_wbds, ingest_wbds, write_matrix_csv
from whitebench.errors import ConfigError
from whitebench.runconfig import _SCHEMA

from conftest import one_hot_labels


@pytest.fixture
def wbds_file(tmp_path, rng):
    X = Dataset(rng.standard_normal((6, 20)))
    path = tmp_path / "data.wbds"
    export_wbds(path, X)
    return path, X


def _read_matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def test_whiten_command(tmp_path, wbds_file, capsys):
    path, X = wbds_file
    out = tmp_path / "white.wbds"
    code = main([
        "whiten", "--input", str(path), "--mode", "pca",
        "--rank-policy", "manual", "--output", str(out),
    ])
    assert code == 0
    fit_X, _ = ingest_wbds(path)
    assert capsys.readouterr().out.rstrip().endswith(f"fit_id={fit_X.fingerprint()})")
    X_hat, _ = ingest_wbds(out)
    F_hat = X_hat.values @ X_hat.values.T
    assert np.max(np.abs(F_hat - np.eye(6))) <= 1e-6


def test_unlabeled_whiten_over_a_labeled_output_leaves_no_labels(tmp_path, rng):
    X = Dataset(rng.standard_normal((6, 20)))
    labeled, unlabeled, out = tmp_path / "labeled.wbds", tmp_path / "unlabeled.wbds", tmp_path / "out.wbds"
    export_wbds(labeled, X, LabelSet.from_class_ids(rng.integers(0, 3, size=20), 3))
    export_wbds(unlabeled, X)
    for source in (labeled, unlabeled):
        assert main(["whiten", "--input", str(source), "--mode", "pca", "--output", str(out)]) == 0
    assert ingest_wbds(out)[1] is None


def test_second_moments_command(tmp_path, wbds_file):
    path, X = wbds_file
    out = tmp_path / "f.csv"
    assert main(["second-moments", "--input", str(path), "--which", "f", "--output", str(out)]) == 0
    F = _read_matrix(out)
    assert np.allclose(F, X.values @ X.values.T, atol=1e-12)


def test_second_moments_mixed_needs_input2(tmp_path, wbds_file, capsys):
    path, _ = wbds_file
    out = tmp_path / "m.csv"
    code = main(["second-moments", "--input", str(path), "--which", "mixed", "--output", str(out)])
    assert code == 2
    assert "input2" in capsys.readouterr().err


def test_second_moments_mixed(tmp_path, rng, wbds_file):
    path, X = wbds_file
    other = Dataset(rng.standard_normal((6, 4)))
    path2 = tmp_path / "other.wbds"
    export_wbds(path2, other)
    out = tmp_path / "mixed.csv"
    assert main([
        "second-moments", "--input", str(path), "--which", "mixed",
        "--input2", str(path2), "--output", str(out),
    ]) == 0
    assert _read_matrix(out).shape == (20, 4)


def test_rank_command(tmp_path, capsys):
    X = Dataset([[1.0, 2.0], [2.0, 4.0]])
    path = tmp_path / "r.wbds"
    export_wbds(path, X)
    assert main(["rank", "--input", str(path), "--cutoff-ratio", "1e-5"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_compress_reconstruct_round_trip(tmp_path, rng):
    from whitebench import apply_whitener, compute_K, fit_whitener

    X = Dataset(rng.standard_normal((3, 8)))
    X_hat = apply_whitener(fit_whitener(X), X)
    src = tmp_path / "white.wbds"
    export_wbds(src, X_hat)
    packed = tmp_path / "packed.wbcp"
    out = tmp_path / "k.csv"
    assert main(["compress", "--input", str(src), "--output", str(packed)]) == 0
    assert main(["reconstruct-k", "--input", str(packed), "--output", str(out)]) == 0
    assert np.max(np.abs(_read_matrix(out) - compute_K(X_hat))) <= 1e-8


def _frame(magic, version, *blocks):
    out = magic + struct.pack("<H", version)
    for block in blocks:
        block = np.asarray(block, dtype="<f8")
        out += struct.pack("<II", *block.shape) + block.tobytes(order="F")
    return out


_PAYLOAD = np.arange(15.0).reshape(3, 5) / 7.0
_VALID_WBCP = _frame(b"WBCP", 2, _PAYLOAD, [[7, 6, 5, 4, 3, 2, 1, 0]])
MALFORMED_WBCP = {
    "twelve_bytes": _VALID_WBCP[:12],
    "three_bytes_short": _VALID_WBCP[:-3],
    "eight_trailing_bytes": _VALID_WBCP + bytes(8),
    "permutation_out_of_range": _frame(b"WBCP", 2, _PAYLOAD, [[0, 1, 2, 3, 4, 5, 6, 8]]),
    "permutation_duplicated": _frame(b"WBCP", 2, _PAYLOAD, [[0, 1, 2, 3, 4, 5, 6, 6]]),
    "n_below_d": _frame(b"WBCP", 2, np.zeros((8, 0)), [[1, 0]]),
    # version 1 layout: u32 d, u32 n, u8 permutation flag, then the payload
    "version_1": b"WBCP" + struct.pack("<HIIB", 1, 8, 2, 0) + np.zeros(8).tobytes(),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WBCP))
@pytest.mark.parametrize("command", ["reconstruct-k", "rank"])
def test_malformed_wbcp_exits_2(tmp_path, capsys, case, command):
    path = tmp_path / "bad.wbcp"
    path.write_bytes(MALFORMED_WBCP[case])
    argv = [command, "--input", str(path)]
    if command == "reconstruct-k":
        argv += ["--output", str(tmp_path / "k.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    if case == "version_1" and command == "reconstruct-k":
        assert "unsupported version 1" in err


def test_valid_wbcp_with_permutation_reconstructs(tmp_path):
    path = tmp_path / "ok.wbcp"
    path.write_bytes(_VALID_WBCP)
    out = tmp_path / "k.csv"
    assert main(["reconstruct-k", "--input", str(path), "--output", str(out)]) == 0
    assert _read_matrix(out).shape == (8, 8)


def test_train_linear_command(tmp_path):
    cfg = tmp_path / "lin.cfg"
    cfg.write_text(
        """
[experiment]
id = cli_lin
seeds = 0
output_dir = {out}

[data]
source = synthetic
d = 10
n_train = 20
n_val = 8
n_test = 8
classes = 3
label_noise = 0.2

[whitening]
modes = none train

[flow]
grid_points = 30
""".format(out=tmp_path / "results"),
        encoding="utf-8",
    )
    assert main(["train-linear", "--config", str(cfg)]) == 0
    out = tmp_path / "results" / "cli_lin_linear.csv"
    assert out.exists()
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("experiment_id,seed,dataset_size,whitening_mode")


def test_sweep_command_deterministic(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        """
[experiment]
id = cli_sweep
seeds = 0 1
output_dir = {out}

[data]
source = synthetic
d = 8
n_val = 6
n_test = 6
classes = 3
label_noise = 0.2

[whitening]
modes = none train full

[flow]
grid_points = 25

[sweep]
sizes = 6 12 18
trainer = linear
""".format(out=tmp_path / "results"),
        encoding="utf-8",
    )
    out = tmp_path / "results" / "cli_sweep_sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--workers", "1"]) == 0
    first = out.read_bytes()
    assert main(["sweep", "--config", str(cfg), "--workers", "1"]) == 0
    assert out.read_bytes() == first
    assert len(first.decode().splitlines()) == 1 + 18  # header + 3x3x2 terminal rows


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\nid = w\noutput_dir = {tmp_path / 'results'}\n\n[sweep]\nsizes = 6\n",
                   encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert "--workers" in err and workers in err
    assert not (tmp_path / "results").exists()


def test_verify_quick_suites(tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--suite", "compression", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert "compression" in report["suites"]


def test_plot_command(tmp_path):
    spec = tmp_path / "plot.cfg"
    spec.write_text(
        "[plot]\nx = dataset_size\ny = test_loss\ngroup = whitening_mode\nlogx = true\n",
        encoding="utf-8",
    )
    results = Path(__file__).parent / "data" / "small_results.csv"
    out = tmp_path / "chart.svg"
    assert main(["plot", "--results", str(results), "--spec", str(spec), "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8").count("<polyline") == 2


def test_train_mlp_command(tmp_path):
    cfg = tmp_path / "mlp.cfg"
    cfg.write_text(
        """
[experiment]
id = cli_mlp
seeds = 0
output_dir = {out}

[data]
source = synthetic
d = 8
n_train = 10
n_test = 5
classes = 3
normalize = true

[whitening]
modes = train

[model]
hidden = 8
init_variance = 0.01

[optimizer]
name = sgd
eta = 0.1
step_cap = 300
""".format(out=tmp_path / "results"),
        encoding="utf-8",
    )
    assert main(["train-mlp", "--config", str(cfg)]) == 0
    out = tmp_path / "results" / "cli_mlp_mlp.csv"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 3  # header, trajectory rows, terminal row
    terminal = dict(zip(lines[0].split(","), lines[-1].split(",")))
    assert terminal["stopping_reason"] in ("cutoff", "cap")


def test_whiten_unknown_output_suffix_exits_2(tmp_path, wbds_file, capsys):
    path, _ = wbds_file
    out = tmp_path / "x.bin"
    argv = ["whiten", "--input", str(path), "--mode", "pca", "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(out) in err and ".wbds" in err and ".csv" in err
    assert not out.exists()


def _write_run_config(path, sections):
    lines = []
    for section, items in sections.items():
        lines += [f"[{section}]"] + [f"{key} = {value}" for key, value in items.items()] + [""]
    path.write_text("\n".join(lines), encoding="utf-8")


def _linear_sections(out):
    return {
        "experiment": {"id": "bad", "seeds": "0", "output_dir": out},
        "data": {"source": "synthetic", "d": 6, "n_train": 8, "n_val": 4, "n_test": 4, "classes": 3},
        "whitening": {"modes": "none train"},
        "flow": {"grid_points": 20},
        "sweep": {"sizes": "8", "trainer": "linear"},
    }


def _mlp_sections(out):
    sections = _linear_sections(out)
    del sections["flow"]
    return {**sections, "model": {"hidden": 4}, "optimizer": {"step_cap": 5}, "sweep": {"sizes": "8", "trainer": "mlp"}}


# (section, key, bad value, commands that must reject it); a case with train-linear among its
# commands starts from the linear sections, any other from the mlp sections
BAD_RUN_VALUES = {
    "unknown_trainer": ("sweep", "trainer", "mlpp", ("sweep", "train-mlp")),
    "unknown_optimizer": ("optimizer", "name", "adam", ("sweep", "train-mlp")),
    "size_convention": ("experiment", "size_convention", "both", ("sweep", "train-mlp")),
    "precondition": ("flow", "precondition", "adam", ("sweep", "train-mlp")),
    "transform": ("whitening", "transform", "pcaa", ("sweep", "train-mlp")),
    "rank_policy": ("whitening", "rank_policy", "auto", ("sweep", "train-mlp")),
    "activation": ("model", "activation", "gelu", ("sweep", "train-mlp")),
    "eta_zero": ("optimizer", "eta", "0", ("sweep", "train-mlp")),
    "linear_without_validation": ("data", "n_val", "0", ("sweep", "train-linear")),
    "alpha_negative": ("data", "alpha", "-1", ("sweep", "train-mlp")),
    "label_noise_negative": ("data", "label_noise", "-0.5", ("sweep", "train-mlp")),
    "classes_zero": ("data", "classes", "0", ("sweep", "train-mlp")),
    "custom_spectrum_without_eigenvalues": ("data", "spectrum", "custom", ("sweep", "train-mlp")),
    "sizes_zero": ("sweep", "sizes", "0 8", ("sweep", "train-linear")),
    "grid_points_one": ("flow", "grid_points", "1", ("sweep", "train-linear")),
    "n_train_zero": ("data", "n_train", "0", ("train-linear", "train-mlp")),
    "reg_lambda_list_with_sgd": ("optimizer", "reg_lambda", "0 1", ("sweep", "train-mlp")),
    "t_min_alone": ("flow", "t_min", "0.5", ("sweep", "train-linear")),
    "t_max_alone": ("flow", "t_max", "50", ("sweep", "train-linear")),
    "jitter_epsilon_without_jitter": ("whitening", "jitter_epsilon", "5.0", ("sweep", "train-mlp")),
    "initial_step_with_sgd": ("optimizer", "initial_step", "0.5", ("sweep", "train-mlp")),
    "joint_size_convention_on_file_data": ("experiment", "size_convention", "joint", ("sweep", "train-mlp")),
    "distribution_n_is_gone": ("whitening", "distribution_n", "64", ("sweep", "train-mlp")),
    "teacher_is_gone": ("data", "teacher", "linear", ("sweep", "train-mlp")),
    "reg_lambda_with_sgd": ("optimizer", "reg_lambda", "1.0", ("sweep", "train-mlp")),
    "cg_tol_with_sgd": ("optimizer", "cg_tol", "1e-6", ("sweep", "train-mlp")),
    "line_search_is_gone": ("optimizer", "line_search", "true", ("sweep", "train-mlp")),
    "real_valued_encoding_under_mlp": ("data", "encoding", "real_valued", ("sweep", "train-mlp")),
    # parse-time bounds
    "batch_size_negative": ("optimizer", "batch_size", "-3", ("sweep", "train-mlp")),
    "batch_size_zero": ("optimizer", "batch_size", "0", ("sweep", "train-mlp")),
    "record_every_zero": ("optimizer", "record_every", "0", ("sweep", "train-mlp")),
    "step_cap_zero": ("optimizer", "step_cap", "0", ("sweep", "train-mlp")),
    "cutoff_above_one": ("optimizer", "cutoff", "1.5", ("sweep", "train-mlp")),
    "cutoff_zero": ("optimizer", "cutoff", "0", ("sweep", "train-mlp")),
    "model_init_variance_negative": ("model", "init_variance", "-0.1", ("sweep", "train-mlp")),
    "flow_init_variance_negative": ("flow", "init_variance", "-1", ("sweep", "train-linear")),
    "hidden_zero": ("model", "hidden", "0", ("sweep", "train-mlp")),
    # keys the run would ignore
    "flow_under_mlp": ("flow", "grid_points", "20", ("sweep", "train-mlp")),
    "model_under_linear": ("model", "hidden", "4", ("sweep", "train-linear")),
    "optimizer_under_linear": ("optimizer", "step_cap", "5", ("sweep", "train-linear")),
    "eta_with_line_search": ("optimizer", "eta", "0.5", ("sweep", "train-mlp")),
    "d_on_file_data": ("data", "d", "999", ("sweep", "train-linear")),
    "n_val_on_file_data": ("data", "n_val", "4", ("sweep", "train-linear")),
    "format_is_gone": ("data", "format", "csv", ("sweep", "train-mlp")),
    "n_test_under_joint": ("data", "n_test", "999", ("sweep", "train-mlp")),
    "test_path_on_synthetic_data": ("data", "test", "test.wbds", ("sweep", "train-mlp")),
    "alpha_with_flat_spectrum": ("data", "alpha", "1.0", ("sweep", "train-mlp")),
    "eigenvalues_with_power_law": ("data", "eigenvalues", "1 2 3 4 5 6", ("sweep", "train-mlp")),
    "transform_without_whitening": ("whitening", "transform", "zca", ("sweep", "train-linear")),
    "rank_policy_without_whitening": ("whitening", "rank_policy", "jitter", ("sweep", "train-linear")),
    "center_with_distribution_arm_only": ("whitening", "center", "true", ("sweep", "train-linear")),
}
# cases whose key is switched off only by file data
FILE_DATA_CASES = ("joint_size_convention_on_file_data", "d_on_file_data", "n_val_on_file_data")
# what a case sets besides its bad key, so that only that key is switched off
CASE_SETTINGS = {
    "eta_with_line_search": {"optimizer": {"name": "gn", "initial_step": "1.0"}},
    "alpha_with_flat_spectrum": {"data": {"spectrum": "flat"}},
    "transform_without_whitening": {"whitening": {"modes": "none"}},
    "rank_policy_without_whitening": {"whitening": {"modes": "none"}},
    "center_with_distribution_arm_only": {"whitening": {"modes": "none distribution"}},
    "n_test_under_joint": {"experiment": {"size_convention": "joint"}},
}


def _file_data(tmp_path, rng):
    """A labelled train (12 columns) and val (6 columns) file pair at d = 4: a [data] section."""
    for split, n in (("train", 12), ("val", 6)):
        X = Dataset(rng.standard_normal((4, n)))
        export_wbds(tmp_path / f"{split}.wbds", X, LabelSet.from_class_ids(rng.integers(0, 3, n), 3))
    return {"source": "files", "train": tmp_path / "train.wbds", "val": tmp_path / "val.wbds"}


@pytest.mark.parametrize("case", sorted(BAD_RUN_VALUES))
def test_bad_run_config_exits_2_before_any_cell(tmp_path, rng, capsys, case):
    section, key, value, commands = BAD_RUN_VALUES[case]
    out = tmp_path / "results"
    sections = (_linear_sections if "train-linear" in commands else _mlp_sections)(out)
    if case in FILE_DATA_CASES:
        sections["data"] = _file_data(tmp_path, rng)
    for name, items in CASE_SETTINGS.get(case, {}).items():
        sections[name].update(items)
    sections.setdefault(section, {})[key] = value
    cfg = tmp_path / "bad.cfg"
    _write_run_config(cfg, sections)
    for command in commands:
        assert main([command, "--config", str(cfg)]) == 2, command
        assert key in capsys.readouterr().err
        assert not out.exists()


def _float_keys():
    """(section, key) of every schema key whose converter reads a float or a list of floats."""
    keys = []
    for section, schema in _SCHEMA.items():
        for key, (convert, _) in schema.items():
            try:
                if convert("0.5") in (0.5, [0.5]):
                    keys.append((section, key))
            except (ValueError, ConfigError):
                pass
    return keys


def test_float_keys_are_every_float_key():
    assert sorted(_float_keys()) == sorted([
        ("data", "alpha"), ("data", "eigenvalues"), ("data", "label_noise"), ("whitening", "jitter_epsilon"),
        ("model", "init_variance"), ("optimizer", "eta"), ("optimizer", "reg_lambda"), ("optimizer", "cg_tol"),
        ("optimizer", "cutoff"), ("optimizer", "initial_step"), ("flow", "t_min"), ("flow", "t_max"),
        ("flow", "init_variance"),
    ])


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("section, key", _float_keys())
def test_non_finite_float_exits_2_before_any_cell(tmp_path, capsys, section, key, bad):
    # float() takes inf and nan; a run used to write quietly wrong or error rows and exit 0
    out = tmp_path / "results"
    sections = _mlp_sections(out)
    list_key = isinstance(_SCHEMA[section][key][0]("0.5"), list)
    sections.setdefault(section, {})[key] = f"0.5 {bad}" if list_key else bad
    cfg = tmp_path / "bad.cfg"
    _write_run_config(cfg, sections)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{key!r} in [{section}]" in err and "finite" in err
    assert not out.exists()


# a cell axis: the value that repeats one entry
AXIS_KEYS = {("experiment", "seeds"): "0 1 0", ("whitening", "modes"): "none none",
             ("sweep", "sizes"): "8 8", ("optimizer", "reg_lambda"): "0.5 0.5"}


@pytest.mark.parametrize("form", ["empty", "repeated"])
@pytest.mark.parametrize("section, key", sorted(AXIS_KEYS))
def test_empty_or_repeating_cell_axis_exits_2_before_any_cell(tmp_path, capsys, section, key, form):
    # an empty axis wrote a header-only CSV; a repeated value wrote duplicate rows that plot averaged as seeds
    out = tmp_path / "results"
    sections = _mlp_sections(out)
    sections["optimizer"]["name"] = "gn"
    sections.setdefault(section, {})[key] = "" if form == "empty" else AXIS_KEYS[section, key]
    cfg = tmp_path / "bad.cfg"
    _write_run_config(cfg, sections)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{key!r} in [{section}]" in err and "no repeats" in err
    assert not out.exists()


def test_degenerate_train_file_writes_error_rows(tmp_path, rng, capsys):
    # an all-zero train file: the train arm's whitener has no spectrum to fit, so its cell is an error row
    out = tmp_path / "results"
    sections = _linear_sections(out)
    sections["data"] = _file_data(tmp_path, rng)
    export_wbds(tmp_path / "train.wbds", Dataset(np.zeros((4, 12))), LabelSet.from_class_ids(rng.integers(0, 3, 12), 3))
    cfg = tmp_path / "zero.cfg"
    _write_run_config(cfg, sections)
    assert main(["sweep", "--config", str(cfg)]) == 0
    with open(out / "bad_sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    reasons = {mode: [r["stopping_reason"] for r in rows if r["whitening_mode"] == mode] for mode in ("none", "train")}
    assert reasons["train"] and set(reasons["train"]) == {"error"}
    assert reasons["none"] and "error" not in reasons["none"]
    assert f"({len(reasons['train'])} error rows)" in capsys.readouterr().out


def test_cli_runs_without_importing_scipy(tmp_path):
    # numpy is the only runtime dependency: a fresh interpreter verifies and sweeps with no scipy module loaded
    sections = _linear_sections(tmp_path / "results")
    cfg = tmp_path / "tiny.cfg"
    _write_run_config(cfg, sections)
    script = (
        "import sys\n"
        "from whitebench.cli import main\n"
        "assert main(['verify', '--suite', 'compression']) == 0\n"
        f"assert main(['sweep', '--config', {str(cfg)!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(whitebench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_good_run_config_writes_rows(tmp_path):
    # the bases of the bad-value cases run when nothing is broken
    out = tmp_path / "results"
    cfg = tmp_path / "ok.cfg"
    _write_run_config(cfg, _mlp_sections(out))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["train-mlp", "--config", str(cfg)]) == 0
    assert "error" not in (out / "bad_sweep.csv").read_text(encoding="utf-8").split("\n", 1)[1]
    _write_run_config(cfg, _linear_sections(out))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["train-linear", "--config", str(cfg)]) == 0
    assert "error" not in (out / "bad_sweep.csv").read_text(encoding="utf-8").split("\n", 1)[1]


# configs that used to run with keys they ignored: (base sections, file data?, keys added); each
# exits 2 naming every ignored key
IGNORED_KEY_CONFIGS = {
    "linear_sweep_with_mlp_keys": (_linear_sections, False, {
        "model": {"hidden": "4"}, "optimizer": {"name": "gn"}, "whitening": {"modes": "none", "transform": "zca"}}),
    "mlp_sweep_with_a_flow_grid": (_mlp_sections, False, {"flow": {"t_min": "0.5", "t_max": "50", "grid_points": "30"}}),
    "file_sweep_with_synthetic_keys": (_linear_sections, True, {
        "data": {"d": "999", "alpha": "2.0", "classes": "50", "n_val": "4"}}),
}


@pytest.mark.parametrize("case", sorted(IGNORED_KEY_CONFIGS))
def test_ignored_keys_exit_2_naming_each(tmp_path, rng, capsys, case):
    base, file_data, added = IGNORED_KEY_CONFIGS[case]
    out = tmp_path / "results"
    sections = base(out)
    if file_data:
        sections["data"] = _file_data(tmp_path, rng)
    for name, items in added.items():
        sections.setdefault(name, {}).update(items)
    cfg = tmp_path / "ignored.cfg"
    _write_run_config(cfg, sections)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    ignored = [key for items in added.values() for key in items if key != "modes"]
    assert all(key in err for key in ignored), (ignored, err)
    assert not out.exists()


def test_distribution_arm_on_file_data_exits_2(tmp_path, rng, capsys):
    out = tmp_path / "results"
    sections = _linear_sections(out)
    sections["data"] = _file_data(tmp_path, rng)
    sections["whitening"]["modes"] = "none distribution"
    sections["sweep"] = {"sizes": "12", "trainer": "linear"}
    cfg = tmp_path / "files.cfg"
    _write_run_config(cfg, sections)
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "distribution" in capsys.readouterr().err
    assert not out.exists()
    sections["whitening"]["modes"] = "none train"
    _write_run_config(cfg, sections)
    assert main(["sweep", "--config", str(cfg)]) == 0


def test_real_valued_train_file_under_mlp_exits_2(tmp_path, rng, capsys):
    # the mlp trainer stops at a train accuracy, which real-valued targets do not have; the linear trainer runs
    sections = _file_data(tmp_path, rng)
    export_wbds(sections["train"], Dataset(rng.standard_normal((4, 12))), LabelSet(rng.standard_normal((3, 12))))
    out = tmp_path / "results"
    cfg = tmp_path / "files.cfg"
    _write_run_config(cfg, {**_mlp_sections(out), "data": sections, "sweep": {"sizes": "12", "trainer": "mlp"}})
    for command in ("sweep", "train-mlp"):
        assert main([command, "--config", str(cfg)]) == 2, command
        err = capsys.readouterr().err
        assert str(sections["train"]) in err and "one-hot" in err
        assert not out.exists()
    _write_run_config(cfg, {**_linear_sections(out), "data": sections, "sweep": {"sizes": "12", "trainer": "linear"}})
    assert main(["sweep", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("command", ["sweep", "train-linear"])
def test_unlabelled_file_data_exits_2(tmp_path, rng, capsys, command):
    labels = LabelSet.from_class_ids(rng.integers(0, 3, 12), 3)
    export_wbds(tmp_path / "train.wbds", Dataset(rng.standard_normal((4, 12))), labels)
    export_wbds(tmp_path / "val.wbds", Dataset(rng.standard_normal((4, 6))))  # no .wblb companion
    out = tmp_path / "results"
    sections = _linear_sections(out)
    sections["data"] = {"source": "files", "train": tmp_path / "train.wbds", "val": tmp_path / "val.wbds"}
    sections["sweep"] = {"sizes": "12", "trainer": "linear"}
    cfg = tmp_path / "files.cfg"
    _write_run_config(cfg, sections)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "val.wbds") in err and str(tmp_path / "val.wblb") in err
    assert not out.exists()


def _file_run_config(tmp_path, sizes, fmt="csv"):
    out = tmp_path / "results"
    sections = _linear_sections(out)
    sections["data"] = {"source": "files", "train": tmp_path / f"train.{fmt}", "val": tmp_path / f"val.{fmt}"}
    sections["whitening"]["modes"] = "none"
    sections["sweep"] = {"sizes": sizes, "trainer": "linear"}
    cfg = tmp_path / "files.cfg"
    _write_run_config(cfg, sections)
    return cfg, out


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_file_sweep_subsamples_sizes(tmp_path, rng, capsys):
    export_csv(tmp_path / "train.csv", Dataset(rng.standard_normal((4, 40))), one_hot_labels(rng, 3, 40))
    export_csv(tmp_path / "val.csv", Dataset(rng.standard_normal((4, 10))), one_hot_labels(rng, 3, 10))
    cfg, out = _file_run_config(tmp_path, "10 20 40")
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = _rows(out / "bad_sweep.csv")
    assert [row["dataset_size"] for row in rows] == ["10", "20", "40"]
    assert len({(row["train_loss"], row["val_loss"]) for row in rows}) == 3
    # train-linear without n_train runs every column of the file
    assert main(["train-linear", "--config", str(cfg)]) == 0
    assert _rows(out / "bad_linear.csv")[-1]["dataset_size"] == "40"
    # a size beyond the file is a config error before any cell
    big = tmp_path / "big"
    big.mkdir()
    for name in ("train", "val"):
        (big / f"{name}.csv").write_bytes((tmp_path / f"{name}.csv").read_bytes())
    cfg, out = _file_run_config(big, "10 41")
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "41" in err and "40" in err
    assert not out.exists()


def test_file_splits_share_one_hot_width(tmp_path, rng):
    # the val file has no label above 2, the train file has 0..4
    export_csv(tmp_path / "train.csv", Dataset(rng.standard_normal((4, 20))), LabelSet.from_class_ids(np.arange(20) % 5, 5))
    export_csv(tmp_path / "val.csv", Dataset(rng.standard_normal((4, 9))), LabelSet.from_class_ids(np.arange(9) % 3, 3))
    cfg, out = _file_run_config(tmp_path, "20")
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = _rows(out / "bad_sweep.csv")
    assert len(rows) == 1 and rows[0]["stopping_reason"] != "error"


def test_file_splits_with_different_target_widths_exit_2(tmp_path, rng, capsys):
    export_wbds(tmp_path / "train.wbds", Dataset(rng.standard_normal((4, 20))), LabelSet(rng.standard_normal((3, 20))))
    export_wbds(tmp_path / "val.wbds", Dataset(rng.standard_normal((4, 9))), LabelSet(rng.standard_normal((2, 9))))
    cfg, out = _file_run_config(tmp_path, "20", fmt="wbds")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "train.wbds") in err and str(tmp_path / "val.wbds") in err
    assert not out.exists()


@pytest.mark.parametrize("trainer", ["linear", "mlp"])
@pytest.mark.parametrize("wider", ["val", "test"])
def test_file_split_with_another_feature_count_exits_2_before_any_cell(tmp_path, rng, capsys, trainer, wider):
    # train.csv holds f0..f3 and the wider file f0..f4: the linear trainer stopped on a numpy matmul error, and the
    # mlp trainer wrote an error row for every cell
    for split, n in (("train", 12), ("val", 6), ("test", 6)):
        d = 5 if split == wider else 4
        export_csv(tmp_path / f"{split}.csv", Dataset(rng.standard_normal((d, n))), one_hot_labels(rng, 3, n))
    out = tmp_path / "results"
    sections = (_linear_sections if trainer == "linear" else _mlp_sections)(out)
    sections["data"] = {"source": "files", **{split: tmp_path / f"{split}.csv" for split in ("train", "val", "test")}}
    sections["sweep"] = {"sizes": "12", "trainer": trainer}
    cfg = tmp_path / "files.cfg"
    _write_run_config(cfg, sections)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / f"{wider}.csv") in err and str(tmp_path / "train.csv") in err and "features" in err
    assert not out.exists()


def test_file_source_path_of_another_suffix_exits_2_before_any_cell(tmp_path, rng, capsys):
    # the suffix picks the codec, as on the command line: csv content under a .dat name is still rejected
    export_csv(tmp_path / "train.dat", Dataset(rng.standard_normal((4, 12))), one_hot_labels(rng, 3, 12))
    cfg, out = _file_run_config(tmp_path, "12", fmt="dat")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "train.dat") in err and "suffix" in err
    assert not out.exists()


@pytest.mark.parametrize("fit_input", [False, True], ids=["input", "fit_input"])
def test_whiten_center_whitens_the_data_less_the_fit_mean(tmp_path, rng, capsys, fit_input):
    # the output is M (X - mean(fit)) for M fitted on fit - mean(fit); the printed fit_id is the uncentered fit set's
    X = Dataset(rng.standard_normal((4, 30)) + 3.0)
    export_csv(tmp_path / "x.csv", X, one_hot_labels(rng, 3, 30))
    argv = ["whiten", "--input", str(tmp_path / "x.csv"), "--mode", "zca", "--center",
            "--output", str(tmp_path / "w.wbds")]
    fit = X
    if fit_input:
        fit = Dataset(rng.standard_normal((4, 12)) - 1.0)
        export_wbds(tmp_path / "fit.wbds", fit)
        argv += ["--fit-input", str(tmp_path / "fit.wbds")]
    assert main(argv) == 0
    mean = fit.values.mean(axis=1, keepdims=True)
    M = fit_whitener(Dataset(fit.values - mean), mode="zca").M
    got, labels = ingest_wbds(tmp_path / "w.wbds")
    assert np.array_equal(got.values, M @ (X.values - mean))
    assert labels.output_dim == 3
    assert capsys.readouterr().out.rstrip().endswith(f"fit_id={fit.fingerprint()})")


def test_every_writing_command_makes_its_output_directory(tmp_path, rng):
    X = Dataset(rng.standard_normal((3, 8)))
    src = tmp_path / "white.wbds"
    export_wbds(src, apply_whitener(fit_whitener(X), X))
    spec = tmp_path / "plot.cfg"
    spec.write_text("[plot]\nx = dataset_size\ny = test_loss\ngroup = whitening_mode\n", encoding="utf-8")
    packed = tmp_path / "compress" / "new" / "packed.wbcp"
    argvs = [
        ["whiten", "--input", str(src), "--mode", "pca", "--output", str(tmp_path / "whiten" / "new" / "w.csv")],
        ["second-moments", "--input", str(src), "--which", "k",
         "--output", str(tmp_path / "moments" / "new" / "k.csv")],
        ["compress", "--input", str(src), "--output", str(packed)],
        ["reconstruct-k", "--input", str(packed), "--output", str(tmp_path / "reconstruct" / "new" / "k.csv")],
        ["plot", "--results", str(Path(__file__).parent / "data" / "small_results.csv"), "--spec", str(spec),
         "--output", str(tmp_path / "plot" / "new" / "chart.svg")],
    ]
    for argv in argvs:
        assert main(argv) == 0, argv[0]
        assert Path(argv[-1]).stat().st_size > 0, argv[0]


def _unreadable_cases(tmp_path):
    """case -> (argv, the path its error must name): each input or output path fails to read or write."""
    (tmp_path / "dir.csv").mkdir()
    (tmp_path / "file").write_text("a plain file", encoding="utf-8")
    (tmp_path / "latin1.cfg").write_bytes("[experiment]\nid = caf\xe9\n".encode("latin-1"))
    (tmp_path / "plot.cfg").write_text("[plot]\nx = dataset_size\ny = test_loss\ngroup = whitening_mode\n",
                                       encoding="utf-8")
    (tmp_path / "words.cfg").write_text("[plot]\nx = dataset_size\ny = stopping_reason\ngroup = whitening_mode\n",
                                        encoding="utf-8")
    results = tmp_path / "results.csv"
    results.write_bytes((Path(__file__).parent / "data" / "small_results.csv").read_bytes())
    export_wbds(tmp_path / "x.wbds", Dataset(np.eye(3)))

    def plot(results, spec="plot.cfg"):
        return ["plot", "--results", str(results), "--spec", str(tmp_path / spec), "--output", str(tmp_path / "c.svg")]

    return {
        "plot_results_missing": (plot(tmp_path / "none.csv"), tmp_path / "none.csv"),
        "plot_results_directory": (plot(tmp_path / "dir.csv"), tmp_path / "dir.csv"),
        "plot_non_numeric_cell": (plot(results, "words.cfg"), f"{results}: line 2"),
        "rank_input_directory": (["rank", "--input", str(tmp_path / "dir.csv")], tmp_path / "dir.csv"),
        "config_not_utf8": (["sweep", "--config", str(tmp_path / "latin1.cfg")], tmp_path / "latin1.cfg"),
        "config_directory": (["sweep", "--config", str(tmp_path / "dir.csv")], tmp_path / "dir.csv"),
        "output_parent_is_a_file": (["second-moments", "--input", str(tmp_path / "x.wbds"), "--which", "f",
                                     "--output", str(tmp_path / "file" / "f.csv")], tmp_path / "file" / "f.csv"),
    }


@pytest.mark.parametrize("case", ["plot_results_missing", "plot_results_directory", "plot_non_numeric_cell",
                                  "rank_input_directory", "config_not_utf8", "config_directory",
                                  "output_parent_is_a_file"])
def test_unreadable_input_or_unwritable_output_exits_2_naming_it(tmp_path, capsys, case):
    argv, named = _unreadable_cases(tmp_path)[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err
    assert "sizes list" not in err
