"""The run configs under experiments/ plan, and run shrunk through `whitebench sweep`.

Each shipped config is parsed and planned as it stands; a copy at one size,
one seed and step_cap 5 must then run with no `error` rows. The README's
example configs run as written, with only their output_dir moved.
"""
import configparser
import csv
from pathlib import Path

import pytest

from whitebench.cli import main
from whitebench.plotting import PlotSpec
from whitebench.runconfig import parse_config
from whitebench.runner import plan_run

REPO = Path(__file__).resolve().parent.parent
EXPERIMENTS = REPO / "experiments"
CONFIGS = sorted(EXPERIMENTS.glob("*.cfg"))


def _shrunk(path: Path, tmp_path: Path, overrides: dict = ()) -> Path:
    """Copy of a shipped config at its first size, seed 0 and step_cap 5, writing under tmp_path."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read(path, encoding="utf-8")
    parser["experiment"]["seeds"] = "0"
    parser["experiment"]["output_dir"] = str(tmp_path / "results")
    parser["sweep"]["sizes"] = parser["sweep"]["sizes"].split()[0]
    if parser.has_section("optimizer"):
        parser["optimizer"]["step_cap"] = "5"
    for (section, key), value in dict(overrides).items():
        parser[section][key] = value
    out = tmp_path / path.name
    with open(out, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return out


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_the_four_experiment_configs_are_shipped():
    assert [p.stem for p in CONFIGS] == ["generalization", "lambda_sweep", "null_regime", "speedup_cutoff"]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_experiment_config_plans(path):
    cfg = parse_config(path)
    plan = plan_run(cfg, cfg.sweep["trainer"], cfg.sweep["sizes"])
    assert plan.sizes == tuple(cfg.sweep["sizes"])
    assert PlotSpec.from_config(cfg).x in ("dataset_size", "reg_lambda")


def test_plot_spec_files_parse():
    specs = sorted(EXPERIMENTS.glob("*.spec"))
    assert specs
    for path in specs:
        assert PlotSpec.from_config(parse_config(path)).y == "test_error"


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_experiment_config_runs_shrunk(path, tmp_path):
    shrunk = _shrunk(path, tmp_path)
    assert main(["sweep", "--config", str(shrunk)]) == 0
    cfg = parse_config(shrunk)
    rows = _rows(tmp_path / "results" / f"{cfg.experiment_id}_sweep.csv")
    assert len(rows) == len(cfg.get("whitening", "modes")) * len(cfg.get("optimizer", "reg_lambda"))
    assert all(row["stopping_reason"] != "error" for row in rows)


def test_lambda_sweep_rows_are_paired_and_report_the_best_validation_step(tmp_path):
    # a nonzero init makes the step-0 loss depend on the draw and the initial
    # weights, so equal step-0 losses across lambda show the cells are paired
    size = parse_config(EXPERIMENTS / "lambda_sweep.cfg").sweep["sizes"][0]
    overrides = {
        ("optimizer", "reg_lambda"): "0 0.5 1",
        ("model", "init_variance"): "1e-2",
        ("data", "n_train"): str(size),
    }
    shrunk = _shrunk(EXPERIMENTS / "lambda_sweep.cfg", tmp_path, overrides)
    assert main(["sweep", "--config", str(shrunk)]) == 0
    assert main(["train-mlp", "--config", str(shrunk)]) == 0
    terminal = _rows(tmp_path / "results" / "lambda_sweep_sweep.csv")
    trajectory = _rows(tmp_path / "results" / "lambda_sweep_mlp.csv")
    assert [row["reg_lambda"] for row in terminal] == ["0.0", "0.5", "1.0"]
    step0 = [row["train_loss"] for row in trajectory if row["step_or_time"] == "0"]
    assert len(step0) == 3 and len(set(step0)) == 1
    for row in terminal:
        steps = [r for r in trajectory if r["reg_lambda"] == row["reg_lambda"] and int(r["step_or_time"]) >= 1]
        best = min(steps, key=lambda r: float(r["val_loss"]))
        assert row["steps_to_best_val"] == best["step_or_time"]
        assert row["stopping_reason"] in ("cutoff", "cap")


def test_readme_quick_tour_runs_as_written():
    # the README's one python block, run as written: it once used X_val, Y_val and X_test without defining them
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["t_star"] > 0.0 and namespace["preds"].shape == (3, 20)


def test_readme_example_config_runs_as_written(tmp_path):
    # every ini block of the README, under `sweep` and the train-* command of its [sweep] trainer
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    examples = [block.split("```", 1)[0] for block in readme.split("```ini\n")[1:]]
    assert len(examples) == 2
    for i, example in enumerate(examples):
        assert "\noutput_dir = results\n" in example
        cfg = tmp_path / f"example{i}.cfg"
        cfg.write_text(example.replace("\noutput_dir = results\n", f"\noutput_dir = {tmp_path / 'results'}\n"),
                       encoding="utf-8")
        parsed = parse_config(cfg)
        for command in ("sweep", f"train-{parsed.get('sweep', 'trainer')}"):
            assert main([command, "--config", str(cfg)]) == 0, (i, command)
        rows = _rows(tmp_path / "results" / f"{parsed.experiment_id}_sweep.csv")
        assert all(row["stopping_reason"] != "error" for row in rows)
    assert len(_rows(tmp_path / "results" / "demo_sweep.csv")) == 36  # 4 sizes x 3 arms x 3 seeds
