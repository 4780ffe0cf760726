"""Linear sweeps pinned against rows written by earlier, independent code.

`data/golden_linear_sweep.csv` holds the terminal rows of the configs
below. The `none` rows were written by the early-stop scan that rebuilt W(t)
and predicted at every grid time. The whitened rows (train and full,
`golden_newton`) were rewritten when the arms of a (size, seed) group came to
share one draw, by the code before that change, which drew per arm, with its
run seed pinned to the `none` arm's. The `golden_white` (ZCA, centered,
manual, W0 != 0) and `golden_jitter` (ZCA, centered, jitter, W0 = 0) rows
were written by the code that multiplied every split by M, before the linear
trainer first carried the whitener M into the flow. The `golden_jitter_init`
rows (ZCA, centered, jitter, W0 != 0, above d) were written by the code that
bisected the closed-form slope for t*, before the regula falsi solve. The
current code must give the same rows:
val_loss within 1e-10 relative; t* within 1e-6 relative, since the older
rows' t* came from a golden-section search on loss values, up to 1.7e-7 from
the root of the validation slope that `early_stop` now finds; train_loss and
test_loss, which follow t*, within 1e-6 relative; test_error and
stopping_reason exactly.

`PYTHONPATH=src python tests/test_golden_sweep.py` appends to that file the
rows of each config below whose experiment id has none there yet, from the
current code and in the file's own header columns. Rows already pinned keep
their bytes: the writer never re-pins them to the code under test.
"""
import csv
from pathlib import Path

import pytest

from whitebench.runconfig import parse_config
from whitebench.runner import RESULT_COLUMNS, sweep, write_rows_csv

GOLDEN = Path(__file__).parent / "data" / "golden_linear_sweep.csv"

_DATA = {"source": "synthetic", "d": 16, "alpha": 1.5, "n_val": 24, "n_test": 48, "classes": 4, "label_noise": 0.5}
# experiment id -> (whitening arms, seeds, sizes, [flow] section, other [whitening] keys)
CONFIGS = {
    # sizes on both sides of d = 16
    "golden": ("none train full", "0 1", "8 32 128", {"grid_points": 200}, {}),
    # n < d with W0 != 0: null modes keep their initial weights
    "golden_init": ("none", "0", "8", {"init_variance": 0.05}, {}),
    "golden_newton": ("train", "0", "32", {"precondition": "newton"}, {}),
    # the whitener's options on both sides of d: W0 != 0 under manual rank control, W0 = 0 under jitter,
    # which scales a W0's weight outside the fit's span by up to 1/sqrt(epsilon)
    "golden_white": ("train full", "0 1", "8 32", {"init_variance": 0.05},
                     {"transform": "zca", "center": "true", "rank_policy": "manual"}),
    "golden_jitter": ("train full", "0 1", "8 32", {}, {"transform": "zca", "center": "true", "rank_policy": "jitter"}),
    # W0 != 0 under jitter above d, where the fit spans every direction and no weight is scaled by 1/sqrt(epsilon)
    "golden_jitter_init": ("train full", "0 1", "32", {"init_variance": 0.05},
                           {"transform": "zca", "center": "true", "rank_policy": "jitter"}),
}
KEY = ("experiment_id", "seed", "dataset_size", "whitening_mode")
RELATIVE = {"val_loss": 1e-10, "step_or_time": 1e-6, "train_loss": 1e-6, "test_loss": 1e-6}
EXACT = ("optimizer", "test_error", "stopping_reason")


def _rows(tmp_dir: Path, configs: dict = CONFIGS):
    rows = []
    for exp_id, (modes, seeds, sizes, flow, whitening) in configs.items():
        sections = {
            "experiment": {"id": exp_id, "master_seed": 7, "seeds": seeds},
            "data": _DATA,
            "whitening": {"modes": modes, **whitening},
            "flow": flow,
        }
        path = tmp_dir / f"{exp_id}.cfg"
        text = [f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items()) for name, items in sections.items()]
        path.write_text("\n".join(text), encoding="utf-8")
        rows += sweep(parse_config(path), "linear", [int(s) for s in sizes.split()], include_trajectory=False)
    return rows


def _read(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        return {tuple(row[k] for k in KEY): row for row in csv.DictReader(fh)}


def test_sweep_matches_golden_rows(tmp_path):
    out = tmp_path / "rows.csv"
    write_rows_csv(out, _rows(tmp_path))
    got, want = _read(out), _read(GOLDEN)
    assert sorted(got) == sorted(want)
    assert len(want) == 3 * 3 * 2 + 2 + 2 * 2 * 2 * 2 + 2 * 2
    for key, expected in want.items():
        row = got[key]
        for col in EXACT:
            assert row[col] == expected[col], (key, col)
        for col, tol in RELATIVE.items():
            assert float(row[col]) == pytest.approx(float(expected[col]), rel=tol, abs=0.0), (key, col)


def test_writer_appends_only_the_missing_configs(tmp_path):
    # rows already pinned keep their bytes; a config with no row gets its rows in the file's own columns
    path = tmp_path / "golden.csv"
    kept = b"".join(line for line in GOLDEN.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"golden_init,"))
    path.write_bytes(kept)
    assert append_missing_rows(path) == ["golden_init"]
    written = path.read_bytes()
    assert written.startswith(kept) and len(written) > len(kept)
    assert append_missing_rows(path) == [] and path.read_bytes() == written
    got, want = _read(path), _read(GOLDEN)
    assert sorted(got) == sorted(want)
    key = ("golden_init", "0", "8", "none")
    assert list(got[key]) == list(want[key])
    for col, tol in RELATIVE.items():
        assert float(got[key][col]) == pytest.approx(float(want[key][col]), rel=tol, abs=0.0), col


def append_missing_rows(path: Path = GOLDEN):
    """Append the rows of the configs with no row in `path` yet, in its header's columns."""
    import tempfile

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        pinned = {row["experiment_id"] for row in reader}
        header = reader.fieldnames
    missing = {exp_id: config for exp_id, config in CONFIGS.items() if exp_id not in pinned}
    with tempfile.TemporaryDirectory() as tmp:
        rows = _rows(Path(tmp), missing)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in rows:
            cells = dict(zip(RESULT_COLUMNS, row.to_csv()))
            writer.writerow([cells[col] for col in header])
    return sorted(missing)


if __name__ == "__main__":
    print("appended the rows of", append_missing_rows() or "no config")
