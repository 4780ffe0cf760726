"""Self-tests for the benchmark's gate, percentile helper and span recorder.

Run from the root of the repository: python3 -m pytest bench/test_bench.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, layer_totals  # noqa: E402


def _sweep_csv(tmp_path, n_val=6):
    from whitebench import cli

    config = tmp_path / "sweep.cfg"
    workloads.write_config(config, {
        "experiment": {"id": "t", "master_seed": 5, "seeds": "0 1", "output_dir": tmp_path},
        "data": {"source": "synthetic", "d": 6, "n_val": n_val, "n_test": 6, "classes": 3},
        "whitening": {"modes": "none full"},
        "flow": {"grid_points": 20},
        "sweep": {"sizes": "4 9", "trainer": "linear"},
    })
    assert cli.main(["sweep", "--config", str(config), "--workers", "1"]) == 0
    return (tmp_path / "t_sweep.csv").read_bytes()


CELLS = [f"n={n}/{m}/seed={s}" for n in (4, 9) for m in ("none", "full") for s in (0, 1)]


def test_identical_sweep_passes_pass_the_gate(tmp_path):
    first = _sweep_csv(tmp_path)
    assert gate.sweep_failures(first, _sweep_csv(tmp_path), CELLS) == []


def test_perturbed_sweep_csv_fails_its_cell(tmp_path):
    reference = _sweep_csv(tmp_path)
    lines = reference.decode().splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[7] = repr(float(fields[7]) * (1 + 1e-12))  # val_loss, last digits only
    lines[3] = ",".join(fields)
    perturbed = "".join(lines).encode()
    row = next(r for i, r in enumerate(gate._rows(reference)) if i == 2)
    assert gate.sweep_failures(reference, perturbed, CELLS) == [gate.sweep_label(row)]


def test_missing_sweep_row_fails_its_cell(tmp_path):
    reference = _sweep_csv(tmp_path)
    truncated = b"".join(reference.splitlines(keepends=True)[:-1])
    assert len(gate.sweep_failures(reference, truncated, CELLS)) == 1


def test_error_rows_fail_their_cells(tmp_path):
    # without a validation split every flow cell becomes an `error` row
    errored = _sweep_csv(tmp_path, n_val=0)
    assert {r["stopping_reason"] for r in gate._rows(errored)} == {"error"}
    assert gate.sweep_failures(errored, errored, CELLS) == sorted(CELLS)


def test_failed_verify_check_fails_its_suite(tmp_path):
    suites = workloads.VerifyAll.SUITES
    report = {"passed": False, "suites": {
        name: {"passed": True, "checks": [{"check": "c", "passed": True, "max_deviation": 0.0, "tolerance": 1.0}]}
        for name in suites}}
    report["suites"]["orbit"]["checks"].append(
        {"check": "orbit_mlp", "passed": False, "max_deviation": 2.0, "tolerance": 1.0})
    report["suites"]["orbit"]["passed"] = False
    workload = workloads.VerifyAll(tmp_path, seed=0)
    workload.report.write_text(json.dumps(report))
    workload.rc = 1
    assert workload.failures(0) == ["orbit"]
    assert {"suite": "orbit", "check": "orbit_mlp", "passed": False, "max_deviation": 2.0,
            "tolerance": 1.0} in workload.details["verify_checks"]
    del report["suites"]["compression"]
    assert gate.verify_failures(report, suites) == ["compression", "orbit"]


def test_optimum_gap_above_tolerance_or_nan_fails():
    gaps = {"optimum/n=1": 1e-12, "optimum/n=2": 1e-6, "optimum/n=3": float("nan")}
    assert gate.optimum_failures(gaps) == ["optimum/n=2", "optimum/n=3"]


def test_raising_pass_counts_every_cell_as_failed(tmp_path):
    class Broken(workloads.Workload):
        def run(self, k, rec):
            raise np.linalg.LinAlgError("boom")

        def expected(self, k):
            return ["a", "b", "c"]

    result = run.one_pass(Broken(tmp_path, seed=0), Recorder(), 0, False, speed.SpeedSampler())
    assert result["failed"] == ["a", "b", "c"] and "LinAlgError" in result["error"]


@pytest.mark.parametrize("n", [1, 2, 5, 36, 100, 101])
@pytest.mark.parametrize("p", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy(n, p):
    values = list(np.random.default_rng(n).standard_normal(n))
    assert stats.percentile(values, p) == pytest.approx(float(np.percentile(values, p)), abs=1e-12)


def test_percentile_rejects_no_values():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_sample_counts_behind_the_tail():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.samples_beyond(36, 50) == 18
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(200) == 95
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(99) == 75
    assert stats.tail_percentile(36) == 50
    assert stats.tail_percentile(19) is None


def test_recorder_nests_spans_and_restores_the_program():
    from whitebench import datatypes, linear_flow, optimizers

    original = datatypes.eigh
    rec = Recorder()
    with rec.traced():
        assert linear_flow.eigh is not original and optimizers.eigh is linear_flow.eigh
        with rec.cell("c"):
            linear_flow.solve_optimum(datatypes.Dataset(np.eye(3)), datatypes.LabelSet(np.eye(3)))
    assert datatypes.eigh is original and linear_flow.eigh is original
    totals = layer_totals(rec.spans, rec.counts)
    assert totals["datatypes.eigh.calls"] == 1 and len(rec.cell_times) == 1
    (eigh_id, eigh_parent, eigh_cell, eigh_name, *_), (cell_id, cell_parent, _, cell_name, start, end, self_ns) = rec.spans
    assert (eigh_name, cell_name) == ("datatypes.eigh", "c") and eigh_cell == 1
    assert eigh_parent == cell_id and cell_parent == -1 and eigh_id != cell_id
    assert 0 < self_ns < end - start
