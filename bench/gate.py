"""Correctness gate: each function returns the labels of the cells that failed.

A cell fails when it yields an `error` row, when its sweep row differs from
the reference pass (the README promises byte-identical sweep CSVs for one
seed), when a verify check fails, or when optimum_predictions strays from
solve_optimum.
"""
from __future__ import annotations

import csv
import io
import math

# optimum_predictions against solve_optimum(...).predict, max abs difference.
# Measured gaps are <= 2e-11 at d=512 and n = 128, 1024, 2048.
OPTIMUM_TOLERANCE = 1e-8


def _rows(csv_bytes: bytes) -> list:
    return list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))


def sweep_label(row) -> str:
    return f"n={row['dataset_size']}/{row['whitening_mode']}/seed={row['seed']}"


def sweep_failures(reference: bytes, current: bytes, expected) -> list:
    """Sweep cells that are missing, errored, or differ from the reference pass."""
    ref = {sweep_label(r): r for r in _rows(reference)}
    cur = {sweep_label(r): r for r in _rows(current)}
    failed = {label for label in expected if label not in cur}
    failed |= {label for label, row in cur.items() if row["stopping_reason"] == "error"}
    failed |= {label for label in ref.keys() | cur.keys() if ref.get(label) != cur.get(label)}
    return sorted(failed)


def verify_failures(report: dict, expected_suites) -> list:
    """Suites that are missing from the report or have a failing check."""
    suites = report.get("suites", {})
    failed = {name for name in expected_suites if name not in suites}
    for name, suite in suites.items():
        if not suite["passed"] or not all(c["passed"] for c in suite["checks"]):
            failed.add(name)
    return sorted(failed)


def optimum_failures(gaps: dict, tolerance: float = OPTIMUM_TOLERANCE) -> list:
    """optimum_predictions cells whose gap to solve_optimum exceeds the tolerance."""
    return sorted(label for label, gap in gaps.items() if not (math.isfinite(gap) and gap <= tolerance))
