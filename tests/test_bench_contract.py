"""What the benchmark under bench/ needs from whitebench: every name it wraps or calls exists.

The bench files are read, never changed. bench/spans.py is loaded from its path (it imports only
the standard library); the names bench/workloads.py calls are listed here.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (module, name) that bench/workloads.py calls
WORKLOAD_NAMES = (
    ("linear_flow", "optimum_predictions"),
    ("linear_flow", "solve_optimum"),
    ("runner", "derive_seed"),
    ("synth", "SyntheticSpec"),
    ("synth", "synthesize"),
    ("runconfig", "parse_config"),
    ("cli", "main"),
)


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    spans = _spans()
    names = [(module, fn) for module, fn, _ in spans.LAYER_FUNCTIONS]
    names += [(module, f"{cls}.{method}") for module, cls, method in spans.LAYER_METHODS]
    names += [(module, fn) for module, fn, _, _ in spans.CELL_FUNCTIONS]
    return names + list(WORKLOAD_NAMES)


def _lookup(module_name, dotted):
    owner = importlib.import_module(f"whitebench.{module_name}")
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_bench_files_name_whitebench_functions():
    # guards the parse of spans.py itself: an empty table would make the test below vacuous
    names = _wrapped_names()
    assert ("runner", "run_cell") in names and ("models", "MLP.forward") in names
    assert ("cli", "main") in names


@pytest.mark.parametrize("module_name, name", _wrapped_names())
def test_every_name_the_bench_uses_exists(module_name, name):
    assert callable(_lookup(module_name, name)), f"whitebench.{module_name}.{name}"


def test_run_suites_calls_the_suite_functions_bound_in_verify(monkeypatch):
    # the bench times a verify suite by rebinding its name in whitebench.verify, so run_suites must look
    # the suite functions up when it runs
    from whitebench import verify

    called = []
    monkeypatch.setattr(verify, "suite_newton_equivalence", lambda: called.append(True) or [])
    report = verify.run_suites(["newton-equivalence"])
    assert called == [True] and report["suites"]["newton-equivalence"]["checks"] == []
    assert verify.SUITES == ("orbit", "compression", "newton-equivalence", "null-prediction")
