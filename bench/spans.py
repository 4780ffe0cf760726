"""Span and cell recorder that wraps whitebench functions from outside.

Nothing under src/ is changed: each traced function is replaced, for the
length of a pass, in every whitebench module that binds it, so a caller
that imported the name (runner imports early_stop, info_checks imports
sgd_step) sees the wrapper just like a caller that goes through the module
(cli calls runner.sweep that way).

Cells (a sweep cell, a verify suite, an optimum_predictions call) are timed
on every pass. Layer spans and counters are recorded only while tracing is
installed; spans are kept in memory and written out by the caller when the
run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _error_rows(result, args, kwargs):
    return {"runner.error_rows": sum(1 for r in result if r.stopping_reason == "error")}


def _boundary_hits(result, args, kwargs):
    return {"linear_flow.early_stop.boundary_hits": int(bool(result[1].metadata.get("boundary_hit")))}


def _failed_checks(result, args, kwargs):
    return {"verify.checks_failed": sum(1 for c in result if not c.passed)}


# (module, function, counters taken from its return value)
LAYER_FUNCTIONS = (
    ("cli", "main", None),
    ("runconfig", "parse_config", None),
    ("runner", "write_rows_csv", None),
    ("synth", "synthesize", None),
    ("whitening", "fit_whitener", None),
    ("whitening", "apply_whitener", None),
    ("linear_flow", "build_flow", None),
    ("linear_flow", "early_stop", _boundary_hits),
    ("linear_flow", "flow_at", None),
    ("linear_flow", "optimum_predictions", None),
    ("datatypes", "eigh", None),
    ("datatypes", "pseudoinverse", None),
    ("optimizers", "sgd_step", None),
    ("optimizers", "newton_step", None),
    ("info_checks", "orbit_equivalence_check", None),
    ("info_checks", "compress_whitened", None),
    ("info_checks", "reconstruct_K", None),
    ("info_checks", "full_whitening_null_check", None),
)
LAYER_METHODS = (("models", "MLP", "forward"), ("models", "MLP", "grads_from"))

# Cell boundaries: (module, function, span name, counters).
CELL_FUNCTIONS = (
    ("runner", "run_cell", "runner.run_cell", _error_rows),
    ("verify", "suite_orbit", "verify.suite.orbit", _failed_checks),
    ("verify", "suite_compression", "verify.suite.compression", _failed_checks),
    ("verify", "suite_newton_equivalence", "verify.suite.newton-equivalence", _failed_checks),
    ("verify", "suite_null_prediction", "verify.suite.null-prediction", _failed_checks),
)


def _whitebench_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "whitebench" or name.startswith("whitebench."))]


def _rebind(original, replacement):
    """Point every whitebench module binding of `original` at `replacement`."""
    undo = []
    for module in _whitebench_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


class Recorder:
    """Per-cell wall times on every pass; spans and counters while tracing."""

    def __init__(self):
        self.cell_times = []        # seconds per cell, in call order
        self.spans = []             # (span id, parent id, cell id, name, start ns, end ns, self ns)
        self.counts = Counter()
        self.tracing = False
        self.before_cell = None     # called before a cell's timer starts
        self._stack = []            # [span id, child ns] of the open spans
        self._cell_id = 0

    # -- cells -------------------------------------------------------------

    def install_cells(self):
        """Time every cell boundary for the rest of the run."""
        import importlib

        for module_name, fn_name, span_name, counters in CELL_FUNCTIONS:
            module = importlib.import_module(f"whitebench.{module_name}")
            original = getattr(module, fn_name)
            _rebind(original, self._wrap(span_name, original, counters, cell=True))

    @contextmanager
    def cell(self, name):
        """Time a cell the benchmark calls directly."""
        start = self._open(cell=True)
        try:
            yield
        finally:
            self._close(name, start, cell=True)

    # -- layer spans -------------------------------------------------------

    @contextmanager
    def traced(self):
        """Wrap every layer function for the duration of one pass."""
        import importlib

        undo = []
        for module_name, fn_name, counters in LAYER_FUNCTIONS:
            module = importlib.import_module(f"whitebench.{module_name}")
            original = getattr(module, fn_name)
            undo += _rebind(original, self._wrap(f"{module_name}.{fn_name}", original, counters))
        for module_name, cls_name, method in LAYER_METHODS:
            cls = getattr(importlib.import_module(f"whitebench.{module_name}"), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(f"{module_name}.{cls_name}.{method}", original, None))
            undo.append((cls, method, original))
        self.tracing = True
        try:
            yield
        finally:
            self.tracing = False
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- internals ---------------------------------------------------------

    def _wrap(self, name, fn, counters, cell=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._open(cell)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start, cell)
            if counters and self.tracing:
                self.counts.update(counters(result, args, kwargs))
            return result

        return wrapper

    def _open(self, cell):
        if cell:
            if self.before_cell:
                self.before_cell()
            self._cell_id += 1
        if self.tracing:
            self._stack.append([len(self.spans) + len(self._stack), 0])
        return time.perf_counter_ns()

    def _close(self, name, start, cell):
        end = time.perf_counter_ns()
        if cell:
            self.cell_times.append((end - start) * 1e-9)
        if self.tracing and self._stack:
            span_id, child_ns = self._stack.pop()
            duration = end - start
            parent = self._stack[-1][0] if self._stack else -1
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((span_id, parent, self._cell_id, name, start, end, duration - child_ns))


def layer_totals(spans, counts):
    """busy_s, self_s and calls per span name, plus the counters, for one pass."""
    busy = defaultdict(int)
    own = defaultdict(int)
    calls = Counter()
    for _, _, _, name, start, end, self_ns in spans:
        busy[name] += end - start
        own[name] += self_ns
        calls[name] += 1
    out = dict(counts)
    for name in busy:
        out[f"{name}.busy_s"] = busy[name] * 1e-9
        out[f"{name}.self_s"] = own[name] * 1e-9
        out[f"{name}.calls"] = calls[name]
    return out
