"""Machine-checkable property battery behind the `verify` CLI subcommand.

Each suite runs deterministic checks of the core claims (orbit equivalence,
compression round trips, Newton/whitened-GD equivalence, full-whitening null
predictions) and reports per-check deviations against fixed tolerances.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from .dataio import open_in_place
from .datatypes import Dataset, LabelSet, random_orthogonal
from .errors import ValidationError, WhitebenchError
from .info_checks import (
    compress_whitened,
    count_information_parameters,
    full_whitening_null_check,
    orbit_equivalence_check,
    reconstruct_K,
)
from .linear_flow import LinearModel
from .optimizers import OptimizerConfig, newton_step, sgd_step
from .models import init_isotropic, run_steps
from .whitening import RankPolicy, apply_whitener, fit_whitener

@dataclass
class CheckResult:
    check: str
    passed: bool
    max_deviation: float
    tolerance: float


def suite_orbit(r_count: int = 100) -> list:
    """Trajectory identity under input rotation with co-rotated first layer.

    Each family trains its r_count rotation pairs as one stack; pair i
    rotates by random_orthogonal(seed=1000 + i) from the init of seed i.
    """
    d, k, n = 6, 3, 12
    R = random_orthogonal(d, seed=range(1000, 1000 + r_count))
    results = []
    for family, steps, tol in (("linear", 50, 1e-10), ("mlp", 20, 1e-8)):
        rng = np.random.default_rng(7 if family == "linear" else 8)
        X = Dataset(rng.standard_normal((d, n)))
        Y = LabelSet.from_class_ids(rng.integers(0, k, size=n), k)
        X_test = Dataset(rng.standard_normal((d, 5)))
        report = orbit_equivalence_check(
            X, Y, R, seed=0, steps=steps, tol=tol, family=family, X_test=X_test
        )
        results.append(CheckResult(f"orbit_{family}", report.passed, report.max_deviation, tol))
    return results


def _whitened_cases(d: int, n: int) -> np.ndarray:
    """The PCA-whitened d x n Gaussian draws of one compression case's 10 seeds, fitted as one 10 x d x n stack."""
    X = np.array([np.random.default_rng(seed * 1009 + d * 31 + n).standard_normal((d, n)) for seed in range(10)])
    return fit_whitener(X, mode="pca", rank_policy=RankPolicy("manual")).M @ X


def suite_compression() -> list:
    """Whitened-data compression round trip and payload minimality.

    Each (d, n) whitens, compresses and reconstructs its 10 seeds as one m x d x n stack.
    """
    tol = 1e-8
    worst = 0.0
    payload_ok = True
    for d in range(2, 6):
        for n in range(d + 1, d + 7):
            X_hat = _whitened_cases(d, n)
            c = compress_whitened(X_hat)
            payload_ok &= c.scalar_count == count_information_parameters(d, n, whitened=True)
            K = np.swapaxes(X_hat, 1, 2) @ X_hat  # compute_K of each slice
            worst = max(worst, float(np.max(np.abs(reconstruct_K(c) - K))))
    return [
        CheckResult("compression_round_trip", worst <= tol, worst, tol),
        CheckResult("compression_payload_size", payload_ok, 0.0 if payload_ok else 1.0, 0.0),
    ]


def newton_whitened_gd_deviation(
    d: int = 32, n: int = 256, n_test: int = 64, steps: int = 100, eta: float = 0.3, seed: int = 0
) -> float:
    """Max per-step prediction gap: Newton on raw data vs GD on whitened data.

    Both models start from zero output. Whitening is train-fitted PCA, so
    M^T M equals the inverse of the raw second moment and the two update
    rules coincide mode by mode. Newton proves and inverts F once: each step
    hands its F^-1 and its train predictions on to the next.
    """
    if steps < 1:
        raise ValidationError("steps must be at least 1")
    rng = np.random.default_rng(seed)
    X = Dataset(rng.standard_normal((d, n)))
    X_test = Dataset(rng.standard_normal((d, n_test)))
    Y = LabelSet.from_class_ids(rng.integers(0, 10, size=n), 10)

    W = fit_whitener(X, mode="pca", rank_policy=RankPolicy("manual"))
    X_hat = apply_whitener(W, X)
    X_test_hat = apply_whitener(W, X_test)

    newton = LinearModel(np.zeros((10, d)))
    gd = init_isotropic([d, 10], variance=0.0)
    cfg = OptimizerConfig(eta=eta)
    worst, handed = 0.0, {"solve": None, "predictions": None}
    for _, forward in islice(run_steps(gd, X_hat.values, Y.targets, cfg, sgd_step, seed), 1, steps + 1):
        handed = newton_step(newton, X.values, Y.targets, cfg, handed["solve"], handed["predictions"]).diagnostics
        worst = max(
            worst,
            float(np.max(np.abs(handed["predictions"] - forward[0]))),
            float(np.max(np.abs(newton.W @ X_test.values - gd.weights[0] @ X_test_hat.values))),
        )
    return worst


def suite_newton_equivalence() -> list:
    tol = 1e-10
    dev = newton_whitened_gd_deviation()
    return [CheckResult("newton_equals_whitened_gd", dev <= tol, dev, tol)]


def suite_null_prediction() -> list:
    results = []
    for seed in range(3):
        report = full_whitening_null_check(d=64, n_train=32, n_test=16, seed=seed)
        dev = max(report.max_abs_prediction, abs(report.test_loss - 0.5))
        results.append(CheckResult(f"null_prediction_seed{seed}", report.passed, dev, 1e-8))
    return results


def _suite_runners() -> dict:
    """Suite name -> suite function, looked up at each call, so a suite rebound in this module (by a test or a
    timing harness) is the one that runs."""
    return {
        "orbit": suite_orbit,
        "compression": suite_compression,
        "newton-equivalence": suite_newton_equivalence,
        "null-prediction": suite_null_prediction,
    }


SUITES = tuple(_suite_runners())


def run_suites(names) -> dict:
    """Run the named suites (or all) and assemble a JSON-ready report."""
    chosen = list(SUITES) if "all" in names else list(names)
    report = {"suites": {}, "passed": True}
    runners = _suite_runners()
    for name in chosen:
        if name not in runners:
            raise WhitebenchError(f"unknown verify suite {name!r}")
        checks = runners[name]()
        ok = all(c.passed for c in checks)
        report["suites"][name] = {"passed": ok, "checks": [asdict(c) for c in checks]}
        report["passed"] = report["passed"] and ok
    return report


def write_report(report: dict, path):
    with open_in_place(path) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
