"""Executable forms of the information-theoretic claims.

Instead of estimating mutual information, each claim is checked through an
exact deterministic consequence: training trajectories are invariant to
rotating the inputs when the first-layer init is co-rotated (orbit
equivalence), a fully whitened dataset with n > d compresses to (n - d) d
scalars that still reconstruct the Gram matrix, and full whitening with
n <= d forces converged linear predictions to zero (chance-level metrics).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datatypes import Dataset, LabelSet, pseudoinverse
from .errors import DegenerateDataError, ValidationError
from .linear_flow import mse_per_sample, solve_optimum
from .models import MLP, accuracy, init_isotropic, train_to_cutoff
from .optimizers import OptimizerConfig, sgd_step
from .whitening import RankPolicy, apply_whitener, fit_whitener, verify_whitened


@dataclass(frozen=True)
class CompressedDataset:
    """Columns d+1..n of the reduced whitened dataset [I | payload].

    The leading d x d block is implicitly the identity, so only
    (n - d) * d scalars are stored. column_permutation, when present, maps
    stored column order back to the original one (needed when the leading
    block of the input was not invertible).
    """

    payload: np.ndarray
    d: int
    n: int
    column_permutation: np.ndarray | None = None

    def __post_init__(self):
        payload = np.array(self.payload, dtype=np.float64).reshape(self.d, self.n - self.d)
        payload.flags.writeable = False
        object.__setattr__(self, "payload", payload)

    @property
    def scalar_count(self) -> int:
        return self.payload.size


def _pivot_columns(values: np.ndarray, d: int) -> np.ndarray:
    """The d lead columns of a column-pivoted QR (LAPACK's geqp3 rule), by modified Gram-Schmidt.

    Each pick is the unpicked column with the largest residual norm (first on
    ties); its direction is then projected out of every residual column.
    """
    residual = values.copy()
    lead = []
    for _ in range(d):
        norms = np.einsum("ij,ij->j", residual, residual)
        norms[lead] = -1.0
        j = int(np.argmax(norms))
        lead.append(j)
        if norms[j] > 0:
            residual -= np.outer(residual[:, j], residual[:, j] @ residual) / norms[j]
    return np.array(lead)


def compress_whitened(X_hat: Dataset, whiteness_tol: float = 1e-6) -> CompressedDataset:
    """Reduce fully whitened data to its free (n - d) d scalars.

    Requires F-hat = I within whiteness_tol and n >= d. If the leading d
    columns are singular, the lead columns of a column-pivoted QR are moved
    to the front and the permutation is stored; with rank(X-hat) < d no
    invertible block exists and a degeneracy error is raised.
    """
    d, n = X_hat.feature_dim, X_hat.sample_count
    if n < d:
        raise ValidationError(f"compression needs n >= d, got d={d}, n={n}")
    report = verify_whitened(X_hat, tol=whiteness_tol)
    if report.ones_count != d or not report.passed:
        raise ValidationError(
            "input is not fully whitened: F-hat spectrum "
            f"has {report.ones_count} ones out of {d}"
        )

    values = X_hat.values
    perm = None
    block = values[:, :d]
    cond = float(np.linalg.cond(block)) if d > 0 else 1.0
    if not np.isfinite(cond) or cond > 1e8:
        # off the generic case: pick an invertible block by column pivoting
        lead = _pivot_columns(values, d)
        perm = np.concatenate([lead, np.setdiff1d(np.arange(n), lead)])
        values = values[:, perm]
        block = values[:, :d]
        cond = float(np.linalg.cond(block))
        if not np.isfinite(cond) or cond > 1e12:
            raise DegenerateDataError(
                "no invertible d-column block exists (rank-deficient whitened data)"
            )
    reduced = np.linalg.solve(block, values)  # [I | payload]
    return CompressedDataset(payload=reduced[:, d:], d=d, n=n, column_permutation=perm)


def reconstruct_K(c: CompressedDataset) -> np.ndarray:
    """Gram matrix of the whitened data from the compressed payload.

    K-hat = tilde-X^+ tilde-X with tilde-X = [I | payload]; any stored column
    permutation is undone so the result matches compute_K of the original.
    """
    tilde = np.hstack([np.eye(c.d), c.payload])
    K = pseudoinverse(tilde) @ tilde
    K = (K + K.T) / 2.0
    if c.column_permutation is not None:
        inv = np.empty_like(c.column_permutation)
        inv[c.column_permutation] = np.arange(c.n)
        K = K[np.ix_(inv, inv)]
    return K


def count_information_parameters(d: int, n: int, whitened: bool) -> int:
    """Scalars needed to determine the trained-model prediction distribution.

    Unwhitened: min(n d - (d^2 - d)/2, (n^2 + n)/2) (n magnitudes plus
    independent angles, capped by the symmetric Gram entries). Whitened with
    n >= d: (n - d) d. Whitened with n < d the Gram matrix is the identity,
    a constant, so the count is 0.
    """
    if d < 1 or n < 1:
        raise ValidationError("d and n must be positive")
    if whitened:
        return max(n - d, 0) * d
    return min(n * d - (d * d - d) // 2, (n * n + n) // 2)


@dataclass(frozen=True)
class OrbitReport:
    """Maximum trajectory deviations between a run and its rotated twin."""

    max_param_deviation: float
    max_activation_deviation: float
    max_loss_deviation: float
    max_prediction_deviation: float
    tolerance: float
    passed: bool

    @property
    def max_deviation(self) -> float:
        return max(
            self.max_param_deviation,
            self.max_activation_deviation,
            self.max_loss_deviation,
            self.max_prediction_deviation,
        )


def _pair_gap(stack) -> float:
    """Largest |slice i - slice m + i| over the pairs of a 2m stack."""
    m = len(stack) // 2
    return float(np.max(np.abs(stack[:m] - stack[m:]), initial=0.0))


def orbit_equivalence_check(
    X: Dataset,
    Y: LabelSet,
    R: np.ndarray,
    seed: int = 0,
    steps: int = 50,
    tol: float = 1e-10,
    family: str = "linear",
    X_test: Dataset | None = None,
    eta: float = 0.05,
    batch_size: int | None = None,
    hidden: int = 8,
    init_variance: float = 0.01,
) -> OrbitReport:
    """Train on (X, W0) and on (R X, W0 R^T) and compare the trajectories.

    R is one d x d rotation or an m x d x d stack. Pair i starts from the
    init of seed + i; all 2m runs (m bases, then m twins) train as one
    stacked MLP on the minibatch order drawn from `seed`. The parameter,
    activation, and loss trajectories (and the test predictions on X_test
    vs R X_test) must agree to rounding; the report keeps the worst pair.
    family is "linear" (one dense layer) or "mlp" (one relu hidden layer of
    `hidden`).
    """
    R = np.asarray(R, dtype=np.float64)
    d = X.feature_dim
    rotations = R[None] if R.ndim == 2 else R
    if rotations.ndim != 3 or rotations.shape[1:] != (d, d) or len(rotations) == 0:
        raise ValidationError(f"R must be {d} x {d} or a nonempty m x {d} x {d} stack, got shape {R.shape}")
    R_T = np.swapaxes(rotations, -1, -2)
    if np.max(np.abs(R_T @ rotations - np.eye(d))) > 1e-10:
        raise ValidationError("R is not orthogonal within 1e-10")
    if family not in ("linear", "mlp"):
        raise ValidationError(f"unknown model family {family!r}")

    m = len(rotations)
    sizes = [d, Y.output_dim] if family == "linear" else [d, hidden, Y.output_dim]
    inits = [init_isotropic(sizes, variance=init_variance, seed=seed + i) for i in range(m)]
    weights = [np.concatenate([np.stack(layer)] * 2) for layer in zip(*(init.weights for init in inits))]
    weights[0][m:] = weights[0][:m] @ R_T
    model = MLP(weights=weights, biases=inits[0].biases)

    def rotated(values):  # m copies of values, then the m rotated copies
        return np.concatenate([np.broadcast_to(values, (m,) + values.shape), rotations @ values])

    Xs = rotated(X.values)
    Xts = rotated(X_test.values) if X_test is not None else None

    cfg = OptimizerConfig(eta=eta, batch_size=batch_size)
    n = X.sample_count
    size = batch_size if batch_size not in (None, 0) else n
    rng = np.random.default_rng(seed)

    dev_param = dev_act = dev_loss = dev_pred = 0.0
    for step in range(steps):
        order = np.arange(n) if size >= n else rng.permutation(n)
        batch = order[:size]
        result = sgd_step(model, Xs[..., batch], Y.targets[:, batch], cfg)
        dev_loss = max(dev_loss, _pair_gap(result.loss_after))
        for W in model.weights[1:]:
            dev_param = max(dev_param, _pair_gap(W))
        dev_act = max(dev_act, _pair_gap(model.weights[0] @ Xs))
        if Xts is not None:
            dev_pred = max(dev_pred, _pair_gap(model.predict(Xts)))
    worst = max(dev_param, dev_act, dev_loss, dev_pred)
    return OrbitReport(
        max_param_deviation=dev_param,
        max_activation_deviation=dev_act,
        max_loss_deviation=dev_loss,
        max_prediction_deviation=dev_pred,
        tolerance=tol,
        passed=worst <= tol,
    )


@dataclass(frozen=True)
class NullPredictionReport:
    """Outcome of the full-whitening zero-prediction check."""

    max_abs_prediction: float
    test_loss: float
    expected_test_loss: float
    test_error: float
    expected_test_error: float
    passed: bool


def full_whitening_null_check(
    d: int,
    n_train: int,
    n_test: int,
    classes: int = 10,
    seed: int = 0,
    model: str = "linear",
    rng_labels: str = "uniform",
    cutoff: float = 0.999,
    step_cap: int = 8000,
    eta: float = 0.1,
    init_variance: float = 1e-2,
) -> NullPredictionReport:
    """Full-scope whitening with n_train + n_test <= d kills test information.

    For the linear model with W(0) = 0 the converged test predictions are
    exactly zero: per-sample MSE against one-hot labels is 0.5 and the
    deterministic argmax tie-break predicts class 0 everywhere. The "mlp"
    variant trains a small net to the accuracy cutoff and reports its
    (chance-level) test error; its expected error is 1 - 1/classes.
    """
    if n_train + n_test > d:
        raise ValidationError("full-whitening null check needs n_train + n_test <= d")
    rng = np.random.default_rng(seed)
    X_all = rng.standard_normal((d, n_train + n_test))
    if rng_labels == "uniform":
        idx = rng.integers(0, classes, size=n_train + n_test)
    else:
        idx = np.arange(n_train + n_test) % classes

    combined = Dataset(X_all)
    whitener = fit_whitener(combined, mode="pca", rank_policy=RankPolicy("manual"))
    X_hat = apply_whitener(whitener, combined).values
    Xtr = Dataset(X_hat[:, :n_train])
    Xte = Dataset(X_hat[:, n_train:])
    Ytr = LabelSet.from_class_ids(idx[:n_train], classes)
    Yte = LabelSet.from_class_ids(idx[n_train:], classes)

    if model == "linear":
        opt = solve_optimum(Xtr, Ytr, W0=np.zeros((classes, d)))
        preds = opt.predict(Xte)
        test_loss = mse_per_sample(preds, Yte)
        max_abs = float(np.max(np.abs(preds)))
        # rounding noise below the zero tolerance must not decide the argmax
        snapped = np.where(np.abs(preds) <= 1e-8, 0.0, preds)
        test_error = 1.0 - accuracy(snapped, Yte.targets)
        expected_error = 1.0 - float(np.mean(Yte.class_indices() == 0))
        passed = (
            max_abs <= 1e-8
            and abs(test_loss - 0.5) <= 1e-8
            and abs(test_error - expected_error) <= 1e-12
        )
        return NullPredictionReport(
            max_abs_prediction=max_abs,
            test_loss=test_loss,
            expected_test_loss=0.5,
            test_error=test_error,
            expected_test_error=expected_error,
            passed=passed,
        )
    if model != "mlp":
        raise ValidationError(f"unknown model {model!r}")
    net = init_isotropic([d, 32, 32, classes], variance=init_variance, seed=seed)
    cfg = OptimizerConfig(eta=eta, batch_size=None)
    record = train_to_cutoff(
        net, Xtr, Ytr, cfg, cutoff=cutoff, step_cap=step_cap, seed=seed,
        X_test=Xte, Y_test=Yte,
    )
    preds = net.predict(Xte.values)
    test_error = 1.0 - accuracy(preds, Yte.targets)
    expected_error = 1.0 - 1.0 / classes
    return NullPredictionReport(
        max_abs_prediction=float(np.max(np.abs(preds))),
        test_loss=record.test_loss[-1],
        expected_test_loss=0.5,
        test_error=test_error,
        expected_test_error=expected_error,
        passed=record.stopping_reason == "cutoff",
    )
