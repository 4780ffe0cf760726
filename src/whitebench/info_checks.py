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
from itertools import islice

import numpy as np

from .datatypes import Dataset, LabelSet
from .errors import DegenerateDataError, ValidationError
from .linear_flow import mse_per_sample, solve_optimum
from .models import MLP, accuracy, init_isotropic, run_steps, train_to_cutoff
from .optimizers import OptimizerConfig, sgd_step
from .whitening import RankPolicy, apply_whitener, fit_whitener


@dataclass(frozen=True)
class CompressedDataset:
    """Columns d+1..n of the reduced whitened dataset [I | payload].

    The leading d x d block is implicitly the identity, so only
    (n - d) * d scalars are stored. column_permutation, when present, maps
    stored column order back to the original one (needed when the leading
    block of the input was not invertible). A stack of m datasets carries a
    leading axis on both: an m x d x (n - d) payload and, when any slice was
    permuted, an m x n permutation (the identity for the others).
    """

    payload: np.ndarray
    d: int
    n: int
    column_permutation: np.ndarray | None = None

    def __post_init__(self):
        payload = np.array(self.payload, dtype=np.float64)
        payload = payload.reshape(payload.shape[:-2] + (self.d, self.n - self.d))
        payload.flags.writeable = False
        object.__setattr__(self, "payload", payload)

    @property
    def scalar_count(self) -> int:
        """Scalars stored per dataset."""
        return self.d * (self.n - self.d)


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


def compress_whitened(X_hat, whiteness_tol: float = 1e-6) -> CompressedDataset:
    """Reduce fully whitened data to its free (n - d) d scalars.

    X_hat is a d x n Dataset or array, or an m x d x n array: a stack of m
    datasets, each reduced as on its own, in one call. Requires n >= d and
    every eigenvalue of each F-hat within whiteness_tol of 1. If a slice's
    leading d columns are singular, the lead columns of a column-pivoted QR
    are moved to the front and the permutation is stored; with rank < d no
    invertible block exists and a degeneracy error is raised.
    """
    values = X_hat.values if isinstance(X_hat, Dataset) else np.asarray(X_hat, dtype=np.float64)
    stacked = values.ndim == 3
    values = values if stacked else values[None]
    if values.ndim != 3 or 0 in values.shape:
        raise ValidationError(f"X_hat must be a d x n matrix or an m x d x n stack, got shape {np.shape(X_hat)}")
    if not np.isfinite(values).all():
        raise ValidationError("X_hat contains non-finite entries")
    if whiteness_tol <= 0:
        raise ValidationError("whiteness_tol must be positive")
    m, d, n = values.shape
    if n < d:
        raise ValidationError(f"compression needs n >= d, got d={d}, n={n}")
    spectra = np.linalg.eigvalsh(values @ np.swapaxes(values, -1, -2))
    ones = np.count_nonzero(np.abs(spectra - 1.0) <= whiteness_tol, axis=-1)
    if np.any(ones != d):
        raise ValidationError(
            f"input is not fully whitened: F-hat spectrum has {ones[ones != d][0]} ones out of {d}"
        )

    perm = None
    for i in np.flatnonzero(~(np.linalg.cond(values[:, :, :d]) <= 1e8)):
        # off the generic case: pick an invertible block by column pivoting
        if perm is None:
            perm = np.tile(np.arange(n), (m, 1))
            values = values.copy()
        lead = _pivot_columns(values[i], d)
        perm[i] = np.concatenate([lead, np.setdiff1d(np.arange(n), lead)])
        values[i] = values[i][:, perm[i]]
        if not np.linalg.cond(values[i, :, :d]) <= 1e12:
            raise DegenerateDataError(
                "no invertible d-column block exists (rank-deficient whitened data)"
            )
    payload = np.linalg.solve(values[:, :, :d], values[:, :, d:])  # [I | payload] = block^-1 values
    if not stacked:
        payload, perm = payload[0], None if perm is None else perm[0]
    return CompressedDataset(payload=payload, d=d, n=n, column_permutation=perm)


def reconstruct_K(c: CompressedDataset) -> np.ndarray:
    """Gram matrix of the whitened data from the compressed payload, n x n (m x n x n for a stack).

    K-hat = tilde-X^+ tilde-X with tilde-X = [I | payload] is the projector
    onto tilde-X's row space: Q Q^T for the thin QR tilde-X^T = Q R, whose R
    is invertible since tilde-X holds I. Any stored column permutation is
    undone so the result matches compute_K of the original.
    """
    payload_T = np.swapaxes(c.payload, -1, -2)
    identity = np.broadcast_to(np.eye(c.d), payload_T.shape[:-2] + (c.d, c.d))
    Q = np.linalg.qr(np.concatenate([identity, payload_T], axis=-2))[0]
    K = Q @ np.swapaxes(Q, -1, -2)
    if c.column_permutation is not None:
        inv = np.argsort(c.column_permutation, axis=-1)
        K = np.take_along_axis(np.take_along_axis(K, inv[..., :, None], axis=-2), inv[..., None, :], axis=-1)
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
    batch_size: int | None = None,
) -> OrbitReport:
    """Train on (X, W0) and on (R X, W0 R^T) and compare the trajectories.

    R is one d x d rotation or an m x d x d stack. Pair i starts from the
    Gaussian(0, 0.01) init of seed + i; all 2m runs (m bases, then m twins)
    train as one stacked MLP with SGD at eta 0.05 on the minibatch order
    `models.run_steps` draws from `seed`. The parameter, activation, and loss
    trajectories (and the test predictions on X_test vs R X_test) must agree
    to rounding; the report keeps the worst pair. family is "linear" (one
    dense layer) or "mlp" (one relu hidden layer of 8).
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
    if steps < 1:
        raise ValidationError("steps must be at least 1")

    m = len(rotations)
    sizes = [d, Y.output_dim] if family == "linear" else [d, 8, Y.output_dim]
    init = init_isotropic(sizes, variance=0.01, seed=range(seed, seed + m))
    weights = [np.concatenate([W] * 2) for W in init.weights]
    weights[0][m:] = weights[0][:m] @ R_T
    model = MLP(weights=weights, biases=init.biases)

    def rotated(values):  # m copies of values, then the m rotated copies
        return np.concatenate([np.broadcast_to(values, (m,) + values.shape), rotations @ values])

    Xs = rotated(X.values)
    Xts = rotated(X_test.values) if X_test is not None else None

    dev_param = dev_act = dev_loss = dev_pred = 0.0
    cfg = OptimizerConfig(eta=0.05, batch_size=batch_size)
    for result, _ in islice(run_steps(model, Xs, Y.targets, cfg, sgd_step, seed), 1, steps + 1):
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
        passed=worst <= tol,
    )


@dataclass(frozen=True)
class NullPredictionReport:
    """Outcome of the full-whitening zero-prediction check."""

    max_abs_prediction: float
    test_loss: float
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
    step_cap: int = 8000,
) -> NullPredictionReport:
    """Full-scope whitening with n_train + n_test <= d kills test information.

    For the linear model with W(0) = 0 the converged test predictions are
    exactly zero: per-sample MSE against one-hot labels is 0.5 and the
    deterministic argmax tie-break predicts class 0 everywhere. The "mlp"
    variant trains a small net (Gaussian(0, 0.01) init, full-batch SGD at eta
    0.1) to a 0.999 train-accuracy cutoff and reports its (chance-level) test
    error; its expected error is 1 - 1/classes.
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
            test_error=test_error,
            expected_test_error=expected_error,
            passed=passed,
        )
    if model != "mlp":
        raise ValidationError(f"unknown model {model!r}")
    net = init_isotropic([d, 32, 32, classes], variance=1e-2, seed=seed)
    record = train_to_cutoff(
        net, Xtr, Ytr, OptimizerConfig(eta=0.1), cutoff=0.999, step_cap=step_cap, seed=seed, test=(Xte, Yte)
    )
    preds = net.predict(Xte.values)
    test_error = 1.0 - accuracy(preds, Yte.targets)
    expected_error = 1.0 - 1.0 / classes
    return NullPredictionReport(
        max_abs_prediction=float(np.max(np.abs(preds))),
        test_loss=record.test_loss[-1],
        test_error=test_error,
        expected_test_error=expected_error,
        passed=record.stopping_reason == "cutoff",
    )
