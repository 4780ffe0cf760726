"""Closed-form gradient flow for linear least-squares models.

For f(X) = W X with L = 1/2 ||W X - Y||^2 the flow dW/dt = -dL/dW decomposes
over the eigenvectors v_i of F_train: each mode relaxes exponentially,
w_i(t) = w*_i + e^{-rate_i t} (w_i(0) - w*_i), with rate_i = lambda_i for
plain flow and rate_i = 1 for inverse-Hessian (Newton) preconditioned flow.
Null modes of F_train have rate 0 and never move, so components of W outside
the data span are conserved exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datatypes import (
    Dataset,
    LabelSet,
    NULL_MODE_RATIO,
    Spectrum,
    check_paired,
    check_same_features,
    compute_F,
    compute_K,
    compute_mixed_K,
    eigh,
    pseudoinverse,
)
from .errors import ValidationError
from .models import accuracy
from .records import TrainRecord

PRECONDITIONS = ("none", "newton")


@dataclass
class LinearModel:
    """f(X) = W X with W of shape (outputs k) x (features d)."""

    W: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        W = np.array(self.W, dtype=np.float64)
        if W.ndim != 2 or not np.all(np.isfinite(W)):
            raise ValidationError("W must be a finite k x d matrix")
        self.W = W

    def predict(self, X: Dataset) -> np.ndarray:
        return self.W @ X.values


def mse_per_sample(predictions: np.ndarray, Y: LabelSet) -> float:
    """Reported metric: 1/2 squared error summed over outputs, averaged over samples."""
    diff = predictions - Y.targets
    return 0.5 * float(np.sum(diff * diff)) / diff.shape[1]


def _initial_weights(W0: np.ndarray | None, k: int, d: int) -> np.ndarray:
    """W(0) as a k x d float array; None means zeros."""
    W0 = np.zeros((k, d)) if W0 is None else np.asarray(W0, dtype=np.float64)
    if W0.shape != (k, d):
        raise ValidationError(f"W0 must have shape {(k, d)}, got {W0.shape}")
    return W0


def _solve_F(F: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """rhs F^{-1} for a full-rank F, else the flagged fallback rhs F^+.

    Returns (solution, rank, fallback). Eigenvalues of F above
    NULL_MODE_RATIO times the largest count toward the rank; a rank below
    dim F (or an F with no positive eigenvalue) takes the pseudoinverse.
    """
    lam = eigh(F).eigenvalues
    rank = int(np.count_nonzero(lam > NULL_MODE_RATIO * max(lam[0], 0.0))) if lam[0] > 0 else 0
    if rank == F.shape[0]:
        return np.linalg.solve(F, rhs.T).T, rank, False
    return rhs @ pseudoinverse(F), rank, True


def solve_optimum(
    X_train: Dataset, Y_train: LabelSet, W0: np.ndarray | None = None
) -> LinearModel:
    """Minimum-over-span MSE optimum W* = W0 + (Y - W0 X) X^T F^+.

    With full-rank F (d < n) this is the unique global optimum and W0 drops
    out; otherwise components of W0 outside the data span are retained and
    the pseudoinverse fallback is flagged in the model metadata.
    """
    check_paired(X_train, Y_train)
    W0 = _initial_weights(W0, Y_train.output_dim, X_train.feature_dim)
    residual_cross = (Y_train.targets - W0 @ X_train.values) @ X_train.values.T
    step, rank, fallback = _solve_F(compute_F(X_train), residual_cross)
    return LinearModel(W0 + step, meta={"pseudoinverse_fallback": fallback, "rank_F": rank})


@dataclass(frozen=True)
class FlowSolution:
    """Eigen-decomposed flow state: W(t) is assembled from per-mode scalars.

    Column i of w_init_modes / w_star_modes holds the component of W(0) / W*
    along eigenvector v_i of F_train; mode_rates holds the effective
    exponential rate per mode (0 for null modes, which therefore stay at
    their initial value for all t).
    """

    spectrum: Spectrum
    w_init_modes: np.ndarray
    w_star_modes: np.ndarray
    mode_rates: np.ndarray

    @property
    def min_positive_rate(self) -> float:
        positive = self.mode_rates[self.mode_rates > 0]
        return float(positive.min()) if positive.size else 1.0

    @property
    def max_rate(self) -> float:
        return float(self.mode_rates.max(initial=0.0)) or 1.0


def build_flow(
    X_train: Dataset,
    Y_train: LabelSet,
    W0: np.ndarray | None = None,
    precondition: str = "none",
) -> FlowSolution:
    """Decompose the gradient flow (optionally inverse-Hessian preconditioned).

    precondition "none" gives per-mode rates lambda_i; "newton" gives rate 1
    in every non-null mode (the preconditioner is the pseudoinverse of
    F_train, so null modes keep rate 0).
    """
    if precondition not in PRECONDITIONS:
        raise ValidationError(f"unknown precondition {precondition!r}")
    check_paired(X_train, Y_train)
    W0 = _initial_weights(W0, Y_train.output_dim, X_train.feature_dim)

    spec = eigh(compute_F(X_train))
    lam = spec.eigenvalues
    null = lam <= NULL_MODE_RATIO * max(float(lam[0]), 0.0)

    V = spec.eigenvectors
    w_init = W0 @ V
    cross = Y_train.targets @ X_train.values.T @ V  # component i: (Y X^T) v_i
    w_star = np.where(null[None, :], w_init, cross / np.where(null, 1.0, lam)[None, :])

    if precondition == "newton":
        rates = np.where(null, 0.0, 1.0)
    else:
        rates = np.where(null, 0.0, lam)
    return FlowSolution(
        spectrum=spec, w_init_modes=w_init, w_star_modes=w_star, mode_rates=rates
    )


def flow_at(sol: FlowSolution, t: float) -> LinearModel:
    """Evaluate W(t); t = 0 reproduces W(0) exactly, null modes never move."""
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise ValidationError("t must be finite and nonnegative")
    decay = np.exp(-sol.mode_rates * t)
    modes = sol.w_star_modes + decay[None, :] * (sol.w_init_modes - sol.w_star_modes)
    return LinearModel(modes @ sol.spectrum.eigenvectors.T)


def optimum_predictions(
    X_train: Dataset,
    Y_train: LabelSet,
    X_test: Dataset,
    W0: np.ndarray | None = None,
) -> np.ndarray:
    """Converged test predictions f* = W* X_test from the Gram algebra of X_train.

    With R = f0(X_train) - Y, the K form is
    f* = f0(X_test) - R K_train^+ K_train_x_test, which never forms F and
    shows that the data enter only through K. It pseudoinverts the n x n K,
    so it is evaluated only when n <= d. When n > d the d x d F is smaller
    and f* = f0(X_test) - (R X_train^T) F^+ X_test. The two agree: K and F
    share their nonzero eigenvalues (the squared singular values of X_train),
    so K^+ X^T = X^T F^+, and the relative pinv cutoff drops the same modes
    on either side.
    """
    check_paired(X_train, Y_train)
    check_same_features(X_train, X_test)
    W0 = _initial_weights(W0, Y_train.output_dim, X_train.feature_dim)
    residual = W0 @ X_train.values - Y_train.targets
    if X_train.sample_count <= X_train.feature_dim:
        update = residual @ pseudoinverse(compute_K(X_train)) @ compute_mixed_K(X_train, X_test)
    else:
        update = (residual @ X_train.values.T) @ pseudoinverse(compute_F(X_train)) @ X_test.values
    return W0 @ X_test.values - update


@dataclass(frozen=True)
class TimeGrid:
    """Log-spaced evaluation grid for early stopping."""

    t_min: float
    t_max: float
    points: int = 200

    def __post_init__(self):
        if not (self.t_min > 0 and self.t_max > self.t_min and self.points >= 2):
            raise ValidationError("need 0 < t_min < t_max and points >= 2")

    def times(self) -> np.ndarray:
        return np.logspace(np.log10(self.t_min), np.log10(self.t_max), self.points)

    @staticmethod
    def default_for(sol: FlowSolution, points: int = 200) -> "TimeGrid":
        return TimeGrid(1e-3 / sol.max_rate, 40.0 / sol.min_positive_rate, points)


def _golden_section(fn, lo: float, hi: float, iterations: int = 80):
    """Golden-section minimum of fn over [lo, hi] in log-time coordinates."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.log(lo), np.log(hi)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(np.exp(c)), fn(np.exp(d))
    best_t, best_f = (np.exp(c), fc) if fc <= fd else (np.exp(d), fd)
    for _ in range(iterations):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(np.exp(d))
        if fc <= fd and fc < best_f:
            best_t, best_f = np.exp(c), fc
        elif fd < fc and fd < best_f:
            best_t, best_f = np.exp(d), fd
        if b - a < 1e-12:
            break
    return float(best_t), float(best_f)


def _loss_curve(sol: FlowSolution, X: Dataset, Y: LabelSet):
    """MSE of W(t) on (X, Y) as a function of the mode progress E = 1 - exp(-rate t).

    In mode coordinates Z = V^T X, W(t) = W(0) + E * B with B = W* - W(0),
    so the residual is R0 + (B * E) Z with R0 = W(0) Z - Y, and the loss is
    the quadratic form L = (c0 + 2 a.E + E^T H E) / 2n with c0 = ||R0||^2,
    a_i = sum_k (B * R0 Z^T)_ki and H = (B^T B) * (Z Z^T). Expanding around
    W(0) rather than W* keeps the terms small in the modes that have barely
    moved by the early-stopping time, where an ill-conditioned F makes W*
    large. The returned function takes E as one column (a float) or as
    d x T columns (T losses).
    """
    check_paired(X, Y)
    Z = sol.spectrum.eigenvectors.T @ X.values
    B = sol.w_star_modes - sol.w_init_modes
    R0 = sol.w_init_modes @ Z - Y.targets
    c0 = float(np.sum(R0 * R0))
    a = np.sum(B * (R0 @ Z.T), axis=0)
    H = (B.T @ B) * (Z @ Z.T)
    scale = 0.5 / X.sample_count

    def loss(E: np.ndarray):
        return scale * (c0 + 2.0 * (a @ E) + np.sum(E * (H @ E), axis=0))

    return loss


def early_stop(
    sol: FlowSolution,
    X_val: Dataset,
    Y_val: LabelSet,
    grid: TimeGrid | None = None,
    extra_eval: dict | None = None,
) -> tuple[float, TrainRecord]:
    """Pick the flow time with the lowest validation MSE.

    Scans the log-spaced grid, then refines with golden-section search
    between the grid neighbors of the best point. A minimum on the grid
    boundary is returned as-is and flagged boundary_hit in the record
    metadata. extra_eval maps names ("train_loss", "test_loss") to
    (Dataset, LabelSet) pairs evaluated along the grid for the record.

    Grid and search losses come from one quadratic form per split
    (`_loss_curve`); the terminal row at t* is evaluated directly from
    W(t*), and metadata["closed_form_gap"] holds the relative gap between
    the two validation losses there. A one-hot "test_loss" split also
    gets its test_error at t*.
    """
    grid = grid or TimeGrid.default_for(sol)
    times = grid.times()
    splits = {"val_loss": (X_val, Y_val), **(extra_eval or {})}
    curves = {name: _loss_curve(sol, X, Y) for name, (X, Y) in splits.items()}

    progress = -np.expm1(-np.outer(sol.mode_rates, times))
    record = TrainRecord(steps=times.tolist(), metadata={"grid": (grid.t_min, grid.t_max, grid.points)})
    for name, curve in curves.items():
        setattr(record, name, curve(progress).tolist())
    val_losses = record.val_loss

    def val_loss_at(t: float) -> float:
        return float(curves["val_loss"](-np.expm1(-sol.mode_rates * t)))

    best = int(np.argmin(val_losses))
    boundary = best in (0, len(times) - 1)
    if boundary:
        t_star, v_star = float(times[best]), val_losses[best]
    else:
        t_star, v_star = _golden_section(val_loss_at, times[best - 1], times[best + 1])
        if val_losses[best] <= v_star:
            t_star, v_star = float(times[best]), val_losses[best]

    model = flow_at(sol, t_star)
    metrics = {}
    for name, (X, Y) in splits.items():
        predictions = model.predict(X)
        metrics[name] = mse_per_sample(predictions, Y)
        if name == "test_loss" and Y.encoding == "one_hot":
            metrics["test_error"] = 1.0 - accuracy(predictions, Y.targets)
    direct = metrics["val_loss"]
    record.append(t_star, **metrics)
    record.terminal_step = t_star
    record.stopping_reason = "boundary" if boundary else "early_stop"
    record.metadata.update({
        "boundary_hit": boundary,
        "t_star": t_star,
        "val_loss_at_t_star": direct,
        "closed_form_gap": abs(v_star - direct) / max(abs(direct), np.finfo(float).tiny),
    })
    return t_star, record.validate()
