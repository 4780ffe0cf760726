"""Closed-form gradient flow for linear least-squares models.

For f(X) = W X with L = 1/2 ||W X - Y||^2 the flow dW/dt = -dL/dW decomposes
over the eigenvectors v_i of F_train: each mode relaxes exponentially,
w_i(t) = w*_i + e^{-rate_i t} (w_i(0) - w*_i), with rate_i = lambda_i for
plain flow and rate_i = 1 for inverse-Hessian (Newton) preconditioned flow.
Only the r modes of the train span move. They come from the smaller side of
the train split (a thin SVD of X when n <= d, eigh of F when n > d), or are
passed in; null modes are not stored, and the component of W(0) outside the
span is carried as is, so it is conserved exactly. From W(0) = 0 the flow of
M X reads M only through M^T M, so its modes can be passed in X's coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datatypes import (
    Dataset,
    LabelSet,
    NULL_MODE_RATIO,
    PINV_CUTOFF_RATIO,
    Spectrum,
    check_same_features,
    check_split,
    compute_F,
    gram_modes,
    leading_modes,
    proves_eigenvalues_above,
)
from .errors import ShapeError, ValidationError
from .models import accuracy
from .records import TrainRecord

PRECONDITIONS = ("none", "newton")
#: validation losses within this fraction of the grid minimum form one flat
#: minimum: `early_stop` brackets t* at its earliest grid time, and keeps the
#: slope's root only if the root's loss exceeds that time's by at most this much
FLAT_LOSS_RATIO = 1e-12


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


def _factor_F(X: Dataset) -> tuple:
    """The F solve of F = X X^T: (factor, rank of F), which `_solve_F` applies to any right-hand side.

    At n > d an F proven to have every eigenvalue above PINV_CUTOFF_RATIO
    tr F keeps all d modes (tr F >= lambda_max): the factor is F itself,
    with no eigenvectors. Otherwise it is the Spectrum of the modes of F
    above PINV_CUTOFF_RATIO times the largest eigenvalue (`gram_modes`),
    which count toward the rank; the rest are dropped, so a rank below
    dim F means a pseudoinverse, not an inverse.
    """
    d, n = X.values.shape
    F = compute_F(X) if n > d else None
    if F is not None and proves_eigenvalues_above(F, PINV_CUTOFF_RATIO * float(np.trace(F))):
        return F, d
    modes = gram_modes(X, PINV_CUTOFF_RATIO, F)
    return modes, modes.eigenvalues.size


def _solve_F(factor, rhs: np.ndarray) -> np.ndarray:
    """rhs F^+ off `_factor_F`'s factor: rhs F^-1 by LAPACK's LU solve with F, or rhs V diag(1/lambda) V^T."""
    if isinstance(factor, Spectrum):
        return (rhs @ factor.eigenvectors / factor.eigenvalues) @ factor.eigenvectors.T
    return np.linalg.solve(factor, rhs.T).T


def solve_optimum(
    X_train: Dataset, Y_train: LabelSet, W0: np.ndarray | None = None
) -> LinearModel:
    """Minimum-over-span MSE optimum W* = W0 + (Y - W0 X) X^T F^+.

    With full-rank F (d < n) this is the unique global optimum and W0 drops
    out; otherwise components of W0 outside the kept modes are retained and
    the pseudoinverse fallback is flagged in the model metadata, with the
    count of kept modes as rank_F. F^+ is `_factor_F`'s: an LU solve with F
    where F is proven to keep every mode, else eigh (n > d) or the thin SVD.
    """
    check_split("train", (X_train, Y_train), X_train.feature_dim, Y_train.output_dim)  # it sets the model's shape
    W0 = _initial_weights(W0, Y_train.output_dim, X_train.feature_dim)
    residual_cross = (Y_train.targets - W0 @ X_train.values if W0.any() else Y_train.targets) @ X_train.values.T
    factor, rank = _factor_F(X_train)
    fallback = rank < X_train.feature_dim
    return LinearModel(W0 + _solve_F(factor, residual_cross), meta={"pseudoinverse_fallback": fallback, "rank_F": rank})


@dataclass(frozen=True)
class FlowSolution:
    """The flow in the r moving modes of F_train: W(t) = W0 + (E(t) * B) V_r^T.

    spectrum holds the r modes above NULL_MODE_RATIO (d x r eigenvectors V_r),
    column i of mode_delta is B = W* - W0 along v_i, and E_i(t) = 1 -
    exp(-mode_rates_i t). Null modes are not stored: W0's component outside
    span V_r is carried as is. The immutable train split is kept by reference.
    A whitened flow's modes passed in X_train's coordinates (from W0 = 0) have
    the directions U = M^T V-hat as vectors, not orthonormal.
    """

    W0: np.ndarray
    spectrum: Spectrum
    mode_delta: np.ndarray
    mode_rates: np.ndarray
    X_train: Dataset
    Y_train: LabelSet

    @property
    def min_positive_rate(self) -> float:
        return float(self.mode_rates.min()) if self.mode_rates.size else 1.0

    @property
    def max_rate(self) -> float:
        return float(self.mode_rates.max(initial=0.0)) or 1.0


def build_flow(
    X_train: Dataset,
    Y_train: LabelSet,
    W0: np.ndarray | None = None,
    precondition: str = "none",
    modes: Spectrum | None = None,
) -> FlowSolution:
    """Decompose the gradient flow (optionally inverse-Hessian preconditioned).

    precondition "none" gives per-mode rates lambda_i; "newton" gives rate 1
    in every moving mode (the preconditioner is the pseudoinverse of
    F_train, so null modes do not move either way). `modes`, the eigenpairs
    of F_train descending, save decomposing X_train; either way the modes
    above NULL_MODE_RATIO times the largest move. From W0 = 0 they may be a
    whitened flow's rates with its directions U = M^T V-hat in X's coordinates.
    """
    if precondition not in PRECONDITIONS:
        raise ValidationError(f"unknown precondition {precondition!r}")
    check_split("train", (X_train, Y_train), X_train.feature_dim, Y_train.output_dim)  # it sets the model's shape
    W0 = _initial_weights(W0, Y_train.output_dim, X_train.feature_dim).copy()
    if modes is not None and modes.eigenvectors.shape[0] != X_train.feature_dim:
        raise ShapeError(f"modes have {modes.eigenvectors.shape[0]} features, X_train has {X_train.feature_dim}")
    spec = gram_modes(X_train, NULL_MODE_RATIO) if modes is None else leading_modes(modes, NULL_MODE_RATIO)
    lam, V = spec.eigenvalues, spec.eigenvectors
    delta = Y_train.targets @ X_train.values.T @ V / lam - W0 @ V  # component i: (Y X^T) v_i / lambda_i - W0 v_i
    rates = np.ones_like(lam) if precondition == "newton" else lam
    return FlowSolution(W0, spec, delta, rates, X_train, Y_train)


def flow_at(sol: FlowSolution, t: float) -> LinearModel:
    """Evaluate W(t); t = 0 gives W(0) bit for bit, null modes never move."""
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise ValidationError("t must be finite and nonnegative")
    progress = -np.expm1(-sol.mode_rates * t)
    return LinearModel(sol.W0 + (progress * sol.mode_delta) @ sol.spectrum.eigenvectors.T)


def optimum_predictions(
    X_train: Dataset,
    Y_train: LabelSet,
    X_test: Dataset,
    W0: np.ndarray | None = None,
) -> np.ndarray:
    """Converged test predictions f* = W* X_test, with W* from `solve_optimum`.

    With R = f0(X_train) - Y this equals the K form
    f* = f0(X_test) - R K_train^+ K_train_x_test, which shows that the data
    enter only through K: K and F share their nonzero eigenvalues (the
    squared singular values of X_train), so K^+ X^T = X^T F^+, and the
    relative pinv cutoff drops the same modes on either side. With
    X = U S V^T, the thin SVD that `solve_optimum` takes when n <= d gives
    K^+ X^T = V S^-1 U^T directly: there it is the K form on the smaller side.
    When n > d and F is proven to keep all d modes, F^+ = F^-1 is an LU
    solve and no eigenvector is formed.
    """
    check_same_features(X_train, X_test)
    return solve_optimum(X_train, Y_train, W0).predict(X_test)


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


def _loss_curve(sol: FlowSolution, X: Dataset, Y: LabelSet):
    """MSE of W(t) on (X, Y) as a function of the mode progress E = 1 - exp(-rate t).

    With Z = V_r^T X the residual is R0 + (B * E) Z, R0 = W0 X - Y, so the
    loss is L = (c0 + 2 a.E + E^T H E) / 2n with c0 = ||R0||^2, a_i =
    sum_k (B * R0 Z^T)_ki and the r x r H = (B^T B) * (Z Z^T). On the train
    split Z Z^T = Lambda and R0 Z^T = W0 V_r Lambda - Y X^T V_r = -B Lambda,
    so H = diag(h), h_i = lambda_i sum_k B_ki^2, and a = -h: no projection.
    Expanding around W0 rather than W* keeps the terms small in the modes
    that have barely moved by t*, where an ill-conditioned F makes W* large.
    Returns L, which takes E as one column or as r x T columns, and its
    gradient dL/dE = (a + H E) / n at one column.
    """
    B = sol.mode_delta
    R0 = sol.W0 @ X.values - Y.targets if sol.W0.any() else -Y.targets
    c0 = float(np.sum(R0 * R0))
    scale = 0.5 / X.sample_count
    if X is sol.X_train and Y is sol.Y_train:
        h = np.sum(B * B, axis=0) * sol.spectrum.eigenvalues
        return lambda E: scale * (c0 - h @ (E * (2.0 - E))), lambda E: -2.0 * scale * h * (1.0 - E)
    Z = sol.spectrum.eigenvectors.T @ X.values
    a = np.sum(B * (R0 @ Z.T), axis=0)
    H = (B.T @ B) * (Z @ Z.T)
    return (lambda E: scale * (c0 + 2.0 * (a @ E) + np.sum(E * (H @ E), axis=0)),
            lambda E: 2.0 * scale * (a + H @ E))


def early_stop(
    sol: FlowSolution,
    X_val: Dataset,
    Y_val: LabelSet,
    grid: TimeGrid | None = None,
    test: tuple | None = None,
    trajectory: bool = True,
) -> tuple[float, TrainRecord]:
    """Pick the flow time t* with the lowest validation MSE.

    Scans the log-spaced grid for the earliest time whose validation loss is
    within FLAT_LOSS_RATIO of the grid minimum, then finds the root of the
    closed-form slope dL/du = dL/dE . (rate t exp(-rate t)), u = log t,
    between its grid neighbors by Illinois regula falsi, until the sign
    bracket is 1e-12 wide in log t. The root is kept unless its loss is
    worse than the grid time's beyond FLAT_LOSS_RATIO, so a minimum flat to
    rounding reports its earliest time. A boundary grid time is returned as-is
    and flagged boundary_hit in the record metadata; metadata["flow_rank"]
    holds the count r of moving modes. The train split kept by `build_flow` is
    evaluated at t* as "train_loss", and `test`, a (Dataset, LabelSet) pair,
    as "test_loss" if given. With trajectory=False only the validation loss
    is evaluated on the grid, and the other splits only at t*.

    Grid losses and the slope come from one quadratic form per split
    (`_loss_curve`); the terminal row at t* is evaluated directly from W(t*),
    and metadata["closed_form_gap"] holds the relative gap between the two
    validation losses there. A one-hot "test_loss" split also gets its
    test_error at t*.
    """
    splits = {"val_loss": (X_val, Y_val), "train_loss": (sol.X_train, sol.Y_train),
              **({} if test is None else {"test_loss": test})}
    for name, split in splits.items():
        check_split(name.removesuffix("_loss"), split, sol.X_train.feature_dim, sol.Y_train.output_dim)
    grid = grid or TimeGrid.default_for(sol)
    times = grid.times()

    rates = sol.mode_rates
    progress = -np.expm1(-np.outer(rates, times))
    record = TrainRecord(
        steps=times.tolist(),
        metadata={"grid": (grid.t_min, grid.t_max, grid.points), "flow_rank": rates.size},
    )
    for name, (X, Y) in splits.items():  # one r x r H at a time; the val curve, kept for the slope, comes last
        if name != "val_loss" and trajectory:
            setattr(record, name, _loss_curve(sol, X, Y)[0](progress).tolist())
    val_curve, val_gradient = _loss_curve(sol, *splits["val_loss"])
    val_losses = val_curve(progress)
    record.val_loss = val_losses.tolist()

    floor = val_losses.min()
    best = int(np.argmax(val_losses <= floor + FLAT_LOSS_RATIO * abs(floor)))
    boundary = best in (0, len(times) - 1)
    t_star, v_star = float(times[best]), float(val_losses[best])
    if not boundary:
        def slope(u):  # dL/du at u = log t: dL/dE . (rate t exp(-rate t))
            rate_t = rates * np.exp(u)
            return float(val_gradient(-np.expm1(-rate_t)) @ (rate_t * np.exp(-rate_t)))

        lo, hi = np.log(times[best - 1]), np.log(times[best + 1])
        g_lo, g_hi, side = slope(lo), slope(hi), 0
        if g_lo >= 0.0 or g_hi < 0.0:  # no sign change: the slope leads to one end
            lo = hi = lo if g_lo >= 0.0 else hi
        while hi - lo > 1e-12:  # Illinois regula falsi on g_lo < 0 <= g_hi
            u = lo - (hi - lo) * g_lo / (g_hi - g_lo)
            u = u if lo < u < hi else 0.5 * (lo + hi)
            g = slope(u)
            if g == 0.0:
                lo = hi = u
            elif g < 0.0:
                lo, g_lo, g_hi, side = u, g, g_hi * (0.5 if side < 0 else 1.0), -1
            else:
                hi, g_hi, g_lo, side = u, g, g_lo * (0.5 if side > 0 else 1.0), 1
        t = float(np.exp(0.5 * (lo + hi)))
        v = float(val_curve(-np.expm1(-rates * t)))
        if v <= v_star + FLAT_LOSS_RATIO * abs(v_star):
            t_star, v_star = t, v

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
