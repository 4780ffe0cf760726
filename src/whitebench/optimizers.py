"""Discrete-time optimizers: SGD, Newton, regularized Gauss-Newton, and a
kernel-space Newton update for fixed-feature models.

The regularized Gauss-Newton direction solves ((1 - lambda) B + lambda I) p = g
by matrix-free conjugate gradients, where B is the generalized Gauss-Newton
curvature J^T H_out J of the model. lambda = 1 reduces to a plain gradient
step, lambda = 0 to unregularized Gauss-Newton. B is never materialized, so
the solver scales past parameter counts where a dense d^2 build would not.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .datatypes import eigh, pseudoinverse, symmetrize
from .errors import (
    ConvergenceError,
    DivergenceError,
    LineSearchError,
    ValidationError,
)
from .linear_flow import LinearModel


@dataclass(frozen=True)
class LineSearchConfig:
    initial_step: float = 1.0
    backoff: float = 0.5
    sufficient_decrease: float = 1e-4
    max_backoffs: int = 50

    def __post_init__(self):
        if not (self.initial_step > 0 and 0 < self.backoff < 1 and self.sufficient_decrease > 0):
            raise ValidationError("invalid line search configuration")


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared optimizer knobs; irrelevant fields are ignored by each method."""

    eta: float = 0.1
    reg_lambda: float = 1.0
    kernel_epsilon: float = 0.0
    batch_size: int | None = None  # None = full batch
    cg_tol: float = 1e-5
    cg_max_iter: int | None = None
    line_search: LineSearchConfig | None = None

    def __post_init__(self):
        if self.eta <= 0:
            raise ValidationError("eta must be positive")
        if not 0.0 <= self.reg_lambda <= 1.0:
            raise ValidationError("reg_lambda must lie in [0, 1]")
        if self.kernel_epsilon < 0:
            raise ValidationError("kernel_epsilon must be nonnegative")
        if self.cg_tol <= 0:
            raise ValidationError("cg_tol must be positive")


@dataclass
class StepResult:
    params: list
    step_size: float
    loss_before: float
    loss_after: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.loss_after):
            raise DivergenceError("loss after step is not finite", self.diagnostics)


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual_norm: float


def conjugate_gradient_solve(apply_A, b, tol: float = 1e-5, max_iter: int | None = None) -> CGResult:
    """Solve A x = b for a symmetric positive (semi)definite operator.

    Converges when the Euclidean norm of the residual is at most `tol`
    (absolute). Raises ConvergenceError carrying the final residual if the
    iteration cap is exceeded.
    """
    b = np.asarray(b, dtype=np.float64)
    if max_iter is None:
        max_iter = max(10 * b.size, 50)
    x = np.zeros_like(b)
    r = b.copy()
    rnorm = float(np.linalg.norm(r))
    if rnorm <= tol:
        return CGResult(x=x, iterations=0, residual_norm=rnorm)
    p = r.copy()
    rs = rnorm * rnorm
    for it in range(1, max_iter + 1):
        Ap = apply_A(p)
        denom = float(p @ Ap)
        if denom <= 0:
            raise ConvergenceError(
                "operator is not positive definite along the search direction",
                residual=rnorm,
                iterations=it,
            )
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        rnorm = float(np.sqrt(rs_new))
        if rnorm <= tol:
            return CGResult(x=x, iterations=it, residual_norm=rnorm)
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise ConvergenceError(
        f"conjugate gradients did not reach tol={tol} in {max_iter} iterations",
        residual=rnorm,
        iterations=max_iter,
    )


def backtracking_line_search(loss_fn, params, direction, slope, cfg: LineSearchConfig | None = None) -> float:
    """Largest step s in {s0, s0*rho, ...} with L(p + s d) <= L(p) + c s slope.

    `slope` is the directional derivative <grad L, d> at `params` and must be
    negative (descent direction), else LineSearchError.
    """
    cfg = cfg or LineSearchConfig()
    if not slope < 0:
        raise LineSearchError(f"not a descent direction (directional derivative {slope})")
    loss0 = loss_fn(params)
    s = cfg.initial_step
    for _ in range(cfg.max_backoffs + 1):
        trial = [p + s * d for p, d in zip(params, direction)]
        if loss_fn(trial) <= loss0 + cfg.sufficient_decrease * s * slope:
            return s
        s *= cfg.backoff
    raise LineSearchError(f"no acceptable step within {cfg.max_backoffs} backoffs")


def _check_finite_grads(grads, context):
    for g in grads:
        if not np.all(np.isfinite(g)):
            norms = [float(np.linalg.norm(x)) for x in grads if np.all(np.isfinite(x))]
            raise DivergenceError(
                f"non-finite gradients in {context}", {"finite_grad_norms": norms}
            )


def sgd_step(model, X_b: np.ndarray, Y_b: np.ndarray, cfg: OptimizerConfig) -> StepResult:
    """One (stochastic) gradient step on all parameters of an MLP-style model.

    The first-layer update is W - eta (dL/dZ) X_b^T by construction of the
    model's backward pass.
    """
    loss_before, grads, _ = model.loss_and_grads(X_b, Y_b)
    _check_finite_grads(grads, "sgd_step")
    params = model.trainable()
    for p, g in zip(params, grads):
        p -= cfg.eta * g
    predictions_after = model.predict(X_b)
    return StepResult(
        params=params,
        step_size=cfg.eta,
        loss_before=loss_before,
        loss_after=model.loss_value(predictions_after, Y_b),
        diagnostics={"predictions_after": predictions_after},
    )


def newton_step(model: LinearModel, X_b: np.ndarray, Y_b: np.ndarray, cfg: OptimizerConfig) -> StepResult:
    """Inverse-Hessian preconditioned step for the linear MSE model.

    The Hessian of 1/2 ||W X - Y||^2 in each output row is F = X X^T; the
    update is W - eta (dL/dW) F^{-1}, with a flagged pseudoinverse when F is
    rank deficient. eta = 1 on a full-rank problem lands on the optimum.
    """
    X_b = np.asarray(X_b, dtype=np.float64)
    Y_b = np.asarray(Y_b, dtype=np.float64)
    F = symmetrize(X_b @ X_b.T)
    grad = (model.W @ X_b - Y_b) @ X_b.T
    _check_finite_grads([grad], "newton_step")
    spec = eigh(F)
    lam = spec.eigenvalues
    full_rank = lam[-1] > 1e-12 * max(float(lam[0]), 0.0) and lam[0] > 0
    loss_before = 0.5 * float(np.sum((model.W @ X_b - Y_b) ** 2))
    if full_rank:
        direction = np.linalg.solve(F, grad.T).T
    else:
        direction = grad @ pseudoinverse(F)
    model.W = model.W - cfg.eta * direction
    loss_after = 0.5 * float(np.sum((model.W @ X_b - Y_b) ** 2))
    return StepResult(
        params=[model.W],
        step_size=cfg.eta,
        loss_before=loss_before,
        loss_after=loss_after,
        diagnostics={"pseudoinverse_fallback": not full_rank},
    )


def ggn_matvec(model, X: np.ndarray, Y: np.ndarray, cache: dict, predictions: np.ndarray, tangents: list):
    """Apply the generalized Gauss-Newton curvature J^T H_out J, matrix-free."""
    ju = model.jvp(cache, tangents)
    hu = model.output_hessian_apply(predictions, ju, Y)
    grads, _ = model.grads_from(cache, hu)
    return grads


def _flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def _unflatten(vector, templates):
    out = []
    offset = 0
    for t in templates:
        out.append(vector[offset : offset + t.size].reshape(t.shape))
        offset += t.size
    return out


def regularized_gn_step(model, X_b: np.ndarray, Y_b: np.ndarray, cfg: OptimizerConfig) -> StepResult:
    """Step along -((1 - lambda) B + lambda I)^{-1} grad, solved by CG.

    lambda = cfg.reg_lambda: 1 recovers the raw gradient direction, 0 the
    unregularized Gauss-Newton direction. With cfg.line_search set, the step
    size is chosen by backtracking from the configured initial step, and a
    gradient already within cfg.cg_tol leaves the parameters unchanged.
    """
    lam = cfg.reg_lambda
    loss_before, grads, aux = model.loss_and_grads(X_b, Y_b)
    _check_finite_grads(grads, "regularized_gn_step")
    g = _flatten(grads)
    templates = model.trainable()

    def apply_A(v):
        if lam == 1.0:
            return v.copy()
        gg = ggn_matvec(
            model, X_b, Y_b, aux["cache"], aux["predictions"], _unflatten(v, templates)
        )
        return (1.0 - lam) * _flatten(gg) + lam * v

    cg = conjugate_gradient_solve(apply_A, g, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter)
    direction = _unflatten(-cg.x, templates)

    if cfg.line_search is None:
        step = cfg.eta
    elif cg.iterations == 0:
        step = 0.0  # |g| <= cg_tol: a stationary point, so x = 0 and there is no descent direction
    else:
        slope = -float(g @ cg.x)

        def loss_at(param_list):
            saved = [p.copy() for p in templates]
            for p, q in zip(templates, param_list):
                p[...] = q
            value = model.loss_on(X_b, Y_b)
            for p, s in zip(templates, saved):
                p[...] = s
            return value

        step = backtracking_line_search(
            loss_at, [p.copy() for p in templates], direction, slope, cfg.line_search
        )

    for p, d in zip(templates, direction):
        p += step * d
    predictions_after = model.predict(X_b)
    return StepResult(
        params=templates,
        step_size=step,
        loss_before=loss_before,
        loss_after=model.loss_value(predictions_after, Y_b),
        diagnostics={
            "cg_iterations": cg.iterations,
            "cg_residual": cg.residual_norm,
            "reg_lambda": lam,
            "predictions_after": predictions_after,
        },
    )


def regularized_preconditioner_eigenform(B: np.ndarray, lam: float) -> np.ndarray:
    """((1 - lam) B + lam I)^{-1} assembled from the eigenmodes of B.

    Mode i of B with eigenvalue mu_i is scaled by 1 / ((1 - lam) mu_i + lam):
    large modes (mu >> lam/(1 - lam)) get ~1/((1 - lam) mu), small modes ~1/lam.
    """
    spec = eigh(B)
    scales = 1.0 / ((1.0 - lam) * spec.eigenvalues + lam)
    return (spec.eigenvectors * scales[None, :]) @ spec.eigenvectors.T


def kernel_newton_step(
    f_train: np.ndarray,
    kernel_train: np.ndarray,
    Y_train: np.ndarray,
    cfg: OptimizerConfig,
    f_test: np.ndarray | None = None,
    kernel_train_test: np.ndarray | None = None,
    loss_grad=None,
):
    """Function-space regularized Newton update for fixed-feature models.

    f <- f - eta * Theta(x, .) (eps I + Theta)^{-1} dL/df applied to the train
    block (and, when given, the train x test kernel block for test
    predictions). eps = cfg.kernel_epsilon; a singular eps I + Theta is
    rejected with instructions to use eps > 0. Default loss gradient is the
    summed-MSE one, f - Y.
    """
    theta = np.asarray(kernel_train, dtype=np.float64)
    if theta.shape[0] != theta.shape[1]:
        raise ValidationError("kernel matrix must be square")
    if np.max(np.abs(theta - theta.T), initial=0.0) > 1e-8:
        raise ValidationError("kernel matrix must be symmetric")
    n = theta.shape[0]
    A = theta + cfg.kernel_epsilon * np.eye(n)
    dL = (f_train - Y_train) if loss_grad is None else loss_grad(f_train, Y_train)
    try:
        factor = scipy.linalg.cho_factor(A)
    except scipy.linalg.LinAlgError as exc:
        raise ValidationError(
            "eps I + Theta is singular; pass kernel_epsilon > 0 for a singular kernel"
        ) from exc
    Q = scipy.linalg.cho_solve(factor, dL.T)  # n x k
    f_train_new = f_train - cfg.eta * (theta @ Q).T
    f_test_new = None
    if f_test is not None:
        if kernel_train_test is None:
            raise ValidationError("test update needs the train x test kernel block")
        f_test_new = f_test - cfg.eta * (np.asarray(kernel_train_test).T @ Q).T
    return f_train_new, f_test_new
