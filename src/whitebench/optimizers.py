"""Discrete-time optimizers: SGD, Newton and regularized Gauss-Newton.

The regularized Gauss-Newton direction solves ((1 - lambda) B + lambda I) p = g
by matrix-free conjugate gradients, where B is the generalized Gauss-Newton
curvature J^T H_out J of the model. lambda = 1 reduces to a plain gradient
step, lambda = 0 to unregularized Gauss-Newton. B is never materialized, so
the solver scales past parameter counts where a dense d^2 build would not.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datatypes import Dataset, Spectrum, eigh
from .errors import (
    ConvergenceError,
    DivergenceError,
    LineSearchError,
    ShapeError,
    ValidationError,
)
from .linear_flow import LinearModel, _factor_F, _solve_F

#: backtracking line search: step shrink factor per backoff
LINE_SEARCH_BACKOFF = 0.5
#: Armijo constant c in L(p + s d) <= L(p) + c s <grad L, d>
LINE_SEARCH_SUFFICIENT_DECREASE = 1e-4
#: backoffs tried after the initial step before LineSearchError
LINE_SEARCH_MAX_BACKOFFS = 50


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared optimizer knobs; irrelevant fields are ignored by each method."""

    eta: float = 0.1
    reg_lambda: float = 1.0
    batch_size: int | None = None  # None = full batch
    cg_tol: float = 1e-5
    cg_max_iter: int | None = None
    line_search_step: float | None = None  # backtracking line search from this step; None = fixed eta

    def __post_init__(self):
        if self.eta <= 0:
            raise ValidationError("eta must be positive")
        if not 0.0 <= self.reg_lambda <= 1.0:
            raise ValidationError("reg_lambda must lie in [0, 1]")
        if self.cg_tol <= 0:
            raise ValidationError("cg_tol must be positive")
        if self.batch_size is not None and self.batch_size < 0:
            raise ValidationError("batch_size must be nonnegative (None or 0 is the full batch)")
        if self.line_search_step is not None and not self.line_search_step > 0:
            raise ValidationError("line search initial_step must be positive")


@dataclass
class StepResult:
    step_size: float
    loss_before: float
    loss_after: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.isfinite(self.loss_after)):
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


def backtracking_line_search(loss_fn, params, direction, loss0, slope, initial_step: float = 1.0) -> float:
    """Largest step s in {s0, s0*rho, ...} with L(p + s d) <= L(p) + c s slope, s0 = initial_step.

    rho = LINE_SEARCH_BACKOFF and c = LINE_SEARCH_SUFFICIENT_DECREASE.
    `loss0` is L(params), and `slope` the directional derivative <grad L, d>
    there, which must be negative (descent direction), else LineSearchError.
    loss_fn is called on trials only, so its last call is the accepted step.
    """
    if not slope < 0:
        raise LineSearchError(f"not a descent direction (directional derivative {slope})")
    s = initial_step
    for _ in range(LINE_SEARCH_MAX_BACKOFFS + 1):
        trial = [p + s * d for p, d in zip(params, direction)]
        if loss_fn(trial) <= loss0 + LINE_SEARCH_SUFFICIENT_DECREASE * s * slope:
            return s
        s *= LINE_SEARCH_BACKOFF
    raise LineSearchError(f"no acceptable step within {LINE_SEARCH_MAX_BACKOFFS} backoffs")


def _check_finite_grads(grads, context):
    for g in grads:
        if not np.all(np.isfinite(g)):
            norms = [float(np.linalg.norm(x)) for x in grads if np.all(np.isfinite(x))]
            raise DivergenceError(
                f"non-finite gradients in {context}", {"finite_grad_norms": norms}
            )


def sgd_step(model, X_b: np.ndarray, Y_b: np.ndarray, cfg: OptimizerConfig, forward=None) -> StepResult:
    """One (stochastic) gradient step on all parameters of an MLP-style model.

    The first-layer update is W - eta (dL/dZ) X_b^T by construction of the
    model's backward pass. A stacked MLP takes one step per model, and the
    losses in the result are m-vectors. `forward` is the model's
    (predictions, cache) on this very X_b, as `MLP.loss_and_grads` takes it;
    diagnostics["forward"] is the one after the step, with its loss on Y_b,
    for the next step on the same X_b and Y_b.
    """
    loss_before, grads, _ = model.loss_and_grads(X_b, Y_b, forward)
    _check_finite_grads(grads, "sgd_step")
    params = model.trainable()
    for p, g in zip(params, grads):
        p -= cfg.eta * g
    forward = model.forward(X_b)
    return StepResult(
        step_size=cfg.eta,
        loss_before=loss_before,
        loss_after=model.forward_loss(forward, Y_b),
        diagnostics={"forward": forward},
    )


def newton_step(model: LinearModel, X_b: np.ndarray, Y_b: np.ndarray, cfg: OptimizerConfig, solve=None,
                predictions=None) -> StepResult:
    """Inverse-Hessian preconditioned step for the linear MSE model.

    The Hessian of 1/2 ||W X - Y||^2 in each output row is F = X X^T; the
    update is W - eta (dL/dW) F^+, the F solve of `solve_optimum` (F^-1,
    formed once, where F is proven to keep all d modes), flagged as a
    pseudoinverse fallback when it keeps fewer than d modes. eta = 1 lands on
    that optimum. `solve` and `predictions` are the F solve, (F^-1 or the
    kept eigenpairs, rank of F), and W X_b of this very X_b, as the previous
    step on it hands them on in diagnostics["solve"] and
    diagnostics["predictions"]; None forms them here.
    """
    X_b = np.asarray(X_b, dtype=np.float64)
    Y_b = np.asarray(Y_b, dtype=np.float64)
    residual = (model.W @ X_b if predictions is None else predictions) - Y_b
    grad = residual @ X_b.T
    _check_finite_grads([grad], "newton_step")
    if solve is None:
        factor, rank = _factor_F(Dataset(X_b))
        solve = (factor if isinstance(factor, Spectrum) else np.linalg.inv(factor)), rank
    loss_before = 0.5 * float(np.sum(residual ** 2))
    model.W = model.W - cfg.eta * (_solve_F(solve[0], grad) if isinstance(solve[0], Spectrum) else grad @ solve[0])
    predictions = model.W @ X_b
    return StepResult(
        step_size=cfg.eta,
        loss_before=loss_before,
        loss_after=0.5 * float(np.sum((predictions - Y_b) ** 2)),
        diagnostics={"pseudoinverse_fallback": solve[1] < X_b.shape[0], "solve": solve, "predictions": predictions},
    )


def _flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def _unflatten(vector, templates):
    out = []
    offset = 0
    for t in templates:
        out.append(vector[offset : offset + t.size].reshape(t.shape))
        offset += t.size
    return out


def regularized_gn_step(
    model, X_b: np.ndarray, Y_b: np.ndarray, cfg: OptimizerConfig, forward=None
) -> StepResult:
    """Step along -((1 - lambda) B + lambda I)^{-1} grad, solved by CG.

    lambda = cfg.reg_lambda: 1 recovers the raw gradient direction, 0 the
    unregularized Gauss-Newton direction. With cfg.line_search_step set, the
    step size is chosen by backtracking from that initial step, and a
    gradient already within cfg.cg_tol leaves the parameters unchanged. A
    stacked MLP raises ShapeError: one CG solve would couple its models.
    `forward` and diagnostics["forward"] are as in `sgd_step`.
    """
    if model.stacked:
        raise ShapeError("regularized_gn_step takes one model; CG over a stack would couple its models")
    lam = cfg.reg_lambda
    loss_before, grads, aux = model.loss_and_grads(X_b, Y_b, forward)
    _check_finite_grads(grads, "regularized_gn_step")
    g = _flatten(grads)
    templates = model.trainable()

    def apply_A(v):  # ((1 - lambda) J^T H_out J + lambda I) v, matrix-free
        if lam == 1.0:
            return v.copy()
        ju = model.jvp(aux["cache"], _unflatten(v, templates))
        gg, _ = model.grads_from(aux["cache"], model.output_hessian_apply(aux["predictions"], ju, Y_b))
        return (1.0 - lam) * _flatten(gg) + lam * v

    cg = conjugate_gradient_solve(apply_A, g, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter)
    direction = _unflatten(-cg.x, templates)

    forward = None
    if cfg.line_search_step is None:
        step = cfg.eta
    elif cg.iterations == 0:
        step = 0.0  # |g| <= cg_tol: a stationary point, so x = 0 and there is no descent direction
        forward = aux["predictions"], aux["cache"]
    else:
        slope = -float(g @ cg.x)

        def loss_at(param_list):
            nonlocal forward
            saved = [p.copy() for p in templates]
            for p, q in zip(templates, param_list):
                p[...] = q
            forward = model.forward(X_b)
            for p, s in zip(templates, saved):
                p[...] = s
            return model.forward_loss(forward, Y_b)

        step = backtracking_line_search(
            loss_at, [p.copy() for p in templates], direction, loss_before, slope, cfg.line_search_step
        )

    # p += s * d gives the bits of the accepted trial p + s * d, so its forward and loss are the post-step ones
    for p, d in zip(templates, direction):
        p += step * d
    if forward is None:
        forward = model.forward(X_b)
    return StepResult(
        step_size=step,
        loss_before=loss_before,
        loss_after=model.forward_loss(forward, Y_b),
        diagnostics={
            "cg_iterations": cg.iterations,
            "cg_residual": cg.residual_norm,
            "reg_lambda": lam,
            "forward": forward,
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

