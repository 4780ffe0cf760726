import numpy as np
import pytest

from whitebench import (
    MLP,
    Dataset,
    LabelSet,
    LinearModel,
    OptimizerConfig,
    apply_whitener,
    backtracking_line_search,
    conjugate_gradient_solve,
    fit_whitener,
    init_isotropic,
    newton_step,
    optimum_predictions,
    regularized_gn_step,
    regularized_preconditioner_eigenform,
    sgd_step,
    solve_optimum,
)
from whitebench.errors import ConvergenceError, DivergenceError, LineSearchError, ShapeError, ValidationError
from whitebench.optimizers import _flatten

from conftest import one_hot_labels, random_dataset


def finite_difference_grads(model, X, Y, coords=80, seed=0):
    """Oracle: central differences of the summed loss per parameter coordinate."""
    rng = np.random.default_rng(seed)
    params = model.trainable()
    checks = []
    for idx, p in enumerate(params):
        flat = p.ravel()
        count = min(coords, flat.size)
        for j in rng.choice(flat.size, size=count, replace=False):
            h = 1e-5 * (1.0 + abs(flat[j]))
            orig = flat[j]
            flat[j] = orig + h
            up = model.loss_on(X, Y)
            flat[j] = orig - h
            down = model.loss_on(X, Y)
            flat[j] = orig
            checks.append((idx, j, (up - down) / (2 * h)))
    return checks


def assert_grads_match_fd(model, X, Y, rel=1e-4):
    _, grads, _ = model.loss_and_grads(X, Y)
    for idx, j, fd in finite_difference_grads(model, X, Y):
        a = grads[idx].ravel()[j]
        assert abs(a - fd) <= rel * max(1.0, abs(a), abs(fd)), (idx, j, a, fd)


# -- sgd ----------------------------------------------------------------------

def test_sgd_zero_gradient_is_stationary(rng):
    model = init_isotropic([3, 2], variance=0.0)
    X = rng.standard_normal((3, 5))
    Y = np.zeros((2, 5))
    before = [w.copy() for w in model.weights]
    sgd_step(model, X, Y, OptimizerConfig(eta=0.5))
    for b, w in zip(before, model.weights):
        assert np.array_equal(b, w)


def test_sgd_one_parameter_hand_value():
    # w = 0, x = 1, y = 1, L = (wx - y)^2 / 2, eta = 0.1 -> w' = 0.1
    model = init_isotropic([1, 1], variance=0.0)
    sgd_step(model, np.array([[1.0]]), np.array([[1.0]]), OptimizerConfig(eta=0.1))
    assert model.weights[0][0, 0] == pytest.approx(0.1, abs=1e-15)


def test_sgd_activation_recursion_full_batch(rng):
    # Z' = Z - eta (dL/dZ) K for the first layer, any depth
    X = random_dataset(rng, 4, 9)
    Y = one_hot_labels(rng, 3, 9)
    model = init_isotropic([4, 6, 3], variance=0.05, seed=1)
    cfg = OptimizerConfig(eta=0.07)
    K = X.values.T @ X.values
    Z_before = model.weights[0] @ X.values
    _, _, aux = model.loss_and_grads(X.values, Y.targets)
    sgd_step(model, X.values, Y.targets, cfg)
    Z_after = model.weights[0] @ X.values
    predicted = Z_before - cfg.eta * aux["dZ_first"] @ K
    assert np.max(np.abs(Z_after - predicted)) <= 1e-9


def test_sgd_divergence_error():
    model = init_isotropic([1, 1], variance=0.0)
    model.weights[0][0, 0] = 1e300
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        sgd_step(model, np.array([[1e300]]), np.array([[0.0]]), OptimizerConfig(eta=10.0))


def _stack(models):
    """One stacked MLP whose slice i is a copy of models[i]."""
    first = models[0]
    return MLP(
        weights=[np.stack(layer) for layer in zip(*(m.weights for m in models))],
        biases=[None if b is None else np.stack([m.biases[l] for m in models]) for l, b in enumerate(first.biases)],
        activation=first.activation,
        output_head=first.output_head,
    )


@pytest.mark.parametrize("shared_inputs", [True, False])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("head", ["linear_mse", "softmax_xent"])
def test_stacked_sgd_matches_separate_runs(rng, activation, head, shared_inputs):
    # inputs are one d x n matrix for the whole stack, or one per model (m x d x n)
    m, n = 5, 10
    X = rng.standard_normal((4, n)) if shared_inputs else rng.standard_normal((m, 4, n))
    Y = one_hot_labels(rng, 3, n).targets
    models = [
        init_isotropic([4, 6, 5, 3], variance=0.3, seed=s, activation=activation, output_head=head, deeper_biases=True)
        for s in range(m)
    ]
    stack = _stack(models)
    assert stack.stacked and stack.layer_sizes == models[0].layer_sizes
    cfg = OptimizerConfig(eta=0.05)
    order = np.random.default_rng(1)
    for _ in range(20):
        batch = order.choice(n, size=4, replace=False)
        result = sgd_step(stack, X[..., batch], Y[:, batch], cfg)
        single = [sgd_step(model, (X if shared_inputs else X[i])[:, batch], Y[:, batch], cfg)
                  for i, model in enumerate(models)]
        for got, want in ((result.loss_before, [r.loss_before for r in single]),
                          (result.loss_after, [r.loss_after for r in single])):
            assert got.shape == (m,)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    for i, model in enumerate(models):
        assert len(stack.trainable()) == len(model.trainable()) == 5
        for p, q in zip(stack.trainable(), model.trainable()):
            np.testing.assert_allclose(p[i], q, rtol=1e-14, atol=0)


def test_gn_rejects_a_stacked_model(rng):
    stack = _stack([init_isotropic([4, 3], variance=0.1, seed=s) for s in range(2)])
    with pytest.raises(ShapeError, match="stack"):
        regularized_gn_step(stack, rng.standard_normal((4, 6)), one_hot_labels(rng, 3, 6).targets, OptimizerConfig())


# -- newton -------------------------------------------------------------------

def test_newton_one_step_convergence(rng):
    X = random_dataset(rng, 4, 20)
    Y = LabelSet(rng.standard_normal((3, 20)))
    model = LinearModel(rng.standard_normal((3, 4)))
    result = newton_step(model, X.values, Y.targets, OptimizerConfig(eta=1.0))
    assert not result.diagnostics["pseudoinverse_fallback"]
    assert np.max(np.abs(model.W - solve_optimum(X, Y).W)) <= 1e-10


def test_newton_equals_sgd_on_exactly_white_data(rng):
    # F = I by construction: Newton direction is the raw gradient
    X = np.eye(3)
    Y = rng.standard_normal((2, 3))
    W0 = rng.standard_normal((2, 3))
    newton_model = LinearModel(W0.copy())
    sgd_model = init_isotropic([3, 2], variance=0.0)
    sgd_model.weights[0][...] = W0
    cfg = OptimizerConfig(eta=0.4)
    newton_step(newton_model, X, Y, cfg)
    sgd_step(sgd_model, X, Y, cfg)
    assert np.max(np.abs(newton_model.W - sgd_model.weights[0])) <= 1e-14


def test_newton_prediction_sequence_matches_whitened_gd(rng):
    d, n, n_test, steps = 16, 80, 12, 60
    X = random_dataset(rng, d, n)
    X_test = random_dataset(rng, d, n_test)
    Y = one_hot_labels(rng, 10, n)
    Wt = fit_whitener(X, mode="pca")
    X_hat = apply_whitener(Wt, X)
    X_test_hat = apply_whitener(Wt, X_test)
    newton = LinearModel(np.zeros((10, d)))
    gd = init_isotropic([d, 10], variance=0.0)
    cfg = OptimizerConfig(eta=0.35)
    for _ in range(steps):
        newton_step(newton, X.values, Y.targets, cfg)
        sgd_step(gd, X_hat.values, Y.targets, cfg)
        assert np.max(np.abs(newton.W @ X.values - gd.weights[0] @ X_hat.values)) <= 1e-10
        assert np.max(np.abs(newton.W @ X_test.values - gd.weights[0] @ X_test_hat.values)) <= 1e-10


def test_newton_pseudoinverse_fallback_flagged(rng):
    X = random_dataset(rng, 6, 3)
    Y = LabelSet(rng.standard_normal((2, 3)))
    model = LinearModel(np.zeros((2, 6)))
    result = newton_step(model, X.values, Y.targets, OptimizerConfig(eta=1.0))
    assert result.diagnostics["pseudoinverse_fallback"]


@pytest.mark.parametrize("d, n", [(9, 5), (7, 7), (5, 12)])
def test_newton_step_moves_predictions_through_K_only(rng, d, n):
    # one Newton step at eta from W0 moves the predictions a fraction eta of
    # the way to the K-form optimum f* = f0 - R K^+ K_train_x_test
    n_test, k, eta = 4, 2, 0.7
    for _ in range(5):
        X = random_dataset(rng, d, n)
        X_test = random_dataset(rng, d, n_test)
        Y = LabelSet(rng.standard_normal((k, n)))
        W0 = rng.standard_normal((k, d))
        model = LinearModel(W0.copy())
        newton_step(model, X.values, Y.targets, OptimizerConfig(eta=eta))

        expected_test = (1 - eta) * W0 @ X_test.values + eta * optimum_predictions(X, Y, X_test, W0)
        gap = np.max(np.abs(model.W @ X_test.values - expected_test))
        assert gap <= 1e-8 * np.max(np.abs(expected_test))
        if n <= d:
            expected_train = (1 - eta) * W0 @ X.values + eta * Y.targets
            gap = np.max(np.abs(model.W @ X.values - expected_train))
            assert gap <= 1e-8 * np.max(np.abs(expected_train))


# -- regularized gauss-newton ---------------------------------------------------

def test_gn_lambda_one_is_gradient_step(rng):
    X = random_dataset(rng, 5, 12)
    Y = one_hot_labels(rng, 3, 12)
    model = init_isotropic([5, 7, 3], variance=0.1, seed=2)
    _, grads, _ = model.loss_and_grads(X.values, Y.targets)
    before = [w.copy() for w in model.weights]
    cfg = OptimizerConfig(eta=0.2, reg_lambda=1.0)
    result = regularized_gn_step(model, X.values, Y.targets, cfg)
    for b, g, w in zip(before, grads, model.weights):
        assert np.max(np.abs(w - (b - cfg.eta * g))) <= 1e-10
    assert result.diagnostics["cg_iterations"] == 1


def test_gn_lambda_zero_matches_dense_newton_direction(rng):
    # linear model + MSE: the GGN is F, so lambda = 0 must reproduce grad @ F^{-1}
    d, n = 6, 30
    X = random_dataset(rng, d, n)
    Y = LabelSet(rng.standard_normal((2, n)))
    model = init_isotropic([d, 2], variance=0.1, seed=3)
    W_before = model.weights[0].copy()
    _, grads, _ = model.loss_and_grads(X.values, Y.targets)
    F = X.values @ X.values.T
    dense_direction = grads[0] @ np.linalg.inv(F)
    cfg = OptimizerConfig(eta=1.0, reg_lambda=0.0, cg_tol=1e-13, cg_max_iter=2000)
    regularized_gn_step(model, X.values, Y.targets, cfg)
    taken = W_before - model.weights[0]
    assert np.max(np.abs(taken - dense_direction)) <= 1e-10


def test_regularized_preconditioner_diag_oracle():
    B = np.diag([4.0, 1.0])
    P = regularized_preconditioner_eigenform(B, 0.5)
    assert np.allclose(np.sort(np.linalg.eigvalsh(P)), [0.4, 1.0], atol=1e-12)


def test_regularized_preconditioner_matches_dense_inverse(rng):
    for trial in range(4):
        n = int(rng.integers(4, 65))
        A = rng.standard_normal((n, n))
        B = A @ A.T + 0.5 * np.eye(n)
        lam = float(rng.uniform(0.05, 0.95))
        dense = np.linalg.inv((1 - lam) * B + lam * np.eye(n))
        assert np.max(np.abs(regularized_preconditioner_eigenform(B, lam) - dense)) <= 1e-8


def test_regularized_preconditioner_mode_scaling(rng):
    lam = 0.5
    B = np.diag([1e4, 1e-4])  # large mode >> lam/(1-lam), small mode << it
    P = regularized_preconditioner_eigenform(B, lam)
    scales = np.sort(np.linalg.eigvalsh(P))
    assert scales[0] == pytest.approx(1.0 / ((1 - lam) * 1e4), rel=1e-3)
    assert scales[1] == pytest.approx(1.0 / lam, rel=1e-3)


def test_gn_direction_continuous_in_lambda(rng):
    X = random_dataset(rng, 4, 14)
    Y = one_hot_labels(rng, 3, 14)
    directions = []
    for lam in (0.3, 0.3 + 1e-9):
        model = init_isotropic([4, 5, 3], variance=0.1, seed=4)
        before = _flatten([w.copy() for w in model.weights])
        cfg = OptimizerConfig(eta=1.0, reg_lambda=lam, cg_tol=1e-12, cg_max_iter=5000)
        regularized_gn_step(model, X.values, Y.targets, cfg)
        directions.append(before - _flatten(model.weights))
    assert np.max(np.abs(directions[0] - directions[1])) <= 1e-6


# -- conjugate gradients --------------------------------------------------------

def test_cg_identity_single_iteration():
    b = np.array([3.0, -1.0, 2.0])
    res = conjugate_gradient_solve(lambda v: v, b, tol=1e-12)
    assert res.iterations == 1
    assert np.max(np.abs(res.x - b)) <= 1e-12


def test_cg_diagonal_hand_case():
    res = conjugate_gradient_solve(lambda v: 2.0 * v, np.array([2.0, 4.0]), tol=1e-12)
    assert np.allclose(res.x, [1.0, 2.0], atol=1e-12)


def test_cg_exact_in_distinct_eigenvalue_count(rng):
    # m distinct eigenvalues -> exact convergence within m iterations
    eigs = np.array([1.0, 1.0, 3.0, 3.0, 7.0, 7.0])
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    A = Q @ np.diag(eigs) @ Q.T
    b = rng.standard_normal(6)
    res = conjugate_gradient_solve(lambda v: A @ v, b, tol=1e-8)
    assert res.iterations <= 3
    assert np.max(np.abs(A @ res.x - b)) <= 1e-7


def test_cg_nonconvergence_error(rng):
    A = np.diag([1.0, 1e8])
    with pytest.raises(ConvergenceError) as err:
        conjugate_gradient_solve(lambda v: A @ v, np.array([1.0, 1.0]), tol=1e-300, max_iter=3)
    assert err.value.residual is not None


# -- line search ----------------------------------------------------------------

def quadratic_loss(params):
    (w,) = params
    return float(w @ w)


def test_line_search_accepts_small_step():
    params = [np.array([1.0])]
    direction = [np.array([-2.0])]  # -grad
    slope = -4.0
    assert backtracking_line_search(quadratic_loss, params, direction, quadratic_loss(params), slope, 0.1) == 0.1


def test_line_search_backs_off_and_satisfies_armijo():
    params = [np.array([1.0])]
    direction = [np.array([-2.0])]
    slope = -4.0
    s = backtracking_line_search(quadratic_loss, params, direction, quadratic_loss(params), slope, 2.0)
    assert s < 2.0
    assert quadratic_loss([params[0] + s * direction[0]]) <= quadratic_loss(params) + 1e-4 * s * slope


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan")])
def test_line_search_step_must_be_positive(step):
    with pytest.raises(ValidationError, match="initial_step"):
        OptimizerConfig(line_search_step=step)


def test_negative_batch_size_is_rejected():
    # a negative batch used to make the batch schedule spin without yielding a batch
    with pytest.raises(ValidationError, match="batch_size"):
        OptimizerConfig(batch_size=-3)
    assert OptimizerConfig(batch_size=0).batch_size == 0  # 0, like None, is the full batch


def test_line_search_rejects_ascent_direction():
    with pytest.raises(LineSearchError):
        backtracking_line_search(quadratic_loss, [np.array([1.0])], [np.array([2.0])], 1.0, 4.0)


def test_line_search_stall_error():
    # loss that never decreases: every trial fails the sufficient-decrease test
    def bad_loss(params):
        (w,) = params
        return 1.0 + abs(float(w[0]) - 1.0)

    with pytest.raises(LineSearchError):
        backtracking_line_search(bad_loss, [np.array([1.0])], [np.array([-1.0])], 1.0, -1.0)


# -- gradient correctness ----------------------------------------------------------

@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("head", ["linear_mse", "softmax_xent"])
def test_gradients_match_finite_differences(rng, activation, head):
    for seed in range(3):
        X = rng.standard_normal((4, 7))
        Y = one_hot_labels(rng, 3, 7).targets
        model = init_isotropic(
            [4, 6, 3], variance=0.2, seed=seed, activation=activation, output_head=head,
            deeper_biases=True,
        )
        assert_grads_match_fd(model, X, Y)


def test_linear_model_gradients_match_fd(rng):
    model = init_isotropic([5, 2], variance=0.3, seed=9)
    X = rng.standard_normal((5, 11))
    Y = rng.standard_normal((2, 11))
    assert_grads_match_fd(model, X, Y)


def test_descent_under_line_search(rng):
    X = random_dataset(rng, 5, 20)
    Y = one_hot_labels(rng, 3, 20)
    model = init_isotropic([5, 8, 3], variance=0.1, seed=11)
    cfg = OptimizerConfig(
        eta=1.0, reg_lambda=0.4, line_search_step=1.0
    )
    losses = [model.loss_on(X.values, Y.targets)]
    for _ in range(12):
        result = regularized_gn_step(model, X.values, Y.targets, cfg)
        losses.append(result.loss_after)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_gn_line_search_at_stationary_point_keeps_parameters(rng):
    # lambda = 0 on a linear model with n > d lands on the least-squares optimum in
    # one step; the next gradient is within cg_tol, CG returns x = 0 after 0
    # iterations, and the step must leave the weights alone instead of raising
    d, n = 6, 40
    X = random_dataset(rng, d, n)
    Y = one_hot_labels(rng, 3, n)
    model = init_isotropic([d, 3], variance=0.0, seed=0)
    cfg = OptimizerConfig(eta=1.0, reg_lambda=0.0, cg_tol=1e-6, line_search_step=1.0)
    first = regularized_gn_step(model, X.values, Y.targets, cfg)
    assert first.step_size == 1.0 and first.diagnostics["cg_iterations"] > 0
    W_opt = model.weights[0].copy()
    for _ in range(2):
        result = regularized_gn_step(model, X.values, Y.targets, cfg)
        assert result.diagnostics["cg_iterations"] == 0 and result.step_size == 0.0
        assert np.array_equal(model.weights[0], W_opt)
    assert result.loss_after == result.loss_before


def test_lambda_sweep_steps_to_best_validation_direction():
    # steps to the best validation loss grow (weakly) as lambda -> 1
    from whitebench import Dataset
    from whitebench.synth import SyntheticSpec, synthesize

    def steps_to_best(lam, data, X, scale, seed, steps=80):
        model = init_isotropic([24, 4], variance=0.0, seed=seed)
        cfg = OptimizerConfig(
            eta=1.0, reg_lambda=lam, cg_tol=1e-6, cg_max_iter=2000,
            line_search_step=1.0,
        )
        X_val = data.val.values / scale
        best, best_step = np.inf, 0
        for step in range(1, steps + 1):
            regularized_gn_step(model, X.values, data.y_train.targets, cfg)
            v = model.loss_on(X_val, data.y_val.targets)
            if v < best:
                best, best_step = v, step
        return best_step

    lams = (0.2, 0.6, 1.0)
    means = []
    for lam in lams:
        steps = []
        for seed in range(6):
            spec = SyntheticSpec(
                d=24, n_train=96, n_val=32, alpha=2.0, label_noise=0.1, classes=4,
                encoding="one_hot", seed=seed, teacher_seed=7,
            )
            data = synthesize(spec)
            scale = np.sqrt(float(np.linalg.eigvalsh(data.train.values @ data.train.values.T)[-1]))
            X = Dataset(data.train.values / scale)
            steps.append(steps_to_best(lam, data, X, scale, seed))
        means.append(np.mean(steps))
    assert means[0] <= means[1] <= means[2]
