"""One stepping loop, `models.run_steps`, behind the orbit and Newton-equivalence checks.

The reference loops below are the hand-rolled loops those checks ran before
they shared `run_steps`: a minibatch order drawn epoch by epoch from the run
seed, and at full batch a step on the inputs themselves that hands its
post-step forward to the next step. Both paths must give the same bits on the
same machine and BLAS build, so the tests compare them in-process.
"""
import numpy as np
import pytest

from whitebench import (
    MLP, Dataset, LabelSet, OptimizerConfig, apply_whitener, fit_whitener, init_isotropic,
    orbit_equivalence_check, random_orthogonal,
)
from whitebench.info_checks import _pair_gap
from whitebench.linear_flow import LinearModel
from whitebench.models import run_steps
from whitebench.optimizers import newton_step, sgd_step
from whitebench.verify import newton_whitened_gd_deviation
from whitebench.whitening import RankPolicy

from conftest import one_hot_labels, random_dataset


def _reference_batches(n, size, seed):
    rng = np.random.default_rng(seed)
    size = min(size, n)
    while True:
        order = np.arange(n) if size == n else rng.permutation(n)
        for start in range(0, n, size):
            yield order[start : start + size]


def _reference_orbit(X, Y, R, seed, steps, family, X_test, batch_size):
    """The orbit check's deviations, by its loop before `run_steps`."""
    d, m = X.feature_dim, len(R)
    R_T = np.swapaxes(R, -1, -2)
    sizes = [d, Y.output_dim] if family == "linear" else [d, 8, Y.output_dim]
    inits = [init_isotropic(sizes, variance=0.01, seed=seed + i) for i in range(m)]
    weights = [np.concatenate([np.stack(layer)] * 2) for layer in zip(*(init.weights for init in inits))]
    weights[0][m:] = weights[0][:m] @ R_T
    model = MLP(weights=weights, biases=inits[0].biases)

    def rotated(values):
        return np.concatenate([np.broadcast_to(values, (m,) + values.shape), R @ values])

    Xs, Xts = rotated(X.values), rotated(X_test.values)
    cfg = OptimizerConfig(eta=0.05, batch_size=batch_size)
    n = X.sample_count
    full_batch = (batch_size or n) >= n
    dev_param = dev_act = dev_loss = dev_pred = 0.0
    forward = None
    for _, batch in zip(range(steps), _reference_batches(n, batch_size or n, seed)):
        result = sgd_step(model, Xs if full_batch else Xs[..., batch], Y.targets[:, batch], cfg, forward)
        dev_loss = max(dev_loss, _pair_gap(result.loss_after))
        for W in model.weights[1:]:
            dev_param = max(dev_param, _pair_gap(W))
        if full_batch:
            forward = result.diagnostics["forward"]
        dev_act = max(dev_act, _pair_gap(forward[1]["pre"][0] if full_batch else model.weights[0] @ Xs))
        dev_pred = max(dev_pred, _pair_gap(model.predict(Xts)))
    return dev_param, dev_act, dev_loss, dev_pred


def _reference_newton_deviation(d, n, n_test, steps, eta, seed):
    """newton_whitened_gd_deviation by its loop before `run_steps`."""
    rng = np.random.default_rng(seed)
    X = Dataset(rng.standard_normal((d, n)))
    X_test = Dataset(rng.standard_normal((d, n_test)))
    Y = LabelSet.from_class_ids(rng.integers(0, 10, size=n), 10)
    W = fit_whitener(X, mode="pca", rank_policy=RankPolicy("manual"))
    X_hat, X_test_hat = apply_whitener(W, X), apply_whitener(W, X_test)
    newton = LinearModel(np.zeros((10, d)))
    gd = init_isotropic([d, 10], variance=0.0)
    cfg = OptimizerConfig(eta=eta)
    worst = 0.0
    forward = None
    for _ in range(steps):
        newton_step(newton, X.values, Y.targets, cfg)
        forward = sgd_step(gd, X_hat.values, Y.targets, cfg, forward).diagnostics["forward"]
        worst = max(
            worst,
            float(np.max(np.abs(newton.W @ X.values - forward[0]))),
            float(np.max(np.abs(newton.W @ X_test.values - gd.weights[0] @ X_test_hat.values))),
        )
    return worst


def _count_forwards(monkeypatch):
    """Column counts of the arrays MLP.forward is called on, in call order."""
    columns = []
    original = MLP.forward

    def counting(self, X):
        columns.append(np.shape(X)[-1])
        return original(self, X)

    monkeypatch.setattr(MLP, "forward", counting)
    return columns


@pytest.mark.parametrize("batch_size", [None, 4])
@pytest.mark.parametrize("family", ["linear", "mlp"])
def test_orbit_report_is_bit_equal_to_the_reference_loop(rng, family, batch_size):
    X, Y, X_test = random_dataset(rng, 5, 14), one_hot_labels(rng, 3, 14), random_dataset(rng, 5, 4)
    R = np.stack([random_orthogonal(5, seed=60 + i) for i in range(6)])
    report = orbit_equivalence_check(X, Y, R, seed=2, steps=17, family=family, X_test=X_test, batch_size=batch_size)
    got = (report.max_param_deviation, report.max_activation_deviation, report.max_loss_deviation,
           report.max_prediction_deviation)
    assert got == _reference_orbit(X, Y, R, 2, 17, family, X_test, batch_size)


@pytest.mark.parametrize("batch_size, train_forwards", [(None, 1 + 9), (4, 2 * 9)])
def test_orbit_forward_count_is_the_reference_loops(rng, monkeypatch, batch_size, train_forwards):
    # full batch: one forward before the first step, then one per step; a minibatch: two per step
    X, Y, X_test = random_dataset(rng, 5, 14), one_hot_labels(rng, 3, 14), random_dataset(rng, 5, 3)
    columns = _count_forwards(monkeypatch)
    orbit_equivalence_check(X, Y, random_orthogonal(5, seed=1), steps=9, X_test=X_test, batch_size=batch_size)
    assert columns.count(3) == 9  # the test predictions after each step
    assert len(columns) - 9 == train_forwards


def test_newton_deviation_is_bit_equal_to_the_reference_loop():
    kw = dict(d=12, n=40, n_test=9, steps=25, eta=0.3, seed=4)
    assert newton_whitened_gd_deviation(**kw) == _reference_newton_deviation(**kw)


def test_newton_deviation_makes_one_gd_forward_per_step_and_one_before(monkeypatch):
    columns = _count_forwards(monkeypatch)
    newton_whitened_gd_deviation(d=8, n=30, n_test=5, steps=11)
    assert columns == [30] * 12


def test_run_steps_yields_the_forward_before_the_first_step(rng):
    X, Y = random_dataset(rng, 4, 10).values, one_hot_labels(rng, 3, 10).targets
    model = init_isotropic([4, 3], variance=0.5, seed=0)
    before = model.predict(X)
    steps = run_steps(model, X, Y, OptimizerConfig(), sgd_step, seed=0)
    result, forward = next(steps)
    assert result is None and np.array_equal(forward[0], before)
    result, forward = next(steps)
    assert forward is result.diagnostics["forward"]


def test_run_steps_draws_the_minibatch_order_from_the_seed(rng):
    X, Y = random_dataset(rng, 4, 10).values, one_hot_labels(rng, 3, 10).targets
    seen = []
    steps = run_steps(None, X, Y, OptimizerConfig(batch_size=3), lambda *args: seen.append(args[1]), seed=5)
    assert next(steps) == (None, None)
    assert [next(steps) for _ in range(8)] == [(None, None)] * 8  # two epochs of 3 + 3 + 3 + 1 columns
    expected = _reference_batches(10, 3, 5)
    assert len(seen) == 8 and all(np.array_equal(Xb, X[:, next(expected)]) for Xb in seen)
