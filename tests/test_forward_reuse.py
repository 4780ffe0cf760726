"""Full-batch steps hand their post-step forward to the next step.

The reference steps below are the step bodies that make a fresh forward pass
before and after every update. Reusing the post-step forward must give the
same bits as they do, on the same machine and BLAS build, so these tests
compare the two paths in-process instead of against committed numbers.
"""
import math

import numpy as np
import pytest

from whitebench import (
    MLP, Dataset, LabelSet, OptimizerConfig, StepResult, accuracy, init_isotropic, train_to_cutoff,
)
from whitebench import optimizers
from whitebench.models import run_steps
from whitebench.errors import ValidationError
from whitebench.optimizers import backtracking_line_search, conjugate_gradient_solve

from conftest import one_hot_labels, random_dataset

D, HIDDEN, CLASSES = 6, 8, 3
N_TRAIN, N_VAL, N_TEST = 20, 7, 9


def _flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def _unflatten(vector, templates):
    sizes = np.cumsum([t.size for t in templates])[:-1]
    return [v.reshape(t.shape) for v, t in zip(np.split(vector, sizes), templates)]


def _fresh_sgd_step(model, X_b, Y_b, cfg):
    loss_before, grads, _ = model.loss_and_grads(X_b, Y_b)
    for p, g in zip(model.trainable(), grads):
        p -= cfg.eta * g
    predictions_after = model.predict(X_b)
    return StepResult(cfg.eta, loss_before, model.loss_value(predictions_after, Y_b),
                      {"predictions_after": predictions_after})


def _fresh_gn_step(model, X_b, Y_b, cfg):
    lam = cfg.reg_lambda
    loss_before, grads, aux = model.loss_and_grads(X_b, Y_b)
    g = _flatten(grads)
    templates = model.trainable()

    def apply_A(v):
        if lam == 1.0:
            return v.copy()
        ju = model.jvp(aux["cache"], _unflatten(v, templates))
        gg, _ = model.grads_from(aux["cache"], model.output_hessian_apply(aux["predictions"], ju, Y_b))
        return (1.0 - lam) * _flatten(gg) + lam * v

    cg = conjugate_gradient_solve(apply_A, g, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter)
    direction = _unflatten(-cg.x, templates)
    if cfg.line_search_step is None:
        step = cfg.eta
    elif cg.iterations == 0:
        step = 0.0
    else:
        def loss_at(param_list):
            saved = [p.copy() for p in templates]
            for p, q in zip(templates, param_list):
                p[...] = q
            value = model.loss_on(X_b, Y_b)
            for p, s in zip(templates, saved):
                p[...] = s
            return value

        params = [p.copy() for p in templates]
        step = backtracking_line_search(
            loss_at, params, direction, loss_at(params), -float(g @ cg.x), cfg.line_search_step
        )
    for p, d in zip(templates, direction):
        p += step * d
    predictions_after = model.predict(X_b)
    return StepResult(step, loss_before, model.loss_value(predictions_after, Y_b), {
        "cg_iterations": cg.iterations, "cg_residual": cg.residual_norm, "reg_lambda": lam,
        "predictions_after": predictions_after,
    })


def _fresh_loop(model, X, Y, X_val, Y_val, cfg, optimizer, cutoff, step_cap):
    """Full-batch train_to_cutoff at record_every = 1 on the fresh-forward steps."""
    step_fn = _fresh_sgd_step if optimizer == "sgd" else _fresh_gn_step
    n = X.sample_count
    rows, results = [], []

    def evaluate(step, pred):
        val_loss = model.loss_on(X_val.values, Y_val.targets) / X_val.sample_count
        rows.append((step, model.loss_value(pred, Y.targets) / n, accuracy(pred, Y.targets), val_loss))
        return rows[-1][2] >= cutoff

    step, reached = 0, evaluate(0, model.predict(X.values))
    while not reached and step < step_cap:
        batch = np.arange(n)
        results.append(step_fn(model, X.values[:, batch], Y.targets[:, batch], cfg))
        step += 1
        reached = evaluate(step, results[-1].diagnostics["predictions_after"])
    return rows, results, step, "cutoff" if reached else "cap"


def _capture_steps(monkeypatch):
    """Record every StepResult train_to_cutoff gets from its step function."""
    results = []
    for name in ("sgd_step", "regularized_gn_step"):
        original = getattr(optimizers, name)

        def recording(*args, _original=original, **kwargs):
            results.append(_original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(optimizers, name, recording)
    return results


def _assert_same_result(reused, fresh):
    assert (reused.step_size, reused.loss_before, reused.loss_after) == (
        fresh.step_size, fresh.loss_before, fresh.loss_after)
    reused_diag, fresh_diag = dict(reused.diagnostics), dict(fresh.diagnostics)
    assert np.array_equal(reused_diag.pop("forward")[0], fresh_diag.pop("predictions_after"))
    assert reused_diag == fresh_diag


def _problem(seed):
    rng = np.random.default_rng(seed)
    return (random_dataset(rng, D, N_TRAIN), one_hot_labels(rng, CLASSES, N_TRAIN),
            random_dataset(rng, D, N_VAL), one_hot_labels(rng, CLASSES, N_VAL))


def _capped_problem(seed):
    """A train split whose second half repeats the first with other labels: no run reaches accuracy 1."""
    X, _, X_val, Y_val = _problem(seed)
    half = X.values[:, : N_TRAIN // 2]
    ids = np.random.default_rng(seed).integers(0, CLASSES, size=N_TRAIN // 2)
    Y = LabelSet.from_class_ids(np.concatenate([ids, (ids + 1) % CLASSES]), CLASSES)
    return Dataset(np.hstack([half, half])), Y, X_val, Y_val


STEP_RULES = {
    "sgd": ("sgd", dict(eta=0.01), 0.5),
    "gn": ("gn", dict(eta=0.3, reg_lambda=0.3, cg_tol=1e-8), 0.5),
    "gn_line_search": ("gn", dict(reg_lambda=0.3, cg_tol=1e-8, line_search_step=1.0), 0.5),
    # zero init is a stationary point: every line-search step is 0 and reuses the pre-step forward
    "gn_line_search_stationary": ("gn", dict(reg_lambda=0.3, cg_tol=1e-8, line_search_step=1.0), 0.0),
}


@pytest.mark.parametrize("problem", [_problem, _capped_problem], ids=["to_cutoff", "to_cap"])
@pytest.mark.parametrize("output_head", ["linear_mse", "softmax_xent"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("rule", sorted(STEP_RULES))
def test_train_to_cutoff_is_bit_equal_to_fresh_forward_steps(monkeypatch, rule, activation, output_head, problem):
    optimizer, knobs, variance = STEP_RULES[rule]
    X, Y, X_val, Y_val = problem(seed=len(rule))
    cfg = OptimizerConfig(**knobs)
    init = init_isotropic([D, HIDDEN, CLASSES], variance=variance, seed=1,
                          activation=activation, output_head=output_head)
    fresh_model = init.copy()
    rows, fresh_results, terminal, reason = _fresh_loop(
        fresh_model, X, Y, X_val, Y_val, cfg, optimizer, cutoff=0.9, step_cap=25)

    model = init.copy()
    results = _capture_steps(monkeypatch)
    record = train_to_cutoff(model, X, Y, cfg, optimizer=optimizer, cutoff=0.9, step_cap=25,
                             val=(X_val, Y_val))
    assert (record.terminal_step, record.stopping_reason) == (terminal, reason)
    assert list(zip(record.steps, record.train_loss, record.train_accuracy, record.val_loss)) == rows
    assert all(np.array_equal(p, q) for p, q in zip(model.trainable(), fresh_model.trainable()))
    assert len(results) == len(fresh_results) == terminal
    for reused, fresh in zip(results, fresh_results):
        _assert_same_result(reused, fresh)


@pytest.mark.parametrize("output_head", ["linear_mse", "softmax_xent"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stacked_sgd_step_handing_on_its_forward_is_bit_equal(activation, output_head):
    X, Y, _, _ = _problem(seed=2)
    inits = [init_isotropic([D, HIDDEN, CLASSES], variance=0.5, seed=s) for s in range(3)]
    stack = MLP(weights=[np.stack(layer) for layer in zip(*(m.weights for m in inits))],
                biases=inits[0].biases, activation=activation, output_head=output_head)
    fresh = stack.copy()
    cfg = OptimizerConfig(eta=0.01)
    forward = None
    for _ in range(30):
        result = optimizers.sgd_step(stack, X.values, Y.targets, cfg, forward)
        forward = result.diagnostics["forward"]
        fresh_result = _fresh_sgd_step(fresh, X.values, Y.targets, cfg)
        assert np.array_equal(result.loss_before, fresh_result.loss_before)
        assert np.array_equal(result.loss_after, fresh_result.loss_after)
        assert np.array_equal(forward[0], fresh_result.diagnostics["predictions_after"])
        assert all(np.array_equal(p, q) for p, q in zip(stack.trainable(), fresh.trainable()))


def _count_forwards(monkeypatch):
    """Column counts of the arrays MLP.forward is called on, in call order."""
    columns = []
    original = MLP.forward

    def counting(self, X):
        columns.append(np.shape(X)[-1])
        return original(self, X)

    monkeypatch.setattr(MLP, "forward", counting)
    return columns


def _line_search_trials(result, initial_step):
    """Trial forwards a line-search step made: none for a zero step, else one per step size tried."""
    return 0 if result.step_size == 0.0 else 1 + round(math.log2(initial_step / result.step_size))


@pytest.mark.parametrize("rule", ["sgd", "gn", "gn_line_search"])
def test_full_batch_makes_one_train_forward_per_step(monkeypatch, rule):
    optimizer, knobs, variance = STEP_RULES[rule]
    X, Y, X_val, Y_val = _capped_problem(seed=3)
    rng = np.random.default_rng(4)
    X_test, Y_test = random_dataset(rng, D, N_TEST), one_hot_labels(rng, CLASSES, N_TEST)
    model = init_isotropic([D, HIDDEN, CLASSES], variance=variance, seed=1)
    results = _capture_steps(monkeypatch)
    columns = _count_forwards(monkeypatch)
    record = train_to_cutoff(model, X, Y, OptimizerConfig(**knobs), optimizer=optimizer, cutoff=1.0,
                             step_cap=12, val=(X_val, Y_val), test=(X_test, Y_test),
                             record_every=5)
    assert record.steps == [0, 5, 10, 12]
    # the step-0 evaluation's forward serves the first step; each step's post-step forward the next
    if "line_search_step" in knobs:
        train_forwards = 1 + sum(_line_search_trials(r, knobs["line_search_step"]) for r in results)
    else:
        train_forwards = 1 + record.terminal_step
    assert columns.count(N_TRAIN) == train_forwards
    assert columns.count(N_VAL) == columns.count(N_TEST) == len(record.steps)
    assert len(columns) == train_forwards + 2 * len(record.steps)


@pytest.mark.parametrize("rule", ["sgd", "gn"])
def test_minibatch_forward_count_is_unchanged(monkeypatch, rule):
    optimizer, knobs, variance = STEP_RULES[rule]
    X, Y, X_val, Y_val = _capped_problem(seed=3)
    model = init_isotropic([D, HIDDEN, CLASSES], variance=variance, seed=1)
    columns = _count_forwards(monkeypatch)
    record = train_to_cutoff(model, X, Y, OptimizerConfig(batch_size=6, **knobs), optimizer=optimizer,
                             cutoff=1.0, step_cap=12, val=(X_val, Y_val), record_every=5)
    assert record.steps == [0, 5, 10, 12]
    # each step a forward before and one after its update, on its batch of 6 (or the epoch's last 2)
    batch_forwards = [c for c in columns if c in (6, 2)]
    assert len(batch_forwards) == 2 * record.terminal_step
    assert columns.count(N_TRAIN) == columns.count(N_VAL) == len(record.steps)
    assert len(columns) == len(batch_forwards) + 2 * len(record.steps)


@pytest.mark.parametrize("call", [
    lambda model, X, Y, forward: model.loss_and_grads(X, Y, forward),
    lambda model, X, Y, forward: optimizers.sgd_step(model, X, Y, OptimizerConfig(), forward),
    lambda model, X, Y, forward: optimizers.regularized_gn_step(
        model, X, Y, OptimizerConfig(reg_lambda=0.5), forward),
], ids=["loss_and_grads", "sgd_step", "regularized_gn_step"])
def test_a_forward_of_another_array_is_rejected(call):
    X, Y, _, _ = _problem(seed=5)
    model = init_isotropic([D, HIDDEN, CLASSES], variance=0.5, seed=1)
    before = [p.copy() for p in model.trainable()]
    stale = model.forward(X.values.copy())  # equal values, another array
    with pytest.raises(ValidationError, match="another input array"):
        call(model, X.values, Y.targets, stale)
    assert all(np.array_equal(p, q) for p, q in zip(model.trainable(), before))


# -- the post-step loss rides with the forward -------------------------------------

def _steps_through_run_steps(model, X, Y, cfg, step_fn, k):
    """k full-batch steps by models.run_steps, each handed the previous step's forward and loss."""
    steps = run_steps(model, X, Y, cfg, step_fn, seed=0)
    next(steps)
    return [next(steps)[0] for _ in range(k)]


@pytest.mark.parametrize("output_head", ["linear_mse", "softmax_xent"])
@pytest.mark.parametrize("rule", ["sgd", "gn", "gn_line_search", "gn_line_search_stationary"])
def test_steps_handed_their_loss_have_the_bits_of_fresh_steps(rule, output_head):
    optimizer, knobs, variance = STEP_RULES[rule]
    X, Y, _, _ = _problem(seed=6)
    cfg = OptimizerConfig(**knobs)
    init = init_isotropic([D, HIDDEN, CLASSES], variance=variance, seed=2, output_head=output_head)
    model, fresh = init.copy(), init.copy()
    step_fn, fresh_fn = {"sgd": (optimizers.sgd_step, _fresh_sgd_step),
                         "gn": (optimizers.regularized_gn_step, _fresh_gn_step)}[optimizer]
    handed = _steps_through_run_steps(model, X.values, Y.targets, cfg, step_fn, k=8)
    batch = np.arange(N_TRAIN)  # run_steps' full-batch slice, whose layout the steps round on
    Xb, Yb = X.values[:, batch], Y.targets[:, batch]
    for result in handed:
        _assert_same_result(result, fresh_fn(fresh, Xb, Yb, cfg))
    assert all(np.array_equal(p, q) for p, q in zip(model.trainable(), fresh.trainable()))


def _count_losses(monkeypatch):
    calls = []
    original = MLP.loss_value

    def counting(self, predictions, targets):
        calls.append(targets)
        return original(self, predictions, targets)

    monkeypatch.setattr(MLP, "loss_value", counting)
    return calls


def test_a_full_batch_sgd_step_computes_one_loss(monkeypatch):
    X, Y, _, _ = _problem(seed=7)
    model = init_isotropic([D, HIDDEN, CLASSES], variance=0.5, seed=1)
    calls = _count_losses(monkeypatch)
    _steps_through_run_steps(model, X.values, Y.targets, OptimizerConfig(eta=0.01), optimizers.sgd_step, k=5)
    # the first step computes its loss before and after; each later step reads its loss before off the forward
    assert len(calls) == 5 + 1


def test_a_forward_handed_on_with_another_Y_recomputes_the_loss(monkeypatch):
    X, Y, _, _ = _problem(seed=8)
    model = init_isotropic([D, HIDDEN, CLASSES], variance=0.5, seed=1)
    cfg = OptimizerConfig(eta=0.01)
    forward = optimizers.sgd_step(model, X.values, Y.targets, cfg).diagnostics["forward"]
    kept = model.forward_loss(forward, Y.targets)
    other = np.roll(Y.targets, 1, axis=0)  # other labels: a loss read off the forward would be wrong
    expected = model.loss_value(forward[0], other)
    calls = _count_losses(monkeypatch)
    assert optimizers.sgd_step(model.copy(), X.values, other, cfg, forward).loss_before == expected != kept
    assert calls[0] is other
    copy = Y.targets.copy()  # equal values, another array: still recomputed
    calls.clear()
    assert optimizers.sgd_step(model.copy(), X.values, copy, cfg, forward).loss_before == kept
    assert calls[0] is copy
