import numpy as np
import pytest

from whitebench import (
    Dataset,
    LabelSet,
    OptimizerConfig,
    RankPolicy,
    accuracy,
    apply_whitener,
    fit_whitener,
    init_isotropic,
    train_to_cutoff,
)
from whitebench.errors import ShapeError, ValidationError
from whitebench.synth import SyntheticSpec, synthesize

from conftest import one_hot_labels, random_dataset


def test_zero_variance_gives_zero_weights():
    model = init_isotropic([4, 3, 2], variance=0.0, seed=5)
    for W in model.weights:
        assert np.array_equal(W, np.zeros_like(W))


def test_row_second_moment_matches_variance():
    # Monte-Carlo oracle: 1e4 rows, sample second moment within 5% of variance * I
    var = 0.3
    model = init_isotropic([6, 10_000], variance=var, seed=1)
    W = model.weights[0]
    moment = W.T @ W / W.shape[0]
    assert np.max(np.abs(moment - var * np.eye(6))) <= 0.05 * var


def test_default_variance_is_1e_minus_4():
    import inspect

    from whitebench.models import init_isotropic as fn

    assert inspect.signature(fn).parameters["variance"].default == 1e-4


def test_forward_zero_weights_zero_predictions(rng):
    model = init_isotropic([3, 4, 2], variance=0.0)
    pred, _ = model.forward(rng.standard_normal((3, 6)))
    assert np.array_equal(pred, np.zeros((2, 6)))


def test_single_layer_equals_linear_model(rng):
    model = init_isotropic([5, 3], variance=0.2, seed=2)
    X = rng.standard_normal((5, 9))
    assert np.array_equal(model.predict(X), model.weights[0] @ X)


def test_forward_lipschitz_bound(rng):
    model = init_isotropic([4, 8, 8, 3], variance=0.5, seed=3)
    bound = np.prod([np.linalg.norm(W, 2) for W in model.weights])
    X = rng.standard_normal((4, 10))
    for _ in range(20):
        delta = 1e-2 * rng.standard_normal((4, 10))
        gap = np.linalg.norm(model.predict(X + delta) - model.predict(X))
        assert gap <= bound * np.linalg.norm(delta) * (1 + 1e-12)


def test_backward_zero_at_perfect_fit(rng):
    model = init_isotropic([3, 2], variance=0.3, seed=4)
    X = rng.standard_normal((3, 7))
    Y = model.predict(X)
    _, grads, _ = model.loss_and_grads(X, Y)
    for g in grads:
        assert np.max(np.abs(g)) == 0.0


def test_first_layer_gradient_is_dZ_times_XT(rng):
    model = init_isotropic([4, 5, 3], variance=0.2, seed=6)
    X = rng.standard_normal((4, 8))
    Y = one_hot_labels(rng, 3, 8).targets
    _, grads, aux = model.loss_and_grads(X, Y)
    assert np.array_equal(grads[0], aux["dZ_first"] @ X.T)


def test_first_layer_never_has_bias():
    from whitebench.models import MLP

    with pytest.raises(ValidationError):
        MLP(weights=[np.zeros((2, 3))], biases=[np.zeros(2)])


def test_train_single_sample_terminates(rng):
    X = Dataset(rng.standard_normal((4, 1)))
    Y = one_hot_labels(rng, 3, 1)
    model = init_isotropic([4, 3], variance=0.01, seed=0)
    record = train_to_cutoff(model, X, Y, OptimizerConfig(eta=0.5), step_cap=500, seed=0)
    assert record.stopping_reason == "cutoff"
    assert record.train_accuracy[-1] == 1.0


def test_train_cap_reached(rng):
    X = random_dataset(rng, 3, 8)
    Y = one_hot_labels(rng, 4, 8)
    model = init_isotropic([3, 4], variance=0.0, seed=0)
    record = train_to_cutoff(
        model, X, Y, OptimizerConfig(eta=1e-12), step_cap=5, seed=0
    )
    assert record.stopping_reason == "cap"
    assert record.terminal_step == 5
    assert record.metadata["steps_to_cutoff"] is None


def test_record_every_below_one_is_rejected(rng):
    # 0 used to raise ZeroDivisionError at the first step
    X, Y = random_dataset(rng, 3, 8), one_hot_labels(rng, 4, 8)
    with pytest.raises(ValidationError, match="record_every"):
        train_to_cutoff(init_isotropic([3, 4]), X, Y, OptimizerConfig(), step_cap=5, record_every=0)


@pytest.mark.parametrize("batch_size", [None, 3])
def test_record_every_thins_the_rows(rng, batch_size):
    # full batch used to record every step whatever record_every said
    X, Y = random_dataset(rng, 3, 8), one_hot_labels(rng, 4, 8)
    model = init_isotropic([3, 4], variance=0.0, seed=0)
    record = train_to_cutoff(
        model, X, Y, OptimizerConfig(eta=1e-12, batch_size=batch_size), step_cap=30, record_every=10, seed=0
    )
    assert record.stopping_reason == "cap"
    assert record.steps == [0, 10, 20, 30]


def test_full_batch_cutoff_between_recorded_steps_stops_and_records(rng):
    X, Y = random_dataset(rng, 4, 12), one_hot_labels(rng, 3, 12)
    val = (random_dataset(rng, 4, 5), one_hot_labels(rng, 3, 5))

    def run(record_every):
        model = init_isotropic([4, 3], variance=0.01, seed=0)
        return train_to_cutoff(model, X, Y, OptimizerConfig(eta=0.02), cutoff=0.75, step_cap=500,
                               X_val=val[0], Y_val=val[1], record_every=record_every)

    every, sparse = run(1), run(7)
    cut = every.terminal_step
    assert every.stopping_reason == sparse.stopping_reason == "cutoff" and cut % 7 != 0
    assert sparse.terminal_step == cut
    assert sparse.steps == list(range(0, cut, 7)) + [cut]
    rows = dict(zip(every.steps, zip(every.train_loss, every.train_accuracy, every.val_loss)))
    assert list(zip(sparse.train_loss, sparse.train_accuracy, sparse.val_loss)) == [rows[s] for s in sparse.steps]


def test_train_to_cutoff_rejects_a_stacked_model(rng):
    X, Y = random_dataset(rng, 3, 8), one_hot_labels(rng, 4, 8)
    model = init_isotropic([3, 4])
    model.weights[0] = np.stack([model.weights[0]] * 2)
    with pytest.raises(ShapeError, match="stack"):
        train_to_cutoff(model, X, Y, OptimizerConfig(), step_cap=5)


def test_default_cutoff_is_0999():
    import inspect

    assert inspect.signature(train_to_cutoff).parameters["cutoff"].default == 0.999


def _speedup_data(seed, n=96, d=24):
    spec = SyntheticSpec(
        d=d, n_train=n, alpha=2.0, label_noise=0.05, classes=4,
        encoding="one_hot", seed=seed, teacher_seed=1234,
    )
    data = synthesize(spec)
    top = float(np.linalg.eigvalsh(data.train.values @ data.train.values.T)[-1])
    X = Dataset(data.train.values / np.sqrt(top))
    return X, data.y_train


def test_whitened_training_reaches_cutoff_faster():
    # reference-run oracle over >= 10 seeds at equal eta
    wins = 0
    for seed in range(10):
        X, Y = _speedup_data(seed)
        cfg = OptimizerConfig(eta=0.1)
        raw = init_isotropic([24, 16, 4], variance=1e-2, seed=seed)
        white = raw.copy()
        raw_rec = train_to_cutoff(raw, X, Y, cfg, step_cap=4000, seed=seed)
        Wt = fit_whitener(X, mode="pca", rank_policy=RankPolicy("manual"))
        X_hat = apply_whitener(Wt, X)
        white_rec = train_to_cutoff(white, X_hat, Y, cfg, step_cap=4000, seed=seed)
        if white_rec.stopping_reason == "cutoff" and (
            raw_rec.stopping_reason != "cutoff"
            or white_rec.terminal_step < raw_rec.terminal_step
        ):
            wins += 1
    assert wins >= 8


def test_training_is_deterministic(rng):
    X = random_dataset(rng, 5, 16)
    Y = one_hot_labels(rng, 3, 16)
    records = []
    for _ in range(2):
        model = init_isotropic([5, 6, 3], variance=0.05, seed=3)
        rec = train_to_cutoff(
            model, X, Y, OptimizerConfig(eta=0.1, batch_size=4), step_cap=60, seed=3
        )
        records.append((tuple(rec.steps), tuple(rec.train_loss), rec.terminal_step))
    assert records[0] == records[1]


def test_one_layer_mlp_matches_explicit_gd_recursion(rng):
    # reduction: full-batch training equals the explicit W <- W - eta (W X - Y) X^T
    X = random_dataset(rng, 4, 10)
    Y = LabelSet(rng.standard_normal((2, 10)))
    eta = 0.01
    model = init_isotropic([4, 2], variance=0.1, seed=8)
    W_ref = model.weights[0].copy()
    from whitebench import sgd_step

    for _ in range(100):
        sgd_step(model, X.values, Y.targets, OptimizerConfig(eta=eta))
        W_ref = W_ref - eta * (W_ref @ X.values - Y.targets) @ X.values.T
    assert np.max(np.abs(model.weights[0] - W_ref)) <= 1e-8


def test_accuracy_tie_breaks_to_lowest_index():
    pred = np.zeros((3, 2))
    targets = np.zeros((3, 2))
    targets[0, 0] = 1.0  # class 0: tie -> predicted 0 -> correct
    targets[2, 1] = 1.0  # class 2: tie -> predicted 0 -> wrong
    assert accuracy(pred, targets) == 0.5
