import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitebench import Dataset, mse_per_sample, solve_optimum
from whitebench.datatypes import compute_F
from whitebench.errors import ValidationError
from whitebench.synth import SyntheticSpec, synthesize


def test_flat_spectrum_eigenvalue_mean():
    spec = SyntheticSpec(d=16, n_train=4000, spectrum="flat", seed=0)
    data = synthesize(spec)
    F = compute_F(data.train) / 4000.0
    # isotropic case: mean eigenvalue = trace/d close to 1
    assert np.trace(F) / 16.0 == pytest.approx(1.0, rel=0.05)


def test_power_law_spectrum_is_steep():
    ratios = []
    for seed in range(10):
        spec = SyntheticSpec(d=64, n_train=4096, alpha=2.0, seed=seed)
        data = synthesize(spec)
        ev = np.linalg.eigvalsh(compute_F(data.train))
        assert np.all(np.diff(np.sort(ev)[::-1]) <= 1e-9)
        ratios.append(ev[-1] / max(ev[0], 1e-300))
    assert all(r > 100.0 for r in ratios)


def test_noiseless_teacher_is_realizable():
    spec = SyntheticSpec(
        d=10, n_train=50, label_noise=0.0, classes=3, encoding="real_valued", seed=2
    )
    data = synthesize(spec)
    model = solve_optimum(data.train, data.y_train)
    preds = model.W @ data.train.values
    assert mse_per_sample(preds, data.y_train) <= 1e-8


def test_one_hot_labels_valid():
    spec = SyntheticSpec(d=6, n_train=40, classes=5, seed=3)
    data = synthesize(spec)
    assert data.y_train.encoding == "one_hot"
    assert data.y_train.targets.shape == (5, 40)


def test_synthesis_is_deterministic():
    spec = SyntheticSpec(d=5, n_train=8, n_val=4, n_test=4, seed=9)
    a, b = synthesize(spec), synthesize(spec)
    assert np.array_equal(a.train.values, b.train.values)
    assert np.array_equal(a.test.values, b.test.values)
    assert np.array_equal(a.y_val.targets, b.y_val.targets)


def test_teacher_seed_fixes_task_across_draws():
    a = synthesize(SyntheticSpec(d=5, n_train=8, seed=1, teacher_seed=77))
    b = synthesize(SyntheticSpec(d=5, n_train=8, seed=2, teacher_seed=77))
    assert np.array_equal(a.teacher_matrix, b.teacher_matrix)
    assert not np.array_equal(a.train.values, b.train.values)


def test_spec_validation():
    with pytest.raises(ValidationError):
        SyntheticSpec(d=0, n_train=4)
    with pytest.raises(ValidationError):
        SyntheticSpec(d=2, n_train=4, spectrum="custom")
    with pytest.raises(ValidationError):
        SyntheticSpec(d=2, n_train=4, alpha=-1.0)


def test_custom_spectrum():
    spec = SyntheticSpec(
        d=3, n_train=5000, spectrum="custom", custom_eigenvalues=(4.0, 1.0, 0.25), seed=4,
    )
    ev = np.sort(np.linalg.eigvalsh(compute_F(synthesize(spec).train) / 5000.0))[::-1]
    assert ev == pytest.approx([4.0, 1.0, 0.25], rel=0.15)


def _draw_keeping_generator(spec, rotate):
    """synthesize(spec, rotate=...) and the bit-generator state of its data generator afterwards."""
    made = []
    original = np.random.default_rng
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: made.append(original(seed)) or made[-1])
        data = synthesize(spec, rotate=rotate)
    return data, made[0].bit_generator.state  # the first generator is seeded by spec.seed: the data's


@given(
    d=st.integers(1, 12),
    sizes=st.tuples(st.integers(1, 20), st.integers(0, 20), st.integers(0, 20)),
    spectrum=st.sampled_from(["power_law", "flat", "custom"]),
    alpha=st.floats(0.0, 4.0),
    encoding=st.sampled_from(["one_hot", "real_valued"]),
    label_noise=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_unrotated_draw_is_the_rotated_draw_without_its_basis(
    d, sizes, spectrum, alpha, encoding, label_noise, seed, data
):
    custom = None
    if spectrum == "custom":
        custom = tuple(data.draw(st.lists(st.floats(0.0, 10.0), min_size=d, max_size=d)))
    spec = SyntheticSpec(
        d=d, n_train=sizes[0], n_val=sizes[1], n_test=sizes[2], spectrum=spectrum, alpha=alpha,
        custom_eigenvalues=custom, classes=3, encoding=encoding,
        label_noise=label_noise, seed=seed,
    )
    rotated, rotated_state = _draw_keeping_generator(spec, rotate=True)
    plain, plain_state = _draw_keeping_generator(spec, rotate=False)
    assert plain.basis is None and rotated_state == plain_state
    assert np.array_equal(plain.teacher_matrix, rotated.teacher_matrix)
    for split in ("train", "val", "test"):
        X, X_rot = getattr(plain, split), getattr(rotated, split)
        Y, Y_rot = getattr(plain, "y_" + split), getattr(rotated, "y_" + split)
        assert (X is None) == (X_rot is None) and (Y is None) == (Y_rot is None)
        if X is not None:
            assert np.array_equal(rotated.basis @ X.values, X_rot.values)
        if Y is not None:
            assert Y.encoding == Y_rot.encoding and np.array_equal(Y.targets, Y_rot.targets)
