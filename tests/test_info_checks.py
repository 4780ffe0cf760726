import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from whitebench import (
    Dataset,
    apply_whitener,
    compress_whitened,
    compute_K,
    count_information_parameters,
    fit_whitener,
    full_whitening_null_check,
    orbit_equivalence_check,
    random_orthogonal,
    reconstruct_K,
)
from whitebench.errors import DegenerateDataError, ValidationError
from whitebench.verify import suite_orbit

from conftest import one_hot_labels, random_dataset

TOY = Dataset([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def whiten_fully(X):
    W = fit_whitener(X, mode="pca")
    return apply_whitener(W, X)


def test_random_orthogonal_is_orthogonal_and_deterministic():
    R1 = random_orthogonal(6, seed=42)
    R2 = random_orthogonal(6, seed=42)
    assert np.array_equal(R1, R2)
    assert np.max(np.abs(R1.T @ R1 - np.eye(6))) <= 1e-12


# -- compression ---------------------------------------------------------------

def test_compress_square_whitened_has_empty_payload(rng):
    X_hat = whiten_fully(random_dataset(rng, 4, 4))
    c = compress_whitened(X_hat)
    assert c.scalar_count == 0
    assert np.max(np.abs(reconstruct_K(c) - np.eye(4))) <= 1e-8


def test_compress_toy_dataset_by_hand():
    # ZCA-whitened toy keeps its leading identity block: payload is column (1, 1)
    W = fit_whitener(TOY, mode="zca")
    X_hat = apply_whitener(W, TOY)
    c = compress_whitened(X_hat)
    assert c.column_permutation is None
    assert np.allclose(c.payload.ravel(), [1.0, 1.0], atol=1e-10)
    # oracle: K-hat = X^T F^{-1} X of the unwhitened toy
    F = TOY.values @ TOY.values.T
    oracle = TOY.values.T @ np.linalg.inv(F) @ TOY.values
    assert np.max(np.abs(reconstruct_K(c) - oracle)) <= 1e-10


def test_compress_payload_size_random(rng):
    X_hat = whiten_fully(random_dataset(rng, 3, 7))
    assert compress_whitened(X_hat).scalar_count == (7 - 3) * 3


def test_compress_rejects_unwhitened():
    with pytest.raises(ValidationError):
        compress_whitened(TOY)


def test_compress_rejects_n_below_d(rng):
    X_hat = apply_whitener(fit_whitener(random_dataset(rng, 5, 3)), random_dataset(rng, 5, 3))
    with pytest.raises(ValidationError):
        compress_whitened(X_hat)


def test_compress_permutes_singular_leading_block():
    # exactly whitened 3 x 7 dataset (orthonormal rows) whose leading
    # 3-column block is singular: the third direction sits in column 3
    values = np.zeros((3, 7))
    values[0, 0] = 1.0
    values[1, 1] = 1.0
    values[2, 3] = 1.0
    X_hat = Dataset(values)
    c = compress_whitened(X_hat)
    assert c.column_permutation is not None
    assert np.max(np.abs(reconstruct_K(c) - compute_K(X_hat))) <= 1e-8
    # the lead columns are LAPACK's column-pivoted QR's (scipy is the reference, a test-only dependency)
    _, _, piv = scipy.linalg.qr(values, pivoting=True, mode="economic")
    assert np.array_equal(c.column_permutation[:3], piv[:3])


@given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_compress_pivots_past_a_repeated_column(d, extra, seed):
    # column 1 repeats column 0, so the leading block is singular and the pivot branch picks another
    X = np.random.default_rng(seed).standard_normal((d, d + extra))
    X[:, 1] = X[:, 0]
    X_hat = whiten_fully(Dataset(X))
    c = compress_whitened(X_hat)
    assert c.column_permutation is not None
    assert np.linalg.cond(X_hat.values[:, c.column_permutation[:d]]) <= 1e8
    assert np.max(np.abs(reconstruct_K(c) - compute_K(X_hat))) <= 1e-8


@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_compression_round_trip_property(d, extra, seed):
    n = d + extra
    rng = np.random.default_rng(seed * 7919 + d * 131 + n)
    X_hat = whiten_fully(Dataset(rng.standard_normal((d, n))))
    c = compress_whitened(X_hat)
    assert c.scalar_count == (n - d) * d
    assert np.max(np.abs(reconstruct_K(c) - compute_K(X_hat))) <= 1e-8


def test_reconstruct_with_permutation_round_trips(rng):
    # exercise reconstruct_K's permutation handling directly
    X_hat = whiten_fully(random_dataset(rng, 3, 7))
    c = compress_whitened(X_hat)
    perm = np.array([3, 5, 1, 0, 2, 4, 6])
    X_perm = Dataset(X_hat.values[:, perm])
    c2 = compress_whitened(X_perm)
    assert np.max(np.abs(reconstruct_K(c2) - compute_K(X_perm))) <= 1e-8


# -- parameter counting ----------------------------------------------------------

def magnitudes_plus_angles(d, n):
    # oracle: n magnitudes plus n(d-1) - d(d-1)/2 independent angles
    return n + n * (d - 1) - (d * (d - 1)) // 2


@pytest.mark.parametrize("d,n", [(2, 3), (3, 5), (4, 4), (5, 9), (1, 6)])
def test_count_unwhitened_cross_check(d, n):
    expected = min(magnitudes_plus_angles(d, n), (n * n + n) // 2)
    assert count_information_parameters(d, n, whitened=False) == expected


def test_count_examples():
    assert count_information_parameters(2, 3, whitened=False) == 5
    assert count_information_parameters(2, 3, whitened=True) == 2
    assert count_information_parameters(4, 4, whitened=True) == 0
    assert count_information_parameters(6, 3, whitened=True) == 0


def test_count_validation():
    with pytest.raises(ValidationError):
        count_information_parameters(0, 3, whitened=False)


# -- orbit equivalence ------------------------------------------------------------

def test_orbit_identity_rotation_is_exact(rng):
    X = random_dataset(rng, 4, 10)
    Y = one_hot_labels(rng, 3, 10)
    report = orbit_equivalence_check(X, Y, np.eye(4), seed=0, steps=20, family="linear")
    assert report.max_deviation == 0.0


def test_orbit_2d_rotation_embedded(rng):
    d = 5
    R = np.eye(d)
    R[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]  # 90-degree rotation in the first plane
    X = random_dataset(rng, d, 12)
    Y = one_hot_labels(rng, 3, 12)
    X_test = random_dataset(rng, d, 6)
    report = orbit_equivalence_check(X, Y, R, seed=1, steps=50, family="linear", X_test=X_test)
    assert report.passed and report.max_deviation <= 1e-12


def test_orbit_permutation_mlp(rng):
    d = 6
    perm = np.random.default_rng(9).permutation(d)
    R = np.eye(d)[perm]
    X = random_dataset(rng, d, 14)
    Y = one_hot_labels(rng, 3, 14)
    X_test = random_dataset(rng, d, 5)
    report = orbit_equivalence_check(
        X, Y, R, seed=2, steps=20, tol=1e-10, family="mlp", X_test=X_test, batch_size=4
    )
    assert report.passed and report.max_deviation <= 1e-10


def test_orbit_rejects_non_orthogonal(rng):
    X = random_dataset(rng, 3, 6)
    Y = one_hot_labels(rng, 2, 6)
    with pytest.raises(ValidationError):
        orbit_equivalence_check(X, Y, np.eye(3) * 1.5, seed=0, steps=5)


def test_orbit_many_rotations_linear_and_mlp(rng):
    X = random_dataset(rng, 5, 12)
    Y = one_hot_labels(rng, 3, 12)
    X_test = random_dataset(rng, 5, 4)
    R = np.stack([random_orthogonal(5, seed=100 + i) for i in range(20)])
    for family, steps, tol in (("linear", 30, 1e-10), ("mlp", 15, 1e-8)):
        rep = orbit_equivalence_check(X, Y, R, seed=0, steps=steps, tol=tol, family=family, X_test=X_test)
        assert rep.passed and rep.max_deviation <= tol


@pytest.mark.parametrize("family", ["linear", "mlp"])
def test_orbit_stack_matches_one_call_per_rotation(rng, family):
    # pair i of a stack is the 2-D call at seed + i; the report keeps each deviation's worst pair
    X = random_dataset(rng, 5, 10)
    Y = one_hot_labels(rng, 3, 10)
    X_test = random_dataset(rng, 5, 4)
    R = np.stack([random_orthogonal(5, seed=40 + i) for i in range(4)])
    kw = dict(steps=12, family=family, X_test=X_test)
    stacked = orbit_equivalence_check(X, Y, R, seed=3, **kw)
    single = [orbit_equivalence_check(X, Y, R[i], seed=3 + i, **kw) for i in range(4)]
    for field in ("max_param_deviation", "max_activation_deviation", "max_loss_deviation",
                  "max_prediction_deviation"):
        assert getattr(stacked, field) == max(getattr(rep, field) for rep in single), field
    assert orbit_equivalence_check(X, Y, R[:1], seed=3, batch_size=4, **kw) == orbit_equivalence_check(
        X, Y, R[0], seed=3, batch_size=4, **kw
    )


@pytest.mark.parametrize("shape", [(0, 3, 3), (2, 3, 4), (2, 4, 4), (1, 1, 3, 3), (3,)])
def test_orbit_rejects_a_malformed_rotation_stack(rng, shape):
    X = random_dataset(rng, 3, 6)
    Y = one_hot_labels(rng, 2, 6)
    R = np.zeros(shape)
    if len(shape) == 3 and shape[1] == shape[2]:
        R[:] = np.eye(shape[1])
    with pytest.raises(ValidationError, match="R must be 3 x 3"):
        orbit_equivalence_check(X, Y, R, seed=0, steps=2)


def test_suite_orbit_needs_a_rotation():
    with pytest.raises(ValidationError, match="nonempty"):
        suite_orbit(r_count=0)


# -- full-whitening null predictions -----------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_null_check_linear_every_seed(seed):
    report = full_whitening_null_check(d=48, n_train=24, n_test=12, seed=seed)
    assert report.passed
    assert report.max_abs_prediction <= 1e-8
    assert report.test_loss == pytest.approx(0.5, abs=1e-8)
    assert report.test_error == report.expected_test_error


def test_null_check_label_independent():
    # predictions are identically zero regardless of the label assignment
    a = full_whitening_null_check(d=40, n_train=20, n_test=10, seed=0, rng_labels="uniform")
    b = full_whitening_null_check(d=40, n_train=20, n_test=10, seed=0, rng_labels="balanced")
    assert a.max_abs_prediction <= 1e-8 and b.max_abs_prediction <= 1e-8
    assert a.test_loss == pytest.approx(0.5, abs=1e-8)
    assert b.test_loss == pytest.approx(0.5, abs=1e-8)


def test_null_check_rejects_oversized():
    with pytest.raises(ValidationError):
        full_whitening_null_check(d=16, n_train=12, n_test=8, seed=0)


def test_null_check_mlp_reaches_cutoff_and_reports_error():
    report = full_whitening_null_check(
        d=48, n_train=32, n_test=12, seed=1, model="mlp", step_cap=3000
    )
    assert report.passed  # trained to cutoff
    assert 0.0 <= report.test_error <= 1.0
