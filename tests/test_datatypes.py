import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from whitebench import (
    Dataset,
    LabelSet,
    compute_F,
    compute_K,
    compute_mixed_K,
    eigh,
    estimate_input_rank,
    pseudoinverse,
)
from whitebench.datatypes import hstack_datasets
from whitebench.errors import ShapeError, ValidationError

TOY = Dataset([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def brute_force_gram(A, B):
    # independent oracle: elementwise dot products
    out = np.zeros((A.shape[1], B.shape[1]))
    for i in range(A.shape[1]):
        for j in range(B.shape[1]):
            out[i, j] = sum(A[r, i] * B[r, j] for r in range(A.shape[0]))
    return out


def test_compute_F_identity():
    X = Dataset(np.eye(2))
    assert np.array_equal(compute_F(X), np.eye(2))


def test_compute_F_toy_hand_values():
    expected = brute_force_gram(TOY.values.T, TOY.values.T)
    assert np.allclose(compute_F(TOY), expected, atol=1e-12)
    assert np.allclose(compute_F(TOY), [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)


def test_compute_K_identity():
    X = Dataset(np.eye(2))
    assert np.array_equal(compute_K(X), np.eye(2))


def test_compute_K_toy_hand_values():
    expected = brute_force_gram(TOY.values, TOY.values)
    assert np.allclose(compute_K(TOY), expected, atol=1e-12)
    assert np.allclose(
        compute_K(TOY), [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]], atol=1e-12
    )


def test_mixed_K_self_pairing_and_toy():
    X = Dataset([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(compute_mixed_K(X, X), compute_K(X))
    X_test = Dataset([[1.0], [1.0]])
    assert np.allclose(compute_mixed_K(X, X_test), [[1.0], [1.0]])


def test_mixed_K_shape_error():
    with pytest.raises(ShapeError):
        compute_mixed_K(Dataset(np.eye(2)), Dataset(np.eye(3)))


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValidationError):
        Dataset([[np.nan, 1.0]])
    with pytest.raises(ValidationError):
        Dataset([[np.inf], [1.0]])


def test_one_hot_validation():
    LabelSet([[1.0, 0.0], [0.0, 1.0]], encoding="one_hot")
    with pytest.raises(ValidationError):
        LabelSet([[1.0, 0.5], [0.0, 0.5]], encoding="one_hot")


def test_eigh_identity_and_diagonal():
    spec = eigh(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])
    spec = eigh(np.diag([5.0, 0.0]))
    assert np.allclose(spec.eigenvalues, [5.0, 0.0])


def test_eigh_closed_form_2x2():
    spec = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(spec.eigenvalues, [3.0, 1.0])
    v0, v1 = spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]
    assert np.allclose(np.abs(v0), [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)
    assert np.allclose(np.abs(v1 @ np.array([1.0, -1.0])), np.sqrt(2.0), atol=1e-12)


def test_eigh_rejects_asymmetric():
    with pytest.raises(ValidationError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_is_numpy_eigh_reversed_bit_for_bit(rng):
    # compute_F output is exactly symmetric: no symmetrize, no reorder beyond reversal
    F = compute_F(Dataset(rng.standard_normal((9, 30))))
    vals, vecs = np.linalg.eigh(F)
    spec = eigh(F)
    assert np.array_equal(spec.eigenvalues, vals[::-1])
    assert np.array_equal(spec.eigenvectors, vecs[:, ::-1])
    assert spec.eigenvectors.flags.c_contiguous and not spec.eigenvectors.flags.writeable


def test_eigh_symmetrizes_nearly_symmetric_input(rng):
    A = compute_F(Dataset(rng.standard_normal((6, 10))))
    skew = A + np.triu(np.full_like(A, 1e-12), 1)
    vals, vecs = np.linalg.eigh((skew + skew.T) / 2.0)
    spec = eigh(skew)
    assert np.array_equal(spec.eigenvalues, vals[::-1])
    assert np.array_equal(spec.eigenvectors, vecs[:, ::-1])


def test_pseudoinverse_trivial_cases():
    assert np.allclose(pseudoinverse(np.eye(3)), np.eye(3))
    assert np.allclose(pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


matrices = st.integers(1, 8).flatmap(
    lambda d: st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.floats(-10, 10, allow_nan=False, width=64), min_size=d * n, max_size=d * n
        ).map(lambda vals: np.array(vals).reshape(d, n))
    )
)


@given(matrices)
@example(np.array([[0.0, 1.19e-7, 3.5], [0.5, 0.0, 0.0], [5.0, 0.0, 1.0]]))  # sigma ratio 6.5e-10
@example(np.array([[5e-324]]))  # 1/sigma overflows to inf
@settings(max_examples=40, deadline=None)
def test_pseudoinverse_penrose_properties(A):
    P = pseudoinverse(A)
    scale = max(1.0, np.max(np.abs(A)))
    assert np.max(np.abs(A @ P @ A - A)) <= 1e-8 * scale
    assert np.max(np.abs(P @ A @ P - P)) <= 1e-8 * max(1.0, np.max(np.abs(P)))
    assert np.max(np.abs((A @ P).T - A @ P)) <= 1e-8 * scale
    assert np.max(np.abs((P @ A).T - P @ A)) <= 1e-8 * scale


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_F_and_K_share_nonzero_spectrum(A):
    X = Dataset(A)
    ev_f = np.sort(np.linalg.eigvalsh(compute_F(X)))[::-1]
    ev_k = np.sort(np.linalg.eigvalsh(compute_K(X)))[::-1]
    m = min(len(ev_f), len(ev_k))
    top = max(ev_f[0], ev_k[0], 1.0)
    keep = [i for i in range(m) if max(ev_f[i], ev_k[i]) > 1e-9 * top]
    for i in keep:
        assert abs(ev_f[i] - ev_k[i]) <= 1e-8 * max(1.0, abs(ev_f[i]))


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_second_moments_psd(A):
    X = Dataset(A)
    for M in (compute_F(X), compute_K(X)):
        ev = np.linalg.eigvalsh(M)
        assert ev[0] >= -1e-8 * max(ev[-1], 1e-30)


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_spectrum_invariants(A):
    X = Dataset(A)
    spec = eigh(compute_F(X))
    V = spec.eigenvectors
    assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 1e-8
    recon = V @ np.diag(spec.eigenvalues) @ V.T
    F = compute_F(X)
    assert np.max(np.abs(recon - F)) <= 1e-8 * max(1.0, np.max(np.abs(F)))


def test_estimate_input_rank_cases():
    assert estimate_input_rank(Dataset(np.eye(3))) == 3
    assert estimate_input_rank(Dataset([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert estimate_input_rank(Dataset(np.zeros((3, 4)))) == 0


def test_estimate_input_rank_matches_algebraic_rank(rng):
    # constructed rank: r independent directions replicated to n columns
    for r in (1, 2, 3):
        basis = rng.standard_normal((5, r))
        coeff = rng.standard_normal((r, 9))
        X = Dataset(basis @ coeff)
        assert estimate_input_rank(X) == r


def test_rank_cutoff_validation():
    with pytest.raises(ValidationError):
        estimate_input_rank(Dataset(np.eye(2)), cutoff_ratio=0.0)


@pytest.mark.skipif(
    "WHITEBENCH_MNIST" not in os.environ,
    reason="set WHITEBENCH_MNIST to an mnist.npz path to run the 276-rank check",
)
def test_mnist_maximal_input_rank_is_276():
    data = np.load(os.environ["WHITEBENCH_MNIST"])
    images = data["x_train"].reshape(len(data["x_train"]), -1).T / 255.0
    rng = np.random.default_rng(0)
    n = 250
    while True:
        ranks = []
        for _ in range(20):
            cols = rng.choice(images.shape[1], size=n, replace=False)
            ranks.append(estimate_input_rank(Dataset(images[:, cols])))
        if np.mean(ranks) < n:
            break
        n += 1
    assert n == 276


def test_dataset_rejects_empty():
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 0)))
    with pytest.raises(ValidationError):
        LabelSet(np.zeros((0, 3)))


def test_dataset_values_are_read_only():
    X = Dataset(np.eye(2))
    with pytest.raises(ValueError):
        X.values[0, 0] = 5.0


def test_dataset_copies_a_caller_array_but_adopt_does_not():
    arr = np.eye(3)
    X = Dataset(arr)
    arr[0, 0] = 7.0
    assert X.values[0, 0] == 1.0 and arr.flags.writeable
    fresh = np.eye(3)
    adopted = Dataset._adopt(fresh)
    assert adopted.values is fresh and not fresh.flags.writeable
    with pytest.raises(ValidationError):
        Dataset._adopt(np.full((2, 2), np.nan))


def test_fingerprint_distinguishes_shapes(rng):
    # the same bytes in another shape are another dataset
    d, n = 3, 8
    x = rng.standard_normal((d, n))
    assert Dataset(x).values.tobytes() == Dataset(x.reshape(n, d)).values.tobytes()
    assert Dataset(x).fingerprint() != Dataset(x.reshape(n, d)).fingerprint()
    assert Dataset(x).fingerprint() == Dataset(x.copy()).fingerprint()


def test_hstack_datasets_allocates_the_result_once(rng):
    parts = [Dataset(rng.standard_normal((64, 256))) for _ in range(2)]
    tracemalloc.start()
    joined = hstack_datasets(*parts)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert joined.values.shape == (64, 512)
    assert peak < 1.5 * joined.values.nbytes


def test_label_set_from_class_ids():
    Y = LabelSet.from_class_ids([2, 0, 2], 3)
    assert Y.encoding == "one_hot"
    assert np.array_equal(Y.targets, [[0, 1, 0], [0, 0, 0], [1, 0, 1]])
    for bad in ([0, 3], [-1, 0]):
        with pytest.raises(ValidationError, match="class ids"):
            LabelSet.from_class_ids(bad, 3)
