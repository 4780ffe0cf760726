"""numpy forms a Gram product symmetric bit for bit, so it is formed once and never symmetrized again.

`compute_F`, `compute_K`, the stacked `fit_whitener`, `full_whitened_modes`
and `reconstruct_K` pass their products X X^T and X^T X (and sums of them)
on without `symmetrize`. That keeps their bits only while numpy's product
equals its own transpose bit for bit: by syrk with the triangle copied, or by
a loop that sums the same terms in the same order for entry ij as for ji.
These tests check it over both sides of n = d, 2-D and stacked, in C order,
in F order and as strided views.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from whitebench import Dataset, compute_F, compute_K
from whitebench.datatypes import symmetrize
from whitebench.info_checks import CompressedDataset, reconstruct_K

LAYOUTS = ("C", "F", "strided", "transposed_copy")


def _swap(A):
    return np.swapaxes(A, -1, -2)


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _laid_out(rng, shape, layout, scale):
    """A random array of this shape in the given memory layout."""
    if layout == "strided":  # every other row and every third column of a larger array
        big = rng.standard_normal(shape[:-2] + (2 * shape[-2], 3 * shape[-1])) * scale
        return big[..., ::2, ::3]
    A = rng.standard_normal(shape) * scale
    if layout == "F":
        return np.asfortranarray(A)
    if layout == "transposed_copy":  # C order in the last two axes swapped
        return _swap(np.ascontiguousarray(_swap(A)))
    return A


arrays = st.builds(
    lambda stack, d, n, layout, exponent, seed: _laid_out(
        np.random.default_rng(seed), stack + (d, n), layout, 10.0 ** exponent),
    stack=st.sampled_from([(), (1,), (3,)]),
    d=st.integers(1, 40), n=st.integers(1, 40),
    layout=st.sampled_from(LAYOUTS),
    exponent=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)


@given(A=arrays)
@settings(max_examples=150, deadline=None)
def test_a_gram_product_equals_its_own_transpose(A):
    for P in (A @ _swap(A), _swap(A) @ A):
        assert _same_bits(P, _swap(P))
        assert _same_bits(symmetrize(P), P)


@given(A=arrays, extra=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(LAYOUTS))
@settings(max_examples=60, deadline=None)
def test_a_sum_of_gram_products_equals_its_own_transpose(A, extra, seed, layout):
    # as full_whitened_modes sums F over splits with one d and their own column counts
    rng = np.random.default_rng(seed)
    others = [_laid_out(rng, A.shape[:-1] + (int(rng.integers(1, 30)),), layout, 1.0) for _ in range(extra)]
    P = sum(X @ _swap(X) for X in [A, *others])
    assert _same_bits(P, _swap(P)) and _same_bits(symmetrize(P), P)


@given(A=arrays)
@settings(max_examples=80, deadline=None)
def test_the_second_moments_equal_their_symmetrized_products(A):
    for values in A.reshape((-1,) + A.shape[-2:]):
        X = Dataset(values)
        assert _same_bits(compute_F(X), symmetrize(X.values @ X.values.T))
        assert _same_bits(compute_K(X), symmetrize(X.values.T @ X.values))
    if A.ndim == 3:  # the stacked fit's product and the compression suite's K
        assert _same_bits(A @ _swap(A), symmetrize(A @ _swap(A)))
        assert _same_bits(_swap(A) @ A, symmetrize(_swap(A) @ A))


@given(m=st.integers(1, 3), d=st.integers(1, 6), extra=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_a_reconstructed_K_equals_its_own_transpose(m, d, extra, seed):
    payload = np.random.default_rng(seed).standard_normal((m, d, extra))
    K = reconstruct_K(CompressedDataset(payload=payload, d=d, n=d + extra))
    assert _same_bits(K, _swap(K)) and _same_bits(symmetrize(K), K)
