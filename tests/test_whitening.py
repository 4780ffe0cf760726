import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitebench import (
    Dataset,
    LabelSet,
    RankPolicy,
    apply_whitener,
    build_flow,
    compute_F,
    compute_K,
    compute_mixed_K,
    fit_whitener,
    flow_at,
    population_whitener,
    random_orthogonal,
    verify_whitened,
)
from whitebench.datatypes import Spectrum, eigh, hstack_datasets, resolved_rank, symmetrize
from whitebench.errors import DegenerateSpectrumError, ShapeError
from whitebench.synth import SyntheticSpec, synthesize
from whitebench.whitening import RANK_POLICIES, WHITENING_MODES, center_on, full_whitened_modes, whitened_modes

from conftest import spaced_dataset

TOY = Dataset([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def closed_form_inverse_sqrt_2x2(F):
    # oracle: eigendecomposition of a symmetric 2x2 by hand formulas
    a, b, c = F[0, 0], F[0, 1], F[1, 1]
    tr, det = a + c, a * c - b * b
    gap = np.sqrt(tr * tr / 4 - det)
    l1, l2 = tr / 2 + gap, tr / 2 - gap
    v1 = np.array([b, l1 - a])
    v1 = v1 / np.linalg.norm(v1)
    v2 = np.array([-v1[1], v1[0]])
    return np.outer(v1, v1) / np.sqrt(l1) + np.outer(v2, v2) / np.sqrt(l2)


def test_zca_matches_matrix_square_root_oracle():
    W = fit_whitener(TOY, mode="zca")
    oracle = closed_form_inverse_sqrt_2x2(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.max(np.abs(W.M - oracle)) <= 1e-10
    assert np.allclose(W.M, [[0.78868, -0.21132], [-0.21132, 0.78868]], atol=1e-5)


def test_already_white_data_gives_identity_zca():
    X = Dataset(np.eye(4))
    W = fit_whitener(X, mode="zca")
    assert np.max(np.abs(W.M - np.eye(4))) <= 1e-10
    assert np.max(np.abs(apply_whitener(W, X).values - X.values)) <= 1e-12


@pytest.mark.parametrize("mode", ["pca", "zca"])
def test_full_rank_fit_gives_unit_spectrum(rng, mode):
    X = Dataset(rng.standard_normal((5, 40)))
    W = fit_whitener(X, mode=mode)
    X_hat = apply_whitener(W, X)
    report = verify_whitened(X_hat, tol=1e-6)
    assert report.passed and report.ones_count == 5 and report.zeros_count == 0


def test_zca_symmetric_on_full_rank_fit(rng):
    X = Dataset(rng.standard_normal((6, 50)))
    W = fit_whitener(X, mode="zca")
    assert np.max(np.abs(W.M - W.M.T)) <= 1e-8


def test_zca_manual_is_identity_outside_fit_span():
    # n < d: the d - n null directions of F must map to themselves (eigenvalue
    # +1), whatever sign rounding gives their eigenvalues of F
    X = Dataset(np.random.default_rng(0).standard_normal((16, 6)))
    M = fit_whitener(X, mode="zca", rank_policy=RankPolicy("manual")).M
    N = np.linalg.svd(X.values)[0][:, 6:]
    assert np.max(np.abs(M - M.T)) <= 1e-12
    assert np.linalg.eigvalsh((M + M.T) / 2).min() >= -1e-12
    assert np.max(np.abs(M @ N - N)) <= 1e-12


def test_rank_deficient_manual_control(rng):
    d, n = 7, 4
    X = Dataset(rng.standard_normal((d, n)))
    W = fit_whitener(X, mode="pca", rank_policy=RankPolicy("manual"))
    assert W.fit_rank == n
    report = verify_whitened(apply_whitener(W, X), tol=1e-6)
    assert report.passed and report.ones_count == n and report.zeros_count == d - n


def test_jitter_policy_keeps_M_invertible(rng):
    d, n = 6, 3
    X = Dataset(rng.standard_normal((d, n)))
    W = fit_whitener(X, mode="pca", rank_policy=RankPolicy("jitter"))
    assert np.linalg.matrix_rank(W.M) == d
    # non-null directions still mapped to ~unit spectrum
    report = verify_whitened(apply_whitener(W, X), tol=1e-4)
    assert report.ones_count == n


def test_apply_uses_same_transform_on_test_data(rng):
    train = Dataset(rng.standard_normal((4, 30)))
    test = Dataset(rng.standard_normal((4, 10)))
    W = fit_whitener(train, mode="pca")
    out = apply_whitener(W, test)
    assert np.allclose(out.values, W.M @ test.values)


def test_apply_dimension_mismatch():
    W = fit_whitener(TOY, mode="pca")
    with pytest.raises(ShapeError):
        apply_whitener(W, Dataset(np.eye(3)))


def test_zero_dataset_degenerate():
    with pytest.raises(DegenerateSpectrumError):
        fit_whitener(Dataset(np.zeros((3, 5))))


def test_full_scope_n_le_d_gram_is_identity(rng):
    d = 12
    train = Dataset(rng.standard_normal((d, 5)))
    test = Dataset(rng.standard_normal((d, 4)))
    combined = hstack_datasets(train, test)
    W = fit_whitener(combined, mode="pca", rank_policy=RankPolicy("manual"))
    train_hat = apply_whitener(W, train)
    test_hat = apply_whitener(W, test)
    K_hat = compute_K(apply_whitener(W, combined))
    assert np.max(np.abs(K_hat - np.eye(9))) <= 1e-6
    assert np.max(np.abs(compute_mixed_K(train_hat, test_hat))) <= 1e-6


def test_verify_whitened_classifies(rng):
    unwhitened = verify_whitened(TOY, tol=1e-6)
    assert not unwhitened.passed
    whitened = verify_whitened(apply_whitener(fit_whitener(TOY), TOY), tol=1e-6)
    assert whitened.passed and whitened.ones_count == 2


def test_zca_idempotence(rng):
    X = Dataset(rng.standard_normal((5, 60)))
    W1 = fit_whitener(X, mode="zca")
    X_hat = apply_whitener(W1, X)
    W2 = fit_whitener(X_hat, mode="zca")
    assert np.max(np.abs(W2.M - np.eye(5))) <= 1e-6


@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_transform_linearity(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    fit = Dataset(rng.standard_normal((4, 20)))
    X1 = rng.standard_normal((4, 6))
    X2 = rng.standard_normal((4, 6))
    W = fit_whitener(fit, mode="pca")
    combo = apply_whitener(W, Dataset(alpha * X1 + beta * X2))
    parts = alpha * apply_whitener(W, Dataset(X1)).values + beta * apply_whitener(W, Dataset(X2)).values
    assert np.max(np.abs(combo.values - parts)) <= 1e-9 * max(1.0, np.max(np.abs(parts)))


def test_centered_fit_whitens_the_centered_data(rng):
    X = Dataset(rng.standard_normal((3, 20)) + 5.0)
    (X_c,) = center_on(X, X)
    assert np.max(np.abs(X_c.values.mean(axis=1))) <= 1e-12
    report = verify_whitened(apply_whitener(fit_whitener(X_c), X_c), tol=1e-6)
    assert report.ones_count == 3
    with pytest.raises(ShapeError):
        center_on(X, Dataset(np.ones((2, 4))))


@pytest.mark.parametrize("policy, epsilon", [(RankPolicy("manual"), 0.0), (RankPolicy("jitter"), 1e-8 * 3.0),
                                             (RankPolicy("jitter", 0.25), 0.25)], ids=["manual", "default", "given"])
def test_jitter_epsilon_defaults_to_a_fraction_of_the_mean_eigenvalue(policy, epsilon):
    assert policy.epsilon_for(3.0) == epsilon


def eigh_whitener(values, mode, policy):
    """Reference M and rank from eigh of the d x d F, eigenvalues clamped at 0 and kept above d * eps * S0."""
    spec = eigh(symmetrize(values @ values.T))
    S, V = np.maximum(spec.eigenvalues, 0.0), spec.eigenvectors
    rank = int(np.count_nonzero(S > S.size * np.finfo(float).eps * S[0]))
    if policy == "jitter":
        inv_sqrt = 1.0 / np.sqrt(S + 1e-8 * np.mean(S))
    else:
        inv_sqrt = np.ones_like(S)
        inv_sqrt[:rank] = 1.0 / np.sqrt(S[:rank])
    M = inv_sqrt[:, None] * V.T if mode == "pca" else (V * inv_sqrt) @ V.T
    return M, rank


@given(
    st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
    st.sampled_from(WHITENING_MODES), st.sampled_from(RANK_POLICIES), st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_smaller_side_fit_matches_eigh_reference(d, n, rank, mode, policy, seed):
    # n <= d: fit_whitener takes the full SVD of X instead of eigh of F
    n, rank = min(n, d), min(rank, n, d)
    rng = np.random.default_rng(seed)
    X = spaced_dataset(rng, d, n, rank)
    W = fit_whitener(X, mode=mode, rank_policy=RankPolicy(policy))
    M_ref, rank_ref = eigh_whitener(X.values, mode, policy)
    assert W.fit_rank == rank_ref == rank
    X_hat = apply_whitener(W, X)
    assert verify_whitened(X_hat, tol=1e-6).passed
    if mode == "zca" and policy == "manual":
        assert np.max(np.abs(W.M - M_ref)) <= 1e-10
    elif mode == "zca":
        # jitter scales the null directions by 1/sqrt(eps), where eigh's rounding is amplified:
        # compare the whitened fit set instead
        assert np.max(np.abs(X_hat.values - M_ref @ X.values)) <= 1e-10
    else:
        for row, ref in zip(W.M[:rank], M_ref[:rank]):
            assert min(np.max(np.abs(row - ref)), np.max(np.abs(row + ref))) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
        complement = W.M[rank:]
        if policy == "manual":
            assert np.max(np.abs(complement @ complement.T - np.eye(d - rank)), initial=0.0) <= 1e-12
        assert np.max(np.abs(complement @ X.values), initial=0.0) <= 1e-10 * max(1.0, np.max(np.abs(complement), initial=0.0))


@pytest.mark.parametrize("mode", WHITENING_MODES)
@pytest.mark.parametrize("seed", [0, 1])
def test_train_split_is_white_past_the_fixed_cutoff(mode, seed):
    # d = 512, alpha = 2: about 200 of the train split's eigenvalues lie below 1e-5 of the largest,
    # and every one of them is resolved, so the whitened split has F-hat = I
    data = synthesize(SyntheticSpec(d=512, n_train=2048, alpha=2.0, seed=seed), rotate=False)
    W = fit_whitener(data.train, mode=mode, rank_policy=RankPolicy("manual"))
    assert W.fit_rank == 512
    assert verify_whitened(apply_whitener(W, data.train), tol=1e-6).passed


@given(
    st.integers(2, 96), st.integers(1, 96), st.booleans(), st.floats(0.0, 2.5), st.floats(-4.0, 4.0),
    st.sampled_from(WHITENING_MODES), st.sampled_from(RANK_POLICIES), st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fit_rank_is_the_constructed_rank(d, rank, eigh_side, alpha, log_scale, mode, policy, seed):
    # X = U diag(s) V^T with a power-law s (eigenvalues spanning up to five decades, scaled by 1e+-8) and exact
    # zeros past `rank`: the thin SVD (n <= d) and eigh of F (n > d) both resolve the nonzero modes, none of the zeros
    rng = np.random.default_rng(seed)
    rank = min(rank, d)
    n = d + 1 + rank if eigh_side else rank + (d - rank) // 2
    s = 10.0 ** log_scale * np.arange(1, rank + 1) ** (-alpha / 2)
    U = np.linalg.qr(rng.standard_normal((d, rank)))[0]
    V = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    X = Dataset((U * s) @ V.T)
    W = fit_whitener(X, mode=mode, rank_policy=RankPolicy(policy))
    assert W.fit_rank == rank
    modes = whitened_modes(W.spectrum, RankPolicy(policy))
    assert np.count_nonzero(modes.eigenvalues) == rank
    # the kept directions U diagonalize the fit set's F into the rates: U^T F U = diag(rates)
    Z = modes.eigenvectors[:, :rank].T @ X.values
    assert np.max(np.abs(Z @ Z.T - np.diag(modes.eigenvalues[:rank]))) <= 1e-10


@pytest.mark.parametrize("mode", WHITENING_MODES)
@pytest.mark.parametrize("policy", RANK_POLICIES)
@pytest.mark.parametrize("n", [5, 9, 20])
def test_kept_modes_diagonalize_the_whitened_fit_set(rng, mode, policy, n):
    # whitened_modes reads the rates of M F M^T and U = M^T V-hat off the fit, multiplying neither: U^T F_fit U =
    # diag(rates) on the centered fit set, and U U^T = M^T M, all that a flow from W0 = 0 reads of M
    X = Dataset(rng.standard_normal((9, n)) + 0.5)
    (X,) = center_on(X, X)
    W = fit_whitener(X, mode=mode, rank_policy=RankPolicy(policy))
    modes = whitened_modes(W.spectrum, RankPolicy(policy))
    rates, U = modes.eigenvalues, modes.eigenvectors
    assert U.shape == (9, 9) and np.all(np.diff(rates) <= 0)
    Z = U.T @ X.values  # U^T F_fit U as Z Z^T: jitter scales U's null directions by up to 1/sqrt(eps)
    assert np.max(np.abs(Z @ Z.T - np.diag(rates))) <= 1e-10 * rates[0]
    MtM = W.M.T @ W.M
    assert np.max(np.abs(U @ U.T - MtM)) <= 1e-12 * np.max(np.abs(MtM))


def test_apply_whitener_allocates_the_output_once(rng):
    X = Dataset(rng.standard_normal((64, 512)))
    W = fit_whitener(X)
    tracemalloc.start()
    X_hat = apply_whitener(W, X)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1.5 * X_hat.values.nbytes


@pytest.mark.parametrize("mode", WHITENING_MODES)
def test_population_whitener_whitens_its_second_moment(rng, mode):
    # a known n * Sigma whose every mode is resolved: M (n Sigma) M^T = I
    d, n = 12, 500
    basis = random_orthogonal(d, rng)
    lam = np.sort(rng.uniform(1e-3, 1.0, d))[::-1]
    assert resolved_rank(n * lam) == d
    W = population_whitener(Spectrum(n * lam, basis), mode, RankPolicy("manual"))
    assert W.fit_rank == d
    second_moment = (basis * (n * lam)) @ basis.T
    np.testing.assert_allclose(W.M @ second_moment @ W.M.T, np.eye(d), rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", WHITENING_MODES)
@pytest.mark.parametrize("policy", RANK_POLICIES)
def test_population_whitener_on_a_fitted_spectrum_is_the_fit(rng, mode, policy):
    # one spectrum-to-M step: handed the eigenpairs fit_whitener decomposes (n > d, two modes below
    # the resolved rank), with eigenvector signs flipped at random, the same M bit for bit
    X = Dataset(rng.standard_normal((6, 40)) * np.array([[5.0], [2.0], [1.0], [1.0], [1e-9], [1e-10]]))
    fitted = fit_whitener(X, mode=mode, rank_policy=RankPolicy(policy))
    spec = eigh(compute_F(X))
    flips = rng.choice([-1.0, 1.0], size=6)
    flips[0] = -1.0
    known = population_whitener(Spectrum(spec.eigenvalues, spec.eigenvectors * flips), mode, RankPolicy(policy))
    assert np.array_equal(known.M, fitted.M) and known.fit_rank == fitted.fit_rank == 4


@pytest.mark.parametrize("n", [5, 9, 40])
def test_pca_rows_are_signed_by_their_largest_entry(rng, n):
    # both fit sides (full SVD of X for n <= d, eigh of F for n > d) take the same sign rule
    M = fit_whitener(Dataset(rng.standard_normal((9, n))), mode="pca").M
    assert np.all(M[np.arange(9), np.argmax(np.abs(M), axis=1)] > 0)


@pytest.mark.parametrize("n", [3, 8, 20])
@pytest.mark.parametrize("policy", [RankPolicy("manual"), RankPolicy("jitter"), RankPolicy("jitter", 1e-2)])
@pytest.mark.parametrize("mode", WHITENING_MODES)
def test_full_whitened_modes_with_no_other_split_follow_the_whitened_train_split(rng, n, policy, mode):
    # with no other split F_full = F_train, at n < d, n = d and n > d: the flow off the modes predicts what the
    # flow on the train split whitened by its own fit predicts, on any data
    d = 8
    train, X_test = rng.standard_normal((d, n)), rng.standard_normal((d, 5))
    Y = LabelSet(rng.standard_normal((3, n)))
    modes = full_whitened_modes(train, [], policy)
    if policy.kind == "manual" and n < d:  # fewer than d columns: F_full is singular, the caller whitens the splits
        assert modes is None
        return
    M = fit_whitener(Dataset(train), mode, policy).M
    shortcut = build_flow(Dataset(train), Y, modes=modes)
    whitened = build_flow(Dataset(M @ train), Y)
    # the whitened path rounds like cond(train)^2 eps (at most 3.5 of it over 600 seeds), and at n < d the default
    # jitter's M scales F's null directions by about 1e4, and that rounding with them (at most 2.6e-7)
    tol = 1e-6 if n < d and policy.epsilon is None else max(1e-9, 16 * np.linalg.cond(train) ** 2 * np.finfo(float).eps)
    for t in (0.1, 1.0, 30.0):
        want = flow_at(whitened, t).W @ M @ X_test
        assert np.max(np.abs(flow_at(shortcut, t).W @ X_test - want)) <= tol * np.max(np.abs(want))
