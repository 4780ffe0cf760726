"""The verify battery factors each matrix once.

A stacked `fit_whitener` must give every slice the bits of that slice's own
2-D fit, and a Newton step handed the previous step's F solve the bits of a
step that factors F afresh. The references below are the per-case loops the
suites ran before (one `fit_whitener` + `apply_whitener` per compression
case, a fresh `newton_step` per Newton step) and the 2-D fit as it was
written before it took stacks. Both paths must give the same bits on the same
machine and BLAS build, so the tests compare them in-process.
"""
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitebench import Dataset, LabelSet, OptimizerConfig, apply_whitener, fit_whitener, init_isotropic
from whitebench import linear_flow, verify, whitening
from whitebench.datatypes import eigh, resolved_rank, symmetrize
from whitebench.errors import DegenerateSpectrumError, ValidationError
from whitebench.info_checks import compress_whitened, count_information_parameters, reconstruct_K
from whitebench.linear_flow import LinearModel
from whitebench.models import run_steps
from whitebench.optimizers import newton_step, sgd_step
from whitebench.verify import CheckResult
from whitebench.whitening import RANK_POLICIES, WHITENING_MODES, RankPolicy


def _reference_fit(values, mode, policy):
    """The 2-D fit_whitener as written before it took stacks: (M, fit_rank, S, V)."""
    d, n = values.shape
    if n <= d:
        V, s, _ = np.linalg.svd(values, full_matrices=True)
        S = np.pad(s * s, (0, d - n))
    else:
        spec = eigh(symmetrize(values @ values.T))
        S, V = spec.eigenvalues, spec.eigenvectors
    S = np.maximum(S, 0.0)
    if S[0] <= 0.0:
        raise DegenerateSpectrumError("all-zero fit set")
    rank = resolved_rank(S)
    if policy.kind == "jitter":
        inv_sqrt = 1.0 / np.sqrt(S + policy.epsilon_for(float(np.mean(S))))
    else:
        inv_sqrt = np.ones_like(S)
        inv_sqrt[:rank] = 1.0 / np.sqrt(S[:rank])
    V = V * np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(d)])
    M = inv_sqrt[:, None] * V.T if mode == "pca" else (V * inv_sqrt[None, :]) @ V.T
    return M, rank, S, V


def _same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@given(
    m=st.integers(1, 4), d=st.integers(1, 6), n=st.integers(1, 9),
    mode=st.sampled_from(WHITENING_MODES), kind=st.sampled_from(RANK_POLICIES),
    seed=st.integers(0, 2**32 - 1), deficient=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_each_slice_of_a_stacked_fit_has_the_bits_of_its_own_fit(m, d, n, mode, kind, seed, deficient):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d, n)) * rng.uniform(0.1, 10.0, (m, 1, 1))
    rank = min(d, n)
    if deficient and d > 1:  # slice 0 keeps only its first rows: its own, lower rank
        kept = int(rng.integers(1, d))
        X[0, kept:] = 0.0
        rank = min(kept, n)
    policy = RankPolicy(kind)
    W = fit_whitener(X, mode=mode, rank_policy=policy)
    assert W.M.shape == (m, d, d) and W.fit_rank.shape == (m,)
    for i in range(m):
        M, fit_rank, S, V = _reference_fit(X[i], mode, policy)
        alone = fit_whitener(Dataset(X[i]), mode=mode, rank_policy=policy)
        assert _same_bits(alone.M, M) and alone.fit_rank == fit_rank  # the 2-D path is unchanged
        assert _same_bits(alone.eigenpairs[0], S) and _same_bits(alone.eigenpairs[1], V)
        assert _same_bits(W.M[i], M) and W.fit_rank[i] == fit_rank
        assert _same_bits(W.eigenpairs[0][i], S) and _same_bits(W.eigenpairs[1][i], V)
    assert W.fit_rank[0] == rank


@pytest.mark.parametrize("d, n", [(3, 7), (5, 4)])
@pytest.mark.parametrize("kind", RANK_POLICIES)
def test_an_all_zero_slice_fails_the_stacked_fit_as_it_fails_its_own(rng, d, n, kind):
    X = rng.standard_normal((3, d, n))
    X[1] = 0.0
    with pytest.raises(DegenerateSpectrumError):
        fit_whitener(Dataset(X[1]), rank_policy=RankPolicy(kind))
    with pytest.raises(DegenerateSpectrumError):
        fit_whitener(X, rank_policy=RankPolicy(kind))


@pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.ones((2, 0, 4)), np.full((2, 3, 4), np.nan), np.ones((1, 2, 3, 4))])
def test_a_fit_takes_a_dataset_or_a_finite_stack(bad):
    with pytest.raises(ValidationError, match="m x d x n"):
        fit_whitener(bad)


def _rank_deficient(rng, d, n):
    X = rng.standard_normal((d, n))
    X[-2:] = X[:2]  # two repeated rows: F has rank d - 2
    return X


@pytest.mark.parametrize("draw, fallback", [
    (lambda rng: rng.standard_normal((6, 20)), False),  # n > d: the proven F, inverted once
    (lambda rng: rng.standard_normal((8, 5)), True),  # n < d: the thin SVD's kept modes
    (lambda rng: _rank_deficient(rng, 6, 20), True),  # n > d, rank < d: eigh's kept modes
])
def test_steps_handed_the_solve_have_the_bits_of_fresh_steps(rng, draw, fallback):
    # each step is handed the previous step's F solve and its post-step predictions W X
    X = draw(rng)
    Y = rng.standard_normal((3, X.shape[1]))
    W0 = rng.standard_normal((3, X.shape[0]))
    fresh, handed = LinearModel(W0), LinearModel(W0)
    cfg = OptimizerConfig(eta=0.3)
    solve = predictions = None
    for _ in range(5):
        a = newton_step(fresh, X, Y, cfg)
        b = newton_step(handed, X, Y, cfg, solve, predictions)
        assert solve is None or b.diagnostics["solve"] is solve
        solve, predictions = b.diagnostics["solve"], b.diagnostics["predictions"]
        assert _same_bits(fresh.W, handed.W)
        assert _same_bits(predictions, fresh.W @ X) and _same_bits(a.diagnostics["predictions"], predictions)
        assert (a.loss_before, a.loss_after) == (b.loss_before, b.loss_after)
        assert a.diagnostics["pseudoinverse_fallback"] == b.diagnostics["pseudoinverse_fallback"] == fallback


@pytest.mark.parametrize("steps", [0, -2])
def test_the_newton_check_rejects_fewer_than_one_step(steps):
    # no step compares nothing: a deviation of 0.0 at 0, a bare islice ValueError below it
    with pytest.raises(ValidationError, match="steps"):
        verify.newton_whitened_gd_deviation(steps=steps)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or original(*a, **k))
    return calls


def test_the_newton_check_forms_proves_and_inverts_F_once_and_never_calls_solve(monkeypatch):
    # the first step proves F full-rank and inverts it; every step, the first too, is one product with that F^-1
    built = _counting(monkeypatch, linear_flow, "compute_F")
    proven = _counting(monkeypatch, linear_flow, "proves_eigenvalues_above")
    inverted = _counting(monkeypatch, np.linalg, "inv")
    solved = _counting(monkeypatch, np.linalg, "solve")
    verify.newton_whitened_gd_deviation()
    assert (len(built), len(proven), len(inverted), len(solved)) == (1, 1, 1, 0)


@pytest.mark.parametrize("n", [16, 64])
def test_the_full_arm_inverts_once_for_both_of_its_solves(monkeypatch, rng, n):
    # at n <= d the products with L^-1 and with L^-T share one triangular_inverse (d = 64: two leaves of 32)
    inverted = _counting(monkeypatch, whitening, "triangular_inverse")
    leaves = _counting(monkeypatch, np.linalg, "inv")
    modes = whitening.full_whitened_modes(rng.standard_normal((64, n)), [rng.standard_normal((64, 8))],
                                          RankPolicy("jitter"))
    assert modes is not None
    assert (len(inverted), len(leaves)) == (1, 2)


def test_the_compression_suite_makes_one_fit_per_case(monkeypatch):
    fits = _counting(monkeypatch, verify, "fit_whitener")
    verify.suite_compression()
    assert len(fits) == 24


def _reference_compression():
    """suite_compression by its loop with one fit_whitener + apply_whitener per case."""
    tol, worst, payload_ok = 1e-8, 0.0, True
    for d in range(2, 6):
        for n in range(d + 1, d + 7):
            cases = []
            for seed in range(10):
                X = Dataset(np.random.default_rng(seed * 1009 + d * 31 + n).standard_normal((d, n)))
                cases.append(apply_whitener(fit_whitener(X, mode="pca", rank_policy=RankPolicy("manual")), X).values)
            X_hat = np.array(cases)
            c = compress_whitened(X_hat)
            payload_ok &= c.scalar_count == count_information_parameters(d, n, whitened=True)
            K = symmetrize(np.swapaxes(X_hat, 1, 2) @ X_hat)
            worst = max(worst, float(np.max(np.abs(reconstruct_K(c) - K))))
    return [
        CheckResult("compression_round_trip", worst <= tol, worst, tol),
        CheckResult("compression_payload_size", payload_ok, 0.0 if payload_ok else 1.0, 0.0),
    ]


def _reference_newton_equivalence(d=32, n=256, n_test=64, steps=100, eta=0.3, seed=0):
    """suite_newton_equivalence by its loop with a fresh newton_step per step."""
    rng = np.random.default_rng(seed)
    X = Dataset(rng.standard_normal((d, n)))
    X_test = Dataset(rng.standard_normal((d, n_test)))
    Y = LabelSet.from_class_ids(rng.integers(0, 10, size=n), 10)
    W = fit_whitener(X, mode="pca", rank_policy=RankPolicy("manual"))
    X_hat, X_test_hat = apply_whitener(W, X), apply_whitener(W, X_test)
    newton, gd = LinearModel(np.zeros((10, d))), init_isotropic([d, 10], variance=0.0)
    cfg = OptimizerConfig(eta=eta)
    worst = 0.0
    for _, forward in islice(run_steps(gd, X_hat.values, Y.targets, cfg, sgd_step, seed), 1, steps + 1):
        newton_step(newton, X.values, Y.targets, cfg)
        worst = max(
            worst,
            float(np.max(np.abs(newton.W @ X.values - forward[0]))),
            float(np.max(np.abs(newton.W @ X_test.values - gd.weights[0] @ X_test_hat.values))),
        )
    return [CheckResult("newton_equals_whitened_gd", worst <= 1e-10, worst, 1e-10)]


def test_the_compression_suite_equals_its_per_case_loop():
    assert verify.suite_compression() == _reference_compression()


def test_the_newton_suite_equals_its_fresh_step_loop():
    assert verify.suite_newton_equivalence() == _reference_newton_equivalence()
