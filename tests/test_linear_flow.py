import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitebench import (
    Dataset,
    LabelSet,
    RankPolicy,
    TimeGrid,
    apply_whitener,
    build_flow,
    compute_F,
    early_stop,
    fit_whitener,
    flow_at,
    mse_per_sample,
    optimum_predictions,
    pseudoinverse,
    solve_optimum,
)
from whitebench.datatypes import NULL_MODE_RATIO, random_orthogonal
from whitebench.errors import ShapeError, ValidationError
from whitebench.linear_flow import PRECONDITIONS, LinearModel, _loss_curve
from whitebench.optimizers import OptimizerConfig, newton_step
from whitebench.synth import SyntheticSpec, synthesize
from whitebench.whitening import RANK_POLICIES, WHITENING_MODES, whitened_modes

from conftest import one_hot_labels, random_dataset, spaced_dataset


def rk4_flow(X, Y, W0, t_end, steps=4000, newton=False):
    """Oracle: RK4 integration of dW/dt = -(W F - Y X^T) B."""
    F = X.values @ X.values.T
    C = Y.targets @ X.values.T
    B = pseudoinverse(F) if newton else np.eye(F.shape[0])

    def rhs(W):
        return -(W @ F - C) @ B

    W = W0.copy()
    h = t_end / steps
    for _ in range(steps):
        k1 = rhs(W)
        k2 = rhs(W + 0.5 * h * k1)
        k3 = rhs(W + 0.5 * h * k2)
        k4 = rhs(W + h * k3)
        W = W + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return W


def test_solve_optimum_identity_regression():
    X = Dataset(np.eye(2))
    Y = LabelSet(np.eye(2))
    assert np.allclose(solve_optimum(X, Y).W, np.eye(2), atol=1e-12)


def test_solve_optimum_normal_equations_residual(rng):
    X = Dataset([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    Y = LabelSet(rng.standard_normal((1, 3)))
    W = solve_optimum(X, Y).W
    residual = compute_F(X) @ W.T - X.values @ Y.targets.T
    assert np.max(np.abs(residual)) <= 1e-10


def test_solve_optimum_gradient_in_span(rng):
    # d > n: optimum within the span, residual gradient vanishes
    X = random_dataset(rng, 8, 3)
    Y = LabelSet(rng.standard_normal((2, 3)))
    W0 = rng.standard_normal((2, 8))
    model = solve_optimum(X, Y, W0=W0)
    assert model.meta["pseudoinverse_fallback"]
    grad = (model.W @ X.values - Y.targets) @ X.values.T
    assert np.max(np.abs(grad)) <= 1e-8


@pytest.mark.parametrize("n", [2, 5])
def test_explicit_inverses_cut_at_pinv_ratio(rng, n):
    # singular values (1, 1e-5): F is full rank with eigenvalue ratio 1e-10,
    # below PINV_CUTOFF_RATIO but above NULL_MODE_RATIO
    s = np.array([1.0, 1e-5])
    X = Dataset(random_orthogonal(2, 1) * s @ random_orthogonal(n, 2)[:, :2].T)
    Y = LabelSet(rng.standard_normal((3, n)))
    W0 = rng.standard_normal((3, 2))
    optimum = solve_optimum(X, Y, W0=W0)
    assert optimum.meta["rank_F"] == 1 and optimum.meta["pseudoinverse_fallback"]
    model = LinearModel(W0.copy())
    result = newton_step(model, X.values, Y.targets, OptimizerConfig(eta=1.0))
    assert result.diagnostics["pseudoinverse_fallback"]
    assert np.max(np.abs(model.W - optimum.W)) <= 1e-10 * np.max(np.abs(optimum.W))
    assert build_flow(X, Y, W0=W0).mode_rates.size == 2


def test_flow_starting_at_optimum_is_constant(rng):
    X = random_dataset(rng, 3, 12)
    Y = LabelSet(rng.standard_normal((2, 12)))
    W_star = solve_optimum(X, Y).W
    sol = build_flow(X, Y, W0=W_star)
    for t in (0.0, 0.5, 7.0):
        assert np.max(np.abs(flow_at(sol, t).W - W_star)) <= 1e-9


def test_one_dimensional_halflife():
    # lambda = 2, w(0) = 0, w* = 1: w(ln2 / 2) = 0.5
    X = Dataset([[np.sqrt(2.0)]])
    Y = LabelSet([[np.sqrt(2.0)]])
    sol = build_flow(X, Y)
    assert abs(flow_at(sol, np.log(2.0) / 2.0).W[0, 0] - 0.5) <= 1e-12
    oracle = rk4_flow(X, Y, np.zeros((1, 1)), np.log(2.0) / 2.0)
    assert abs(flow_at(sol, np.log(2.0) / 2.0).W[0, 0] - oracle[0, 0]) <= 1e-9


def test_flow_at_initial_and_saturated(rng):
    X = random_dataset(rng, 3, 5)
    Y = LabelSet(rng.standard_normal((2, 5)))
    W0 = rng.standard_normal((2, 3))
    sol = build_flow(X, Y, W0=W0)
    assert np.array_equal(flow_at(sol, 0.0).W, flow_at(sol, 0.0).W)
    assert np.max(np.abs(flow_at(sol, 0.0).W - W0)) <= 1e-10
    t_sat = 40.0 / sol.min_positive_rate
    W_star = solve_optimum(X, Y, W0=W0).W
    assert np.max(np.abs(flow_at(sol, t_sat).W - W_star)) <= 1e-12


@pytest.mark.parametrize("newton", [False, True])
def test_flow_matches_rk4_oracle(newton):
    rng = np.random.default_rng(7)
    for trial in range(3):
        X = Dataset(rng.standard_normal((3, 5)))
        Y = LabelSet(rng.standard_normal((2, 5)))
        W0 = rng.standard_normal((2, 3))
        sol = build_flow(X, Y, W0=W0, precondition="newton" if newton else "none")
        for t in np.linspace(0.05, 2.0, 20):
            W_ref = rk4_flow(X, Y, W0, t, steps=2000, newton=newton)
            assert np.max(np.abs(flow_at(sol, t).W - W_ref)) <= 1e-6


def test_flow_rejects_bad_time(rng):
    X = random_dataset(rng, 2, 4)
    Y = LabelSet(rng.standard_normal((1, 4)))
    sol = build_flow(X, Y)
    with pytest.raises(ValidationError):
        flow_at(sol, -1.0)
    with pytest.raises(ValidationError):
        flow_at(sol, np.inf)


def test_monotone_mode_convergence(rng):
    X = random_dataset(rng, 4, 9)
    Y = LabelSet(rng.standard_normal((2, 9)))
    sol = build_flow(X, Y)
    V = sol.spectrum.eigenvectors
    W_star = solve_optimum(X, Y).W
    prev = None
    for t in np.linspace(0.0, 3.0, 12):
        gap = np.abs((flow_at(sol, t).W - W_star) @ V)
        if prev is not None:
            assert np.all(gap <= prev + 1e-12)
        prev = gap


def test_optimum_predictions_consistency(rng):
    X = random_dataset(rng, 3, 10)
    Y = LabelSet(rng.standard_normal((2, 10)))
    X_test = Dataset(X.values[:, [4]])
    fitted = solve_optimum(X, Y).W @ X.values[:, [4]]
    assert np.allclose(optimum_predictions(X, Y, X_test), fitted, atol=1e-8)


def test_optimum_predictions_match_flow_saturation(rng):
    for _ in range(3):
        X = random_dataset(rng, 4, 7)
        Y = LabelSet(rng.standard_normal((3, 7)))
        W0 = rng.standard_normal((3, 4))
        X_test = random_dataset(rng, 4, 5)
        sol = build_flow(X, Y, W0=W0)
        t_sat = 60.0 / sol.min_positive_rate
        flow_preds = flow_at(sol, t_sat).W @ X_test.values
        assert np.max(np.abs(optimum_predictions(X, Y, X_test, W0=W0) - flow_preds)) <= 1e-8


def test_k_sufficiency_equals_f_form(rng):
    # K-form predictions equal W* X_test computed from F quantities
    for d, n in ((3, 9), (9, 4)):
        X = random_dataset(rng, d, n)
        Y = LabelSet(rng.standard_normal((2, n)))
        W0 = rng.standard_normal((2, d))
        X_test = random_dataset(rng, d, 6)
        f_form = solve_optimum(X, Y, W0=W0).W @ X_test.values
        k_form = optimum_predictions(X, Y, X_test, W0=W0)
        assert np.max(np.abs(k_form - f_form)) <= 1e-8


@pytest.mark.parametrize("d, n", [(6, 4), (3, 9)])
def test_optimum_predictions_rejects_misshaped_w0(rng, d, n):
    X = random_dataset(rng, d, n)
    Y = LabelSet(rng.standard_normal((2, n)))
    X_test = random_dataset(rng, d, 3)
    for shape in ((2, d + 1), (3, d)):
        with pytest.raises(ValidationError, match=r"W0 must have shape \(2, %d\)" % d):
            optimum_predictions(X, Y, X_test, W0=np.zeros(shape))


@given(
    d=st.integers(1, 9),
    n_minus_d=st.integers(-6, 6),
    k=st.integers(1, 3),
    rank_deficit=st.integers(0, 3),
    nonzero_w0=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_optimum_predictions_both_sides_match_k_form(d, n_minus_d, k, rank_deficit, nonzero_w0, seed):
    # n <= d takes F's modes from the thin SVD of X, n > d from eigh of the d x d F;
    # a rank deficit makes both singular
    n = max(1, d + n_minus_d)
    rng = np.random.default_rng(seed)
    rank = max(1, min(d, n) - rank_deficit)
    if rank_deficit:
        X = Dataset(rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n)))
    else:
        X = random_dataset(rng, d, n)
    X_test = random_dataset(rng, d, 5)
    Y = LabelSet(rng.standard_normal((k, n)))
    W0 = rng.standard_normal((k, d)) if nonzero_w0 else np.zeros((k, d))
    K = X.values.T @ X.values
    residual = W0 @ X.values - Y.targets
    reference = W0 @ X_test.values - residual @ pseudoinverse(K) @ (X.values.T @ X_test.values)
    preds = optimum_predictions(X, Y, X_test, W0=W0 if nonzero_w0 else None)
    assert np.all(np.abs(preds - reference) <= 1e-8 * np.maximum(1.0, np.abs(reference)))
    with pytest.raises(ShapeError):
        optimum_predictions(X, Y, random_dataset(rng, d + 1, 5), W0=W0)


def test_fully_whitened_zero_predictions_and_half_loss(rng):
    d, n_train, n_test = 24, 10, 6
    combined = random_dataset(rng, d, n_train + n_test)
    W = fit_whitener(combined, mode="pca")
    X_hat = apply_whitener(W, combined).values
    Xtr = Dataset(X_hat[:, :n_train])
    Xte = Dataset(X_hat[:, n_train:])
    Ytr = one_hot_labels(rng, 10, n_train)
    Yte = one_hot_labels(rng, 10, n_test)
    preds = optimum_predictions(Xtr, Ytr, Xte)
    assert np.max(np.abs(preds)) <= 1e-8
    assert abs(mse_per_sample(preds, Yte) - 0.5) <= 1e-8


def test_whitening_invariance_of_converged_predictions(rng):
    # d < n, full rank: optimum predictions unchanged by any whitening transform
    X = random_dataset(rng, 5, 40)
    Y = LabelSet(rng.standard_normal((3, 40)))
    X_test = random_dataset(rng, 5, 8)
    W = fit_whitener(X, mode="pca")
    raw = solve_optimum(X, Y).W @ X_test.values
    white = solve_optimum(apply_whitener(W, X), Y).W @ apply_whitener(W, X_test).values
    assert np.max(np.abs(raw - white)) <= 1e-6


def test_newton_flow_equals_plain_flow_on_whitened(rng):
    X = random_dataset(rng, 4, 30)
    Y = LabelSet(rng.standard_normal((2, 30)))
    X_test = random_dataset(rng, 4, 7)
    W = fit_whitener(X, mode="pca")
    X_hat, X_test_hat = apply_whitener(W, X), apply_whitener(W, X_test)
    newton = build_flow(X, Y, precondition="newton")
    plain_white = build_flow(X_hat, Y)
    for t in np.linspace(0.0, 8.0, 15):
        a = flow_at(newton, t).W @ X_test.values
        b = flow_at(plain_white, t).W @ X_test_hat.values
        assert np.max(np.abs(a - b)) <= 1e-8
        a_tr = flow_at(newton, t).W @ X.values
        b_tr = flow_at(plain_white, t).W @ X_hat.values
        assert np.max(np.abs(a_tr - b_tr)) <= 1e-8


@given(
    st.integers(4, 10), st.sampled_from([-2, 0, 1, 7]), st.booleans(),
    st.sampled_from(WHITENING_MODES), st.sampled_from(RANK_POLICIES), st.booleans(),
    st.sampled_from(PRECONDITIONS), st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_whitener_modes_give_the_flow_of_the_whitened_split(d, extra, deficient, mode, policy, center,
                                                            precondition, seed):
    # n < d, n = d and n > d, optionally of rank below min(d, n): the whitener folded into the flow on the
    # raw (mean-shifted) splits predicts what the flow of the whitened splits predicts
    n = d + extra
    rng = np.random.default_rng(seed)
    full = min(d, n - 1 if center else n)
    X = spaced_dataset(rng, d, n, max(1, full - 1) if deficient else full, offset=center)
    X_test = random_dataset(rng, d, 5)
    Y = LabelSet(rng.standard_normal((3, n)))
    W0 = rng.standard_normal((3, d))
    W = fit_whitener(X, mode=mode, rank_policy=RankPolicy(policy), center=center)
    modes, U = whitened_modes(W.spectrum, mode, RankPolicy(policy), n > d)
    shift = 0.0 if W.mean is None else W.mean
    raw = [Dataset(Z.values - shift) for Z in (X, X_test)]
    folded = build_flow(raw[0], Y, W0, precondition, modes=modes, fold=(W.M, U))
    own = build_flow(apply_whitener(W, X), Y, W0, precondition)
    lam, lam_own = folded.spectrum.eigenvalues, own.spectrum.eigenvalues
    assert lam.size == lam_own.size
    assert np.max(np.abs(lam - lam_own)) <= 1e-10 * lam_own[0]
    for t in (0.0, 1.0 / own.max_rate, 1.0 / own.min_positive_rate, 40.0 / own.min_positive_rate):
        for Z, Z_raw in zip((X, X_test), raw):
            expected = flow_at(own, t).W @ apply_whitener(W, Z).values
            got = flow_at(folded, t).W @ Z_raw.values
            assert np.max(np.abs(got - expected)) <= 1e-9 * max(1.0, np.max(np.abs(expected)))


def test_jitter_leaves_null_directions_of_an_eigh_fit_null(rng):
    # rank 8 < d = 12 < n = 40: eigh's rounding on the 4 null directions, divided by the
    # jitter epsilon, would read as slow modes (rate ~1e-8) and stretch the default grid
    X = Dataset(rng.standard_normal((12, 8)) @ rng.standard_normal((8, 40)))
    Y = LabelSet(rng.standard_normal((2, 40)))
    W = fit_whitener(X, rank_policy=RankPolicy("jitter"))
    modes, U = whitened_modes(W.spectrum, "pca", RankPolicy("jitter"), from_eigh=True)
    reused, own = build_flow(X, Y, modes=modes, fold=(W.M, U)), build_flow(apply_whitener(W, X), Y)
    assert reused.mode_rates.size == own.mode_rates.size == 8
    assert TimeGrid.default_for(reused).t_max == pytest.approx(TimeGrid.default_for(own).t_max, rel=1e-10)


def test_build_flow_rejects_modes_of_another_width(rng):
    X = random_dataset(rng, 4, 9)
    modes = fit_whitener(random_dataset(rng, 5, 9)).spectrum
    with pytest.raises(ShapeError):
        build_flow(X, LabelSet(rng.standard_normal((2, 9))), modes=modes)


def test_a_fold_without_M_needs_zero_W0(rng):
    X = random_dataset(rng, 4, 9)
    W = fit_whitener(X)
    modes, U = whitened_modes(W.spectrum, "pca", RankPolicy(), from_eigh=True)
    Y = LabelSet(rng.standard_normal((2, 9)))
    assert not build_flow(X, Y, modes=modes, fold=(None, U)).W0.any()
    with pytest.raises(ValidationError, match="W0 = 0"):
        build_flow(X, Y, np.ones((2, 4)), modes=modes, fold=(None, U))


def test_null_space_conservation(rng):
    X = random_dataset(rng, 8, 3)
    Y = LabelSet(rng.standard_normal((2, 3)))
    W0 = rng.standard_normal((2, 8))
    sol = build_flow(X, Y, W0=W0)
    assert sol.mode_rates.size == 3
    # null basis of F_train, taken independently of build_flow
    N = np.linalg.svd(X.values)[0][:, 3:]
    assert np.array_equal(flow_at(sol, 0.0).W, W0)
    for t in (0.0, 1.0, 50.0):
        drift = (flow_at(sol, t).W - W0) @ N
        assert np.max(np.abs(drift)) <= 1e-12


@given(
    d=st.integers(1, 9),
    n_minus_d=st.integers(-6, 6),
    k=st.integers(1, 3),
    rank_deficit=st.integers(0, 9),
    nonzero_w0=st.booleans(),
    precondition=st.sampled_from(["none", "newton"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_flow_matches_full_eigh_reference(d, n_minus_d, k, rank_deficit, nonzero_w0, precondition, seed):
    # reference: w* + e^{-rate t}(w0 - w*) in every eigenvector of the full d x d F,
    # with rate 0 and w* = w0 in the null modes. Its eigenvalues are accurate only
    # to eps * lambda_max, so X has singular values in [0.1, 10] (cond F <= 1e4).
    n = max(1, d + n_minus_d)
    rng = np.random.default_rng(seed)
    rank = max(0, min(d, n) - rank_deficit)  # rank 0: an all-zero X
    left = np.linalg.qr(rng.standard_normal((d, d)))[0][:, :rank]
    right = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    X = Dataset((left * rng.uniform(0.1, 10.0, rank)) @ right.T)
    Y = LabelSet(rng.standard_normal((k, n)))
    W0 = rng.standard_normal((k, d)) if nonzero_w0 else np.zeros((k, d))
    lam, V = np.linalg.eigh(X.values @ X.values.T)
    moving = lam > NULL_MODE_RATIO * max(lam.max(), 0.0)
    rates = np.where(moving, 1.0 if precondition == "newton" else lam, 0.0)
    w_init = W0 @ V
    w_star = np.where(moving, (Y.targets @ X.values.T @ V) / np.where(moving, lam, 1.0), w_init)
    sol = build_flow(X, Y, W0=W0 if nonzero_w0 else None, precondition=precondition)
    assert sol.mode_rates.size == np.count_nonzero(moving)
    ref_min = rates[moving].min() if moving.any() else 1.0
    ref_max = rates.max() or 1.0
    assert abs(sol.min_positive_rate - ref_min) <= 1e-9 * ref_max
    assert abs(sol.max_rate - ref_max) <= 1e-9 * ref_max
    for t in (0.0, 0.3 / ref_max, 1.0 / ref_min, 40.0 / ref_min):
        reference = (w_star + np.exp(-rates * t) * (w_init - w_star)) @ V.T
        W = flow_at(sol, t).W
        assert np.all(np.abs(W - reference) <= 1e-9 * np.maximum(1.0, np.abs(reference)))
    if rank == 0:
        assert np.array_equal(flow_at(sol, 1.0).W, W0)


def test_mode_ordering(rng):
    X = random_dataset(rng, 5, 25)
    Y = LabelSet(rng.standard_normal((1, 25)))
    W0 = rng.standard_normal((1, 5))
    sol = build_flow(X, Y, W0=W0)
    V = sol.spectrum.eigenvectors
    init_gap = np.abs((W0 - solve_optimum(X, Y).W) @ V).ravel()
    t = 0.2 / sol.spectrum.eigenvalues[0]
    gap = np.abs((flow_at(sol, t).W - solve_optimum(X, Y).W) @ V).ravel()
    rel = gap / np.maximum(init_gap, 1e-300)
    lam = sol.spectrum.eigenvalues
    for i in range(len(lam) - 1):
        if lam[i] > lam[i + 1] * (1 + 1e-9):
            assert rel[i] < rel[i + 1]


def _noisy_teacher_problem(seed=0, n_train=40):
    spec = SyntheticSpec(
        d=16, n_train=n_train, n_val=30, n_test=30, alpha=2.0, label_noise=0.4,
        classes=4, encoding="real_valued", seed=seed,
    )
    return synthesize(spec)


def test_early_stop_monotone_hits_boundary():
    data = _noisy_teacher_problem(3)
    # noiseless realizable targets: validation loss decreases monotonically
    spec = SyntheticSpec(
        d=8, n_train=30, n_val=20, alpha=1.0, label_noise=0.0,
        classes=3, encoding="real_valued", seed=5,
    )
    clean = synthesize(spec)
    sol = build_flow(clean.train, clean.y_train)
    grid = TimeGrid(1e-4 / sol.max_rate, 5.0 / sol.min_positive_rate, 60)
    t_star, record = early_stop(sol, clean.val, clean.y_val, grid)
    assert record.metadata["boundary_hit"]
    assert t_star == pytest.approx(grid.t_max)


def test_early_stop_interior_and_oracle():
    data = _noisy_teacher_problem(1)
    sol = build_flow(data.train, data.y_train)
    grid = TimeGrid.default_for(sol, points=120)
    t_star, record = early_stop(sol, data.val, data.y_val, grid)
    assert not record.metadata["boundary_hit"]
    # grid-search oracle at 10x resolution cannot beat the refined optimum by much
    fine = TimeGrid(grid.t_min, grid.t_max, 1200).times()
    fine_best = min(
        mse_per_sample(flow_at(sol, t).W @ data.val.values, data.y_val) for t in fine
    )
    assert record.metadata["val_loss_at_t_star"] <= fine_best + 1e-8


def test_early_stop_self_consistency():
    # d = 16: n < d moves the n modes of the train span, full-rank n > d all d
    for n_train, rank in ((8, 8), (40, 16)):
        data = _noisy_teacher_problem(2, n_train)
        sol = build_flow(data.train, data.y_train)
        t_star, record = early_stop(sol, data.val, data.y_val)
        assert record.metadata["flow_rank"] == rank
        reported = record.metadata["val_loss_at_t_star"]
        recomputed = mse_per_sample(flow_at(sol, t_star).W @ data.val.values, data.y_val)
        assert abs(reported - recomputed) <= 1e-10
        assert record.metadata["closed_form_gap"] <= 1e-10
        # the train split kept by build_flow is always recorded
        train_direct = mse_per_sample(flow_at(sol, t_star).predict(data.train), data.y_train)
        assert record.at(t_star)["train_loss"] == pytest.approx(train_direct, rel=1e-12, abs=1e-15)
        assert len(record.train_loss) == len(record.steps)


def test_early_stop_whitened_does_not_beat_unwhitened():
    # decaying spectrum + label noise: whitening cannot help early stopping
    white_losses, raw_losses = [], []
    for seed in range(6):
        data = _noisy_teacher_problem(seed)
        W = fit_whitener(data.train, mode="pca")
        sol_raw = build_flow(data.train, data.y_train)
        sol_white = build_flow(apply_whitener(W, data.train), data.y_train)
        _, rec_raw = early_stop(
            sol_raw, data.val, data.y_val,
            extra_eval={"test_loss": (data.test, data.y_test)},
        )
        _, rec_white = early_stop(
            sol_white, apply_whitener(W, data.val), data.y_val,
            extra_eval={"test_loss": (apply_whitener(W, data.test), data.y_test)},
        )
        raw_losses.append(rec_raw.test_loss[rec_raw.steps.index(rec_raw.terminal_step)])
        white_losses.append(rec_white.test_loss[rec_white.steps.index(rec_white.terminal_step)])
    assert np.mean(white_losses) >= np.mean(raw_losses)


@given(
    d=st.integers(1, 8),
    n=st.integers(1, 12),
    k=st.integers(1, 3),
    precondition=st.sampled_from(["none", "newton"]),
    nonzero_w0=st.booleans(),
    real_valued=st.booleans(),
    log_scale=st.floats(-2, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_closed_form_loss_matches_direct(d, n, k, precondition, nonzero_w0, real_valued, log_scale, seed):
    # n < d leaves null modes (rate 0, no progress); n > d does not
    rng = np.random.default_rng(seed)
    X = Dataset(10.0**log_scale * rng.standard_normal((d, n)))
    X_eval = Dataset(rng.standard_normal((d, 7)))
    if real_valued:
        Y, Y_eval = LabelSet(rng.standard_normal((k, n))), LabelSet(rng.standard_normal((k, 7)))
    else:
        Y, Y_eval = one_hot_labels(rng, k, n), one_hot_labels(rng, k, 7)
    W0 = rng.standard_normal((Y.output_dim, d)) if nonzero_w0 else None
    sol = build_flow(X, Y, W0=W0, precondition=precondition)
    grid = TimeGrid.default_for(sol)
    times = np.concatenate([[0.0], np.exp(rng.uniform(np.log(grid.t_min), np.log(grid.t_max), 6))])
    for X_s, Y_s in ((X, Y), (X_eval, Y_eval)):
        curve = _loss_curve(sol, X_s, Y_s)
        initial = mse_per_sample(flow_at(sol, 0.0).predict(X_s), Y_s)  # c0 / 2n
        progress = -np.expm1(-np.outer(sol.mode_rates, times))
        together = curve(progress)
        for j, t in enumerate(times):
            direct = mse_per_sample(flow_at(sol, t).predict(X_s), Y_s)
            # the form's terms are as large as the larger of L(0) and L(t):
            # far from the train span L(t) can grow well past L(0)
            tol = 1e-10 * max(1.0, initial, direct)
            assert abs(float(curve(progress[:, j])) - direct) <= tol
            assert abs(together[j] - direct) <= tol


def test_early_stop_holds_one_held_out_H_at_a_time(rng):
    # r = 256 moving modes: each held-out split's r x r H is built, evaluated and dropped in turn,
    # and only the val curve outlives the grid scan (two live at once would pass 3 H)
    d, k = 256, 4

    def split(n):
        return random_dataset(rng, d, n), LabelSet(rng.standard_normal((k, n)))

    sol = build_flow(*split(2 * d))
    (X_val, Y_val), test = split(32), split(32)
    tracemalloc.start()
    early_stop(sol, X_val, Y_val, TimeGrid(1e-3, 1e3, 20), extra_eval={"test_loss": test})
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert sol.mode_rates.size == d
    assert peak < 2.6 * d * d * 8
