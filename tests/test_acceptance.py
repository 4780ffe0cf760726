"""Acceptance battery: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Statistical criteria are deterministic given the frozen seeds.
"""
import numpy as np
import pytest
from scipy import stats

from whitebench import (
    Dataset,
    LabelSet,
    OptimizerConfig,
    apply_whitener,
    build_flow,
    early_stop,
    fit_whitener,
    flow_at,
    full_whitening_null_check,
    init_isotropic,
    orbit_equivalence_check,
    random_orthogonal,
    regularized_gn_step,
    regularized_preconditioner_eigenform,
    sgd_step,
    train_to_cutoff,
)
from whitebench.cli import main as cli_main
from whitebench.datatypes import hstack_datasets
from whitebench.optimizers import _flatten
from whitebench.synth import SyntheticSpec, synthesize
from whitebench.verify import newton_whitened_gd_deviation, suite_compression, suite_orbit
from whitebench.whitening import RankPolicy

from conftest import one_hot_labels
from test_linear_flow import rk4_flow
from test_optimizers import assert_grads_match_fd


def report(criterion: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {criterion}: {label}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {criterion}: {label} {detail}"


def test_criterion_01_null_prediction_exactness():
    rep = full_whitening_null_check(d=64, n_train=32, n_test=16, classes=10, seed=0)
    ok = (
        rep.max_abs_prediction <= 1e-8
        and abs(rep.test_loss - 0.5) <= 1e-8
        and rep.passed
    )
    report(1, "full whitening zeroes test predictions, loss 0.5", ok,
           f"max|f|={rep.max_abs_prediction:.2e}, loss={rep.test_loss:.12f}")


def test_criterion_02_chance_level_mlp():
    errors = []
    reached = True
    for seed in range(10):
        rep = full_whitening_null_check(
            d=64, n_train=48, n_test=16, classes=10, seed=seed, model="mlp"
        )
        reached &= rep.passed
        errors.append(rep.test_error)
    mean = float(np.mean(errors))
    half_width = 1.96 * np.sqrt(0.9 * 0.1 / (10 * 16))
    ok = reached and abs(mean - 0.9) <= half_width
    report(2, "fully whitened MLP generalizes at chance", ok,
           f"mean error {mean:.4f} vs 0.9 +/- {half_width:.4f}")


def test_criterion_03_newton_equals_whitened_gd():
    dev = newton_whitened_gd_deviation(d=32, n=256, n_test=64, steps=100, eta=0.3, seed=0)
    report(3, "Newton on raw data == GD on whitened data, 100 steps", dev <= 1e-10,
           f"max per-step prediction gap {dev:.2e}")


def test_criterion_04_orbit_equivalence_100_rotations():
    results = suite_orbit(r_count=100)
    by_name = {c.check: c for c in results}
    lin, mlp = by_name["orbit_linear"], by_name["orbit_mlp"]
    ok = lin.passed and mlp.passed
    report(4, "100 random rotations leave trajectories unchanged", ok,
           f"linear {lin.max_deviation:.2e} <= 1e-10, mlp {mlp.max_deviation:.2e} <= 1e-8")


def test_criterion_05_compression_round_trip():
    results = suite_compression()
    by_name = {c.check: c for c in results}
    ok = all(c.passed for c in results)
    report(5, "whitened data compresses to (n-d)d scalars and rebuilds K", ok,
           f"max deviation {by_name['compression_round_trip'].max_deviation:.2e}")


def test_criterion_06_flow_matches_rk4():
    rng = np.random.default_rng(12)
    worst = 0.0
    for newton in (False, True):
        for _ in range(3):
            X = Dataset(rng.standard_normal((3, 5)))
            Y = LabelSet(rng.standard_normal((2, 5)))
            W0 = rng.standard_normal((2, 3))
            sol = build_flow(X, Y, W0=W0, precondition="newton" if newton else "none")
            for t in np.linspace(0.05, 2.0, 20):
                ref = rk4_flow(X, Y, W0, t, steps=2000, newton=newton)
                worst = max(worst, float(np.max(np.abs(flow_at(sol, t).W - ref))))
    report(6, "closed-form flow matches RK4 integration", worst <= 1e-6,
           f"max deviation {worst:.2e} over both preconditioners")


def _gen_direction_cells():
    sizes = (16, 32, 64, 128, 256, 512, 1024)
    seeds = range(10)
    res = {}
    for size in sizes:
        for seed in seeds:
            spec = SyntheticSpec(
                d=64, n_train=size, n_val=128, n_test=512, alpha=2.0,
                label_noise=0.1, classes=10, encoding="one_hot",
                seed=seed * 7919 + size, teacher_seed=seed,
            )
            data = synthesize(spec)

            sol = build_flow(data.train, data.y_train)
            _, rec = early_stop(
                sol, data.val, data.y_val,
                test=(data.test, data.y_test),
            )
            res[("none", size, seed)] = rec.test_loss[rec.steps.index(rec.terminal_step)]

            W = fit_whitener(data.train, mode="pca", rank_policy=RankPolicy("manual"))
            sol_w = build_flow(apply_whitener(W, data.train), data.y_train)
            _, rec_w = early_stop(
                sol_w, apply_whitener(W, data.val), data.y_val,
                test=(apply_whitener(W, data.test), data.y_test),
            )
            res[("train", size, seed)] = rec_w.test_loss[rec_w.steps.index(rec_w.terminal_step)]

            val10 = Dataset(data.val.values[:, :10])
            y_val10 = LabelSet(data.y_val.targets[:, :10], encoding="one_hot")
            test10 = Dataset(data.test.values[:, :10])
            y_test10 = LabelSet(data.y_test.targets[:, :10], encoding="one_hot")
            combined = hstack_datasets(data.train, val10, test10)
            W_f = fit_whitener(combined, mode="pca", rank_policy=RankPolicy("manual"))
            sol_f = build_flow(apply_whitener(W_f, data.train), data.y_train)
            _, rec_f = early_stop(
                sol_f, apply_whitener(W_f, val10), y_val10,
                test=(apply_whitener(W_f, test10), y_test10),
            )
            res[("full", size, seed)] = rec_f.test_loss[rec_f.steps.index(rec_f.terminal_step)]
    return sizes, list(seeds), res


def test_criterion_07_generalization_direction():
    sizes, seeds, res = _gen_direction_cells()
    per_size_ok = all(
        np.mean([res[("none", size, s)] for s in seeds])
        <= np.mean([res[("train", size, s)] for s in seeds])
        for size in sizes
    )
    # full-whitening chance holds where n_train + n_val(10) + n_test(10) <= d
    chance_sizes = [n for n in sizes if n + 20 <= 64]
    chance_ok = all(
        abs(res[("full", size, s)] - 0.5) <= 1e-8 for size in chance_sizes for s in seeds
    )
    un = [res[("none", size, s)] for size in sizes for s in seeds]
    tw = [res[("train", size, s)] for size in sizes for s in seeds]
    p = stats.ttest_rel(tw, un, alternative="greater").pvalue
    ok = per_size_ok and chance_ok and p < 0.05
    report(7, "unwhitened <= train-whitened at every size; full-whitened at chance", ok,
           f"paired one-sided p={p:.2e}, chance sizes {chance_sizes}")


def _steps_to_cutoff_pair(size, seed):
    spec = SyntheticSpec(
        d=64, n_train=size, alpha=2.0, label_noise=0.1, classes=10,
        encoding="one_hot", seed=seed * 31 + size, teacher_seed=seed,
    )
    data = synthesize(spec)
    top = float(np.linalg.eigvalsh(data.train.values @ data.train.values.T)[-1])
    X = Dataset(data.train.values / np.sqrt(top))
    cfg = OptimizerConfig(eta=0.1)
    raw = init_isotropic([64, 32, 10], variance=1e-2, seed=seed)
    white = raw.copy()
    rec_raw = train_to_cutoff(raw, X, data.y_train, cfg, step_cap=8000, seed=seed)
    W = fit_whitener(X, mode="pca", rank_policy=RankPolicy("manual"))
    rec_white = train_to_cutoff(
        white, apply_whitener(W, X), data.y_train, cfg, step_cap=8000, seed=seed
    )
    return rec_raw, rec_white


def _steps_to_best_val(lam, data, X, scale, seed, steps=120):
    model = init_isotropic([64, 10], variance=0.0, seed=seed)
    cfg = OptimizerConfig(
        eta=1.0, reg_lambda=lam, cg_tol=1e-6, cg_max_iter=3000,
        line_search_step=1.0,
    )
    X_val = data.val.values / scale
    best, best_step = np.inf, 0
    for step in range(1, steps + 1):
        regularized_gn_step(model, X.values, data.y_train.targets, cfg)
        v = model.loss_on(X_val, data.y_val.targets) / data.val.sample_count
        if v < best:
            best, best_step = v, step
    return best_step


def test_criterion_08_speedup_direction():
    sizes = (64, 128, 256)
    gd_wins = gn_wins = cells = 0
    for size in sizes:
        for seed in range(10):
            rec_raw, rec_white = _steps_to_cutoff_pair(size, seed)
            cells += 1
            gd_wins += rec_white.stopping_reason == "cutoff" and (
                rec_raw.stopping_reason != "cutoff"
                or rec_white.terminal_step < rec_raw.terminal_step
            )
    gn_cells = 0
    for size in sizes:
        for seed in range(10):
            spec = SyntheticSpec(
                d=64, n_train=size, n_val=64, alpha=2.0, label_noise=0.1, classes=10,
                encoding="one_hot", seed=seed * 31 + size, teacher_seed=seed,
            )
            data = synthesize(spec)
            scale = np.sqrt(float(np.linalg.eigvalsh(data.train.values @ data.train.values.T)[-1]))
            X = Dataset(data.train.values / scale)
            gn_cells += 1
            gn_wins += _steps_to_best_val(0.3, data, X, scale, seed) < _steps_to_best_val(
                1.0, data, X, scale, seed
            )
    ok = gd_wins >= 0.8 * cells and gn_wins >= 0.8 * gn_cells
    report(8, "whitened GD and regularized GN reach their targets in fewer steps", ok,
           f"whitened-GD wins {gd_wins}/{cells}, GN wins {gn_wins}/{gn_cells}")


def test_criterion_09_regularized_gn_endpoints():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((6, 24))
    onehot = one_hot_labels(rng, 3, 24).targets

    model = init_isotropic([6, 3], variance=0.1, seed=1)
    _, grads, _ = model.loss_and_grads(X, onehot)
    before = model.weights[0].copy()
    regularized_gn_step(model, X, onehot, OptimizerConfig(eta=0.3, reg_lambda=1.0))
    grad_dev = float(np.max(np.abs(model.weights[0] - (before - 0.3 * grads[0]))))

    model = init_isotropic([6, 3], variance=0.1, seed=1)
    _, grads, _ = model.loss_and_grads(X, onehot)
    before = model.weights[0].copy()
    F = X @ X.T
    dense = grads[0] @ np.linalg.inv(F)
    regularized_gn_step(
        model, X, onehot, OptimizerConfig(eta=1.0, reg_lambda=0.0, cg_tol=1e-13, cg_max_iter=5000)
    )
    gn_dev = float(np.max(np.abs((before - model.weights[0]) - dense)))

    eig_dev = 0.0
    for trial in range(5):
        n = int(rng.integers(4, 65))
        A = rng.standard_normal((n, n))
        B = A @ A.T + 0.5 * np.eye(n)
        lam = float(rng.uniform(0.05, 0.95))
        dense_inv = np.linalg.inv((1 - lam) * B + lam * np.eye(n))
        eig_dev = max(eig_dev, float(np.max(np.abs(
            regularized_preconditioner_eigenform(B, lam) - dense_inv
        ))))
    ok = grad_dev <= 1e-10 and gn_dev <= 1e-10 and eig_dev <= 1e-8
    report(9, "regularized GN endpoints and eigen-form identities", ok,
           f"lam=1 dev {grad_dev:.2e}, lam=0 dev {gn_dev:.2e}, eigenform dev {eig_dev:.2e}")


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(4)
    count = 0
    for activation in ("relu", "tanh"):
        for head in ("linear_mse", "softmax_xent"):
            for _ in range(5):
                X = rng.standard_normal((4, 6))
                Y = one_hot_labels(rng, 3, 6).targets
                model = init_isotropic(
                    [4, 5, 3], variance=0.2, seed=int(rng.integers(0, 10_000)),
                    activation=activation, output_head=head, deeper_biases=True,
                )
                assert_grads_match_fd(model, X, Y)
                count += 1
    report(10, "analytic gradients match central finite differences", count == 20,
           f"{count} random configurations at relative 1e-4")


def test_criterion_11_determinism_and_interop(tmp_path):
    # verify --suite all exits 0
    report_path = tmp_path / "verify.json"
    code = cli_main(["verify", "--suite", "all", "--report", str(report_path)])

    # repeated sweeps byte-identical
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        f"""
[experiment]
id = det
seeds = 0 1
output_dir = {tmp_path / "results"}

[data]
source = synthetic
d = 8
n_val = 6
n_test = 6
classes = 3
label_noise = 0.2

[whitening]
modes = none train

[flow]
grid_points = 25

[sweep]
sizes = 6 12
trainer = linear
""",
        encoding="utf-8",
    )
    out = tmp_path / "results" / "det_sweep.csv"
    assert cli_main(["sweep", "--config", str(cfg)]) == 0
    first = out.read_bytes()
    assert cli_main(["sweep", "--config", str(cfg)]) == 0
    identical = out.read_bytes() == first

    # wbds round trip bit-exact
    from whitebench.dataio import export_wbds, ingest_wbds

    rng = np.random.default_rng(8)
    X = Dataset(rng.standard_normal((5, 11)))
    path = tmp_path / "x.wbds"
    export_wbds(path, X)
    X2, _ = ingest_wbds(path)
    path2 = tmp_path / "y.wbds"
    export_wbds(path2, X2)
    bit_exact = path.read_bytes() == path2.read_bytes()

    ok = code == 0 and identical and bit_exact
    report(11, "verify exits 0; sweeps and wbds are byte-stable", ok,
           f"verify exit {code}, sweep identical {identical}, wbds bit-exact {bit_exact}")
