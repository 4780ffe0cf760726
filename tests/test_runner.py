from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitebench.errors import ConfigError
from whitebench.linear_flow import PRECONDITIONS
from whitebench.runconfig import parse_config
from whitebench.runner import _normalized, derive_seed, plan_run, run_cell, sweep, write_rows_csv
from whitebench.whitening import RANK_POLICIES, WHITENING_MODES

from conftest import one_hot_labels, spaced_dataset
from test_golden_sweep import RELATIVE

LINEAR_CFG = """
[experiment]
id = lin
master_seed = 5
seeds = 0 1

[data]
source = synthetic
d = 12
n_train = 24
n_val = 10
n_test = 10
alpha = 2.0
label_noise = 0.2
classes = 3

[whitening]
modes = none train full
transform = pca
rank_policy = manual

[flow]
precondition = none
grid_points = 40

[sweep]
sizes = 8 16 24
trainer = linear
"""

MLP_CFG = """
[experiment]
id = mlp
master_seed = 1
seeds = 0

[data]
source = synthetic
d = 8
n_train = 12
n_test = 6
alpha = 1.0
classes = 3
normalize = true

[whitening]
modes = none train

[model]
hidden = 8
activation = relu
init_variance = 0.01

[optimizer]
name = sgd
eta = 0.1
cutoff = 0.999
step_cap = 400
"""


def train(cfg, trainer, include_trajectory=True):
    """What train-linear / train-mlp run: the configured n_train, every arm and seed."""
    return sweep(cfg, trainer, [cfg.data["n_train"]], include_trajectory)


def sweep_terminal(cfg, workers=1):
    """What the sweep command runs: the [sweep] grid, terminal rows only."""
    return sweep(cfg, cfg.sweep["trainer"], cfg.sweep["sizes"], include_trajectory=False, workers=workers)


@pytest.fixture
def linear_cfg(tmp_path):
    path = tmp_path / "lin.cfg"
    path.write_text(LINEAR_CFG, encoding="utf-8")
    return parse_config(path)


@pytest.fixture
def mlp_cfg(tmp_path):
    path = tmp_path / "mlp.cfg"
    path.write_text(MLP_CFG, encoding="utf-8")
    return parse_config(path)


def test_seed_derivation_is_stable():
    a = derive_seed(5, "lin", 24, "none", 0)
    b = derive_seed(5, "lin", 24, "none", 0)
    assert a == b
    assert derive_seed(5, "lin", 24, "none", 1) != a
    assert derive_seed(5, "lin", 24, "train", 0) != a
    assert 0 <= a < 2**64


def test_train_rows_and_determinism(linear_cfg, tmp_path):
    rows1 = train(linear_cfg, "linear")
    rows2 = train(linear_cfg, "linear")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(p1, rows1)
    write_rows_csv(p2, rows2)
    assert p1.read_bytes() == p2.read_bytes()
    terminal = [r for r in rows1 if r.stopping_reason]
    assert len(terminal) == 3 * 2  # modes x seeds
    assert all(r.test_loss is not None for r in terminal)


def test_sweep_cardinality_and_order(linear_cfg):
    rows = sweep_terminal(linear_cfg)
    assert len(rows) == 3 * 3 * 2  # sizes x modes x seeds, terminal rows only
    keys = [(r.experiment_id, r.dataset_size, r.whitening_mode, r.seed) for r in rows]
    assert keys == sorted(keys)
    assert all(r.stopping_reason for r in rows)


def test_sweep_parallel_matches_serial(linear_cfg, tmp_path):
    serial = sweep_terminal(linear_cfg)
    parallel = sweep_terminal(linear_cfg, workers=2)
    pa, pb = tmp_path / "s.csv", tmp_path / "p.csv"
    write_rows_csv(pa, serial)
    write_rows_csv(pb, parallel)
    assert pa.read_bytes() == pb.read_bytes()


def test_mlp_runner_records_steps(mlp_cfg):
    rows = train(mlp_cfg, "mlp")
    terminal = [r for r in rows if r.stopping_reason]
    assert len(terminal) == 2
    for r in terminal:
        assert r.stopping_reason in ("cutoff", "cap")
        if r.stopping_reason == "cutoff":
            assert r.steps_to_cutoff == r.step_or_time


def test_row_reproducible_standalone(linear_cfg):
    rows = sweep_terminal(linear_cfg)
    target = rows[5]
    again = run_cell(
        plan_run(linear_cfg, "linear"), target.dataset_size, target.whitening_mode,
        target.seed, include_trajectory=False,
    )[-1]
    assert again.test_loss == target.test_loss
    assert again.step_or_time == target.step_or_time


def test_env_seed_override(linear_cfg, monkeypatch, tmp_path):
    rows_default = sweep_terminal(linear_cfg)
    monkeypatch.setenv("WHITEBENCH_SEED", "31337")
    rows_env = sweep_terminal(linear_cfg)
    monkeypatch.delenv("WHITEBENCH_SEED")
    a = [r.test_loss for r in rows_default]
    b = [r.test_loss for r in rows_env]
    assert a != b
    monkeypatch.setenv("WHITEBENCH_SEED", "seven")
    with pytest.raises(ConfigError, match="WHITEBENCH_SEED"):
        sweep_terminal(linear_cfg)


@pytest.mark.parametrize("size, edit, expected", [
    (8, None, {"svd": 2, "eigh": 1}),
    (24, None, {"eigh": 2}),
    (24, ("rank_policy = manual", "rank_policy = jitter"), {"eigh": 2}),
    (24, ("rank_policy = manual", "rank_policy = manual\ncenter = true"), {"eigh": 4}),
    (24, ("grid_points = 40", "grid_points = 40\ninit_variance = 0.01"), {"eigh": 3}),
], ids=["8", "24", "24-jitter", "24-center", "24-init"])
def test_decompositions_per_linear_cell(tmp_path, monkeypatch, size, edit, expected):
    # Counted per (size, seed) group of none, train and full cells. d = 12: size 8 is n < d, 24 is n > d.
    # The group decomposes F_train once (thin SVD, or eigh when n > d) for the none arm's flow. Uncentered
    # at W0 = 0, the train arm reads its modes off that decomposition, and at n > d so does the full arm,
    # with one eigh of C = I + Lambda^-1/2 V^T F_o V Lambda^-1/2 under either rank policy. At n < d the full
    # arm fits on its n + 20 > d columns (eigh) and decomposes its whitened train split once (thin SVD).
    # With W0 != 0 the full arm still fits (eigh of F_full) and decomposes M F_train M^T; centered, the
    # train arm fits its centered split too.
    from collections import Counter

    from whitebench.runner import _run_group

    path = tmp_path / "count.cfg"
    path.write_text(LINEAR_CFG if edit is None else LINEAR_CFG.replace(*edit), encoding="utf-8")
    calls = []
    for name in ("eigh", "svd"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    rows = _run_group((plan_run(parse_config(path), "linear"), size, 0, False))
    assert [r.whitening_mode for r in rows] == ["none", "train", "full"]
    assert all(r.stopping_reason != "error" for r in rows)
    assert Counter(calls) == expected


@pytest.mark.parametrize("d, n", [(40, 9), (9, 40), (12, 12)])
def test_normalize_scale_reads_the_top_eigenvalue_of_F(rng, d, n):
    from whitebench import Dataset, LabelSet, compute_F
    from whitebench.runner import _GroupDraw

    X = Dataset(rng.standard_normal((d, n)) * 3.0)
    Y = LabelSet(rng.standard_normal((2, n)))
    splits = {"train": (X, Y), "val": (Dataset(rng.standard_normal((d, 4))), Y)}
    top = float(np.linalg.eigvalsh(compute_F(X))[-1])
    out, factor = _normalized(_GroupDraw(0, splits))  # the top of the group's thin SVD (n <= d) or eigh (n > d)
    scale = out.splits["val"][0].values[0, 0] / splits["val"][0].values[0, 0]
    assert abs(scale - 1.0 / np.sqrt(top)) <= 1e-12 / np.sqrt(top)
    assert abs(factor - 1.0 / top) <= 1e-12 / top
    # the decomposition's top eigenvalue and eigvalsh's can differ in rounding: the golden val_loss tolerance
    assert np.allclose(out.splits["train"][0].values, (1.0 / np.sqrt(top)) * X.values, rtol=RELATIVE["val_loss"], atol=0.0)
    assert out.splits["train"][1] is Y
    # the scaled draw keeps (lambda / top, V): the modes of its own train split to rounding
    lam, V = out.train_modes.eigenvalues, out.train_modes.eigenvectors
    assert abs(lam[0] - 1.0) <= 1e-10
    F = compute_F(out.splits["train"][0])
    assert np.max(np.abs((V * lam) @ V.T - F)) <= 1e-10 * np.max(np.abs(F))


def test_normalized_group_decomposes_F_train_once(tmp_path, monkeypatch):
    # n = 24 > d = 12 with normalize = true: the scale and the scaled F_train and its modes all come
    # from one eigh of the raw F_train
    from whitebench import compute_F
    from whitebench.runner import _draw_group

    path = tmp_path / "norm.cfg"
    path.write_text(LINEAR_CFG.replace("classes = 3", "classes = 3\nnormalize = true"), encoding="utf-8")
    cfg = parse_config(path)
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    draw = _draw_group(plan_run(cfg, "linear"), 24, 0, False)
    X = draw.splits["train"][0]
    assert draw.train_modes.eigenvalues[0] == pytest.approx(1.0, rel=1e-14)
    assert calls == ["eigh"]
    F = compute_F(X)
    assert np.max(np.abs(draw.train_F - F)) <= 1e-14
    lam, V = draw.train_modes.eigenvalues, draw.train_modes.eigenvectors
    assert np.max(np.abs((V * lam) @ V.T - F)) <= 1e-13


def test_normalized_group_below_d_takes_one_thin_svd(tmp_path, monkeypatch):
    # n = 8 < d = 12 with normalize = true: the scale is s_1^2 of the group's thin SVD of the raw train split,
    # and the none and train flows read (lambda / top, U) off it, with no eigvalsh and no SVD of the scaled split
    from collections import Counter

    from whitebench.runner import _run_group

    path = tmp_path / "norm.cfg"
    text = LINEAR_CFG.replace("classes = 3", "classes = 3\nnormalize = true").replace("none train full", "none train")
    path.write_text(text, encoding="utf-8")
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    rows = _run_group((plan_run(parse_config(path), "linear"), 8, 0, False))
    assert [r.whitening_mode for r in rows] == ["none", "train"]
    assert all(r.stopping_reason != "error" for r in rows)
    assert Counter(calls) == {"svd": 1}


def test_whitening_gap_shrinks_with_sample_count():
    # qualitative trend: the train-whitened vs unwhitened early-stopped test
    # loss gap narrows as n/d grows
    import numpy as np

    from whitebench import apply_whitener, build_flow, early_stop, fit_whitener
    from whitebench.synth import SyntheticSpec, synthesize
    from whitebench.whitening import RankPolicy

    def gap_at(size):
        gaps = []
        for seed in range(6):
            spec = SyntheticSpec(
                d=64, n_train=size, n_val=128, n_test=512, alpha=2.0,
                label_noise=0.1, classes=10, encoding="one_hot",
                seed=seed * 7919 + size, teacher_seed=seed,
            )
            data = synthesize(spec)
            sol = build_flow(data.train, data.y_train)
            _, rec = early_stop(
                sol, data.val, data.y_val,
                extra_eval={"test_loss": (data.test, data.y_test)},
            )
            raw = rec.test_loss[rec.steps.index(rec.terminal_step)]
            W = fit_whitener(data.train, mode="pca", rank_policy=RankPolicy("manual"))
            sol_w = build_flow(apply_whitener(W, data.train), data.y_train)
            _, rec_w = early_stop(
                sol_w, apply_whitener(W, data.val), data.y_val,
                extra_eval={"test_loss": (apply_whitener(W, data.test), data.y_test)},
            )
            gaps.append(rec_w.test_loss[rec_w.steps.index(rec_w.terminal_step)] - raw)
        return float(np.mean(gaps))

    assert gap_at(1024) < gap_at(64)


FULL_WHITE_CFG = """
[experiment]
id = fw
seeds = 0 1

[data]
source = synthetic
d = 16
n_train = 6
n_val = 4
n_test = 4
spectrum = flat
classes = 10
label_noise = 0.0

[whitening]
modes = full
transform = pca
rank_policy = manual

[flow]
grid_points = 30
"""


def test_full_whitening_terminal_rows_at_half_loss(tmp_path):
    # n_train + n_val + n_test <= d: converged test loss is exactly 0.5
    path = tmp_path / "fw.cfg"
    path.write_text(FULL_WHITE_CFG, encoding="utf-8")
    cfg = parse_config(path)
    rows = train(cfg, "linear", include_trajectory=False)
    assert len(rows) == 2
    for r in rows:
        assert abs(r.test_loss - 0.5) <= 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_full_arm_predicts_nothing_while_its_fit_set_spans_at_most_d(seed):
    # null_regime.cfg at n = 256: 256 + 32 + 64 = 352 <= d = 512 whitened columns are orthonormal, so the
    # test predictions stay at W0 = 0's and the test loss is that of zero outputs on one-hot targets
    cfg = parse_config(Path(__file__).resolve().parent.parent / "experiments" / "null_regime.cfg")
    [row] = run_cell(plan_run(cfg, "linear", [256]), 256, "full", seed, include_trajectory=False)
    assert abs(row.test_loss - 0.5) <= 1e-12


def test_distribution_arm_runs(tmp_path):
    path = tmp_path / "dist.cfg"
    path.write_text(
        """
[experiment]
id = dist
seeds = 0

[data]
source = synthetic
d = 8
n_train = 20
n_val = 8
n_test = 8
classes = 3
label_noise = 0.1

[whitening]
modes = none distribution

[flow]
grid_points = 25
""",
        encoding="utf-8",
    )
    cfg = parse_config(path)
    rows = train(cfg, "linear", include_trajectory=False)
    modes = {r.whitening_mode for r in rows}
    assert modes == {"none", "distribution"}
    none_loss = next(r.test_loss for r in rows if r.whitening_mode == "none")
    dist_loss = next(r.test_loss for r in rows if r.whitening_mode == "distribution")
    assert none_loss != dist_loss


def _distribution_cell_splits(monkeypatch, data: dict, n: int, transform="pca"):
    """The whitened splits of one distribution-arm linear cell: its group's draw, captured before the flow, whitened."""
    from whitebench import runner
    from whitebench.runconfig import RunConfig

    cfg = RunConfig(experiment={"id": "dist"}, data={"classes": 3, "n_val": 8, "n_test": 8, **data},
                    whitening={"modes": ["distribution"], "transform": transform})
    captured = {}
    monkeypatch.setattr(runner, "_flow_rows", lambda plan, draw, mode, *rest: captured.update(plan=plan, draw=draw) or [])
    run_cell(plan_run(cfg, "linear", [n]), n, "distribution", 0, False)
    return runner.prepare_arm(captured["plan"], captured["draw"], "distribution")


def test_distribution_arm_whitens_a_large_sample(monkeypatch):
    # with the source's covariance, the whitened train F is near n * I (a second draw gave condition ~1e4)
    from whitebench import compute_F

    splits = _distribution_cell_splits(monkeypatch, {"d": 16, "alpha": 2.0}, 4000)
    eigenvalues = np.linalg.eigvalsh(compute_F(splits["train"][0]))
    assert eigenvalues[-1] / eigenvalues[0] <= 1.5


def test_distribution_cell_synthesizes_once(monkeypatch):
    from whitebench import runner

    calls = []
    original = runner.synthesize
    monkeypatch.setattr(runner, "synthesize", lambda spec, **kw: calls.append(spec) or original(spec, **kw))
    splits = _distribution_cell_splits(monkeypatch, {"d": 8}, 20)
    assert len(calls) == 1 and splits["train"][0].sample_count == 20


@pytest.mark.parametrize("transform", ["pca", "zca"])
@pytest.mark.parametrize("data", [{"d": 8}, {"d": 6, "spectrum": "custom", "eigenvalues": [0.5, 2, 1, 0.01, 3, 0.2]}])
def test_distribution_arm_does_not_depend_on_normalize(monkeypatch, transform, data):
    raw = _distribution_cell_splits(monkeypatch, data, 20, transform)
    scaled = _distribution_cell_splits(monkeypatch, {**data, "normalize": True}, 20, transform)
    for name, (X, Y) in raw.items():
        gap = np.max(np.abs(scaled[name][0].values - X.values)) / np.max(np.abs(X.values))
        assert gap <= 1e-12, name


def test_mlp_distribution_arm_runs(tmp_path):
    path = tmp_path / "mlp_dist.cfg"
    path.write_text(MLP_CFG.replace("modes = none train", "modes = distribution"), encoding="utf-8")
    rows = train(parse_config(path), "mlp", include_trajectory=False)
    assert [r.whitening_mode for r in rows] == ["distribution"]
    assert rows[0].stopping_reason in ("cutoff", "cap") and rows[0].test_loss is not None


def test_reg_lambda_list_is_a_gn_cell_axis(tmp_path):
    path = tmp_path / "gn.cfg"
    path.write_text(MLP_CFG.replace("name = sgd", "name = gn\nreg_lambda = 0.2 1"), encoding="utf-8")
    cfg = parse_config(path)
    plan = plan_run(cfg, "mlp", [12])
    assert [opt.reg_lambda for opt in plan.optimizers] == [0.2, 1.0]
    with pytest.raises(ConfigError, match="reg_lambda"):
        plan_run(cfg, "linear", [12])


ORBIT_CFG = """
[experiment]
id = orbit
master_seed = 3
seeds = 0 1

[data]
source = synthetic
d = 10
n_val = 12
n_test = 20
alpha = 1.5
label_noise = 0.3
classes = 4
normalize = {normalize}

[whitening]
modes = none train full distribution
transform = {transform}
center = {center}
rank_policy = {rank_policy}

[flow]
precondition = {precondition}
grid_points = 60
"""


@pytest.mark.parametrize(
    "transform, center, normalize, precondition, rank_policy",
    [
        ("pca", "false", "false", "none", "manual"),
        ("zca", "true", "false", "newton", "manual"),
        ("pca", "true", "true", "newton", "manual"),
        ("zca", "false", "true", "none", "jitter"),
    ],
)
def test_eigenbasis_rows_match_rotated_rows(tmp_path, monkeypatch, transform, center, normalize, precondition, rank_policy):
    # W0 = 0: the flow sees the data only through K = X^T X, so the unrotated draw moves rows by rounding
    # alone, held to the golden-row tolerances. Sizes 6, 10, 25 put n below, at and above d = 10.
    from whitebench import runner

    path = tmp_path / "orbit.cfg"
    path.write_text(ORBIT_CFG.format(transform=transform, center=center, normalize=normalize,
                                     precondition=precondition, rank_policy=rank_policy), encoding="utf-8")
    cfg = parse_config(path)
    eigenbasis = sweep(cfg, "linear", [6, 10, 25], include_trajectory=False)
    original = runner.synthesize
    monkeypatch.setattr(runner, "synthesize", lambda spec, **kw: original(spec))
    rotated = sweep(cfg, "linear", [6, 10, 25], include_trajectory=False)
    assert len(rotated) == 3 * 4 * 2
    for fast, slow in zip(eigenbasis, rotated):
        key = (slow.dataset_size, slow.whitening_mode, slow.seed)
        assert (fast.dataset_size, fast.whitening_mode, fast.seed) == key
        assert slow.stopping_reason not in (None, "error"), key
        assert (fast.test_error, fast.stopping_reason) == (slow.test_error, slow.stopping_reason), key
        for col, tol in RELATIVE.items():
            assert getattr(fast, col) == pytest.approx(getattr(slow, col), rel=tol, abs=0.0), (key, col)


@pytest.mark.parametrize("init", ["", "init_variance = 0.05\n"], ids=["W0_zero", "W0_random"])
def test_train_linear_terminal_row_is_the_sweep_row(tmp_path, init):
    # a sweep skips the held-out grid curves that train-linear writes, and its row is still train-linear's
    # terminal row to the byte: every arm, n = 6 and 25 on both sides of d = 10, W0 = 0 and W0 != 0
    path = tmp_path / "orbit.cfg"
    path.write_text(ORBIT_CFG.format(transform="zca", center="true", normalize="false", precondition="none",
                                     rank_policy="manual") + init, encoding="utf-8")
    cfg = parse_config(path)
    for size in (6, 25):
        rows = sweep(cfg, "linear", [size], include_trajectory=False)
        terminal = [r for r in sweep(cfg, "linear", [size], include_trajectory=True) if r.stopping_reason]
        assert {r.whitening_mode for r in rows} == {"none", "train", "full", "distribution"}
        assert all(r.stopping_reason != "error" for r in rows)
        assert [r.to_csv() for r in terminal] == [r.to_csv() for r in rows]


def test_loss_curves_per_linear_cell(linear_cfg, monkeypatch):
    # a sweep cell builds only the val curve, which picks t*; a train-linear cell adds the train and test curves
    from whitebench import linear_flow

    calls = []
    original = linear_flow._loss_curve
    monkeypatch.setattr(linear_flow, "_loss_curve", lambda *a: calls.append(a) or original(*a))
    assert len(sweep_terminal(linear_cfg)) == len(calls) == 3 * 3 * 2
    calls.clear()
    assert len([r for r in train(linear_cfg, "linear") if r.stopping_reason]) == 3 * 2
    assert len(calls) == 3 * 3 * 2


PLATEAU_CFG = """
[experiment]
id = plateau481
master_seed = 1
seeds = 0

[data]
source = synthetic
d = 24
n_val = 40
n_test = 80
alpha = 2.0
label_noise = 0.2
classes = 4
normalize = true

[whitening]
modes = full
transform = zca
center = true
rank_policy = jitter

[flow]
precondition = newton
"""


def test_flat_minimum_t_star_does_not_follow_the_rotation(tmp_path, monkeypatch):
    # under newton every rate is 1; this draw's val loss falls until the flow converges, so its minimum is flat
    # to rounding from t ~ 23 on. The rotated draw rounds differently from the eigenbasis draw, yet t*, the
    # earliest time of that flat minimum, is the same
    from whitebench import runner

    path = tmp_path / "plateau.cfg"
    path.write_text(PLATEAU_CFG, encoding="utf-8")
    cfg = parse_config(path)
    (eigenbasis,) = sweep(cfg, "linear", [200], include_trajectory=False)
    original = runner.synthesize
    monkeypatch.setattr(runner, "synthesize", lambda spec, **kw: original(spec))
    (rotated,) = sweep(cfg, "linear", [200], include_trajectory=False)
    assert rotated.stopping_reason == eigenbasis.stopping_reason == "early_stop"
    assert eigenbasis.step_or_time == pytest.approx(rotated.step_or_time, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("trainer, text, rotations_per_group", [
    ("linear", LINEAR_CFG, 0),
    ("linear", LINEAR_CFG.replace("precondition = none", "precondition = none\ninit_variance = 0.01"), 1),
    ("mlp", MLP_CFG, 1),
])
def test_only_rotation_sensitive_cells_draw_a_basis(tmp_path, monkeypatch, trainer, text, rotations_per_group):
    # counted per (size, seed) group: its arms share one draw
    from whitebench import synth

    path = tmp_path / "count.cfg"
    path.write_text(text, encoding="utf-8")
    cfg = parse_config(path)
    calls = []
    original = synth.random_orthogonal
    monkeypatch.setattr(synth, "random_orthogonal", lambda *a: calls.append(a) or original(*a))
    rows = sweep(cfg, trainer, [8, 12], include_trajectory=False)
    assert all(r.stopping_reason not in (None, "error") for r in rows)
    groups = 2 * len(cfg.get("experiment", "seeds"))
    assert len(rows) == groups * len(cfg.get("whitening", "modes"))
    assert len(calls) == rotations_per_group * groups


GN_CFG = MLP_CFG.replace("modes = none train", "modes = none train distribution").replace(
    "name = sgd", "name = gn\nreg_lambda = 0.2 1").replace("step_cap = 400", "step_cap = 20")


def test_one_draw_per_group(tmp_path, monkeypatch):
    # every arm and reg_lambda of a (size, seed) group trains on one draw; each is still its own run_cell
    from whitebench import runner

    path = tmp_path / "gn.cfg"
    path.write_text(GN_CFG, encoding="utf-8")
    draws, cells = [], []
    synthesize, cell = runner.synthesize, runner.run_cell
    monkeypatch.setattr(runner, "synthesize", lambda spec, **kw: draws.append(spec.n_train) or synthesize(spec, **kw))
    monkeypatch.setattr(runner, "run_cell", lambda *a, **kw: cells.append(a[1:3]) or cell(*a, **kw))
    rows = sweep(parse_config(path), "mlp", [8, 12], include_trajectory=False)
    assert len(rows) == 2 * 3 * 2 and all(r.stopping_reason != "error" for r in rows)
    assert sorted(draws) == [8, 12]
    assert len(cells) == len(rows)


@pytest.mark.parametrize("size", [8, 24])
def test_train_arm_whitens_the_none_arms_draw(mlp_cfg, monkeypatch, size):
    # the mlp trainer's arms are whitened copies of one dataset: each train-arm split is M @ the none arm's split
    # (d = 8: size 8 is n = d, 24 is n > d)
    from whitebench import runner

    captured, whiteners = {}, []
    whitener = runner._arm_whitener
    monkeypatch.setattr(runner, "_arm_whitener", lambda *a: whiteners.append(whitener(*a)) or whiteners[-1])
    monkeypatch.setattr(runner, "_mlp_rows", lambda plan, splits, base, *rest: captured.update(
        {base["whitening_mode"]: splits}) or [])
    sweep(mlp_cfg, "mlp", [size], include_trajectory=False)
    (W,) = whiteners
    for name, (X, Y) in captured["none"].items():
        assert np.array_equal(captured["train"][name][0].values, W.M @ X.values), name
        assert captured["train"][name][1] is Y


def test_linear_sweep_whitens_no_split(linear_cfg, monkeypatch):
    # the linear trainer folds each whitener into the flow: no split is multiplied by M
    from whitebench import runner

    calls = []
    apply = runner.apply_whitener
    monkeypatch.setattr(runner, "apply_whitener", lambda *a: calls.append(a) or apply(*a))
    rows = sweep_terminal(linear_cfg)
    assert len(rows) == 3 * 3 * 2 and all(r.stopping_reason != "error" for r in rows)
    assert calls == []


def test_mlp_arms_are_whitened_once_per_group(tmp_path, monkeypatch):
    # two reg_lambda share each group's whitened arms: 4 train and 4 distribution whiteners for 2 sizes x 2 seeds,
    # not 8 each, and the rows are those of cells run standalone, each of which whitens for itself
    from collections import Counter

    from whitebench import runner

    path = tmp_path / "gn.cfg"
    path.write_text(GN_CFG.replace("seeds = 0", "seeds = 0 1"), encoding="utf-8")
    cfg = parse_config(path)
    fits = Counter()
    whitener = runner._arm_whitener
    monkeypatch.setattr(runner, "_arm_whitener", lambda plan, draw, mode: fits.update([mode]) or whitener(plan, draw, mode))
    rows = sweep(cfg, "mlp", [12, 20], include_trajectory=False)
    assert fits == {"train": 4, "distribution": 4} and len(rows) == 2 * 2 * 3 * 2
    plan = plan_run(cfg, "mlp", [12, 20])
    alone = [row for r in rows for row in run_cell(plan, r.dataset_size, r.whitening_mode, r.seed, False,
                                                    next(o for o in plan.optimizers if o.reg_lambda == r.reg_lambda))]
    a, b = tmp_path / "sweep.csv", tmp_path / "alone.csv"
    write_rows_csv(a, rows)
    write_rows_csv(b, alone)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("n", [4, 9])
def test_all_zero_train_split_fails_only_the_whitened_cells(n):
    # d = 6: the none arm's flow has no moving mode and still writes its row; the train arm's whitener has no
    # spectrum to fit, whether its modes come from the group's thin SVD (n < d) or eigh (n > d)
    from whitebench import Dataset, LabelSet
    from whitebench.runconfig import RunConfig
    from whitebench.runner import _GroupDraw

    Y = LabelSet.from_class_ids(np.arange(n) % 3, 3)
    splits = {"train": (Dataset(np.zeros((6, n))), Y),
              "val": (Dataset(np.ones((6, 3))), LabelSet.from_class_ids([0, 1, 2], 3))}
    cfg = RunConfig(experiment={"id": "zero"}, data={"classes": 3, "n_val": 3}, whitening={"modes": ["none", "train"]})
    plan = plan_run(cfg, "linear")
    draw = _GroupDraw(0, splits)
    reasons = [run_cell(plan, n, mode, 0, False, None, draw)[-1].stopping_reason for mode in ("none", "train")]
    assert reasons[0] != "error" and reasons[1] == "error"


def test_failed_group_draw_is_an_error_row_per_cell(tmp_path, monkeypatch):
    # the first draw at size 8 fails: every (arm, reg_lambda) of that group writes an error row, later groups run
    from whitebench import runner
    from whitebench.errors import ValidationError

    path = tmp_path / "gn.cfg"
    path.write_text(GN_CFG, encoding="utf-8")
    failed = []
    synthesize = runner.synthesize

    def flaky(spec, **kw):
        if spec.n_train == 8 and not failed:
            failed.append(spec)
            raise ValidationError("draw failed")
        return synthesize(spec, **kw)

    monkeypatch.setattr(runner, "synthesize", flaky)
    rows = sweep(parse_config(path), "mlp", [8, 12], include_trajectory=False)
    reasons = {size: [r.stopping_reason for r in rows if r.dataset_size == size] for size in (8, 12)}
    assert reasons[8] == ["error"] * 6
    assert len(reasons[12]) == 6 and "error" not in reasons[12]
    assert {(r.whitening_mode, r.reg_lambda) for r in rows if r.dataset_size == 8} == {
        (mode, lam) for mode in ("none", "train", "distribution") for lam in (0.2, 1.0)}


def _product_scale(W: np.ndarray, X: np.ndarray) -> float:
    """max(1, |W| |X|) in max-abs entries: the rounding of W X, and of the W that a whitened split with
    jitter-scaled null directions (up to 1/sqrt(epsilon)) gives, is relative to this, not to |W X|."""
    return max(1.0, float(np.max(np.abs(W))) * float(np.max(np.abs(X))))


@given(
    st.integers(4, 7), st.sampled_from([-2, 0, 3]), st.sampled_from(WHITENING_MODES), st.sampled_from(RANK_POLICIES),
    st.booleans(), st.booleans(), st.sampled_from(PRECONDITIONS), st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_folded_arms_match_the_flow_of_whitened_splits(d, extra, transform, policy, center, init, precondition, seed):
    # every arm's flow on the raw (mean-shifted) splits, with the whitener folded in, against the reference:
    # apply_whitener, then build_flow and early_stop on the whitened splits. n < d, n = d and n > d.
    from whitebench import Dataset, LabelSet, apply_whitener, build_flow, early_stop, flow_at
    from whitebench.datatypes import Spectrum, random_orthogonal
    from whitebench.linear_flow import TimeGrid, mse_per_sample
    from whitebench.runconfig import RunConfig
    from whitebench.runner import _arm_flow, _arm_whitener, _GroupDraw

    n = d + extra
    rng = np.random.default_rng(seed)
    X = spaced_dataset(rng, d, n, min(d, n - 1 if center else n), offset=center)
    splits = {"train": (X, LabelSet.from_class_ids(rng.permutation(n) % 3, 3))}  # two classes at least: Y X_c^T != 0
    for name, count in (("val", 6), ("test", 9)):
        splits[name] = (Dataset(rng.standard_normal((d, count)) + 0.5), one_hot_labels(rng, 3, count))
    second_moment = Spectrum(n * np.sort(rng.uniform(0.1, 2.0, d))[::-1], random_orthogonal(d, rng))
    cfg = RunConfig(experiment={"id": "fold"}, data={"classes": 3, "n_val": 6},
                    whitening={"modes": ["none", "train", "full", "distribution"], "transform": transform,
                               "rank_policy": policy, "center": center},
                    flow={"precondition": precondition, "init_variance": 0.05 if init else 0.0})
    plan = plan_run(cfg, "linear")
    draw = _GroupDraw(0, splits, second_moment)
    for mode in ("none", "train", "full", "distribution"):
        W0 = np.sqrt(0.05) * rng.standard_normal((3, d)) if init else np.zeros((3, d))
        sol, raw = _arm_flow(plan, draw, mode, W0)
        W = None if mode == "none" else _arm_whitener(plan, draw, mode)
        white = {name: (Z if W is None else apply_whitener(W, Z), Y) for name, (Z, Y) in splits.items()}
        ref = build_flow(*white["train"], W0, precondition)
        for t in (0.0, 1.0 / ref.max_rate, 40.0 / ref.min_positive_rate):
            for name in splits:
                W_t, X_hat = flow_at(ref, t).W, white[name][0].values
                got = flow_at(sol, t).W @ raw[name][0].values
                assert np.max(np.abs(got - W_t @ X_hat)) <= 1e-9 * _product_scale(W_t, X_hat), (mode, name, t)
        rows = [early_stop(s, *z["val"], TimeGrid.default_for(s), extra_eval={"test_loss": z["test"]})[1]
                for s, z in ((sol, raw), (ref, white))]
        t_star = rows[0].terminal_step
        got, want = rows[0].at(t_star), rows[1].at(rows[1].terminal_step)
        assert (got["test_error"], rows[0].stopping_reason) == (want["test_error"], rows[1].stopping_reason), mode
        # t* is the root of the closed-form val slope, or the earliest time of a minimum flat to rounding, so both
        # computations find it. The reference is read at the fold's t*: it must give the fold's losses there, and
        # its val loss must be the reference's minimum. Jitter scales the directions outside the fit's span by up
        # to 1/sqrt(epsilon), which multiplies the reference's own rounding into relative errors near 1e-8 (at
        # most 1.9e-8 on held-out losses over 3000 draws), into t* errors near 1e-6 (at most 7.4e-7 over 356
        # arms) and into train losses at rounding level when the flow interpolates.
        loose = W is not None and policy == "jitter" and W.fit_rank < d
        assert t_star == pytest.approx(rows[1].terminal_step, rel=1e-5 if loose else 1e-9, abs=0.0), mode
        W_t = flow_at(ref, t_star).W
        for col, name in (("train_loss", "train"), ("val_loss", "val"), ("test_loss", "test")):
            expected = mse_per_sample(W_t @ white[name][0].values, white[name][1])
            rel, floor = (1e-6, 1e-12) if loose else (RELATIVE[col], 0.0)
            assert got[col] == pytest.approx(expected, rel=rel, abs=floor), (mode, col)
        assert got["val_loss"] <= want["val_loss"] * (1.0 + (1e-6 if loose else RELATIVE["val_loss"])), mode


def _m_path_flow(plan, draw, W0):
    """The `full` arm's flow by its fitted whitener M: eigh of M F_train M^T, U = M^T V-hat (n > d, uncentered)."""
    from whitebench import build_flow
    from whitebench.datatypes import eigh, symmetrize
    from whitebench.runner import _arm_whitener

    M = _arm_whitener(plan, draw, "full").M
    modes = eigh(symmetrize(M @ draw.train_F @ M.T))
    return build_flow(*draw.splits["train"], W0, plan.cfg.get("flow", "precondition"), modes, fold=(M, None))


@given(
    st.integers(3, 24), st.sampled_from(["d+1", "d+8", "4d"]), st.sampled_from(WHITENING_MODES),
    st.sampled_from(["manual", "jitter", "jitter 1e-3"]), st.sampled_from(PRECONDITIONS), st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_full_arm_modes_off_the_groups_eigh_match_the_m_path(d, size, transform, policy, precondition, normalize, seed):
    # the uncentered full arm at W0 = 0 and n > d reads its modes off the group's eigh of F_train
    # (`full_whitened_modes`), with no fit and no M: its rows are the M path's to rounding
    from whitebench.linear_flow import TimeGrid, early_stop
    from whitebench.runconfig import RunConfig
    from whitebench.runner import _arm_flow, _draw_group
    from whitebench.whitening import full_whitened_modes

    kind, *epsilon = policy.split()
    n = {"d+1": d + 1, "d+8": d + 8, "4d": 4 * d}[size]
    cfg = RunConfig(experiment={"id": "modes", "master_seed": seed % 1000},
                    data={"d": d, "n_val": 7, "n_test": 11, "classes": 3, "label_noise": 0.1, "normalize": normalize},
                    whitening={"modes": ["none", "full"], "transform": transform, "rank_policy": kind,
                               **({"jitter_epsilon": float(epsilon[0])} if epsilon else {})},
                    flow={"precondition": precondition})
    plan = plan_run(cfg, "linear")
    draw = _draw_group(plan, n, seed // 1000 % 1000, False)
    others = [X.values for name, (X, _) in draw.splits.items() if name != "train"]
    assert full_whitened_modes(draw.train_modes, others, plan.rank_policy) is not None  # the path is taken
    W0 = np.zeros((3, d))
    sol, splits = _arm_flow(plan, draw, "full", W0)
    ref = _m_path_flow(plan, draw, W0)
    rows = [early_stop(s, *splits["val"], TimeGrid.default_for(s, 200), extra_eval={"test_loss": splits["test"]})[1]
            for s in (sol, ref)]
    got, want = (r.at(r.terminal_step) for r in rows)
    assert (got["test_error"], rows[0].stopping_reason) == (want["test_error"], rows[1].stopping_reason)
    assert rows[0].terminal_step == pytest.approx(rows[1].terminal_step, rel=1e-8, abs=0.0)
    for col in ("train_loss", "val_loss", "test_loss"):
        assert got[col] == pytest.approx(want[col], rel=1e-8, abs=0.0), col


def test_full_arm_that_fails_the_bound_keeps_the_m_path(tmp_path, monkeypatch):
    # a zero population eigenvalue leaves F_train (and F_full) singular at n > d, so the bound fails: the full
    # arm fits and folds M as before, and its rows are those of a run whose helper is never consulted
    from whitebench import runner

    cfg_text = LINEAR_CFG.replace("alpha = 2.0", "spectrum = custom\neigenvalues = 1 0.5 0.3 0.2 0.1 0.05 0.04 0.03 "
                                  "0.02 0.01 0.005 0")
    path = tmp_path / "singular.cfg"
    path.write_text(cfg_text, encoding="utf-8")
    cfg = parse_config(path)
    found = []
    helper = runner.full_whitened_modes
    monkeypatch.setattr(runner, "full_whitened_modes", lambda *a: found.append(helper(*a)) or found[-1])
    rows = sweep(cfg, "linear", [24, 40], include_trajectory=False)
    assert len(found) == 4 and all(f is None for f in found)
    assert all(r.stopping_reason != "error" for r in rows)
    monkeypatch.setattr(runner, "full_whitened_modes", lambda *a: None)
    a, b = tmp_path / "bound.csv", tmp_path / "m_path.csv"
    write_rows_csv(a, rows)
    write_rows_csv(b, sweep(cfg, "linear", [24, 40], include_trajectory=False))
    assert a.read_bytes() == b.read_bytes()
