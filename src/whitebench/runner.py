"""Experiment execution: one run loop over (size, seed) groups of (whitening arm, reg_lambda) cells.

A group draws once, seeded by the 64-bit hash `derive_seed` gives its `none`
arm, and every arm and lambda trains on whitened copies of that draw from the
same initial weights. So rows are reproducible standalone and sweep output is
independent of worker scheduling (rows are post-sorted). The `distribution`
arm whitens with the source's E[F_train] = n_train * Sigma of that draw; a centered arm has its own draw, less its
fit set's mean. From W0 = 0 the linear trainer reads a whitened arm's modes off a decomposition; every other arm's
splits are whitened once per group, for both trainers.
"""
from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from .datatypes import Dataset, LabelSet, Spectrum, compute_F, eigh, gram_modes, hstack_datasets
from .errors import ConfigError, ValidationError, WhitebenchError
from .linear_flow import TimeGrid, build_flow, early_stop
from .models import init_isotropic, train_to_cutoff
from .optimizers import OptimizerConfig
from .records import TrainRecord
from .runconfig import RunConfig
from .synth import SyntheticSpec, synthesize
from .whitening import (RankPolicy, Whitener, apply_whitener, center_on, fit_whitener, full_whitened_modes,
                        population_whitener, whitened_modes)
from . import dataio


@dataclass
class ResultRow:
    experiment_id: str
    seed: int
    dataset_size: int
    whitening_mode: str
    optimizer: str
    step_or_time: float | int | None = None
    train_loss: float | None = None
    val_loss: float | None = None
    test_loss: float | None = None
    test_error: float | None = None
    steps_to_cutoff: int | None = None
    stopping_reason: str = ""
    reg_lambda: float | None = None  # set for gn rows only
    steps_to_best_val: int | None = None

    def to_csv(self) -> list:
        out = []
        for col in RESULT_COLUMNS:
            v = getattr(self, col)
            out.append("" if v is None else (repr(v) if isinstance(v, float) else str(v)))
        return out

    def sort_key(self):
        return (self.experiment_id, self.dataset_size, self.whitening_mode, _as_float(self.reg_lambda), self.seed,
                _as_float(self.step_or_time))


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))
_ROW_METRICS = ("train_loss", "val_loss", "test_loss", "test_error")


def _as_float(v):
    return float("inf") if v is None else float(v)


def derive_seed(master_seed: int, experiment_id: str, dataset_size: int, whitening_mode: str, seed_index: int) -> int:
    """Stable 64-bit run seed (sha256 of the canonical tuple string); every arm of a group takes the `none` arm's."""
    text = f"{master_seed}|{experiment_id}|{dataset_size}|{whitening_mode}|{seed_index}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def write_rows_csv(path, rows):
    with dataio.open_in_place(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow(row.to_csv())


def _record_rows(base: dict, record: TrainRecord, include_trajectory: bool) -> list:
    """Rows of one cell: each recorded step (optional), then the terminal row.

    `base` holds the identifying columns. A record with no steps gives one
    row with only its stopping reason.
    """
    rows = []
    if include_trajectory:
        series = {name: getattr(record, name) for name in _ROW_METRICS}
        for i, step in enumerate(record.steps):
            metrics = {name: values[i] if values else None for name, values in series.items()}
            rows.append(ResultRow(**base, step_or_time=step, **metrics))
    final = record.at(record.terminal_step) if record.steps else {}
    metrics = {name: final.get(name) for name in _ROW_METRICS}
    rows.append(
        ResultRow(
            **base,
            step_or_time=record.terminal_step,
            **metrics,
            steps_to_cutoff=record.metadata.get("steps_to_cutoff"),
            stopping_reason=record.stopping_reason,
            steps_to_best_val=record.metadata.get("steps_to_best_val"),
        )
    )
    return rows


@dataclass(frozen=True)
class RunPlan:
    """What every cell of one run shares, built from the config before any cell runs."""

    cfg: RunConfig
    trainer: str
    master_seed: int
    rank_policy: RankPolicy
    optimizers: tuple  # one OptimizerConfig per [optimizer] reg_lambda value
    grid: TimeGrid | None  # fixed flow grid when [flow] t_min/t_max are set, else per cell
    files: dict | None  # the labelled splits of a file source, read once; None for synthetic data
    sizes: tuple  # the dataset sizes, with an unset train-* n_train resolved


def plan_run(cfg: RunConfig, trainer: str, sizes: list = ()) -> RunPlan:
    """Check what only the config decides, so a bad value fails before any cell.

    A size of None (an unset train-* n_train) means 128 synthetic samples or
    every train column of a file source.
    """
    cfg.check_takes_effect(trainer)
    data = cfg.data
    synthetic = cfg.get("data", "source") == "synthetic"
    if not synthetic and "train" not in data:
        raise ConfigError("file data source needs at least a train path")
    if trainer == "linear" and not (cfg.get("data", "n_val") > 0 if synthetic else "val" in data):
        raise ConfigError("the linear trainer early-stops on validation loss: [data] needs n_val > 0 or a val path")
    if "distribution" in cfg.get("whitening", "modes") and not synthetic:
        raise ConfigError("the distribution arm whitens with the synthetic source's covariance; file data has none")
    env_seed = os.environ.get("WHITEBENCH_SEED")
    try:
        master_seed = int(env_seed) if env_seed else cfg.get("experiment", "master_seed")
    except ValueError:
        raise ConfigError(f"WHITEBENCH_SEED must be an integer, got {env_seed!r}") from None
    if synthetic:
        try:
            _synthetic_spec(cfg, 1, cfg.get("data", "n_val"), cfg.get("data", "n_test"), master_seed, 0)
        except ValidationError as exc:
            raise ConfigError(f"bad [data] value: {exc}") from None
    flow = partial(cfg.get, "flow")
    grid = TimeGrid(flow("t_min"), flow("t_max"), flow("grid_points")) if "t_min" in cfg.flow else None
    files = None if synthetic else _load_file_splits(cfg)
    if trainer == "mlp" and (cfg.get("data", "encoding") if synthetic else files["train"][1].encoding) != "one_hot":
        labels = "[data] encoding = real_valued" if synthetic else f"the train file {data['train']} has real-valued targets"
        raise ConfigError(f"the mlp trainer trains to an accuracy cutoff, which needs one-hot labels, but {labels}")
    full = files["train"][0].sample_count if files else 128
    sizes = tuple(full if size is None else size for size in sizes)
    if files and any(size > full for size in sizes):
        raise ConfigError(f"size {max(sizes)} exceeds the {full} train samples of {data['train']}")
    opt = partial(cfg.get, "optimizer")
    optimizers = tuple(
        OptimizerConfig(eta=opt("eta"), reg_lambda=lam, batch_size=opt("batch_size"), cg_tol=opt("cg_tol"),
                        line_search_step=opt("initial_step"))
        for lam in opt("reg_lambda")
    )
    rank_policy = RankPolicy(cfg.get("whitening", "rank_policy"), cfg.get("whitening", "jitter_epsilon"))
    return RunPlan(cfg=cfg, trainer=trainer, master_seed=master_seed, rank_policy=rank_policy,
                   optimizers=optimizers, grid=grid, files=files, sizes=sizes)


def _load_file_splits(cfg: RunConfig) -> dict:
    """Read the train/val/test files of a file source; every split needs labels and the train file's features.

    One-hot splits are padded with zero rows to the widest split's class
    count (a val file may lack the largest class ids); real-valued targets
    of different widths are an error.
    """
    data = cfg.data
    splits = {}
    for name in ("train", "val", "test"):
        if name not in data:
            continue
        path = data[name]
        X, Y = dataio.ingest(path)
        if Y is None:
            companion = dataio.label_companion_path(path)
            needs = "label or y0.. columns" if dataio.format_of(path) == "csv" else f"the label companion {companion}"
            raise ValidationError(f"{path}: no labels; a run needs {needs}")
        splits[name] = (X, Y)
    widest = max(splits, key=lambda name: splits[name][1].output_dim)
    width, d = splits[widest][1].output_dim, splits["train"][0].feature_dim
    for name, (X, Y) in list(splits.items()):
        if X.feature_dim != d:
            raise ValidationError(f"{data[name]} has {X.feature_dim} features but {data['train']} has {d}")
        pad = width - Y.output_dim
        if pad and Y.encoding != "one_hot":
            raise ValidationError(f"{data[name]} has {Y.output_dim} target rows but {data[widest]} has {width}")
        splits[name] = (X, LabelSet(np.pad(Y.targets, ((0, pad), (0, 0))), encoding=Y.encoding))
    return splits


def _subsample_train(splits: dict, size: int, run_seed: int) -> dict:
    """`size` train columns drawn by the run seed, in file order (all of them at the file's count)."""
    X, Y = splits["train"]
    cols = np.sort(np.random.default_rng(run_seed).choice(X.sample_count, size, replace=False))
    train = (Dataset(X.values[:, cols]), LabelSet(Y.targets[:, cols], encoding=Y.encoding))
    return {**splits, "train": train}


def _synthetic_spec(cfg: RunConfig, n_train: int, n_val: int, n_test: int, master_seed: int, run_seed: int):
    data = partial(cfg.get, "data")
    return SyntheticSpec(
        d=data("d"),
        n_train=n_train,
        n_val=n_val,
        n_test=n_test,
        spectrum=data("spectrum"),
        alpha=data("alpha"),
        custom_eigenvalues=None if data("eigenvalues") is None else tuple(data("eigenvalues")),
        teacher_seed=master_seed if data("teacher_seed") is None else data("teacher_seed"),
        label_noise=data("label_noise"),
        classes=data("classes"),
        encoding=data("encoding"),
        seed=run_seed,
    )


def _split_sizes(cfg: RunConfig, dataset_size: int):
    """Map a grid size to (n_train, n_val, n_test) per the size convention."""
    n_val = cfg.get("data", "n_val")
    if cfg.get("experiment", "size_convention") == "joint":
        n_train = max(1, int(round(dataset_size * 0.8)))
        return n_train, n_val, max(1, dataset_size - n_train)
    return dataset_size, n_val, cfg.get("data", "n_test")


@dataclass
class _GroupDraw:
    """One (size, seed) group's draw, shared by its every arm and reg_lambda."""

    seed: int
    splits: dict  # normalized if the config asks
    second_moment: Spectrum | None = None  # the source's E[F_train] in the splits' scale, if drawn with `population`
    arms: dict = field(default_factory=dict)  # the mlp trainer's whitened splits per arm

    @cached_property
    def train_F(self) -> np.ndarray | None:
        X = self.splits["train"][0]
        return compute_F(X) if X.sample_count > X.feature_dim else None  # only when n > d

    @cached_property
    def train_modes(self) -> Spectrum:
        """Every eigenpair of F_train from the smaller side (eigh of the cached F when n > d)."""
        return gram_modes(self.splits["train"][0], None, self.train_F)


def _draw_group(plan: RunPlan, dataset_size: int, seed_index: int, population: bool) -> _GroupDraw:
    """Synthesize a group's splits (or subsample the file's train split) with the `none` arm's seed, then normalize.

    A linear flow from W0 = 0 sees its data only through K = X^T X, which rotating the inputs does
    not change (the orbit theorem), so such a group draws in the covariance eigenbasis: B = I.
    A seeded W0 or MLP init is not rotation-invariant, so those groups keep the rotated draw.
    """
    cfg = plan.cfg
    seed = derive_seed(plan.master_seed, cfg.experiment_id, dataset_size, "none", seed_index)
    if plan.files is None:
        spec = _synthetic_spec(cfg, *_split_sizes(cfg, dataset_size), plan.master_seed, seed)
        drawn = synthesize(spec, rotate=plan.trainer != "linear" or cfg.get("flow", "init_variance") > 0)
        named = (("train", drawn.train, drawn.y_train), ("val", drawn.val, drawn.y_val), ("test", drawn.test, drawn.y_test))
        splits = {name: (X, Y) for name, X, Y in named if X is not None}
    else:
        splits = _subsample_train(plan.files, dataset_size, seed)
    draw, factor = _GroupDraw(seed, splits), 1.0
    if cfg.get("data", "normalize"):
        draw, factor = _normalized(draw)
    if not population:  # file data has no population second moment: plan_run rejects that arm there
        return draw
    eigenvalues = spec.eigenvalues()
    order = np.argsort(-eigenvalues, kind="stable")  # a custom spectrum may be unsorted
    basis = np.eye(spec.d) if drawn.basis is None else drawn.basis
    draw.second_moment = Spectrum(factor * (spec.n_train * eigenvalues[order]), basis[:, order])
    return draw


def _arm_draw(plan: RunPlan, draw: _GroupDraw, mode: str) -> _GroupDraw:
    """The draw a whitened arm trains on: under `center`, a `train` or `full` arm's own draw of the group's splits
    less the mean of its fit set (the train split, or every split), which caches its own F_train and modes."""
    if not plan.cfg.get("whitening", "center") or mode not in ("train", "full"):
        return draw
    fit = draw.splits["train"][0] if mode == "train" else hstack_datasets(*[X for X, _ in draw.splits.values()])
    centered = center_on(fit, *[X for X, _ in draw.splits.values()])
    return _GroupDraw(draw.seed, {name: (X, Y) for (name, (_, Y)), X in zip(draw.splits.items(), centered)})


def _arm_whitener(plan: RunPlan, draw: _GroupDraw, mode: str) -> Whitener:
    """`train` fits on the arm draw's train split, `full` on all its splits; `distribution` whitens with the
    source's E[F_train]. At n > d, `train` takes the draw's eigh of F_train and `full` the eigh of F_train + X_s X_s^T
    over the other splits: no stacked copy."""
    transform, policy = plan.cfg.get("whitening", "transform"), plan.rank_policy
    if mode == "distribution":
        return population_whitener(draw.second_moment, transform, policy)
    if draw.train_F is not None:
        others = (compute_F(X) for name, (X, _) in draw.splits.items() if name != "train")  # summed for `full` only
        second_moment = draw.train_modes if mode == "train" else eigh(draw.train_F + sum(others))
        return population_whitener(second_moment, transform, policy)
    X = draw.splits["train"][0] if mode == "train" else hstack_datasets(*[X for X, _ in draw.splits.values()])
    return fit_whitener(X, transform, policy)


def prepare_arm(plan: RunPlan, draw: _GroupDraw, mode: str) -> dict:
    """One arm's splits (none/train/full/distribution), whitened once per group: the mlp trainer's, and the linear's."""
    if mode != "none" and mode not in draw.arms:
        arm = _arm_draw(plan, draw, mode)
        W = _arm_whitener(plan, arm, mode)
        draw.arms[mode] = {name: (apply_whitener(W, X), Y) for name, (X, Y) in arm.splits.items()}
    return draw.arms.get(mode, draw.splits)


def _normalized(draw: _GroupDraw):
    """The draw with every split rescaled by the train top eigenvalue (unit top mode), and 1/top, which takes a
    second moment to the new scale (1 when top = 0). The top is that of the group's one decomposition of F_train
    (thin SVD when n <= d, eigh when n > d), and the scaled draw caches lambda/top with the same vectors (and
    F/top at n > d), its splits' modes (and F_train) to rounding: no second decomposition."""
    modes = draw.train_modes
    top = float(modes.eigenvalues[0])
    if top <= 0:
        return draw, 1.0
    scale = 1.0 / np.sqrt(top)
    scaled = _GroupDraw(draw.seed, {name: (Dataset(scale * X.values), Y) for name, (X, Y) in draw.splits.items()})
    # a cached_property takes a plain write
    scaled.train_F = None if draw.train_F is None else draw.train_F / top
    scaled.train_modes = Spectrum(modes.eigenvalues / top, modes.eigenvectors)
    return scaled, 1.0 / top


def _arm_flow(plan: RunPlan, draw: _GroupDraw, mode: str, W0: np.ndarray):
    """One arm's linear flow and the splits it predicts on.

    From W0 = 0 the flow reads the whitener M only through M^T M, so `train` and `full` take their modes off a
    decomposition of the arm's draw, in its coordinates, with no fit and no M: `train` by `whitened_modes` of the
    draw's F_train modes, `full` by `full_whitened_modes` (with the draw's eigh of F_train at n > d) unless F_full
    is not proven full-rank. Every other arm trains on the whitened splits of `prepare_arm`.
    """
    precondition = plan.cfg.get("flow", "precondition")
    if mode == "none":
        return build_flow(*draw.splits["train"], W0, precondition, modes=draw.train_modes), draw.splits
    if not W0.any() and mode != "distribution":
        arm = _arm_draw(plan, draw, mode)
        if mode == "train":
            modes = whitened_modes(arm.train_modes, plan.rank_policy)
        else:
            others = [X.values for name, (X, _) in arm.splits.items() if name != "train"]
            modes = full_whitened_modes(arm.splits["train"][0].values, others, plan.rank_policy,
                                        None if arm.train_F is None else arm.train_modes)
        if modes is not None:
            return build_flow(*arm.splits["train"], W0, precondition, modes), arm.splits
    splits = prepare_arm(plan, draw, mode)
    return build_flow(*splits["train"], W0, precondition), splits


def _flow_rows(plan: RunPlan, draw: _GroupDraw, mode: str, base: dict, include_trajectory: bool):
    Xtr, Ytr = draw.splits["train"]
    var, shape = plan.cfg.get("flow", "init_variance"), (Ytr.output_dim, Xtr.feature_dim)
    W0 = np.sqrt(var) * np.random.default_rng(draw.seed).standard_normal(shape) if var > 0 else np.zeros(shape)
    sol, splits = _arm_flow(plan, draw, mode, W0)
    grid = plan.grid or TimeGrid.default_for(sol, plan.cfg.get("flow", "grid_points"))
    _, record = early_stop(sol, *splits["val"], grid, test=splits.get("test"), trajectory=include_trajectory)
    return _record_rows(base, record, include_trajectory)


def _mlp_rows(plan: RunPlan, splits: dict, base: dict, run_seed: int, include_trajectory: bool, optimizer):
    Xtr, Ytr = splits["train"]
    model_cfg = partial(plan.cfg.get, "model")
    opt_cfg = partial(plan.cfg.get, "optimizer")
    model = init_isotropic(
        [Xtr.feature_dim] + model_cfg("hidden") + [Ytr.output_dim],
        variance=model_cfg("init_variance"),
        seed=run_seed,
        activation=model_cfg("activation"),
        output_head=model_cfg("head"),
        deeper_biases=model_cfg("biases"),
    )
    record = train_to_cutoff(
        model, Xtr, Ytr, optimizer,
        optimizer=base["optimizer"],
        cutoff=opt_cfg("cutoff"),
        step_cap=opt_cfg("step_cap"),
        seed=run_seed,
        val=splits.get("val"), test=splits.get("test"),
        record_every=opt_cfg("record_every"),
        metadata={"whitening_mode": base["whitening_mode"]},
    )
    return _record_rows(base, record, include_trajectory)


def run_cell(plan: RunPlan, dataset_size: int, mode: str, seed_index: int, include_trajectory: bool, optimizer=None,
             draw=None):
    """One (size, whitening mode, optimizer, seed) cell; a failure of the data becomes an 'error' row.

    `optimizer` is one of plan.optimizers (default the first). `draw` is the group's draw or the
    WhitebenchError it raised; a standalone cell makes the group's draw itself.
    """
    cfg = plan.cfg
    optimizer = optimizer or plan.optimizers[0]
    # every row of the cell, an error row too, reports n_train and the cell's optimizer label
    n_train = _split_sizes(cfg, dataset_size)[0]
    label = "flow_" + cfg.get("flow", "precondition") if plan.trainer == "linear" else cfg.get("optimizer", "name")
    base = dict(experiment_id=cfg.experiment_id, seed=seed_index, dataset_size=n_train, whitening_mode=mode,
                optimizer=label)
    if label == "gn":
        base["reg_lambda"] = optimizer.reg_lambda
    try:
        if draw is None:
            draw = _draw_group(plan, dataset_size, seed_index, mode == "distribution")
        elif isinstance(draw, WhitebenchError):
            raise draw
        if plan.trainer == "linear":
            return _flow_rows(plan, draw, mode, base, include_trajectory)
        return _mlp_rows(plan, prepare_arm(plan, draw, mode), base, draw.seed, include_trajectory, optimizer)
    except WhitebenchError:
        return _record_rows(base, TrainRecord(stopping_reason="error"), False)


def _run_group(args):
    """The cells of one (size, seed) group: every arm and reg_lambda on its one draw."""
    plan, size, seed_index, include_trajectory = args
    modes = plan.cfg.get("whitening", "modes")
    try:
        draw = _draw_group(plan, size, seed_index, "distribution" in modes)
    except WhitebenchError as exc:
        draw = exc  # every cell of the group writes an error row
    return [row for mode in modes for optimizer in plan.optimizers
            for row in run_cell(plan, size, mode, seed_index, include_trajectory, optimizer, draw)]


def sweep(cfg: RunConfig, trainer: str, sizes: list, include_trajectory: bool, workers: int = 1):
    """Rows of every size x whitening mode x reg_lambda x seed cell, sorted.

    The config is checked and its shared objects built before any cell runs. Workers take (size, seed) groups.
    """
    if not sizes:
        raise ConfigError("[sweep] needs a sizes list")
    plan = plan_run(cfg, trainer, sizes)
    groups = [(plan, size, idx, include_trajectory) for size in plan.sizes for idx in cfg.get("experiment", "seeds")]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep pays for this import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_group, groups))
    else:
        chunks = map(_run_group, groups)
    return sorted((row for chunk in chunks for row in chunk), key=ResultRow.sort_key)
