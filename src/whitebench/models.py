"""Linear models and small MLPs with a dense, bias-free first layer.

The first layer is always Z = W X with no bias, so the first-layer gradient
is exactly (dL/dZ) X^T and training touches the inputs only through Gram
matrices. Losses follow the summed convention (1/2 sum of squares, summed
cross entropy); reported metrics are per-sample averages.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datatypes import Dataset, LabelSet, check_split
from .errors import ShapeError, ValidationError
from .records import TrainRecord

ACTIVATIONS = ("relu", "tanh")
OUTPUT_HEADS = ("linear_mse", "softmax_xent")
#: step rules train_to_cutoff can use: SGD and regularized Gauss-Newton
OPTIMIZERS = ("sgd", "gn")


def _act(name, Z):
    return np.maximum(Z, 0.0) if name == "relu" else np.tanh(Z)


def _act_deriv(name, Z):
    if name == "relu":
        return (Z > 0.0).astype(np.float64)
    t = np.tanh(Z)
    return 1.0 - t * t


def softmax_columns(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-2, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-2, keepdims=True)


def _total(a: np.ndarray):
    """Sum over the last two axes: a float for one model, an m-vector for a stack."""
    return float(np.sum(a)) if a.ndim == 2 else np.sum(a, axis=(-2, -1))


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Argmax match fraction; ties break toward the lowest class index."""
    return float(np.mean(np.argmax(predictions, axis=0) == np.argmax(targets, axis=0)))


@dataclass
class MLP:
    """Feed-forward net: hidden layers with `activation`, linear output layer.

    weights[l] maps layer_sizes[l] -> layer_sizes[l+1]. biases[0] is always
    None; deeper biases are optional and default off so the update algebra
    stays exact for the equivariance checks.

    Weights may carry a leading stack axis (m x out x in): m independent
    models, with inputs d x n or m x d x n and an m-vector loss. sgd_step
    steps a stack; regularized_gn_step and train_to_cutoff reject one.
    """

    weights: list
    biases: list
    activation: str = "relu"
    output_head: str = "linear_mse"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")
        if self.output_head not in OUTPUT_HEADS:
            raise ValidationError(f"unknown output head {self.output_head!r}")
        if self.biases[0] is not None:
            raise ValidationError("first layer must be bias-free (Z = W X)")
        for W in self.weights:
            if not np.all(np.isfinite(W)):
                raise ValidationError("weights must be finite")

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[-1]] + [W.shape[-2] for W in self.weights]

    @property
    def stacked(self) -> bool:
        return self.weights[0].ndim > 2

    @property
    def depth(self) -> int:
        return len(self.weights)

    def trainable(self) -> list:
        """Parameter arrays in a fixed order: weights then active biases."""
        return list(self.weights) + [b for b in self.biases if b is not None]

    def copy(self) -> "MLP":
        return MLP(
            weights=[W.copy() for W in self.weights],
            biases=[None if b is None else b.copy() for b in self.biases],
            activation=self.activation,
            output_head=self.output_head,
        )

    # -- forward / backward -------------------------------------------------

    def forward(self, X: np.ndarray):
        """Predictions (logits for the softmax head) plus backprop cache."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-2] != self.layer_sizes[0]:
            raise ShapeError(
                f"model expects {self.layer_sizes[0]} features, got {X.shape[-2]}"
            )
        A = X
        pre = []
        inputs = []
        for l, W in enumerate(self.weights):
            inputs.append(A)
            Z = W @ A
            if self.biases[l] is not None:
                Z = Z + self.biases[l][..., None]
            pre.append(Z)
            A = _act(self.activation, Z) if l < self.depth - 1 else Z
        return A, {"pre": pre, "inputs": inputs, "X": X}

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]

    def loss_value(self, predictions: np.ndarray, targets: np.ndarray):
        if self.output_head == "linear_mse":
            diff = predictions - targets
            return 0.5 * _total(diff * diff)
        top = predictions.max(axis=-2, keepdims=True)
        lse = np.log(np.sum(np.exp(predictions - top), axis=-2, keepdims=True)) + top
        return _total(lse * targets.sum(axis=-2, keepdims=True)) - _total(targets * predictions)

    def loss_grad(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        if self.output_head == "linear_mse":
            return predictions - targets
        p = softmax_columns(predictions)
        return p * targets.sum(axis=-2, keepdims=True) - targets

    def output_hessian_apply(
        self, predictions: np.ndarray, U: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Apply the per-sample loss Hessian (in prediction space) to U."""
        if self.output_head == "linear_mse":
            return U
        p = softmax_columns(predictions)
        scale = targets.sum(axis=-2, keepdims=True)
        return scale * (p * U - p * np.sum(p * U, axis=-2, keepdims=True))

    def grads_from(self, cache: dict, dPred: np.ndarray):
        """Backpropagate an output cotangent; returns grads aligned with trainable().

        The aux dict carries dL/dZ of the first layer so the activation
        recursion Z' = Z - eta (dL/dZ) K can be checked directly.
        """
        dZ = dPred
        weight_grads = [None] * self.depth
        bias_grads = [None] * self.depth
        for l in range(self.depth - 1, -1, -1):
            weight_grads[l] = dZ @ np.swapaxes(cache["inputs"][l], -1, -2)
            if self.biases[l] is not None:
                bias_grads[l] = dZ.sum(axis=-1)
            if l > 0:
                dA = np.swapaxes(self.weights[l], -1, -2) @ dZ
                dZ = dA * _act_deriv(self.activation, cache["pre"][l - 1])
        grads = weight_grads + [g for g in bias_grads if g is not None]
        return grads, {"dZ_first": dZ}

    def loss_and_grads(self, X: np.ndarray, Y: np.ndarray, forward=None):
        """(loss, grads, aux) with aux = predictions, cache, first-layer dL/dZ.

        `forward`, when given, is a (predictions, cache) pair that `forward`
        computed on this X with the model's current weights, and stands in for
        a new forward pass. One whose cache holds another array than X is a
        ValidationError; one from other weights is the caller's error.
        """
        if forward is None:
            forward = self.forward(X)
        elif forward[1]["X"] is not X:
            raise ValidationError("forward was computed on another input array than X")
        predictions, cache = forward
        loss = self.forward_loss(forward, Y)
        grads, pieces = self.grads_from(cache, self.loss_grad(predictions, Y))
        aux = {"predictions": predictions, "cache": cache, **pieces}
        return loss, grads, aux

    def forward_loss(self, forward, Y: np.ndarray):
        """loss_value of a forward's predictions on Y, kept in its cache for this very Y array: a step hands its
        post-step loss on with its forward, and `loss_and_grads` reads it back from there."""
        if forward[1].get("loss", (None,))[0] is not Y:
            forward[1]["loss"] = Y, self.loss_value(forward[0], Y)
        return forward[1]["loss"][1]

    def loss_on(self, X: np.ndarray, Y: np.ndarray) -> float:
        return self.loss_value(self.predict(X), Y)

    def jvp(self, cache: dict, tangents: list) -> np.ndarray:
        """Forward-mode directional derivative of the predictions.

        tangents aligns with trainable(); returns J v in prediction space.
        """
        weight_t = tangents[: self.depth]
        bias_t = iter(tangents[self.depth :])
        dA = np.zeros_like(cache["X"])
        dPred = None
        for l in range(self.depth):
            dZ = weight_t[l] @ cache["inputs"][l] + self.weights[l] @ dA
            if self.biases[l] is not None:
                dZ = dZ + next(bias_t)[..., None]
            if l < self.depth - 1:
                dA = dZ * _act_deriv(self.activation, cache["pre"][l])
            else:
                dPred = dZ
        return dPred


def init_isotropic(
    layer_sizes: list,
    variance: float = 1e-4,
    seed=0,
    activation: str = "relu",
    output_head: str = "linear_mse",
    deeper_biases: bool = False,
) -> MLP:
    """Elementwise Gaussian(0, variance) weights, layer by layer, per seed.

    The first-layer row distribution is isotropic (invariant under right
    rotations). variance = 0 gives all-zero weights. A nonempty 1-D sequence
    of seeds gives a stacked MLP whose slice i is init_isotropic(..., seed[i]).
    """
    if variance < 0:
        raise ValidationError("variance must be nonnegative")
    if len(layer_sizes) < 2:
        raise ValidationError("need at least input and output sizes")
    if np.ndim(seed) == 1 and len(seed) == 0:
        raise ValidationError("a sequence of seeds must be nonempty")
    std = float(np.sqrt(variance))
    rngs = map(np.random.default_rng, seed if np.ndim(seed) == 1 else [seed])
    draws = [[std * rng.standard_normal((b, a)) for a, b in zip(layer_sizes, layer_sizes[1:])] for rng in rngs]
    weights = [np.stack(layer) if np.ndim(seed) == 1 else layer[0] for layer in zip(*draws)]
    biases = [None] + [
        np.zeros(weights[l].shape[:-1]) if deeper_biases else None
        for l in range(1, len(weights))
    ]
    return MLP(weights=weights, biases=biases, activation=activation, output_head=output_head)


def run_steps(model: MLP, X: np.ndarray, Y: np.ndarray, cfg, step_fn, seed: int):
    """Step `model` on (X, Y) by `step_fn` without end, yielding (StepResult, forward) after each step.

    The first yield, before any step, is (None, forward). Columns go to the
    steps in `cfg.batch_size` minibatches, epoch after epoch, in an order
    drawn from `seed`; the full batch is one slice, taken once, and each
    step's post-step forward is handed to the next step. `forward` is the
    model's (predictions, cache) on that slice, or None at a minibatch.
    """
    n = X.shape[-1]
    size = min(cfg.batch_size or n, n)
    if size == n:  # a slice, not X itself: the steps round on its (column-major) layout
        Xb, Yb = X[..., np.arange(n)], Y[..., np.arange(n)]
        forward = model.forward(Xb)
        yield None, forward
        while True:
            result = step_fn(model, Xb, Yb, cfg, forward)
            forward = result.diagnostics["forward"]
            yield result, forward
    yield None, None
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(n)
        for start in range(0, n, size):
            batch = order[start : start + size]
            yield step_fn(model, X[..., batch], Y[..., batch], cfg), None


def train_to_cutoff(
    model: MLP,
    X_train: Dataset,
    Y_train: LabelSet,
    cfg,
    optimizer: str = "sgd",
    cutoff: float = 0.999,
    step_cap: int = 10000,
    seed: int = 0,
    val: tuple | None = None,
    test: tuple | None = None,
    record_every: int = 1,
    metadata: dict | None = None,
) -> TrainRecord:
    """Train until full-train accuracy >= cutoff or the step cap fires.

    Mutates `model` in place. Batch order is generated from `seed` and
    recorded in the metadata, so two runs with the same seed see identical
    batches. Metrics are per-sample averages, recorded every `record_every`
    steps and at the terminal step; a full batch tests the cutoff after every
    step, minibatches at recorded steps. A full batch makes one train-split
    forward per step (see `run_steps`). `val` and `test` are (Dataset,
    LabelSet) pairs, as `linear_flow.early_stop` takes `test`; every split is
    checked against the model's shape before the first step.
    metadata["steps_to_best_val"] is the recorded step >= 1 with the lowest
    validation loss (None without `val`).
    """
    from . import optimizers as opt  # local import: optimizers is model-agnostic

    if not 0.0 < cutoff <= 1.0:
        raise ValidationError("cutoff must lie in (0, 1]")
    if record_every < 1:
        raise ValidationError("record_every must be at least 1")
    if step_cap < 1:
        raise ValidationError("step_cap must be at least 1")
    if optimizer not in OPTIMIZERS:
        raise ValidationError(f"unknown optimizer {optimizer!r}")
    if model.stacked:
        raise ShapeError("train_to_cutoff trains one model; a stack would share one stopping rule")
    for name, split in {"train": (X_train, Y_train), "val": val, "test": test}.items():
        if split is not None:
            check_split(name, split, model.layer_sizes[0], model.layer_sizes[-1])
    if Y_train.encoding != "one_hot":
        raise ValidationError("accuracy cutoff training needs one_hot labels")

    n = X_train.sample_count
    record = TrainRecord(
        metadata={
            "seed": seed,
            "optimizer": optimizer,
            "dataset_size": n,
            "batch_size": cfg.batch_size or n,
            "cutoff": cutoff,
            **(metadata or {}),
        }
    )

    def evaluate(step, forward):
        pred = model.predict(X_train.values) if forward is None else forward[0]
        metrics = {
            "train_loss": model.loss_value(pred, Y_train.targets) / n,
            "train_accuracy": accuracy(pred, Y_train.targets),
        }
        if val is not None:
            metrics["val_loss"] = model.loss_on(val[0].values, val[1].targets) / val[0].sample_count
        if test is not None:
            tp = model.predict(test[0].values)
            metrics["test_loss"] = model.loss_value(tp, test[1].targets) / test[0].sample_count
            metrics["test_error"] = 1.0 - accuracy(tp, test[1].targets)
        record.append(step, **metrics)
        return metrics

    step_fn = opt.sgd_step if optimizer == "sgd" else opt.regularized_gn_step
    steps = run_steps(model, X_train.values, Y_train.targets, cfg, step_fn, seed)
    _, forward = next(steps)
    step = 0
    reason = "cutoff" if evaluate(0, forward)["train_accuracy"] >= cutoff else ""
    while not reason:
        _, forward = next(steps)
        step += 1
        record_now = step % record_every == 0 or step >= step_cap
        if not record_now and forward is not None:
            record_now = accuracy(forward[0], Y_train.targets) >= cutoff
        if record_now and evaluate(step, forward)["train_accuracy"] >= cutoff:
            reason = "cutoff"
        if not reason and step >= step_cap:
            reason = "cap"
    record.terminal_step = step
    record.stopping_reason = reason
    record.metadata["steps_to_cutoff"] = step if reason == "cutoff" else None
    best = [(v, s) for s, v in zip(record.steps, record.val_loss or ()) if s >= 1]
    record.metadata["steps_to_best_val"] = min(best)[1] if best else None
    return record.validate()
