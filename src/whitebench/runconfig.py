"""Flat `key = value` run configuration files with [section] headers.

Unknown sections or keys are errors (typos in sweep definitions should not
pass silently), and so is a value outside a key's allowed choices or bounds:
the choices are the tuples the modules that use the value define. Lists are
space- or comma-separated.

`_SCHEMA` gives each key its converter and default; `_TAKES_EFFECT` says when
a key is read, and a run rejects a key set where it would be ignored.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .dataio import FORMATS
from .datatypes import LABEL_ENCODINGS
from .errors import ConfigError
from .linear_flow import PRECONDITIONS
from .models import ACTIVATIONS, OPTIMIZERS, OUTPUT_HEADS
from .synth import SPECTRA
from .whitening import RANK_POLICIES, WHITENING_MODES

WHITENING_ARMS = ("none", "train", "full", "distribution")
TRAINERS = ("linear", "mlp")
SIZE_CONVENTIONS = ("train", "joint")
DATA_SOURCES = ("synthetic", "files")


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _list(one):
    """Converter for a space- or comma-separated list of `one` values."""
    return lambda text: [one(v) for v in text.replace(",", " ").split()]


def _checked(kind, holds, expected: str):
    """Converter for a `kind` value that must satisfy `holds` (checked at parse time)."""

    def convert(text: str):
        value = kind(text)
        if not holds(value):
            raise ConfigError(f"expected {expected}; got {value!r}")
        return value

    return convert


def _choice(allowed: tuple):
    return _checked(str, lambda value: value in allowed, f"one of {', '.join(allowed)}")


def _at_least(kind, minimum):
    return _checked(kind, lambda value: value >= minimum, f"a value >= {minimum}")


def _batch(text: str):
    return None if text.strip() == "full" else _at_least(int, 1)(text)


# section -> key -> (converter, default); a default of None means "unset" (see README's key table)
_SCHEMA = {
    "experiment": {
        "id": (str, "experiment"),
        "master_seed": (int, 0),
        "seeds": (_list(int), [0]),
        "output_dir": (str, "results"),
        "size_convention": (_choice(SIZE_CONVENTIONS), "train"),
    },
    "data": {
        "source": (_choice(DATA_SOURCES), "synthetic"),
        "d": (int, 64),
        "n_train": (_at_least(int, 1), None),  # 128 synthetic samples, or every train column of a file
        "n_val": (int, 0),
        "n_test": (int, 0),
        "spectrum": (_choice(SPECTRA), "power_law"),
        "alpha": (float, 2.0),
        "eigenvalues": (_list(float), None),
        "teacher_seed": (int, None),  # the master seed
        "label_noise": (float, 0.0),
        "classes": (int, 10),
        "encoding": (_choice(LABEL_ENCODINGS), "one_hot"),
        "normalize": (_bool, False),
        "format": (_choice(FORMATS), "wbds"),
        "train": (str, None),
        "val": (str, None),
        "test": (str, None),
    },
    "whitening": {
        "modes": (_list(_choice(WHITENING_ARMS)), ["none"]),
        "transform": (_choice(WHITENING_MODES), "pca"),
        "rank_policy": (_choice(RANK_POLICIES), "manual"),
        "jitter_epsilon": (float, None),  # 1e-8 times the mean fitted eigenvalue
        "center": (_bool, False),
    },
    "model": {
        "hidden": (_list(_at_least(int, 1)), [64, 64]),
        "activation": (_choice(ACTIVATIONS), "relu"),
        "head": (_choice(OUTPUT_HEADS), "linear_mse"),
        "init_variance": (_at_least(float, 0.0), 1e-4),
        "biases": (_bool, False),
    },
    "optimizer": {
        "name": (_choice(OPTIMIZERS), "sgd"),
        "eta": (float, 0.1),
        "batch_size": (_batch, None),  # full batch
        "reg_lambda": (_list(float), [1.0]),  # a list is one cell per value
        "cg_tol": (float, 1e-5),
        "cutoff": (_checked(float, lambda value: 0 < value <= 1, "a value in (0, 1]"), 0.999),
        "step_cap": (_at_least(int, 1), 10000),
        "record_every": (_at_least(int, 1), 1),
        "line_search": (_bool, False),
        "initial_step": (float, 1.0),
    },
    "flow": {
        "precondition": (_choice(PRECONDITIONS), "none"),
        "grid_points": (_at_least(int, 2), 200),
        "t_min": (float, None),  # with t_max: a fixed grid; unset, each cell's grid spans its rates
        "t_max": (float, None),
        "init_variance": (_at_least(float, 0.0), 0.0),
    },
    "sweep": {
        "sizes": (_list(_at_least(int, 1)), None),
        "trainer": (_choice(TRAINERS), "linear"),
    },
    "plot": {
        "x": (str, None),
        "y": (str, None),
        "group": (str, None),
        "logx": (_bool, False),
        "logy": (_bool, False),
        "title": (str, ""),
    },
}


def _set_to(section: str, key: str, value):
    return lambda cfg, trainer: cfg.get(section, key) == value


# (section, keys or None for the whole section, condition, predicate on (cfg, trainer)): a key set
# where its predicate is false would be ignored. [sweep], [plot] and [data] n_train are read per
# command (one file serves sweep, train-* and plot), so no rule names them.
_TAKES_EFFECT = (
    ("flow", None, "the linear trainer", lambda cfg, trainer: trainer == "linear"),
    ("model", None, "the mlp trainer", lambda cfg, trainer: trainer == "mlp"),
    ("optimizer", None, "the mlp trainer", lambda cfg, trainer: trainer == "mlp"),
    ("optimizer", ("reg_lambda", "cg_tol", "line_search"), "name = gn", _set_to("optimizer", "name", "gn")),
    ("optimizer", ("initial_step",), "line_search = true", _set_to("optimizer", "line_search", True)),
    ("optimizer", ("eta",), "line_search = false", _set_to("optimizer", "line_search", False)),
    ("flow", ("t_min",), "t_max set", lambda cfg, trainer: "t_max" in cfg.flow),
    ("flow", ("t_max",), "t_min set", lambda cfg, trainer: "t_min" in cfg.flow),
    ("data", ("d", "n_val", "n_test", "spectrum", "alpha", "eigenvalues", "teacher_seed", "label_noise",
              "classes", "encoding"), "source = synthetic", _set_to("data", "source", "synthetic")),
    ("experiment", ("size_convention",), "source = synthetic", _set_to("data", "source", "synthetic")),
    ("data", ("format", "train", "val", "test"), "source = files", _set_to("data", "source", "files")),
    ("data", ("alpha",), "spectrum = power_law", _set_to("data", "spectrum", "power_law")),
    ("data", ("eigenvalues",), "spectrum = custom", _set_to("data", "spectrum", "custom")),
    ("whitening", ("transform", "rank_policy"), "an arm other than none",
     lambda cfg, trainer: set(cfg.get("whitening", "modes")) - {"none"}),
    ("whitening", ("center",), "a train or full arm",
     lambda cfg, trainer: {"train", "full"} & set(cfg.get("whitening", "modes"))),
    ("whitening", ("jitter_epsilon",), "rank_policy = jitter", _set_to("whitening", "rank_policy", "jitter")),
)


@dataclass
class RunConfig:
    """Parsed configuration: each section is a dict of the keys the file sets, with typed values."""

    experiment: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    whitening: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    flow: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    plot: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        """The value set for `key` in `section`, else its schema default."""
        values = getattr(self, section)
        return values[key] if key in values else _SCHEMA[section][key][1]

    @property
    def experiment_id(self) -> str:
        return self.get("experiment", "id")

    def check_takes_effect(self, trainer: str):
        """Raise ConfigError naming every set key that a run with `trainer` would ignore."""
        problems = []
        for section, keys, condition, holds in _TAKES_EFFECT:
            off = [key for key in (keys or getattr(self, section)) if key in getattr(self, section)]
            if off and not holds(self, trainer):
                problems.append(f"[{section}] {', '.join(off)}: takes effect only with {condition}")
        if problems:
            raise ConfigError("; ".join(problems))


def parse_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        schema = _SCHEMA[section]
        out = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                out[key] = schema[key][0](raw)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}: bad value for {key!r} in [{section}]: {exc}") from None
        setattr(cfg, section, out)
    return cfg
