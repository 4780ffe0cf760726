"""Flat `key = value` run configuration files with [section] headers.

Unknown sections or keys are errors (typos in sweep definitions should not
pass silently), and so is a value outside a key's allowed choices: the
choices are the tuples the modules that use the value define. Lists are
space- or comma-separated.
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
from .synth import SPECTRA, TEACHERS
from .whitening import RANK_POLICIES, WHITENING_MODES, RankPolicy

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


def _split(text: str) -> list:
    return text.replace(",", " ").split()


def _int_list(text: str) -> list:
    return [int(v) for v in _split(text)]


def _float_list(text: str) -> list:
    return [float(v) for v in _split(text)]


def _choice(allowed: tuple):
    """Converter that accepts only the listed values (checked at parse time)."""

    def convert(text: str) -> str:
        if text not in allowed:
            raise ConfigError(f"expected one of {', '.join(allowed)}; got {text!r}")
        return text

    return convert


def _choice_list(allowed: tuple):
    one = _choice(allowed)
    return lambda text: [one(v) for v in _split(text)]


def _int_at_least(minimum: int):
    """Converter for an integer bounded below (checked at parse time)."""

    def convert(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ConfigError(f"expected an integer >= {minimum}; got {value}")
        return value

    return convert


def _int_list_at_least(minimum: int):
    one = _int_at_least(minimum)
    return lambda text: [one(v) for v in _split(text)]


def _batch(text: str):
    return None if text.strip() == "full" else int(text)


_SCHEMA = {
    "experiment": {
        "id": str,
        "master_seed": int,
        "seeds": _int_list,
        "output_dir": str,
        "size_convention": _choice(SIZE_CONVENTIONS),
    },
    "data": {
        "source": _choice(DATA_SOURCES),
        "d": int,
        "n_train": _int_at_least(1),
        "n_val": int,
        "n_test": int,
        "spectrum": _choice(SPECTRA),
        "alpha": float,
        "eigenvalues": _float_list,
        "teacher": _choice(TEACHERS),
        "teacher_seed": int,
        "label_noise": float,
        "classes": int,
        "encoding": _choice(LABEL_ENCODINGS),
        "normalize": _bool,
        "format": _choice(FORMATS),
        "train": str,
        "val": str,
        "test": str,
    },
    "whitening": {
        "modes": _choice_list(WHITENING_ARMS),
        "transform": _choice(WHITENING_MODES),
        "rank_policy": _choice(RANK_POLICIES),
        "jitter_epsilon": float,
        "center": _bool,
    },
    "model": {
        "hidden": _int_list,
        "activation": _choice(ACTIVATIONS),
        "head": _choice(OUTPUT_HEADS),
        "init_variance": float,
        "biases": _bool,
    },
    "optimizer": {
        "name": _choice(OPTIMIZERS),
        "eta": float,
        "batch_size": _batch,
        "reg_lambda": _float_list,  # one value, or a grid of cells for the mlp trainer with name = gn
        "cg_tol": float,
        "cutoff": float,
        "step_cap": int,
        "record_every": int,
        "line_search": _bool,
        "initial_step": float,
    },
    "flow": {
        "precondition": _choice(PRECONDITIONS),
        "grid_points": _int_at_least(2),
        "t_min": float,
        "t_max": float,
        "init_variance": float,
    },
    "sweep": {
        "sizes": _int_list_at_least(1),
        "trainer": _choice(TRAINERS),
    },
    "plot": {
        "x": str,
        "y": str,
        "group": str,
        "logx": _bool,
        "logy": _bool,
        "title": str,
    },
}


@dataclass
class RunConfig:
    """Parsed configuration; sections become plain dicts with typed values."""

    experiment: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    whitening: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    flow: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    plot: dict = field(default_factory=dict)

    @property
    def experiment_id(self) -> str:
        return self.experiment.get("id", "experiment")

    @property
    def master_seed(self) -> int:
        return self.experiment.get("master_seed", 0)

    @property
    def seeds(self) -> list:
        return self.experiment.get("seeds", [0])

    @property
    def whitening_modes(self) -> list:
        return self.whitening.get("modes", ["none"])

    def rank_policy(self) -> RankPolicy:
        kind = self.whitening.get("rank_policy", "manual")
        eps = self.whitening.get("jitter_epsilon")
        if eps is not None and kind != "jitter":
            raise ConfigError("[whitening] jitter_epsilon takes effect only with rank_policy = jitter")
        return RankPolicy(kind=kind, epsilon=eps)


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
                out[key] = schema[key](raw)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}: bad value for {key!r} in [{section}]: {exc}") from None
        setattr(cfg, section, out)
    return cfg
