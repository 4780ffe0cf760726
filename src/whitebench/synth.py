"""Synthetic dataset generation with a controlled covariance spectrum.

Columns are zero-mean Gaussians whose covariance eigenvalues follow a power
law lambda_j ~ j^{-alpha} (alpha = 0 is isotropic) in a seeded random basis
(or, on request, in the eigenbasis itself).
Labels come from a fixed random linear teacher acting on the top ceil(d/4)
covariance modes plus Gaussian noise; classification targets one-hot-ify the
teacher output by argmax. Everything is deterministic per seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datatypes import Dataset, LabelSet, random_orthogonal
from .errors import ValidationError

SPECTRA = ("power_law", "flat", "custom")


@dataclass(frozen=True)
class SyntheticSpec:
    d: int
    n_train: int
    n_val: int = 0
    n_test: int = 0
    spectrum: str = "power_law"
    alpha: float = 2.0
    custom_eigenvalues: tuple | None = None
    teacher_seed: int | None = None
    label_noise: float = 0.0
    classes: int = 10
    encoding: str = "one_hot"
    seed: int = 0

    def __post_init__(self):
        """Each message names the offending field, which is also its [data] config key."""
        if self.d < 1 or self.n_train < 1:
            raise ValidationError(f"d and n_train must be positive, got d={self.d}, n_train={self.n_train}")
        if self.n_val < 0 or self.n_test < 0:
            raise ValidationError(f"n_val and n_test must be nonnegative, got {self.n_val}, {self.n_test}")
        if self.spectrum not in SPECTRA:
            raise ValidationError(f"unknown spectrum {self.spectrum!r}")
        if self.spectrum == "custom" and (
            self.custom_eigenvalues is None
            or len(self.custom_eigenvalues) != self.d
            or not all(0 <= v < math.inf for v in self.custom_eigenvalues)
        ):
            raise ValidationError(f"spectrum = custom needs eigenvalues: {self.d} finite nonnegative values, one per d")
        if not 0 <= self.alpha < math.inf:
            raise ValidationError(f"alpha must be finite and nonnegative, got {self.alpha}")
        if not 0 <= self.label_noise < math.inf:
            raise ValidationError(f"label_noise must be finite and nonnegative, got {self.label_noise}")
        if self.classes < 1:
            raise ValidationError(f"classes must be positive, got {self.classes}")

    def eigenvalues(self) -> np.ndarray:
        if self.spectrum == "flat":
            return np.ones(self.d)
        if self.spectrum == "custom":
            return np.asarray(self.custom_eigenvalues, dtype=np.float64)
        return np.arange(1, self.d + 1, dtype=np.float64) ** (-self.alpha)


@dataclass(frozen=True)
class SyntheticData:
    train: Dataset
    val: Dataset | None
    test: Dataset | None
    y_train: LabelSet
    y_val: LabelSet | None
    y_test: LabelSet | None
    teacher_matrix: np.ndarray
    # Columns pair with spec.eigenvalues(): the covariance is basis diag(eigenvalues) basis^T.
    # None for an unrotated draw, whose covariance is diag(eigenvalues) itself.
    basis: np.ndarray | None


def synthesize(spec: SyntheticSpec, *, rotate: bool = True) -> SyntheticData:
    """Draw train/val/test splits plus labels from one seeded generator.

    Draw order (basis, teacher, then per-split samples and noise) is fixed, so
    identical specs produce identical data. The teacher matrix depends only
    on teacher_seed (default: seed), letting sweeps vary the data draw while
    holding the task fixed.

    rotate=False returns the samples in the covariance eigenbasis, i.e. the
    rotated splits with the basis B taken off (`basis` is None): B's normals
    are still drawn, so the teacher, the labels and every other draw are the
    same bits, and B @ split equals the rotated split bit for bit. It skips
    B's QR and the d x d x n product per split, for callers whose result no
    rotation of the inputs can change.
    """
    rng = np.random.default_rng(spec.seed)
    if rotate:
        basis = random_orthogonal(spec.d, rng)
    else:
        rng.standard_normal((spec.d, spec.d))  # B's normals, so the later draws keep their place in the stream
        basis = None
    scales = np.sqrt(spec.eigenvalues())
    m = math.ceil(spec.d / 4)
    teacher_rng = np.random.default_rng(spec.seed if spec.teacher_seed is None else spec.teacher_seed)
    teacher = teacher_rng.standard_normal((spec.classes, m))

    def draw(count: int):
        if count == 0:
            return None, None
        coords = scales[:, None] * rng.standard_normal((spec.d, count))
        X = Dataset._adopt(coords if basis is None else basis @ coords)
        logits = teacher @ coords[:m, :]
        if spec.label_noise > 0:
            logits = logits + spec.label_noise * rng.standard_normal(logits.shape)
        if spec.encoding == "one_hot":
            return X, LabelSet.from_class_ids(np.argmax(logits, axis=0), spec.classes)
        return X, LabelSet(logits, encoding="real_valued")

    train, y_train = draw(spec.n_train)
    val, y_val = draw(spec.n_val)
    test, y_test = draw(spec.n_test)
    return SyntheticData(
        train=train,
        val=val,
        test=test,
        y_train=y_train,
        y_val=y_val,
        y_test=y_test,
        teacher_matrix=teacher,
        basis=basis,
    )
