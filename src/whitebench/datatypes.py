"""Core matrix-valued types and second-moment operations.

Data is stored samples-as-columns: a dataset is a d x n matrix whose columns
are samples. Second moments are unnormalized, F = X X^T (feature-feature) and
K = X^T X (sample-sample Gram matrix), so F and K share their nonzero
eigenvalues. All numerics are 64-bit.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ShapeError, ValidationError

LABEL_ENCODINGS = ("one_hot", "real_valued")

#: relative eigenvalue cutoff on F for rank: `estimate_input_rank` and the
#: manual policy of `whitening.fit_whitener`
RANK_CUTOFF_RATIO = 1e-5
#: relative cutoff for explicit inverses, about sqrt(machine eps): `pseudoinverse`
#: (on singular values) and the F solve of `linear_flow.solve_optimum`,
#: `optimum_predictions` and `optimizers.newton_step` (on eigenvalues of F).
#: Rounding error in the Penrose identities grows like eps / cutoff, so a
#: smaller cutoff keeps near-null directions whose residuals exceed 1e-8.
PINV_CUTOFF_RATIO = 1e-8
#: eigenvalues of F at or below this fraction of the largest are exact nulls:
#: `linear_flow.build_flow` moves only the modes above it
NULL_MODE_RATIO = 1e-12


def _as_matrix(values, what="values", copy=True) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True if copy else None)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValidationError(f"{what} must be a matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")
    return arr


def _freeze(obj, name, arr):
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class Dataset:
    """A d x n matrix of samples-as-columns.

    Immutable after construction; the backing array is marked read-only.
    """

    values: np.ndarray

    def __post_init__(self, copy=True):
        arr = _as_matrix(self.values, "Dataset.values", copy)
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("Dataset needs at least one feature and one sample")
        _freeze(self, "values", arr)

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "Dataset":
        """A Dataset over an array its caller just computed and drops: checked, frozen, not copied."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "values", values)
        obj.__post_init__(copy=False)
        return obj

    @property
    def feature_dim(self) -> int:
        return self.values.shape[0]

    @property
    def sample_count(self) -> int:
        return self.values.shape[1]

    def fingerprint(self) -> str:
        """Short hash of the shape and values, used as a dataset identifier in audit metadata."""
        return hashlib.sha256(repr(self.values.shape).encode() + self.values.tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class LabelSet:
    """Targets for a paired Dataset: k rows (outputs/classes) x n columns."""

    targets: np.ndarray
    encoding: str = "real_valued"

    def __post_init__(self):
        arr = _as_matrix(self.targets, "LabelSet.targets")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("LabelSet needs at least one output and one sample")
        if self.encoding not in LABEL_ENCODINGS:
            raise ValidationError(f"unknown encoding {self.encoding!r}")
        if self.encoding == "one_hot":
            ones = np.sum(arr == 1.0, axis=0)
            zeros = np.sum(arr == 0.0, axis=0)
            if not np.all((ones == 1) & (zeros == arr.shape[0] - 1)):
                raise ValidationError("one_hot columns must have a single 1 and zeros elsewhere")
        _freeze(self, "targets", arr)

    @classmethod
    def from_class_ids(cls, class_ids, classes: int) -> "LabelSet":
        """One-hot targets (classes x n): column j has its 1 in row class_ids[j]."""
        ids = np.asarray(class_ids)
        if ids.size and (ids.min() < 0 or ids.max() >= classes):
            raise ValidationError(f"class ids must lie in [0, {classes})")
        targets = np.zeros((classes, ids.size))
        targets[ids, np.arange(ids.size)] = 1.0
        return cls(targets, encoding="one_hot")

    @property
    def output_dim(self) -> int:
        return self.targets.shape[0]

    @property
    def sample_count(self) -> int:
        return self.targets.shape[1]

    def class_indices(self) -> np.ndarray:
        """Class index per column; ties broken toward the lowest index."""
        return np.argmax(self.targets, axis=0)


def check_paired(X: Dataset, Y: LabelSet):
    if X.sample_count != Y.sample_count:
        raise ShapeError(
            f"dataset has {X.sample_count} samples but labels have {Y.sample_count}"
        )


def check_same_features(X_a: Dataset, X_b: Dataset):
    if X_a.feature_dim != X_b.feature_dim:
        raise ShapeError(
            f"feature dims differ: {X_a.feature_dim} vs {X_b.feature_dim}"
        )


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with eigenvalues sorted descending.

    eigenvectors[:, i] pairs with eigenvalues[i]; columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=np.float64)
        vecs = _as_matrix(self.eigenvectors, "Spectrum.eigenvectors")
        if vals.ndim != 1 or vecs.shape[1] != vals.shape[0]:
            raise ShapeError("eigenvector columns must pair with eigenvalues")
        if np.any(np.diff(vals) > 0):
            raise ValidationError("eigenvalues must be sorted descending")
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        _freeze(self, "eigenvectors", vecs)


def symmetrize(A: np.ndarray) -> np.ndarray:
    """(A + A^T)/2; exact bitwise symmetry since IEEE addition commutes."""
    return (A + A.T) / 2.0


def compute_F(X: Dataset) -> np.ndarray:
    """Feature-feature second moment X X^T (d x d), no 1/n normalization."""
    return symmetrize(X.values @ X.values.T)


def compute_K(X: Dataset) -> np.ndarray:
    """Sample-sample second moment X^T X (n x n), the Gram matrix of X."""
    return symmetrize(X.values.T @ X.values)


def compute_mixed_K(X_a: Dataset, X_b: Dataset) -> np.ndarray:
    """Mixed Gram block X_a^T X_b (n_a x n_b)."""
    check_same_features(X_a, X_b)
    return X_a.values.T @ X_b.values


def eigh(A: np.ndarray) -> Spectrum:
    """Symmetric eigendecomposition with descending eigenvalues.

    Rejects non-symmetric (beyond 1e-10 absolute) or non-finite input; input
    symmetric only within that tolerance is symmetrized first.
    """
    A = _as_matrix(A, "eigh input", copy=False)
    if A.shape[0] != A.shape[1]:
        raise ShapeError("eigh needs a square matrix")
    if not np.array_equal(A, A.T):
        if np.max(np.abs(A - A.T)) > 1e-10:
            raise ValidationError("eigh input is not symmetric within 1e-10 absolute")
        A = symmetrize(A)
    vals, vecs = np.linalg.eigh(A)
    return Spectrum(eigenvalues=vals[::-1], eigenvectors=vecs[:, ::-1])


def pseudoinverse(A: np.ndarray, rel_tol: float = PINV_CUTOFF_RATIO) -> np.ndarray:
    """Moore-Penrose pseudoinverse; zeroes singular values <= rel_tol * sigma_max or too small to invert."""
    if rel_tol <= 0:
        raise ValidationError("rel_tol must be positive")
    A = _as_matrix(A, "pseudoinverse input")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > max(rel_tol * s.max(initial=0.0), 1.0 / np.finfo(float).max)
    inv = np.divide(1.0, s, where=keep, out=np.zeros_like(s))
    return Vt.T @ (inv[:, None] * U.T)  # the order of numpy.linalg.pinv, so kept modes round alike


def gram_modes(X: Dataset, cutoff_ratio: float | None, F: np.ndarray | None = None) -> Spectrum:
    """The eigenpairs of F = X X^T above cutoff_ratio times the largest (and invertible), or all if None.

    From the smaller side: the thin SVD X = U S V^T (lambda = s^2, vectors U)
    when n <= d, eigh of the d x d F (the caller's `F` if given) when n > d.
    An all-zero X keeps none above a cutoff.
    """
    if X.sample_count <= X.feature_dim:
        U, s, _ = np.linalg.svd(X.values, full_matrices=False)
        spec = Spectrum(s * s, U)
    else:
        spec = eigh(compute_F(X) if F is None else F)
    return spec if cutoff_ratio is None else leading_modes(spec, cutoff_ratio)


def leading_modes(spec: Spectrum, cutoff_ratio: float) -> Spectrum:
    """The eigenpairs of spec above cutoff_ratio times the largest (and invertible); spec itself if all are."""
    lam = spec.eigenvalues
    r = int(np.count_nonzero(lam > max(cutoff_ratio * float(lam[0]), 1.0 / np.finfo(float).max)))
    return spec if r == lam.size else Spectrum(eigenvalues=lam[:r], eigenvectors=spec.eigenvectors[:, :r])


def estimate_input_rank(X: Dataset, cutoff_ratio: float = RANK_CUTOFF_RATIO) -> int:
    """Count of eigenvalues of F = X X^T above cutoff_ratio * largest.

    An all-zero dataset has rank 0.
    """
    if not 0.0 < cutoff_ratio < 1.0:
        raise ValidationError("cutoff_ratio must lie in (0, 1)")
    return gram_modes(X, cutoff_ratio).eigenvalues.size


def random_orthogonal(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix: QR of a Gaussian with positive R diagonal.

    seed is an int or a Generator; a Generator is drawn from in place.
    """
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    return Q * np.sign(np.diag(R))[None, :]


def require_nontrivial_spectrum(singular_values: np.ndarray, what: str):
    if singular_values.size == 0 or float(singular_values[0]) <= 0.0:
        raise DegenerateSpectrumError(f"{what} has an identically zero spectrum")


def hstack_datasets(*datasets: Dataset) -> Dataset:
    """Concatenate datasets along the sample axis into a single split."""
    dims = {X.feature_dim for X in datasets}
    if len(dims) != 1:
        raise ShapeError(f"feature dims differ across datasets: {sorted(dims)}")
    return Dataset._adopt(np.hstack([X.values for X in datasets]))
