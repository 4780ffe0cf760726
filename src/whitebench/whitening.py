"""PCA and ZCA whitening with jitter / manual rank-control policies.

A whitening transform M maps the eigenspectrum of F = X X^T to ones and
zeros, the multiplicity of ones equal to rank(F). PCA uses M = S^{-1/2} V^T
from the eigendecomposition of the fitted F = V S V^T; ZCA rotates back,
M = V S^{-1/2} V^T. F is decomposed on the smaller side of the fit set, as in
`datatypes.gram_modes`: eigh of F (eigenvalues clamped at 0) when n > d, else
the full SVD of X, whose d - n complement vectors (as arbitrary as eigh's
null vectors) give PCA its trailing rows. Every eigenvector is signed so its
largest-magnitude entry is positive, so PCA's row signs do not depend on
which LAPACK driver produced V. The fit rank is the count of eigenvalues
the decomposition resolves, `datatypes.resolved_rank`. Under manual rank
control the trailing (below-rank) entries of S^{-1/2} are set to 1, so ZCA
is the identity outside the fitted span; under the jitter policy a small
epsilon is added to the diagonal of S before inverting, which keeps M
invertible. `population_whitener` takes the same rank-policy and M step
from a known second moment, such as a source's E[F] or a fit set's eigh of F.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datatypes import (
    Dataset,
    Spectrum,
    compute_F,
    eigh,
    proves_eigenvalues_above,
    require_nontrivial_spectrum,
    resolved_rank,
    triangular_inverse,
)
from .errors import ShapeError, ValidationError

WHITENING_MODES = ("pca", "zca")
RANK_POLICIES = ("jitter", "manual")


@dataclass(frozen=True)
class RankPolicy:
    """How near-zero eigenvalues of the fitted F are handled.

    kind "jitter": add `epsilon_for` to every diagonal entry of S before
    inverting; epsilon=None ties it to the spectrum scale.
    kind "manual": eigenvalues past `datatypes.resolved_rank` are replaced
    by exact unit scaling (their S^{-1/2} entries set to 1).
    """

    kind: str = "manual"
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in RANK_POLICIES:
            raise ValidationError(f"unknown rank policy {self.kind!r}")
        if self.kind == "jitter" and self.epsilon is not None and self.epsilon <= 0:
            raise ValidationError("jitter epsilon must be positive")

    def epsilon_for(self, mean_eigenvalue: float) -> float:
        """What this policy adds to each eigenvalue of a second moment with this mean eigenvalue: 0 under manual."""
        if self.kind == "manual":
            return 0.0
        return self.epsilon if self.epsilon is not None else 1e-8 * mean_eigenvalue


@dataclass(frozen=True)
class Whitener:
    """A fitted linear whitening transform.

    Immutable. `eigenpairs` holds (S, V) of the second moment M was built
    from, S clamped at 0 and V signed as in M; `spectrum` checks them into a
    Spectrum only when read, which keeps that cost off the many small fits
    that never read it.
    """

    M: np.ndarray
    fit_rank: int | np.ndarray  # an int array for a stacked fit
    eigenpairs: tuple

    @property
    def feature_dim(self) -> int:
        return self.M.shape[1]

    @property
    def spectrum(self) -> Spectrum:
        return Spectrum(*self.eigenpairs)


@dataclass(frozen=True)
class WhitenessReport:
    """Classification of the eigenvalues of F-hat against {0, 1}."""

    eigenvalues: np.ndarray
    ones_count: int
    zeros_count: int
    passed: bool


def _inv_sqrt(S: np.ndarray, policy: RankPolicy):
    """The diagonal S^{-1/2} under `policy` and the fit rank, for all d descending eigenvalues S >= 0 (per slice)."""
    require_nontrivial_spectrum(S, "fitted second moment")
    rank = resolved_rank(S)
    if policy.kind == "jitter":
        return 1.0 / np.sqrt(S + policy.epsilon_for(S.mean(-1, keepdims=True))), rank
    keep = np.arange(S.shape[-1]) < np.asarray(rank)[..., None]
    return np.divide(1.0, np.sqrt(S), out=np.ones_like(S), where=keep), rank


def _whiten_spectrum(S: np.ndarray, V: np.ndarray, mode: str, policy: RankPolicy) -> Whitener:
    """The whitener of V diag(S) V^T (S descending, clamped at 0 here) under `policy`, or of each slice of a stack.

    Each column of V is first signed so that its largest-magnitude entry (the
    first on ties) is positive, which fixes PCA's row signs; ZCA's are moot.
    """
    if mode not in WHITENING_MODES:
        raise ValidationError(f"unknown whitening mode {mode!r}")
    S = np.maximum(S, 0.0)
    inv_sqrt, rank = _inv_sqrt(S, policy)
    V = V * np.sign(np.take_along_axis(V, np.abs(V).argmax(-2)[..., None, :], -2))
    V_T = np.swapaxes(V, -1, -2)
    M = inv_sqrt[..., :, None] * V_T if mode == "pca" else (V * inv_sqrt[..., None, :]) @ V_T
    return Whitener(M=M, fit_rank=rank, eigenpairs=(S, V))


def center_on(fit: Dataset, *datasets: Dataset) -> list:
    """Each dataset less the row means of the fit set (which may be among them): the start of a centered fit."""
    mean = fit.values.mean(axis=1, keepdims=True)
    for X in datasets:
        if X.feature_dim != fit.feature_dim:
            raise ShapeError(f"fit set has {fit.feature_dim} features, data has {X.feature_dim}")
    return [Dataset._adopt(X.values - mean) for X in datasets]


def fit_whitener(X_fit, mode: str = "pca", rank_policy: RankPolicy | None = None) -> Whitener:
    """Fit a whitening transform on the Dataset X_fit, uncentered (`center_on` first for a centered fit).

    X_fit may also be an m x d x n array, a stack of m fit sets, each fitted
    in one call as on its own: M is then m x d x d, with a fit rank (an int
    array) and eigenpairs per slice. Which data the transform is fitted on
    (train split, all splits) is the caller's choice.
    """
    values = X_fit.values if isinstance(X_fit, Dataset) else np.asarray(X_fit, dtype=np.float64)
    if not isinstance(X_fit, Dataset) and (values.ndim != 3 or 0 in values.shape or not np.isfinite(values).all()):
        raise ValidationError(f"X_fit must be a Dataset or a finite m x d x n stack, got shape {values.shape}")
    d, n = values.shape[-2:]
    if n <= d:
        V, s, _ = np.linalg.svd(values, full_matrices=True)
        S = np.pad(s * s, [(0, 0)] * (values.ndim - 2) + [(0, d - n)])
    else:
        S, V = np.linalg.eigh(values @ np.swapaxes(values, -1, -2))
        S, V = S[..., ::-1], np.ascontiguousarray(V[..., ::-1])
    return _whiten_spectrum(S, V, mode, rank_policy or RankPolicy())


def population_whitener(second_moment: Spectrum, mode: str = "pca", rank_policy: RankPolicy | None = None) -> Whitener:
    """Whiten with a known second moment (e.g. a source's E[F], or eigh(F) of an uncentered fit set): rank
    policy, jitter and PCA/ZCA act on its eigenvalues exactly as on a fitted F's."""
    return _whiten_spectrum(second_moment.eigenvalues, second_moment.eigenvectors, mode, rank_policy or RankPolicy())


def whitened_modes(fit: Spectrum, rank_policy: RankPolicy) -> Spectrum:
    """The modes of the flow from W0 = 0 on data whitened by the whitener M of F = V diag(S) V^T: the rates
    inv_sqrt^2 S of M F M^T, descending, with U = M^T V-hat = V diag(inv_sqrt) in F's coordinates, for PCA and ZCA
    alike (V-hat is the standard basis or V), so neither M nor F is multiplied. `fit` may hold only a thin SVD's
    leading V: the rest have rate 0. So has every mode past the fit rank: a null direction within rounding.
    """
    d, r = fit.eigenvectors.shape
    S = np.maximum(fit.eigenvalues, 0.0)
    inv_sqrt, rank = _inv_sqrt(np.pad(S, (0, d - r)), rank_policy)
    inv_sqrt = inv_sqrt[:r]
    rates = inv_sqrt * inv_sqrt * S
    rates[rank:] = 0.0
    order = np.argsort(-rates, kind="stable")
    return Spectrum(rates[order], fit.eigenvectors[:, order] * inv_sqrt[order])


def full_whitened_modes(train: np.ndarray, others: list, rank_policy: RankPolicy,
                        train_eigh: Spectrum | None = None) -> Spectrum | None:
    """The modes of the flow from W0 = 0 on `full`-whitened data, Spectrum(rates, U = M^T V-hat) as `whitened_modes`
    gives them, for the d x n train array and the d x n_s arrays `others`, F_full = sum X X^T over all of them. None
    unless the matrix inverted below provably has every eigenvalue above d eps tr F_full: then the fit keeps all d
    modes, since tr F_full >= S_0 (`datatypes.resolved_rank`). Under manual, fewer than d columns give None at once.

    M^T M = A^-1 with A = F_full + epsilon I (`RankPolicy.epsilon_for`), for PCA and ZCA alike, is all such a flow
    reads of M. At n <= d the Cholesky factor L L^T = A of the proven A stands in for M: with L^-1 its
    `triangular_inverse`, the thin SVD L^-1 X_train = P diag(s) R^T gives rates s^2 and U = L^-T P. At n > d, off
    train_eigh = (Lambda, V), all d eigenpairs of F_train (taken here if None), whose Lambda_min bounds S_min(F_full)
    below (Weyl): C = I + Lambda^-1/2 V^T (F_full - F_train + epsilon I) V Lambda^-1/2 has eigenpairs (mu, w),
    rate = 1 / mu and u = V Lambda^-1/2 w mu^-1/2. No fit or M.
    """
    d, n = train.shape
    ratio = d * np.finfo(float).eps  # the full-rank floor over tr F_full
    if n <= d:
        if rank_policy.kind == "manual" and n + sum(X.shape[1] for X in others) < d:
            return None
        A = sum(X @ X.T for X in [train, *others])
        trace = float(np.trace(A))
        A[np.diag_indices(d)] += rank_policy.epsilon_for(trace / d)
        if not (trace > 0 and proves_eigenvalues_above(A, ratio * trace)):  # all-zero data proves nothing
            return None
        L_inv = triangular_inverse(np.linalg.cholesky(A))
        P, s, _ = np.linalg.svd(L_inv @ train, full_matrices=False)
        return Spectrum(s * s, L_inv.T @ P)
    spec = eigh(train @ train.T) if train_eigh is None else train_eigh
    lam, V = spec.eigenvalues, spec.eigenvectors
    F_o = sum((G @ G.T for G in (V.T @ X for X in others)), np.zeros((d, d)))  # V^T F_o V
    trace = float(np.sum(lam)) + float(np.trace(F_o))
    if not lam[-1] > ratio * trace:
        return None
    inv_sqrt = 1.0 / np.sqrt(lam)
    C = F_o * np.outer(inv_sqrt, inv_sqrt)
    C[np.diag_indices(d)] = np.diagonal(C) + rank_policy.epsilon_for(trace / d) / lam + 1.0
    spec = eigh(C)
    mu, W = spec.eigenvalues[::-1], spec.eigenvectors[:, ::-1]
    return Spectrum(1.0 / mu, (V * inv_sqrt) @ (W / np.sqrt(mu)))


def apply_whitener(W: Whitener, X: Dataset) -> Dataset:
    """Transform X by the fitted M (same transform for every split)."""
    if X.feature_dim != W.feature_dim:
        raise ShapeError(
            f"whitener fitted on {W.feature_dim} features, data has {X.feature_dim}"
        )
    return Dataset._adopt(W.M @ X.values)


def verify_whitened(X_hat: Dataset, tol: float = 1e-6) -> WhitenessReport:
    """Check that every eigenvalue of F-hat is within tol of 0 or of 1."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    eigenvalues = np.linalg.eigvalsh(compute_F(X_hat))[::-1]
    ones = np.abs(eigenvalues - 1.0) <= tol
    zeros = np.abs(eigenvalues) <= tol
    passed = bool(np.all(ones | zeros))
    return WhitenessReport(
        eigenvalues=eigenvalues,
        ones_count=int(np.count_nonzero(ones)),
        zeros_count=int(np.count_nonzero(zeros & ~ones)),
        passed=passed,
    )
