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
    require_nontrivial_spectrum,
    resolved_rank,
    symmetrize,
)
from .errors import ShapeError, ValidationError

WHITENING_MODES = ("pca", "zca")
RANK_POLICIES = ("jitter", "manual")


@dataclass(frozen=True)
class RankPolicy:
    """How near-zero eigenvalues of the fitted F are handled.

    kind "jitter": add epsilon to every diagonal entry of S before inverting;
    epsilon=None means 1e-8 * mean(diag S), tied to the spectrum scale.
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


@dataclass(frozen=True)
class Whitener:
    """A fitted linear whitening transform.

    Immutable; `mean` is None unless the transform was fitted with centering,
    in which case apply() subtracts it before multiplying by M. `eigenpairs`
    holds (S, V) of the second moment M was built from, S clamped at 0 and V
    signed as in M; `spectrum` checks them into a Spectrum only when read,
    which keeps that cost off the many small fits that never read it.
    """

    M: np.ndarray
    fit_rank: int
    eigenpairs: tuple
    mean: np.ndarray | None = None

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
    tolerance: float
    passed: bool


def _inv_sqrt(S: np.ndarray, policy: RankPolicy):
    """The diagonal S^{-1/2} under `policy` and the fit rank, for all d descending eigenvalues S >= 0."""
    require_nontrivial_spectrum(S, "fitted second moment")
    rank = resolved_rank(S)
    if policy.kind == "jitter":
        eps = policy.epsilon if policy.epsilon is not None else 1e-8 * float(np.mean(S))
        return 1.0 / np.sqrt(S + eps), rank
    inv_sqrt = np.ones_like(S)
    inv_sqrt[:rank] = 1.0 / np.sqrt(S[:rank])
    return inv_sqrt, rank


def _whiten_spectrum(S: np.ndarray, V: np.ndarray, mode: str, policy: RankPolicy, mean=None) -> Whitener:
    """The whitener of the second moment V diag(S) V^T (S descending, clamped at 0 here) under `policy`.

    Each column of V is first signed so that its largest-magnitude entry (the
    first on ties) is positive, which fixes PCA's row signs; ZCA's are moot.
    """
    if mode not in WHITENING_MODES:
        raise ValidationError(f"unknown whitening mode {mode!r}")
    S = np.maximum(S, 0.0)
    inv_sqrt, rank = _inv_sqrt(S, policy)
    cols = np.arange(V.shape[1])
    V = V * np.sign(V[np.argmax(np.abs(V), axis=0), cols])
    M = inv_sqrt[:, None] * V.T if mode == "pca" else (V * inv_sqrt[None, :]) @ V.T
    return Whitener(M=M, fit_rank=rank, eigenpairs=(S, V), mean=mean)


def fit_whitener(
    X_fit: Dataset,
    mode: str = "pca",
    rank_policy: RankPolicy | None = None,
    center: bool = False,
) -> Whitener:
    """Fit a whitening transform on X_fit.

    Which data the transform is fitted on (train split, all splits) is the
    caller's choice. Centering is off by default; when on, the fit-set row
    means are stored and subtracted by apply().
    """
    mean = None
    values = X_fit.values
    if center:
        mean = values.mean(axis=1, keepdims=True)
        values = values - mean
    d, n = values.shape
    if n <= d:
        V, s, _ = np.linalg.svd(values, full_matrices=True)
        S = np.pad(s * s, (0, d - n))
    else:
        spec = eigh(symmetrize(values @ values.T))
        S, V = spec.eigenvalues, spec.eigenvectors
    return _whiten_spectrum(S, V, mode, rank_policy or RankPolicy(), mean)


def population_whitener(second_moment: Spectrum, mode: str = "pca", rank_policy: RankPolicy | None = None) -> Whitener:
    """Whiten with a known second moment (e.g. a source's E[F], or eigh(F) of an uncentered fit set): rank
    policy, jitter and PCA/ZCA act on its eigenvalues exactly as on a fitted F's. There is no mean to center on."""
    return _whiten_spectrum(second_moment.eigenvalues, second_moment.eigenvectors, mode, rank_policy or RankPolicy())


def whitened_modes(fit: Spectrum, mode: str, rank_policy: RankPolicy) -> tuple[Spectrum, np.ndarray]:
    """The eigenpairs (rates, V-hat) of M F M^T, descending, for the whitener M of F = V diag(S) V^T, and U = M^T V-hat.

    M F M^T = V-hat diag(inv_sqrt^2 S) V-hat^T with V-hat the standard basis (PCA) or V (ZCA), so U = V diag(inv_sqrt)
    either way and neither M nor F is multiplied. `fit` may hold only a thin SVD's leading V: the rest have rate 0.
    So has every mode past the fit rank: it is a null direction within rounding, not a slow mode.
    """
    d, r = fit.eigenvectors.shape
    S = np.maximum(fit.eigenvalues, 0.0)
    inv_sqrt, rank = _inv_sqrt(np.pad(S, (0, d - r)), rank_policy)
    inv_sqrt = inv_sqrt[:r]
    rates = inv_sqrt * inv_sqrt * S
    rates[rank:] = 0.0
    order = np.argsort(-rates, kind="stable")
    V = fit.eigenvectors[:, order]
    V_hat = V if mode == "zca" else np.zeros((d, r))
    if mode == "pca":  # the standard basis in rate order, built d x r: np.eye(d) would take d x d
        V_hat[order, np.arange(r)] = 1.0
    return Spectrum(rates[order], V_hat), V * inv_sqrt[order]


def full_whitened_modes(train: Spectrum, others: list, rank_policy: RankPolicy) -> tuple[Spectrum, np.ndarray] | None:
    """`whitened_modes` of the `full` whitener, F_full = F_train + F_o with F_o = sum X X^T over the d x n arrays
    `others`, read off train = (Lambda, V), all d eigenpairs of F_train; None unless the fit provably keeps all d
    modes: Lambda_min > d eps (Lambda_0 + ||others||_F^2), by Weyl's bounds S_min(F_full) >= Lambda_min and
    S_0(F_full) <= Lambda_0 + tr F_o, and `datatypes.resolved_rank`.

    Then M^T M = (F_full + epsilon I)^-1 (epsilon = 0 under manual) for PCA and ZCA alike, all a flow from W0 = 0
    reads of M. Its modes solve F_train u = rate (F_full + epsilon I) u, u^T (F_full + epsilon I) u = 1: C = I +
    Lambda^-1/2 V^T (F_o + epsilon I) V Lambda^-1/2 has eigenpairs (mu, w), rate = 1 / mu and u = V Lambda^-1/2 w
    mu^-1/2. w is V-hat of M = C^-1/2 Lambda^-1/2 V^T; no fit, M or F_full is formed.
    """
    lam, V = train.eigenvalues, train.eigenvectors
    d = lam.size
    F_o = symmetrize(sum(G @ G.T for G in (V.T @ X for X in others)))  # V^T F_o V, exactly symmetric
    trace_o = float(np.trace(F_o))  # ||others||_F^2
    if not lam[-1] > d * np.finfo(float).eps * (lam[0] + trace_o):
        return None
    inv_sqrt = 1.0 / np.sqrt(lam)
    C = F_o * np.outer(inv_sqrt, inv_sqrt)
    if rank_policy.kind == "jitter":  # the default epsilon is 1e-8 mean(S_full)
        epsilon = rank_policy.epsilon if rank_policy.epsilon is not None else 1e-8 * (float(np.sum(lam)) + trace_o) / d
        C[np.diag_indices(d)] += epsilon / lam
    C[np.diag_indices(d)] += 1.0
    spec = eigh(C)
    mu, W = spec.eigenvalues[::-1], spec.eigenvectors[:, ::-1]
    return Spectrum(1.0 / mu, W), (V * inv_sqrt) @ (W / np.sqrt(mu))


def apply_whitener(W: Whitener, X: Dataset) -> Dataset:
    """Transform X by the fitted M (same transform for every split)."""
    if X.feature_dim != W.feature_dim:
        raise ShapeError(
            f"whitener fitted on {W.feature_dim} features, data has {X.feature_dim}"
        )
    values = X.values if W.mean is None else X.values - W.mean
    return Dataset._adopt(W.M @ values)


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
        tolerance=tol,
        passed=passed,
    )
