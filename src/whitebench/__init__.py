"""Whitening, second-order optimization, and the information they discard.

A numerical toolkit plus experiment harness: PCA/ZCA whitening, closed-form
gradient flow for linear least squares, discrete SGD/Newton/regularized
Gauss-Newton optimizers, small MLPs, and mechanical checks that whitening and
unregularized second-order preconditioning trivialize the sample Gram matrix
and with it the inputs' usable structure.
"""

from .datatypes import (
    Dataset,
    LabelSet,
    Spectrum,
    compute_F,
    compute_K,
    compute_mixed_K,
    eigh,
    estimate_input_rank,
    pseudoinverse,
    random_orthogonal,
)
from .whitening import RankPolicy, Whitener, WhitenessReport, apply_whitener, fit_whitener, population_whitener, verify_whitened
from .linear_flow import (
    FlowSolution,
    LinearModel,
    TimeGrid,
    build_flow,
    early_stop,
    flow_at,
    mse_per_sample,
    optimum_predictions,
    solve_optimum,
)
from .models import MLP, accuracy, init_isotropic, train_to_cutoff
from .optimizers import (
    CGResult,
    OptimizerConfig,
    StepResult,
    backtracking_line_search,
    conjugate_gradient_solve,
    newton_step,
    regularized_gn_step,
    regularized_preconditioner_eigenform,
    sgd_step,
)
from .info_checks import (
    CompressedDataset,
    OrbitReport,
    compress_whitened,
    count_information_parameters,
    full_whitening_null_check,
    orbit_equivalence_check,
    reconstruct_K,
)
from .synth import SyntheticSpec, synthesize
from .records import TrainRecord

__all__ = [
    "Dataset", "LabelSet", "Spectrum",
    "compute_F", "compute_K", "compute_mixed_K", "eigh", "estimate_input_rank",
    "pseudoinverse", "random_orthogonal",
    "RankPolicy", "Whitener", "WhitenessReport", "apply_whitener", "fit_whitener", "population_whitener", "verify_whitened",
    "FlowSolution", "LinearModel", "TimeGrid", "build_flow", "early_stop", "flow_at",
    "mse_per_sample", "optimum_predictions", "solve_optimum",
    "MLP", "accuracy", "init_isotropic", "train_to_cutoff",
    "CGResult", "OptimizerConfig", "StepResult",
    "backtracking_line_search", "conjugate_gradient_solve", "newton_step",
    "regularized_gn_step", "regularized_preconditioner_eigenform", "sgd_step",
    "CompressedDataset", "OrbitReport", "compress_whitened", "count_information_parameters",
    "full_whitening_null_check", "orbit_equivalence_check", "reconstruct_K",
    "SyntheticSpec", "synthesize", "TrainRecord",
]
