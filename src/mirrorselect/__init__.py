"""FDR-controlled feature selection for neural networks.

Each feature is replaced by a mirrored pair (x + c z, x - c z) with a
gaussian perturbation z and a scale c that minimizes a kernel measure of
conditional dependence between the two halves given the other features.
A network is trained on the mirrored design, per-half importances are
read from its weights, and features are selected by thresholding the
statistic |L+ + L-| - |L+ - L-| at a data-adaptive level that caps the
estimated false discovery proportion.
"""

__version__ = "0.1.0"

import logging

from .dataset import Dataset
from .errors import (
    ConfigurationError,
    DegeneratePerturbationError,
    InvalidDataError,
    MirrorSelectError,
    NumericalError,
    TrainingError,
)
from .io import (
    load_csv,
    load_truth,
    write_benchmark_csv,
    write_dataset_csv,
    write_json,
    write_roc_csv,
)
from .kernelmeasure import (
    CMinimizationResult,
    GramTriple,
    KernelSpec,
    SearchConfig,
    center_gram,
    closed_form_c_linear,
    conditional_dependence,
    gram_matrix,
    median_heuristic_bandwidth,
    minimize_c,
)
from .mirror import MirrorPair, make_all_mirrors, make_mirror
from .neuralnet import (
    ImportanceVector,
    NetConfig,
    TrainedNet,
    default_hidden_sizes,
    gradient_importance,
    path_importance,
    train,
    train_many,
)
from .rng import RngSeed
from .selection import (
    MirrorStats,
    ScreenOptions,
    ScreenResult,
    SelectionResult,
    adaptive_threshold,
    estimate_fdp,
    fdp_curve,
    mirror_statistic,
    run_ingm,
    run_sngm,
    screen,
    threshold_candidates,
)
from .simulate import (
    BenchmarkResult,
    DesignSpec,
    Metrics,
    ModelSpec,
    ResponseSample,
    RocCurve,
    default_coef_sd,
    evaluate,
    precision_matrix,
    roc_curve,
    run_benchmark,
    sample_design,
    sample_response,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())  # silent by default

__all__ = [
    "__version__",
    "BenchmarkResult",
    "CMinimizationResult",
    "ConfigurationError",
    "Dataset",
    "DegeneratePerturbationError",
    "DesignSpec",
    "GramTriple",
    "ImportanceVector",
    "InvalidDataError",
    "KernelSpec",
    "Metrics",
    "MirrorPair",
    "MirrorSelectError",
    "MirrorStats",
    "ModelSpec",
    "NetConfig",
    "NumericalError",
    "ResponseSample",
    "RngSeed",
    "RocCurve",
    "ScreenOptions",
    "ScreenResult",
    "SearchConfig",
    "SelectionResult",
    "TrainedNet",
    "TrainingError",
    "adaptive_threshold",
    "center_gram",
    "closed_form_c_linear",
    "conditional_dependence",
    "default_coef_sd",
    "default_hidden_sizes",
    "estimate_fdp",
    "evaluate",
    "fdp_curve",
    "gradient_importance",
    "gram_matrix",
    "load_csv",
    "load_truth",
    "make_all_mirrors",
    "make_mirror",
    "median_heuristic_bandwidth",
    "minimize_c",
    "mirror_statistic",
    "path_importance",
    "precision_matrix",
    "roc_curve",
    "run_benchmark",
    "run_ingm",
    "run_sngm",
    "sample_design",
    "sample_response",
    "screen",
    "threshold_candidates",
    "train",
    "train_many",
    "write_benchmark_csv",
    "write_dataset_csv",
    "write_json",
    "write_roc_csv",
]
