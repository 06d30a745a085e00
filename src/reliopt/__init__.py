"""Bank reliability: fit a logistic health model on financial ratios, then
search the data-derived ratio box for the vectors that maximize it."""

from .data import (
    DEFAULT_SEED,
    Bounds,
    Dataset,
    MissingPolicy,
    compute_bounds,
    generate_synthetic,
    load_dataset,
    mean_impute,
    save_dataset,
)
from .logistic import (
    FitReport,
    LogisticModel,
    fit,
    gradient,
    hessian,
    load_model,
    log_likelihood,
    model_from_json,
    model_to_json,
    reliability,
    save_model,
    sigmoid,
)
from .oracle import CornerSolution, corner_optimum, enumerate_corners
from .pipeline import (
    EnsembleRun,
    PipelineConfig,
    Prescription,
    PrescriptionReport,
    normalized_distance,
    optimize_reliability,
    report_to_json,
    run_pipeline,
    select_prescriptions,
)
from .pso import SwarmConfig, SwarmResult, maximize, position_update, velocity_update

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "CornerSolution",
    "DEFAULT_SEED",
    "Dataset",
    "EnsembleRun",
    "FitReport",
    "LogisticModel",
    "MissingPolicy",
    "PipelineConfig",
    "Prescription",
    "PrescriptionReport",
    "SwarmConfig",
    "SwarmResult",
    "compute_bounds",
    "corner_optimum",
    "enumerate_corners",
    "fit",
    "generate_synthetic",
    "gradient",
    "hessian",
    "load_dataset",
    "load_model",
    "log_likelihood",
    "maximize",
    "mean_impute",
    "model_from_json",
    "model_to_json",
    "normalized_distance",
    "optimize_reliability",
    "position_update",
    "reliability",
    "report_to_json",
    "run_pipeline",
    "save_dataset",
    "save_model",
    "select_prescriptions",
    "sigmoid",
    "velocity_update",
]
