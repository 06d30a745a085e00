"""Bank reliability: fit a logistic health model on financial ratios, then
search the data-derived ratio box for the vectors that maximize it."""

from .data import Bounds, Dataset, compute_bounds, load_dataset, save_dataset
from .logistic import LogisticModel, fit, load_model, reliability
from .pipeline import PipelineConfig, optimize_reliability, report_to_json, run_pipeline
from .pso import SwarmConfig

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "Dataset",
    "LogisticModel",
    "PipelineConfig",
    "SwarmConfig",
    "compute_bounds",
    "fit",
    "load_dataset",
    "load_model",
    "optimize_reliability",
    "reliability",
    "report_to_json",
    "run_pipeline",
    "save_dataset",
]
