"""End-to-end flow: fit the reliability model, then prescribe ratio targets.

Stage one fits the logistic model on the whole dataset. Stage two freezes the
coefficients, derives the search box from the data, runs a seeded ensemble of
swarm maximizations of the reliability, and reports the exact corner optimum
together with distinct near-optimal prescriptions. Deliberately small
iteration budgets leave the ensemble short of the corner, which is what makes
the prescriptions actionable: interior ratio vectors that give up almost no
reliability.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import Bounds, Dataset, compute_bounds
from .logistic import FitReport, LogisticModel, fit, model_to_json, reliability
from .oracle import CornerSolution, corner_optimum
from .pso import SwarmConfig, SwarmResult, maximize

DEFAULT_N_RUNS = 25
DEFAULT_N_PRESCRIPTIONS = 2
DEFAULT_DISTINCTNESS_RADIUS = 0.05


@dataclass(frozen=True)
class PipelineConfig:
    """Ensemble settings; run i uses seed ``base_seed + i`` (the seed field
    of ``swarm`` is ignored)."""

    swarm: SwarmConfig
    n_runs: int = DEFAULT_N_RUNS
    base_seed: int = 0
    n_prescriptions: int = DEFAULT_N_PRESCRIPTIONS
    distinctness_radius: float = DEFAULT_DISTINCTNESS_RADIUS

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValueError("n_runs must be at least 1")
        if not (0 <= self.n_prescriptions <= self.n_runs):
            raise ValueError("need 0 <= n_prescriptions <= n_runs")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if not (math.isfinite(self.distinctness_radius) and self.distinctness_radius >= 0):
            raise ValueError("distinctness_radius must be finite and non-negative")


@dataclass(frozen=True)
class EnsembleRun:
    seed: int
    result: SwarmResult


@dataclass(frozen=True, eq=False)
class Prescription:
    position: np.ndarray
    reliability: float


@dataclass(frozen=True, eq=False)
class PrescriptionReport:
    model: LogisticModel
    bounds: Bounds
    corner: CornerSolution
    ensemble: tuple[EnsembleRun, ...]
    prescriptions: tuple[Prescription, ...]
    config: PipelineConfig
    warnings: tuple[str, ...]
    fit_report: FitReport | None = None


def normalized_distance(a, b, bounds: Bounds) -> float:
    """Largest coordinate gap as a fraction of the box width.

    Zero-width dimensions carry no information and are skipped; if every
    dimension is degenerate the distance is 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    span = bounds.span
    live = span > 0
    if not live.any():
        return 0.0
    return float((np.abs(a - b)[live] / span[live]).max())


def select_prescriptions(
    ensemble: list[EnsembleRun] | tuple[EnsembleRun, ...],
    corner: CornerSolution,
    bounds: Bounds,
    k: int,
    radius: float,
) -> list[Prescription]:
    """Pick up to k distinct near-optimal solutions from the ensemble.

    Candidates are visited by reliability, best first (ties keep ensemble
    order, i.e. lowest seed first), and kept only when farther than
    ``radius`` in normalized distance from the corner optimum and from every
    prescription already kept. May return fewer than k; the caller decides
    whether that is worth a warning.
    """
    ranked = sorted(ensemble, key=lambda run: -run.result.best_value)
    kept: list[Prescription] = []
    for run in ranked:
        if len(kept) == k:
            break
        position = run.result.best_position
        if normalized_distance(position, corner.position, bounds) <= radius:
            continue
        if any(
            normalized_distance(position, p.position, bounds) <= radius for p in kept
        ):
            continue
        kept.append(Prescription(position=position, reliability=run.result.best_value))
    return kept


def optimize_reliability(
    model: LogisticModel,
    bounds: Bounds,
    config: PipelineConfig,
    fit_report: FitReport | None = None,
) -> PrescriptionReport:
    """Stage two on its own: ensemble swarm search against a fixed model.

    Deterministic given (model, bounds, config): run i is seeded with
    ``base_seed + i`` and the ensemble is kept in seed order.
    """
    corner = corner_optimum(model, bounds)

    def objective(x) -> float:
        return reliability(model, x)

    ensemble = tuple(
        EnsembleRun(seed=seed, result=maximize(objective, bounds, replace(config.swarm, seed=seed)))
        for seed in range(config.base_seed, config.base_seed + config.n_runs)
    )

    prescriptions = tuple(
        select_prescriptions(
            ensemble, corner, bounds, config.n_prescriptions, config.distinctness_radius
        )
    )
    warnings: tuple[str, ...] = ()
    if len(prescriptions) < config.n_prescriptions:
        warnings = (
            f"prescription shortfall: requested {config.n_prescriptions}, "
            f"found {len(prescriptions)} distinct solutions",
        )
    return PrescriptionReport(
        model=model,
        bounds=bounds,
        corner=corner,
        ensemble=ensemble,
        prescriptions=prescriptions,
        config=config,
        warnings=warnings,
        fit_report=fit_report,
    )


def run_pipeline(dataset: Dataset, config: PipelineConfig) -> PrescriptionReport:
    """Both stages: fit on the entire dataset, then prescribe."""
    model, fit_report = fit(dataset)
    bounds = compute_bounds(dataset)
    return optimize_reliability(model, bounds, config, fit_report=fit_report)


def report_to_json(report: PrescriptionReport) -> str:
    """Machine-readable report; floats keep full round-trip precision."""
    payload = {
        "model": json.loads(model_to_json(report.model, report.fit_report)),
        "bounds": {
            "lower": [float(v) for v in report.bounds.lower],
            "upper": [float(v) for v in report.bounds.upper],
        },
        "corner": {
            "position": [float(v) for v in report.corner.position],
            "value": report.corner.value,
            "active_signs": [int(s) for s in report.corner.active_signs],
        },
        "ensemble": [
            {
                "seed": run.seed,
                "best_position": [float(v) for v in run.result.best_position],
                "best_value": run.result.best_value,
                "iterations_run": run.result.iterations_run,
                "history": [float(v) for v in run.result.history],
            }
            for run in report.ensemble
        ],
        "prescriptions": [
            {
                "position": [float(v) for v in p.position],
                "reliability": p.reliability,
            }
            for p in report.prescriptions
        ],
        "warnings": list(report.warnings),
        "config": {
            **{
                key: value
                for key, value in asdict(report.config.swarm).items()
                if key != "seed"
            },
            "n_runs": report.config.n_runs,
            "base_seed": report.config.base_seed,
            "n_prescriptions": report.config.n_prescriptions,
            "distinctness_radius": report.config.distinctness_radius,
        },
    }
    return json.dumps(payload, indent=2) + "\n"
