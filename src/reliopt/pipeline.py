"""End-to-end flow: fit the reliability model, then prescribe ratio targets.

Stage one fits the logistic model on the whole dataset. Stage two freezes the
coefficients, derives the search box from the data, runs a seeded ensemble of
swarm maximizations of the reliability, and reports the closed-form corner
optimum together with distinct near-optimal prescriptions. Deliberately small
iteration budgets leave the ensemble short of the corner, which is what makes
the prescriptions actionable: interior ratio vectors that give up almost no
reliability. When the corner's value is at least 0.5, and so bounds every
evaluation, a run stops sweeping once it reaches that value, once nothing
it can still reach scores above its best (its global best on the coordinates
its whole swarm holds, with the corner's on the others, scores no higher),
or once its swarm holds every coordinate and so never moves again. Its
results are the ones the full budget gives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .data import Bounds, Dataset, compute_bounds, score_extremes
from .errors import DimensionMismatchError
from .logistic import FitReport, LogisticModel, _emit_json, fit, freeze_fields, model_payload
from .logistic import reliability_rows, sigmoid
from .pso import SwarmConfig, SwarmResult, check_box, integers, maximize


@dataclass(frozen=True)
class PipelineConfig:
    """Ensemble settings; run i uses seed ``base_seed + i``."""

    swarm: SwarmConfig
    n_runs: int = 25
    base_seed: int = 0
    n_prescriptions: int = 2
    distinctness_radius: float = 0.05

    def __post_init__(self) -> None:
        if not integers(self.n_runs, self.base_seed, self.n_prescriptions):
            raise ValueError("n_runs, base_seed and n_prescriptions must be integers")
        if not 1 <= self.n_runs <= sys.maxsize:  # past it no list of runs can be indexed
            raise ValueError(f"n_runs must be from 1 to {sys.maxsize}")
        if not (0 <= self.n_prescriptions <= self.n_runs):
            raise ValueError("need 0 <= n_prescriptions <= n_runs")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if not (math.isfinite(self.distinctness_radius) and self.distinctness_radius >= 0):
            raise ValueError("distinctness_radius must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class CornerSolution:
    """A box vertex with its reliability and the sign that chose each side.

    Sign +1 means the upper bound, -1 the lower bound, and 0 a fitted slope
    of exactly 0, pinned to the lower bound by convention.
    """

    position: np.ndarray
    value: float
    active_signs: np.ndarray

    def __post_init__(self) -> None:
        freeze_fields(self, position=float, active_signs=int)


@dataclass(frozen=True, eq=False)
class Prescription:
    position: np.ndarray
    reliability: float


@dataclass(frozen=True, eq=False)
class PrescriptionReport:
    model: LogisticModel
    bounds: Bounds
    corner: CornerSolution
    ensemble: tuple[SwarmResult, ...]
    prescriptions: tuple[Prescription, ...]
    config: PipelineConfig
    warnings: tuple[str, ...]
    fit_report: FitReport | None = None


def corner_optimum(model: LogisticModel, bounds: Bounds) -> CornerSolution:
    """The box vertex of the largest reliability, in closed form.

    The reliability rises with the linear score ``b0 + b . x``, so its
    maximum over a box is the vertex that each slope's sign picks. The sign
    is exact, so the vertex does not depend on the ratios' units.

    In float the vertex's score is the largest too: the kernel sums
    correctly rounded products, and those are monotone. Its value is the
    exact float maximum of the reliability when it is at least 0.5, where
    the sigmoid takes its ``1/(1 + e)`` branch, which is non-decreasing.
    Below 0.5 the ``e/(1 + e)`` branch is not, and a point an ulp inside
    the box can score an ulp above the vertex.

    ``score_extremes`` gives the vertex and its score in one kernel call,
    and refuses a box in which the score overflows the float range, so
    stage 2 stops there, before any draw.
    """
    if bounds.n != model.n_features:
        raise DimensionMismatchError(
            f"model has {model.n_features} features, bounds have {bounds.n}"
        )
    position, scores = score_extremes(model, bounds)
    signs = np.sign(model.beta[1:]).astype(int)
    return CornerSolution(position=position, value=float(sigmoid(scores)[0]), active_signs=signs)


def select_prescriptions(
    ensemble: list[SwarmResult] | tuple[SwarmResult, ...],
    corner: CornerSolution,
    bounds: Bounds,
    k: int,
    radius: float,
) -> list[Prescription]:
    """Pick up to k distinct near-optimal solutions from the ensemble.

    The distance between two points is their largest coordinate gap as a
    fraction of the box width; zero-width dimensions are skipped, and with
    none left it is 0. Candidates are visited by reliability, best first
    (ties keep ensemble order, i.e. lowest seed first), and kept only when
    farther than ``radius`` (non-negative) from the corner optimum and from
    every prescription already kept, in one pass that measures each run's
    distance once per kept prescription. May return fewer than k; the caller
    decides whether that is worth a warning.
    """
    ranked = sorted(ensemble, key=lambda run: -run.best_value)
    positions = np.reshape([run.best_position for run in ranked], (-1, bounds.n))
    live = bounds.span > 0

    def distance(point):
        return (np.abs(positions - point)[:, live] / bounds.span[live]).max(axis=1, initial=0.0)

    far = distance(corner.position) > radius
    kept: list[Prescription] = []
    while len(kept) < k and far.any():
        i = int(np.argmax(far))  # the best candidate still far from all kept
        kept.append(Prescription(ranked[i].best_position, ranked[i].best_value))
        far &= distance(positions[i]) > radius  # drops i itself, at distance 0
    return kept


def optimize_reliability(
    model: LogisticModel,
    bounds: Bounds,
    config: PipelineConfig,
    fit_report: FitReport | None = None,
) -> PrescriptionReport:
    """Stage two on its own: ensemble swarm search against a fixed model.

    Deterministic given (model, bounds, config): run i is seeded with
    ``base_seed + i`` and the ensemble is kept in seed order. A fit that did
    not converge or needed the fallback ridge, and a prescription shortfall,
    each add one line to ``warnings``.
    """
    corner = corner_optimum(model, bounds)
    seeds = range(config.base_seed, config.base_seed + config.n_runs)
    # At or above 0.5 the corner's value bounds every evaluation in float
    # (see corner_optimum), so a run that reaches it stops sweeping, and so
    # does a frozen run, or one whose reach, moved toward the corner, scores
    # no higher
    ceiling, vertex = (corner.value, corner.position) if corner.value >= 0.5 else (None, None)
    objective = partial(reliability_rows, model)
    ensemble = tuple(
        maximize(objective, bounds, config.swarm, seeds, ceiling=ceiling, corner=vertex)
    )

    prescriptions = tuple(
        select_prescriptions(
            ensemble, corner, bounds, config.n_prescriptions, config.distinctness_radius
        )
    )
    warnings = []
    if fit_report is not None and not fit_report.converged:
        warnings.append(
            f"fit did not converge after {fit_report.iterations} iterations "
            f"(max |gradient| {fit_report.max_abs_gradient:.3g}); "
            "the data may be perfectly separated"
        )
    if fit_report is not None and fit_report.ridge_used > 0:
        warnings.append(
            f"fit needed the fallback ridge {fit_report.ridge_used:g}: "
            "the curvature was singular, e.g. from collinear ratios"
        )
    if len(prescriptions) < config.n_prescriptions:
        warnings.append(
            f"prescription shortfall: requested {config.n_prescriptions}, "
            f"found {len(prescriptions)} distinct solutions"
        )
    return PrescriptionReport(
        model=model,
        bounds=bounds,
        corner=corner,
        ensemble=ensemble,
        prescriptions=prescriptions,
        config=config,
        warnings=tuple(warnings),
        fit_report=fit_report,
    )


def run_pipeline(dataset: Dataset, config: PipelineConfig) -> PrescriptionReport:
    """Both stages: fit on the entire dataset, then prescribe."""
    model, fit_report = fit(dataset)
    bounds = check_box(compute_bounds(dataset), config.swarm, dataset.feature_names)
    return optimize_reliability(model, bounds, config, fit_report=fit_report)


def _record(record, skip: str | None = None) -> dict:
    # a result record's dataclass fields in declaration order, arrays as lists
    values = {f.name: getattr(record, f.name) for f in fields(record) if f.name != skip}
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values.items()}


def report_to_json(report: PrescriptionReport) -> str:
    """Machine-readable report; floats keep full round-trip precision."""
    payload = {
        "model": model_payload(report.model, report.fit_report),
        "bounds": _record(report.bounds),
        "corner": _record(report.corner),
        "ensemble": [_record(run) for run in report.ensemble],
        "prescriptions": [_record(p) for p in report.prescriptions],
        "warnings": list(report.warnings),
        "config": {
            **_record(report.config.swarm),
            **_record(report.config, skip="swarm"),
        },
    }
    return _emit_json(payload) + "\n"
