"""Logistic reliability model and its Newton-Raphson maximum-likelihood fit.

The reliability of a bank with ratio vector x is the fitted probability of
the healthy label: ``sigmoid(b0 + b1*x1 + ... + bn*xn)``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatchError,
    MalformedModelError,
    NonFiniteIterateError,
    SingleClassDatasetError,
    SingularHessianError,
)

if TYPE_CHECKING:
    from .data import Dataset

MAX_ITER = 100
DECREMENT_TOL = 1e-10
FALLBACK_RIDGE = 1e-8
COLLINEAR_PIVOT = 1e-12


def sigmoid(t):
    """Numerically stable logistic function, elementwise.

    ``1 / (1 + e)`` for ``t >= 0`` and ``e / (1 + e)`` below, with
    ``e = exp(-|t|)``: the exponent is never positive, so there is no
    overflow for any finite argument; scalars in, scalar out.
    """
    arr = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def log_sigmoid(t):
    """log(sigmoid(t)) without underflowing the probability first."""
    arr = np.asarray(t, dtype=float)
    return np.minimum(arr, 0.0) - np.log1p(np.exp(-np.abs(arr)))


def freeze_fields(record, **dtypes) -> None:
    """Set each named field of a frozen dataclass to a read-only, C-ordered,
    at least 1-D copy of itself in the given dtype, so the record never
    freezes or shares the caller's array."""
    for name, dtype in dtypes.items():
        array = np.array(getattr(record, name), dtype=dtype, order="C", ndmin=1)
        array.setflags(write=False)
        object.__setattr__(record, name, array)


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Coefficient vector (intercept first) plus the feature names it scores."""

    beta: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        freeze_fields(self, beta=float)
        names = tuple(str(name) for name in self.feature_names)
        if self.beta.ndim != 1 or self.beta.size != len(names) + 1:
            raise DimensionMismatchError(
                f"beta must have {len(names) + 1} entries (intercept first), "
                f"got shape {self.beta.shape}"
            )
        if not np.isfinite(self.beta).all():
            raise DimensionMismatchError("beta must be finite")
        object.__setattr__(self, "feature_names", names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


@dataclass(frozen=True)
class FitReport:
    """How ``fit`` ended. ``max_abs_gradient`` is taken at the returned beta,
    in the ratios' units; ``ridge_used`` is 0 or the fallback ridge, in the
    midrange-centered, half-range-scaled coordinates the fit runs in."""

    converged: bool
    iterations: int
    final_log_likelihood: float
    max_abs_gradient: float
    ridge_used: float


def reliability_rows(model: LogisticModel, rows) -> np.ndarray:
    """Reliability of each row of an ``(m, n)`` block of ratio vectors.

    The score is accumulated in fixed column order, ``b0 + x1*b1 + ... +
    xn*bn``, one elementwise operation per column, so a row's value is
    bit-identical whatever block it is evaluated in: alone, in a chunk or in
    a whole stacked swarm. A BLAS matrix-vector product would not be, since
    its summation order depends on the block.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"expected rows of {model.n_features} features, got shape {rows.shape}"
        )
    intercept, *coefficients = model.beta.tolist()
    t = np.full(rows.shape[0], intercept)
    for column, coefficient in zip(rows.T, coefficients):
        t += column * coefficient
    return sigmoid(t)


def reliability(model: LogisticModel, x) -> float:
    """Probability of the healthy label for ratio vector x, in (0, 1).

    The one-row call of ``reliability_rows``: the same bits as that row
    evaluated inside any block.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_features,):
        raise DimensionMismatchError(
            f"expected {model.n_features} features, got shape {x.shape}"
        )
    return float(reliability_rows(model, x[np.newaxis])[0])


def _augmented(features: np.ndarray) -> np.ndarray:
    # the intercept-augmented feature matrix [1, X]
    return np.hstack([np.ones((features.shape[0], 1)), features])


def _residuals(labels: np.ndarray, t: np.ndarray) -> np.ndarray:
    # y - p without the cancellation of 1 - sigmoid(t) at saturated scores
    return np.where(labels == 1, sigmoid(-t), -sigmoid(t))


def _log_likelihood(labels: np.ndarray, t: np.ndarray) -> float:
    return math.fsum(np.where(labels == 1, log_sigmoid(t), log_sigmoid(-t)))


def fit(dataset: Dataset) -> tuple[LogisticModel, FitReport]:
    """Maximum-likelihood fit by Newton-Raphson, starting from beta = 0.

    Newton runs on each ratio less its midrange over half its range, so in
    [-1, 1] (a constant ratio becomes exactly 0); beta is mapped back to the
    ratios' units at the end. Each step solves ``C delta = grad`` by
    Cholesky, C being minus the Hessian, and the fit stops after a step whose
    half squared Newton decrement ``grad @ delta / 2`` (the step's predicted
    gain in log-likelihood, which has no units) is at most ``DECREMENT_TOL``.
    So rescaling or shifting a ratio changes neither the stop nor the fitted
    reliabilities.

    A factorization that fails, or has a pivot below ``COLLINEAR_PIVOT`` of
    its diagonal entry (a ratio that is a linear combination of earlier ones
    up to rounding), switches on a ridge of ``FALLBACK_RIDGE`` times the mean
    diagonal of C for the rest of the fit: steps then solve
    ``(C + ridge*I) delta = grad - ridge*beta`` in the scaled coordinates.
    SingularHessianError means a failure with the ridge on.

    On perfectly separated data the likelihood has no finite maximizer. With
    no ridge in play, a small decrement therefore only counts as convergence
    when the current coefficients do not strictly separate the two classes
    (a strict separator proves the optimum sits at infinity); otherwise the
    fit runs out of iterations and reports ``converged=False`` with finite
    coefficients.
    """
    labels = dataset.labels
    if labels.min() == labels.max():
        raise SingleClassDatasetError("single-class dataset: need both healthy and bankrupt rows")

    low, high = dataset.features.min(axis=0), dataset.features.max(axis=0)
    spread = high / 2 - low / 2  # no overflow, and exactly 0 for a constant ratio
    center = low + spread
    spread[spread == 0] = 1.0
    scaled = _augmented((dataset.features - center) / spread)
    gamma = np.zeros(scaled.shape[1])
    signed = 2.0 * labels - 1.0
    ridge, iterations, converged = 0.0, 0, False
    while iterations < MAX_ITER and not converged:
        t = scaled @ gamma
        grad = scaled.T @ _residuals(labels, t) - ridge * gamma
        # p*(1-p) as sigmoid(t)*sigmoid(-t) stays positive until sigmoid(-|t|)
        # truly underflows, instead of hitting zero near |t|~37
        curvature = (scaled.T * (sigmoid(t) * sigmoid(-t))) @ scaled
        try:
            factor = np.linalg.cholesky(curvature + ridge * np.eye(gamma.size))
            if (factor.diagonal() ** 2 < COLLINEAR_PIVOT * curvature.diagonal()).any():
                raise np.linalg.LinAlgError("a ratio is collinear with earlier ones")
        except np.linalg.LinAlgError:
            if ridge:
                raise SingularHessianError(
                    "curvature matrix is singular even with the fallback ridge"
                ) from None
            # never 0, so a second failure ends the fit
            ridge = max(FALLBACK_RIDGE * curvature.diagonal().mean(), np.finfo(float).tiny)
            continue
        step = np.linalg.solve(factor.T, np.linalg.solve(factor, grad))
        converged = bool(grad @ step / 2 <= DECREMENT_TOL and (ridge or (signed * t <= 0).any()))
        gamma = gamma + step
        if not np.isfinite(gamma).all():
            raise NonFiniteIterateError("Newton iterate overflowed")
        iterations += 1

    try:
        with np.errstate(over="raise"):
            slopes = gamma[1:] / spread
    except FloatingPointError:
        raise NonFiniteIterateError("a fitted slope overflows in its ratio's own units") from None
    beta = np.concatenate([[gamma[0] - slopes @ center], slopes])
    model = LogisticModel(beta=beta, feature_names=dataset.feature_names)
    augmented = _augmented(dataset.features)
    t = augmented @ model.beta
    report = FitReport(
        converged=converged,
        iterations=iterations,
        final_log_likelihood=_log_likelihood(labels, t),
        max_abs_gradient=float(np.abs(augmented.T @ _residuals(labels, t)).max()),
        ridge_used=float(ridge),
    )
    return model, report


def model_to_json(model: LogisticModel, report: FitReport | None = None) -> str:
    """Serialize to JSON; coefficient floats keep full round-trip precision."""
    payload = {
        "feature_names": list(model.feature_names),
        "beta": [float(b) for b in model.beta],
        "fit": asdict(report) if report is not None else None,
    }
    return json.dumps(payload, indent=2) + "\n"


def _is_a(value, kind: str) -> bool:
    # whether a JSON value has the declared type `kind`; ints in range pass as floats
    if type(value) is int and kind == "float":
        return abs(value) <= sys.float_info.max
    return type(value).__name__ == kind


def model_from_json(text: str) -> tuple[LogisticModel, FitReport | None]:
    """Parse ``model_to_json`` output; other JSON is a MalformedModelError."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise MalformedModelError("a model must be a JSON object")
    names, beta, report = payload.get("feature_names"), payload.get("beta"), payload.get("fit")
    if not (isinstance(names, list) and all(_is_a(name, "str") for name in names)):
        raise MalformedModelError("'feature_names' must be a list of strings")
    if not (isinstance(beta, list) and all(_is_a(b, "float") for b in beta)):
        raise MalformedModelError("'beta' must be a list of numbers")
    kinds = {f.name: f.type for f in fields(FitReport)}
    if report is not None and not (
        isinstance(report, dict)
        and report.keys() == kinds.keys()
        and all(_is_a(report[name], kind) for name, kind in kinds.items())
    ):
        expected = ", ".join(f"{name} ({kind})" for name, kind in kinds.items())
        raise MalformedModelError(f"'fit' must be null or an object with {expected}")
    model = LogisticModel(beta=np.asarray(beta, dtype=float), feature_names=tuple(names))
    return model, None if report is None else FitReport(**report)


def save_model(model: LogisticModel, path: str | Path, report: FitReport | None = None) -> None:
    Path(path).write_text(model_to_json(model, report), encoding="utf-8")


def load_model(path: str | Path) -> tuple[LogisticModel, FitReport | None]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        return model_from_json(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError, DimensionMismatchError, MalformedModelError) as exc:
        raise MalformedModelError(f"{path}: not a model file ({exc})") from None
