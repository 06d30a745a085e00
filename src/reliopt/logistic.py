"""Logistic reliability model and its Newton-Raphson maximum-likelihood fit.

The reliability of a bank with ratio vector x is the fitted probability of
the healthy label: ``sigmoid(b0 + b1*x1 + ... + bn*xn)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import (
    DimensionMismatchError,
    NonFiniteIterateError,
    SingleClassDatasetError,
    SingularHessianError,
)

if TYPE_CHECKING:
    from .data import Dataset

DEFAULT_MAX_ITER = 100
DEFAULT_GRAD_TOL = 1e-8
FALLBACK_RIDGE = 1e-8


def sigmoid(t):
    """Numerically stable logistic function, elementwise.

    Both branches keep the exponent non-positive, so there is no overflow
    for any finite argument; scalars in, scalar out.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return float(out[0]) if scalar else out


def log_sigmoid(t):
    """log(sigmoid(t)) without underflowing the probability first."""
    arr = np.asarray(t, dtype=float)
    return np.minimum(arr, 0.0) - np.log1p(np.exp(-np.abs(arr)))


def _sigmoid_scalar(t: float) -> float:
    # fast path for the optimizer's per-point objective calls
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Coefficient vector (intercept first) plus the feature names it scores."""

    beta: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        beta = np.ascontiguousarray(self.beta, dtype=float)
        names = tuple(str(name) for name in self.feature_names)
        if beta.ndim != 1 or beta.size != len(names) + 1:
            raise DimensionMismatchError(
                f"beta must have {len(names) + 1} entries (intercept first), got shape {beta.shape}"
            )
        if not np.isfinite(beta).all():
            raise DimensionMismatchError("beta must be finite")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


@dataclass(frozen=True)
class FitReport:
    converged: bool
    iterations: int
    final_log_likelihood: float
    max_abs_gradient: float
    ridge_used: float


def _check_features(model: LogisticModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_features,):
        raise DimensionMismatchError(
            f"expected {model.n_features} features, got shape {x.shape}"
        )
    return x


def reliability(model: LogisticModel, x) -> float:
    """Probability of the healthy label for ratio vector x, in (0, 1)."""
    x = _check_features(model, x)
    return _sigmoid_scalar(float(model.beta[0] + model.beta[1:] @ x))


def _check_dataset(model: LogisticModel, dataset: Dataset) -> np.ndarray:
    if dataset.n_features != model.n_features:
        raise DimensionMismatchError(
            f"model has {model.n_features} features, dataset has {dataset.n_features}"
        )
    return dataset.features


def log_likelihood(model: LogisticModel, dataset: Dataset) -> float:
    """Bernoulli log-likelihood of the dataset under the model.

    Row contributions are combined with ``math.fsum``, so the result is the
    correctly rounded sum: duplicating every row exactly doubles it.
    """
    t = model.beta[0] + _check_dataset(model, dataset) @ model.beta[1:]
    per_row = np.where(dataset.labels == 1, log_sigmoid(t), log_sigmoid(-t))
    return math.fsum(per_row)


def _augmented(features: np.ndarray) -> np.ndarray:
    # the intercept-augmented feature matrix [1, X]
    return np.hstack([np.ones((features.shape[0], 1)), features])


def _residuals(labels: np.ndarray, t: np.ndarray) -> np.ndarray:
    # y - p without the cancellation of 1 - sigmoid(t) at saturated scores
    return np.where(labels == 1, sigmoid(-t), -sigmoid(t))


def _gradient(augmented: np.ndarray, labels: np.ndarray, t: np.ndarray) -> np.ndarray:
    return augmented.T @ _residuals(labels, t)


def _curvature(augmented: np.ndarray, t: np.ndarray) -> np.ndarray:
    # minus the Hessian; p*(1-p) as sigmoid(t)*sigmoid(-t) stays positive until
    # sigmoid(-|t|) truly underflows, instead of hitting zero near |t|~37
    return (augmented.T * (sigmoid(t) * sigmoid(-t))) @ augmented


def gradient(model: LogisticModel, dataset: Dataset) -> np.ndarray:
    """Gradient of the log-likelihood in beta: residuals against the
    intercept-augmented feature matrix."""
    augmented = _augmented(_check_dataset(model, dataset))
    return _gradient(augmented, dataset.labels, augmented @ model.beta)


def hessian(model: LogisticModel, dataset: Dataset) -> np.ndarray:
    """Hessian of the log-likelihood: symmetric negative semi-definite."""
    augmented = _augmented(_check_dataset(model, dataset))
    h = -_curvature(augmented, augmented @ model.beta)
    return (h + h.T) / 2.0


def _cholesky(matrix: np.ndarray):
    try:
        return cho_factor(matrix, lower=True)
    except (LinAlgError, ValueError):
        return None


def fit(
    dataset: Dataset,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    grad_tol: float = DEFAULT_GRAD_TOL,
) -> tuple[LogisticModel, FitReport]:
    """Maximum-likelihood fit by Newton-Raphson, starting from beta = 0.

    Each step solves ``-H delta = grad`` by Cholesky. The first failure to
    factorize switches on a ridge of ``FALLBACK_RIDGE`` for the rest of the fit
    (steps then solve ``(-H + ridge*I) delta = grad - ridge*beta``) and the
    report records it; SingularHessianError means a failure with the ridge on.

    On perfectly separated data the likelihood has no finite maximizer: the
    gradient shrinks while the coefficients diverge. With no ridge in play,
    a small gradient therefore only counts as convergence when the current
    coefficients do not strictly separate the two classes (a strict separator
    proves the optimum sits at infinity); otherwise the fit runs out of
    iterations and reports ``converged=False`` with finite coefficients.
    """
    labels = dataset.labels
    if labels.min() == labels.max():
        raise SingleClassDatasetError(
            "single-class dataset: need both healthy and bankrupt rows"
        )
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if grad_tol <= 0:
        raise ValueError("grad_tol must be positive")

    augmented = _augmented(dataset.features)
    beta = np.zeros(augmented.shape[1])
    identity = np.eye(beta.size)
    signed = 2.0 * labels - 1.0
    ridge = 0.0
    iterations = 0
    while True:
        t = augmented @ beta
        grad = _gradient(augmented, labels, t)
        if ridge:
            grad = grad - ridge * beta
        converged = bool(np.abs(grad).max() <= grad_tol and (ridge or (signed * t <= 0).any()))
        if converged or iterations == max_iter:
            break
        curvature = _curvature(augmented, t)
        factor = _cholesky(curvature + ridge * identity if ridge else curvature)
        if factor is None and not ridge:
            ridge = FALLBACK_RIDGE
            grad = grad - ridge * beta
            factor = _cholesky(curvature + ridge * identity)
        if factor is None:
            raise SingularHessianError("curvature matrix is singular even with the fallback ridge")
        beta = beta + cho_solve(factor, grad)
        if not np.isfinite(beta).all():
            raise NonFiniteIterateError("Newton iterate overflowed")
        iterations += 1

    model = LogisticModel(beta=beta, feature_names=dataset.feature_names)
    report = FitReport(
        converged=converged,
        iterations=iterations,
        final_log_likelihood=log_likelihood(model, dataset),
        max_abs_gradient=float(np.abs(grad).max()),
        ridge_used=ridge,
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


def model_from_json(text: str) -> tuple[LogisticModel, FitReport | None]:
    payload = json.loads(text)
    model = LogisticModel(
        beta=np.asarray(payload["beta"], dtype=float),
        feature_names=tuple(payload["feature_names"]),
    )
    report = FitReport(**payload["fit"]) if payload.get("fit") else None
    return model, report


def save_model(model: LogisticModel, path: str | Path, report: FitReport | None = None) -> None:
    Path(path).write_text(model_to_json(model, report), encoding="utf-8")


def load_model(path: str | Path) -> tuple[LogisticModel, FitReport | None]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    return model_from_json(path.read_text(encoding="utf-8"))
