"""Logistic reliability model and its Newton-Raphson maximum-likelihood fit.

The reliability of a bank with ratio vector x is the fitted probability of
the healthy label: ``sigmoid(b0 + b1*x1 + ... + bn*xn)``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, get_type_hints

import numpy as np

from .errors import (
    DimensionMismatchError,
    MalformedModelError,
    NonFiniteIterateError,
    ReliOptError,
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
    overflow for any finite argument.
    """
    arr = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(arr))
    return np.where(arr >= 0, 1.0, e) / (1.0 + e)


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


def score_rows(model: LogisticModel, rows) -> np.ndarray:
    """The score ``b0 + x1*b1 + ... + xn*bn`` of each row of an ``(m, n)``
    block of ratio vectors.

    One multiply forms every product ``xj*bj``, each rounded once, as a
    C-ordered ``(n, m)`` array; one ordered reduce then adds its rows to
    ``b0`` in column order, so a row's value is bit-identical whatever block
    it is evaluated in: alone, in a chunk or in a whole stacked swarm. A
    BLAS matrix-vector product would not be, since its summation order
    depends on the block.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"expected rows of {model.n_features} features, got shape {rows.shape}"
        )
    m = len(rows)
    # the products as a C-ordered (n, m) array, whose rows the reduce adds in
    # order; numpy would sum a lone column pairwise, so a lone row is scored
    # as the first of two
    terms = np.empty((model.n_features, 2 if m == 1 else m))
    terms[...] = rows.T
    terms *= model.beta[1:, np.newaxis]
    return np.add.reduce(terms, axis=0, initial=model.beta[0])[:m]


def reliability_rows(model: LogisticModel, rows) -> np.ndarray:
    """Reliability of each row of an ``(m, n)`` block of ratio vectors: the
    ``sigmoid`` of its ``score_rows`` score, so bit-identical whatever block
    the row is evaluated in."""
    return sigmoid(score_rows(model, rows))


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


def _residuals(labels: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # y - p, with q = sigmoid(-t) for 1 - p: no cancellation at saturated scores
    return np.where(labels == 1, q, -p)


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
    SingularHessianError means a failure with the ridge on. A decrement or
    an iterate or its scores that is not finite is NonFiniteIterateError,
    raised before numpy warns of the overflow.

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
    # the one intercept-augmented matrix: [1, (X - center) / spread] for Newton, [1, X] after
    design = np.ones((dataset.n_rows, dataset.n_features + 1))
    np.subtract(dataset.features, center, out=design[:, 1:])
    design[:, 1:] /= spread
    gamma = np.zeros(design.shape[1])
    signed = 2.0 * labels - 1.0
    ridge, iterations, converged = 0.0, 0, False
    while iterations < MAX_ITER and not converged:
        with np.errstate(over="ignore", invalid="ignore"):
            t = design @ gamma
        if not np.isfinite(t).all():
            raise NonFiniteIterateError("Newton iterate overflowed")
        p, q = sigmoid(t), sigmoid(-t)
        grad = design.T @ _residuals(labels, p, q) - ridge * gamma
        # p*(1-p) as sigmoid(t)*sigmoid(-t) stays positive until sigmoid(-|t|)
        # truly underflows, instead of hitting zero near |t|~37
        curvature = (design.T * (p * q)) @ design
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
        with np.errstate(over="ignore", invalid="ignore"):
            decrement = grad @ step / 2
            gamma = gamma + step
        if not (math.isfinite(decrement) and np.isfinite(gamma).all()):
            raise NonFiniteIterateError("Newton iterate overflowed")
        converged = bool(decrement <= DECREMENT_TOL and (ridge or (signed * t <= 0).any()))
        iterations += 1

    try:
        with np.errstate(over="raise"):
            slopes = gamma[1:] / spread
    except FloatingPointError:
        raise NonFiniteIterateError("a fitted slope overflows in its ratio's own units") from None
    beta = np.concatenate([[gamma[0] - slopes @ center], slopes])
    model = LogisticModel(beta=beta, feature_names=dataset.feature_names)
    design[:, 1:] = dataset.features
    t = design @ model.beta
    report = FitReport(
        converged=converged,
        iterations=iterations,
        final_log_likelihood=_log_likelihood(labels, t),
        max_abs_gradient=float(np.abs(design.T @ _residuals(labels, sigmoid(t), sigmoid(-t))).max()),
        ridge_used=float(ridge),
    )
    return model, report


def model_payload(model: LogisticModel, report: FitReport | None = None) -> dict:
    """The JSON object of a model file, before it is written."""
    return {
        "feature_names": list(model.feature_names),
        "beta": model.beta.tolist(),
        "fit": asdict(report) if report is not None else None,
    }


def model_to_json(model: LogisticModel, report: FitReport | None = None) -> str:
    """Serialize to JSON; coefficient floats keep full round-trip precision."""
    return _emit_json(model_payload(model, report)) + "\n"


@dataclass(frozen=True)
class Fields:
    """The kind of a JSON object: each declared field's kind, and the required ones."""

    kinds: dict
    required: tuple[str, ...] = ()


_NOUNS = {str: "a string", int: "an integer", float: "a finite number", bool: "true or false"}


def checked_json(value, kind, name: str):
    """``value``, parsed JSON, as ``kind``: ``str``, ``int``, ``float`` or ``bool``; ``[kind]``,
    a list; a tuple of allowed values; or ``Fields``, an object, where a null field counts as
    absent and an undeclared key is refused. An int in the float range passes as a float, an
    integral float as an int, and every number must be finite. ValueError names the mismatch."""
    if isinstance(kind, Fields):
        if type(value) is not dict:
            raise ValueError(f"{name} must be an object, got {value!r}")
        if unknown := sorted(value.keys() - kind.kinds.keys()):
            raise ValueError(f"{name} has unknown key(s): {', '.join(unknown)}")
        if missing := [key for key in kind.required if value.get(key) is None]:
            raise ValueError(f"{name} lacks key(s): {', '.join(missing)}")
        return {key: checked_json(item, kind.kinds[key], f"{name}.{key}")
                for key, item in value.items() if item is not None}
    if isinstance(kind, list):
        if type(value) is not list:
            raise ValueError(f"{name} must be a list, got {value!r}")
        return [checked_json(item, kind[0], f"{name}[{i}]") for i, item in enumerate(value)]
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ValueError(f"{name} must be {' or '.join(map(repr, kind))}, got {value!r}")
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    elif kind is int and type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ValueError(f"{name} must be {_NOUNS[kind]}, got {value!r}")
    return value


_escape = json.encoder.encode_basestring_ascii


def _finite(value: float) -> str:
    if not math.isfinite(value):
        raise ReliOptError(
            f"{value!r} has no JSON form: reports and model files hold finite numbers only"
        )
    return float.__repr__(value)


def _float_texts(values: list):
    # each distinct value is formatted once where that pays, in a list of 64
    # values or more of which at least half are repeats; and never with a
    # zero among them: 0.0 == -0.0 as a key, but the two print differently
    if len(values) < 64:
        return map(_finite, values)
    distinct = dict.fromkeys(values)
    if 0.0 in distinct or 2 * len(distinct) > len(values):
        return map(_finite, values)
    text = dict(zip(distinct, map(_finite, distinct)))
    return map(text.__getitem__, values)


def _emit_json(value, indent: str = "\n") -> str:
    """What ``json.dumps`` returns with an indent of 2, for dicts with str keys, lists, str,
    int, bool, None and float; ``indent`` is the newline and padding of ``value``'s own line.
    A NaN or an infinity is a ReliOptError, since JSON has no such numbers."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _finite(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_escape(key)}: {_emit_json(item, inner)}" for key, item in value.items()]
        return "{" + inner + f",{inner}".join(items) + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if {*map(type, value)} == {float}:
            items = _float_texts(value)
        else:
            items = [_emit_json(item, inner) for item in value]
        return "[" + inner + f",{inner}".join(items) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_FIT = get_type_hints(FitReport)
_MODEL = Fields({"feature_names": [str], "beta": [float], "fit": Fields(_FIT, tuple(_FIT))},
                required=("feature_names", "beta"))


def model_from_json(text: str) -> tuple[LogisticModel, FitReport | None]:
    """Parse ``model_to_json`` output; text that is no model's JSON (nested too deep,
    a string or NaN for a number, a missing or unknown key) is a MalformedModelError."""
    try:
        payload = checked_json(json.loads(text), _MODEL, "model")
    except (ValueError, RecursionError) as exc:
        raise MalformedModelError(str(exc)) from None
    model = LogisticModel(payload["beta"], payload["feature_names"])
    return model, FitReport(**payload["fit"]) if "fit" in payload else None


def save_model(model: LogisticModel, path: str | Path, report: FitReport | None = None) -> None:
    Path(path).write_text(model_to_json(model, report), encoding="utf-8")


def load_model(path: str | Path) -> tuple[LogisticModel, FitReport | None]:
    """``model_from_json`` of a file; a MalformedModelError names the file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        return model_from_json(path.read_text(encoding="utf-8"))
    except (ValueError, DimensionMismatchError, MalformedModelError) as exc:
        raise MalformedModelError(f"{path}: not a model file ({exc})") from None
