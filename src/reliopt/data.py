"""Labeled financial-ratio datasets: loading, imputation, bounds, synthesis.

CSV dialect: UTF-8 (a leading byte order mark is skipped), comma delimited,
mandatory header row of distinct names, ``.`` decimal separator. A missing
cell is an empty field or the literal ``NA`` (case-insensitive). Labels are
binary: 1 = healthy, 0 = bankrupt.
"""

from __future__ import annotations

import csv
import enum
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AllMissingColumnError,
    InvalidDimensionsError,
    InvalidLabelError,
    MalformedRowError,
    MissingValuesRejectedError,
    UnknownLabelColumnError,
)
from .logistic import freeze_fields, sigmoid

DEFAULT_SEED = 0

_MISSING_TOKENS = {"", "na"}


class MissingPolicy(enum.Enum):
    """How to treat missing feature cells at load time."""

    MEAN_IMPUTE = "mean"
    REJECT_MISSING = "reject"


@dataclass(frozen=True, eq=False)
class Bounds:
    """Per-feature box: ``lower[i] <= x[i] <= upper[i]``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        freeze_fields(self, lower=float, upper=float)
        lower, upper = self.lower, self.upper
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise InvalidDimensionsError("lower and upper must be 1-D vectors of equal length")
        if lower.size < 1:
            raise InvalidDimensionsError("bounds need at least one dimension")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise InvalidDimensionsError("bounds must be finite")
        if (lower > upper).any():
            bad = int(np.argmax(lower > upper))
            raise InvalidDimensionsError(f"lower[{bad}] > upper[{bad}]")

    @property
    def n(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        """Per-dimension width ``upper - lower`` (zero for degenerate dims)."""
        return self.upper - self.lower


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix of financial ratios plus binary health labels.

    Immutable after construction; arrays are set read-only so instances can
    be shared freely across threads.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        freeze_fields(self, features=float)
        features = self.features
        raw_labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise InvalidDimensionsError("features must be a 2-D matrix")
        m, n = features.shape
        if m < 2 or n < 1:
            raise InvalidDimensionsError(f"need at least 2 rows and 1 feature, got {m}x{n}")
        if raw_labels.shape != (m,):
            raise InvalidDimensionsError(f"expected {m} labels, got shape {raw_labels.shape}")
        # validate before casting so a stray 0.5 cannot truncate to a valid 0
        if not np.isin(raw_labels, (0, 1)).all():
            raise InvalidLabelError("labels must contain only 0 or 1")
        if not np.isfinite(features).all():
            raise MalformedRowError("features must be finite with no missing entries")
        names = tuple(str(name) for name in self.feature_names)
        if len(names) != n:
            raise InvalidDimensionsError(f"expected {n} feature names, got {len(names)}")
        freeze_fields(self, labels=int)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.feature_names == other.feature_names
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
        )


def _number(cell: str) -> float | None:
    """A cell's value: None when it is missing, ValueError when it is not a number."""
    try:
        return float(cell)
    except ValueError:
        if cell.strip().lower() in _MISSING_TOKENS:
            return None
        raise


def mean_impute(features: np.ndarray) -> np.ndarray:
    """Replace each NaN cell with the mean of its column's non-NaN entries.

    A complete matrix passes through unchanged (identity up to copying).
    Every column must have at least one observed value.
    """
    out = np.array(features, dtype=float)
    for j in range(out.shape[1]):
        column = out[:, j]
        missing = np.isnan(column)
        column[missing] = column[~missing].mean()
    return out


def _read_rows(path: Path, label_column: str):
    """The feature names, feature rows (NaN where missing) and labels of a CSV file."""
    # utf-8-sig drops the byte order mark that spreadsheet exports put first
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise MalformedRowError(f"{path}: file is empty, a header row is required") from None
        duplicates = [name for name, count in Counter(header).items() if count > 1]
        if duplicates:
            raise MalformedRowError(f"{path}: duplicate column names {duplicates}")
        if label_column not in header:
            raise UnknownLabelColumnError(f"{path}: no column named {label_column!r}")
        label_index = header.index(label_column)
        feature_names = tuple(name for i, name in enumerate(header) if i != label_index)

        rows: list[list[float]] = []
        labels: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise MalformedRowError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            text = row.pop(label_index).strip()
            try:
                label = _number(text)
            except ValueError:
                raise InvalidLabelError(f"{path}:{lineno}: invalid label {text!r}") from None
            if label is None:
                raise InvalidLabelError(f"{path}:{lineno}: missing label")
            if label not in (0.0, 1.0):
                raise InvalidLabelError(f"{path}:{lineno}: label must be 0 or 1, got {text!r}")
            labels.append(int(label))
            values = []
            try:
                for name, cell in zip(feature_names, row):
                    value = _number(cell)
                    if value is not None and not math.isfinite(value):
                        raise MalformedRowError(
                            f"{path}:{lineno}: non-finite value {cell!r} in column {name!r}"
                        )
                    values.append(math.nan if value is None else value)
            except ValueError:
                raise MalformedRowError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in column {name!r}"
                ) from None
            rows.append(values)
    return feature_names, rows, labels


def load_dataset(
    path: str | Path,
    label_column: str,
    policy: MissingPolicy = MissingPolicy.MEAN_IMPUTE,
) -> Dataset:
    """Read a labeled CSV file into a Dataset.

    The label column is removed from the feature matrix; row order is
    preserved. Missing feature cells are handled per ``policy``; a missing
    label cell is always an error. A malformed file raises at its first bad
    line in file order, naming the line and, for a bad cell, its column.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")

    try:
        feature_names, rows, labels = _read_rows(path, label_column)
    except UnicodeDecodeError:
        raise MalformedRowError(f"{path}: not UTF-8 text") from None

    if not rows:
        raise InvalidDimensionsError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=float)
    missing = np.isnan(features)
    if missing.any():
        if policy is MissingPolicy.REJECT_MISSING:
            where = np.argwhere(missing)[0]
            raise MissingValuesRejectedError(
                f"{path}: missing value in column {feature_names[where[1]]!r} "
                f"(row {where[0] + 1} of data)"
            )
        if missing.all(axis=0).any():
            name = feature_names[int(np.argmax(missing.all(axis=0)))]
            raise AllMissingColumnError(f"{path}: column {name!r} has no observed values")
        features = mean_impute(features)
    try:
        return Dataset(features=features, labels=np.asarray(labels), feature_names=feature_names)
    except InvalidDimensionsError as exc:
        raise InvalidDimensionsError(f"{path}: {exc}") from None


def save_dataset(dataset: Dataset, path: str | Path, label_name: str = "label") -> None:
    """Write a Dataset back to CSV (label column last, full float precision).

    ``repr`` rendering guarantees the values survive a reload bit-exactly.
    """
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(dataset.feature_names) + [label_name])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def compute_bounds(dataset: Dataset) -> Bounds:
    """Componentwise min/max of the feature columns.

    Constant columns yield a degenerate (zero-width) dimension, which the
    optimizer pins rather than rejects.
    """
    return Bounds(dataset.features.min(axis=0), dataset.features.max(axis=0))


def generate_synthetic(
    n_features: int,
    m_rows: int,
    true_beta: np.ndarray,
    feature_ranges: Bounds,
    seed: int = DEFAULT_SEED,
) -> tuple[Dataset, np.ndarray]:
    """Draw a labeled dataset from a known logistic ground truth.

    Features are uniform per column inside ``feature_ranges``; each label is
    Bernoulli with success probability ``sigmoid(b0 + b . x)``. Deterministic
    given ``seed``: the feature matrix is drawn first (row-major), then one
    uniform per row for the labels.

    Returns the dataset together with an (echoed) copy of the coefficients.
    """
    if n_features < 1 or m_rows < 2:
        raise InvalidDimensionsError("need n_features >= 1 and m_rows >= 2")
    beta = np.ascontiguousarray(true_beta, dtype=float)
    if beta.shape != (n_features + 1,) or not np.isfinite(beta).all():
        raise InvalidDimensionsError(
            f"true_beta must be {n_features + 1} finite numbers (intercept first), got {beta}"
        )
    if feature_ranges.n != n_features:
        raise InvalidDimensionsError(
            f"feature_ranges has {feature_ranges.n} dimensions, expected {n_features}"
        )
    if not (feature_ranges.lower < feature_ranges.upper).all():
        raise InvalidDimensionsError("feature_ranges must have lower < upper in every dimension")

    rng = np.random.default_rng(seed)
    features = rng.uniform(feature_ranges.lower, feature_ranges.upper, size=(m_rows, n_features))
    probabilities = sigmoid(beta[0] + features @ beta[1:])
    labels = (rng.random(m_rows) < probabilities).astype(int)
    names = tuple(f"x{i + 1}" for i in range(n_features))
    return Dataset(features=features, labels=labels, feature_names=names), beta.copy()
