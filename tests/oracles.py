"""Reference answers the tests check the package against.

``log_likelihood``, ``gradient`` and ``hessian`` are the log-likelihood and
its derivatives in beta, written out from their formulas; only tests read
them.

``reference_load_dataset`` reads a CSV file with one parse call per feature
cell and a numpy finiteness check on each value, and raises where the first
bad line in file order is found. ``reliopt.data.load_dataset`` must give the
same Dataset, or the same error type and message.

The reliability objective is a monotone transform of a linear score, so its
exact maximum over a box sits at a vertex. ``enumerate_corners`` finds that
vertex by exhaustive search, independently of the closed form in
``reliopt.oracle.corner_optimum``.
"""

import csv
from collections import Counter
from pathlib import Path

import numpy as np

from reliopt.data import Bounds, Dataset, MissingPolicy
from reliopt.errors import (
    AllMissingColumnError,
    InvalidDimensionsError,
    InvalidLabelError,
    MalformedRowError,
    MissingValuesRejectedError,
    ReliOptError,
    UnknownLabelColumnError,
)
from reliopt.logistic import LogisticModel, _log_likelihood, reliability_rows, sigmoid
from reliopt.oracle import CornerSolution

MAX_ENUMERATION_DIMS = 20
CHUNK_CORNERS = 2**12  # corners scored per reliability_rows block


class DimensionTooLargeError(ReliOptError):
    """Exhaustive corner enumeration refuses to expand 2**n this large."""


def _augmented_score(model: LogisticModel, dataset: Dataset):
    # [1, X] and its score [1, X] @ beta, as fit computes its report
    augmented = np.hstack([np.ones((dataset.n_rows, 1)), dataset.features])
    return augmented, augmented @ model.beta


def log_likelihood(model: LogisticModel, dataset: Dataset) -> float:
    """Bernoulli log-likelihood of the dataset under the model.

    The score is ``[1, X] @ beta``, as in ``fit``'s report. Rows are summed
    with ``math.fsum``, so the result is correctly rounded: duplicating every
    row exactly doubles it.
    """
    return _log_likelihood(dataset.labels, _augmented_score(model, dataset)[1])


def gradient(model: LogisticModel, dataset: Dataset) -> np.ndarray:
    """Gradient of the log-likelihood in beta: the residuals y - p against
    the intercept-augmented feature matrix."""
    augmented, t = _augmented_score(model, dataset)
    return augmented.T @ np.where(dataset.labels == 1, sigmoid(-t), -sigmoid(t))


def hessian(model: LogisticModel, dataset: Dataset) -> np.ndarray:
    """Hessian of the log-likelihood: symmetric negative semi-definite."""
    augmented, t = _augmented_score(model, dataset)
    h = -(augmented.T * (sigmoid(t) * sigmoid(-t))) @ augmented
    return (h + h.T) / 2.0


def within(bounds: Bounds, x) -> bool:
    """Whether x lies in the closed box."""
    x = np.asarray(x, dtype=float)
    return bool((x >= bounds.lower).all() and (x <= bounds.upper).all())


def enumerate_corners(model: LogisticModel, bounds: Bounds) -> CornerSolution:
    """Best vertex by exhaustive 2**n search, scored in fixed-size chunks.

    Corner k takes the upper bound in coordinate j when bit n-1-j of k is
    set, so k counts through the sign vectors lexicographically (-1 before
    +1). Ties go to the smallest sign vector: the first maximum of the first
    chunk that holds one. ``reliability_rows`` gives a row the same bits in
    any chunk.
    """
    n = bounds.n
    if n > MAX_ENUMERATION_DIMS:
        raise DimensionTooLargeError(f"refusing to enumerate 2**{n} corners")

    shifts = np.arange(n - 1, -1, -1)
    best: CornerSolution | None = None
    for start in range(0, 2**n, CHUNK_CORNERS):
        k = np.arange(start, min(start + CHUNK_CORNERS, 2**n))
        upper = ((k[:, np.newaxis] >> shifts) & 1).astype(bool)
        positions = np.where(upper, bounds.upper, bounds.lower)
        values = reliability_rows(model, positions)
        i = int(np.argmax(values))
        if best is None or values[i] > best.value:
            best = CornerSolution(
                position=positions[i],
                value=float(values[i]),
                active_signs=np.where(upper[i], 1, -1),
            )
    assert best is not None
    return best


_MISSING_TOKENS = {"", "na"}


def _parse_cell(cell: str, column: str, lineno: int, path: Path) -> float:
    """Parse one feature cell; missing cells become NaN."""
    text = cell.strip()
    if text.lower() in _MISSING_TOKENS:
        return np.nan
    try:
        value = float(text)
    except ValueError:
        raise MalformedRowError(
            f"{path}:{lineno}: non-numeric value {cell!r} in column {column!r}"
        ) from None
    if not np.isfinite(value):
        raise MalformedRowError(f"{path}:{lineno}: non-finite value {cell!r} in column {column!r}")
    return value


def _mean_impute(features: np.ndarray) -> np.ndarray:
    out = np.array(features, dtype=float)
    for j in range(out.shape[1]):
        column = out[:, j]
        missing = np.isnan(column)
        if not missing.any():
            continue
        if missing.all():
            raise AllMissingColumnError(f"column {j} has no observed values to average")
        column[missing] = column[~missing].mean()
    return out


def _read_rows(path: Path, label_column: str):
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
            label_text = row[label_index].strip()
            if label_text.lower() in _MISSING_TOKENS:
                raise InvalidLabelError(f"{path}:{lineno}: missing label")
            try:
                label_value = float(label_text)
            except ValueError:
                raise InvalidLabelError(f"{path}:{lineno}: invalid label {label_text!r}") from None
            if label_value not in (0.0, 1.0):
                raise InvalidLabelError(f"{path}:{lineno}: label must be 0 or 1, got {label_text!r}")
            labels.append(int(label_value))
            rows.append(
                [
                    _parse_cell(cell, header[i], lineno, path)
                    for i, cell in enumerate(row)
                    if i != label_index
                ]
            )
    return feature_names, rows, labels


def reference_load_dataset(
    path: str | Path,
    label_column: str,
    policy: MissingPolicy = MissingPolicy.MEAN_IMPUTE,
) -> Dataset:
    """What ``reliopt.data.load_dataset`` must return or raise for a file."""
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
        features = _mean_impute(features)
    try:
        return Dataset(features=features, labels=np.asarray(labels), feature_names=feature_names)
    except InvalidDimensionsError as exc:
        raise InvalidDimensionsError(f"{path}: {exc}") from None
