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
import os
import struct
import warnings
from collections import Counter
from contextlib import suppress
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
from .logistic import LogisticModel, freeze_fields, reliability_rows, score_rows

DEFAULT_SEED = 0

_MISSING_TOKENS = {"", "na"}

# A file of at least two blocks is parsed in byte ranges, one per usable CPU
# (see read_blocks).
BLOCK_BYTES = 1 << 20


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


def _number(cell: str) -> float | None:
    """A cell's value: None when it is missing, ValueError when it is not a number."""
    try:
        return float(cell)
    except ValueError:
        if cell.strip().lower() in _MISSING_TOKENS:
            return None
        raise


def mean_impute(features: np.ndarray) -> np.ndarray:
    """Fill each NaN cell of a writable float matrix, in place, with the mean
    of its column's non-NaN entries, and return the matrix.

    A complete matrix is left as it is. Every column must have at least one
    observed value. When the observed values sum past the float range, the
    mean is taken of them scaled by their largest magnitude, which cannot
    overflow.
    """
    for j in range(features.shape[1]):
        column = features[:, j]
        missing = np.isnan(column)
        observed = column[~missing]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = observed.mean()
            if not math.isfinite(mean):
                scale = np.abs(observed).max()
                mean = scale * (observed / scale).mean()
        column[missing] = mean
    return features


def _raise_at(path: Path, lineno: int, names: tuple[str, ...], row: list[str]) -> None:
    """Raise the error of a row's first bad feature cell in column order.

    Returns when every cell is a number or missing and none is non-finite.
    """
    for name, cell in zip(names, row):
        try:
            value = _number(cell)
        except ValueError:
            raise MalformedRowError(
                f"{path}:{lineno}: non-numeric value {cell!r} in column {name!r}"
            ) from None
        if value is not None and not math.isfinite(value):
            raise MalformedRowError(f"{path}:{lineno}: non-finite value {cell!r} in column {name!r}")


def _header(path: Path, reader, label_column: str) -> tuple[int, int, tuple[str, ...]]:
    """The field count, the label's index and the feature names of a CSV
    reader's first record."""
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
    return len(header), label_index, tuple(n for i, n in enumerate(header) if i != label_index)


def _parse_rows(path: Path, reader, width: int, label_index: int, feature_names: tuple[str, ...]):
    """The records left in a CSV reader as one float64 buffer in native byte
    order: each record's feature cells (NaN where missing), then its label."""
    rows = bytearray()
    pack = struct.Struct(f"{len(feature_names) + 1}d").pack
    first_line = reader.line_num + 1  # a quoted field may hold line breaks
    try:
        for row in reader:
            lineno, first_line = first_line, reader.line_num + 1
            if len(row) != width:
                raise MalformedRowError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            text = row.pop(label_index).strip()
            try:
                label = _number(text)
            except ValueError:
                raise InvalidLabelError(f"{path}:{lineno}: invalid label {text!r}") from None
            if label is None:
                raise InvalidLabelError(f"{path}:{lineno}: missing label")
            if label not in (0.0, 1.0):
                raise InvalidLabelError(f"{path}:{lineno}: label must be 0 or 1, got {text!r}")
            # a missing cell holds 0.0 until the row's sum has been checked
            values: list[float] = []
            missing: list[int] = []
            for cell in row:
                try:
                    values.append(float(cell))
                except ValueError:
                    if cell.strip().lower() not in _MISSING_TOKENS:
                        _raise_at(path, lineno, feature_names, row)
                    missing.append(len(values))
                    values.append(0.0)
            if not math.isfinite(sum(values)):
                # a non-finite cell, or finite cells whose sum overflows
                _raise_at(path, lineno, feature_names, row)
            for j in missing:
                values[j] = math.nan
            rows += pack(*values, label)
    except csv.Error as exc:  # such as a field past the csv module's size limit
        raise MalformedRowError(f"{path}:{first_line}: {exc}") from None
    return rows


def _read_stream(path: Path, label_column: str):
    """The feature names and the ``_parse_rows`` buffer of a CSV file, read in one pass."""
    # utf-8-sig drops the byte order mark that spreadsheet exports put first
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        layout = _header(path, reader, label_column)
        return layout[2], _parse_rows(path, reader, *layout)


def _range_lines(handle, start: int, end: int):
    """The lines of an open binary file from ``start`` up to ``end``, both
    line ends, decoded as UTF-8: the lines the one-pass reader's text stream
    gives, or a ValueError.

    A quote fails the range, since a quoted field may hold a line break
    that a cut split, and so does a carriage return other than one before
    the line feed or at the end of the file, which that stream splits at.
    """
    handle.seek(start)
    for line in handle:
        if start >= end:
            return
        if b'"' in line or b"\r" in line.removesuffix(b"\n").removesuffix(b"\r"):
            raise ValueError("a line the one-pass reader alone reads right")
        start += len(line)
        yield line.decode()


def _parse_range(path: Path, start: int, end: int, layout):
    """The ``_parse_rows`` buffer of the records in bytes ``start:end`` of a file.

    Line numbers in its errors count from the range's start; no error of a
    range is shown, because a failed range sends the whole file to the
    one-pass reader.
    """
    with open(path, "rb") as handle:
        return _parse_rows(path, csv.reader(_range_lines(handle, start, end)), *layout)


def _fork_worker(path: Path, start: int, end: int, layout, readers):
    """Fork a process that parses one range and writes its buffer's byte
    count and then the buffer to a pipe, or nothing if it fails; return its
    pid and the pipe's read end. ``readers`` are earlier workers' read ends.
    """
    read_end, write_end = os.pipe()
    pipe = open(read_end, "rb")
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a process with threads (OpenBLAS
            # starts its pool at import) may deadlock the child. This child
            # only parses: it takes no lock held by another thread and ends in
            # os._exit.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except BaseException:
        pipe.close()
        os.close(write_end)
        raise
    if pid == 0:
        try:
            # a read end left open here would keep a write from failing once
            # the parent has closed its own, and the write could block for ever
            for reader in (pipe, *readers):
                reader.close()
            rows = _parse_range(path, start, end, layout)
            with open(write_end, "wb") as out:
                out.write(struct.pack("q", len(rows)))
                out.write(rows)
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, pipe


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def read_blocks(path: Path, label_column: str):
    """The feature names and the ``_parse_rows`` buffer of a CSV file, from
    one byte range per usable CPU parsed in parallel; None when the file is
    under two blocks for two CPUs, the platform cannot fork, or any range
    fails, and the caller then reads the file in one pass: so every dataset,
    error, message and file line is the one-pass reader's.

    The body is cut at the first line feed past each equal share. The first
    range is parsed here, each other one in a forked worker whose buffer is
    appended to this process's as it arrives.
    """
    size = path.stat().st_size
    count = min(_usable_cpus(), size // BLOCK_BYTES)
    if count < 2 or not hasattr(os, "fork"):
        return None
    workers: list = []
    result = None
    try:
        with open(path, "rb") as handle:
            head = handle.readline()
            line = head.removesuffix(b"\n")
            if line == head or b'"' in head or b"\r" in line.removesuffix(b"\r"):
                return None  # a header line the stream alone reads right
            cuts = [handle.tell()]
            for k in range(1, count):
                handle.seek(max(cuts[-1], cuts[0] + k * (size - cuts[0]) // count))
                handle.readline()
                cuts.append(handle.tell())
        cuts.append(size)
        layout = _header(path, csv.reader([head.decode("utf-8-sig")]), label_column)
        for start, end in zip(cuts[1:], cuts[2:]):
            workers.append(_fork_worker(path, start, end, layout, [p for _, p in workers]))
        rows = _parse_range(path, cuts[0], cuts[1], layout)
        for _, pipe in workers:
            (nbytes,) = struct.unpack("q", pipe.read(8))
            end = len(rows) + nbytes
            while chunk := pipe.read(1 << 16):
                rows += chunk
            if len(rows) != end:
                raise ValueError("a worker's output was cut short")
        result = layout[2], rows
    except Exception:
        pass  # the caller reads the whole file in one pass
    finally:
        for pid, pipe in workers:
            pipe.close()
            if result is None:  # a worker still parsing stops at once
                import signal  # loaded only here: no start-up pays for it

                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):  # gone already where SIGCHLD is ignored
                os.waitpid(pid, 0)
    return result


def load_dataset(
    path: str | Path,
    label_column: str,
    policy: MissingPolicy = MissingPolicy.MEAN_IMPUTE,
) -> Dataset:
    """Read a labeled CSV file into a Dataset.

    The label column is removed from the feature matrix; row order is
    preserved. Missing feature cells are handled per ``policy``; a missing
    label cell is always an error. A malformed file raises at its first bad
    record in file order, naming the file line the record starts on and, for
    a bad cell, its column.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")

    try:
        feature_names, rows = read_blocks(path, label_column) or _read_stream(path, label_column)
    except UnicodeDecodeError:
        raise MalformedRowError(f"{path}: not UTF-8 text") from None

    if not rows:
        raise InvalidDimensionsError(f"{path}: no data rows")
    # a writable view of the row buffer, which nothing else holds: imputed in place
    rows = np.frombuffer(rows, dtype=float).reshape(-1, len(feature_names) + 1)
    features = rows[:, :-1]
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
        mean_impute(features)
    try:
        return Dataset(features=features, labels=rows[:, -1], feature_names=feature_names)
    except InvalidDimensionsError as exc:
        raise InvalidDimensionsError(f"{path}: {exc}") from None


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset back to CSV (label column ``label`` last, full float precision).

    ``repr`` rendering guarantees the values survive a reload bit-exactly.
    """
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(dataset.feature_names) + ["label"])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def compute_bounds(dataset: Dataset) -> Bounds:
    """Componentwise min/max of the feature columns.

    Constant columns yield a degenerate (zero-width) dimension, which the
    optimizer pins rather than rejects.
    """
    return Bounds(dataset.features.min(axis=0), dataset.features.max(axis=0))


def score_extremes(model: LogisticModel, bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
    """The box vertex of the largest score ``b0 + b . x``, and the scores at
    it and at the vertex of the smallest, from one ``score_rows`` call.

    Each slope's sign picks a vertex's side; a slope of 0 picks the lower
    bound. The kernel sums correctly rounded products in column order, so
    its float score is monotone in each ratio and every score in the box
    lies between these two: all are finite exactly when both are. A
    non-finite one is an InvalidDimensionsError, raised with no numpy warning.
    """
    rising = model.beta[1:] > 0
    top = np.where(rising, bounds.upper, bounds.lower)
    with np.errstate(all="ignore"):
        scores = score_rows(model, [top, np.where(rising, bounds.lower, bounds.upper)])
    if not np.isfinite(scores).all():
        raise InvalidDimensionsError("the score b0 + b . x overflows the float range in the box")
    return top, scores


def generate_synthetic(
    n_features: int,
    m_rows: int,
    true_beta: np.ndarray,
    feature_ranges: Bounds,
    seed: int = DEFAULT_SEED,
) -> tuple[Dataset, np.ndarray]:
    """Draw a labeled dataset from a known logistic ground truth.

    Features are uniform per column inside ``feature_ranges``; each label is
    Bernoulli with success probability ``sigmoid(b0 + b . x)``, scored by
    ``reliability_rows``, the kernel the swarm uses. Deterministic given
    ``seed``: the feature matrix is drawn first (row-major), then one uniform
    per row for the labels. A score that overflows the float range inside
    ``feature_ranges`` is refused before any draw (``score_extremes``).

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

    names = tuple(f"x{i + 1}" for i in range(n_features))
    model = LogisticModel(beta, names)
    score_extremes(model, feature_ranges)

    rng = np.random.default_rng(seed)
    features = rng.uniform(feature_ranges.lower, feature_ranges.upper, size=(m_rows, n_features))
    probabilities = reliability_rows(model, features)
    labels = (rng.random(m_rows) < probabilities).astype(int)
    return Dataset(features=features, labels=labels, feature_names=names), beta.copy()
