"""Reference answers the tests check the package against.

``log_likelihood``, ``gradient`` and ``hessian`` are the log-likelihood and
its derivatives in beta, written out from their formulas; only tests read
them. ``reference_score_rows`` is the score as one multiply and one add per
column: ``reliopt.logistic.score_rows`` must give the same bits.

``reference_load_dataset`` reads a CSV file with one parse call per feature
cell and a numpy finiteness check on each value, and raises where the first
bad line in file order is found. ``reliopt.data.load_dataset`` must give the
same Dataset, or the same error type and message. Datasets compare by
identity; ``same_dataset`` compares two by their names, values and labels.

The reliability objective is a monotone transform of a linear score, so its
exact maximum over a box sits at a vertex. ``enumerate_corners`` finds that
vertex by exhaustive search, independently of the closed form in
``reliopt.pipeline.corner_optimum``.

``normalized_distance`` is the distance between two prescriptions, one pair
at a time: ``reliopt.pipeline.select_prescriptions`` must keep the runs that a
greedy pass built on it keeps.

``velocity_update`` and ``position_update`` are the swarm's update equations,
one fresh array per step, and ``reference_maximize`` is the stacked swarm
built from them: ``reliopt.pso.maximize`` must give the same results, bit for
bit.
"""

import csv
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from reliopt.data import Bounds, Dataset, MissingPolicy
from reliopt.errors import (
    AllMissingColumnError,
    DimensionMismatchError,
    InvalidDimensionsError,
    InvalidLabelError,
    MalformedRowError,
    MissingValuesRejectedError,
    ReliOptError,
    UnknownLabelColumnError,
)
from reliopt.logistic import LogisticModel, _log_likelihood, reliability_rows, sigmoid
from reliopt.pipeline import CornerSolution
from reliopt.pso import SwarmConfig, SwarmResult

MAX_ENUMERATION_DIMS = 20
STACK_FLOATS = 2**16  # the reference's own group size: patching reliopt.pso's leaves it
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


def reference_score_rows(model: LogisticModel, rows) -> np.ndarray:
    """``b0 + x1*b1 + ... + xn*bn`` per row, from ``b0``, adding each column's
    product as it is formed."""
    rows = np.asarray(rows, dtype=float)
    intercept, *coefficients = model.beta.tolist()
    t = np.full(rows.shape[0], intercept)
    for column, coefficient in zip(rows.T, coefficients):
        t += column * coefficient
    return t


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


def same_dataset(a: Dataset, b: Dataset) -> bool:
    """Whether two datasets hold the same feature names, features and labels."""
    return (
        a.feature_names == b.feature_names
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
    )


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
        observed = column[~missing]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = observed.mean()
            if not np.isfinite(mean):  # the observed values sum past the float range
                scale = np.abs(observed).max()
                mean = scale * (observed / scale).mean()
        column[missing] = mean
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
        first_line = reader.line_num + 1  # a quoted field may hold line breaks
        try:
            for row in reader:
                lineno, first_line = first_line, reader.line_num + 1
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
        except csv.Error as exc:  # such as a field past the csv module's size limit
            raise MalformedRowError(f"{path}:{first_line}: {exc}") from None
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


def _as_matching(*vectors) -> list[np.ndarray]:
    arrays = [np.asarray(v, dtype=float) for v in vectors]
    shape = arrays[0].shape
    for a in arrays[1:]:
        if a.shape != shape:
            raise DimensionMismatchError(f"shape {a.shape} does not match {shape}")
    return arrays


def velocity_update(
    v_old,
    x_old,
    personal_best,
    global_best,
    w: float,
    c1: float,
    c2: float,
    r1,
    r2,
    v_max=None,
):
    """One velocity step; ``v_max`` (if given) clamps each component to
    ``[-v_max, v_max]``. Accepts stacked rows as well as single vectors."""
    v_old, x_old, personal_best, global_best = _as_matching(
        v_old, x_old, personal_best, global_best
    )
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    v_new = w * v_old + c1 * r1 * (personal_best - x_old) + c2 * r2 * (global_best - x_old)
    if v_max is not None:
        v_new = np.clip(v_new, -np.asarray(v_max, dtype=float), v_max)
    return v_new


def position_update(x_old, v_new, bounds: Bounds):
    """One position step, clamped into the box."""
    x_old, v_new = _as_matching(x_old, v_new)
    if x_old.shape[-1] != bounds.n:
        raise DimensionMismatchError(
            f"position has {x_old.shape[-1]} dimensions, bounds have {bounds.n}"
        )
    return np.clip(x_old + v_new, bounds.lower, bounds.upper)


def reference_maximize(
    objective, bounds: Bounds, config: SwarmConfig, seeds: Iterable[int]
) -> list[SwarmResult]:
    """``reliopt.pso.maximize`` as one fresh array per update step, stacked in
    groups of this module's ``STACK_FLOATS``."""
    seeds = list(seeds)
    group = max(1, STACK_FLOATS // (config.population_size * bounds.n))
    results: list[SwarmResult] = []
    for start in range(0, len(seeds), group):
        results += _stacked(objective, bounds, config, seeds[start : start + group])
    return results


def _stacked(objective, bounds: Bounds, config: SwarmConfig, seeds: list[int]) -> list[SwarmResult]:
    rngs = [np.random.default_rng(seed) for seed in seeds]
    lower, upper = bounds.lower, bounds.upper
    span = bounds.span
    v_max = config.velocity_clamp_fraction * span
    runs, pop, n = len(seeds), config.population_size, bounds.n
    shape = (runs, pop, n)

    def evaluate(points):
        return np.array(objective(points.reshape(runs * pop, n)), dtype=float).reshape(runs, pop)

    positions = np.empty(shape)
    velocities = np.empty(shape)
    for rng, x, v in zip(rngs, positions, velocities):
        # numpy's own uniform, which the package's one random call per run
        # must match bit for bit
        x[...] = rng.uniform(lower, upper, size=(pop, n))
        v[...] = rng.uniform(-span, span, size=(pop, n))

    run = np.arange(runs)
    best_positions = positions.copy()
    best_values = evaluate(positions)
    leader = np.argmax(best_values, axis=1)
    global_best = best_positions[run, leader]
    global_value = best_values[run, leader]
    history = [global_value]

    sweeps = config.max_iterations
    rand = np.empty((runs, pop, 2, 1 if config.scalar_rand else n))
    for sweep in range(sweeps):
        w = config.w_start + (config.w_end - config.w_start) * (sweep / max(sweeps - 1, 1))
        for rng, block in zip(rngs, rand):
            rng.random(out=block)
        velocities = velocity_update(
            velocities,
            positions,
            best_positions,
            np.broadcast_to(global_best[:, np.newaxis], shape),
            w,
            config.c1,
            config.c2,
            rand[:, :, 0, :],
            rand[:, :, 1, :],
            v_max,
        )
        positions = position_update(positions, velocities, bounds)
        values = evaluate(positions)
        improved = values > best_values
        best_positions[improved] = positions[improved]
        best_values[improved] = values[improved]
        leader = np.argmax(best_values, axis=1)
        gained = best_values[run, leader] > global_value
        global_value = np.where(gained, best_values[run, leader], global_value)
        global_best[gained] = best_positions[run[gained], leader[gained]]
        history.append(global_value)

    trace = np.array(history)
    return [
        SwarmResult(seed, global_best[r], float(global_value[r]), sweeps, trace[:, r])
        for r, seed in enumerate(seeds)
    ]
