"""Global-best particle swarm maximizer over a box.

The canonical update, per particle and coordinate:

    v <- w*v + c1*r1*(personal_best - x) + c2*r2*(global_best - x)
    x <- clamp(x + v, lower, upper)

with the inertia weight w falling linearly from ``w_start`` to ``w_end``
across the iteration budget. Runs are bit-reproducible for a given seed,
whether run alone or stacked with others.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .data import Bounds
from .errors import DimensionMismatchError
from .logistic import freeze_fields

# Largest (runs, pop, n) swarm array one stacked group may hold, in floats.
STACK_FLOATS = 2**16


@dataclass(frozen=True)
class SwarmConfig:
    """Hyperparameters of one swarm run.

    ``velocity_clamp_fraction`` caps each velocity component at that fraction
    of the box width, which keeps c1 = c2 = 2 from diverging while still
    letting particles reach the walls. ``scalar_rand`` switches the two random
    factors from per-coordinate vectors to a single scalar per particle.
    """

    population_size: int
    max_iterations: int
    seed: int
    c1: float = 2.0
    c2: float = 2.0
    w_start: float = 0.9
    w_end: float = 0.4
    velocity_clamp_fraction: float = 1.0
    scalar_rand: bool = False

    def __post_init__(self) -> None:
        weights = (self.c1, self.c2, self.w_start, self.w_end, self.velocity_clamp_fraction)
        if not all(math.isfinite(w) for w in weights):
            raise ValueError("c1, c2, w_start, w_end and velocity_clamp_fraction must be finite")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("c1 and c2 must be non-negative")
        if not (0 <= self.w_end <= self.w_start):
            raise ValueError("need w_start >= w_end >= 0")
        if not (0 < self.velocity_clamp_fraction <= 1):
            raise ValueError("velocity_clamp_fraction must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class SwarmResult:
    """A run's seed, best point, its value and per-iteration best-value trace.

    ``history[0]`` is the best value among the initial positions; one entry
    follows per update sweep, so ``len(history) == iterations_run + 1`` and
    the trace is non-decreasing with ``history[-1] == best_value``.
    """

    seed: int
    best_position: np.ndarray
    best_value: float
    iterations_run: int
    history: np.ndarray

    def __post_init__(self) -> None:
        freeze_fields(self, best_position=float, history=float)


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


def maximize(
    objective, bounds: Bounds, config: SwarmConfig, seeds: Iterable[int]
) -> list[SwarmResult]:
    """Run one seeded swarm per seed and return each run's global best.

    ``objective`` is a batch objective: it maps an ``(m, n)`` block of
    positions to their ``(m,)`` values, and a row's value must not depend on
    the block it comes in. Results come back in seed order.

    The runs are stacked into one ``(runs, pop, n)`` swarm, in groups of at
    most ``STACK_FLOATS`` floats per array (at least one run each), so every
    sweep makes one update and one objective call per group. Each run keeps
    its own ``np.random.default_rng(seed)`` and draws in a frozen order:
    initial positions, then initial velocities, both particle-major; per
    update sweep one ``(pop, 2, n)`` uniform block, i.e. r1 then r2 for
    particle 0, then particle 1, and so on. A stacked run is therefore
    bit-identical to the same seed run alone.

    Initial positions are uniform in the box, initial velocities uniform in
    ``+-(upper - lower)``. Degenerate dimensions (zero width) stay pinned at
    their bound: their positions, velocities and both difference terms are
    identically zero throughout. Every evaluated position lies inside the box.
    """
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
