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
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .data import Bounds
from .errors import InvalidDimensionsError
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
        # past sys.maxsize numpy cannot even index the arrays
        if not 2 <= self.population_size <= sys.maxsize:
            raise ValueError(f"population_size must be from 2 to {sys.maxsize}")
        if not 1 <= self.max_iterations <= sys.maxsize:
            raise ValueError(f"max_iterations must be from 1 to {sys.maxsize}")
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
    the trace is non-decreasing with ``history[-1] == best_value``. A run
    retired at ``maximize``'s ceiling repeats its best to the end of the
    budget, which is what its remaining sweeps would have recorded.
    """

    seed: int
    best_position: np.ndarray
    best_value: float
    iterations_run: int
    history: np.ndarray

    def __post_init__(self) -> None:
        freeze_fields(self, best_position=float, history=float)


def maximize(
    objective,
    bounds: Bounds,
    config: SwarmConfig,
    seeds: Iterable[int],
    *,
    ceiling: float | None = None,
) -> list[SwarmResult]:
    """Run one seeded swarm per seed and return each run's global best.

    ``objective`` is a batch objective: it maps an ``(m, n)`` block of
    positions to their ``(m,)`` values, and a row's value must not depend on
    the block it comes in. Results come back in seed order.

    ``ceiling``, if given, must be a value that no position in the box
    scores above, such as the exact maximum. A run whose best reaches it is
    retired before the next sweep: its history is filled with that best, and
    it makes no more draws and no more evaluations. Since no later sweep
    could have raised its best, and the other runs neither share its
    generator nor see its rows, every result is the one ``ceiling=None``
    gives, bit for bit.

    The runs are stacked into one ``(runs, pop, n)`` swarm, in groups of at
    most ``STACK_FLOATS`` floats per array (at least one run each), so every
    sweep makes one update and one objective call per group. Each run keeps
    its own ``np.random.default_rng(seed)`` and draws in a frozen order: one
    ``random`` call for the start, initial positions then velocities, both
    particle-major; per update sweep one ``(pop, 2, n)`` block, i.e. r1 then
    r2 for particle 0, then particle 1, and so on. A stacked run is
    therefore bit-identical to the same seed run alone.

    A sweep is a fixed set of in-place operations on buffers allocated once
    per group, and again for the live runs when runs retire, taken in the
    order the formula above reads, so every value rounds as it would in a
    fresh array per step, from the same draws. The objective gets the
    group's positions as a C-contiguous float64 ``(runs*pop, n)`` block,
    which the next sweep overwrites: an objective that keeps its rows copies
    them. With ``ceiling=None`` it is the same block every sweep; as runs
    retire, it is a new and smaller block of the live runs' rows. A sweep in
    which no particle of the group beats its personal best changes no best,
    so it only repeats each run's best in the history.

    Positions start uniform in the box and velocities in ``+-(upper - lower)``,
    placed as ``Generator.uniform`` places the same draws, after ``check_box``
    has refused a box in which the start or a sweep would overflow. Zero-width
    dimensions, also ``0.0`` to ``-0.0``, stay pinned at their bound; every
    evaluated position is in the box. A swarm array too big for any address
    space is a MemoryError before anything is allocated.
    """
    check_box(bounds, config)
    seeds = list(seeds)
    pop, sweeps = config.population_size, config.max_iterations
    group = max(1, STACK_FLOATS // (pop * bounds.n))
    # the largest arrays: two draws per coordinate, and the history; numpy
    # would refuse one past sys.maxsize bytes with a ValueError
    floats = min(group, len(seeds)) * max(2 * pop * bounds.n, sweeps + 1)
    if 8 * floats > sys.maxsize:
        raise MemoryError(f"a swarm array of {floats} floats is past any address space")
    results: list[SwarmResult] = []
    for start in range(0, len(seeds), group):
        results += _stacked(objective, bounds, config, seeds[start : start + group], ceiling)
    return results


def check_box(bounds: Bounds, config: SwarmConfig, names: Sequence[str] | None = None) -> Bounds:
    """``bounds``, if every value a swarm of ``config`` computes in it is finite.

    Three bounds must be finite: the doubled width, the start's velocity
    range (compared in halves, so it cannot overflow); ``(w_start + c1 + c2)``
    times the width, for ``|velocity|`` before the clamp; and the box's
    largest magnitude plus the velocity clamp, for ``|position + velocity|``.
    The last two are rounded as the sweep rounds, monotonely, so no sweep
    value exceeds them. A refusal names the dimension by its index or, given
    ``names``, by its column's name.
    """

    def refuse(bad, why):
        if bad.any():
            first = np.flatnonzero(bad)[0]
            what = f"dimension {first}" if names is None else f"column {names[first]!r}"
            raise InvalidDimensionsError(f"{what} {why}")

    lower, upper = bounds.lower, bounds.upper
    refuse(upper / 2 - lower / 2 > np.finfo(float).max / 4, "is wider than half the largest float")
    span = bounds.span  # finite now
    with np.errstate(over="ignore"):
        velocity = config.w_start * span + config.c1 * span + config.c2 * span
        position = np.maximum(abs(lower), abs(upper)) + config.velocity_clamp_fraction * span
    refuse(velocity == np.inf, "is too wide for the swarm: a velocity overflows")
    refuse(position == np.inf, "lies too far out for the swarm: a position overflows")
    return bounds


def _stacked(
    objective, bounds: Bounds, config: SwarmConfig, seeds: list[int], ceiling: float | None
) -> list[SwarmResult]:
    rngs = [np.random.default_rng(seed) for seed in seeds]
    span = bounds.span
    runs, pop, n = len(seeds), config.population_size, bounds.n
    shape = (runs, pop, n)

    def full(rows):
        return np.broadcast_to(rows, shape).copy()

    start = np.empty((runs, 2, pop, n))
    for rng, draws in zip(rngs, start):
        rng.random(out=draws)
    positions = bounds.lower + span * start[:, 0]
    velocities = 2 * span * start[:, 1] - span

    block = positions.reshape(runs * pop, n)
    run = np.arange(runs)
    best_positions = positions.copy()
    best_values = np.array(objective(block), dtype=float).reshape(runs, pop)
    leader = np.argmax(best_values, axis=1)
    global_best = full(best_positions[run, leader][:, np.newaxis])
    sweeps = config.max_iterations
    history = np.empty((runs, sweeps + 1))  # one row per run
    history[:, 0] = best_values[run, leader]

    lower, upper = full(bounds.lower), full(bounds.upper)
    v_max = full(config.velocity_clamp_fraction * span)
    v_min = -v_max
    pull = np.empty(shape)

    def clamp(values, low, high):
        # A tie shows only in the sign of a zero. It goes to the bound, or to
        # the value when n == 1 (np.clip's rule for a bound that is one
        # number); np.maximum and np.minimum return their second operand.
        if n == 1:
            np.maximum(low, values, out=values)
            np.minimum(high, values, out=values)
        else:
            np.maximum(values, low, out=values)
            np.minimum(values, high, out=values)

    rand = np.empty((runs, pop, 2, 1 if config.scalar_rand else n))
    r1, r2 = rand[:, :, 0, :], rand[:, :, 1, :]
    weights = np.broadcast_to(np.array([[config.c1], [config.c2]]), rand.shape).copy()
    results: dict[int, SwarmResult] = {}
    place = np.arange(runs)  # each live run's index in seeds

    def finish(rows):
        for r in rows:
            results[place[r]] = SwarmResult(
                seeds[place[r]], global_best[r, 0], float(history[r, -1]), sweeps, history[r]
            )

    changed = True  # whether the last sweep raised a personal best; the start counts
    for sweep in range(sweeps):
        # a run's best reaches the ceiling only in a sweep that raised it
        if ceiling is not None and changed and (done := history[:, sweep] >= ceiling).any():
            # no later sweep can raise these runs' best: fix their results
            history[done, sweep + 1 :] = history[done, sweep, np.newaxis]
            finish(np.flatnonzero(done))
            live = ~done
            rngs = [rng for rng, keep in zip(rngs, live) if keep]
            runs = len(rngs)
            if not runs:
                break
            positions, velocities, best_positions, best_values, global_best, history, place = (
                state[live]
                for state in (
                    positions, velocities, best_positions, best_values, global_best, history, place
                )
            )
            # alike for every run, or scratch: their first rows serve as views,
            # so these copy nothing and the peak memory stays where it was
            lower, upper, v_max, v_min, pull, rand, weights = (
                state[:runs] for state in (lower, upper, v_max, v_min, pull, rand, weights)
            )
            block = positions.reshape(runs * pop, n)
            run = np.arange(runs)
            r1, r2 = rand[:, :, 0, :], rand[:, :, 1, :]
        w = config.w_start + (config.w_end - config.w_start) * (sweep / max(sweeps - 1, 1))
        for rng, draws in zip(rngs, rand):
            rng.random(out=draws)
        rand *= weights  # c1*r1 and c2*r2
        velocities *= w
        np.subtract(best_positions, positions, out=pull)
        pull *= r1
        velocities += pull
        np.subtract(global_best, positions, out=pull)
        pull *= r2
        velocities += pull
        clamp(velocities, v_min, v_max)
        positions += velocities
        clamp(positions, lower, upper)

        values = np.asarray(objective(block), dtype=float).reshape(runs, pop)
        improved = values > best_values
        changed = improved.any()
        if not changed:
            # the bookkeeping below would recompute the leaders, bests and
            # global bests already held, and gain nowhere
            history[:, sweep + 1] = history[:, sweep]
            continue
        np.copyto(best_positions, positions, where=improved[:, :, np.newaxis])
        np.copyto(best_values, values, where=improved)
        leader = np.argmax(best_values, axis=1)
        top = best_values[run, leader]
        gained = top > history[:, sweep]
        history[:, sweep + 1] = np.where(gained, top, history[:, sweep])
        global_best[gained] = best_positions[run[gained], leader[gained]][:, np.newaxis]

    finish(range(runs))
    return [results[i] for i in range(len(seeds))]
