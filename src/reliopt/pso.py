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
import os
import sys
from collections.abc import Iterable, Sequence
from dataclasses import InitVar, dataclass

import numpy as np

from .data import Bounds
from .errors import DimensionMismatchError, InvalidDimensionsError
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
    seed: InitVar[int | None] = None  # ignored; kept third for positional callers
    c1: float = 2.0
    c2: float = 2.0
    w_start: float = 0.9
    w_end: float = 0.4
    velocity_clamp_fraction: float = 1.0
    scalar_rand: bool = False

    def __post_init__(self, seed: int | None) -> None:
        if not integers(self.population_size, self.max_iterations):
            raise ValueError("population_size and max_iterations must be integers")
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


def integers(*values) -> bool:
    """Whether every value is a Python or numpy integer; a bool is not one."""
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)


@dataclass(frozen=True, eq=False)
class SwarmResult:
    """A run's seed, best point, its value and per-iteration best-value trace.

    ``history[0]`` is the best value among the initial positions; one entry
    follows per update sweep, so ``len(history) == iterations_run + 1`` and
    the trace is non-decreasing with ``history[-1] == best_value``. A run
    retired by ``maximize``'s corner rule repeats its best to the end of the
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
    corner: np.ndarray | None = None,
) -> list[SwarmResult]:
    """Run one seeded swarm per seed and return each run's global best.

    ``objective`` is a batch objective: it maps an ``(m, n)`` block of
    positions to their ``(m,)`` values, and a row's value must not depend on
    the block it comes in. Results come back in seed order. A best rises only
    to a value above it, never to a NaN; a run whose start scores nothing
    above ``-inf`` has best ``-inf`` at its first particle's start.

    ``corner``, if given, is a box vertex, scored once in a ``(1, n)`` call
    before the first group; one that is not ``n`` finite numbers is a
    DimensionMismatchError first. Scoring at least 0.5, it must bound the
    objective from 0.5 up: a position scores no more than the same position
    with any of its coordinates set to the corner's, when that one scores
    at least 0.5, as ``corner_optimum``'s vertex does for the reliability.
    A run whose best reaches the corner's value is then retired before the
    next sweep: its history is filled with that best, and it makes no more
    draws and no more evaluations. Since no later sweep could have raised
    its best, and the other runs neither share its generator nor see its
    rows, every result is the one ``corner=None`` gives, bit for bit. A
    corner that scores under 0.5, or NaN, bounds nothing and changes nothing.

    After a call that raised no personal best, a run *holds* a coordinate
    when every particle sits on its personal and global best there and its
    velocity keeps it in place: positive at the upper bound, negative at the
    lower bound, or exactly 0 at a position that is not 0. Every pull there
    is then 0, so no later sweep moves it. When some live run's best is at
    least 0.5, one call scores a point per live run, its global best on the
    coordinates it holds and the corner's value on the others, and a run
    whose point scores at least 0.5 and no more than its best is retired as
    at the corner's value: no position it can still reach scores above it.
    This retires stalled runs, whose particles keep stepping by an ulp at a
    bound where the score is flat; with every best below 0.5 no point could
    retire a run, so none is scored. A run that holds every coordinate is
    frozen, and it is retired whatever its best: it never moves again.

    The runs are stacked into one ``(runs, pop, n)`` swarm, in groups of at
    most ``STACK_FLOATS`` floats per array (at least one run each). Each run
    keeps its own ``np.random.default_rng(seed)`` and draws in a frozen order:
    one ``random`` call for the start, initial positions then velocities, both
    particle-major; per update sweep one ``(pop, 2, n)`` block, i.e. r1 then
    r2 for particle 0, then particle 1, and so on. A stacked run is therefore
    bit-identical to the same seed run alone.

    A sweep is a fixed set of in-place operations on buffers allocated once
    per group, taken in the order the formula above reads, so every value
    rounds as it would in a fresh array per step, from the same draws. Each
    objective call scores one sweep: the objective gets C-contiguous float64
    ``(live_runs * pop, n)`` blocks, the live runs in seed order, which the
    next sweep overwrites, so an objective that keeps its rows copies them;
    the corner rule's calls get the corner, then ``(live_runs, n)`` points.

    Positions start uniform in the box and velocities in ``+-(upper - lower)``,
    placed as ``Generator.uniform`` places the same draws, after ``check_box``
    has refused a box in which the start or a sweep would overflow. Zero-width
    dimensions, also ``0.0`` to ``-0.0``, stay pinned at their bound; every
    evaluated position is in the box. A swarm whose group arrays and
    histories exceed physical memory, or ``sys.maxsize`` bytes where that
    is not known, is a MemoryError before anything is allocated.
    """
    check_box(bounds, config)
    seeds = list(seeds)
    pop, sweeps = config.population_size, config.max_iterations
    group = max(1, STACK_FLOATS // (pop * bounds.n))
    runs = min(group, len(seeds))
    # A group holds about 16 arrays of runs * pop * n floats: the start (2),
    # the positions and velocities, the draws (2), the personal and global
    # bests, the box (4), pull, the weights (2) and the objective's
    # products; then its history, and every result's
    needed = 8 * (16 * runs * pop * bounds.n + (runs + len(seeds)) * (sweeps + 1))
    try:
        answers = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        answers = -1, -1
    # sysconf gives -1 for a limit it cannot tell; past sys.maxsize bytes
    # numpy cannot even index an array
    memory = min(answers[0] * answers[1], sys.maxsize) if min(answers) > 0 else sys.maxsize
    if needed > memory:
        raise MemoryError(f"a swarm of {needed} bytes is past the {memory} bytes of memory")
    ceiling = None
    if corner is not None:
        corner = np.asarray(corner, float)
        if corner.shape != (bounds.n,) or not np.isfinite(corner).all():
            raise DimensionMismatchError(f"corner must be {bounds.n} finite numbers, got {corner}")
        ceiling = float(np.asarray(objective(np.array(corner, float, ndmin=2)), float)[0])
        if not ceiling >= 0.5:  # under 0.5, or NaN, the corner bounds nothing
            ceiling = corner = None
    results: list[SwarmResult] = []
    for start in range(0, len(seeds), group):
        group_seeds = seeds[start : start + group]
        results += _stacked(objective, bounds, config, group_seeds, ceiling, corner)
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
    objective, bounds: Bounds, config: SwarmConfig, seeds: list[int], ceiling: float | None,
    corner: np.ndarray | None,
) -> list[SwarmResult]:
    rngs = [np.random.default_rng(seed) for seed in seeds]
    span = bounds.span
    runs, pop, n = len(seeds), config.population_size, bounds.n
    shape = (runs, pop, n)
    width = 1 if config.scalar_rand else n

    def full(rows):
        return np.broadcast_to(rows, shape).copy()

    start = np.empty((runs, 2, pop, n))
    for rng, block in zip(rngs, start):
        rng.random(out=block)
    x = bounds.lower + span * start[:, 0]
    v = 2 * span * start[:, 1] - span

    # the start is evaluation 0: each best starts at -inf, led by the first particle
    best_positions = x.copy()
    best_values = np.full((runs, pop), -np.inf)
    best = np.full(runs, -np.inf)
    global_best = full(x[:, :1])
    sweeps = config.max_iterations
    # each seed's best after each sweep that raised a personal best, -inf
    # after the others: a run's trace is the running maximum of its row
    history = np.full((runs, sweeps + 1), -np.inf)

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

    rand = np.empty((runs, pop, 2, width))  # each sweep's c1*r1 and c2*r2
    weights = np.broadcast_to(np.array([[config.c1], [config.c2]]), rand.shape).copy()
    results: list = [None] * runs  # each seed's SwarmResult, in seed order
    place = np.arange(runs)  # each live run's index in seeds

    def finish(rows):
        for r in rows:
            i = place[r]
            trace = np.maximum.accumulate(history[i])
            results[i] = SwarmResult(seeds[i], global_best[r, 0], float(best[r]), sweeps, trace)

    sweep = 0  # the sweep whose positions x holds (the start's is 0)
    while True:
        values = np.asarray(objective(x.reshape(runs * pop, n)), float).reshape(runs, pop)
        improved = values > best_values
        if changed := improved.any():
            np.copyto(best_positions, x, where=improved[:, :, np.newaxis])
            np.copyto(best_values, values, where=improved)
            run = np.arange(runs)
            leader = np.argmax(best_values, axis=1)
            top = best_values[run, leader]
            gained = top > best
            np.copyto(best, top, where=gained)
            global_best[gained] = best_positions[run[gained], leader[gained]][:, np.newaxis]
            history[place, sweep] = best
        if sweep == sweeps:
            break
        # a run's best reaches the ceiling only in a sweep that raised it
        done = best >= ceiling if changed and ceiling is not None else None
        if not changed and corner is not None:
            # the coordinates a run holds stay at its global best; every
            # other one scores at most as the corner's does, and a run that
            # holds them all never moves again
            still = np.where(v > 0, x == upper, np.where(v < 0, x == lower, x != 0))
            held = (still & (x == best_positions) & (x == global_best)).all(axis=1)
            done = held.all(axis=1)
            if (best >= 0.5).any():  # a point retires a run only at 0.5 <= reach <= best
                reach = np.asarray(objective(np.where(held, global_best[:, 0], corner)), float)
                done |= (reach >= 0.5) & (reach <= best)
        if done is not None and done.any():
            finish(np.flatnonzero(done))  # no later sweep can raise these runs' best
            live = ~done
            rngs = [rng for rng, keep in zip(rngs, live) if keep]
            runs = len(rngs)
            if not runs:
                break
            x, v, best_positions, best_values, best, global_best = (
                state[live] for state in (x, v, best_positions, best_values, best, global_best)
            )
            place = place[live]
            # alike for every run, or scratch: their first rows serve as views,
            # so these copy nothing and the peak memory stays where it was
            lower, upper, v_max, v_min, pull, weights, rand = (
                state[:runs] for state in (lower, upper, v_max, v_min, pull, weights, rand)
            )
        for rng, block in zip(rngs, rand):
            rng.random(out=block)
        rand *= weights
        w = config.w_start + (config.w_end - config.w_start) * (sweep / max(sweeps - 1, 1))
        v *= w
        np.subtract(best_positions, x, out=pull)
        pull *= rand[:, :, 0]
        v += pull
        np.subtract(global_best, x, out=pull)
        pull *= rand[:, :, 1]
        v += pull
        clamp(v, v_min, v_max)
        x += v
        clamp(x, lower, upper)
        sweep += 1

    finish(range(runs))
    return results
