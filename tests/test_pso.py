import math
import operator
import os
import sys
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from reliopt import pso
from reliopt.data import Bounds
from reliopt.errors import DimensionMismatchError, InvalidDimensionsError
from reliopt.logistic import LogisticModel, reliability, reliability_rows
from reliopt.pipeline import corner_optimum
from reliopt.pso import SwarmConfig, maximize

from oracles import position_update, reference_maximize, velocity_update, within

SIGMA_2 = 0.8807970779778823  # logistic function at +2
HALF_MAX = np.finfo(float).max / 2  # no box wider than this passes check_box


def unit_box(n):
    return Bounds(np.zeros(n), np.ones(n))


def sphere(rows):
    # one value per row, summed in fixed column order like reliability_rows
    total = np.zeros(rows.shape[0])
    for column in rows.T:
        total -= (column - 0.5) ** 2
    return total


def flat(rows):
    # every position alike: no best rises after the start
    return np.zeros(len(rows))


def nearest_the_origin(rows):
    # exact at every scale, so it never overflows
    return -np.abs(rows).max(axis=1)


def counted(objective, calls):
    """``objective``, recording the shape of each block it is given."""

    def counting(rows):
        calls.append(rows.shape)
        return objective(rows)

    return counting


def swarm(pop, iters, **kw):
    return SwarmConfig(population_size=pop, max_iterations=iters, **kw)


class TestVelocityUpdate:
    def test_reference_value_bitwise(self):
        v = velocity_update(
            np.array([1.0]),
            np.array([1.0]),
            np.array([2.0]),
            np.array([3.0]),
            w=0.5,
            c1=2.0,
            c2=2.0,
            r1=np.array([0.5]),
            r2=np.array([0.25]),
        )
        assert v[0] == 2.5

    def test_stationary_fixed_point(self):
        x = np.array([0.4, -1.2])
        v = velocity_update(
            np.zeros(2), x, x, x, w=0.7, c1=2.0, c2=2.0, r1=np.full(2, 0.3), r2=np.full(2, 0.9)
        )
        assert np.array_equal(v, np.zeros(2))

    def test_pure_inertia(self):
        v_old = np.array([0.25, -0.75])
        v = velocity_update(
            v_old,
            np.array([0.0, 0.0]),
            np.array([1.0, 1.0]),
            np.array([2.0, 2.0]),
            w=1.0,
            c1=2.0,
            c2=2.0,
            r1=np.zeros(2),
            r2=np.zeros(2),
        )
        assert np.array_equal(v, v_old)

    def test_clamp(self):
        v = velocity_update(
            np.array([10.0]),
            np.array([0.0]),
            np.array([1.0]),
            np.array([1.0]),
            w=1.0,
            c1=2.0,
            c2=2.0,
            r1=np.array([1.0]),
            r2=np.array([1.0]),
            v_max=np.array([2.0]),
        )
        assert v[0] == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            velocity_update(
                np.zeros(2),
                np.zeros(3),
                np.zeros(2),
                np.zeros(2),
                w=0.5,
                c1=2.0,
                c2=2.0,
                r1=np.zeros(2),
                r2=np.zeros(2),
            )

    @given(
        st.floats(0, 1),
        st.lists(st.floats(-5, 5), min_size=1, max_size=4),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    @settings(max_examples=100)
    def test_zero_velocity_at_consensus(self, w, x, r1, r2):
        x = np.asarray(x)
        v = velocity_update(
            np.zeros_like(x), x, x, x, w=w, c1=2.0, c2=2.0,
            r1=np.full_like(x, r1), r2=np.full_like(x, r2),
        )
        assert np.array_equal(v, np.zeros_like(x))


class TestPositionUpdate:
    def test_plain_step(self):
        x = position_update(np.array([0.5]), np.array([0.2]), unit_box(1))
        assert x[0] == 0.7

    def test_clamp_at_upper(self):
        x = position_update(np.array([0.9]), np.array([0.5]), unit_box(1))
        assert x[0] == 1.0

    def test_zero_velocity_identity(self):
        start = np.array([0.3, 0.8])
        x = position_update(start, np.zeros(2), unit_box(2))
        assert np.array_equal(x, start)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            position_update(np.zeros(2), np.zeros(2), unit_box(3))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"population_size": 1},
            {"max_iterations": 0},
            {"c1": -0.1},
            {"w_start": 0.3, "w_end": 0.4},
            {"w_end": -0.1},
            {"velocity_clamp_fraction": 0.0},
            {"velocity_clamp_fraction": 1.5},
            {"c1": float("nan")},
            {"c2": float("inf")},
            {"w_start": float("inf")},
            {"w_start": float("nan"), "w_end": float("nan")},
            {"velocity_clamp_fraction": float("nan")},
            {"population_size": sys.maxsize + 1},
            {"max_iterations": sys.maxsize + 1},
        ],
    )
    def test_rejects_bad_values(self, kw):
        defaults = dict(population_size=10, max_iterations=5)
        defaults.update(kw)
        with pytest.raises(ValueError):
            SwarmConfig(**defaults)

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_iterations": 2.5},  # accepted, then a TypeError from the sweep
            {"population_size": 4.0},
            {"max_iterations": np.float64(3)},
            {"max_iterations": True},
        ],
    )
    def test_rejects_counts_that_are_not_integers(self, kw):
        defaults = dict(population_size=10, max_iterations=5)
        defaults.update(kw)
        with pytest.raises(ValueError, match="must be integers"):
            SwarmConfig(**defaults)

    def test_accepts_numpy_integers(self):
        config = SwarmConfig(population_size=np.int64(4), max_iterations=np.int32(2))
        (result,) = maximize(sphere, unit_box(2), config, [0])
        assert len(result.history) == 3


class TestSeedlessConfig:
    """SwarmConfig keeps no seed: maximize takes each run's seed."""

    def test_seed_is_not_a_field(self):
        assert "seed" not in {f.name for f in fields(SwarmConfig)}

    def test_a_passed_seed_is_ignored(self):
        # the call the benchmark's operation makes
        passed = SwarmConfig(population_size=30, max_iterations=200, seed=0)
        assert passed == SwarmConfig(population_size=30, max_iterations=200)
        assert SwarmConfig(4, 2, 0) == SwarmConfig(4, 2, 1)
        assert hash(SwarmConfig(4, 2, 0)) == hash(SwarmConfig(4, 2, 1))

    def test_third_positional_argument_is_still_the_seed(self):
        assert SwarmConfig(30, 200, 0).c1 == 2.0

    def test_replace(self):
        config = replace(SwarmConfig(4, 2, c1=1.5), max_iterations=3)
        assert config == SwarmConfig(4, 3, c1=1.5)


class TestCheckBox:
    """check_box refuses, before any draw, every box in which a sweep overflows."""

    @pytest.mark.parametrize(
        "lower, upper, why",
        [
            # the velocity before the clamp reaches (0.9 + 2 + 2) * the width
            (8.988465674311579e307, 1.7976931348623157e308, "is too wide for the swarm"),
            # a narrow box whose position plus velocity passes the float maximum
            (1.7e308, 1.79e308, "lies too far out for the swarm"),
            (-1.79e308, -1.7e308, "lies too far out for the swarm"),
        ],
    )
    def test_refuses_a_box_where_a_sweep_overflows(self, lower, upper, why):
        bounds = Bounds(np.array([0.0, lower]), np.array([1.0, upper]))
        with pytest.raises(InvalidDimensionsError, match=f"^column 'b' {why}"):
            pso.check_box(bounds, swarm(4, 3), names=("a", "b"))

    @pytest.mark.parametrize("lower, upper", [(-HALF_MAX / 5, HALF_MAX / 5), (1.7e308, 1.7e308)])
    def test_accepts_a_box_at_the_edge(self, lower, upper):
        bounds = Bounds(np.array([lower]), np.array([upper]))
        assert pso.check_box(bounds, swarm(4, 3)) is bounds
        with np.errstate(over="raise", invalid="raise"):
            maximize(nearest_the_origin, bounds, swarm(4, 3), range(3))

    @given(
        n=st.integers(1, 3),
        c1=st.sampled_from([0.0, 2.0]) | st.floats(0, 10),
        c2=st.sampled_from([0.0, 2.0]) | st.floats(0, 10),
        w_start=st.sampled_from([0.9]) | st.floats(0, 1),
        clamp=st.sampled_from([1.0]) | st.floats(1e-3, 1),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_box_it_accepts_sweeps_without_a_float_error(
        self, n, c1, c2, w_start, clamp, data
    ):
        # magnitudes from 2**1016 to the float maximum, where the refusals lie
        magnitude = st.sampled_from([0.0, 1.0]) | st.floats(1016, 1024).map(
            lambda e: min(2.0**e if e < 1024 else math.inf, sys.float_info.max)
        )
        signed = st.builds(operator.mul, st.sampled_from([-1.0, 1.0]), magnitude)
        lower = data.draw(st.lists(signed, min_size=n, max_size=n))
        widths = data.draw(st.lists(magnitude, min_size=n, max_size=n))
        upper = [low + width for low, width in zip(lower, widths)]
        assume(all(math.isfinite(high) for high in upper))
        bounds = Bounds(np.array(lower), np.array(upper))
        config = swarm(4, 3, c1=c1, c2=c2, w_start=w_start, w_end=0.0,
                       velocity_clamp_fraction=clamp)
        try:
            pso.check_box(bounds, config)
        except InvalidDimensionsError:
            reject()
        with np.errstate(over="raise", invalid="raise"):
            maximize(nearest_the_origin, bounds, config, range(3))


class TestMaximize:
    @pytest.mark.parametrize("pop, iters", [(10**18, 1), (4, 10**18), (4, sys.maxsize)])
    def test_arrays_past_numpys_index_range_are_out_of_memory(self, pop, iters):
        # numpy refused these with "array is too big", a ValueError
        with pytest.raises(MemoryError, match="bytes of memory"):
            maximize(sphere, unit_box(2), swarm(pop, iters), [0, 1])

    def test_histories_past_physical_memory_are_out_of_memory(self, monkeypatch):
        # each of 3 runs keeps a history of half the memory; the refusal
        # comes before the first group is stacked
        try:
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError):
            pytest.skip("the platform does not report its physical memory")

        def unreached(*args):
            raise AssertionError("a group was stacked")

        monkeypatch.setattr(pso, "_stacked", unreached)
        with pytest.raises(MemoryError, match="bytes of memory"):
            maximize(sphere, unit_box(2), swarm(2, memory // 16), [0, 1, 2])

    def test_a_group_past_physical_memory_is_refused_before_stacking(self, monkeypatch):
        # 2**20 particles in 2 dimensions: the largest array, the start's or
        # the draws' 2**22 floats, is 32 MiB of the 64 MiB, but the group's
        # 16 arrays of 2**21 floats are 256 MiB
        answers = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**26 // 4096}
        monkeypatch.setattr(os, "sysconf", answers.__getitem__)

        def unreached(*args):
            raise AssertionError("a group was stacked")

        monkeypatch.setattr(pso, "_stacked", unreached)
        with pytest.raises(MemoryError, match=f"past the {2**26} bytes of memory"):
            maximize(sphere, unit_box(2), swarm(2**20, 1), [0])

    @pytest.mark.parametrize("sysconf", [lambda name: -1, None])
    def test_memory_that_cannot_be_told_is_sys_maxsize_bytes(self, monkeypatch, sysconf):
        if sysconf is None:
            monkeypatch.delattr(os, "sysconf")
        else:
            monkeypatch.setattr(os, "sysconf", sysconf)
        with pytest.raises(MemoryError, match=f"past the {sys.maxsize} bytes of memory"):
            maximize(sphere, unit_box(2), swarm(10**18, 1), [0])

    def test_sphere_reaches_analytic_maximum(self):
        (result,) = maximize(sphere, unit_box(3), swarm(30, 200), [0])
        assert result.best_value >= -1e-6

    def test_logistic_corner_example(self):
        model = LogisticModel(beta=np.array([0.0, 2.0, -1.0]), feature_names=("a", "b"))
        bounds = Bounds(np.array([-1.0, 0.0]), np.array([1.0, 3.0]))
        (result,) = maximize(partial(reliability_rows, model), bounds, swarm(40, 300), [0])
        assert np.abs(result.best_position - np.array([1.0, 0.0])).max() <= 1e-4
        assert abs(result.best_value - SIGMA_2) <= 1e-6

    def test_bitwise_deterministic(self):
        (a,) = maximize(sphere, unit_box(4), swarm(15, 60), [123])
        (b,) = maximize(sphere, unit_box(4), swarm(15, 60), [123])
        assert np.array_equal(a.best_position, b.best_position)
        assert a.best_value == b.best_value
        assert a.iterations_run == b.iterations_run
        assert np.array_equal(a.history, b.history)

    def test_different_seeds_differ(self):
        (a,) = maximize(sphere, unit_box(4), swarm(15, 5), [1])
        (b,) = maximize(sphere, unit_box(4), swarm(15, 5), [2])
        assert not np.array_equal(a.best_position, b.best_position)

    def test_degenerate_dimension_pinned(self):
        bounds = Bounds(np.array([0.0, 2.5]), np.array([1.0, 2.5]))
        probe, calls = recorder(sphere)
        (result,) = maximize(probe, bounds, swarm(10, 20), [3])
        assert result.best_position[1] == 2.5
        assert evaluations(calls, swarm(10, 20)).shape == (21, 10, 2)
        # also in the sweeps discarded after one that raised a best
        assert all((rows[:, 1] == 2.5).all() for rows, _ in calls)

    @pytest.mark.parametrize("n", [1, 2])
    def test_signed_zero_box_stays_at_its_bound(self, n):
        # lower 0.0 and upper -0.0 pass Bounds, but the width is -0.0, which
        # made numpy's uniform raise "high - low < 0"
        bounds = Bounds(np.array([0.0, -1.0][:n]), np.array([-0.0, 1.0][:n]))
        recording, calls = recorder(sphere)
        results = maximize(recording, bounds, swarm(5, 4), seeds=range(3))
        assert evaluations(calls, swarm(5, 4)).shape == (5, 15, n)
        evaluated = np.concatenate([rows for rows, _ in calls])
        assert (evaluated[:, 0] == 0.0).all()
        assert ((evaluated[:, 1:] >= -1.0) & (evaluated[:, 1:] <= 1.0)).all()
        assert all(result.best_position[0] == 0.0 for result in results)

    def test_every_evaluation_feasible(self):
        bounds = Bounds(np.array([-2.0, 1.0, 0.0]), np.array([-1.0, 4.0, 0.5]))

        def guarded(rows):
            assert all(within(bounds, x) for x in rows)
            return rows[:, 0] + rows[:, 1] + rows[:, 2]

        recording, calls = recorder(guarded)
        maximize(recording, bounds, swarm(25, 50), seeds=[9, 10])
        assert evaluations(calls, swarm(25, 50)).shape == (51, 50, 3)

    def test_history_monotone_and_consistent(self):
        (result,) = maximize(sphere, unit_box(3), swarm(12, 40), [5])
        assert len(result.history) == result.iterations_run + 1
        assert (np.diff(result.history) >= 0).all()
        assert result.history[-1] == result.best_value

    def test_elitism_over_initial_population(self):
        # history[0] is the best initial value; the trace never drops below it
        (result,) = maximize(sphere, unit_box(5), swarm(20, 30), [8])
        assert result.best_value >= result.history[0]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("budget", [3, 10, 25])
    def test_more_budget_never_hurts_on_reliability_objectives(self, seed, budget):
        model = LogisticModel(
            beta=np.array([0.0, 2.0, -1.0, 0.5]), feature_names=("a", "b", "c")
        )
        bounds = Bounds(np.array([-1.0, 0.0, -2.0]), np.array([1.0, 3.0, 2.0]))
        objective = partial(reliability_rows, model)
        (short,) = maximize(objective, bounds, swarm(20, budget), [seed])
        (long,) = maximize(objective, bounds, swarm(20, 2 * budget), [seed])
        assert long.best_value >= short.best_value

    def test_single_iteration_budget(self):
        (result,) = maximize(sphere, unit_box(2), swarm(5, 1), [0])
        assert result.iterations_run == 1
        assert len(result.history) == 2

    def test_scalar_rand_mode(self):
        config = swarm(10, 20, scalar_rand=True)
        (a,) = maximize(sphere, unit_box(3), config, [4])
        (b,) = maximize(sphere, unit_box(3), config, [4])
        assert a.best_value == b.best_value
        assert np.isfinite(a.best_value)

    def test_result_arrays_immutable(self):
        (result,) = maximize(sphere, unit_box(2), swarm(5, 5), [0])
        with pytest.raises(ValueError):
            result.best_position[0] = 9.9

    def test_objective_minus_inf_everywhere_keeps_the_first_particles_start(self):
        blocks = []

        def nowhere(rows):
            blocks.append(rows.copy())
            return np.full(len(rows), -np.inf)

        results = maximize(nowhere, unit_box(3), swarm(6, 4), range(3))
        for r, result in enumerate(results):
            assert result.history.tolist() == [-np.inf] * 5
            assert result.best_value == -np.inf
            assert same_bits(result.best_position, blocks[0][6 * r])

    @pytest.mark.parametrize("at", [slice(None), slice(2, 3)])
    def test_a_nan_in_the_start_never_becomes_a_best(self, at):
        # it was the run's best, which then stayed NaN
        evaluated = []

        def nan_at_start(rows):
            values = sphere(rows)
            if not evaluated:
                values[at] = np.nan
            evaluated.append(values)
            return values

        (result,) = maximize(nan_at_start, unit_box(3), swarm(6, 10), [3])
        start = evaluated[0][~np.isnan(evaluated[0])]
        assert result.history[0] == start.max(initial=-np.inf)
        assert not np.isnan(result.history).any()
        assert result.best_value == np.nanmax(evaluated)
        assert sphere(result.best_position[np.newaxis]) == result.best_value


def random_problem(seed, n):
    rng = np.random.default_rng(seed)
    beta = rng.normal(size=n + 1) * rng.choice([0.1, 1.0, 10.0])
    lower = rng.uniform(-3.0, 1.0, n)
    upper = lower + rng.uniform(0.0, 4.0, n) * (rng.random(n) < 0.9)
    model = LogisticModel(beta=beta, feature_names=tuple(f"x{i}" for i in range(n)))
    return model, Bounds(lower, upper)


class TestStackedRuns:
    @given(
        n=st.integers(1, 9),
        pop=st.integers(2, 12),
        iters=st.integers(1, 12),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=6),
        case=st.integers(0, 2**32 - 1),
        scalar_rand=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_equals_each_seed_alone(self, n, pop, iters, seeds, case, scalar_rand):
        model, bounds = random_problem(case, n)
        objective = partial(reliability_rows, model)
        config = swarm(pop, iters, scalar_rand=scalar_rand)
        stacked = maximize(objective, bounds, config, seeds=seeds)
        assert len(stacked) == len(seeds)
        corner = corner_optimum(model, bounds)
        for seed, result in zip(seeds, stacked):
            (alone,) = maximize(objective, bounds, config, [seed])
            assert np.array_equal(alone.best_position, result.best_position)
            assert alone.best_value == result.best_value
            assert np.array_equal(alone.history, result.history)
            assert corner.value >= result.best_value
            assert reliability(model, result.best_position) == result.best_value

    def test_each_objective_call_scores_whole_sweeps_of_all_runs(self):
        # one sweep per call, whether every sweep raises a best or, on a flat
        # objective, none after the start does
        calls = []
        maximize(counted(sphere, calls), unit_box(3), swarm(6, 4), seeds=range(5))
        assert calls == [(30, 3)] * 5
        calls.clear()
        maximize(counted(flat, calls), unit_box(3), swarm(6, 8), seeds=range(5))
        assert calls == [(30, 3)] * 9

    def test_objective_gets_one_c_contiguous_float64_block(self, monkeypatch):
        # user objectives may rely on this layout: (runs*pop, n) rows, C order
        blocks = []

        def probe(rows):
            blocks.append((rows.shape, rows.dtype, rows.flags.c_contiguous))
            return flat(rows)

        maximize(probe, unit_box(3), swarm(6, 4), seeds=range(5))
        monkeypatch.setattr(pso, "STACK_FLOATS", 2 * 6 * 3)
        maximize(probe, unit_box(3), swarm(6, 4, scalar_rand=True), seeds=range(5))
        shapes = [(30, 3)] * 5 + [(12, 3)] * 10 + [(6, 3)] * 5
        assert blocks == [(shape, np.float64, True) for shape in shapes]

    def test_groups_bound_the_stacked_arrays(self, monkeypatch):
        calls = []
        # room for two runs of 6 particles in 3 dimensions: groups of 2, 2, 1,
        # and one sweep per call
        monkeypatch.setattr(pso, "STACK_FLOATS", 2 * 6 * 3)
        maximize(counted(flat, calls), unit_box(3), swarm(6, 4), seeds=range(5))
        assert calls == [(12, 3)] * 10 + [(6, 3)] * 5


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def same_results(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.seed == b.seed
        assert same_bits(a.best_position, b.best_position)
        assert same_bits(a.best_value, b.best_value)
        assert a.iterations_run == b.iterations_run
        assert same_bits(a.history, b.history)


def recorder(objective):
    """``objective``, and the list it appends each call's rows and values to."""
    calls = []

    def recording(rows):
        values = np.asarray(objective(rows), dtype=float)
        calls.append((rows.copy(), values))
        return values

    return recording, calls


def kept_sweeps(calls, holds, pop):
    """Each evaluation's rows, from the objective calls of one stacked group,
    and the calls after the group's.

    ``holds[e]`` marks the runs whose rows evaluation ``e`` holds, in seed
    order; each call scores one sweep, the rows of those runs.
    """
    kept = [rows for rows, _ in calls[: len(holds)]]
    assert len(kept) == len(holds), f"{len(kept)} sweeps evaluated of {len(holds)}"
    assert all(len(rows) == runs.sum() * pop for rows, runs in zip(kept, holds))
    return kept, calls[len(holds) :]


def evaluations(calls, config):
    """Every position kept from ``calls``, as a ``(sweeps + 1, runs * pop, n)``
    array in seed order, each group's runs all live."""
    pop, groups = config.population_size, []
    while calls:
        runs = len(calls[0][0]) // pop  # a group's first call is its start
        holds = np.ones((config.max_iterations + 1, runs), dtype=bool)
        kept, calls = kept_sweeps(calls, holds, pop)
        groups.append(np.stack(kept))
    return np.concatenate(groups, axis=1)


def recorded(maximizer, objective, bounds, config, seeds):
    """A maximizer's results and every position it kept, by ``evaluations``."""
    recording, calls = recorder(objective)
    results = maximizer(recording, bounds, config, seeds)
    return results, evaluations(calls, config)


class TestReferenceSweep:
    """The in-place sweep against the sweep of fresh arrays in tests/oracles.py."""

    @given(
        n=st.integers(1, 9),
        pop=st.integers(2, 12),
        iters=st.integers(1, 12) | st.integers(13, 60),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=6),
        case=st.integers(0, 2**32 - 1),
        pinned=st.lists(
            st.sampled_from([None, 2.5, 0.0, -0.0, (-0.0, 0.0)]), min_size=9, max_size=9
        ),
        scalar_rand=st.booleans(),
        c1=st.sampled_from([0.0, 2.0]) | st.floats(0, 4),
        c2=st.sampled_from([0.0, 2.0]) | st.floats(0, 4),
        w_end=st.sampled_from([0.0, 0.4]) | st.floats(0, 0.9),
        clamp=st.sampled_from([1.0]) | st.floats(1e-3, 1),
        # STACK_FLOATS in swarms of pop * n: groups of 1 to 5 runs, so that
        # up to six seeds make one or more full groups and a partial one
        stack=st.sampled_from([None, 1, 2, 3, 4, 5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_maximize_matches_reference_bit_for_bit(
        self, n, pop, iters, seeds, case, pinned, scalar_rand, c1, c2, w_end, clamp, stack
    ):
        model, bounds = random_problem(case, n)
        lower, upper = bounds.lower.copy(), bounds.upper.copy()
        # zero-width dimensions, also at either zero and from -0.0 to 0.0
        for j, at in enumerate(pinned[:n]):
            if at is not None:
                lower[j], upper[j] = at if isinstance(at, tuple) else (at, at)
        bounds = Bounds(lower, upper)
        objective = partial(reliability_rows, model)
        config = swarm(
            pop, iters, scalar_rand=scalar_rand, c1=c1, c2=c2, w_end=w_end,
            velocity_clamp_fraction=clamp,
        )
        with pytest.MonkeyPatch.context() as patch:
            if stack is not None:
                patch.setattr(pso, "STACK_FLOATS", stack * pop * n)
            results, evaluated = recorded(maximize, objective, bounds, config, seeds)
        expected, evaluated_expected = recorded(
            reference_maximize, objective, bounds, config, seeds
        )
        # every position evaluated, not only the best: a changed trajectory
        # often never reaches the global best of so short a run
        assert same_bits(evaluated, evaluated_expected)
        assert len(results) == len(seeds)
        same_results(results, expected)

    @given(
        n=st.integers(1, 4),
        pop=st.integers(2, 6),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_start_matches_numpys_uniform_at_every_scale(self, n, pop, seeds, data):
        # the reference starts with Generator.uniform; lower bounds and widths
        # run log-uniformly from the smallest subnormal to half the float
        # maximum, with zero widths at either signed zero (a lower 0.0 over an
        # upper -0.0 makes numpy's uniform raise); only the boxes check_box
        # accepts are drawn
        magnitude = st.floats(-1074, 1023).map(lambda e: min(2.0**e, HALF_MAX))
        sign = st.sampled_from([-1.0, 1.0])
        lower = data.draw(
            st.lists(
                st.sampled_from([0.0, -0.0]) | st.builds(operator.mul, sign, magnitude),
                min_size=n, max_size=n,
            )
        )
        widths = data.draw(
            st.lists(st.sampled_from([None, 0.0]) | magnitude, min_size=n, max_size=n)
        )
        upper = [low if width is None else low + width for low, width in zip(lower, widths)]
        bounds = Bounds(np.array(lower), np.array(upper))
        config = swarm(pop, 1)
        try:
            pso.check_box(bounds, config)
        except InvalidDimensionsError:
            reject()  # a velocity or a position of the sweep could overflow
        results, evaluated = recorded(maximize, nearest_the_origin, bounds, config, seeds)
        expected, evaluated_expected = recorded(
            reference_maximize, nearest_the_origin, bounds, config, seeds
        )
        assert same_bits(evaluated, evaluated_expected)
        for got, want in zip(results, expected):
            assert same_bits(got.best_position, want.best_position)
            assert same_bits(got.history, want.history)


def paper_like_problem():
    # 9 ratios on unlike scales, both slope signs, corner value near 0.9
    rng = np.random.default_rng(3)
    lower = rng.uniform(-1.0, 1.0, 9) * 10.0 ** rng.uniform(-1, 1, 9)
    upper = lower + 10.0 ** rng.uniform(-1, 1, 9)
    slopes = rng.uniform(-1.5, 1.5, 9) / np.where(upper - lower > 1, upper - lower, 1.0)
    corner = np.where(slopes > 0, upper, lower)
    beta = np.concatenate([[2.0 - float(slopes @ corner)], slopes])
    model = LogisticModel(beta=beta, feature_names=tuple(f"r{i}" for i in range(1, 10)))
    return model, Bounds(lower, upper)


class TestCeiling:
    """Runs retired at the corner's value give the results of the full budget."""

    @given(
        n=st.integers(1, 5),
        pop=st.integers(2, 10),
        iters=st.integers(1, 40),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=8),
        case=st.integers(0, 2**32 - 1),
        slopes=st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e-12]) | st.floats(-3, 3),
            min_size=5, max_size=5,
        ),
        units=st.lists(st.floats(-20, 20), min_size=5, max_size=5),
        pinned=st.lists(
            st.sampled_from([None, None, None, 2.5, 0.0, -0.0, (-0.0, 0.0)]),
            min_size=5, max_size=5,
        ),
        margin=st.sampled_from([0.0, 1e-12, 40.0]) | st.floats(0, 40),
        scalar_rand=st.booleans(),
        clamp=st.sampled_from([1.0]) | st.floats(1e-3, 1),
        runs_per_group=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_ceiling_changes_no_result_bit(
        self, n, pop, iters, seeds, case, slopes, units, pinned, margin, scalar_rand, clamp,
        runs_per_group,
    ):
        # each ratio in units from 1e-20 to 1e20: its box scaled by the unit
        # and its slope divided by it
        rng = np.random.default_rng(case)
        unit = 10.0 ** np.array(units[:n])
        lower = rng.uniform(-3.0, 0.0, n) * unit
        upper = lower + rng.uniform(0.1, 4.0, n) * unit
        for j, at in enumerate(pinned[:n]):
            if at is not None:
                lower[j], upper[j] = at if isinstance(at, tuple) else (at, at)
        slope = np.array(slopes[:n]) / unit
        # the intercept puts the corner's score near margin >= 0
        score = 0.0
        for s, low, high in zip(slope, lower, upper):
            score += (high if s > 0 else low) * s
        model = LogisticModel(
            beta=np.concatenate([[margin - score], slope]),
            feature_names=tuple(f"x{i}" for i in range(n)),
        )
        bounds = Bounds(lower, upper)
        corner = corner_optimum(model, bounds)
        assume(corner.value >= 0.5)
        objective = partial(reliability_rows, model)
        config = swarm(pop, iters, scalar_rand=scalar_rand, velocity_clamp_fraction=clamp)
        # the ceiling alone: each group gets the corner's value, not its point
        stacked, ceilings = pso._stacked, []

        def ceiling_alone(objective, bounds, config, seeds, ceiling, corner):
            ceilings.append(ceiling)
            return stacked(objective, bounds, config, seeds, ceiling, None)

        with pytest.MonkeyPatch.context() as patch:
            if runs_per_group is not None:
                patch.setattr(pso, "STACK_FLOATS", runs_per_group * pop * n)
            full = maximize(objective, bounds, config, seeds)
            patch.setattr(pso, "_stacked", ceiling_alone)
            retired = maximize(objective, bounds, config, seeds, corner=corner.position)
        assert ceilings and all(same_bits(ceiling, corner.value) for ceiling in ceilings)
        same_results(retired, full)

    def test_paper_like_runs_retire(self):
        model, bounds = paper_like_problem()
        corner = corner_optimum(model, bounds)
        assert corner.value >= 0.5
        pop, iters, runs = 30, 200, 25
        config = swarm(pop, iters)
        calls = []
        retired = maximize(
            counted(partial(reliability_rows, model), calls), bounds, config, range(runs),
            corner=corner.position,
        )
        rows = sum(shape[0] for shape in calls)
        assert rows < pop * (iters + 1) * runs
        assert calls[0] == (1, bounds.n)
        assert calls[-1][0] < calls[1][0] == pop * runs
        assert any(run.best_value == corner.value for run in retired)
        same_results(retired, maximize(partial(reliability_rows, model), bounds, config, range(runs)))

    @pytest.mark.parametrize("retire", [False, True])
    def test_long_stall_matches_reference_bit_for_bit(self, retire):
        # sweeps that raise no personal best skip the bookkeeping; given the
        # corner, the ceiling is tested only after one that raised some, and
        # the corner rule's points only after the others
        model, bounds = paper_like_problem()
        corner = corner_optimum(model, bounds)
        objective = partial(reliability_rows, model)
        pop, iters, runs = 30, 200, 25
        config = swarm(pop, iters)
        recording, calls = recorder(objective)
        results = maximize(
            recording, bounds, config, range(runs), corner=corner.position if retire else None
        )
        expected, evaluated = recorded(reference_maximize, objective, bounds, config, range(runs))
        same_results(results, expected)
        history = np.stack([run.history for run in expected])
        per_run = evaluated.reshape(iters + 1, runs, pop, bounds.n)
        if retire:  # the corner alone comes first
            (point,), (value,) = calls.pop(0)
            assert same_bits(point, corner.position) and value == corner.value
        # each sweep evaluates the rows of the runs still live, in seed order:
        # all of them at the start; after sweep k a run retires at the
        # corner's value, or when the point call that follows a sweep that
        # raised no personal best scores its point from 0.5 up to its best
        # (every best here is above 0.5, so a frozen run retires so as well)
        live, holds, points = np.ones(runs, dtype=bool), np.zeros((iters + 1, runs), bool), 0
        for k in range(iters + 1):
            holds[k] = live
            rows, _ = calls.pop(0)
            assert same_bits(rows, per_run[k, live].reshape(-1, bounds.n))
            if retire:
                live &= history[:, k] < corner.value
                if calls and len(calls[0][0]) < pop:  # one point per live run
                    _, reach = calls.pop(0)
                    live[live] = (reach < 0.5) | (reach > history[live, k])
                    points += 1
            if not live.any():
                break
        assert not calls and (points > 0) == retire
        assert (history[:, 0] > 0.5).all()
        # a run below the corner gains nothing over its last 100 sweeps or more
        assert ((history[:, -1] < corner.value) & (history[:, -101] == history[:, -1])).any()
        # and in at least 100 sweeps no live particle beats its personal best
        values = np.stack([objective(rows) for rows in evaluated]).reshape(iters + 1, runs, pop)
        raised = values[1:] > np.maximum.accumulate(values, axis=0)[:-1]
        assert (~(raised.any(axis=2) & holds[1:]).any(axis=1)).sum() >= 100

    def test_group_ends_when_every_run_is_retired(self):
        # a zero slope: every position scores the corner's value, so every
        # run is retired after the initial evaluation
        model = LogisticModel(beta=np.array([1.0, 0.0, 0.0]), feature_names=("a", "b"))
        corner = corner_optimum(model, unit_box(2))
        calls = []
        objective = counted(partial(reliability_rows, model), calls)
        results = maximize(objective, unit_box(2), swarm(6, 50), range(4), corner=corner.position)
        assert calls == [(1, 2), (24, 2)]
        for result in results:
            assert result.iterations_run == 50
            assert result.history.tolist() == [corner.value] * 51

    @pytest.mark.parametrize("at_corner", [float("nan"), 0.25, np.nextafter(0.5, 0)])
    def test_a_corner_scoring_nan_or_under_one_half_retires_nothing(self, at_corner):
        # the corner (1, 1, 1) scores at_corner and bounds nothing: every
        # other position scores 0.75, so a corner rule switched on by it
        # would retire every run at its value, or score points after every
        # sweep, none of which raises a personal best
        def objective(rows):
            return np.where((rows == 1.0).all(axis=1), at_corner, 0.75)

        calls = []
        results = maximize(
            counted(objective, calls), unit_box(3), swarm(6, 4), range(5), corner=np.ones(3)
        )
        assert calls == [(1, 3)] + [(30, 3)] * 5
        same_results(results, maximize(objective, unit_box(3), swarm(6, 4), range(5)))


def near_one_half_problem():
    # 9 ratios whose corner scores 0.5009
    rng = np.random.default_rng(137)
    lower = rng.uniform(-1, 1, 9) * 10 ** rng.uniform(-1, 1, 9)
    upper = lower + 10 ** rng.uniform(-1, 1, 9)
    slopes = rng.uniform(-1.5, 1.5, 9) / (upper - lower)
    at = np.where(slopes > 0, upper, lower)
    beta = np.concatenate([[rng.uniform(0, 3) - slopes @ at], slopes])
    model = LogisticModel(beta=beta, feature_names=tuple(f"r{i}" for i in range(9)))
    return model, Bounds(lower, upper)


def walls(rows):
    # every coordinate adds 0.1 at its lower bound 0 and 0.2 at its upper
    # bound 1, so the vertex of ones bounds every position coordinatewise
    return 0.5 + 0.1 * (rows == 0.0).sum(axis=1) + 0.2 * (rows == 1.0).sum(axis=1)


class TestCornerRule:
    """Runs retired by the corner rule give the results of the full budget."""

    @given(
        n=st.integers(1, 5),
        pop=st.integers(2, 10),
        iters=st.integers(1, 80),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=5),
        case=st.integers(0, 2**32 - 1),
        slopes=st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e-12]) | st.floats(-3, 3),
            min_size=5, max_size=5,
        ),
        units=st.lists(st.floats(-20, 20), min_size=5, max_size=5),
        pinned=st.lists(
            st.sampled_from([None, None, None, 2.5, 0.0, -0.0, (-0.0, 0.0)]),
            min_size=5, max_size=5,
        ),
        margin=st.sampled_from([0.0, 1e-12, -1e-12, 40.0]) | st.floats(-5, 40),
        scalar_rand=st.booleans(),
        c1=st.sampled_from([0.0, 2.0]) | st.floats(0, 4),
        c2=st.sampled_from([0.0, 2.0]) | st.floats(0, 4),
        w_end=st.sampled_from([0.0, 0.4]),
        clamp=st.sampled_from([1.0]) | st.floats(1e-3, 1),
        runs_per_group=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_corner_rule_changes_no_result_bit(
        self, n, pop, iters, seeds, case, slopes, units, pinned, margin, scalar_rand, c1, c2,
        w_end, clamp, runs_per_group,
    ):
        # each ratio in units from 1e-20 to 1e20: its box scaled by the unit
        # and its slope divided by it
        rng = np.random.default_rng(case)
        unit = 10.0 ** np.array(units[:n])
        lower = rng.uniform(-3.0, 0.0, n) * unit
        upper = lower + rng.uniform(0.1, 4.0, n) * unit
        for j, at in enumerate(pinned[:n]):
            if at is not None:
                lower[j], upper[j] = at if isinstance(at, tuple) else (at, at)
        slope = np.array(slopes[:n]) / unit
        # the intercept puts the corner's score near margin, from -5 to 40,
        # so that corners under 0.5 are drawn too
        score = 0.0
        for s, low, high in zip(slope, lower, upper):
            score += (high if s > 0 else low) * s
        model = LogisticModel(
            beta=np.concatenate([[margin - score], slope]),
            feature_names=tuple(f"x{i}" for i in range(n)),
        )
        bounds = Bounds(lower, upper)
        corner = corner_optimum(model, bounds)
        objective = partial(reliability_rows, model)
        config = swarm(
            pop, iters, scalar_rand=scalar_rand, c1=c1, c2=c2, w_end=w_end,
            velocity_clamp_fraction=clamp,
        )
        recording, calls = recorder(objective)
        with pytest.MonkeyPatch.context() as patch:
            if runs_per_group is not None:
                patch.setattr(pso, "STACK_FLOATS", runs_per_group * pop * n)
            full = maximize(objective, bounds, config, seeds)
            retired = maximize(recording, bounds, config, seeds, corner=corner.position)
        # the first call scores the corner alone, with corner_optimum's bits
        (point,), (value,) = calls[0]
        assert same_bits(point, corner.position) and same_bits(value, corner.value)
        same_results(retired, full)
        same_results(retired, reference_maximize(objective, bounds, config, seeds))

    def test_a_run_retires_on_a_coordinate_it_does_not_hold(self):
        # seed 587 stalls short of the corner's value: its swarm holds ratio
        # 0 at the upper bound, the corner's other side, and ratios 2 and 3
        # at the corner's, but no particle sits on its global best in ratio
        # 1; its point takes the corner's ratio 1 and scores its best, where
        # the score is flat (inputs found by search)
        beta = [33.58822044034154, -0.24420234897688378, 0.05038385912819721,
                868.1447055797505, 222.2849947224541]
        lower = [-21.214308310924096, -126.3018923184065,
                 -0.00014558341260210043, -0.02664613903294219]
        upper = [-15.37426961169096, -70.14942020733406,
                 0.0010440637242957855, 0.00773323411071683]
        model = LogisticModel(beta=np.array(beta), feature_names=("a", "b", "c", "d"))
        bounds = Bounds(np.array(lower), np.array(upper))
        corner = corner_optimum(model, bounds)
        objective = partial(reliability_rows, model)
        config, seeds = swarm(4, 44), [587]
        recording, calls = recorder(objective)
        results = maximize(recording, bounds, config, seeds, corner=corner.position)
        assert [len(rows) for rows, _ in calls] == [1] + [4] * 7 + [1]
        (point,), (reach,) = calls[-1]
        (run,) = results
        assert run.best_value == reach < corner.value
        assert point[1] == corner.position[1] != run.best_position[1]
        assert point[0] == run.best_position[0] != corner.position[0]
        same_results(results, maximize(objective, bounds, config, seeds))
        same_results(results, reference_maximize(objective, bounds, config, seeds))

    @pytest.mark.parametrize(
        "n, pop, iters, w_end, seed",
        [(2, 2, 26, 0.0, 13), (2, 3, 64, 0.4, 857), (2, 2, 58, 0.4, 809), (1, 5, 19, 0.4, 709)],
    )
    def test_a_run_retires_only_on_coordinates_every_particle_holds(
        self, n, pop, iters, w_end, seed
    ):
        # on these walls a run stalls with its particles at bounds, all but
        # one on its global best, and one of them later finds a better bound;
        # a rule that counted a coordinate as held with one particle off its
        # global best, or off its personal best, would retire the run too
        # soon (seeds found by search)
        bounds, config = unit_box(n), swarm(pop, iters, w_end=w_end)
        results = maximize(walls, bounds, config, [seed], corner=np.ones(n))
        same_results(results, maximize(walls, bounds, config, [seed]))
        same_results(results, reference_maximize(walls, bounds, config, [seed]))

    @pytest.mark.parametrize(
        "objective, config, seeds, corner",
        [
            # scored as its ceiling, the 2-column corner let the swarm return
            (lambda rows: np.full(len(rows), 0.75), swarm(4, 5), [0], np.ones(2)),
            # its point call broadcast a 3-column best against it: numpy's ValueError
            (walls, swarm(4, 50), [0, 1], np.ones(2)),
            # scored 0.9 as the ceiling, where the box's best position scores 1.1
            (walls, swarm(4, 50), [0, 1], np.array([1.0, np.nan, 1.0])),
        ],
        ids=["short-flat", "short-walls", "nan"],
    )
    def test_a_corner_not_n_finite_numbers_is_refused(self, objective, config, seeds, corner):
        calls = []
        with pytest.raises(DimensionMismatchError, match="corner must be 3 finite numbers"):
            maximize(counted(objective, calls), unit_box(3), config, seeds, corner=corner)
        assert calls == []  # refused before the corner's call

    def test_a_point_below_one_half_retires_nothing(self):
        # the corner scores 0.5009 but seed 4 stalls at 0.4919: with every
        # best under 0.5 no point could retire a run, so after the corner's
        # row only the sweeps' blocks of 30 rows are scored
        model, bounds = near_one_half_problem()
        corner = corner_optimum(model, bounds)
        objective = partial(reliability_rows, model)
        config, calls = swarm(30, 200), []
        results = maximize(counted(objective, calls), bounds, config, [4], corner=corner.position)
        assert results[0].best_value < 0.5 <= corner.value
        assert calls == [(1, 9)] + [(30, 9)] * 201
        same_results(results, maximize(objective, bounds, config, [4]))

    def test_a_point_below_one_half_retires_nothing_beside_a_run_above_it(self):
        # the corner (1, 1) scores 1, and seed 1 finds a plateau of 0.75, so
        # the points are scored. Seed 0 stalls on the lower bound of x1, where
        # steps rise in x0 but drop to 0 at x0 = 1: its point, (1, 0), scores
        # 0, under its best, while it can still rise (seeds found by search)
        def steps(rows):
            x0, x1 = rows[:, 0], rows[:, 1]
            step = np.where(x1 == 0.0, np.where(x0 == 1.0, 0.0, np.floor(x0 * 1024) / 4096), 0.0)
            plateau = np.where((x0 < 0.02) & (x1 > 0.98), 0.75, step)
            return np.where((x0 == 1.0) & (x1 == 1.0), 1.0, plateau)

        config, seeds = swarm(3, 20), [1, 0]
        recording, calls = recorder(steps)
        results = maximize(recording, unit_box(2), config, seeds, corner=np.ones(2))
        same_results(results, maximize(steps, unit_box(2), config, seeds))
        assert results[0].best_value == 0.75 > 0.5 > results[1].best_value
        # each point call of both runs after the sweep k it follows, with seed
        # 0's point and its reach
        sweep, points = -1, []
        for rows, values in calls[1:]:
            sweep += len(rows) >= 3
            if len(rows) == 2:
                points.append((sweep, rows[1], values[1]))
        history = results[1].history
        assert any(
            list(point) == [1.0, 0.0] and reach < 0.5 and reach <= history[k] < history[-1]
            for k, point, reach in points
        )

    def test_a_frozen_run_below_one_half_retires(self):
        # the corner scores 0.6225, but seed 27 freezes at 0.4681 by sweep 9:
        # every particle holds every ratio, so the run retires although its
        # point, its global best, scores under 0.5 (inputs found by search)
        beta = [-11.569265313671602, -0.038106834376312064, 0.0011502384426035073,
                -6.437706773460224, 0.0001698801203957972, -0.9427866736629702,
                0.1011858250075624, 0.6787278399802866, -0.03480450697827725,
                0.5298954910143507]
        lower = [-21.9357, -17.1601, -1.23346, -16.1512, 0.263947, -7.62871, -0.633789,
                 -15.0532, -3.50418]
        upper = [20.7098, 9.89023, -0.692488, 14.9326, 0.929991, 9.0304, 0.772357,
                 15.7671, 2.95484]
        model = LogisticModel(beta=np.array(beta), feature_names=tuple(f"r{i}" for i in range(9)))
        bounds = Bounds(np.array(lower), np.array(upper))
        corner = corner_optimum(model, bounds)
        objective = partial(reliability_rows, model)
        config, seeds = swarm(30, 200), [27]
        calls = []
        results = maximize(counted(objective, calls), bounds, config, seeds, corner=corner.position)
        (run,) = results
        assert run.best_value < 0.5 < corner.value
        assert sum(rows for rows, _ in calls) < 30 * 201
        same_results(results, maximize(objective, bounds, config, seeds))

    def test_runs_below_one_half_cost_no_point_calls(self):
        # four runs retire at the corner's value and seed 4 stalls at 0.4919,
        # where no point can retire it: the corner's row and 201 sweeps make
        # 202 calls, where a point call after each stalled sweep made 393
        model, bounds = near_one_half_problem()
        corner = corner_optimum(model, bounds)
        objective = partial(reliability_rows, model)
        config, seeds = swarm(30, 200), range(5)
        calls = []
        results = maximize(counted(objective, calls), bounds, config, seeds, corner=corner.position)
        assert results[-1].best_value < 0.5 < corner.value
        assert len(calls) <= 202
        same_results(results, maximize(objective, bounds, config, seeds))


class TestCornerConvergence:
    """Generous-budget swarms against the closed-form corner solver."""

    @pytest.mark.parametrize("seed", range(0, 20))
    def test_reaches_corner_value(self, seed):
        rng = np.random.default_rng(seed)
        n = [2, 9, 12][seed % 3]
        beta = np.concatenate(
            [rng.uniform(-1, 1, 1), rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n)]
        )
        lower = rng.uniform(-2.0, 0.0, n)
        upper = lower + rng.uniform(0.5, 3.0, n)
        model = LogisticModel(beta=beta, feature_names=tuple(f"x{i}" for i in range(n)))
        bounds = Bounds(lower, upper)
        corner = corner_optimum(model, bounds)
        (result,) = maximize(
            partial(reliability_rows, model), bounds, swarm(50, 500), [seed]
        )
        # known hard wrong-wall cases are tolerated here; the acceptance
        # suite enforces the 95-of-100 bar over the full shipped list
        if seed not in {29, 83, 86, 95, 98}:
            assert abs(result.best_value - corner.value) <= 1e-6
        assert result.best_value <= corner.value
