import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliopt import (
    Bounds,
    LogisticModel,
    SwarmConfig,
    corner_optimum,
    maximize,
    position_update,
    reliability,
    velocity_update,
)
from reliopt.errors import DimensionMismatchError

SIGMA_2 = 0.8807970779778823  # logistic function at +2


def unit_box(n):
    return Bounds(np.zeros(n), np.ones(n))


def sphere(x):
    return -float(((x - 0.5) ** 2).sum())


def swarm(pop, iters, seed, **kw):
    return SwarmConfig(population_size=pop, max_iterations=iters, seed=seed, **kw)


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
        ],
    )
    def test_rejects_bad_values(self, kw):
        defaults = dict(population_size=10, max_iterations=5, seed=0)
        defaults.update(kw)
        with pytest.raises(ValueError):
            SwarmConfig(**defaults)


class TestMaximize:
    def test_sphere_reaches_analytic_maximum(self):
        result = maximize(sphere, unit_box(3), swarm(30, 200, seed=0))
        assert result.best_value >= -1e-6

    def test_logistic_corner_example(self):
        model = LogisticModel(beta=np.array([0.0, 2.0, -1.0]), feature_names=("a", "b"))
        bounds = Bounds(np.array([-1.0, 0.0]), np.array([1.0, 3.0]))
        result = maximize(lambda x: reliability(model, x), bounds, swarm(40, 300, seed=0))
        assert np.abs(result.best_position - np.array([1.0, 0.0])).max() <= 1e-4
        assert abs(result.best_value - SIGMA_2) <= 1e-6

    def test_bitwise_deterministic(self):
        a = maximize(sphere, unit_box(4), swarm(15, 60, seed=123))
        b = maximize(sphere, unit_box(4), swarm(15, 60, seed=123))
        assert np.array_equal(a.best_position, b.best_position)
        assert a.best_value == b.best_value
        assert a.iterations_run == b.iterations_run
        assert np.array_equal(a.history, b.history)

    def test_different_seeds_differ(self):
        a = maximize(sphere, unit_box(4), swarm(15, 5, seed=1))
        b = maximize(sphere, unit_box(4), swarm(15, 5, seed=2))
        assert not np.array_equal(a.best_position, b.best_position)

    def test_degenerate_dimension_pinned(self):
        bounds = Bounds(np.array([0.0, 2.5]), np.array([1.0, 2.5]))
        seen = []

        def probe(x):
            seen.append(x.copy())
            return sphere(x)

        result = maximize(probe, bounds, swarm(10, 20, seed=3))
        assert result.best_position[1] == 2.5
        assert all(x[1] == 2.5 for x in seen)

    def test_every_evaluation_feasible(self):
        bounds = Bounds(np.array([-2.0, 1.0, 0.0]), np.array([-1.0, 4.0, 0.5]))

        def guarded(x):
            assert bounds.contains(x)
            return float(x.sum())

        maximize(guarded, bounds, swarm(25, 50, seed=9))

    def test_history_monotone_and_consistent(self):
        result = maximize(sphere, unit_box(3), swarm(12, 40, seed=5))
        assert len(result.history) == result.iterations_run + 1
        assert (np.diff(result.history) >= 0).all()
        assert result.history[-1] == result.best_value

    def test_elitism_over_initial_population(self):
        # history[0] is the best initial value; the trace never drops below it
        result = maximize(sphere, unit_box(5), swarm(20, 30, seed=8))
        assert result.best_value >= result.history[0]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("budget", [3, 10, 25])
    def test_more_budget_never_hurts_on_reliability_objectives(self, seed, budget):
        model = LogisticModel(
            beta=np.array([0.0, 2.0, -1.0, 0.5]), feature_names=("a", "b", "c")
        )
        bounds = Bounds(np.array([-1.0, 0.0, -2.0]), np.array([1.0, 3.0, 2.0]))
        objective = lambda x: reliability(model, x)
        short = maximize(objective, bounds, swarm(20, budget, seed=seed))
        long = maximize(objective, bounds, swarm(20, 2 * budget, seed=seed))
        assert long.best_value >= short.best_value

    def test_single_iteration_budget(self):
        result = maximize(sphere, unit_box(2), swarm(5, 1, seed=0))
        assert result.iterations_run == 1
        assert len(result.history) == 2

    def test_scalar_rand_mode(self):
        config = swarm(10, 20, seed=4, scalar_rand=True)
        a = maximize(sphere, unit_box(3), config)
        b = maximize(sphere, unit_box(3), config)
        assert a.best_value == b.best_value
        assert np.isfinite(a.best_value)

    def test_result_arrays_immutable(self):
        result = maximize(sphere, unit_box(2), swarm(5, 5, seed=0))
        with pytest.raises(ValueError):
            result.best_position[0] = 9.9


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
        result = maximize(
            lambda x: reliability(model, x), bounds, swarm(50, 500, seed=seed)
        )
        # known hard wrong-wall cases are tolerated here; the acceptance
        # suite enforces the 95-of-100 bar over the full shipped list
        if seed not in {29, 83, 86, 95, 98}:
            assert abs(result.best_value - corner.value) <= 1e-6
        assert result.best_value <= corner.value
