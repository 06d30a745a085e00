import math

import numpy as np
import pytest

from reliopt.data import Bounds
from reliopt.errors import DimensionMismatchError
from reliopt.logistic import LogisticModel, reliability
from reliopt.oracle import corner_optimum

from oracles import DimensionTooLargeError, enumerate_corners


def model_of(*beta):
    beta = np.asarray(beta, dtype=float)
    return LogisticModel(beta=beta, feature_names=tuple(f"x{i}" for i in range(1, beta.size)))


def random_problem(seed, n=None, allow_tiny=False):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(1, 13))
    low = 0.0 if allow_tiny else 0.1
    beta = np.concatenate(
        [rng.uniform(-1, 1, 1), rng.uniform(low, 2.0, n) * rng.choice([-1.0, 1.0], n)]
    )
    lower = rng.uniform(-3.0, 0.0, n)
    upper = lower + rng.uniform(0.1, 4.0, n)
    return model_of(*beta), Bounds(lower, upper)


class TestCornerOptimum:
    def test_signed_corner_example(self):
        model = model_of(0.0, 2.0, -1.0)
        bounds = Bounds(np.array([-1.0, 0.0]), np.array([1.0, 3.0]))
        corner = corner_optimum(model, bounds)
        assert corner.position.tolist() == [1.0, 0.0]
        assert corner.active_signs.tolist() == [1, -1]
        assert corner.value == pytest.approx(1 / (1 + math.exp(-2)), abs=1e-12)

    def test_flat_direction(self):
        model = model_of(5.0, 0.0)
        bounds = Bounds(np.array([-7.0]), np.array([4.0]))
        corner = corner_optimum(model, bounds)
        assert corner.active_signs.tolist() == [0]
        assert corner.position[0] == -7.0
        assert corner.value == pytest.approx(1 / (1 + math.exp(-5)), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_dominates_random_feasible_points(self, seed):
        model, bounds = random_problem(seed)
        corner = corner_optimum(model, bounds)
        rng = np.random.default_rng(seed + 1000)
        samples = rng.uniform(bounds.lower, bounds.upper, size=(1000, bounds.n))
        for x in samples:
            assert corner.value >= reliability(model, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            corner_optimum(model_of(0.0, 1.0), Bounds(np.zeros(2), np.ones(2)))

    @pytest.mark.parametrize("lam", [0.25, 1.0, 3.0, 100.0])
    def test_argmax_invariant_under_positive_scaling(self, lam):
        model, bounds = random_problem(17, n=6)
        scaled = model_of(*(lam * model.beta))
        assert np.array_equal(
            corner_optimum(model, bounds).position, corner_optimum(scaled, bounds).position
        )


class TestEnumerateCorners:
    def test_one_dimensional(self):
        corner = enumerate_corners(model_of(0.0, 1.0), Bounds(np.zeros(1), np.ones(1)))
        assert corner.position[0] == 1.0
        assert corner.value == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)

    def test_all_zero_beta_ties_break_to_all_lower(self):
        bounds = Bounds(np.array([-1.0, 2.0]), np.array([1.0, 5.0]))
        corner = enumerate_corners(model_of(0.0, 0.0, 0.0), bounds)
        assert corner.value == 0.5
        assert corner.position.tolist() == [-1.0, 2.0]
        assert corner.active_signs.tolist() == [-1, -1]

    def test_refuses_large_dimension(self):
        n = 21
        model = model_of(0.0, *np.ones(n))
        with pytest.raises(DimensionTooLargeError):
            enumerate_corners(model, Bounds(np.zeros(n), np.ones(n)))

    @pytest.mark.parametrize("seed", range(200))
    def test_agrees_with_closed_form(self, seed):
        model, bounds = random_problem(seed)
        fast = corner_optimum(model, bounds)
        slow = enumerate_corners(model, bounds)
        # same arithmetic path, so equality is exact
        assert slow.value == fast.value
        assert np.array_equal(slow.position, fast.position)
