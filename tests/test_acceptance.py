"""Acceptance gate: every release criterion, one test each, at its stated
tolerance. Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion."""

import itertools
import json
import re
import time
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from reliopt import (
    Bounds,
    Dataset,
    LogisticModel,
    PipelineConfig,
    SwarmConfig,
    fit,
    load_dataset,
    report_to_json,
    run_pipeline,
    save_dataset,
)
from reliopt.cli import render_report_table
from reliopt.data import MissingPolicy, generate_synthetic
from reliopt.logistic import reliability_rows
from reliopt.pipeline import corner_optimum, optimize_reliability
from reliopt.pso import maximize

from oracles import (
    gradient,
    log_likelihood,
    normalized_distance,
    position_update,
    same_dataset,
    velocity_update,
    within,
)

# shipped seed lists: frozen so every checkout reproduces the same verdicts
CORNER_CASE_SEEDS = list(range(100))
PREMATURE_CASE_SEEDS = [1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007]


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def model_of(beta, names=None):
    beta = np.asarray(beta, dtype=float)
    names = names or tuple(f"x{i}" for i in range(1, beta.size))
    return LogisticModel(beta=beta, feature_names=names)


def corner_case(seed):
    """One shipped stochastic-vs-closed-form comparison problem."""
    rng = np.random.default_rng(seed)
    n = [2, 9, 12][seed % 3]
    beta = np.concatenate(
        [rng.uniform(-1, 1, 1), rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n)]
    )
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 3.0, n)
    return model_of(beta), Bounds(lower, upper)


def test_01_gradient_matches_finite_differences():
    with criterion(1, "analytic gradient vs central finite differences"):
        with budget(5):
            step = 1e-5
            for seed in range(50):
                rng = np.random.default_rng(seed)
                m = int(rng.integers(3, 21))
                n = int(rng.integers(1, 5))
                model = model_of(rng.uniform(-2, 2, n + 1))
                labels = rng.integers(0, 2, m)
                if labels.min() == labels.max():
                    labels[0] = 1 - labels[0]
                dataset = Dataset(
                    features=rng.uniform(-3, 3, size=(m, n)),
                    labels=labels,
                    feature_names=model.feature_names,
                )
                analytic = gradient(model, dataset)
                numeric = np.empty_like(analytic)
                for i in range(analytic.size):
                    hi = model.beta.copy()
                    hi[i] += step
                    lo = model.beta.copy()
                    lo[i] -= step
                    numeric[i] = (
                        log_likelihood(model_of(hi, model.feature_names), dataset)
                        - log_likelihood(model_of(lo, model.feature_names), dataset)
                    ) / (2 * step)
                assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


def test_02_mle_matches_grid_search_oracle(six_point_dataset):
    with criterion(2, "Newton fit vs brute-force grid MLE"):
        with budget(1):
            model, report = fit(six_point_dataset)
            assert abs(model.beta[0]) <= 1e-8
            grid = np.arange(-10.0, 10.0 + 1e-12, 1e-4)
            x = six_point_dataset.features[:, 0]
            y = six_point_dataset.labels
            t = np.outer(grid, x)
            log_p = np.minimum(t, 0) - np.log1p(np.exp(-np.abs(t)))
            log_q = np.minimum(-t, 0) - np.log1p(np.exp(-np.abs(t)))
            best_slope = grid[(y * log_p + (1 - y) * log_q).sum(axis=1).argmax()]
            assert abs(model.beta[1] - best_slope) <= 1e-3


def test_03_parameter_recovery_on_synthetic_data():
    with criterion(3, "coefficient recovery on 5000-row synthetic data"):
        with budget(10):
            true_beta = np.array([0.5, -1.2, 0.8, 1.5])
            box = Bounds(np.full(3, -1.0), np.full(3, 1.0))
            dataset, _ = generate_synthetic(3, 5_000, true_beta, box, seed=0)
            model, report = fit(dataset)
            assert report.converged
            assert (np.abs(model.beta - true_beta) <= 0.2).all()


def test_04_swarm_reaches_corner_oracle():
    with criterion(4, "swarm vs closed-form corner on 100 shipped cases"):
        with budget(60):
            hits = 0
            for seed in CORNER_CASE_SEEDS:
                model, bounds = corner_case(seed)
                corner = corner_optimum(model, bounds)
                (result,) = maximize(
                    partial(reliability_rows, model),
                    bounds,
                    SwarmConfig(population_size=50, max_iterations=500),
                    [seed],
                )
                assert result.best_value <= corner.value
                if abs(result.best_value - corner.value) <= 1e-6:
                    hits += 1
            assert hits >= 95, f"only {hits}/100 runs reached the corner value"


def test_05_update_equations_exact():
    with criterion(5, "velocity/position updates bitwise-exact"):
        v = velocity_update(
            np.array([1.0]), np.array([1.0]), np.array([2.0]), np.array([3.0]),
            w=0.5, c1=2.0, c2=2.0, r1=np.array([0.5]), r2=np.array([0.25]),
        )
        assert v[0] == 2.5
        box = Bounds(np.zeros(1), np.ones(1))
        assert position_update(np.array([0.9]), np.array([0.5]), box)[0] == 1.0
        assert position_update(np.array([0.5]), np.array([0.2]), box)[0] == 0.7


@pytest.fixture(scope="module")
def pipeline_fixture():
    box = Bounds(np.zeros(9), np.ones(9))
    dataset, _ = generate_synthetic(9, 250, np.linspace(-2, 2, 10), box, seed=42)
    config = PipelineConfig(
        swarm=SwarmConfig(population_size=20, max_iterations=3),
        n_runs=25,
        base_seed=7,
    )
    return dataset, config


def test_06_pipeline_determinism(pipeline_fixture):
    with criterion(6, "identical configs give byte-identical reports"):
        dataset, config = pipeline_fixture
        first = report_to_json(run_pipeline(dataset, config))
        second = report_to_json(run_pipeline(dataset, config))
        assert first.encode() == second.encode()


def test_07_dominance_chain(pipeline_fixture):
    with criterion(7, "corner >= ensemble >= prescriptions, all feasible"):
        dataset, config = pipeline_fixture
        # x9 in units 1e16 times smaller fits a slope near 2e-16: still a slope
        units = np.ones(9)
        units[8] = 1e16
        rescaled = Dataset(dataset.features * units, dataset.labels, dataset.feature_names)
        for data, iters in itertools.product((dataset, rescaled), (3, 40)):
            cfg = PipelineConfig(
                swarm=SwarmConfig(population_size=20, max_iterations=iters),
                n_runs=10,
                base_seed=config.base_seed,
            )
            report = run_pipeline(data, cfg)
            top = max(r.best_value for r in report.ensemble)
            assert report.corner.value >= top
            for run in report.ensemble:
                assert within(report.bounds, run.best_position)
            for p in report.prescriptions:
                assert top >= p.reliability
                assert within(report.bounds, p.position)


def test_08_premature_convergence_yields_interior_prescriptions():
    with criterion(8, "capped budgets give off-corner yet near-optimal picks"):
        distances = []
        gaps = []
        for case_seed in PREMATURE_CASE_SEEDS:
            rng = np.random.default_rng(case_seed)
            n = [9, 12][case_seed % 2]
            box = Bounds(np.zeros(n), np.ones(n))
            dataset, _ = generate_synthetic(n, 300, rng.uniform(-2, 2, n + 1), box, seed=case_seed)
            pop, iters = [(20, 3), (25, 5)][case_seed % 2]
            config = PipelineConfig(
                swarm=SwarmConfig(population_size=pop, max_iterations=iters),
                n_runs=25,
                base_seed=case_seed * 100,
            )
            report = run_pipeline(dataset, config)
            for p in report.prescriptions:
                distances.append(
                    normalized_distance(p.position, report.corner.position, report.bounds)
                )
                gaps.append(report.corner.value - p.reliability)
        assert distances, "no prescriptions selected across the shipped cases"
        off_corner = sum(1 for d in distances if d > 0.05)
        assert off_corner / len(distances) > 0.5
        assert all(gap <= 0.1 for gap in gaps)


def test_09_report_table_shape(pipeline_fixture):
    with criterion(9, "text table: 3-decimal vectors, settings echoed"):
        dataset, config = pipeline_fixture
        model, fit_report = fit(dataset)
        from reliopt import compute_bounds

        report = optimize_reliability(model, compute_bounds(dataset), config, fit_report)
        table = render_report_table(report)
        assert "Population size: 20" in table
        assert "Maximum iterations: 3" in table
        row = re.compile(r"\[(-?\d+\.\d{3})(, -?\d+\.\d{3})*\]\s+-?\d\.\d{3}\s*$")
        rows = [line for line in table.splitlines() if row.search(line)]
        assert len(rows) == len(report.prescriptions)
        assert rows, "no prescription rows rendered"


def test_10_imputation_and_round_trip(tmp_path):
    with criterion(10, "mean imputation exact and CSV round-trip identity"):
        path = tmp_path / "impute.csv"
        path.write_text("r1,label\n1.0,1\nNA,0\n3.0,1\n", encoding="utf-8")
        dataset = load_dataset(path, "label", MissingPolicy.MEAN_IMPUTE)
        assert dataset.features[:, 0].tolist() == [1.0, 2.0, 3.0]

        rng = np.random.default_rng(3)
        original = Dataset(
            features=rng.normal(size=(12, 4)) * np.array([1e-3, 1.0, 1e3, 1e6]),
            labels=np.resize([1, 0, 1], 12),
            feature_names=("a", "b", "c", "d"),
        )
        round_trip = tmp_path / "round.csv"
        save_dataset(original, round_trip)
        assert same_dataset(load_dataset(round_trip, "label", MissingPolicy.REJECT_MISSING), original)
