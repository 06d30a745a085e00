import itertools
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliopt import logistic, pipeline, pso
from reliopt.data import (
    Bounds,
    Dataset,
    compute_bounds,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from reliopt.errors import InvalidDimensionsError
from reliopt.logistic import (
    LogisticModel,
    _emit_json,
    fit,
    model_from_json,
    model_to_json,
    reliability,
    reliability_rows,
)
from reliopt.pipeline import (
    CornerSolution,
    PipelineConfig,
    corner_optimum,
    optimize_reliability,
    report_to_json,
    run_pipeline,
    select_prescriptions,
)
from reliopt.pso import SwarmConfig, SwarmResult, maximize

from conftest import write_csv
from oracles import normalized_distance, within


@pytest.fixture(scope="module")
def synthetic():
    box = Bounds(np.zeros(4), np.ones(4))
    ds, _ = generate_synthetic(400, [0.2, 1.5, -1.0, 0.7, -1.8], box, seed=2)
    return ds


def pipeline_config(pop=20, iters=3, runs=25, base_seed=0, **kw):
    return PipelineConfig(
        swarm=SwarmConfig(population_size=pop, max_iterations=iters),
        n_runs=runs,
        base_seed=base_seed,
        **kw,
    )


def fake_run(seed, position, value):
    return SwarmResult(
        seed=seed,
        best_position=np.asarray(position, dtype=float),
        best_value=value,
        iterations_run=3,
        history=np.array([value]),
    )


class TestSelectPrescriptions:
    bounds = Bounds(np.zeros(1), np.ones(1))
    corner = CornerSolution(
        position=np.array([1.0]), value=0.95, active_signs=np.array([1])
    )

    def test_identical_solutions_collapse_to_one(self):
        ensemble = [fake_run(i, [0.5], 0.9) for i in range(4)]
        picked = select_prescriptions(ensemble, self.corner, self.bounds, k=2, radius=0.05)
        assert len(picked) == 1

    def test_all_at_corner_yields_empty(self):
        ensemble = [fake_run(i, [1.0], 0.95) for i in range(4)]
        assert select_prescriptions(ensemble, self.corner, self.bounds, 2, 0.05) == []

    def test_greedy_hand_trace(self):
        # B sits inside A's radius, so the second slot falls through to C
        ensemble = [
            fake_run(0, [0.5], 0.90),
            fake_run(1, [0.52], 0.89),
            fake_run(2, [0.9], 0.85),
        ]
        picked = select_prescriptions(ensemble, self.corner, self.bounds, 2, 0.05)
        assert [p.position[0] for p in picked] == [0.5, 0.9]
        assert [p.reliability for p in picked] == [0.90, 0.85]

    def test_greedy_matches_bruteforce_on_small_ensembles(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ensemble = [
                fake_run(i, [rng.uniform(0, 1)], rng.uniform(0.5, 0.94)) for i in range(5)
            ]

            def feasible(subset):
                points = [r.best_position for r in subset]
                for p in points:
                    if normalized_distance(p, self.corner.position, self.bounds) <= 0.05:
                        return False
                for a, b in itertools.combinations(points, 2):
                    if normalized_distance(a, b, self.bounds) <= 0.05:
                        return False
                return True

            best = max(
                (
                    sorted((r.best_value for r in subset), reverse=True)
                    for size in range(3)
                    for subset in itertools.combinations(ensemble, size)
                    if feasible(subset)
                ),
                default=[],
            )
            picked = [p.reliability for p in
                      select_prescriptions(ensemble, self.corner, self.bounds, 2, 0.05)]
            assert picked == best

    def test_zero_span_dimensions_skipped_in_distance(self):
        bounds = Bounds(np.array([0.0, 5.0]), np.array([1.0, 5.0]))
        assert normalized_distance([0.2, 5.0], [0.9, 5.0], bounds) == pytest.approx(0.7)
        all_flat = Bounds(np.array([5.0]), np.array([5.0]))
        assert normalized_distance([5.0], [5.0], all_flat) == 0.0

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0.5, 0.94)), min_size=1, max_size=8
        ),
        st.floats(0.01, 0.3),
        st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_selected_set_is_always_admissible(self, points, radius, k):
        ensemble = [fake_run(i, [x], value) for i, (x, value) in enumerate(points)]
        picked = select_prescriptions(ensemble, self.corner, self.bounds, k, radius)
        assert len(picked) <= k
        values = [p.reliability for p in picked]
        assert values == sorted(values, reverse=True)
        for p in picked:
            assert normalized_distance(p.position, self.corner.position, self.bounds) > radius
        for a, b in itertools.combinations(picked, 2):
            assert normalized_distance(a.position, b.position, self.bounds) > radius

    @given(
        n=st.integers(1, 3),
        case=st.integers(0, 2**32 - 1),
        flat=st.lists(st.booleans(), min_size=3, max_size=3),
        cells=st.lists(st.integers(0, 4), min_size=3 * 41, max_size=3 * 41),
        values=st.lists(
            st.sampled_from([0.9, 0.8, 0.7]) | st.floats(0.5, 0.95), min_size=1, max_size=40
        ),
        radius=st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1.5),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_greedy_pass_keeps_what_the_oracle_keeps(
        self, n, case, flat, cells, values, radius, data
    ):
        # points on a quarter grid of the box, so that distances tie, reach
        # the radius exactly and repeat; a flat dimension has zero width, and
        # every dimension may be flat
        rng = np.random.default_rng(case)
        lower = rng.uniform(-5, 5, n)
        upper = np.where(flat[:n], lower, lower + rng.uniform(0.1, 3, n))
        bounds = Bounds(lower, upper)
        grid = lower + bounds.span * np.reshape(cells, (41, 3))[:, :n] / 4
        corner = CornerSolution(position=grid[-1], value=1.0, active_signs=np.zeros(n, int))
        ensemble = [fake_run(i, grid[i], value) for i, value in enumerate(values)]
        k = data.draw(st.integers(0, len(ensemble)))

        kept = []
        for run in sorted(ensemble, key=lambda run: -run.best_value):
            others = [corner.position] + [r.best_position for r in kept]
            if len(kept) < k and all(
                normalized_distance(run.best_position, p, bounds) > radius for p in others
            ):
                kept.append(run)
        picked = select_prescriptions(ensemble, corner, bounds, k, radius)
        assert [p.position.tobytes() for p in picked] == [
            r.best_position.tobytes() for r in kept
        ]
        assert [p.reliability for p in picked] == [r.best_value for r in kept]


class TestRunPipeline:
    def test_single_run_degenerate_ensemble(self, synthetic):
        report = run_pipeline(synthetic, pipeline_config(runs=1, n_prescriptions=1))
        assert len(report.ensemble) == 1
        if report.prescriptions:
            only = report.prescriptions[0]
            assert np.array_equal(only.position, report.ensemble[0].best_position)

    def test_generous_budget_reaches_corner(self, synthetic):
        report = run_pipeline(synthetic, pipeline_config(pop=50, iters=500, runs=3))
        top = max(r.best_value for r in report.ensemble)
        assert abs(top - report.corner.value) <= 1e-6

    def test_dominance_chain_and_feasibility(self, synthetic):
        report = run_pipeline(synthetic, pipeline_config())
        top = max(r.best_value for r in report.ensemble)
        assert report.corner.value >= top
        for run in report.ensemble:
            assert within(report.bounds, run.best_position)
        for p in report.prescriptions:
            assert report.corner.value >= p.reliability
            assert within(report.bounds, p.position)

    def test_corner_is_seed_independent(self, synthetic):
        a = run_pipeline(synthetic, pipeline_config(base_seed=0, runs=2))
        b = run_pipeline(synthetic, pipeline_config(base_seed=777, runs=2))
        assert a.corner.value == b.corner.value
        assert np.array_equal(a.corner.position, b.corner.position)

    def test_budget_monotonicity_of_ensemble_best(self, synthetic):
        short = run_pipeline(synthetic, pipeline_config(iters=3, runs=10))
        long = run_pipeline(synthetic, pipeline_config(iters=500, runs=10, pop=50))
        assert max(r.best_value for r in long.ensemble) >= max(
            r.best_value for r in short.ensemble
        )

    def test_ensemble_seeds_are_consecutive(self, synthetic):
        report = run_pipeline(synthetic, pipeline_config(base_seed=40, runs=5))
        assert [r.seed for r in report.ensemble] == [40, 41, 42, 43, 44]

    def test_prescriptions_sorted_and_recomputed(self, synthetic):
        report = run_pipeline(synthetic, pipeline_config())
        values = [p.reliability for p in report.prescriptions]
        assert values == sorted(values, reverse=True)
        for p in report.prescriptions:
            assert p.reliability == reliability(report.model, p.position)

    def test_shortfall_warning(self, synthetic):
        # generous budgets drive every run onto the corner; distinct interior
        # solutions run out and the report says so
        report = run_pipeline(synthetic, pipeline_config(pop=50, iters=500, runs=3))
        if len(report.prescriptions) < report.config.n_prescriptions:
            assert report.warnings
            assert "shortfall" in report.warnings[0]

    def test_nine_ratio_run_shape(self):
        box = Bounds(np.zeros(9), np.ones(9))
        ds, _ = generate_synthetic(200, np.linspace(-2, 2, 10), box, seed=5)
        report = run_pipeline(ds, pipeline_config(pop=20, iters=3, runs=25))
        assert report.model.n_features == 9
        for p in report.prescriptions:
            assert p.position.shape == (9,)
            assert 0.0 < p.reliability < 1.0
        # eq=False: identity comparison, not an ndarray truth-value error
        first, second = report.prescriptions
        assert first == first and first != second
        assert replace(report, prescriptions=(second, first)) != report

    def test_ratio_too_wide_to_search_is_named(self):
        # the fit takes it; the swarm's start could not draw from the box
        wide = Dataset(np.array([[-1e308, 1], [1e308, 2], [0, 3], [1, 4], [-1, 5], [2, 6]]),
                       np.array([0, 1, 0, 1, 0, 1]), ("a", "b"))
        with pytest.raises(InvalidDimensionsError, match="^column 'a' is wider than half"):
            run_pipeline(wide, pipeline_config(pop=4, iters=2, runs=2))


class TestFitWarnings:
    def test_separable_fit_warns(self, tmp_path):
        path = write_csv(tmp_path / "sep.csv", "a,label\n0,0\n1,0\n2,1\n3,1\n")
        report = run_pipeline(load_dataset(path, "label"), pipeline_config(pop=5, runs=2))
        assert not report.fit_report.converged
        fit_warnings = [w for w in report.warnings if w.startswith("fit did not converge")]
        assert fit_warnings == [
            f"fit did not converge after 100 iterations "
            f"(max |gradient| {report.fit_report.max_abs_gradient:.3g}); "
            "the data may be perfectly separated"
        ]
        assert json.loads(report_to_json(report))["warnings"] == list(report.warnings)

    def test_fallback_ridge_warns(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2))
        ds = Dataset(
            features=np.column_stack([x, x[:, 1]]),
            labels=rng.integers(0, 2, 30),
            feature_names=("a", "b", "b_copy"),
        )
        report = run_pipeline(ds, pipeline_config(pop=5, runs=2, n_prescriptions=0))
        assert report.fit_report.converged
        # FALLBACK_RIDGE times the curvature's mean diagonal at beta = 0
        assert report.warnings == (
            "fit needed the fallback ridge 2.88874e-08: "
            "the curvature was singular, e.g. from collinear ratios",
        )

    def test_converged_fit_gives_no_warnings(self, synthetic):
        report = run_pipeline(synthetic, pipeline_config(runs=3, n_prescriptions=0))
        assert report.fit_report.converged and report.fit_report.ridge_used == 0.0
        assert report.warnings == ()

    def test_optimize_without_fit_report_gives_no_fit_warning(self, synthetic):
        model, _ = fit(synthetic)
        report = optimize_reliability(
            model, compute_bounds(synthetic), pipeline_config(runs=2, n_prescriptions=0)
        )
        assert report.warnings == ()


class TestStackedEnsemble:
    @pytest.mark.parametrize("stack_floats", [1, 3 * 20 * 4])
    def test_grouping_keeps_report_bytes(self, synthetic, monkeypatch, stack_floats):
        # 7 runs of 20 particles in 4 dimensions: one group by default, then
        # one run per group, then groups of 3, 3 and 1
        config = pipeline_config(runs=7, iters=6)
        default = report_to_json(run_pipeline(synthetic, config))
        monkeypatch.setattr(pso, "STACK_FLOATS", stack_floats)
        assert report_to_json(run_pipeline(synthetic, config)) == default

    def test_runs_match_single_seed_swarms(self, synthetic):
        config = pipeline_config(runs=5, iters=8, base_seed=30)
        report = run_pipeline(synthetic, config)
        for run in report.ensemble:
            (alone,) = maximize(
                partial(reliability_rows, report.model),
                report.bounds,
                config.swarm,
                [run.seed],
            )
            assert np.array_equal(alone.best_position, run.best_position)
            assert alone.best_value == run.best_value
            assert np.array_equal(alone.history, run.history)


class TestCeiling:
    """optimize_reliability stops a run at the corner's value only at or
    above 0.5, where that value bounds every evaluation in float."""

    # Below 0.5, sigmoid's e/(1 + e) branch is not monotone in float: the
    # point one float inside this box's upper bound scores above the corner.
    BELOW_HALF = (np.array([0.0, 1.0]), Bounds(np.array([-2.941842]), np.array([-1.941842])))

    def test_corner_below_one_half_is_not_the_float_maximum(self):
        beta, bounds = self.BELOW_HALF
        model = LogisticModel(beta=beta, feature_names=("x1",))
        corner = corner_optimum(model, bounds)
        assert corner.value == 0.12544563302641967
        inside = np.nextafter(bounds.upper, -np.inf)
        assert reliability(model, inside) == 0.1254456330264197 > corner.value

    @pytest.mark.parametrize("intercept, retires", [(0.0, False), (4.0, True)])
    def test_runs_retire_only_at_or_above_one_half(self, monkeypatch, intercept, retires):
        beta, bounds = self.BELOW_HALF
        model = LogisticModel(beta=beta + [intercept, 0.0], feature_names=("x1",))
        assert (corner_optimum(model, bounds).value >= 0.5) == retires
        config = pipeline_config(pop=30, iters=200, runs=5)
        rows = []

        def counting(model, block):
            rows.append(len(block))
            return reliability_rows(model, block)

        monkeypatch.setattr(pipeline, "reliability_rows", counting)
        report = optimize_reliability(model, bounds, config)
        assert (sum(rows) < 30 * 201 * 5) == retires
        expected = maximize(partial(reliability_rows, model), bounds, config.swarm, range(5))
        for got, want in zip(report.ensemble, expected, strict=True):
            assert np.array_equal(got.best_position, want.best_position)
            assert got.best_value == want.best_value
            assert got.iterations_run == want.iterations_run == 200
            assert np.array_equal(got.history, want.history)


class TestReportJson:
    def test_byte_identical_reruns(self, synthetic):
        config = pipeline_config(runs=4)
        first = report_to_json(run_pipeline(synthetic, config))
        second = report_to_json(run_pipeline(synthetic, config))
        assert first == second

    def test_schema_fields(self, synthetic):
        report = run_pipeline(synthetic, pipeline_config(pop=5, iters=1, runs=3))
        payload = json.loads(report_to_json(report))
        assert list(payload) == [
            "model", "bounds", "corner", "ensemble", "prescriptions", "warnings", "config",
        ]
        assert list(payload["bounds"]) == ["lower", "upper"]
        assert list(payload["corner"]) == ["position", "value", "active_signs"]
        assert payload["ensemble"] and payload["prescriptions"]
        for entry in payload["ensemble"]:
            assert list(entry) == [
                "seed", "best_position", "best_value", "iterations_run", "history",
            ]
        for entry in payload["prescriptions"]:
            assert list(entry) == ["position", "reliability"]
        assert list(payload["config"]) == [
            "population_size", "max_iterations", "c1", "c2", "w_start", "w_end",
            "velocity_clamp_fraction", "scalar_rand",
            "n_runs", "base_seed", "n_prescriptions", "distinctness_radius",
        ]
        assert payload["config"]["n_runs"] == 3
        assert "seed" not in payload["config"]

    def test_reliabilities_reevaluate_through_serialized_model(self, synthetic):
        report = run_pipeline(synthetic, pipeline_config(pop=5, iters=1, runs=3))
        payload = json.loads(report_to_json(report))
        model, _ = model_from_json(json.dumps(payload["model"]))
        assert payload["prescriptions"]
        for entry in payload["prescriptions"]:
            again = reliability(model, np.asarray(entry["position"]))
            assert again == entry["reliability"]
        corner_again = reliability(model, np.asarray(payload["corner"]["position"]))
        assert corner_again == payload["corner"]["value"]
        for entry in payload["ensemble"]:
            again = reliability(model, np.asarray(entry["best_position"]))
            assert again == entry["best_value"]


_FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e16, 0.1, 1 / 3]
_FLOATS = st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats(allow_nan=False, allow_infinity=False))
_TEXT = st.one_of(st.text(), st.sampled_from(["", "é", "\u2028", "\U0001f600", '"\\', "\x00\x1f"]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), _TEXT, _FLOATS,
    st.integers(), st.sampled_from([10**300, -(10**300), 2**63]),
)
# lists of floats only, which the emitter lays out by distinct value: few
# distinct values so repeats are common, and both zeros next to each other
_FLOAT_LISTS = st.lists(_FLOATS, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool) if pool else _FLOATS, max_size=30)
) | st.lists(st.sampled_from([0.0, -0.0, 1.5]), max_size=8)
_PAYLOADS = st.recursive(
    _SCALARS | _FLOAT_LISTS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=40,
)


class TestJsonEmitter:
    @settings(max_examples=300, deadline=None)
    @given(payload=_PAYLOADS)
    def test_matches_json_dumps_with_indent(self, payload):
        assert _emit_json(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize(
        "values, formatted",
        [
            # 64 values or more, half of them repeats: each distinct one once
            ([0.1, 0.2] * 32, 2),
            ([i / 10 for i in range(1, 33)] * 2, 32),
            # fewer repeats: value by value
            ([i / 10 for i in range(1, 35)] + [0.1] * 30, 64),
            # fewer values: value by value, however many repeat
            ([0.1, 0.2] * 31 + [0.1], 63),
            # a zero: value by value
            ([0.1, 0.2] * 40 + [-0.0], 81),
        ],
        ids=["repeated", "half repeats", "few repeats", "short", "zero"],
    )
    def test_float_lists_reuse_a_text_only_where_it_pays(self, monkeypatch, values, formatted):
        calls = []
        finite = logistic._finite

        def counting(value):
            calls.append(value)
            return finite(value)

        monkeypatch.setattr(logistic, "_finite", counting)
        assert _emit_json(values) == json.dumps(values, indent=2)
        assert len(calls) == formatted

    def test_refuses_a_value_of_another_type(self):
        message = "Object of type object is not JSON serializable"
        with pytest.raises(TypeError, match=f"^{message}$"):
            _emit_json({"a": [1, object()]})

    def test_reports_and_models_read_back_to_the_same_bytes(self, synthetic):
        # floats print as repr, which json.loads reads back bit for bit
        report = run_pipeline(synthetic, pipeline_config(pop=5, iters=4, runs=6))
        for text in (report_to_json(report), model_to_json(report.model, report.fit_report)):
            assert text == json.dumps(json.loads(text), indent=2) + "\n"


class TestConfigValidation:
    def test_rejects_bad_run_counts(self):
        with pytest.raises(ValueError):
            pipeline_config(runs=0)
        with pytest.raises(ValueError):
            pipeline_config(runs=2, n_prescriptions=3)
        with pytest.raises(ValueError):
            pipeline_config(distinctness_radius=-0.1)
        with pytest.raises(ValueError, match="n_runs must be from 1 to"):
            pipeline_config(runs=sys.maxsize + 1)  # ended in an OverflowError

    @pytest.mark.parametrize(
        "kw",
        [
            {"distinctness_radius": float("nan")},
            {"distinctness_radius": float("inf")},
            {"base_seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            pipeline_config(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            {"runs": 2.0},  # accepted, then a TypeError from the sweep
            {"base_seed": 1.5},
            {"n_prescriptions": 1.5},  # gave 2 prescriptions, and no warning
            {"runs": np.float64(2)},
            {"n_prescriptions": True},
        ],
    )
    def test_rejects_counts_that_are_not_integers(self, kw):
        with pytest.raises(ValueError, match="must be integers"):
            pipeline_config(**kw)

    def test_accepts_numpy_integers(self, synthetic):
        counts = dict(runs=np.int64(2), base_seed=np.int32(4), n_prescriptions=np.int8(1))
        report = run_pipeline(synthetic, pipeline_config(**counts))
        assert [run.seed for run in report.ensemble] == [4, 5]

    def test_optimize_against_existing_model(self, synthetic):
        model, _ = fit(synthetic)
        bounds = compute_bounds(synthetic)
        report = optimize_reliability(model, bounds, pipeline_config(runs=2))
        assert report.fit_report is None
        assert report.corner.value == corner_optimum(model, bounds).value


class TestReadme:
    def test_library_example_runs_as_written(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        library = readme.split("\n## Library\n", 1)[1]
        code = library.split("```python\n", 1)[1].split("\n```", 1)[0]
        box = Bounds(np.zeros(9), np.ones(9))
        dataset, _ = generate_synthetic(200, np.linspace(-2, 2, 10), box, seed=5)
        save_dataset(dataset, tmp_path / "banks.csv")
        monkeypatch.chdir(tmp_path)
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        report = namespace["report"]
        assert [run.seed for run in report.ensemble] == list(range(7, 32))
        assert capsys.readouterr().out.splitlines()[0] == str(report.corner.value)
