import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliopt import logistic
from reliopt.data import Bounds, Dataset, generate_synthetic
from reliopt.errors import (
    DimensionMismatchError,
    MalformedModelError,
    NonFiniteIterateError,
    ReliOptError,
    SingleClassDatasetError,
)
from reliopt.logistic import (
    FALLBACK_RIDGE,
    LogisticModel,
    _emit_json,
    fit,
    load_model,
    model_from_json,
    model_to_json,
    reliability,
    reliability_rows,
    score_rows,
    sigmoid,
)

from conftest import duplicated_large_column_dataset
from oracles import gradient, hessian, log_likelihood, reference_score_rows


def make_model(*beta, names=None):
    beta = np.asarray(beta, dtype=float)
    names = names or tuple(f"x{i}" for i in range(1, beta.size))
    return LogisticModel(beta=beta, feature_names=names)


def random_case(rng, m=None, n=None):
    m = m or int(rng.integers(3, 21))
    n = n or int(rng.integers(1, 5))
    model = make_model(*rng.uniform(-2, 2, n + 1))
    features = rng.uniform(-3, 3, size=(m, n))
    labels = rng.integers(0, 2, m)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return model, Dataset(features=features, labels=labels, feature_names=model.feature_names)


def standardized(beta, features):
    """Coefficients on the ratios centered and scaled to unit spread: the
    same for any rescaling or shift of a ratio (scale-adjusted coefficients)."""
    center, spread = features.mean(axis=0), features.std(axis=0)
    return np.concatenate([[beta[0] + beta[1:] @ center], beta[1:] * spread])


def fd_gradient(model, dataset, step=1e-5):
    """Central finite differences of the log-likelihood in each coefficient."""
    base = model.beta
    out = np.empty_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + step
        hi = log_likelihood(make_model(*bumped, names=model.feature_names), dataset)
        bumped[i] = base[i] - step
        lo = log_likelihood(make_model(*bumped, names=model.feature_names), dataset)
        out[i] = (hi - lo) / (2 * step)
    return out


class TestSigmoid:
    def test_zero_beta_gives_half(self):
        model = make_model(0.0, 0.0, 0.0)
        assert reliability(model, [3.7, -12.0]) == 0.5

    def test_log3_point(self):
        model = make_model(0.0, 1.0)
        assert reliability(model, [math.log(3)]) == pytest.approx(0.75, abs=1e-15)

    def test_intercept_cancellation(self):
        model = make_model(2.0, -1.0)
        assert reliability(model, [2.0]) == 0.5

    @pytest.mark.parametrize("t", [700.0, 710.0, 800.0, -700.0, -800.0])
    def test_extreme_arguments_do_not_overflow(self, t):
        with np.errstate(over="raise"):
            value = sigmoid(t)
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("t", [-30.0, -5.0, 0.0, 5.0, 30.0])
    def test_open_interval_for_moderate_scores(self, t):
        assert 0.0 < sigmoid(t) < 1.0

    @given(st.floats(-500, 500), st.floats(-500, 500))
    @settings(max_examples=200)
    def test_strictly_monotone(self, t1, t2):
        if t1 == t2:
            return
        lo, hi = sorted([t1, t2])
        if sigmoid(lo) not in (0.0, 1.0) and sigmoid(hi) not in (0.0, 1.0):
            assert sigmoid(lo) <= sigmoid(hi)
        if hi - lo > 1e-9 and abs(lo) < 30 and abs(hi) < 30:
            assert sigmoid(lo) < sigmoid(hi)

    def test_non_decreasing_in_float_from_zero_up(self):
        # The swarm's ceiling rests on this: a score at or past the corner's
        # non-negative one never gives a larger reliability. Sampled uniformly
        # on [0, 40] (past 40 the value is 1.0) and log-uniformly down to the
        # smallest subnormal, each against its next float up.
        rng = np.random.default_rng(0)
        t = np.concatenate([
            rng.uniform(0.0, 40.0, 500_000),
            2.0 ** rng.uniform(-1074.0, math.log2(40.0), 500_000),
            [0.0, -0.0, np.finfo(float).max],
        ])
        with np.errstate(over="ignore"):  # the largest float's next is inf
            up = np.nextafter(t, np.inf)
        assert (sigmoid(up) >= sigmoid(t)).all()

    @given(st.floats(-700, 700))
    @settings(max_examples=200)
    def test_reflection_symmetry(self, t):
        assert sigmoid(-t) == pytest.approx(1.0 - sigmoid(t), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            reliability(make_model(0.0, 1.0), [1.0, 2.0])


class TestReliabilityKernel:
    @given(
        n=st.integers(1, 12),
        m=st.integers(1, 800),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_equals_row_by_row(self, n, m, seed, scale):
        # the same bits for a row alone and inside any block: no BLAS order
        rng = np.random.default_rng(seed)
        model = make_model(*(scale * rng.normal(size=n + 1)))
        lower = rng.uniform(-5.0, 5.0, n)
        rows = rng.uniform(lower, lower + rng.uniform(0.0, 10.0, n), size=(m, n))
        block = reliability_rows(model, rows)
        assert block.shape == (m,)
        assert np.array_equal(block, [reliability(model, x) for x in rows])
        cut = int(rng.integers(1, m + 1))
        chunks = [reliability_rows(model, rows[i : i + cut]) for i in range(0, m, cut)]
        assert np.array_equal(block, np.concatenate(chunks))

    @given(n=st.integers(1, 9), m=st.integers(1, 5), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_score_matches_the_column_loop_bit_for_bit(self, n, m, data):
        # one multiply for every product, then the columns summed in order:
        # the same bits as a multiply and an add per column. The numbers carry
        # full 53-bit significands on one scale per example, so the sums round:
        # rows near 1e-15, 1e300 or among the subnormals, with signed zeros,
        # and slopes that may take a product past the float maximum
        def numbers(count, exponents):
            low = data.draw(st.sampled_from(exponents))
            exponent = st.integers(low, low + 4)
            scaled = st.builds(math.ldexp, st.integers(2**52, 2**53 - 1), exponent)
            magnitude = scaled | scaled | scaled | st.sampled_from([0.0, 5e-324])
            signed = st.builds(operator.mul, st.sampled_from([-1.0, 1.0]), magnitude)
            return data.draw(st.lists(signed, min_size=count, max_size=count))

        model = make_model(*numbers(n + 1, [-100, -52, 945]))
        rows = np.array(numbers(m * n, [-100, 945, -1126])).reshape(m, n)
        with np.errstate(all="ignore"):
            assert score_rows(model, rows).tobytes() == reference_score_rows(model, rows).tobytes()

    def test_matches_sigmoid_of_the_column_order_score(self):
        model = make_model(0.5, -1.0, 2.0)
        rows = np.array([[1.0, 0.25], [-3.0, 4.0]])
        expected = sigmoid((0.5 + rows[:, 0] * -1.0) + rows[:, 1] * 2.0)
        assert np.array_equal(reliability_rows(model, rows), expected)

    @pytest.mark.parametrize("shape", [(2,), (3, 1), (3, 3), (1, 2, 2)])
    def test_dimension_mismatch(self, shape):
        with pytest.raises(DimensionMismatchError):
            reliability_rows(make_model(0.0, 1.0, 1.0), np.zeros(shape))


class TestLogLikelihood:
    def test_zero_beta_exact(self):
        model, ds = random_case(np.random.default_rng(0), m=8, n=2)
        model = make_model(0.0, 0.0, 0.0)
        assert log_likelihood(model, ds) == 8 * math.log(0.5)

    def test_single_row_value(self):
        ds = Dataset(
            features=np.array([[math.log(3)], [math.log(3)]]),
            labels=np.array([1, 1]),
            feature_names=("x1",),
        )
        model = make_model(0.0, 1.0)
        assert log_likelihood(model, ds) == pytest.approx(2 * math.log(0.75), rel=1e-15)

    def test_row_duplication_doubles_exactly(self):
        rng = np.random.default_rng(3)
        model, ds = random_case(rng, m=7, n=3)
        doubled = Dataset(
            features=np.vstack([ds.features, ds.features]),
            labels=np.concatenate([ds.labels, ds.labels]),
            feature_names=ds.feature_names,
        )
        assert log_likelihood(model, doubled) == 2 * log_likelihood(model, ds)

    def test_always_non_positive_and_finite(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            model, ds = random_case(rng)
            value = log_likelihood(model, ds)
            assert np.isfinite(value) and value <= 0

    def test_saturated_scores_stay_finite(self):
        ds = Dataset(
            features=np.array([[400.0], [-400.0]]),
            labels=np.array([0, 1]),
            feature_names=("x1",),
        )
        assert np.isfinite(log_likelihood(make_model(0.0, 1.0), ds))


class TestDerivatives:
    def test_intercept_gradient_zero_on_balanced_labels(self):
        ds = Dataset(
            features=np.array([[0.3], [1.7], [-2.0], [0.4]]),
            labels=np.array([1, 0, 1, 0]),
            feature_names=("x1",),
        )
        g = gradient(make_model(0.0, 0.0), ds)
        assert g[0] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            model, ds = random_case(rng)
            analytic = gradient(model, ds)
            numeric = fd_gradient(model, ds)
            assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_hessian_exact_at_zero(self):
        ds = Dataset(
            features=np.array([[1.0], [-1.0]]),
            labels=np.array([1, 0]),
            feature_names=("x1",),
        )
        h = hessian(make_model(0.0, 0.0), ds)
        augmented = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert np.array_equal(h, -(augmented.T @ augmented) / 4.0)

    def test_hessian_symmetric_negative_semidefinite(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model, ds = random_case(rng)
            h = hessian(model, ds)
            assert np.array_equal(h, h.T)
            assert (np.linalg.eigvalsh(h) <= 1e-10).all()


class TestFit:
    def test_symmetric_dataset_zero_intercept(self, six_point_dataset):
        model, report = fit(six_point_dataset)
        assert report.converged
        assert abs(model.beta[0]) <= 1e-8

    def test_slope_matches_grid_search_oracle(self, six_point_dataset):
        model, _ = fit(six_point_dataset)
        # independent 1-D brute force over the slope with the intercept pinned at 0
        grid = np.arange(-10.0, 10.0 + 1e-12, 1e-4)
        x = six_point_dataset.features[:, 0]
        y = six_point_dataset.labels
        t = np.outer(grid, x)
        stable_log_sigmoid = np.minimum(t, 0) - np.log1p(np.exp(-np.abs(t)))
        stable_log_one_minus = np.minimum(-t, 0) - np.log1p(np.exp(-np.abs(t)))
        ll = (y * stable_log_sigmoid + (1 - y) * stable_log_one_minus).sum(axis=1)
        best_slope = grid[ll.argmax()]
        assert model.beta[1] == pytest.approx(best_slope, abs=1e-3)

    def test_separable_data_reports_non_convergence(self):
        ds = Dataset(
            features=np.array([[-1.0], [1.0]]),
            labels=np.array([0, 1]),
            feature_names=("x1",),
        )
        model, report = fit(ds)
        assert not report.converged
        assert report.iterations == 100
        assert np.isfinite(model.beta).all()

    def test_single_class_rejected(self):
        ds = Dataset(
            features=np.array([[1.0], [2.0]]),
            labels=np.array([1, 1]),
            feature_names=("x1",),
        )
        with pytest.raises(SingleClassDatasetError):
            fit(ds)

    def test_log_likelihood_ascends_across_iterations(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(5):
            model_true, ds = random_case(rng, m=20, n=2)
            previous = -np.inf
            for budget in range(1, 9):
                monkeypatch.setattr(logistic, "MAX_ITER", budget)
                model, _ = fit(ds)
                value = log_likelihood(model, ds)
                assert value >= previous - 1e-12
                previous = value

    def test_parameter_recovery(self):
        true_beta = np.array([0.5, -1.2, 0.8, 1.5])
        box = Bounds(np.full(3, -1.0), np.full(3, 1.0))
        ds, _ = generate_synthetic(3, 5_000, true_beta, box, seed=0)
        model, report = fit(ds)
        assert report.converged
        assert (np.abs(model.beta - true_beta) <= 0.2).all()

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(21)
        _, ds = random_case(rng, m=30, n=3)
        permutation = rng.permutation(ds.n_rows)
        shuffled = Dataset(
            features=ds.features[permutation],
            labels=ds.labels[permutation],
            feature_names=ds.feature_names,
        )
        a, _ = fit(ds)
        b, _ = fit(shuffled)
        assert np.allclose(a.beta, b.beta, atol=1e-10, rtol=0)

    def test_duplicated_column_fits_with_fallback_ridge(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2))
        ds = Dataset(
            features=np.column_stack([x, x[:, 1]]),
            labels=rng.integers(0, 2, 30),
            feature_names=("a", "b", "b_copy"),
        )
        model, report = fit(ds)
        # at beta = 0 every weight is 1/4, so the curvature's mean diagonal is
        # a quarter of the mean squared column norm of [1, X] in the fit's
        # coordinates: each ratio less its midrange, over half its range
        low, high = ds.features.min(axis=0), ds.features.max(axis=0)
        scaled = (ds.features - (low + high) / 2) / ((high - low) / 2)
        mean_diagonal = (ds.n_rows + (scaled**2).sum()) / 4 / (ds.n_features + 1)
        assert report.ridge_used == pytest.approx(FALLBACK_RIDGE * mean_diagonal, rel=1e-12)
        assert report.converged
        assert np.isfinite(model.beta).all()
        # the ridge splits the duplicated ratio's weight evenly
        assert model.beta[2] == pytest.approx(model.beta[3], rel=1e-9)

    def test_constant_ratio_fits_like_the_fit_without_it(self):
        # a mean of three 0.1s is not 0.1; a constant ratio must still center
        # to exactly 0 rather than to a +-1 copy of the intercept column
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 2))
        labels = (rng.random(30) < sigmoid(x @ [1.0, -0.5])).astype(int)
        without, _ = fit(Dataset(x, labels, ("a", "b")))
        model, report = fit(Dataset(np.column_stack([x, np.full(30, 0.1)]), labels, ("a", "b", "c")))
        assert report.converged and report.ridge_used > 0
        assert model.beta[3] == 0.0
        # the same coefficients up to the fallback ridge's pull of ~1e-8
        np.testing.assert_allclose(model.beta[:3], without.beta, rtol=1e-6)
        rows = np.column_stack([x, np.full(30, 0.1)])
        np.testing.assert_allclose(
            reliability_rows(model, rows), reliability_rows(without, x), rtol=1e-6
        )

    @pytest.mark.filterwarnings("error")
    def test_ratio_near_1e300_keeps_its_slope(self):
        # squared deviations of such a ratio overflow; its range does not
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 2))
        labels = (rng.random(30) < sigmoid(x @ [1.0, -0.5])).astype(int)
        small, small_report = fit(Dataset(x, labels, ("a", "b")))
        huge = x.copy()
        huge[:, 0] = 1e300 * (huge[:, 0] + 5.0)
        model, report = fit(Dataset(huge, labels, ("a", "b")))
        assert report.converged == small_report.converged and report.ridge_used == 0
        assert model.beta[1] * 1e300 == pytest.approx(small.beta[1], rel=1e-10)
        assert model.beta[0] == pytest.approx(small.beta[0] - 5.0 * small.beta[1], rel=1e-10)

    def test_slope_beyond_float_range_is_a_typed_error(self):
        # separable across a range of 1e-308: the slope in the ratio's units
        # overflows, which was a RuntimeWarning and then "beta must be finite"
        ds = Dataset(np.array([[0.0], [1.1125369292536007e-308]]), [0, 1], ("a",))
        with pytest.raises(NonFiniteIterateError, match="overflows"):
            fit(ds)

    def test_duplicated_large_column_fits_like_its_scaled_twin(self):
        ds = duplicated_large_column_dataset()
        twin = Dataset(1e-6 * ds.features, ds.labels, ds.feature_names)
        model, report = fit(ds)
        twin_model, twin_report = fit(twin)
        assert report.converged and twin_report.converged
        assert report.ridge_used > 0
        a, b = standardized(model.beta, ds.features), standardized(twin_model.beta, twin.features)
        assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()

    def test_reported_gradient_is_the_public_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            _, ds = random_case(rng, m=int(rng.integers(10, 41)))
            model, report = fit(ds)
            assert report.ridge_used == 0.0
            assert report.max_abs_gradient == float(np.abs(gradient(model, ds)).max())

    def test_gradient_below_tolerance_at_optimum(self, six_point_dataset, monkeypatch):
        monkeypatch.setattr(logistic, "DECREMENT_TOL", 1e-20)
        model, report = fit(six_point_dataset)
        assert report.converged
        assert report.max_abs_gradient <= 1e-15
        assert np.abs(gradient(model, six_point_dataset)).max() <= 1e-15
        assert model.beta[1] == pytest.approx(math.log(2), rel=1e-15)

    @given(
        seed=st.integers(0, 2**32 - 1),
        column=st.integers(0, 3),
        k=st.integers(-12, 12),
        offset=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_rescaling_a_ratio_changes_no_fit(self, seed, column, k, offset):
        # x -> 10^k x + c, |c| <= 10 * 10^k: a ratio restated in other units
        rng = np.random.default_rng(seed)
        m = int(rng.integers(20, 201))
        x = rng.normal(size=(m, 4))
        labels = (rng.random(m) < sigmoid(x @ rng.normal(size=4))).astype(int)
        labels[:2] = [0, 1]
        moved = x.copy()
        moved[:, column] = 10.0**k * moved[:, column] + offset * 10.0**k
        names = ("a", "b", "c", "d")
        model, report = fit(Dataset(x, labels, names))
        moved_model, moved_report = fit(Dataset(moved, labels, names))
        assert moved_report.converged == report.converged
        a, b = standardized(model.beta, x), standardized(moved_model.beta, moved)
        assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()

FIT = {
    "converged": True,
    "iterations": 5,
    "final_log_likelihood": -3.5,
    "max_abs_gradient": 1e-9,
    "ridge_used": 0.0,
}


class TestSerialization:
    def test_round_trip_preserves_beta_exactly(self, six_point_dataset):
        model, report = fit(six_point_dataset)
        text = model_to_json(model, report)
        loaded, loaded_report = model_from_json(text)
        assert np.array_equal(loaded.beta, model.beta)
        assert loaded.feature_names == model.feature_names
        assert loaded_report == report

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"beta": [0, 1]},
            {"feature_names": "a", "beta": [0, 1]},
            {"feature_names": [1], "beta": [0, 1]},
            {"feature_names": ["a"], "beta": [0, "1"]},
            {"feature_names": ["a"], "beta": [0, True]},
            {"feature_names": ["a"], "beta": [0, 10**400]},
            {"feature_names": ["a"], "beta": [0, 1], "fit": {}},
            {"feature_names": ["a"], "beta": [0, 1], "fit": FIT | {"extra": 1}},
            {"feature_names": ["a"], "beta": [0, 1], "fit": FIT | {"iterations": 2.5}},
            {"feature_names": ["a"], "beta": [0, 1], "fit": FIT | {"converged": 1}},
            {"feature_names": ["a"], "beta": [0, 1], "fit": FIT | {"ridge_used": "z"}},
            {"feature_names": ["a"], "beta": [0, 1], "fit": FIT | {"ridge_used": 10**400}},
            {"feature_names": ["a"], "beta": [0, 1], "fit": FIT | {"max_abs_gradient": math.nan}},
            {"feature_names": ["a"], "beta": [0, 1], "extra": 1},
        ],
    )
    def test_malformed_payload_is_typed_error(self, payload):
        with pytest.raises(MalformedModelError):
            model_from_json(json.dumps(payload))

    def test_integers_pass_as_floats_unchanged(self):
        payload = {"feature_names": ["a"], "beta": [0, 2],
                   "fit": FIT | {"ridge_used": 0, "iterations": 2.0}}
        model, report = model_from_json(json.dumps(payload))
        assert model.beta.tolist() == [0.0, 2.0]
        assert report.ridge_used == 0 and type(report.ridge_used) is float
        assert report.iterations == 2 and type(report.iterations) is int
        assert model_from_json(json.dumps({"feature_names": ["a"], "beta": [0, 2]}))[1] is None

    @pytest.mark.parametrize(
        "body", [b"{", b'{"feature_names": ["\xe9"], "beta": [0, 1]}', b'{"feature_names": []}']
    )
    def test_load_model_names_the_file(self, tmp_path, body):
        path = tmp_path / "m.json"
        path.write_bytes(body)
        with pytest.raises(MalformedModelError, match=r"m\.json: not a model file \("):
            load_model(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "place",
        [
            lambda bad: bad,
            lambda bad: {"a": [1.5, 1.5, bad]},  # a float list, by distinct value
            lambda bad: [0.0, bad, -0.0],  # a float list holding a zero
            lambda bad: [[1, bad]],  # a mixed list
        ],
        ids=["scalar", "float list", "float list with a zero", "mixed list"],
    )
    def test_emitter_refuses_non_finite_floats(self, bad, place):
        # json.dumps writes NaN, Infinity and -Infinity, which are not JSON
        with pytest.raises(ReliOptError, match=re.escape(f"{bad!r} has no JSON form")):
            _emit_json(place(bad))

    def test_shape_of_payload(self):
        import json

        model = make_model(0.25, -1.5, names=("ratio",))
        payload = json.loads(model_to_json(model))
        assert payload["feature_names"] == ["ratio"]
        assert payload["beta"] == [0.25, -1.5]
        assert payload["fit"] is None
