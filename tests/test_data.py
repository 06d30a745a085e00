import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reliopt.data import (
    DEFAULT_SEED,
    Bounds,
    Dataset,
    MissingPolicy,
    compute_bounds,
    generate_synthetic,
    load_dataset,
    mean_impute,
    save_dataset,
)
from reliopt.errors import (
    AllMissingColumnError,
    InvalidDimensionsError,
    InvalidLabelError,
    MalformedRowError,
    MissingValuesRejectedError,
    UnknownLabelColumnError,
)
from reliopt.logistic import LogisticModel, sigmoid
from reliopt.oracle import CornerSolution
from reliopt.pso import SwarmResult

from conftest import write_csv
from oracles import reference_load_dataset


class TestLoadDataset:
    def test_mean_impute_example(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "r1,label\n1.0,1\nNA,0\n3.0,1\n")
        ds = load_dataset(path, "label", MissingPolicy.MEAN_IMPUTE)
        assert ds.features[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_label_column_removed_and_order_kept(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv", "a,status,b\n1,1,10\n2,0,20\n3,1,30\n"
        )
        ds = load_dataset(path, "status", MissingPolicy.REJECT_MISSING)
        assert ds.labels.tolist() == [1, 0, 1]
        assert ds.feature_names == ("a", "b")
        assert ds.features.tolist() == [[1, 10], [2, 20], [3, 30]]

    def test_turkish_style_shape(self, tmp_path):
        # 40 banks, 12 ratios, 18 bankrupt / 22 healthy
        rng = np.random.default_rng(4)
        rows = []
        labels = [0] * 18 + [1] * 22
        for label in labels:
            cells = ",".join(f"{v:.6f}" for v in rng.uniform(-1, 1, 12))
            rows.append(f"{cells},{label}")
        header = ",".join(f"r{i}" for i in range(1, 13)) + ",label"
        path = write_csv(tmp_path / "turkish.csv", header + "\n" + "\n".join(rows) + "\n")
        ds = load_dataset(path, "label")
        assert (ds.n_rows, ds.n_features) == (40, 12)
        assert int((ds.labels == 0).sum()) == 18
        assert int((ds.labels == 1).sum()) == 22

    @pytest.mark.parametrize("token", ["", "NA", "na", "Na", " nA "])
    def test_missing_tokens(self, tmp_path, token):
        path = write_csv(tmp_path / "d.csv", f"r1,label\n1.0,1\n{token},0\n3.0,1\n")
        ds = load_dataset(path, "label")
        assert ds.features[1, 0] == 2.0

    def test_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            load_dataset(tmp_path / "nope.csv", "label")

    def test_wrong_field_count(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,label\n1,2,1\n1,0\n")
        with pytest.raises(MalformedRowError, match="expected 3 fields"):
            load_dataset(path, "label")

    def test_non_numeric_feature(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,label\nok,1\n2,0\n")
        with pytest.raises(MalformedRowError, match="non-numeric"):
            load_dataset(path, "label")

    def test_unknown_label_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,label\n1,1\n2,0\n")
        with pytest.raises(UnknownLabelColumnError):
            load_dataset(path, "status")

    @pytest.mark.parametrize("bad", ["2", "-1", "0.5", "yes", ""])
    def test_invalid_label(self, tmp_path, bad):
        path = write_csv(tmp_path / "d.csv", f"a,label\n1,1\n2,{bad}\n")
        with pytest.raises(InvalidLabelError):
            load_dataset(path, "label")

    def test_reject_missing_policy(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,label\n1,1\nNA,0\n")
        with pytest.raises(MissingValuesRejectedError):
            load_dataset(path, "label", MissingPolicy.REJECT_MISSING)

    def test_all_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,label\n1,NA,1\n2,,0\n")
        with pytest.raises(AllMissingColumnError):
            load_dataset(path, "label")

    def test_all_missing_column_names_file_and_column(self, tmp_path):
        # used to say "column 1 has no observed values to average"
        path = write_csv(tmp_path / "d.csv", "a,b,label\n1,NA,1\n2,,0\n")
        with pytest.raises(AllMissingColumnError, match=r"d\.csv: column 'b' has no observed"):
            load_dataset(path, "label")

    @pytest.mark.parametrize(
        "text,shape", [("label\n1\n0\n", "2x0"), ("a,b,label\n1,2,1\n", "1x2")]
    )
    def test_too_small_file_names_it(self, tmp_path, text, shape):
        path = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(InvalidDimensionsError, match=rf"d\.csv: .* got {shape}$"):
            load_dataset(path, "label")

    def test_header_only_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,label\n")
        with pytest.raises(InvalidDimensionsError, match="no data rows"):
            load_dataset(path, "label")

    def test_label_only_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "label\n1\n0\n")
        with pytest.raises(InvalidDimensionsError):
            load_dataset(path, "label")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(MalformedRowError, match="header"):
            load_dataset(path, "label")

    def test_non_finite_literal_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,label\ninf,1\n2,0\n")
        with pytest.raises(MalformedRowError, match="non-finite"):
            load_dataset(path, "label")

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheet exports start UTF-8 files with a BOM; the label came first
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,a\n1,0.5\n0,0.25\n")
        ds = load_dataset(path, "label")
        assert ds.feature_names == ("a",)
        assert ds.labels.tolist() == [1, 0]

    def test_non_utf8_file_is_typed_error_naming_it(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,label\n\u00e9,1\n0.1,0\n".encode("latin-1"))
        with pytest.raises(MalformedRowError, match="latin1.csv: not UTF-8 text"):
            load_dataset(path, "label")

    @pytest.mark.parametrize(
        "text", ["a,a,label\n1,2,1\n3,4,0\n", "a,b,a,label\n1,2,3,1\n4,5,6,0\n"]
    )
    def test_duplicate_header_names_rejected(self, tmp_path, text):
        path = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(MalformedRowError, match=r"duplicate column names \['a'\]"):
            load_dataset(path, "label")

    def test_round_trip_identity(self, tmp_path):
        original = Dataset(
            features=np.random.default_rng(11).normal(size=(7, 3)) * 1e3,
            labels=np.array([1, 0, 1, 1, 0, 0, 1]),
            feature_names=("a", "b", "c"),
        )
        path = tmp_path / "out.csv"
        save_dataset(original, path)
        assert load_dataset(path, "label", MissingPolicy.REJECT_MISSING) == original


_NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1e3", " 2.5 ", "-0", ".5", "+7", "1E-3", '"4.25"']),
)
_MISSING_CELLS = st.sampled_from(["", "NA", "na", " na ", "  ", "nA", '"NA"', '""'])
# Early entries are drawn most often, so each list starts with its most telling cells.
_JUNK_CELLS = st.sampled_from(
    ["nan", "inf", "abc", "1e400", "0x1A", "1_0", "-inf", "1.2.3", "NaN", "Infinity"]
    + ['"1,5"', '"2\n"', "\u00a03\u00a0", "\u0663", "1\x00"]
)
_JUNK_LABELS = st.sampled_from(
    [" 2 ", "yes", " nan ", "", " na ", " -1 ", "0.5", "NA", "inf", "1_0", "2"]
    + ["1.0", " 0 ", "0e0", '"1"']
)
_JUNK_NAMES = st.sampled_from(["status", "a", " b ", "", "label", '"c"'])
_FEATURE_CELLS = st.integers(0, 39).flatmap(
    lambda k: _JUNK_CELLS if k == 0 else _MISSING_CELLS if k <= 5 else _NUMBER_CELLS
)
_LABEL_CELLS = st.integers(0, 15).flatmap(
    lambda k: _JUNK_LABELS if k == 0 else st.sampled_from("01")
)
_FAULTS = ("name", "drop", "extra")


@st.composite
def csv_bodies(draw):
    """CSV text: a table of numbers with now and then a missing cell, a junk,
    non-finite or quoted cell or a junk label, the label column at any
    position, given up to two faults (a renamed or repeated header name, a
    dropped or an extra field), then joined with any of three line ends, a
    byte order mark or not, and a final line end or not."""
    name = st.sampled_from(["a", "b", "c", "r1"])
    names = draw(st.lists(name, min_size=1, max_size=4, unique=True))
    at = draw(st.integers(0, len(names)))
    table = [names[:at] + [draw(st.sampled_from(["label", " label "]))] + names[at:]]
    for _ in range(draw(st.integers(1, 8))):
        row = [draw(_FEATURE_CELLS) for _ in names]
        table.append(row[:at] + [draw(_LABEL_CELLS)] + row[at:])
    faults = draw(st.lists(st.sampled_from(_FAULTS), max_size=2))
    for fault in sorted(faults, key=_FAULTS.index):  # the field count changes last
        if fault == "name":
            table[0][draw(st.integers(0, len(names)))] = draw(_JUNK_NAMES)
        elif fault == "drop":
            del draw(st.sampled_from(table))[-1:]
        else:
            draw(st.sampled_from(table)).append("1")
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(",".join(row) for row in table) + (eol if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _outcome(read, path, policy):
    try:
        ds = read(path, "label", policy)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        ds.feature_names,
        ds.features.dtype.str,
        ds.features.shape,
        ds.features.tobytes(),
        ds.labels.dtype.str,
        ds.labels.tobytes(),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=csv_bodies())
def test_reader_matches_the_reference(tmp_path, body):
    path = tmp_path / "d.csv"
    path.write_text(body, encoding="utf-8", newline="")
    for policy in MissingPolicy:
        expected = _outcome(reference_load_dataset, path, policy)
        assert _outcome(load_dataset, path, policy) == expected


class TestDatasetInvariants:
    def test_too_few_rows(self):
        with pytest.raises(InvalidDimensionsError):
            Dataset(features=np.ones((1, 2)), labels=np.array([1]), feature_names=("a", "b"))

    def test_bad_label_values(self):
        with pytest.raises(InvalidLabelError):
            Dataset(features=np.ones((2, 1)), labels=np.array([1, 2]), feature_names=("a",))

    def test_fractional_label_rejected_not_truncated(self):
        with pytest.raises(InvalidLabelError):
            Dataset(features=np.ones((2, 1)), labels=np.array([0.5, 1.0]), feature_names=("a",))

    def test_immutable(self):
        ds = Dataset(features=np.ones((2, 1)), labels=np.array([0, 1]), feature_names=("a",))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0


class TestMeanImpute:
    def test_identity_on_complete_matrix(self):
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(mean_impute(x), x)

    @given(
        arrays(
            float,
            st.tuples(st.integers(2, 8), st.integers(1, 4)),
            elements=st.floats(-1e3, 1e3),
        ),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_preserves_column_means(self, x, data):
        # knock out a strict subset of each column
        x = x.copy()
        m = x.shape[0]
        for j in range(x.shape[1]):
            k = data.draw(st.integers(0, m - 1))
            rows = data.draw(
                st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True)
            )
            x[rows, j] = np.nan
        observed_means = [
            x[~np.isnan(x[:, j]), j].mean() for j in range(x.shape[1])
        ]
        filled = mean_impute(x)
        assert not np.isnan(filled).any()
        for j, target in enumerate(observed_means):
            assert filled[:, j].mean() == pytest.approx(target, abs=1e-12 * max(1, abs(target)))


class TestBounds:
    def test_single_column(self):
        ds = Dataset(
            features=np.array([[0.2], [0.5], [0.9]]),
            labels=np.array([1, 0, 1]),
            feature_names=("a",),
        )
        b = compute_bounds(ds)
        assert (b.lower[0], b.upper[0]) == (0.2, 0.9)

    def test_constant_column_is_degenerate(self):
        ds = Dataset(
            features=np.array([[1.5], [1.5]]),
            labels=np.array([1, 0]),
            feature_names=("a",),
        )
        b = compute_bounds(ds)
        assert (b.lower[0], b.upper[0]) == (1.5, 1.5)

    def test_two_columns(self):
        ds = Dataset(
            features=np.array([[0.0, 10.0], [5.0, -3.0]]),
            labels=np.array([1, 0]),
            feature_names=("a", "b"),
        )
        b = compute_bounds(ds)
        assert b.lower.tolist() == [0.0, -3.0]
        assert b.upper.tolist() == [5.0, 10.0]

    @given(
        arrays(
            float,
            st.tuples(st.integers(2, 12), st.integers(1, 5)),
            elements=st.floats(-1e9, 1e9),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_envelope(self, x):
        ds = Dataset(
            features=x,
            labels=np.resize([0, 1], x.shape[0]),
            feature_names=tuple(f"f{j}" for j in range(x.shape[1])),
        )
        b = compute_bounds(ds)
        assert (ds.features >= b.lower).all()
        assert (ds.features <= b.upper).all()

    def test_inverted_bounds_rejected(self):
        with pytest.raises(InvalidDimensionsError):
            Bounds(np.array([1.0]), np.array([0.0]))


class TestGenerateSynthetic:
    def box(self, n, lo=-1.0, hi=1.0):
        return Bounds(np.full(n, lo), np.full(n, hi))

    def test_deterministic(self):
        a, _ = generate_synthetic(2, 50, [0.1, -0.2, 0.3], self.box(2), seed=5)
        b, _ = generate_synthetic(2, 50, [0.1, -0.2, 0.3], self.box(2), seed=5)
        assert a == b

    def test_zero_beta_balance(self):
        ds, _ = generate_synthetic(1, 10_000, [0.0, 0.0], self.box(1), seed=DEFAULT_SEED)
        assert 0.48 <= ds.labels.mean() <= 0.52

    def test_steep_slope_conditional_fraction(self):
        ds, beta = generate_synthetic(1, 5_000, [0.0, 8.0], self.box(1), seed=DEFAULT_SEED)
        hot = ds.features[:, 0] > 0.5
        # direct check of the ground truth on the generated sample
        assert (sigmoid(8.0 * ds.features[hot, 0]) >= sigmoid(4.0)).all()
        assert ds.labels[hot].mean() >= 0.95

    def test_echoes_beta(self):
        beta_in = [0.5, -0.25]
        _, beta_out = generate_synthetic(1, 10, beta_in, self.box(1), seed=1)
        assert beta_out.tolist() == beta_in

    @pytest.mark.parametrize(
        "n,m,beta,box_n",
        [
            (0, 10, [0.0], 1),
            (1, 1, [0.0, 0.0], 1),
            (2, 10, [0.0, 0.0], 2),  # beta too short
            (1, 10, [0.0, 0.0], 2),  # ranges wrong size
        ],
    )
    def test_invalid_dimensions(self, n, m, beta, box_n):
        with pytest.raises(InvalidDimensionsError):
            generate_synthetic(n, m, beta, self.box(box_n), seed=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, bad):
        # a NaN coefficient used to give a dataset with every label 0
        with pytest.raises(InvalidDimensionsError, match="finite"):
            generate_synthetic(1, 10, [0.0, bad], self.box(1), seed=0)

    def test_degenerate_range_rejected(self):
        flat = Bounds(np.array([1.0]), np.array([1.0]))
        with pytest.raises(InvalidDimensionsError):
            generate_synthetic(1, 10, [0.0, 0.0], flat, seed=0)


# each builds a record from the caller's array and returns the array it stored
STORED_ARRAY = {
    "Bounds": lambda a: Bounds(a, a + 1.0).lower,
    "Dataset": lambda a: Dataset(a[:, np.newaxis], [0, 1, 1], ("x",)).features[:, 0],
    "LogisticModel": lambda a: LogisticModel(a, ("x", "y")).beta,
    "SwarmResult": lambda a: SwarmResult(0, a, 2.0, 2, a).history,
    "CornerSolution": lambda a: CornerSolution(a, 0.5, np.ones(3, dtype=int)).position,
}


@pytest.mark.parametrize("record", sorted(STORED_ARRAY))
def test_records_copy_the_callers_array(record):
    caller = np.array([0.0, 1.0, 2.0])
    stored = STORED_ARRAY[record](caller)
    # used to raise "assignment destination is read-only": the record froze
    # the caller's own contiguous float64 array instead of a copy
    caller[0] = 5.0
    assert stored.tolist() == [0.0, 1.0, 2.0]
    assert not stored.flags.writeable
