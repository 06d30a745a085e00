import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reliopt import data
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
    score_extremes,
)
from reliopt.errors import (
    AllMissingColumnError,
    DimensionMismatchError,
    InvalidDimensionsError,
    InvalidLabelError,
    MalformedRowError,
    MissingValuesRejectedError,
    UnknownLabelColumnError,
)
from reliopt.logistic import LogisticModel, score_rows, sigmoid
from reliopt.pipeline import CornerSolution
from reliopt.pso import SwarmResult

from conftest import write_csv
from oracles import reference_load_dataset, same_dataset

# a load's tracemalloc peak in feature matrices: 2.4 when the missing cells are
# imputed in the parsed float64 buffer, 3.4 when imputation copied it, 6.5
# when rows were kept as lists of Python floats
PEAK_ALLOC_BOUND = 3.0


def _force_blocks(monkeypatch, path, ranges: int = 2) -> None:
    """Make a load cut ``path`` into ``ranges`` byte ranges, or into one per
    usable CPU where there are fewer."""
    monkeypatch.setattr(data, "BLOCK_BYTES", max(1, Path(path).stat().st_size // ranges))


def _blocks_can_run() -> bool:
    return hasattr(os, "fork") and data._usable_cpus() > 1


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def streamed(monkeypatch) -> list:
    """The paths read by the one-pass reader, which the block path falls back to."""
    read_stream, paths = data._read_stream, []

    def recording(path, label_column):
        paths.append(path)
        return read_stream(path, label_column)

    monkeypatch.setattr(data, "_read_stream", recording)
    return paths


@pytest.fixture
def forked(monkeypatch) -> list:
    """The pids of the processes forked."""
    fork, pids = os.fork, []

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


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

    def test_row_whose_sum_overflows_loads(self, tmp_path):
        # each cell is finite, only the row's sum is not
        path = write_csv(tmp_path / "d.csv", "a,b,label\n1.7e308,1.7e308,1\n0,0,0\n")
        ds = load_dataset(path, "label")
        assert ds.features.tolist() == [[1.7e308, 1.7e308], [0.0, 0.0]]

    @pytest.mark.parametrize(
        "cells,bad,column", [("inf,abc", "inf", "a"), ("NA,nan", "nan", "b")]
    )
    def test_first_bad_cell_of_a_row_is_named(self, tmp_path, cells, bad, column):
        path = write_csv(tmp_path / "d.csv", f"a,b,label\n1,2,1\n{cells},0\n")
        with pytest.raises(
            MalformedRowError, match=rf"d\.csv:3: non-finite value '{bad}' in column '{column}'"
        ):
            load_dataset(path, "label")

    def test_oversized_field_is_typed_error_naming_the_line(self, tmp_path):
        # used to escape as _csv.Error: field larger than field limit (131072)
        path = write_csv(tmp_path / "big.csv", "a,label\n" + "1" * 200_000 + ",1\n2,0\n")
        with pytest.raises(MalformedRowError) as caught:
            load_dataset(path, "label")
        assert str(caught.value) == f"{path}:2: field larger than field limit (131072)"

    def test_error_names_the_file_line_after_a_quoted_line_break(self, tmp_path):
        # the second record spans lines 2-3, so abc is on line 4; used to say :3:
        path = write_csv(tmp_path / "ml.csv", 'a,label\n"2\n",1\nabc,0\n')
        with pytest.raises(MalformedRowError, match=r"ml\.csv:4: non-numeric value 'abc'"):
            load_dataset(path, "label")

    def test_mean_of_a_column_summing_past_the_float_range(self, tmp_path, capfd):
        # used to warn "overflow encountered in reduce", then fail naming no file
        path = write_csv(tmp_path / "d.csv", "a,label\n1.7e308,1\n1.7e308,0\nNA,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_dataset(path, "label")
        assert np.isfinite(ds.features[2, 0])
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("blocks", [False, True], ids=["stream", "blocks"])
    def test_peak_allocation_of_a_load(self, tmp_path, monkeypatch, streamed, blocks):
        # rows once stayed Python floats until one copy into the matrix: ~6x;
        # tracemalloc sees only this process, not the block path's workers
        rng = np.random.default_rng(3)
        cells = np.char.mod("%.6g", rng.normal(size=(2_000, 50))).astype(object)
        cells[rng.random(cells.shape) < 0.01] = "NA"
        labels = rng.integers(0, 2, (2_000, 1)).astype(str)
        lines = [",".join(row) for row in np.hstack([cells, labels]).tolist()]
        header = ",".join(f"r{j}" for j in range(50)) + ",label\n"
        path = write_csv(tmp_path / "d.csv", header + "\n".join(lines) + "\n")
        if blocks:
            _force_blocks(monkeypatch, path)
        tracemalloc.start()
        try:
            ds = load_dataset(path, "label")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PEAK_ALLOC_BOUND * ds.features.nbytes
        assert bool(streamed) == (not blocks or not _blocks_can_run())

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
        assert same_dataset(load_dataset(path, "label", MissingPolicy.REJECT_MISSING), original)


_NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1e3", " 2.5 ", "-0", ".5", "+7", "1E-3", '"4.25"']),
    # two of one sign in a row sum past the float range though each is finite
    st.sampled_from(["1.7e308", "-1.7e308"]),
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
    for _ in range(draw(st.integers(1, 24))):
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


@pytest.mark.parametrize("blocks", [False, True], ids=["stream", "blocks"])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=csv_bodies())
def test_reader_matches_the_reference(tmp_path, monkeypatch, streamed, blocks, body):
    path = tmp_path / "d.csv"
    path.write_text(body, encoding="utf-8", newline="")
    if blocks:
        _force_blocks(monkeypatch, path, ranges=4)
    # ranges end at line feeds, so a quote-free table that loads needs no fallback
    whole = blocks and _blocks_can_run() and '"' not in body and "\n" in body
    for policy in MissingPolicy:
        expected = _outcome(reference_load_dataset, path, policy)
        streamed.clear()
        assert _outcome(load_dataset, path, policy) == expected
        if whole and not isinstance(expected[0], type):
            assert not streamed


def _table_lines(rows: int = 300) -> list[str]:
    rng = np.random.default_rng(5)
    cells = rng.normal(size=(rows, 2)).tolist()
    labels = rng.integers(0, 2, rows).tolist()
    return ["a,b,label"] + [f"{x:.6g},{y:.6g},{k}" for (x, y), k in zip(cells, labels)]


class TestBlockReader:
    """A file of two blocks or more is read in byte ranges, one per usable
    CPU, by this process and forked workers; any failure hands the whole file
    to the one-pass reader."""

    def _outcomes(self, tmp_path, monkeypatch, content: bytes):
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        one_pass = _outcome(load_dataset, path, MissingPolicy.MEAN_IMPUTE)  # under two blocks
        _force_blocks(monkeypatch, path)
        return path, one_pass, _outcome(load_dataset, path, MissingPolicy.MEAN_IMPUTE)

    def test_a_clean_table_is_read_in_blocks(self, tmp_path, monkeypatch, streamed, forked):
        content = ("\n".join(_table_lines()) + "\n").encode()
        path, one_pass, in_blocks = self._outcomes(tmp_path, monkeypatch, content)
        assert in_blocks == one_pass and in_blocks[2] == (300, 2)
        assert streamed == [path]  # the first load, of a file under two blocks
        assert len(forked) == (1 if _blocks_can_run() else 0)
        _assert_no_child_left()

    def test_one_usable_cpu_reads_in_one_pass(self, tmp_path, monkeypatch, streamed, forked):
        read_blocks, returned = data.read_blocks, []

        def recording(*args):
            returned.append(read_blocks(*args))
            return returned[-1]

        monkeypatch.setattr(data, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(data, "read_blocks", recording)
        content = ("\n".join(_table_lines()) + "\n").encode()
        path, one_pass, in_blocks = self._outcomes(tmp_path, monkeypatch, content)
        assert in_blocks == one_pass and in_blocks[2] == (300, 2)
        assert returned == [None, None]  # a file under two blocks, then one of two
        assert streamed == [path, path] and forked == []

    def test_no_fork_reads_in_one_pass(self, tmp_path, monkeypatch, streamed):
        # a call of os.fork there would raise an AttributeError, which the
        # fallback hides; so the block reader must not start a worker at all
        fork_worker, workers = data._fork_worker, []

        def recording(*args):
            workers.append(args)
            return fork_worker(*args)

        monkeypatch.setattr(data, "_fork_worker", recording)
        monkeypatch.delattr(os, "fork", raising=False)
        content = ("\n".join(_table_lines()) + "\n").encode()
        path, one_pass, in_blocks = self._outcomes(tmp_path, monkeypatch, content)
        assert in_blocks == one_pass and in_blocks[2] == (300, 2)
        assert workers == []
        assert streamed == [path, path]  # once for each load: the second, of two blocks, too

    @pytest.mark.parametrize(
        "row,text,message",
        [
            (300, "abc,0.5,1", ":301: non-numeric value 'abc' in column 'a'"),
            # the quoted cell spans lines 252 and 253
            (251, '"2\n",0.5,1\nabc,0.5,1', ":254: non-numeric value 'abc' in column 'a'"),
            (300, "\udcff,0.5,1", ": not UTF-8 text"),
            # a line end of its own to the one-pass reader, so line 302 is empty
            (300, "0.5,0.5,1\r\r", ":302: expected 3 fields, got 0"),
        ],
        ids=[
            "bad cell in the last range",
            "quote in a later range",
            "invalid UTF-8 in the last range",
            "carriage return in the last range",
        ],
    )
    def test_fallback_raises_the_one_pass_error(
        self, tmp_path, monkeypatch, streamed, forked, row, text, message
    ):
        lines = _table_lines()
        lines[row] = text
        content = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
        path, one_pass, in_blocks = self._outcomes(tmp_path, monkeypatch, content)
        assert in_blocks == one_pass == (MalformedRowError, f"{path}{message}")
        assert streamed == [path] * (1 + _blocks_can_run())
        assert len(forked) <= data._usable_cpus() - 1
        _assert_no_child_left()

    def test_a_small_load_keeps_the_start_up_module_set(self, tmp_path):
        # every module of the start-up set costs each CLI process its compile
        # time and memory; loading a small file adds none
        path = write_csv(tmp_path / "d.csv", "\n".join(_table_lines()) + "\n")
        code = (
            "import sys\n"
            "from reliopt import cli, load_dataset\n"
            "load_dataset(sys.argv[1], 'label')\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'reliopt'))\n"
        )
        src = str(Path(data.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code, path],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        modules = ("cli", "data", "errors", "logistic", "pipeline", "pso")
        expected = ["reliopt"] + [f"reliopt.{m}" for m in modules]
        assert (out.stdout, out.stderr) == (f"{expected}\n", "")

    def test_a_failed_range_leaves_no_worker_blocked_on_its_pipe(self, tmp_path):
        # a worker once kept its own pipe's read end open: after the first
        # range failed, its write of more than the pipe holds blocked for
        # ever, and so did the load, waiting for it
        lines = _table_lines(20_000)
        lines[1] = "abc,0.5,1"
        path = write_csv(tmp_path / "d.csv", "\n".join(lines) + "\n")
        code = (
            "import os, sys\n"
            "from reliopt import data\n"
            "data.BLOCK_BYTES = os.path.getsize(sys.argv[1]) // 2\n"
            "try:\n"
            "    data.load_dataset(sys.argv[1], 'label')\n"
            "except data.MalformedRowError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(data.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-c", code, path],
            env={"PYTHONPATH": src},
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = child.communicate(timeout=60)
        finally:
            if child.poll() is None:  # the load hung: end it and its workers
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        assert out == f"{path}:2: non-numeric value 'abc' in column 'a'\n"

    def test_interrupt_reaps_the_workers(self, tmp_path, monkeypatch, forked):
        path = write_csv(tmp_path / "d.csv", "\n".join(_table_lines()) + "\n")
        _force_blocks(monkeypatch, path)
        parse_range, parent = data._parse_range, os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return parse_range(*args)

        monkeypatch.setattr(data, "_parse_range", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_dataset(path, "label")
        assert len(forked) == (1 if _blocks_can_run() else 0)
        _assert_no_child_left()

    def test_a_failed_first_range_stops_the_workers(self, tmp_path, monkeypatch, forked):
        # a worker left to finish its range would hold the load for 20 s
        lines = _table_lines()
        lines[1] = "abc,0.5,1"
        path = write_csv(tmp_path / "d.csv", "\n".join(lines) + "\n")
        _force_blocks(monkeypatch, path)
        parse_range, parent = data._parse_range, os.getpid()

        def slow_in_workers(*args):
            if os.getpid() != parent:
                time.sleep(20)
            return parse_range(*args)

        monkeypatch.setattr(data, "_parse_range", slow_in_workers)
        start = time.perf_counter()
        with pytest.raises(MalformedRowError, match=r"d\.csv:2: non-numeric value 'abc'"):
            load_dataset(path, "label")
        assert time.perf_counter() - start < 10
        assert len(forked) == (1 if _blocks_can_run() else 0)
        _assert_no_child_left()

    def test_a_worker_output_cut_short_falls_back(self, tmp_path, monkeypatch, streamed, forked):
        # a worker's byte count promises one row more than it writes, as a
        # kill in the middle of its write would leave it
        path = write_csv(tmp_path / "d.csv", "\n".join(_table_lines()) + "\n")
        _force_blocks(monkeypatch, path)
        parse_range, parent = data._parse_range, os.getpid()

        class Overstated(bytearray):
            def __len__(self):
                return super().__len__() + 3 * 8

        def cut_short_in_workers(*args):
            rows = parse_range(*args)
            return Overstated(rows) if os.getpid() != parent else rows

        monkeypatch.setattr(data, "_parse_range", cut_short_in_workers)
        ds = load_dataset(path, "label")
        assert ds.features.shape == (300, 2)
        assert streamed == [Path(path)]
        assert len(forked) == (1 if _blocks_can_run() else 0)
        _assert_no_child_left()

    @pytest.mark.parametrize("bad_row", [None, 300], ids=["clean", "bad cell in the last range"])
    def test_ignored_sigchld(self, tmp_path, monkeypatch, streamed, forked, bad_row):
        # the kernel then reaps the workers itself, and waitpid finds none
        lines = _table_lines()
        if bad_row:
            lines[bad_row] = "abc,0.5,1"
        content = ("\n".join(lines) + "\n").encode()
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            path, one_pass, in_blocks = self._outcomes(tmp_path, monkeypatch, content)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert in_blocks == one_pass
        assert streamed == [path] * (1 + (bad_row is not None and _blocks_can_run()))
        assert len(forked) == (1 if _blocks_can_run() else 0)
        _assert_no_child_left()


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

    def test_fills_its_argument_in_place(self):
        x = np.array([[1.0, np.nan], [np.nan, 4.0], [3.0, 8.0]])
        assert mean_impute(x) is x
        assert x.tolist() == [[1.0, 6.0], [2.0, 4.0], [3.0, 8.0]]

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
        assert same_dataset(a, b)

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
            (2, 10, [1e308, 1e308, -1e308], 2),  # the score overflows in the box
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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_score_extremes_bound_every_score_in_the_box(data):
    # the refusal of stage 2 and gen rests on this: a box whose two extreme
    # vertices score finite scores finite everywhere, so the swarm never
    # meets an overflow in the kernel
    n = data.draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    model = LogisticModel(data.draw(arrays(float, n + 1, elements=finite)), tuple("abcd"[:n]))
    ends = data.draw(arrays(float, (2, n), elements=finite))
    bounds = Bounds(ends.min(axis=0), ends.max(axis=0))
    points = [[data.draw(st.floats(lo, hi)) for lo, hi in zip(bounds.lower, bounds.upper)]
              for _ in range(4)]
    try:
        top, (high, low) = score_extremes(model, bounds)
    except InvalidDimensionsError:
        return
    with np.errstate(over="raise", invalid="raise"):
        scores = score_rows(model, points + [top])
    assert (low <= scores).all() and (scores <= high).all()
    assert scores[-1] == high


# each builds a record from malformed input; the typed error it raises and its message
MALFORMED = {
    "Bounds with a NaN": (
        lambda: Bounds([0.0, np.nan], [1.0, 1.0]), InvalidDimensionsError, "must be finite"),
    "Dataset with 1-D features": (
        lambda: Dataset(np.ones(3), [0, 1, 1], ("x",)), InvalidDimensionsError, "2-D"),
    "Dataset with a wrong label count": (
        lambda: Dataset(np.ones((3, 1)), [0, 1], ("x",)), InvalidDimensionsError,
        "expected 3 labels"),
    "Dataset with a NaN feature": (
        lambda: Dataset([[0.0], [np.nan], [1.0]], [0, 1, 1], ("x",)), MalformedRowError,
        "must be finite"),
    "Dataset with a wrong name count": (
        lambda: Dataset(np.ones((3, 1)), [0, 1, 1], ("x", "y")), InvalidDimensionsError,
        "expected 1 feature names, got 2"),
    "LogisticModel with a wrong beta length": (
        lambda: LogisticModel([0.0, 1.0], ("x", "y")), DimensionMismatchError, "3 entries"),
    "LogisticModel with a NaN": (
        lambda: LogisticModel([0.0, np.nan], ("x",)), DimensionMismatchError, "must be finite"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_records_refuse_malformed_input(case):
    build, error, message = MALFORMED[case]
    with pytest.raises(error, match=message):
        build()


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
