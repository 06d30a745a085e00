import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reliopt
from reliopt import cli, logistic
from reliopt.cli import main
from reliopt.data import save_dataset

from conftest import duplicated_large_column_dataset, write_csv


_TOO_WIDE = "dimension 0 is wider than half the largest float"
_WIDE_CSV = "a,label\n-1e308,0\n1e308,1\n0,0\n1,1\n-1,0\n2,1\n"
_WIDE_A = "column 'a' is wider than half the largest float"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def synth_csv(tmp_path):
    path = tmp_path / "synth.csv"
    code = run_cli("gen", "--features", "9", "--rows", "120", "--seed", "4", "--out", str(path))
    assert code == 0
    return path


class TestGen:
    def test_writes_header_plus_rows(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run_cli("gen", "--features", "9", "--rows", "200", "--seed", "1", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 201
        assert lines[0].split(",")[-1] == "label"
        assert "true beta:" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen", "--features", "4", "--rows", "50", "--seed", "9", "--out", str(a))
        run_cli("gen", "--features", "4", "--rows", "50", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_features_is_usage_error(self, tmp_path):
        code = run_cli("gen", "--features", "0", "--rows", "10", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--lower", "nan"], ["--upper", "inf"], ["--beta", "1,2"], ["--beta", "1,2,nan"],
         ["--lower=-1e308", "--upper=1e308"], ["--beta", "1,x"],
         ["--lower", "1", "--upper", "3", "--beta", "1e308,1e308,-1e308"]],
    )
    def test_bad_box_or_beta_is_usage_error(self, tmp_path, capsys, flags):
        # --beta 1,2,nan used to write a dataset with every label 0, a range
        # wider than the largest float ended in numpy's OverflowError, and a
        # score overflowing in the box labelled its NaN-score rows 0 under
        # numpy's warnings
        out = tmp_path / "g.csv"
        assert run_cli("gen", "--features", "2", "--rows", "5", *flags, "--out", str(out)) == 2
        assert_single_error(capsys)
        assert not out.exists()

    def test_explicit_beta(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run_cli(
            "gen", "--features", "2", "--rows", "30", "--seed", "0",
            "--beta", "0.5,1.0,-1.0", "--out", str(out),
        ) == 0
        assert "0.5" in capsys.readouterr().out

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run_cli("gen", "--features", "2", "--rows", "5", "--seed", "-3", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_negative_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RELIOPT_SEED", "-3")
        assert run_cli("gen", "--features", "2", "--rows", "5", "--out", str(tmp_path / "g.csv")) == 2

    def test_env_seed_default(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("RELIOPT_SEED", "33")
        run_cli("gen", "--features", "2", "--rows", "20", "--out", str(a))
        monkeypatch.delenv("RELIOPT_SEED")
        run_cli("gen", "--features", "2", "--rows", "20", "--seed", "33", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def test_writes_model_with_all_coefficients(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run_cli("gen", "--features", "12", "--rows", "150", "--seed", "2", "--out", str(data))
        capsys.readouterr()
        model_path = tmp_path / "model.json"
        code = run_cli("fit", "--data", str(data), "--label", "label", "--out", str(model_path))
        assert code == 0
        payload = json.loads(model_path.read_text())
        assert len(payload["beta"]) == 13
        assert len(payload["feature_names"]) == 12
        out = capsys.readouterr().out
        assert "log-likelihood" in out and "converged" in out

    def test_missing_file_exit_1_names_path(self, capsys):
        assert run_cli("fit", "--data", "missing_bank_data.csv", "--label", "label") == 1
        assert "missing_bank_data.csv" in capsys.readouterr().err

    def test_unknown_label_exit_2(self, synth_csv):
        assert run_cli("fit", "--data", str(synth_csv), "--label", "nosuch") == 2

    def test_json_mode_prints_model(self, synth_csv, capsys):
        assert run_cli("fit", "--data", str(synth_csv), "--label", "label", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"feature_names", "beta", "fit"}

    def test_model_json_is_rendered_once_when_written_and_printed(
        self, synth_csv, tmp_path, capsys, monkeypatch
    ):
        # each rendering of a model file builds its payload once
        out, built = tmp_path / "model.json", []
        payload = logistic.model_payload

        def counting(model, report=None):
            built.append(model)
            return payload(model, report)

        monkeypatch.setattr(logistic, "model_payload", counting)
        assert run_cli("fit", "--data", str(synth_csv), "--label", "label",
                       "--out", str(out), "--json") == 0
        assert len(built) == 1
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_single_class_exit_1(self, tmp_path, capsys):
        path = write_csv(tmp_path / "one.csv", "a,label\n1,1\n2,1\n3,1\n")
        assert run_cli("fit", "--data", path, "--label", "label") == 1
        assert "single-class" in capsys.readouterr().err

    def test_singular_curvature_exit_1(self, tmp_path, capsys, monkeypatch):
        # the relative fallback ridge fits every finite dataset tried, so the
        # factorization is made to fail, with the ridge on as well
        def refuse(matrix):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        path = tmp_path / "dup.csv"
        save_dataset(duplicated_large_column_dataset(), path)
        assert run_cli("fit", "--data", str(path), "--label", "label") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "singular" in lines[0] and "enable" not in lines[0]


    @pytest.mark.filterwarnings("error")
    def test_ratio_near_1e300_fits_quietly(self, tmp_path, capsys):
        rows = "".join(f"{(i % 7 + 1) * 1e300!r},{i % 3},{i % 2}\n" for i in range(12))
        path = write_csv(tmp_path / "huge.csv", "a,b,label\n" + rows)
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--data", path, "--label", "label", "--out", str(model_path)) == 0
        assert capsys.readouterr().err == ""
        beta = json.loads(model_path.read_text())["beta"]
        assert beta[1] != 0.0 and np.isfinite(beta).all()

    def test_fallback_ridge_is_printed(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        save_dataset(duplicated_large_column_dataset(), path)
        assert run_cli("fit", "--data", str(path), "--label", "label") == 0
        assert "  ridge used: " in capsys.readouterr().out

    def test_byte_order_mark_before_label_column(self, tmp_path, capsys):
        # used to end in "no column named 'label'" with exit 2
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,a\n1,0.5\n0,0.2\n1,0.9\n0,0.7\n")
        assert run_cli("fit", "--data", str(path), "--label", "label", "--json") == 0
        assert json.loads(capsys.readouterr().out)["feature_names"] == ["a"]

    def test_non_utf8_file_exit_1_names_it(self, tmp_path, capsys):
        # a Latin-1 cell used to end in a UnicodeDecodeError traceback
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,label\n\u00e9,1\n0.1,0\n".encode("latin-1"))
        assert run_cli("fit", "--data", str(path), "--label", "label") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: not UTF-8 text\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("a,label\n", "no data rows"),
            ("label\n1\n0\n", "need at least 2 rows and 1 feature, got 2x0"),
            ("a,b,label\n1,2,1\n", "need at least 2 rows and 1 feature, got 1x2"),
            ("a,b,label\n1,NA,1\n2,,0\n", "column 'b' has no observed values"),
        ],
        ids=["header only", "label only", "one row", "all missing column"],
    )
    def test_data_errors_exit_1_name_the_file(self, tmp_path, capsys, text, message):
        # the first three used to exit 2 (usage), and only the first named the file;
        # the all-missing column was "column 1 has no observed values to average"
        path = write_csv(tmp_path / "d.csv", text)
        assert run_cli("fit", "--data", path, "--label", "label") == 1
        assert assert_single_error(capsys) == f"error: {path}: {message}"

    def test_duplicate_header_names_exit_1(self, tmp_path, capsys):
        # used to fit a model with two features both named 'a'
        path = write_csv(tmp_path / "dup.csv", "a,a,label\n1,2,1\n3,4,0\n5,1,1\n")
        assert run_cli("fit", "--data", path, "--label", "label") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "duplicate column names ['a']" in captured.err

    def test_oversized_field_exit_1_names_the_line(self, tmp_path, capsys):
        # used to end in a traceback: _csv.Error: field larger than field limit (131072)
        path = write_csv(tmp_path / "big.csv", "a,label\n" + "1" * 200_000 + ",1\n2,0\n")
        assert run_cli("fit", "--data", path, "--label", "label") == 1
        message = "field larger than field limit (131072)"
        assert assert_single_error(capsys) == f"error: {path}:2: {message}"


class TestOptimize:
    @pytest.fixture()
    def model_json(self, synth_csv, tmp_path):
        path = tmp_path / "model.json"
        assert run_cli("fit", "--data", str(synth_csv), "--label", "label",
                       "--out", str(path)) == 0
        return path

    def test_report_and_table(self, synth_csv, model_json, tmp_path, capsys):
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = run_cli(
            "optimize", "--model", str(model_json), "--data", str(synth_csv),
            "--label", "label", "--pop", "20", "--iters", "3", "--runs", "25",
            "--seed", "7", "--out", str(report_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert len(payload["prescriptions"]) <= 2
        for entry in payload["prescriptions"]:
            assert 0.0 < entry["reliability"] < 1.0
        table = capsys.readouterr().out
        assert "Population size: 20" in table
        assert "Maximum iterations: 3" in table
        # solution vectors and reliabilities rendered at three decimals
        row = re.compile(r"\[(-?\d+\.\d{3})(, -?\d+\.\d{3})*\]\s+-?\d\.\d{3}\s*$")
        assert any(row.search(line) for line in table.splitlines())

    def test_byte_identical_reports(self, synth_csv, model_json, tmp_path):
        args = (
            "optimize", "--model", str(model_json), "--data", str(synth_csv),
            "--label", "label", "--pop", "15", "--iters", "4", "--runs", "6", "--seed", "3",
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_stream_has_no_table(self, synth_csv, model_json, capsys):
        capsys.readouterr()
        code = run_cli(
            "optimize", "--model", str(model_json), "--data", str(synth_csv),
            "--label", "label", "--pop", "10", "--iters", "2", "--runs", "3",
            "--seed", "1", "--json",
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # pure JSON, no table mixed in
        assert "ensemble" in payload

    def test_explicit_bounds_file(self, model_json, tmp_path, capsys):
        bounds_path = tmp_path / "bounds.json"
        bounds_path.write_text(json.dumps({"lower": [0] * 9, "upper": [1] * 9}))
        code = run_cli(
            "optimize", "--model", str(model_json), "--bounds", str(bounds_path),
            "--pop", "10", "--iters", "2", "--runs", "2", "--seed", "0", "--json",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bounds"]["lower"] == [0.0] * 9

    @pytest.mark.parametrize("change", ["reordered", "renamed"])
    def test_data_columns_other_than_the_models_exit_1(
        self, synth_csv, model_json, tmp_path, capsys, change
    ):
        # both used to exit 0; reordered, x9's range went to x1's coefficient
        rows = [line.split(",") for line in synth_csv.read_text().splitlines()]
        model_names = rows[0][:-1]
        if change == "reordered":
            rows = [row[-2::-1] + row[-1:] for row in rows]
        else:
            rows[0] = [f"r{j}" for j in range(1, 10)] + ["label"]
        data = tmp_path / f"{change}.csv"
        data.write_text("".join(",".join(row) + "\n" for row in rows))
        capsys.readouterr()
        code = run_cli(
            "optimize", "--model", str(model_json), "--data", str(data), "--label", "label",
            "--pop", "10", "--iters", "2", "--runs", "2",
        )
        assert code == 1
        line = assert_single_error(capsys)
        assert str(data) in line and str(model_json) in line
        assert str(rows[0][:-1]) in line and str(model_names) in line

    def test_no_prescriptions_requested_prints_none_found(self, synth_csv, model_json, capsys):
        capsys.readouterr()
        assert run_cli(
            "optimize", "--model", str(model_json), "--data", str(synth_csv), "--label", "label",
            "--pop", "4", "--iters", "2", "--runs", "2", "--prescriptions", "0",
        ) == 0
        captured = capsys.readouterr()
        assert "Near-optimal prescriptions:\n  (none found)\n" in captured.out
        assert captured.err == ""

    def test_missing_model_flag_is_usage_error(self, synth_csv):
        assert run_cli("optimize", "--data", str(synth_csv), "--label", "label") == 2

    def test_missing_model_file_exit_1_names_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("optimize", "--model", "missing.json") == 1
        assert assert_single_error(capsys) == "error: no such file: missing.json"

    def test_config_file_out_path_is_honored(self, synth_csv, model_json, tmp_path):
        report_path = tmp_path / "from_config.json"
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "data": str(synth_csv),
            "label": "label",
            "out": str(report_path),
            "swarm": {"pop": 10, "iters": 2},
            "pipeline": {"runs": 2, "seed": 1},
        }))
        assert run_cli("optimize", "--model", str(model_json),
                       "--config", str(config_path)) == 0
        assert report_path.exists()
        json.loads(report_path.read_text())

    @pytest.mark.parametrize(
        "body",
        [
            {"lower": ["a"] + [0] * 8, "upper": [1] * 9},
            {"lower": [0] * 9, "upper": "abc"},
            [0, 1],
            {"lower": ["1", True] + [0] * 7, "upper": ["3e0", 3] + [1] * 7},
        ],
    )
    def test_malformed_bounds_file_is_usage_error(self, model_json, tmp_path, capsys, body):
        bounds_path = tmp_path / "bounds.json"
        bounds_path.write_text(json.dumps(body))
        capsys.readouterr()
        code = run_cli(
            "optimize", "--model", str(model_json), "--bounds", str(bounds_path),
            "--pop", "10", "--iters", "2", "--runs", "2",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bounds_path) in err

    @pytest.mark.parametrize(
        "body",
        [
            b'{"feature_names": ["a"], "beta": ["a", 1]}',
            b"[1, 2]",
            b'{"feature_names": ["a"], "beta": [0, 1], "fit": {"foo": 1}}',
            b'{"feature_names": ["a"], "beta": [0, 1], "fit": {"converged": false, '
            b'"iterations": 3, "final_log_likelihood": -1.0, "max_abs_gradient": 0.5, '
            b'"ridge_used": "z"}}',
            b'{"feature_names": ["\xe9"], "beta": [0, 1]}',
            b'{"beta": [0, 1]}',
            b'{"feature_names": "ab", "beta": [0, 1, 2]}',
            b'{"feature_names": ["a"], "beta": [0, 1e999]}',
            b"{",
            b"[" * 100_000 + b"]" * 100_000,
            b'{"feature_names": ["a"], "beta": [0, 1], "fit": {"converged": false, '
            b'"iterations": 3, "final_log_likelihood": NaN, "max_abs_gradient": 0.5, '
            b'"ridge_used": 0.0}}',
        ],
        ids=[
            "string in beta", "list", "unknown fit key", "string in fit", "not utf-8",
            "missing key", "string of names", "infinite beta", "not json", "nested too deep",
            "nan in fit",
        ],
    )
    def test_malformed_model_file_exit_1_names_it(self, tmp_path, capsys, body):
        # each used to end in a traceback, in a message naming no file, or (a
        # string of names) in a model with one feature per character
        model_path = tmp_path / "model.json"
        model_path.write_bytes(body)
        bounds_path = tmp_path / "bounds.json"
        bounds_path.write_text(json.dumps({"lower": [0], "upper": [1]}))
        capsys.readouterr()
        code = run_cli(
            "optimize", "--model", str(model_path), "--bounds", str(bounds_path),
            "--pop", "4", "--iters", "2", "--runs", "2",
        )
        assert code == 1
        assert assert_single_error(capsys).startswith(f"error: {model_path}: not a model file (")

    @pytest.mark.parametrize(
        "body,message",
        [
            (b'{"lower": [0', "not valid JSON"),
            (b'{"lower": ["\xe9"]}', "not valid JSON ('utf-8' codec can't decode"),
            (b'{"lower": [1, 0], "upper": [0, 1]}', "lower[0] > upper[0]"),
            (b"[" * 100_000 + b"]" * 100_000, "not valid JSON (maximum recursion depth"),
            (b'{"lower": [-1e308, 1], "upper": [1e308, 3]}', _TOO_WIDE),
            (b'{"lower": [-5e307], "upper": [5e307]}', _TOO_WIDE),
            (
                b'{"lower": [8.988465674311579e+307], "upper": [1.7976931348623157e+308]}',
                "dimension 0 is too wide for the swarm: a velocity overflows",
            ),
            (
                b'{"lower": [1.7e308], "upper": [1.79e308]}',
                "dimension 0 lies too far out for the swarm: a position overflows",
            ),
            (b'{"lower": [' + b"1" * 4301 + b"]}", "not valid JSON (Exceeds the limit"),
            (b'{"lower": [0], "upper": [1]}', "lower and upper have length 1, but "),
            (b'{"lower": [], "upper": []}', "bounds need at least one dimension"),
            (b'{"lower": [0, 0], "upper": [1]}', "lower and upper must be 1-D vectors of equal"),
        ],
        ids=[
            "not json", "not utf-8", "lower above upper", "nested too deep",
            "width overflows", "doubled width overflows", "velocity overflows",
            "position overflows", "integer past the digit limit",
            "wrong length", "empty", "unequal lengths",
        ],
    )
    def test_unreadable_bounds_file_is_usage_error(self, model_json, tmp_path, capsys, body, message):
        # not-JSON used to exit 1; not-UTF-8 and deep nesting ended in a
        # traceback, and so did both boxes too wide for the swarm, in numpy's
        # uniform (the second at the velocity draw over +-width); a wrong
        # length exited 1 naming no file; the boxes where a sweep's velocity or
        # position overflows exited 0 under numpy's overflow warnings
        bounds_path = tmp_path / "bounds.json"
        bounds_path.write_bytes(body)
        capsys.readouterr()
        code = run_cli("optimize", "--model", str(model_json), "--bounds", str(bounds_path))
        assert code == 2
        assert assert_single_error(capsys).startswith(f"error: {bounds_path}: {message}")

    def test_signed_zero_box_runs_at_its_bound(self, tmp_path, capsys):
        # 0.0 <= -0.0 passes Bounds, but the width -0.0 made numpy's uniform raise
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"feature_names": ["a"], "beta": [0.5, 1.0]}))
        bounds_path = tmp_path / "bounds.json"
        bounds_path.write_text(json.dumps({"lower": [0.0], "upper": [-0.0]}))
        capsys.readouterr()
        code = run_cli(
            "optimize", "--model", str(model_path), "--bounds", str(bounds_path), "--json",
            "--pop", "4", "--iters", "3", "--runs", "3", "--prescriptions", "1",
        )
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        report = json.loads(captured.out, parse_constant=refuse_constant)
        positions = [run["best_position"] for run in report["ensemble"]]
        positions += [report["corner"]["position"]]
        positions += [p["position"] for p in report["prescriptions"]]
        assert positions == [[0.0]] * len(positions)

    def test_population_beyond_address_space_exit_1(self, model_json, tmp_path, capsys):
        # 1e15 x 9 floats is 64 PiB, past any address space, so numpy refuses
        # the allocation at once instead of touching memory
        bounds_path = tmp_path / "bounds.json"
        bounds_path.write_text(json.dumps({"lower": [0] * 9, "upper": [1] * 9}))
        capsys.readouterr()
        code = run_cli(
            "optimize", "--model", str(model_json), "--bounds", str(bounds_path),
            "--pop", "1000000000000000", "--iters", "1", "--runs", "2",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory")

    def test_non_finite_report_is_refused_unwritten(self, tmp_path):
        # 1e308*x - 1e308*y is inf - inf = nan on the box: the report held 5,052
        # NaNs, refused by the JSON writer under numpy's overflow warnings. The
        # score is now refused before any draw; a process of its own shows that
        # stderr holds that one line and no warning.
        model_path, bounds_path = tmp_path / "model.json", tmp_path / "bounds.json"
        model_path.write_text('{"feature_names": ["a", "b"], "beta": [0, 1e308, -1e308]}')
        bounds_path.write_text('{"lower": [1, 1], "upper": [3, 3]}')
        out = tmp_path / "report.json"
        done = subprocess.run(
            [sys.executable, "-m", "reliopt", "optimize", "--model", str(model_path),
             "--bounds", str(bounds_path), "--json", "--out", str(out)],
            env={"PYTHONPATH": str(Path(reliopt.__file__).resolve().parents[1])},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert not out.exists()
        assert done.stderr == (
            f"error: {model_path}, {bounds_path}: "
            "the score b0 + b . x overflows the float range in the box\n"
        )

    def test_score_overflowing_in_the_data_box_names_both_files(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text('{"feature_names": ["a", "b"], "beta": [0, 1e308, -1e308]}')
        path = write_csv(tmp_path / "data.csv", "a,b,label\n1,1,0\n3,3,1\n2,1,0\n1,3,1\n")
        capsys.readouterr()
        code = run_cli(
            "optimize", "--model", str(model_path), "--data", path, "--label", "label",
            "--pop", "4", "--iters", "2", "--runs", "2",
        )
        assert code == 1
        assert assert_single_error(capsys) == (
            f"error: {model_path}, {path}: "
            "the score b0 + b . x overflows the float range in the box"
        )


class TestPipeline:
    def test_end_to_end_report(self, synth_csv, tmp_path):
        report_path = tmp_path / "report.json"
        model_path = tmp_path / "model.json"
        code = run_cli(
            "pipeline", "--data", str(synth_csv), "--label", "label",
            "--pop", "15", "--iters", "3", "--runs", "8", "--seed", "11",
            "--out", str(report_path), "--model-out", str(model_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        top = max(r["best_value"] for r in payload["ensemble"])
        assert payload["corner"]["value"] >= top
        for entry in payload["prescriptions"]:
            assert entry["reliability"] <= payload["corner"]["value"]
        model_payload = json.loads(model_path.read_text())
        assert model_payload["beta"] == payload["model"]["beta"]

    def test_config_file_supplies_settings(self, synth_csv, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "data": str(synth_csv),
            "label": "label",
            "swarm": {"pop": 10, "iters": 2},
            "pipeline": {"runs": 3, "seed": 5},
        }))
        assert run_cli("pipeline", "--config", str(config_path)) == 0
        out = capsys.readouterr().out
        assert "Population size: 10" in out
        assert "Runs: 3" in out

    def test_flags_override_config_with_note(self, synth_csv, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "data": str(synth_csv),
            "label": "label",
            "swarm": {"pop": 10, "iters": 2},
            "pipeline": {"runs": 3},
        }))
        assert run_cli("pipeline", "--config", str(config_path), "--pop", "12") == 0
        captured = capsys.readouterr()
        assert "Population size: 12" in captured.out
        assert "overrides" in captured.err

    def test_unknown_config_key_is_usage_error(self, synth_csv, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"data": str(synth_csv), "labels": "oops"}))
        assert run_cli("pipeline", "--config", str(config_path)) == 2
        assert "labels" in capsys.readouterr().err

    def test_ratio_spanning_the_float_range_exit_1(self, tmp_path, capsys):
        # the fit takes it; the swarm's start ended in numpy's OverflowError
        path = write_csv(tmp_path / "wide.csv", _WIDE_CSV)
        capsys.readouterr()
        code = run_cli(
            "pipeline", "--data", path, "--label", "label",
            "--pop", "4", "--iters", "2", "--runs", "2",
        )
        assert code == 1
        assert assert_single_error(capsys) == f"error: {path}: {_WIDE_A}"

    def test_optimize_data_spanning_the_float_range_exit_1(self, tmp_path, capsys):
        path = write_csv(tmp_path / "wide.csv", _WIDE_CSV)
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--data", path, "--label", "label", "--out", str(model_path)) == 0
        capsys.readouterr()
        code = run_cli(
            "optimize", "--model", str(model_path), "--data", path, "--label", "label",
            "--pop", "4", "--iters", "2", "--runs", "2",
        )
        assert code == 1
        assert assert_single_error(capsys) == f"error: {path}: {_WIDE_A}"

    @pytest.mark.parametrize("command", ["pipeline", "optimize"])
    def test_data_box_where_a_sweep_overflows_exit_1(self, tmp_path, capsys, command):
        # a box of half the float maximum to the maximum, where a sweep's
        # velocity and position overflow: optimize exited 0 under numpy's
        # overflow warnings
        path = write_csv(
            tmp_path / "far.csv",
            "a,label\n8.988465674311579e+307,0\n1.7976931348623157e+308,1\n"
            "1e308,0\n1.5e308,1\n",
        )
        model_path = tmp_path / "model.json"
        model_path.write_text('{"feature_names": ["a"], "beta": [0, -1]}')
        capsys.readouterr()
        model = ["--model", str(model_path)] if command == "optimize" else []
        code = run_cli(
            command, *model, "--data", path, "--label", "label",
            "--pop", "4", "--iters", "2", "--runs", "2",
        )
        assert code == 1
        assert assert_single_error(capsys) == (
            f"error: {path}: column 'a' is too wide for the swarm: a velocity overflows"
        )

    def test_report_json_is_rendered_only_when_written(self, synth_csv, capsys, monkeypatch):
        def refuse(report):
            raise AssertionError("report JSON rendered with neither --out nor --json")

        monkeypatch.setattr(cli, "report_to_json", refuse)
        assert run_cli("pipeline", "--data", str(synth_csv), "--label", "label",
                       "--pop", "4", "--iters", "2", "--runs", "2") == 0
        assert "Corner optimum reliability" in capsys.readouterr().out

    def test_single_class_dataset_exit_1(self, tmp_path, capsys):
        path = write_csv(tmp_path / "one.csv", "a,b,label\n1,5,0\n2,6,0\n3,7,0\n")
        assert run_cli("pipeline", "--data", path, "--label", "label") == 1
        assert "single-class" in capsys.readouterr().err


def write_config(path, body):
    path.write_text(json.dumps(body))
    return str(path)


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_single_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    return lines[0]


class TestSettings:
    """Defaults, then $RELIOPT_SEED, then the config file, then flags."""

    FAST = ("--pop", "10", "--iters", "2", "--runs", "3")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("swarm", "pop", "abc"),
            ("swarm", "pop", 1),
            ("pipeline", "runs", True),
            ("pipeline", "seed", 1.7),
            ("swarm", "scalar_rand", "false"),
            ("pipeline", "radius", "wide"),
            ("swarm", "velocity_clamp_fraction", 0),
            (None, "data", 3),
            (None, "label", 5),
            (None, "missing", "drop"),
            pytest.param("swarm", "c1", 10**400, id="swarm-c1-10**400"),
        ],
    )
    def test_bad_config_value_is_usage_error(self, synth_csv, tmp_path, capsys, section, key, value):
        body = {"data": str(synth_csv), "label": "label",
                "swarm": {"pop": 10, "iters": 2}, "pipeline": {"runs": 3}}
        (body if section is None else body[section])[key] = value
        capsys.readouterr()
        assert run_cli("pipeline", "--config", write_config(tmp_path / "cfg.json", body)) == 2
        assert_single_error(capsys)

    def test_non_utf8_config_file_is_usage_error(self, synth_csv, tmp_path, capsys):
        # used to end in a UnicodeDecodeError traceback
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"label": "\xe9"}')
        assert run_cli("pipeline", "--data", str(synth_csv), "--config", str(path)) == 2
        assert assert_single_error(capsys).startswith(f"error: {path}: not valid JSON (")

    def test_integer_past_the_digit_limit_is_usage_error(self, synth_csv, tmp_path, capsys):
        # json.loads raises a plain ValueError past 4,300 digits: it ended in a traceback
        path = tmp_path / "cfg.json"
        path.write_text('{"swarm": {"c1": ' + "1" * 4301 + "}}")
        assert run_cli("pipeline", "--data", str(synth_csv), "--config", str(path)) == 2
        assert assert_single_error(capsys).startswith(f"error: {path}: not valid JSON (")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--pop", "1"),
            ("--iters", "0"),
            ("--w-start", "0.1"),
            ("--seed", "-1"),
            ("--c1", "nan"),
            ("--c2", "inf"),
            ("--radius", "nan"),
        ],
        ids="=".join,
    )
    def test_bad_flag_value_is_usage_error(self, synth_csv, capsys, flags):
        capsys.readouterr()
        assert run_cli("pipeline", "--data", str(synth_csv), "--label", "label",
                       *self.FAST, *flags) == 2
        assert_single_error(capsys)

    @pytest.mark.parametrize(
        "flag, setting",
        [("--pop", "population_size"), ("--iters", "max_iterations"), ("--runs", "n_runs")],
    )
    def test_size_past_numpys_index_range_is_usage_error(self, synth_csv, capsys, flag, setting):
        # ended in numpy's "Maximum allowed dimension exceeded" or in an
        # OverflowError from the list of seeds
        capsys.readouterr()
        assert run_cli("pipeline", "--data", str(synth_csv), "--label", "label",
                       *self.FAST, flag, str(10**30)) == 2
        assert assert_single_error(capsys).startswith(f"error: {setting} must be from ")

    def test_integral_float_size_past_numpys_index_range_is_usage_error(
        self, synth_csv, tmp_path, capsys
    ):
        body = {"data": str(synth_csv), "label": "label",
                "swarm": {"pop": 1e30, "iters": 1}, "pipeline": {"runs": 2}}
        capsys.readouterr()
        assert run_cli("pipeline", "--config", write_config(tmp_path / "cfg.json", body)) == 2
        assert assert_single_error(capsys).startswith("error: population_size must be from ")

    def test_negative_env_seed_is_usage_error(self, synth_csv, capsys, monkeypatch):
        monkeypatch.setenv("RELIOPT_SEED", "-1")
        capsys.readouterr()
        assert run_cli("pipeline", "--data", str(synth_csv), "--label", "label", *self.FAST) == 2
        assert_single_error(capsys)

    def test_non_integer_env_seed_is_usage_error(self, synth_csv, capsys, monkeypatch):
        monkeypatch.setenv("RELIOPT_SEED", "abc")
        capsys.readouterr()
        assert run_cli("pipeline", "--data", str(synth_csv), "--label", "label", *self.FAST) == 2
        assert assert_single_error(capsys) == "error: RELIOPT_SEED must be an integer, got 'abc'"

    def test_missing_config_file_exit_1_names_it(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert run_cli("pipeline", "--config", str(path)) == 1
        assert assert_single_error(capsys) == f"error: no such config file: {path}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pipeline", "--label", "label"], "--data is required (flag or config file)"),
            (["gen", "--rows", "5"], "--features and --rows are required"),
        ],
        ids=["pipeline without --data", "gen without --features"],
    )
    def test_required_flag_left_out_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "g.csv"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert assert_single_error(capsys) == f"error: {message}"
        assert not out.exists()

    def test_null_means_absent(self, synth_csv, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", {
            "data": str(synth_csv), "label": "label", "out": None,
            "swarm": {"pop": 10, "iters": None}, "pipeline": None,
        })
        assert run_cli("pipeline", "--config", config, "--iters", "2", "--runs", "3") == 0
        captured = capsys.readouterr()
        assert "Population size: 10" in captured.out
        assert captured.err == ""

    def test_config_and_flags_give_same_bytes(self, synth_csv, tmp_path, capsys):
        from_config, from_flags = tmp_path / "config.json", tmp_path / "flags.json"
        config = write_config(tmp_path / "cfg.json", {
            "data": str(synth_csv), "label": "label", "missing": "reject",
            "out": str(from_config),
            "swarm": {"pop": 9, "iters": 3, "c1": 1, "c2": 3, "w_start": 1, "w_end": 0.25},
            "pipeline": {"runs": 4, "seed": 6, "prescriptions": 3, "radius": 0.1},
        })
        assert run_cli("pipeline", "--config", config) == 0
        assert run_cli(
            "pipeline", "--data", str(synth_csv), "--label", "label", "--missing", "reject",
            "--out", str(from_flags), "--pop", "9", "--iters", "3", "--c1", "1", "--c2", "3",
            "--w-start", "1", "--w-end", "0.25", "--runs", "4", "--seed", "6",
            "--prescriptions", "3", "--radius", "0.1",
        ) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()
        assert capsys.readouterr().err == ""

    def test_equal_flag_over_config_prints_no_note(self, synth_csv, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", {
            "data": str(synth_csv), "label": "label", "swarm": {"c1": 2, "pop": 10}
        })
        assert run_cli("pipeline", "--config", config, "--c1", "2", "--pop", "10",
                       "--iters", "2", "--runs", "3") == 0
        assert capsys.readouterr().err == ""

    def test_config_beats_env_seed_and_flag_beats_config(self, synth_csv, tmp_path, monkeypatch):
        def report(*extra):
            out = tmp_path / "r.json"
            assert run_cli("pipeline", "--data", str(synth_csv), "--label", "label",
                           *self.FAST, "--out", str(out), *extra) == 0
            return out.read_bytes()

        seeded = report("--seed", "5")
        monkeypatch.setenv("RELIOPT_SEED", "5")
        assert report() == seeded
        config = write_config(tmp_path / "cfg.json", {"pipeline": {"seed": 8}})
        assert report("--config", config) == report("--seed", "8") != seeded
        assert report("--config", config, "--seed", "5") == seeded


# Valid values, kept small (pop <= 8, iters <= 3, runs <= 3) so every example is fast.
_VALID = {
    (None, "label"): st.just("label"),
    (None, "missing"): st.sampled_from(["mean", "reject"]),
    ("swarm", "pop"): st.integers(2, 8),
    ("swarm", "iters"): st.integers(1, 3),
    ("swarm", "c1"): st.floats(0, 4),
    ("swarm", "c2"): st.integers(0, 4),
    ("swarm", "w_start"): st.floats(0.5, 1),
    ("swarm", "w_end"): st.floats(0, 0.5),
    ("swarm", "velocity_clamp_fraction"): st.floats(0.1, 1),
    ("swarm", "scalar_rand"): st.booleans(),
    ("pipeline", "runs"): st.integers(1, 3),
    ("pipeline", "seed"): st.integers(0, 2**40),
    ("pipeline", "prescriptions"): st.integers(0, 1),
    ("pipeline", "radius"): st.floats(0, 1),
}
# Each draw is a fresh copy: a drawn {"a": 1} can become a section that later
# draws write into, and a shared one would carry those writes to other examples.
_WRONG = st.sampled_from(
    ["abc", "", True, False, None, [1], {"a": 1}, float("nan"), float("inf"), -1, 0, 1.5]
).map(copy.deepcopy)
_SIZES = {"pop", "iters", "runs"}  # a null here would bring back a large default


@st.composite
def config_bodies(draw):
    """A valid config body with up to three keys or sections made wrong."""
    body = {"swarm": {}, "pipeline": {}}
    for (section, key), valid in _VALID.items():
        if key in _SIZES or draw(st.booleans()):
            (body if section is None else body[section])[key] = draw(valid)
    for _ in range(draw(st.integers(0, 3))):
        section, key = draw(st.sampled_from([*_VALID, (None, "swarm"), (None, "unknown")]))
        wrong = draw(_WRONG)
        target = body if section is None else body[section]
        if isinstance(target, dict) and not (key in _SIZES and wrong is None):
            target[key] = wrong
    return body


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "tiny.csv"
    assert run_cli("gen", "--features", "3", "--rows", "40", "--seed", "2", "--out", str(path)) == 0
    return path


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=config_bodies())
def test_any_config_body_exits_cleanly(tiny_csv, tmp_path, capsys, body):
    config = write_config(tmp_path / "cfg.json", {"data": str(tiny_csv), "label": "label", **body})
    capsys.readouterr()
    code = run_cli("pipeline", "--config", config, "--json")
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(captured.out, parse_constant=refuse_constant)
    else:
        assert captured.out == "" and captured.err.startswith("error:")


_FAULTS = ["not utf-8", "duplicate name", "junk cell", "bad label", "--pop 1", "--iters 0", "--runs 0"]


@st.composite
def cli_cases(draw):
    """CSV bytes and the arguments of a ``fit`` or ``pipeline`` command, with
    BOM, NA cells and separable labels drawn at will, plus up to two faults
    (pop <= 8, iters <= 3, runs <= 3 keep every example fast)."""
    faults = draw(st.lists(st.sampled_from(_FAULTS), max_size=2))
    names = [f"r{j}" for j in range(draw(st.integers(1, 3)))]
    if "duplicate name" in faults:
        names.append(names[0])
    separable = draw(st.booleans())
    rows = []
    for i in range(draw(st.integers(2, 8))):
        cells = [
            draw(st.sampled_from(["NA", ""])) if draw(st.integers(0, 5)) == 0
            else repr(draw(st.floats(-1e6, 1e6)))
            for _ in names
        ]
        rows.append((cells, str(i % 2) if separable else draw(st.sampled_from("01"))))
    if "junk cell" in faults:
        rows[-1][0][0] = draw(st.sampled_from(["x", "inf", "1e400"]))
    if "bad label" in faults:
        rows[-1] = (rows[-1][0], draw(st.sampled_from(["", "2", "yes"])))
    at = draw(st.integers(0, len(names)))
    lines = [names[:at] + ["label"] + names[at:]]
    lines += [cells[:at] + [label] + cells[at:] for cells, label in rows]
    data = "".join(",".join(line) + "\n" for line in lines).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if "not utf-8" in faults:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xe9" + data[cut:]

    command = draw(st.sampled_from(["fit", "pipeline"]))
    args = [command, "--label", "label", "--json"]
    if draw(st.booleans()):
        args += ["--missing", draw(st.sampled_from(["mean", "reject"]))]
    if command == "pipeline":
        sizes = {
            "--pop": draw(st.integers(2, 8)),
            "--iters": draw(st.integers(1, 3)),
            "--runs": draw(st.integers(1, 3)),
        }
        sizes.update(fault.split() for fault in faults if fault.startswith("--"))
        for flag, value in sizes.items():
            args += [flag, str(value)]
        args += ["--seed", str(draw(st.integers(0, 99)))]
        args += ["--prescriptions", str(draw(st.integers(0, 1)))]
    return data, args


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_cases())
def test_any_csv_and_flags_exit_cleanly(tmp_path, capsys, case):
    data, args = case
    path = tmp_path / "any.csv"
    path.write_bytes(data)
    capsys.readouterr()
    code = run_cli(*args, "--data", str(path))
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(captured.out, parse_constant=refuse_constant)
        assert captured.err == ""
    else:
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


_JUNK = st.sampled_from(["abc", "", True, None, [], [1], {"a": 1}, 1.5, -1, 10**400, float("nan")])


def _spoil(draw, doc):
    """``doc`` with one node, at a drawn depth, replaced by junk, dropped, or
    given an extra junk sibling."""
    if not isinstance(doc, (dict, list)) or not doc or draw(st.integers(0, 3)) == 0:
        return draw(_JUNK)
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    key = draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
    action = draw(st.sampled_from(["descend", "drop", "add"]))
    if action == "drop":
        del doc[key]
    elif action == "add" and isinstance(doc, dict):
        doc["extra"] = draw(_JUNK)
    elif action == "add":
        doc.append(draw(_JUNK))
    else:
        doc[key] = _spoil(draw, doc[key])
    return doc


@st.composite
def model_and_bounds_files(draw):
    """Bytes of a two-feature model file and a bounds file, each valid until
    up to two faults are drawn: a spoiled JSON node (a string or a list in
    place of a number, a missing or extra ``fit`` key, ...), a cut, or a
    non-UTF-8 byte."""
    fit = {
        "converged": draw(st.booleans()),
        "iterations": draw(st.integers(0, 100)),
        "final_log_likelihood": draw(st.floats(-1e3, 0)),
        "max_abs_gradient": draw(st.floats(0, 1)),
        "ridge_used": draw(st.sampled_from([0.0, 1e-8, 0])),
    }
    finite = st.floats(allow_nan=False, allow_infinity=False)
    model = {
        "feature_names": ["a", "b"],
        "beta": draw(st.lists(finite, min_size=3, max_size=3)),
        "fit": fit if draw(st.booleans()) else None,
    }
    bounds = {"lower": [0.0, -1.0], "upper": [1.0, 2.0]}
    files = []
    for doc in (model, bounds):
        for _ in range(draw(st.integers(0, 2))):
            doc = _spoil(draw, doc)
        data = json.dumps(doc).encode("utf-8")
        fault = draw(st.sampled_from([None, None, "cut", "not utf-8"]))
        at = draw(st.integers(0, len(data)))
        if fault == "cut":
            data = data[:at]
        elif fault == "not utf-8":
            data = data[:at] + b"\xe9" + data[at:]
        files.append(data)
    return files


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=model_and_bounds_files())
# a score overflowing to inf - inf in the box: the swarm ran under numpy's warnings
@example(files=[b'{"feature_names": ["a", "b"], "beta": [0, 1e308, -1e308]}',
                b'{"lower": [1, 1], "upper": [3, 3]}'])
def test_any_model_and_bounds_file_exit_cleanly(tmp_path, capsys, files):
    model_path, bounds_path = tmp_path / "model.json", tmp_path / "bounds.json"
    model_path.write_bytes(files[0])
    bounds_path.write_bytes(files[1])
    capsys.readouterr()
    code = run_cli(
        "optimize", "--model", str(model_path), "--bounds", str(bounds_path), "--json",
        "--pop", "4", "--iters", "2", "--runs", "2", "--prescriptions", "1",
    )
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(captured.out, parse_constant=refuse_constant)
        assert captured.err == ""
    else:
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestHelp:
    @pytest.mark.parametrize("cmd", [[], ["fit"], ["optimize"], ["pipeline"], ["gen"]])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*cmd, "--help")
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()


class TestImports:
    def test_both_stages_run_without_scipy(self):
        # scipy used to cost every command about 0.45 s of import; numpy suffices
        code = """
import sys
import numpy as np
import reliopt.cli
from reliopt import Dataset, PipelineConfig, SwarmConfig, compute_bounds, fit
from reliopt import optimize_reliability
rng = np.random.default_rng(0)
ds = Dataset(rng.normal(size=(20, 2)), [0, 1] * 10, ("a", "b"))
model, _ = fit(ds)
swarm = SwarmConfig(population_size=4, max_iterations=2)
optimize_reliability(model, compute_bounds(ds), PipelineConfig(swarm=swarm, n_runs=2))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
        src = str(Path(reliopt.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
