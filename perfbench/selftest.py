#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Checks that clean runs fail nothing and report exactly the metrics
BENCHMARK.json names, that a corrupted report byte and a CLI exiting
non-zero are counted as failed, and that the benchmark refuses to run in a
directory without the program. Exits non-zero on the first broken check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import ops
import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = ops.Workload("tiny", 40, 3, 0.05, "pipeline", 5, 4, 3)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def declared() -> dict:
    spec = json.loads((run.ROOT_DIR / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def clean_runs(names: dict) -> None:
    for workload, trace in ((TINY, False), (TINY, True), (replace(TINY, command="optimize"), False)):
        record = run.measure(workload, 3, 0.0, trace)
        what = f"tiny {workload.command}, trace {int(trace)}"
        check(record["failed"] == 0 and record["attempted"] > 0, f"{what}: nothing fails")
        metrics = {name: m["unit"] for name, m in record["metrics"].items()}
        check(all(NAME.fullmatch(name) for name in metrics), f"{what}: metric names match {NAME.pattern}")
        check(metrics == names[trace], f"{what}: metrics and units equal BENCHMARK.json's")
        values = [m["value"] for m in record["metrics"].values()]
        check(all(isinstance(v, (int, float)) for v in values), f"{what}: every value is a number")


def corrupted_byte() -> None:
    original = ops.operation
    calls = 0

    def corrupt(*args):
        nonlocal calls
        calls += 1
        text = original(*args)
        if calls == 2:
            text = text[:20] + ("0" if text[20] != "0" else "1") + text[21:]
        return text

    ops.operation = corrupt
    try:
        # traced, so that every operation runs in this process
        record = run.measure(TINY, 3, 0.0, True)
    finally:
        ops.operation = original
    check(record["failed"] == 1, "one corrupted report byte is one failed operation")


def nonzero_exit() -> None:
    original = ops.cli_args
    ops.cli_args = lambda workload, data, model, out: ["pipeline", "--data", str(data) + ".absent",
                                                       "--label", ops.LABEL, "--out", str(out)]
    try:
        record = run.measure(TINY, 3, 0.0, False)
    finally:
        ops.cli_args = original
    check(
        record["failed"] == record["rounds"] and record["attempted"] > record["failed"],
        "every CLI operation exiting non-zero is counted as failed",
    )


def bare_directory() -> None:
    work = run.ROOT_DIR / ".perfbench"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(run.ROOT_DIR / "BENCHMARK.json", bare)
        shutil.copytree(
            Path(__file__).parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "without the program the benchmark exits non-zero and prints no result")


def main() -> int:
    clean_runs(declared())
    corrupted_byte()
    nonzero_exit()
    bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
