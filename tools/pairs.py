#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/pairs.py --out BENCH_N.json [--parent REV] [--workload W ...]
        [--seed S] [--seconds N] [--claim METRIC:WORKLOAD]

The parent commit (default ``HEAD``) is exported with ``git archive`` into
``.bench_build/parent``, and the change, the working tree's files that git
tracks or does not ignore, is copied into ``.bench_build/change``, so both
sides run from a fresh directory at the same depth. For each workload,
ten pairs run; pair i runs ``perfbench/run.py --workload W --seed S --seconds N`` in the
parent then the change when i is odd, the change then the parent when it is
even (ABBA), and reads each run's record from its tree's
``.perfbench/runs/<W>-seed<S>-trace0.json``. The output file holds the
machine, both trees' ``src`` sha256, and per workload and end-to-end metric
each side's median and inclusive quartiles, the pairs in which the change is
lower and higher (a tie counts for neither), every value and every report
sha256.

``--claim METRIC:WORKLOAD`` prints whether the change shows a gain there: it
is lower in at least 9 of the 10 pairs, and its median is lower than the
parent's by more than the parent's interquartile range. Every end-to-end
metric in ``BENCHMARK.json`` is better lower.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
PAIRING = (
    "pair i runs the parent then the change when i is odd, the change then the parent when "
    "even (ABBA); the parent tree is a git archive of its commit, the change tree a copy of "
    "the working tree's files that git tracks or does not ignore; quartiles are inclusive "
    "(linear interpolation); 'parent' and 'change' list each pair's value in pair order"
)


def export(rev: str, tree: Path) -> str:
    """Extract ``rev``'s committed files into ``tree`` and return its full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit


def copy_worktree(tree: Path) -> None:
    """Copy the working tree's files that git tracks or does not ignore into ``tree``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    shutil.rmtree(tree, ignore_errors=True)
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is left out
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, tree / name)


def order(pair: int) -> tuple[str, str]:
    """The sides in the order pair ``pair`` (from 1) runs them."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; its record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    subprocess.run(argv, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    record = tree / ".perfbench" / "runs" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(record.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def compare(parent: list[float], change: list[float]) -> dict:
    """One metric's paired values, summarized."""
    return {
        "parent_median": statistics.median(parent),
        "parent_quartiles": quartiles(parent),
        "change_median": statistics.median(change),
        "change_quartiles": quartiles(change),
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        "change_higher_in_pairs": sum(c > p for p, c in zip(parent, change)),
        "pairs": len(parent),
        "parent": parent,
        "change": change,
    }


def gain_shown(row: dict) -> bool:
    """Whether, in ``compare``'s summary ``row`` of at least ten pairs, the
    change is lower in at least 9 of every 10 and its median is lower than
    the parent's by more than the parent's interquartile range."""
    q1, q3 = row["parent_quartiles"]
    return (row["pairs"] >= PAIRS and 10 * row["change_lower_in_pairs"] >= 9 * row["pairs"]
            and row["parent_median"] - row["change_median"] > q3 - q1)


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    assert all(m["better"] == "lower" for m in benchmark["end_to_end"])
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description="paired benchmark runs, parent against change")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--parent", default="HEAD", help="the parent commit (default HEAD)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run, repeatable (default: every one)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="seconds per run (default the benchmark's)")
    parser.add_argument("--claim", help="METRIC:WORKLOAD whose gain to judge")
    args = parser.parse_args(argv)
    if args.claim is not None:
        metric, _, claimed = args.claim.partition(":")
        if metric not in metrics or claimed not in (args.workload or names):
            parser.error(f"--claim {args.claim}: no such metric:workload among these runs")

    trees = {side: ROOT / ".bench_build" / side for side in ("parent", "change")}
    parent_commit = export(args.parent, trees["parent"])
    copy_worktree(trees["change"])
    for tree in trees.values():  # no run pays for compiling its tree
        compileall.compile_dir(tree / "src", quiet=1)
    runs, summary, src = [], {}, {}
    for workload in args.workload or names:
        values = {side: {metric: [] for metric in metrics} for side in trees}
        for pair in range(1, PAIRS + 1):
            for side in order(pair):
                record = run_once(trees[side], workload, args.seed, args.seconds)
                src.setdefault(side, record["tree"]["src_sha256"])
                machine = record["machine"]
                for metric in metrics:
                    values[side][metric].append(record["metrics"][metric]["value"])
                runs.append({
                    "side": side, "workload": workload, "seed": args.seed, "pair": pair,
                    "report_sha256": record["report_sha256"],
                    "result": {
                        "correct": record["failed"] == 0 and record["attempted"] > 0,
                        "attempted": record["attempted"],
                        "failed": record["failed"],
                        "metrics": record["metrics"],
                    },
                })
        summary[f"{workload}_seed{args.seed}"] = {
            metric: compare(values["parent"][metric], values["change"][metric])
            for metric in metrics
        }

    verdict = None
    if args.claim is not None:
        row = summary[f"{claimed}_seed{args.seed}"][metric]
        shown = gain_shown(row)
        verdict = {"metric": metric, "workload": claimed, "gain_shown": shown}
        q1, q3 = row["parent_quartiles"]
        print(f"claim {args.claim}: change lower in {row['change_lower_in_pairs']} and higher in "
              f"{row['change_higher_in_pairs']} of {row['pairs']} pairs, median "
              f"{row['parent_median']:.6g} -> {row['change_median']:.6g}, parent IQR "
              f"{q3 - q1:.6g}: gain {'shown' if shown else 'not shown'}")
    args.out.write_text(json.dumps({
        "what": f"{PAIRS} ABBA pairs per workload at input seed {args.seed}, "
                f"{args.seconds:g} s per run, parent {parent_commit} against a copy of the "
                "working tree",
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g}",
        "pairing": PAIRING,
        "parent_commit": parent_commit,
        "change_commit": None,
        "parent_src_sha256": src["parent"],
        "change_src_sha256": src["change"],
        "machine": machine,
        "claim": verdict,
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
