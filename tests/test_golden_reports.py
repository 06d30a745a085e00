"""The byte contract: fixed seeds and inputs give the same report bytes.

Each benchmark workload's input is written with the benchmark's own
generator (``perfbench/run.py``), run through the benchmark's one operation
(``perfbench/ops.py``), and its report's sha256 compared with a pinned one.
Every workload is pinned at input seed 1, the one every recorded benchmark
run has read since the stacked swarm; ``paper`` is also pinned at input
seeds 0 and 2, whose swarms leave more runs short of the corner's value
(9 and 5 of 25, against 1 at seed 1). The CSV that ``reliopt gen`` writes
for the README's example is pinned as well. A change that moves one report
byte, such as scoring with a BLAS product, fails here. The hashes were taken
with numpy 2.4.6 on Python 3.11.7.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

import reliopt
from reliopt import pipeline
from reliopt.cli import main
from reliopt.logistic import reliability_rows

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

REPORT_SHA256 = {
    "paper": "3ed5a7e25b376bd2414a0ed598d7862bd485600a712184e09bd110c0ab21e24f",
    "scale": "06c4d232e1c24e4ec98e95112f9581ed54810daad5c7b4cc5b06abb2cdc4f995",
    "prescribe": "905f6cad0346d1388053509fab2066dfba8765ff0e287212935a56b18363bb4f",
}

# seed 0: 9 runs never reach the corner's value, and each of the 201 objective
# calls scores one sweep; seed 2: 5 runs never do, and most of its 78 calls
# score several sweeps of the runs left
PAPER_SHA256_BY_SEED = {
    0: "00182a8e8c2441e0d5eaaaf1f5109d8f772e540879ed20c1e548a7bbfba1dcf3",
    2: "8949de2964167263aac995069af27e3e23162b1a52c0ddb8eb65ec24669110db",
}

# reliopt gen --features 9 --rows 200 --seed 1, as in the README
GEN_SHA256 = "72287845b0bd092a7e20a3c89be054c6291e3204c50866b97ec19b8373ab611d"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def perfbench():
    """The harness's ``ops`` and ``run`` modules, loaded from their files.

    ``run.py`` imports its siblings as the top-level modules ``ops`` and
    ``spans``; they are registered under those names only while it loads.
    """
    loaded = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)  # no cache files under perfbench/
        for name in ("ops", "spans", "run"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
            loaded[name] = module
    return loaded["ops"], loaded["run"]


@pytest.fixture(scope="module")
def inputs(perfbench, tmp_path_factory):
    """Each workload's seed-1 CSV, and the model ``reliopt fit`` saves from it."""
    ops, run = perfbench
    directory = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, workload in ops.WORKLOADS.items():
        data, model = directory / f"{name}.csv", directory / f"{name}.model.json"
        run.write_inputs(workload, 1, data)
        if workload.command == "optimize":
            assert main(["fit", "--data", str(data), "--label", ops.LABEL, "--out", str(model)]) == 0
        paths[name] = (data, model)
    return paths


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_workload_report_bytes_are_pinned(perfbench, inputs, name):
    ops, _ = perfbench
    data, model = inputs[name]
    text = ops.operation(reliopt, ops.WORKLOADS[name], data, model)
    assert sha256(text.encode()) == REPORT_SHA256[name]


@pytest.mark.parametrize("seed", sorted(PAPER_SHA256_BY_SEED))
def test_paper_report_bytes_are_pinned_at_other_input_seeds(perfbench, tmp_path, seed):
    ops, run = perfbench
    workload, data = ops.WORKLOADS["paper"], tmp_path / "paper.csv"
    run.write_inputs(workload, seed, data)
    text = ops.operation(reliopt, workload, data, tmp_path / "unused.model.json")
    assert sha256(text.encode()) == PAPER_SHA256_BY_SEED[seed]


def test_gen_writes_the_pinned_csv(tmp_path):
    out = tmp_path / "banks.csv"
    assert main(["gen", "--features", "9", "--rows", "200", "--seed", "1", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == GEN_SHA256


def test_cli_writes_the_pinned_paper_report(perfbench, inputs, tmp_path):
    ops, _ = perfbench
    data, model = inputs["paper"]
    out = tmp_path / "report.json"
    assert main(ops.cli_args(ops.WORKLOADS["paper"], data, model, out)) == 0
    assert sha256(out.read_bytes()) == REPORT_SHA256["paper"]


def test_paper_swarm_scores_its_stalled_sweeps_a_batch_per_call(inputs, monkeypatch):
    # the 25 runs make 201 objective calls one sweep at a time; most retire
    # at the corner's value within a few sweeps, and the stalled sweeps of
    # the one left come many to a call
    data, _ = inputs["paper"]
    calls = []

    def counting(model, rows):
        calls.append(len(rows))
        return reliability_rows(model, rows)

    monkeypatch.setattr(pipeline, "reliability_rows", counting)
    dataset = reliopt.load_dataset(data, "label")
    model, fit_report = reliopt.fit(dataset)
    config = reliopt.PipelineConfig(swarm=reliopt.SwarmConfig(30, 200), n_runs=25, base_seed=7)
    pipeline.optimize_reliability(model, reliopt.compute_bounds(dataset), config)
    assert len(calls) <= 30
    assert sum(calls) == 9_480
