"""The byte contract: fixed seeds and inputs give the same report bytes.

Each benchmark workload's input is written at seed 1 with the benchmark's
own generator (``perfbench/run.py``), run through the benchmark's one
operation (``perfbench/ops.py``), and its report's sha256 compared with the
one every recorded benchmark run has read since the stacked swarm. A change
that moves one report byte, such as scoring with a BLAS product, fails here.
The hashes were taken with numpy 2.4.6 on Python 3.11.7.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

import reliopt
from reliopt.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

REPORT_SHA256 = {
    "paper": "3ed5a7e25b376bd2414a0ed598d7862bd485600a712184e09bd110c0ab21e24f",
    "scale": "06c4d232e1c24e4ec98e95112f9581ed54810daad5c7b4cc5b06abb2cdc4f995",
    "prescribe": "905f6cad0346d1388053509fab2066dfba8765ff0e287212935a56b18363bb4f",
}


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


def test_cli_writes_the_pinned_paper_report(perfbench, inputs, tmp_path):
    ops, _ = perfbench
    data, model = inputs["paper"]
    out = tmp_path / "report.json"
    assert main(ops.cli_args(ops.WORKLOADS["paper"], data, model, out)) == 0
    assert sha256(out.read_bytes()) == REPORT_SHA256["paper"]
