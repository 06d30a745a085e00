"""The workloads and the one operation the benchmark times.

Shared by the harness (``run.py``) and its fresh-process probes
(``probe.py``). It imports only the standard library, so that a probe can
time ``import reliopt`` by itself.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

LABEL = "label"
# Warm operations are timed back to back in batches of at least this many
# seconds, and a batch's mean is one sample: a 20 ms operation is then not
# timed right after a child process displaced it from the caches, and one
# sample spans the machine's brief fast and slow spells.
OP_BATCH_S = 0.25


@dataclass(frozen=True)
class Workload:
    """Input shape and settings of one workload.

    One operation is the ``command`` sub-command of the reliopt CLI, or its
    in-process equivalent, on a CSV of ``rows`` banks by ``cols`` ratios.
    ``missing_frac`` of the feature cells are missing, half written empty
    and half as ``NA``. With ``cli_defaults`` the CLI gets no swarm flags
    and ``pop``, ``iters`` and ``runs`` must equal the CLI's defaults.
    """

    name: str
    rows: int
    cols: int
    missing_frac: float
    command: str
    pop: int
    iters: int
    runs: int
    cli_defaults: bool = False
    seed: int = 7

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> Workload:
        return cls(**json.loads(text))


WORKLOADS = {
    # The paper's scale with the CLI defaults: the swarm ensemble is almost
    # all of the time, ingest and fit are under 1 % each.
    "paper": Workload("paper", 200, 9, 0.0, "pipeline", 30, 200, 25, cli_defaults=True),
    # Ingest-bound: CSV parsing is most of the time, the Newton fit is
    # visible, the tiny swarm budget is not. Parsing costs the same per cell
    # at 10k, 20k or 100k rows, so 10k keeps the layer shares while a run
    # fits twice the samples of 20k; this allocation-heavy operation is the
    # noisiest on a shared machine and needs them.
    "scale": Workload("scale", 10_000, 50, 0.01, "pipeline", 20, 3, 25),
    # The README's stage-2 command against a saved model: interpreter start,
    # import, model load and per-run fixed cost dominate.
    "prescribe": Workload("prescribe", 200, 9, 0.0, "optimize", 20, 3, 25),
}


def cli_args(workload: Workload, data, model, out) -> list[str]:
    """Arguments after ``python -m reliopt`` for one operation."""
    args = [workload.command]
    if workload.command == "optimize":
        args += ["--model", str(model)]
    args += ["--data", str(data), "--label", LABEL]
    if not workload.cli_defaults:
        args += ["--pop", str(workload.pop), "--iters", str(workload.iters)]
        args += ["--runs", str(workload.runs)]
    return args + ["--seed", str(workload.seed), "--out", str(out)]


def operation(reliopt, workload: Workload, data, model) -> str:
    """One in-process operation: read the input files, return the report JSON.

    Every call goes through an attribute of the ``reliopt`` package, so the
    traced run can wrap it from outside.
    """
    config = reliopt.PipelineConfig(
        swarm=reliopt.SwarmConfig(
            population_size=workload.pop, max_iterations=workload.iters, seed=0
        ),
        n_runs=workload.runs,
        base_seed=workload.seed,
    )
    if workload.command == "pipeline":
        report = reliopt.run_pipeline(reliopt.load_dataset(data, LABEL), config)
    else:
        fitted, fit_report = reliopt.load_model(model)
        bounds = reliopt.compute_bounds(reliopt.load_dataset(data, LABEL))
        report = reliopt.optimize_reliability(fitted, bounds, config, fit_report=fit_report)
    return reliopt.report_to_json(report)
