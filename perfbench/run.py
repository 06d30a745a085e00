#!/usr/bin/env python3
"""reliopt benchmark.

    python3 perfbench/run.py --workload {paper,scale,prescribe} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout of the repository; it measures the
checkout's own ``src`` tree. It writes seeded inputs with its own generator,
times the workload's operation in-process and as a fresh
``python -m reliopt`` process, checks every result, prints one line per
metric, and ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a run with spans. Each run also
writes a record with the machine, the inputs' and the report's sha256 and
every sample to ``.perfbench/runs/``. README.md in this directory lists
what each metric means and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import ops
from spans import CHILD, END, NAME, PARENT, ROOT, START, Tracer

ROOT_DIR = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"
IMPORT_PRINT = "import json, reliopt; print(json.dumps({'reliopt_file': reliopt.__file__}))"
CHILD_TIMEOUT_S = 120.0
IMPORT_PROBES = 3
MIN_ROUNDS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "op_s": "s",
    "cli_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "data.load_s": "s",
    "data.load_cells_per_s": "1/s",
    "data.mean_impute_s": "s",
    "data.compute_bounds_s": "s",
    "data.save_s": "s",
    "data.load_peak_alloc_mb": "MiB",
    "data.self_s": "s",
    "logistic.fit_s": "s",
    "logistic.fit_iterations": "count",
    "logistic.fit_s_per_iter": "s",
    "logistic.fit_cold_s": "s",
    "logistic.fit_1t_s": "s",
    "logistic.reliability_calls": "count",
    "logistic.reliability_us": "us",
    "logistic.self_s": "s",
    "oracle.corner_optimum_s": "s",
    "oracle.self_s": "s",
    "pso.maximize_s": "s",
    "pso.maximize_self_s": "s",
    "pso.evals": "count",
    "pso.evals_per_s": "1/s",
    "pso.improving_sweeps_frac": "ratio",
    "pso.self_s": "s",
    "pipeline.optimize_s": "s",
    "pipeline.select_s": "s",
    "pipeline.report_json_s": "s",
    "pipeline.report_bytes": "B",
    "pipeline.prescription_yield": "ratio",
    "pipeline.self_s": "s",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

MODULES = ("data", "logistic", "oracle", "pso", "pipeline")

# (span name, module, attribute, leaf): each wrapper sits on the attribute
# its caller looks up, the package for calls made by the operation itself.
TRACE_TARGETS = (
    ("data.load", "reliopt", "load_dataset", False),
    ("data.mean_impute", "reliopt.data", "mean_impute", False),
    ("data.compute_bounds", "reliopt", "compute_bounds", False),
    ("data.compute_bounds", "reliopt.pipeline", "compute_bounds", False),
    ("logistic.load_model", "reliopt", "load_model", False),
    ("logistic.fit", "reliopt.pipeline", "fit", False),
    ("logistic.reliability", "reliopt.pipeline", "reliability", True),
    ("logistic.reliability", "reliopt.oracle", "reliability", True),
    ("oracle.corner_optimum", "reliopt.pipeline", "corner_optimum", False),
    ("pso.maximize", "reliopt.pipeline", "maximize", False),
    ("pipeline.run", "reliopt", "run_pipeline", False),
    ("pipeline.optimize", "reliopt", "optimize_reliability", False),
    ("pipeline.optimize", "reliopt.pipeline", "optimize_reliability", False),
    ("pipeline.select", "reliopt.pipeline", "select_prescriptions", False),
    ("pipeline.report_json", "reliopt", "report_to_json", False),
)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- inputs


def write_inputs(workload: ops.Workload, seed: int, path: Path) -> None:
    """Write the workload's labeled CSV, a pure function of ``seed``.

    Ratios sit on unlike scales, as financial ratios do; labels are drawn
    from a logistic model with a weak signal, so no fit meets separated
    data. Scores are summed column by column, so the bytes do not depend on
    the BLAS. The ``paper`` and ``prescribe`` workloads read the same bytes
    for one seed.
    """
    rng = np.random.default_rng(seed)
    m, n = workload.rows, workload.cols
    center = rng.uniform(-1.0, 1.0, n)
    scale = 10.0 ** rng.uniform(-1.0, 1.0, n)
    weight = rng.uniform(-1.5, 1.5, n) / np.sqrt(n)
    z = rng.standard_normal((m, n))
    score = np.full(m, rng.uniform(0.5, 1.5))
    for j in range(n):
        score = score + z[:, j] * weight[j]
    labels = rng.random(m) < 1.0 / (1.0 + np.exp(-score))
    features = center + scale * z
    missing = rng.random((m, n)) < workload.missing_frac
    as_na = rng.random((m, n)) < 0.5

    lines = [",".join([f"r{j + 1}" for j in range(n)] + [ops.LABEL])]
    for i in range(m):
        cells = [f"{v:.6g}" for v in features[i].tolist()]
        for j in np.flatnonzero(missing[i]).tolist():
            cells[j] = "NA" if as_na[i, j] else ""
        cells.append("1" if labels[i] else "0")
        lines.append(",".join(cells))
    path.write_bytes(("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------- records


def machine_record() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def tree_record(root: Path) -> dict:
    """The git commit, if the checkout is a repository, and a digest of src."""
    commit = None
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                commit = ref_file.read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
        else:
            commit = head
    except OSError:
        pass
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------- children


@dataclass(frozen=True)
class Child:
    seconds: float
    returncode: int
    stdout: str
    stderr: bytes
    peak_rss_mb: float


def run_child(argv: list[str], env: dict, logs: Path) -> Child:
    """Run one fresh process to its end; wall time and peak RSS are its own.

    Peak RSS comes from ``os.wait4``'s rusage of this child alone.
    """
    out_path, err_path = logs / "child.out", logs / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT_DIR
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        seconds,
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_bytes(),
        usage.ru_maxrss / 1024.0,
    )


def child_env(src: Path) -> dict:
    """The user's environment with ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------- checks


def report_problems(reliopt, data: bytes) -> list[str]:
    """Dominance, feasibility and exact re-derivation of one report."""
    try:
        report = json.loads(data)
        model = reliopt.LogisticModel(
            beta=np.asarray(report["model"]["beta"], dtype=float),
            feature_names=tuple(report["model"]["feature_names"]),
        )
        lower = np.asarray(report["bounds"]["lower"], dtype=float)
        upper = np.asarray(report["bounds"]["upper"], dtype=float)
        corner = report["corner"]
        ensemble = report["ensemble"]
        prescriptions = report["prescriptions"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report ({type(exc).__name__}: {exc})"]
    problems = []
    top = max(run["best_value"] for run in ensemble)
    if not corner["value"] >= top:
        problems.append(f"corner {corner['value']!r} below ensemble best {top!r}")
    for i, p in enumerate(prescriptions):
        if not top >= p["reliability"]:
            problems.append(f"prescription {i} {p['reliability']!r} above ensemble best {top!r}")
    points = [("corner", corner["position"])]
    points += [(f"run {run['seed']}", run["best_position"]) for run in ensemble]
    points += [(f"prescription {i}", p["position"]) for i, p in enumerate(prescriptions)]
    for what, position in points:
        x = np.asarray(position, dtype=float)
        if not ((lower <= x).all() and (x <= upper).all()):
            problems.append(f"{what} lies outside the bounds")
    derived = [("corner", corner["position"], corner["value"])]
    derived += [
        (f"prescription {i}", p["position"], p["reliability"]) for i, p in enumerate(prescriptions)
    ]
    for what, position, value in derived:
        again = reliopt.reliability(model, np.asarray(position, dtype=float))
        if again != value:
            problems.append(f"{what} reliability {value!r} re-derives as {again!r}")
    return problems


class Checks:
    """Counts attempted and failed operations against the reference report.

    The reference is the report of the run's first operation; every later
    report must match it byte for byte, so the checks of its content, which
    depend only on the bytes, run once.
    """

    def __init__(self, reliopt, src: Path) -> None:
        self.reliopt = reliopt
        self.src = src.resolve()
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: bytes | None = None
        self._verdict: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def _count(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))
        return not problems

    def _report(self, data: bytes) -> list[str]:
        if self.reference is None:
            self.reference = data
            self._verdict = report_problems(self.reliopt, data)
        if data != self.reference:
            return ["report bytes differ from the run's first report"]
        return self._verdict

    def _under_src(self, path: str) -> list[str]:
        if Path(path).resolve().is_relative_to(self.src):
            return []
        return [f"imported reliopt from {path}, not from {self.src}"]

    def operation(self, what: str, text: str | None, error: BaseException | None) -> bool:
        if error is not None:
            return self._count(what, [f"raised {type(error).__name__}: {error}"])
        return self._count(what, self._report(text.encode()))

    def cli(self, what: str, child: Child, report: Path | None = None) -> bool:
        """A CLI process exits 0, keeps stderr empty and writes ``report``
        equal to the reference, when given."""
        problems = _exit_problems(child)
        if not problems and report is not None:
            if report.exists():
                problems = self._report(report.read_bytes())
            else:
                problems = ["no report file written"]
        return self._count(what, problems)

    def probe(self, what: str, child: Child) -> dict | None:
        """A probe process exits cleanly and prints one JSON object, having
        imported the checkout's reliopt; returns that object."""
        problems = _exit_problems(child)
        payload = None
        if not problems:
            try:
                payload = json.loads(child.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                problems = [f"unreadable probe output {child.stdout[-200:]!r}"]
            else:
                problems = self._under_src(payload["reliopt_file"])
                expected = sha256_bytes(self.reference) if self.reference is not None else None
                if any(digest != expected for digest in payload.get("report_sha256", [])):
                    problems.append("report bytes differ from the run's first report")
        return payload if self._count(what, problems) else None


def _exit_problems(child: Child) -> list[str]:
    problems = []
    if child.returncode != 0:
        problems.append(f"exit code {child.returncode}")
    if child.stderr:
        problems.append(f"stderr: {child.stderr[:200]!r}")
    return problems


# ---------------------------------------------------------------- measuring


def per_layer_from_spans(tracer: Tracer, evals: int) -> tuple[dict, list[str]]:
    """Per-operation medians of span totals, self times and leaf counts,
    and the span names no operation entered. ``evals`` is the number of
    objective evaluations in one operation."""
    roots = [record for record in tracer.spans if record[PARENT] is None]
    totals = {record[ROOT]: defaultdict(float) for record in roots}
    durations, selfs = defaultdict(list), defaultdict(list)
    module_self = {record[ROOT]: defaultdict(float) for record in roots}
    for record in tracer.spans:
        duration = record[END] - record[START]
        totals[record[ROOT]][record[NAME]] += duration
        durations[record[NAME]].append(duration)
        selfs[record[NAME]].append(duration - record[CHILD])
        if record[PARENT] is not None:
            module_self[record[ROOT]][record[NAME].split(".")[0]] += duration - record[CHILD]
    leaf_calls = {record[ROOT]: 0 for record in roots}
    leaf_seconds = {record[ROOT]: 0.0 for record in roots}
    for (name, parent), (calls, seconds) in tracer.leaves.items():
        root = tracer.spans[parent][ROOT]
        leaf_calls[root] += calls
        leaf_seconds[root] += seconds
        module_self[root][name.split(".")[0]] += seconds

    unseen = []

    def per_op(name: str) -> float:
        if name not in durations:
            unseen.append(name)
        return median([totals[r][name] for r in totals])

    op_time = sum(record[END] - record[START] for record in roots)
    covered = sum(sum(module_self[r].values()) for r in module_self)
    calls = sum(leaf_calls.values())
    maximize_s = per_op("pso.maximize")
    values = {
        "data.load_s": per_op("data.load"),
        "data.mean_impute_s": per_op("data.mean_impute"),
        "data.compute_bounds_s": per_op("data.compute_bounds"),
        "logistic.fit_s": per_op("logistic.fit"),
        "logistic.reliability_calls": median(list(leaf_calls.values())),
        "logistic.reliability_us": 1e6 * sum(leaf_seconds.values()) / calls if calls else 0.0,
        "oracle.corner_optimum_s": per_op("oracle.corner_optimum"),
        "pso.maximize_s": median(durations.get("pso.maximize", [])),
        "pso.maximize_self_s": median(selfs.get("pso.maximize", [])),
        "pso.evals_per_s": evals / maximize_s if maximize_s else 0.0,
        "pipeline.optimize_s": per_op("pipeline.optimize"),
        "pipeline.select_s": per_op("pipeline.select"),
        "pipeline.report_json_s": per_op("pipeline.report_json"),
        "trace.coverage_frac": covered / op_time if op_time else 0.0,
    }
    for module in MODULES:
        values[f"{module}.self_s"] = median([module_self[r][module] for r in module_self])
    if not calls:
        unseen.append("logistic.reliability")
    return values, unseen


def report_counts(text: str) -> dict:
    report = json.loads(text)
    ensemble = report["ensemble"]
    sweeps = sum(run["iterations_run"] for run in ensemble)
    improving = sum(
        sum(later > earlier for earlier, later in zip(run["history"], run["history"][1:]))
        for run in ensemble
    )
    pop = report["config"]["population_size"]
    requested = report["config"]["n_prescriptions"]
    return {
        "logistic.fit_iterations": report["model"]["fit"]["iterations"],
        "pso.evals": sum(pop * (run["iterations_run"] + 1) for run in ensemble),
        "pso.improving_sweeps_frac": improving / sweeps if sweeps else 0.0,
        "pipeline.report_bytes": len(text.encode()),
        "pipeline.prescription_yield": (
            len(report["prescriptions"]) / requested if requested else 1.0
        ),
    }


class Run:
    """One run of one workload: its inputs, checks, samples and spans."""

    def __init__(self, reliopt, workload: ops.Workload, scratch: Path) -> None:
        self.reliopt = reliopt
        self.workload = workload
        self.scratch = scratch
        self.env = child_env(ROOT_DIR / "src")
        self.checks = Checks(reliopt, ROOT_DIR / "src")
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tracer = Tracer()
        self.data = scratch / "data.csv"
        self.model = scratch / "model.json"
        self.out = scratch / "report.json"
        self.inputs: dict[str, str | None] = {}
        self.reliopt_file: str | None = None

    def child(self, argv: list[str], **env: str) -> Child:
        return run_child(argv, dict(self.env, **env), self.scratch)

    def probe_argv(self, mode: str) -> list[str]:
        spec = self.workload.to_json()
        return [sys.executable, str(PROBE), mode, spec, str(self.data), str(self.model)]

    def set_up(self, seed: int) -> None:
        """Inputs, the tree check and the reference report (first operation)."""
        write_inputs(self.workload, seed, self.data)
        self.inputs["data.csv"] = sha256_bytes(self.data.read_bytes())
        # fills the byte-code caches, as any earlier use would have, and
        # proves that fresh processes import the checkout's own tree
        imported = self.checks.probe("import", self.child([sys.executable, "-c", IMPORT_PRINT]))
        self.reliopt_file = imported["reliopt_file"] if imported else None
        if self.workload.command == "optimize":
            argv = [sys.executable, "-m", "reliopt", "fit", "--data", str(self.data)]
            argv += ["--label", ops.LABEL, "--out", str(self.model)]
            self.checks.cli("fit set-up", self.child(argv))
            if self.model.exists():
                self.inputs["model.json"] = sha256_bytes(self.model.read_bytes())
        self.in_process("reference op")

    def in_process(self, what: str) -> float | None:
        """One in-process operation; returns its time unless it failed."""
        try:
            start = perf_counter()
            text = ops.operation(self.reliopt, self.workload, self.data, self.model)
            elapsed = perf_counter() - start
        except Exception as exc:  # an operation that raises is a counted failure
            self.checks.operation(what, None, exc)
            return None
        return elapsed if self.checks.operation(what, text, None) else None

    def traced(self) -> float | None:
        self.tracer.install(TRACE_TARGETS)
        try:
            with self.tracer.span("op"):
                return self.in_process("traced op")
        finally:
            self.tracer.uninstall()

    def batch(self, traced: bool) -> None:
        """Back-to-back operations in this process, at least one, until they
        have taken ``OP_BATCH_S``; their mean is one sample."""
        times: list[float] = []
        while sum(times) < ops.OP_BATCH_S:
            elapsed = self.traced() if traced else self.in_process("op")
            if elapsed is None:
                return
            times.append(elapsed)
        self.samples["traced_op_s" if traced else "op_s"].append(sum(times) / len(times))

    def cli(self) -> None:
        self.out.unlink(missing_ok=True)
        args = ops.cli_args(self.workload, self.data, self.model, self.out)
        child = self.child([sys.executable, "-m", "reliopt"] + args)
        if self.checks.cli("cli", child, report=self.out):
            self.samples["cli_s"].append(child.seconds)
            self.samples["peak_rss_mb"].append(child.peak_rss_mb)

    def ops_probe(self) -> None:
        payload = self.checks.probe("ops probe", self.child(self.probe_argv("ops")))
        if payload is not None:
            self.samples["setup_s"].append(payload["setup_s"])
            self.samples["op_s"].append(payload["op_s"])

    def loop(self, seconds: float, trace: bool) -> tuple[int, float]:
        """Closed loop of rounds until ``seconds`` have passed.

        Untraced, a round is an ops probe, a fresh process timing ``import
        reliopt`` with the first operation (``setup_s``) and then a batch of
        warm operations (``op_s``), followed by one CLI process. Every
        ``op_s`` sample so comes from a process of its own, and no run is
        tied to the speed of one process.
        Traced, a round is a batch of untraced and a batch of traced
        operations in this process, alternating which goes first, then the
        CLI. Interleaving spreads every metric's samples over the whole run.
        """
        start, rounds = perf_counter(), 0
        while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
            if trace:
                for traced in (False, True) if rounds % 2 == 0 else (True, False):
                    self.batch(traced)
            else:
                self.ops_probe()
            self.cli()
            rounds += 1
        return rounds, perf_counter() - start

    def end_to_end(self) -> dict:
        return {name: median(self.samples[name]) for name in END_TO_END}

    def per_layer(self) -> tuple[dict, list[str]]:
        """Span metrics, report counts and the probes run after the loop."""
        reference = self.checks.reference
        counts = report_counts(reference.decode()) if reference is not None else {}
        metrics, unseen = per_layer_from_spans(self.tracer, counts.get("pso.evals", 0))
        metrics.update(counts)
        op_s, traced_op_s = median(self.samples["op_s"]), median(self.samples["traced_op_s"])

        import_times = []
        for _ in range(IMPORT_PROBES):
            child = self.child([sys.executable, "-c", IMPORT_PRINT])
            if self.checks.probe("import probe", child) is not None:
                import_times.append(child.seconds)
        fits = self.checks.probe("fit probe", self.child(self.probe_argv("fit"))) or {}
        # the single-threaded baseline; the only place the thread settings change
        one_thread = self.child(self.probe_argv("fit"), OPENBLAS_NUM_THREADS="1")
        fits_1t = self.checks.probe("fit probe, 1 thread", one_thread) or {}
        if "logistic.fit" in unseen:
            # the operation does not fit; the probe's warm fits stand in
            metrics["logistic.fit_s"] = median(fits.get("warm_s", []))

        dataset = self.reliopt.load_dataset(self.data, ops.LABEL)
        save = getattr(self.reliopt, "save_dataset", None)
        if save is None:
            self.tracer.absent.append("reliopt.save_dataset")
        save_times: list[float] = []
        while save and (not save_times or (sum(save_times) < 1.0 and len(save_times) < 5)):
            start = perf_counter()
            save(dataset, self.scratch / "saved.csv")
            save_times.append(perf_counter() - start)
        tracemalloc.start()
        try:
            self.reliopt.load_dataset(self.data, ops.LABEL)
            peak_alloc = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        load_s = metrics["data.load_s"]
        iterations = metrics.get("logistic.fit_iterations", 0)
        metrics.update(
            {
                "data.load_cells_per_s": (
                    self.workload.rows * self.workload.cols / load_s if load_s else 0.0
                ),
                "data.save_s": median(save_times),
                "data.load_peak_alloc_mb": peak_alloc / 2**20,
                "logistic.fit_s_per_iter": (
                    metrics["logistic.fit_s"] / iterations if iterations else 0.0
                ),
                "logistic.fit_cold_s": fits.get("cold_s", 0.0),
                "logistic.fit_1t_s": median(fits_1t.get("warm_s", [])),
                "cli.import_s": median(import_times),
                "cli.overhead_s": median(self.samples["cli_s"]) - op_s,
                "trace.overhead_frac": traced_op_s / op_s - 1.0 if op_s else 0.0,
            }
        )
        return metrics, unseen


def measure(workload: ops.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns its record, the result included."""
    src = str(ROOT_DIR / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import reliopt

    work = ROOT_DIR / ".perfbench"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work))
    try:
        run = Run(reliopt, workload, scratch)
        run.set_up(seed)
        rounds, measured_s = run.loop(seconds, trace)
        metrics, unseen = run.per_layer() if trace else (run.end_to_end(), [])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = run.checks
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "measured_s": measured_s,
        "rounds": rounds,
        "machine": machine_record(),
        "tree": tree_record(ROOT_DIR),
        "reliopt_file": run.reliopt_file,
        "inputs_sha256": run.inputs,
        "report_sha256": sha256_bytes(checks.reference) if checks.reference else None,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "absent": run.tracer.absent,
        "unseen": unseen,
        "samples": dict(run.samples),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
        "tracer": run.tracer,
    }


# ---------------------------------------------------------------- output


def summary_lines(record: dict) -> list[str]:
    lines = [
        f"reliopt benchmark: workload {record['workload']}, seed {record['seed']}, "
        f"trace {record['trace']}, {record['rounds']} rounds in {record['measured_s']:.1f} s",
    ]
    counts = {name: len(values) for name, values in record["samples"].items()}
    for name, metric in record["metrics"].items():
        n = counts.get(name)
        note = f"  (median of {n})" if n else ""
        lines.append(f"  {name:<30} {metric['value']:<14.6g} {metric['unit']}{note}")
    attempted, failed = record["attempted"], record["failed"]
    lines.append(f"  {'failed_frac':<30} {failed / attempted if attempted else 1.0:<14.6g} ratio  ({failed} of {attempted})")
    lines.append(f"  inputs sha256 {record['inputs_sha256']}")
    lines.append(f"  report sha256 {record['report_sha256']}")
    lines.append(f"  reliopt from {record['reliopt_file']}, tree {record['tree']}")
    if record["absent"]:
        lines.append(f"  traced names absent from this tree: {', '.join(record['absent'])}")
    if record["unseen"]:
        lines.append(f"  spans this operation never entered (read 0): {', '.join(record['unseen'])}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="reliopt benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT_DIR / "src" / "reliopt" / "__init__.py").is_file():
        print(f"error: no reliopt source tree under {ROOT_DIR / 'src'}", file=sys.stderr)
        return 2

    record = measure(ops.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    tracer = record.pop("tracer")
    runs = ROOT_DIR / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(runs / f"{stem}.spans.jsonl")
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("\n".join(summary_lines(record)))
    result = {
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
