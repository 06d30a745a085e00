"""Command-line front end: fit models, optimize reliability, run the full
pipeline, and generate synthetic datasets.

Exit codes: 0 success, 1 runtime or data error, 2 usage error. Repeated
invocations with the same arguments and input bytes produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import (
    Bounds,
    MissingPolicy,
    compute_bounds,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .errors import (
    DimensionMismatchError,
    InvalidDimensionsError,
    ReliOptError,
    UnknownLabelColumnError,
)
from .logistic import Fields, checked_json, fit, load_model, model_to_json, save_model
from .pipeline import (
    PipelineConfig,
    PrescriptionReport,
    optimize_reliability,
    report_to_json,
    run_pipeline,
)
from .pso import SwarmConfig, check_box

SEED_ENV_VAR = "RELIOPT_SEED"

# The config classes' own defaults.
_DEFAULTS = {f.name: f.default for config in (SwarmConfig, PipelineConfig) for f in fields(config)}
_POLICIES = tuple(policy.value for policy in MissingPolicy)


class _Setting(NamedTuple):
    name: str  # config key; the flag is --name with '_' spelled '-'
    section: str | None  # config section: None (top level), "swarm" or "pipeline"
    type: type  # the JSON type a config value must have
    default: object
    help: str | None  # flag help; None means the config file only
    choices: tuple[str, ...] | None = None
    field: str | None = None  # the config class's field, where it is not the name


_SETTINGS = (
    _Setting("data", None, str, None, "labeled CSV of financial ratios"),
    _Setting("label", None, str, None, "name of the 0/1 health label column"),
    _Setting("missing", None, str, "mean",
             "missing-cell policy: impute the column mean, or reject the file", _POLICIES),
    _Setting("out", None, str, None, "where to write the model (fit) or report JSON"),
    _Setting("pop", "swarm", int, 30, "particles per run", field="population_size"),
    _Setting("iters", "swarm", int, 200, "update sweeps per run", field="max_iterations"),
    _Setting("c1", "swarm", float, _DEFAULTS["c1"], "personal attraction weight"),
    _Setting("c2", "swarm", float, _DEFAULTS["c2"], "global attraction weight"),
    _Setting("w_start", "swarm", float, _DEFAULTS["w_start"], "initial inertia"),
    _Setting("w_end", "swarm", float, _DEFAULTS["w_end"], "final inertia"),
    _Setting("velocity_clamp_fraction", "swarm", float, _DEFAULTS["velocity_clamp_fraction"], None),
    _Setting("scalar_rand", "swarm", bool, _DEFAULTS["scalar_rand"], None),
    _Setting("runs", "pipeline", int, _DEFAULTS["n_runs"], "ensemble size", field="n_runs"),
    _Setting("seed", "pipeline", int, _DEFAULTS["base_seed"],
             f"base seed; run i uses seed+i; ${SEED_ENV_VAR} replaces the default",
             field="base_seed"),
    _Setting("prescriptions", "pipeline", int, _DEFAULTS["n_prescriptions"],
             "near-optimal solutions to report", field="n_prescriptions"),
    _Setting("radius", "pipeline", float, _DEFAULTS["distinctness_radius"],
             "normalized distinctness radius for prescriptions", field="distinctness_radius"),
)
_SECTIONS = ("swarm", "pipeline")
_FIELD = {s.name: s.field or s.name for s in _SETTINGS}
_CONFIG = Fields({s.name: s.choices or s.type for s in _SETTINGS if s.section is None} | {
    section: Fields({s.name: s.choices or s.type for s in _SETTINGS if s.section == section})
    for section in _SECTIONS
})
_BOUNDS = Fields({"lower": [float], "upper": [float]}, required=("lower", "upper"))


class _UsageError(Exception):
    """Bad arguments or config file; maps to exit code 2."""


def _read_json(path: Path, kind, name: str):
    """A config or bounds file's JSON as ``kind``; text that is not UTF-8
    JSON, or JSON not of that kind, is a usage error."""
    if not path.exists():
        raise FileNotFoundError(f"no such {name} file: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: syntax, UTF-8, the int digit limit
        raise _UsageError(f"{path}: not valid JSON ({exc})") from None
    try:
        return checked_json(payload, kind, name)
    except ValueError as exc:
        raise _UsageError(f"{path}: {exc}") from None


def _settings(args: argparse.Namespace) -> dict:
    """Every setting, merged in layers: the table default, then
    $RELIOPT_SEED (for commands with --seed), then the config file, then the
    flags. A flag that replaces a different config value is noted on stderr."""
    settings = {s.name: s.default for s in _SETTINGS}
    raw = os.environ.get(SEED_ENV_VAR) if "seed" in vars(args) else None
    if raw is not None:
        try:
            settings["seed"] = int(raw)
        except ValueError:
            raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    config = _read_json(args.config, _CONFIG, "config") if vars(args).get("config") else {}
    for section in _SECTIONS:  # one flat table of settings by name
        config.update(config.pop(section, {}))
    settings.update(config)
    for name in settings:
        flag = vars(args).get(name)
        if flag is None:
            continue
        if name in config and config[name] != flag:
            print(
                f"note: --{name.replace('_', '-')}={flag} overrides config value {config[name]}",
                file=sys.stderr,
            )
        settings[name] = flag
    return settings


def _load(settings: dict):
    for name in ("data", "label"):
        if settings[name] is None:
            raise _UsageError(f"--{name} is required (flag or config file)")
    return load_dataset(
        Path(settings["data"]), settings["label"], MissingPolicy(settings["missing"])
    )


def _pipeline_config(settings: dict) -> PipelineConfig:
    def section(name):
        return {_FIELD[s.name]: settings[s.name] for s in _SETTINGS if s.section == name}

    try:
        return PipelineConfig(swarm=SwarmConfig(**section("swarm")), **section("pipeline"))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def format_vector(values) -> str:
    return "[" + ", ".join(f"{float(v):.3f}" for v in values) + "]"


def render_report_table(report: PrescriptionReport) -> str:
    """Human-readable summary: settings echo, corner optimum, then one row
    per prescription with the solution vector and its reliability, both at
    three decimals."""
    cfg = report.config
    lines = [
        f"Financial ratios: {report.model.n_features}   "
        f"Population size: {cfg.swarm.population_size}   "
        f"Maximum iterations: {cfg.swarm.max_iterations}   "
        f"Runs: {cfg.n_runs}",
        f"Corner optimum reliability: {report.corner.value:.3f} "
        f"at {format_vector(report.corner.position)}",
        "",
        "Near-optimal prescriptions:",
    ]
    if report.prescriptions:
        width = max(len(format_vector(p.position)) for p in report.prescriptions)
        lines.append(f"  {'#':>2}  {'Solution vector':<{width}}  Reliability")
        for i, prescription in enumerate(report.prescriptions, start=1):
            lines.append(
                f"  {i:>2}  {format_vector(prescription.position):<{width}}  "
                f"{prescription.reliability:.3f}"
            )
    else:
        lines.append("  (none found)")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _render_fit_summary(model, report, dataset) -> str:
    lines = [
        f"Fitted reliability model on {dataset.n_rows} banks, {dataset.n_features} ratios",
        f"  converged: {'yes' if report.converged else 'NO'} "
        f"({report.iterations} iterations, max |gradient| {report.max_abs_gradient:.3g})",
        f"  log-likelihood: {report.final_log_likelihood:.6f}",
        f"  {'(intercept)':<24} {model.beta[0]: .6g}",
    ]
    for name, value in zip(model.feature_names, model.beta[1:]):
        lines.append(f"  {name:<24} {value: .6g}")
    if report.ridge_used:
        lines.append(f"  ridge used: {report.ridge_used:g}")
    return "\n".join(lines) + "\n"


def _emit(args: argparse.Namespace, out, render, table) -> None:
    """Write ``render()`` to ``out``, if given, and print it under ``--json``, or
    ``table()`` otherwise; the JSON is rendered once, and only where it is used."""
    rendered = render() if out is not None or args.json else None
    if out is not None:
        Path(out).write_text(rendered, encoding="utf-8")
    sys.stdout.write(rendered if args.json else table())


def cmd_fit(args: argparse.Namespace) -> int:
    settings = _settings(args)
    dataset = _load(settings)
    model, report = fit(dataset)
    _emit(args, settings["out"], lambda: model_to_json(model, report),
          lambda: _render_fit_summary(model, report, dataset))
    return 0


@contextmanager
def _naming(*paths):
    """A box the swarm refuses, or a score that overflows in it, names the files
    it comes from, as other data errors do."""
    try:
        yield
    except InvalidDimensionsError as exc:
        raise InvalidDimensionsError(f"{', '.join(map(str, paths))}: {exc}") from None


def _bounds_from_args(args: argparse.Namespace, settings: dict, model, swarm) -> Bounds:
    if args.bounds is None:
        dataset = _load(settings)
        # bounds are matched to coefficients by position, so the columns must be the model's
        if dataset.feature_names != model.feature_names:
            raise DimensionMismatchError(
                f"{settings['data']} has ratios {list(dataset.feature_names)}, but "
                f"{args.model} was fitted on {list(model.feature_names)}"
            )
        with _naming(settings["data"]):
            return check_box(compute_bounds(dataset), swarm, dataset.feature_names)
    path = Path(args.bounds)
    try:
        bounds = check_box(Bounds(**_read_json(path, _BOUNDS, "bounds")), swarm)
    except InvalidDimensionsError as exc:
        raise _UsageError(f"{path}: {exc}") from None
    if bounds.n != model.n_features:
        raise _UsageError(
            f"{path}: lower and upper have length {bounds.n}, "
            f"but {args.model} was fitted on {model.n_features} ratios"
        )
    return bounds


def cmd_optimize(args: argparse.Namespace) -> int:
    settings = _settings(args)
    if args.model is None:
        raise _UsageError("--model is required")
    pipeline_config = _pipeline_config(settings)
    model, fit_report = load_model(args.model)
    bounds = _bounds_from_args(args, settings, model, pipeline_config.swarm)
    with _naming(args.model, settings["data"] if args.bounds is None else args.bounds):
        report = optimize_reliability(model, bounds, pipeline_config, fit_report=fit_report)
    _emit(args, settings["out"], lambda: report_to_json(report),
          lambda: render_report_table(report))
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    settings = _settings(args)
    pipeline_config = _pipeline_config(settings)
    dataset = _load(settings)
    with _naming(settings["data"]):
        report = run_pipeline(dataset, pipeline_config)
    if args.model_out is not None:
        save_model(report.model, Path(args.model_out), report.fit_report)
    _emit(args, settings["out"], lambda: report_to_json(report),
          lambda: render_report_table(report))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    seed = _settings(args)["seed"]
    if seed < 0:
        raise _UsageError(f"seed must be non-negative, got {seed}")
    n = args.features
    if n is None or args.rows is None:
        raise _UsageError("--features and --rows are required")
    if n < 1 or args.rows < 2:
        raise _UsageError("need --features >= 1 and --rows >= 2")
    if args.beta is not None:
        try:
            beta = np.asarray([float(v) for v in args.beta.split(",")], dtype=float)
        except ValueError:
            raise _UsageError("--beta must be a comma-separated list of numbers") from None
    else:
        # separate stream so the coefficients do not collide with the data draws
        beta = np.random.default_rng([seed, 1]).uniform(-2.0, 2.0, n + 1)
    try:
        ranges = Bounds(np.full(n, float(args.lower)), np.full(n, float(args.upper)))
        dataset, beta = generate_synthetic(args.rows, beta, ranges, seed)
    except InvalidDimensionsError as exc:
        raise _UsageError(str(exc)) from None
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n_rows} rows x {dataset.n_features} features to {args.out}")
    print(f"true beta: [{', '.join(repr(float(b)) for b in beta)}]")
    print(f"healthy fraction: {dataset.labels.mean():.4f}")
    return 0


def _add_setting_flags(parser: argparse.ArgumentParser, *sections: str | None) -> None:
    """A flag for each table setting in ``sections`` that has help text."""
    for setting in _SETTINGS:
        if setting.section not in sections or setting.help is None:
            continue
        default = "" if setting.default is None else f" (default {setting.default})"
        parser.add_argument(
            f"--{setting.name.replace('_', '-')}",
            dest=setting.name,
            type=setting.type,
            choices=setting.choices,
            help=setting.help + default,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reliopt",
        description="Estimate bank reliability from financial ratios and "
        "prescribe ratio targets that maximize it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_parser = sub.add_parser("fit", help="fit the reliability model from a labeled CSV")
    _add_setting_flags(fit_parser, None)

    optimize_parser = sub.add_parser(
        "optimize", help="maximize reliability of a fitted model over data-derived bounds"
    )
    optimize_parser.add_argument("--model", type=Path, help="model JSON from 'fit'")
    optimize_parser.add_argument(
        "--bounds", type=Path, help="explicit bounds JSON {lower: [...], upper: [...]}"
    )
    _add_setting_flags(optimize_parser, None, *_SECTIONS)

    pipeline_parser = sub.add_parser(
        "pipeline", help="fit and optimize in one invocation"
    )
    _add_setting_flags(pipeline_parser, None, *_SECTIONS)
    pipeline_parser.add_argument(
        "--model-out", dest="model_out", type=Path, help="where to write the model JSON"
    )
    for stage, printed, handler in (
        (fit_parser, "model", cmd_fit),
        (optimize_parser, "report", cmd_optimize),
        (pipeline_parser, "report", cmd_pipeline),
    ):
        stage.add_argument("--json", action="store_true", help=f"print {printed} JSON to stdout")
        stage.add_argument("--config", type=Path, help="JSON config file (flags win)")
        stage.set_defaults(handler=handler)

    gen_parser = sub.add_parser("gen", help="generate a synthetic labeled dataset")
    gen_parser.add_argument("--features", type=int, help="number of ratio columns")
    gen_parser.add_argument("--rows", type=int, help="number of banks")
    gen_parser.add_argument(
        "--seed", type=int, help=f"RNG seed (default ${SEED_ENV_VAR} or {_DEFAULTS['base_seed']})"
    )
    gen_parser.add_argument("--out", type=Path, required=True, help="CSV output path")
    gen_parser.add_argument(
        "--beta",
        help="comma-separated true coefficients, intercept first "
        "(default: drawn uniformly from [-2, 2])",
    )
    gen_parser.add_argument("--lower", type=float, default=0.0, help="feature lower bound")
    gen_parser.add_argument("--upper", type=float, default=1.0, help="feature upper bound")
    gen_parser.set_defaults(handler=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (_UsageError, UnknownLabelColumnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReliOptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1

