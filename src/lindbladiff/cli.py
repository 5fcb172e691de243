"""Config-driven experiment runner with machine-readable JSON reports.

Subcommands
-----------
solve       integrate the master equation and report final-state health
qfi         evaluate the figure of merit (optionally its gradient)
grad-check  cross-validate adjoint / forward / finite-difference gradients
optimize    gradient-ascent protocol search; trace persisted as JSON lines
emit-plots  write plot-ready CSV tables for traces or trajectories

Reports carry the schema tag "lindbladiff-report/2" and echo every
resolved default, so a run is reproducible from its own report.
Wall-clock data lives only under the "timings" key; everything else is
byte-deterministic for a fixed config and seed.  Exit codes: 0 success,
2 validation error, 3 numerical failure, 4 failed gradient-check verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import typing
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .eigen import eigh
from .errors import LindbladiffError, ShapeMismatchError, ValidationError
from .linalg import (
    MAX_DIMENSION,
    json_array,
    json_keys,
    json_number,
    json_object,
    operator_from_json,
    operator_to_json,
    packing,
    to_dense,
)
from .model import (
    DensityOperator,
    LindbladModel,
    all_zero_density,
    model_from_json,
    preset_oat,
)
from .optimize import OptConfig, OptTrace, gradient_check, maximize_qfi
from .qfi import Generator, generator_from_preset, qfi_of_params
from .solver import SolveConfig, dense_segment, integrate, require_positive

SCHEMA = "lindbladiff-report/2"

_TRACE_HEADER = ("iter", "F", "grad_norm", "step")
_TRAJECTORY_HEADER = ("t", "trace_rho", "purity", "min_eig")


# --------------------------------------------------------------------------
# config resolution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description plus its JSON echo."""

    model: LindbladModel
    params: np.ndarray | None  # None means "initialize from seed" (optimize)
    state: DensityOperator
    t_span: tuple[float, float]
    solver: SolveConfig
    generator: Generator
    optimizer: OptConfig
    times_four: bool  # the qfi report also shows 4F (display keys only)
    grad_fd_step: float
    grad_tolerance: float
    output: str | None
    echo: dict

    @property
    def x(self) -> np.ndarray:
        if self.params is None:
            raise ValidationError("parameters are required for this pipeline", path="/params")
        return self.params


def _repath(exc: ValidationError, base: str) -> ValidationError:
    """Re-anchor a nested validation error under a new JSON-pointer base."""
    msg = str(exc)
    if exc.path and msg.startswith(exc.path + ": "):
        msg = msg[len(exc.path) + 2 :]
    return ValidationError(msg, path=base + (exc.path or ""))


def _load_json(path: str, pointer: str) -> dict | list:
    if not isinstance(path, str):
        raise ValidationError(f"must be a path string, got {path!r}", path=pointer)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"file {path!r} does not exist", path=pointer)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"file {path!r} is not valid JSON ({exc})", path=pointer)


def _preset_size(spec: str, family: str, pointer: str) -> int:
    prefix = family + ":"
    if not spec.startswith(prefix):
        raise ValidationError(f"unknown preset {spec!r} (expected {prefix}<n>)", path=pointer)
    try:
        n = int(spec[len(prefix) :])
    except ValueError:
        raise ValidationError(f"preset size in {spec!r} is not an integer", path=pointer)
    max_n = MAX_DIMENSION.bit_length() - 1
    if not 1 <= n <= max_n:
        raise ValidationError(f"preset size {n} outside supported range [1, {max_n}]", path=pointer)
    return n


def _resolve_model(spec, pointer: str) -> tuple[LindbladModel, dict]:
    if isinstance(spec, str):
        spec = {"preset": spec}
    if not isinstance(spec, dict):
        raise ValidationError("model must be a preset string or an object", path=pointer)
    if "file" in spec:
        json_keys(spec, pointer, {"file"})
        raw = _load_json(spec["file"], pointer + "/file")
        try:
            model = model_from_json(raw)
        except ValidationError as exc:
            raise _repath(exc, pointer + "/file")
        return model, {"file": spec["file"]}
    if "preset" in spec:
        json_keys(spec, pointer, {"preset", "gamma"})
        n = _preset_size(str(spec["preset"]), "oat", pointer + "/preset")
        gamma = json_number(spec.get("gamma", 0.0), pointer + "/gamma")
        if gamma < 0:
            raise ValidationError(f"gamma must be nonnegative, got {gamma}", path=pointer + "/gamma")
        return preset_oat(n, gamma), {"preset": f"oat:{n}", "gamma": gamma}
    raise ValidationError("model needs a 'preset' or a 'file'", path=pointer)


def _resolve_operand(spec, model: LindbladModel, pointer: str, what: str, family: str, preset, from_matrix):
    """/state or /generator from a ``<family>:<n>`` tag (default: the model's qubit count) or a
    ``{"file": path}`` operator literal; its shape is checked before ``preset`` or ``from_matrix`` builds it."""
    if spec is None:
        n = model.dimension.bit_length() - 1
        if 2**n != model.dimension:
            message = f"dimension {model.dimension} is not a power of two; presets need qubit registers"
            raise ValidationError(message, path=pointer)
        spec = f"{family}:{n}"
    if isinstance(spec, str):
        n = _preset_size(spec, family, pointer)
        shape, echo, build = (2**n, 2**n), f"{family}:{n}", partial(preset, n)
    elif isinstance(spec, dict) and "file" in spec:
        json_keys(spec, pointer, {"file"})
        pointer += "/file"
        raw = _load_json(spec["file"], pointer)
        try:
            matrix = to_dense(operator_from_json(raw))
        except ValidationError as exc:
            raise _repath(exc, pointer)
        shape, echo, build = matrix.shape, {"file": spec["file"]}, partial(from_matrix, matrix)
    else:
        raise ValidationError(f"{what} must be '{family}:<n>' or {{'file': path}}", path=pointer)
    if shape != (model.dimension, model.dimension):
        raise ValidationError(f"{what} shape {shape} does not match model dimension {model.dimension}", path=pointer)
    try:
        return build(), echo
    except ValidationError as exc:
        raise _repath(exc, pointer)


def _section(raw: dict, key: str, known=None) -> dict:
    """The object under ``raw[key]`` (empty when absent or null), with keys from ``known`` if given."""
    spec = {} if raw.get(key) is None else json_object(raw[key], "/" + key)
    return spec if known is None else json_keys(spec, "/" + key, known)


def _resolve_section(cls, raw: dict, key: str) -> tuple[object, dict]:
    """Build the config dataclass ``cls`` from the JSON object ``raw[key]`` of its fields.

    Keys, defaults, number kinds (integer or float) and whether null is
    allowed come from the dataclass itself, so a field is declared once.
    """
    pointer = "/" + key
    fields = {f.name: f for f in dataclasses.fields(cls)}
    spec = _section(raw, key, fields)
    kwargs = {}
    for name, hint in typing.get_type_hints(cls).items():
        value = spec.get(name, fields[name].default)
        if value is None and type(None) in typing.get_args(hint):
            kwargs[name] = None
        else:
            kwargs[name] = json_number(value, f"{pointer}/{name}", integer=int in (hint, *typing.get_args(hint)))
    try:
        cfg = cls(**kwargs)
    except ValidationError as exc:
        raise _repath(exc, pointer)
    return cfg, dataclasses.asdict(cfg)


def resolve_config(raw: dict, subcommand: str) -> ExperimentConfig:
    """Validate the raw config object and fill in every default.

    The returned echo contains only resolved values, so feeding it back
    through this function reproduces the exact same run.
    """
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object", path="")
    known = {
        "model",
        "params",
        "state",
        "t_span",
        "solver",
        "generator",
        "optimizer",
        "times_four",
        "grad_check",
        "output",
    }
    json_keys(raw, "", known)

    model, model_echo = _resolve_model(raw.get("model", "oat:2"), "/model")

    params = raw.get("params")
    if params is not None:
        params = np.array(
            [json_number(v, f"/params/{i}") for i, v in enumerate(json_array(params, "/params"))], dtype=float
        )
        if params.size != model.n_params:
            raise ValidationError(
                f"model takes {model.n_params} parameters, got {params.size}", path="/params"
            )
    elif subcommand != "optimize":
        params = np.zeros(model.n_params)

    state, state_echo = _resolve_operand(
        raw.get("state"), model, "/state", "state", "all-zero-pure", all_zero_density, DensityOperator.from_matrix
    )

    t_span = json_array(raw.get("t_span", [0.0, 1.0]), "/t_span", length=2)
    t0, t1 = (json_number(t, f"/t_span/{i}") for i, t in enumerate(t_span))
    if not t1 > t0:
        raise ValidationError(f"t_span needs t1 > t0, got [{t0}, {t1}]", path="/t_span/1")

    solver, solver_echo = _resolve_section(SolveConfig, raw, "solver")
    solver_echo["checkpoints"] = solver.checkpoint_budget
    generator, generator_echo = _resolve_operand(
        raw.get("generator"), model, "/generator", "generator", "Sz", partial(generator_from_preset, "Sz"), Generator
    )
    optimizer, optimizer_echo = _resolve_section(OptConfig, raw, "optimizer")

    times_four = raw.get("times_four", False)
    if not isinstance(times_four, bool):
        raise ValidationError("times_four must be a boolean", path="/times_four")

    gc = _section(raw, "grad_check", {"fd_step", "tolerance"})
    fd_step = json_number(gc.get("fd_step", 1e-6), "/grad_check/fd_step")
    tolerance = json_number(gc.get("tolerance", 1e-4), "/grad_check/tolerance")
    require_positive(fd_step, "grad_check/fd_step")
    require_positive(tolerance, "grad_check/tolerance")

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ValidationError("output must be a path string", path="/output")

    echo = {
        "model": model_echo,
        "params": None if params is None else [float(v) for v in params],
        "state": state_echo,
        "t_span": [t0, t1],
        "solver": solver_echo,
        "generator": generator_echo,
        "optimizer": optimizer_echo,
        "times_four": times_four,
        "grad_check": {"fd_step": fd_step, "tolerance": tolerance},
        "output": output,
    }
    return ExperimentConfig(
        model=model,
        params=params,
        state=state,
        t_span=(t0, t1),
        solver=solver,
        generator=generator,
        optimizer=optimizer,
        times_four=times_four,
        grad_fd_step=fd_step,
        grad_tolerance=tolerance,
        output=output,
        echo=echo,
    )


# --------------------------------------------------------------------------
# plot data emission
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def emit_plot_data(data, path: str, kind: str) -> None:
    """Write a plot-ready CSV table of the given kind.

    ``data`` is an iterable of JSON rows of an optimization trace (objects
    with "iter", "F", "grad_norm" and "step", as in the trace JSONL file)
    for kind "trace", or an iterable of (t, trace_rho, purity, min_eig)
    rows for kind "trajectory".  Every cell is read as a finite number, at
    pointer /<row>/<column>, before the file is opened, so a bad row leaves
    no partial file.  Numbers are written with 17 significant digits so
    round-tripping is exact.
    """
    if isinstance(data, OptTrace):
        raise ValidationError("pass the trace's JSON rows (it.to_json() for it in trace.iterates)")
    items = list(data)
    if kind == "trace":
        rows = []
        for i, row in enumerate(items):
            row = json_object(row, f"/{i}")
            missing = [key for key in _TRACE_HEADER if key not in row]
            if missing:
                raise ValidationError(f"trace row is missing columns {missing}", path=f"/{i}")
            rows.append(tuple(json_number(row[key], f"/{i}/{key}", integer=key == "iter") for key in _TRACE_HEADER))
    elif kind == "trajectory":
        rows = [tuple(json_number(v, f"/{i}/{j}") for j, v in enumerate(row)) for i, row in enumerate(items)]
    else:
        raise ValidationError(f"unknown plot kind {kind!r}")

    header = _TRACE_HEADER if kind == "trace" else _TRAJECTORY_HEADER
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(f"plot row {i} has {len(row)} columns, expected {len(header)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# --------------------------------------------------------------------------
# pipelines
# --------------------------------------------------------------------------


def _state_health(rho: np.ndarray) -> tuple[float, float, float]:
    """(trace, purity, smallest eigenvalue) of a density matrix."""
    return (
        float(np.trace(rho).real),
        float(np.trace(rho @ rho).real),
        float(eigh(rho).eigenvalues[0]),
    )


def _final_state_summary(rho: np.ndarray) -> dict:
    trace, purity, min_eig = _state_health(rho)
    return {
        "matrix": operator_to_json(rho),
        "trace": trace,
        "purity": purity,
        "min_eigenvalue": min_eig,
    }


def _run_solve(cfg: ExperimentConfig) -> tuple[dict, dict, int]:
    tic = time.perf_counter()
    result = integrate(cfg.model, cfg.x, cfg.state, cfg.t_span, cfg.solver)
    elapsed = time.perf_counter() - tic
    stage = {
        "stats": result.stats.to_json(),
        "checkpoints_retained": len(result.packed_checkpoints),
        "final_state": _final_state_summary(result.final_state.matrix),
    }
    return {"solve": stage}, {"solve": elapsed}, 0


def _display_keys(value: float, times_four: bool) -> dict:
    """The qfi report's display keys: F as computed, or the literature's 4F with ``times_four``."""
    multiplier = 4.0 if times_four else 1.0
    return {
        "convention": "variance-x4" if times_four else "variance",
        "display_multiplier": multiplier,
        "display_value": multiplier * value,
    }


def _run_qfi(cfg: ExperimentConfig, want_gradient: bool) -> tuple[dict, dict, int]:
    tic = time.perf_counter()
    report = qfi_of_params(
        cfg.model,
        cfg.x,
        cfg.state,
        cfg.t_span,
        cfg.generator,
        cfg.solver,
        want_gradient=want_gradient,
    )
    elapsed = time.perf_counter() - tic
    stages = {
        "solve": {"stats": report.diagnostics["solver"]},
        "eigen": {
            "clusters": [list(c) for c in report.clusters],
            "min_gap": report.min_gap,
        },
        "qfi": {**report.to_json(), **_display_keys(report.value, cfg.times_four)},
    }
    if want_gradient:
        stages["adjoint"] = report.diagnostics["adjoint"]
    return stages, {"qfi": elapsed}, 0


def _run_grad_check(cfg: ExperimentConfig) -> tuple[dict, dict, int]:
    tic = time.perf_counter()
    verdict = gradient_check(
        cfg.model,
        cfg.x,
        cfg.state,
        cfg.t_span,
        cfg.generator,
        cfg.solver,
        h=cfg.grad_fd_step,
        tol=cfg.grad_tolerance,
    )
    elapsed = time.perf_counter() - tic
    code = 0 if verdict["pass"] else 4
    return {"grad_check": verdict}, {"grad_check": elapsed}, code


def _trace_path(out: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + ".trace.jsonl"))


def _write_trace_lines(trace: OptTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for it in trace.iterates:
            fh.write(json.dumps(it.to_json()) + "\n")
        summary = {
            "summary": {
                "status": trace.status,
                "evaluations": trace.evaluations,
                "iterations": len(trace.iterates),
                "best_F": trace.best.value,
                "best_x": [float(v) for v in trace.best.x],
            }
        }
        fh.write(json.dumps(summary) + "\n")


def _run_optimize(cfg: ExperimentConfig, out: str | None) -> tuple[dict, dict, int]:
    tic = time.perf_counter()
    x_best, trace = maximize_qfi(
        cfg.model,
        cfg.params,
        cfg.state,
        cfg.t_span,
        cfg.generator,
        cfg.solver,
        cfg.optimizer,
    )
    elapsed = time.perf_counter() - tic
    stage = {
        "status": trace.status,
        "evaluations": trace.evaluations,
        "iterations": len(trace.iterates),
        "best": trace.best.to_json(),
        "x_best": [float(v) for v in x_best],
        "trace": [it.to_json() for it in trace.iterates],
    }
    if out:
        trace_file = _trace_path(out)
        _write_trace_lines(trace, trace_file)
        stage["trace_file"] = trace_file
    return {"optimize": stage}, {"optimize": elapsed}, 0


def _trajectory_rows(cfg: ExperimentConfig) -> list[tuple[float, float, float, float]]:
    result = integrate(cfg.model, cfg.x, cfg.state, cfg.t_span, cfg.solver)
    unpack = packing(result.model.dimension).unpack
    return [(float(t), *_state_health(unpack(y))) for t, y in dense_segment(result, (0, result.stats.accepted))]


def _read_trace_file(path: str) -> list[dict]:
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"line {lineno} of {path!r} is not valid JSON ({exc})")
        if isinstance(record, dict) and "summary" in record:
            continue
        rows.append(record)
    return rows


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON file")
    common.add_argument("--out", help="report (or CSV) output path; stdout when omitted")
    common.add_argument("--seed", type=int, help="override optimizer seed")
    common.add_argument("--rtol", type=float, help="override solver relative tolerance")
    common.add_argument("--atol", type=float, help="override solver absolute tolerance")

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--model", help="model preset like oat:2, or a model JSON file")
    model_flags.add_argument("--params", help="comma-separated protocol parameters")
    model_flags.add_argument("--generator", help="generator preset like Sz:2, or a JSON file")

    parser = argparse.ArgumentParser(
        prog="lindbladiff",
        description="Differentiable open-system dynamics and metrology pipelines.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("solve", parents=[common, model_flags], help="integrate the master equation")
    qfi_p = sub.add_parser(
        "qfi", parents=[common, model_flags], help="evaluate the figure of merit"
    )
    qfi_p.add_argument("--grad", action="store_true", help="also compute the gradient")
    gc_p = sub.add_parser(
        "grad-check", parents=[common, model_flags], help="cross-validate gradient routes"
    )
    gc_p.add_argument("--tol", type=float, default=None, help="verdict tolerance (default 1e-4)")
    sub.add_parser(
        "optimize", parents=[common, model_flags], help="maximize the figure of merit"
    )
    plots = sub.add_parser(
        "emit-plots", parents=[common, model_flags], help="write plot-ready CSV tables"
    )
    plots.add_argument(
        "--kind",
        choices=("trace", "trajectory"),
        required=True,
        help="optimization trace or state trajectory",
    )
    plots.add_argument(
        "--trace-file", help="trace JSONL written by 'optimize --out' (required for kind=trace)"
    )
    return parser


def _spec_from_flag(value: str):
    """A --model/--generator flag is a preset tag if it looks like name:<int>."""
    head, sep, tail = value.partition(":")
    if sep and head and tail.lstrip("+-").isdigit():
        return value
    return {"file": value}


def _raw_config(args) -> dict:
    raw = _load_json(args.config, "--config") if args.config else {}
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object", path="")
    if getattr(args, "model", None):
        raw["model"] = _spec_from_flag(args.model)
    if getattr(args, "generator", None):
        raw["generator"] = _spec_from_flag(args.generator)
    if getattr(args, "params", None) is not None:
        try:
            raw["params"] = [float(tok) for tok in args.params.split(",") if tok.strip()]
        except ValueError:
            raise ValidationError(f"--params {args.params!r} must be comma-separated numbers", path="/params")
    overrides = [("optimizer", "seed", args.seed), ("solver", "rtol", args.rtol), ("solver", "atol", args.atol)]
    for section, key, value in overrides + [("grad_check", "tolerance", getattr(args, "tol", None))]:
        if value is not None:
            raw[section] = {**_section(raw, section), key: value}
    return raw


def _write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dispatch(args) -> int:
    raw = _raw_config(args)
    out = args.out or raw.get("output")

    if args.subcommand == "emit-plots":
        if not out:
            raise ValidationError("emit-plots needs --out (or config 'output') for the CSV path")
        if args.kind == "trace":
            if not args.trace_file:
                raise ValidationError(
                    "emit-plots --kind trace needs --trace-file; "
                    "'lindbladiff optimize --out report.json' writes report.trace.jsonl"
                )
            emit_plot_data(_read_trace_file(args.trace_file), out, kind="trace")
        else:
            emit_plot_data(_trajectory_rows(resolve_config(raw, "solve")), out, kind="trajectory")
        return 0

    cfg = resolve_config(raw, args.subcommand)
    if args.subcommand == "solve":
        stages, timings, code = _run_solve(cfg)
    elif args.subcommand == "qfi":
        stages, timings, code = _run_qfi(cfg, want_gradient=bool(args.grad))
    elif args.subcommand == "grad-check":
        stages, timings, code = _run_grad_check(cfg)
    elif args.subcommand == "optimize":
        stages, timings, code = _run_optimize(cfg, out)
    else:  # pragma: no cover - argparse enforces the choices
        raise ValidationError(f"unknown subcommand {args.subcommand!r}")

    report = {
        "schema": SCHEMA,
        "subcommand": args.subcommand,
        "exit_code": code,
        "config": cfg.echo,
        "stages": stages,
        "timings": timings,
    }
    _write_report(report, out)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValidationError, ShapeMismatchError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except LindbladiffError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
