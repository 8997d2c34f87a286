"""Config-driven experiment runner.

A single JSON file describes the ladder, the control field, the noise, and
one run type (shot, scan, ensemble, optimize); subcommands dispatch to it
and emit CSV or JSON rows.  Every output embeds the config digest, seed,
library version, and tolerance set, and rows are bit-reproducible for a
fixed config and seed (timings never enter the output files).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field as dataclass_field, fields, replace

import numpy as np

from . import __version__
from .errors import ConfigError, EnsembleEvaluationError, QuadratureConvergenceError
from .model import (
    ControlField,
    GaussianEnvelope,
    LadderSystem,
    PulseComponent,
    RectangularEnvelope,
    detunings_for,
    transition_frequencies,
)
from .noise import (
    ComponentNoise,
    Evaluator,
    GaussianNoise,
    NoiseSpec,
    Tolerances,
    UniformNoise,
    check_seed,
    check_target,
    draw_offsets,
    ensemble_average,
    single_shot,
)
from .optimize import (
    DEFAULT_MAX_EVALS,
    DEFAULT_MC_SAMPLES,
    ObjectiveSpec,
    ObservableModel,
    check_observable,
    optimize_amplitudes,
)

# not called here: bound so that perfbench/layers.py can wrap them in this module
from .perturbation import amplitude_time_quadrature, closed_form_amplitude  # noqa: F401
from .tdse import propagate  # noqa: F401

# the keys each run type reads besides type and seed
_RUN_KEYS = {
    "shot": (), "scan": ("parameter", "grid"), "ensemble": ("samples",),
    "optimize": ("target_yield", "fluence_weight", "observable", "init", "max_evals", "mc_samples"),
}
_RUN_TYPES = tuple(_RUN_KEYS)
_TOP_KEYS = ("system", "field", "noise", "evaluator", "target", "run", "output", "tolerances")
_PULSE_KEYS = ("amplitude", "phase", "frequency")

# common-detuning scan: sets every component frequency to its transition
# frequency plus the scanned value
COMMON_DETUNING_PARAMETER = "detuning.common"


@dataclass(frozen=True)
class RunSpec:
    """The run block, converted; fields its type does not use keep their defaults."""

    type: str
    seed: int = 0
    # a scan's (value, system, field) per grid value, built at load
    points: tuple[tuple[float, LadderSystem, ControlField], ...] = ()
    samples: int = 0
    init: tuple[float, ...] = ()
    max_evals: int = DEFAULT_MAX_EVALS
    objective: ObjectiveSpec | None = None


@dataclass
class ExperimentConfig:
    digest: str
    system: LadderSystem
    field: ControlField
    noise: NoiseSpec
    evaluator: Evaluator
    target_index: int
    run: RunSpec
    output_path: str | None
    output_format: str
    tolerances: Tolerances
    warnings: list[str] = dataclass_field(default_factory=list)


@dataclass
class RunRecord:
    config_digest: str
    seed: int
    columns: tuple[str, ...]
    rows: list[tuple]
    timings: dict
    # False only when an optimize run's simplex search did not converge
    converged: bool = True


def config_digest(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# validation / construction
# ---------------------------------------------------------------------------


def _guard(problems: list[str], where: str, build, *args):
    """``build(*args)``, or None with its failure listed as a violation at ``where``.

    Wraps conversion and construction only, never evaluation, so that
    numerical failures keep their own exit code.
    """
    try:
        return build(*args)
    except KeyError as exc:
        problems.append(f"{where}: missing {exc}")
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
    return None


def _number(value) -> float:
    """A JSON number as a float; float() would also take "nan", "1e999" and true."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"need a number, got {value!r}")
    return float(value)


def _floats(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError(f"need a list of numbers, got {value!r}")
    return tuple(_number(v) for v in value)


def _integer(value, least: int | None = None) -> int:
    """A JSON integer; int() would also take "7", 7.9 and true."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"need an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"need an integer >= {least}, got {value}")
    return value


def _sample_count(value, components: int) -> int:
    """A count of at least 2 shots whose (samples, components, 3) offset table numpy can index."""
    samples = _integer(value, 2)
    if samples * components * 3 * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise ValueError(f"{samples} samples of {components} components exceed the largest "
                         "offset table numpy can index")
    return samples


def _known(node, keys) -> dict:
    """The object ``node``, refused if it holds a key outside ``keys``: nothing would read it."""
    if not isinstance(node, dict):
        raise TypeError(f"need an object, got {node!r}")
    unknown = [key for key in node if key not in keys]
    if unknown:
        raise ValueError("unknown key " + ", ".join(map(repr, unknown)))
    return node


def _section(raw, key):
    """``raw[key]``, or an empty object when the key is absent or null."""
    node = raw.get(key)
    return {} if node is None else node


def _build_system(raw, problems) -> LadderSystem | None:
    sys_raw = raw.get("system")
    if not isinstance(sys_raw, dict):
        problems.append("system: missing or not an object")
        return None
    _guard(problems, "system", _known, sys_raw, ("energies", "dipoles"))
    energies = _guard(problems, "system.energies", _floats, sys_raw.get("energies"))
    dipoles = _guard(problems, "system.dipoles", _floats, sys_raw.get("dipoles"))
    if energies is None or dipoles is None:
        return None
    # listed rule by rule: the constructor stops at the first broken one
    before = len(problems)
    if any(b <= a for a, b in zip(energies, energies[1:])):
        problems.append("system.energies: energies must be strictly increasing")
    if any(m == 0 for m in dipoles):
        problems.append("system.dipoles: dipoles must all be nonzero")
    if len(problems) > before:
        return None
    return _guard(problems, "system", LadderSystem, energies, dipoles)


_ENVELOPES = {
    "gaussian": (GaussianEnvelope, "tau"),
    "rectangular": (RectangularEnvelope, "duration"),
}
_DISTRIBUTIONS = {"uniform": (UniformNoise, "half_width"), "gaussian": (GaussianNoise, "std")}


def _tagged(node, tag: str, kinds: dict):
    """An envelope or a noise distribution: ``kinds[node[tag]]`` is its class and width key."""
    kind = node[tag]
    if kind not in kinds:
        raise ValueError(f"unknown {tag} {kind!r}")
    build, width = kinds[kind]
    return build(_number(_known(node, (tag, width))[width]))


def _component(c) -> PulseComponent:
    _known(c, _PULSE_KEYS)
    return PulseComponent(
        _number(c["amplitude"]), _number(c.get("phase", 0.0)), _number(c["frequency"])
    )


def _build_field(raw, problems) -> ControlField | None:
    fld = raw.get("field")
    if not isinstance(fld, dict):
        problems.append("field: missing or not an object")
        return None
    _guard(problems, "field", _known, fld, ("envelope", "components"))
    env = _guard(problems, "field.envelope", _tagged, fld.get("envelope", {}), "kind", _ENVELOPES)
    comps_raw = fld.get("components")
    if not isinstance(comps_raw, list) or not comps_raw:
        problems.append("field.components: need a nonempty list")
        return None
    comps = [
        _guard(problems, f"field.components[{i}]", _component, c)
        for i, c in enumerate(comps_raw)
    ]
    if env is None or any(c is None for c in comps):
        return None
    return ControlField(tuple(comps), env)


def _component_noise(c) -> ComponentNoise:
    return ComponentNoise(**{
        key: _tagged(dist, "dist", _DISTRIBUTIONS)
        for key, dist in _known(c, _PULSE_KEYS).items() if dist is not None
    })


def _build_noise(raw, fld, problems) -> NoiseSpec | None:
    """The noise spec; without a field, all but the count and frequency-width rules are checked."""
    noise_raw = raw.get("noise")
    if noise_raw is None:
        return NoiseSpec.quiet(len(fld.components)) if fld is not None else None
    comps_raw = noise_raw.get("components") if isinstance(noise_raw, dict) else None
    if not isinstance(comps_raw, list) or (
        fld is not None and len(comps_raw) != len(fld.components)
    ):
        problems.append("noise.components: must list one entry per field component")
        return None
    _guard(problems, "noise", _known, noise_raw, ("components",))
    comps = [
        _guard(problems, f"noise.components[{i}]", _component_noise, c)
        for i, c in enumerate(comps_raw)
    ]
    if fld is None or any(c is None for c in comps):
        return None
    for i, (comp, cn) in enumerate(zip(fld.components, comps)):
        # bounded jitter only: a nonpositive Gaussian draw fails at run time (exit 3)
        if isinstance(cn.frequency, UniformNoise) and cn.frequency.half_width >= comp.frequency:
            problems.append(
                f"noise.components[{i}]: uniform frequency half-width "
                f"{cn.frequency.half_width:g} reaches the nominal frequency "
                f"{comp.frequency:g}, so a draw can be nonpositive"
            )
    return NoiseSpec(tuple(comps))


def _output(out) -> tuple[str | None, str]:
    _known(out, ("path", "format"))
    path, fmt = out.get("path"), out.get("format", "csv")
    if not isinstance(path, (str, type(None))) or fmt not in ("csv", "json"):
        raise ValueError(f"need a string path and format 'csv' or 'json', got {out!r}")
    return path, fmt


def _nonfinite(node, where=""):
    """A violation per NaN or infinity below ``node``: ``json`` reads those and 1e999."""
    if isinstance(node, float) and not math.isfinite(node):
        yield f"{where}: {node!r} is not a finite number"
    elif isinstance(node, dict):
        for key, child in node.items():
            yield from _nonfinite(child, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _nonfinite(child, f"{where}[{i}]")


_PATH_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\[(\d+)\])?$")


def _resolve_path(raw: dict, path: str):
    """Walk a dotted path like field.components[0].frequency in the raw dict."""
    node = raw
    for part in path.split("."):
        m = _PATH_TOKEN.match(part)
        if m is None:
            raise KeyError(f"malformed path component {part!r}")
        key, idx = m.group(1), m.group(2)
        node = node[key]
        if idx is not None:
            node = node[int(idx)]
    return node


def _assign_path(raw: dict, path: str, value) -> None:
    parent, _, last = path.rpartition(".")
    node = _resolve_path(raw, parent) if parent else raw
    key, idx = _PATH_TOKEN.match(last).groups()
    if idx is None:
        node[key] = value
    else:
        node[key][int(idx)] = value


def _build_run(raw, system, fld, noise, evaluator, tolerances, problems) -> RunSpec | None:
    run = raw.get("run")
    if not isinstance(run, dict) or run.get("type") not in _RUN_TYPES:
        problems.append(f"run.type: must be one of {_RUN_TYPES}")
        return None
    rtype = run["type"]
    _guard(problems, "run", _known, run, ("type", "seed", *_RUN_KEYS[rtype]))
    observable = run.get("observable", "analytic")
    sampled = rtype == "ensemble" or (rtype == "optimize" and observable != "analytic")
    if noise is not None and noise.active and sampled and "seed" not in run:
        problems.append("run.seed: required whenever noise is active")
    seed = _guard(problems, "run.seed", lambda v: check_seed(_integer(v)), run.get("seed", 0))
    components = len(fld.components) if fld is not None else 1
    if rtype == "scan":
        param = run.get("parameter")
        before = len(problems)
        if param != COMMON_DETUNING_PARAMETER:
            try:
                _resolve_path(raw, param)
            except (AttributeError, KeyError, IndexError, TypeError):
                problems.append(f"run.parameter: path {param!r} does not exist")
            else:
                if param.partition(".")[0] not in ("system", "field"):
                    problems.append(
                        f"run.parameter: {param!r} is outside system and field, "
                        "the only sections a scan point rebuilds"
                    )
        grid = _guard(problems, "run.grid", _floats, run.get("grid"))
        if grid is not None and len(grid) < 2:
            problems.append("run.grid: scans need a grid of length >= 2")
        if len(problems) > before or system is None or fld is None:
            return RunSpec(rtype, seed)
        points = []
        wbar = transition_frequencies(system)
        top = max(wbar)
        for value in grid:
            found: list[str] = []
            if param == COMMON_DETUNING_PARAMETER:
                # the value rounded to the float spacing at the largest gap, from
                # which it comes back exactly (Sterbenz); it does from a smaller
                # gap too unless the sum crosses a power of two, so the legs
                # share one detuning to the last bit
                shift = (top + value) - top
                point = (
                    system,
                    _guard(found, "field", fld.with_frequencies, [w + shift for w in wbar]),
                )
            else:
                # the parameter path lies in these two sections, so only they are copied
                sections = copy.deepcopy({"system": raw["system"], "field": raw["field"]})
                _guard(found, "run.parameter", _assign_path, sections, param, value)
                point = (_build_system(sections, found), _build_field(sections, found))
            if found:  # listed once: a path that cannot be assigned fails at every point
                problems.append(f"scan point {value!r}: " + "; ".join(found))
                break
            points.append((value, *point))
        return RunSpec(rtype, seed, points=tuple(points))
    if rtype == "ensemble":
        samples = _guard(problems, "run.samples", _sample_count, run.get("samples"), components)
        return RunSpec(rtype, seed, samples=samples)
    if rtype == "optimize":
        init = _guard(problems, "run.init", _floats, run.get("init"))
        if init is not None and fld is not None and len(init) != len(fld.components):
            problems.append("run.init: need one initial amplitude per field component")
        least = len(fld.components) + 1 if fld is not None else 0  # one simplex
        max_evals = _guard(
            problems, "run.max_evals", _integer, run.get("max_evals", DEFAULT_MAX_EVALS), least
        )
        model = _guard(problems, "run.observable", ObservableModel, observable)
        mc_samples = _guard(problems, "run.mc_samples", _sample_count,
                            run.get("mc_samples", DEFAULT_MC_SAMPLES), components)
        objective = _guard(
            problems,
            "run",
            lambda: ObjectiveSpec(
                _number(run["target_yield"]),
                _number(run["fluence_weight"]),
                model,
                mc_samples=mc_samples,
                seed=seed,
                tolerances=tolerances,
                evaluator=evaluator,
            ),
        )
        if None not in (model, evaluator, noise):
            _guard(problems, "run.observable", check_observable, model, evaluator, noise)
        return RunSpec(rtype, seed, init=init, max_evals=max_evals, objective=objective)
    return RunSpec(rtype, seed)


def load_config(path: str) -> ExperimentConfig:
    """Parse the experiment file and build every value in it once.

    Lists every violation found, not just the first; every number in the
    file must be finite.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(["the top level must be an object"])

    problems = list(_nonfinite(raw))
    _guard(problems, "top level", _known, raw, _TOP_KEYS)
    warnings_list: list[str] = []
    system = _build_system(raw, problems)
    fld = _build_field(raw, problems)
    noise = _build_noise(raw, fld, problems)
    evaluator = _guard(
        problems, "evaluator", Evaluator, raw.get("evaluator", "closed-form")
    )
    tol_keys = [f.name for f in fields(Tolerances)]
    tolerances = _guard(
        problems, "tolerances", lambda: Tolerances(**_known(_section(raw, "tolerances"), tol_keys))
    )
    output = _guard(problems, "output", _output, _section(raw, "output"))

    run = _build_run(raw, system, fld, noise, evaluator, tolerances, problems)

    top = system.n_transitions if system is not None else 0
    target_index = _guard(problems, "target", _integer, raw.get("target", top), 0)
    if system is not None and target_index is not None:
        if target_index > top:
            problems.append("target: index out of range for this ladder")
        elif target_index != top:
            _guard(problems, "target", check_target, system, evaluator, target_index)
            if run is not None and run.type == "optimize":
                problems.append("target: optimize runs average the top-level yield")

    if system is not None and fld is not None and evaluator is not Evaluator.TDSE:
        # the perturbative evaluators pair component l with transition l
        _guard(problems, "evaluator", detunings_for, system, fld)

    if problems:
        raise ConfigError(problems)

    # advisory checks that load successfully but are worth flagging
    for i, (comp, cn) in enumerate(zip(fld.components, noise.components)):
        if (
            isinstance(cn.amplitude, UniformNoise)
            and cn.amplitude.half_width > comp.amplitude
        ):
            warnings_list.append(
                f"noise.components[{i}]: amplitude noise half-width "
                f"{cn.amplitude.half_width:g} exceeds the nominal amplitude "
                f"{comp.amplitude:g}; negative draws will be clamped to zero"
            )

    output_path, output_format = output
    return ExperimentConfig(
        digest=config_digest(raw),
        system=system,
        field=fld,
        noise=noise,
        evaluator=evaluator,
        target_index=target_index,
        run=run,
        output_path=output_path,
        output_format=output_format,
        tolerances=tolerances,
        warnings=warnings_list,
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def run_experiment(
    config: ExperimentConfig, seed_override: int | None = None
) -> RunRecord:
    """Evaluate the run that :func:`load_config` built; rows are deterministic per seed."""
    run = config.run
    if seed_override is not None:
        run = replace(run, seed=check_seed(seed_override))
    tolerances = config.tolerances
    converged = True
    started = time.perf_counter()

    if run.type == "shot":
        y, c, method = single_shot(
            config.system, config.field, config.evaluator, config.target_index, tolerances
        )
        columns = ("yield", "amplitude_re", "amplitude_im", "method")
        rows = [(y, c.real, c.imag, method)]

    elif run.type == "scan":
        rows = []
        for value, system, fld in run.points:
            y, c, method = single_shot(
                system, fld, config.evaluator, config.target_index, tolerances
            )
            rows.append((value, y, c.real, c.imag, method))
        columns = ("value", "yield", "amplitude_re", "amplitude_im", "method")

    elif run.type == "ensemble":
        stats = ensemble_average(
            config.system,
            config.field,
            draw_offsets(config.noise, run.samples, run.seed),
            config.evaluator,
            target_index=config.target_index,
            tolerances=tolerances,
        )
        columns = ("mean", "std_error", "samples", "seed", "clamp_events")
        rows = [(stats.mean, stats.std_error, run.samples, run.seed, stats.clamp_events)]

    else:  # optimize
        trace: list = []
        result = optimize_amplitudes(
            replace(run.objective, seed=run.seed),
            config.system,
            config.field,
            config.noise,
            run.init,
            max_evals=run.max_evals,
            trace=trace,
        )
        n_amp = len(config.field.components)
        columns = (
            ("eval_index", "objective")
            + tuple(f"amp_{i}" for i in range(n_amp))
            + ("final", "converged", "condition_residual")
        )
        rows = []
        best = None
        for i, (amps, val) in enumerate(trace):
            if best is None or val < best:
                best = val
                rows.append((i, val) + amps + (0, "", ""))
        rows.append(
            (len(trace), result.objective)
            + result.amplitudes
            + (1, int(result.converged), result.condition_residual)
        )
        converged = result.converged

    timings = {"total_s": time.perf_counter() - started}
    return RunRecord(config.digest, run.seed, tuple(columns), rows, timings, converged)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)):  # bool included
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _metadata(config: ExperimentConfig, record: RunRecord, reproduce: str) -> dict:
    return {
        "config_digest": record.config_digest,
        "seed": record.seed,
        "version": __version__,
        "tolerances": asdict(config.tolerances),
        "reproduce": reproduce,
    }


def write_csv(path, config, record, reproduce: str) -> None:
    meta = _metadata(config, record, reproduce)
    lines = [f"# {key}={meta[key]}" for key in ("config_digest", "seed", "version")]
    lines.append("# tolerances=" + json.dumps(meta["tolerances"], sort_keys=True))
    lines.append(f"# reproduce={reproduce}")
    lines.append(",".join(record.columns))
    for row in record.rows:
        lines.append(",".join(_format_value(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, config, record, reproduce: str) -> None:
    meta = _metadata(config, record, reproduce)
    rows = [
        {col: (None if v == "" else v) for col, v in zip(record.columns, row)}
        for row in record.rows
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"metadata": meta, "rows": rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _seed_argument(text: str) -> int:
    try:
        return check_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laddernoise",
        description="Noisy-pulse population transfer in multilevel ladders",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("shot", "scan", "ensemble", "optimize", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", help="output path (overrides output.path)")
        p.add_argument("--seed", type=_seed_argument, help="seed override")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
    return parser


def _unwritable(path: str) -> str | None:
    """Why ``path`` cannot be written, checked before the run spends its time.

    The write itself still handles ``OSError`` for what this cannot foresee.
    """
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return f"{path} is a directory"
    if not os.path.isdir(directory):
        return f"no such directory: {directory}"
    if not os.access(directory, os.W_OK):
        return f"directory not writable: {directory}"
    return None


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.command == "validate":
        print(f"OK {config.digest}")
        return 0

    if config.run.type != args.command:
        print(
            f"config run.type is {config.run.type!r} but the "
            f"{args.command!r} subcommand was invoked",
            file=sys.stderr,
        )
        return 2

    out_path = args.out or config.output_path
    out_format = args.fmt or config.output_format
    if not out_path:
        print("no output path: pass --out or set output.path", file=sys.stderr)
        return 2
    unwritable = _unwritable(out_path)
    if unwritable:
        print(f"cannot write the output: {unwritable}", file=sys.stderr)
        return 2

    try:
        record = run_experiment(config, seed_override=args.seed)
    except (QuadratureConvergenceError, EnsembleEvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # a finite but huge setting: overflow, inf or nan
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    reproduce = (
        f"laddernoise {args.command} --config {args.config} "
        f"--seed {record.seed} --out {out_path} --format {out_format}"
    )
    try:
        if out_format == "csv":
            write_csv(out_path, config, record, reproduce)
        else:
            write_json(out_path, config, record, reproduce)
    except OSError as exc:
        print(f"cannot write the output: {exc}", file=sys.stderr)
        return 2
    print(reproduce)
    for phase, seconds in record.timings.items():
        print(f"timing {phase}: {seconds:.3f}", file=sys.stderr)

    if not record.converged:
        print("optimizer did not converge", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
