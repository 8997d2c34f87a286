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
import re
import sys
import time
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    EnsembleEvaluationError,
    IntegrationFailureError,
    QuadratureConvergenceError,
)
from .model import (
    ControlField,
    GaussianEnvelope,
    LadderSystem,
    PulseComponent,
    RectangularEnvelope,
    transition_frequencies,
)
from .noise import (
    ComponentNoise,
    Evaluator,
    GaussianNoise,
    NoiseSpec,
    Tolerances,
    UniformNoise,
    ensemble_average,
    single_shot,
)
from .optimize import ObjectiveSpec, ObservableModel, optimize_amplitudes

# not called here: bound so that perfbench/layers.py can wrap them in this module
from .perturbation import amplitude_time_quadrature, closed_form_amplitude  # noqa: F401
from .tdse import propagate  # noqa: F401

DEFAULT_TOLERANCES = asdict(Tolerances())

_RUN_TYPES = ("shot", "scan", "ensemble", "optimize")
_EVALUATORS = {e.value: e for e in Evaluator}

# common-detuning scan: sets every component frequency to its transition
# frequency plus the scanned value
COMMON_DETUNING_PARAMETER = "detuning.common"


@dataclass
class ExperimentConfig:
    raw: dict
    digest: str
    system: LadderSystem
    field: ControlField
    noise: NoiseSpec | None
    evaluator: Evaluator
    target_index: int
    run: dict
    output_path: str | None
    output_format: str
    tolerances: dict
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


def _check_numbers(seq, what, problems) -> bool:
    try:
        [float(x) for x in seq]
        return True
    except (TypeError, ValueError):
        problems.append(f"{what} must be a list of numbers")
        return False


def _build_system(raw, problems) -> LadderSystem | None:
    sys_raw = raw.get("system")
    if not isinstance(sys_raw, dict):
        problems.append("system: missing or not an object")
        return None
    energies = sys_raw.get("energies", [])
    dipoles = sys_raw.get("dipoles", [])
    ok = _check_numbers(energies, "system.energies", problems)
    ok &= _check_numbers(dipoles, "system.dipoles", problems)
    if not ok:
        return None
    if len(energies) < 2:
        problems.append("system.energies: ladder needs at least two levels")
        return None
    if any(b <= a for a, b in zip(energies, energies[1:])):
        problems.append("system.energies: energies must be strictly increasing")
    if len(dipoles) != len(energies) - 1:
        problems.append("system.dipoles: need exactly one dipole per adjacent level pair")
    if any(m == 0 for m in dipoles):
        problems.append("system.dipoles: dipoles must all be nonzero")
    try:
        return LadderSystem(tuple(energies), tuple(dipoles))
    except ValueError:
        return None


def _build_envelope(raw_env, problems):
    if not isinstance(raw_env, dict) or "kind" not in raw_env:
        problems.append("field.envelope: missing or lacks 'kind'")
        return None
    kind = raw_env["kind"]
    try:
        if kind == "gaussian":
            return GaussianEnvelope(
                float(raw_env["tau"]),
                float(raw_env.get("truncation_halfwidths", 8.0)),
            )
        if kind == "rectangular":
            return RectangularEnvelope(float(raw_env["duration"]))
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"field.envelope: {exc}")
        return None
    problems.append(f"field.envelope.kind: unknown kind {kind!r}")
    return None


def _build_field(raw, problems) -> ControlField | None:
    fld = raw.get("field")
    if not isinstance(fld, dict):
        problems.append("field: missing or not an object")
        return None
    env = _build_envelope(fld.get("envelope"), problems)
    comps_raw = fld.get("components")
    if not isinstance(comps_raw, list) or not comps_raw:
        problems.append("field.components: need a nonempty list")
        return None
    comps = []
    for i, c in enumerate(comps_raw):
        try:
            comps.append(
                PulseComponent(
                    float(c["amplitude"]),
                    float(c.get("phase", 0.0)),
                    float(c["frequency"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"field.components[{i}]: {exc}")
    if env is None or len(comps) != len(comps_raw):
        return None
    return ControlField(tuple(comps), env)


def _build_distribution(raw_dist, where, problems):
    if raw_dist is None:
        return None
    try:
        kind = raw_dist["dist"]
        if kind == "uniform":
            return UniformNoise(float(raw_dist["half_width"]))
        if kind == "gaussian":
            return GaussianNoise(float(raw_dist["std"]))
        problems.append(f"{where}: unknown distribution {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
    return None


def _build_noise(raw, n_components, problems) -> NoiseSpec | None:
    noise_raw = raw.get("noise")
    if noise_raw is None:
        return None
    comps_raw = noise_raw.get("components")
    if not isinstance(comps_raw, list) or len(comps_raw) != n_components:
        problems.append("noise.components: must list one entry per field component")
        return None
    comps = []
    for i, c in enumerate(comps_raw):
        comps.append(
            ComponentNoise(
                amplitude=_build_distribution(
                    c.get("amplitude"), f"noise.components[{i}].amplitude", problems
                ),
                phase=_build_distribution(
                    c.get("phase"), f"noise.components[{i}].phase", problems
                ),
                frequency=_build_distribution(
                    c.get("frequency"), f"noise.components[{i}].frequency", problems
                ),
            )
        )
    return NoiseSpec(tuple(comps))


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
    parts = path.split(".")
    node = raw
    for part in parts[:-1]:
        m = _PATH_TOKEN.match(part)
        key, idx = m.group(1), m.group(2)
        node = node[key]
        if idx is not None:
            node = node[int(idx)]
    m = _PATH_TOKEN.match(parts[-1])
    key, idx = m.group(1), m.group(2)
    if idx is None:
        node[key] = value
    else:
        node[key][int(idx)] = value


def _validate_run(raw, cfg_noise_active, problems) -> dict:
    run = raw.get("run")
    if not isinstance(run, dict) or run.get("type") not in _RUN_TYPES:
        problems.append(f"run.type: must be one of {_RUN_TYPES}")
        return {}
    rtype = run["type"]
    if rtype == "scan":
        grid = run.get("grid")
        if not isinstance(grid, list) or len(grid) < 2:
            problems.append("run.grid: scans need a grid of length >= 2")
        else:
            _check_numbers(grid, "run.grid", problems)
        param = run.get("parameter")
        if param != COMMON_DETUNING_PARAMETER:
            try:
                _resolve_path(raw, str(param))
            except (KeyError, IndexError, TypeError):
                problems.append(f"run.parameter: path {param!r} does not exist")
    if rtype == "ensemble":
        if not isinstance(run.get("samples"), int) or run["samples"] < 2:
            problems.append("run.samples: need an integer >= 2")
        if cfg_noise_active and run.get("seed") is None:
            problems.append("run.seed: required whenever noise is active")
    if rtype == "optimize":
        try:
            ObjectiveSpec(
                float(run.get("target_yield", -1)),
                float(run.get("fluence_weight", -1)),
                ObservableModel(run.get("observable", "analytic")),
            )
        except ValueError as exc:
            problems.append(f"run: {exc}")
        if not isinstance(run.get("init"), list) or not run["init"]:
            problems.append("run.init: need a list of initial amplitudes")
        else:
            _check_numbers(run["init"], "run.init", problems)
        if (
            cfg_noise_active
            and run.get("observable", "analytic") != "analytic"
            and run.get("seed") is None
        ):
            problems.append("run.seed: required whenever noise is active")
    return run


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate the experiment file; lists every violation found."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from None

    problems: list[str] = []
    warnings_list: list[str] = []
    system = _build_system(raw, problems)
    fld = _build_field(raw, problems)
    noise = (
        _build_noise(raw, len(fld.components), problems) if fld is not None else None
    )
    noise_active = noise is not None and noise.active

    evaluator_name = raw.get("evaluator", "closed-form")
    evaluator = _EVALUATORS.get(evaluator_name)
    if evaluator is None:
        problems.append(f"evaluator: must be one of {sorted(_EVALUATORS)}")

    if system is not None and fld is not None and evaluator is not Evaluator.TDSE:
        if len(fld.components) != system.n_transitions:
            problems.append(
                "evaluator: closed-form and perturb-time require one field "
                "component per transition (M = N); only tdse accepts M != N"
            )

    target = raw.get("target")
    target_index = (
        int(target)
        if target is not None
        else (system.n_transitions if system is not None else 0)
    )
    if system is not None and not 0 <= target_index <= system.n_transitions:
        problems.append("target: index out of range for this ladder")
    if (
        system is not None
        and evaluator is not Evaluator.TDSE
        and target_index != system.n_transitions
    ):
        problems.append("target: perturbative evaluators only produce the top level")

    run = _validate_run(raw, noise_active, problems)

    output = raw.get("output", {}) or {}
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        problems.append("output.format: must be 'csv' or 'json'")

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in (raw.get("tolerances") or {}).items():
        if key not in DEFAULT_TOLERANCES:
            problems.append(f"tolerances.{key}: unknown tolerance")
        else:
            tolerances[key] = float(val)

    if problems:
        raise ConfigError(problems)

    # advisory checks that load successfully but are worth flagging
    if noise is not None:
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

    return ExperimentConfig(
        raw=raw,
        digest=config_digest(raw),
        system=system,
        field=fld,
        noise=noise,
        evaluator=evaluator,
        target_index=target_index,
        run=run,
        output_path=output.get("path"),
        output_format=out_format,
        tolerances=tolerances,
        warnings=warnings_list,
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _scan_points(config: ExperimentConfig):
    """Yield (value, system, field) per grid point, rebuilt from the raw file."""
    param = config.run["parameter"]
    grid = [float(v) for v in config.run["grid"]]
    if param == COMMON_DETUNING_PARAMETER:
        wbar = transition_frequencies(config.system)
        for value in grid:
            fld = config.field.with_frequencies([w + value for w in wbar])
            yield value, config.system, fld
        return
    for value in grid:
        raw = copy.deepcopy(config.raw)
        _assign_path(raw, param, value)
        problems: list[str] = []
        system = _build_system(raw, problems)
        fld = _build_field(raw, problems)
        if system is None or fld is None:
            raise ConfigError([f"scan point {value!r}: " + "; ".join(problems)])
        yield value, system, fld


def run_experiment(
    config: ExperimentConfig, seed_override: int | None = None
) -> RunRecord:
    """Dispatch on the configured run type; rows are deterministic per seed."""
    rtype = config.run.get("type")
    seed = seed_override if seed_override is not None else config.run.get("seed", 0)
    tolerances = Tolerances(**config.tolerances)
    converged = True
    started = time.perf_counter()

    if rtype == "shot":
        y, c, method = single_shot(
            config.system, config.field, config.evaluator, config.target_index, tolerances
        )
        columns = ("yield", "amplitude_re", "amplitude_im", "method")
        rows = [(y, c.real, c.imag, method)]

    elif rtype == "scan":
        rows = []
        for value, system, fld in _scan_points(config):
            y, c, method = single_shot(
                system, fld, config.evaluator, config.target_index, tolerances
            )
            rows.append((value, y, c.real, c.imag, method))
        columns = ("value", "yield", "amplitude_re", "amplitude_im", "method")

    elif rtype == "ensemble":
        noise = config.noise or NoiseSpec.quiet(len(config.field.components))
        stats = ensemble_average(
            config.system,
            config.field,
            noise,
            config.evaluator,
            int(config.run["samples"]),
            int(seed),
            target_index=config.target_index,
            tolerances=tolerances,
        )
        columns = ("mean", "std_error", "samples", "seed", "clamp_events")
        rows = [(stats.mean, stats.std_error, stats.samples, stats.seed, stats.clamp_events)]

    elif rtype == "optimize":
        run = config.run
        spec = ObjectiveSpec(
            float(run["target_yield"]),
            float(run["fluence_weight"]),
            ObservableModel(run.get("observable", "analytic")),
            mc_samples=int(run.get("mc_samples", 2000)),
            seed=int(seed),
            tolerances=tolerances,
        )
        noise = config.noise or NoiseSpec.quiet(len(config.field.components))
        trace: list = []
        result = optimize_amplitudes(
            spec,
            config.system,
            config.field,
            noise,
            [float(a) for a in run["init"]],
            max_evals=int(run.get("max_evals", 100_000)),
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

    else:  # pragma: no cover - load_config rejects unknown types
        raise ConfigError([f"run.type: unknown type {rtype!r}"])

    timings = {"total_s": time.perf_counter() - started}
    return RunRecord(config.digest, int(seed), tuple(columns), rows, timings, converged)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _metadata(config: ExperimentConfig, record: RunRecord, reproduce: str) -> dict:
    return {
        "config_digest": record.config_digest,
        "seed": record.seed,
        "version": __version__,
        "tolerances": config.tolerances,
        "reproduce": reproduce,
    }


def write_csv(path, config, record, reproduce: str) -> None:
    meta = _metadata(config, record, reproduce)
    lines = []
    for key in ("config_digest", "seed", "version"):
        lines.append(f"# {key}={meta[key]}")
    lines.append(
        "# tolerances=" + json.dumps(meta["tolerances"], sort_keys=True)
    )
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
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
    return parser


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

    if config.run.get("type") != args.command:
        print(
            f"config run.type is {config.run.get('type')!r} but the "
            f"{args.command!r} subcommand was invoked",
            file=sys.stderr,
        )
        return 2

    out_path = args.out or config.output_path
    out_format = args.fmt or config.output_format
    if out_path is None:
        print("no output path: pass --out or set output.path", file=sys.stderr)
        return 2

    try:
        record = run_experiment(config, seed_override=args.seed)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (
        QuadratureConvergenceError,
        IntegrationFailureError,
        EnsembleEvaluationError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    reproduce = (
        f"laddernoise {args.command} --config {args.config} "
        f"--seed {record.seed} --out {out_path} --format {out_format}"
    )
    if out_format == "csv":
        write_csv(out_path, config, record, reproduce)
    else:
        write_json(out_path, config, record, reproduce)
    print(reproduce)
    for phase, seconds in record.timings.items():
        print(f"timing {phase}: {seconds:.3f}", file=sys.stderr)

    if not record.converged:
        print("optimizer did not converge", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
