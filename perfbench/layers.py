"""Layer spans for the traced benchmark run, recorded from outside the package.

The tracer replaces public functions at the module bindings their callers
actually look up (``laddernoise.noise.propagate`` as well as
``laddernoise.cli.propagate``, say), so no file of the package changes.
Spans are kept in memory as parallel lists with a parent link each and are
written out once the traced command has finished; ``per_layer_metrics``
turns them into the per-layer figures named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter

# span name -> the bindings that carry it, as (module, attribute)
BINDINGS = {
    "cli.load_config": [("laddernoise.cli", "load_config")],
    "cli.run_experiment": [("laddernoise.cli", "run_experiment")],
    "cli.write": [("laddernoise.cli", "write_csv"), ("laddernoise.cli", "write_json")],
    "optimize.optimize_amplitudes": [("laddernoise.cli", "optimize_amplitudes")],
    "noise.ensemble_average": [
        ("laddernoise.cli", "ensemble_average"),
        ("laddernoise.optimize", "ensemble_average"),
    ],
    "noise.sample_stream": [("laddernoise.noise", "sample_stream")],
    "noise.sample_field": [("laddernoise.noise", "sample_field")],
    "noise.pairwise_sum": [("laddernoise.noise", "pairwise_sum")],
    "tdse.propagate": [("laddernoise.cli", "propagate"), ("laddernoise.noise", "propagate")],
    "perturbation.closed_form_amplitude": [
        ("laddernoise.cli", "closed_form_amplitude"),
        ("laddernoise.noise", "closed_form_amplitude"),
        ("laddernoise.optimize", "closed_form_amplitude"),
    ],
    "perturbation.amplitude_time_quadrature": [
        ("laddernoise.cli", "amplitude_time_quadrature"),
        ("laddernoise.noise", "amplitude_time_quadrature"),
        ("laddernoise.perturbation", "amplitude_time_quadrature"),
    ],
    "perturbation.scaled_amplitude_gaussian": [
        ("laddernoise.perturbation", "scaled_amplitude_gaussian")
    ],
}

ROOT = "cli.main"

# pairwise_sum recurses through its own module-level name; only the outermost
# call of a reduction becomes a span
_NON_REENTRANT = {"noise.pairwise_sum"}

# spans whose returned TransitionAmplitude.method feeds the method histogram;
# a time quadrature run as a closed-form fallback is counted once, as the
# closed form's result
_METHOD_SPANS = {"perturbation.closed_form_amplitude", "perturbation.amplitude_time_quadrature"}


def clock() -> float:
    """CLOCK_MONOTONIC, which is shared by every process on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.methods: Counter = Counter()
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        reentrant = name not in _NON_REENTRANT
        count_method = name in _METHOD_SPANS
        closed_form = self._name_id("perturbation.closed_form_amplitude")
        stack, names_of = self._stack, self.name

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if not reentrant and parent >= 0 and names_of[parent] == nid:
                return fn(*args, **kwargs)
            idx = len(names_of)
            names_of.append(nid)
            self.parent.append(parent)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count_method and (parent < 0 or names_of[parent] != closed_form):
                self.methods[result.method.value] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding in ``BINDINGS``; a missing binding is an error."""
        for name, bindings in BINDINGS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "methods": dict(self.methods),
                },
                fh,
            )


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def self_times(spans: dict) -> dict[str, float]:
    """Total self time per span name: duration minus that of direct children."""
    names, name, parent = spans["names"], spans["name"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    totals = {n: 0.0 for n in names}
    for i, nid in enumerate(name):
        totals[names[nid]] += own[i]
    return totals


def per_layer_metrics(spans: dict, method_names: list[str]) -> dict[str, float]:
    """Per-layer figures from one traced command's spans.

    Per-call figures are medians of inclusive span durations; ``*_s`` figures
    are totals; a layer that never ran reports 0 calls and 0 time.
    """
    names, name, parent = spans["names"], spans["name"], spans["parent"]
    durations: dict[str, list[float]] = {n: [] for n in BINDINGS}
    objective_evals = 0
    for i, nid in enumerate(name):
        label = names[nid]
        durations.setdefault(label, []).append(spans["end"][i] - spans["start"][i])
        p = parent[i]
        if (
            label == "noise.ensemble_average"
            and p >= 0
            and names[name[p]] == "optimize.optimize_amplitudes"
        ):
            objective_evals += 1
    own = self_times(spans)

    def median(label: str, scale: float) -> float:
        values = durations[label]
        return statistics.median(values) * scale if values else 0.0

    def total(label: str) -> float:
        return float(sum(durations[label]))

    metrics = {
        "tdse.propagate_calls": len(durations["tdse.propagate"]),
        "tdse.propagate_ms": median("tdse.propagate", 1e3),
        "tdse.propagate_ms_p90": _p90(durations["tdse.propagate"]) * 1e3,
        "perturbation.gaussian_us": median("perturbation.scaled_amplitude_gaussian", 1e6),
        "perturbation.time_quad_ms": median("perturbation.amplitude_time_quadrature", 1e3),
        "perturbation.time_quad_calls": len(durations["perturbation.amplitude_time_quadrature"]),
        "perturbation.closed_form_us": median("perturbation.closed_form_amplitude", 1e6),
        "perturbation.closed_form_calls": len(durations["perturbation.closed_form_amplitude"]),
        "noise.sample_stream_us": median("noise.sample_stream", 1e6),
        "noise.sample_field_us": median("noise.sample_field", 1e6),
        "noise.ensemble_calls": len(durations["noise.ensemble_average"]),
        "noise.ensemble_self_s": own.get("noise.ensemble_average", 0.0),
        "noise.reduce_s": total("noise.pairwise_sum"),
        "optimize.objective_evals": objective_evals,
        "optimize.self_s": own.get("optimize.optimize_amplitudes", 0.0),
        "cli.load_config_s": total("cli.load_config"),
        "cli.write_s": total("cli.write"),
        "cli.run_self_s": own.get("cli.run_experiment", 0.0),
    }
    for method in method_names:
        metrics[f"perturbation.method.{method}"] = spans["methods"].get(method, 0)
    return metrics


def accounting(spans: dict, t_spawn: float, t_exit: float) -> dict:
    """Where a traced command's wall time went.

    The self times of all spans add up to the root span; the time before it
    (interpreter start, imports) and after it (writing the spans, exit) make
    up the rest of the wall time.
    """
    own = self_times(spans)
    root = spans["parent"].index(-1)
    start, end = spans["start"][root], spans["end"][root]
    return {
        "self_s": dict(sorted(own.items(), key=lambda kv: -kv[1])),
        "self_sum_s": sum(own.values()),
        "root_s": end - start,
        "before_root_s": start - t_spawn,
        "after_root_s": t_exit - end,
        "wall_s": t_exit - t_spawn,
    }
