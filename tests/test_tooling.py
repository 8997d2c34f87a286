"""The benchmark tracer wraps every binding it names and counts what the
benchmark expects; the panel integrators hold one block at a time; the
propagator's Picard pass count and its lazy tables stay where they are; runs
need neither numpy's polynomial package nor LAPACK; the README's code runs;
no module imports a name it never uses."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import laddernoise.perturbation as perturbation_module
import laddernoise.quadrature as quadrature_module
import laddernoise.tdse as tdse_module
from laddernoise import (
    ComponentNoise,
    ControlField,
    GaussianEnvelope,
    GaussianNoise,
    LadderSystem,
    NoiseSpec,
    PropagationSpec,
    PulseComponent,
    RectangularEnvelope,
    UniformNoise,
    draw_offsets,
    propagate,
)

ROOT = os.path.join(os.path.dirname(__file__), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_perfbench(name):
    """A module of the benchmark harness, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_binding_resolves():
    # layers.install fails on a missing binding, so `perfbench/run.py --trace 1`
    # breaks whenever the package drops a name the tracer wraps
    layers = load_perfbench("layers")
    missing = [
        f"{module_name}.{attr}"
        for bindings in layers.BINDINGS.values()
        for module_name, attr in bindings
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


# each workload with fewer shots than the benchmark runs; its traced command
# goes through the same layers, so the same exact counts apply
SMALL_WORKLOADS = {
    "tdse_ensemble": {"samples": 4},
    "gauss_ensemble": {"samples": 200},
    "mc_optimize": {"mc_samples": 10},
    "quad_scan": {"points": 50},
}


@pytest.mark.parametrize("name,sizes", SMALL_WORKLOADS.items(), ids=SMALL_WORKLOADS)
def test_traced_counts_match_expected_trace(tmp_path, name, sizes):
    # `perfbench/run.py --trace 1` fails a workload whose traced command
    # reports other counts than its expected_trace
    workloads = load_perfbench("workloads")
    layers = load_perfbench("layers")
    base = type(workloads.WORKLOADS[name])
    workload = type(base.__name__, (base,), sizes)()
    config = workload.make_config(np.random.default_rng(1))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out, spans = tmp_path / "out.csv", tmp_path / "spans.json"
    child = [
        sys.executable, os.path.join(PERFBENCH, "child.py"),
        "--src", os.path.join(ROOT, "src"),
        "--timing", str(tmp_path / "timing.json"),
        "--spans", str(spans),
        "--", workload.command, "--config", str(config_path), "--out", str(out),
    ]
    proc = subprocess.run(child, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    prefix = "perturbation.method."
    methods = [m[len(prefix):] for m in per_layer if m.startswith(prefix)]
    metrics = layers.per_layer_metrics(json.loads(spans.read_text()), methods)
    expected = workload.expected_trace(config, data[1:])
    assert {key: metrics[key] for key in expected} == expected


def test_tier1_runs_blas_on_one_thread(monkeypatch):
    # conftest.py pins the thread count before numpy loads its BLAS
    monkeypatch.syspath_prepend(PERFBENCH)  # child.py imports layers.py by name
    assert load_perfbench("child").blas_threads() == 1


def peak_bytes(call):
    """Peak of the memory that numpy and Python allocate during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_panel_integrators_hold_one_block_at_a_time(monkeypatch):
    # at the node cap a grid is 128 blocks; sweeping it must not cost more
    # memory than one block, or a tolerance tighter than rounding allows ends
    # in an out-of-memory kill instead of exit code 3
    block = 64
    monkeypatch.setattr(quadrature_module, "_BLOCK_PANELS", block)
    env = GaussianEnvelope(1.0)

    def integral(panels):
        perturbation_module._panel_batch.cache_clear()
        perturbation_module._panel_integral(env, (0.9, -0.6, 0.7), (panels,))

    def integral_pair(panels):
        # a refinement's first two counts, swept together
        perturbation_module._panel_batch.cache_clear()
        perturbation_module._panel_integral(env, (0.9, -0.6, 0.7), (panels, 2 * panels))

    system = LadderSystem((0.0, 25.0, 59.0), (1.0, 1.0))
    field = ControlField(
        tuple(PulseComponent(0.05, 0.0, w) for w in (25.0, 34.0)), RectangularEnvelope(3.0)
    )

    def propagation(panels):
        # two levels of the one panel count: the value is evaluated twice at it
        monkeypatch.setattr(tdse_module, "_panel_levels", lambda nodes: [panels, panels])
        propagate(system, field)

    for run in (integral, integral_pair, propagation):
        run(block)  # fills the rule caches
        one = peak_bytes(lambda: run(block))
        eight = peak_bytes(lambda: run(8 * block))
        assert eight <= 2 * one, run.__name__


def test_offset_draw_holds_one_chunk_at_a_time():
    # the Philox words and their offsets are computed a chunk of rows at a
    # time, so a large table costs its own size and a few MiB more, not a
    # multiple of it
    noise = NoiseSpec((ComponentNoise(UniformNoise(0.1), GaussianNoise(0.2), UniformNoise(0.3)),))
    draw_offsets(noise, 2, 0)
    samples = 200_000
    table_bytes = samples * 3 * 8
    assert peak_bytes(lambda: draw_offsets(noise, samples, 0)) <= table_bytes + 3 * 2**20


def test_acceptance_6_propagation_pass_count(monkeypatch):
    # the pass count comes from the bound on the powers of |S|; a looser
    # bound (the geometric one spent 41 passes here) shows as more passes.
    # The a-priori error estimate skips the 9-panel level (11 passes) that
    # cannot agree with the next one at these tolerances
    system = LadderSystem((0.0, 25.0, 59.0), (1.0, 1.0))
    field = ControlField(
        tuple(PulseComponent(0.05, 0.0, w) for w in (25.0, 34.0)), RectangularEnvelope(3.0)
    )
    passes = []
    real = tdse_module._panel_propagators

    def spy(low, half, count):
        passes.append(count)
        return real(low, half, count)

    monkeypatch.setattr(tdse_module, "_panel_propagators", spy)
    propagate(system, field, PropagationSpec(0.0, 3.0, 1e-10, 1e-13))
    assert len(passes) == 2 and sum(passes) <= 17


def test_cli_import_builds_no_panel_tables():
    # the panel rule, the table of powers of |S|, the time quadrature's
    # batch plans and batches and the delay-grid layouts are built at first
    # use, so that a run's set-up time does not pay for them
    code = (
        "import laddernoise.cli, laddernoise.quadrature as q, laddernoise.tdse as t, "
        "laddernoise.perturbation as p; "
        "print(*(f.cache_info().currsize for f in (q._panel_rule, t._power_norms, "
        "q._panel_batches, p._stacked_rule, p._panel_batch, p._delay_grid)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] * 6


# run in a fresh interpreter: every public function of numpy.linalg raises,
# then each CLI command runs and the polynomial package and numpy.random
# must stay unloaded
NO_LAPACK_RUN = """
import sys
import numpy.linalg

def refuse(*args, **kwargs):
    raise AssertionError("numpy.linalg was called")

for name in numpy.linalg.__all__:
    if not isinstance(getattr(numpy.linalg, name), type):
        setattr(numpy.linalg, name, refuse)

from laddernoise.cli import main

for command, config, out in zip(*[iter(sys.argv[1:])] * 3):
    assert main([command, "--config", config, "--out", out]) == 0, command
print("numpy.polynomial" in sys.modules, "numpy.random" in sys.modules)
"""


def test_runs_load_no_polynomial_package_and_call_no_linalg(tmp_path):
    # every Gauss-Legendre rule comes from quadrature._gauss_legendre and the
    # truncation radius from its closed-form eigenvalue, so a TDSE ensemble, a
    # Gaussian closed-form ensemble, a perturb-time scan and a Monte Carlo
    # optimization need neither; the offset table computes its own Philox
    # words, so none of them loads numpy.random
    workloads = load_perfbench("workloads")
    args = []
    for name in ("tdse_ensemble", "gauss_ensemble", "quad_scan", "mc_optimize"):
        base = type(workloads.WORKLOADS[name])
        workload = type(base.__name__, (base,), SMALL_WORKLOADS[name])()
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(workload.make_config(np.random.default_rng(1))))
        args += [workload.command, str(config), str(tmp_path / f"{name}.csv")]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", NO_LAPACK_RUN, *args], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"


def test_readme_quick_start_runs():
    # the documented library calls must keep working as the API changes
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    stats = namespace["stats"]
    # uniform half-width 0.3 on unit amplitudes lifts the mean by (1 + 0.03)^2
    assert abs(stats.mean - 0.25 * 1.03**2) < 5 * stats.std_error


def unused_imports(source):
    """The names ``source`` imports and never reads, but for ``# noqa: F401`` lines.

    A name read anywhere in the module counts, and so does one listed in
    ``__all__``, which re-exports it.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_caught():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def test_no_module_imports_a_name_it_never_uses():
    package = os.path.join(ROOT, "src", "laddernoise")
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                unused = unused_imports(fh.read())
            if unused:
                found[name] = unused
    assert found == {}
