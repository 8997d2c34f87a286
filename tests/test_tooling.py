"""The benchmark tracer can wrap every binding it names; the README's code runs."""

import importlib
import importlib.util
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")
LAYERS = os.path.join(ROOT, "perfbench", "layers.py")


def test_every_tracer_binding_resolves():
    # layers.install fails on a missing binding, so `perfbench/run.py --trace 1`
    # breaks whenever the package drops a name the tracer wraps
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{module_name}.{attr}"
        for bindings in layers.BINDINGS.values()
        for module_name, attr in bindings
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


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
