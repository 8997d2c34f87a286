"""The benchmark tracer in perfbench/layers.py can wrap every binding it names."""

import importlib
import importlib.util
import os

LAYERS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "layers.py")


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
