"""The benchmark's tracer still finds every package function it wraps.

perfbench/tracer.py wraps named functions of the package to time each
layer; a function it cannot find makes that layer's metrics read 0.  This
test loads the tracer by path, read-only, so that renaming or deleting one
of those functions fails here instead of silently dropping a metric."""

import importlib.util
from pathlib import Path

from wordactors import concepts, events, lexicon, oracle, protocol, runtime


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_puts_it_back():
    modules = {"runtime": runtime, "events": events, "protocol": protocol,
               "oracle": oracle, "lexicon": lexicon, "concepts": concepts}
    tracer = load_tracer().Tracer(modules)
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert tracer.not_restored() == []
