"""The benchmark's tracer still finds, and still sees called, every package
function it wraps.

perfbench/tracer.py wraps named functions of the package to time each
layer; a function it cannot find, or one the runtime no longer calls
through the wrapped name, makes that layer's metrics read 0.  This test
loads the tracer by path, read-only, so that renaming, deleting or
bypassing one of those functions fails here instead of silently dropping a
metric."""

import importlib.util
from pathlib import Path

import pytest

from helpers import DEMO_SENTENCE

from wordactors import concepts, events, lexicon, oracle, protocol, runtime

MODULES = {"runtime": runtime, "events": events, "protocol": protocol,
           "oracle": oracle, "lexicon": lexicon, "concepts": concepts}

# Layers every traced parse must call, in either mode.
PARSE_LAYERS = ["runtime.deliver_next", "runtime._execute", "runtime.allowed_keys",
                "events.record", "protocol._assert_on_fringe"]


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_puts_it_back():
    tracer = load_tracer().Tracer(MODULES)
    tracer.install()
    try:
        # The params renderer is gone: the JSONL export writes params with
        # json's own encoder, so no delivery renders anything.  Its layer,
        # runtime.render_us_per_delivery, reads 0 either way.
        assert tracer.absent == ["runtime._render_value"]
    finally:
        tracer.uninstall()
    assert tracer.not_restored() == []


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_a_traced_parse_calls_every_layer(demo_lexicon, demo_kb, mode):
    tracer = load_tracer().Tracer(MODULES)
    tracer.install()
    try:
        tracer.begin(mode)
        system, scanner = protocol.build_system(demo_lexicon, demo_kb, DEMO_SENTENCE,
                                                mode=mode)
        tracer.wrap_system(system)
        system.kick(scanner, protocol.SCAN_NEXT)
        net = system.run_to_quiescence()
        tracer.end()
    finally:
        tracer.uninstall()
    assert tracer.not_restored() == []

    calls = tracer.totals[mode]
    delivered = sorted({e.key for e in net.events if e.key != events.CREATED})
    expected = (PARSE_LAYERS + ["pre:searchHead"]
                + [f"handler:{key}" for key in delivered]
                + [f"service:{name}" for name in system.services]
                + (["runtime._fill_batch"] if mode == "parallel" else []))
    assert [name for name in expected if calls[name][0] == 0] == []
