"""Exported traces pinned byte for byte across commits.

Determinism within one run is tested elsewhere; these pins also catch a
change that alters delivery order, RNG use or event rendering between
commits.  Each pinned run returns the reference readings today, but a
fix of a lost-reading or fringe defect that changes the messages a word
sends (completing the protocol inside one reading context does) still
changes the traces, so it regenerates the pins.  Any change that
deliberately alters protocol traffic regenerates them and says so in
CHANGES.md.  The DOT export holds no params, so a change that only
writes params differently regenerates the JSONL values and keeps the DOT
ones, which then show that no event changed.
``python tests/test_trace_pins.py`` prints the values the current code
gives.
"""

import hashlib
import json
import sys
from collections import Counter

import pytest

from helpers import DEMO_SENTENCE, corpus_cases, fs_text

from wordactors import events as ev
from wordactors import protocol as pt
from wordactors import runtime as rt
from wordactors.oracle import oracle_parse

PP = "mit einer Harddisk".split()
PP3 = "Compaq liefert einen Rechner".split() + 3 * PP
DEEP3 = "Compaq entwickelt einen Notebook".split() + 3 * PP

# (tokens, kb fixture, mode, seed) -> sha256 of the JSONL and of the DOT export
PINS = [
    (DEMO_SENTENCE, "demo_kb", "sequential", 1,
     "d396bdfdc308435c31a8d20fee16cca3c9b03d0feb4e2e037109aeaa0f46d40f",
     "4d47e724ec8017e9667d327a60ee7476e1ed517f44a7daa153550685270f9832"),
    (DEMO_SENTENCE, "demo_kb", "parallel", 1,
     "5f65bc6e27f247ba6ca5bd8e94d2e1816a6850f083ecad18476e3e65fd7bee69",
     "de64426b8235c3cc8792f3bcc06af388ccc04c08a4609fe7cfee264a8dbb8d69"),
    (PP3, "demo_kb", "parallel", 0,
     "788eca9cb3851e01cd1e62f796c9b8a5ebea8656282cd31705bbdc44b6d38111",
     "f387839003c8817210a2df5634d08e6ee0fb467481a4b9a5b5161b1ecba24682"),
    (DEEP3, "demo_kb", "sequential", 1,
     "a4bf78feffb572ba50c1ae0278d8f22ce2e6684116eb27f0338c869fcb8aec22",
     "7a19bab6cded93606ccef34f5e980a0cf7e40dbdb305e263259b00a1343659a3"),
    # the other KB: two readings, so this run splits and unifies on a copy
    (DEMO_SENTENCE, "permissive_kb", "sequential", 2,
     "d463c8b4ad5f1fdb5a9a4a5ee9e4aa8a4c0da1f24792a86f5257438ba0c8a611",
     "e2cb57d806709dcc7407b337b3fa887eb5d44c9d40f37fd13b2efa9b11744bca"),
]


def _readings(trees):
    return Counter(t.canonical() for t in trees)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


PIN_IDS = ["demo-sequential", "demo-parallel", "ppchain3-parallel",
           "deepchain3-sequential", "demo-permissive-sequential"]


@pytest.mark.parametrize("tokens, kb, mode, seed, jsonl_sha, dot_sha", PINS, ids=PIN_IDS)
def test_export_bytes_are_pinned(request, demo_lexicon, tokens, kb, mode, seed,
                                 jsonl_sha, dot_sha):
    assert pin_digests(demo_lexicon, request.getfixturevalue(kb), tokens, mode,
                       seed) == (jsonl_sha, dot_sha)


def pin_digests(lexicon, kb, tokens, mode, seed):
    """sha256 of the JSONL and of the DOT export of one pinned run."""
    system, net, trees = pt.run_parse(lexicon, kb, list(tokens), seed=seed, mode=mode)
    want = _readings(oracle_parse(lexicon, kb, list(tokens)))
    assert _readings(trees) == want
    # several readings of one sentence need splits
    assert _splits(system) == (len(want) > 1)
    return _sha(ev.export(net, "jsonl")), _sha(ev.export(net, "dot"))


def _splits(system):
    """Whether a word actor of the run holds a reading other than the base."""
    return any(a.state.reading for a in pt._word_actors(system))


# sha256 over the JSONL and over the DOT exports of every run of the sweep
# below, in order; each of these runs returns the reference readings
SWEEP_JSONL_SHA = "340dc1cf3c91f395745ef7d7e763642d34a498ec4ff06085d9b9559ba7c75ffc"
SWEEP_DOT_SHA = "17f50f9b05934119680d409e4d87caafa08f9517ce21ae61a041d42767c53762"


def test_sweep_exports_are_pinned(demo_lexicon, demo_kb, permissive_kb):
    assert sweep_digests(demo_lexicon, demo_kb, permissive_kb) == (SWEEP_JSONL_SHA,
                                                                   SWEEP_DOT_SHA)


def sweep_digests(lexicon, demo_kb, permissive_kb):
    runs = [(list(tokens), kb) for kb in (demo_kb, permissive_kb)
            for _want, tokens in corpus_cases()]
    runs += [("Compaq entwickelt einen Notebook".split() + k * PP, demo_kb) for k in range(7)]
    runs += [("Compaq liefert einen Rechner".split() + k * PP, demo_kb) for k in range(2)]

    jsonl, dot = hashlib.sha256(), hashlib.sha256()
    for tokens, kb in runs:
        want = _readings(oracle_parse(lexicon, kb, tokens))
        for mode in ("sequential", "parallel"):
            for seed in range(20):
                _system, net, trees = pt.run_parse(lexicon, kb, tokens, seed=seed, mode=mode)
                assert _readings(trees) == want, (tokens, mode, seed)
                jsonl.update(ev.export(net, "jsonl").encode())
                dot.update(ev.export(net, "dot").encode())
    return jsonl.hexdigest(), dot.hexdigest()


# Events keep their params unrendered until export, so the export shows a
# params value as it is at the end of the run.  Each delivery's params,
# rendered the moment they are delivered, must equal the exported ones: a
# handler that mutates a sent or received value, or an encoder that writes
# protocol traffic differently from ``json.dumps`` with a hook that writes
# feature structures as their text, fails here.
# The pins hold a splitting ppchain run in parallel mode; one in sequential
# mode is added.
SNAPSHOT_RUNS = [pin[:4] for pin in PINS] + [(PP3, "demo_kb", "sequential", 0)]


@pytest.mark.parametrize("tokens, kb, mode, seed", SNAPSHOT_RUNS,
                         ids=PIN_IDS + ["ppchain3-sequential"])
def test_exported_params_equal_their_delivery_snapshots(request, monkeypatch, demo_lexicon,
                                                        tokens, kb, mode, seed):
    snapshots = {}
    execute = rt.System._execute

    def snapshot_then_execute(system, target, key, params, cause):
        # _execute records the event first, so it gets the next id
        snapshots[len(system.net.events)] = json.dumps(params, sort_keys=True,
                                                       default=fs_text)
        return execute(system, target, key, params, cause)

    monkeypatch.setattr(rt.System, "_execute", snapshot_then_execute)
    system, net, _trees = pt.run_parse(demo_lexicon, request.getfixturevalue(kb),
                                       list(tokens), seed=seed, mode=mode)
    delivered = [e.event_id for e in net.events if e.key != "created"]
    assert sorted(snapshots) == delivered
    if tokens is PP3:
        assert _splits(system)
    for event_id, line in enumerate(ev.export(net, "jsonl").splitlines()):
        if event_id in snapshots:
            start = line.index('"params": ') + len('"params": ')
            end = line.rindex(', "stateVersion": ')
            assert line[start:end] == snapshots[event_id], event_id


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_export_builds_no_encoder_per_line(monkeypatch, demo_lexicon, demo_kb, mode):
    """A JSONL export writes every line's params through the one encoder it
    builds, and a str key takes json's path that builds none, so
    ``JSONEncoder.iterencode``, which builds an encoder per call, is never
    called.  Without json's C accelerator the params of each event take
    that path again, bar those of an event that holds the very params dict
    of its one cause, a forwarded message, whose text is written again.
    That shows that the count works, and the bytes are the same."""
    _system, net, _trees = pt.run_parse(demo_lexicon, demo_kb, list(DEEP3),
                                        seed=0, mode=mode)

    def calls_during_export():
        calls = []
        iterencode = json.JSONEncoder.iterencode

        def counting(self, o, _one_shot=False):
            calls.append(1)
            return iterencode(self, o, _one_shot)

        with monkeypatch.context() as patch:
            patch.setattr(json.JSONEncoder, "iterencode", counting)
            text = ev.export(net, "jsonl")
        return len(calls), text

    count, text = calls_during_export()
    assert count == 0
    events = net.events
    forwarded = sum(1 for e in events if len(e.causes) == 1
                    and events[min(e.causes)].params is e.params)
    assert forwarded > 0
    with monkeypatch.context() as patch:
        patch.setattr(json.encoder, "c_make_encoder", None)
        assert calls_during_export() == (len(events) - forwarded, text)


if __name__ == "__main__":
    from helpers import fixture_text

    from wordactors import concepts as cn
    from wordactors import lexicon as lx

    lexicon = lx.load_lexicon(fixture_text("demo.lex"))
    kbs = {"demo_kb": cn.load_kb(fixture_text("demo.kb")),
           "permissive_kb": cn.load_kb(fixture_text("demo_permissive.kb"))}
    for pin_id, (tokens, kb, mode, seed, _jsonl, _dot) in zip(PIN_IDS, PINS):
        jsonl_sha, dot_sha = pin_digests(lexicon, kbs[kb], tokens, mode, seed)
        sys.stdout.write(f"{pin_id}\n  jsonl {jsonl_sha}\n  dot   {dot_sha}\n")
    jsonl_sha, dot_sha = sweep_digests(lexicon, kbs["demo_kb"], kbs["permissive_kb"])
    sys.stdout.write(f"SWEEP_JSONL_SHA = \"{jsonl_sha}\"\nSWEEP_DOT_SHA = \"{dot_sha}\"\n")
