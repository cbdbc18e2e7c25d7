"""Event recording, script derivation, trace validation, export, comparison."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DEMO_SENTENCE, corpus_cases, fixture_text

from wordactors import events as ev
from wordactors import protocol as pt
from wordactors import runtime as rt
from wordactors.concepts import load_kb
from wordactors.lexicon import load_lexicon


def _behavior(action_trees, distribution_sends=None):
    return rt.BehaviorDef(name="b", action_trees=action_trees,
                          distribution_sends=distribution_sends or {})


# -- recording ---------------------------------------------------------------

def test_first_event_gets_id_zero():
    net = ev.EventNetwork()
    assert net.record(1, "k", {}, [], 0) == 0
    assert net.events[0].causes == frozenset()


def test_causes_reference_earlier_events():
    net = ev.EventNetwork()
    net.record(1, "k", {}, [], 0)
    eid = net.record(1, "k", {}, [0], 0)
    assert net.events[eid].causes == {0}


def test_forward_reference_is_rejected():
    net = ev.EventNetwork()
    with pytest.raises(ValueError, match="cause 99"):
        net.record(1, "k", {}, [99], 0)


def test_causes_closure_is_transitive():
    net = ev.EventNetwork()
    net.record(1, "a", {}, [], 0)
    net.record(1, "b", {}, [0], 0)
    net.record(1, "c", {}, [1], 0)
    net.record(2, "d", {}, [], 0)
    clo = ev.causes_closure(net)
    assert clo.leq(0, 2)
    assert not clo.leq(2, 0)
    assert clo.concurrent(3, 2)
    assert not clo.concurrent(0, 0)


# -- script derivation --------------------------------------------------------

def test_body_without_sends_derives_nothing():
    b = _behavior({"k": ev.Seq(ev.Create("b"), ev.Become("note"))})
    assert ev.derive_script(b)["k"] == set()


def test_if_else_branches_take_opposite_guards():
    b = _behavior({"k": ev.If("cond", ev.Send("x", "k1"), ev.Send("y", "k2"))})
    assert ev.derive_script(b)["k"] == {
        ("k1", "cond", False),
        ("k2", "¬cond", False),
    }


def test_distribution_sends_carry_the_distribution_guard():
    b = _behavior({"k": ev.Send("x", "k1")}, {"k": [("k", False)]})
    assert ev.derive_script(b)["k"] == {("k1", "", False), ("k", "distribution", False)}


def test_word_actor_search_script():
    word = pt.word_behavior()
    got = {(key, guard) for key, guard, _ in ev.derive_script(word)[pt.SEARCH_HEAD]}
    assert got == {
        ("receipt", "no constraint satisfied"),
        ("headFound", "valency constraint satisfied"),
        ("searchHead", "distribution"),
    }


def test_adding_a_send_never_removes_pairs():
    base = _behavior({"k": ev.Send("x", "k1")})
    wider = _behavior({"k": ev.Seq(ev.Send("x", "k1"), ev.Send("y", "k2"))})
    assert ev.derive_script(base)["k"] <= ev.derive_script(wider)["k"]


# -- event type network -------------------------------------------------------

def test_single_self_send_is_a_self_loop():
    etn = ev.derive_etn([_behavior({"k": ev.Send("self", "k")})])
    assert etn.nodes == {"k"}
    assert etn.key_pairs() == {("k", "k")}


NORMATIVE = {
    ("searchHead", "searchHead"), ("searchHead", "receipt"), ("searchHead", "headFound"),
    ("headFound", "headAccepted"), ("headFound", "updateFeatures"),
    ("headFound", "copyStructure"), ("headFound", "duplicateStructure"),
    ("headAccepted", "receipt"), ("headAccepted", "searchHead"),
    ("receipt", "scanNext"), ("updateFeatures", "updateFeatures"),
    ("copyStructure", "copyStructure"), ("copyStructure", "headAccepted"),
    ("duplicateStructure", "copyStructure"), ("duplicateStructure", "headFound"),
    ("scanNext", "searchHead"), ("scanNext", "scanNext"),
}


def test_full_program_matches_the_normative_edge_set():
    etn = ev.derive_etn(pt.protocol_behaviors())
    visible = {(s, d) for s, d, _, plumbing in etn.edges if not plumbing}
    assert visible == NORMATIVE
    plumbing = {(s, d) for s, d, _, plumbing in etn.edges if plumbing}
    assert plumbing == {
        ("headFound", "headRetracted"),
        ("headRetracted", "receipt"),
        ("headAccepted", "scanNext"),
        ("headAccepted", "updateFeatures"),
    }


def test_dropping_a_handler_drops_its_edges():
    word = pt.word_behavior()
    trimmed = rt.BehaviorDef(
        name=word.name,
        handlers=dict(word.handlers),
        action_trees={k: v for k, v in word.action_trees.items()
                      if k != pt.COPY_STRUCTURE},
        distribution_sends=word.distribution_sends,
    )
    etn = ev.derive_etn([trimmed, pt.scanner_behavior()])
    assert not any(src == pt.COPY_STRUCTURE for src, _ in etn.key_pairs())


# -- trace validation --------------------------------------------------------

def run_demo(seed=0, kb_name="demo.kb", sentence=DEMO_SENTENCE):
    lex = load_lexicon(fixture_text("demo.lex"))
    kb = load_kb(fixture_text(kb_name))
    return pt.run_parse(lex, kb, list(sentence), seed=seed)


def test_real_runs_validate_against_the_etn():
    _, net, _ = run_demo()
    etn = ev.derive_etn(pt.protocol_behaviors())
    assert ev.validate_trace(net, etn) == []


def test_unknown_edge_is_diagnosed():
    etn = ev.derive_etn(pt.protocol_behaviors())
    net = ev.EventNetwork()
    net.record(1, "receipt", {}, [], 0)
    net.record(1, "headFound", {}, [0], 0)
    found = ev.validate_trace(net, etn)
    assert len(found) == 1
    assert "receipt" in found[0] and "headFound" in found[0]


def test_internal_creation_events_are_exempt():
    etn = ev.derive_etn(pt.protocol_behaviors())
    net = ev.EventNetwork()
    net.record(1, "scanNext", {}, [], 0)
    net.record(2, ev.CREATED, {"behavior": "word"}, [0], 0)
    assert ev.validate_trace(net, etn) == []


def test_broken_linearization_is_diagnosed():
    etn = ev.derive_etn(pt.protocol_behaviors())
    net = ev.EventNetwork()
    # bypass record() to fabricate an out-of-order list
    net.events.append(ev.Event(0, 1, "receipt", {}, frozenset({1}), 0))
    net.events.append(ev.Event(1, 1, "searchHead", {}, frozenset(), 0))
    assert any("does not precede" in d for d in ev.validate_trace(net, etn))


# -- export --------------------------------------------------------------

def test_export_empty_network():
    net = ev.EventNetwork()
    assert ev.export(net, "jsonl") == ""
    assert ev.export(net, "dot") == "digraph events {\n  rankdir=LR;\n}\n"


def test_jsonl_fields_are_exactly_pinned():
    _, net, _ = run_demo()
    lines = ev.export(net, "jsonl").splitlines()
    assert len(lines) == len(net.events)
    for line in lines:
        rec = json.loads(line)
        assert sorted(rec) == ["causes", "id", "key", "params", "stateVersion", "target"]


def test_dot_contains_the_search_node_label():
    _, net, _ = run_demo()
    assert '[Notebook] <= searchHead' in ev.export(net, "dot")


def test_export_is_byte_stable():
    _, net1, _ = run_demo(seed=7)
    _, net2, _ = run_demo(seed=7)
    assert ev.export(net1, "jsonl") == ev.export(net2, "jsonl")
    assert ev.export(net1, "dot") == ev.export(net2, "dot")


def test_etn_jsonl_is_one_record_per_edge():
    etn = ev.derive_etn(pt.protocol_behaviors())
    lines = ev.export(etn, "jsonl").splitlines()
    assert len(lines) == len(etn.edges)
    rec = json.loads(lines[0])
    assert sorted(rec) == ["from", "guard", "plumbing", "to"]


def test_export_rejects_unknown_format():
    with pytest.raises(ValueError):
        ev.export(ev.EventNetwork(), "yaml")
    with pytest.raises(TypeError):
        ev.export(object(), "dot")


# The event-network exporters as first written: one json.dumps per record,
# labels through name_of.  The exporters must stay byte-identical to these.

def _reference_jsonl(net):
    lines = []
    for e in net.events:
        lines.append(json.dumps({
            "id": e.event_id,
            "target": e.target,
            "key": e.key,
            "params": e.params,
            "causes": sorted(e.causes),
            "stateVersion": e.state_version,
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def _reference_dot(net):
    lines = ["digraph events {", "  rankdir=LR;"]
    for e in net.events:
        lines.append(f'  e{e.event_id} [label="[{net.name_of(e.target)}] <= {e.key}"];')
    edges = sorted((c, e.event_id) for e in net.events for c in e.causes)
    for src, dst in edges:
        lines.append(f"  e{src} -> e{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _rendered(export, net):
    """The export's text, or the error it raised (unsortable causes or ids)."""
    try:
        return export(net)
    except TypeError as err:
        return type(err), str(err)


def _assert_exports_match_reference(net):
    assert _rendered(lambda n: ev.export(n, "jsonl"), net) == _rendered(_reference_jsonl, net)
    assert _rendered(lambda n: ev.export(n, "dot"), net) == _rendered(_reference_dot, net)


# ASCII letters next to what JSON must escape or write as \uXXXX: quote,
# backslash, newline and other control characters, non-ASCII inside and
# outside the basic plane.
_texts = st.text('aZ "\\\n\t\x00\x1f\x7fé€\u2028😀', max_size=5)
_params = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=5)
# what a hand-appended Event may hold where the runtime writes an int
_loose_ints = st.integers() | st.booleans() | st.none() | _texts


@st.composite
def _recorded_networks(draw):
    net = ev.EventNetwork()
    for _ in range(draw(st.integers(0, 8))):
        n = len(net.events)
        causes = draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []
        net.record(draw(st.integers(0, 4)), draw(_texts),
                   draw(st.dictionaries(_texts, _params, max_size=3)),
                   causes, draw(st.integers(0, 9)))
    return net


@st.composite
def _hand_made_networks(draw):
    net = ev.EventNetwork()
    for _ in range(draw(st.integers(0, 5))):
        causes = draw(st.frozensets(st.integers() | st.booleans(), max_size=4)
                      | st.frozensets(_texts, max_size=3))
        net.events.append(ev.Event(draw(_loose_ints), draw(_loose_ints), draw(_texts),
                                   draw(_params), causes, draw(_loose_ints)))
    return net


@st.composite
def _networks(draw):
    kind = draw(st.sampled_from(["recorded", "subnetwork", "hand-made"]))
    if kind == "hand-made":
        net = draw(_hand_made_networks())
    else:
        net = draw(_recorded_networks())
        if kind == "subnetwork":
            net = net.subnetwork(draw(st.sets(st.integers(0, max(len(net.events) - 1, 0)))))
    targets = st.integers(0, 4) | _loose_ints
    for actor_id, name in draw(st.dictionaries(targets, _texts, max_size=4)).items():
        net.register_actor(actor_id, name)
    return net


@settings(max_examples=80)
@given(_networks())
def test_event_exports_equal_the_reference_exporters(net):
    _assert_exports_match_reference(net)


@pytest.mark.slow
def test_run_exports_equal_the_reference_exporters_over_a_wide_sweep(
        demo_lexicon, demo_kb, permissive_kb):
    runs = [(list(tokens), kb, range(100)) for kb in (demo_kb, permissive_kb)
            for _want, tokens in corpus_cases()]
    for base in ("Compaq liefert einen Rechner", "Compaq entwickelt einen Notebook"):
        runs += [(base.split() + k * "mit einer Harddisk".split(), demo_kb, range(20))
                 for k in range(9)]
    for tokens, kb, seeds in runs:
        for mode in ("sequential", "parallel"):
            for seed in seeds:
                _system, net, _trees = pt.run_parse(demo_lexicon, kb, tokens, seed=seed,
                                                    mode=mode, debug_checks=False)
                _assert_exports_match_reference(net)


# -- comparison ----------------------------------------------------------------

def test_network_equals_itself():
    _, net, _ = run_demo()
    assert ev.compare_networks(net, net, "exact").equal
    assert ev.compare_networks(net, net, "up-to-actor-renaming").equal


def test_exact_difference_names_the_line():
    _, a, _ = run_demo(seed=0)
    _, b, _ = run_demo(seed=1)
    verdict = ev.compare_networks(a, b, "exact")
    if not verdict.equal:
        assert "line" in verdict.detail


def test_etn_difference_names_the_edge():
    full = ev.derive_etn(pt.protocol_behaviors())
    word = pt.word_behavior()
    trimmed = rt.BehaviorDef(
        name=word.name,
        handlers=dict(word.handlers),
        action_trees={**word.action_trees, pt.RECEIPT: ev.Seq()},
        distribution_sends=word.distribution_sends,
    )
    smaller = ev.derive_etn([trimmed, pt.scanner_behavior()])
    verdict = ev.compare_networks(smaller, full, "exact")
    assert not verdict.equal
    assert "receipt->scanNext" in verdict.detail


def test_renaming_mode_tolerates_id_shifts():
    a = ev.EventNetwork()
    a.register_actor(1, "w")
    a.record(1, "k", {"n": 1}, [], 0)
    b = ev.EventNetwork()
    b.register_actor(5, "w")
    b.record(5, "k", {"n": 2}, [], 0)
    assert not ev.compare_networks(a, b, "exact").equal
    assert ev.compare_networks(a, b, "up-to-actor-renaming").equal


def test_renaming_mode_still_needs_matching_surfaces():
    a = ev.EventNetwork()
    a.register_actor(1, "w")
    a.record(1, "k", {}, [], 0)
    b = ev.EventNetwork()
    b.register_actor(1, "v")
    b.record(1, "k", {}, [], 0)
    assert not ev.compare_networks(a, b, "up-to-actor-renaming").equal


def test_compare_rejects_unknown_mode():
    net = ev.EventNetwork()
    with pytest.raises(ValueError):
        ev.compare_networks(net, net, "approximately")
