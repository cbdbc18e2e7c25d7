"""Event recording, script derivation, trace validation, export, comparison."""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DEMO_SENTENCE, corpus_cases, fixture_text, fs_text

from wordactors import events as ev
from wordactors import protocol as pt
from wordactors import runtime as rt
from wordactors.concepts import load_kb
from wordactors.features import parse_fs
from wordactors.lexicon import load_lexicon


def _behavior(action_trees, distribution_sends=None):
    return rt.BehaviorDef(name="b", action_trees=action_trees,
                          distribution_sends=distribution_sends or {})


# -- recording ---------------------------------------------------------------

def test_first_event_gets_id_zero():
    net = ev.EventNetwork()
    event = net.record(1, "k", {}, [], 0)
    assert event.event_id == 0
    assert net.events == (event,)
    assert event.causes == frozenset()


def test_causes_reference_earlier_events():
    net = ev.EventNetwork()
    net.record(1, "k", {}, [], 0)
    event = net.record(1, "k", {}, [0], 0)
    assert net.events[1] is event
    assert event.causes == {0}


def test_forward_reference_is_rejected():
    net = ev.EventNetwork()
    with pytest.raises(ValueError, match="cause 99"):
        net.record(1, "k", {}, [99], 0)


@pytest.mark.parametrize("cause", [True, 1.0, "a", None])
def test_a_cause_that_is_no_event_id_is_rejected(cause):
    # a bool or float cause would be written as true or 1.0 and drawn in
    # DOT from a node that does not exist; a str cause is no id either
    net = ev.EventNetwork()
    for _ in range(3):
        net.record(1, "k", {}, [], 0)
    with pytest.raises(ValueError, match=re.escape(f"event 3: cause {cause!r} is not an event id")):
        net.record(1, "k", {}, [0, cause], 0)
    assert len(net.events) == 3


@pytest.mark.parametrize("field, value", [
    ("target", True), ("target", "1"), ("target", None), ("state_version", 1.0),
    ("key", b"k"), ("key", None),
])
def test_a_target_key_or_state_version_of_another_type_is_rejected(field, value):
    # a bool target would be written as true, and labeled actorTrue in DOT
    net = ev.EventNetwork()
    for _ in range(3):
        net.record(1, "k", {}, [], 0)
    fields = dict(target=1, key="k", params={}, causes=[0], state_version=0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^event 3: .*{re.escape(repr(value))}"):
        net.record(**fields)
    assert len(net.events) == 3


def test_events_are_a_read_only_snapshot():
    net = ev.EventNetwork()
    first = net.record(1, "k", {}, [], 0)
    events = net.events
    assert events == (first,) and net.events is events
    with pytest.raises(AttributeError):
        net.events.append(ev.Event(1, 1, "k", {}, frozenset(), 0))
    with pytest.raises(AttributeError):
        net.events = []
    second = net.record(1, "k", {}, [0], 0)
    assert net.events == (first, second) and events == (first,)


FIELDS = ("event_id", "target", "key", "params", "causes", "state_version")

# What a plain frozen dataclass of the same fields does: Event's own
# __init__ must not change its repr, equality or immutability.
ReferenceEvent = dataclasses.make_dataclass("Event", FIELDS, frozen=True)


def test_event_fields_are_frozen():
    event = ev.Event(3, 1, "ping", {"n": 1}, frozenset({0, 2}), 4)
    assert tuple(f.name for f in dataclasses.fields(ev.Event)) == FIELDS
    for name in FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(event, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(event, name)
    # A name that is no field cannot be added either.  Python 3.11's frozen
    # slotted dataclasses refuse it with a TypeError from their generated
    # __setattr__, not with FrozenInstanceError.
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        event.extra = 1
    assert not hasattr(event, "__dict__")
    assert [getattr(event, name) for name in FIELDS] == [3, 1, "ping", {"n": 1},
                                                          frozenset({0, 2}), 4]


def test_event_repr_and_eq_are_field_by_field():
    values = (3, 1, "ping", {"n": 1}, frozenset({0, 2}), 4)
    others = (4, 2, "pong", {"n": 2}, frozenset({0}), 5)
    event = ev.Event(*values)
    assert repr(event) == repr(ReferenceEvent(*values))
    assert repr(event) == ("Event(event_id=3, target=1, key='ping', params={'n': 1}, "
                           "causes=frozenset({0, 2}), state_version=4)")
    assert event == ev.Event(*values)
    assert event == ev.Event(**dict(zip(FIELDS, values)))
    for i in range(len(FIELDS)):
        changed = values[:i] + (others[i],) + values[i + 1:]
        assert event != ev.Event(*changed)
        assert (event == ev.Event(*changed)) == (ReferenceEvent(*values)
                                                 == ReferenceEvent(*changed))
    assert event != values
    assert event != ReferenceEvent(*values)


def test_subnetwork_builds_equal_events():
    net = ev.EventNetwork()
    net.record(1, "a", {"n": 0}, [], 0)
    net.record(2, "b", {"n": 1}, [0], 1)
    net.record(1, "c", {"n": 2}, [0, 1], 2)
    # ids are dense again, and a kept cause takes its event's new id
    sub = net.subnetwork([1, 2])
    assert sub.events == (ev.Event(0, 2, "b", {"n": 1}, frozenset(), 1),
                          ev.Event(1, 1, "c", {"n": 2}, frozenset({0}), 2))
    assert all(a.params is b.params for a, b in zip(sub.events, net.events[1:]))
    assert [repr(e) for e in sub.events] == [
        repr(ReferenceEvent(*(getattr(e, name) for name in FIELDS))) for e in sub.events]
    assert net.subnetwork([0, 2]).events == (ev.Event(0, 1, "a", {"n": 0}, frozenset(), 0),
                                             ev.Event(1, 1, "c", {"n": 2}, frozenset({0}), 2))
    assert net.subnetwork(range(3)).events == net.events


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


def test_real_traces_match_the_trace_schema(demo_lexicon, demo_kb):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parents[1] / "docs" / "trace.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    validator.check_schema(schema)
    chain = "Compaq liefert einen Rechner".split()
    runs = [(chain + k * "mit einer Harddisk".split(), mode)
            for k in range(4) for mode in ("sequential", "parallel")]
    runs.append((corpus_cases()[0][1], "sequential"))
    for tokens, mode in runs:
        _system, net, _trees = pt.run_parse(demo_lexicon, demo_kb, list(tokens), seed=0,
                                            mode=mode)
        lines = ev.export(net, "jsonl").splitlines()
        assert len(lines) == len(net.events) > 0
        for position, line in enumerate(lines):
            record = json.loads(line)
            assert record["id"] == position
            assert [error.message for error in validator.iter_errors(record)] == [], line

    # record() refuses a bool cause, which would give a line the schema
    # rejects
    net = ev.EventNetwork()
    for _ in range(3):
        net.record(1, "k", {}, [], 0)
    with pytest.raises(ValueError, match="is not an event id"):
        net.record(1, "k", {}, [True], 0)
    line = json.dumps({"causes": [True], "id": 3, "key": "k", "params": {},
                       "stateVersion": 0, "target": 1}, sort_keys=True)
    assert ([error.message for error in validator.iter_errors(json.loads(line))]
            == ["True is not of type 'integer'"])


# The event-network exporters as first written: one json.dumps per record,
# labels through name_of.  The exporters must stay byte-identical to these.
# Events of a run keep their params unrendered; ``default`` is json's hook
# for what it cannot write itself, fs_text for a run's feature structures.

def _reference_jsonl(net, default=None):
    lines = []
    for e in net.events:
        lines.append(json.dumps({
            "id": e.event_id,
            "target": e.target,
            "key": e.key,
            "params": e.params,
            "causes": sorted(e.causes),
            "stateVersion": e.state_version,
        }, sort_keys=True, default=default))
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


# validate_trace as first written: one (src, dst) tuple per cause, tested
# against the key pairs of the type network.  It must give the same
# diagnostics and raise where this raises.

def _reference_validate_trace(net, etn):
    diagnostics = []
    pairs = etn.key_pairs()
    by_id = {e.event_id: e for e in net.events}
    for position, e in enumerate(net.events):
        if e.event_id != position:
            diagnostics.append(f"event {e.event_id} stored at position {position}")
        for c in e.causes:
            if c not in by_id:
                diagnostics.append(f"event {e.event_id}: unknown cause {c}")
                continue
            if c >= e.event_id:
                diagnostics.append(f"event {e.event_id}: cause {c} does not precede it")
            src, dst = by_id[c].key, e.key
            if src in ev.INTERNAL_KEYS or dst in ev.INTERNAL_KEYS:
                continue
            if (src, dst) not in pairs:
                diagnostics.append(
                    f"causes edge ({src} -> {dst}) at event {e.event_id} is not in the type network")
    return diagnostics


def _assert_exports_match_reference(net, default=None):
    assert ev.export(net, "jsonl") == _reference_jsonl(net, default)
    assert ev.export(net, "dot") == _reference_dot(net)


# ASCII letters next to what JSON must escape or write as \uXXXX: quote,
# backslash, newline and other control characters, non-ASCII inside and
# outside the basic plane.
_texts = st.text('aZ "\\\n\t\x00\x1f\x7fé€\u2028😀', max_size=5)
_params = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=5)


def _name_some_targets(draw, net):
    """Register display names for some of the targets the events have; the
    rest keep the actor<id> fallback."""
    targets = [e.target for e in net.events]
    if targets:
        for target in draw(st.lists(st.sampled_from(targets), max_size=3)):
            net.register_actor(target, draw(_texts))


@st.composite
def _recorded_networks(draw):
    net = ev.EventNetwork()
    for _ in range(draw(st.integers(0, 8))):
        n = len(net.events)
        causes = draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []
        params = draw(st.dictionaries(_texts, _params, max_size=3))
        if n and draw(st.booleans()):
            # as a forwarded message does, share an earlier event's dict
            params = net.events[draw(st.integers(0, n - 1))].params
        net.record(draw(st.integers(0, 4)), draw(_texts | st.just(ev.CREATED)), params,
                   causes, draw(st.integers(0, 9)))
    _name_some_targets(draw, net)
    return net


@st.composite
def _subnetworks(draw, net):
    return net.subnetwork(draw(st.sets(st.integers(0, max(len(net.events) - 1, 0)))))


@st.composite
def _networks(draw):
    """A recorded network, or a subnetwork of one."""
    net = draw(_recorded_networks())
    return draw(_subnetworks(net)) if draw(st.booleans()) else net


@settings(max_examples=80)
@given(_networks())
def test_event_exports_equal_the_reference_exporters(net):
    _assert_exports_match_reference(net)


@st.composite
def _type_networks(draw, net):
    """A type network over the keys of ``net`` and ``created``, with one key
    pair under two guards."""
    keys = [ev.CREATED] + [e.key for e in net.events]
    pairs = st.tuples(st.sampled_from(keys), st.sampled_from(keys))
    etn = ev.EventTypeNetwork()
    for src, dst in draw(st.lists(pairs, max_size=6)):
        etn.edges.add((src, dst, draw(st.sampled_from(["", "g"])), draw(st.booleans())))
    src, dst = draw(pairs)
    etn.edges |= {(src, dst, "g", False), (src, dst, "¬g", True)}
    etn.nodes = {key for edge in etn.edges for key in edge[:2]}
    return etn


@settings(max_examples=120)
@pytest.mark.parametrize("restricted", [False, True], ids=["recorded", "subnetwork"])
@given(data=st.data())
def test_validate_trace_equals_the_reference(restricted, data):
    # the reference still checks positions and causes; a network made by
    # record, or restricted from one, gives it nothing to report there
    net = data.draw(_recorded_networks())
    if restricted:
        net = data.draw(_subnetworks(net))
    etn = data.draw(_type_networks(net))
    assert ev.validate_trace(net, etn) == _reference_validate_trace(net, etn)


class _Opaque:
    pass


_in_itself = {"n": 1}
_in_itself["self"] = _in_itself

# (field of an event, value outside the rule of docs/formats.md)
_REFUSED = [
    ("event_id", True), ("target", "1"), ("causes", [True]),
    ("params", {"tags": {"a", "b"}}), ("params", {"x": [_Opaque()]}),
    ("params", {10: 1, "a": 0}), ("params", _in_itself),
]


@pytest.mark.parametrize("accelerated", [True, False], ids=["c", "python"])
@pytest.mark.parametrize("field, value", _REFUSED,
                         ids=["bool-id", "str-target", "bool-cause", "set", "opaque",
                              "unsortable-keys", "in-itself"])
def test_export_refuses_an_event_outside_the_trace_types(monkeypatch, accelerated,
                                                          field, value):
    good = ev.EventNetwork()
    good.record(1, "k", {"fs": parse_fs("{case: nom|acc}"), "keys": {10: 1, 2: None}}, [], 0)
    good.record(2, "k", {"pair": (1, "a"), "nested": [{"b": 2.5}]}, [0], 1)
    text = ev.export(good, "jsonl")
    if not accelerated:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    # No such event reaches a line: record numbers the events itself and
    # refuses the other fields of the skeleton, the export refuses params.
    net = ev.EventNetwork()
    net.record(1, "k", {"n": 1}, [], 0)
    fields = dict(target=1, key="k", params={}, causes=[0], state_version=0)
    if field == "event_id":
        with pytest.raises(AttributeError):
            net.events.append(ev.Event(value, **fields))
    elif field == "params":
        net.record(**{**fields, field: value})
        with pytest.raises(ValueError, match="^event 1 cannot be exported: "):
            ev.export(net, "jsonl")
    else:
        with pytest.raises(ValueError, match="^event 1: "):
            net.record(**{**fields, field: value})
        assert len(net.events) == 1
    assert ev.export(good, "jsonl") == text


def _one_key_kind_dicts(values):
    """Dicts whose keys are all of one kind json writes itself, so that
    json can sort them."""
    return st.one_of(*(st.dictionaries(keys, values, max_size=3)
                       for keys in (_texts, st.integers(), st.floats(), st.booleans(), st.none())))


_keyed_params = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _texts,
    lambda inner: (st.lists(inner, max_size=3) | st.tuples(inner, inner)
                   | _one_key_kind_dicts(inner)),
    max_leaves=6)


@st.composite
def _keyed_networks(draw):
    net = ev.EventNetwork()
    for _ in range(draw(st.integers(0, 6))):
        n = len(net.events)
        causes = draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []
        net.record(draw(st.integers(0, 4)), draw(_texts), draw(_one_key_kind_dicts(_keyed_params)),
                   causes, draw(st.integers(0, 9)))
    return net


@settings(max_examples=80)
@given(_keyed_networks())
def test_params_with_scalar_keys_and_tuples_are_written_as_json_dumps_writes_them(net):
    _assert_exports_match_reference(net)


@pytest.mark.parametrize("accelerated", [True, False])
def test_params_that_contain_themselves_fail_as_in_json_dumps(monkeypatch, accelerated):
    # json.dumps raises ValueError for them; the export refuses the event
    if not accelerated:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    in_itself = [1]
    in_itself.append(in_itself)
    two_deep = {"a": 1}
    two_deep["inner"] = {"back": two_deep}
    for params in ({"loop": in_itself}, two_deep):
        with pytest.raises(ValueError, match="Circular reference detected"):
            json.dumps(params, sort_keys=True)
        first = ev.EventNetwork()
        first.record(0, "k", params, [], 0)
        second = ev.EventNetwork()
        second.record(0, "k", {"n": 1}, [], 0)
        second.record(0, "k", params, [0], 0)
        for net in (first, second):
            looped = len(net.events) - 1
            with pytest.raises(ValueError, match=f"^event {looped} cannot be exported: "):
                ev.export(net, "jsonl")


def test_a_dict_shared_twice_in_one_params_is_written_twice(monkeypatch):
    # acyclic, so neither json.dumps nor the export may refuse it, with or
    # without json's C accelerator
    shared = {"b": [1, 2]}
    net = ev.EventNetwork()
    net.record(0, "k", {"x": shared, "y": [shared, shared]}, [], 0)
    net.record(0, "k", {"x": shared, "z": {1: shared, 2: [shared]}}, [0], 0)
    text = ev.export(net, "jsonl")
    params = [line[line.index('"params": ') + 10:line.rindex(', "stateVersion": ')]
              for line in text.splitlines()]
    assert params == [
        '{"x": {"b": [1, 2]}, "y": [{"b": [1, 2]}, {"b": [1, 2]}]}',
        '{"x": {"b": [1, 2]}, "z": {"1": {"b": [1, 2]}, "2": [{"b": [1, 2]}]}}',
    ]
    assert params == [json.dumps(e.params, sort_keys=True) for e in net.events]
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert ev.export(net, "jsonl") == text


# A forwarded message keeps its cause's params dict, and the export writes
# the text of such an event's params once.  Each line must still be
# json.dumps of its own record.

def _assert_lines_are_their_records(net):
    assert ev.export(net, "jsonl").splitlines() == _reference_jsonl(net, fs_text).splitlines()


def _holds_its_causes_params(net, e):
    return any(c.event_id in e.causes and c.params is e.params for c in net.events)


def test_a_subnetwork_with_forwarded_searches_exports_its_records(demo_lexicon, demo_kb):
    tokens = "Compaq entwickelt einen Notebook".split() + 2 * "mit einer Harddisk".split()
    _system, net, _trees = pt.run_parse(demo_lexicon, demo_kb, tokens, seed=0)
    forwarded = [e for e in net.events
                 if e.key == pt.SEARCH_HEAD and _holds_its_causes_params(net, e)]
    assert forwarded
    sub = net.subnetwork(e.event_id for e in net.events if e.event_id % 3)
    # a forwarded search kept with its cause writes its cause's params text
    lines = ev.export(sub, "jsonl").splitlines()
    records = [json.loads(line) for line in lines]
    assert [record["id"] for record in records] == list(range(len(sub.events)))

    def params_text(line):
        return line[line.index('"params": '):line.rindex(', "stateVersion": ')]

    kept = [e for e in sub.events if _holds_its_causes_params(sub, e)]
    assert kept
    for e in kept:
        (cause,) = e.causes
        assert params_text(lines[e.event_id]) == params_text(lines[cause])
    _assert_lines_are_their_records(sub)


def test_a_hand_made_event_holding_its_causes_params_exports_its_record():
    params = {"delta": parse_fs("{case: acc}"), "reading": 0, "initiator": 3}
    net = ev.EventNetwork()
    net.record(1, "updateFeatures", params, [], 0)
    net.record(2, "updateFeatures", params, [0], 1)
    net.record(3, "updateFeatures", params, [1], 0)
    net.record(2, "other", {"n": 1}, [2], 2)
    net.record(4, "updateFeatures", params, [0, 1], 0)   # two causes
    net.record(4, "updateFeatures", params, [3], 1)      # a cause with other params
    _assert_lines_are_their_records(net)


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
                _assert_exports_match_reference(net, fs_text)


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
