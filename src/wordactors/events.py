"""Event networks and their static counterpart, the event type network.

The arrival of a message at an actor is an event.  Each event remembers the
events that posted its message (its ``causes``), so a finished run is a
partial order of events; the recorded list order is one valid linearization
of it.  From the declarative action trees of the behaviors one can derive,
without running anything, which message keys can provoke which other keys.
That static key-to-key relation with its guard labels is the event type
network, and every causes edge of every run must project into it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .features import FeatureStructure, render_fs

# Event keys used by the runtime itself rather than by any behavior.
CREATED = "created"
INTERNAL_KEYS = frozenset({CREATED})


@dataclass(frozen=True, slots=True)
class Event:
    event_id: int
    target: int
    key: str
    params: dict
    causes: frozenset
    state_version: int

    def __init__(self, event_id: int, target: int, key: str, params: dict,
                 causes: frozenset, state_version: int):
        # The generated __init__ of a frozen dataclass calls
        # object.__setattr__ once per field.  The slots' own descriptors
        # write the same values and take about a third off every record.
        _set_event_id(self, event_id)
        _set_target(self, target)
        _set_key(self, key)
        _set_params(self, params)
        _set_causes(self, causes)
        _set_state_version(self, state_version)


(_set_event_id, _set_target, _set_key, _set_params, _set_causes,
 _set_state_version) = (Event.__dict__[name].__set__ for name in Event.__slots__)


class EventNetwork:
    """Append-only record of one run.

    ``record`` is the only way in, so every network holds its invariant:
    event *i* sits at position *i*, its target and state version are exactly
    ``int``, its key is exactly ``str``, and its causes are earlier ids.
    """

    def __init__(self):
        self._events: list[Event] = []
        self._snapshot: tuple = ()
        self.actor_names: dict[int, str] = {}

    @property
    def events(self) -> tuple:
        """The recorded events in order, as a read-only tuple."""
        if len(self._snapshot) != len(self._events):
            self._snapshot = tuple(self._events)
        return self._snapshot

    def register_actor(self, actor_id: int, name: str) -> None:
        self.actor_names[actor_id] = name

    def record(self, target: int, key: str, params: dict,
               causes: Iterable[int], state_version: int) -> Event:
        """Append one event and return it.  The event keeps ``params``
        itself, not a copy, so the caller must not edit that dict later.
        ``target`` and ``state_version`` must be exactly ``int``, ``key``
        exactly ``str``, and each cause the ``int`` id of an earlier event;
        otherwise ``ValueError`` names the event id and nothing is recorded.
        The JSONL export still refuses params it cannot write (see
        ``export``)."""
        events = self._events
        event_id = len(events)
        if type(target) is not int or type(state_version) is not int or type(key) is not str:
            raise ValueError(f"event {event_id}: target {target!r} and state version "
                             f"{state_version!r} must be ints and key {key!r} a str")
        cause_set = frozenset(causes)
        for c in cause_set:
            if type(c) is not int:
                raise ValueError(f"event {event_id}: cause {c!r} is not an event id")
            if not (0 <= c < event_id):
                raise ValueError(f"event {event_id}: cause {c} not yet recorded")
        event = Event(event_id, target, key, params, cause_set, state_version)
        events.append(event)
        return event

    def name_of(self, actor_id: int) -> str:
        try:
            return self.actor_names[actor_id]
        except KeyError:
            return f"actor{actor_id}"

    def subnetwork(self, ids: Iterable[int]) -> "EventNetwork":
        """Restriction to a subset of events, recorded anew in list order:
        the kept events get the dense ids 0, 1, ..., their causes inside the
        subset are renumbered with them, and causes outside it drop.  Each
        event keeps its params dict."""
        keep = set(ids)
        sub = EventNetwork()
        sub.actor_names = dict(self.actor_names)
        renumbered: dict[int, int] = {}
        for e in self._events:
            if e.event_id in keep:
                causes = [renumbered[c] for c in e.causes if c in renumbered]
                renumbered[e.event_id] = sub.record(e.target, e.key, e.params, causes,
                                                    e.state_version).event_id
        return sub


# --------------------------------------------------------------------------
# Action trees: the declarative mirror of each handler, and what can be
# derived from them without executing anything.

@dataclass(frozen=True)
class Send:
    target: str          # descriptive only; derivation works on keys
    key: str
    plumbing: bool = False


@dataclass(frozen=True)
class Seq:
    children: tuple

    def __init__(self, *children):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True)
class If:
    label: str
    then: object
    orelse: Optional[object] = None


@dataclass(frozen=True)
class Create:
    behavior: str


@dataclass(frozen=True)
class Become:
    note: str = ""


def _collect_sends(node, guard: str, out: set) -> None:
    if node is None:
        return
    if isinstance(node, Send):
        out.add((node.key, guard, node.plumbing))
    elif isinstance(node, Seq):
        for child in node.children:
            _collect_sends(child, guard, out)
    elif isinstance(node, If):
        _collect_sends(node.then, node.label, out)
        _collect_sends(node.orelse, "¬" + node.label, out)
    elif isinstance(node, (Create, Become)):
        return
    else:
        raise TypeError(f"malformed action tree node {node!r}")


def derive_script(behavior) -> dict:
    """Per handled key, the set of (provoked key, guard, plumbing) triples.

    Sends under an If carry that If's label (the else branch carries the
    negated label); sends outside any If carry an empty guard.  Distribution
    forwards declared for a key are included under the guard "distribution".
    Create and Become contribute nothing.
    """
    script = {}
    for key, tree in behavior.action_trees.items():
        pairs: set = set()
        _collect_sends(tree, "", pairs)
        for sent_key, plumbing in behavior.distribution_sends.get(key, ()):
            pairs.add((sent_key, "distribution", plumbing))
        script[key] = pairs
    return script


@dataclass
class EventTypeNetwork:
    nodes: set = field(default_factory=set)
    # edges are (source key, target key, guard label, plumbing flag)
    edges: set = field(default_factory=set)

    def key_pairs(self) -> set:
        return {(src, dst) for (src, dst, _, _) in self.edges}


def derive_etn(behaviors) -> EventTypeNetwork:
    """Union of all behaviors' scripts."""
    etn = EventTypeNetwork()
    for behavior in behaviors:
        script = derive_script(behavior)
        for src, pairs in script.items():
            etn.nodes.add(src)
            for dst, guard, plumbing in pairs:
                etn.nodes.add(dst)
                etn.edges.add((src, dst, guard, plumbing))
    return etn


def validate_trace(net: EventNetwork, etn: EventTypeNetwork) -> list:
    """Check a run against the type network.

    Empty result means: every causes edge, projected to message keys, is an
    edge of the type network.  Runtime bookkeeping events (actor creation)
    are exempt from the check.  A network made by ``EventNetwork.record``
    is a valid linearization already, so only edges are checked: events in
    list order, the causes of each in the iteration order of its
    ``causes``, each missing edge reported as ``causes edge (<src> -> <dst>)
    at event <id> is not in the type network``.
    """
    # per destination key, the keys its causes may have; a bookkeeping
    # cause is allowed everywhere
    allowed_by_dst: dict = {}
    for src, dst, _guard, _plumbing in etn.edges:
        allowed_by_dst.setdefault(dst, set(INTERNAL_KEYS)).add(src)
    events = net.events
    diagnostics = []
    for e in events:
        dst = e.key
        if dst in INTERNAL_KEYS:
            continue
        allowed = allowed_by_dst.get(dst, INTERNAL_KEYS)
        for c in e.causes:
            src = events[c].key
            if src not in allowed:
                diagnostics.append(
                    f"causes edge ({src} -> {dst}) at event {e.event_id} is not in the type network")
    return diagnostics


# --------------------------------------------------------------------------
# Export and comparison.

def _json_default(value):
    """The one value params may hold that json cannot write itself: a
    feature structure, written as its text.  Anything else is refused."""
    if isinstance(value, FeatureStructure):
        return render_fs(value)
    raise TypeError(f"params hold a {type(value).__name__}, which a trace cannot write")


def _events_jsonl(net: EventNetwork) -> str:
    # Each line equals json.dumps of the six-field record with sorted keys
    # and _json_default as its hook.  The skeleton is written here in that
    # key order (record keeps its fields plain ints and a str); the params
    # of every line go through one encoder built for the export.  That C
    # encoder keeps no circular-reference record, so params that contain
    # themselves overflow its recursion guard instead.  A forwarded message
    # keeps its cause's params dict, so an event whose one cause holds that
    # very dict takes its text: equal objects give equal text.  Params
    # outside the rule of docs/formats.md raise ValueError.
    make_encoder = json.encoder.c_make_encoder
    encode_str = json.encoder.encode_basestring_ascii
    # markers, default, string encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan
    encode_params = (
        make_encoder(None, _json_default, encode_str, None, ": ", ", ", True, False, True)
        if make_encoder
        else json.JSONEncoder(sort_keys=True, default=_json_default).iterencode)
    events = net.events
    texts = []      # the params text of each event
    key_texts = {}  # the JSON text of each key, written once per export
    lines = []
    append = lines.append
    for e in events:
        key, causes, params = e.key, e.causes, e.params
        key_text = key_texts.get(key)
        if key_text is None:
            key_text = key_texts[key] = encode_str(key)
        text = None
        if not causes:
            written = ""
        elif len(causes) == 1:
            (cause,) = causes
            written = str(cause)
            if events[cause].params is params:
                text = texts[cause]
        else:
            written = ", ".join(map(str, sorted(causes)))
        if text is None:
            try:
                text = "".join(encode_params(params, 0))
            except (TypeError, ValueError, RecursionError) as err:
                raise ValueError(f"event {e.event_id} cannot be exported: {err}") from err
        texts.append(text)
        append(f'{{"causes": [{written}], "id": {e.event_id}, "key": {key_text}, '
               f'"params": {text}, "stateVersion": {e.state_version}, "target": {e.target}}}\n')
    return "".join(lines)


def _events_dot(net: EventNetwork) -> str:
    prefixes = {}   # each target's node label up to its key, built once
    lines = ["digraph events {", "  rankdir=LR;"]
    edges = []
    for e in net.events:
        event_id, target = e.event_id, e.target
        prefix = prefixes.get(target)
        if prefix is None:
            prefix = prefixes[target] = f' [label="[{net.name_of(target)}] <= '
        lines.append(f'  e{event_id}{prefix}{e.key}"];')
        for c in e.causes:
            edges.append((c, event_id))
    edges.sort()
    for src, dst in edges:
        lines.append(f"  e{src} -> e{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export(obj, format: str = "jsonl") -> str:
    """Render a network canonically.

    Event networks: JSONL has one record per event with exactly the fields
    id, target, key, params, causes, stateVersion (keys sorted); DOT labels
    each node "[surface <= key]".  Type networks: JSONL has one record per
    edge; DOT labels each node "[* <= key]", writes guards as edge labels,
    and draws plumbing edges dashed.  Output is byte-stable for equal input.
    ``EventNetwork.record`` has already refused any event whose id, target,
    key, state version or causes a line cannot hold, so an event network's
    JSONL export refuses only params: it raises ``ValueError`` naming the
    first event whose params it cannot write.
    """
    if format not in ("jsonl", "dot"):
        raise ValueError(f"unknown format {format!r}")

    if isinstance(obj, EventNetwork):
        return _events_jsonl(obj) if format == "jsonl" else _events_dot(obj)

    if isinstance(obj, EventTypeNetwork):
        if format == "jsonl":
            lines = [json.dumps({"from": src, "guard": guard, "plumbing": plumbing, "to": dst},
                                sort_keys=True)
                     for (src, dst, guard, plumbing) in sorted(obj.edges)]
            return "\n".join(lines) + ("\n" if lines else "")
        lines = ["digraph etn {", "  rankdir=LR;"]
        for key in sorted(obj.nodes):
            lines.append(f'  {key} [label="[* <= {key}]"];')
        for src, dst, guard, plumbing in sorted(obj.edges):
            attrs = []
            if guard:
                attrs.append(f'label="{guard}"')
            if plumbing:
                attrs.append("style=dashed")
            rendered = f" [{', '.join(attrs)}]" if attrs else ""
            lines.append(f"  {src} -> {dst}{rendered};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    raise TypeError(f"cannot export {type(obj).__name__}")


@dataclass
class Verdict:
    equal: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.equal


def _first_difference(a: str, b: str) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for i, (la, lb) in enumerate(zip(a_lines, b_lines)):
        if la != lb:
            return f"line {i + 1}: {la!r} != {lb!r}"
    if len(a_lines) != len(b_lines):
        return f"line {min(len(a_lines), len(b_lines)) + 1}: one side ends"
    return ""


def _signatures(net: EventNetwork) -> dict:
    """Stable per-event labels refined by cause/effect context."""
    sig = {e.event_id: (net.name_of(e.target), e.key) for e in net.events}
    effects: dict[int, list] = {e.event_id: [] for e in net.events}
    for e in net.events:
        for c in e.causes:
            effects[c].append(e.event_id)
    for _ in range(3):
        sig = {
            e.event_id: (sig[e.event_id],
                         tuple(sorted(sig[c] for c in e.causes)),
                         tuple(sorted(sig[x] for x in effects[e.event_id])))
            for e in net.events
        }
    return sig


def _isomorphic(a: EventNetwork, b: EventNetwork) -> Verdict:
    if len(a.events) != len(b.events):
        return Verdict(False, f"event counts differ: {len(a.events)} != {len(b.events)}")
    sig_a, sig_b = _signatures(a), _signatures(b)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        labels_a = sorted(f"[{a.name_of(e.target)}] <= {e.key}" for e in a.events)
        labels_b = sorted(f"[{b.name_of(e.target)}] <= {e.key}" for e in b.events)
        for la, lb in zip(labels_a, labels_b):
            if la != lb:
                return Verdict(False, f"event multisets differ near {la!r} vs {lb!r}")
        return Verdict(False, "cause structure differs")

    by_sig_b: dict = {}
    for eid, s in sig_b.items():
        by_sig_b.setdefault(s, []).append(eid)
    events_a = sorted(sig_a, key=lambda eid: (sig_a[eid], eid))
    causes_a = {e.event_id: e.causes for e in a.events}
    causes_b = {e.event_id: e.causes for e in b.events}
    mapping: dict[int, int] = {}
    used: set = set()

    def backtrack(index: int) -> bool:
        if index == len(events_a):
            return True
        ea = events_a[index]
        for eb in by_sig_b[sig_a[ea]]:
            if eb in used:
                continue
            ok = True
            for ca in causes_a[ea]:
                if ca in mapping and mapping[ca] not in causes_b[eb]:
                    ok = False
                    break
            if ok and len(causes_a[ea]) != len(causes_b[eb]):
                ok = False
            if ok:
                mapping[ea] = eb
                used.add(eb)
                if backtrack(index + 1):
                    return True
                del mapping[ea]
                used.discard(eb)
        return False

    if backtrack(0):
        return Verdict(True)
    return Verdict(False, "no label-preserving bijection matches the cause structure")


def compare_networks(a, b, mode: str = "exact") -> Verdict:
    """Compare two networks of the same kind.

    ``exact`` compares canonical exports byte for byte.  For event networks,
    ``up-to-actor-renaming`` instead asks for a bijection over actors that
    preserves surfaces, keys, and the causes structure; event ids and
    parameters are ignored.  Type networks have no actors, so both modes
    coincide for them.
    """
    if type(a) is not type(b):
        return Verdict(False, f"different kinds: {type(a).__name__} vs {type(b).__name__}")
    if mode not in ("exact", "up-to-actor-renaming"):
        raise ValueError(f"unknown mode {mode!r}")

    if isinstance(a, EventTypeNetwork):
        ta, tb = export(a, "dot"), export(b, "dot")
        if ta == tb:
            return Verdict(True)
        missing = sorted(b.edges - a.edges)
        extra = sorted(a.edges - b.edges)
        bits = []
        if missing:
            bits.append("missing edges: " + ", ".join(f"{s}->{d}" for s, d, _, _ in missing))
        if extra:
            bits.append("unexpected edges: " + ", ".join(f"{s}->{d}" for s, d, _, _ in extra))
        return Verdict(False, "; ".join(bits) or _first_difference(ta, tb))

    if mode == "exact":
        ta, tb = export(a, "jsonl"), export(b, "jsonl")
        if ta == tb:
            return Verdict(True)
        return Verdict(False, _first_difference(ta, tb))
    return _isomorphic(a, b)
