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

# Event keys used by the runtime itself rather than by any behavior.
CREATED = "created"
INTERNAL_KEYS = frozenset({CREATED})


@dataclass(frozen=True)
class Event:
    event_id: int
    target: int
    key: str
    params: dict
    causes: frozenset
    state_version: int


class EventNetwork:
    """Append-only record of one run."""

    def __init__(self):
        self.events: list[Event] = []
        self.actor_names: dict[int, str] = {}

    def register_actor(self, actor_id: int, name: str) -> None:
        self.actor_names[actor_id] = name

    def record(self, target: int, key: str, params: dict,
               causes: Iterable[int], state_version: int) -> int:
        event_id = len(self.events)
        cause_set = frozenset(causes)
        for c in cause_set:
            if not (0 <= c < event_id):
                raise ValueError(f"event {event_id}: cause {c} not yet recorded")
        self.events.append(Event(event_id, target, key, dict(params), cause_set, state_version))
        return event_id

    def name_of(self, actor_id: int) -> str:
        try:
            return self.actor_names[actor_id]
        except KeyError:
            return f"actor{actor_id}"

    def subnetwork(self, ids: Iterable[int]) -> "EventNetwork":
        """Restriction to a subset of events; causes outside the subset drop."""
        keep = set(ids)
        sub = EventNetwork()
        sub.actor_names = dict(self.actor_names)
        for e in self.events:
            if e.event_id in keep:
                sub.events.append(Event(e.event_id, e.target, e.key, e.params,
                                        frozenset(c for c in e.causes if c in keep),
                                        e.state_version))
        return sub


class CausesClosure:
    """Reflexive-transitive closure of causes, with a concurrency test."""

    def __init__(self, net: EventNetwork):
        self._ancestors: dict[int, frozenset] = {}
        for e in net.events:
            acc = {e.event_id}
            for c in e.causes:
                acc |= self._ancestors[c]
            self._ancestors[e.event_id] = frozenset(acc)

    def leq(self, earlier: int, later: int) -> bool:
        return earlier in self._ancestors[later]

    def concurrent(self, a: int, b: int) -> bool:
        return not self.leq(a, b) and not self.leq(b, a)


def causes_closure(net: EventNetwork) -> CausesClosure:
    return CausesClosure(net)


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

    def without_plumbing(self) -> "EventTypeNetwork":
        kept = {e for e in self.edges if not e[3]}
        nodes = {e[0] for e in kept} | {e[1] for e in kept}
        return EventTypeNetwork(nodes, kept)


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
    edge of the type network, and the stored list order is a valid
    linearization (causes strictly precede their effects).  Runtime
    bookkeeping events (actor creation) are exempt from the key check.
    """
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
            if src in INTERNAL_KEYS or dst in INTERNAL_KEYS:
                continue
            if (src, dst) not in pairs:
                diagnostics.append(
                    f"causes edge ({src} -> {dst}) at event {e.event_id} is not in the type network")
    return diagnostics


# --------------------------------------------------------------------------
# Export and comparison.

# json.dumps(..., sort_keys=True) with every other setting at its default;
# one shared instance spares building an encoder per line.
_ENCODER = json.JSONEncoder(sort_keys=True)


def _json_int(value) -> str:
    """``value`` as json.dumps writes it; plain ints skip the encoder."""
    return str(value) if type(value) is int else _ENCODER.encode(value)


def _events_jsonl(net: EventNetwork) -> str:
    # Each line equals json.dumps of the six-field record with sorted keys;
    # the skeleton is written here in that key order.
    encode = _ENCODER.encode
    lines = [
        f'{{"causes": [{", ".join(map(_json_int, sorted(e.causes)))}], '
        f'"id": {_json_int(e.event_id)}, "key": {encode(e.key)}, '
        f'"params": {encode(e.params)}, '
        f'"stateVersion": {_json_int(e.state_version)}, '
        f'"target": {_json_int(e.target)}}}\n'
        for e in net.events
    ]
    return "".join(lines)


def _events_dot(net: EventNetwork) -> str:
    names = net.actor_names
    lines = ["digraph events {", "  rankdir=LR;"]
    edges = []
    for e in net.events:
        event_id, target = e.event_id, e.target
        name = names[target] if target in names else f"actor{target}"
        lines.append(f'  e{event_id} [label="[{name}] <= {e.key}"];')
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
