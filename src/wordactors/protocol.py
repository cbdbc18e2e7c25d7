"""Words as actors: the message protocol that grows dependency trees.

Every token becomes one actor.  A word that needs a head searches leftward:
it sends searchHead to the word bordering its phrase on the left.  The
receiver either offers one of its empty valencies (headFound), applies to
hang itself below the searching word, passes the request up to its own
head, or declines with a receipt.  The searcher keeps a ledger of receipts;
once everyone who saw the request has answered, it tells the scanner to
read the next token.  A second head offer for an already governed word does
not block anything: the affected part of the tree is copied under a fresh
reading tag and the offer is repeated against the copy.  A reading tag is
a value that names the splits which made it, so no handler writes anything
outside its own actor.

All linguistic knowledge enters through the registered lookup services
(resolve_entry, unify, subclass_of, role_permits); the handlers themselves
only route messages and keep actor-local state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, lru_cache, partial
from typing import Optional

from . import concepts as cn
from . import events as ev
from . import features as ft
from . import runtime as rt
from . import lexicon as lx
from . import trees as tr
from .features import EMPTY, FeatureStructure

SEARCH_HEAD = "searchHead"
HEAD_FOUND = "headFound"
HEAD_ACCEPTED = "headAccepted"
HEAD_RETRACTED = "headRetracted"
RECEIPT = "receipt"
UPDATE_FEATURES = "updateFeatures"
SCAN_NEXT = "scanNext"
COPY_STRUCTURE = "copyStructure"
DUPLICATE_STRUCTURE = "duplicateStructure"


class ProtocolError(RuntimeError):
    """A word received a message its bookkeeping cannot account for."""


class ParseAbort(rt.ContractViolation):
    """Input the scanner refuses to continue over (not a protocol bug)."""


# --------------------------------------------------------------------------
# Reading tags.  A tag is the path of what made the reading: ``()`` is the
# base reading of the whole text, ``((p, i),)`` the reading of entry i (from
# 0) of the homonym at position p, and a split appends (splitter position,
# valency, offerer position) to the tag of the reading it grew out of.  A
# state entry tagged t is visible in reading c iff t is a prefix of c, and
# a tag's depth is its length.

# One parse sees a few dozen tags; the bound keeps a long-lived process
# from holding every tag it ever saw.
@lru_cache(maxsize=1024)
def _prefixes(tag: tuple) -> frozenset:
    """The tags visible in reading ``tag``: its prefixes, itself included."""
    return frozenset(tag[:i] for i in range(len(tag) + 1))


# --------------------------------------------------------------------------
# Word-local records.

@dataclass(slots=True)
class Fill:
    reading: tuple
    filler: int
    concept: Optional[str]
    left: int
    right: int


@dataclass(slots=True)
class Slot:
    spec: lx.ValencyDef
    fills: list = field(default_factory=list)


@dataclass(slots=True)
class HeadLink:
    reading: tuple
    head: int
    label: str


@dataclass(slots=True)
class ReceiptLedger:
    expected: set
    received: set = field(default_factory=set)
    closed: bool = False


@dataclass(slots=True)
class HeldReceipt:
    """An offer or application whose receipt is withheld until it resolves.

    ``answered_by`` names the actor the receipt will speak for; when an
    offer migrates onto a copy during an ambiguity split, the copy releases
    the receipt in the original's name, because that is the name the
    searcher's ledger knows.
    """
    initiator: int
    candidate: int
    valency: str
    reading: tuple
    answered_by: int
    distributed_to: tuple = ()
    constraints: FeatureStructure = EMPTY
    relay: Optional[dict] = None


@dataclass(slots=True)
class WordState(rt.ActorState):
    surface: str = ""
    position: int = 0
    reading: tuple = ()
    word_class: str = ""
    concept: Optional[str] = None
    features: FeatureStructure = EMPTY
    slots: list = field(default_factory=list)
    head_links: list = field(default_factory=list)
    deferred: bool = False
    left_edge: int = 0
    right_edge: int = 0
    left_exit: Optional[int] = None   # actor just left of the own phrase
    episodes: dict = field(default_factory=dict)   # reading -> ReceiptLedger
    searches_launched: set = field(default_factory=set)
    pending_offer: Optional[HeldReceipt] = None
    pending_application: Optional[HeldReceipt] = None
    expected_rebuilds: set = field(default_factory=set)
    origin_of: Optional[int] = None   # the actor this one was copied from


@dataclass(slots=True)
class ScannerState(rt.ActorState):
    tokens: list = field(default_factory=list)
    cursor: int = 0
    spawned: int = 0
    prev_ids: list = field(default_factory=list)
    lenient: bool = False


# --------------------------------------------------------------------------
# State predicates.  Everything is scoped to a reading context: entries
# tagged with a prefix of the context count, entries on other branches do
# not exist as far as that context is concerned.

def _slot_is_free(slot, context):
    if not slot.fills:
        return True
    seen = _prefixes(context)
    for f in slot.fills:
        if f.reading in seen:
            return False
    return True


def _visible_fills(state, context):
    seen = _prefixes(context)
    out = []
    for slot in state.slots:
        for f in slot.fills:
            if f.reading in seen:
                out.append((slot.spec.name, f))
    return out


def _governing_link(state, context) -> Optional[HeadLink]:
    if not state.head_links:
        return None
    seen = _prefixes(context)
    best = None
    for link in state.head_links:
        if link.reading in seen:
            if best is None or len(link.reading) > len(best.reading):
                best = link
    return best


def _mandatory_right_open(state, context) -> bool:
    for s in state.slots:
        spec = s.spec
        if (spec.necessity == lx.MANDATORY and spec.direction == lx.RIGHT
                and _slot_is_free(s, context)):
            return True
    return False


def _effective_concept(state, context):
    """A phrase speaks for the concept of its root word; a word without a
    concept of its own borrows the first one among its filled valencies."""
    if state.concept:
        return state.concept
    seen = _prefixes(context)
    for slot in state.slots:
        for f in slot.fills:
            if f.reading in seen and f.concept:
                return f.concept
    return None


def _spec_view(v: lx.ValencyDef) -> dict:
    return {"name": v.name, "word_class": v.modifier_word_class,
            "features": v.morph_constraint, "role": v.conceptual_role,
            "necessity": v.necessity}


def _profile(state, context) -> dict:
    """What a searching word tells the world about itself."""
    free_left = [_spec_view(s.spec) for s in state.slots
                 if s.spec.direction == lx.LEFT and _slot_is_free(s, context)]
    return {
        "surface": state.surface,
        "word_class": state.word_class,
        "features": state.features,
        "concept": _effective_concept(state, context),
        "position": state.position,
        "left_edge": state.left_edge,
        "right_edge": state.right_edge,
        "left_exit": state.left_exit,
        "reading": context,
        "left_slots": free_left,
    }


def _admits(ctx, word_class, features, role, head_concept,
            mod_class, mod_features, mod_concept) -> bool:
    """The three non-directional checks of a valency, given by its word
    class, features and role, against a modifier: word class, morphology,
    conceptual role, in that order."""
    if not ctx.request("subclass_of", mod_class, word_class):
        return False
    if ctx.request("unify", features, mod_features) is None:
        return False
    return not role or (head_concept is not None and mod_concept is not None
                        and ctx.request("role_permits", head_concept, role, mod_concept))


# --------------------------------------------------------------------------
# The three attachment steps: a word picks a valency for a phrase, records
# a dependent in a valency, or takes a head.

def _fitting_slot(ctx, direction, context, modifier) -> Optional[Slot]:
    """The first own valency on the ``direction`` side that is empty in the
    reading and admits the phrase a profile describes, or None."""
    state = ctx.state
    own_concept = _effective_concept(state, context)
    for slot in state.slots:
        spec = slot.spec
        if (spec.direction == direction and _slot_is_free(slot, context)
                and _admits(ctx, spec.modifier_word_class, spec.morph_constraint,
                            spec.conceptual_role, own_concept, modifier["word_class"],
                            modifier["features"], modifier["concept"])):
            return slot
    return None


def _add_dependent(ctx, slot, fill):
    """Record a dependent in one of the own valencies; the own phrase
    widens to cover the dependent's."""
    state = ctx.state
    slot.fills.append(fill)
    state.left_edge = min(state.left_edge, fill.left)
    state.right_edge = max(state.right_edge, fill.right)
    ctx.bump()


def _take_head(ctx, context, head, label, constraints, episode) -> bool:
    """Hang below ``head`` in its valency ``label`` of the reading: the own
    features and those of the own modifiers narrow to the valency's
    constraints.  False, with nothing changed, if they no longer unify."""
    state = ctx.state
    merged = ctx.request("unify", state.features, constraints)
    if merged is None:
        return False
    state.features = merged
    state.head_links.append(HeadLink(context, head, label))
    ctx.bump()
    _narrow_modifiers(ctx, context, constraints, episode)
    return True


# --------------------------------------------------------------------------
# Search bootstrap, shared by the scanner (at spawn time) and by deferred
# words (once their rightward obligations are met).

def _launch_search(ctx, word_id, state, context):
    state.searches_launched.add(context)
    state.episodes[context] = ReceiptLedger({state.left_exit})
    ctx.send(state.left_exit, SEARCH_HEAD, initiator=word_id,
             candidate=word_id, profile=_profile(state, context))


def _maybe_release_deferral(ctx, context):
    """A deferred word may search once its rightward obligations are met.

    Completeness is judged in the reading context the triggering acceptance
    belongs to: a slot filled on a homonym's branch says nothing about the
    other branches, so each context releases (at most once) on its own."""
    state = ctx.state
    if not state.deferred:
        return
    if context in state.searches_launched:
        return
    if _mandatory_right_open(state, context):
        return
    if state.left_exit is not None:
        _launch_search(ctx, ctx.actor_id, state, context)
    else:
        # Nothing to the left at all: this word closes as the root and the
        # scanner may continue.
        state.searches_launched.add(context)
        ctx.send(state.acquaintances["scanner"], SCAN_NEXT)


# --------------------------------------------------------------------------
# Word handlers.

def pre_search_head(ctx, msg):
    """Distribution part of searchHead: a governed word passes the request
    on to its head before looking at it."""
    link = _governing_link(ctx.state, msg.params["profile"]["reading"])
    if link is not None:
        ctx.forward(link.head, msg)


def on_search_head(ctx, msg):
    state = ctx.state
    profile = msg.params["profile"]
    context = profile["reading"]
    candidate = msg.params["candidate"]
    episode = msg.params["initiator"]

    link = _governing_link(state, context)
    distributed = (link.head,) if link is not None else ()

    # First choice: one of the own empty rightward valencies fits the
    # candidate's phrase.  The receipt is withheld until the candidate
    # answers the offer.
    slot = None
    if state.pending_offer is None:
        slot = _fitting_slot(ctx, lx.RIGHT, context, profile)
    if slot is not None:
        spec = slot.spec
        state.pending_offer = HeldReceipt(
            initiator=episode, candidate=candidate, valency=spec.name,
            reading=context, answered_by=ctx.actor_id,
            distributed_to=distributed, constraints=spec.morph_constraint)
        ctx.bump()
        ctx.send(candidate, HEAD_FOUND, initiator=episode,
                 role="offer", offerer=ctx.actor_id, offerer_position=state.position,
                 valency=spec.name, constraints=spec.morph_constraint, reading=context)
        return

    # Second choice: the reverse attachment.  An ungoverned receiver whose
    # own rightward obligations are met and whose phrase ends exactly where
    # the candidate's begins may apply for one of the candidate's empty
    # leftward valencies.
    if (link is None
            and state.pending_application is None
            and not _mandatory_right_open(state, context)
            and state.right_edge == profile["left_edge"] - 1):
        own_concept = _effective_concept(state, context)
        for spec in profile["left_slots"]:
            if not _admits(ctx, spec["word_class"], spec["features"], spec["role"],
                           profile["concept"], state.word_class, state.features,
                           own_concept):
                continue
            state.pending_application = HeldReceipt(
                initiator=episode, candidate=candidate, valency=spec["name"],
                reading=context, answered_by=ctx.actor_id,
                distributed_to=(), relay=dict(msg.params))
            ctx.bump()
            ctx.send(candidate, HEAD_FOUND, initiator=episode,
                     role="application", applicant=ctx.actor_id,
                     valency=spec["name"],
                     profile=_profile(state, context), reading=context)
            return

    ctx.send(episode, RECEIPT, initiator=episode, reading=context,
             answered_by=ctx.actor_id, passed_on=list(distributed))


def on_head_found(ctx, msg):
    if msg.params["role"] == "offer":
        _on_offer(ctx, msg)
    else:
        _on_application(ctx, msg)


def _on_offer(ctx, msg):
    """The searching word hears that a slot is on offer for it."""
    state = ctx.state
    context = msg.params["reading"]
    offerer = msg.params["offerer"]
    episode = msg.params["initiator"]

    if _governing_link(state, context) is not None:
        _split_reading(ctx, msg)
        return

    if not _take_head(ctx, context, offerer, msg.params["valency"],
                      msg.params["constraints"], episode):
        # The offer was computed against a profile that has since been
        # restricted by a concurrent attachment.  Withdraw; the offerer
        # still owes the episode a receipt.
        ctx.send(offerer, HEAD_RETRACTED, initiator=episode,
                 valency=msg.params["valency"], reading=context)
        return
    ctx.send(offerer, HEAD_ACCEPTED, initiator=episode,
             role="fills-your-slot", modifier=ctx.actor_id,
             valency=msg.params["valency"], reading=context,
             left_edge=state.left_edge, right_edge=state.right_edge,
             concept=_effective_concept(state, context))


def _split_reading(ctx, msg):
    """A second head offer for an already governed word.

    The attachment that is already in place stays untouched in the current
    reading.  For the alternative, the word copies itself and its phrase
    under a child reading named after the split and asks the offerer to
    re-stage the offer against the copy.
    """
    p = msg.params
    episode = p["initiator"]
    branch = p["reading"] + ((ctx.state.position, p["valency"], p["offerer_position"]),)

    twin, _left, _right = _spawn_copy(ctx, episode, branch, head_link=None, exclude=None)
    ctx.send(p["offerer"], DUPLICATE_STRUCTURE, initiator=episode,
             reading=branch, new_root=twin)


def _spawn_copy(ctx, episode, branch, head_link, exclude, pending_offer=None):
    """One node of a structure copy.  Valencies start empty; the copy's
    modifiers in the branch, bar ``exclude``, are asked to copy themselves
    below it, and their rebuild acceptances fill the valencies back in.  A
    withheld receipt the copy takes over arrives as ``pending_offer``.
    Returns the copy's id and the span of the copied phrase."""
    state = ctx.state
    seen = _prefixes(branch)
    # One walk over the fills builds the empty valencies, the labels to
    # rebuild, the modifiers to copy and the copied span.
    slots, rebuilds, modifiers = [], set(), []
    left = right = state.position
    for slot in state.slots:
        spec = slot.spec
        slots.append(Slot(spec))
        for fill in slot.fills:
            if fill.reading in seen and fill.filler != exclude:
                rebuilds.add(spec.name)
                modifiers.append(fill.filler)
                if fill.left < left:
                    left = fill.left
                if fill.right > right:
                    right = fill.right
    twin = WordState(
        acquaintances=dict(state.acquaintances),
        surface=state.surface, position=state.position, reading=branch,
        word_class=state.word_class, concept=state.concept,
        features=state.features, slots=slots,
        head_links=[head_link] if head_link is not None else [],
        left_edge=state.position, right_edge=state.position,
        pending_offer=pending_offer, expected_rebuilds=rebuilds,
        origin_of=ctx.actor_id)
    twin = ctx.spawn("word", state.surface, twin)
    for modifier in modifiers:
        ctx.send(modifier, COPY_STRUCTURE, initiator=episode,
                 reading=branch, new_head=twin, exclude=exclude)
    return twin, left, right


def _on_application(ctx, msg):
    """The searching word rules on an application, authoritatively: the
    applicant judged from an advertised profile that may be stale."""
    state = ctx.state
    context = msg.params["reading"]
    applicant = msg.params["applicant"]
    ap = msg.params["profile"]
    episode = msg.params["initiator"]

    chosen = None
    if ap["right_edge"] == state.left_edge - 1:
        chosen = _fitting_slot(ctx, lx.LEFT, context, ap)
    if chosen is None:
        ctx.send(applicant, HEAD_RETRACTED, initiator=episode,
                 valency=msg.params["valency"], reading=context)
        return

    _add_dependent(ctx, chosen, Fill(context, applicant, ap["concept"],
                                     ap["left_edge"], ap["right_edge"]))
    state.left_exit = ap["left_exit"]
    ctx.send(applicant, HEAD_ACCEPTED, initiator=episode,
             role="accepts-your-application", head=ctx.actor_id,
             valency=chosen.spec.name, delta=chosen.spec.morph_constraint,
             reading=context)


def on_head_accepted(ctx, msg):
    if msg.params["role"] == "fills-your-slot":
        _on_slot_filled(ctx, msg)
    else:
        _on_application_accepted(ctx, msg)


def _on_slot_filled(ctx, msg):
    """An offer came back accepted, or a copied modifier reports in."""
    state = ctx.state
    p = msg.params
    label = p["valency"]

    for slot in state.slots:
        if slot.spec.name == label:
            break
    else:
        raise ProtocolError(f"{state.surface}: acceptance names unknown valency {label!r}")

    held = state.pending_offer
    if held is not None and held.candidate == p["modifier"] and held.valency == label:
        state.pending_offer = None
    elif label in state.expected_rebuilds:
        state.expected_rebuilds.discard(label)
        held = None
    else:
        raise ProtocolError(f"{state.surface}: acceptance for {label!r} without an open offer")

    _add_dependent(ctx, slot, Fill(p["reading"], p["modifier"], p["concept"],
                                   p["left_edge"], p["right_edge"]))
    if held is not None:
        _release(ctx, held)
        _maybe_release_deferral(ctx, p["reading"])


def _on_application_accepted(ctx, msg):
    state = ctx.state
    p = msg.params
    context = p["reading"]
    episode = p["initiator"]

    held = state.pending_application
    if held is None or held.candidate != p["head"]:
        raise ProtocolError(f"{state.surface}: acceptance without an open application")
    state.pending_application = None

    if not _take_head(ctx, context, p["head"], p["valency"], p["delta"], episode):
        # Cannot happen through this protocol: nobody updates an ungoverned
        # word's features behind its back.
        raise ProtocolError(f"{state.surface}: accepted application no longer unifies")

    # The candidate's phrase now reaches further left; the search front
    # moves on to whatever borders this word on the left.
    passed = []
    if state.left_exit is not None:
        relay = dict(held.relay)
        relayed_profile = dict(relay["profile"])
        relayed_profile["left_edge"] = state.left_edge
        relay["profile"] = relayed_profile
        ctx.send(state.left_exit, SEARCH_HEAD, **relay)
        passed = [state.left_exit]
    ctx.send(episode, RECEIPT, initiator=episode, reading=context,
             answered_by=ctx.actor_id, passed_on=passed)


def on_head_retracted(ctx, msg):
    """The candidate struck down an offer or application; the withheld
    receipt is released so the episode can still close."""
    state = ctx.state
    if state.pending_offer is not None:
        held, state.pending_offer = state.pending_offer, None
    elif state.pending_application is not None:
        held, state.pending_application = state.pending_application, None
    else:
        raise ProtocolError(f"{state.surface}: retraction without anything pending")
    ctx.bump()
    _release(ctx, held)


def _release(ctx, held):
    """Send the receipt a word withheld while its offer or application was
    open."""
    ctx.send(held.initiator, RECEIPT, initiator=held.initiator,
             reading=held.reading, answered_by=held.answered_by,
             passed_on=list(held.distributed_to))


def on_receipt(ctx, msg):
    state = ctx.state
    ledger = state.episodes.get(msg.params["reading"])
    if ledger is None or ledger.closed:
        raise ProtocolError(f"{state.surface}: receipt without an open ledger")
    sender = msg.params["answered_by"]
    if sender in ledger.received:
        raise ProtocolError(f"{state.surface}: duplicate receipt from actor {sender}")
    ledger.received.add(sender)
    # A receipt may overtake the receipt of the word that passed the search
    # on, so `received` can run ahead of `expected`; the two agree again at
    # closing time because the forwarder itself still owes its receipt.
    ledger.expected.update(msg.params["passed_on"])
    ctx.bump()
    if ledger.received == ledger.expected:
        ledger.closed = True
        ctx.send(state.acquaintances["scanner"], SCAN_NEXT, initiator=ctx.actor_id)


def on_update_features(ctx, msg):
    state = ctx.state
    delta = msg.params["delta"]
    merged = ctx.request("unify", state.features, delta)
    if merged is None:
        raise ProtocolError(f"{state.surface}: feature update no longer unifies")
    state.features = merged
    ctx.bump()
    for _label, fill in _visible_fills(state, msg.params["reading"]):
        ctx.forward(fill.filler, msg)


def _narrow_modifiers(ctx, context, delta, episode):
    """Start passing a feature restriction on to the own modifiers visible
    in the reading; each of them forwards it on to its own."""
    for _label, fill in _visible_fills(ctx.state, context):
        ctx.send(fill.filler, UPDATE_FEATURES, initiator=episode,
                 delta=delta, reading=context)


def on_copy_structure(ctx, msg):
    """Copy self under a new reading, hanging below the copy of the head."""
    state = ctx.state
    p = msg.params
    branch, episode = p["reading"], p["initiator"]
    link = _governing_link(state, branch)
    if link is None:
        raise ProtocolError(f"{state.surface}: asked to copy but has no head")
    twin, left, right = _spawn_copy(ctx, episode, branch,
                                    head_link=HeadLink(branch, p["new_head"], link.label),
                                    exclude=p["exclude"])
    ctx.send(p["new_head"], HEAD_ACCEPTED, initiator=episode,
             role="fills-your-slot", modifier=twin, valency=link.label,
             reading=branch, left_edge=left, right_edge=right,
             concept=_effective_concept(state, branch))


def on_duplicate_structure(ctx, msg):
    """The offerer's side of an ambiguity split: copy the own phrase minus
    the candidate's re-rooted part, move the withheld receipt onto the
    copy, and repeat the offer against the new dependent root."""
    state = ctx.state
    p = msg.params
    branch, new_root, episode = p["reading"], p["new_root"], p["initiator"]
    held = state.pending_offer
    if held is None:
        raise ProtocolError(f"{state.surface}: duplicateStructure without an open offer")
    state.pending_offer = None
    ctx.bump()

    # The copy owes the receipt now, but in the original's name and for the
    # original reading: the searcher's ledger knows neither copy nor branch.
    twin, _left, _right = _spawn_copy(ctx, episode, branch, head_link=None,
                                      exclude=held.candidate,
                                      pending_offer=replace(held, candidate=new_root))
    ctx.send(new_root, HEAD_FOUND, initiator=episode,
             role="offer", offerer=twin, offerer_position=state.position,
             valency=held.valency, constraints=held.constraints, reading=branch)


# --------------------------------------------------------------------------
# Scanner.

def on_scan_next(ctx, msg):
    st = ctx.state
    if st.cursor >= len(st.tokens):
        return
    token = st.tokens[st.cursor]
    entries = ctx.request("resolve_entry", token)

    if not entries:
        if st.lenient:
            st.cursor += 1
            ctx.bump()
            ctx.send(ctx.actor_id, SCAN_NEXT)
            return
        raise ParseAbort(f"unknown word {token!r} at position {st.cursor + 1}")
    if len(st.prev_ids) > 1:
        raise ParseAbort("a word with several lexicon entries is only "
                         "supported as the last token of the text")

    # Positions number the spawned words, not the raw tokens, so that a
    # leniently skipped token leaves no hole in the adjacency structure.
    st.spawned += 1
    position = st.spawned
    st.cursor += 1
    ctx.bump()

    left = st.prev_ids[0] if st.prev_ids else None
    tags = [()] if len(entries) == 1 else [((position, i),) for i in range(len(entries))]

    born = []
    for entry, tag in zip(entries, tags):
        ws = WordState(
            acquaintances={"scanner": ctx.actor_id},
            surface=token, position=position, reading=tag,
            word_class=entry.word_class, concept=entry.concept,
            features=entry.features,
            slots=[Slot(v) for v in entry.valencies],
            left_edge=position, right_edge=position, left_exit=left)
        born.append((ctx.spawn("word", token, ws), ws))
    st.prev_ids = [wid for wid, _ in born]

    for wid, ws in born:
        if _mandatory_right_open(ws, ws.reading):
            # The word must collect its rightward dependents before it can
            # tell what phrase it stands for; its head search waits.
            ws.deferred = True
            ctx.send(ctx.actor_id, SCAN_NEXT)
        elif left is None:
            ctx.send(ctx.actor_id, SCAN_NEXT)
        else:
            _launch_search(ctx, wid, ws, ws.reading)


# --------------------------------------------------------------------------
# Behavior declarations.  The action trees are the static mirror of the
# handlers above; the type network is derived from them, and the runtime
# holds every computation to the keys its tree admits.

@cache
def word_behavior() -> rt.BehaviorDef:
    """The behavior every word actor runs.

    Built once per process and shared by every system, like the contract
    table derived from it: treat its tables as read-only and make a variant
    with ``dataclasses.replace``."""
    return rt.BehaviorDef(
        name="word",
        handlers={
            SEARCH_HEAD: on_search_head,
            HEAD_FOUND: on_head_found,
            HEAD_ACCEPTED: on_head_accepted,
            HEAD_RETRACTED: on_head_retracted,
            RECEIPT: on_receipt,
            UPDATE_FEATURES: on_update_features,
            COPY_STRUCTURE: on_copy_structure,
            DUPLICATE_STRUCTURE: on_duplicate_structure,
        },
        action_trees={
            SEARCH_HEAD: ev.Seq(
                ev.If("valency constraint satisfied",
                      ev.Send("the searching word", HEAD_FOUND)),
                ev.If("no constraint satisfied",
                      ev.Send("the search's initiator", RECEIPT))),
            HEAD_FOUND: ev.Seq(
                ev.If("self is governed", ev.Seq(
                    ev.If("structural ambiguity & self has modifiers",
                          ev.Send("own modifiers", COPY_STRUCTURE)),
                    ev.Send("the offering word", DUPLICATE_STRUCTURE),
                    ev.Create("word"))),
                ev.If("no ambiguity",
                      ev.Send("the offering or applying word", HEAD_ACCEPTED)),
                ev.If("self has modifiers",
                      ev.Send("own modifiers", UPDATE_FEATURES)),
                ev.If("constraint no longer satisfied",
                      ev.Send("the offering or applying word", HEAD_RETRACTED,
                              plumbing=True)),
                ev.Become("head bound or slot filled")),
            HEAD_ACCEPTED: ev.Seq(
                ev.Send("the search's initiator", RECEIPT),
                ev.Send("the word left of the grown phrase", SEARCH_HEAD),
                ev.If("self has modifiers",
                      ev.Send("own modifiers", UPDATE_FEATURES, plumbing=True)),
                ev.If("no left neighbor",
                      ev.Send("the scanner", SCAN_NEXT, plumbing=True)),
                ev.Become("slot filled or head bound")),
            RECEIPT: ev.Seq(
                ev.Send("the scanner", SCAN_NEXT),
                ev.Become("ledger updated")),
            UPDATE_FEATURES: ev.Seq(
                ev.If("self has modifiers",
                      ev.Send("own modifiers", UPDATE_FEATURES)),
                ev.Become("features narrowed")),
            HEAD_RETRACTED: ev.Seq(
                ev.Send("the search's initiator", RECEIPT, plumbing=True),
                ev.Become("offer withdrawn")),
            COPY_STRUCTURE: ev.Seq(
                ev.If("self has modifiers",
                      ev.Send("own modifiers", COPY_STRUCTURE)),
                ev.Send("the copied head", HEAD_ACCEPTED),
                ev.Create("word")),
            DUPLICATE_STRUCTURE: ev.Seq(
                ev.If("self has modifiers",
                      ev.Send("own modifiers", COPY_STRUCTURE)),
                ev.Send("the copied phrase's new root", HEAD_FOUND),
                ev.Create("word")),
        },
        distribution_sends={SEARCH_HEAD: [(SEARCH_HEAD, False)]},
        pre_distribution={SEARCH_HEAD: pre_search_head})


@cache
def scanner_behavior() -> rt.BehaviorDef:
    """The scanner's behavior; shared and read-only like word_behavior()."""
    return rt.BehaviorDef(
        name="scanner",
        handlers={SCAN_NEXT: on_scan_next},
        action_trees={
            SCAN_NEXT: ev.Seq(
                ev.Send("itself", SCAN_NEXT),
                ev.Send("the new word's left neighbor", SEARCH_HEAD),
                ev.Create("word"),
                ev.Become("cursor advanced")),
        })


def protocol_behaviors() -> list:
    return [word_behavior(), scanner_behavior()]


# --------------------------------------------------------------------------
# System assembly.

def build_system(lexicon, kb, tokens, *, seed=0, mode="sequential",
                 step_ceiling=100000, lenient=False, debug_checks=True):
    system = rt.System(seed=seed, step_ceiling=step_ceiling, mode=mode)
    system.register_behavior(word_behavior())
    system.register_behavior(scanner_behavior())
    system.register_service("unify", ft.unify)
    system.register_service("subclass_of", partial(lx.subclass_of, lexicon))
    system.register_service("role_permits", partial(cn.role_permits, kb))
    # The lexicon may change between parses, so the resolved entries are
    # kept for this system only.
    resolved = {}

    def resolve(surface):
        if surface not in resolved:
            resolved[surface] = lx.resolve_entry(lexicon, surface)
        return resolved[surface]

    system.register_service("resolve_entry", resolve)

    if debug_checks:
        system.observers[SEARCH_HEAD] = _assert_on_fringe

    scanner = system.spawn("scanner", "scanner",
                           ScannerState(tokens=list(tokens), lenient=lenient))
    return system, scanner


def run_parse(lexicon, kb, tokens, **kw):
    """Parse one tokenized sentence; returns (system, event network, trees)."""
    system, scanner = build_system(lexicon, kb, tokens, **kw)
    system.kick(scanner, SCAN_NEXT)
    net = system.run_to_quiescence()
    return system, net, read_out_trees(system)


# --------------------------------------------------------------------------
# Reading the trees out of a quiescent system.

def _word_actors(system):
    return [a for a in system.actors.values() if a.behavior.name == "word"]


def _scanner_state(system) -> ScannerState:
    return next(a.state for a in system.actors.values() if a.behavior.name == "scanner")


def _effective_link(system, actor, context):
    """The governing link of an actor, or failing that of the actor it was
    copied from.  A copy made on the offerer's side of a split keeps its
    original's attachment: only the re-rooted phrase changes heads."""
    state = actor.state
    link = _governing_link(state, context)
    # A copy's origin was spawned before it, so the walk ends.
    while link is None and state.origin_of is not None:
        state = system.actors[state.origin_of].state
        link = _governing_link(state, context)
    return link


def read_out_trees(system) -> list:
    """One ParseTree per reading that materializes as a complete, single
    rooted, projective tree with all mandatory valencies filled.

    The base reading comes first, then each word actor's tag in the order
    of the first actor that carries it, which is the order the tags were
    made in."""
    # One walk over the actors, in actor-id order: the tie rule of
    # _materialize depends on that order, and every visible list keeps it.
    # Each tag is numbered once, so a reading picks its actors by number.
    words, actor_pos, tags, tag_of = [], {}, {(): 0}, []
    scanner = None
    for a in system.actors.values():
        name = a.behavior.name
        if name == "word":
            st = a.state
            words.append(a)
            actor_pos[a.actor_id] = st.position
            tag_of.append(tags.setdefault(st.reading, len(tags)))
        elif name == "scanner" and scanner is None:
            scanner = a.state
    positions = list(range(1, scanner.spawned + 1))
    edges = {}      # shared by the trees of this readout
    out = []
    for tag in tags:
        seen = {tags[t] for t in _prefixes(tag) if t in tags}
        if len(seen) == len(tags):
            visible = words
        else:
            visible = [a for a, t in zip(words, tag_of) if t in seen]
        tree = _materialize(system, visible, actor_pos, positions, tag, edges)
        if tree is not None:
            out.append(tree)
    return out


def _materialize(system, visible, actor_pos, positions, tag, edges):
    """The tree of one reading tag from the word actors visible in it, or
    None.  ``edges`` maps the fields of each edge made so far to that
    edge, which the new tree shares."""
    chosen, chosen_depth = {}, {}
    for a in visible:
        p = a.state.position
        d = len(a.state.reading)
        cur = chosen_depth.get(p)
        if cur is None or d > cur:
            chosen[p] = a
            chosen_depth[p] = d
        elif d == cur and chosen[p] is not a:
            return None     # two equally specific actors claim one position
    if sorted(chosen) != positions:
        return None

    # From here on the positions are exactly 1..n, and lists indexed by
    # position hold the tree.
    n = len(positions)
    head_of = [0] * (n + 1)
    label_of = [None] * (n + 1)
    root = None
    taken = set()
    for p in positions:
        link = _effective_link(system, chosen[p], tag)
        if link is None:
            if root is not None:
                return None     # a second root
            root = p
            continue
        hp = actor_pos.get(link.head)
        if hp is None or hp not in chosen:
            return None
        if (hp, link.label) in taken:
            return None     # a valency may hold one phrase per reading
        taken.add((hp, link.label))
        head_of[p] = hp
        label_of[p] = link.label
    if root is None:
        return None

    for p, a in chosen.items():
        for s in a.state.slots:
            if s.spec.necessity == lx.MANDATORY and (p, s.spec.name) not in taken:
                return None

    # Every position but the root has one head, so the breadth-first order
    # from the root reaches every position iff no cycle avoids the root.
    children = [[] for _ in range(n + 1)]
    for p in positions:
        if p != root:
            children[head_of[p]].append(p)
    order = [root]
    for p in order:     # the list grows while it is walked
        order.extend(children[p])
    if len(order) != n:
        return None

    # Backwards, every subtree is complete before its head is reached.  A
    # subtree is contiguous iff its size equals the width of its span.  The
    # root passes its span on to cell 0, which nothing reads.
    lo = list(range(n + 1))
    hi = list(range(n + 1))
    size = [1] * (n + 1)
    for p in reversed(order):
        if size[p] != hi[p] - lo[p] + 1:
            return None
        h = head_of[p]
        if lo[p] < lo[h]:
            lo[h] = lo[p]
        if hi[p] > hi[h]:
            hi[h] = hi[p]
        size[h] += size[p]

    tree_edges = []
    for p in positions:
        if p != root:
            h = head_of[p]
            key = (h, chosen[h].state.surface, label_of[p], p, chosen[p].state.surface)
            edge = edges.get(key)
            if edge is None:
                edge = edges[key] = tr.Edge(*key)
            tree_edges.append(edge)
    return tr.ParseTree(root, chosen[root].state.surface, frozenset(tree_edges))


# --------------------------------------------------------------------------
# Run-level checks and projections.

def _assert_on_fringe(system, event):
    """Debug check, the runtime's observer of every searchHead delivery:
    searchHead may only reach the word whose phrase borders the candidate
    on the left, or a word on that word's head chain."""
    receiver = event.target
    profile = event.params["profile"]
    context = profile["reading"]
    border = profile["left_edge"] - 1
    seen = _prefixes(context)
    actors = system.actors
    own = actors[receiver].state
    if own.right_edge == border and own.reading in seen:
        return      # the bordering word itself, where its head chain starts
    for a in actors.values():
        if a.behavior.name != "word":
            continue
        st = a.state
        if st.right_edge != border or st.reading not in seen:
            continue
        node, hops = a, set()
        while node is not None and node.actor_id not in hops:
            if node.actor_id == receiver:
                return
            hops.add(node.actor_id)
            link = _governing_link(node.state, context)
            node = actors.get(link.head) if link is not None else None
    raise ProtocolError(
        f"{own.surface}: searchHead reached a word outside the search fringe "
        f"(receiver at position {own.position}, left_edge {own.left_edge}, "
        f"right_edge {own.right_edge}, reading {own.reading}; "
        f"search in reading {context}, border {border})")


def _where(st) -> str:
    """How a problem of ``check_invariants`` names a word: surface@position."""
    return f"{st.surface}@{st.position}"


def check_invariants(system, net=None, etn=None) -> list:
    """Everything that must hold of a quiescent run; empty list means pass.

    The scanNext and spawn accounting reads the run's facts off the final
    states.  Besides the kick, scanNext goes out once per skipped token (the
    scanner's ``cursor - spawned``), per closed ledger, per scanner-spawned
    word (``origin_of`` None) that deferred or starts the text, and per
    reading in which a deferred word closed as the root without a search
    (``searches_launched`` minus ``episodes``)."""
    problems = []
    scanner = _scanner_state(system)
    predicted = 1 + scanner.cursor - scanner.spawned
    born_positions = set()

    for a in _word_actors(system):
        st = a.state
        if st.origin_of is None:
            born_positions.add(st.position)
            if st.deferred:
                predicted += 1 + len(st.searches_launched - st.episodes.keys())
            elif st.position == 1:
                predicted += 1
        for led in st.episodes.values():
            if not led.closed:
                missing = sorted(led.expected - led.received)
                problems.append(f"{_where(st)}: receipt ledger still open, waiting for {missing}")
                continue
            predicted += 1
            if led.received != led.expected:
                problems.append(f"{_where(st)}: ledger closed but out of balance")
        if st.pending_offer is not None:
            problems.append(f"{_where(st)}: head offer never answered")
        if st.pending_application is not None:
            problems.append(f"{_where(st)}: application never answered")
        if st.expected_rebuilds:
            problems.append(f"{_where(st)}: structure copy incomplete, "
                            f"missing {sorted(st.expected_rebuilds)}")

    if net is not None:
        scans = sum(1 for e in net.events if e.key == SCAN_NEXT)
        if scans != predicted:
            problems.append(f"scanNext accounting: {scans} events, predicted {predicted}")
        if etn is None:
            etn = ev.derive_etn(protocol_behaviors())
        problems.extend(ev.validate_trace(net, etn))

    if born_positions != set(range(1, scanner.spawned + 1)):
        problems.append("token spawn accounting is off")

    return problems


def episode_events(net, episode: int) -> set:
    """Event ids of one head search: everything its initiator tagged, plus
    the event that posted the opening searchHead."""
    tagged = {e.event_id for e in net.events
              if e.params.get("initiator") == episode}
    for e in net.events:
        if e.key == SEARCH_HEAD and e.params.get("initiator") == episode:
            if e.cause is not None:
                tagged.add(e.cause)
            break
    return tagged
