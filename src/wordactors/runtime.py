"""A small serialized-actor runtime with a seeded deterministic scheduler.

Actors process one message at a time.  Posting is asynchronous: a message
in flight is a plain ``(target, key, params, cause)`` tuple in a pending
pool, delivered later in an order chosen by a seeded random number
generator, so arrival order is unpredictable in principle yet exactly
reproducible per seed.  The arrival of a message is recorded as one event,
whose cause is the event during which the message was posted (none for a
kick from outside), and a delivered message is that event: the receiving
behavior's pre-distribution rule (which may forward the message), the
handler itself (the computation) and the post-distribution rule all get it
and read its ``key`` and ``params``, and run atomically.  Distribution
rules forward the message itself, not a copy, with ``Context.forward``.
The event keeps the params dict of the message itself, so the event of a
forwarded message holds its cause's dict; nothing is copied or rendered
during delivery.  A message's initiator, where it has one, is an ordinary
param.  The JSONL export writes params as json writes them, a feature
structure as its text, and refuses any other value.

Messages here are plain values rather than actors in their own right; the
distribution hooks preserve the observable effect (forwarding decided by
message plus receiver state, recorded as extra sends of the same arrival
event).

Two modes share one semantics contract.  The normative ``sequential`` mode
delivers one message at a time.  The ``parallel`` mode picks, per round, a
batch of pending messages addressed to pairwise distinct actors and
delivers the whole batch before considering messages posted meanwhile; the
recorded network is still a valid linearization, it just explores a
different legal schedule.  Handlers never touch other actors' state (a
context reaches only the receiving actor), so no locking is needed in
either mode.

Synchronous services (unification, taxonomy queries, lexicon lookup) are
pure evaluations callable only from inside a computation event, through the
context's ``request``; a blocking call to a pure function satisfies the
request-reply contract without a second scheduling layer.  A context's
``send``, ``forward``, ``spawn`` and ``request`` all refuse outside its own
delivery by the same comparison: its event must be the one being delivered.
The runtime builds each context in place, and the recorder each event
draft, without a constructor call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import events as ev


class ContractViolation(RuntimeError):
    """An operation was used outside its stated preconditions."""


class HandlerFailure(RuntimeError):
    """A handler raised; identifies the event, hides partial state."""


class LivelockError(RuntimeError):
    """Step ceiling exceeded; carries the trace recorded so far."""

    def __init__(self, message: str, network: ev.EventNetwork):
        super().__init__(message)
        self.network = network


@dataclass(slots=True)
class ActorState:
    """Base state: named acquaintances (ids or id lists) plus whatever a
    behavior adds in subclasses."""
    acquaintances: dict = field(default_factory=dict)


_NO_KEYS = frozenset()


@dataclass
class BehaviorDef:
    """Executable handlers plus their declarative mirror.

    ``action_trees`` describe, per message key, the sends a handler may
    perform (Seq / If / Send / Create / Become nodes); ``distribution_sends``
    declare the keys the pre/post-distribution hooks may forward.  The
    runtime enforces conformance: a computation may only emit keys that its
    declaration admits.

    The table of admitted keys is derived from the declarations once, at
    construction, by the same ``events.derive_script`` walk the event type
    network uses.  One behavior may serve many systems, as the protocol's
    do, so its tables are read-only once built.  To change a behavior, make
    a new one with ``dataclasses.replace``: editing ``action_trees`` or
    ``distribution_sends`` in place leaves the table stale, and editing
    any table in place changes every system that shares it.
    """
    name: str
    handlers: dict = field(default_factory=dict)
    action_trees: dict = field(default_factory=dict)
    distribution_sends: dict = field(default_factory=dict)
    pre_distribution: dict = field(default_factory=dict)
    post_distribution: dict = field(default_factory=dict)
    _allowed: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._allowed = {key: frozenset(k for (k, _, _) in pairs)
                         for key, pairs in ev.derive_script(self).items()}

    def allowed_keys(self, key: str) -> frozenset:
        return self._allowed.get(key, _NO_KEYS)


@dataclass
class SchedulerState:
    # one (target, key, params, cause id or None) per message in flight
    pending: list = field(default_factory=list)


class Actor:
    __slots__ = ("actor_id", "behavior", "state", "state_version", "display_name")

    def __init__(self, actor_id: int, behavior: BehaviorDef, state: ActorState, display_name: str):
        self.actor_id = actor_id
        self.behavior = behavior
        self.state = state
        self.state_version = 0
        self.display_name = display_name


class Context:
    """Handler-side view of one computation event: the receiving actor and
    nothing else.

    Its fields are fixed when the delivery starts: ``actor_id`` is the
    receiver's id and ``state`` the receiving actor's own state object (a
    handler changes it in place).  ``System._execute`` builds each context
    in place and sets its six slots; there is no constructor.  There is no
    shared knowledge and no public way to the system or to other actors:
    only ``send``, ``forward``, ``spawn`` and ``request`` reach the system,
    through the private ``_system``.  All four refuse by the same
    comparison unless this context's event is the one being delivered, so
    a context kept past its delivery can neither send, spawn nor call a
    service, neither after the run nor during another delivery, its own
    actor's next one included.
    """

    __slots__ = ("_system", "actor", "actor_id", "state", "_event", "_allowed")

    def send(self, target: int, key: str, **params) -> None:
        """Post ``key`` with ``params`` to ``target``.

        Params are values: once sent, neither the sender nor any receiver
        mutates them or anything they hold.  The event of the delivery
        keeps them unrendered until the trace is exported, so a later edit
        would change the recorded trace.  Build a fresh dict or list to
        send an edited version, as the relay does.  They may hold only what
        ``json.dumps(sort_keys=True)`` writes itself and feature
        structures; the JSONL export refuses anything else.  The
        initiator of a message is one of its params like any other, so a
        receiver that relays ``**msg.params`` relays it too.
        """
        system = self._system
        event = self._event
        if system._current_event != event or key not in self._allowed:
            self._refuse(key)
        system.post(target, key, params, event)

    def forward(self, target: int, message: ev.Event) -> None:
        """Post ``message``, the event being delivered, on to ``target``
        unchanged: its key and its very params dict, the initiator among
        them.  The event of that delivery keeps the same dict.  The checks
        are those of ``send``."""
        system = self._system
        event = self._event
        key = message.key
        if system._current_event != event or key not in self._allowed:
            self._refuse(key)
        system.post(target, key, message.params, event)

    def _refuse(self, key: str) -> None:
        """Raise why this context may not send ``key`` now."""
        system = self._system
        event = self._event
        if system._current_event is None:
            raise ContractViolation(
                "messages can only be sent from inside a computation event")
        if system._current_event != event:
            raise ContractViolation(
                f"the context of event {event} sent {key!r} during event "
                f"{system._current_event}; it can only send during its own delivery")
        raise ContractViolation(
            f"behavior {self.actor.behavior.name!r} emitted undeclared key {key!r} "
            f"while handling {system.net.events[event].key!r}")

    def spawn(self, behavior_name: str, display_name: str, state: ActorState) -> int:
        """Create an actor; its creation event is caused by this context's
        event, so only during that event's own delivery."""
        system = self._system
        event = self._event
        if system._current_event != event:
            if system._current_event is None:
                raise ContractViolation(
                    "actors can only be spawned from inside a computation event")
            raise ContractViolation(
                f"the context of event {event} spawned {display_name!r} during event "
                f"{system._current_event}; it can only spawn during its own delivery")
        return system.spawn(behavior_name, display_name, state)

    def request(self, service: str, *args):
        """Call the pure service ``service`` on ``args`` and return its
        result, only during this context's own delivery.  The service is
        looked up in the system's ``services`` at each call."""
        system = self._system
        if system._current_event != self._event:
            raise ContractViolation(
                f"request({service!r}) outside a computation event of its own: "
                "a context can call services only during its own delivery")
        fn = system.services.get(service)
        if fn is None:
            raise ContractViolation(f"unknown service {service!r}")
        return fn(*args)

    def bump(self) -> None:
        self.actor.state_version += 1


class System:
    """One run: behaviors, actors, scheduler, recorder and delivery observers.

    ``observers`` maps a message key to a function ``fn(system, event)``
    that runs at each delivery of that key, inside the delivery: after its
    event is recorded and before the receiver's hooks and handler.  An
    observer may read the whole system, which no handler can; it raises to
    end the run, and its raise fails the delivery as a handler's would.
    Handlers share no knowledge through the system.
    """

    def __init__(self, seed: int = 0, step_ceiling: int = 100000,
                 mode: str = "sequential"):
        if mode not in ("sequential", "parallel"):
            raise ValueError(f"unknown mode {mode!r}")
        self.behaviors: dict[str, BehaviorDef] = {}
        self.actors: dict[int, Actor] = {}
        self.scheduler = SchedulerState()
        self._rng = random.Random(seed)
        self.net = ev.EventNetwork()
        self.services: dict[str, Callable] = {}
        self.observers: dict[str, Callable] = {}
        # Unused by the package; perfbench/run.py still reads it in traced runs.
        self.shared: dict[str, Any] = {}
        self.step_ceiling = step_ceiling
        self.mode = mode
        self._next_actor_id = 1
        self._current_event: Optional[int] = None
        self._batch: list = []

    # -- program definition --------------------------------------------

    def register_behavior(self, behavior: BehaviorDef) -> None:
        self.behaviors[behavior.name] = behavior

    def register_service(self, name: str, fn: Callable) -> None:
        self.services[name] = fn

    # -- core operations ------------------------------------------------

    def spawn(self, behavior_name: str, display_name: str, state: ActorState) -> int:
        if behavior_name not in self.behaviors:
            raise ContractViolation(f"unknown behavior {behavior_name!r}")
        actors = self.actors
        for tag, value in state.acquaintances.items():
            for aid in value if isinstance(value, list) else (value,):
                if aid is not None and aid not in actors:
                    raise ContractViolation(f"acquaintance {tag!r} refers to unknown actor {aid}")
        actor_id = self._next_actor_id
        self._next_actor_id += 1
        actor = Actor(actor_id, self.behaviors[behavior_name], state, display_name)
        self.actors[actor_id] = actor
        self.net.register_actor(actor_id, display_name)
        self.net.record(actor_id, ev.CREATED, {"behavior": behavior_name},
                        self._current_event, 0)
        return actor_id

    def post(self, target: int, key: str, params: Optional[dict] = None,
             cause: Optional[int] = None) -> None:
        """Queue a message; no processing happens until delivery.  Its
        event will keep ``params`` itself as its params, the initiator
        among them where the message has one."""
        if target not in self.actors:
            raise ContractViolation(f"post to unknown actor {target}")
        self.scheduler.pending.append((target, key, {} if params is None else params, cause))

    def request(self, service: str, *args):
        """Synchronous call to a pure service, legal only inside an event."""
        if self._current_event is None:
            raise ContractViolation("request() outside a computation event")
        fn = self.services.get(service)
        if fn is None:
            raise ContractViolation(f"unknown service {service!r}")
        return fn(*args)

    # -- scheduling -------------------------------------------------------

    # Both draws below are those of random.Random: randrange(n) and
    # shuffle() draw through _randbelow_with_getrandbits, which takes
    # k = n.bit_length() bits until the value is below n.  They are
    # inlined here to spare the Python calls around each draw; every
    # schedule, and so every trace, stays the one randrange and shuffle
    # would give (tests/test_runtime.py checks both against the stdlib).

    def _fill_batch(self) -> None:
        """Parallel mode: snapshot one round of deliveries to distinct actors."""
        pending = self.scheduler.pending
        if len(pending) == 1:
            # A shuffle of one index draws nothing: the lone message is
            # the round, and the generator is left as it was.
            self._batch = [pending.pop()]
            return
        order = list(range(len(pending)))
        getrandbits = self._rng.getrandbits
        for i in range(len(order) - 1, 0, -1):   # random.shuffle(order)
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        targets = set()
        batch = []
        for i in order:
            item = pending[i]
            if item[0] not in targets:
                targets.add(item[0])
                batch.append(item)
                pending[i] = None   # taken
        batch.reverse()  # delivered by popping from the end
        self._batch = batch
        if len(batch) == len(pending):
            pending.clear()
        else:
            pending[:] = [item for item in pending if item is not None]

    def deliver_next(self) -> Optional[ev.Event]:
        """Deliver one message; None at quiescence."""
        if self.mode == "parallel":
            if not self._batch:
                if not self.scheduler.pending:
                    return None
                self._fill_batch()
            target, key, params, cause = self._batch.pop()
        else:
            pending = self.scheduler.pending
            if not pending:
                return None
            n = len(pending)   # pending.pop(self._rng.randrange(n))
            getrandbits = self._rng.getrandbits
            k = n.bit_length()
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            target, key, params, cause = pending.pop(i)
        return self._execute(target, key, params, cause)

    def _execute(self, target: int, key: str, params: dict, cause: Optional[int]) -> ev.Event:
        """Record the arrival of one message as its event, then run the
        key's observer, if any, and the receiver's hooks and handler on
        that event."""
        actor = self.actors[target]
        behavior = actor.behavior
        handler = behavior.handlers.get(key)
        if handler is None:
            raise ContractViolation(
                f"behavior {behavior.name!r} has no handler for key {key!r}")

        event = self.net.record(target, key, params, cause, actor.state_version)
        event_id = event.event_id

        self._current_event = event_id
        ctx = object.__new__(Context)
        ctx._system = self
        ctx.actor = actor
        ctx.actor_id = target
        ctx.state = actor.state
        ctx._event = event_id
        ctx._allowed = behavior.allowed_keys(key)
        try:
            observe = self.observers.get(key)
            if observe is not None:
                observe(self, event)
            pre = behavior.pre_distribution.get(key)
            if pre is not None:
                pre(ctx, event)
            result = handler(ctx, event)
            post = behavior.post_distribution.get(key)
            if post is not None:
                post(ctx, event, result)
        except (ContractViolation, LivelockError):
            raise
        except Exception as err:
            raise HandlerFailure(
                f"handler for {key!r} failed at event {event_id} "
                f"(actor {actor.display_name}): {err}") from err
        finally:
            self._current_event = None

        return event

    def run_to_quiescence(self) -> ev.EventNetwork:
        """Deliver until nothing is pending; the full event network results."""
        deliver_next = self.deliver_next
        ceiling = self.step_ceiling
        steps = 0
        while True:
            event = deliver_next()
            if event is None:
                return self.net
            steps += 1
            if steps > ceiling:
                raise LivelockError(
                    f"possible livelock: step ceiling {ceiling} exceeded "
                    f"({len(self.scheduler.pending)} messages still pending)", self.net)

    # -- bootstrap --------------------------------------------------------

    def kick(self, target: int, key: str, params: Optional[dict] = None) -> None:
        """Post an initial message from outside any event (no cause).  Its
        event keeps a copy of ``params``, which the caller may edit later."""
        self.post(target, key, dict(params) if params else None, cause=None)
