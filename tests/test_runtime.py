"""Actor runtime: scheduling, determinism, conformance, services."""

import gc
import json
import random
import sys
import weakref
from dataclasses import dataclass, field

import pytest

from wordactors import events as ev
from wordactors import protocol as pt
from wordactors import runtime as rt
from wordactors.features import parse_fs


@dataclass
class CounterState(rt.ActorState):
    hits: int = 0
    seen: list = field(default_factory=list)


def counter_behavior():
    def on_ping(ctx, env):
        ctx.state.hits += 1
        ctx.state.seen.append(env.params.get("n"))
        ctx.bump()
        if env.params.get("chain", 0) > 0:
            ctx.send(ctx.actor_id, "ping", n=env.params.get("n"),
                     chain=env.params["chain"] - 1)

    return rt.BehaviorDef(
        name="counter",
        handlers={"ping": on_ping},
        action_trees={"ping": ev.If("chain remains", ev.Send("self", "ping"))},
    )


def fresh_system(**kw):
    system = rt.System(**kw)
    system.register_behavior(counter_behavior())
    return system


def test_spawned_ids_are_unique_and_live():
    system = fresh_system()
    a = system.spawn("counter", "a", CounterState())
    b = system.spawn("counter", "b", CounterState())
    assert a != b
    assert system.actors[a].display_name == "a"


def test_spawn_rejects_unknown_behavior():
    system = fresh_system()
    with pytest.raises(rt.ContractViolation, match="unknown behavior"):
        system.spawn("ghost", "g", CounterState())


def test_spawn_rejects_dangling_acquaintance():
    system = fresh_system()
    with pytest.raises(rt.ContractViolation, match="unknown actor 99"):
        system.spawn("counter", "a", CounterState(acquaintances={"left": 99}))


def test_spawn_accepts_absent_acquaintance():
    system = fresh_system()
    aid = system.spawn("counter", "a", CounterState(acquaintances={"left": None}))
    assert aid in system.actors


def test_creation_is_recorded_as_an_event():
    system = fresh_system()
    system.spawn("counter", "a", CounterState())
    assert [e.key for e in system.net.events] == [ev.CREATED]
    assert system.net.events[0].cause is None


def test_post_then_delivery_carries_the_cause():
    system = fresh_system()
    a = system.spawn("counter", "a", CounterState())
    system.kick(a, "ping", {"n": 1, "chain": 1})
    net = system.run_to_quiescence()
    pings = [e for e in net.events if e.key == "ping"]
    assert len(pings) == 2
    assert pings[0].cause is None                  # kicked from outside
    assert pings[1].cause == pings[0].event_id     # chained send


def test_post_to_unknown_target():
    system = fresh_system()
    with pytest.raises(rt.ContractViolation, match="unknown actor"):
        system.post(42, "ping")


def test_send_to_unknown_actor_from_a_handler():
    def stray(ctx, env):
        ctx.send(42, "ping")

    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="stray", handlers={"ping": stray},
        action_trees={"ping": ev.Send("nobody", "ping")}))
    a = system.spawn("stray", "a", rt.ActorState())
    system.kick(a, "ping")
    with pytest.raises(rt.ContractViolation, match="unknown actor 42"):
        system.run_to_quiescence()


def _kept_context():
    """A context a handler kept past the end of its delivery."""
    kept = []
    system = rt.System()
    system.register_service("double", lambda x: 2 * x)
    system.register_behavior(rt.BehaviorDef(
        name="keeper", handlers={"ping": lambda ctx, env: kept.append(ctx)},
        action_trees={"ping": ev.Send("self", "ping")}))
    a = system.spawn("keeper", "a", rt.ActorState())
    system.kick(a, "ping")
    system.run_to_quiescence()
    return kept[0], a


def test_a_kept_context_cannot_send():
    ctx, a = _kept_context()
    with pytest.raises(rt.ContractViolation,
                       match="messages can only be sent from inside a computation event"):
        ctx.send(a, "ping")
    assert not ctx._system.scheduler.pending


def test_a_kept_context_cannot_send_during_another_delivery():
    # a's context, kept past a's delivery, must not send while b is being
    # served: b's declared keys and b's event would vouch for its message
    kept = []

    def keep(ctx, env):
        kept.append(ctx)

    def go(ctx, env):
        kept[0].send(kept[0].actor_id, "ping")

    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="both", handlers={"ping": keep, "go": go},
        action_trees={"ping": ev.Seq(), "go": ev.Send("self", "ping")}))
    a = system.spawn("both", "a", rt.ActorState())
    b = system.spawn("both", "b", rt.ActorState())
    system.kick(a, "ping")
    system.run_to_quiescence()
    system.kick(b, "go")
    with pytest.raises(rt.ContractViolation,
                       match=r"the context of event 2 sent 'ping' during event 3; "
                             r"it can only send during its own delivery"):
        system.run_to_quiescence()
    assert not system.scheduler.pending
    assert [(e.target, e.key) for e in system.net.events[2:]] == [(a, "ping"), (b, "go")]


def test_a_kept_context_cannot_spawn_during_another_delivery():
    # a's context, kept past a's delivery, must not spawn while b is being
    # served: the creation event would name b's event as its cause
    kept = []

    def keep(ctx, env):
        kept.append(ctx)

    def go(ctx, env):
        kept[0].spawn("both", "child", rt.ActorState())

    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="both", handlers={"ping": keep, "go": go},
        action_trees={"ping": ev.Seq(), "go": ev.Create("both")}))
    a = system.spawn("both", "a", rt.ActorState())
    b = system.spawn("both", "b", rt.ActorState())
    system.kick(a, "ping")
    system.run_to_quiescence()
    system.kick(b, "go")
    with pytest.raises(rt.ContractViolation,
                       match=r"the context of event 2 spawned 'child' during event 3; "
                             r"it can only spawn during its own delivery"):
        system.run_to_quiescence()
    with pytest.raises(rt.ContractViolation,
                       match="actors can only be spawned from inside a computation event"):
        kept[0].spawn("both", "child", rt.ActorState())
    assert sorted(system.actors) == [a, b]
    assert [(e.target, e.key) for e in system.net.events[2:]] == [(a, "ping"), (b, "go")]


def test_a_kept_context_cannot_request():
    ctx, _a = _kept_context()
    with pytest.raises(rt.ContractViolation, match="outside a computation event"):
        ctx.request("double", 3)


def test_a_kept_context_cannot_request_during_another_delivery():
    # a's context, kept past a's delivery, must not call a service while b
    # is being served: the call would be made during b's event
    kept = []

    def keep(ctx, env):
        kept.append(ctx)

    def go(ctx, env):
        kept[0].request("double", 3)

    system = rt.System()
    system.register_service("double", lambda x: 2 * x)
    system.register_behavior(rt.BehaviorDef(
        name="both", handlers={"ping": keep, "go": go},
        action_trees={"ping": ev.Seq(), "go": ev.Seq()}))
    a = system.spawn("both", "a", rt.ActorState())
    b = system.spawn("both", "b", rt.ActorState())
    system.kick(a, "ping")
    system.run_to_quiescence()
    system.kick(b, "go")
    with pytest.raises(rt.ContractViolation,
                       match=r"request\('double'\) outside a computation event of its own: "
                             r"a context can call services only during its own delivery"):
        system.run_to_quiescence()
    assert [(e.target, e.key) for e in system.net.events[2:]] == [(a, "ping"), (b, "go")]


def test_a_kept_context_cannot_request_during_its_own_actors_next_delivery():
    # the same actor's next delivery is another event: the context of the
    # first must refuse, as send and spawn do, by comparing events
    kept = []

    def ask(ctx, env):
        kept.append(ctx)
        if len(kept) == 2:
            kept[0].request("double", 3)

    system = rt.System()
    system.register_service("double", lambda x: 2 * x)
    system.register_behavior(rt.BehaviorDef(
        name="asker", handlers={"ping": ask}, action_trees={"ping": ev.Seq()}))
    a = system.spawn("asker", "a", rt.ActorState())
    system.kick(a, "ping")
    system.run_to_quiescence()
    system.kick(a, "ping")
    with pytest.raises(rt.ContractViolation,
                       match=r"request\('double'\) outside a computation event of its own: "
                             r"a context can call services only during its own delivery"):
        system.run_to_quiescence()
    assert kept[0].actor_id == kept[1].actor_id == a


def test_request_calls_the_service_the_system_holds_at_the_call():
    # services are looked up at each call, so one replaced after the
    # actor was spawned (a tracer's wrapper, say) is the one called
    results = []

    def asking(ctx, env):
        results.append(ctx.request("double", 21))

    system = rt.System()
    system.register_service("double", lambda x: 2 * x)
    system.register_behavior(rt.BehaviorDef(
        name="asker", handlers={"ping": asking}, action_trees={"ping": ev.Seq()}))
    a = system.spawn("asker", "a", rt.ActorState())
    system.services["double"] = lambda x: -x
    system.kick(a, "ping")
    system.run_to_quiescence()
    assert results == [-21]


def test_a_context_holds_no_request_of_its_own():
    # request is a method that checks the event, not a slot bound per delivery
    assert "request" not in rt.Context.__slots__
    assert "request" in vars(rt.Context)


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_the_python_calls_of_one_delivery(mode):
    # One pending message whose handler sends once: the delivery makes
    # exactly these Python calls, and no constructor frame among them.  A
    # lone message is a parallel round of one, taken without the shuffle.
    def relay(ctx, env):
        ctx.send(ctx.actor_id, "pong")

    system = rt.System(mode=mode)
    system.register_behavior(rt.BehaviorDef(
        name="relay", handlers={"ping": relay, "pong": lambda ctx, env: None},
        action_trees={"ping": ev.Send("self", "pong"), "pong": ev.Seq()}))
    a = system.spawn("relay", "a", rt.ActorState())
    system.kick(a, "ping")
    calls = []

    def profile(frame, what, _arg):
        if what == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        system.deliver_next()
    finally:
        sys.setprofile(None)
    scheduler = ["deliver_next", "_fill_batch"] if mode == "parallel" else ["deliver_next"]
    assert calls == scheduler + ["_execute", "record", "allowed_keys", "relay", "send", "post"]


def _relay_system(seen, forwarded_keys=(("ping", False),)):
    """a's pre-distribution rule forwards each ping on to b; a start sends
    the first ping, with an initiator."""
    def start(ctx, env):
        ctx.send(ctx.actor_id, "ping", initiator=ctx.actor_id, n=1)

    def pass_on(ctx, env):
        following = ctx.state.acquaintances.get("next")
        if following is not None:
            ctx.forward(following, env)

    def show(ctx, env):
        seen.append((ctx.actor_id, env, ctx._system.net.events[ctx._event]))

    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="relay", handlers={"start": start, "ping": show},
        action_trees={"start": ev.Send("self", "ping"), "ping": ev.Seq()},
        distribution_sends={"ping": forwarded_keys},
        pre_distribution={"ping": pass_on}))
    b = system.spawn("relay", "b", rt.ActorState())
    a = system.spawn("relay", "a", rt.ActorState(acquaintances={"next": b}))
    system.kick(a, "start")
    return system, a, b


def test_forward_posts_the_message_being_delivered():
    seen = []
    system, a, b = _relay_system(seen)
    net = system.run_to_quiescence()
    (at_a, env_a, event_a), (at_b, env_b, event_b) = seen
    assert (at_a, at_b) == (a, b)
    assert (env_b.key, env_b.params) == ("ping", {"n": 1, "initiator": a})
    assert env_b.params is env_a.params
    # the forwarded event holds its cause's very dict
    assert event_b.cause == event_a.event_id
    assert event_b.params is event_a.params
    assert ev.validate_trace(net, ev.derive_etn(system.behaviors.values())) == []


def test_a_delivered_message_is_its_recorded_event():
    # the pre-hook, the handler and the post-hook all get the event the
    # runtime recorded for the delivery, not a second object
    got = []

    def hook(name):
        def keep(ctx, msg, *result):
            got.append((name, msg))
        return keep

    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="hooked", handlers={"ping": hook("handler")},
        action_trees={"ping": ev.Seq()},
        pre_distribution={"ping": hook("pre")},
        post_distribution={"ping": hook("post")}))
    a = system.spawn("hooked", "a", rt.ActorState())
    system.kick(a, "ping", {"n": 1})
    system.kick(a, "ping", {"n": 2})
    delivered = [system.deliver_next(), system.deliver_next()]
    assert system.deliver_next() is None
    assert [name for name, _ in got] == ["pre", "handler", "post"] * 2
    for name, msg in got:
        assert msg is system.net.events[msg.event_id], name
    assert [msg for _, msg in got] == [delivered[0]] * 3 + [delivered[1]] * 3
    assert sorted(e.params["n"] for e in delivered) == [1, 2]


def _observed_system(mode, got, fail_at=None):
    """Each ping sends a pong; the observer of ping keeps what it saw and
    raises at the ping whose ``n`` is ``fail_at``."""
    def observe(system, event):
        got.append(("observer", event, system.net.events[-1]))
        if event.params["n"] == fail_at:
            raise ValueError(f"ping {fail_at} observed")

    def step(name):
        def keep(ctx, msg):
            got.append((name, msg, None))
            if name == "handler" and msg.key == "ping":
                ctx.send(ctx.actor_id, "pong", n=msg.params["n"])
        return keep

    system = rt.System(seed=3, mode=mode)
    system.register_behavior(rt.BehaviorDef(
        name="observed", handlers={"ping": step("handler"), "pong": step("handler")},
        action_trees={"ping": ev.Send("self", "pong"), "pong": ev.Seq()},
        pre_distribution={"ping": step("pre"), "pong": step("pre")}))
    system.observers["ping"] = observe
    a = system.spawn("observed", "a", rt.ActorState())
    b = system.spawn("observed", "b", rt.ActorState())
    for n, target in enumerate((a, b, a)):
        system.kick(target, "ping", {"n": n})
    return system, a, b


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_an_observer_runs_at_each_delivery_of_its_key(mode):
    # once per ping and never for a pong, after the event is recorded (it
    # is the last event of the network) and before the pre-hook
    got = []
    system, _a, _b = _observed_system(mode, got)
    net = system.run_to_quiescence()
    pings = [e for e in net.events if e.key == "ping"]
    assert len(pings) == 3 and len([e for e in net.events if e.key == "pong"]) == 3
    observed = [(msg, last) for name, msg, last in got if name == "observer"]
    assert [msg for msg, _last in observed] == pings
    assert all(last is msg for msg, last in observed)
    steps = {}
    for name, msg, _last in got:
        steps.setdefault(msg.event_id, []).append(name)
    for e in net.events:
        if e.key in ("ping", "pong"):
            want = ["pre", "handler"] if e.key == "pong" else ["observer", "pre", "handler"]
            assert steps[e.event_id] == want, e


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_an_observer_that_raises_fails_the_delivery(mode):
    got = []
    system, a, _b = _observed_system(mode, got, fail_at=2)
    with pytest.raises(rt.HandlerFailure) as failure:
        system.run_to_quiescence()
    failed = system.net.events[-1]
    assert (failed.target, failed.key, failed.params) == (a, "ping", {"n": 2})
    assert str(failure.value) == (
        f"handler for 'ping' failed at event {failed.event_id} (actor a): "
        "ping 2 observed")
    assert isinstance(failure.value.__cause__, ValueError)
    # neither the pre-hook nor the handler ran on the failed delivery
    assert [name for name, msg, _ in got if msg is failed] == ["observer"]


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_a_forwarded_event_holds_its_causes_params(demo_lexicon, demo_kb, mode):
    # In a parse, searchHead and updateFeatures are forwarded, and only
    # forwarded, by a delivery of the same key; such an event keeps its
    # cause's very params dict, which the JSONL export writes once.
    forwarded = {pt.SEARCH_HEAD: 0, pt.UPDATE_FEATURES: 0}
    tokens = "Compaq liefert einen Rechner mit einer Harddisk mit einer Harddisk".split()
    for seed in range(5):
        _system, net, trees = pt.run_parse(demo_lexicon, demo_kb, tokens, seed=seed,
                                           mode=mode)
        assert trees
        events = net.events
        for e in events:
            cause = e.cause
            if e.key in forwarded and cause is not None:
                if events[cause].key == e.key:
                    assert e.params is events[cause].params, (seed, e.event_id)
                    forwarded[e.key] += 1
    assert all(forwarded.values()), forwarded


def test_forward_of_an_undeclared_key_is_a_contract_violation():
    system, _a, _b = _relay_system([], forwarded_keys=())
    with pytest.raises(rt.ContractViolation,
                       match="behavior 'relay' emitted undeclared key 'ping' "
                             "while handling 'ping'"):
        system.run_to_quiescence()


def test_a_kept_context_cannot_forward():
    ctx, a = _kept_context()
    delivered = ctx._system.net.events[-1]   # the ping delivered to that context
    assert (delivered.target, delivered.key) == (a, "ping")
    with pytest.raises(rt.ContractViolation,
                       match="messages can only be sent from inside a computation event"):
        ctx.forward(a, delivered)
    assert not ctx._system.scheduler.pending


def test_a_kept_context_cannot_forward_during_another_delivery():
    # a's context, kept past a's delivery, must not forward a's message
    # while b is being served
    kept = []

    def keep(ctx, env):
        kept.append((ctx, env))

    def go(ctx, env):
        kept_ctx, kept_env = kept[0]
        kept_ctx.forward(kept_ctx.actor_id, kept_env)

    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="both", handlers={"ping": keep, "go": go},
        action_trees={"ping": ev.Send("self", "ping"), "go": ev.Send("self", "ping")}))
    a = system.spawn("both", "a", rt.ActorState())
    b = system.spawn("both", "b", rt.ActorState())
    system.kick(a, "ping", {"n": 1})
    system.run_to_quiescence()
    system.kick(b, "go")
    with pytest.raises(rt.ContractViolation,
                       match=r"the context of event 2 sent 'ping' during event 3; "
                             r"it can only send during its own delivery"):
        system.run_to_quiescence()
    assert not system.scheduler.pending
    assert [(e.target, e.key) for e in system.net.events[2:]] == [(a, "ping"), (b, "go")]


def test_delivery_order_is_scheduler_chosen():
    first_delivered = set()
    for seed in range(20):
        system = fresh_system(seed=seed)
        a = system.spawn("counter", "a", CounterState())
        system.kick(a, "ping", {"n": 1})
        system.kick(a, "ping", {"n": 2})
        system.run_to_quiescence()
        first_delivered.add(system.actors[a].state.seen[0])
    assert first_delivered == {1, 2}


def test_same_seed_means_identical_networks():
    def run(seed):
        system = fresh_system(seed=seed)
        a = system.spawn("counter", "a", CounterState())
        b = system.spawn("counter", "b", CounterState())
        for n in range(4):
            system.kick(a if n % 2 else b, "ping", {"n": n, "chain": 2})
        return ev.export(system.run_to_quiescence(), "jsonl")

    assert run(3) == run(3)
    # a different seed still delivers everything, possibly reordered
    lines_a, lines_b = run(3).splitlines(), run(4).splitlines()
    assert len(lines_a) == len(lines_b)


def test_guaranteed_delivery(monkeypatch):
    posted = []
    post = rt.System.post

    def counted_post(self, target, key, params=None, cause=None):
        posted.append((target, key, params["n"], params["chain"]))
        post(self, target, key, params, cause)

    monkeypatch.setattr(rt.System, "post", counted_post)
    system = fresh_system(seed=11)
    a = system.spawn("counter", "a", CounterState())
    for n in range(5):
        system.kick(a, "ping", {"n": n, "chain": n % 3})
    system.run_to_quiescence()
    assert not system.scheduler.pending
    delivered = [e for e in system.net.events if e.key == "ping"]
    assert len(posted) == 5 + (0 + 1 + 2 + 0 + 1)
    # every posted message is delivered exactly once
    assert sorted((e.target, e.key, e.params["n"], e.params["chain"]) for e in delivered) \
        == sorted(posted)


# The trace pins rest on CPython's draw algorithm: sequential mode delivers
# pending.pop(rng.randrange(n)), and a parallel round takes the pending
# envelopes in the order rng.shuffle gives.  The scheduler inlines both
# draws, so these tests name that dependence and fail first if either side
# changes.  Seeds 0..199 and pools of 1..40 envelopes cover the rejection
# loop just above every power of two up to 32; one generator per seed, in
# step with the scheduler's over the whole sequence of draws.

def test_sequential_draws_are_randrange():
    for seed in range(200):
        system = fresh_system(seed=seed)
        a = system.spawn("counter", "a", CounterState())
        reference = random.Random(seed)
        for n in range(1, 41):
            for i in range(n):
                system.kick(a, "ping", {"n": i})
            assert system.deliver_next().params["n"] == reference.randrange(n), (seed, n)
            system.scheduler.pending.clear()


def test_parallel_rounds_are_shuffles():
    for seed in range(200):
        system = fresh_system(seed=seed, mode="parallel")
        actors = [system.spawn("counter", f"a{i}", CounterState()) for i in range(40)]
        reference = random.Random(seed)
        for n in range(1, 41):
            for i in range(n):
                system.kick(actors[i], "ping", {"n": i})
            order = list(range(n))
            reference.shuffle(order)
            # n distinct receivers: one round delivers them all
            assert [system.deliver_next().params["n"] for _ in range(n)] == order, (seed, n)
            assert system.deliver_next() is None


def test_a_round_of_one_envelope_draws_nothing():
    # random.shuffle of one index draws no bits, so a round that holds one
    # envelope is that envelope and leaves the generator as it was.
    for seed in range(200):
        system = fresh_system(seed=seed, mode="parallel")
        a = system.spawn("counter", "a", CounterState())
        for n in range(3):
            system.kick(a, "ping", {"n": n, "chain": 1})
            before = system._rng.getstate()
            event = system.deliver_next()
            assert (event.target, event.params["n"], event.params["chain"]) == (a, n, 1)
            assert system._rng.getstate() == before, seed
            # the envelope it sent is the next lone round
            event = system.deliver_next()
            assert (event.target, event.params["n"], event.params["chain"]) == (a, n, 0)
            assert system._rng.getstate() == before, seed
            assert system.deliver_next() is None


def _reference_round(pending, rng):
    """A parallel round as first written: shuffle the indices, take the
    first envelope per target, rebuild the pool from the indices not taken.
    Returns the round in delivery order and the pool left pending."""
    order = list(range(len(pending)))
    rng.shuffle(order)
    taken_targets, taken_indices, batch = set(), set(), []
    for i in order:
        target = pending[i][0]
        if target not in taken_targets:
            taken_targets.add(target)
            taken_indices.add(i)
            batch.append(pending[i])
    return batch, [item for i, item in enumerate(pending) if i not in taken_indices]


def test_parallel_rounds_with_repeated_receivers():
    # Pools of 1..20 envelopes over fewer receivers than envelopes: a round
    # takes one envelope per receiver and leaves the rest pending.
    drained = partial = 0
    for seed in range(200):
        system = fresh_system(seed=seed, mode="parallel")
        actors = [system.spawn("counter", f"a{i}", CounterState()) for i in range(19)]
        reference = random.Random(seed)
        pick = random.Random(-1 - seed)
        for n in range(1, 21):
            receivers = actors[:pick.randint(1, max(1, n - 1))]
            pending = []
            for i in range(n):
                target = pick.choice(receivers)
                system.kick(target, "ping", {"n": i})
                pending.append((target, i))
            while pending:
                batch, left = _reference_round(pending, reference)
                if left:
                    partial += 1
                else:
                    drained += 1
                delivered = [system.deliver_next() for _ in batch]
                assert [(e.target, e.params["n"]) for e in delivered] == batch, (seed, n)
                assert [(t, params["n"]) for t, _key, params, _ in system.scheduler.pending] \
                    == left, (seed, n)
                pending = left
            assert system.deliver_next() is None
    assert drained and partial


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_a_finished_system_is_freed_by_reference_counting(mode):
    # No reference cycle through the system: a context that outlived its
    # delivery, say one kept per actor, would hold actors -> system ->
    # actors and leave every finished run to the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        system = fresh_system(seed=2, mode=mode)
        a = system.spawn("counter", "a", CounterState())
        b = system.spawn("counter", "b", CounterState())
        system.kick(a, "ping", {"n": 1, "chain": 3})
        system.kick(b, "ping", {"n": 2, "chain": 2})
        net = system.run_to_quiescence()
        assert len(net.events) == 2 + 4 + 3
        freed = weakref.ref(system)
        del system, net
        assert freed() is None
    finally:
        gc.enable()


def test_step_ceiling_reports_livelock():
    def forever(ctx, env):
        ctx.send(ctx.actor_id, "ping")

    system = rt.System(step_ceiling=25)
    system.register_behavior(rt.BehaviorDef(
        name="loop", handlers={"ping": forever},
        action_trees={"ping": ev.Send("self", "ping")}))
    a = system.spawn("loop", "a", rt.ActorState())
    system.kick(a, "ping")
    with pytest.raises(rt.LivelockError, match="possible livelock") as err:
        system.run_to_quiescence()
    assert len(err.value.network.events) > 25


def test_undeclared_send_is_a_contract_violation():
    def sneaky(ctx, env):
        ctx.send(ctx.actor_id, "pong")

    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="sneak", handlers={"ping": sneaky, "pong": lambda ctx, env: None},
        action_trees={"ping": ev.Seq(), "pong": ev.Seq()}))
    a = system.spawn("sneak", "a", rt.ActorState())
    system.kick(a, "ping")
    with pytest.raises(rt.ContractViolation, match="undeclared key 'pong'"):
        system.run_to_quiescence()


def test_missing_handler_is_a_contract_violation():
    system = fresh_system()
    a = system.spawn("counter", "a", CounterState())
    system.kick(a, "no-such-key")
    with pytest.raises(rt.ContractViolation, match="no handler"):
        system.run_to_quiescence()


def test_handler_failure_identifies_the_event():
    def broken(ctx, env):
        return 1 // 0

    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="bad", handlers={"ping": broken}, action_trees={"ping": ev.Seq()}))
    a = system.spawn("bad", "oops", rt.ActorState())
    system.kick(a, "ping")
    with pytest.raises(rt.HandlerFailure, match="oops"):
        system.run_to_quiescence()


def test_request_requires_a_computation_event():
    system = fresh_system()
    system.register_service("double", lambda x: 2 * x)
    with pytest.raises(rt.ContractViolation, match="outside a computation event"):
        system.request("double", 3)


def test_request_inside_an_event():
    results = []

    def asking(ctx, env):
        results.append(ctx.request("double", env.params["n"]))

    system = rt.System()
    system.register_service("double", lambda x: 2 * x)
    system.register_behavior(rt.BehaviorDef(
        name="asker", handlers={"ping": asking}, action_trees={"ping": ev.Seq()}))
    a = system.spawn("asker", "a", rt.ActorState())
    system.kick(a, "ping", {"n": 21})
    system.run_to_quiescence()
    assert results == [42]


def test_unknown_service_is_a_contract_violation():
    def asking(ctx, env):
        ctx.request("halve", 4)

    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="asker", handlers={"ping": asking}, action_trees={"ping": ev.Seq()}))
    a = system.spawn("asker", "a", rt.ActorState())
    system.kick(a, "ping")
    with pytest.raises(rt.ContractViolation, match="unknown service"):
        system.run_to_quiescence()


def test_spawn_during_an_event_is_causally_ordered():
    def parent(ctx, env):
        ctx.spawn("counter", "kid", CounterState())

    system = rt.System()
    system.register_behavior(counter_behavior())
    system.register_behavior(rt.BehaviorDef(
        name="parent", handlers={"ping": parent}, action_trees={"ping": ev.Seq()}))
    a = system.spawn("parent", "a", rt.ActorState())
    system.kick(a, "ping")
    net = system.run_to_quiescence()
    ping = next(e for e in net.events if e.key == "ping")
    created = [e for e in net.events if e.key == ev.CREATED]
    assert created[-1].cause == ping.event_id


def test_initiator_is_rendered_into_params():
    def starter(ctx, env):
        ctx.send(ctx.actor_id, "pong", initiator=ctx.actor_id)

    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="b",
        handlers={"ping": starter, "pong": lambda ctx, env: None},
        action_trees={"ping": ev.Send("self", "pong"), "pong": ev.Seq()}))
    a = system.spawn("b", "a", rt.ActorState())
    system.kick(a, "ping")
    net = system.run_to_quiescence()
    pong = next(e for e in net.events if e.key == "pong")
    assert pong.params["initiator"] == a


class Opaque:
    pass


def test_export_writes_hand_made_params():
    """Events keep params unrendered; the export writes them as json.dumps
    with sorted keys does (a float as a number, a tuple as an array, a None
    key as "null", int keys in numeric order) and a feature structure as
    its text.  A set, or any other object json cannot write itself, makes
    the export raise instead."""
    fs = parse_fs("{case: nom|acc}")

    def starter(ctx, env):
        ctx.send(ctx.actor_id, "show", fs=fs, pair=(1, "a"), ratio=2.5,
                 nothing={None: [False]}, counts={10: 1, 2: 0})
        ctx.send(ctx.actor_id, "show", initiator=ctx.actor_id, nested={"p": [fs, (fs,)]},
                 mixed={10: 2.5, 2: None}, counts={10: 1, 2: 0}, ratio=2.5)

    assert _shown_params(_show_run(starter)) == [
        '{"counts": {"2": 0, "10": 1}, "fs": "{case: acc|nom}", "nothing": {"null": [false]}, '
        '"pair": [1, "a"], "ratio": 2.5}',
        '{"counts": {"2": 0, "10": 1}, "initiator": 1, "mixed": {"2": null, "10": 2.5}, '
        '"nested": {"p": ["{case: acc|nom}", ["{case: acc|nom}"]]}, "ratio": 2.5}',
    ]

    for value, refused in (({"b", "a"}, "set"), (Opaque(), "Opaque")):
        def sends_it(ctx, env):
            ctx.send(ctx.actor_id, "show", fs=fs, value=value)

        with pytest.raises(ValueError, match=f"^event 2 cannot be exported: params hold a {refused},"):
            ev.export(_show_run(sends_it), "jsonl")


def _show_run(starter):
    """The network of one actor whose "ping" handler is ``starter``, which
    sends it "show" messages."""
    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="b",
        handlers={"ping": starter, "show": lambda ctx, env: None},
        action_trees={"ping": ev.Send("self", "show"), "show": ev.Seq()}))
    a = system.spawn("b", "a", rt.ActorState())
    system.kick(a, "ping")
    return system.run_to_quiescence()


def _shown_params(net):
    """The params text of each "show" line of the JSONL export, sorted."""
    return sorted(line[line.index('"params": ') + 10:line.rindex(', "stateVersion": ')]
                  for line in ev.export(net, "jsonl").splitlines() if '"key": "show"' in line)


def test_export_keeps_no_encoder_state_between_lines(monkeypatch):
    """One export writes every line through one encoder, which must keep
    no state from one line to the next: a dict sent twice is written the
    same both times, params that contain themselves are refused without
    touching the next export, and without json's C accelerator the bytes
    are the same."""
    shared = {10: 2.5, 2: None}

    def starter(ctx, env):
        ctx.send(ctx.actor_id, "show", mixed=shared)
        ctx.send(ctx.actor_id, "show", mixed=shared, rows=[{"b": [{"c": 1}]}, {"a": None}])

    net = _show_run(starter)
    text = ev.export(net, "jsonl")
    assert _shown_params(net) == [
        '{"mixed": {"2": null, "10": 2.5}, "rows": [{"b": [{"c": 1}]}, {"a": null}]}',
        '{"mixed": {"2": null, "10": 2.5}}',
    ]

    looped = ev.EventNetwork()
    params = {"n": 1}
    params["self"] = params
    looped.record(0, "show", params, None, 0)
    with pytest.raises(ValueError, match="Circular reference detected"):
        json.dumps(params)
    with pytest.raises(ValueError, match="^event 0 cannot be exported: "):
        ev.export(looped, "jsonl")
    assert ev.export(net, "jsonl") == text

    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    with pytest.raises(ValueError, match="^event 0 cannot be exported: Circular reference detected"):
        ev.export(looped, "jsonl")
    assert ev.export(net, "jsonl") == text


def test_an_event_keeps_the_params_dict_of_its_message():
    # one dict per message: the event records the dict the handler reads,
    # and the initiator is one of its params
    seen = []

    def starter(ctx, env):
        ctx.send(ctx.actor_id, "show", initiator=ctx.actor_id, n=1)
        ctx.send(ctx.actor_id, "show", n=2)

    def show(ctx, env):
        seen.append((env.params, ctx._system.net.events[ctx._event].params))

    system = rt.System()
    system.register_behavior(rt.BehaviorDef(
        name="b", handlers={"ping": starter, "show": show},
        action_trees={"ping": ev.Send("self", "show"), "show": ev.Seq()}))
    a = system.spawn("b", "a", rt.ActorState())
    system.kick(a, "ping")
    system.run_to_quiescence()
    by_n = {params["n"]: params for params, _recorded in seen}
    assert by_n == {1: {"n": 1, "initiator": a}, 2: {"n": 2}}
    assert all(params is recorded for params, recorded in seen)


def test_kick_params_are_copied():
    system = fresh_system()
    a = system.spawn("counter", "a", CounterState())
    params = {"n": 1}
    system.kick(a, "ping", params)
    params["n"] = 2
    net = system.run_to_quiescence()
    assert [e.params for e in net.events if e.key == "ping"] == [{"n": 1}]


def test_state_version_is_recorded_before_processing():
    system = fresh_system()
    a = system.spawn("counter", "a", CounterState())
    system.kick(a, "ping", {"n": 1})
    system.kick(a, "ping", {"n": 2})
    net = system.run_to_quiescence()
    versions = [e.state_version for e in net.events if e.key == "ping"]
    assert versions == [0, 1]


def test_rejects_unknown_mode():
    with pytest.raises(ValueError):
        rt.System(mode="speculative")


def _parallel_fixture(mode, seed):
    system = rt.System(seed=seed, mode=mode)
    system.register_behavior(counter_behavior())
    ids = [system.spawn("counter", f"w{i}", CounterState()) for i in range(3)]
    for i, aid in enumerate(ids):
        system.kick(aid, "ping", {"n": i, "chain": 2})
        system.kick(aid, "ping", {"n": 10 + i})
    net = system.run_to_quiescence()
    summary = sorted((net.name_of(e.target), e.key, e.params.get("n"))
                     for e in net.events)
    return net, summary


def test_parallel_mode_delivers_the_same_multiset():
    _, sequential = _parallel_fixture("sequential", seed=5)
    _, parallel = _parallel_fixture("parallel", seed=5)
    assert sequential == parallel


def test_parallel_mode_is_still_a_valid_linearization():
    net, _ = _parallel_fixture("parallel", seed=9)
    for e in net.events:
        assert e.cause is None or e.cause < e.event_id


def test_parallel_mode_is_deterministic_per_seed():
    net1, _ = _parallel_fixture("parallel", seed=2)
    net2, _ = _parallel_fixture("parallel", seed=2)
    assert ev.export(net1, "jsonl") == ev.export(net2, "jsonl")
