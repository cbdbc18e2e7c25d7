"""End-to-end acceptance checks, one test per criterion.

Every test prints a single PASS/FAIL line, so

    pytest -s tests/test_acceptance.py

doubles as the acceptance report.  Criteria 4, 5 and 6 share one cached
100-seed sweep over the bundled corpus.
"""

import dataclasses
import random
import time
from collections import Counter

import pytest

from helpers import DEMO_EDGES, DEMO_SENTENCE, corpus_cases, fixture_text

from wordactors import events as ev
from wordactors import features as ft
from wordactors import protocol as pt
from wordactors.oracle import oracle_parse


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {detail or label}"


# --------------------------------------------------------------------------
# Criterion 1: the sample sentence parses to the single six-edge reading.

def test_criterion_1_sample_sentence(demo_lexicon, demo_kb):
    started = time.perf_counter()
    _, _, trees = pt.run_parse(demo_lexicon, demo_kb, DEMO_SENTENCE, seed=0)
    elapsed = time.perf_counter() - started
    renders = [t.render() for t in trees]
    ok = renders == ["\n".join(DEMO_EDGES)] and elapsed < 1.0
    report(1, "sample sentence yields the single six-edge reading in under a second",
           ok, f"readings={renders!r}, elapsed={elapsed:.3f}s")


# --------------------------------------------------------------------------
# Criterion 2: the attachment episode of "mit" projects to the expected
# nine-event network on every seed, and the follow-up scanNext is caused by
# whichever of the two receipts arrived later.

def _episode_reference() -> ev.EventNetwork:
    """The expected cause structure of the "mit" attachment episode."""
    ref = ev.EventNetwork()
    for i, name in enumerate(
            ["mit", "Notebook", "entwickelt", "120-MByte-Harddisk", "einer"]):
        ref.register_actor(i, name)

    def rec(target, key, cause):
        return ref.record(target, key, {}, cause, 0).event_id

    opener = rec(0, "headAccepted", None)        # einer bound, mit may search
    ask_nb = rec(1, "searchHead", opener)        # the search reaches Notebook
    ask_vb = rec(2, "searchHead", ask_nb)        # and travels on to entwickelt
    offer = rec(0, "headFound", ask_nb)          # Notebook offers its slot
    upd_hd = rec(3, "updateFeatures", offer)     # delta walks mit's subtree
    rec(4, "updateFeatures", upd_hd)
    accept = rec(1, "headAccepted", offer)       # mit takes the offer
    rec(0, "receipt", ask_vb)                    # entwickelt declines
    rec(0, "receipt", accept)                    # Notebook confirms
    return ref


EPISODE_LABELS = Counter({
    "[mit] <= headAccepted": 1,
    "[Notebook] <= searchHead": 1,
    "[entwickelt] <= searchHead": 1,
    "[mit] <= headFound": 1,
    "[120-MByte-Harddisk] <= updateFeatures": 1,
    "[einer] <= updateFeatures": 1,
    "[Notebook] <= headAccepted": 1,
    "[mit] <= receipt": 2,
})


def test_criterion_2_attachment_episode(demo_lexicon, demo_kb):
    reference = _episode_reference()
    ok, detail = True, ""
    for seed in range(10):
        system, net, _ = pt.run_parse(demo_lexicon, demo_kb, DEMO_SENTENCE, seed=seed)
        mit = next(a.actor_id for a in system.actors.values()
                   if a.behavior.name == "word" and a.state.surface == "mit")
        ids = pt.episode_events(net, mit)
        core = {i for i in ids if net.events[i].key != "scanNext"}
        scans = [net.events[i] for i in ids - core]
        labels = Counter(f"[{net.name_of(net.events[i].target)}] <= {net.events[i].key}"
                         for i in core)
        verdict = ev.compare_networks(net.subnetwork(core), reference,
                                      "up-to-actor-renaming")
        receipts = sorted(i for i in core if net.events[i].key == "receipt")
        if labels != EPISODE_LABELS:
            ok, detail = False, f"seed {seed}: events {sorted(labels.items())}"
            break
        if not verdict:
            ok, detail = False, f"seed {seed}: {verdict.detail}"
            break
        if len(scans) != 1 or scans[0].cause != receipts[-1]:
            ok, detail = False, f"seed {seed}: scanNext not caused by the later receipt"
            break
    report(2, "attachment episode projects to the expected nine-event network "
              "for every seed in 0..9", ok, detail)


# --------------------------------------------------------------------------
# Criterion 3: the derived type network matches the golden file, and removing
# any single declared send changes the derivation.

EXPECTED_VISIBLE_EDGES = {
    ("copyStructure", "copyStructure", "self has modifiers"),
    ("copyStructure", "headAccepted", ""),
    ("duplicateStructure", "copyStructure", "self has modifiers"),
    ("duplicateStructure", "headFound", ""),
    ("headAccepted", "receipt", ""),
    ("headAccepted", "searchHead", ""),
    ("headFound", "copyStructure", "structural ambiguity & self has modifiers"),
    ("headFound", "duplicateStructure", "self is governed"),
    ("headFound", "headAccepted", "no ambiguity"),
    ("headFound", "updateFeatures", "self has modifiers"),
    ("receipt", "scanNext", ""),
    ("scanNext", "scanNext", ""),
    ("scanNext", "searchHead", ""),
    ("searchHead", "headFound", "valency constraint satisfied"),
    ("searchHead", "receipt", "no constraint satisfied"),
    ("searchHead", "searchHead", "distribution"),
    ("updateFeatures", "updateFeatures", "self has modifiers"),
}


def _count_sends(node) -> int:
    if isinstance(node, ev.Send):
        return 1
    if isinstance(node, ev.Seq):
        return sum(_count_sends(c) for c in node.children)
    if isinstance(node, ev.If):
        inner = _count_sends(node.then)
        if node.orelse is not None:
            inner += _count_sends(node.orelse)
        return inner
    return 0


def _drop_send(node, box):
    """Clone of the tree with the box[0]-th send (preorder) removed."""
    if isinstance(node, ev.Send):
        box[0] -= 1
        return ev.Seq() if box[0] == -1 else node
    if isinstance(node, ev.Seq):
        return ev.Seq(*[_drop_send(c, box) for c in node.children])
    if isinstance(node, ev.If):
        then = _drop_send(node.then, box)
        orelse = None if node.orelse is None else _drop_send(node.orelse, box)
        return ev.If(node.label, then, orelse)
    return node


def test_criterion_3_golden_type_network():
    behaviors = pt.protocol_behaviors()
    etn = ev.derive_etn(behaviors)
    golden_ok = ev.export(etn, "dot") == fixture_text("etn_golden.dot")
    visible = {(s, d, g) for (s, d, g, plumbing) in etn.edges if not plumbing}
    visible_ok = visible == EXPECTED_VISIBLE_EDGES

    unchanged = []
    mutants = 0
    for at, behavior in enumerate(behaviors):
        for key, tree in behavior.action_trees.items():
            for n in range(_count_sends(tree)):
                trees = dict(behavior.action_trees)
                trees[key] = _drop_send(tree, [n])
                mutant = dataclasses.replace(behavior, action_trees=trees)
                roster = behaviors[:at] + [mutant] + behaviors[at + 1:]
                mutants += 1
                if ev.derive_etn(roster).edges == etn.edges:
                    unchanged.append(f"{behavior.name}/{key} send #{n}")
        for key, sends in behavior.distribution_sends.items():
            for n in range(len(sends)):
                dist = dict(behavior.distribution_sends)
                dist[key] = sends[:n] + sends[n + 1:]
                mutant = dataclasses.replace(behavior, distribution_sends=dist)
                roster = behaviors[:at] + [mutant] + behaviors[at + 1:]
                mutants += 1
                if ev.derive_etn(roster).edges == etn.edges:
                    unchanged.append(f"{behavior.name}/{key} forward #{n}")

    ok = golden_ok and visible_ok and mutants >= 21 and not unchanged
    report(3, "derived type network matches the golden file and every send "
              "deletion changes it",
           ok, f"golden={golden_ok}, visible={visible_ok}, mutants={mutants}, "
               f"unchanged={unchanged}")


# --------------------------------------------------------------------------
# Criteria 4, 5, 6 share one sweep: every corpus sentence, seeds 0..99.

@pytest.fixture(scope="module")
def sweep(demo_lexicon, demo_kb):
    etn = ev.derive_etn(pt.protocol_behaviors())
    rows = []
    started = time.perf_counter()
    for want, tokens in corpus_cases():
        reference = Counter(
            t.canonical() for t in oracle_parse(demo_lexicon, demo_kb, list(tokens)))
        outcomes = []
        problems = []
        deferrals = 0
        for seed in range(100):
            system, net, trees = pt.run_parse(demo_lexicon, demo_kb, list(tokens),
                                              seed=seed)
            outcomes.append(Counter(t.canonical() for t in trees))
            problems.extend(pt.check_invariants(system, net, etn))
            deferrals = max(deferrals, sum(a.state.deferred for a in pt._word_actors(system)))
        rows.append((tokens, want, reference, outcomes, problems, deferrals))
    return rows, time.perf_counter() - started


def test_criterion_4_reference_equivalence(sweep):
    rows, elapsed = sweep
    mismatches = [
        f"{' '.join(tokens)} (seed {seed})"
        for tokens, _, reference, outcomes, _, _ in rows
        for seed, got in enumerate(outcomes) if got != reference
    ]
    count_gaps = [" ".join(tokens)
                  for tokens, want, reference, _, _, _ in rows
                  if sum(reference.values()) != want]
    shape_ok = (len(rows) >= 12
                and all(len(tokens) <= 8 for tokens, *_ in rows)
                and any(deferrals > 0 for *_, deferrals in rows)
                and any(want >= 2 for _, want, *_ in rows))
    ok = shape_ok and not mismatches and not count_gaps and elapsed < 60.0
    report(4, f"engine output equals the exhaustive reference on "
              f"{len(rows)} sentences x 100 seeds in {elapsed:.1f}s",
           ok, f"mismatches={mismatches[:3]}, count_gaps={count_gaps}, "
               f"shape_ok={shape_ok}, elapsed={elapsed:.1f}s")


def test_criterion_5_confluence(sweep):
    rows, _ = sweep
    unstable = [" ".join(tokens)
                for tokens, _, _, outcomes, _, _ in rows
                if any(got != outcomes[0] for got in outcomes)]
    report(5, "reading multisets are seed-invariant across 100 seeds per sentence",
           not unstable, f"unstable sentences: {unstable}")


def test_criterion_6_run_invariants(sweep):
    rows, _ = sweep
    problems = [p for _, _, _, _, probs, _ in rows for p in probs]
    report(6, "ledgers, projectivity, scan accounting and trace soundness hold "
              "on every corpus run", not problems, f"problems: {problems[:5]}")


# --------------------------------------------------------------------------
# Criterion 7: algebraic laws of unification on a large random sample.

ATTRS = ["case", "num", "gend", "pers", "agr", "head", "comp"]
ATOMS = ["nom", "acc", "dat", "gen", "sg", "pl", "masc", "fem", "neut",
         "1", "2", "3"]


def _random_structure(rng, depth):
    mapping = {}
    for attr in rng.sample(ATTRS, rng.randint(0, 4)):
        if depth > 0 and rng.random() < 0.3:
            mapping[attr] = _random_structure(rng, depth - 1)
        else:
            mapping[attr] = frozenset(rng.sample(ATOMS, rng.randint(1, 3)))
    return ft.FeatureStructure(mapping)


def _chain(x, y):
    if x is None or y is None:
        return None
    return ft.unify(x, y)


def test_criterion_7_unification_laws():
    rng = random.Random(20260815)
    cases = 1200
    failures = []
    for n in range(cases):
        a = _random_structure(rng, 2)
        b = _random_structure(rng, 2)
        c = _random_structure(rng, 2)
        if ft.unify(a, a) != a:
            failures.append(f"case {n}: idempotence")
        if ft.unify(a, b) != ft.unify(b, a):
            failures.append(f"case {n}: commutativity")
        if _chain(a, _chain(b, c)) != _chain(_chain(a, b), c):
            failures.append(f"case {n}: associativity")
        joined = ft.unify(a, b)
        if joined is not None and not (ft.subsumes(a, joined)
                                       and ft.subsumes(b, joined)):
            failures.append(f"case {n}: monotonicity")
    report(7, f"unification laws hold on {cases} random structure triples",
           cases >= 1000 and not failures, f"failures: {failures[:5]}")


# --------------------------------------------------------------------------
# Criterion 8: knowledge decides the prepositional attachment.

def test_criterion_8_attachment_follows_knowledge(demo_lexicon, demo_kb,
                                                  permissive_kb):
    def run(kb):
        _, _, trees = pt.run_parse(demo_lexicon, demo_kb if kb is None else kb,
                                   DEMO_SENTENCE, seed=0)
        return trees

    strict = run(None)
    loose = run(permissive_kb)
    strict_ref = Counter(t.canonical()
                         for t in oracle_parse(demo_lexicon, demo_kb, DEMO_SENTENCE))
    loose_ref = Counter(t.canonical()
                        for t in oracle_parse(demo_lexicon, permissive_kb, DEMO_SENTENCE))

    strict_ok = (len(strict) == 1
                 and Counter(t.canonical() for t in strict) == strict_ref
                 and any(e.head_surface == "Notebook" and e.label == "ppatt"
                         and e.mod_surface == "mit" for e in strict[0].edges))
    attachments = {
        next((e.head_surface, e.label) for e in t.edges if e.mod_surface == "mit")
        for t in loose
    }
    loose_ok = (len(loose) == 2
                and Counter(t.canonical() for t in loose) == loose_ref
                and attachments == {("Notebook", "ppatt"), ("entwickelt", "ppadj")})
    report(8, "restrictive knowledge keeps one attachment, permissive knowledge "
              "yields both oracle readings",
           strict_ok and loose_ok,
           f"strict={len(strict)} readings, loose={len(loose)} readings, "
           f"attachments={attachments}")
