"""The word-actor protocol end to end: attachment, deferral, receipts,
ambiguity splitting, and the invariants that hold at quiescence."""

import ast
import dataclasses
import itertools
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DEMO_EDGES, DEMO_SENTENCE, corpus_cases

from wordactors import cli
from wordactors import events as ev
from wordactors import lexicon as lx
from wordactors import protocol as pt
from wordactors import runtime as rt
from wordactors.features import parse_fs
from wordactors.oracle import oracle_parse
from wordactors.trees import Edge, ParseTree, is_projective


ETN = ev.derive_etn(pt.protocol_behaviors())


def canon(trees):
    return Counter(t.canonical() for t in trees)


def test_sample_sentence_has_exactly_the_six_edges(demo_lexicon, demo_kb):
    system, net, trees = pt.run_parse(demo_lexicon, demo_kb, DEMO_SENTENCE)
    assert len(trees) == 1
    assert trees[0].render() == "\n".join(DEMO_EDGES)
    assert pt.check_invariants(system, net, ETN) == []
    # run facts live in the actors' states; the runtime runs the one debug
    # check as the observer of every searchHead delivery
    assert system.observers == {pt.SEARCH_HEAD: pt._assert_on_fringe}


def test_corpus_counts_and_oracle_agreement(demo_lexicon, demo_kb):
    # the full 100-seed sweep lives in the acceptance suite; this is the
    # single-seed smoke version
    for want, tokens in corpus_cases():
        system, net, trees = pt.run_parse(demo_lexicon, demo_kb, list(tokens), seed=0)
        assert len(trees) == want, tokens
        assert canon(trees) == canon(oracle_parse(demo_lexicon, demo_kb, list(tokens)))
        assert pt.check_invariants(system, net, ETN) == [], tokens


def test_deferral_happens_twice_in_the_sample(demo_lexicon, demo_kb):
    # the verb waits for its direct object, the preposition for its noun
    system, _, _ = pt.run_parse(demo_lexicon, demo_kb, DEMO_SENTENCE)
    deferred = [a.state.surface for a in pt._word_actors(system) if a.state.deferred]
    assert deferred == ["entwickelt", "mit"]


def test_every_episode_ledger_closes(demo_lexicon, demo_kb):
    system, _, _ = pt.run_parse(demo_lexicon, demo_kb, DEMO_SENTENCE, seed=13)
    for actor in system.actors.values():
        if actor.behavior.name != "word":
            continue
        for ledger in actor.state.episodes.values():
            assert ledger.closed
            assert ledger.received == ledger.expected


def test_feature_updates_cascade_to_the_determiner(demo_lexicon, demo_kb):
    _, net, _ = pt.run_parse(demo_lexicon, demo_kb, DEMO_SENTENCE)
    touched = {net.name_of(e.target) for e in net.events if e.key == pt.UPDATE_FEATURES}
    assert "120-MByte-Harddisk" in touched
    assert "einer" in touched


def test_empty_input_yields_no_readings(demo_lexicon, demo_kb):
    system, net, trees = pt.run_parse(demo_lexicon, demo_kb, [])
    assert trees == []
    assert pt.check_invariants(system, net, ETN) == []


def test_single_word_sentence(demo_lexicon, demo_kb):
    _, _, trees = pt.run_parse(demo_lexicon, demo_kb, ["Atari"])
    assert len(trees) == 1
    assert trees[0].render() == "Atari"


def test_incomplete_sentence_has_no_reading(demo_lexicon, demo_kb):
    # the verb's direct object stays empty
    _, _, trees = pt.run_parse(demo_lexicon, demo_kb, "Compaq entwickelt".split())
    assert trees == []


def test_unknown_word_aborts_in_strict_mode(demo_lexicon, demo_kb):
    with pytest.raises(pt.ParseAbort, match="unknown word 'zzz' at position 2"):
        pt.run_parse(demo_lexicon, demo_kb, ["Compaq", "zzz"])


def test_unknown_word_is_skipped_in_lenient_mode(demo_lexicon, demo_kb):
    system, _, trees = pt.run_parse(demo_lexicon, demo_kb,
                                    ["eine", "zzz", "Harddisk"], lenient=True)
    scanner = pt._scanner_state(system)
    assert (scanner.cursor, scanner.spawned) == (3, 2)
    assert len(trees) == 1
    assert trees[0].render() == "Harddisk —spec→ eine"


def test_homonym_supported_only_in_final_position(demo_lexicon, demo_kb):
    with pytest.raises(pt.ParseAbort, match="several lexicon entries"):
        pt.run_parse(demo_lexicon, demo_kb, "Atari liefert einen Rechner".split())


def test_final_homonym_keeps_the_consistent_entry(demo_lexicon, demo_kb):
    _, _, trees = pt.run_parse(demo_lexicon, demo_kb, "Compaq liefert einen Atari".split())
    assert len(trees) == 1
    edges = {(e.head_surface, e.label, e.mod_surface) for e in trees[0].edges}
    assert ("liefert", "dirobj", "Atari") in edges


def test_ambiguous_attachment_produces_two_readings(demo_lexicon, permissive_kb):
    system, net, trees = pt.run_parse(demo_lexicon, permissive_kb, DEMO_SENTENCE)
    assert len(trees) == 2
    assert pt.check_invariants(system, net, ETN) == []
    flat = [t.canonical()[1] for t in sorted(trees, key=lambda t: t.canonical())]
    only_a = set(flat[0]) - set(flat[1])
    only_b = set(flat[1]) - set(flat[0])
    # the two readings differ in exactly the attachment of the preposition
    assert only_a == {(2, "ppadj", 5)}
    assert only_b == {(4, "ppatt", 5)}


def test_split_is_confluent_over_seeds(demo_lexicon, demo_kb):
    tokens = "Compaq liefert einen Rechner mit einer Harddisk".split()
    reference = canon(pt.run_parse(demo_lexicon, demo_kb, tokens, seed=0)[2])
    assert sum(reference.values()) == 2
    for seed in range(1, 25):
        assert canon(pt.run_parse(demo_lexicon, demo_kb, tokens, seed=seed)[2]) == reference


def test_copies_carry_no_stale_valencies(demo_lexicon, permissive_kb):
    system, _, _ = pt.run_parse(demo_lexicon, permissive_kb, DEMO_SENTENCE, seed=3)
    words = [a for a in system.actors.values() if a.behavior.name == "word"]
    copies = [a for a in words if a.state.origin_of is not None]
    assert copies, "the ambiguous run must copy structure"
    for actor in words:
        assert actor.state.expected_rebuilds == set(), actor.state.surface


def test_parallel_mode_agrees_with_sequential(demo_lexicon, demo_kb):
    for want, tokens in corpus_cases()[:6]:
        seq = canon(pt.run_parse(demo_lexicon, demo_kb, list(tokens), seed=4)[2])
        par = canon(pt.run_parse(demo_lexicon, demo_kb, list(tokens), seed=4,
                                 mode="parallel")[2])
        assert seq == par == canon(oracle_parse(demo_lexicon, demo_kb, list(tokens)))


def test_withdrawn_offer_releases_the_receipt(demo_lexicon, demo_kb):
    """Corrupt an in-flight offer so its constraints no longer unify: the
    candidate must answer with a retraction and the episode must still
    close cleanly, leaving no complete reading."""
    tokens = "mit einer Harddisk".split()
    system, scanner = pt.build_system(demo_lexicon, demo_kb, tokens, seed=0)
    system.kick(scanner, pt.SCAN_NEXT)
    corrupted = 0
    while True:
        if not corrupted:
            for _target, key, params, _cause in system.scheduler.pending:
                if key == pt.HEAD_FOUND and params.get("role") == "offer":
                    params["constraints"] = parse_fs("{case: qqq}")
                    corrupted += 1
        if system.deliver_next() is None:
            break
    assert corrupted == 1
    retractions = [e for e in system.net.events if e.key == pt.HEAD_RETRACTED]
    assert len(retractions) == 1
    assert pt.read_out_trees(system) == []
    assert pt.check_invariants(system, system.net, ETN) == []


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_a_natural_run_retracts_an_application(demo_lexicon, demo_kb, mode, capsys):
    """`eine eine Harddisk`: the second determiner applies for the noun's
    `spec` and is accepted; the search passes on to the first determiner,
    which applies for `spec` too, from the profile the search carries.  The
    noun, whose `spec` is taken by then, retracts that application.  The
    episode still closes, and there is no reading, as in the reference."""
    tokens = "eine eine Harddisk".split()
    assert oracle_parse(demo_lexicon, demo_kb, tokens) == []
    for seed in range(100):
        system, net, trees = pt.run_parse(demo_lexicon, demo_kb, tokens, seed=seed,
                                          mode=mode)
        assert [e.key for e in net.events].count(pt.HEAD_RETRACTED) == 1, seed
        assert trees == [], seed
        assert pt.check_invariants(system, net, ETN) == [], seed
    assert cli.main(["parse", "--mode", mode, *tokens]) == 2
    assert "no complete reading" in capsys.readouterr().err


def test_fringe_discipline_is_checked_on_every_search(monkeypatch, demo_lexicon, demo_kb):
    # debug checks stay on by default in run_parse: every searchHead
    # delivery runs the fringe check once, at its receiver
    checked = []
    check = pt._assert_on_fringe

    def counted(system, event):
        checked.append(event.target)
        check(system, event)

    monkeypatch.setattr(pt, "_assert_on_fringe", counted)
    searches = 0
    for _want, tokens in corpus_cases():
        checked.clear()
        _, net, _ = pt.run_parse(demo_lexicon, demo_kb, list(tokens), seed=2)
        delivered = [e.target for e in net.events if e.key == pt.SEARCH_HEAD]
        assert checked == delivered, tokens
        searches += len(delivered)
        checked.clear()
        pt.run_parse(demo_lexicon, demo_kb, list(tokens), seed=2, debug_checks=False)
        assert checked == [], tokens
    assert searches > 0


def test_projectivity_of_every_output(demo_lexicon, demo_kb, permissive_kb):
    for kb in (demo_kb, permissive_kb):
        for _want, tokens in corpus_cases():
            system, _, trees = pt.run_parse(demo_lexicon, kb, list(tokens), seed=1)
            positions = range(1, pt._scanner_state(system).spawned + 1)
            for t in trees:
                assert is_projective(t, positions)


def test_scan_accounting_balances(demo_lexicon, demo_kb):
    # each term of the scanNext prediction in check_invariants, read off the
    # final states, against the scanNext events grouped by their cause's key
    runs = [(tokens, False) for _want, tokens in corpus_cases()]
    runs += [("zzz Compaq entwickelt zzz".split(), True), (DEMO_SENTENCE, False)]
    for tokens, lenient in runs:
        system, net, _ = pt.run_parse(demo_lexicon, demo_kb, list(tokens), seed=6,
                                      lenient=lenient)
        by_cause = Counter(net.events[min(e.causes)].key if e.causes else None
                           for e in net.events if e.key == pt.SCAN_NEXT)
        scanner = pt._scanner_state(system)
        words = [a.state for a in pt._word_actors(system)]
        born = [w for w in words if w.origin_of is None]
        predicted = Counter({
            None: 1,
            pt.SCAN_NEXT: (sum(w.deferred or w.position == 1 for w in born)
                           + scanner.cursor - scanner.spawned),
            pt.RECEIPT: sum(ledger.closed for w in words for ledger in w.episodes.values()),
            pt.HEAD_ACCEPTED: sum(len(w.searches_launched - w.episodes.keys())
                                  for w in born if w.deferred),
        })
        assert +by_cause == +predicted, tokens
        assert sorted({w.position for w in born}) == list(range(1, scanner.spawned + 1))
        assert scanner.spawned == len(tokens) - tokens.count("zzz")
        assert pt.check_invariants(system, net, ETN) == []


def test_check_invariants_reports_an_extra_scan_next(monkeypatch, demo_lexicon, demo_kb):
    extra = []

    def scan_once_more(ctx, env):
        pt.on_scan_next(ctx, env)
        if ctx.state.cursor == len(ctx.state.tokens) and not extra:
            extra.append(ctx.actor_id)
            ctx.send(ctx.actor_id, pt.SCAN_NEXT)

    variant = dataclasses.replace(pt.scanner_behavior(),
                                  handlers={pt.SCAN_NEXT: scan_once_more})
    monkeypatch.setattr(pt, "scanner_behavior", lambda: variant)
    system, net, trees = pt.run_parse(demo_lexicon, demo_kb, DEMO_SENTENCE)
    assert extra and len(trees) == 1
    scans = sum(1 for e in net.events if e.key == pt.SCAN_NEXT)
    assert pt.check_invariants(system, net, ETN) == [
        f"scanNext accounting: {scans} events, predicted {scans - 1}"]


def test_check_invariants_reports_a_word_outside_the_spawned_positions(demo_lexicon,
                                                                       demo_kb):
    system, net, _ = pt.run_parse(demo_lexicon, demo_kb, DEMO_SENTENCE)
    assert pt.check_invariants(system, net, ETN) == []
    born = [a.state for a in pt._word_actors(system) if a.state.origin_of is None]
    max(born, key=lambda w: w.position).position += 1
    assert "token spawn accounting is off" in pt.check_invariants(system, net, ETN)


def _held(**fields):
    return pt.HeldReceipt(**{"initiator": 4, "candidate": 2, "valency": "dirobj",
                             "reading": (), "answered_by": 1, **fields})


@pytest.mark.parametrize("spoil, problem", [
    ({"episodes": {(): pt.ReceiptLedger(expected={8, 3, 5}, received={5})}},
     "Notebook@4: receipt ledger still open, waiting for [3, 8]"),
    ({"episodes": {(): pt.ReceiptLedger(expected={3}, received={3, 6}, closed=True)}},
     "Notebook@4: ledger closed but out of balance"),
    ({"pending_offer": _held()}, "Notebook@4: head offer never answered"),
    ({"pending_application": _held()}, "Notebook@4: application never answered"),
    ({"expected_rebuilds": {9, 2}}, "Notebook@4: structure copy incomplete, missing [2, 9]"),
], ids=["open-ledger", "unbalanced-ledger", "offer", "application", "copy"])
def test_check_invariants_names_each_word_problem(demo_lexicon, demo_kb, spoil, problem):
    # one quiescent run, one word spoilt by hand; without the net, the
    # scanNext accounting is not checked, so the word's problem is all
    system, _net, _trees = pt.run_parse(demo_lexicon, demo_kb, DEMO_SENTENCE)
    assert pt.check_invariants(system) == []
    (word,) = [a.state for a in pt._word_actors(system) if a.state.position == 4]
    for name, value in spoil.items():
        setattr(word, name, value)
    assert pt.check_invariants(system) == [problem]


# -- contract tables ----------------------------------------------------------

def test_contract_table_is_the_key_projection_of_the_script():
    for behavior in pt.protocol_behaviors():
        script = ev.derive_script(behavior)
        for key, pairs in script.items():
            assert behavior.allowed_keys(key) == {sent for sent, _, _ in pairs}
        assert behavior.allowed_keys("noSuchKey") == frozenset()


def test_contract_table_follows_the_instance(demo_lexicon, demo_kb):
    word = pt.word_behavior()
    mutant = dataclasses.replace(
        word, action_trees={**word.action_trees, pt.SEARCH_HEAD: ev.Seq()})
    # only the distribution forward stays declared for the emptied key
    assert mutant.allowed_keys(pt.SEARCH_HEAD) == {pt.SEARCH_HEAD}
    assert word.allowed_keys(pt.SEARCH_HEAD) > {pt.SEARCH_HEAD}

    tokens = "Compaq liefert einen Rechner".split()
    system, scanner = pt.build_system(demo_lexicon, demo_kb, tokens)
    system.register_behavior(mutant)
    system.kick(scanner, pt.SCAN_NEXT)
    with pytest.raises(rt.ContractViolation, match="undeclared key"):
        system.run_to_quiescence()


# -- shared behaviors ---------------------------------------------------------

def test_systems_share_the_protocol_behaviors(demo_lexicon, demo_kb):
    first, _ = pt.build_system(demo_lexicon, demo_kb, ["Atari"])
    second, _ = pt.build_system(demo_lexicon, demo_kb, ["Atari"], seed=1)
    for name in ("word", "scanner"):
        assert first.behaviors[name] is second.behaviors[name]
    listed = pt.protocol_behaviors()
    again = pt.protocol_behaviors()
    assert listed is not again
    assert listed == again == [first.behaviors["word"], first.behaviors["scanner"]]
    assert all(a is b for a, b in zip(listed, again))


def test_a_parse_leaves_the_shared_behaviors_as_built(demo_lexicon, permissive_kb):
    # the ambiguous sample splits, so the copy handlers run too
    _, net, _ = pt.run_parse(demo_lexicon, permissive_kb, DEMO_SENTENCE, seed=3)
    assert pt.DUPLICATE_STRUCTURE in {e.key for e in net.events}
    for shared, build in ((pt.word_behavior(), pt.word_behavior.__wrapped__),
                          (pt.scanner_behavior(), pt.scanner_behavior.__wrapped__)):
        fresh = build()
        assert fresh is not shared and fresh.handlers is not shared.handlers
        assert shared == fresh      # handler tables and declarations
        assert shared._allowed == fresh._allowed


def test_a_handler_reaches_only_its_own_actor():
    # a context has no shared knowledge and no public way to the system,
    # and the protocol takes no private way there either: no expression in
    # protocol.py reads .system, ._system or .shared, of ctx or of anything
    assert not {"system", "shared"} & set(rt.Context.__slots__)
    tree = ast.parse(Path(pt.__file__).read_text(encoding="utf-8"))
    reads = [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("system", "_system", "shared")]
    assert reads == []


def test_each_surface_is_resolved_once_per_parse(monkeypatch, demo_lexicon, demo_kb):
    tokens = "Compaq liefert einen Rechner".split() + 2 * "mit einer Harddisk".split()
    resolved = []
    resolve_entry = lx.resolve_entry

    def resolving(lexicon, surface):
        resolved.append(surface)
        return resolve_entry(lexicon, surface)

    monkeypatch.setattr(lx, "resolve_entry", resolving)
    system, scanner = pt.build_system(demo_lexicon, demo_kb, tokens)
    service = system.services["resolve_entry"]
    looked_up = []

    def looking_up(surface):
        looked_up.append(surface)
        return service(surface)

    system.services["resolve_entry"] = looking_up
    system.kick(scanner, pt.SCAN_NEXT)
    system.run_to_quiescence()
    # every token is looked up through the service, each surface resolved once
    assert looked_up == tokens
    assert resolved == list(dict.fromkeys(tokens))


def test_resolved_entries_do_not_outlive_the_parse(demo_lexicon, demo_kb):
    lexicon = dataclasses.replace(demo_lexicon, lexemes=dict(demo_lexicon.lexemes))
    tokens = "Compaq liefert einen Kasten".split()
    with pytest.raises(pt.ParseAbort, match="unknown word 'Kasten'"):
        pt.run_parse(lexicon, demo_kb, tokens)
    lexicon.lexemes["Kasten"] = lexicon.lexemes["Rechner"]
    assert len(pt.run_parse(lexicon, demo_kb, tokens)[2]) == 1


# -- the rewritten scans against their full-scan originals --------------------

def _full_scan_fringe_check(system, event):
    """The fringe check as first written: walk the head chain of every word
    actor that borders the candidate."""
    profile = event.params["profile"]
    context = profile["reading"]
    border = profile["left_edge"] - 1
    for a in system.actors.values():
        if a.behavior.name != "word":
            continue
        st = a.state
        if st.right_edge != border or st.reading not in pt._prefixes(context):
            continue
        node, hops = a, set()
        while node is not None and node.actor_id not in hops:
            if node.actor_id == event.target:
                return
            hops.add(node.actor_id)
            link = pt._governing_link(node.state, context)
            node = system.actors.get(link.head) if link is not None else None
    own = system.actors[event.target].state
    raise pt.ProtocolError(
        f"{own.surface}: searchHead reached a word outside the search fringe "
        f"(receiver at position {own.position}, left_edge {own.left_edge}, "
        f"right_edge {own.right_edge}, reading {own.reading}; "
        f"search in reading {context}, border {border})")


def _full_scan_materialize(system, words, positions, tag):
    """The readout of one tag as first written: a pass over every word
    actor, and a walk to the root from every position."""
    chosen = {}
    for a in words:
        if a.state.reading not in pt._prefixes(tag):
            continue
        p = a.state.position
        cur = chosen.get(p)
        if cur is None or len(a.state.reading) > len(cur.state.reading):
            chosen[p] = a
        elif cur is not a and len(a.state.reading) == len(cur.state.reading):
            return None
    if sorted(chosen) != positions:
        return None

    actor_pos = {a.actor_id: a.state.position for a in words}
    roots, edges, taken = [], set(), set()
    for p, a in sorted(chosen.items()):
        link = pt._effective_link(system, a, tag)
        if link is None:
            roots.append(p)
            continue
        hp = actor_pos.get(link.head)
        if hp is None or hp not in chosen:
            return None
        if (hp, link.label) in taken:
            return None
        taken.add((hp, link.label))
        edges.add(Edge(hp, chosen[hp].state.surface, link.label, p, a.state.surface))
    if len(roots) != 1:
        return None
    root = roots[0]

    filled_at = {}
    for e in edges:
        filled_at.setdefault(e.head_pos, set()).add(e.label)
    for p, a in chosen.items():
        need = {s.spec.name for s in a.state.slots if s.spec.necessity == lx.MANDATORY}
        if not need <= filled_at.get(p, set()):
            return None

    head_of = {e.mod_pos: e.head_pos for e in edges}
    for p in chosen:
        walk, seen = p, set()
        while walk != root:
            if walk in seen or walk not in head_of:
                return None
            seen.add(walk)
            walk = head_of[walk]

    tree = ParseTree(root, chosen[root].state.surface, frozenset(edges))
    if not is_projective(tree, set(chosen)):
        return None
    return tree


class ScanRecorder:
    """Runs each rewritten scan next to its full-scan original and keeps
    both answers; the parse goes on with the rewritten scan's answer."""

    def __init__(self, monkeypatch):
        self.fringe = []    # (rewritten, original, receiver borders) per searchHead
        self.readout = []   # (tag, rewritten, original) per reading tag
        fringe, materialize = pt._assert_on_fringe, pt._materialize

        def checked_fringe(system, event):
            got = _verdict(fringe, system, event)
            want = _verdict(_full_scan_fringe_check, system, event)
            self.fringe.append((got, want,
                                system.actors[event.target].state.right_edge
                                == event.params["profile"]["left_edge"] - 1))
            if got is not None:
                raise pt.ProtocolError(got)

        def checked_materialize(system, visible, actor_pos, positions, tag, edges):
            got = materialize(system, visible, actor_pos, positions, tag, edges)
            want = _full_scan_materialize(system, pt._word_actors(system), positions, tag)
            self.readout.append((tag, got, want))
            return got

        monkeypatch.setattr(pt, "_assert_on_fringe", checked_fringe)
        monkeypatch.setattr(pt, "_materialize", checked_materialize)

    def parse(self, lexicon, kb, tokens, **kw):
        start = len(self.readout)
        system, _net, trees = pt.run_parse(lexicon, kb, list(tokens), **kw)
        visited = [tag for tag, _, _ in self.readout[start:]]
        assert visited == _tags_in_readout_order(system)
        return trees

    def mismatches(self):
        return ([(got, want) for got, want, _ in self.fringe if got != want]
                + [(tag, got, want) for tag, got, want in self.readout if got != want])


def _tags_in_readout_order(system):
    """The base reading, then each word actor's tag in actor-id order of the
    first actor that carries it."""
    tags = [()]
    for a in pt._word_actors(system):
        if a.state.reading not in tags:
            tags.append(a.state.reading)
    return tags


def _verdict(check, system, event):
    try:
        check(system, event)
    except pt.ProtocolError as err:
        return str(err)
    return None


CHAIN_BASES = ("Compaq liefert einen Rechner", "Compaq entwickelt einen Notebook")


def test_rewritten_scans_agree_with_the_full_scans(monkeypatch, demo_lexicon, demo_kb,
                                                   permissive_kb):
    scans = ScanRecorder(monkeypatch)
    runs = [(kb, tokens) for kb in (demo_kb, permissive_kb) for _, tokens in corpus_cases()]
    runs += [(demo_kb, base.split() + k * "mit einer Harddisk".split())
             for base in CHAIN_BASES for k in range(5)]
    for kb, tokens in runs:
        for mode in ("sequential", "parallel"):
            for seed in range(10):
                scans.parse(demo_lexicon, kb, tokens, seed=seed, mode=mode)
                assert scans.mismatches() == [], (tokens, mode, seed)
    # both halves of the fringe check ran, and readings were kept and dropped
    assert {borders for _, _, borders in scans.fringe} == {True, False}
    assert {got is None for _, got, _ in scans.readout} == {True, False}


def _tag_runs(demo_kb, permissive_kb):
    """(kb, tokens) of the runs the tag tests walk: the corpus, up to four
    PPs after ``Compaq liefert einen Rechner``, and a final homonym."""
    sentences = [list(tokens) for _, tokens in corpus_cases()]
    sentences += [CHAIN_BASES[0].split() + k * "mit einer Harddisk".split() for k in range(5)]
    sentences.append("mit Atari".split())
    return [(kb, tokens) for kb in (demo_kb, permissive_kb) for tokens in sentences]


def test_each_split_makes_its_own_tag(demo_lexicon, demo_kb, permissive_kb):
    # A tag names the split that made it, so two splits must never name
    # the same one: each split and each entry of a final homonym adds one
    # tag, and no two word actors hold one position in one tag.
    splits = 0
    for (kb, tokens), mode, seed in itertools.product(_tag_runs(demo_kb, permissive_kb),
                                                      ("sequential", "parallel"), range(10)):
        system, net, _ = pt.run_parse(demo_lexicon, kb, tokens, seed=seed, mode=mode,
                                      debug_checks=False)
        run = (tokens, mode, seed)
        words = pt._word_actors(system)
        entries = len(lx.resolve_entry(demo_lexicon, tokens[-1]))
        made = sum(e.key == pt.DUPLICATE_STRUCTURE for e in net.events)
        made += entries if entries > 1 else 0
        assert len({a.state.reading for a in words} - {()}) == made, run
        names = [(a.state.position, a.state.reading) for a in words]
        assert len(set(names)) == len(names), run
        splits += made
    assert splits


def test_a_tag_names_its_reading(monkeypatch, demo_lexicon, demo_kb, permissive_kb):
    # Whatever the schedule, a split tag that yields a tree yields the same
    # tree; the base reading may differ, as it keeps whichever attachment
    # came first.
    yielded = []
    materialize = pt._materialize

    def recorded(system, visible, actor_pos, positions, tag, edges):
        tree = materialize(system, visible, actor_pos, positions, tag, edges)
        if tag and tree is not None:
            yielded.append((tag, tree))
        return tree

    monkeypatch.setattr(pt, "_materialize", recorded)
    tags = 0
    for kb, tokens in _tag_runs(demo_kb, permissive_kb):
        tree_of = {}
        for mode, seed in itertools.product(("sequential", "parallel"), range(20)):
            yielded.clear()
            pt.run_parse(demo_lexicon, kb, tokens, seed=seed, mode=mode, debug_checks=False)
            for tag, tree in yielded:
                assert tree_of.setdefault(tag, tree) == tree, (tokens, mode, seed, tag)
        tags += len(tree_of)
    assert tags


def test_copies_skip_the_excluded_word_and_follow_their_origins(demo_lexicon, demo_kb,
                                                                permissive_kb):
    # What the structure copy and the readout rely on: no copyStructure
    # reaches the word its split re-roots, and a copy's origin was spawned
    # before it, so the readout's walk up the origins ends.
    runs = [(kb, list(tokens)) for kb in (demo_kb, permissive_kb)
            for _, tokens in corpus_cases()]
    runs += [(demo_kb, base.split() + k * "mit einer Harddisk".split())
             for base in CHAIN_BASES for k in range(5)]
    excluding = copies = 0
    for (kb, tokens), mode, seed in itertools.product(runs, ("sequential", "parallel"),
                                                      range(10)):
        system, net, _ = pt.run_parse(demo_lexicon, kb, tokens, seed=seed, mode=mode)
        for e in net.events:
            if e.key == pt.COPY_STRUCTURE and e.params["exclude"] is not None:
                excluding += 1
                assert e.target != e.params["exclude"], (tokens, mode, seed, e.event_id)
        for a in pt._word_actors(system):
            origin = a.state.origin_of
            assert origin is None or origin < a.actor_id, (tokens, mode, seed, a.actor_id)
            copies += origin is not None
    assert excluding and copies


def test_rewritten_fringe_check_raises_where_the_full_scan_does(monkeypatch, demo_lexicon,
                                                                demo_kb):
    scans = ScanRecorder(monkeypatch)
    tokens = "Compaq liefert einen Rechner mit einer Harddisk".split()
    with pytest.raises(rt.HandlerFailure, match="outside the search fringe"):
        scans.parse(demo_lexicon, demo_kb, tokens, seed=183)
    assert scans.mismatches() == []
    # the refusal says where the search stood and which word it reached
    assert scans.fringe[-1][1] == (
        "mit: searchHead reached a word outside the search fringe (receiver at "
        "position 5, left_edge 5, right_edge 7, reading (); search in reading (), border 5)")


# The last element of a hand-made tag: a homonym's entry or a split.
TAG_STEPS = st.one_of(st.tuples(st.integers(1, 4), st.integers(0, 1)),
                      st.tuples(st.integers(1, 4), st.sampled_from("ab"), st.integers(1, 4)))


@st.composite
def quiescent_states(draw):
    """A system holding hand-made word actors: random positions, reading
    tags down to depth 3, head links (some to missing actors, some cyclic),
    copy origins and mandatory valencies, so that ties, gaps, cycles and
    several roots occur."""
    system, _scanner = pt.build_system(None, None, [])
    tags = [()]
    for _ in range(draw(st.integers(0, 4))):
        parent = draw(st.sampled_from([t for t in tags if len(t) < 3]))
        tag = parent + (draw(TAG_STEPS),)
        if tag not in tags:
            tags.append(tag)
    n = draw(st.integers(1, 4))
    pt._scanner_state(system).spawned = n
    first = system._next_actor_id
    count = draw(st.integers(1, 8))
    ids = list(range(first, first + count + 1))     # one id stays unused
    mandatory = lx.ValencyDef("a", "word", necessity=lx.MANDATORY)
    optional = lx.ValencyDef("b", "word")
    for i in range(count):
        links = [pt.HeadLink(draw(st.sampled_from(tags)), draw(st.sampled_from(ids)),
                             draw(st.sampled_from("ab")))
                 for _ in range(draw(st.integers(0, 2)))]
        state = pt.WordState(
            surface=f"w{i}", position=draw(st.integers(1, n)),
            reading=draw(st.sampled_from(tags)),
            slots=[pt.Slot(spec) for spec in draw(st.sampled_from(
                [[], [mandatory], [optional], [mandatory, optional]]))],
            head_links=links,
            origin_of=draw(st.sampled_from([None] + ids[:i])))
        system.spawn("word", state.surface, state)
    return system


@settings(max_examples=300)
@given(quiescent_states())
def test_readout_agrees_with_the_full_scan_on_random_states(system):
    positions = list(range(1, pt._scanner_state(system).spawned + 1))
    words = pt._word_actors(system)
    want = [_full_scan_materialize(system, words, positions, tag)
            for tag in _tags_in_readout_order(system)]
    assert pt.read_out_trees(system) == [t for t in want if t is not None]


def _hand_made_state(n, words):
    """A system holding hand-made word actors at positions 1..n.  Each word
    is (position, reading, heads), a head being (index into ``words``,
    label) and linked in the word's own reading."""
    system, _scanner = pt.build_system(None, None, [])
    pt._scanner_state(system).spawned = n
    first = system._next_actor_id
    for i, (position, reading, heads) in enumerate(words):
        state = pt.WordState(
            surface=f"w{i}", position=position, reading=reading,
            head_links=[pt.HeadLink(reading, first + h, label) for h, label in heads])
        system.spawn("word", state.surface, state)
    return system


# Tags of the hand-made states below: a homonym's entry, and three splits
# each nested in the one before.
ENTRY = ((2, 1),)
SPLIT = ((3, "b", 1),)
SPLIT2 = SPLIT + ((3, "b", 2),)
SPLIT3 = SPLIT2 + ((2, "b", 1),)

# The random states above seldom draw a tree that fails only on its shape,
# so each rejection branch of the readout gets a hand-made state here.
READOUT_CASES = {
    # 1 -> 2, 1 -> 4 -> 3: every subtree contiguous
    "projective": (4, [(1, (), []), (2, (), [(0, "a")]), (3, (), [(3, "a")]),
                       (4, (), [(0, "b")])], 1),
    # 4 -> 2 crosses 1 -> 3
    "crossing arcs": (4, [(1, (), []), (2, (), [(3, "a")]), (3, (), [(0, "a")]),
                          (4, (), [(0, "b")])], 0),
    # 3 -> 1 spans the root at 2
    "an arc over the root": (3, [(1, (), [(2, "a")]), (2, (), []), (3, (), [(1, "a")])], 0),
    # 2 and 3 head each other; 1 is the root
    "a cycle avoiding the root": (3, [(1, (), []), (2, (), [(2, "a")]), (3, (), [(1, "a")])],
                                  0),
    "two roots": (2, [(1, (), []), (2, (), [])], 0),
    # the head is visible only in a homonym's tag, at a position past the text
    "a head outside the reading": (2, [(1, (), []), (2, (), [(2, "a")]), (3, ENTRY, [])], 0),
    "a head that is no actor": (2, [(1, (), []), (2, (), [(5, "a")])], 0),
    # 1 -a-> 2 -a-> 3 in the base.  The deepest visible word at each
    # position counts: 1 -b-> 3 in SPLIT, 2 -b-> 3 in SPLIT2, and also
    # 1 -b-> 2 in SPLIT3
    "nested splits": (3, [(1, (), []), (2, (), [(0, "a")]), (3, (), [(1, "a")]),
                          (3, SPLIT, [(0, "b")]), (3, SPLIT2, [(1, "b")]),
                          (2, SPLIT3, [(0, "b")])], 4),
    # the base reading 1 -a-> 2, 1 -b-> 3 and its split 1 -a-> 2, 1 -b-> 3'
    # share the attachment of 2; 3' attaches as 3 does but is another word
    "two readings sharing an attachment": (3, [(1, (), []), (2, (), [(0, "a")]),
                                               (3, (), [(0, "b")]), (3, SPLIT, [(0, "b")])],
                                           2),
    # the head of 2 sits at position 0, in a reading that has no tree
    "a head before the first position": (2, [(1, (), []), (2, (), [(2, "a")]),
                                             (0, ENTRY, [])], 0),
    # the base has its tree; in the split, 2' hangs below an actor id that
    # names nothing
    "a split whose head is no actor": (2, [(1, (), []), (2, (), [(0, "a")]),
                                           (2, SPLIT, [(7, "a")])], 1),
    # two words at one position with one tag tie in that tag only
    "a tie in a split": (2, [(1, (), []), (2, (), [(0, "a")]), (2, SPLIT, [(0, "b")]),
                             (2, SPLIT, [(0, "a")])], 1),
}


@pytest.mark.parametrize("case", READOUT_CASES)
def test_readout_agrees_with_the_full_scan_on_hand_made_states(case):
    n, words, readings = READOUT_CASES[case]
    system = _hand_made_state(n, words)
    want = [_full_scan_materialize(system, pt._word_actors(system),
                                   list(range(1, n + 1)), tag)
            for tag in _tags_in_readout_order(system)]
    got = pt.read_out_trees(system)
    assert got == [t for t in want if t is not None]
    assert len(got) == readings
    # the trees of one readout share each edge they have in common
    shared = {}
    for tree in got:
        for edge in tree.edges:
            assert shared.setdefault(edge, edge) is edge
