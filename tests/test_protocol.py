"""The word-actor protocol end to end: attachment, deferral, receipts,
ambiguity splitting, and the invariants that hold at quiescence."""

import dataclasses
from collections import Counter

import pytest

from helpers import DEMO_EDGES, DEMO_SENTENCE, corpus_cases

from wordactors import events as ev
from wordactors import protocol as pt
from wordactors import runtime as rt
from wordactors.features import parse_fs
from wordactors.oracle import oracle_parse


ETN = ev.derive_etn(pt.protocol_behaviors())


def canon(trees):
    return Counter(t.canonical() for t in trees)


def test_sample_sentence_has_exactly_the_six_edges(demo_lexicon, demo_kb):
    system, net, trees = pt.run_parse(demo_lexicon, demo_kb, DEMO_SENTENCE)
    assert len(trees) == 1
    assert trees[0].render() == "\n".join(DEMO_EDGES)
    assert pt.check_invariants(system, net, ETN) == []


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
    assert system.shared["stats"]["deferrals"] == 2


def test_every_episode_ledger_closes(demo_lexicon, demo_kb):
    system, _, _ = pt.run_parse(demo_lexicon, demo_kb, DEMO_SENTENCE, seed=13)
    for actor in system.actors.values():
        if actor.behavior.name != "word":
            continue
        for episode in actor.state.episodes.values():
            assert episode.ledger.closed
            assert episode.ledger.received == episode.ledger.expected


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
    assert system.shared["stats"]["lenient_skips"] == 1
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
            for _target, env, _cause in system.scheduler.pending:
                if env.key == pt.HEAD_FOUND and env.params.get("role") == "offer":
                    env.params["constraints"] = parse_fs("{case: qqq}")
                    corrupted += 1
        if system.deliver_next() is None:
            break
    assert corrupted == 1
    retractions = [e for e in system.net.events if e.key == pt.HEAD_RETRACTED]
    assert len(retractions) == 1
    assert pt.read_out_trees(system) == []
    assert pt.check_invariants(system, system.net, ETN) == []


def test_fringe_discipline_is_checked_on_every_search(demo_lexicon, demo_kb):
    # debug checks stay on by default in run_parse; a full corpus pass
    # without an assertion error is the positive half of the property
    for _want, tokens in corpus_cases():
        system, _, _ = pt.run_parse(demo_lexicon, demo_kb, list(tokens), seed=2)
        assert system.shared["debug_checks"]


def test_projectivity_of_every_output(demo_lexicon, demo_kb, permissive_kb):
    from wordactors.trees import is_projective

    for kb in (demo_kb, permissive_kb):
        for _want, tokens in corpus_cases():
            system, _, trees = pt.run_parse(demo_lexicon, kb, list(tokens), seed=1)
            positions = sorted(system.shared["stats"]["spawned_positions"])
            for t in trees:
                assert is_projective(t, positions)


def test_scan_accounting_balances(demo_lexicon, demo_kb):
    for _want, tokens in corpus_cases():
        system, net, _ = pt.run_parse(demo_lexicon, demo_kb, list(tokens), seed=6)
        stats = system.shared["stats"]
        scans = sum(1 for e in net.events
                    if e.key == pt.SCAN_NEXT and net.name_of(e.target) == "scanner")
        assert scans == (1 + stats["deferrals"] + stats["first_word_starts"]
                         + stats["ledger_closes"] + stats["final_root_starts"]
                         + stats["lenient_skips"])
        assert stats["spawning_deliveries"] == len(tokens)


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
