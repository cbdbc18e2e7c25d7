"""The chart reference parser, checked on its own terms and against the
benchmark's enumerator, which shares no code with the package."""

import importlib.util
import itertools
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DEMO_EDGES, DEMO_SENTENCE, drawn_sentences, fixture_text, grammar_sentence

from wordactors.lexicon import LexiconError, load_lexicon
from wordactors.concepts import load_kb
from wordactors.oracle import oracle_parse

PP = "mit einer Harddisk".split()


def test_sample_sentence_tree(demo_lexicon, demo_kb):
    trees = oracle_parse(demo_lexicon, demo_kb, DEMO_SENTENCE)
    assert len(trees) == 1
    assert trees[0].render() == "\n".join(DEMO_EDGES)


def test_single_token_without_obligations(demo_lexicon, demo_kb):
    trees = oracle_parse(demo_lexicon, demo_kb, ["Compaq"])
    assert len(trees) == 1
    assert trees[0].root_pos == 1
    assert trees[0].edges == frozenset()


def test_ambiguous_variant_has_exactly_two_trees(demo_lexicon, permissive_kb):
    trees = oracle_parse(demo_lexicon, permissive_kb, DEMO_SENTENCE)
    assert len(trees) == 2
    roots = {t.root_pos for t in trees}
    assert roots == {2}


def test_empty_input(demo_lexicon, demo_kb):
    assert oracle_parse(demo_lexicon, demo_kb, []) == []


def test_unfillable_mandatory_slot_means_no_tree(demo_lexicon, demo_kb):
    assert oracle_parse(demo_lexicon, demo_kb, "Compaq entwickelt".split()) == []
    assert oracle_parse(demo_lexicon, demo_kb, ["Notebook"]) == []
    assert oracle_parse(demo_lexicon, demo_kb, ["mit", "einer"]) == []


def test_unknown_word_raises(demo_lexicon, demo_kb):
    with pytest.raises(LexiconError, match="unknown word"):
        oracle_parse(demo_lexicon, demo_kb, ["zzz"])


def test_no_length_cap(demo_lexicon, demo_kb):
    assert oracle_parse(demo_lexicon, demo_kb, ["mit"] * 11) == []
    tokens = "Compaq entwickelt einen Notebook".split() + 8 * PP
    assert len(tokens) == 28
    assert len(oracle_parse(demo_lexicon, demo_kb, tokens)) == 1


def test_results_are_sorted_canonically(demo_lexicon, permissive_kb):
    trees = oracle_parse(demo_lexicon, permissive_kb, DEMO_SENTENCE)
    assert [t.canonical() for t in trees] == sorted(t.canonical() for t in trees)


def test_direction_is_enforced():
    lex = load_lexicon("""
    wordclass n { }
    wordclass v {
      valency subj { class: n  dir: left  necessity: mandatory }
    }
    lexeme "N" : n { }
    lexeme "V" : v { }
    """)
    kb = load_kb("concept top")
    assert len(oracle_parse(lex, kb, ["N", "V"])) == 1
    assert oracle_parse(lex, kb, ["V", "N"]) == []


def test_each_valency_fills_at_most_once():
    lex = load_lexicon("""
    wordclass n { }
    wordclass v {
      valency obj { class: n  dir: right  necessity: mandatory }
    }
    lexeme "N" : n { }
    lexeme "V" : v { }
    """)
    kb = load_kb("concept top")
    # a second noun phrase has nowhere to go
    assert oracle_parse(lex, kb, ["V", "N", "N"]) == []


def test_concept_delegation_through_a_bare_head(demo_lexicon, demo_kb):
    # the preposition has no concept of its own; the conceptual role check
    # on the noun's PP slot sees the concept of the preposition's object
    trees = oracle_parse(demo_lexicon, demo_kb, "einen Notebook mit einer Harddisk".split())
    assert len(trees) == 1
    assert any(e.label == "ppatt" for e in trees[0].edges)


@pytest.mark.parametrize("k", range(9))
def test_pp_chain_after_liefert_has_one_reading_per_attachment(demo_lexicon, demo_kb, k):
    tokens = "Compaq liefert einen Rechner".split() + k * PP
    got = Counter(t.canonical() for t in oracle_parse(demo_lexicon, demo_kb, tokens))
    assert len(got) == sum(got.values()) == k + 1


def _deep_chain_reading(k):
    """The one reading of "Compaq entwickelt einen Notebook" + k PPs: each
    preposition hangs below the noun just left of it."""
    edges = [(2, "dirobj", 4), (2, "subj", 1), (4, "spec", 3)]
    for p in range(5, 5 + 3 * k, 3):
        edges += [(p - 1, "ppatt", p), (p, "obj", p + 2), (p + 2, "spec", p + 1)]
    return (2, tuple(sorted(edges)))


@pytest.mark.parametrize("k", range(9))
def test_pp_chain_after_entwickelt_is_the_hand_built_reading(demo_lexicon, demo_kb, k):
    tokens = "Compaq entwickelt einen Notebook".split() + k * PP
    trees = oracle_parse(demo_lexicon, demo_kb, tokens)
    assert [t.canonical() for t in trees] == [_deep_chain_reading(k)]


def test_homonyms_multiply_readings():
    # every combination of lexical readings that yields a tree counts once:
    # "V X" is one tree per reading of X; in "V X X" the second X hangs in
    # c or d of the first, and each of those two trees comes with 2 x 2
    # readings of the Xs
    lex = load_lexicon("""
    wordclass x {
      valency c { class: x  dir: right  necessity: optional }
      valency d { class: x  dir: right  necessity: optional }
    }
    wordclass v {
      valency a { class: x  dir: right  necessity: optional }
    }
    lexeme "V" : v { }
    lexeme "X" : x { }
    lexeme "X" : x { }
    """)
    kb = load_kb("concept top")
    assert len(oracle_parse(lex, kb, ["V", "X"])) == 2
    trees = oracle_parse(lex, kb, ["V", "X", "X"])
    assert len(trees) == 8
    assert len({t.canonical() for t in trees}) == 2


# -- cross-check against perfbench/reference.py: a chart enumerator over a
# lexicon transcribed by hand from demo.lex, sharing no code with the package

KB_FILES = ("demo.kb", "demo_permissive.kb")


@pytest.fixture(scope="module")
def agrees_with_reference(demo_lexicon):
    """Whether oracle_parse finds the same multiset of readings as the
    independent enumerator, for a token list and a KB file name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    kbs = {name: (load_kb(fixture_text(name)), reference.Taxonomy(fixture_text(name)))
           for name in KB_FILES}

    def agrees(tokens, kb_name):
        kb, taxonomy = kbs[kb_name]
        got = sorted(t.canonical() for t in oracle_parse(demo_lexicon, kb, tokens))
        return got == reference.enumerate_readings(tokens, taxonomy)

    return agrees


@st.composite
def sentences(draw):
    return grammar_sentence(lambda xs: draw(st.sampled_from(xs)),
                            lambda xs: list(draw(st.permutations(xs))))


@settings(max_examples=150, deadline=None)
@given(sentences(), st.sampled_from(KB_FILES))
def test_agrees_with_the_independent_enumerator(agrees_with_reference, tokens, kb_name):
    assert agrees_with_reference(tokens, kb_name)


@pytest.mark.slow
def test_agrees_with_the_independent_enumerator_wide(demo_lexicon, agrees_with_reference):
    surfaces = sorted(demo_lexicon.lexemes)
    assert len(surfaces) == 15
    cases = [list(t) for n in range(1, 4) for t in itertools.product(surfaces, repeat=n)]
    cases += drawn_sentences(2000)
    for tokens in cases:
        for kb_name in KB_FILES:
            assert agrees_with_reference(tokens, kb_name), (tokens, kb_name)
