"""Lexicon loading, inheritance flattening, and validation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import DEMO_SENTENCE

from wordactors.features import EMPTY, parse_fs, unify
from wordactors.lexicon import (
    LEFT,
    MANDATORY,
    OPTIONAL,
    RIGHT,
    LexemeEntry,
    Lexicon,
    LexiconError,
    ValencyDef,
    WordClassDef,
    _override_merge,
    load_lexicon,
    resolve_entry,
    subclass_of,
    validate_lexicon,
)


def test_empty_source():
    lex = load_lexicon("")
    assert lex.word_classes == {}
    assert lex.lexemes == {}


def test_preposition_entry(demo_lexicon):
    entries = resolve_entry(demo_lexicon, "mit")
    assert len(entries) == 1
    (e,) = entries
    assert e.word_class == "prep"
    assert [(v.name, v.direction, v.necessity) for v in e.valencies] == [
        ("obj", RIGHT, MANDATORY)
    ]


def test_noun_entry_carries_both_slots(demo_lexicon):
    (e,) = resolve_entry(demo_lexicon, "Notebook")
    by_name = {v.name: v for v in e.valencies}
    assert by_name["spec"].direction == LEFT
    assert by_name["spec"].necessity == MANDATORY
    assert by_name["ppatt"].direction == RIGHT
    assert by_name["ppatt"].necessity == OPTIONAL


def test_unknown_surface_is_empty_list(demo_lexicon):
    assert resolve_entry(demo_lexicon, "zzz-unknown") == []


def test_homonym_resolves_to_two_entries(demo_lexicon):
    entries = resolve_entry(demo_lexicon, "Atari")
    assert [e.word_class for e in entries] == ["masc-noun", "name"]
    assert [e.concept for e in entries] == ["computer", "company"]


def test_resolution_is_deterministic(demo_lexicon):
    assert resolve_entry(demo_lexicon, "Notebook") == resolve_entry(demo_lexicon, "Notebook")


def test_demo_fixture_covers_the_sample_sentence(demo_lexicon):
    for token in dict.fromkeys(DEMO_SENTENCE):
        assert resolve_entry(demo_lexicon, token), token
    assert len(demo_lexicon.word_classes) >= 5


INHERITANCE = """
wordclass a {
  features { case: nom|acc, num: sg }
  valency v1 { class: a  dir: right  necessity: optional }
  valency v2 { class: a  dir: right  necessity: optional }
}
wordclass b : a {
  features { case: acc, gend: masc }
  valency v1 { class: b  dir: left  necessity: mandatory }
  valency v3 { class: a  dir: right  necessity: optional }
}
lexeme "w" : b {
  features { num: pl }
}
"""


def test_child_wins_on_atomic_conflict():
    lex = load_lexicon(INHERITANCE)
    (e,) = resolve_entry(lex, "w")
    assert e.features == parse_fs("{case: acc, gend: masc, num: pl}")


def test_redefined_valency_keeps_first_position():
    lex = load_lexicon(INHERITANCE)
    (e,) = resolve_entry(lex, "w")
    assert [v.name for v in e.valencies] == ["v1", "v2", "v3"]
    assert e.valencies[0].direction == LEFT
    assert e.valencies[0].necessity == MANDATORY


def test_subclass_of(demo_lexicon):
    assert subclass_of(demo_lexicon, "noun", "noun")
    assert subclass_of(demo_lexicon, "masc-noun", "noun")
    assert not subclass_of(demo_lexicon, "noun", "masc-noun")
    with pytest.raises(LexiconError):
        subclass_of(demo_lexicon, "noun", "no-such-class")


# -- loader rejections -------------------------------------------------------

def test_syntax_error_names_the_position():
    with pytest.raises(LexiconError) as err:
        load_lexicon("wordclass a { / }")
    assert "line 1" in str(err.value)
    assert "column" in str(err.value)


def test_duplicate_word_class_rejected():
    with pytest.raises(LexiconError, match="duplicate word class"):
        load_lexicon("wordclass a { }\nwordclass a { }")


def test_duplicate_valency_in_one_definition_rejected():
    bad = """
    wordclass a {
      valency v { class: a  dir: right  necessity: optional }
      valency v { class: a  dir: right  necessity: optional }
    }
    """
    with pytest.raises(LexiconError, match="duplicate valency"):
        load_lexicon(bad)


# -- validation ---------------------------------------------------------------

def test_bundled_fixtures_validate_cleanly(demo_lexicon, demo_kb):
    assert validate_lexicon(demo_lexicon, demo_kb) == []


def test_inheritance_cycle_is_diagnosed(demo_kb):
    lex = load_lexicon("wordclass a : b { }\nwordclass b : a { }")
    found = validate_lexicon(lex, demo_kb)
    assert any("inheritance cycle" in d for d in found)


def test_unresolved_parent_is_diagnosed(demo_kb):
    lex = load_lexicon("wordclass a : zzz { }")
    assert any("unresolved parent 'zzz'" in d for d in validate_lexicon(lex, demo_kb))


def test_unresolved_role_is_diagnosed(demo_kb):
    lex = load_lexicon("""
    wordclass a {
      valency v { class: a  dir: right  necessity: optional  role: nonexistent }
    }
    """)
    assert any("unresolved role 'nonexistent'" in d for d in validate_lexicon(lex, demo_kb))


def test_unresolved_valency_class_is_diagnosed(demo_kb):
    lex = load_lexicon("""
    wordclass a {
      valency v { class: ghost  dir: right  necessity: optional }
    }
    """)
    assert any("unresolved class 'ghost'" in d for d in validate_lexicon(lex, demo_kb))


def test_unknown_lexeme_concept_is_diagnosed(demo_kb):
    lex = load_lexicon('wordclass a { }\nlexeme "w" : a { concept: bogus }')
    assert any("unresolved concept 'bogus'" in d for d in validate_lexicon(lex, demo_kb))


def test_conflicting_lexeme_override_is_diagnosed(demo_kb):
    lex = load_lexicon("""
    wordclass a {
      features { case: nom }
    }
    lexeme "w" : a {
      features { case: acc }
    }
    """)
    assert any("overrides do not unify" in d for d in validate_lexicon(lex, demo_kb))


def test_diagnostics_name_the_line_of_their_definition(demo_kb):
    source = ("# header\n"
              "wordclass a {\n"
              "  valency v { class: ghost  dir: right\r\n necessity: optional }\n"
              "}\n"
              "wordclass b : zzz {\n"
              "}\n"
              "\n"
              'lexeme "w" : a { concept: bogus }\n'
              'lexeme "x" : nowhere { }')
    assert validate_lexicon(load_lexicon(source), demo_kb) == [
        "line 6: word class 'b': unresolved parent 'zzz'",
        "line 2: valency 'v' of 'a': unresolved class 'ghost'",
        "line 9: lexeme 'w': unresolved concept 'bogus'",
        "line 10: lexeme 'x': unresolved word class 'nowhere'",
    ]


def test_source_lines_do_not_take_part_in_equality():
    text = 'wordclass a { }\nlexeme "w" : a { }'
    assert load_lexicon(text) == load_lexicon("\n\n" + text)
    assert load_lexicon(text).word_classes["a"] == WordClassDef("a")


# -- one grammar: inputs the loader once read as names -----------------------

@pytest.mark.parametrize("block, column", [
    ("features { case: , }", 20),
    ("features { |: x }", 14),
    ("features { a: } }", 17),
    ('features { a: "q" }', 17),
    ("valency v { class: ,  dir: left  necessity: optional }", 22),
])
def test_non_name_token_is_rejected_at_its_position(block, column):
    # the offending token sits on line 2, after a two-space indent
    with pytest.raises(LexiconError) as err:
        load_lexicon("wordclass a {\n  " + block + "\n}\n")
    assert str(err.value).startswith(f"line 2, column {column}: expected a name")


@pytest.mark.parametrize("text, clause", [
    ("wordclass a { features { } features { x: y } }", "'features' clause in wordclass 'a'"),
    ('wordclass a { }\nlexeme "w" : a { features { } features { x: y } }',
     "'features' clause in lexeme 'w'"),
    ('wordclass a { }\nlexeme "w" : a { concept: c concept: d }', "'concept' clause in lexeme 'w'"),
    ("wordclass a { valency v { class: a  dir: left  dir: right  necessity: optional } }",
     "'dir' clause in valency 'v' of 'a'"),
], ids=["wordclass-features", "lexeme-features", "lexeme-concept", "valency-key"])
def test_repeated_clause_is_rejected_even_when_the_first_is_empty(text, clause):
    with pytest.raises(LexiconError, match=f"repeated {clause}"):
        load_lexicon(text)


@pytest.mark.parametrize("text", [
    "wordclass a { }\nwordclass a { }",
    "wordclass a {\n  valency v { class: a }\n}",
    "wordclass a {\n  valency v { class: a  dir: up  necessity: optional }\n}",
    "wordclass a { colour: red }",
    'lexeme w : a { }',
    "sentence { }",
    "wordclass a {",
])
def test_every_loader_error_names_line_and_column(text):
    with pytest.raises(LexiconError, match=r"^line \d+, column \d+: "):
        load_lexicon(text)


# -- validation against a walker of its own ----------------------------------

def reference_validate(lex, kb):
    """``validate_lexicon`` as written with its own parent walk, kept to
    check that sharing ``_ancestry`` and the inheritance fold changed no
    diagnostic."""
    diagnostics = []

    for name, wc in lex.word_classes.items():
        if wc.parent is not None and wc.parent not in lex.word_classes:
            diagnostics.append(f"word class {name!r}: unresolved parent {wc.parent!r}")
            continue
        node, seen = name, set()
        while node is not None:
            if node in seen:
                diagnostics.append(f"word class {name!r}: inheritance cycle through {node!r}")
                break
            seen.add(node)
            parent = lex.word_classes.get(node)
            node = parent.parent if parent else None

    for name, wc in lex.word_classes.items():
        for v in wc.valencies:
            if v.modifier_word_class not in lex.word_classes:
                diagnostics.append(
                    f"valency {v.name!r} of {name!r}: unresolved class {v.modifier_word_class!r}")
            if v.conceptual_role is not None and v.conceptual_role not in kb.roles:
                diagnostics.append(
                    f"valency {v.name!r} of {name!r}: unresolved role {v.conceptual_role!r}")

    def chain_of(node):
        chain, seen = [], set()
        while node is not None:
            if node in seen or node not in lex.word_classes:
                return None
            seen.add(node)
            chain.append(lex.word_classes[node])
            node = lex.word_classes[node].parent
        return chain[::-1]

    for surface, entries in lex.lexemes.items():
        for entry in entries:
            if entry.word_class not in lex.word_classes:
                diagnostics.append(f"lexeme {surface!r}: unresolved word class {entry.word_class!r}")
                continue
            if entry.concept is not None and entry.concept not in kb.concepts:
                diagnostics.append(f"lexeme {surface!r}: unresolved concept {entry.concept!r}")
            chain = chain_of(entry.word_class)
            if chain is None:
                continue
            inherited = EMPTY
            for wc in chain:
                inherited = _override_merge(inherited, wc.default_features)
            if unify(inherited, entry.feature_overrides) is None:
                diagnostics.append(
                    f"lexeme {surface!r}: overrides do not unify with inherited features")

    return diagnostics


CLASSES = ("a", "b", "c", "d", "e")
CASES = (EMPTY, parse_fs("{case: nom}"), parse_fs("{case: acc}"), parse_fs("{agr: {num: sg}}"))


def build_lexicon(parents, lexemes, features=()):
    """``parents`` maps each class to its parent (or None); ``lexemes`` are
    (surface, class, override index) triples; ``features`` indexes CASES."""
    lex = Lexicon()
    for i, (name, parent) in enumerate(parents.items()):
        f = CASES[features[i]] if i < len(features) else EMPTY
        target = parent if parent is not None else name
        valency = ValencyDef("v", target, conceptual_role="agent" if i % 2 else "ghost-role")
        lex.word_classes[name] = WordClassDef(name, parent, f, [valency])
    for surface, word_class, over in lexemes:
        lex.lexemes.setdefault(surface, []).append(
            LexemeEntry(surface, word_class, CASES[over], "company" if over % 2 else "ghost"))
    return lex


@st.composite
def class_graphs(draw):
    names = CLASSES[:draw(st.integers(1, len(CLASSES)))]
    targets = st.sampled_from(names + ("ghost", "phantom", None))
    parents = {name: draw(targets) for name in names}
    lexemes = draw(st.lists(st.tuples(st.sampled_from(("w", "x", "y")),
                                      st.sampled_from(names + ("ghost",)),
                                      st.integers(0, len(CASES) - 1)), max_size=5))
    features = draw(st.lists(st.integers(0, len(CASES) - 1),
                             min_size=len(names), max_size=len(names)))
    return parents, lexemes, features


@settings(max_examples=300)
@given(class_graphs())
@example(({"a": "ghost", "b": "a", "c": "b"}, [("w", "c", 1), ("x", "b", 0)], ()))
@example(({"a": "a", "b": "a"}, [("w", "a", 1), ("w", "b", 2)], ()))
@example(({"a": "b", "b": "a", "c": "a"}, [("w", "c", 0), ("x", "a", 2)], ()))
@example(({"a": "b", "b": "c", "c": "a", "d": "c", "e": None},
          [("w", "b", 1), ("y", "e", 2)], (1, 0, 2, 1, 1)))
def test_validation_matches_its_own_walker(demo_kb, graph):
    lex = build_lexicon(*graph)
    assert validate_lexicon(lex, demo_kb) == reference_validate(lex, demo_kb)
