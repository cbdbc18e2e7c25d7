"""Unification algebra: golden cases plus randomized laws."""

import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordactors.features import (
    EMPTY,
    FeatureStructure,
    FSSyntaxError,
    parse_fs,
    render_fs,
    subsumes,
    unify,
)
from wordactors.lexicon import LexiconError, _override_merge, load_lexicon


def fs(text):
    return parse_fs(text)


# -- unify -----------------------------------------------------------------

def test_empty_structure_is_the_unit():
    f = fs("{case: nom|acc, agr: {num: sg}}")
    assert unify(f, EMPTY) == f
    assert unify(EMPTY, f) == f


def test_shared_atomic_attributes_intersect():
    assert unify(fs("{case: nom|acc}"), fs("{case: acc|dat}")) == fs("{case: acc}")


def test_empty_intersection_fails():
    assert unify(fs("{case: nom}"), fs("{case: acc}")) is None


def test_disjoint_nested_attributes_merge():
    got = unify(fs("{agr: {num: sg}}"), fs("{agr: {pers: 3}}"))
    assert got == fs("{agr: {num: sg, pers: 3}}")


def test_atom_meeting_nested_structure_fails():
    assert unify(fs("{a: x}"), fs("{a: {b: y}}")) is None
    assert unify(fs("{a: {b: y}}"), fs("{a: x}")) is None


def test_failure_is_a_value_not_an_exception():
    # a deliberately deep failure
    assert unify(fs("{a: {b: {c: x}}}"), fs("{a: {b: {c: y}}}")) is None


# -- subsumes ----------------------------------------------------------------

def test_empty_subsumes_everything():
    for text in ("{}", "{case: nom}", "{a: {b: x|y}}"):
        assert subsumes(EMPTY, fs(text))


def test_superset_subsumes_subset():
    assert subsumes(fs("{case: nom|acc}"), fs("{case: nom}"))
    assert not subsumes(fs("{case: nom}"), fs("{case: nom|acc}"))


def test_disjoint_values_do_not_subsume():
    assert not subsumes(fs("{case: nom}"), fs("{case: acc}"))


# -- construction invariants ---------------------------------------------

def test_empty_atom_set_is_not_storable():
    with pytest.raises(ValueError):
        FeatureStructure({"case": []})


def test_plain_strings_become_singleton_sets():
    assert FeatureStructure({"case": "nom"}) == fs("{case: nom}")


@pytest.mark.parametrize("mapping", [
    {"x": "a|b"},       # would read back as the two atoms a and b
    {"x y": "a"},
    {"x": ""},
    {"x": "a, b"},
])
def test_names_the_text_cannot_write_are_refused(mapping):
    with pytest.raises(ValueError, match="is not a name"):
        FeatureStructure(mapping)


# arbitrary text, and text over the grammar's own characters, so that many
# draws are names and many are near misses
_text = st.text(max_size=4) | st.text("ab1_.+-|, :{}#\"\n", max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_text,
                       _text | st.frozensets(_text, min_size=1, max_size=3)
                       | st.dictionaries(_text, _text, min_size=1, max_size=2),
                       max_size=3))
@example({"x": "a|b"})
@example({"case": ["nom", "acc"], "agr": {"num": "sg"}})
def test_a_constructed_structure_reads_back_from_its_text(mapping):
    try:
        built = FeatureStructure(mapping)
    except ValueError:
        return
    assert parse_fs(render_fs(built)) == built


# -- text round trip -------------------------------------------------------

def test_parse_empty():
    assert parse_fs("{}") == EMPTY


def test_parse_disjunction():
    assert parse_fs("{case: nom|acc}") == FeatureStructure({"case": {"nom", "acc"}})


def test_render_is_sorted():
    assert render_fs(FeatureStructure({"b": "1", "a": "2"})) == "{a: 2, b: 1}"
    assert render_fs(FeatureStructure({"x": {"c", "a", "b"}})) == "{x: a|b|c}"


def test_render_nested():
    assert render_fs(fs("{agr: {pers: 3, num: sg}}")) == "{agr: {num: sg, pers: 3}}"


@pytest.mark.parametrize("bad", [
    "",
    "{",
    "{case nom}",
    "{case:}",
    "{case: nom",
    "{a: x, a: y}",
    "{a: x,}",
])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(FSSyntaxError) as err:
        parse_fs(bad)
    assert err.value.position >= 0


def test_parse_skips_comments_between_tokens():
    text = "# agreement\n{case: nom|  # or\n acc, agr: {num: sg}}  # done"
    assert parse_fs(text) == fs("{case: nom|acc, agr: {num: sg}}")


# -- randomized laws -------------------------------------------------------

ATTRS = ("case", "num", "pers", "gend", "agr", "head")
ATOMS = ("nom", "acc", "dat", "sg", "pl", "masc", "fem", "3")


def structures(depth=2):
    atom_sets = st.frozensets(st.sampled_from(ATOMS), min_size=1, max_size=3)
    values = atom_sets if depth == 0 else atom_sets | structures(depth - 1)
    return st.dictionaries(st.sampled_from(ATTRS), values, max_size=6).map(FeatureStructure)


@given(structures())
def test_unify_idempotent(f):
    assert unify(f, f) == f


@given(structures(), structures())
def test_unify_commutative(a, b):
    assert unify(a, b) == unify(b, a)


@settings(max_examples=200)
@given(structures(), structures(), structures())
def test_unify_associative(a, b, c):
    def u(x, y):
        return None if x is None or y is None else unify(x, y)

    assert u(a, u(b, c)) == u(u(a, b), c)


@given(structures(), structures())
def test_unify_monotone(a, b):
    c = unify(a, b)
    if c is not None:
        assert subsumes(a, c)
        assert subsumes(b, c)


@settings(max_examples=300)
@given(structures(depth=3))
def test_text_round_trip(f):
    assert parse_fs(render_fs(f)) == f


# -- fast paths against the public constructor ------------------------------

def plain(f):
    return {attr: plain(v) if isinstance(v, FeatureStructure) else set(v)
            for attr, v in f.items()}


def reference_unify(a, b):
    """The same merge over plain dicts and sets, rebuilt by the constructor."""
    def merge(x, y):
        out = dict(x)
        for attr, yv in y.items():
            if attr not in out:
                out[attr] = yv
            elif isinstance(out[attr], set) and isinstance(yv, set):
                if not out[attr] & yv:
                    return None
                out[attr] = out[attr] & yv
            elif isinstance(out[attr], dict) and isinstance(yv, dict):
                out[attr] = merge(out[attr], yv)
                if out[attr] is None:
                    return None
            else:
                return None
        return out

    merged = merge(plain(a), plain(b))
    return None if merged is None else FeatureStructure(merged)


def reference_override(base, over):
    def layer(x, y):
        out = dict(x)
        for attr, yv in y.items():
            if isinstance(out.get(attr), dict) and isinstance(yv, dict):
                out[attr] = layer(out[attr], yv)
            else:
                out[attr] = yv
        return out

    return FeatureStructure(layer(plain(base), plain(over)))


def assert_canonical(f):
    attrs = list(f.attributes())
    assert attrs == sorted(attrs)
    for _attr, value in f.items():
        if isinstance(value, FeatureStructure):
            assert_canonical(value)
        else:
            assert type(value) is frozenset and value


@given(structures(), structures())
def test_unify_matches_the_constructor_built_reference(a, b):
    got, want = unify(a, b), reference_unify(a, b)
    assert got == want
    if got is not None:
        assert_canonical(got)
        assert hash(got) == hash(want)
        assert render_fs(got) == render_fs(want)


@given(structures(), structures())
def test_override_merge_matches_the_constructor_built_reference(base, over):
    got, want = _override_merge(base, over), reference_override(base, over)
    assert got == want
    assert_canonical(got)
    assert hash(got) == hash(want)
    assert render_fs(got) == render_fs(want)


@given(structures())
def test_rendered_text_is_stable(f):
    first = render_fs(f)
    assert render_fs(f) == first
    assert render_fs(FeatureStructure(plain(f))) == first


@given(structures(depth=3), st.booleans())
def test_pickle_and_copies_keep_equality_and_text(f, rendered_before):
    if rendered_before:
        render_fs(f)  # copy with the cached text filled in
    for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert twin == f and hash(twin) == hash(f)
        assert render_fs(twin) == render_fs(f)


def test_unpickled_hash_is_valid_across_processes():
    # string hashes differ between processes; a pickle must not carry one
    script = ("import pickle, sys; from wordactors.features import parse_fs; "
              "sys.stdout.buffer.write(pickle.dumps(parse_fs('{a: {b: x|y}, c: z}')))")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(sys.path))
    blob = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, check=True).stdout
    f = pickle.loads(blob)
    assert f in {parse_fs("{c: z, a: {b: y|x}}")}


# -- one grammar for parse_fs and lexicon feature blocks ----------------------

# Names that are not lexicon keywords, so a stray one can never start a
# valid lexicon clause or form; "q" is a string, which neither accepts.
NAMES = ("a", "case", "nom", "x.1", "+3")
PUNCT = ("{", "}", ":", ",", "|")
SEPARATORS = ("", " ", "\t", "\n", "# note\n", " # } \"q\" :\n")


def structure_tokens(depth=2):
    atoms = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map(
        lambda names: [t for name in names for t in ("|", name)][1:])
    value = atoms if depth == 0 else atoms | structure_tokens(depth - 1)
    pair = st.tuples(st.sampled_from(NAMES), value).map(lambda p: [p[0], ":", *p[1]])
    return st.lists(pair, max_size=3, unique_by=lambda p: p[0]).map(
        lambda pairs: ["{", *[t for p in pairs for t in (",", *p)][1:], "}"])


def broken(tokens):
    """Delete, insert or replace one token of a well-formed structure."""
    def apply(edit):
        at, op, tok = edit
        out = list(tokens)
        if op == "ins":
            out.insert(at, tok)
        elif at < len(out):
            out[at:at + 1] = [] if op == "del" else [tok]
        return out
    return st.tuples(st.sampled_from(range(len(tokens) + 1)),
                     st.sampled_from(("del", "ins", "sub", "sub", "sub")),
                     st.sampled_from(NAMES[:1] + PUNCT + ('"q"',))).map(apply)


def spaced(tokens):
    """Join tokens with random separators; returns the text and each token's
    offset.  Two names are never joined with nothing, or they would read as
    one."""
    def join(seps):
        text, offsets = seps[0], []
        for i, tok in enumerate(tokens):
            if not seps[i] and i and tokens[i - 1][0] not in '{}:,|"' and tok[0] not in '{}:,|"':
                text += " "
            offsets.append(len(text))
            text += tok + seps[i + 1]
        return text, offsets
    return st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens) + 1,
                    max_size=len(tokens) + 1).map(join)


broken_tokens = structure_tokens().flatmap(broken)
token_texts = st.one_of(structure_tokens(), broken_tokens, broken_tokens).flatmap(spaced)


@settings(max_examples=150)
@given(token_texts)
@example(("{case: , }", [0, 1, 5, 7, 9]))
@example(('{a: "q"} # q\n', [0, 1, 2, 4, 7]))
def test_parse_fs_and_lexicon_feature_blocks_agree(case):
    text, offsets = case
    try:
        want = parse_fs(text)
    except FSSyntaxError as err:
        want = None
        assert err.position in offsets or err.position == len(text)
    try:
        lex = load_lexicon("wordclass w { features " + text + " }")
        got = lex.word_classes["w"].default_features
    except LexiconError:
        got = None
    assert got == want
