"""The lexicon: word classes, valency slots, and lexical entries.

Word classes form a single-inheritance tree.  A class may declare default
features and an ordered list of valency slots; a subclass inherits both and
may redefine a slot of the same name (the redefinition replaces the
inherited slot but keeps its original list position, so traces stay
reproducible).  Lexemes are the leaves: a surface form, its word class,
feature overrides, and an optional concept name.

Text format (strict: unknown keys and repeated clauses are rejected so
typos surface early; only ``valency`` may appear more than once per block):

    wordclass NAME [: PARENT] {
      features { ... }
      valency NAME {
        class: NAME
        dir: left | right
        necessity: mandatory | optional
        features { ... }
        role: NAME | none
      }
    }

    lexeme "SURFACE" : WORDCLASS {
      features { ... }
      concept: NAME | none
    }

The text is read by ``features.TokenReader``, the reader ``parse_fs`` uses:
names, double-quoted strings (lexeme surfaces only) and ``{ } : , |``, with
whitespace and ``#`` comments skipped.  Feature blocks are its ``structure``
rule.  Every error names the line and column of the offending token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .concepts import ConceptTaxonomy
from .features import EMPTY, FeatureStructure, FSSyntaxError, TokenReader, unify

LEFT = "left-of-head"
RIGHT = "right-of-head"
MANDATORY = "mandatory"
OPTIONAL = "optional"


class LexiconError(ValueError):
    pass


@dataclass
class ValencyDef:
    name: str
    modifier_word_class: str
    morph_constraint: FeatureStructure = EMPTY
    direction: str = RIGHT
    necessity: str = OPTIONAL
    conceptual_role: Optional[str] = None


@dataclass
class WordClassDef:
    name: str
    parent: Optional[str] = None
    default_features: FeatureStructure = EMPTY
    valencies: list = field(default_factory=list)
    # source line of the definition, for diagnostics; None if built in code
    line: Optional[int] = field(default=None, compare=False)


@dataclass
class LexemeEntry:
    surface: str
    word_class: str
    feature_overrides: FeatureStructure = EMPTY
    concept: Optional[str] = None
    line: Optional[int] = field(default=None, compare=False)


@dataclass
class Lexicon:
    word_classes: dict = field(default_factory=dict)
    lexemes: dict = field(default_factory=dict)  # surface -> [LexemeEntry]


@dataclass
class ResolvedEntry:
    """A lexeme with its inheritance chain flattened in."""

    surface: str
    word_class: str
    features: FeatureStructure
    valencies: list
    concept: Optional[str]


def _clauses(r: TokenReader, keys, where: str, repeatable=()):
    """Read the ``{ ... }`` body of ``where``, yielding each clause key.

    The caller reads the rest of the clause.  A key outside ``keys`` is an
    error, and so is a second clause with a key not in ``repeatable``.
    """
    r.expect("{")
    seen = set()
    while r.peek() != "}":
        at = r.offset()
        key = r.next()
        if key not in keys:
            raise FSSyntaxError(f"unknown key {key!r} in {where}", at)
        if key in seen:
            raise FSSyntaxError(f"repeated {key!r} clause in {where}", at)
        if key not in repeatable:
            seen.add(key)
        yield key
    r.expect("}")


def _parse_valency(r: TokenReader, owner: str) -> ValencyDef:
    at = r.offset()
    name = r.name()
    fields = {"class": None, "dir": None, "necessity": None,
              "features": EMPTY, "role": None}
    for key in _clauses(r, fields, f"valency {name!r} of {owner!r}"):
        if key == "features":
            fields[key] = r.structure()
            continue
        r.expect(":")
        value = r.peek()
        if key == "dir" and value not in ("left", "right"):
            raise r.error(f"dir must be left or right, found {r.found()}")
        if key == "necessity" and value not in (MANDATORY, OPTIONAL):
            raise r.error(f"bad necessity {r.found()}")
        value = r.name()
        if key == "dir":
            value = LEFT if value == "left" else RIGHT
        elif key == "role" and value == "none":
            value = None
        fields[key] = value
    for required in ("class", "dir", "necessity"):
        if fields[required] is None:
            raise FSSyntaxError(f"valency {name!r} of {owner!r}: missing key {required!r}", at)
    return ValencyDef(name, fields["class"], fields["features"],
                      fields["dir"], fields["necessity"], fields["role"])


def _line_and_column(source: str, offset: int) -> tuple:
    """The 1-based line and column of ``offset`` in ``source``."""
    # the sentinel ends the text on the line holding the offset, never on a break
    lines = (source[:offset] + "x").splitlines()
    return len(lines), len(lines[-1])


def load_lexicon(source: str) -> Lexicon:
    """Parse lexicon text.  Parsing only; cross-references are checked later."""
    lex = Lexicon()
    try:
        r = TokenReader(source)
        while r.peek() is not None:
            form = r.peek()
            if form not in ("wordclass", "lexeme"):
                raise r.error(f"unknown top-level form {form!r}")
            line = _line_and_column(source, r.offset())[0]
            r.next()
            if form == "wordclass":
                if r.peek() in lex.word_classes:
                    raise r.error(f"duplicate word class {r.peek()!r}")
                name = r.name()
                parent = None
                if r.peek() == ":":
                    r.next()
                    parent = r.name()
                wc = WordClassDef(name, parent, line=line)
                for key in _clauses(r, ("features", "valency"), f"wordclass {name!r}",
                                    repeatable=("valency",)):
                    if key == "features":
                        wc.default_features = r.structure()
                        continue
                    at = r.offset()
                    v = _parse_valency(r, name)
                    if any(existing.name == v.name for existing in wc.valencies):
                        raise FSSyntaxError(f"duplicate valency {v.name!r} in {name!r}", at)
                    wc.valencies.append(v)
                lex.word_classes[name] = wc
            else:
                quoted = r.peek()
                if quoted is None or quoted[0] != '"':
                    raise r.error(f"lexeme surface must be quoted, found {r.found()}")
                surface = r.next()[1:-1]
                r.expect(":")
                entry = LexemeEntry(surface, r.name(), line=line)
                for key in _clauses(r, ("features", "concept"), f"lexeme {surface!r}"):
                    if key == "features":
                        entry.feature_overrides = r.structure()
                        continue
                    r.expect(":")
                    value = r.name()
                    entry.concept = None if value == "none" else value
                lex.lexemes.setdefault(surface, []).append(entry)
    except FSSyntaxError as err:
        line, column = _line_and_column(source, err.position)
        raise LexiconError(f"line {line}, column {column}: {err.message}") from None
    return lex


class _InheritanceCycle(LexiconError):
    def __init__(self, node: str):
        super().__init__(f"inheritance cycle through word class {node!r}")
        self.node = node


def _ancestry(lex: Lexicon, word_class: str) -> list:
    """Inheritance chain, root first.  Raises on unknown classes or cycles."""
    chain = []
    seen = set()
    node = word_class
    while node is not None:
        if node in seen:
            raise _InheritanceCycle(node)
        if node not in lex.word_classes:
            raise LexiconError(f"unresolved parent {node!r}")
        seen.add(node)
        chain.append(lex.word_classes[node])
        node = lex.word_classes[node].parent
    chain.reverse()
    return chain


def _override_merge(base: FeatureStructure, over: FeatureStructure) -> FeatureStructure:
    """Layer ``over`` onto ``base``; on atomic conflict the override wins."""
    if over.is_empty():
        return base
    if base.is_empty():
        return over
    merged = dict(base.items())
    added = False
    for attr, oval in over.items():
        bval = merged.get(attr)
        if isinstance(bval, FeatureStructure) and isinstance(oval, FeatureStructure):
            merged[attr] = _override_merge(bval, oval)
        else:
            added = added or bval is None
            merged[attr] = oval
    if added:
        merged = dict(sorted(merged.items()))
    return FeatureStructure._from_sorted(merged)


def _inherit(chain: list) -> tuple:
    """Fold an inheritance chain, root first, into its features and its
    valency slots by name."""
    features = EMPTY
    slots: dict = {}
    for wc in chain:
        features = _override_merge(features, wc.default_features)
        for v in wc.valencies:
            # reassignment keeps the first definition's list position
            slots[v.name] = v
    return features, slots


def resolve_entry(lex: Lexicon, surface: str) -> list:
    """Flatten inheritance for every homonym of ``surface``.

    Unknown surfaces yield an empty list; the caller decides whether that
    ends the parse.
    """
    resolved = []
    for entry in lex.lexemes.get(surface, []):
        features, slots = _inherit(_ancestry(lex, entry.word_class))
        features = _override_merge(features, entry.feature_overrides)
        resolved.append(ResolvedEntry(surface, entry.word_class, features,
                                      list(slots.values()), entry.concept))
    return resolved


def subclass_of(lex: Lexicon, sub: str, super_: str) -> bool:
    """Reflexive reachability along parent links."""
    for name in (sub, super_):
        if name not in lex.word_classes:
            raise LexiconError(f"undefined word class {name!r}")
    node = sub
    while node is not None:
        if node == super_:
            return True
        node = lex.word_classes[node].parent
    return False


def _at(definition, message: str) -> str:
    """``message`` prefixed with the source line of ``definition``, if known."""
    return message if definition.line is None else f"line {definition.line}: {message}"


def validate_lexicon(lex: Lexicon, kb: ConceptTaxonomy) -> list:
    """Collect every broken invariant; an empty list means the lexicon is usable.

    Each diagnostic of a loaded lexicon starts with ``line L:``, the line of
    the word class or lexeme it concerns."""
    diagnostics = []

    for name, wc in lex.word_classes.items():
        if wc.parent is not None and wc.parent not in lex.word_classes:
            diagnostics.append(_at(wc, f"word class {name!r}: unresolved parent {wc.parent!r}"))
            continue
        try:
            _ancestry(lex, name)
        except _InheritanceCycle as err:
            diagnostics.append(
                _at(wc, f"word class {name!r}: inheritance cycle through {err.node!r}"))
        except LexiconError:
            pass  # a dangling parent further up, reported at the class naming it

    for name, wc in lex.word_classes.items():
        for v in wc.valencies:
            if v.modifier_word_class not in lex.word_classes:
                diagnostics.append(_at(
                    wc, f"valency {v.name!r} of {name!r}: "
                        f"unresolved class {v.modifier_word_class!r}"))
            if v.conceptual_role is not None and v.conceptual_role not in kb.roles:
                diagnostics.append(_at(
                    wc, f"valency {v.name!r} of {name!r}: "
                        f"unresolved role {v.conceptual_role!r}"))

    for surface, entries in lex.lexemes.items():
        for entry in entries:
            if entry.word_class not in lex.word_classes:
                diagnostics.append(_at(
                    entry, f"lexeme {surface!r}: unresolved word class {entry.word_class!r}"))
                continue
            if entry.concept is not None and entry.concept not in kb.concepts:
                diagnostics.append(_at(
                    entry, f"lexeme {surface!r}: unresolved concept {entry.concept!r}"))
            try:
                chain = _ancestry(lex, entry.word_class)
            except LexiconError:
                continue  # already reported above
            inherited, _ = _inherit(chain)
            if unify(inherited, entry.feature_overrides) is None:
                diagnostics.append(_at(
                    entry, f"lexeme {surface!r}: overrides do not unify with inherited features"))

    return diagnostics
