"""The lexicon: word classes, valency slots, and lexical entries.

Word classes form a single-inheritance tree.  A class may declare default
features and an ordered list of valency slots; a subclass inherits both and
may redefine a slot of the same name (the redefinition replaces the
inherited slot but keeps its original list position, so traces stay
reproducible).  Lexemes are the leaves: a surface form, its word class,
feature overrides, and an optional concept name.

Text format (strict: unknown keys are rejected so typos surface early):

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

'#' starts a comment.  Feature blocks use the feature-structure grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .concepts import ConceptTaxonomy
from .features import EMPTY, FeatureStructure, unify

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


@dataclass
class LexemeEntry:
    surface: str
    word_class: str
    feature_overrides: FeatureStructure = EMPTY
    concept: Optional[str] = None


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


_TOKEN = re.compile(r'"[^"\n]*"|[A-Za-z0-9_.+\-]+|[{}:,|]')


def _tokenize(source: str):
    tokens = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos] in " \t":
                pos += 1
                continue
            m = _TOKEN.match(line, pos)
            if not m:
                raise LexiconError(f"line {lineno}, column {pos + 1}: unexpected character {line[pos]!r}")
            tokens.append((m.group(0), lineno))
            pos = m.end()
    return tokens


class _Tokens:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index][0] if self.index < len(self.tokens) else None

    def line(self):
        i = min(self.index, len(self.tokens) - 1)
        return self.tokens[i][1] if self.tokens else 0

    def next(self):
        if self.index >= len(self.tokens):
            raise LexiconError("unexpected end of input")
        tok = self.tokens[self.index][0]
        self.index += 1
        return tok

    def expect(self, literal):
        tok = self.next()
        if tok != literal:
            raise LexiconError(f"line {self.line()}: expected {literal!r}, found {tok!r}")
        return tok


def _parse_feature_block(ts: _Tokens) -> FeatureStructure:
    # same grammar as features.parse_fs, read off the shared token stream
    ts.expect("{")
    pairs = {}
    if ts.peek() == "}":
        ts.next()
        return FeatureStructure(pairs)
    while True:
        attr = ts.next()
        if attr in pairs:
            raise LexiconError(f"line {ts.line()}: duplicate attribute {attr!r}")
        ts.expect(":")
        if ts.peek() == "{":
            pairs[attr] = _parse_feature_block(ts)
        else:
            atoms = [ts.next()]
            while ts.peek() == "|":
                ts.next()
                atoms.append(ts.next())
            pairs[attr] = frozenset(atoms)
        tok = ts.next()
        if tok == ",":
            continue
        if tok == "}":
            return FeatureStructure(pairs)
        raise LexiconError(f"line {ts.line()}: expected ',' or '}}', found {tok!r}")


def _parse_valency(ts: _Tokens, owner: str) -> ValencyDef:
    name = ts.next()
    ts.expect("{")
    seen = set()
    fields = {"class": None, "dir": None, "necessity": None,
              "features": EMPTY, "role": None}
    while ts.peek() != "}":
        key = ts.next()
        if key not in fields:
            raise LexiconError(f"line {ts.line()}: unknown key {key!r} in valency {name!r} of {owner!r}")
        if key in seen:
            raise LexiconError(f"line {ts.line()}: duplicate key {key!r} in valency {name!r}")
        seen.add(key)
        if key == "features":
            fields[key] = _parse_feature_block(ts)
            continue
        ts.expect(":")
        value = ts.next()
        if key == "dir":
            if value not in ("left", "right"):
                raise LexiconError(f"line {ts.line()}: dir must be left or right, found {value!r}")
            fields[key] = LEFT if value == "left" else RIGHT
        elif key == "necessity":
            if value not in (MANDATORY, OPTIONAL):
                raise LexiconError(f"line {ts.line()}: bad necessity {value!r}")
            fields[key] = value
        elif key == "role":
            fields[key] = None if value == "none" else value
        else:
            fields[key] = value
    ts.expect("}")
    for required in ("class", "dir", "necessity"):
        if fields[required] is None:
            raise LexiconError(f"valency {name!r} of {owner!r}: missing key {required!r}")
    return ValencyDef(name, fields["class"], fields["features"],
                      fields["dir"], fields["necessity"], fields["role"])


def load_lexicon(source: str) -> Lexicon:
    """Parse lexicon text.  Parsing only; cross-references are checked later."""
    lex = Lexicon()
    ts = _Tokens(_tokenize(source))
    while ts.peek() is not None:
        form = ts.next()
        if form == "wordclass":
            name = ts.next()
            parent = None
            if ts.peek() == ":":
                ts.next()
                parent = ts.next()
            if name in lex.word_classes:
                raise LexiconError(f"line {ts.line()}: duplicate word class {name!r}")
            wc = WordClassDef(name, parent)
            ts.expect("{")
            while ts.peek() != "}":
                key = ts.next()
                if key == "features":
                    if not wc.default_features.is_empty():
                        raise LexiconError(f"line {ts.line()}: repeated features block in {name!r}")
                    wc.default_features = _parse_feature_block(ts)
                elif key == "valency":
                    v = _parse_valency(ts, name)
                    if any(existing.name == v.name for existing in wc.valencies):
                        raise LexiconError(f"line {ts.line()}: duplicate valency {v.name!r} in {name!r}")
                    wc.valencies.append(v)
                else:
                    raise LexiconError(f"line {ts.line()}: unknown key {key!r} in wordclass {name!r}")
            ts.expect("}")
            lex.word_classes[name] = wc
        elif form == "lexeme":
            quoted = ts.next()
            if not (quoted.startswith('"') and quoted.endswith('"') and len(quoted) >= 2):
                raise LexiconError(f"line {ts.line()}: lexeme surface must be quoted, found {quoted!r}")
            surface = quoted[1:-1]
            ts.expect(":")
            word_class = ts.next()
            entry = LexemeEntry(surface, word_class)
            ts.expect("{")
            while ts.peek() != "}":
                key = ts.next()
                if key == "features":
                    if not entry.feature_overrides.is_empty():
                        raise LexiconError(f"line {ts.line()}: repeated features block for {surface!r}")
                    entry.feature_overrides = _parse_feature_block(ts)
                elif key == "concept":
                    ts.expect(":")
                    value = ts.next()
                    entry.concept = None if value == "none" else value
                else:
                    raise LexiconError(f"line {ts.line()}: unknown key {key!r} in lexeme {surface!r}")
            ts.expect("}")
            lex.lexemes.setdefault(surface, []).append(entry)
        else:
            raise LexiconError(f"line {ts.line()}: unknown top-level form {form!r}")
    return lex


def _ancestry(lex: Lexicon, word_class: str) -> list:
    """Inheritance chain, root first.  Raises on unknown classes or cycles."""
    chain = []
    seen = set()
    node = word_class
    while node is not None:
        if node in seen:
            raise LexiconError(f"inheritance cycle through word class {node!r}")
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


def resolve_entry(lex: Lexicon, surface: str) -> list:
    """Flatten inheritance for every homonym of ``surface``.

    Unknown surfaces yield an empty list; the caller decides whether that
    ends the parse.
    """
    resolved = []
    for entry in lex.lexemes.get(surface, []):
        chain = _ancestry(lex, entry.word_class)
        features = EMPTY
        slots: dict = {}
        for wc in chain:
            features = _override_merge(features, wc.default_features)
            for v in wc.valencies:
                # reassignment keeps the first definition's list position
                slots[v.name] = v
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


def validate_lexicon(lex: Lexicon, kb: ConceptTaxonomy) -> list:
    """Collect every broken invariant; an empty list means the lexicon is usable."""
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

    for surface, entries in lex.lexemes.items():
        for entry in entries:
            if entry.word_class not in lex.word_classes:
                diagnostics.append(f"lexeme {surface!r}: unresolved word class {entry.word_class!r}")
                continue
            if entry.concept is not None and entry.concept not in kb.concepts:
                diagnostics.append(f"lexeme {surface!r}: unresolved concept {entry.concept!r}")
            try:
                chain = _ancestry(lex, entry.word_class)
            except LexiconError:
                continue  # already reported above
            inherited = EMPTY
            for wc in chain:
                inherited = _override_merge(inherited, wc.default_features)
            if unify(inherited, entry.feature_overrides) is None:
                diagnostics.append(
                    f"lexeme {surface!r}: overrides do not unify with inherited features")

    return diagnostics
