"""Feature structures with unification.

A feature structure maps attribute names to values.  A value is either a
non-empty set of atoms (read disjunctively: ``case: nom|acc`` means "nom or
acc") or a nested feature structure.  Unification intersects atom sets and
recurses into shared nested attributes; an empty intersection is a failure,
reported as ``None`` rather than an exception, because constraint failure is
an ordinary outcome during parsing.

Structures are immutable and hashable, so they can be shared freely between
actors without copying or locking.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping, Optional, Union

Value = Union[frozenset, "FeatureStructure"]

# Attributes and atoms are the names of the token grammar below, so that
# every structure's text reads back as that structure.
_NAME = re.compile(r"[A-Za-z0-9_.+\-]+")

class FeatureStructure:
    """An immutable attribute-to-value mapping.

    The public constructor accepts any mapping and normalizes it: attributes
    sorted, strings and collections turned into atom sets, nested mappings
    into structures.  It raises ``ValueError`` for an attribute or atom that
    is not a name (``[A-Za-z0-9_.+-]+``), as the text form could not write
    it.  Unification and ``parse_fs`` build their results from parts that
    are already canonical and skip that work.  The canonical text is
    computed lazily by ``render_fs`` and cached in the structure; it never
    takes part in equality, hashing or pickling.  ``parse_fs`` reads that
    text back, and lexicon files write feature blocks in the same grammar.
    """

    __slots__ = ("_pairs", "_hash", "_text")

    def __init__(self, mapping: Mapping[str, object] = ()):
        source = dict(mapping)
        for attr in source:
            _check_name("attribute", attr)
        pairs = {}
        for attr in sorted(source):
            pairs[attr] = _coerce_value(attr, source[attr])
        self._pairs = pairs
        self._hash = hash(tuple(self._pairs.items()))
        self._text = None

    @classmethod
    def _from_sorted(cls, pairs: dict) -> "FeatureStructure":
        """Adopt ``pairs`` as they are: attributes already sorted, values
        already canonical (non-empty atom frozensets or structures)."""
        fs = cls.__new__(cls)
        fs._pairs = pairs
        fs._hash = hash(tuple(pairs.items()))
        fs._text = None
        return fs

    def __reduce__(self):
        # The cached hash of atom strings is only valid in the process that
        # computed it, so a pickle carries the pairs alone.
        return (FeatureStructure._from_sorted, (self._pairs,))

    def attributes(self) -> Iterator[str]:
        return iter(self._pairs)

    def get(self, attr: str) -> Optional[Value]:
        return self._pairs.get(attr)

    def items(self):
        return self._pairs.items()

    def is_empty(self) -> bool:
        return not self._pairs

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureStructure) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FeatureStructure({render_fs(self)!r})"


def _check_name(what: str, name: object) -> None:
    if not (isinstance(name, str) and _NAME.fullmatch(name)):
        raise ValueError(f"{what} {name!r} is not a name ([A-Za-z0-9_.+-]+)")


def _coerce_value(attr: str, value: object) -> Value:
    """Normalize a user-supplied value into the internal form."""
    if isinstance(value, FeatureStructure):
        return value
    if isinstance(value, Mapping):
        return FeatureStructure(value)
    if isinstance(value, str):
        value = [value]
    if isinstance(value, (set, frozenset, list, tuple)):
        atoms = frozenset(str(a) for a in value)
        if not atoms:
            raise ValueError(f"attribute {attr!r}: empty atom set is not storable")
        for atom in atoms:
            _check_name(f"attribute {attr!r}: atom", atom)
        return atoms
    raise TypeError(f"attribute {attr!r}: unsupported value {value!r}")


EMPTY = FeatureStructure()


def unify(a: FeatureStructure, b: FeatureStructure) -> Optional[FeatureStructure]:
    """Unify two feature structures; ``None`` signals failure.

    The result carries every attribute of either input.  Shared atomic
    attributes intersect; shared nested attributes unify recursively.  An
    atom set meeting a nested structure fails.
    """
    if not b._pairs:
        return a
    if not a._pairs:
        return b
    merged = dict(a._pairs)
    added = changed = False
    for attr, bval in b._pairs.items():
        aval = merged.get(attr)
        if aval is None:
            merged[attr] = bval
            added = True
        elif isinstance(aval, frozenset) and isinstance(bval, frozenset):
            common = aval & bval
            if not common:
                return None
            if len(common) < len(aval):
                merged[attr] = common
                changed = True
        elif isinstance(aval, FeatureStructure) and isinstance(bval, FeatureStructure):
            sub = unify(aval, bval)
            if sub is None:
                return None
            if sub is not aval:
                merged[attr] = sub
                changed = True
        else:
            return None
    if not (added or changed):
        return a
    if added:
        merged = dict(sorted(merged.items()))
    return FeatureStructure._from_sorted(merged)


def subsumes(general: FeatureStructure, specific: FeatureStructure) -> bool:
    """True iff unifying ``general`` into ``specific`` changes nothing."""
    u = unify(general, specific)
    return u is not None and u == specific


class FSSyntaxError(ValueError):
    """Raised on malformed feature-structure text; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


# Line breaks are the boundaries ``str.splitlines`` knows, so that the line
# numbers a lexicon error reports count the same breaks the scan skips.
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

# One match per token: skipped whitespace and comments, then a NAME, a
# STRING or punctuation (group 1), an unexpected character (group 2), or
# the end of the text.
_TOKEN = re.compile(
    rf'(?:[ \t{_BREAKS}]+|#[^{_BREAKS}]*)*'
    rf'(?:({_NAME.pattern}|"[^"#{_BREAKS}]*"|[{{}}:,|])|(.)|\Z)', re.S)


class TokenReader:
    """Recursive-descent reader over the tokens of lexicon and
    feature-structure text.

    Tokens are names (``[A-Za-z0-9_.+-]+``), double-quoted strings and the
    punctuation ``{ } : , |``; whitespace and ``#`` comments between them
    are skipped.  Every error is an ``FSSyntaxError`` at the offset of the
    offending token, or at the end of the text.
    """

    def __init__(self, text: str):
        self.tokens = []
        self.offsets = []
        for m in _TOKEN.finditer(text):
            if m.lastindex is None:
                break
            if m.lastindex == 2:
                raise FSSyntaxError(f"unexpected character {m.group(2)!r}", m.start(2))
            self.tokens.append(m.group(1))
            self.offsets.append(m.start(1))
        # the end of the text reads as a last token, None
        self.tokens.append(None)
        self.offsets.append(len(text))
        self.index = 0

    def peek(self) -> Optional[str]:
        """The next token, or ``None`` at the end of the text."""
        return self.tokens[self.index]

    def offset(self) -> int:
        """Where the next token starts, or the length of the text."""
        return self.offsets[self.index]

    def error(self, message: str) -> FSSyntaxError:
        return FSSyntaxError(message, self.offset())

    def found(self) -> str:
        tok = self.peek()
        return "end of input" if tok is None else repr(tok)

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        self.index += 1
        return tok

    def expect(self, literal: str) -> None:
        if self.peek() != literal:
            raise self.error(f"expected {literal!r}, found {self.found()}")
        self.index += 1

    def name(self) -> str:
        tok = self.peek()
        if tok is None or tok[0] in '"{}:,|':
            raise self.error(f"expected a name, found {self.found()}")
        self.index += 1
        return tok

    def structure(self) -> FeatureStructure:
        """``fs = "{" [pair {"," pair}] "}"``, ``pair = NAME ":" (ATOM {"|" ATOM} | fs)``."""
        self.expect("{")
        pairs = {}
        if self.peek() == "}":
            self.index += 1
            return EMPTY
        while True:
            if self.peek() in pairs:
                raise self.error(f"duplicate attribute {self.peek()!r}")
            attr = self.name()
            self.expect(":")
            if self.peek() == "{":
                pairs[attr] = self.structure()
            else:
                atoms = [self.name()]
                while self.peek() == "|":
                    self.index += 1
                    atoms.append(self.name())
                pairs[attr] = frozenset(atoms)
            tok = self.peek()
            if tok != "," and tok != "}":
                raise self.error(f"expected ',' or '}}', found {self.found()}")
            self.index += 1
            if tok == "}":
                return FeatureStructure._from_sorted(dict(sorted(pairs.items())))


def parse_fs(text: str) -> FeatureStructure:
    """Parse the ``{attr: v1|v2, nested: {...}}`` text form.

    The text shares its tokens with lexicon files, ``#`` comments included;
    nothing but whitespace and comments may follow the closing brace.
    """
    reader = TokenReader(text)
    fs = reader.structure()
    if reader.peek() is not None:
        raise reader.error("trailing input after structure")
    return fs


def render_fs(fs: FeatureStructure) -> str:
    """Render canonically: attributes and atom sets sorted, stable bytes."""
    text = fs._text
    if text is None:
        parts = []
        for attr, value in fs._pairs.items():
            if isinstance(value, FeatureStructure):
                parts.append(f"{attr}: {render_fs(value)}")
            else:
                parts.append(f"{attr}: {'|'.join(sorted(value))}")
        text = fs._text = "{" + ", ".join(parts) + "}"
    return text
