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

from typing import Iterator, Mapping, Optional, Union

Value = Union[frozenset, "FeatureStructure"]

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.+-")


class FeatureStructure:
    """An immutable attribute-to-value mapping.

    The public constructor accepts any mapping and normalizes it: attributes
    sorted, strings and collections turned into atom sets, nested mappings
    into structures.  Unification builds its results from parts that are
    already canonical and skips that work.  The canonical text is computed
    lazily by ``render_fs`` and cached in the structure; it never takes
    part in equality, hashing or pickling.
    """

    __slots__ = ("_pairs", "_hash", "_text")

    def __init__(self, mapping: Mapping[str, object] = ()):
        source = dict(mapping)
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


def _coerce_value(attr: str, value: object) -> Value:
    """Normalize a user- or parser-supplied value into the internal form."""
    if isinstance(value, FeatureStructure):
        return value
    if isinstance(value, Mapping):
        return FeatureStructure(value)
    if isinstance(value, str):
        return frozenset([value])
    if isinstance(value, (set, frozenset, list, tuple)):
        atoms = frozenset(str(a) for a in value)
        if not atoms:
            raise ValueError(f"attribute {attr!r}: empty atom set is not storable")
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
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> FSSyntaxError:
        return FSSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start : self.pos]

    def structure(self) -> FeatureStructure:
        self.expect("{")
        pairs = {}
        if self.peek() == "}":
            self.pos += 1
            return FeatureStructure(pairs)
        while True:
            attr = self.name()
            if attr in pairs:
                raise self.error(f"duplicate attribute {attr!r}")
            self.expect(":")
            if self.peek() == "{":
                pairs[attr] = self.structure()
            else:
                atoms = [self.name()]
                while self.peek() == "|":
                    self.pos += 1
                    atoms.append(self.name())
                pairs[attr] = frozenset(atoms)
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "}":
                self.pos += 1
                return FeatureStructure(pairs)
            raise self.error("expected ',' or '}'")


def parse_fs(text: str) -> FeatureStructure:
    """Parse the ``{attr: v1|v2, nested: {...}}`` text form."""
    parser = _Parser(text)
    fs = parser.structure()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after structure")
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
