"""Chart-based reference parser.

Enumerates every projective, single rooted, labeled dependency tree over a
token sequence with a chart over spans, in the style of Eisner (1996), so
its cost grows polynomially with the sentence and it has no length cap.  A
head takes its right dependents first, innermost first, and then its left
dependents, innermost first, so every tree has exactly one derivation per
combination of lexical readings.  It applies the same checks the word
actors apply: word class subsumption, morphological unification, linear
direction and one phrase per valency when a dependent attaches, and
mandatory-valency completeness and conceptual roles once a phrase is
complete.  It shares only the pure lookups with the actor implementation
(no messages, no scheduler, no actor state), so agreement between the two
is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import concepts as cn
from . import features as ft
from . import lexicon as lx
from . import trees as tr


class _Item(NamedTuple):
    """A phrase over a span: the root's position and lexical reading, the
    complete phrase filling each valency (None while free), whether left
    dependents have started, the phrase's effective concept, and all
    labeled edges inside."""
    root: int
    entry: lx.ResolvedEntry
    fills: tuple
    left_started: bool
    concept: Optional[str]
    edges: frozenset   # of (head_pos, label, mod_pos)


def _effective_concept(entry, fills):
    """The root's own concept, or else that of its first filled valency."""
    if entry.concept is not None:
        return entry.concept
    return next((dep.concept for dep in fills
                 if dep is not None and dep.concept is not None), None)


def _complete(kb, item) -> bool:
    """Mandatory valencies filled and every filled role admissible."""
    pairs = list(zip(item.entry.valencies, item.fills))
    if any(dep is None and v.necessity == lx.MANDATORY for v, dep in pairs):
        return False
    return all(v.conceptual_role is None
               or (item.concept is not None and dep.concept is not None
                   and cn.role_permits(kb, item.concept, v.conceptual_role, dep.concept))
               for v, dep in pairs if dep is not None)


def _attach(lex, head, dep, side):
    """Every item that hangs the complete phrase ``dep`` into a free
    valency of ``head`` on the given side."""
    for i, v in enumerate(head.entry.valencies):
        if (head.fills[i] is None and v.direction == side
                and lx.subclass_of(lex, dep.entry.word_class, v.modifier_word_class)
                and ft.unify(v.morph_constraint, dep.entry.features) is not None):
            fills = head.fills[:i] + (dep,) + head.fills[i + 1:]
            yield _Item(head.root, head.entry, fills,
                        head.left_started or side == lx.LEFT,
                        _effective_concept(head.entry, fills),
                        head.edges | dep.edges | {(head.root, v.name, dep.root)})


def oracle_parse(lex, kb, tokens) -> list:
    """All readings of the sentence, sorted by canonical form.

    Raises LexiconError on unknown words; an empty list means the sentence
    has no complete reading.
    """
    n = len(tokens)
    chart = {}      # (lo, hi) -> every phrase over the span
    done = {}       # (lo, hi) -> the complete ones among them
    for p, tok in enumerate(tokens, start=1):
        entries = lx.resolve_entry(lex, tok)
        if not entries:
            raise lx.LexiconError(f"unknown word {tok!r} at position {p}")
        chart[p, p] = [_Item(p, e, (None,) * len(e.valencies), False, e.concept,
                             frozenset()) for e in entries]
    for width in range(1, n + 1):
        for lo in range(1, n - width + 2):
            hi = lo + width - 1
            found = chart.setdefault((lo, hi), [])   # a token holds its readings
            for mid in range(lo, hi):
                for head in chart[lo, mid]:
                    if not head.left_started:
                        for dep in done[mid + 1, hi]:
                            found.extend(_attach(lex, head, dep, lx.RIGHT))
                for head in chart[mid + 1, hi]:
                    for dep in done[lo, mid]:
                        found.extend(_attach(lex, head, dep, lx.LEFT))
            done[lo, hi] = [item for item in found if _complete(kb, item)]

    result = [tr.ParseTree(item.root, tokens[item.root - 1], frozenset(
                  tr.Edge(h, tokens[h - 1], label, m, tokens[m - 1])
                  for (h, label, m) in item.edges))
              for item in done.get((1, n), [])]
    result.sort(key=lambda t: t.canonical())
    return result
