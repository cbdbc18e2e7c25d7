"""A reference parser of the benchmark's own, used for the long PP chains.

It enumerates projective, single rooted dependency trees with a chart over
spans, so its cost grows polynomially with the sentence and it has no
length cap.  A head takes its right dependents first, innermost first, and
then its left dependents, innermost first, so every tree has exactly one
derivation.  A valency holds at most one phrase.  Word class, morphology
(flat atom sets) and direction are checked when a dependent attaches;
mandatory valencies and conceptual roles are checked once a phrase is
complete.  A word without a concept of its own speaks for the concept of
its first filled valency, as in the package.

The lexical facts are transcribed from the bundled ``demo.lex``; concepts
and roles are read from the KB text with a reader of this file's own.  It
calls nothing of the package, so agreement with the actor parser is
evidence, not a tautology.  ``run.py`` cross-checks it against the
package's exhaustive ``oracle_parse`` wherever that accepts the input
(at most 10 tokens).
"""

from __future__ import annotations

from collections import namedtuple

Valency = namedtuple("Valency", "name word_class direction mandatory features role")
Word = namedtuple("Word", "classes concept features valencies")

_NOUN_CASE = {"case": frozenset({"nom", "acc", "dat"})}


def _verb(subclass, concept, ppadj_role):
    return Word(
        frozenset({"verb", subclass}), concept, {},
        (Valency("subj", "noun", "left", True, {"case": frozenset({"nom"})}, "agent"),
         Valency("dirobj", "noun", "right", True, {"case": frozenset({"acc"})}, "patient"),
         Valency("ppadj", "prep", "right", False, {}, ppadj_role)))


def _count_noun(gender, concept):
    return Word(
        frozenset({"noun", "count-noun", gender + "-noun"}), concept, _NOUN_CASE,
        (Valency("spec", "det", "left", True, {"gend": frozenset({gender})}, None),
         Valency("ppatt", "prep", "right", False, {}, "has-part")))


def _name(concept):
    return Word(frozenset({"noun", "name"}), concept, _NOUN_CASE, ())


def _det(case, gender):
    return Word(frozenset({"det"}), None,
                {"case": frozenset(case.split("|")), "gend": frozenset({gender})}, ())


# demo.lex, one list of readings per surface form.
LEXICON = {
    "Compaq": [_name("company")],
    "Siemens": [_name("company")],
    "Atari": [_count_noun("masc", "computer"), _name("company")],
    "entwickelt": [_verb("develop-verb", "develop-action", "instrument")],
    "liefert": [_verb("deliver-verb", "deliver-action", "uses")],
    "rechnet": [Word(frozenset({"verb", "reckon-verb"}), "reckon-action", {},
                     (Valency("subj", "noun", "left", True,
                              {"case": frozenset({"nom"})}, "agent"),
                      Valency("ppobj", "prep", "right", True, {}, None)))],
    "Notebook": [_count_noun("masc", "notebook-device")],
    "Rechner": [_count_noun("masc", "computer")],
    "Harddisk": [_count_noun("fem", "harddisk")],
    "120-MByte-Harddisk": [_count_noun("fem", "harddisk")],
    "einen": [_det("acc", "masc")],
    "einem": [_det("dat", "masc")],
    "einer": [_det("dat", "fem")],
    "eine": [_det("nom|acc", "fem")],
    "mit": [Word(frozenset({"prep"}), None, {},
                 (Valency("obj", "noun", "right", True,
                          {"case": frozenset({"dat"})}, None),))],
}


class Taxonomy:
    """Concepts and roles as written in a KB file: `concept C [: PARENT]`
    and `role R domain D range G`, `#` comments."""

    def __init__(self, text: str):
        self.parent = {}
        self.roles = {}
        for raw in text.splitlines():
            fields = raw.split("#", 1)[0].replace(":", " ").split()
            if not fields:
                continue
            if fields[0] == "concept":
                self.parent[fields[1]] = fields[2] if len(fields) > 2 else None
            elif fields[0] == "role":
                self.roles[fields[1]] = (fields[3], fields[5])
            else:
                raise ValueError(f"unknown KB declaration {raw!r}")

    def is_a(self, sub, sup) -> bool:
        while sub is not None:
            if sub == sup:
                return True
            sub = self.parent[sub]
        return False

    def permits(self, head_concept, role, filler_concept) -> bool:
        domain, range_ = self.roles[role]
        return self.is_a(head_concept, domain) and self.is_a(filler_concept, range_)


# A partial phrase: root position, lexical reading of the root, what fills
# each valency (None or (modifier position, modifier's effective concept)),
# whether left dependents have started, and the labeled edges inside.
Item = namedtuple("Item", "root word fills left_started edges")


def _unifies(constraint: dict, features: dict) -> bool:
    return all(features[a] & v for a, v in constraint.items() if a in features)


def _concept(item):
    if item.word.concept:
        return item.word.concept
    for fill in item.fills:
        if fill is not None and fill[1]:
            return fill[1]
    return None


def _complete(item, kb) -> bool:
    """Mandatory valencies filled and every filled role admissible."""
    concept = _concept(item)
    for v, fill in zip(item.word.valencies, item.fills):
        if fill is None:
            if v.mandatory:
                return False
        elif v.role is not None:
            if concept is None or fill[1] is None or not kb.permits(concept, v.role, fill[1]):
                return False
    return True


def _attach(head, dep, direction, kb):
    """Every item that hangs the complete phrase `dep` into a free valency
    of `head` on the given side."""
    out = []
    for i, v in enumerate(head.word.valencies):
        if (v.direction != direction or head.fills[i] is not None
                or v.word_class not in dep.word.classes
                or not _unifies(v.features, dep.word.features)):
            continue
        fills = head.fills[:i] + ((dep.root, _concept(dep)),) + head.fills[i + 1:]
        out.append(Item(head.root, head.word, fills,
                        head.left_started or direction == "left",
                        head.edges | dep.edges | {(head.root, v.name, dep.root)}))
    return out


def enumerate_readings(tokens, kb: Taxonomy) -> list:
    """Canonical forms of all readings, in the shape of
    ``ParseTree.canonical()``: (root position, sorted (head, label, modifier)
    triples), positions counted from 1."""
    n = len(tokens)
    chart = {}
    for p, tok in enumerate(tokens, start=1):
        if tok not in LEXICON:
            raise KeyError(f"reference lexicon has no entry for {tok!r}")
        chart[(p, p)] = [Item(p, w, (None,) * len(w.valencies), False, frozenset())
                         for w in LEXICON[tok]]
    for width in range(2, n + 1):
        for lo in range(1, n - width + 2):
            hi = lo + width - 1
            found = []
            for mid in range(lo, hi):
                lefts, rights = chart[(lo, mid)], chart[(mid + 1, hi)]
                done_left = [a for a in lefts if _complete(a, kb)]
                done_right = [b for b in rights if _complete(b, kb)]
                for a in lefts:
                    if not a.left_started:
                        for b in done_right:
                            found.extend(_attach(a, b, "right", kb))
                for b in rights:
                    for a in done_left:
                        found.extend(_attach(b, a, "left", kb))
            chart[(lo, hi)] = found
    readings = sorted((item.root, tuple(sorted(item.edges)))
                      for item in chart[(1, n)] if _complete(item, kb))
    if len(set(readings)) != len(readings):
        raise AssertionError(f"reference derived a tree twice for {' '.join(tokens)!r}")
    return readings
