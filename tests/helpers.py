"""Bits shared by several test modules: fixture loading and the corpus."""

import random
from importlib import resources

from wordactors.features import FeatureStructure, render_fs

FIXTURES = resources.files("wordactors").joinpath("fixtures")

DEMO_SENTENCE = "Compaq entwickelt einen Notebook mit einer 120-MByte-Harddisk".split()

DEMO_EDGES = [
    "entwickelt —dirobj→ Notebook",
    "entwickelt —subj→ Compaq",
    "Notebook —ppatt→ mit",
    "Notebook —spec→ einen",
    "mit —obj→ 120-MByte-Harddisk",
    "120-MByte-Harddisk —spec→ einer",
]


def fixture_text(name: str) -> str:
    return FIXTURES.joinpath(name).read_text()


def fixture_path(name: str) -> str:
    return str(FIXTURES.joinpath(name))


def corpus_cases():
    """(expected reading count, token tuple) pairs from the bundled corpus."""
    cases = []
    for raw in fixture_text("corpus.txt").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        want, _, sent = line.partition("|")
        cases.append((int(want.strip()), tuple(sent.split())))
    return cases


def fs_text(value):
    """A ``json.dumps`` default hook for trace params: a feature structure
    is written as its text, anything else json cannot write is refused."""
    if isinstance(value, FeatureStructure):
        return render_fs(value)
    raise TypeError(f"{type(value).__name__} in params")


# Generated sentences over the demo surfaces, for the oracle's cross-check
# and the PP sweep gate.

NAMES = ["Compaq", "Siemens", "Atari"]
MASCULINE = ["Notebook", "Rechner", "Atari"]
FEMININE = ["Harddisk", "120-MByte-Harddisk"]
NOUNS_OF = {"einen": MASCULINE, "einem": MASCULINE, "eine": FEMININE, "einer": FEMININE}
VERBS = ["entwickelt", "liefert", "rechnet"]


def grammar_sentence(pick, shuffle):
    """NP V NP + 0..8 PPs over the demo surfaces; a few come truncated or
    shuffled.  An NP is a name (``None`` among the slot's determiners) or
    a determiner of the slot's case with a noun of its gender; one in
    eight is any determiner with any noun.  ``pick`` chooses one item of a
    sequence, ``shuffle`` permutes a list."""
    def noun_phrase(dets):
        if pick(range(8)) == 0:
            return [pick(sorted(NOUNS_OF)), pick(MASCULINE + FEMININE)]
        det = pick(dets)
        return [pick(NAMES)] if det is None else [det, pick(NOUNS_OF[det])]

    tokens = (noun_phrase([None, None, "eine"]) + [pick(VERBS)]
              + noun_phrase([None, "einen", "eine"]))
    for _ in range(pick(range(9))):
        tokens += ["mit"] + noun_phrase(["einem", "einer"])
    shape = pick(["whole", "whole", "whole", "truncated", "shuffled"])
    if shape == "truncated":
        return tokens[:pick(range(1, len(tokens) + 1))]
    if shape == "shuffled":
        return shuffle(tokens)
    return tokens


def drawn_sentences(count):
    """The first ``count`` sentences drawn from ``random.Random(0)``."""
    rng = random.Random(0)
    return [grammar_sentence(rng.choice, lambda xs: rng.sample(xs, len(xs)))
            for _ in range(count)]
