"""Exported traces pinned byte for byte across commits.

Determinism within one run is tested elsewhere; these pins also catch a
change that alters delivery order, RNG use or event rendering between
commits.  Each pinned run returns the reference readings today, so a later
fix of a lost-reading or fringe defect need not touch them.  A change that
deliberately alters protocol traffic regenerates the pins and says so in
CHANGES.md.
"""

import hashlib
from collections import Counter

import pytest

from helpers import DEMO_SENTENCE

from wordactors import events as ev
from wordactors import protocol as pt
from wordactors.oracle import oracle_parse

PP3 = "Compaq liefert einen Rechner".split() + 3 * "mit einer Harddisk".split()

# (tokens, mode, seed) -> sha256 of the JSONL and of the DOT export
PINS = [
    (DEMO_SENTENCE, "sequential", 1,
     "c61de21ae094f545160a1177c9ac997e5ba0580042ca930d273a9abda3c732c6",
     "4d47e724ec8017e9667d327a60ee7476e1ed517f44a7daa153550685270f9832"),
    (DEMO_SENTENCE, "parallel", 1,
     "343394031107a39bae68c65689146173a78735192f882df15b0d484d8ef47d97",
     "de64426b8235c3cc8792f3bcc06af388ccc04c08a4609fe7cfee264a8dbb8d69"),
    (PP3, "parallel", 0,
     "4481306d7a0234b6cc3518b98b011a801a18ff2b1f32f4bc814a708360337acb",
     "f387839003c8817210a2df5634d08e6ee0fb467481a4b9a5b5161b1ecba24682"),
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("tokens, mode, seed, jsonl_sha, dot_sha", PINS,
                         ids=["demo-sequential", "demo-parallel", "ppchain3-parallel"])
def test_export_bytes_are_pinned(demo_lexicon, demo_kb, tokens, mode, seed,
                                 jsonl_sha, dot_sha):
    system, net, trees = pt.run_parse(demo_lexicon, demo_kb, list(tokens),
                                      seed=seed, mode=mode)
    got = Counter(t.canonical() for t in trees)
    if len(tokens) <= 10:
        assert got == Counter(t.canonical() for t in
                              oracle_parse(demo_lexicon, demo_kb, list(tokens)))
    else:
        # oracle_parse stops at 10 tokens; a chain of k PPs has k + 1
        # readings, each a different attachment, and this run splits
        assert len(got) == sum(got.values()) == 4
        assert len(system.shared["readings"].parent) > 1
    assert _sha(ev.export(net, "jsonl")) == jsonl_sha
    assert _sha(ev.export(net, "dot")) == dot_sha
