"""Known defects, one parse each, pinned as strict expected failures.

Each test states the correct outcome.  While the defect stands the test
fails and is reported as xfail; the change that fixes a defect makes its
test pass, which strict mode reports as a failure until the marker goes.
"""

from collections import Counter

import pytest

from wordactors import protocol as pt
from wordactors import runtime as rt
from wordactors.oracle import oracle_parse

BASE = "Compaq liefert einen Rechner".split()
PP = "mit einer Harddisk".split()


def _readings(trees):
    return Counter(t.canonical() for t in trees)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="F1: sequential mode loses a reading when two PPs stack")
def test_f1_two_stacked_pps_keep_all_readings(demo_lexicon, demo_kb):
    tokens = BASE + 2 * PP
    _system, _net, trees = pt.run_parse(demo_lexicon, demo_kb, tokens, seed=0)
    assert _readings(trees) == _readings(oracle_parse(demo_lexicon, demo_kb, tokens))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="F2: parallel mode loses readings on long PP chains")
def test_f2_parallel_chain_of_five_pps_keeps_all_readings(demo_lexicon, demo_kb):
    # oracle_parse stops at 10 tokens; k PPs after "liefert" give k + 1
    # different attachments
    _system, _net, trees = pt.run_parse(demo_lexicon, demo_kb, BASE + 5 * PP,
                                        seed=5, mode="parallel")
    got = _readings(trees)
    assert len(got) == sum(got.values()) == 6


@pytest.mark.xfail(strict=True, raises=rt.HandlerFailure,
                   reason="F3: the fringe debug check crashes a correct run")
def test_f3_fringe_check_passes_a_correct_run(demo_lexicon, demo_kb):
    tokens = BASE + PP
    _system, _net, trees = pt.run_parse(demo_lexicon, demo_kb, tokens, seed=183)
    assert _readings(trees) == _readings(oracle_parse(demo_lexicon, demo_kb, tokens))
