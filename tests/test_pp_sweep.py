"""The PP sweep gate: every run of a fixed grid against ``oracle_parse``.

The grid: ``Compaq liefert einen Rechner`` and ``Compaq entwickelt einen
Rechner``, each followed by k × ``mit einer Harddisk`` for k = 0…8, at
scheduler seeds 0…49; ``mit Atari``, ``Compaq rechnet mit Atari`` and
``Compaq liefert Atari`` at seeds 0…99; and the short inputs, every
sequence of 1–3 surfaces of ``demo.lex`` (3,615 inputs), at seed 0; and the
generated sentences, the first 1,000 draws of ``helpers.drawn_sentences``
(the generator the oracle's cross-check uses), at seeds 0…2.  Every input
runs with both KBs, in both modes, with debug checks on.  A run is
right when its reading multiset equals the oracle's.  The scanner refuses a
word with several lexicon entries anywhere but last, so a run whose input
has one before its last token may also raise ``ParseAbort``.

Some runs are wrong today (F1, F2, F5) and some raise (F3, F4, F5).
``pp_sweep_defects.txt`` lists each of them with what it does: the
known-defect table.  The gate fails on a run outside the table that is
wrong or raises, and on a run in the table that no longer does what the
table says.  So a change that fixes one of F1–F5 shrinks the table in the
same change.  Every failure names the command that replays its run.

Tier-1 runs a slice (k ≤ 4, seeds 0…19, every short input, and the first
150 generated sentences); the whole grid is marked slow.
``python tests/test_pp_sweep.py`` prints the table the current code gives.
"""

import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from helpers import drawn_sentences

from wordactors import lexicon as lx
from wordactors import protocol as pt
from wordactors.oracle import oracle_parse

TABLE = Path(__file__).with_name("pp_sweep_defects.txt")
KB_FILES = ("demo.kb", "demo_permissive.kb")
MODES = ("sequential", "parallel")
PP = "mit einer Harddisk".split()
CHAIN_BASES = ("Compaq liefert einen Rechner", "Compaq entwickelt einen Rechner")
HOMONYM_SENTENCES = ("mit Atari", "Compaq rechnet mit Atari", "Compaq liefert Atari")

HEADER = """\
# The known-defect table of the PP sweep gate (tests/test_pp_sweep.py): the
# runs of its grid that are wrong or raise at this commit.  One line per
# sentence, KB, mode and kind; a kind is `wrong` (readings differ from
# oracle_parse) or the name of the exception the run raises.  A sentence
# `<base> +k` is <base> followed by k x `mit einer Harddisk`.  A run that
# raises ParseAbort over a homonym before its last token is not listed.  A
# change that fixes a run removes it here in the same change.
# sentence | kb | mode | kind | seeds
"""

# label -> (tokens, k or None, number of seeds)
SENTENCES = {}
for _base in CHAIN_BASES:
    for _k in range(9):
        SENTENCES[f"{_base} +{_k}"] = (_base.split() + _k * PP, _k, 50)
for _text in HOMONYM_SENTENCES:
    SENTENCES[_text] = (_text.split(), None, 100)
# The short inputs draw on every surface of demo.lex; one that is a sentence
# above keeps that sentence's seeds.
SURFACES = ("120-MByte-Harddisk", "Atari", "Compaq", "Harddisk", "Notebook", "Rechner",
            "Siemens", "eine", "einem", "einen", "einer", "entwickelt", "liefert", "mit",
            "rechnet")
for _n in (1, 2, 3):
    for _tokens in product(SURFACES, repeat=_n):
        SENTENCES.setdefault(" ".join(_tokens), (list(_tokens), None, 1))
# The generated sentences come last, in draw order; a draw that is an input
# above, or an earlier draw, keeps that input's label and seeds.
_labels = {" ".join(_tokens) for _tokens, _k, _n in SENTENCES.values()}
GENERATED = []
for _tokens in drawn_sentences(1000):
    _text = " ".join(_tokens)
    if _text not in _labels:
        _labels.add(_text)
        GENERATED.append(_text)
        SENTENCES[_text] = (_tokens, None, 3)


def grid(max_k=8, seeds=100, draws=len(GENERATED)):
    """(label, kb name, mode, seed) of every run with at most ``max_k`` PPs
    and a seed below ``seeds``, of the generated sentences only the first
    ``draws``."""
    left_out = set(GENERATED[draws:])
    return [(label, kb, mode, seed)
            for label, (_tokens, k, n) in SENTENCES.items()
            if (k is None or k <= max_k) and label not in left_out
            for kb in KB_FILES for mode in MODES for seed in range(min(n, seeds))]


def repro(label, kb, mode, seed):
    option = "" if kb == "demo.kb" else f" --kb src/wordactors/fixtures/{kb}"
    return (f"wordactors parse --seed {seed} --mode {mode}{option} "
            + " ".join(SENTENCES[label][0]))


def _readings(trees):
    return Counter(t.canonical() for t in trees)


def _homonym_before_last(lexicon, tokens):
    return any(len(lx.resolve_entry(lexicon, token)) > 1 for token in tokens[:-1])


def outcomes(lexicon, kbs, runs):
    """run -> ``wrong``, the name of the exception it raises, or None when
    its readings are the oracle's or it raises ``ParseAbort`` over a homonym
    before its last token."""
    wanted = {}
    out = {}
    for label, kb_name, mode, seed in runs:
        tokens = SENTENCES[label][0]
        kb = kbs[kb_name]
        if (label, kb_name) not in wanted:
            wanted[label, kb_name] = _readings(oracle_parse(lexicon, kb, tokens))
        try:
            _system, _net, trees = pt.run_parse(lexicon, kb, tokens, seed=seed,
                                                mode=mode, debug_checks=True)
        except Exception as err:
            refused = (isinstance(err, pt.ParseAbort)
                       and _homonym_before_last(lexicon, tokens))
            out[label, kb_name, mode, seed] = None if refused else type(err).__name__
            continue
        ok = _readings(trees) == wanted[label, kb_name]
        out[label, kb_name, mode, seed] = None if ok else "wrong"
    return out


def _seeds(text):
    for part in text.split():
        low, _, high = part.partition("-")
        yield from range(int(low), int(high or low) + 1)


def load_table(text):
    """run -> kind, from lines ``sentence | kb | mode | kind | seeds``,
    where seeds are numbers and ``low-high`` ranges."""
    table = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        label, kb, mode, kind, seeds = (field.strip() for field in line.split("|"))
        for seed in _seeds(seeds):
            run = (label, kb, mode, seed)
            assert run not in table, f"{run} is listed twice"
            table[run] = kind
    return table


def write_table(found):
    """The table text for ``found`` (run -> kind), one line per sentence,
    KB, mode and kind, with consecutive seeds folded into ranges."""
    groups = {}
    for (label, kb, mode, seed), kind in found.items():
        if kind is not None:
            groups.setdefault((label, kb, mode, kind), []).append(seed)
    order = {label: i for i, label in enumerate(SENTENCES)}
    lines = [HEADER]
    for (label, kb, mode, kind), seeds in sorted(
            groups.items(), key=lambda g: (order[g[0][0]], g[0][1:])):
        seeds.sort()
        spans = []
        for seed in seeds:
            if spans and spans[-1][1] == seed - 1:
                spans[-1][1] = seed
            else:
                spans.append([seed, seed])
        text = " ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)
        lines.append(f"{label} | {kb} | {mode} | {kind} | {text}\n")
    return "".join(lines)


@pytest.fixture(scope="module")
def kbs(demo_kb, permissive_kb):
    return {"demo.kb": demo_kb, "demo_permissive.kb": permissive_kb}


@pytest.fixture(scope="module")
def known():
    return load_table(TABLE.read_text())


def test_short_inputs_draw_on_every_surface(demo_lexicon):
    assert sorted(SURFACES) == sorted(demo_lexicon.lexemes)


def test_known_defect_table_lies_inside_the_grid(known):
    inside = set(grid())
    assert [run for run in known if run not in inside] == []


def _check(lexicon, kbs, known, runs):
    problems = []
    for run, kind in outcomes(lexicon, kbs, runs).items():
        listed = known.get(run)
        if kind == listed:
            continue
        if listed is None:
            what = f"{kind}, not in the known-defect table"
        elif kind is None:
            what = f"now right; remove it from the table ({listed})"
        else:
            what = f"{kind}, but the table says {listed}"
        problems.append(f"{repro(*run)}: {what}")
    assert not problems, f"{len(problems)} runs differ from {TABLE.name}:\n" + "\n".join(
        problems[:50])


def test_pp_sweep_slice_matches_the_known_defects(demo_lexicon, kbs, known):
    _check(demo_lexicon, kbs, known, grid(max_k=4, seeds=20, draws=150))


@pytest.mark.slow
def test_pp_sweep_matches_the_known_defects(demo_lexicon, kbs, known):
    _check(demo_lexicon, kbs, known, grid())


if __name__ == "__main__":
    from importlib import resources

    from wordactors import concepts as cn

    fixtures = resources.files("wordactors").joinpath("fixtures")
    lexicon = lx.load_lexicon(fixtures.joinpath("demo.lex").read_text())
    all_kbs = {name: cn.load_kb(fixtures.joinpath(name).read_text()) for name in KB_FILES}
    sys.stdout.write(write_table(outcomes(lexicon, all_kbs, grid())))
