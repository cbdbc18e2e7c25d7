"""The three workloads, their references, and the per-operation check.

One operation parses one sentence with one KB, one scheduling mode and one
scheduler seed, then audits the run.  A workload is one round of
operations; a benchmark run repeats whole rounds, so every run attempts
the same operations in the same proportions and its failed share is the
same whatever its length.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from importlib import resources

import reference

KB_FILES = ("demo.kb", "demo_permissive.kb")
MODES = ("sequential", "parallel")
CHAIN_PP = ["mit", "einer", "Harddisk"]
CHAIN_BASES = {
    "ppchain": ["Compaq", "liefert", "einen", "Rechner"],
    "deepchain": ["Compaq", "entwickelt", "einen", "Notebook"],
}
CHAIN_MAX_K = 8
# Scheduler seeds per workload.  They are fixed, not drawn from the
# workload seed: a fault that depends on the scheduler seed then fails the
# same operations in every run.
SCHEDULER_SEEDS = {"corpus": range(5), "ppchain": range(10), "deepchain": range(10)}
ORACLE_MAX_TOKENS = 10

Op = namedtuple("Op", "index label tokens kb_name mode seed expected")


class Fixtures:
    """The bundled lexicon, both KBs and the corpus, loaded once."""

    def __init__(self, wa):
        files = resources.files("wordactors").joinpath("fixtures")
        self.lex_text = files.joinpath("demo.lex").read_text()
        self.kb_texts = {name: files.joinpath(name).read_text() for name in KB_FILES}
        self.corpus_text = files.joinpath("corpus.txt").read_text()
        self.lex = wa.load_lexicon(self.lex_text)
        self.kbs = {name: wa.load_kb(text) for name, text in self.kb_texts.items()}
        problems = [p for kb in self.kbs.values() for p in wa.validate_lexicon(self.lex, kb)]
        if problems:
            raise ValueError("bundled lexicon does not validate: " + "; ".join(problems))
        self.etn = wa.derive_etn(wa.protocol_behaviors())


def corpus_cases(text):
    """(expected count or None, tokens) per corpus line."""
    cases = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        count, bar, sentence = line.partition("|")
        cases.append((int(count) if bar else None, (sentence if bar else count).split()))
    return cases


def reading_multiset(trees):
    return Counter(t.canonical() for t in trees)


def build(name, wa, fx):
    """One round of operations for the workload, each with its reference
    reading multiset, plus the list of reference disagreements (empty when
    the references are sound)."""
    problems = []
    groups = []   # (label, tokens, kb name, reference Counter)
    if name == "corpus":
        for count, tokens in corpus_cases(fx.corpus_text):
            for kb_name in KB_FILES:
                want = reading_multiset(wa.oracle_parse(fx.lex, fx.kbs[kb_name], tokens))
                own = Counter(reference.enumerate_readings(
                    tokens, reference.Taxonomy(fx.kb_texts[kb_name])))
                if own != want:
                    problems.append(f"enumerator disagrees with oracle_parse on "
                                    f"{' '.join(tokens)!r} ({kb_name})")
                if kb_name == "demo.kb" and count is not None and sum(want.values()) != count:
                    problems.append(f"oracle_parse finds {sum(want.values())} readings of "
                                    f"{' '.join(tokens)!r}, the corpus says {count}")
                groups.append((" ".join(tokens), tokens, kb_name, want))
    elif name in CHAIN_BASES:
        kb = reference.Taxonomy(fx.kb_texts["demo.kb"])
        for k in range(CHAIN_MAX_K + 1):
            tokens = CHAIN_BASES[name] + CHAIN_PP * k
            want = Counter(reference.enumerate_readings(tokens, kb))
            readings = k + 1 if name == "ppchain" else 1
            if sum(want.values()) != readings:
                problems.append(f"enumerator finds {sum(want.values())} readings at "
                                f"k={k}, expected {readings}")
            if len(tokens) <= ORACLE_MAX_TOKENS:
                oracle = reading_multiset(wa.oracle_parse(fx.lex, fx.kbs["demo.kb"], tokens))
                if oracle != want:
                    problems.append(f"enumerator disagrees with oracle_parse at k={k}")
            groups.append((f"k={k}", tokens, "demo.kb", want))
    else:
        raise ValueError(f"unknown workload {name!r}")

    ops = []
    for label, tokens, kb_name, want in groups:
        for mode in MODES:
            for seed in SCHEDULER_SEEDS[name]:
                ops.append(Op(len(ops), label, tuple(tokens), kb_name, mode, seed, want))
    return ops, problems


# --------------------------------------------------------------------------
# Checking one operation.

Outcome = namedtuple("Outcome", "readings error problems")


def failure_kind(op, outcome):
    """None if the operation succeeded, else a short name of how it failed.

    The names follow the faults known today: a raise from the fringe debug
    check, lost or extra readings in sequential and in parallel mode, and an
    audit that reports problems.
    """
    if outcome.error is not None:
        if "outside the search fringe" in outcome.error:
            return "raise:fringe-check"
        return "raise:other"
    if outcome.readings != op.expected:
        return f"readings:{op.mode}"
    if outcome.problems:
        return "audit"
    return None


def checker_selftest():
    """Each deliberately bad outcome must count as exactly one failure, a
    good one as none.  Returns a list of what went wrong."""
    want = Counter({(2, ((2, "subj", 1),)): 1})
    op = Op(0, "selftest", ("a", "b"), "demo.kb", "sequential", 0, want)
    cases = [
        ("correct outcome", Outcome(Counter(want), None, []), 0),
        ("wrong multiset", Outcome(want + want, None, []), 1),
        ("raised error", Outcome(None, "ProtocolError: boom", None), 1),
        ("check_invariants problem", Outcome(Counter(want), None, ["ledger open"]), 1),
    ]
    bad = []
    for what, outcome, failures in cases:
        got = int(failure_kind(op, outcome) is not None)
        if got != failures:
            bad.append(f"checker self-test: {what} counted {got} failures, expected {failures}")
    return bad


def repro(op):
    """The CLI command that replays one operation, from the checkout root."""
    kb = "" if op.kb_name == "demo.kb" else f" --kb src/wordactors/fixtures/{op.kb_name}"
    return (f"wordactors parse --seed {op.seed} --mode {op.mode}{kb} "
            + " ".join(op.tokens))
