"""Command line front end for the word-actor parser.

Four commands: ``parse`` runs one sentence to quiescence and prints its
readings, ``etn`` emits the static event type network, ``validate`` checks
lexicon and taxonomy, and ``oracle-compare`` replays a corpus under many
scheduler seeds and diffs the actor parser against the chart-based
reference parser, which takes sentences of any length.

Exit codes for ``parse``: 0 with at least one reading, 2 with none, 1 on
any error.  The other commands exit 0 on success and 1 otherwise.  A usage
error (unknown option, malformed value, a negative ``--seeds`` or a
``--steps`` below 1) is an error too and exits 1; ``--help`` exits 0.
In ``oracle-compare`` a run that raises (a handler failure, a livelock, an
aborted parse) prints a ``crash:`` line naming sentence, seed and error,
counts as a mismatch, and the sweep goes on to the summary line.  So does
a sentence the reference parser raises on (an unknown word, say): its
``crash:`` line says ``reference`` where a seed would stand, it counts as
one mismatch, and its seeds are not run.
A ``parse`` whose run fails still writes ``--trace`` and ``--dot``.
Output is byte-stable for identical inputs in sequential mode.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

from . import concepts as cn
from . import events as ev
from . import features as ft
from . import lexicon as lx
from . import oracle as orc
from . import protocol as pt
from . import runtime as rt


def _read_source(path, bundled_name):
    if path is not None:
        return Path(path).read_text()
    return resources.files("wordactors").joinpath("fixtures", bundled_name).read_text()


def _load(args):
    lex = lx.load_lexicon(_read_source(args.lexicon, "demo.lex"))
    kb = cn.load_kb(_read_source(args.kb, "demo.kb"))
    problems = lx.validate_lexicon(lex, kb)
    if problems:
        raise lx.LexiconError("; ".join(problems))
    return lex, kb


def _parse_corpus(text):
    """Corpus lines are `sentence` or `expected-count | sentence`;
    `#` starts a comment."""
    cases = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        expected = None
        if "|" in line:
            head, line = line.split("|", 1)
            try:
                expected = int(head.strip())
            except ValueError:
                raise ValueError(f"corpus line {lineno}: bad expected count {head.strip()!r}")
            line = line.strip()
        cases.append((expected, line.split()))
    return cases


def cmd_parse(args) -> int:
    lex, kb = _load(args)
    if args.stdin:
        if args.sentence:
            print("error: sentence given both as arguments and via --stdin",
                  file=sys.stderr)
            return 1
        tokens = sys.stdin.read().split()
    else:
        tokens = list(args.sentence)
    system, scanner = pt.build_system(
        lex, kb, tokens, seed=args.seed, mode=args.mode,
        step_ceiling=args.steps, lenient=args.lenient)
    # run_parse's steps, so that a run that raises still leaves its trace,
    # up to and including the failing delivery
    try:
        system.kick(scanner, pt.SCAN_NEXT)
        system.run_to_quiescence()
        trees = pt.read_out_trees(system)
    finally:
        if args.trace:
            Path(args.trace).write_text(ev.export(system.net, "jsonl"))
        if args.dot:
            Path(args.dot).write_text(ev.export(system.net, "dot"))
    trees = sorted(trees, key=lambda t: t.canonical())
    for i, tree in enumerate(trees, start=1):
        if i > 1:
            print()
        print(f"reading {i}")
        print(tree.render())
    if not trees:
        print("no complete reading", file=sys.stderr)
        return 2
    return 0


def cmd_etn(args) -> int:
    etn = ev.derive_etn(pt.protocol_behaviors())
    dot = ev.export(etn, "dot")
    if args.dot:
        Path(args.dot).write_text(dot)
    if args.trace:
        Path(args.trace).write_text(ev.export(etn, "jsonl"))
    if args.golden:
        golden = Path(args.golden).read_text()
        if golden == dot:
            print("ok")
            return 0
        want = set(golden.splitlines())
        have = set(dot.splitlines())
        for line in sorted(want - have):
            print(f"missing: {line.strip()}")
        for line in sorted(have - want):
            print(f"unexpected: {line.strip()}")
        return 1
    if not (args.dot or args.trace):
        sys.stdout.write(dot)
    return 0


def cmd_validate(args) -> int:
    lex = lx.load_lexicon(_read_source(args.lexicon, "demo.lex"))
    kb = cn.load_kb(_read_source(args.kb, "demo.kb"))
    problems = lx.validate_lexicon(lex, kb)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print("ok")
    return 0


def cmd_oracle_compare(args) -> int:
    lex, kb = _load(args)
    cases = _parse_corpus(_read_source(args.corpus, "corpus.txt"))
    mismatches = 0
    for expected, tokens in cases:
        sentence = " ".join(tokens)
        try:
            reference = Counter(t.canonical() for t in orc.oracle_parse(lex, kb, tokens))
        except (lx.LexiconError, cn.KBError) as exc:
            print(f"crash: {sentence!r} reference: {type(exc).__name__}: {exc}")
            mismatches += 1
            continue
        if expected is not None and sum(reference.values()) != expected:
            print(f"count mismatch: {sentence!r}: expected {expected} readings, "
                  f"reference finds {sum(reference.values())}")
            mismatches += 1
        for seed in range(args.seeds):
            try:
                _, _, trees = pt.run_parse(lex, kb, tokens, seed=seed, mode=args.mode,
                                           step_ceiling=args.steps)
            except (rt.ContractViolation, rt.LivelockError, rt.HandlerFailure) as exc:
                print(f"crash: {sentence!r} seed {seed}: {type(exc).__name__}: {exc}")
                mismatches += 1
                continue
            actual = Counter(t.canonical() for t in trees)
            if actual != reference:
                print(f"mismatch: {sentence!r} seed {seed}: actor parser "
                      f"{sorted(actual.elements())} vs reference "
                      f"{sorted(reference.elements())}")
                mismatches += 1
    print(f"{len(cases)} sentences, {args.seeds} seeds, {mismatches} mismatches")
    return 1 if mismatches else 0


def _int_at_least(low):
    """An argparse type: an integer no smaller than ``low``."""
    def int_(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    int_.__name__ = "int"   # argparse names the type in "invalid int value"
    return int_


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means "no complete
    reading", so usage errors exit 1 like every other error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_argparser():
    parser = _ArgumentParser(
        prog="wordactors",
        description="Concurrent dependency parsing with one actor per word.")
    sub = parser.add_subparsers(dest="command", required=True)

    def lexicon_opts(sp):
        sp.add_argument("--lexicon", metavar="PATH",
                        help="lexicon file (default: bundled demo lexicon)")
        sp.add_argument("--kb", metavar="PATH",
                        help="concept taxonomy file (default: bundled demo taxonomy)")

    def run_opts(sp):
        sp.add_argument("--seed", type=int, default=0,
                        help="scheduler seed (default 0)")
        sp.add_argument("--steps", type=_int_at_least(1), default=100_000,
                        help="delivery ceiling before giving up (default 100000)")
        sp.add_argument("--mode", choices=("sequential", "parallel"),
                        default="sequential", help="scheduling mode")

    p = sub.add_parser("parse", help="parse a sentence and print its readings")
    p.add_argument("sentence", nargs="*", metavar="WORD",
                   help="the sentence, one token per argument")
    p.add_argument("--stdin", action="store_true",
                   help="read the sentence from standard input instead")
    lexicon_opts(p)
    run_opts(p)
    p.add_argument("--trace", metavar="PATH",
                   help="write the run's event network as JSON lines")
    p.add_argument("--dot", metavar="PATH",
                   help="write the run's event network as a DOT graph")
    p.add_argument("--lenient", action="store_true",
                   help="skip unknown words instead of aborting")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("etn", help="emit the static event type network")
    p.add_argument("--golden", metavar="PATH",
                   help="compare against a stored DOT file instead of printing")
    p.add_argument("--dot", metavar="PATH", help="write the network as DOT")
    p.add_argument("--trace", metavar="PATH",
                   help="write the network as JSON lines, one edge per line")
    p.set_defaults(func=cmd_etn)

    p = sub.add_parser("validate", help="check lexicon and taxonomy consistency")
    lexicon_opts(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle-compare",
                       help="diff the actor parser against the chart reference parser")
    p.add_argument("corpus", nargs="?", metavar="PATH",
                   help="corpus file (default: bundled corpus)")
    lexicon_opts(p)
    run_opts(p)
    p.add_argument("--seeds", type=_int_at_least(0), default=100,
                   help="number of scheduler seeds per sentence (default 100)")
    p.set_defaults(func=cmd_oracle_compare)
    return parser


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        return args.func(args)
    except (lx.LexiconError, cn.KBError, ft.FSSyntaxError, rt.ContractViolation,
            rt.LivelockError, rt.HandlerFailure, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
