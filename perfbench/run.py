"""Parse benchmark for the word-actor parser.

    python3 perfbench/run.py --workload corpus|ppchain|deepchain|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload as a closed loop with one client:
each operation parses one sentence (``run_parse``, default settings, debug
checks on), compares the readings with a reference computed apart from the
actor runtime, and audits the run (``check_invariants`` plus the JSONL and
DOT exports).  Whole rounds of the workload's operations are run until
``--seconds`` have passed, in an order drawn from ``--seed``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` a traced run reports the
per-layer metrics instead.  Details (failures by kind, repro commands,
sample counts) go to ``perfbench/results/``.  ``--workload all`` runs each
workload in a process of its own and prints one table.
"""

from __future__ import annotations

import argparse
import gc
from array import array
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibrate
import workloads as w

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("corpus", "ppchain", "deepchain")
COLD_STARTS = 25
UNTRACED_SHARE = 1 / 3      # of a traced run, spent on the untraced baseline
SETUP_REPEATS = 5           # traced repetitions of each set-up step


def import_package():
    """Import wordactors from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "wordactors" / "__init__.py").is_file():
        print(f"error: no wordactors package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import wordactors
    from wordactors import concepts, events, lexicon, oracle, protocol, runtime
    if Path(wordactors.__file__).resolve().parent != (src / "wordactors").resolve():
        print(f"error: imported wordactors from {wordactors.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return wordactors, {"runtime": runtime, "events": events, "protocol": protocol,
                        "oracle": oracle, "lexicon": lexicon, "concepts": concepts}


def pin_to_current_cpu():
    """Keep this process, and the cold starts it launches, on the processor
    it started on, so that the calibration job and the work it scales run
    on the same one."""
    try:
        stat = Path("/proc/self/stat").read_text()
        os.sched_setaffinity(0, {int(stat.rsplit(")", 1)[1].split()[36])})
    except (OSError, ValueError, IndexError, AttributeError):
        pass    # no affinity control here; scaling still works, less tightly


def cold_start():
    """Seconds from launching a fresh interpreter until it has loaded the
    lexicon and both KBs, validated them and derived the type network."""
    start = perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "coldstart.py")],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=60)
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"cold start failed: {done.stderr.strip()}")
    return elapsed


class Runner:
    """Runs operations, untraced or traced, and keeps their figures."""

    def __init__(self, mods, fx, tracer=None):
        self.pt, self.ev = mods["protocol"], mods["events"]
        self.fx, self.tracer = fx, tracer
        # Seconds of the calibration job before each operation, and of each
        # parse and audit with the position of its operation.  Arrays keep
        # the benchmark's own memory small next to the parser's.
        self.cal_s = array("d")
        self.parse_s, self.audit_s = _Samples(), _Samples()
        self.events = 0
        self.attempted = 0
        self.failures = Counter()
        self.failed_ops = {}        # op index -> failure kind
        self.signatures = {}        # op index -> what the op produced
        self.counts = Counter()     # traced runs: per-parse structure counts
        self.round_p50_ms = []      # raw median parse time of each round
        self._sampled = set()       # traced runs: groups whose spans are kept

    def _parse(self, op, kb):
        if self.tracer is None:
            start = perf_counter()
            system, net, trees = self.pt.run_parse(self.fx.lex, kb, list(op.tokens),
                                                   seed=op.seed, mode=op.mode)
            return system, net, trees, perf_counter() - start
        t = self.tracer
        start = perf_counter()
        with t.span("protocol.build_system"):
            system, scanner = self.pt.build_system(self.fx.lex, kb, list(op.tokens),
                                                   seed=op.seed, mode=op.mode)
        built = perf_counter()
        t.wrap_system(system)
        resumed = perf_counter()
        with t.span("op.run"):
            system.kick(scanner, self.pt.SCAN_NEXT)
            net = system.run_to_quiescence()
            trees = self.pt.read_out_trees(system)
        return system, net, trees, (built - start) + (perf_counter() - resumed)

    def run(self, op):
        kb = self.fx.kbs[op.kb_name]
        position = len(self.cal_s)
        self.cal_s.append(calibrate.timed())
        if self.tracer is not None:
            self.tracer.begin(op.mode)
        try:
            system, net, trees, parse_s = self._parse(op, kb)
        except Exception as err:   # a failed operation; the loop goes on
            outcome = w.Outcome(None, f"{type(err).__name__}: {err}", None)
            jsonl = None
        else:
            readings = w.reading_multiset(trees)
            try:
                start = perf_counter()
                problems = self.pt.check_invariants(system, net, self.fx.etn)
                jsonl = self.ev.export(net, "jsonl")
                self.ev.export(net, "dot")
                audit_s = perf_counter() - start
            except Exception as err:
                outcome = w.Outcome(readings, f"audit {type(err).__name__}: {err}", None)
                jsonl = None
            else:
                outcome = w.Outcome(readings, None, problems)
                self.audit_s.add(position, audit_s)
            self.parse_s.add(position, parse_s)
            self.events += len(net.events)
            if self.tracer is not None:
                self._count(system, net, trees)
        if self.tracer is not None:
            group = (op.label, op.kb_name, op.mode)
            self.tracer.end(op.index, keep=group not in self._sampled,
                            count=outcome.error is None)
            self._sampled.add(group)
        self.attempted += 1
        kind = w.failure_kind(op, outcome)
        if kind is not None:
            self.failures[kind] += 1
            self.failed_ops.setdefault(op.index, kind)
        self.signatures.setdefault(op.index, (
            outcome.error,
            None if outcome.readings is None else sorted(outcome.readings.elements()),
            None if jsonl is None else hashlib.sha256(jsonl.encode()).hexdigest()))

    def _count(self, system, net, trees):
        c = self.counts
        c["parses"] += 1
        c["events"] += len(net.events)
        c["readings"] += len(trees)
        words = [a for a in system.actors.values() if a.behavior.name == "word"]
        c["word_actors"] += len(words)
        c["copies"] += sum(1 for a in words if getattr(a.state, "origin_of", None) is not None)
        registry = system.shared.get("readings")
        c["reading_tags"] += len(getattr(registry, "parent", ()))

    def rounds(self, ops, rng, seconds, cold=None):
        """Whole rounds, in a fresh random order each, until `seconds` have
        passed.  `cold`, a list, receives cold-start times taken at evenly
        spaced moments of the run; the ones not yet due are taken at the end."""
        gc.collect()
        start = perf_counter()
        due = [start + seconds * (i + 0.5) / COLD_STARTS for i in range(COLD_STARTS)]
        n = 0
        while True:
            order = list(ops)
            rng.shuffle(order)
            first = len(self.parse_s.seconds)
            for op in order:
                while cold is not None and due and perf_counter() >= due[0]:
                    cold.append(self.cold_start())
                    due.pop(0)
                self.run(op)
            self.round_p50_ms.append(statistics.median(self.parse_s.seconds[first:]) * 1e3)
            n += 1
            if perf_counter() - start >= seconds:
                break
        while cold is not None and due:
            cold.append(self.cold_start())
            due.pop(0)
        return n

    def cold_start(self):
        """(raw, scaled) seconds of one cold start, scaled by the
        calibration job's median time just before and after it."""
        around = [calibrate.timed() for _ in range(10)]
        raw = cold_start()
        around += [calibrate.timed() for _ in range(10)]
        return raw, raw * calibrate.NOMINAL_S / statistics.median(around)

    def scaled(self, samples):
        """The samples' seconds at nominal machine speed."""
        if len(getattr(self, "_speed", ())) != len(self.cal_s):
            self._speed = calibrate.local_medians(self.cal_s)
        return [s * calibrate.NOMINAL_S / self._speed[i]
                for i, s in zip(samples.positions, samples.seconds)]


class _Samples:
    """Timings with the position of the operation each belongs to."""

    def __init__(self):
        self.positions, self.seconds = array("l"), array("d")

    def add(self, position, seconds):
        self.positions.append(position)
        self.seconds.append(seconds)


def end_to_end(mods, fx, ops, rng, seconds):
    """The untraced run: every end-to-end metric."""
    runner = Runner(mods, fx)
    cold = []
    rounds = runner.rounds(ops, rng, seconds, cold)

    def figures(parse_s, audit_s, setup_s):
        parse_ms = [s * 1e3 for s in parse_s]
        return {
            "setup_s": (statistics.median(setup_s), "s"),
            "parse_ms_p50": (statistics.median(parse_ms), "ms"),
            "parse_ms_p90": (statistics.quantiles(parse_ms, n=10, method="inclusive")[8], "ms"),
            "us_per_event": (sum(parse_s) * 1e6 / runner.events, "us"),
            "audit_ms_p50": (statistics.median(audit_s) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    metrics = figures(runner.scaled(runner.parse_s), runner.scaled(runner.audit_s),
                      [s for _, s in cold])
    raw = figures(runner.parse_s.seconds, runner.audit_s.seconds, [r for r, _ in cold])
    details = {"rounds": rounds, "parse_samples": len(runner.parse_s.seconds),
               "audit_samples": len(runner.audit_s.seconds),
               "calibration_us_p50": statistics.median(runner.cal_s) * 1e6,
               "unscaled": {name: value for name, (value, _unit) in raw.items()},
               "round_parse_ms_p50_unscaled": runner.round_p50_ms,
               "cold_starts_s_unscaled": [r for r, _ in cold]}
    return metrics, [], details, [runner], []


def per_layer(mods, fx, ops, rng, seconds, spans_path):
    """The traced run: an untraced baseline for the tracing overhead, the
    set-up steps and the oracle under the tracer, then traced rounds; every
    per-layer metric, and what the tracer self-test found."""
    import tracer as tr

    untraced = Runner(mods, fx)
    untraced.rounds(ops, rng, seconds * UNTRACED_SHARE)
    tracer = tr.Tracer(mods)
    tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            tracer.begin("setup")
            mods["lexicon"].load_lexicon(fx.lex_text)
            for text in fx.kb_texts.values():
                mods["concepts"].load_kb(text)
            mods["events"].derive_etn(mods["protocol"].protocol_behaviors())
            tracer.end()
        tracer.begin("setup")
        for tokens, kb_name in dict.fromkeys((op.tokens, op.kb_name) for op in ops):
            if len(tokens) <= w.ORACLE_MAX_TOKENS:
                mods["oracle"].oracle_parse(fx.lex, fx.kbs[kb_name], list(tokens))
        tracer.end()
        traced = Runner(mods, fx, tracer)
        rounds = traced.rounds(ops, rng, seconds * (1 - UNTRACED_SHARE))
    finally:
        tracer.uninstall()

    problems = [f"tracer left a wrapper on {name}" for name in tracer.not_restored()]
    differ = [i for i, sig in traced.signatures.items() if untraced.signatures[i] != sig]
    if differ:
        problems.append(f"traced and untraced runs differ on {len(differ)} operations, "
                        f"e.g. {w.repro(ops[differ[0]])}")
    counts = dict(traced.counts)
    counts["parse_s"] = sum(traced.parse_s.seconds)
    counts["traced_parse_p50_ms"] = statistics.median(traced.scaled(traced.parse_s)) * 1e3
    counts["untraced_parse_p50_ms"] = statistics.median(untraced.scaled(untraced.parse_s)) * 1e3
    metrics, absent = tr.layer_metrics(tracer, counts, list(w.MODES))
    tracer.write_spans(spans_path)
    details = {"absent": absent, "traced_rounds": rounds,
               "traced_parses": counts.get("parses", 0)}
    return metrics, absent, details, [untraced, traced], problems


def run_workload(args):
    wa, mods = import_package()
    pin_to_current_cpu()
    fx = w.Fixtures(wa)
    ops, problems = w.build(args.workload, wa, fx)
    problems += w.checker_selftest()
    rng = random.Random(args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        metrics, absent, details, runners, found = per_layer(
            mods, fx, ops, rng, args.seconds, f"{stem}-spans.jsonl")
    else:
        metrics, absent, details, runners, found = end_to_end(
            mods, fx, ops, rng, args.seconds)
    problems += found
    attempted = sum(r.attempted for r in runners)
    failures = sum((r.failures for r in runners), Counter())
    failed = sum(failures.values())

    details.update(workload=args.workload, seed=args.seed, ops_per_round=len(ops),
                   attempted=attempted, failed=failed, failures_by_kind=dict(failures),
                   problems=problems,
                   failed_ops_per_round=[{"op": i, "kind": kind, "repro": w.repro(ops[i])}
                                         for i, kind in sorted(runners[0].failed_ops.items())])
    details["metrics"] = {name: value for name, (value, _unit) in metrics.items()}
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10} {name:44} {value:14.4f} {unit}"
              + ("  (absent)" if name in absent else ""))
    print(f"{args.workload:10} attempted {attempted}  failed {failed}  "
          + "  ".join(f"{k}={v}" for k, v in sorted(failures.items())))
    for problem in problems:
        print(f"{args.workload:10} PROBLEM: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in a process of its own; one table at the end."""
    summary = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {done.returncode}", file=sys.stderr)
            return 1
        summary[workload] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
