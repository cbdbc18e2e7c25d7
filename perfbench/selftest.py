"""Self-tests of the benchmark's checking and tracing paths.

    python3 perfbench/selftest.py

Prints one PASS/FAIL line per check and exits 1 if any fails:

1. the checker counts a wrong multiset, a raised error and a non-empty
   ``check_invariants`` result as one failure each;
2. the benchmark's enumerator agrees with ``oracle_parse`` on every corpus
   sentence with both KBs and on both chains up to 10 tokens;
3. a deliberately wrong reference makes every operation fail;
4. after a traced run the package's functions are the originals again, and
   the traced run's readings and JSONL export equal the untraced run's;
5. the run reports exactly the metrics, with the units, that
   ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter

import run
import workloads as w


def main():
    wa, mods = run.import_package()
    run.RESULTS.mkdir(exist_ok=True)
    import tracer as tr

    fx = w.Fixtures(wa)
    results = []

    problems = w.checker_selftest()
    results.append(("checker counts each bad outcome as one failure", problems))

    problems = []
    for name in ("corpus", "ppchain", "deepchain"):
        problems += w.build(name, wa, fx)[1]
    results.append(("enumerator agrees with oracle_parse up to 10 tokens", problems))

    ops = w.build("corpus", wa, fx)[0][:40:5] + w.build("deepchain", wa, fx)[0][:60:10]
    bogus = Counter({(1, ((1, "nonsense", 2),)): 1})
    wrong = [op._replace(index=i, expected=op.expected + bogus) for i, op in enumerate(ops)]
    runner = run.Runner(mods, fx)
    for op in wrong:
        runner.run(op)
    failed = sum(runner.failures.values())
    results.append(("a wrong reference fails every operation",
                    [] if failed == len(wrong) else [f"{failed} of {len(wrong)} failed"]))

    ops = [op._replace(index=i) for i, op in enumerate(ops)]
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in tr.Tracer(mods).targets}
    layers, _absent, _details, runners, problems = run.per_layer(
        mods, fx, ops, random.Random(0), 0.01, run.RESULTS / "selftest-spans.jsonl")
    problems += [f"{attr} is not the original" for (owner, attr), fn in originals.items()
                 if vars(owner)[attr] is not fn]
    if not runners[1].counts["parses"]:
        problems.append("the traced run parsed nothing")
    results.append(("tracer restores the package and changes no output", problems))

    ends = run.end_to_end(mods, fx, ops, random.Random(0), 0.01)[0]
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for kind, metrics in (("end_to_end", ends), ("per_layer", layers)):
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        reported = {name: unit for name, (_value, unit) in metrics.items()}
        if declared != reported:
            problems.append(f"{kind}: BENCHMARK.json declares {sorted(declared.items() - reported.items())}, "
                            f"the run reports {sorted(reported.items() - declared.items())}")
    results.append(("the run reports exactly the metrics BENCHMARK.json declares", problems))

    for what, problems in results:
        print(f"{'PASS' if not problems else 'FAIL'}  {what}")
        for p in problems:
            print(f"      {p}")
    return 1 if any(problems for _, problems in results) else 0


if __name__ == "__main__":
    sys.exit(main())
