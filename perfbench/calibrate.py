"""How fast the machine runs at the moment, from a fixed pure-Python job.

On a shared host the same code can take a quarter more or less time from
one minute to the next.  The benchmark therefore times this job next to
every operation.  It scales each operation's time by the job's time in a
window around it, so every time is reported at one nominal machine speed:
the speed at which the job takes ``NOMINAL_S``.  The job uses none of the
package, so no change to the package changes it.  It does what the parser
does most: small objects, dict and set lookups, calls with keyword
arguments, list growth, sorting and string formatting.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

NOMINAL_S = 250e-6
WINDOW = 15     # neighbours on each side in the running median


class _Node:
    __slots__ = ("key", "links", "tags")

    def __init__(self, key, links, tags):
        self.key, self.links, self.tags = key, links, tags


def _visit(node, seen, depth=0, **notes):
    if node.key in seen or depth > 8:
        return 0
    seen.add(node.key)
    return 1 + sum(_visit(child, seen, depth + 1, **notes) for child in node.links)


def job() -> int:
    nodes = {}
    for i in range(60):
        tags = frozenset({i % 3, i % 7})
        node = _Node(f"n{i}", [], tags)
        nodes[node.key] = node
        if i:
            nodes[f"n{i * 7 // 11}"].links.append(node)
    reached = _visit(nodes["n0"], set(), reason="calibration")
    ordered = sorted(nodes.values(), key=lambda n: (len(n.tags), n.key))
    text = ";".join(f"{n.key}:{sorted(n.tags)}" for n in ordered[:30])
    return reached + len(text)


def timed() -> float:
    """Seconds the job takes now.  The collector is off meanwhile, so a
    collection owed by the work before it does not land in the job."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        job()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local_medians(samples):
    """The median of each sample's window of up to 2 * WINDOW + 1
    neighbouring samples."""
    out = []
    for i in range(len(samples)):
        out.append(statistics.median(samples[max(0, i - WINDOW):i + WINDOW + 1]))
    return out
