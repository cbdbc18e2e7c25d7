"""Canonical dependency-tree values shared by the parser and the oracle.

Only representation and rendering live here, no constraint logic, so the
chart reference parser can share it without depending on the parsing
machinery.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass


@dataclass(frozen=True)
class Edge:
    head_pos: int
    head_surface: str
    label: str
    mod_pos: int
    mod_surface: str


@dataclass(frozen=True)
class ParseTree:
    root_pos: int
    root_surface: str
    edges: frozenset

    def canonical(self) -> tuple:
        """Position-accurate identity, independent of rendering."""
        return (self.root_pos,
                tuple(sorted((e.head_pos, e.label, e.mod_pos) for e in self.edges)))

    def render(self) -> str:
        """One line per edge, sorted by head position then label."""
        ordered = sorted(self.edges, key=lambda e: (e.head_pos, e.label, e.mod_pos))
        if not ordered:
            return self.root_surface
        return "\n".join(
            f"{e.head_surface} —{e.label}→ {e.mod_surface}" for e in ordered)


def is_projective(tree: ParseTree, positions) -> bool:
    """Every head's subtree must cover a contiguous interval of positions."""
    children: dict[int, list[int]] = {p: [] for p in positions}
    for e in tree.edges:
        children[e.head_pos].append(e.mod_pos)

    span_cache: dict[int, tuple] = {}

    def span(node: int) -> tuple:
        if node not in span_cache:
            lo = hi = node
            covered = {node}
            for child in children[node]:
                child_lo, child_hi, nodes = span(child)
                if child_lo < lo:
                    lo = child_lo
                if child_hi > hi:
                    hi = child_hi
                covered |= nodes
            span_cache[node] = (lo, hi, covered)
        return span_cache[node]

    # Every covered node is a key of ``children``, so ``covered`` is a subset
    # of the positions within [lo, hi]: equal exactly when equally many.
    ordered = sorted(set(positions))
    for node in positions:
        lo, hi, covered = span(node)
        if len(covered) != bisect_right(ordered, hi) - bisect_left(ordered, lo):
            return False
    return True
