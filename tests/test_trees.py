from hypothesis import example, given
from hypothesis import strategies as st

from wordactors.trees import Edge, ParseTree, is_projective


def tree(root_pos, root_surface, *triples):
    surfaces = {root_pos: root_surface}
    for hp, hs, _label, mp, ms in triples:
        surfaces[hp] = hs
        surfaces[mp] = ms
    edges = frozenset(Edge(hp, hs, label, mp, ms) for hp, hs, label, mp, ms in triples)
    return ParseTree(root_pos, root_surface, edges)


def test_render_sorts_by_head_then_label():
    t = tree(2, "b", (2, "b", "y", 3, "c"), (2, "b", "x", 1, "a"))
    assert t.render() == "b —x→ a\nb —y→ c"


def test_single_node_renders_as_its_surface():
    assert ParseTree(1, "Atari", frozenset()).render() == "Atari"


def test_canonical_is_order_free():
    a = tree(2, "b", (2, "b", "x", 1, "a"), (2, "b", "y", 3, "c"))
    b = tree(2, "b", (2, "b", "y", 3, "c"), (2, "b", "x", 1, "a"))
    assert a.canonical() == b.canonical()
    assert a.canonical() == (2, ((2, "x", 1), (2, "y", 3)))


def test_contiguous_subtrees_are_projective():
    t = tree(3, "v", (3, "v", "a", 1, "w"), (1, "w", "b", 2, "x"), (3, "v", "c", 4, "y"))
    assert is_projective(t, [1, 2, 3, 4])


def test_crossing_edge_is_not_projective():
    t = tree(1, "w", (1, "w", "a", 3, "y"), (1, "w", "d", 2, "x"), (2, "x", "b", 4, "z"))
    assert not is_projective(t, [1, 2, 3, 4])


def set_based_is_projective(tree, positions):
    """The projectivity test as first written: compare each subtree's
    covered set with the set of positions in its interval."""
    children = {p: [] for p in positions}
    for e in tree.edges:
        children[e.head_pos].append(e.mod_pos)
    span_cache = {}

    def span(node):
        if node not in span_cache:
            covered = {node}
            for child in children[node]:
                covered |= span(child)[2]
            span_cache[node] = (min(covered), max(covered), covered)
        return span_cache[node]

    for node in positions:
        lo, hi, covered = span(node)
        if covered != {p for p in positions if lo <= p <= hi}:
            return False
    return True


@st.composite
def trees_and_positions(draw):
    """A random tree over a random, usually gappy, set of positions, and a
    positions list that may repeat entries, hold extra positions, or miss
    some of the tree's nodes."""
    nodes = draw(st.lists(st.integers(-3, 30), min_size=1, max_size=9, unique=True))
    root = nodes[0]
    edges = set()
    for i, node in enumerate(nodes[1:], start=1):
        head = nodes[draw(st.integers(0, i - 1))]
        edges.add(Edge(head, f"w{head}", "x", node, f"w{node}"))
    extra = draw(st.lists(st.integers(-3, 30).filter(lambda p: p not in nodes), max_size=3))
    positions = list(nodes) + extra
    if draw(st.booleans()):
        positions = [p for p in positions if draw(st.booleans())] or [root]
    positions += draw(st.lists(st.sampled_from(positions), max_size=4))
    positions = draw(st.permutations(positions))
    return ParseTree(root, f"w{root}", frozenset(edges)), positions


def outcome(check, tree, positions):
    try:
        return check(tree, positions)
    except KeyError as err:
        return ("KeyError", err.args)


@given(trees_and_positions())
# crossing edges over a gap: 1 -> 7 and 3 -> 9 with 1 -> 3
@example((tree(1, "a", (1, "a", "x", 7, "c"), (1, "a", "x", 3, "b"),
               (3, "b", "x", 9, "d")), [1, 3, 7, 9]))
# duplicates in the positions list, projective and not
@example((tree(2, "b", (2, "b", "x", 1, "a"), (2, "b", "x", 5, "c")), [5, 1, 2, 2, 5]))
@example((tree(2, "b", (2, "b", "x", 1, "a")), [1, 2, 2, 4, 4]))
# a child missing from the positions list
@example((tree(2, "b", (2, "b", "x", 8, "c")), [2, 2]))
def test_is_projective_agrees_with_the_set_based_test(case):
    t, positions = case
    assert outcome(is_projective, t, positions) == outcome(set_based_is_projective, t, positions)
