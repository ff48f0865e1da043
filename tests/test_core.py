"""Graph container, structural operations, canonical forms."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from topocoding.core import (ColoredGraph, Graph, GraphError,
                             VertexSplitSpec, are_isomorphic, bipartition,
                             canonical_form, complement,
                             complete_bipartite, complete_graph,
                             connected_components, cycle_graph,
                             degree_sequence, edge, erdos_gallai_check,
                             find_cycle, from_text, graph_to_tree,
                             homomorphism_sequence, is_connected, is_tree,
                             leaf_coincide, leaf_split, path_graph,
                             star_graph, symmetrize, to_text, vertex_coincide,
                             vertex_split, vertex_substitute)

# the smallest tree with a set-ordered gracefully total coloring
P5_VC = {0: 1, 1: 3, 2: 2, 3: 5, 4: 1}
P5_EC = {(0, 1): 2, (1, 2): 1, (2, 3): 3, (3, 4): 4}


def p5_colored():
    return ColoredGraph(path_graph(5), dict(P5_VC), dict(P5_EC))


@st.composite
def small_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return Graph.from_edges(n, edges)


def test_edge_normalizes_and_rejects_loops():
    assert edge(3, 1) == (1, 3)
    with pytest.raises(GraphError):
        edge(2, 2)


def test_constructors():
    assert path_graph(5).q == 4
    assert cycle_graph(6).q == 6
    assert complete_graph(5).q == 10
    assert complete_bipartite(2, 3).q == 6
    assert star_graph(4).degree(0) == 4
    assert is_tree(star_graph(4))


def test_components_and_cycles():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert len(connected_components(g)) == 3
    assert not is_connected(g)
    assert find_cycle(path_graph(4)) is None
    cyc = find_cycle(cycle_graph(5))
    assert cyc is not None and len(cyc) == 5


def test_vertex_split_then_coincide_restores():
    g = cycle_graph(5)
    spec = VertexSplitSpec(0, frozenset({1}), frozenset({4}))
    h = vertex_split(g, spec)
    assert h.n == 6 and h.q == 5
    back = vertex_coincide(h, 0, 5)
    assert are_isomorphic(back, g)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_split_coincide_roundtrip_random(g):
    for x in range(g.n):
        nbrs = sorted(g.neighbors(x))
        if len(nbrs) < 2:
            continue
        spec = VertexSplitSpec(x, frozenset(nbrs[:1]), frozenset(nbrs[1:]))
        h = vertex_split(g, spec)
        # the split halves are never adjacent and share no neighbor
        back = vertex_coincide(h, x, g.n)
        assert are_isomorphic(back, g)
        break


def test_coincide_guards():
    g = path_graph(3)
    with pytest.raises(GraphError):
        vertex_coincide(g, 0, 1)      # adjacent
    with pytest.raises(GraphError):
        vertex_coincide(g, 0, 2)      # common neighbor


def test_colored_coincide_keeps_colors():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    cg = ColoredGraph(g, {0: 1, 1: 2, 2: 1, 3: 3}, {(0, 1): 1, (2, 3): 2})
    out = vertex_coincide(cg, 0, 2)
    assert out.graph == vertex_coincide(g, 0, 2)
    assert out.vcolor == {0: 1, 1: 2, 2: 3}
    assert out.ecolor == {(0, 1): 1, (0, 2): 2}
    with pytest.raises(GraphError):
        vertex_coincide(cg, 1, 3)     # colors 2 and 3 differ


def test_leaf_split_coincide_roundtrip():
    cg = p5_colored()
    out = leaf_split(cg, (1, 2))
    assert out.graph.n == 7
    assert out.graph.degree(5) == 1 and out.graph.degree(6) == 1
    back = leaf_coincide(out, (1, 5), (2, 6))
    assert back.graph.n == 5
    assert sorted(back.ecolor.values()) == sorted(cg.ecolor.values())


def test_vertex_substitute():
    g = star_graph(3)
    h = path_graph(3)
    out = vertex_substitute(g, 0, h, {1: 0, 2: 0, 3: 2})
    assert out.n == 3 + 3
    assert out.q == 3 + 2


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_bipartition():
    assert bipartition(cycle_graph(5)) is None
    xs, ys = bipartition(cycle_graph(6))
    assert len(xs) == len(ys) == 3
    assert all(not cycle_graph(6).has_edge(u, v)
               for u in xs for v in xs if u < v)


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_degree_sequence_is_graphic(g):
    assert erdos_gallai_check(degree_sequence(g))


def test_erdos_gallai_rejects():
    assert not erdos_gallai_check([3, 1])          # odd sum
    assert not erdos_gallai_check([3, 3, 1, 1])


def test_graph_to_tree_vertex_mode():
    for g in (cycle_graph(5), complete_graph(4)):
        t = graph_to_tree(g, "vertex-split")
        assert is_tree(t)
        assert t.n == g.q + 1


def test_graph_to_tree_leaf_mode():
    for g in (cycle_graph(5), complete_graph(4)):
        t = graph_to_tree(g, "leaf-split")
        assert is_tree(t)
        assert t.n == 2 * g.q - g.n + 2


def test_canonical_form_detects_isomorphism():
    g = path_graph(4)
    h = Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)])
    assert are_isomorphic(g, h)
    assert not are_isomorphic(path_graph(4), star_graph(3))


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.permutations(range(6)))
def test_canonical_form_invariant_under_relabel(g, perm):
    relabel = {v: perm[v] if perm[v] < g.n else v for v in range(g.n)}
    # only use the permutation when it stays inside range
    if sorted(relabel.values()) != list(range(g.n)):
        return
    h = Graph.from_edges(g.n, [(relabel[u], relabel[v]) for u, v in g.edges])
    assert canonical_form(g) == canonical_form(h)


def test_symmetrize_doubles_the_edge_range():
    cg = p5_colored()
    out = symmetrize(cg)
    q = cg.graph.q
    assert out.graph.n == 10
    assert sorted(out.ecolor.values()) == list(range(1, 2 * q + 2))


def test_symmetrize_rejects_odd_cycle():
    g = cycle_graph(3)
    cg = ColoredGraph(g, {0: 1, 1: 2, 2: 3},
                      {e: 1 for e in g.sorted_edges()})
    with pytest.raises(GraphError):
        symmetrize(cg)


def test_homomorphism_sequence():
    steps = homomorphism_sequence(2)
    assert len(steps) == 3
    from topocoding.core import check_homomorphism
    for prev, cur in zip(steps, steps[1:]):
        assert check_homomorphism(cur.graph, prev.graph, cur.theta)
        # the shortcut map through the isolated vertex is not one
        assert not cur.printed_valid


def test_text_roundtrip():
    cg = p5_colored()
    again = from_text(to_text(cg))
    assert again.graph == cg.graph
    assert again.vcolor == cg.vcolor
    assert again.ecolor == cg.ecolor


def test_from_text_ignores_comments():
    cg = from_text("# note\ng 2\nv 0 1\nv 1 2\ne 0 1 1\n")
    assert cg.graph.q == 1


def test_from_text_rejects_garbage():
    with pytest.raises(GraphError):
        from_text("g 2\nz 0 1\n")
    with pytest.raises(GraphError, match="line 2"):
        from_text("g 2\ne 0 x\n")
