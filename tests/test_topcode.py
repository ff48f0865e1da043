import itertools
import random

import networkx as nx
import pytest

from topocoding.core import (ColoredGraph, Graph, GraphError,
                             colored_canonical_form, edge, path_graph,
                             star_graph)
from topocoding.colorings import INCONCLUSIVE
from topocoding.topcode import (TBPaw, TopcodeMatrix, decompose_number_string,
                                from_graph, matching_graphs, ntbp,
                                real_valued, realize_way1, realize_way2,
                                reciprocal, relation_holds, tbpaw, topo_vector,
                                union)

P5 = ColoredGraph(path_graph(5), {0: 1, 1: 3, 2: 2, 3: 5, 4: 1},
                  {(0, 1): 2, (1, 2): 1, (2, 3): 3, (3, 4): 4})


def caterpillar(leaf_counts):
    """Ridge path plus the given number of leaves on each ridge vertex."""
    r = len(leaf_counts)
    edges = [(i, i + 1) for i in range(r - 1)]
    nxt = r
    for i, cnt in enumerate(leaf_counts):
        for _ in range(cnt):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def test_from_graph_columns():
    t = from_graph(P5)
    assert t.q == 4
    assert sorted(t.e) == [1, 2, 3, 4]
    for x, e, y in t.columns():
        assert e == abs(x - y)
        assert x <= y


def test_from_graph_needs_total():
    with pytest.raises(GraphError):
        from_graph(ColoredGraph(path_graph(3), {0: 1}, {}))


def test_matching_graphs_contains_source():
    for cg in (P5, ColoredGraph(star_graph(3), {0: 4, 1: 1, 2: 2, 3: 3},
                                {(0, 1): 3, (0, 2): 2, (0, 3): 1})):
        t = from_graph(cg)
        keys = {colored_canonical_form(m) for m in matching_graphs(t)}
        assert colored_canonical_form(cg) in keys


def test_matching_graphs_merge_classes():
    # both ends colored 1 may or may not be one vertex
    t = TopcodeMatrix((1, 1), (2, 2), (3, 3))
    graphs = matching_graphs(t)
    sizes = sorted(m.graph.n for m in graphs)
    # merge the x ends, the y ends, or neither; merging both would
    # duplicate the edge
    assert sizes == [3, 3, 4]


# equal end values: three merge classes per side, outputs of 8 to 14 vertices
WIDE = TopcodeMatrix((1, 1, 1, 3, 3, 5, 5), (1, 1, 1, 1, 1, 1, 1),
                     (2, 2, 2, 4, 4, 6, 6))


@pytest.mark.parametrize("t", [from_graph(P5), TopcodeMatrix((1, 1), (2, 2),
                                                             (3, 3)),
                               TopcodeMatrix((1, 1, 1), (1, 2, 3),
                                             (2, 2, 2)), WIDE])
def test_matching_graphs_keep_the_matrix(t):
    graphs = matching_graphs(t)
    assert graphs
    for cg in graphs:
        assert from_graph(cg).normalized_columns() == t.normalized_columns()


def _block_labels(k):
    """Every assignment of k slots to blocks, as restricted growth strings."""
    def rec(prefix, top):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for b in range(top + 2):
            yield from rec(prefix + [b], max(top, b))
    yield from rec([], -1)


def _networkx_classes(t):
    ends = [("x", i, t.x[i]) for i in range(t.q)] + \
        [("y", i, t.y[i]) for i in range(t.q)]
    by_value = {}
    for end in ends:
        by_value.setdefault(end[2], []).append(end)
    groups = list(by_value.items())

    def same(a, b):
        return a["c"] == b["c"]

    classes = []
    for combo in itertools.product(*(_block_labels(len(es))
                                     for _, es in groups)):
        node = {}
        for (val, es), lab in zip(groups, combo):
            for end, b in zip(es, lab):
                node[end[:2]] = (val, b)
        g = nx.Graph()
        g.add_nodes_from((v, {"c": v[0]}) for v in node.values())
        for i in range(t.q):
            u, v = node[("x", i)], node[("y", i)]
            if u == v or g.has_edge(u, v):
                break
            g.add_edge(u, v, c=t.e[i])
        else:
            if not any(nx.is_isomorphic(g, h, node_match=same, edge_match=same)
                       for h in classes):
                classes.append(g)
    return classes


def test_matching_graphs_beyond_twelve_vertices():
    graphs = matching_graphs(WIDE)
    assert max(cg.graph.n for cg in graphs) == 14
    assert len(graphs) == len(_networkx_classes(WIDE)) == 54


def _bell_matching_graphs(t, max_vertices):
    """The routine matching_graphs replaced, kept as the reference: the
    product of the set partitions of every value class of end slots,
    loops and repeated edges rejected afterwards, one graph per colored
    canonical form."""
    by_value = {}
    for i in range(t.q):
        by_value.setdefault(t.x[i], []).append(("x", i))
    for i in range(t.q):
        by_value.setdefault(t.y[i], []).append(("y", i))
    groups = list(by_value.items())
    out, seen = [], set()
    for combo in itertools.product(*(_block_labels(len(slots))
                                     for _, slots in groups)):
        vid, vcol = {}, {}
        for (val, slots), lab in zip(groups, combo):
            base = len(vcol)
            for slot, b in zip(slots, lab):
                vid[slot] = base + b
                vcol[base + b] = val
        if len(vcol) > max_vertices:
            continue
        ecol = {}
        for i in range(t.q):
            u, v = vid[("x", i)], vid[("y", i)]
            if u == v or edge(u, v) in ecol:
                break
            ecol[edge(u, v)] = t.e[i]
        else:
            cg = ColoredGraph(Graph(len(vcol), frozenset(ecol)), vcol, ecol)
            key = colored_canonical_form(cg)
            if key not in seen:
                seen.add(key)
                out.append(cg)
    return out


def _random_matrix(rng, q, repeat):
    """Values in {1, 2, 3}; with repeat, the last column is the first one
    flipped, so some normalized column repeats; without, none does."""
    while True:
        cols = [tuple(rng.randint(1, 3) for _ in range(3)) for _ in range(q)]
        if repeat:
            cols[-1] = cols[0][::-1]
        t = TopcodeMatrix(*(tuple(c[k] for c in cols) for k in range(3)))
        norm = t.normalized_columns()
        if (len(set(norm)) < q) == repeat:
            return t


def _pairwise_non_isomorphic(graphs):
    def nxg(cg):
        h = nx.Graph()
        h.add_nodes_from((v, {"c": c}) for v, c in cg.vcolor.items())
        h.add_edges_from((u, v, {"c": c}) for (u, v), c in cg.ecolor.items())
        return h

    def same(a, b):
        return a["c"] == b["c"]

    buckets = {}
    for cg in graphs:
        h = nxg(cg)
        key = nx.weisfeiler_lehman_graph_hash(h, node_attr="c", edge_attr="c")
        for other in buckets.get(key, []):
            if nx.is_isomorphic(h, other, node_match=same, edge_match=same):
                return False
        buckets.setdefault(key, []).append(h)
    return True


@pytest.mark.parametrize("repeat", [False, True])
def test_matching_graphs_agree_with_bell_enumeration(repeat):
    rng = random.Random(503 + repeat)
    flips = 0
    for _ in range(50):
        q = rng.randint(2, 5)
        t = _random_matrix(rng, q, repeat)
        flips += any(a == c for a, _, c in t.columns())
        for cap in (2 * q, rng.randint(2, 2 * q - 1)):
            got = matching_graphs(t, max_vertices=cap)
            want = _bell_matching_graphs(t, cap)
            assert len(got) == len(want), (t, cap)
            assert ({colored_canonical_form(cg) for cg in got}
                    == {colored_canonical_form(cg) for cg in want}), (t, cap)
            if not repeat:
                # no canonical form ran: the search itself kept one leaf
                # per class
                assert _pairwise_non_isomorphic(got), (t, cap)
    assert flips >= 25


def test_matching_graphs_empty_matrix():
    t = TopcodeMatrix((), (), ())
    for cap in (None, 0):
        got = matching_graphs(t, max_vertices=cap)
        assert [cg.graph.n for cg in got] == [0]
        assert len(_bell_matching_graphs(t, 0)) == 1


def test_matching_graphs_all_equal_star():
    t = TopcodeMatrix((1,) * 5, (1, 2, 3, 4, 5), (1,) * 5)
    assert len(matching_graphs(t)) == 794


def test_matching_graphs_guards():
    t = TopcodeMatrix((1, 1), (2, 2), (3, 3))
    for cap in (-1, 5):
        with pytest.raises(GraphError):
            matching_graphs(t, max_vertices=cap)
    with pytest.raises(GraphError):
        matching_graphs(TopcodeMatrix((1,) * 11, tuple(range(11)), (2,) * 11))


def test_union_and_reciprocal():
    t = from_graph(P5)
    u = union(t, t)
    assert u.q == 8
    r = reciprocal(t)
    assert r.x == t.x[::-1] and r.e == t.e[::-1] and r.y == t.y[::-1]
    assert reciprocal(r) == t


def test_route_reciprocity():
    t = from_graph(P5)
    for even in (2, 4, 6):
        assert tbpaw(t, even).tokens == tbpaw(reciprocal(t), even - 1).tokens


def test_route_strings_cover_all_slots():
    t = from_graph(P5)
    everything = sorted(list(t.x) + list(t.e) + list(t.y))
    for route in range(1, 7):
        s = tbpaw(t, route)
        assert sorted(s.tokens) == everything


def test_tbpaw_string_forms():
    s = TBPaw((1, 12, 3))
    assert s.digits == "1123"
    assert s.delimited == "1.12.3"
    assert s.reciprocal().tokens == (3, 12, 1)


def test_permutation_route():
    t = from_graph(P5)
    flat = tuple(list(t.x) + list(t.e) + list(t.y))
    assert tbpaw(t, list(range(3 * t.q))).tokens == flat
    with pytest.raises(GraphError):
        tbpaw(t, [0, 1])


def test_route56_need_three_columns():
    t = TopcodeMatrix((1, 1), (2, 2), (3, 3))
    with pytest.raises(GraphError):
        tbpaw(t, 5)


def test_string_count_formula():
    assert ntbp(1) == 12
    assert ntbp(2) == 5760
    with pytest.raises(GraphError):
        ntbp(0)


def test_real_valued_relations():
    t = from_graph(P5)                     # every column has e = |x - y|
    r = real_valued(t, 1, 2)
    assert relation_holds(r, 1)
    with pytest.raises(GraphError):
        real_valued(t, 1, 0)
    # constant-sum matrix: x + e + y = 9 on every column
    km = TopcodeMatrix((1, 1, 2), (6, 5, 4), (2, 3, 3))
    rk = real_valued(km, 2, 3)
    assert relation_holds(rk, 2, k=9)
    # |x + y - e| = 2 on every column
    fd = TopcodeMatrix((1, 2), (3, 4), (4, 4))
    assert relation_holds(real_valued(fd, 1, 1), 4, k=2)


def test_decompose_single_edge():
    got = decompose_number_string("011", 1, "graceful")
    assert any(t == TopcodeMatrix((0,), (1,), (1,)) for t, _ in got)


def test_decompose_roundtrip():
    # D1 reading of the graceful path on three vertices
    got = decompose_number_string("011222", 2, "graceful")
    assert len(got) >= 1
    mats = [t for t, _ in got]
    assert TopcodeMatrix((0, 1), (2, 1), (2, 2)) in mats
    for t, wit in got:
        assert tbpaw(t, 1).digits == "011222"


def test_decompose_guards():
    with pytest.raises(GraphError):
        decompose_number_string("123", 5, "graceful")
    with pytest.raises(GraphError):
        decompose_number_string("12", 1, "graceful")
    assert decompose_number_string("1" * 24, 4,
                                   "graceful") is INCONCLUSIVE


def test_topo_vector():
    assert topo_vector(caterpillar([5, 0, 4, 3, 1, 0, 6])) == \
        (5, 0, 4, 3, 1, 0, 6)
    assert topo_vector(path_graph(6)) == (0, 0, 0, 0)
    assert topo_vector(star_graph(4)) == (4,)
    assert topo_vector(path_graph(2)) == (1,)
    with pytest.raises(GraphError):
        topo_vector(caterpillar([0, 3, 0]).from_edges(5, [(0, 1), (0, 2),
                                                          (0, 3), (0, 4),
                                                          (1, 2)]))


def test_realize_way1():
    a = caterpillar([2, 0, 1])
    b = caterpillar([1, 1, 3])
    out = realize_way1([(2, a), (1, b)])
    want = [2 * x + y for x, y in zip(topo_vector(a), topo_vector(b))]
    assert topo_vector(out) == tuple(min(want, want[::-1]))


def test_realize_way1_path_case():
    out = realize_way1([(1, path_graph(5))])
    assert topo_vector(out) == (0, 0, 0)
    with pytest.raises(GraphError):
        realize_way1([(1, caterpillar([1, 2])), (1, caterpillar([1, 2, 3]))])
    with pytest.raises(GraphError):
        realize_way1([(0, caterpillar([1, 2]))])


def test_realize_way2():
    a = caterpillar([2, 1])
    out = realize_way2([(2, a)])
    assert out.n == 1 + 2 * a.n
    assert out.degree(0) == 2
