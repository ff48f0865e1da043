"""Base assembly, plan enumeration, joins and the planting construction."""

import pytest

from topocoding import lattice
from topocoding.core import (ColoredGraph, Graph, GraphError,
                             are_isomorphic, cycle_graph, path_graph)
from topocoding.colorings import INCONCLUSIVE, check, get_preset, search
from topocoding.lattice import (AssemblyPlan, LatticeBase, assemble,
                                check_linear_independence, enumerate_lattice,
                                f_graph, hand_in_hand, join_many,
                                join_set_ordered, raw_plan_count,
                                single_series, vertex_integrate)


def k2(vc, ec):
    return ColoredGraph(Graph.from_edges(2, [(0, 1)]), vc, {(0, 1): ec})


def p5_so():
    return ColoredGraph(path_graph(5), {0: 1, 1: 3, 2: 2, 3: 5, 4: 1},
                        {(0, 1): 2, (1, 2): 1, (2, 3): 3, (3, 4): 4})


def p6_so():
    return ColoredGraph(path_graph(6),
                        {0: 1, 1: 3, 2: 2, 3: 5, 4: 1, 5: 6},
                        {(0, 1): 2, (1, 2): 1, (2, 3): 3, (3, 4): 4,
                         (4, 5): 5})


def weak_p3():
    return ColoredGraph(path_graph(3), {0: 1, 1: 3, 2: 2},
                        {(0, 1): 2, (1, 2): 1})


def test_assemble_single_copy():
    host = k2({0: 1, 1: 2}, 1)
    base = LatticeBase([k2({0: 1, 1: 3}, 2)])
    out = assemble(host, base, [1], AssemblyPlan([(0, 0, 0)]))
    assert out.graph.n == 3 and out.graph.q == 2
    assert sorted(out.vcolor.values()) == [1, 2, 3]


def test_assemble_guards():
    host = k2({0: 1, 1: 2}, 1)
    base = LatticeBase([k2({0: 1, 1: 3}, 2)])
    with pytest.raises(GraphError):
        assemble(host, base, [0], AssemblyPlan([]))
    with pytest.raises(GraphError):
        # color mismatch at the coincided pair
        assemble(host, base, [1], AssemblyPlan([(0, 1, 0)]))


def test_enumeration_matches_closed_form():
    host = k2({0: 1, 1: 2}, 1)
    base = LatticeBase([k2({0: 1, 1: 3}, 2)])
    report = enumerate_lattice(host, base, [1])
    assert report.raw_plans == raw_plan_count(2, [2]) == 4
    assert report.valid_plans == 1
    assert report.distinct == 1


def test_linear_independence():
    k2g = k2({0: 1, 1: 2}, 1)
    p3 = weak_p3()
    p4 = ColoredGraph(path_graph(4), {0: 1, 1: 2, 2: 3, 3: 4},
                      {(0, 1): 1, (1, 2): 1, (2, 3): 1})
    assert check_linear_independence(LatticeBase([k2g, p3])) is True
    # a path on four vertices is two edges tied by one tree edge
    assert check_linear_independence(LatticeBase([k2g, p4])) is False


def _mono_path(n):
    g = path_graph(n)
    return ColoredGraph(g, {v: 1 for v in range(n)}, {e: 1 for e in g.edges})


def test_enumeration_beyond_twelve_vertices():
    # a pendant edge on P13: seven places up to the path's reflection
    report = enumerate_lattice(_mono_path(13), LatticeBase([_mono_path(2)]),
                               [1])
    assert report.raw_plans == raw_plan_count(13, [2]) == 26
    assert report.distinct == 7


def test_linear_independence_of_larger_targets():
    # P14 is two copies of P7 tied by one edge
    assert check_linear_independence(
        LatticeBase([_mono_path(7), _mono_path(14)])) is False
    # a 22-vertex target is above the cap and cannot be compared
    assert check_linear_independence(
        LatticeBase([_mono_path(11), _mono_path(22)])) is INCONCLUSIVE


@pytest.mark.parametrize("m", [1, 2, 3])
def test_join_edge_range(m):
    res = join_set_ordered(p5_so(), p5_so(), m)
    q = res.graph.graph.q
    assert q == 8 + m
    assert sorted(res.graph.ecolor.values()) == list(range(1, q + 1))
    assert check(res.graph, get_preset("set-ordered-gracefully-total")).ok
    assert len(res.bridge_edges) == m
    assert res.ways


def test_join_guards():
    with pytest.raises(GraphError):
        join_set_ordered(p5_so(), p5_so(), 0)
    bad = ColoredGraph(path_graph(3), {0: 1, 1: 2, 2: 1},
                       {(0, 1): 1, (1, 2): 1})
    with pytest.raises(GraphError):
        join_set_ordered(bad, p5_so(), 1)


def test_join_many():
    out = join_many([p5_so(), p5_so(), p5_so()], m=1)
    assert out.graph.q == 4 * 3 + 2
    assert check(out, get_preset("set-ordered-gracefully-total")).ok


def test_vertex_integrate_two_parts():
    host = k2({0: 0, 1: 1}, 1)
    out = vertex_integrate(host, [p5_so(), p5_so()])
    assert out is not INCONCLUSIVE
    g = out.graph
    assert g.n == 10 and g.q == 9
    assert sorted(out.ecolor.values()) == list(range(1, 10))
    assert max(out.vcolor.values()) <= g.q + 1
    assert check(out, get_preset("proper-gracefully-total")).ok


def test_vertex_integrate_three_parts():
    host = ColoredGraph(path_graph(3), {0: 0, 1: 2, 2: 1},
                        {(0, 1): 2, (1, 2): 1})
    out = vertex_integrate(host, [p5_so(), p5_so(), p5_so()])
    assert out is not INCONCLUSIVE
    assert out.graph.n == 15 and out.graph.q == 14
    assert sorted(out.ecolor.values()) == list(range(1, 15))
    assert check(out, get_preset("proper-gracefully-total")).ok


def test_vertex_integrate_negative_outcomes(monkeypatch):
    # without alternate part colorings no anchor choice fits, so the
    # candidates run out: None, unless the alternates were cut short
    host = k2({0: 0, 1: 1}, 1)
    monkeypatch.setattr(lattice, "_recolorings", lambda g: ([], False))
    assert vertex_integrate(host, [p5_so(), p5_so()]) is None
    monkeypatch.setattr(lattice, "_recolorings", lambda g: ([], True))
    assert vertex_integrate(host, [p5_so(), p5_so()]) is INCONCLUSIVE


def test_vertex_integrate_guards():
    host = k2({0: 0, 1: 1}, 1)
    with pytest.raises(GraphError):
        vertex_integrate(host, [p5_so()])
    with pytest.raises(GraphError):
        vertex_integrate(host, [p5_so(), weak_p3()])
    with pytest.raises(GraphError):
        # X side carries fewer part edges than the Y side
        vertex_integrate(host, [p5_so(), p6_so()])


def test_hand_in_hand():
    got = hand_in_hand([weak_p3(), weak_p3()])
    assert got is not INCONCLUSIVE and got is not None
    assert check(got, get_preset("set-ordered-weak-gracefully-total")).ok
    assert got.graph.q == 4


def test_single_series():
    got = single_series([weak_p3(), weak_p3()])
    assert got is not INCONCLUSIVE and got is not None
    assert got.graph.n == 6 and got.graph.q == 5
    assert check(got, get_preset("set-ordered-weak-gracefully-total")).ok


def test_f_graph():
    frame = k2({0: 1, 1: 2}, 1)
    got = f_graph(frame, [weak_p3(), weak_p3()])
    assert got is not INCONCLUSIVE and got is not None
    assert got.graph.n == 6 and got.graph.q == 5
    assert check(got, get_preset("set-ordered-weak-gracefully-total")).ok


def test_junction_search_negative_outcomes():
    # C6 has no set-ordered weak gracefully total coloring
    assert lattice._search_candidates([cycle_graph(6)], None) is None
    assert lattice._search_candidates([cycle_graph(6)], 1) is INCONCLUSIVE
    assert lattice._search_candidates([path_graph(4)], None) is not None


def test_f_graph_needs_matching_sizes():
    frame = weak_p3()
    with pytest.raises(GraphError):
        f_graph(frame, [weak_p3(), weak_p3()])
