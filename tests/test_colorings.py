"""Presets, search, chromatic minima, transforms, duals and the
criticality machinery, cross-checked against the brute-force oracles."""

import itertools

import pytest

import oracles
from topocoding.core import (ColoredGraph, Graph, complete_bipartite,
                             complete_graph, cycle_graph, disjoint_union,
                             path_graph, star_graph)
from topocoding.colorings import (INCONCLUSIVE, AlphaMetric, PresetError,
                                  TARGETS, check, chi_min, chi_min_witness,
                                  check_4ice, dual, get_preset, grace_number,
                                  inverse_transform, is_critical,
                                  metric_constant, multiple_inner,
                                  covers_edges, preset_names, search,
                                  search_flawed, target_preset,
                                  transform_equivalent, twin_odd_graceful)

P5_VC = {0: 1, 1: 3, 2: 2, 3: 5, 4: 1}
P5_EC = {(0, 1): 2, (1, 2): 1, (2, 3): 3, (3, 4): 4}


def p5_colored():
    return ColoredGraph(path_graph(5), dict(P5_VC), dict(P5_EC))


def test_preset_catalogue_loads():
    for name in preset_names():
        if name in ("c-harmonious-total", "kd-graceful"):
            continue
        assert get_preset(name) is not None


def test_check_accepts_and_pinpoints():
    cg = p5_colored()
    assert check(cg, get_preset("gracefully-total")).ok
    assert check(cg, get_preset("set-ordered-gracefully-total")).ok
    broken = ColoredGraph(cg.graph, {**P5_VC, 3: 4}, dict(P5_EC))
    rep = check(broken, get_preset("gracefully-total"))
    assert not rep.ok
    assert "rule-difference" in rep.failed


def test_graceful_search_agrees_with_oracle_on_cycles():
    # cycles are graceful exactly when n is 0 or 3 mod 4
    for n in range(3, 9):
        g = cycle_graph(n)
        found = search(g, "graceful", cap=None)
        expect = oracles.admits_graceful(n, list(g.edges))
        assert (found is not None and found is not INCONCLUSIVE) == expect
        assert expect == (n % 4 in (0, 3))


def test_graceful_search_on_trees():
    for g in (path_graph(6), star_graph(5)):
        found = search(g, "graceful")
        assert found is not None and found is not INCONCLUSIVE
        assert check(found, get_preset("graceful")).ok


def test_gtc_search_agrees_with_oracle():
    cases = [path_graph(4), path_graph(5), cycle_graph(4), cycle_graph(5),
             star_graph(3), complete_graph(3),
             Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])]
    for g in cases:
        found = search(g, "gracefully-total")
        expect = oracles.admits_gtc(g.n, list(g.edges))
        assert (found is not None and found is not INCONCLUSIVE) == expect


def test_no_small_set_ordered_witness():
    # four vertices cannot repeat a color and stay set-ordered graceful
    for g in (path_graph(3), path_graph(4), star_graph(3)):
        assert search(g, "set-ordered-gracefully-total") is None
    found = search(path_graph(5), "set-ordered-gracefully-total")
    assert found is not None


def test_chi_min_matches_oracle():
    for g in (path_graph(4), cycle_graph(5), complete_graph(4),
              complete_bipartite(2, 2)):
        assert chi_min(g, "fdt") == oracles.chi_fdt(g.n, list(g.edges))
        assert chi_min(g, "emt") == oracles.chi_emt(g.n, list(g.edges))


def test_chi_min_pinned_constant_is_never_smaller():
    g = cycle_graph(4)
    free = chi_min(g, "fdt")
    pinned = chi_min(g, "fdt", k=0)
    assert free == 5
    assert pinned >= free


def test_chi_min_witness():
    g = cycle_graph(6)
    m, wit = chi_min_witness(g, "fdt")
    assert m == 5
    assert wit.max_color() <= m
    assert metric_constant(wit, AlphaMetric("fdt")) is not None


def test_triangle_edge_magic_three_colors():
    # 1,2,3 on the vertices and 3,2,1 on the opposite edges share sum 6
    g = complete_graph(3)
    assert chi_min(g, "emt") == 3
    assert oracles.chi_emt(3, list(g.edges)) == 3


def test_all_seven_transforms_roundtrip_on_p5():
    cg = p5_colored()
    for target in TARGETS:
        out = transform_equivalent(cg, target)
        assert check(out, target_preset(target)).ok, target
        back = inverse_transform(out, target)
        assert back.vcolor == cg.vcolor
        assert back.ecolor == cg.ecolor


def test_kd_graceful_parameters():
    cg = p5_colored()
    out = transform_equivalent(cg, "kd-graceful", k=2, d=3)
    assert check(out, target_preset("kd-graceful", k=2, d=3)).ok
    back = inverse_transform(out, "kd-graceful", k=2, d=3)
    assert back.vcolor == cg.vcolor


def test_transform_rejects_non_source():
    g = path_graph(3)
    cg = ColoredGraph(g, {0: 1, 1: 2, 2: 1}, {(0, 1): 1, (1, 2): 1})
    with pytest.raises(PresetError):
        transform_equivalent(cg, "odd-graceful")


def test_duals_are_involutions():
    em = transform_equivalent(p5_colored(), "edge-magic")
    for kind in ("em", "ed", "gd", "fd"):
        base = em if kind == "em" else _constant_witness(kind)
        twice = dual(dual(base, kind), kind)
        assert twice.vcolor == base.vcolor
        assert twice.ecolor == base.ecolor


def _constant_witness(kind):
    metric = {"ed": "edt", "gd": "gdt", "fd": "fdt"}[kind]
    _, wit = chi_min_witness(cycle_graph(4), metric)
    return wit


def test_flawed_labelling_of_a_forest():
    g = disjoint_union(path_graph(3), path_graph(2))
    got = search_flawed(g)
    assert got is not None and got is not INCONCLUSIVE
    extra, coloring = got
    assert len(extra) >= 1
    joined = Graph(g.n, g.edges | extra)
    assert check(coloring, get_preset("graceful")).ok
    assert coloring.graph == joined


def test_flawed_needs_disconnection():
    with pytest.raises(Exception):
        search_flawed(path_graph(4))


def test_twin_odd_graceful():
    src = search(path_graph(4), "odd-graceful")
    assert src is not None
    q = src.graph.q
    twins = twin_odd_graceful(src, max_vertices=4)
    assert twins
    shifted = {c + 1 for c in src.vcolor.values()}
    for h, labels in twins:
        vals = set(labels.values())
        assert vals <= set(range(1, 2 * q + 1))
        diffs = sorted(abs(labels[u] - labels[v]) for u, v in h.edges)
        assert diffs == list(range(1, 2 * q, 2))
        assert shifted | vals == set(range(1, 2 * q + 1))


def test_multiple_inner_colorings():
    cg = p5_colored()
    entries = multiple_inner(cg, presets=("graceful", "gracefully-total"))
    assert entries
    assert covers_edges(entries, cg.graph)


def test_four_constant_partition():
    g = path_graph(5)
    cg = ColoredGraph(g, {0: 1, 1: 2, 2: 1, 3: 2, 4: 1},
                      {(0, 1): 3, (1, 2): 4, (2, 3): 3, (3, 4): 4})
    got = check_4ice(cg)
    assert got is not None
    parts, ks = got
    assert len(parts) == 4
    assert all(parts)


def test_critical_graphs():
    p4 = path_graph(4)
    c4 = cycle_graph(4)
    assert is_critical(p4, "plus", "every-edge")
    assert is_critical(c4, "minus", "every-edge")
    assert not is_critical(c4, "plus", "every-edge")
    assert not is_critical(p4, "minus", "every-edge")


def test_grace_number_small():
    assert grace_number(4, 4) == 6
    with pytest.raises(PresetError):
        grace_number(3, 4)
    # the atlas is read once per order and shared as an immutable tuple
    from topocoding.colorings.extras import _atlas_graphs
    assert _atlas_graphs(4) is _atlas_graphs(4)
    assert isinstance(_atlas_graphs(4), tuple) and len(_atlas_graphs(4)) == 11


def test_vertexless_search_agrees_with_check():
    empty = ColoredGraph(Graph(0), {}, {})
    for name in preset_names():
        if check(empty, get_preset(name)).ok:
            assert search(Graph(0), name) == empty, name
        else:
            assert search(Graph(0), name) is None, name


def test_metric_constant_needs_an_edge():
    cg = ColoredGraph(Graph(2), {0: 1, 1: 2}, {})
    with pytest.raises(PresetError, match="edgeless"):
        metric_constant(cg, AlphaMetric("emt"))
    with pytest.raises(PresetError, match="edgeless"):
        dual(cg, "em")
