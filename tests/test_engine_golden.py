"""The search engine and the checker against pinned answers.

tests/engine_golden.json was written by tests/make_engine_golden.py on
the implementation with three separate backtrackers.  For every preset
and fixed small graph the single engine must give the same result class
and the same witness within the earlier node count, and `check` must
accept and reject the same sample colorings.  Where the earlier code
raised (checks on edgeless graphs) a clean answer is required instead,
and where it answered none on the vertexless graph although `check`
accepts the empty coloring, the empty witness is required.
"""

import json
from pathlib import Path

import pytest

import oracles
from topocoding.colorings import INCONCLUSIVE, check, get_preset, search
from topocoding.core import (ColoredGraph, Graph, complete_bipartite,
                             cycle_graph, path_graph, star_graph)
from topocoding.lattice import _recolorings

GOLDEN = json.loads(
    Path(__file__).with_name("engine_golden.json").read_text())
GRAPHS = {name: Graph.from_edges(n, edges)
          for name, (n, edges) in GOLDEN["graphs"].items()}


def _coloring(g, key):
    return ColoredGraph(g, {v: c for v, c in key["v"]},
                        {tuple(e): c for e, c in key["e"]})


def _key(cg):
    return {"v": [list(x) for x in sorted(cg.vcolor.items())],
            "e": sorted([list(e), c] for e, c in cg.ecolor.items())}


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_search_matches_golden(gname):
    g = GRAPHS[gname]
    for name in GOLDEN["presets"]:
        want = GOLDEN["searches"][f"{name}|{gname}"]
        if want["result"] == "error":
            # the earlier checker raised on this edgeless graph
            got = search(g, name, budget=10_000)
            assert got is not INCONCLUSIVE, name
            assert got is None or check(got, get_preset(name)).ok, name
            continue
        empty = ColoredGraph(g, {}, {})
        if want["result"] == "none" and g.n == 0 and \
                check(empty, get_preset(name)).ok:
            # the earlier engine tried no metric constant on the vertexless
            # graph and answered none; the empty witness is required
            assert search(g, name) == empty, name
            continue
        # a decision within the earlier node count: counts never rise
        got = search(g, name, budget=want["nodes"])
        assert got is not INCONCLUSIVE, name
        if want["result"] == "none":
            assert got is None, name
            continue
        assert got is not None, name
        assert check(got, get_preset(name)).ok, name
        assert _key(got) == want["witness"], name


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_check_matches_golden(gname):
    g = GRAPHS[gname]
    presets = [get_preset(name) for name in GOLDEN["presets"]]
    for key, oks in GOLDEN["checks"][gname]:
        cg = _coloring(g, key)
        for name, preset, want in zip(GOLDEN["presets"], presets, oks):
            got = check(cg, preset).ok           # never raises
            if want != "E":
                assert got == (want == "1"), (name, key)


@pytest.mark.parametrize("g", [path_graph(3), path_graph(4), path_graph(5),
                               path_graph(6), star_graph(3), star_graph(4),
                               cycle_graph(4), cycle_graph(6),
                               complete_bipartite(2, 3)])
def test_recolorings_agree_with_oracle(g):
    found, _ = _recolorings(g)
    want = {(tuple(sorted(vc.items())), tuple(sorted(ec.items())))
            for vc, ec in oracles.gtc_colorings(
                g.n, list(g.edges), proper_total=True, set_ordered=True)}
    got = [(tuple(sorted(cg.vcolor.items())), tuple(sorted(cg.ecolor.items())))
           for cg in found]
    assert set(got) <= want
    assert len(set(got)) == len(got)
    assert bool(got) == bool(want)
