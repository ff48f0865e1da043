"""canonical_form: same bytes as the exhaustive search, isomorphism-exact,
and pruned by automorphisms."""

import itertools
import random

import networkx as nx
import pytest

from topocoding import core
from topocoding.core import (Graph, canonical_form, complete_bipartite,
                             complete_graph, edge)

ATLAS = [g for g in nx.graph_atlas_g() if g.number_of_nodes() <= 7]


def _exhaustive_refine(g_adj, ecolor, parts):
    while True:
        cell_of = {}
        for ci, cell in enumerate(parts):
            for v in cell:
                cell_of[v] = ci
        new_parts = []
        changed = False
        for cell in parts:
            if len(cell) == 1:
                new_parts.append(cell)
                continue
            sig = {}
            for v in cell:
                key = tuple(sorted((cell_of[w], ecolor.get(edge(v, w), -1))
                                   for w in g_adj[v]))
                sig.setdefault(key, []).append(v)
            for key in sorted(sig):
                new_parts.append(sorted(sig[key]))
            if len(sig) > 1:
                changed = True
        parts = new_parts
        if not changed:
            return parts


def exhaustive_canonical_form(g, vcolor=None, ecolor=None):
    """The earlier canonical form: the least encoding over every leaf of
    the individualize-and-refine tree, with no pruning."""
    if g.n == 0:
        return b"empty"
    vcolor = vcolor or {}
    ecolor = ecolor or {}
    adj = g.adjacency()
    groups = {}
    for v in range(g.n):
        groups.setdefault((vcolor.get(v, -1), len(adj[v])), []).append(v)
    parts = [sorted(groups[k]) for k in sorted(groups)]
    best = [None]

    def encode(order):
        pos = {v: i for i, v in enumerate(order)}
        rows = tuple(vcolor.get(v, -1) for v in order)
        es = tuple(sorted((min(pos[u], pos[v]), max(pos[u], pos[v]), c)
                          for (u, v), c in ((e, ecolor.get(e, -1))
                                            for e in g.edges)))
        return (rows, es)

    def rec(parts):
        parts = _exhaustive_refine(adj, ecolor, parts)
        if all(len(c) == 1 for c in parts):
            enc = encode([c[0] for c in parts])
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        idx = next(i for i, c in enumerate(parts) if len(c) > 1)
        for v in parts[idx]:
            rec(parts[:idx] + [[v]] + [[w for w in parts[idx] if w != v]]
                + parts[idx + 1:])

    rec(parts)
    rows, es = best[0]
    return repr((g.n, rows, es)).encode()


def _relabelled(nxg, rng):
    n = nxg.number_of_nodes()
    perm = rng.sample(range(n), n)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in nxg.edges()])


def _colors(g, rng):
    return ({v: rng.randint(0, 1) for v in range(g.n)},
            {e: rng.randint(1, 2) for e in g.edges})


def test_same_bytes_as_exhaustive_search_on_the_atlas():
    rng = random.Random(2005)
    for nxg in ATLAS:
        g = _relabelled(nxg, rng)
        assert canonical_form(g) == exhaustive_canonical_form(g)
        vc, ec = _colors(g, rng)
        assert canonical_form(g, vc, ec) == exhaustive_canonical_form(g, vc, ec)


def test_same_bytes_as_exhaustive_search_on_random_graphs():
    rng = random.Random(3937)
    for _ in range(300):
        n, p = rng.randint(1, 8), rng.random()
        g = Graph.from_edges(n, [(u, v) for u in range(n)
                                 for v in range(u + 1, n) if rng.random() < p])
        vc, ec = _colors(g, rng)
        assert canonical_form(g) == exhaustive_canonical_form(g)
        assert canonical_form(g, vc, ec) == exhaustive_canonical_form(g, vc, ec)


def test_atlas_forms_match_networkx():
    # the atlas lists each isomorphism class once
    rng = random.Random(7)
    forms = set()
    for nxg in ATLAS:
        g = Graph.from_edges(nxg.number_of_nodes(), nxg.edges())
        form = canonical_form(g)
        assert canonical_form(_relabelled(nxg, rng)) == form
        forms.add(form)
    assert len(forms) == len(ATLAS)


def test_colored_forms_match_networkx():
    rng = random.Random(11)
    for nxg in ATLAS[1:]:
        n = nxg.number_of_nodes()
        g = Graph.from_edges(n, nxg.edges())
        vc, ec = _colors(g, rng)
        perm = rng.sample(range(n), n)
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
        if rng.random() < 0.5:
            hv = {perm[v]: c for v, c in vc.items()}
            he = {edge(perm[u], perm[v]): c for (u, v), c in ec.items()}
        else:
            hv, he = _colors(h, rng)
        a, b = nx.Graph(), nx.Graph()
        for vcol, ecol, out in ((vc, ec, a), (hv, he, b)):
            out.add_nodes_from((v, {"c": vcol[v]}) for v in range(n))
            out.add_edges_from((u, v, {"c": c}) for (u, v), c in ecol.items())
        same = nx.is_isomorphic(a, b, node_match=lambda x, y: x["c"] == y["c"],
                                edge_match=lambda x, y: x["c"] == y["c"])
        assert (canonical_form(g, vc, ec) == canonical_form(h, hv, he)) == same


def _symmetric_graphs():
    named = [nx.petersen_graph(), nx.dodecahedral_graph(),
             nx.desargues_graph(), nx.heawood_graph(), nx.hypercube_graph(4),
             nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4)),
             nx.paley_graph(13).to_undirected(), nx.complete_graph(20),
             nx.complete_bipartite_graph(10, 10), nx.empty_graph(20)]
    named += [nx.random_regular_graph(d, n, seed=n + d)
              for d in (3, 4) for n in (10, 12, 16, 20)]
    return [nx.convert_node_labels_to_integers(g) for g in named]


def test_relabel_invariance_up_to_twenty_vertices():
    rng = random.Random(13)
    for nxg in _symmetric_graphs():
        g = Graph.from_edges(nxg.number_of_nodes(), nxg.edges())
        vc = {v: rng.randint(0, 1) for v in range(g.n)}
        plain, colored = canonical_form(g), canonical_form(g, vc)
        for _ in range(3):
            perm = rng.sample(range(g.n), g.n)
            h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_form(h) == plain
            assert canonical_form(h, {perm[v]: c for v, c in vc.items()}) \
                == colored


def test_regular_graph_forms_match_networkx():
    for d, n in ((3, 12), (4, 14), (3, 20)):
        graphs = [nx.random_regular_graph(d, n, seed=s) for s in range(8)]
        forms = [canonical_form(Graph.from_edges(n, g.edges())) for g in graphs]
        for i, j in itertools.combinations(range(len(graphs)), 2):
            assert (forms[i] == forms[j]) == nx.is_isomorphic(graphs[i],
                                                              graphs[j])


@pytest.mark.parametrize("g", [complete_graph(12), complete_bipartite(6, 6),
                               Graph(12)], ids=["K12", "K66", "E12"])
def test_symmetric_graphs_are_pruned(g, monkeypatch):
    # one refinement per tree node; the unpruned tree has about 12! nodes
    calls = []
    refine = core._refine

    def counting(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(core, "_refine", counting)
    canonical_form(g)
    assert len(calls) < 200
