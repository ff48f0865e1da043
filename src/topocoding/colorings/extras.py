"""Flawed labellings, twins, critical graphs, multiple colorings.

The grace-number computation scans all red-blue edge colorings of small
complete graphs up to isomorphism (one graph per red subgraph class).
"""

from __future__ import annotations

import functools
import itertools

from ..core import (ColoredGraph, Graph, GraphError, canonical_form,
                    colored_canonical_form, connected_components, edge,
                    is_connected)
from .constraints import AlphaMetric, check, get_preset, PresetError
from .search import INCONCLUSIVE, search

TWIN_SHIFT_NOTE = (
    "twin union test: the base labelling lives on [0, 2q-1] while the twin "
    "lives on [1, 2q]; the union f(V)+1 with g(V) is required to be [1, 2q]")


# ---------------------------------------------------------------------------
# flawed labellings of disconnected graphs

def search_flawed(g: Graph, preset="graceful", max_extra_edges=None,
                  budget=None, cap=None):
    """Join the components of g and label the joined graph.

    Returns (E*, coloring of g+E*) or None; the restriction of the coloring
    to g is the flawed labelling.
    """
    comps = connected_components(g)
    if len(comps) < 2:
        raise GraphError("flawed labellings need a disconnected graph")
    if max_extra_edges is None:
        max_extra_edges = len(comps) - 1
    which = {}
    for i, comp in enumerate(comps):
        for v in comp:
            which[v] = i
    cross = [e for e in itertools.combinations(range(g.n), 2)
             if which[e[0]] != which[e[1]] and not g.has_edge(*e)]
    hit_budget = False
    for size in range(len(comps) - 1, max_extra_edges + 1):
        for extra in itertools.combinations(cross, size):
            h = Graph.from_edges(g.n, list(g.edges) + list(extra))
            if not is_connected(h):
                continue
            res = search(h, preset, budget=budget, cap=cap)
            if res is INCONCLUSIVE:
                hit_budget = True
            elif res is not None:
                return frozenset(edge(*e) for e in extra), res
    return INCONCLUSIVE if hit_budget else None


# ---------------------------------------------------------------------------
# twin odd-graceful labellings

def twin_odd_graceful(cg: ColoredGraph, max_vertices, require_union=True):
    """All twins of an odd-graceful labelling, canonically deduplicated.

    A twin is a graph H with labels in [1, 2q] whose |difference| edge
    labels are exactly the odd numbers in [1, 2q-1].
    """
    rep = check(cg, get_preset("odd-graceful"))
    if not rep.ok:
        raise PresetError(f"input is not odd-graceful: {rep.failed}")
    q = cg.graph.q
    odds = list(range(2 * q - 1, 0, -2))
    f_shift = {c + 1 for c in cg.vcolor.values()}
    found = {}

    def build(i, edges, verts):
        if len(verts) > max_vertices:
            return
        if i == len(odds):
            if require_union and f_shift | verts != set(range(1, 2 * q + 1)):
                return
            labels = sorted(verts)
            index = {lab: j for j, lab in enumerate(labels)}
            h = Graph.from_edges(len(labels),
                                 [(index[a], index[b]) for a, b in edges])
            gmap = {index[lab]: lab for lab in labels}
            ecol = {e: abs(gmap[e[0]] - gmap[e[1]]) for e in h.edges}
            key = colored_canonical_form(ColoredGraph(h, gmap, ecol))
            found.setdefault(key, (h, gmap))
            return
        o = odds[i]
        for a in range(1, 2 * q + 1 - o):
            build(i + 1, edges + [(a, a + o)], verts | {a, a + o})

    build(0, [], set())
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# critical graphs and the grace number

def _admits_gtc(g: Graph, budget=None):
    if not g.edges:
        return False
    res = search(g, "gracefully-total", budget=budget, cap=None)
    if res is INCONCLUSIVE:
        raise PresetError("budget exhausted while deciding admission")
    return res is not None


def is_critical(g: Graph, sign: str, quant: str = "exists-edge",
                budget=None) -> bool:
    if sign not in ("plus", "minus"):
        raise PresetError("sign must be plus or minus")
    if quant not in ("exists-edge", "every-edge"):
        raise PresetError("quant must be exists-edge or every-edge")
    if not is_connected(g) or not g.edges:
        return False
    if sign == "plus":
        if not _admits_gtc(g, budget):
            return False
        non_edges = [e for e in itertools.combinations(range(g.n), 2)
                     if not g.has_edge(*e)]
        if not non_edges:
            return False
        destroyed = [not _admits_gtc(
            Graph.from_edges(g.n, list(g.edges) + [e]), budget)
            for e in non_edges]
        return any(destroyed) if quant == "exists-edge" else all(destroyed)
    if _admits_gtc(g, budget):
        return False
    removable = []
    for e in g.sorted_edges():
        h = Graph(g.n, g.edges - {e})
        if is_connected(h):
            removable.append(h)
    if not removable:
        return False
    restored = [_admits_gtc(h, budget) for h in removable]
    return any(restored) if quant == "exists-edge" else all(restored)


@functools.cache
def _atlas_graphs(n):
    """The atlas graphs on n vertices, built once per process: each build
    regenerates the whole atlas, and one grace_number call asks for it
    six times."""
    import networkx as nx
    out = []
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() == n:
            relabel = {v: i for i, v in enumerate(sorted(G.nodes()))}
            out.append(Graph.from_edges(
                n, [(relabel[u], relabel[v]) for u, v in G.edges()]))
    return tuple(out)


def _critical_classes(t, quant):
    return [h for h in _atlas_graphs(t)
            if is_critical(h, "plus", quant)], \
           [h for h in _atlas_graphs(t)
            if is_critical(h, "minus", quant)]


def _contains_spanning(host: Graph, patterns):
    """Does host contain some pattern as a spanning subgraph?"""
    n = host.n
    for pat in patterns:
        for perm in itertools.permutations(range(n)):
            if all(host.has_edge(perm[u], perm[v]) for u, v in pat.edges):
                return True
    return False


def grace_number(p: int, s: int, quant: str = "every-edge",
                 limit: int = 7):
    """One more than the smallest complete-graph order whose red-blue
    edge colorings can carry a red critical-plus graph on p vertices
    together with a blue critical-minus graph on s vertices.

    The two critical graphs live on p- and s-vertex subsets; the colors
    keep them edge-disjoint, so a coloring carrying both is exactly a
    two-colored authentication pair.  Orders below the returned value
    minus one are exhausted and carry no such pair in any coloring.
    """
    if p < 4 or s < 4 or p > 5 or s > 5:
        raise PresetError("supported range is 4 <= p, s <= 5")
    plus_p, _ = _critical_classes(p, quant)
    _, minus_s = _critical_classes(s, quant)
    if not plus_p or not minus_s:
        return INCONCLUSIVE

    cache = {}

    def contains_on_subsets(host, t, patterns, tag):
        for subset in itertools.combinations(range(host.n), t):
            sub = _induced(host, subset)
            key = (tag, canonical_form(sub))
            if key not in cache:
                cache[key] = _contains_spanning(sub, patterns)
            if cache[key]:
                return True
        return False

    for m in range(max(p, s), limit + 1):
        for red in _atlas_graphs(m):
            blue = Graph(m, frozenset(
                edge(u, v) for u, v in itertools.combinations(range(m), 2)
                if not red.has_edge(u, v)))
            if (contains_on_subsets(red, p, plus_p, ("+", p, quant))
                    and contains_on_subsets(blue, s, minus_s,
                                            ("-", s, quant))):
                return m + 1
    return INCONCLUSIVE


def _induced(g: Graph, subset):
    index = {v: i for i, v in enumerate(subset)}
    return Graph.from_edges(len(subset),
                            [(index[u], index[v]) for u, v in g.edges
                             if u in index and v in index])


# ---------------------------------------------------------------------------
# multiple (inner) colorings

_DEFAULT_INNER = ("graceful", "odd-graceful", "gracefully-total",
                  "edge-magic-total", "edt", "fdt", "gdt")


def multiple_inner(cg: ColoredGraph, presets=_DEFAULT_INNER, max_edges=12):
    """Spanning subgraphs on which the coloring restricts to a known preset."""
    g = cg.graph
    if g.q > max_edges:
        raise PresetError(f"too many edges for subset scan (> {max_edges})")
    es = g.sorted_edges()
    out = []
    for r in range(1, g.q + 1):
        for subset in itertools.combinations(es, r):
            h = Graph(g.n, frozenset(subset))
            sub = ColoredGraph(h, dict(cg.vcolor),
                               {e: cg.ecolor[e] for e in subset})
            for name in presets:
                if check(sub, get_preset(name)).ok:
                    out.append((frozenset(subset), name))
    return out


def covers_edges(entries, g: Graph) -> bool:
    got = set()
    for subset, _ in entries:
        got |= subset
    return got == set(g.edges)


# ---------------------------------------------------------------------------
# four-constant edge partitions

def check_4ice(cg: ColoredGraph, max_edges=16):
    """Partition the edges into four nonempty classes, one per edge function,
    each class sharing a constant.  Returns (parts, constants) or None."""
    from .constraints import properness_violations
    if properness_violations(cg, "total"):
        raise PresetError("needs a fully proper total coloring")
    g = cg.graph
    if g.q < 4:
        return None
    if g.q > max_edges:
        raise PresetError(f"too many edges (> {max_edges})")
    metrics = [AlphaMetric(k) for k in ("emt", "edt", "fdt", "gdt")]
    es = g.sorted_edges()
    vals = {e: [m.edge_value(cg.vcolor[e[0]], cg.vcolor[e[1]], cg.ecolor[e])
                for m in metrics] for e in es}
    assign = {}
    ks = [None] * 4

    def rec(i):
        if i == len(es):
            if all(any(assign[e] == c for e in es) for c in range(4)):
                parts = tuple(frozenset(e for e in es if assign[e] == c)
                              for c in range(4))
                return parts, tuple(ks)
            return None
        e = es[i]
        remaining = len(es) - i
        missing = sum(1 for c in range(4)
                      if not any(assign[x] == c for x in assign))
        if missing > remaining:
            return None
        for c in range(4):
            v = vals[e][c]
            if ks[c] is not None and ks[c] != v:
                continue
            fresh = ks[c] is None
            assign[e] = c
            if fresh:
                ks[c] = v
            out = rec(i + 1)
            if out is not None:
                return out
            del assign[e]
            if fresh:
                ks[c] = None
        return None

    return rec(0)
