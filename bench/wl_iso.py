"""iso-match: isomorphism tests and Topcode-matrix matching, called directly.

Most of the time goes to `core.canonical_form` and `topcode`; almost
none goes to search.  Symmetric pairs (K7, the edgeless graph on 7
vertices, K_{4,4}, Petersen, Q3, random 3-regular graphs) are where an
automorphism-pruned canonical form would show; the asymmetric G(12, 20)
pairs refine to singletons at once and should not move.  K8, K_{5,5}
and the edgeless graph on 8 vertices are left out: one pair of them
costs 1.7 to 4.4 s, so a run would hold too few queries for p90.
"""

from __future__ import annotations

import random

import networkx as nx

from topocoding.colorings import INCONCLUSIVE
from topocoding.core import Graph, are_isomorphic
from topocoding.topcode import (TopcodeMatrix, decompose_number_string,
                                matching_graphs)

from common import (OK, WRONG, Query, Verdict, colored_nx,
                    count_matching_graphs, distinct_classes, find_labelling,
                    labelling_ok, matrix_of, norm, normalized_columns,
                    relabel, route_tokens, slot_signature, unique_ends)

SYMMETRIC = ("K7", "E7", "K44", "petersen", "Q3", "R3-8", "R3-10", "R3-12")
NO_PARTNER = ("K7", "E7")   # the only graphs with their degree sequence
# With 26 of a round's 45 queries, p50 falls inside the block of
# asymmetric pairs and p90 in the middle of one fixed star's block,
# not on the edge between two kinds of query.
ASYMMETRIC_PER_ROUND = 26
TREE_MATRIX_SIZES = (5, 6, 7, 8)
# Stars K_{1,q} as (center color, leaf colors); leaf j has edge color j.
# Every round has the fixed stars and one of the seeded ones, which cost
# about the same.
STARS = {"all-equal-3": (1, (1, 1, 1)),
         "all-equal-4": (1, (1, 1, 1, 1)),
         "partial-5a": (1, (1, 1, 2, 2, 3)),
         "partial-5d": (2, (2, 2, 3, 3, 3))}
PARTIAL_STARS = {"partial-5b": (1, (1, 2, 2, 3, 3)),
                 "partial-5c": (1, (1, 1, 2, 3, 4))}
DECOMPOSE_PER_ROUND = 2
DECOMPOSE_TREE_SIZE = 5
ROUNDS = 32

MIX = {
    "iso-symmetric": len(SYMMETRIC),
    "iso-asymmetric": ASYMMETRIC_PER_ROUND,
    "match-tree": len(TREE_MATRIX_SIZES),
    "match-star": len(STARS) + 1,
    "decompose": DECOMPOSE_PER_ROUND,
}


def star_matrix(center, leaves):
    """(x, e, y) of the star K_{1,q} with the given colors."""
    n = len(leaves) + 1
    edges = [(0, j) for j in range(1, n)]
    vcol = {0: center, **{j: c for j, c in enumerate(leaves, start=1)}}
    return matrix_of(n, edges, vcol, {(0, j): j for j in range(1, n)})


def _base(name, rng):
    if name == "K7":
        g = nx.complete_graph(7)
    elif name == "E7":
        g = nx.empty_graph(7)
    elif name == "K44":
        g = nx.complete_bipartite_graph(4, 4)
    elif name == "petersen":
        g = nx.petersen_graph()
    elif name == "Q3":
        g = nx.hypercube_graph(3)
    else:
        g = nx.random_regular_graph(3, int(name.split("-")[1]),
                                    seed=rng.randrange(2**31))
    g = nx.convert_node_labels_to_integers(g)
    return g.number_of_nodes(), norm(g.edges())


def _partner(n, edges, rng):
    """The same degree sequence after two double-edge swaps."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    nx.double_edge_swap(g, nswap=2, max_tries=1000,
                        seed=rng.randrange(2**31))
    return norm(g.edges())


def _pair(n, edges, rng, allow_partner=True):
    perm = rng.sample(range(n), n)
    other = (_partner(n, edges, rng) if allow_partner and rng.random() < 0.5
             else edges)
    return relabel(n, other, perm)


def _graceful_tree(n, trees, rng):
    edges = relabel(n, rng.choice(trees[n]), rng.sample(range(n), n))
    lab = find_labelling(n, edges, "graceful")
    ecol = {(u, v): abs(lab[u] - lab[v]) for u, v in edges}
    return edges, lab, ecol


class _Checks:
    def __init__(self, known, oracles):
        self.known = known
        self.oracles = oracles
        self.iso = {}
        self.counts = {}
        self.distinct = {}   # star answers already checked: verdict

    def isomorphic(self, got, key, n, g_edges, h_edges):
        if key not in self.iso:
            a, b = nx.Graph(), nx.Graph()
            a.add_nodes_from(range(n))
            b.add_nodes_from(range(n))
            a.add_edges_from(g_edges)
            b.add_edges_from(h_edges)
            self.iso[key] = nx.is_isomorphic(a, b)
        if got is not self.iso[key]:
            return Verdict(WRONG, True, f"are_isomorphic {got}, networkx "
                                        f"{self.iso[key]}")
        return Verdict(OK, True)

    def expected_count(self, name, x, e, y):
        if name is not None:
            return self.known["star_matching_counts"]["values"][name]
        key = (x, e, y)
        if key not in self.counts:
            self.counts[key] = count_matching_graphs(x, e, y)
        return self.counts[key]

    def matching(self, got, name, x, e, y):
        target = normalized_columns(x, e, y)
        want = self.expected_count(name, x, e, y)
        if len(got) != want:
            return Verdict(WRONG, True, f"{len(got)} matching graphs, "
                                        f"expected {want}")
        fast = unique_ends(x, e, y)
        seen = set() if fast else []
        for cg in got:
            g = cg.graph
            edges = norm(g.edges)
            if sorted(cg.vcolor) != list(range(g.n)) or \
                    sorted(cg.ecolor) != edges:
                return Verdict(WRONG, True, "matching graph not total")
            cols = normalized_columns(*matrix_of(g.n, edges, cg.vcolor,
                                                 cg.ecolor))
            if cols != target:
                return Verdict(WRONG, True, "matching graph has another "
                                            "matrix")
            if fast:
                seen.add(slot_signature(cg.vcolor, cg.ecolor))
            else:
                seen.append((g.n, tuple(sorted(cg.vcolor.items())),
                             tuple(sorted(cg.ecolor.items()))))
        if fast:
            distinct = len(seen) == len(got)
        else:
            # only the fixed stars get here; each round repeats them
            answer = tuple(seen)
            if answer not in self.distinct:
                self.distinct[answer] = len(distinct_classes(
                    colored_nx(n, dict(vc), dict(ec))
                    for n, vc, ec in seen)) == len(seen)
            distinct = self.distinct[answer]
        if not distinct:
            return Verdict(WRONG, True, "two matching graphs are isomorphic")
        return Verdict(OK, True)

    def decompose(self, got, digits, rows):
        if got is INCONCLUSIVE:
            return Verdict(OK, False)
        found = False
        for t, cg in got:
            x, e, y = t.x, t.e, t.y
            if "".join(map(str, route_tokens(x, e, y, 1))) != digits:
                return Verdict(WRONG, True, "matrix does not read back")
            g = cg.graph
            edges = norm(g.edges)
            if not labelling_ok(g.n, edges, cg.vcolor, "graceful",
                                self.oracles):
                return Verdict(WRONG, True, "decomposition witness is not "
                                            "graceful")
            cols = normalized_columns(*matrix_of(g.n, edges, cg.vcolor,
                                                 cg.ecolor))
            if cols != normalized_columns(x, e, y):
                return Verdict(WRONG, True, "witness has another matrix")
            found = found or (x, e, y) == rows
        if not found:
            return Verdict(WRONG, True, "source matrix not recovered")
        return Verdict(OK, True)


def build(seed, ctx):
    rng = random.Random(seed)
    checks = _Checks(ctx.known, ctx.oracles)
    trees = {n: [norm(t.edges()) for t in nx.nonisomorphic_trees(n)]
             for n in set(TREE_MATRIX_SIZES) | {DECOMPOSE_TREE_SIZE}}
    stars = {name: (star_matrix(*spec), TopcodeMatrix(*star_matrix(*spec)))
             for name, spec in {**STARS, **PARTIAL_STARS}.items()}
    rounds = []
    for r in range(ROUNDS):
        qs = []

        def add(kind, call, check):
            qs.append(Query(f"r{r}.{len(qs)}.{kind}", kind, call, check))

        def iso(kind, n, g_edges, h_edges):
            g, h = Graph.from_edges(n, g_edges), Graph.from_edges(n, h_edges)
            key = (n, tuple(g_edges), tuple(h_edges))
            add(kind, lambda: are_isomorphic(g, h),
                lambda got: checks.isomorphic(got, key, n, g_edges, h_edges))

        for name in SYMMETRIC:
            n, edges = _base(name, rng)
            iso("iso-symmetric", n, edges,
                _pair(n, edges, rng, name not in NO_PARTNER))
        for _ in range(ASYMMETRIC_PER_ROUND):
            g = nx.gnm_random_graph(12, 20, seed=rng.randrange(2**31))
            edges = norm(g.edges())
            iso("iso-asymmetric", 12, edges, _pair(12, edges, rng))
        for n in TREE_MATRIX_SIZES:
            edges, lab, ecol = _graceful_tree(n, trees, rng)
            rows = matrix_of(n, edges, lab, ecol)
            t = TopcodeMatrix(*rows)
            add("match-tree", lambda t=t: matching_graphs(t),
                lambda got, rows=rows: checks.matching(got, None, *rows))
        names = list(STARS) + [rng.choice(sorted(PARTIAL_STARS))]
        for name in names:
            rows, t = stars[name]
            add("match-star", lambda t=t: matching_graphs(t),
                lambda got, nm=name, rows=rows: checks.matching(got, nm,
                                                                *rows))
        n = DECOMPOSE_TREE_SIZE
        for _ in range(DECOMPOSE_PER_ROUND):
            edges, lab, ecol = _graceful_tree(n, trees, rng)
            rows = matrix_of(n, edges, lab, ecol)
            digits = "".join(map(str, route_tokens(*rows, 1)))
            add("decompose",
                lambda s=digits: decompose_number_string(s, n - 1,
                                                         "graceful"),
                lambda got, s=digits, rows=rows: checks.decompose(got, s,
                                                                  rows))
        rounds.append(qs)
    return rounds
