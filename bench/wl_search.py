"""search-mix: exhaustive colorings and labellings, called directly.

Most of the time goes to `colorings.search`, `colorings.constraints`
and the `core.Graph` primitives; `canonical_form` runs only inside the
grace-number queries.  One round holds every query kind below in fixed
counts, so any run of whole rounds has the same mix.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx

from topocoding.colorings import (INCONCLUSIVE, chi_min, grace_number,
                                  search, search_flawed)
from topocoding.core import Graph

from common import (NODE_BUDGET, OK, WRONG, Query, Undecidable,
                    Verdict, components, find_labelling, is_connected,
                    labelling_ok, named, norm, relabel, union)

TREE_SIZES = (9, 10, 11, 12)
TREE_PRESETS = ("graceful", "odd-graceful", "set-ordered-graceful")
CYCLES = tuple(range(5, 11))
GTC_GRAPHS = ("P4", "P5", "P6", "K13", "K14", "C3", "C4", "C5", "C6", "K4",
              "K23")
CHI_GRAPHS = ("P4", "P5", "P6", "C4", "C5", "C6", "K4", "K33")
METRICS = ("fdt", "emt", "edt", "gdt")
# Each chi_min query runs this many times in a round, each on its own
# Graph.  These are the queries no seed changes.  With three of each,
# p50 falls inside a block of chi_min queries of near-equal cost and p90
# inside the block of K_{3,3} ones, not on the edge between two blocks,
# where the seeded tree draws would move it.
CHI_REPEATS = 3
FORESTS = ("P2+P3", "P3+P3", "P2+P2+P2", "K13+P2", "P4+P3", "P4+P4",
           "K13+P3", "P3+P2+P2")
ROUNDS = 32

MIX = {
    "search-tree": len(TREE_SIZES) * len(TREE_PRESETS),
    "search-cycle": len(CYCLES),
    "search-gtc": 2,
    "chi-min": len(CHI_GRAPHS) * len(METRICS) * CHI_REPEATS,
    "search-flawed": 2,
    "grace-number": 1,
}


def _forest(name):
    return union(*(named(part) for part in name.split("+")))


class _Checks:
    """Answer checks for this workload; caches the costly references."""

    def __init__(self, known, oracles):
        self.known = known
        self.oracles = oracles
        self.gtc = {}
        self.none_verified = {}

    def _same_graph(self, got, n, edges):
        return got.graph.n == n and norm(got.graph.edges) == edges

    def labelling(self, got, n, edges, preset, has_one):
        """has_one: True or False when a known fact settles whether the
        graph has the labelling, None to settle a None by exhaustion."""
        if got is INCONCLUSIVE:
            return Verdict(OK, False)
        if got is None:
            if has_one is not None:
                return Verdict(WRONG if has_one else OK, True,
                               f"{preset}: None, but the graph has one"
                               if has_one else "")
            key = (preset, n, tuple(edges))
            if key not in self.none_verified:
                try:
                    self.none_verified[key] = find_labelling(n, edges,
                                                             preset) is None
                except Undecidable:
                    self.none_verified[key] = False
            if self.none_verified[key]:
                return Verdict(OK, True)
            return Verdict(WRONG, True, f"{preset}: None not confirmed")
        if not self._same_graph(got, n, edges):
            return Verdict(WRONG, True, "witness on another graph")
        if not labelling_ok(n, edges, got.vcolor, preset, self.oracles):
            return Verdict(WRONG, True, f"{preset}: witness rejected")
        if any(got.ecolor.get(e) != abs(got.vcolor[e[0]] - got.vcolor[e[1]])
               for e in edges):
            return Verdict(WRONG, True, "edge labels not induced")
        return Verdict(OK, True)

    def gtc_answer(self, got, name, n, edges):
        if got is INCONCLUSIVE:
            return Verdict(OK, False)
        if got is None:
            admits = self.known["gtc_admits"]["values"][name]
            return Verdict(WRONG if admits else OK, True,
                           "gracefully-total: None, oracle has one"
                           if admits else "")
        if name not in self.gtc:
            self.gtc[name] = {
                (tuple(sorted(vc.items())), tuple(sorted(ec.items())))
                for vc, ec in self.oracles.gtc_colorings(n, edges)}
        key = (tuple(sorted(got.vcolor.items())),
               tuple(sorted(got.ecolor.items())))
        if self._same_graph(got, n, edges) and key in self.gtc[name]:
            return Verdict(OK, True)
        return Verdict(WRONG, True, "gracefully-total witness rejected")

    def chi(self, got, name, metric):
        if got is INCONCLUSIVE:
            return Verdict(OK, False)
        want = self.known["chi"]["values"][metric][name]
        return Verdict(OK if got == want else WRONG, True,
                       "" if got == want else f"chi {got} != {want}")

    def flawed(self, got, n, edges):
        if got is INCONCLUSIVE:
            return Verdict(OK, False)
        if got is None:
            # joining a forest gives a tree, and every tree of this size
            # is graceful
            return Verdict(WRONG, True, "flawed: None on a forest")
        extra, coloring = got
        comp = {v: i for i, c in enumerate(components(n, edges)) for v in c}
        extra = norm(extra)
        joined = norm(edges + extra)
        if (len(extra) != len(set(comp.values())) - 1
                or any(comp[u] == comp[v] for u, v in extra)
                or not is_connected(n, joined)
                or not self._same_graph(coloring, n, joined)
                or not labelling_ok(n, joined, coloring.vcolor, "graceful",
                                    self.oracles)):
            return Verdict(WRONG, True, "flawed witness rejected")
        return Verdict(OK, True)

    def grace(self, got):
        want = self.known["grace_number"]["values"]["4,4,every-edge"]
        return Verdict(OK if got == want else WRONG, True,
                       "" if got == want else f"grace {got} != {want}")


def build(seed, ctx):
    """Rounds of queries for one seed; ctx carries known values and oracles."""
    rng = random.Random(seed)
    checks = _Checks(ctx.known, ctx.oracles)
    trees = {n: [norm(t.edges()) for t in nx.nonisomorphic_trees(n)]
             for n in TREE_SIZES}
    rounds = []
    for r in range(ROUNDS):
        qs = []

        def add(kind, call, check):
            qs.append(Query(f"r{r}.{len(qs)}.{kind}", kind, call, check))

        for n in TREE_SIZES:
            for preset in TREE_PRESETS:
                perm = rng.sample(range(n), n)
                edges = relabel(n, rng.choice(trees[n]), perm)
                g = Graph.from_edges(n, edges)
                add("search-tree",
                    lambda g=g, p=preset: search(g, p, budget=NODE_BUDGET,
                                                 cap=None),
                    # None is settled by a fact for graceful, by an
                    # exhaustive search of the checker's own otherwise
                    lambda got, n=n, e=edges, p=preset: checks.labelling(
                        got, n, e, p, has_one=(p == "graceful") or None))
        # each query gets its own Graph, so nothing cached on one carries over
        for n in CYCLES:
            cn, ce = named(f"C{n}")
            g = Graph.from_edges(cn, ce)
            add("search-cycle",
                lambda g=g: search(g, "graceful", budget=NODE_BUDGET,
                                   cap=None),
                # Rosa (1967): C_n is graceful iff n = 0 or 3 (mod 4)
                lambda got, n=cn, e=ce: checks.labelling(
                    got, n, e, "graceful", has_one=n % 4 in (0, 3)))
        for name in rng.sample(GTC_GRAPHS, MIX["search-gtc"]):
            n, edges = named(name)
            g = Graph.from_edges(n, edges)
            add("search-gtc",
                lambda g=g: search(g, "gracefully-total",
                                   budget=NODE_BUDGET, cap=None),
                lambda got, nm=name, n=n, e=edges: checks.gtc_answer(
                    got, nm, n, e))
        for name, metric, _ in itertools.product(CHI_GRAPHS, METRICS,
                                                 range(CHI_REPEATS)):
            g = Graph.from_edges(*named(name))
            add("chi-min",
                lambda g=g, m=metric: chi_min(g, m, budget=NODE_BUDGET),
                lambda got, nm=name, m=metric: checks.chi(got, nm, m))
        for name in rng.sample(FORESTS, MIX["search-flawed"]):
            n, edges = _forest(name)
            g = Graph.from_edges(n, edges)
            add("search-flawed",
                lambda g=g: search_flawed(g, "graceful", budget=NODE_BUDGET),
                lambda got, n=n, e=edges: checks.flawed(got, n, e))
        add("grace-number", lambda: grace_number(4, 4), checks.grace)
        rounds.append(qs)
    return rounds

