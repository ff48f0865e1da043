"""Write tests/engine_golden.json: what the coloring search and the checker
answer for every preset on a few fixed small graphs.

Run from the root of the checkout whose answers are to be pinned:

    PYTHONPATH=src python tests/make_engine_golden.py

For every preset in preset_names() (default parameters) and every graph
in GRAPHS it records the search's result class (witness, None,
INCONCLUSIVE or the exception it raised), the witness itself and the
number of search nodes it took.  Then it records check(...).ok of every
preset on a seeded sample of colorings per graph: random colorings, the
witnesses found above, the witnesses with every vertex color raised by
one, and the witnesses without their edge colors.  Each sample row
holds one character per preset, in the order of "presets": 1 accepted,
0 rejected, E check raised.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path

from topocoding.colorings import (INCONCLUSIVE, check, get_preset,
                                  preset_names, search)
from topocoding.core import (ColoredGraph, Graph, complete_bipartite,
                             complete_graph, cycle_graph, path_graph,
                             star_graph)

GRAPHS = {
    "E0": Graph(0),
    "E3": Graph(3),
    "P3": path_graph(3),
    "K13": star_graph(3),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "K4": complete_graph(4),
    "K23": complete_bipartite(2, 3),
}
GEN_BUDGET = 100_000      # searches still undecided here are left unpinned
RANDOM_PER_GRAPH = 40
SEED = 20050393


def _count_nodes():
    """Patch the budget class so the node count of the last search is kept."""
    search_mod = importlib.import_module("topocoding.colorings.search")
    seen = {}
    orig = search_mod._Budget

    class Counting(orig):
        def __init__(self, limit):
            super().__init__(limit)
            seen["budget"] = self

    search_mod._Budget = Counting
    return lambda: seen["budget"].used


def coloring_key(cg):
    return {"v": sorted(cg.vcolor.items()),
            "e": sorted([list(e), c] for e, c in cg.ecolor.items())}


def from_key(g, key):
    return ColoredGraph(g, {v: c for v, c in key["v"]},
                        {tuple(e): c for e, c in key["e"]})


def _samples(g, witnesses, rng):
    span = g.n + g.q + 1
    out = []
    for _ in range(RANDOM_PER_GRAPH):
        out.append(ColoredGraph(
            g, {v: rng.randrange(span) for v in range(g.n)},
            {e: rng.randrange(span) for e in g.sorted_edges()}))
    for w in witnesses:
        out.append(w)
        out.append(ColoredGraph(g, {v: c + 1 for v, c in w.vcolor.items()},
                                dict(w.ecolor)))
        out.append(ColoredGraph(g, dict(w.vcolor), {}))
    unique = {json.dumps(coloring_key(cg)): cg for cg in out}
    return list(unique.values())


def main(path):
    nodes = _count_nodes()
    names = preset_names()
    searches = {}
    witnesses = {gname: [] for gname in GRAPHS}
    for gname, g in GRAPHS.items():
        for name in names:
            try:
                got = search(g, name, budget=GEN_BUDGET)
            except Exception as ex:        # pinned: the class of the failure
                searches[f"{name}|{gname}"] = {"result": "error",
                                              "error": type(ex).__name__}
                continue
            rec = {"nodes": nodes()}
            if got is INCONCLUSIVE:
                rec["result"] = "inconclusive"
            elif got is None:
                rec["result"] = "none"
            else:
                rec["result"] = "witness"
                rec["witness"] = coloring_key(got)
                if got not in witnesses[gname]:
                    witnesses[gname].append(got)
            searches[f"{name}|{gname}"] = rec
    rng = random.Random(SEED)
    checks = {}
    for gname, g in GRAPHS.items():
        rows = []
        for cg in _samples(g, witnesses[gname], rng):
            oks = ""
            for name in names:
                try:
                    oks += "1" if check(cg, get_preset(name)).ok else "0"
                except Exception:          # the parent's crashes, pinned
                    oks += "E"
            rows.append([coloring_key(cg), oks])
        checks[gname] = rows
    data = {"graphs": {k: [g.n, sorted(g.edges)] for k, g in GRAPHS.items()},
            "presets": names, "searches": searches, "checks": checks}
    Path(path).write_text(json.dumps(data, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else
         Path(__file__).with_name("engine_golden.json"))
