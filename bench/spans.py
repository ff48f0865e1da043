"""Spans for the traced run, recorded from the benchmark's side.

`Tracer.install` wraps the public entry points of each layer under every
name a module holds them by (so `colorings.search.check` is wrapped along
with `colorings.constraints.check`, and the benchmark's own imports too),
and `Tracer.remove` puts the originals back.  A span records its name,
start, end, parent span and query id; spans stay in memory until the run
ends.  The hottest `Graph` methods and `groups.add` are only counted.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (module, attribute, span name)
SPANS = (
    ("topocoding.core", "canonical_form", "core.canonical_form"),
    ("topocoding.colorings.constraints", "check", "constraints.check"),
    ("topocoding.colorings.search", "search", "search.search"),
    ("topocoding.colorings.search", "chi_min", "search.chi_min"),
    ("topocoding.colorings.extras", "search_flawed", "extras.search_flawed"),
    ("topocoding.colorings.extras", "grace_number", "extras.grace_number"),
    ("topocoding.topcode", "matching_graphs", "topcode.matching_graphs"),
    ("topocoding.topcode", "decompose_number_string",
     "topcode.decompose_number_string"),
    ("topocoding.groups", "verify_axioms", "groups.verify_axioms"),
    ("topocoding.iceflower", "build_family", "iceflower.build_family"),
    ("topocoding.iceflower", "hamiltonian_from_degree_sequence",
     "iceflower.hamiltonian_from_degree_sequence"),
    ("topocoding.iceflower", "star_decompose", "iceflower.star_decompose"),
    ("topocoding.lattice", "enumerate_lattice", "lattice.enumerate_lattice"),
    ("topocoding.lattice", "join_set_ordered", "lattice.join_set_ordered"),
    ("topocoding.cli", "run", "cli.run"),
)
COUNTED = (("topocoding.groups", "add", "groups.add.calls"),)
GRAPH_METHODS = (("__post_init__", "core.graph.constructed"),
                 ("neighbors", "core.graph.neighbors.calls"),
                 ("adjacency", "core.graph.adjacency.calls"),
                 ("degree", "core.graph.degree.calls"))

# Layer of each span, for the self-time ranking printed with the trace.
LAYERS = {"core": "core", "constraints": "colorings.constraints",
          "search": "colorings.search", "extras": "colorings.extras",
          "topcode": "topcode", "groups": "groups",
          "iceflower": "iceflower", "lattice": "lattice", "cli": "cli",
          "query": "outside the library spans"}

PER_LAYER = (
    "core.canonical_form.calls", "core.canonical_form.self_s",
    "core.graph.constructed", "core.graph.neighbors.calls",
    "core.graph.adjacency.calls", "core.graph.degree.calls",
    "constraints.check.calls", "constraints.check.self_s",
    "constraints.check.ok_ratio",
    "search.search.calls", "search.search.self_s",
    "search.search.inconclusive_ratio",
    "search.chi_min.calls", "search.chi_min.self_s",
    "extras.search_flawed.self_s", "extras.grace_number.self_s",
    "topcode.matching_graphs.calls", "topcode.matching_graphs.self_s",
    "topcode.matching_graphs.graphs_out",
    "topcode.decompose_number_string.self_s",
    "groups.verify_axioms.self_s", "groups.add.calls",
    "iceflower.build_family.self_s",
    "iceflower.hamiltonian_from_degree_sequence.self_s",
    "iceflower.star_decompose.self_s",
    "lattice.enumerate_lattice.self_s", "lattice.join_set_ordered.self_s",
    "cli.run.calls", "cli.run.self_s",
    "trace.overhead_ratio",
)


def unit_of(metric):
    """Counts and times are per round: runs are bounded by time, so a
    faster program runs more rounds, and every round holds the same mix."""
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_s"):
        return "s/round"
    return "count/round"


def wrapped_names(modules):
    """Names in the given modules that currently hold a tracing wrapper."""
    from topocoding.core import Graph
    out = [f"{m.__name__}.{k}" for m in modules
           for k, v in vars(m).items() if getattr(v, "_bench_span", False)]
    out += [f"Graph.{k}" for k, _ in GRAPH_METHODS
            if getattr(Graph.__dict__[k], "_bench_span", False)]
    return out


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, query id]
        self.stack = []
        self.counts = Counter()
        self.qid = None
        self._undo = []

    # -- installing ---------------------------------------------------------

    def install(self, modules):
        """Wrap every target under each name any of `modules` binds it to."""
        from topocoding.colorings import INCONCLUSIVE
        from topocoding.core import Graph
        outcome = {
            "constraints.check": lambda out: self.counts.update(
                {"constraints.check.ok": bool(out.ok)}),
            "search.search": lambda out: self.counts.update(
                {"search.search.inconclusive": out is INCONCLUSIVE}),
            "topcode.matching_graphs": lambda out: self.counts.update(
                {"topcode.matching_graphs.graphs_out": len(out)}),
        }
        for modname, attr, name in SPANS:
            orig = getattr(importlib.import_module(modname), attr)
            self._rebind(modules, orig,
                         self._span(name, orig, outcome.get(name)))
        for modname, attr, name in COUNTED:
            orig = getattr(importlib.import_module(modname), attr)
            self._rebind(modules, orig, self._counter(name, orig))
        for attr, name in GRAPH_METHODS:
            orig = Graph.__dict__[attr]
            setattr(Graph, attr, self._counter(name, orig))
            self._undo.append((Graph, attr, orig))

    def _rebind(self, modules, orig, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def remove(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _span(self, name, fn, outcome=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.qid]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if outcome is not None:
                outcome(out)
            return out

        wrapper._bench_span = True
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper._bench_span = True
        return wrapper

    # -- one query ------------------------------------------------------------

    def begin(self, qid):
        self.qid = qid
        self.stack.append(len(self.spans))
        self.spans.append(["query", time.perf_counter(), 0.0, -1, qid])

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    # -- results --------------------------------------------------------------

    def self_times(self):
        """{span name: (calls, self seconds)}; self time is the duration
        minus the time covered by direct child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, busy = out.get(name, (0, 0.0))
            out[name] = (calls + 1, busy + (end - start) - covered[i])
        return out

    def metrics(self, rounds, overhead_ratio):
        """PER_LAYER values; counts and times divided by `rounds`."""
        st = self.self_times()
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        total = {}
        for metric in PER_LAYER:
            stem, _, field = metric.rpartition(".")
            if field == "calls" and stem in st:
                total[metric] = st[stem][0]
            elif field == "self_s":
                total[metric] = st.get(stem, (0, 0.0))[1]
            else:
                total[metric] = c.get(metric, 0)
        out = {k: v / rounds for k, v in total.items()}
        out["constraints.check.ok_ratio"] = ratio(
            c["constraints.check.ok"], total["constraints.check.calls"])
        out["search.search.inconclusive_ratio"] = ratio(
            c["search.search.inconclusive"], total["search.search.calls"])
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def layer_self_times(self):
        out = Counter()
        for name, (_, busy) in self.self_times().items():
            out[LAYERS[name.split(".")[0]]] += busy
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tquery\n")
            for name, start, end, parent, qid in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{qid}\n")
