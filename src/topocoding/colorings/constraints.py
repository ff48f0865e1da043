"""Constraint catalogue, named presets and the coloring checker.

A constraint set is a bag of named flags evaluated independently against a
ColoredGraph; a preset is a named constraint set.  Two properness levels are
supported because the source material uses both: "ve" (adjacent vertices
distinct, adjacent edges distinct) and "total" (additionally every edge
differs from its endpoints).  Labelling-style presets live in the [0, ...]
domain, total colorings in [1, M].

Composite presets declare as flags whatever their definition shares with
the catalogue (constant metric, edge set, set-ordered, bijection onto
[1, p+q], odd/even separation, vertex ranges), so the search can prune
on them; their bespoke checkers test only the rest.  The `search-range`
flag names the vertex range the search explores for presets whose
vertex colors are free to translate; `check` never rejects on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ColoredGraph, Graph, bipartition, edge, is_tree


class PresetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# alpha metrics (edge functions)

@dataclass(frozen=True)
class AlphaMetric:
    kind: str                      # emt | edt | fdt | gdt
    abc: tuple = (1, 1, 1)

    def __post_init__(self):
        if self.kind not in ("emt", "edt", "fdt", "gdt"):
            raise PresetError(f"unknown metric kind {self.kind!r}")
        a, b, c = self.abc
        if min(a, b, c) < 0 or (a, b, c) == (0, 0, 0):
            raise PresetError("metric parameters must be nonnegative, not all zero")

    def edge_value(self, fu: int, fv: int, fe: int) -> int:
        a, b, c = self.abc
        if self.kind == "emt":
            return a * fu + b * fv + c * fe
        if self.kind == "edt":
            return c * fe + abs(a * fu - b * fv)
        if self.kind == "fdt":
            return abs(a * fu + b * fv - c * fe)
        return abs(abs(a * fu - b * fv) - c * fe)


def _oriented_edge_values(cg: ColoredGraph, m: AlphaMetric):
    """Edge-function values; parameterized metrics orient u on the X side."""
    if m.abc == (1, 1, 1):
        return [m.edge_value(cg.vcolor[u], cg.vcolor[v], c)
                for (u, v), c in sorted(cg.ecolor.items())]
    bp = bipartition(cg.graph)
    if bp is None:
        raise PresetError("parameterized metrics need a bipartite graph")
    xs, _ = bp
    vals = []
    for (u, v), c in sorted(cg.ecolor.items()):
        if u in xs:
            vals.append(m.edge_value(cg.vcolor[u], cg.vcolor[v], c))
        else:
            vals.append(m.edge_value(cg.vcolor[v], cg.vcolor[u], c))
    return vals


def metric_B(cg: ColoredGraph, m: AlphaMetric) -> int:
    """max - min of the edge function over all edges (0 iff constant)."""
    if not cg.graph.edges:
        raise PresetError("metric undefined on an edgeless graph")
    if not cg.is_total():
        raise PresetError("metric needs a total coloring")
    vals = _oriented_edge_values(cg, m)
    return max(vals) - min(vals)


def metric_constant(cg: ColoredGraph, m: AlphaMetric):
    """The shared edge-function value, or None if not constant."""
    if not cg.graph.edges:
        raise PresetError("an edgeless graph has no metric constant")
    vals = _oriented_edge_values(cg, m)
    return vals[0] if max(vals) == min(vals) else None


# ---------------------------------------------------------------------------
# properness

def properness_violations(cg: ColoredGraph, level: str):
    out = []
    g = cg.graph
    if level == "none":
        return out
    for u, v in g.sorted_edges():
        if cg.vcolor[u] == cg.vcolor[v]:
            out.append(f"adjacent vertices {u},{v} share color")
    adj = g.adjacency()
    for x in range(g.n):
        seen = {}
        for y in sorted(adj[x]):
            c = cg.ecolor[edge(x, y)]
            if c in seen:
                out.append(f"adjacent edges at {x} share color {c}")
            seen[c] = y
    if level == "total":
        for (u, v), c in sorted(cg.ecolor.items()):
            if c == cg.vcolor[u] or c == cg.vcolor[v]:
                out.append(f"edge ({u},{v}) shares color with an endpoint")
    return out


# ---------------------------------------------------------------------------
# individual flags

def _odd_set(a, b):
    return set(range(a, b + 1, 2))


def ordered_bipartition(cg: ColoredGraph):
    """(low side, high side) when the coloring is set-ordered, else None."""
    bp = bipartition(cg.graph)
    if bp is None:
        return None
    xs, ys = bp
    if not xs or not ys:
        return None
    fx = [cg.vcolor[v] for v in xs]
    fy = [cg.vcolor[v] for v in ys]
    if max(fx) < min(fy):
        return xs, ys
    if max(fy) < min(fx):
        return ys, xs
    return None


def _flag_ok(name, param, cg: ColoredGraph):
    g = cg.graph
    p, q = g.n, g.q
    V = list(cg.vcolor.values())
    E = list(cg.ecolor.values())
    if name == "vertex-repeat":
        return len(set(V)) < p
    if name == "vertex-distinct":
        return len(set(V)) == p
    if name == "edge-distinct":
        return len(set(E)) == q
    if name == "vertex-range-0q":
        return set(V) <= set(range(0, q + 1)) and min(V, default=0) == 0
    if name == "vertex-range-0-2q1":
        return set(V) <= set(range(0, 2 * q)) and min(V, default=0) == 0
    if name == "vertex-range-min1":
        return min(V, default=1) == 1
    if name == "vertex-range-odd-min1":
        return min(V, default=1) == 1 and set(V) <= set(range(1, 2 * q + 2))
    if name == "vertex-range-1-q1":
        return set(V) <= set(range(1, q + 2))
    if name == "bijection-1-pq":
        return sorted(V + E) == list(range(1, p + q + 1))
    if name == "odd-even-separation":
        return all(v % 2 for v in V) and all(e % 2 == 0 for e in E)
    if name == "search-range":
        # bounds the search only: these presets leave the vertex colors
        # free to translate, so no range is part of their definition
        return True
    if name == "edge-set-1q":
        return set(E) == set(range(1, q + 1)) and len(E) == q
    if name == "edge-set-0q1":
        return set(E) == set(range(0, q)) and len(E) == q
    if name == "edge-set-odd":
        return set(E) == _odd_set(1, 2 * q - 1) and len(E) == q
    if name == "edge-set-even":
        return set(E) == set(range(2, 2 * q + 1, 2)) and len(E) == q
    if name == "edge-set-interval":
        c = param
        return set(E) == set(range(c, c + q)) and len(E) == q
    if name == "edge-set-kd":
        k, d = param
        return set(E) == {k + i * d for i in range(1, q + 1)} and len(E) == q
    if name == "rule-difference":
        return all(cg.ecolor[e] == abs(cg.vcolor[e[0]] - cg.vcolor[e[1]])
                   for e in g.edges)
    if name == "rule-sum":
        return all(cg.ecolor[e] == cg.vcolor[e[0]] + cg.vcolor[e[1]]
                   for e in g.edges)
    if name == "rule-sum-odd-bump":
        for u, v in g.edges:
            s = cg.vcolor[u] + cg.vcolor[v]
            if cg.ecolor[edge(u, v)] != (s if s % 2 == 0 else s + 1):
                return False
        return True
    if name == "rule-sum-mod-q":
        return all(cg.ecolor[e] == (cg.vcolor[e[0]] + cg.vcolor[e[1]]) % q
                   for e in g.edges)
    if name == "rule-sum-mod-2q":
        return all(cg.ecolor[e] == (cg.vcolor[e[0]] + cg.vcolor[e[1]]) % (2 * q)
                   for e in g.edges)
    if name in ("magic-emt", "magic-edt", "magic-gdt", "magic-fdt"):
        if not g.edges:
            return True
        k = metric_constant(cg, AlphaMetric(name.split("-")[1]))
        if k is None:
            return False
        return param is None or k == param
    if name == "interleaving":
        if not g.edges:
            return True
        lo = max(min(cg.vcolor[u], cg.vcolor[v]) for u, v in g.edges)
        hi = min(max(cg.vcolor[u], cg.vcolor[v]) for u, v in g.edges)
        return lo < hi  # an integer k with min <= k < max exists for all edges
    if name == "set-ordered":
        return ordered_bipartition(cg) is not None
    if name == "matching-q" or name == "matching-2q1":
        target = q if name == "matching-q" else 2 * q - 1
        if not is_tree(g):
            return False
        mate = _perfect_matching(g)
        if mate is None:
            return False
        return all(cg.vcolor[u] + cg.vcolor[v] == target for u, v in mate)
    if name == "harmonious-tree-clause":
        # permissive reading: for trees one edge label may repeat on two
        # vertices; a requirement only in the labelling setting, so this
        # flag never rejects a total coloring.
        return True
    raise PresetError(f"unknown constraint flag {name!r}")


def _perfect_matching(g: Graph):
    """Perfect matching of a tree (unique if any); None otherwise."""
    if g.n % 2:
        return None
    adj = {v: set(ns) for v, ns in g.adjacency().items()}
    mate = []
    alive = set(range(g.n))
    while alive:
        leaf = next((v for v in sorted(alive) if len(adj[v]) == 1), None)
        if leaf is None:
            return None
        other = next(iter(adj[leaf]))
        mate.append(edge(leaf, other))
        for z in (leaf, other):
            for w in adj[z]:
                adj[w].discard(z)
            adj[z] = set()
            alive.discard(z)
    return mate


_EDGE_SET_FLAGS = {"edge-set-1q", "edge-set-0q1", "edge-set-odd",
                   "edge-set-even", "edge-set-interval", "edge-set-kd"}
_RULE_FLAGS = {"rule-difference", "rule-sum", "rule-sum-odd-bump",
               "rule-sum-mod-q", "rule-sum-mod-2q"}
_CONTRADICTIONS = [
    {"vertex-repeat", "vertex-distinct"},
]


@dataclass(frozen=True)
class ConstraintSet:
    flags: tuple                      # of (name, param) pairs
    properness: str = "ve"            # none | ve | total
    domain: str = "coloring"          # labelling | coloring

    def __post_init__(self):
        names = [n for n, _ in self.flags]
        if len(set(names)) != len(names):
            raise PresetError("duplicate flags")
        nameset = set(names)
        for bad in _CONTRADICTIONS:
            if bad <= nameset:
                raise PresetError(f"contradictory flags {sorted(bad)}")
        if len(nameset & _EDGE_SET_FLAGS) > 1:
            raise PresetError("more than one edge color-set flag")
        if len(nameset & _RULE_FLAGS) > 1:
            raise PresetError("more than one edge rule flag")
        if self.properness not in ("none", "ve", "total"):
            raise PresetError("unknown properness level")

    def names(self):
        return [n for n, _ in self.flags]

    def param(self, name):
        for n, p in self.flags:
            if n == name:
                return p
        return None


@dataclass(frozen=True)
class Preset:
    name: str
    constraints: ConstraintSet
    metric: AlphaMetric | None = None
    checker: object = None            # optional bespoke checker function


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failed: tuple = ()


def check(cg: ColoredGraph, preset: Preset) -> CheckReport:
    """Evaluate every flag of the preset; report all violations."""
    if not cg.is_total() and preset.constraints.domain != "labelling":
        return CheckReport(False, ("coloring-not-total",))
    failed = []
    if preset.constraints.domain == "labelling":
        # vertex labelling with induced |difference| edge labels
        if len(cg.vcolor) != cg.graph.n:
            return CheckReport(False, ("labelling-not-total-on-vertices",))
        induced = {e: abs(cg.vcolor[e[0]] - cg.vcolor[e[1]])
                   for e in cg.graph.edges}
        if cg.ecolor and cg.ecolor != induced:
            failed.append("edge-labels-not-induced")
        cg = ColoredGraph(cg.graph, dict(cg.vcolor), induced)
    failed.extend(properness_violations(cg, preset.constraints.properness))
    for name, param in preset.constraints.flags:
        if not _flag_ok(name, param, cg):
            failed.append(name)
    if preset.checker is not None:
        failed.extend(preset.checker(cg))
    return CheckReport(not failed, tuple(failed))


# ---------------------------------------------------------------------------
# bespoke checkers for the composite presets

def _ee_difference(cg, failures):
    # each edge must find a mate (possibly itself) whose endpoint difference
    # matches its own color, directly or reflected through 2(p+q)
    p, q = cg.graph.n, cg.graph.q
    diffs = {abs(cg.vcolor[u] - cg.vcolor[v]) for u, v in cg.graph.edges}
    for e in cg.graph.sorted_edges():
        c = cg.ecolor[e]
        if c not in diffs and 2 * (p + q) - c not in diffs:
            failures.append("ee-difference")
            return


def _ee_balanced(cg, failures):
    p, q = cg.graph.n, cg.graph.q
    es = cg.graph.sorted_edges()
    if len(es) < 2:
        return
    s = {e: abs(cg.vcolor[e[0]] - cg.vcolor[e[1]]) - cg.ecolor[e] for e in es}
    cands = set()
    e0 = es[0]
    for other in es:
        cands.add(s[e0] + s[other])
        cands.add(2 * (p + q) + s[e0] + s[other])
    for k in sorted(cands):
        if all(any(s[e] + s[o] == k or 2 * (p + q) + s[e] + s[o] == k
                   for o in es) for e in es):
            return
    failures.append("ee-balanced")


def _ev_ordered(cg, failures):
    V, E = cg.vset(), cg.eset()
    ok = (not V or not E or min(V) > max(E) or max(V) < min(E)
          or V <= E or E <= V
          or (all(v % 2 for v in V) and all(e % 2 == 0 for e in E)))
    if not ok:
        failures.append("EV-ordered")


def _ve_matching(cg, failures, singular):
    p, q = cg.graph.n, cg.graph.q
    es = cg.graph.sorted_edges()
    vs = sorted(cg.vcolor)
    cands = {cg.ecolor[es[0]] + cg.vcolor[v] for v in vs} if es else set()
    for k in sorted(cands):
        edges_ok = all(any(cg.ecolor[e] + cg.vcolor[w] == k for w in vs)
                       for e in es)
        if not edges_ok:
            continue
        unmatched = [z for z in vs
                     if not any(cg.vcolor[z] + cg.ecolor[e] == k for e in es)]
        if not unmatched:
            return
        if len(unmatched) == 1 and cg.vcolor[unmatched[0]] == singular:
            return
    failures.append("ve-matching")


def _5c_checker(cg):
    failures = []
    _ee_difference(cg, failures)
    _ee_balanced(cg, failures)
    return failures


def _6c_checker(cg):
    failures = _5c_checker(cg)
    _ev_ordered(cg, failures)
    _ve_matching(cg, failures, (cg.graph.n + cg.graph.q + 1) // 2)
    return failures


def _rainbow_checker(cg):
    failures = []
    g = cg.graph
    adj = g.adjacency()
    metrics = [AlphaMetric(k) for k in ("emt", "edt", "fdt", "gdt")]

    def paths5():
        for seq in _simple_paths(adj, 5):
            if seq[0] < seq[-1]:
                yield seq

    for pth in paths5():
        es = [edge(pth[i], pth[i + 1]) for i in range(4)]
        cols = [cg.ecolor[e] for e in es]
        if len(set(cols)) != 4:
            failures.append("rainbow-distinct")
            return failures
        for j, e in enumerate(es):
            ok = False
            for i, o in enumerate(es):
                if i == j:
                    continue
                vals = {m.edge_value(cg.vcolor[o[0]], cg.vcolor[o[1]],
                                     cg.ecolor[o]) for m in metrics}
                if cols[j] in vals:
                    ok = True
                    break
            if not ok:
                failures.append("rainbow-functional")
                return failures
    return failures


def _simple_paths(adj, length):
    for start in sorted(adj):
        stack = [(start, (start,))]
        while stack:
            x, seq = stack.pop()
            if len(seq) == length:
                yield seq
                continue
            for y in sorted(adj[x]):
                if y not in seq:
                    stack.append((y, seq + (y,)))


# ---------------------------------------------------------------------------
# preset registry

def _cs(names_params, properness="ve", domain="coloring"):
    return ConstraintSet(tuple(names_params), properness, domain)


def _lab(*names):
    return _cs([(n, None) for n in names], properness="none", domain="labelling")


def _tot(*names, properness="ve"):
    return _cs([(n, None) for n in names], properness=properness)


_BASE_PRESETS = {
    # Def-1.2 style labellings (vertex labellings, induced |difference| edges)
    "graceful": _lab("vertex-distinct", "vertex-range-0q", "edge-set-1q"),
    "set-ordered-graceful": _lab("vertex-distinct", "vertex-range-0q",
                                 "edge-set-1q", "set-ordered"),
    "strongly-graceful": _lab("vertex-distinct", "vertex-range-0q",
                              "edge-set-1q", "matching-q"),
    "strongly-set-ordered-graceful": _lab("vertex-distinct", "vertex-range-0q",
                                          "edge-set-1q", "set-ordered",
                                          "matching-q"),
    "odd-graceful": _lab("vertex-distinct", "vertex-range-0-2q1",
                         "edge-set-odd"),
    "set-ordered-odd-graceful": _lab("vertex-distinct", "vertex-range-0-2q1",
                                     "edge-set-odd", "set-ordered"),
    "strongly-odd-graceful": _lab("vertex-distinct", "vertex-range-0-2q1",
                                  "edge-set-odd", "matching-2q1"),
    "strongly-set-ordered-odd-graceful": _lab("vertex-distinct",
                                              "vertex-range-0-2q1",
                                              "edge-set-odd", "set-ordered",
                                              "matching-2q1"),
    # the 27 named total colorings
    "gracefully-total": _tot("vertex-repeat", "vertex-range-min1",
                             "edge-set-1q", "rule-difference"),
    "set-ordered-gracefully-total": _tot("vertex-repeat", "vertex-range-min1",
                                         "edge-set-1q", "rule-difference",
                                         "set-ordered"),
    "odd-gracefully-total": _tot("vertex-repeat", "vertex-range-odd-min1",
                                 "edge-set-odd", "rule-difference"),
    "set-ordered-odd-gracefully-total": _tot("vertex-repeat",
                                             "vertex-range-odd-min1",
                                             "edge-set-odd", "rule-difference",
                                             "set-ordered"),
    "felicitous-total": _tot("vertex-range-min1", "rule-sum-mod-q",
                             "edge-set-0q1"),
    "set-ordered-felicitous-total": _tot("vertex-range-min1", "rule-sum-mod-q",
                                         "edge-set-0q1", "set-ordered"),
    "odd-elegant-total": _tot("vertex-range-odd-min1", "rule-sum-mod-2q",
                              "edge-set-odd"),
    "set-ordered-odd-elegant-total": _tot("vertex-range-odd-min1",
                                          "rule-sum-mod-2q", "edge-set-odd",
                                          "set-ordered"),
    "harmonious-total": _tot("vertex-range-min1", "rule-sum-mod-q",
                             "edge-set-0q1", "harmonious-tree-clause"),
    "set-ordered-harmonious-total": _tot("vertex-range-min1", "rule-sum-mod-q",
                                         "edge-set-0q1", "set-ordered"),
    "strongly-harmonious-total": _tot("vertex-range-min1", "rule-sum-mod-q",
                                      "edge-set-0q1", "interleaving"),
    "properly-even-harmonious-total": _tot("vertex-range-odd-min1",
                                           "rule-sum-mod-2q", "edge-set-odd"),
    "even-sequential-harmonious-total": _tot("vertex-range-odd-min1",
                                             "rule-sum-odd-bump",
                                             "edge-set-even"),
    "pan-harmonious-total": _tot("edge-distinct", "rule-sum"),
    "edge-magic-total": _tot("magic-emt"),
    "set-ordered-edge-magic-total": _tot("magic-emt", "set-ordered"),
    "graceful-edge-magic-total": _tot("edge-set-1q", "magic-emt"),
    "set-ordered-graceful-edge-magic-total": _tot("edge-set-1q", "magic-emt",
                                                  "set-ordered"),
    "edge-difference-total": _tot("magic-edt"),
    "set-ordered-edge-difference-total": _tot("magic-edt", "set-ordered"),
    "graceful-edge-difference-total": _tot("edge-set-1q", "magic-edt"),
    "set-ordered-graceful-edge-difference-total": _tot("edge-set-1q",
                                                       "magic-edt",
                                                       "set-ordered"),
    "ev-difference-total": _tot("magic-gdt"),
    "set-ordered-ev-difference-total": _tot("magic-gdt", "set-ordered"),
    "graceful-ev-difference-total": _tot("edge-set-1q", "magic-gdt"),
    "set-ordered-graceful-ev-difference-total": _tot("edge-set-1q",
                                                     "magic-gdt",
                                                     "set-ordered"),
    # splitting colorings: same flags as the total forms minus properness
    "splitting-gracefully-total": _cs([("vertex-repeat", None),
                                       ("rule-difference", None),
                                       ("edge-set-1q", None),
                                       ("search-range", "vertex-range-0q")],
                                      properness="none"),
    "splitting-odd-gracefully-total": _cs([("vertex-repeat", None),
                                           ("rule-difference", None),
                                           ("edge-set-odd", None),
                                           ("search-range",
                                            "vertex-range-0-2q1")],
                                          properness="none"),
    # weak: vertex colors need not repeat but stay within [1, q+1]
    "weak-gracefully-total": _tot("rule-difference", "edge-set-1q",
                                  "vertex-range-1-q1"),
    "set-ordered-weak-gracefully-total": _tot("rule-difference",
                                              "edge-set-1q",
                                              "vertex-range-1-q1",
                                              "set-ordered"),
    # proper gracefully total: vertex colors confined to [1, q+1]
    "proper-gracefully-total": _tot("vertex-repeat", "vertex-range-min1",
                                    "edge-set-1q", "rule-difference",
                                    properness="total"),
}


def _preset_checkers():
    magic_so = [("magic-edt", None), ("set-ordered", None)]
    six = [("bijection-1-pq", None)] + magic_so
    return {
        "5c": Preset("5c", _cs(magic_so + [("edge-set-1q", None),
                                           ("search-range",
                                            "vertex-range-1-q1")]),
                     checker=_5c_checker),
        "6c": Preset("6c", _cs(six, properness="none"), checker=_6c_checker),
        "6c-odd-even": Preset(
            "6c-odd-even",
            _cs(six + [("odd-even-separation", None)], properness="none"),
            checker=_6c_checker),
        "rainbow": Preset("rainbow", _cs((), properness="total"),
                          checker=_rainbow_checker),
    }


def _alpha_presets():
    out = {}
    for kind in ("emt", "edt", "fdt", "gdt"):
        out[kind] = Preset(kind,
                           _cs([(f"magic-{kind}", None)], properness="total"),
                           metric=AlphaMetric(kind))
    return out


PRESETS: dict = {}
PRESETS.update({name: Preset(name, cs) for name, cs in _BASE_PRESETS.items()})
PRESETS.update(_preset_checkers())
PRESETS.update(_alpha_presets())

ALIASES = {
    "gtc": "gracefully-total",
    "set-ordered-gtc": "set-ordered-gracefully-total",
    "odd-gtc": "odd-gracefully-total",
    "set-ordered-odd-gtc": "set-ordered-odd-gracefully-total",
    "proper-gtc": "proper-gracefully-total",
    "weak-gtc": "weak-gracefully-total",
    "set-ordered-weak-gtc": "set-ordered-weak-gracefully-total",
    "splitting-gtc": "splitting-gracefully-total",
    "splitting-odd-gtc": "splitting-odd-gracefully-total",
}


def get_preset(name: str, **params) -> Preset:
    """Look up a preset by its documented identifier.

    `c-harmonious-total` takes c=..., `kd-graceful` takes k=..., d=...;
    the magic presets optionally pin the constant with k=...
    """
    name = ALIASES.get(name, name)
    if name == "c-harmonious-total":
        c = params.get("c", 1)
        cs = _cs([("vertex-range-min1", None), ("rule-sum", None),
                  ("edge-set-interval", c)])
        return Preset(f"c-harmonious-total[{c}]", cs)
    if name == "kd-graceful":
        k, d = params.get("k", 1), params.get("d", 1)
        cs = _cs([("rule-difference", None), ("edge-set-kd", (k, d)),
                  ("set-ordered", None)])
        return Preset(f"kd-graceful[{k},{d}]", cs)
    if name in PRESETS:
        base = PRESETS[name]
        if "k" in params:
            flags = tuple((n, params["k"] if n.startswith("magic-") else p)
                          for n, p in base.constraints.flags)
            cs = ConstraintSet(flags, base.constraints.properness,
                               base.constraints.domain)
            return Preset(base.name, cs, base.metric, base.checker)
        return base
    raise PresetError(f"unknown preset {name!r}")


def preset_names():
    return sorted(set(PRESETS) | set(ALIASES) |
                  {"c-harmonious-total", "kd-graceful"})
