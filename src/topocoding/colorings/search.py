"""One backtracking engine for every coloring and labelling search.

Vertices are placed in index order, colors tried in ascending order, and
every edge is colored in the step of its later endpoint:

* an edge whose color is fixed by its two endpoints (a `rule-*` flag, or
  the induced |difference| of a labelling) is colored and checked inside
  that vertex step and is not a search node of its own;
* an edge with a choice of colors (the candidates of a constant metric,
  or any color in the edge range) is its own step.

So a node is one accepted choice: a vertex color together with its fixed
edges, or one edge color.  The node budget counts these nodes.  Every
complete assignment is confirmed by `check`.  A search returns the first
witness, None (space exhausted) or INCONCLUSIVE when the node budget runs
out; for enumeration the engine hands each witness to a callback instead.

The plan is read from the preset's flags and properness level, never
from its name:

* vertex colors: the range of the `vertex-range-*`, `bijection-1-pq` or
  `search-range` flag, else [1, M]; only odd ones under
  `odd-even-separation`;
* `vertex-distinct` / `bijection-1-pq`: no vertex color / no color at all
  repeats; `vertex-repeat`: the last vertex repeats a color if none has;
* `set-ordered`: one pass per orientation of the bipartition, each side
  kept strictly below or above the other;
* edge colors: a `rule-*` flag (the difference in the labelling domain)
  fixes them; an `edge-set-*` flag gives the target set, used once per
  color, else they lie in [1, M]; only even ones under
  `odd-even-separation`;
* properness `ve` and `total` prune adjacent clashes as they appear;
* a constant metric (the preset's own, or a `magic-*` flag whose
  parameter pins the constant) gives one pass per constant k.

Interchangeable vertices (twins) take non-decreasing colors.
"""

from __future__ import annotations

from ..core import ColoredGraph, Graph, bipartition
from .constraints import (AlphaMetric, ConstraintSet, Preset, PresetError,
                          check, get_preset, metric_constant)

SEARCH_CAP = 14     # default bound on |V|+|E|


class Inconclusive:
    __slots__ = ()

    def __repr__(self):
        return "INCONCLUSIVE"

    def __bool__(self):
        return False


INCONCLUSIVE = Inconclusive()


class _BudgetHit(Exception):
    pass


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def tick(self):
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise _BudgetHit


def _twin_floors(g: Graph):
    """u < v interchangeable (twins): impose f(u) <= f(v) to cut symmetry."""
    adj = g.adjacency()
    out = {v: [] for v in range(g.n)}
    for v in range(g.n):
        for u in range(v):
            if adj[u] - {v} == adj[v] - {u}:
                out[v].append(u)
    return out


# vertex color range per flag: (least, greatest from p and q); a greatest
# of None leaves M as the bound
_VERTEX_RANGES = {
    "vertex-range-0q": (0, lambda p, q: q),
    "vertex-range-0-2q1": (0, lambda p, q: 2 * q - 1),
    "vertex-range-min1": (1, None),
    "vertex-range-odd-min1": (1, lambda p, q: 2 * q + 1),
    "vertex-range-1-q1": (1, lambda p, q: q + 1),
    "bijection-1-pq": (1, lambda p, q: p + q),
}
_MAGIC = {"magic-emt": "emt", "magic-edt": "edt", "magic-fdt": "fdt",
          "magic-gdt": "gdt"}


def _vertex_range(flags, g):
    """(least, greatest or None) vertex color the flags search over."""
    for flag in (flags.get("search-range"), *flags):
        if flag in _VERTEX_RANGES:
            lo, hi = _VERTEX_RANGES[flag]
            return lo, None if hi is None else hi(g.n, g.q)
    return 1, None


def default_max_m(preset: Preset, g: Graph) -> int:
    flags = dict(preset.constraints.flags)
    hi = _vertex_range(flags, g)[1]
    if hi is not None:
        return hi
    if "edge-set-kd" in flags:
        k, d = flags["edge-set-kd"]
        return k + (g.q + 1) * d
    if preset.metric is not None or flags.keys() & _MAGIC.keys():
        return g.n + g.q
    return g.q + 1


# ---------------------------------------------------------------------------
# search plans

class _Plan:
    """Pruning rules read from a preset's flags for the engine."""

    def __init__(self, preset, g, max_m):
        if max_m is None:
            max_m = default_max_m(preset, g)
        cs = preset.constraints
        flags = dict(cs.flags)
        q = g.q
        self.preset = preset
        self.g = g
        self.max_m = max_m
        self.proper = cs.properness != "none"
        self.total = cs.properness == "total"
        self.vertex_distinct = "vertex-distinct" in flags
        self.all_distinct = "bijection-1-pq" in flags
        self.want_repeat = "vertex-repeat" in flags
        self.set_ordered = "set-ordered" in flags
        self.parity = "odd-even-separation" in flags
        lo, hi = _vertex_range(flags, g)
        hi = max_m if hi is None else min(hi, max_m)
        self.vdom = [c for c in range(lo, hi + 1) if not self.parity or c % 2]

        rules = {
            "rule-difference": lambda a, b: abs(a - b),
            "rule-sum": lambda a, b: a + b,
            "rule-sum-odd-bump": lambda a, b: a + b + (a + b) % 2,
            "rule-sum-mod-q": lambda a, b: (a + b) % q if q else 0,
            "rule-sum-mod-2q": lambda a, b: (a + b) % (2 * q) if q else 0,
        }
        if cs.domain == "labelling":
            flags.setdefault("rule-difference", None)
        self.rule = next((fn for f, fn in rules.items() if f in flags), None)

        targets = {
            "edge-set-1q": set(range(1, q + 1)),
            "edge-set-0q1": set(range(0, q)),
            "edge-set-odd": set(range(1, 2 * q, 2)),
            "edge-set-even": set(range(2, 2 * q + 1, 2)),
        }
        if "edge-set-interval" in flags:
            c = flags["edge-set-interval"]
            targets["edge-set-interval"] = set(range(c, c + q))
        if "edge-set-kd" in flags:
            k, d = flags["edge-set-kd"]
            targets["edge-set-kd"] = {k + i * d for i in range(1, q + 1)}
        self.edge_target = next(
            (t for f, t in targets.items() if f in flags), None)

        self.metric, self.pinned_k = preset.metric, None
        for f, kind in _MAGIC.items():
            if f in flags:
                self.metric = self.metric or AlphaMetric(kind)
                self.pinned_k = flags[f]
        self.xs = None
        if self.metric is not None and self.metric.abc != (1, 1, 1):
            bp = bipartition(g)
            if bp is None:
                raise PresetError("parameterized metric needs a bipartite graph")
            self.xs = bp[0]

        adj = g.adjacency()
        self.back = [sorted(u for u in adj[v] if u < v) for v in range(g.n)]
        self.floors = _twin_floors(g)
        # (vertex, None) places a vertex; (vertex, u) colors the edge to u
        self.steps = []
        for v in range(g.n):
            self.steps.append((v, None))
            if self.rule is None:
                self.steps += [(v, u) for u in self.back[v]]

    def k_values(self):
        # only edge steps read k, so an edgeless graph needs one pass
        if self.metric is None or not self.g.edges:
            return [None]
        if self.pinned_k is not None:
            return [self.pinned_k]
        M = self.max_m
        if self.metric.abc != (1, 1, 1):
            return range(0, sum(self.metric.abc) * M + 1)
        return {"emt": range(3, 3 * M + 1),
                "edt": range(1, 2 * M),
                "fdt": range(0, 2 * M),
                "gdt": range(0, 2 * M)}[self.metric.kind]

    def edge_candidates(self, u, v, fu, fv, k):
        """Colors an edge with a choice may take, before pruning."""
        if self.metric is None:
            return range(1, self.max_m + 1)
        a, b, c = self.metric.abc
        if self.xs is not None and u not in self.xs:
            fu, fv = fv, fu
        kind = self.metric.kind
        if kind == "emt":
            nums = [k - a * fu - b * fv]
        elif kind == "edt":
            nums = [k - abs(a * fu - b * fv)]
        elif kind == "fdt":
            nums = [a * fu + b * fv - k, a * fu + b * fv + k]
        else:
            nums = [abs(a * fu - b * fv) - k, abs(a * fu - b * fv) + k]
        return sorted({n // c for n in nums if n % c == 0})


# ---------------------------------------------------------------------------
# the engine

def _run(g, preset, max_m=None, b=None, on_witness=None):
    """First witness over every constant k and orientation, or None.

    With on_witness, each witness is passed to it; the search stops and
    returns that witness once the callback returns true.
    """
    plan = _Plan(preset, g, max_m)
    if b is None:
        b = _Budget(None)
    if plan.set_ordered:
        bp = bipartition(g)
        if bp is None or not bp[0] or not bp[1]:
            return None
        orientations = [(bp[0], bp[1]), (bp[1], bp[0])]
    else:
        orientations = [(set(), set())]
    for k in plan.k_values():
        for low, high in orientations:
            res = _backtrack(plan, low, high, k, b, on_witness)
            if res is not None:
                return res
    return None


def _backtrack(plan, low, high, k, b, on_witness):
    g, preset, steps = plan.g, plan.preset, plan.steps
    back, floors, rule = plan.back, plan.floors, plan.rule
    target, vdom, max_m = plan.edge_target, plan.vdom, plan.max_m
    proper, total, parity = plan.proper, plan.total, plan.parity
    all_distinct = plan.all_distinct
    # two edges met at one vertex may not share a color
    edges_clash = proper or target is not None or all_distinct
    vcol, ecol = {}, {}
    inc = [set() for _ in range(g.n)]     # edge colors met at each vertex
    used_edge, used_all = set(), set()
    last = g.n - 1

    def edge_ok(u, v, c, fv):
        """May edge uv take color c, with fv the color of v?"""
        if target is not None:
            if c not in target or c in used_edge:
                return False
        elif not 1 <= c <= max_m:
            return False
        if parity and c % 2:
            return False
        if proper and (c in inc[u] or c in inc[v]):
            return False
        if total and (c == vcol[u] or c == fv):
            return False
        return not (all_distinct and (c in used_all or c == fv))

    def put(u, v, c):
        ecol[(u, v)] = c
        inc[u].add(c)
        inc[v].add(c)
        used_edge.add(c)
        used_all.add(c)

    def take(u, v, c):
        del ecol[(u, v)]
        inc[u].discard(c)
        inc[v].discard(c)
        used_edge.discard(c)
        used_all.discard(c)

    def rec(i):
        if i == len(steps):
            cg = ColoredGraph(g, dict(vcol), dict(ecol))
            if check(cg, preset).ok and (on_witness is None
                                         or on_witness(cg)):
                return cg
            return None
        v, u = steps[i]
        if u is not None:
            for c in plan.edge_candidates(u, v, vcol[u], vcol[v], k):
                if edge_ok(u, v, c, vcol[v]):
                    b.tick()
                    put(u, v, c)
                    out = rec(i + 1)
                    if out is not None:
                        return out
                    take(u, v, c)
            return None
        # vertex step: bounds and exclusions first, then the fixed edges
        nbrs = back[v]
        fixed = nbrs if rule is not None else ()
        placed = set(vcol.values())
        lo = max((vcol[w] for w in floors[v]), default=0)
        if v in high:
            lo = max([lo] + [vcol[w] + 1 for w in low if w in vcol])
        hi = min((vcol[w] for w in high if w in vcol), default=None) \
            if v in low else None
        banned = {vcol[w] for w in nbrs} if proper else set()
        if plan.vertex_distinct:
            banned |= placed
        if all_distinct:
            banned |= used_all
        must_repeat = (plan.want_repeat and v == last
                       and len(placed) == len(vcol))
        for c in vdom:
            if c < lo or (hi is not None and c >= hi) or c in banned:
                continue
            if must_repeat and c not in placed:
                continue
            ds = []
            for w in fixed:
                d = rule(vcol[w], c)
                if (edges_clash and d in ds) or not edge_ok(w, v, d, c):
                    break
                ds.append(d)
            else:
                b.tick()
                vcol[v] = c
                used_all.add(c)
                for w, d in zip(fixed, ds):
                    put(w, v, d)
                out = rec(i + 1)
                if out is not None:
                    return out
                for w, d in zip(fixed, ds):
                    take(w, v, d)
                del vcol[v]
                used_all.discard(c)
        return None

    return rec(0)


# ---------------------------------------------------------------------------
# public entry points

def search(g: Graph, preset, max_m=None, budget=None, cap=SEARCH_CAP,
           **preset_params):
    """Find a coloring of g satisfying the preset, with colors <= max_m."""
    if isinstance(preset, str):
        preset = get_preset(preset, **preset_params)
    if cap is not None and g.n + g.q > cap:
        raise PresetError(
            f"graph has {g.n + g.q} elements, beyond the search cap {cap}")
    try:
        return _run(g, preset, max_m, _Budget(budget))
    except _BudgetHit:
        return INCONCLUSIVE


def _chi(g: Graph, metric, budget, max_m, k):
    """(least M, first witness at M), or INCONCLUSIVE."""
    if isinstance(metric, str):
        metric = AlphaMetric(metric)
    if not g.edges:
        raise PresetError("metric chromatic number needs at least one edge")
    if metric.abc == (1, 1, 1):
        preset = get_preset(metric.kind, k=k)
    else:
        if k is not None:
            raise PresetError("pinned constant only supported for (1,1,1)")

        def chk(cg):
            return [] if metric_constant(cg, metric) is not None else ["magic"]
        preset = Preset(f"{metric.kind}{metric.abc}",
                        ConstraintSet((), "total"), metric, chk)
    lo = max(2, max(g.degree(v) for v in range(g.n)) + 1)
    hi = max_m if max_m is not None else 3 * (g.n + g.q)
    b = _Budget(budget)
    try:
        for M in range(lo, hi + 1):
            wit = _run(g, preset, M, b)
            if wit is not None:
                return M, wit
    except _BudgetHit:
        pass
    return INCONCLUSIVE


def chi_min(g: Graph, metric, budget=None, max_m=None, k=None):
    """Least max color of a fully proper total coloring with constant metric.

    k=None allows any shared constant; passing k pins it (k=0 gives the
    zero-deficiency variant realized by the star-system constructions).
    """
    got = _chi(g, metric, budget, max_m, k)
    return got if got is INCONCLUSIVE else got[0]


def chi_min_witness(g: Graph, metric, budget=None, max_m=None, k=None):
    """(chi, witness coloring) pair; INCONCLUSIVE on budget exhaustion."""
    return _chi(g, metric, budget, max_m, k)
