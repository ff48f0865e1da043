"""Assembling colored graphs from a base of vectors, and the joining
constructions that keep set-ordered colorings intact.

An assembly coincides chosen vertices of base-vector copies with host
vertices (colors must agree).  Enumeration reports the raw plan count
next to the number of isomorphism classes, because the closed counting
formula counts plans, not shapes.

The join construction bridges two set-ordered gracefully totally
colored graphs with m new edges (plus optional helper vertices) so that
the merged edge color set is exactly [1, q1+q2+m].  The hand-in-hand,
single-series and F-graph constructions only assert existence, so they
are realized by a bounded search over junction choices, each candidate
verified by the coloring search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .core import (ISO_CAP, ColoredGraph, Graph, GraphError, are_isomorphic,
                   colored_canonical_form, colored_disjoint_union, edge,
                   is_connected, vertex_coincide)
from .colorings import (INCONCLUSIVE, ConstraintSet, Preset, check,
                        get_preset, ordered_bipartition, search)
from .colorings.search import _run

_INDEPENDENCE_WORK_CAP = 200_000
_JUNCTION_CANDIDATE_CAP = 800


@dataclass
class LatticeBase:
    vectors: list
    op: str = "vertex-coincide"

    def __post_init__(self):
        if self.op != "vertex-coincide":
            raise GraphError(f"unsupported base operation {self.op!r}")


@dataclass
class AssemblyPlan:
    """One step per copy: (vector index, base vertex, host vertex)."""
    steps: list


def assemble(host: ColoredGraph, base: LatticeBase, coeffs,
             plan: AssemblyPlan) -> ColoredGraph:
    """Coincide copies of base vectors onto the host per the plan.

    coeffs[i] copies of vector i are used; the plan lists, in order,
    which vertex of each copy lands on which host vertex.  Host vertex
    ids are stable throughout, so plans refer to the original host.
    """
    if len(coeffs) != len(base.vectors):
        raise GraphError("one coefficient per base vector")
    if sum(coeffs) < 1:
        raise GraphError("at least one copy must be used")
    want = sorted(i for i, a in enumerate(coeffs) for _ in range(a))
    if sorted(i for i, _, _ in plan.steps) != want:
        raise GraphError("plan steps do not match the coefficients")
    out = host
    for i, bv, hv in plan.steps:
        vec = base.vectors[i]
        if not (0 <= bv < vec.graph.n and 0 <= hv < host.graph.n):
            raise GraphError("plan vertex out of range")
        off = out.graph.n
        out = colored_disjoint_union(out, vec)
        out = vertex_coincide(out, hv, off + bv)
    return out


@dataclass
class EnumerationReport:
    raw_plans: int
    valid_plans: int
    classes: list = field(default_factory=list)

    @property
    def distinct(self):
        return len(self.classes)


def raw_plan_count(host_n: int, sizes) -> int:
    """The closed-form plan count for one copy of each of n vectors:
    choose n host vertices, order them, assign vectors, pick one vertex
    per vector: C(p, n) (n!)^2 prod |T_i|."""
    n = len(sizes)
    return (math.comb(host_n, n) * math.factorial(n) ** 2
            * math.prod(sizes))


def enumerate_lattice(host: ColoredGraph, base: LatticeBase, bounds,
                      size_cap: int = ISO_CAP) -> EnumerationReport:
    """Try every plan within the coefficient bounds; report the raw
    plan count and the assemblies that exist, deduplicated up to
    colored isomorphism.

    Plans place copies on pairwise distinct host vertices, in every
    order (the ordered bookkeeping is what the closed formula counts,
    so raw_plans matches it for one-vs-one assemblies).
    """
    if len(bounds) != len(base.vectors):
        raise GraphError("one bound per base vector")
    report = EnumerationReport(0, 0)
    seen = set()
    p = host.graph.n
    for coeffs in itertools.product(*(range(b + 1) for b in bounds)):
        total = sum(coeffs)
        if total < 1 or total > p:
            continue
        size = host.graph.n + sum(
            a * v.graph.n for a, v in zip(coeffs, base.vectors)) - total
        if size > size_cap:
            raise GraphError(f"assembly of {size} vertices exceeds the cap")
        copies = [i for i, a in enumerate(coeffs) for _ in range(a)]
        for ordered in set(itertools.permutations(copies)):
            for hosts in itertools.permutations(range(p), total):
                for bvs in itertools.product(
                        *(range(base.vectors[i].graph.n) for i in ordered)):
                    report.raw_plans += 1
                    plan = AssemblyPlan(list(zip(ordered, bvs, hosts)))
                    try:
                        cg = assemble(host, base, coeffs, plan)
                    except GraphError:
                        continue
                    report.valid_plans += 1
                    key = colored_canonical_form(cg)
                    if key not in seen:
                        seen.add(key)
                        report.classes.append(cg)
    if report.raw_plans == 0:
        raise GraphError("no plan has a positive coefficient sum")
    return report


def _labeled_trees(r):
    if r == 1:
        yield []
        return
    if r == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(r), repeat=r - 2):
        degree = [1] * r
        for s in seq:
            degree[s] += 1
        seq = list(seq)
        edges, leaves = [], sorted(v for v in range(r) if degree[v] == 1)
        deg = degree[:]
        import heapq
        heapq.heapify(leaves)
        for s in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, s))
            deg[s] -= 1
            if deg[s] == 1:
                heapq.heappush(leaves, s)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        edges.append((u, v))
        yield edges


def check_linear_independence(base: LatticeBase, tree_cap: int = 5):
    """True when no vector equals a tree-combination of the others.

    For every target vector, every tree on 2..tree_cap vertices, every
    assignment of the other vectors to tree vertices and every choice
    of attachment vertices is tried; tree edges become edges between
    the attachment vertices.  Bounded: returns the inconclusive marker
    when the sweep would exceed the work cap, or when a candidate meets
    a target above the isomorphism cap and no other target refutes.
    """
    vecs = [v.graph for v in base.vectors]
    if len(vecs) < 2:
        return True
    work = 0
    undecided = False
    for j, target in enumerate(vecs):
        others = [g for i, g in enumerate(vecs) if i != j]
        for r in range(2, tree_cap + 1):
            for tedges in _labeled_trees(r):
                for parts in itertools.product(others, repeat=r):
                    if sum(g.n for g in parts) != target.n:
                        continue
                    if sum(g.q for g in parts) + r - 1 != target.q:
                        continue
                    for attach in itertools.product(
                            *(range(g.n) for g in parts)):
                        work += 1
                        if work > _INDEPENDENCE_WORK_CAP:
                            return INCONCLUSIVE
                        off, edges = [], []
                        total = 0
                        for g in parts:
                            off.append(total)
                            edges.extend((total + u, total + v)
                                         for u, v in g.sorted_edges())
                            total += g.n
                        dup = False
                        for a, b in tedges:
                            e = edge(off[a] + attach[a], off[b] + attach[b])
                            if e in [edge(u, v) for u, v in edges]:
                                dup = True
                                break
                            edges.append(e)
                        if dup:
                            continue
                        if target.n > ISO_CAP:
                            undecided = True
                        elif are_isomorphic(Graph.from_edges(total, edges),
                                            target):
                            return False
    return INCONCLUSIVE if undecided else True


@dataclass
class JoinResult:
    graph: ColoredGraph
    bridge_edges: list
    helper_vertices: dict
    ways: list
    coincided: tuple | None = None

    def __iter__(self):
        yield self.helper_vertices, self.bridge_edges
        yield self.graph


def _way_of(u_kind, v_kind):
    return {("z", "Y2"): 1, ("z", "Y1"): 2, ("X1", "Y2"): 3,
            ("X2", "Y1"): 4}[(u_kind, v_kind)]


def join_set_ordered(cg1: ColoredGraph, cg2: ColoredGraph,
                     m: int) -> JoinResult:
    """Bridge two set-ordered gracefully totally colored graphs.

    The second graph's colors are lifted above the first X side, the
    first graph's Y side and edges are lifted above the second's edges,
    and m bridge edges (possibly through helper vertices colored just
    above the first X side) are chosen so the combined edge color set
    is [1, q1+q2+m].  The candidate pools follow the printed joining
    ways in order: helper-to-second-Y, helper-to-first-Y, first-X to
    second-Y, second-X to first-Y.  If no all-edge choice connects the
    graph, one cross coincide of equal-colored vertices is attempted.
    """
    if m < 1:
        raise GraphError("m must be at least 1")
    preset = get_preset("set-ordered-gracefully-total")
    for tag, cg in (("first", cg1), ("second", cg2)):
        if not is_connected(cg.graph):
            raise GraphError(f"{tag} input is not connected")
        rep = check(cg, preset)
        if not rep.ok:
            raise GraphError(
                f"{tag} input fails the set-ordered check: {rep.failed}")
    q1, q2 = cg1.graph.q, cg2.graph.q
    x1, y1 = ordered_bipartition(cg1)
    x2, y2 = ordered_bipartition(cg2)
    top_x1 = max(cg1.vcolor[v] for v in x1)
    shift2 = m + 1 + top_x1 + q2 - max(cg2.vcolor.values())
    n1, n2 = cg1.graph.n, cg2.graph.n

    vcol = {v: cg1.vcolor[v] + (m + q2 if v in y1 else 0) for v in cg1.vcolor}
    ecol = {e: c + m + q2 for e, c in cg1.ecolor.items()}
    for v in range(n2):
        vcol[n1 + v] = cg2.vcolor[v] + shift2
    for (u, v), c in cg2.ecolor.items():
        ecol[edge(n1 + u, n1 + v)] = c
    zcol = {j: top_x1 + j for j in range(1, m + 1)}

    # candidate bridge endpoints, grouped by the printed way order
    xs = ([("z", j) for j in range(1, m + 1)]
          + [("X1", v) for v in sorted(x1)]
          + [("X2", v) for v in sorted(x2)])
    ys = [("Y1", v) for v in sorted(y1)] + [("Y2", v) for v in sorted(y2)]

    def color_of(kind, v):
        if kind == "z":
            return zcol[v]
        if kind in ("X1", "Y1"):
            return vcol[v]
        return vcol[n1 + v]

    missing = list(range(q2 + 1, q2 + m + 1))
    by_color = {c: [] for c in missing}
    for (uk, u), (vk, v) in itertools.product(xs, ys):
        d = color_of(vk, v) - color_of(uk, u)
        if d in by_color:
            by_color[d].append(((uk, u), (vk, v), _way_of(uk, vk)))
    for c in missing:
        by_color[c].sort(key=lambda t: (t[2], t[0], t[1]))

    def build(choice, coincide_pair=None):
        used_z = sorted({u for (uk, u), _, _ in choice if uk == "z"})
        zid = {j: n1 + n2 + i for i, j in enumerate(used_z)}

        def vid(kind, v):
            if kind == "z":
                return zid[v]
            if kind in ("X1", "Y1"):
                return v
            return n1 + v
        vc = dict(vcol)
        for j in used_z:
            vc[zid[j]] = zcol[j]
        ec = dict(ecol)
        edges = list(cg1.graph.sorted_edges())
        edges += [(n1 + u, n1 + v) for u, v in cg2.graph.sorted_edges()]
        bridge = []
        for (uk, u), (vk, v), _ in choice:
            e = edge(vid(uk, u), vid(vk, v))
            if e in ec:
                return None
            ec[e] = abs(vc[e[0]] - vc[e[1]])
            edges.append(e)
            bridge.append(e)
        g = Graph.from_edges(n1 + n2 + len(used_z), edges)
        cg = ColoredGraph(g, vc, ec)
        if coincide_pair:
            try:
                cg = vertex_coincide(cg, *coincide_pair)
            except GraphError:
                return None
        if not is_connected(cg.graph):
            return None
        if not check(cg, preset).ok:
            return None
        return cg, bridge, {zid[j]: zcol[j] for j in used_z}

    for choice in itertools.product(*(by_color[c] for c in missing)):
        got = build(choice)
        if got:
            cg, bridge, helpers = got
            return JoinResult(cg, bridge, helpers,
                              sorted({w for _, _, w in choice}))
    # no all-edge choice connects everything; allow one coincide of
    # equal-colored vertices across the two sides
    pairs = [(a, n1 + b)
             for a, b in itertools.product(sorted(y1), sorted(y2))
             if vcol[a] == vcol[n1 + b]]
    pairs += [(a, n1 + b)
              for a, b in itertools.product(sorted(x1), sorted(x2))
              if vcol[a] == vcol[n1 + b]]
    for choice in itertools.product(*(by_color[c] for c in missing)):
        for pair in pairs:
            got = build(choice, pair)
            if got:
                cg, bridge, helpers = got
                return JoinResult(cg, bridge, helpers,
                                  sorted({w for _, _, w in choice}), pair)
    raise GraphError(
        "no bridge found: candidate edges per missing color were "
        + str({c: len(by_color[c]) for c in missing}))


def join_many(vectors, m: int = 1) -> ColoredGraph:
    """Left-fold of the pairwise join over the base vectors."""
    if not vectors:
        raise GraphError("empty base")
    out = vectors[0]
    for nxt in vectors[1:]:
        out = join_set_ordered(out, nxt, m).graph
    return out


_RECOLOR_LIMIT = 24
_INTEGRATE_ATTEMPT_CAP = 20_000


_SO_PROPER_GTC = Preset(
    "set-ordered-proper-gracefully-total",
    ConstraintSet(get_preset("proper-gracefully-total").constraints.flags
                  + (("set-ordered", None),), "total"))


def _recolorings(g: Graph, limit: int = _RECOLOR_LIMIT):
    """Set-ordered, totally proper gracefully total colorings of g.

    Vertex colors in [1, q+1] with a repeat, edge colors the endpoint
    differences filling [1, q], no edge sharing a color with an endpoint,
    one side of the bipartition strictly below the other.  Returns at
    most limit of them, and whether the limit cut the list short.
    """
    found = []

    def keep(cg):
        found.append(cg)
        return len(found) > limit

    _run(g, _SO_PROPER_GTC, on_witness=keep)
    return found[:limit], len(found) > limit


def vertex_integrate(t: ColoredGraph, parts,
                     attempt_cap: int = _INTEGRATE_ATTEMPT_CAP):
    """Plant one part on every host vertex and recolor by stacking.

    The host is connected bipartite with a set-ordered proper graceful
    coloring; parts are set-ordered gracefully totally colored, one per
    host vertex, X-side hosts first (in color order).  Edge color
    intervals stack bottom-up: Y-side parts, then the host, then the
    X-side parts in reverse, so the edge set is [1, q+A+B].  Each part
    is translated so an anchor vertex matches the host color; anchors
    and alternate part colorings are searched within the attempt cap.
    Returns the colored graph with all colors in [1, q+A+B]; None when
    every candidate fails the final check; the inconclusive marker when
    the attempt cap or the limit on alternate colorings cut the
    candidates short.
    """
    if min(t.vcolor.values()) < 1:
        # a graceful labelling starting at 0 shifts up by one; the
        # differences, hence the edge colors, are unchanged
        lift = 1 - min(t.vcolor.values())
        t = ColoredGraph(t.graph,
                         {v: c + lift for v, c in t.vcolor.items()},
                         dict(t.ecolor))
    xh, yh = ordered_bipartition(t)
    s, tt = len(xh), len(yh)
    if len(parts) != s + tt:
        raise GraphError("need one part per host vertex")
    so = get_preset("set-ordered-gracefully-total")
    for i, part in enumerate(parts):
        if not check(part, so).ok:
            raise GraphError(f"part {i} fails the set-ordered check")
    e = [p.graph.q for p in parts]
    a_sum, b_sum = sum(e[:s]), sum(e[s:])
    if a_sum < b_sum:
        raise GraphError(f"A={a_sum} < B={b_sum}")
    xs = sorted(xh, key=lambda v: (t.vcolor[v], v))
    ys = sorted(yh, key=lambda v: (t.vcolor[v], v))
    for k in range(1, s + 1):
        bound = 1 + b_sum + sum(e[s - r] for r in range(1, s - k + 1))
        if not t.vcolor[xs[k - 1]] < bound:
            raise GraphError(
                f"host color {t.vcolor[xs[k - 1]]} at X vertex {k} is not "
                f"below {bound}")
    q = t.graph.q
    # per-part edge color offsets: Y parts fill [1,B], host [B+1,B+q],
    # X parts [B+q+1, B+q+A] with part s lowest
    offset = [0] * len(parts)
    run = 0
    for j in range(tt):
        offset[s + j] = run
        run += e[s + j]
    run = b_sum + q
    for k in range(s - 1, -1, -1):
        offset[k] = run
        run += e[k]
    order = xs + ys
    e_total = q + a_sum + b_sum
    proper = get_preset("proper-gracefully-total")

    def attempt(colored, anchors):
        vcol, ecol, edges = {}, {}, []
        for x in xh:
            vcol[x] = t.vcolor[x]
        for y in yh:
            vcol[y] = t.vcolor[y] + b_sum
        for (u, v), c in t.ecolor.items():
            ecol[edge(u, v)] = c + b_sum
            edges.append((u, v))
        total = t.graph.n
        for i, part in enumerate(colored):
            host_v = order[i]
            px, py = ordered_bipartition(part)
            anchor = anchors[i]
            if i < s:
                delta = t.vcolor[host_v] - part.vcolor[anchor]
            else:
                delta = vcol[host_v] - offset[i] - part.vcolor[anchor]
            ren = {}
            for v in range(part.graph.n):
                ren[v] = host_v if v == anchor else total
                total += v != anchor
            for v in range(part.graph.n):
                c = part.vcolor[v] + delta + (offset[i] if v in py else 0)
                # q+1 is the ceiling: the edge colored q forces one
                # endpoint above q, so [1,q] for vertices is unattainable
                if not 1 <= c <= e_total + 1 or \
                        (ren[v] in vcol and vcol[ren[v]] != c):
                    return None
                vcol[ren[v]] = c
            for (u, v), c in part.ecolor.items():
                ecol[edge(ren[u], ren[v])] = c + offset[i]
                edges.append((ren[u], ren[v]))
        g = Graph.from_edges(total, edges)
        if g.q != e_total:
            return None
        cg = ColoredGraph(g, vcol, ecol)
        return cg if check(cg, proper).ok else None

    # per part: the given coloring first, then alternates found by a
    # small enumeration (translations shift the anchors enough that a
    # single witness rarely fits every slot)
    cand, truncated = [], False
    for part in parts:
        alts, cut = _recolorings(part.graph)
        truncated |= cut
        cand.append([part] + [a for a in alts if a.vcolor != part.vcolor])
    tried = 0
    for colored in itertools.product(*cand):
        pool = []
        for i, part in enumerate(colored):
            px, py = ordered_bipartition(part)
            pool.append(sorted(px) if i < s else sorted(py))
        for anchors in itertools.product(*pool):
            tried += 1
            if tried > attempt_cap:
                return INCONCLUSIVE
            got = attempt(colored, anchors)
            if got is not None:
                return got
    return INCONCLUSIVE if truncated else None


_WEAK = "set-ordered-weak-gracefully-total"


def _require_weak(parts):
    p = get_preset(_WEAK)
    for i, part in enumerate(parts):
        if not check(part, p).ok:
            raise GraphError(f"part {i} fails the weak set-ordered check")


def _search_candidates(graphs, budget):
    """First weak witness over the candidate graphs; None when every
    candidate is refuted, INCONCLUSIVE when the candidate cap or a
    search budget was hit."""
    budget_hit = False
    for tried, g in enumerate(graphs, 1):
        if tried > _JUNCTION_CANDIDATE_CAP:
            return INCONCLUSIVE
        found = search(g, _WEAK, budget=budget)
        if found is INCONCLUSIVE:
            budget_hit = True
        elif found is not None:
            return found
    return INCONCLUSIVE if budget_hit else None


def hand_in_hand(parts, budget=None):
    """Chain the parts by coinciding one vertex of each consecutive
    pair, searching junction choices until a set-ordered weak
    gracefully total coloring is found."""
    _require_weak(parts)
    gs = [p.graph for p in parts]

    def candidates():
        pools = []
        for k in range(1, len(gs)):
            pools.append(itertools.product(range(gs[k - 1].n),
                                           range(gs[k].n)))
        for picks in itertools.product(*[list(p) for p in pools]):
            parent = list(range(sum(g.n for g in gs)))

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v
            off = [0]
            for g in gs[:-1]:
                off.append(off[-1] + g.n)
            for k, (u, v) in enumerate(picks):
                parent[find(off[k + 1] + v)] = find(off[k] + u)
            rep = {}
            edges, ok = set(), True
            for k, g in enumerate(gs):
                for u, v in g.sorted_edges():
                    a, b = find(off[k] + u), find(off[k] + v)
                    if a == b or edge(a, b) in edges:
                        ok = False
                        break
                    edges.add(edge(a, b))
                if not ok:
                    break
            if not ok:
                continue
            ids = sorted({find(v) for v in range(len(parent))})
            ren = {r: i for i, r in enumerate(ids)}
            yield Graph.from_edges(
                len(ids), [(ren[a], ren[b]) for a, b in edges])
    return _search_candidates(candidates(), budget)


def single_series(parts, budget=None):
    """Chain the parts with one new edge between consecutive parts."""
    _require_weak(parts)
    gs = [p.graph for p in parts]
    off = [0]
    for g in gs:
        off.append(off[-1] + g.n)

    def candidates():
        pools = [itertools.product(range(gs[k - 1].n), range(gs[k].n))
                 for k in range(1, len(gs))]
        for picks in itertools.product(*[list(p) for p in pools]):
            edges = [(off[k] + u, off[k] + v)
                     for k, g in enumerate(gs) for u, v in g.sorted_edges()]
            edges += [(off[k] + u, off[k + 1] + v)
                      for k, (u, v) in enumerate(picks)]
            yield Graph.from_edges(off[-1], edges)
    return _search_candidates(candidates(), budget)


def f_graph(f: ColoredGraph, parts, budget=None):
    """Coincide one vertex of each part with the matching vertex of the
    frame graph f; frame edges become edges between the chosen part
    vertices."""
    _require_weak(list(parts) + [f])
    if f.graph.n != len(parts):
        raise GraphError("frame needs one vertex per part")
    gs = [p.graph for p in parts]
    off = [0]
    for g in gs:
        off.append(off[-1] + g.n)

    def candidates():
        for picks in itertools.product(*(range(g.n) for g in gs)):
            edges = [(off[k] + u, off[k] + v)
                     for k, g in enumerate(gs) for u, v in g.sorted_edges()]
            dup = False
            for a, b in f.graph.sorted_edges():
                e = edge(off[a] + picks[a], off[b] + picks[b])
                if e in [edge(u, v) for u, v in edges]:
                    dup = True
                    break
                edges.append(e)
            if dup:
                continue
            yield Graph.from_edges(off[-1], edges)
    return _search_candidates(candidates(), budget)
