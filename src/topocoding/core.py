"""Simple undirected graphs plus the structural operations everything else builds on.

Vertices are dense integers 0..n-1.  Operations renumber deterministically:
new vertices are appended, removed vertices compress the numbering downward.
All values are immutable once built; every operation returns a fresh object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class GraphError(ValueError):
    """Precondition violated by a structural operation."""


# Default vertex cap for isomorphism-dependent operations: 2q at the
# matching_graphs cap q <= 10, so every graph a matrix matches fits.
ISO_CAP = 20


def edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise GraphError("loops are not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("negative vertex count")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError("edge endpoint out of range")
            if u >= v:
                raise GraphError("edges must be stored as (u, v) with u < v")

    @staticmethod
    def from_edges(n, pairs) -> "Graph":
        return Graph(n, frozenset(edge(u, v) for u, v in pairs))

    @property
    def q(self) -> int:
        return len(self.edges)

    def neighbors(self, x):
        return {v if u == x else u for u, v in self.edges if x in (u, v)}

    def adjacency(self):
        adj = {v: set() for v in range(self.n)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degree(self, x) -> int:
        return len(self.neighbors(x))

    def has_edge(self, u, v) -> bool:
        return edge(u, v) in self.edges

    def sorted_edges(self):
        return sorted(self.edges)


@dataclass(frozen=True)
class ColoredGraph:
    """A graph together with vertex and edge colors (nonnegative integers).

    Labellings may use 0; proper total colorings use colors >= 1.  Which
    convention applies is decided by the coloring preset, not here.
    """

    graph: Graph
    vcolor: dict
    ecolor: dict

    def __post_init__(self):
        for v, c in self.vcolor.items():
            if not (0 <= v < self.graph.n) or c < 0:
                raise GraphError("bad vertex color entry")
        for e, c in self.ecolor.items():
            if e not in self.graph.edges or c < 0:
                raise GraphError("bad edge color entry")

    def is_total(self) -> bool:
        return (len(self.vcolor) == self.graph.n
                and len(self.ecolor) == self.graph.q)

    def vset(self):
        return set(self.vcolor.values())

    def eset(self):
        return set(self.ecolor.values())

    def max_color(self) -> int:
        vals = list(self.vcolor.values()) + list(self.ecolor.values())
        return max(vals) if vals else 0


@dataclass(frozen=True)
class VertexSplitSpec:
    vertex: int
    part_a: frozenset
    part_b: frozenset


# ---------------------------------------------------------------------------
# basic constructors

def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite(m, n):
    return Graph.from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star_graph(n):
    """K_{1,n} with center 0 and leaves 1..n."""
    return Graph.from_edges(n + 1, [(0, j) for j in range(1, n + 1)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = {(u + g.n, v + g.n) for u, v in h.edges}
    return Graph(g.n + h.n, g.edges | frozenset(shifted))


def colored_disjoint_union(a: ColoredGraph, b: ColoredGraph) -> ColoredGraph:
    g = disjoint_union(a.graph, b.graph)
    vc = dict(a.vcolor)
    vc.update({v + a.graph.n: c for v, c in b.vcolor.items()})
    ec = dict(a.ecolor)
    ec.update({(u + a.graph.n, v + a.graph.n): c for (u, v), c in b.ecolor.items()})
    return ColoredGraph(g, vc, ec)


def connected_components(g: Graph):
    adj = g.adjacency()
    seen, comps = set(), []
    for root in range(g.n):
        if root in seen:
            continue
        comp, stack = set(), [root]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def find_cycle(g: Graph):
    """Deterministic DFS cycle finder; returns the cycle's vertex list or None."""
    adj = {v: sorted(ns) for v, ns in g.adjacency().items()}
    color = {}
    parent = {}
    for root in range(g.n):
        if root in color:
            continue
        stack = [(root, None)]
        while stack:
            x, par = stack.pop()
            if x in color:
                continue
            color[x] = 1
            parent[x] = par
            for y in adj[x]:
                if y == par:
                    continue
                if y in color:
                    # walk back from x to y
                    cyc = [x]
                    while cyc[-1] != y:
                        cyc.append(parent[cyc[-1]])
                    return cyc
                stack.append((y, x))
    return None


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.q == g.n - 1


def _renumber(g: Graph, removed):
    """Drop the given vertices and compress ids; returns (Graph, old->new map)."""
    removed = set(removed)
    keep = [v for v in range(g.n) if v not in removed]
    remap = {old: new for new, old in enumerate(keep)}
    edges = frozenset(edge(remap[u], remap[v]) for u, v in g.edges
                      if u not in removed and v not in removed)
    return Graph(len(keep), edges), remap


# ---------------------------------------------------------------------------
# split / coincide operations

def vertex_split(g: Graph, spec: VertexSplitSpec) -> Graph:
    x = spec.vertex
    nbrs = g.neighbors(x)
    if len(nbrs) < 2:
        raise GraphError("vertex-split needs degree >= 2")
    a, b = set(spec.part_a), set(spec.part_b)
    if not a or not b or (a & b) or (a | b) != nbrs:
        raise GraphError("invalid neighbor partition")
    # x keeps its id and the part_a neighbors; the new vertex n gets part_b
    new = g.n
    edges = set(g.edges)
    for y in b:
        edges.discard(edge(x, y))
        edges.add(edge(new, y))
    return Graph(g.n + 1, frozenset(edges))


def vertex_coincide(g, x: int, y: int):
    """Merge the higher of x, y into the lower and compress the ids.

    g is a Graph or a ColoredGraph; a colored input needs equal colors on
    x and y and keeps every color.
    """
    colored = isinstance(g, ColoredGraph)
    cg, g = (g, g.graph) if colored else (None, g)
    if x == y:
        raise GraphError("cannot coincide a vertex with itself")
    if g.has_edge(x, y):
        raise GraphError("edge-protected coinciding rejects adjacent vertices")
    if g.neighbors(x) & g.neighbors(y):
        raise GraphError("vertices share a neighbor; coinciding would duplicate an edge")
    if colored and cg.vcolor[x] != cg.vcolor[y]:
        raise GraphError(f"coincided vertices have colors {cg.vcolor[x]} "
                         f"and {cg.vcolor[y]}")
    lo, hi = min(x, y), max(x, y)
    edges = set()
    for u, v in g.edges:
        u2 = lo if u == hi else u
        v2 = lo if v == hi else v
        edges.add(edge(u2, v2))
    out, remap = _renumber(Graph(g.n, frozenset(edges)), [hi])
    if not colored:
        return out
    remap[hi] = remap[lo]
    vc = {remap[v]: c for v, c in cg.vcolor.items() if v != hi}
    ec = {edge(remap[u], remap[v]): c for (u, v), c in cg.ecolor.items()}
    return ColoredGraph(out, vc, ec)


def _edge_split(g: Graph, u: int, v: int) -> Graph:
    """Replace the edge uv by pendant edges u-v' and v-u', v' = n, u' = n+1."""
    edges = set(g.edges)
    edges.discard(edge(u, v))
    edges.add(edge(u, g.n))
    edges.add(edge(v, g.n + 1))
    return Graph(g.n + 2, frozenset(edges))


def leaf_split(cg: ColoredGraph, e) -> ColoredGraph:
    u, v = e
    g = cg.graph
    if not g.has_edge(u, v):
        raise GraphError("no such edge")
    if g.degree(u) < 2 or g.degree(v) < 2:
        raise GraphError("leaf-split endpoints must both have degree >= 2")
    if not cg.is_total():
        raise GraphError("leaf-split needs a total coloring")
    vp, up = g.n, g.n + 1            # v' hangs on u, u' hangs on v
    vc = dict(cg.vcolor)
    ec = {k: c for k, c in cg.ecolor.items() if k != edge(u, v)}
    ecol = cg.ecolor[edge(u, v)]
    vc[vp] = cg.vcolor[v]
    vc[up] = cg.vcolor[u]
    ec[edge(u, vp)] = ecol
    ec[edge(v, up)] = ecol
    return ColoredGraph(_edge_split(g, u, v), vc, ec)


def leaf_coincide(cg: ColoredGraph, e1, e2) -> ColoredGraph:
    """Merge two pendant edges (u, v') and (v, u') back into the edge uv."""
    g = cg.graph
    (a1, b1), (a2, b2) = tuple(e1), tuple(e2)
    if edge(a1, b1) not in g.edges or edge(a2, b2) not in g.edges:
        raise GraphError("no such edge")
    # orient: second component of each pair must be the leaf
    def orient(a, b):
        if g.degree(b) == 1:
            return a, b
        if g.degree(a) == 1:
            return b, a
        raise GraphError("leaf-coincide needs a pendant edge")
    u, vp = orient(a1, b1)
    v, up = orient(a2, b2)
    if len({u, vp, v, up}) != 4:
        raise GraphError("pendant edges must be disjoint")
    if cg.vcolor[vp] != cg.vcolor[v] or cg.vcolor[up] != cg.vcolor[u]:
        raise GraphError("leaf colors do not match the opposite anchors")
    c1, c2 = cg.ecolor[edge(u, vp)], cg.ecolor[edge(v, up)]
    if c1 != c2:
        raise GraphError("pendant edge colors differ")
    if g.has_edge(u, v):
        raise GraphError("anchors already adjacent; result would be a multigraph")
    edges = set(g.edges)
    edges.discard(edge(u, vp))
    edges.discard(edge(v, up))
    edges.add(edge(u, v))
    merged = Graph(g.n, frozenset(edges))
    out, remap = _renumber(merged, [vp, up])
    vc = {remap[x]: c for x, c in cg.vcolor.items() if x not in (vp, up)}
    ec = {}
    for (x, y), c in cg.ecolor.items():
        if (x, y) in (edge(u, vp), edge(v, up)):
            continue
        ec[edge(remap[x], remap[y])] = c
    ec[edge(remap[u], remap[v])] = c1
    return ColoredGraph(out, vc, ec)


def vertex_substitute(g: Graph, x: int, h: Graph, attach: dict,
                      fully_replacing: bool = False) -> Graph:
    """Remove x and wire its former neighbors into a fresh copy of h."""
    nbrs = sorted(g.neighbors(x))
    if h.n < len(nbrs):
        raise GraphError("replacement graph too small for the vertex degree")
    if set(attach) != set(nbrs):
        raise GraphError("attach map must cover exactly the neighbors of x")
    if any(not (0 <= attach[y] < h.n) for y in nbrs):
        raise GraphError("attach image out of range")
    if fully_replacing and len(set(attach.values())) != len(nbrs):
        raise GraphError("fully-replacing substitution needs an injective attach map")
    base, remap = _renumber(g, [x])
    off = base.n
    edges = set(base.edges)
    edges |= {edge(u + off, v + off) for u, v in h.edges}
    for y in nbrs:
        edges.add(edge(remap[y], attach[y] + off))
    return Graph(base.n + h.n, frozenset(edges))


# ---------------------------------------------------------------------------
# derived structural operations

def complement(g: Graph) -> Graph:
    full = {edge(u, v) for u, v in itertools.combinations(range(g.n), 2)}
    return Graph(g.n, frozenset(full - g.edges))


def bipartition(g: Graph):
    """2-coloring by BFS; vertex 0's side is X.  None on an odd cycle."""
    side = {}
    adj = g.adjacency()
    for root in range(g.n):
        if root in side:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            x = queue.pop(0)
            for y in sorted(adj[x]):
                if y not in side:
                    side[y] = 1 - side[x]
                    queue.append(y)
                elif side[y] == side[x]:
                    return None
    xs = {v for v, s in side.items() if s == 0}
    ys = {v for v, s in side.items() if s == 1}
    return xs, ys


def is_delta_saturated(g: Graph) -> bool:
    degs = [g.degree(v) for v in range(g.n)]
    if not degs:
        return True
    dmax = max(degs)
    return all(d in (1, dmax) for d in degs)


def degree_sequence(g: Graph):
    return tuple(sorted((g.degree(v) for v in range(g.n)), reverse=True))


def erdos_gallai_check(d) -> bool:
    d = sorted(d, reverse=True)
    if any(x < 0 for x in d):
        return False
    if sum(d) % 2:
        return False
    n = len(d)
    for k in range(1, n + 1):
        lhs = sum(d[:k])
        rhs = k * (k - 1) + sum(min(k, d[i]) for i in range(k, n))
        if lhs > rhs:
            return False
    return True


def check_homomorphism(g: Graph, h: Graph, mapping: dict) -> bool:
    if set(mapping) != set(range(g.n)):
        return False
    for u, v in g.edges:
        a, b = mapping[u], mapping[v]
        if a == b or not h.has_edge(a, b):
            return False
    return True


def graph_to_tree(g: Graph, mode: str) -> Graph:
    """Open every cycle of a connected graph, producing a tree.

    mode "vertex-split": splits a cycle vertex per cycle; output has q+1
    vertices.  mode "leaf-split": splits a cycle edge into two pendant edges
    per cycle; output has 2q-p+2 vertices.
    """
    if not is_connected(g):
        raise GraphError("input must be connected")
    if mode not in ("vertex-split", "leaf-split"):
        raise GraphError("unknown mode")
    cur = g
    while True:
        cyc = find_cycle(cur)
        if cyc is None:
            return cur
        if mode == "vertex-split":
            # split the smallest cycle vertex, peeling off one cycle neighbor
            x = min(cyc)
            i = cyc.index(x)
            nb_on_cycle = cyc[(i + 1) % len(cyc)]
            rest = cur.neighbors(x) - {nb_on_cycle}
            cur = vertex_split(cur, VertexSplitSpec(x, frozenset({nb_on_cycle}),
                                                    frozenset(rest)))
        else:
            cur = _edge_split(cur, *edge(cyc[0], cyc[1]))


LEAF_SPLIT_COUNT_NOTE = (
    "leaf-split route: p + 2(q-p+1) = 2q-p+2 vertices; the source text "
    "states 2q-p+1, off by one from its own derivation")


# ---------------------------------------------------------------------------
# canonical forms and isomorphism

def _refine(nbrs, parts):
    """1-dimensional color refinement on an ordered partition.

    nbrs[v] lists (neighbor, edge color) pairs.
    """
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
                key = tuple(sorted((cell_of[w], c) for w, c in nbrs[v]))
                sig.setdefault(key, []).append(v)
            for key in sorted(sig):
                new_parts.append(sorted(sig[key]))
            if len(sig) > 1:
                changed = True
        parts = new_parts
        if not changed:
            return parts


def _orbit(points, generators):
    """The orbit of the points under the group the permutations span."""
    seen, todo = set(points), list(points)
    while todo:
        x = todo.pop()
        for gamma in generators:
            if gamma[x] not in seen:
                seen.add(gamma[x])
                todo.append(gamma[x])
    return seen


def canonical_form(g: Graph, vcolor=None, ecolor=None, cap: int = ISO_CAP) -> bytes:
    """Canonical byte encoding; equal iff the (colored) graphs are isomorphic.

    The encoding is the least one over the leaves of an
    individualize-and-refine tree, pruned by automorphisms (McKay and
    Piperno, "Practical graph isomorphism, II", 2014).  A leaf that
    encodes equal to the first or the best leaf gives an automorphism,
    and the search jumps back to where the two leaves' paths part.  A
    node branches on one vertex per orbit of the automorphisms found so
    far that fix its path pointwise.  Every pruned subtree is an
    automorphic image of a searched one, so the least encoding is the
    one the full tree would give.
    """
    if g.n > cap:
        raise GraphError(f"canonical_form capped at {cap} vertices")
    if g.n == 0:
        return b"empty"
    vcolor = vcolor or {}
    ecolor = ecolor or {}
    colored = [(u, v, ecolor.get((u, v), -1)) for u, v in g.edges]
    nbrs = [[] for _ in range(g.n)]
    for u, v, c in colored:
        nbrs[u].append((v, c))
        nbrs[v].append((u, c))

    groups = {}
    for v in range(g.n):
        groups.setdefault((vcolor.get(v, -1), len(nbrs[v])), []).append(v)
    parts = [sorted(groups[k]) for k in sorted(groups)]

    first = best = None          # (encoding, vertex order, path) of a leaf
    autos = []                   # automorphisms found at equal leaves

    def encode(order):
        pos = {v: i for i, v in enumerate(order)}
        rows = tuple(vcolor.get(v, -1) for v in order)
        es = tuple(sorted((min(pos[u], pos[v]), max(pos[u], pos[v]), c)
                          for u, v, c in colored))
        return (rows, es)

    def rec(parts, path):
        # returns the depth to jump back to, or None to go on
        nonlocal first, best
        parts = _refine(nbrs, parts)
        if all(len(c) == 1 for c in parts):
            order = [c[0] for c in parts]
            enc = encode(order)
            if first is None:
                first = best = (enc, order, path)
                return None
            for stored_enc, stored_order, stored_path in (first, best):
                if enc == stored_enc:
                    autos.append(dict(zip(order, stored_order)))
                    return next(i for i, (a, b) in
                                enumerate(zip(path, stored_path)) if a != b)
            if enc < best[0]:
                best = (enc, order, path)
            return None
        idx = next(i for i, c in enumerate(parts) if len(c) > 1)
        tried = []
        for v in parts[idx]:
            if autos and v in _orbit(tried, [a for a in autos if all(
                    a[p] == p for p in path)]):
                continue
            tried.append(v)
            branched = (parts[:idx] + [[v]] +
                        [[w for w in parts[idx] if w != v]] + parts[idx + 1:])
            back = rec(branched, path + [v])
            if back is not None and back < len(path):
                return back
        return None

    rec(parts, [])
    rows, es = best[0]
    return repr((g.n, rows, es)).encode()


def are_isomorphic(g: Graph, h: Graph, cap: int = ISO_CAP) -> bool:
    if g.n != h.n or g.q != h.q:
        return False
    return canonical_form(g, cap=cap) == canonical_form(h, cap=cap)


def colored_canonical_form(cg: ColoredGraph, cap: int = ISO_CAP) -> bytes:
    return canonical_form(cg.graph, cg.vcolor, cg.ecolor, cap=cap)


# ---------------------------------------------------------------------------
# symmetric doubling

def symmetrize(cg: ColoredGraph, root: int | None = None) -> ColoredGraph:
    """Join a graph to its mirror image through one bridge edge.

    Input: connected bipartite graph whose total coloring passes the
    graceful-difference style check (edge = |vertex difference|, edge set
    [1,q], vertex colors in [1,q+1] with a repeat).  Output carries the
    shifted coloring with edge colors exactly [1, 2q+1] and is set-ordered.
    """
    from .colorings import check, get_preset

    g = cg.graph
    bp = bipartition(g)
    if bp is None:
        raise GraphError("symmetrize needs a bipartite input")
    if not is_connected(g):
        raise GraphError("symmetrize needs a connected input")
    rep = check(cg, get_preset("gracefully-total"))
    if not rep.ok:
        raise GraphError(f"input is not gracefully-total: {rep.failed}")
    q = g.q
    if cg.max_color() > q + 1:
        raise GraphError("vertex colors above q+1 cannot be symmetrized set-ordered")
    if root is None:
        root = min(range(g.n), key=lambda v: (cg.vcolor[v], v))
    if cg.vcolor[root] == q + 1:
        raise GraphError("root color q+1 collides with the bridge edge color")
    xs, ys = bp
    double = disjoint_union(g, g)
    edges = set(double.edges) | {edge(root, root + g.n)}
    out = Graph(double.n, frozenset(edges))
    vc = {}
    for v in range(g.n):
        f = cg.vcolor[v]
        if v in xs:
            vc[v] = f                 # X low
            vc[v + g.n] = f + q + 1   # X' high
        else:
            vc[v] = f + q + 1         # Y high
            vc[v + g.n] = f           # Y' low
    ec = {e: abs(vc[e[0]] - vc[e[1]]) for e in out.edges}
    result = ColoredGraph(out, vc, ec)
    rep = check(result, get_preset("set-ordered-gracefully-total"))
    if not rep.ok:
        raise GraphError(f"symmetrized coloring failed validation: {rep.failed}")
    return result


# ---------------------------------------------------------------------------
# homomorphism sequence

@dataclass(frozen=True)
class HomomorphismStep:
    graph: Graph                 # G*_n (last vertex is the isolated z0)
    level: dict                  # vertex -> construction level
    theta: dict                  # valid homomorphism onto the previous graph
    theta_printed: dict          # the degree-2 -> z0 variant
    printed_valid: bool


def homomorphism_sequence(steps: int):
    """Iterated triangle growth with a homomorphism back at every step.

    Returns [step_0, ..., step_n]; step_0 has no maps.  theta is a genuine
    homomorphism (each new vertex maps to a common neighbor of its two
    anchors); theta_printed sends new vertices to the isolated vertex, which
    fails whenever there are new edges, and is kept only for reporting.
    """
    if steps < 0:
        raise GraphError("steps must be >= 0")
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    level = {0: 0, 1: 0, 2: 0}
    cur = tri
    out = [HomomorphismStep(disjoint_union(tri, Graph(1)), dict(level), {}, {}, True)]
    for n in range(1, steps + 1):
        targets = [e for e in cur.sorted_edges()
                   if {level[e[0]], level[e[1]]} == ({n - 1, n - 2} if n > 1 else {0})]
        edges = set(cur.edges)
        nxt_level = dict(level)
        theta = {v: v for v in range(cur.n)}
        new_id = cur.n
        anchors = {}
        for (u, v) in targets:
            edges.add(edge(new_id, u))
            edges.add(edge(new_id, v))
            nxt_level[new_id] = n
            anchors[new_id] = (u, v)
            new_id += 1
        nxt = Graph(new_id, frozenset(edges))
        z0 = nxt.n  # the isolated vertex appended below
        prev_star = out[-1].graph
        theta_printed = dict(theta)
        for gamma, (u, v) in anchors.items():
            # newer anchor first
            a, b = (u, v) if level[u] > level[v] else (v, u)
            others = sorted(cur.neighbors(a) - {b}) or sorted(cur.neighbors(b) - {a})
            theta[gamma] = others[0]
            theta_printed[gamma] = prev_star.n - 1  # previous z0
        star = disjoint_union(nxt, Graph(1))
        theta[z0] = prev_star.n - 1
        theta_printed[z0] = prev_star.n - 1
        printed_valid = check_homomorphism(star, prev_star, theta_printed)
        out.append(HomomorphismStep(star, nxt_level, theta, theta_printed,
                                    printed_valid))
        cur, level = nxt, nxt_level
    return out


# ---------------------------------------------------------------------------
# plain-text graph format

def to_text(cg: ColoredGraph) -> str:
    lines = [f"g {cg.graph.n}"]
    for v in sorted(cg.vcolor):
        lines.append(f"v {v} {cg.vcolor[v]}")
    for u, v in cg.graph.sorted_edges():
        if (u, v) in cg.ecolor:
            lines.append(f"e {u} {v} {cg.ecolor[(u, v)]}")
        else:
            lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> ColoredGraph:
    n = None
    vcolor, pairs, ecolor = {}, [], {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split()
        try:
            nums = [int(t) for t in fields]
        except ValueError:
            raise GraphError(
                f"line {lineno}: non-integer field in {line!r}") from None
        if kind == "g" and len(nums) == 1:
            n = nums[0]
        elif kind == "v" and len(nums) == 2:
            vcolor[nums[0]] = nums[1]
        elif kind == "e" and len(nums) in (2, 3):
            pairs.append((nums[0], nums[1]))
            if len(nums) == 3:
                ecolor[edge(nums[0], nums[1])] = nums[2]
        else:
            raise GraphError(f"line {lineno}: unrecognized record {line!r}")
    if n is None:
        raise GraphError("missing 'g <n>' header")
    return ColoredGraph(Graph.from_edges(n, pairs), vcolor, ecolor)
