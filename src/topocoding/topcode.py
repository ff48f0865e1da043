"""3xq matrix codes for colored graphs and the strings they induce.

A matrix holds the two end colors and the edge color of every edge, one
column per edge.  The same matrix usually matches several colored graphs
because equal end values may or may not be the same vertex; matching is
recovered by one search that assigns end slots to vertices in column
order and breaks the matrix's column symmetries as it goes (see
`matching_graphs`).

Strings are read off a matrix along one of six fixed routes (or any
permutation of the 3q slots).  Concatenation drops token boundaries, so
the string type keeps the tokens and exposes both the raw digit form and
a delimited form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (ColoredGraph, Graph, GraphError, colored_canonical_form,
                   edge, is_tree)
from .colorings import INCONCLUSIVE, check, get_preset

_DECOMPOSE_SEGMENTATION_CAP = 200_000


@dataclass(frozen=True)
class TopcodeMatrix:
    x: tuple
    e: tuple
    y: tuple

    def __post_init__(self):
        if not (len(self.x) == len(self.e) == len(self.y)):
            raise GraphError("rows must have equal length")

    @property
    def q(self):
        return len(self.e)

    def column(self, i):
        return (self.x[i], self.e[i], self.y[i])

    def columns(self):
        return [self.column(i) for i in range(self.q)]

    def evaluated(self, rule) -> bool:
        """True when rule(x_i, y_i) equals e_i in every column."""
        return all(rule(self.x[i], self.y[i]) == self.e[i]
                   for i in range(self.q))

    def normalized_columns(self):
        # orientation-free multiset view: smaller end color first
        return sorted((min(a, c), b, max(a, c)) for a, b, c in self.columns())


def from_graph(cg: ColoredGraph, edge_order=None) -> TopcodeMatrix:
    """One column per edge: (smaller end color, edge color, other end).

    Default column order sorts by end colors then edge color; ties on
    equal colors fall back to vertex ids.
    """
    if not cg.is_total():
        raise GraphError("matrix encoding needs a total coloring")
    if edge_order is None:
        edge_order = sorted(
            cg.graph.sorted_edges(),
            key=lambda ed: (sorted((cg.vcolor[ed[0]], cg.vcolor[ed[1]])),
                            cg.ecolor[ed], ed))
    elif set(edge_order) != set(cg.graph.sorted_edges()):
        raise GraphError("edge order must be a permutation of the edges")
    xs, es, ys = [], [], []
    for u, v in edge_order:
        if (cg.vcolor[v], v) < (cg.vcolor[u], u):
            u, v = v, u
        xs.append(cg.vcolor[u])
        es.append(cg.ecolor[edge(u, v)])
        ys.append(cg.vcolor[v])
    return TopcodeMatrix(tuple(xs), tuple(es), tuple(ys))


def _matching_leaves(t: TopcodeMatrix, max_vertices: int):
    """Yield one colored graph per leaf of the slot-assignment search.

    Slots are taken in column order x_0, y_0, x_1, y_1, ...; each joins
    an open block (vertex) of its value or opens a new one, and block ids
    follow the order in which blocks open.  Flipping a column whose ends
    have equal value swaps its two slots and changes nothing before
    them, so two rules keep the least partition of every flip orbit in
    the order of block ids read slot by slot:

    - old-first: x_i's block is older than y_i's;
    - tie rule: when x_i and y_i both open new blocks, the first later
      slot that joins either of them joins x_i's.
    """
    q = t.q
    value = [v for i in range(q) for v in (t.x[i], t.y[i])]
    vid = [0] * (2 * q)
    # per block, ids in order of opening; twin[b] is the block that must
    # take a later slot before b may (tie rule), or -1
    color, size, twin = [], [], []
    of_value, used = {}, set()

    def rec(s):
        if s == 2 * q:
            ecol = {edge(vid[2 * i], vid[2 * i + 1]): t.e[i]
                    for i in range(q)}
            yield ColoredGraph(Graph(len(color), frozenset(ecol)),
                               dict(enumerate(color)), ecol)
            return
        val = value[s]
        i, on_y = divmod(s, 2)
        u = vid[s - 1] if on_y else -1
        flip = on_y and t.x[i] == t.y[i]
        opened = of_value.setdefault(val, [])
        new = len(color)
        for b in (*opened, new) if new < max_vertices else opened:
            if on_y:
                pair = (u, b) if u < b else (b, u)
                if b == u or (flip and b < u) or pair in used:
                    continue
            if b == new:
                color.append(val)
                size.append(1)
                twin.append(u if flip and size[u] == 1 else -1)
                opened.append(b)
            elif twin[b] >= 0 and size[twin[b]] == 1:
                continue
            else:
                size[b] += 1
            vid[s] = b
            if on_y:
                used.add(pair)
            yield from rec(s + 1)
            if on_y:
                used.discard(pair)
            if b == new:
                color.pop()
                size.pop()
                twin.pop()
                opened.pop()
            else:
                size[b] -= 1

    return rec(0)


def matching_graphs(t: TopcodeMatrix, max_vertices=None):
    """All colored graphs whose matrix is t, up to isomorphism.

    A graph with matrix t is a partition of the 2q end slots into
    vertices, each holding slots of one value, with no loop and no
    repeated edge; its vertices number at most max_vertices (default
    2q).  The search assigns the slots one at a time and rejects a loop,
    a repeated edge or one vertex too many as soon as it forms, so every
    slot partition is built at most once and no Bell-number product of
    per-value partitions is ever formed.

    Two partitions give isomorphic graphs exactly when a column
    symmetry maps one to the other: permuting columns with equal
    normalized triples (min end, e, max end), or flipping a column whose
    ends have equal value, since a colored isomorphism must carry each
    edge to one with the same colors.  The search keeps one partition of
    every flip orbit (the old-first and tie rules of `_matching_leaves`),
    so when no normalized column repeats each leaf is its own class and
    no canonical form is computed.  Otherwise column permutations are
    left, and leaves are deduplicated by `colored_canonical_form`.

    Below the q <= 10 cap the output itself is the bound, and no search
    order can shrink it: the star with all colors equal has 794 classes
    at q = 5, 12,055 at q = 6 (about 0.3 s) and 233,238 at q = 7, a
    list of graphs that takes seconds to build and grows some twentyfold
    per added column.
    """
    if t.q > 10:
        raise GraphError("matching_graphs capped at q <= 10")
    if max_vertices is None:
        max_vertices = 2 * t.q
    if not 0 <= max_vertices <= 2 * t.q:
        raise GraphError("max_vertices must lie in [0, 2q]")
    leaves = _matching_leaves(t, max_vertices)
    columns = t.normalized_columns()
    if len(set(columns)) == len(columns):
        return list(leaves)
    out, seen = [], set()
    for cg in leaves:
        key = colored_canonical_form(cg)
        if key not in seen:
            seen.add(key)
            out.append(cg)
    return out


def union(t1: TopcodeMatrix, t2: TopcodeMatrix) -> TopcodeMatrix:
    return TopcodeMatrix(t1.x + t2.x, t1.e + t2.e, t1.y + t2.y)


def reciprocal(t: TopcodeMatrix) -> TopcodeMatrix:
    return TopcodeMatrix(t.x[::-1], t.e[::-1], t.y[::-1])


@dataclass(frozen=True)
class TBPaw:
    tokens: tuple
    provenance: object = None

    @property
    def digits(self) -> str:
        return "".join(str(t) for t in self.tokens)

    @property
    def delimited(self) -> str:
        return ".".join(str(t) for t in self.tokens)

    def reciprocal(self) -> "TBPaw":
        return TBPaw(self.tokens[::-1], ("reciprocal", self.provenance))


def _route_slots(q: int, route: int):
    """Slot order of the six reading routes, 0-based column indices.

    Routes 2, 4 and 6 read the reversed-column matrix along routes 1, 3
    and 5, which is exactly what the printed patterns spell out.
    """
    if route in (2, 4, 6):
        return [(row, q - 1 - i) for row, i in _route_slots(q, route - 1)]
    if route == 1:
        return ([("x", i) for i in range(q)]
                + [("e", i) for i in reversed(range(q))]
                + [("y", i) for i in range(q)])
    if route == 3:
        out = []
        for i in range(q):
            trip = [("x", i), ("e", i), ("y", i)]
            out.extend(trip if i % 2 == 0 else trip[::-1])
        return out
    if route == 5:
        if q < 3:
            raise GraphError("routes 5 and 6 need q >= 3")
        out = [("y", 1), ("y", 0), ("e", 0), ("x", 0), ("e", 1), ("y", 2)]
        for j in range(2, q - 1):  # 1-based columns 2..q-2
            trip = [("y", j + 1), ("e", j), ("x", j - 1)]
            out.extend(trip if j % 2 == 0 else trip[::-1])
        out.extend([("e", q - 1), ("x", q - 1), ("x", q - 2)])
        return out
    raise GraphError(f"unknown route {route!r}")


def tbpaw(t: TopcodeMatrix, route) -> TBPaw:
    """Read the matrix into a token string.

    route is 1..6 or a permutation of the 3q row-major slot positions
    (x row, then e row, then y row).
    """
    flat = list(t.x) + list(t.e) + list(t.y)
    if isinstance(route, int):
        rows = {"x": t.x, "e": t.e, "y": t.y}
        tokens = tuple(rows[r][i] for r, i in _route_slots(t.q, route))
        return TBPaw(tokens, route)
    perm = list(route)
    if sorted(perm) != list(range(3 * t.q)):
        raise GraphError("route permutation must cover all 3q slots")
    return TBPaw(tuple(flat[i] for i in perm), tuple(perm))


def ntbp(q: int) -> int:
    """(2q) (3q)! q!, the stated count of strings a size-q matrix yields."""
    if q < 1:
        raise GraphError("q must be at least 1")
    return 2 * q * math.factorial(3 * q) * math.factorial(q)


@dataclass(frozen=True)
class RealTopcodeMatrix:
    base: TopcodeMatrix
    alpha: Fraction
    beta: Fraction

    def entry(self, row, i):
        v = {"x": self.base.x, "e": self.base.e, "y": self.base.y}[row][i]
        return self.alpha + self.beta * v

    def rows(self):
        q = self.base.q
        return tuple(tuple(self.entry(r, i) for i in range(q))
                     for r in ("x", "e", "y"))


def real_valued(t: TopcodeMatrix, alpha, beta) -> RealTopcodeMatrix:
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta == 0:
        raise GraphError("beta must be nonzero")
    return RealTopcodeMatrix(t, alpha, beta)


def relation_holds(r: RealTopcodeMatrix, kind: int, k=None) -> bool:
    """Columnwise identities tying a base-matrix relation to the affine
    transform, checked on the columns where the base relation holds.

    1: e=|x-y|            -> E entry equals alpha + beta|x-y|
    2: x+e+y=k            -> transformed sum is 3 alpha + beta k
    3: e+|x-y|=k          -> transformed combination is alpha + beta k
    4: |x+y-e|=k          -> |X+Y-E| is alpha+beta k when x+y >= e,
                             |beta k - alpha| otherwise
    5: ||x-y|-e|=k        -> ||X-Y|-E| is alpha+beta k when |x-y| < e,
                             |beta k - alpha| otherwise
    """
    t, a, b = r.base, r.alpha, r.beta
    for i in range(t.q):
        x, e, y = t.x[i], t.e[i], t.y[i]
        rx, re, ry = (r.entry(row, i) for row in ("x", "e", "y"))
        if kind == 1:
            if e != abs(x - y):
                continue
            if re != a + b * abs(x - y):
                return False
        elif kind == 2:
            if x + e + y != k:
                continue
            if rx + re + ry != 3 * a + b * k:
                return False
        elif kind == 3:
            if e + abs(x - y) != k:
                continue
            if re + abs(rx - ry) != a + b * k:
                return False
        elif kind == 4:
            if abs(x + y - e) != k:
                continue
            want = a + b * k if x + y - e >= 0 else abs(b * k - a)
            if abs(rx + ry - re) != want:
                return False
        elif kind == 5:
            if abs(abs(x - y) - e) != k:
                continue
            want = a + b * k if abs(x - y) - e < 0 else abs(b * k - a)
            if abs(abs(rx - ry) - re) != want:
                return False
        else:
            raise GraphError(f"unknown relation kind {kind!r}")
    return True


def _compositions(total, parts):
    # ordered splits of total into the given number of positive parts
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def decompose_number_string(s: str, q: int, preset, route: int = 1):
    """Recover matrices and witnesses from a digit string.

    Tries every split of s into 3q decimal tokens (no leading zeros in
    multi-digit tokens), reads them back through the given route, and
    keeps matrices with a matching graph passing the preset.  Returns a
    list of (matrix, witness) in segmentation order, or the inconclusive
    marker when the split count exceeds the cap.
    """
    if q < 1 or q > 4:
        raise GraphError("decomposition capped at q in [1, 4]")
    if len(s) > 24:
        raise GraphError("string longer than 24 digits")
    if len(s) < 3 * q or not s.isdigit():
        raise GraphError("need a digit string of length at least 3q")
    if isinstance(preset, str):
        preset = get_preset(preset)
    if math.comb(len(s) - 1, 3 * q - 1) > _DECOMPOSE_SEGMENTATION_CAP:
        return INCONCLUSIVE
    slots = _route_slots(q, route)
    out, seen = [], set()
    for comp in _compositions(len(s), 3 * q):
        tokens, pos, ok = [], 0, True
        for width in comp:
            tok = s[pos:pos + width]
            if len(tok) > 1 and tok[0] == "0":
                ok = False
                break
            tokens.append(int(tok))
            pos += width
        if not ok:
            continue
        rows = {"x": [0] * q, "e": [0] * q, "y": [0] * q}
        for tok, (row, i) in zip(tokens, slots):
            rows[row][i] = tok
        t = TopcodeMatrix(tuple(rows["x"]), tuple(rows["e"]),
                          tuple(rows["y"]))
        if (t.x, t.e, t.y) in seen:
            continue
        seen.add((t.x, t.e, t.y))
        # one witness per matrix: the first search leaf passing the preset
        witness = next((cg for cg in _matching_leaves(t, 2 * q)
                        if check(cg, preset).ok), None)
        if witness is not None:
            out.append((t, witness))
    return out


def _ridge(t: Graph):
    leaves = {v for v in range(t.n) if t.degree(v) == 1}
    inner = [v for v in range(t.n) if v not in leaves]
    if not inner:
        # a single edge: pick the smaller id as the center
        if t.n == 2 and t.q == 1:
            return [0], True
        raise GraphError("not a caterpillar")
    ends = [v for v in inner if sum(1 for w in t.neighbors(v)
                                    if w in inner) <= 1]
    if len(inner) == 1:
        return inner, False
    if len(ends) != 2:
        raise GraphError("not a caterpillar")
    path = [ends[0]]
    prev = None
    while path[-1] != ends[1]:
        nxt = [w for w in t.neighbors(path[-1])
               if w in set(inner) and w != prev]
        if len(nxt) != 1:
            raise GraphError("not a caterpillar")
        prev = path[-1]
        path.append(nxt[0])
    if len(path) != len(inner):
        raise GraphError("not a caterpillar")
    return path, False


def topo_vector(t: Graph):
    """Leaf counts along the ridge of a caterpillar.

    The ridge is what remains after removing the leaves; of the two
    reading directions the lexicographically smaller vector is returned.
    A bare path is the degenerate case with no proper leaves: its two
    ends are read as ridge continuation, giving the zero vector over the
    n-2 inner vertices.
    """
    if not is_tree(t):
        raise GraphError("topological vector needs a tree")
    path, single_edge = _ridge(t)
    if single_edge:
        return (1,)
    if max(t.degree(v) for v in range(t.n)) <= 2:
        return tuple(0 for _ in path)
    leaves = {v for v in range(t.n) if t.degree(v) == 1}
    vec = [sum(1 for w in t.neighbors(u) if w in leaves) for u in path]
    return tuple(min(vec, vec[::-1]))


def realize_way1(terms):
    """A caterpillar whose vector is the weighted sum of the terms'.

    Every term is (coefficient, caterpillar); all ridges must have equal
    length and at least one coefficient must be positive.
    """
    vecs = [(a, topo_vector(t)) for a, t in terms]
    if sum(a for a, _ in vecs) < 1:
        raise GraphError("need at least one copy in total")
    lengths = {len(v) for _, v in vecs}
    if len(lengths) != 1:
        raise GraphError(f"ridge lengths differ: {sorted(lengths)}")
    n = lengths.pop()
    total = [sum(a * v[i] for a, v in vecs) for i in range(n)]
    if all(a == 0 for a in total):
        return Graph.from_edges(n + 2, [(i, i + 1) for i in range(n + 1)])
    edges = [(i, i + 1) for i in range(n - 1)]
    nxt = n
    for i, cnt in enumerate(total):
        for _ in range(cnt):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def realize_way2(terms):
    """A spider: one body vertex joined to the first ridge vertex of
    every caterpillar copy."""
    if sum(a for a, _ in terms) < 1:
        raise GraphError("need at least one copy in total")
    edges = []
    off = 1
    for a, t in terms:
        path, single_edge = _ridge(t)
        first = path[0]
        for _ in range(a):
            edges.append((0, off + first))
            edges.extend((off + u, off + v) for u, v in t.sorted_edges())
            off += t.n
    return Graph.from_edges(off, edges)
