"""Shared pieces of the benchmark: query records, loaders, and the
raw-definition helpers that the answer checks are built from.

Nothing in this file calls topocoding.  A check decides whether an
answer is right from the definitions, from `tests/oracles.py`, from
networkx, or from the frozen values in `known_values.json`.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# Per-query node budget handed to every search entry point that takes one.
NODE_BUDGET = 10_000

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Verdict:
    """Outcome of one query.

    status: ok, failed (raised, or the CLI gave another exit code than
    the one the input calls for) or wrong (an answer the check rejects).
    decided: a witness, a proven None or a number came back; an
    inconclusive answer or a failure is undecided.
    """
    status: str
    decided: bool
    note: str = ""


@dataclass
class Query:
    qid: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Verdict]


class Undecidable(Exception):
    """An independent search ran past its own node limit."""


def load_known():
    with open(os.path.join(BENCH, "known_values.json")) as fh:
        return json.load(fh)


def load_oracles():
    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# ---------------------------------------------------------------------------
# raw graphs: n plus a list of (u, v) pairs with u < v

def norm(edges):
    return sorted(tuple(sorted(e)) for e in edges)


def adjacency(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(n, edges):
    adj = adjacency(n, edges)
    seen, out = set(), []
    for s in range(n):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        out.append(comp)
    return out


def is_connected(n, edges):
    return n > 0 and len(components(n, edges)) == 1


def is_tree(n, edges):
    return len(edges) == n - 1 and is_connected(n, edges)


def sides(n, edges):
    """Two-coloring {vertex: 0|1} of a bipartite graph, else None."""
    adj = adjacency(n, edges)
    side = {}
    for s in range(n):
        if s in side:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in side:
                    side[y] = 1 - side[x]
                    stack.append(y)
                elif side[y] == side[x]:
                    return None
    return side


def named(name):
    """Raw (n, edges) of P<n>, C<n>, K<n> and K<a><b> (complete bipartite)."""
    kind, rest = name[0], name[1:]
    if kind == "P":
        n = int(rest)
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "C":
        n = int(rest)
        return n, norm((i, (i + 1) % n) for i in range(n))
    if kind == "K" and len(rest) == 1:
        n = int(rest)
        return n, list(itertools.combinations(range(n), 2))
    if kind == "K" and len(rest) == 2:
        a, b = int(rest[0]), int(rest[1])
        return a + b, [(i, a + j) for i in range(a) for j in range(b)]
    raise ValueError(name)


def union(*parts):
    n, edges = 0, []
    for m, es in parts:
        edges += [(u + n, v + n) for u, v in es]
        n += m
    return n, edges


def relabel(n, edges, perm):
    return norm((perm[u], perm[v]) for u, v in edges)


def has_hamilton_cycle(n, edges):
    adj = adjacency(n, edges)
    if n < 3:
        return False
    path = [0]
    used = {0}

    def rec():
        if len(path) == n:
            return 0 in adj[path[-1]]
        for y in sorted(adj[path[-1]]):
            if y not in used:
                used.add(y)
                path.append(y)
                if rec():
                    return True
                path.pop()
                used.discard(y)
        return False

    return rec()


# ---------------------------------------------------------------------------
# labellings with induced |difference| edge labels

def label_spec(preset, q):
    """(largest vertex label, edge label set, set-ordered?)"""
    if preset == "graceful":
        return q, set(range(1, q + 1)), False
    if preset == "set-ordered-graceful":
        return q, set(range(1, q + 1)), True
    if preset == "odd-graceful":
        return 2 * q - 1, set(range(1, 2 * q, 2)), False
    raise ValueError(f"no raw definition for {preset!r}")


def labelling_ok(n, edges, vcol, preset, oracles):
    """Injective labels in [0, top] whose edge differences are exactly
    the target set (and, when asked, one side below the other)."""
    q = len(edges)
    top, target, ordered = label_spec(preset, q)
    labels = [vcol.get(v) for v in range(n)]
    if None in labels or len(set(labels)) != n:
        return False
    if min(labels) < 0 or max(labels) > top:
        return False
    diffs = [abs(labels[u] - labels[v]) for u, v in edges]
    if len(set(diffs)) != q or set(diffs) != target:
        return False
    return not ordered or oracles._is_set_ordered(n, edges, labels)


def find_labelling(n, edges, preset, node_limit=5_000_000):
    """Exhaustive search for a labelling; None when there is none.

    Set-ordered searches are for trees only: with n = q + 1 distinct
    labels in [0, q] every label is used, so the low side holds exactly
    the labels 0 .. |low| - 1.
    """
    q = len(edges)
    top, target, ordered = label_spec(preset, q)
    adj = adjacency(n, edges)
    order = []
    for comp in components(n, edges):
        start = min(comp)
        seen, frontier = {start}, [start]
        while frontier:
            order.extend(frontier)
            nxt = []
            for x in frontier:
                for y in sorted(adj[x]):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
    if ordered:
        if n != q + 1:
            raise ValueError("set-ordered search is for trees")
        side = sides(n, edges)
        domains = []
        for low in (0, 1):
            size = sum(1 for v in range(n) if side[v] == low)
            domains.append({v: range(0, size) if side[v] == low
                            else range(size, q + 1) for v in range(n)})
    else:
        domains = [{v: range(0, top + 1) for v in range(n)}]
    ticks = [0]

    def attempt(dom):
        lab, used_l, used_d = {}, set(), set()

        def rec(i):
            if i == n:
                return dict(lab)
            v = order[i]
            for c in dom[v]:
                if c in used_l:
                    continue
                ticks[0] += 1
                if ticks[0] > node_limit:
                    raise Undecidable(preset)
                ds = []
                for u in adj[v]:
                    if u in lab:
                        d = abs(lab[u] - c)
                        if d not in target or d in used_d or d in ds:
                            break
                        ds.append(d)
                else:
                    lab[v] = c
                    used_l.add(c)
                    used_d.update(ds)
                    got = rec(i + 1)
                    if got is not None:
                        return got
                    del lab[v]
                    used_l.discard(c)
                    used_d.difference_update(ds)
            return None

        return rec(0)

    for dom in domains:
        got = attempt(dom)
        if got is not None:
            return got
    return None


def find_gtc(n, edges, rng, set_ordered=False):
    """A gracefully total coloring (vertex colors in [1, q+1], min 1, a
    repeated vertex color, adjacent vertices distinct, edge colors the
    endpoint differences covering [1, q]); colors tried in random order."""
    q = len(edges)
    adj = adjacency(n, edges)
    side = sides(n, edges) if set_ordered else None
    vals = list(range(1, q + 2))
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    col, used_d = {}, set()

    def rec(i):
        if i == n:
            vs = list(col.values())
            if min(vs) != 1 or len(set(vs)) == n:
                return None
            if side is not None:
                a = [col[v] for v in range(n) if side[v] == 0]
                b = [col[v] for v in range(n) if side[v] == 1]
                if not (max(a) < min(b) or max(b) < min(a)):
                    return None
            return dict(col)
        v = order[i]
        for c in rng.sample(vals, len(vals)):
            ds = []
            for u in adj[v]:
                if u in col:
                    d = abs(col[u] - c)
                    if d == 0 or d in used_d or d in ds:
                        break
                    ds.append(d)
            else:
                col[v] = c
                used_d.update(ds)
                got = rec(i + 1)
                if got is not None:
                    return got
                del col[v]
                used_d.difference_update(ds)
        return None

    vcol = rec(0)
    if vcol is None:
        return None
    return vcol, {(u, v): abs(vcol[u] - vcol[v]) for u, v in edges}


# ---------------------------------------------------------------------------
# metric total colorings

def metric_values(kind, fu, fv, fe):
    if kind == "emt":
        return fu + fv + fe
    if kind == "edt":
        return fe + abs(fu - fv)
    if kind == "fdt":
        return abs(fu + fv - fe)
    return abs(abs(fu - fv) - fe)


def chi_total(n, edges, kind, max_m=14):
    """Least M with a fully proper total coloring in [1, M] whose metric
    value is one constant over all edges (plain sweep over M and k)."""
    edges = norm(edges)
    back = {v: [e for e in edges if max(e) == v] for v in range(n)}
    adj = adjacency(n, edges)
    for m in range(2, max_m + 1):
        for k in range(0, 3 * m + 1):
            if _total_exists(n, back, adj, m, kind, k):
                return m
    return None


def _total_exists(n, back, adj, m, kind, k):
    vcol, ecol, at = {}, {}, {v: set() for v in range(n)}

    def edge_opts(fu, fv):
        return [c for c in range(1, m + 1)
                if metric_values(kind, fu, fv, c) == k]

    def place(v, todo):
        if not todo:
            return rec(v + 1)
        u, w = todo[0]
        other = u if w == v else w
        for c in edge_opts(vcol[other], vcol[v]):
            if c in (vcol[u], vcol[w]) or c in at[u] or c in at[w]:
                continue
            ecol[(u, w)] = c
            at[u].add(c)
            at[w].add(c)
            if place(v, todo[1:]):
                return True
            del ecol[(u, w)]
            at[u].discard(c)
            at[w].discard(c)
        return False

    def rec(v):
        if v == n:
            return True
        for c in range(1, m + 1):
            if any(vcol.get(u) == c for u in adj[v]):
                continue
            vcol[v] = c
            if place(v, back[v]):
                return True
            del vcol[v]
        return False

    return rec(0)


# ---------------------------------------------------------------------------
# Topcode matrices and the graphs that match them

def matrix_of(n, edges, vcol, ecol):
    """(x, e, y) rows: one column per edge, smaller end color on top."""
    cols = sorted((min(vcol[u], vcol[v]), ecol[(u, v)], max(vcol[u], vcol[v]))
                  for u, v in norm(edges))
    return (tuple(c[0] for c in cols), tuple(c[1] for c in cols),
            tuple(c[2] for c in cols))


def normalized_columns(x, e, y):
    return sorted((min(a, c), b, max(a, c)) for a, b, c in zip(x, e, y))


def route_tokens(x, e, y, route):
    """Reading routes 1 and 3 of a matrix, as printed in the paper."""
    q = len(e)
    if route == 1:
        return list(x) + list(reversed(e)) + list(y)
    if route == 3:
        out = []
        for i in range(q):
            trip = [x[i], e[i], y[i]]
            out.extend(trip if i % 2 == 0 else trip[::-1])
        return out
    raise ValueError(route)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def colored_nx(n, vcol, ecol):
    import networkx as nx
    g = nx.Graph()
    for v in range(n):
        g.add_node(v, c=vcol[v])
    for (u, v), c in ecol.items():
        g.add_edge(u, v, c=c)
    return g


def distinct_classes(graphs):
    """Representatives of the colored-isomorphism classes of nx graphs."""
    import networkx as nx
    from networkx.algorithms.isomorphism import (categorical_edge_match,
                                                 categorical_node_match)
    nm = categorical_node_match("c", None)
    em = categorical_edge_match("c", None)
    buckets = {}
    reps = []
    for g in graphs:
        key = nx.weisfeiler_lehman_graph_hash(g, node_attr="c", edge_attr="c")
        bucket = buckets.setdefault(key, [])
        if any(nx.is_isomorphic(g, h, node_match=nm, edge_match=em)
               for h in bucket):
            continue
        bucket.append(g)
        reps.append(g)
    return reps


def unique_ends(x, e, y):
    """True when edge colors all differ and no edge has equal end colors.

    Then a colored isomorphism between two graphs with this matrix maps
    every end slot to itself, so two such graphs are isomorphic exactly
    when they merge the same slots."""
    return len(set(e)) == len(e) and all(a != b for a, b in zip(x, y))


def slot_signature(vcol, ecol):
    """The merged slots of a graph whose matrix has unique ends: for each
    vertex, its incident edge colors marked by which end it is."""
    ends = {}
    for (u, v), c in ecol.items():
        lo, hi = (u, v) if vcol[u] < vcol[v] else (v, u)
        ends.setdefault(lo, set()).add((c, "x"))
        ends.setdefault(hi, set()).add((c, "y"))
    return frozenset(frozenset(s) for s in ends.values())


def count_matching_graphs(x, e, y):
    """Number of colored graphs, up to isomorphism, with matrix (x, e, y):
    merge equal-valued end slots every possible way, drop loops and
    repeated edges, keep one graph per class."""
    q = len(e)
    value = {("x", i): x[i] for i in range(q)}
    value.update({("y", i): y[i] for i in range(q)})
    classes = {}
    for s, val in value.items():
        classes.setdefault(val, []).append(s)

    def graphs():   # a generator, so only class representatives are kept
        for combo in itertools.product(
                *(list(set_partitions(c)) for c in classes.values())):
            blocks = [b for part in combo for b in part]
            vid = {s: i for i, b in enumerate(blocks) for s in b}
            ecol = {}
            for i in range(q):
                u, v = vid[("x", i)], vid[("y", i)]
                key = (min(u, v), max(u, v))
                if u == v or key in ecol:
                    break
                ecol[key] = e[i]
            else:
                yield len(blocks), {vid[s]: value[s] for s in value}, ecol

    if unique_ends(x, e, y):
        return sum(1 for _ in graphs())
    return len(distinct_classes(colored_nx(*g) for g in graphs()))
