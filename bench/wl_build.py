"""build-verify: construction commands sent through the CLI in process.

Every query is one `topocoding.cli.run(argv)` call with
`--format jsonlines` and stdout and stderr captured in memory; the input
files are written during set-up.  Queries build many fresh `Graph` and
`ColoredGraph` objects and run little search, so per-object costs (an
eager cache on `Graph`, say) show here, while the fixed cost of a CLI
call sets the median.

`graph to-tree` stays in the mix although the CLI's `vertex`/`leaf`
modes are rejected by `core.graph_to_tree` at the time of writing:
those queries count as failed operations and are listed by id.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from collections import Counter

import networkx as nx

from topocoding import cli

from common import (FAILED, NODE_BUDGET, OK, WRONG, Query, Verdict,
                    adjacency, find_gtc, has_hamilton_cycle, is_connected,
                    is_tree, matrix_of, metric_values, norm,
                    normalized_columns, relabel, route_tokens)

FAMILY_TAGS = ("GD", "SG", "ED", "BE", "EM", "EL", "EMmax", "FD", "SF",
               "FDeta")
FAMILY_SIZES = tuple(range(2, 9))
TREE_LABEL_MODES = ("edge-distinct", "edge-full-range", "edges-free")
ROUNDS = 32

MIX = {
    "iceflower-build": 10, "iceflower-ham": 2, "iceflower-decompose": 1,
    "group-build": 2, "group-verify": 5, "group-tree-label": 2,
    "lattice-enumerate": 1, "lattice-join": 1, "lattice-assemble": 1,
    "topcode-encode": 2, "topcode-tbpaw": 2,
    "graph-info": 2, "graph-canonical": 2, "graph-symmetrize": 1,
    "graph-to-tree": 2,
}


def cli_call(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(["--format", "jsonlines"] + argv)
        except SystemExit as ex:
            code = ex.code
    return code, out.getvalue(), err.getvalue()


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def values_of(recs, tag):
    return [r["value"] for r in recs if r["record"] == tag]


def text_graph(lines):
    """Parse `g n` / `v i c` / `e u v [c]` lines into (n, vcol, ecol)."""
    n, vcol, ecol = None, {}, {}
    for line in lines:
        tok = line.split()
        if not tok or tok[0].startswith("#"):
            continue
        if tok[0] == "g":
            n = int(tok[1])
        elif tok[0] == "v":
            vcol[int(tok[1])] = int(tok[2])
        elif tok[0] == "e":
            u, v = sorted((int(tok[1]), int(tok[2])))
            ecol[(u, v)] = int(tok[3]) if len(tok) > 3 else None
    return n, vcol, ecol


def graph_text(n, vcol, ecol):
    """The CLI's input format; an edge color of None is left out."""
    lines = [f"g {n}"]
    lines += [f"v {v} {vcol[v]}" for v in sorted(vcol)]
    for (u, v) in sorted(ecol):
        c = ecol[(u, v)]
        lines.append(f"e {u} {v}" if c is None else f"e {u} {v} {c}")
    return "\n".join(lines) + "\n"


class _Files:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, text):
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count:04d}.txt")
        with open(path, "w") as fh:
            fh.write(text)
        return path


def _random_tree(n, rng):
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return relabel(n, edges, rng.sample(range(n), n))


def _cyclic_graph(n, rng):
    """A connected graph with at least one cycle."""
    edges = set(_random_tree(n, rng))
    while len(edges) < n + rng.randint(0, 2):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return norm(edges)


def _gtc_tree(n, rng, set_ordered=False):
    while True:
        edges = _random_tree(n, rng)
        got = find_gtc(n, edges, rng, set_ordered)
        if got is not None:
            return (n, edges) + got


def _graph_lines(recs):
    return text_graph(values_of(recs, "graph"))


def _split_stars(values):
    """Star records come as '# star ...' markers followed by graph lines."""
    stars = []
    for v in values:
        if v.startswith("# star"):
            stars.append([])
        elif stars:
            stars[-1].append(v)
    return [text_graph(lines) for lines in stars]


def _is_star(n, vcol, ecol, center=None):
    if n < 2 or len(ecol) != n - 1 or sorted(vcol) != list(range(n)):
        return False
    if None in ecol.values():
        return False
    adj = adjacency(n, list(ecol))
    hubs = [v for v in range(n) if len(adj[v]) == n - 1]
    return bool(hubs) and (center is None or center in hubs)


def _plan_count(p, sizes, bounds):
    """Raw plan count of lattice.enumerate_lattice from its definition:
    copies on distinct host vertices, in every distinct order, with one
    vertex chosen on each copy."""
    total = 0
    for coeffs in itertools.product(*(range(b + 1) for b in bounds)):
        t = sum(coeffs)
        if t < 1 or t > p:
            continue
        orders = math.factorial(t) // math.prod(math.factorial(c)
                                                for c in coeffs)
        total += (orders * math.perm(p, t)
                  * math.prod(s ** c for s, c in zip(sizes, coeffs)))
    return total


class _Checks:
    def __init__(self, known, oracles):
        self.known = known
        self.oracles = oracles
        self.hash_of_class = {}
        self.class_of_hash = {}

    @staticmethod
    def exit(got, allow_inconclusive=False):
        """Verdict for a non-zero exit, or None when the run succeeded."""
        code, _, err = got
        if code == 0:
            return None
        if code == 3 and allow_inconclusive:
            return Verdict(OK, False, "inconclusive")
        return Verdict(FAILED, False, f"exit {code}: {err.strip()[:120]}")

    def iceflower_build(self, got, tag, n):
        bad = self.exit(got)
        if bad:
            return bad
        recs = records(got[1])
        known = self.known["iceflower"]
        manifest = values_of(recs, "manifest")[0]
        const = int(manifest.rsplit("constant=", 1)[1])
        stars = _split_stars(values_of(recs, "star"))
        if len(stars) != known["cardinality"][tag][str(n)]:
            return Verdict(WRONG, True, f"{len(stars)} stars")
        if const != known["constant"][tag][str(n)]:
            return Verdict(WRONG, True, f"constant {const}")
        kind = known["kind"][tag]
        for sn, vcol, ecol in stars:
            if not _is_star(sn, vcol, ecol):
                return Verdict(WRONG, True, "member is not a colored star")
            if any(metric_values(kind, vcol[u], vcol[v], c) != const
                   for (u, v), c in ecol.items()):
                return Verdict(WRONG, True, "member misses the constant")
        return Verdict(OK, True)

    def ham(self, got, degrees):
        bad = self.exit(got)
        if bad:
            return bad
        n, _, ecol = _graph_lines(records(got[1]))
        edges = norm(ecol)
        adj = adjacency(n, edges)
        if n != len(degrees) or any(len(adj[v]) != d
                                    for v, d in enumerate(degrees)):
            return Verdict(WRONG, True, "degree sequence not realized")
        if not has_hamilton_cycle(n, edges):
            return Verdict(WRONG, True, "graph is not hamiltonian")
        return Verdict(OK, True)

    def decompose(self, got, n, vcol, ecol):
        bad = self.exit(got)
        if bad:
            return bad
        recs = records(got[1])
        stars = _split_stars(values_of(recs, "star"))
        plan = [tuple(map(int, v.split())) for v in values_of(recs, "plan")]
        count = [r["stars"] for r in recs if r["record"] == "decompose"][0]
        if count != len(stars) or not all(_is_star(*s, center=0)
                                          for s in stars):
            return Verdict(WRONG, True, "not a list of stars")
        if sum(s[0] for s in stars) != n + 2 * len(plan) or \
                sum(len(s[2]) for s in stars) != len(ecol) + len(plan):
            return Verdict(WRONG, True, "star sizes do not add up")
        star_colors = Counter(c for s in stars for c in s[2].values())
        if Counter(ecol.values()) - star_colors or \
                (star_colors - Counter(ecol.values())).total() != len(plan):
            return Verdict(WRONG, True, "edge colors do not add up")
        for ci, lv, cj, lu in plan:
            for c, leaf in ((ci, lv), (cj, lu)):
                if not (0 <= c < len(stars) and 1 <= leaf < stars[c][0]):
                    return Verdict(WRONG, True, "plan refers to no leaf")
        return Verdict(OK, True)

    def group_build(self, got, n, q):
        bad = self.exit(got)
        if bad:
            return bad
        rec = [r for r in records(got[1]) if r["record"] == "group"][0]
        if (rec["order"], rec["p_w"], rec["q_w"]) != (n * q, n, q):
            return Verdict(WRONG, True, f"group record {rec}")
        return Verdict(OK, True)

    def group_verify(self, got):
        bad = self.exit(got)
        if bad:
            return bad
        rec = [r for r in records(got[1]) if r["record"] == "verify"][0]
        # index addition is Z_p x Z_q with a moved zero: every axiom holds
        if rec["passed"] is not True:
            return Verdict(WRONG, True, "axioms reported broken")
        return Verdict(OK, True)

    def tree_label(self, got, mode, n, edges, p_w, q_w):
        bad = self.exit(got, allow_inconclusive=(mode == "edge-full-range"))
        if bad:
            return bad
        recs = records(got[1])
        emap = {tuple(sorted((r["u"], r["v"]))): (r["s"], r["k"])
                for r in recs if r["record"] == "edge-element"}
        vmap = {r["v"]: (r["s"], r["k"])
                for r in recs if r["record"] == "vertex-element"}
        if sorted(emap) != edges or not all(
                0 <= s < p_w and 0 <= k < q_w for s, k in emap.values()):
            return Verdict(WRONG, True, "edge elements missing or out of "
                                        "range")
        if mode == "edge-distinct":
            adj = adjacency(n, edges)
            for v in range(n):
                at = [emap[tuple(sorted((v, u)))] for u in adj[v]]
                if len(set(at)) != len(at):
                    return Verdict(WRONG, True, "adjacent edges share an "
                                                "element")
            return Verdict(OK, True)
        if sorted(vmap) != list(range(n)):
            return Verdict(WRONG, True, "vertex elements missing")
        if mode == "edges-free":
            for u, v in edges:
                su, ku = vmap[u]
                sv, kv = vmap[v]
                if ((su + sv) % p_w, (ku + kv) % q_w) != emap[(u, v)]:
                    return Verdict(WRONG, True, "edge is not the sum of "
                                                "its ends")
            return Verdict(OK, True)
        vflat = {v: s * q_w + k for v, (s, k) in vmap.items()}
        eflat = {e: s * q_w + k for e, (s, k) in emap.items()}
        labels = [vflat[v] for v in range(n)]
        if (sorted(eflat.values()) != list(range(1, n))
                or any(eflat[(u, v)] != abs(vflat[u] - vflat[v])
                       for u, v in edges)
                or len(set(labels)) != n
                or not self.oracles._is_set_ordered(n, edges, labels)):
            return Verdict(WRONG, True, "not a set-ordered graceful "
                                        "full-range labelling")
        return Verdict(OK, True)

    def lattice_enumerate(self, got, p, sizes, bounds):
        bad = self.exit(got)
        if bad:
            return bad
        rec = [r for r in records(got[1]) if r["record"] == "enumerate"][0]
        raw, valid, distinct = (rec["raw_plans"], rec["valid_plans"],
                                rec["distinct"])
        if raw != _plan_count(p, sizes, bounds):
            return Verdict(WRONG, True, f"raw plan count {raw}")
        if not (0 <= distinct <= valid <= raw) or (valid > 0) != \
                (distinct > 0):
            return Verdict(WRONG, True, "plan counts out of order")
        return Verdict(OK, True)

    def lattice_join(self, got, q1, q2, m):
        bad = self.exit(got)
        if bad:
            return bad
        n, vcol, ecol = _graph_lines(records(got[1]))
        edges = norm(ecol)
        labels = [vcol.get(v) for v in range(n)]
        if (None in labels or len(edges) != q1 + q2 + m
                or sorted(ecol.values()) != list(range(1, q1 + q2 + m + 1))
                or any(c != abs(vcol[u] - vcol[v])
                       for (u, v), c in ecol.items())
                or not is_connected(n, edges)
                or not self.oracles._is_set_ordered(n, edges, labels)):
            return Verdict(WRONG, True, "join is not a set-ordered "
                                        "graceful-difference graph")
        return Verdict(OK, True)

    def lattice_assemble(self, got, host, vectors):
        bad = self.exit(got)
        if bad:
            return bad
        n, vcol, ecol = _graph_lines(records(got[1]))
        hn, hv, he = host
        want_n = hn + sum(vn - 1 for vn, _, _ in vectors)
        want_e = list(he.values()) + [c for _, _, ve in vectors
                                      for c in ve.values()]
        if n != want_n or sorted(ecol.values()) != sorted(want_e) or \
                not is_connected(n, norm(ecol)):
            return Verdict(WRONG, True, "assembly sizes or colors differ")
        return Verdict(OK, True)

    def encode(self, got, n, vcol, ecol):
        bad = self.exit(got)
        if bad:
            return bad
        rows = {}
        for v in values_of(records(got[1]), "matrix"):
            key, _, rest = v.partition(":")
            rows[key] = tuple(int(t) for t in rest.split())
        want = normalized_columns(*matrix_of(n, norm(ecol), vcol, ecol))
        if normalized_columns(rows["X"], rows["E"], rows["Y"]) != want:
            return Verdict(WRONG, True, "matrix columns differ")
        return Verdict(OK, True)

    def tbpaw(self, got, rows, route):
        bad = self.exit(got)
        if bad:
            return bad
        word = values_of(records(got[1]), "tbpaw")[0]
        if word != "".join(map(str, route_tokens(*rows, route))):
            return Verdict(WRONG, True, "route reads another word")
        return Verdict(OK, True)

    def info(self, got, n, vcol, ecol):
        bad = self.exit(got)
        if bad:
            return bad
        rec = [r for r in records(got[1]) if r["record"] == "info"][0]
        edges = norm(ecol)
        total = len(vcol) == n and None not in ecol.values()
        want = {"record": "info", "n": n, "q": len(edges),
                "connected": is_connected(n, edges),
                "tree": is_tree(n, edges), "total": total}
        return Verdict(OK if rec == want else WRONG, True,
                       "" if rec == want else f"info {rec}")

    def canonical(self, got, cls):
        """Copies of one class share a hash; other classes get others."""
        bad = self.exit(got)
        if bad:
            return bad
        h = values_of(records(got[1]), "canonical")[0]
        if self.hash_of_class.setdefault(cls, h) != h or \
                self.class_of_hash.setdefault(h, cls) != cls:
            return Verdict(WRONG, True, "canonical hash disagrees with the "
                                        "isomorphism class")
        return Verdict(OK, True)

    def symmetrize(self, got, n, q):
        bad = self.exit(got)
        if bad:
            return bad
        sn, vcol, ecol = _graph_lines(records(got[1]))
        edges = norm(ecol)
        labels = [vcol.get(v) for v in range(sn)]
        if (sn != 2 * n or None in labels
                or sorted(ecol.values()) != list(range(1, 2 * q + 2))
                or any(c != abs(vcol[u] - vcol[v])
                       for (u, v), c in ecol.items())
                or not is_connected(sn, edges)
                or not self.oracles._is_set_ordered(sn, edges, labels)):
            return Verdict(WRONG, True, "not a set-ordered doubling")
        return Verdict(OK, True)

    def to_tree(self, got, n, q, mode):
        bad = self.exit(got)
        if bad:
            return bad
        tn, _, ecol = _graph_lines(records(got[1]))
        want = q + 1 if mode == "vertex" else 2 * q - n + 2
        if tn != want or not is_tree(tn, norm(ecol)):
            return Verdict(WRONG, True, f"not a tree on {want} vertices")
        return Verdict(OK, True)


def build(seed, ctx):
    rng = random.Random(seed)
    checks = _Checks(ctx.known, ctx.oracles)
    files = _Files(ctx.workdir)

    def colored(n, _edges, vcol, ecol):
        return files.write(graph_text(n, vcol, ecol)), (n, vcol, ecol)

    def plain(n, edges):
        return files.write(graph_text(n, {}, {e: None for e in edges}))

    gtc = {n: [colored(*_gtc_tree(n, rng)) for _ in range(6)]
           for n in (4, 5, 6, 7)}
    so_gtc = [_gtc_tree(n, rng, set_ordered=True) for n in (5, 5, 6, 6, 7, 7)]
    so_files = [(files.write(graph_text(n, vc, ec)), len(e))
                for n, e, vc, ec in so_gtc]
    cyclic = []
    for _ in range(8):
        n = rng.randint(5, 8)
        edges = _cyclic_graph(n, rng)
        cyclic.append((plain(n, edges), n, edges))
    classes = []
    while len(classes) < 6:
        n = rng.randint(6, 8)
        edges = _cyclic_graph(n, rng)
        g = nx.Graph(edges)
        if any(nx.is_isomorphic(g, nx.Graph(e)) for _, e in classes):
            continue
        classes.append((n, edges))
    canon = [[plain(n, relabel(n, edges, rng.sample(range(n), n)))
              for _ in range(4)] for n, edges in classes]
    hosts = []
    for _ in range(8):
        n = rng.randint(5, 7)
        edges = _random_tree(n, rng)
        hosts.append((plain(n, edges), n, edges))
    matrices = []
    for path, (n, vcol, ecol) in gtc[5] + gtc[6]:
        rows = matrix_of(n, norm(ecol), vcol, ecol)
        text = "".join(f"{k}: {' '.join(map(str, r))}\n"
                       for k, r in zip("XEY", rows))
        matrices.append((files.write(text), rows))

    def lattice_case():
        path, (n, vcol, ecol) = rng.choice(gtc[4])
        h1, h2 = rng.sample(range(n), 2)
        vectors = []
        for h in (h1, h2):
            vc = {0: vcol[h], 1: rng.randint(1, 6)}
            vectors.append((2, vc, {(0, 1): rng.randint(1, 6)}))
        vpaths = [files.write(graph_text(*v)) for v in vectors]
        plan = files.write(f"0 0 {h1}\n1 0 {h2}\n")
        return path, (n, vcol, ecol), vpaths, vectors, plan

    lattice = [lattice_case() for _ in range(8)]

    rounds = []
    for r in range(ROUNDS):
        qs = []

        def add(kind, argv, check):
            qs.append(Query(f"r{r}.{len(qs)}.{kind}", kind,
                            lambda a=argv: cli_call(a), check))

        for tag, n in rng.sample([(t, n) for t in FAMILY_TAGS
                                  for n in FAMILY_SIZES],
                                 MIX["iceflower-build"]):
            add("iceflower-build",
                ["iceflower", "build", "--family", tag, "--n", str(n)],
                lambda got, t=tag, n=n: checks.iceflower_build(got, t, n))
        for _ in range(MIX["iceflower-ham"]):
            n = rng.randint(5, 8)
            edges = _cyclic_graph(n, rng)
            cyc = [(i, (i + 1) % n) for i in range(n)]
            edges = norm(set(norm(relabel(n, cyc, rng.sample(range(n), n))))
                         | set(edges))
            adj = adjacency(n, edges)
            degrees = [len(adj[v]) for v in range(n)]
            add("iceflower-ham",
                ["iceflower", "ham", "--degrees",
                 ",".join(map(str, degrees))],
                lambda got, d=degrees: checks.ham(got, d))
        path, inp = rng.choice(gtc[rng.choice((5, 6, 7))])
        add("iceflower-decompose", ["iceflower", "decompose", path],
            lambda got, inp=inp: checks.decompose(got, *inp))
        for n in rng.sample((4, 5, 6, 7), MIX["group-build"]):
            path, (_, _, ecol) = rng.choice(gtc[n])
            add("group-build", ["group", "build", path],
                lambda got, n=n, q=len(ecol): checks.group_build(got, n, q))
        # Bases on n-vertex trees give groups of order n(n-1): 20 and 12
        # are swept exhaustively, 30 and 42 partly sampled.  Five verify
        # queries in a round of 36 put p90 among them.
        for n in (5, 4, 4, 6, 7):
            path, _ = rng.choice(gtc[n])
            add("group-verify", ["group", "verify", path],
                checks.group_verify)
        for _ in range(MIX["group-tree-label"]):
            bn = rng.choice((5, 6))
            base, _ = rng.choice(gtc[bn])
            hpath, hn, hedges = rng.choice(hosts)
            mode = rng.choice(TREE_LABEL_MODES)
            add("group-tree-label",
                ["--budget", str(NODE_BUDGET), "group", "tree-label", base,
                 "--host", hpath, "--mode", mode],
                lambda got, m=mode, n=hn, e=hedges, p=bn: checks.tree_label(
                    got, m, n, e, p, p - 1))
        host, (hn, _, _), vpaths, vectors, _ = rng.choice(lattice)
        bounds = [1] * len(vpaths)
        add("lattice-enumerate",
            ["lattice", "enumerate", "--host", host, "--base", *vpaths,
             "--bounds", " ".join(map(str, bounds))],
            lambda got, p=hn, b=bounds: checks.lattice_enumerate(
                got, p, [2, 2], b))
        (p1, q1), (p2, q2) = rng.sample(so_files, 2)
        m = rng.randint(1, 2)
        add("lattice-join", ["lattice", "join", p1, p2, "--m", str(m)],
            lambda got, a=q1, b=q2, m=m: checks.lattice_join(got, a, b, m))
        host, hinp, vpaths, vectors, plan = rng.choice(lattice)
        add("lattice-assemble",
            ["lattice", "assemble", "--host", host, "--base", *vpaths,
             "--coeffs", "1 1", "--plan", plan],
            lambda got, h=hinp, v=vectors: checks.lattice_assemble(got, h, v))
        for _ in range(MIX["topcode-encode"]):
            path, inp = rng.choice(gtc[rng.choice((5, 6, 7))])
            add("topcode-encode", ["topcode", "encode", path],
                lambda got, inp=inp: checks.encode(got, *inp))
        for _ in range(MIX["topcode-tbpaw"]):
            path, rows = rng.choice(matrices)
            route = rng.choice((1, 3))
            add("topcode-tbpaw",
                ["topcode", "tbpaw", path, "--route", str(route)],
                lambda got, rows=rows, rt=route: checks.tbpaw(got, rows, rt))
        for _ in range(MIX["graph-info"]):
            if rng.random() < 0.5:
                path, n, edges = rng.choice(cyclic)
                inp = (n, {}, {e: None for e in edges})
            else:
                path, inp = rng.choice(gtc[rng.choice((4, 5, 6, 7))])
            add("graph-info", ["graph", "info", path],
                lambda got, inp=inp: checks.info(got, *inp))
        for _ in range(MIX["graph-canonical"]):
            cls = rng.randrange(len(canon))
            add("graph-canonical",
                ["graph", "canonical", rng.choice(canon[cls])],
                lambda got, c=cls: checks.canonical(got, c))
        path, (n, _, ecol) = rng.choice(gtc[rng.choice((4, 5, 6, 7))])
        add("graph-symmetrize", ["graph", "symmetrize", path],
            lambda got, n=n, q=len(ecol): checks.symmetrize(got, n, q))
        for mode in ("vertex", "leaf"):
            path, n, edges = rng.choice(cyclic)
            add("graph-to-tree",
                ["graph", "to-tree", path, "--mode", mode],
                lambda got, n=n, q=len(edges), m=mode: checks.to_tree(
                    got, n, q, m))
        rounds.append(qs)
    return rounds
