"""Command line front end.

Line-oriented reports: text mode prints one result per line (comment
lines carry the command echo and input digest), jsonlines mode prints
one JSON object per record.  Exit codes: 0 ok, 1 domain error or failed
check, 2 usage, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import core, iceflower, lattice, topcode
from . import groups as groups_mod
from .colorings import (INCONCLUSIVE, PresetError, check, chi_min, dual,
                        get_preset, grace_number, search, search_flawed,
                        transform_equivalent, twin_odd_graceful)
from .core import ColoredGraph, Graph, GraphError, from_text, to_text

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class Reporter:
    def __init__(self, fmt, out):
        self.fmt = fmt
        self.out = out
        self.records = []

    def add(self, tag, **fields):
        self.records.append((tag, fields))

    def text(self):
        lines = []
        for tag, fields in self.records:
            if tag in ("cmd", "digest", "seed"):
                lines.append(f"# {tag} {fields['value']}")
            elif list(fields) == ["value"]:
                lines.append(_scalar(fields["value"]))
            else:
                parts = [tag]
                parts += [f"{k}={_scalar(v)}" for k, v in fields.items()]
                lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    def jsonlines(self):
        lines = []
        for tag, fields in self.records:
            rec = {"record": tag}
            rec.update({k: _jsonable(v) for k, v in fields.items()})
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines) + "\n"

    def flush(self):
        body = self.text() if self.fmt == "text" else self.jsonlines()
        if self.out:
            with open(self.out, "w") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)


def _scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return str(v)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _load(path) -> ColoredGraph:
    return from_text(_read(path))


def _digest(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode())
    return h.hexdigest()[:16]


def _emit_graph(rep, cg, tag="graph"):
    for line in to_text(cg).strip().splitlines():
        rep.add(tag, value=line)


def _int(token, where):
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"{where}: {token!r} is not an integer") from None


def _parse_matrix(text):
    rows = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        rows[key.strip().upper()] = tuple(_int(t, f"line {lineno}")
                                          for t in rest.split())
    for key in ("X", "E", "Y"):
        if key not in rows:
            raise GraphError(f"matrix file missing the {key}: line")
    return topcode.TopcodeMatrix(rows["X"], rows["E"], rows["Y"])


def _matrix_lines(rep, t):
    rep.add("matrix", value="X: " + " ".join(str(a) for a in t.x))
    rep.add("matrix", value="E: " + " ".join(str(a) for a in t.e))
    rep.add("matrix", value="Y: " + " ".join(str(a) for a in t.y))


def _pair(text, what):
    parts = text.split(",")
    if len(parts) != 2:
        raise GraphError(f"{what} wants two comma-separated integers")
    return _int(parts[0], what), _int(parts[1], what)


def _ints(text):
    return [_int(t, "integer list") for t in text.replace(",", " ").split()]


def _claim(rep, value, expect):
    if expect is None:
        return EXIT_OK
    flag = "inconclusive" if value is INCONCLUSIVE else (
        "match" if value == expect else "mismatch")
    rep.add("claim", expected=expect, flag=flag)
    if flag == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK if flag == "match" else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# graph

def _cmd_graph(args, rep):
    cg = _load(args.file)
    g = cg.graph
    if args.op == "info":
        rep.add("info", n=g.n, q=g.q, connected=core.is_connected(g),
                tree=core.is_tree(g), total=cg.is_total())
        return EXIT_OK
    if args.op == "canonical":
        rep.add("canonical",
                value=hashlib.sha256(core.canonical_form(g)).hexdigest()[:16])
        return EXIT_OK
    if args.op == "bipartition":
        bp = core.bipartition(g)
        if bp is None:
            rep.add("bipartition", value="none")
            return EXIT_DOMAIN
        rep.add("bipartition", x=sorted(bp[0]), y=sorted(bp[1]))
        return EXIT_OK
    if args.op == "to-tree":
        mode = {"vertex": "vertex-split", "leaf": "leaf-split"}[args.mode]
        t = core.graph_to_tree(g, mode)
        _emit_graph(rep, ColoredGraph(t, {}, {}))
        return EXIT_OK
    # symmetrize
    out = core.symmetrize(cg, args.root)
    _emit_graph(rep, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# color

def _cmd_color(args, rep):
    if args.op == "grace-number":
        got = grace_number(args.p, args.s, quant=args.quant)
        if got is INCONCLUSIVE:
            rep.add("grace-number", value="inconclusive")
            return EXIT_INCONCLUSIVE
        rep.add("grace-number", value=got)
        rep.add("quantifier", value=args.quant)
        return _claim(rep, got, args.expect)
    cg = _load(args.file)
    if args.op == "check":
        report = check(cg, get_preset(args.preset))
        rep.add("check", preset=args.preset, ok=report.ok,
                failed=list(report.failed))
        return EXIT_OK if report.ok else EXIT_DOMAIN
    if args.op == "search":
        kw = {} if args.cap is None else {"cap": args.cap}
        got = search(cg.graph, args.preset, max_m=args.max_m,
                     budget=args.budget, **kw)
        if got is INCONCLUSIVE:
            rep.add("search", value="inconclusive")
            return EXIT_INCONCLUSIVE
        if got is None:
            rep.add("search", value="none")
            return EXIT_DOMAIN
        _emit_graph(rep, got)
        return EXIT_OK
    if args.op == "chi":
        got = chi_min(cg.graph, args.metric, budget=args.budget, k=args.k)
        if got is INCONCLUSIVE:
            rep.add("chi", value="inconclusive")
            return EXIT_INCONCLUSIVE
        rep.add("chi", value=got)
        return _claim(rep, got, args.expect)
    if args.op == "transform":
        out = transform_equivalent(cg, args.target, k=args.k, d=args.d)
        _emit_graph(rep, out)
        return EXIT_OK
    if args.op == "dual":
        out = dual(cg, args.kind)
        _emit_graph(rep, out)
        return EXIT_OK
    if args.op == "flawed":
        got = search_flawed(cg.graph, preset=args.preset,
                            budget=args.budget, cap=args.cap)
        if got is INCONCLUSIVE:
            rep.add("flawed", value="inconclusive")
            return EXIT_INCONCLUSIVE
        if got is None:
            rep.add("flawed", value="none")
            return EXIT_DOMAIN
        extra, coloring = got
        rep.add("flawed", extra_edges=sorted(extra))
        _emit_graph(rep, coloring)
        return EXIT_OK
    # twin
    twins = twin_odd_graceful(cg, args.max_vertices)
    rep.add("twin", count=len(twins))
    for h, gmap in twins:
        labels = ",".join(f"{v}:{gmap[v]}" for v in sorted(gmap))
        rep.add("twin-graph", n=h.n, q=h.q, labels=labels)
    return EXIT_OK


# ---------------------------------------------------------------------------
# iceflower

def _cmd_iceflower(args, rep):
    if args.op == "build":
        sysm = iceflower.build_family(args.family, args.n)
        rep.add("manifest", value=f"# family={sysm.family} n={sysm.n} "
                                  f"constant={sysm.constant}")
        for k, st in zip(sysm.indices, sysm.stars):
            rep.add("star", value=f"# star k={k}")
            _emit_graph(rep, st, tag="star")
        return EXIT_OK
    if args.op == "knn":
        _emit_graph(rep, iceflower.build_Knn(args.family, args.n))
        return EXIT_OK
    if args.op == "kn":
        _emit_graph(rep, iceflower.build_Kn_edge_magic(args.n))
        return EXIT_OK
    if args.op == "ham":
        g = iceflower.hamiltonian_from_degree_sequence(_ints(args.degrees))
        _emit_graph(rep, ColoredGraph(g, {}, {}))
        return EXIT_OK
    # decompose
    stars, plan = iceflower.star_decompose(_load(args.file))
    rep.add("decompose", stars=len(stars))
    for i, st in enumerate(stars):
        rep.add("star", value=f"# star {i}")
        _emit_graph(rep, st, tag="star")
    for step in plan:
        rep.add("plan", value=" ".join(str(x) for x in step))
    return EXIT_OK


# ---------------------------------------------------------------------------
# group

def _parse_assign(text):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] != "v" or len(tok) != 4:
            raise GraphError(f"bad assignment record {line!r}")
        v, s, k = (_int(t, f"line {lineno}") for t in tok[1:])
        out[v] = (s, k)
    return out


def _cmd_group(args, rep):
    base = _load(args.base)
    group = groups_mod.build_group(base, p_w=args.pw, q_w=args.qw)
    if args.op == "build":
        rep.add("group", order=len(group), p_w=group.p_w, q_w=group.q_w)
        return EXIT_OK
    if args.op == "verify":
        report = groups_mod.verify_axioms(group, seed=args.seed)
        rep.add("verify", passed=report.passed, exhaustive=report.exhaustive,
                checks=report.checks)
        for axiom, zero, operands in report.failures:
            rep.add("failure", axiom=axiom, zero=list(zero),
                    operands=[list(x) for x in operands])
        return EXIT_OK if report.passed else EXIT_DOMAIN
    if args.op == "encrypt":
        host = _load(args.host).graph
        vassign = _parse_assign(_read(args.assign))
        zero = _pair(args.zero, "--zero")
        net = groups_mod.encrypt_network(host, group, zero, vassign)
        for e in host.sorted_edges():
            s, k = net.eassign[e]
            rep.add("edge-element", u=e[0], v=e[1], s=s, k=k)
        expanded = net.expand()
        rep.add("expanded", n=expanded.n, q=expanded.q)
        return EXIT_OK
    # tree-label
    t = _load(args.host).graph
    zero = _pair(args.zero, "--zero") if args.zero else (0, 0)
    lab = groups_mod.tree_group_labelling(t, group, args.mode, zero=zero,
                                          budget=args.budget)
    if lab is None:
        rep.add("tree-label", value="inconclusive")
        return EXIT_INCONCLUSIVE
    for e in sorted(lab.edges):
        s, k = lab.edges[e]
        rep.add("edge-element", u=e[0], v=e[1], s=s, k=k)
    if lab.vertices:
        for v in sorted(lab.vertices):
            s, k = lab.vertices[v]
            rep.add("vertex-element", v=v, s=s, k=k)
    return EXIT_OK


# ---------------------------------------------------------------------------
# topcode

def _cmd_topcode(args, rep):
    if args.op == "ntbp":
        value = topcode.ntbp(args.q)
        rep.add("ntbp", value=value)
        return _claim(rep, value, args.expect)
    if args.op == "encode":
        t = topcode.from_graph(_load(args.file))
        _matrix_lines(rep, t)
        return EXIT_OK
    if args.op == "match":
        t = _parse_matrix(_read(args.file))
        found = topcode.matching_graphs(t, max_vertices=args.max_vertices)
        rep.add("match", count=len(found))
        return EXIT_OK
    if args.op == "tbpaw":
        t = _parse_matrix(_read(args.file))
        word = topcode.tbpaw(t, args.route)
        rep.add("tbpaw", value=word.digits)
        return EXIT_OK
    if args.op == "decompose":
        got = topcode.decompose_number_string(args.string, args.q,
                                              args.preset, route=args.route)
        if got is INCONCLUSIVE:
            rep.add("decompose", value="inconclusive")
            return EXIT_INCONCLUSIVE
        rep.add("decompose", count=len(got))
        for t, witness in got:
            _matrix_lines(rep, t)
            _emit_graph(rep, witness, tag="witness")
        return EXIT_OK
    if args.op == "vector":
        vec = topcode.topo_vector(_load(args.file).graph)
        rep.add("vector", value=list(vec))
        return EXIT_OK
    # realize
    terms = []
    for spec in args.term:
        coeff, _, path = spec.partition(":")
        terms.append((_int(coeff, "term coefficient"), _load(path).graph))
    g = (topcode.realize_way1(terms) if args.way == 1
         else topcode.realize_way2(terms))
    _emit_graph(rep, ColoredGraph(g, {}, {}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# lattice

def _load_base(paths):
    return lattice.LatticeBase([_load(p) for p in paths])


def _cmd_lattice(args, rep):
    if args.op == "join":
        cg1, cg2 = _load(args.files[0]), _load(args.files[1])
        res = lattice.join_set_ordered(cg1, cg2, args.m)
        rep.add("join", ways=res.ways,
                bridges=[f"{u}-{v}" for u, v in res.bridge_edges],
                helpers=len(res.helper_vertices))
        _emit_graph(rep, res.graph)
        return EXIT_OK
    host = _load(args.host)
    base = _load_base(args.base)
    if args.op == "assemble":
        steps = []
        for lineno, raw in enumerate(_read(args.plan).splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            step = [_int(t, f"plan line {lineno}") for t in line.split()]
            if len(step) != 3:
                raise GraphError(f"plan line {lineno}: want three integers")
            steps.append(tuple(step))
        out = lattice.assemble(host, base, _ints(args.coeffs),
                               lattice.AssemblyPlan(steps))
        _emit_graph(rep, out)
        return EXIT_OK
    # enumerate
    report = lattice.enumerate_lattice(host, base, _ints(args.bounds),
                                       size_cap=args.cap)
    rep.add("enumerate", raw_plans=report.raw_plans,
            valid_plans=report.valid_plans, distinct=report.distinct)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring

def _build_parser():
    top = argparse.ArgumentParser(prog="topocoding")
    top.add_argument("--budget", type=int, default=None)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--format", choices=("text", "jsonlines"),
                     default="text")
    top.add_argument("--out", default=None)
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph")
    g.add_argument("op", choices=("info", "canonical", "bipartition",
                                  "to-tree", "symmetrize"))
    g.add_argument("file")
    g.add_argument("--mode", choices=("vertex", "leaf"), default="vertex")
    g.add_argument("--root", type=int, default=None)

    c = sub.add_parser("color")
    csub = c.add_subparsers(dest="op", required=True)
    p = csub.add_parser("check")
    p.add_argument("file")
    p.add_argument("--preset", required=True)
    p = csub.add_parser("search")
    p.add_argument("file")
    p.add_argument("--preset", required=True)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p = csub.add_parser("chi")
    p.add_argument("file")
    p.add_argument("--metric", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--expect", type=int, default=None)
    p = csub.add_parser("transform")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p = csub.add_parser("dual")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=("em", "ed", "gd", "fd"))
    p = csub.add_parser("flawed")
    p.add_argument("file")
    p.add_argument("--preset", default="graceful")
    p.add_argument("--cap", type=int, default=None)
    p = csub.add_parser("twin")
    p.add_argument("file")
    p.add_argument("--max-vertices", type=int, required=True)
    p = csub.add_parser("grace-number")
    p.add_argument("p", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--quant", default="every-edge",
                   choices=("exists-edge", "every-edge"))
    p.add_argument("--expect", type=int, default=None)

    i = sub.add_parser("iceflower")
    isub = i.add_subparsers(dest="op", required=True)
    p = isub.add_parser("build")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p = isub.add_parser("knn")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p = isub.add_parser("kn")
    p.add_argument("--n", type=int, required=True)
    p = isub.add_parser("ham")
    p.add_argument("--degrees", required=True)
    p = isub.add_parser("decompose")
    p.add_argument("file")

    gr = sub.add_parser("group")
    grsub = gr.add_subparsers(dest="op", required=True)
    for name in ("build", "verify"):
        p = grsub.add_parser(name)
        p.add_argument("base")
        p.add_argument("--pw", type=int, default=None)
        p.add_argument("--qw", type=int, default=None)
    p = grsub.add_parser("encrypt")
    p.add_argument("base")
    p.add_argument("--host", required=True)
    p.add_argument("--zero", required=True)
    p.add_argument("--assign", required=True)
    p.add_argument("--pw", type=int, default=None)
    p.add_argument("--qw", type=int, default=None)
    p = grsub.add_parser("tree-label")
    p.add_argument("base")
    p.add_argument("--host", required=True)
    p.add_argument("--mode", required=True,
                   choices=("edge-distinct", "edge-full-range", "edges-free"))
    p.add_argument("--zero", default=None)
    p.add_argument("--pw", type=int, default=None)
    p.add_argument("--qw", type=int, default=None)

    t = sub.add_parser("topcode")
    tsub = t.add_subparsers(dest="op", required=True)
    p = tsub.add_parser("encode")
    p.add_argument("file")
    p = tsub.add_parser("match")
    p.add_argument("file")
    p.add_argument("--max-vertices", type=int, default=None)
    p = tsub.add_parser("tbpaw")
    p.add_argument("file")
    p.add_argument("--route", type=int, default=1)
    p = tsub.add_parser("ntbp")
    p.add_argument("q", type=int)
    p.add_argument("--expect", type=int, default=None)
    p = tsub.add_parser("decompose")
    p.add_argument("string")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--preset", default="graceful")
    p.add_argument("--route", type=int, default=1)
    p = tsub.add_parser("vector")
    p.add_argument("file")
    p = tsub.add_parser("realize")
    p.add_argument("term", nargs="+",
                   help="coefficient:graph-file, repeated")
    p.add_argument("--way", type=int, default=1, choices=(1, 2))

    la = sub.add_parser("lattice")
    lasub = la.add_subparsers(dest="op", required=True)
    p = lasub.add_parser("assemble")
    p.add_argument("--host", required=True)
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--plan", required=True)
    p = lasub.add_parser("join")
    p.add_argument("files", nargs=2)
    p.add_argument("--m", type=int, default=1)
    p = lasub.add_parser("enumerate")
    p.add_argument("--host", required=True)
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--bounds", required=True)
    p.add_argument("--cap", type=int, default=core.ISO_CAP)
    return top


_HANDLERS = {
    "graph": _cmd_graph,
    "color": _cmd_color,
    "iceflower": _cmd_iceflower,
    "group": _cmd_group,
    "topcode": _cmd_topcode,
    "lattice": _cmd_lattice,
}


def _input_digest(args):
    chunks = []
    for name in ("file", "host", "base", "assign", "plan", "files", "term"):
        value = getattr(args, name, None)
        if value is None:
            continue
        paths = value if isinstance(value, list) else [value]
        for p in paths:
            p = str(p).rpartition(":")[2] if name == "term" else p
            try:
                chunks.append(_read(p))
            except OSError:
                chunks.append(str(p))
    return _digest(chunks) if chunks else _digest([""])


def run(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    rep = Reporter(args.format, args.out)
    rep.add("cmd", value=" ".join(argv))
    rep.add("digest", value=_input_digest(args))
    rep.add("seed", value=args.seed)
    try:
        code = _HANDLERS[args.command](args, rep)
    except (GraphError, PresetError) as ex:
        rep.flush()
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_DOMAIN
    rep.flush()
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
