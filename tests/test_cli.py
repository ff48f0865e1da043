"""Exit codes and report shapes of the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import topocoding
from topocoding import cli, topcode
from topocoding.core import (ColoredGraph, from_text, is_connected,
                             path_graph, to_text)

P5_TEXT = to_text(ColoredGraph(path_graph(5),
                               {0: 1, 1: 3, 2: 2, 3: 5, 4: 1},
                               {(0, 1): 2, (1, 2): 1, (2, 3): 3, (3, 4): 4}))


@pytest.fixture
def p5_file(tmp_path):
    f = tmp_path / "p5.txt"
    f.write_text(P5_TEXT)
    return str(f)


def test_graph_info_text(p5_file, capsys):
    assert cli.run(["graph", "info", p5_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# cmd ")
    assert "info n=5 q=4 connected=true tree=true total=true" in out


def test_graph_info_jsonlines(p5_file, capsys):
    assert cli.run(["--format", "jsonlines", "graph", "info", p5_file]) == 0
    recs = [json.loads(line) for line in
            capsys.readouterr().out.splitlines()]
    info = [r for r in recs if r["record"] == "info"]
    assert info == [{"record": "info", "n": 5, "q": 4, "connected": True,
                     "tree": True, "total": True}]


def test_out_file(p5_file, tmp_path, capsys):
    dest = tmp_path / "report.txt"
    assert cli.run(["--out", str(dest), "graph", "info", p5_file]) == 0
    assert capsys.readouterr().out == ""
    assert "info n=5" in dest.read_text()


def test_color_check_ok_and_fail(p5_file, tmp_path, capsys):
    assert cli.run(["color", "check", p5_file,
                    "--preset", "gracefully-total"]) == 0
    broken = tmp_path / "broken.txt"
    broken.write_text(P5_TEXT.replace("v 3 5", "v 3 4"))
    assert cli.run(["color", "check", str(broken),
                    "--preset", "gracefully-total"]) == 1
    assert "ok=false" in capsys.readouterr().out


def test_color_search_none_is_domain(tmp_path, capsys):
    f = tmp_path / "c5.txt"
    f.write_text("g 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n")
    # a five-cycle has no graceful labelling
    assert cli.run(["--format", "jsonlines", "color", "search", str(f),
                    "--preset", "graceful"]) == 1
    recs = [json.loads(line) for line in
            capsys.readouterr().out.splitlines()]
    assert {"record": "search", "value": "none"} in recs


def test_color_chi_with_claim(tmp_path, capsys):
    f = tmp_path / "c4.txt"
    f.write_text("g 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n")
    assert cli.run(["color", "chi", str(f), "--metric", "fdt",
                    "--expect", "5"]) == 0
    assert "claim expected=5 flag=match" in capsys.readouterr().out
    assert cli.run(["color", "chi", str(f), "--metric", "fdt",
                    "--expect", "6"]) == 1
    assert "flag=mismatch" in capsys.readouterr().out


def test_color_grace_number(capsys):
    assert cli.run(["--format", "jsonlines", "color", "grace-number",
                    "4", "4", "--expect", "6"]) == 0
    recs = [json.loads(line) for line in
            capsys.readouterr().out.splitlines()]
    assert {"record": "grace-number", "value": 6} in recs
    assert {"record": "quantifier", "value": "every-edge"} in recs
    assert {"record": "claim", "expected": 6, "flag": "match"} in recs


def test_domain_error_exit(tmp_path, capsys):
    f = tmp_path / "loop.txt"
    f.write_text("g 2\ne 0 0\n")
    assert cli.run(["graph", "info", str(f)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["vertex", "leaf"])
def test_graph_to_tree_modes(tmp_path, capsys, mode):
    f = tmp_path / "k4.txt"
    f.write_text("g 4\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n")
    assert cli.run(["graph", "to-tree", str(f), "--mode", mode]) == 0
    body = "".join(ln + "\n" for ln in capsys.readouterr().out.splitlines()
                   if not ln.startswith("#"))
    tree = from_text(body).graph
    p, q = 4, 6
    assert tree.n == (q + 1 if mode == "vertex" else 2 * q - p + 2)
    assert tree.q == tree.n - 1 and is_connected(tree)


@pytest.mark.parametrize("argv, text, code", [
    (["graph", "info"], "g 3\ne 0 x\n", 1),
    (["graph", "info"], "g -1\n", 1),
    (["color", "check", "--preset", "graceful"], "g 0\n", 0),
    (["color", "check", "--preset", "6c"], "g 0\n", 1),
    (["color", "check", "--preset", "strongly-harmonious-total"],
     "g 2\nv 0 1\nv 1 1\n", 0),
    (["topcode", "tbpaw"], "X: 1 2\nE: 1 y\nY: 2 3\n", 1),
    (["color", "search", "--preset", "edt"], "g 0\n", 0),
    (["color", "dual", "--kind", "em"], "g 2\nv 0 1\nv 1 2\n", 1),
    (["graph", "canonical"], "g 20\n", 0),
    (["graph", "canonical"], "g 21\n", 1),
    (["topcode", "match", "--max-vertices", "5"], "X: 1 1\nE: 1 2\nY: 1 1\n",
     1),
    (["topcode", "match", "--max-vertices", "-1"], "X: 1\nE: 1\nY: 2\n", 1),
    (["topcode", "match"], "X:" + " 1" * 11 + "\nE:" + " 1" * 11
     + "\nY:" + " 2" * 11 + "\n", 1),
])
def test_bad_input_fails_cleanly(tmp_path, argv, text, code):
    f = tmp_path / "input.txt"
    f.write_text(text)
    src = str(Path(topocoding.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "topocoding.cli"] + argv[:2] + [str(f)]
        + argv[2:], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_graph_canonical_of_relabelled_cube(tmp_path, capsys):
    # Q4 on 16 vertices, and a copy relabelled by v -> 7v + 3 mod 16
    q4 = [(u, u ^ b) for u in range(16) for b in (1, 2, 4, 8) if u < u ^ b]
    perm = [(7 * v + 3) % 16 for v in range(16)]
    digests = []
    for edges in (q4, [(perm[u], perm[v]) for u, v in q4]):
        f = tmp_path / "q4.txt"
        f.write_text("g 16\n" + "".join(f"e {u} {v}\n" for u, v in edges))
        assert cli.run(["graph", "canonical", str(f)]) == 0
        digests.append([ln for ln in capsys.readouterr().out.splitlines()
                        if not ln.startswith("#")])
    assert digests[0] == digests[1] and len(digests[0]) == 1


def test_bad_option_values_fail_cleanly(p5_file, tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("0 0 x\n")
    assert cli.run(["lattice", "assemble", "--host", p5_file,
                    "--base", p5_file, "--coeffs", "1",
                    "--plan", str(plan)]) == 1
    assert cli.run(["group", "tree-label", p5_file, "--host", p5_file,
                    "--mode", "edges-free", "--zero", "0,y"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error:") == 2


def test_usage_error_exit(p5_file):
    with pytest.raises(SystemExit) as err:
        cli.run(["nonsense", p5_file])
    assert err.value.code == 2


def test_inconclusive_exit(capsys):
    # 24 equal digits cannot split into a graceful matrix, and the
    # searcher gives up rather than proving absence
    assert cli.run(["topcode", "decompose", "1" * 24, "--q", "4"]) == 3
    assert "inconclusive" in capsys.readouterr().out


def test_topcode_encode_and_tbpaw(p5_file, tmp_path, capsys):
    assert cli.run(["topcode", "encode", p5_file]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines()
             if ln[:2] in ("X:", "E:", "Y:")]
    assert len(lines) == 3
    mat = tmp_path / "mat.txt"
    mat.write_text("\n".join(lines) + "\n")
    assert cli.run(["topcode", "tbpaw", str(mat), "--route", "1"]) == 0
    word = [ln for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")][-1]
    t = topcode.from_graph(from_text(P5_TEXT))
    assert word == topcode.tbpaw(t, 1).digits


def test_topcode_match_counts(tmp_path, capsys):
    # the star K_{1,4} with every vertex colored 1
    mat = tmp_path / "star.txt"
    mat.write_text("X: 1 1 1 1\nE: 1 2 3 4\nY: 1 1 1 1\n")
    assert cli.run(["topcode", "match", str(mat)]) == 0
    assert "match count=70" in capsys.readouterr().out
    small = sum(1 for cg in topcode.matching_graphs(
        topcode.TopcodeMatrix((1,) * 4, (1, 2, 3, 4), (1,) * 4))
        if cg.graph.n <= 5)
    assert cli.run(["topcode", "match", str(mat), "--max-vertices", "5"]) == 0
    assert f"match count={small}" in capsys.readouterr().out


def test_topcode_ntbp_claim(capsys):
    assert cli.run(["topcode", "ntbp", "2", "--expect", "5760"]) == 0
    assert cli.run(["topcode", "ntbp", "2", "--expect", "1"]) == 1
    capsys.readouterr()


def test_group_verify(p5_file, capsys):
    assert cli.run(["group", "verify", p5_file]) == 0
    assert "passed=true exhaustive=true" in capsys.readouterr().out


def test_iceflower_build(capsys):
    assert cli.run(["iceflower", "build", "--family", "ED", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "family=ED n=3" in out
    assert out.count("# star k=") == 9  # 3n members


def test_lattice_enumerate(tmp_path, capsys):
    host = tmp_path / "host.txt"
    host.write_text("g 2\nv 0 1\nv 1 2\ne 0 1 1\n")
    part = tmp_path / "part.txt"
    part.write_text("g 2\nv 0 1\nv 1 3\ne 0 1 2\n")
    assert cli.run(["lattice", "enumerate", "--host", str(host),
                    "--base", str(part), "--bounds", "1"]) == 0
    assert "raw_plans=4 valid_plans=1 distinct=1" in capsys.readouterr().out


def test_lattice_assemble(tmp_path, capsys):
    host = tmp_path / "host.txt"
    host.write_text("g 2\nv 0 1\nv 1 2\ne 0 1 1\n")
    part = tmp_path / "part.txt"
    part.write_text("g 2\nv 0 1\nv 1 3\ne 0 1 2\n")
    plan = tmp_path / "plan.txt"
    plan.write_text("# copy base-vertex host-vertex\n0 0 0\n")
    assert cli.run(["lattice", "assemble", "--host", str(host),
                    "--base", str(part), "--coeffs", "1",
                    "--plan", str(plan)]) == 0
    out = capsys.readouterr().out
    assert "\ng 3\n" in out
    assert "e 0 1 1" in out and "e 0 2 2" in out
