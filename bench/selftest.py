"""Tests of the benchmark itself (not collected by the library's suite).

    python3 -m pytest -q bench/selftest.py

Smoke runs of every workload at a small seed and a short run, traced and
untraced; the answer checker rejecting corrupted answers; tracing leaving
nothing installed; and the run refusing to start without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
from common import (OK, WRONG, chi_total, count_matching_graphs,  # noqa: E402
                    load_oracles, named)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1]}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    wrappers = [ln for ln in lines if ln.startswith("wrappers installed")]
    assert (wrappers == ["wrappers installed during the timed loop: 0"]) \
        == (trace == 0)
    failures = [ln for ln in lines if ln.startswith(("failed ", "wrong "))]
    assert len(failures) == result["failed"]
    # the only failing operations are the CLI's to-tree modes
    assert all(ln.startswith("failed ") and ".graph-to-tree:" in ln
               for ln in failures)


def test_checker_rejects_corrupted_answers(tmp_path):
    from topocoding.core import ColoredGraph
    first = run.setup("search-mix", 3, str(tmp_path))[0][0]
    chi_q = next(q for q in first if q.kind == "chi-min")
    c7 = [q for q in first if q.kind == "search-cycle"][2]  # C5, C6, C7
    chi, wit = chi_q.call(), c7.call()
    vcol = dict(wit.vcolor)
    vcol[0] = max(vcol.values()) + 1
    bad_wit = ColoredGraph(wit.graph, vcol, dict(wit.ecolor))
    match_q = next(q for q in run.setup("iso-match", 3, str(tmp_path))[0][0]
                   if q.kind == "match-star")
    graphs = match_q.call()
    done = [(chi_q, chi, None, 0.001), (chi_q, chi + 1, None, 0.001),
            (c7, wit, None, 0.001), (c7, bad_wit, None, 0.001),
            (match_q, graphs, None, 0.001),
            (match_q, graphs[:-1], None, 0.001)]
    verdicts = run.check_all(done)
    assert [v.status for v in verdicts] == [OK, WRONG, OK, WRONG, OK, WRONG]
    results = [(q, v, dt) for (q, _, _, dt), v in zip(done, verdicts)]
    e2e, status = run.summarize(results, results)
    assert status[WRONG] == 3 and e2e["ok_ratio"] == 0.5


def test_tracer_removes_every_wrapper(tmp_path):
    run.setup("build-verify", 1, str(tmp_path))
    from topocoding.core import Graph
    search_mod = sys.modules["topocoding.colorings.search"]
    orig_check, orig_init = search_mod.check, Graph.__dict__["__post_init__"]
    tracer = spans.Tracer()
    tracer.install(run._modules())
    try:
        assert search_mod.check is not orig_check
        assert spans.wrapped_names(run._modules())
    finally:
        tracer.remove()
    assert search_mod.check is orig_check
    assert Graph.__dict__["__post_init__"] is orig_init
    assert spans.wrapped_names(run._modules()) == []


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["query", 0.0, 10.0, -1, "q"],
                    ["search.search", 1.0, 9.0, 0, "q"],
                    ["constraints.check", 2.0, 3.0, 1, "q"],
                    ["constraints.check", 4.0, 6.0, 1, "q"]]
    st = tracer.self_times()
    assert st["query"] == (1, 2.0)
    assert st["search.search"] == (1, 5.0)
    assert st["constraints.check"] == (2, 3.0)


def test_chi_sweep_agrees_with_oracles():
    oracles = load_oracles()
    for name in ("P4", "C4", "K4"):
        n, edges = named(name)
        assert chi_total(n, edges, "fdt") == oracles.chi_fdt(n, edges)
        assert chi_total(n, edges, "emt") == oracles.chi_emt(n, edges)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_fast_matching_count_agrees_with_the_library():
    """With unique ends the checker counts slot merges without an
    isomorphism test; the library deduplicates by canonical form."""
    from topocoding.topcode import TopcodeMatrix, matching_graphs
    from common import find_labelling, matrix_of, unique_ends
    for n, edges in [(4, [(0, 1), (0, 2), (0, 3)]),
                     (6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])]:
        lab = find_labelling(n, edges, "graceful")
        rows = matrix_of(n, edges, lab,
                         {(u, v): abs(lab[u] - lab[v]) for u, v in edges})
        assert unique_ends(*rows)
        assert count_matching_graphs(*rows) == \
            len(matching_graphs(TopcodeMatrix(*rows)))


def test_design_record_matches_the_workloads():
    with open(os.path.join(BENCH, "design.json")) as fh:
        design = json.load(fh)
    for name, module in run.WORKLOADS.items():
        mix = __import__(module).MIX
        assert design["workloads"][name]["mix_per_round"] == mix
    from common import NODE_BUDGET
    assert design["node_budget"]["value"] == NODE_BUDGET
