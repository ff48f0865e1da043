"""Benchmark of topocoding on fixed, seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: search-mix, iso-match, build-verify (see BENCHMARK.json and
bench/design.json).  One process, one thread, one closed-loop client:
each query is sent only after the previous one has returned.  Queries
come in rounds that hold every query kind of the workload in fixed
counts, and runs are made of whole rounds.  After each round its answers
are checked, outside the timed part, by code that does not ask
topocoding.

--trace 0 runs rounds for S/2 seconds of query time, then the same rounds
again on a fresh copy of their inputs, with a short probe (a fixed
labelling search) timed between queries.  Each query's latency is scaled by the probes around
it to a fixed reference speed (PROBE_REF), the faster of its two runs is
kept, and the end-to-end metrics are printed, along with the unscaled
timings.
--trace 1 runs rounds for S seconds with spans around each layer,
replays them untraced for the overhead ratio, and prints the per-layer
metrics.  Every metric line reads `name value unit`; the last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

import spans as tracing
from common import (FAILED, ROOT, WRONG, Verdict, find_labelling, load_known,
                    load_oracles)

SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACES = os.path.join(ROOT, ".bench_trace")

WORKLOADS = {"search-mix": "wl_search", "iso-match": "wl_iso",
             "build-verify": "wl_build"}
# Set-up is timed in this process and in this many fresh child processes.
SETUP_PROBES = 6
# Timings are scaled to the speed at which the probe takes PROBE_REF
# seconds, its fastest time on an idle 2-vCPU Xeon host.  On a shared
# host other work slows the process for seconds to minutes at a time: the
# median query latency of one fixed build-verify mix moved by 35% between
# runs minutes apart.  The probe is a small backtracking search over
# dicts and sets, like the library's own code, so it slows down with the
# queries: over 3 s windows of a busy host, the ratio of a fixed
# library query's time to the probe's varied by 4% (standard deviation
# of its log), against 10% for the query alone and 8% for a probe of
# plain integer arithmetic.
PROBE_TREE = (7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 6)])
PROBE_REF = 0.0004

END_TO_END = (("setup_s", "s"), ("queries_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("decided_ratio", "ratio"), ("ok_ratio", "ratio"),
              ("peak_rss_mb", "MB"))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _missing_sources():
    need = [os.path.join(SRC, "topocoding", "__init__.py"),
            os.path.join(ROOT, "tests", "oracles.py")]
    return [p for p in need if not os.path.isfile(p)]


def setup(workload, seed, workdir):
    """Import topocoding in this process and build the workload's inputs.

    Returns (rounds, seconds taken, median of five probes before and
    five after).
    """
    before = [probe() for _ in range(5)]
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    lib = importlib.import_module("topocoding")
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"topocoding imported from {lib.__file__}")
    rounds = build_rounds(workload, seed, workdir)
    seconds = time.perf_counter() - start
    return rounds, seconds, statistics.median(before + [probe()
                                                        for _ in range(5)])


def build_rounds(workload, seed, workdir):
    module = importlib.import_module(WORKLOADS[workload])
    ctx = SimpleNamespace(known=load_known(), oracles=load_oracles(),
                          workdir=workdir)
    os.makedirs(workdir, exist_ok=True)
    return module.build(seed, ctx)


def _setup_in_child(workload, seed):
    """(set-up seconds, probe seconds) of one fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    seconds, level = proc.stdout.split()[-2:]
    return float(seconds), float(level)


def probe():
    """Seconds taken by a fixed labelling search of the benchmark's own
    (common.find_labelling on PROBE_TREE)."""
    t = time.perf_counter()
    find_labelling(*PROBE_TREE, "graceful")
    return time.perf_counter() - t


def run_rounds(rounds, seconds=None, n_rounds=None, tracer=None,
               check=True, probes=False):
    """Closed loop over whole rounds: until `seconds` of query time, or
    exactly `n_rounds` rounds.  Each round's answers are checked after the
    round, outside the timed part, and then dropped.  With `probes`, the
    probe runs before each query and after the last one, outside the
    timed part, and each query gets the mean of the two probes around
    it: how fast the machine ran while the query ran.

    Returns ([(query, verdict, latency)], [(queries, query seconds) of
    each round], [probe seconds of each query]).
    """
    results, per_round, probe_s, busy, r = [], [], [], 0.0, 0
    clock = time.perf_counter
    while (busy < seconds) if n_rounds is None else (r < n_rounds):
        batch, start = [], busy
        after = probe() if probes else 0.0
        for q in rounds[r % len(rounds)]:
            if tracer is not None:
                tracer.begin(q.qid)
            t = clock()
            try:
                answer, error = q.call(), None
            except Exception as ex:  # a raising query is a failed operation
                answer, error = None, ex
            dt = clock() - t
            if tracer is not None:
                tracer.end()
            before, after = after, probe() if probes else 0.0
            probe_s.append((before + after) / 2)
            busy += dt
            batch.append((q, answer, error, dt))
        per_round.append((len(batch), busy - start))
        if check:
            results += [(q, v, dt) for (q, _, _, dt), v
                        in zip(batch, check_all(batch))]
        r += 1
    return results, per_round, probe_s


def check_all(batch):
    """Verdicts for [(query, answer, error, latency)]."""
    verdicts = []
    for q, answer, error, _ in batch:
        if error is not None:
            v = Verdict(FAILED, False, f"{type(error).__name__}: {error}")
        else:
            try:
                v = q.check(answer)
            except Exception as ex:  # unreadable output is a rejected answer
                v = Verdict(WRONG, True, f"check raised "
                                         f"{type(ex).__name__}: {ex}")
        verdicts.append(v)
    return verdicts


def fastest_of_two(rounds, copy, seconds):
    """Pass 1 runs whole rounds for half of `seconds` of query time; pass
    2 runs the same rounds once more on a fresh copy of their inputs.
    Each run of a query is scaled to the reference speed by the probes
    around it (see PROBE_REF), and each query keeps the faster of its two
    scaled runs.

    Returns (results of pass 1, results of both passes, kept results:
    one per query of pass 1 with its scaled latency, and the median
    probe time).
    """
    first, per_round, probes_1 = run_rounds(rounds, seconds / 2,
                                            probes=True)
    second, _, probes_2 = run_rounds(copy, n_rounds=len(per_round),
                                     probes=True)

    def scaled(results, probes):
        return [(q, v, dt * PROBE_REF / p)
                for (q, v, dt), p in zip(results, probes)]

    kept = [min(pair, key=lambda x: x[2])
            for pair in zip(scaled(first, probes_1),
                            scaled(second, probes_2))]
    return first, first + second, kept, statistics.median(probes_1
                                                          + probes_2)


def summarize(results, kept):
    """End-to-end figures of one run.  Ratios count the queries of pass 1
    (pass 2 repeats them); timings come from the kept latency of each
    query."""
    lat = [dt for _, _, dt in kept]
    n = len(results)
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    status = Counter(v.status for _, v, _ in results)
    return {
        "queries_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "decided_ratio": sum(v.decided for _, v, _ in results) / n,
        "ok_ratio": (n - status[FAILED] - status[WRONG]) / n,
    }, status


def _modules():
    return [m for name, m in sys.modules.items()
            if name == "topocoding" or name.startswith("topocoding.")
            or name in WORKLOADS.values()]


def run(workload, seed, seconds, trace, workdir):
    """One benchmark run; returns (result dict, report lines)."""
    rounds, *first_setup = setup(workload, seed, workdir)
    setups = [tuple(first_setup)] + [_setup_in_child(workload, seed)
                                     for _ in range(SETUP_PROBES)]
    lines = [f"workload {workload} seed {seed} seconds {seconds:g} "
             f"trace {trace} (closed loop, 1 client, 1 thread)"]
    if trace:
        tracer = tracing.Tracer()
        tracer.install(_modules())
        wrapped = tracing.wrapped_names(_modules())
        try:
            first, per_round, _ = run_rounds(rounds, seconds, tracer=tracer)
        finally:
            tracer.remove()
        every = kept = first
        n_rounds = len(per_round)
        busy = sum(t for _, t in per_round)
        timing = "one run of each query, traced"
    else:
        wrapped = tracing.wrapped_names(_modules())
        copy = build_rounds(workload, seed, os.path.join(workdir, "copy"))
        first, every, kept, probe_s = fastest_of_two(rounds, copy, seconds)
        busy = sum(dt for _, _, dt in every)
        timing = (f"faster of two runs of each query, scaled to a probe "
                  f"time of {PROBE_REF * 1e3:g} ms; median probe "
                  f"{probe_s * 1e3:.4f} ms")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e, _ = summarize(first, kept)
    status = Counter(v.status for _, v, _ in every)
    n = len(every)
    lines.append(f"queries {len(first)}, runs {n}, {busy:.3f} s of query "
                 f"time; timings: {timing}; {len(kept) - int(len(kept) * 0.9)}"
                 f" samples beyond p90")
    if not trace:
        unscaled = [min(pair, key=lambda x: x[2]) for pair
                    in zip(first, every[len(first):])]
        raw, _ = summarize(first, unscaled)
        lines.append("unscaled (faster of two runs): " + ", ".join(
            f"{k} {raw[k]:.6g}" for k in ("queries_per_s", "latency_p50_ms",
                                          "latency_p90_ms")))
    lines.append(f"wrappers installed during the timed loop: {len(wrapped)}")
    kinds = Counter(q.kind for q, _, _ in kept)
    for kind in sorted(kinds):
        lat = [dt for q, _, dt in kept if q.kind == kind]
        lines.append(f"kind {kind} count {kinds[kind]} median_ms "
                     f"{statistics.median(lat) * 1e3:.3f} total_s "
                     f"{sum(lat):.3f}")
    for q, v, _ in every:
        if v.status in (FAILED, WRONG):
            lines.append(f"{v.status} {q.qid}: {v.note}")
    result = {"correct": status[WRONG] == 0, "attempted": n,
              "failed": status[FAILED]}
    if not trace:
        e2e["setup_s"] = statistics.median(t * PROBE_REF / level
                                           for t, level in setups)
        e2e["peak_rss_mb"] = rss_mb
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
        lines.append("setup samples, unscaled: "
                     + ", ".join(f"{t:.4f} s" for t, _ in setups))
    else:
        _, plain, _ = run_rounds(rounds, n_rounds=n_rounds, check=False)
        overhead = busy / sum(t for _, t in plain)
        per = tracer.metrics(n_rounds, overhead)
        metrics = {name: {"value": per[name], "unit": tracing.unit_of(name)}
                   for name in tracing.PER_LAYER}
        layers = tracer.layer_self_times()
        total = sum(layers.values())
        for layer, s in layers.most_common():
            lines.append(f"self time {layer}: {s:.3f} s "
                         f"({100 * s / total:.1f}%)")
        os.makedirs(TRACES, exist_ok=True)
        path = os.path.join(TRACES, f"{workload}-seed{seed}.tsv")
        tracer.write(path)
        lines.append(f"{len(tracer.spans)} spans written to "
                     f"{os.path.relpath(path, ROOT)}")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    result["metrics"] = metrics
    return result, lines


def main(argv=None):
    args = _parse(argv)
    missing = _missing_sources()
    if missing:
        print("bench: sources not found: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_probe:
            _, seconds, level = setup(args.workload, args.seed, workdir)
            print(f"{seconds:.9f} {level:.9f}")
            return 0
        result, lines = run(args.workload, args.seed, args.seconds,
                            args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
