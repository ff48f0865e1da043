"""Run the benchmark over several seeds and report the run-to-run spread.

    python3 bench/sweep.py --out DIR [--workloads A,B] [--seeds 1-10]
                           [--seconds S]

Runs are made one after another, each in its own process, with the
command in BENCHMARK.json.  Each run's stdout is kept as
DIR/<workload>-<seed>.txt (a result set that bench/compare.py reads).
The table gives, per workload and metric, the median and the distance
between the first and third quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from common import ROOT


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_runs(directory):
    """{(workload, seed): result} from DIR/<workload>-<seed>.txt files."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".txt"):
            workload, _, seed = name[:-4].rpartition("-")
            with open(os.path.join(directory, name)) as fh:
                last = fh.read().strip().splitlines()[-1]
            out[workload, int(seed)] = json.loads(last)
    return out


def by_workload(runs):
    out = {}
    for (workload, _), result in sorted(runs.items()):
        out.setdefault(workload, []).append(result)
    return out


def spread(values):
    """(median, IQR / median) with Python's default quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def table(results, bounds):
    lines = [f"{'workload':14} {'metric':44} {'median':>12} {'spread':>8} "
             f"{'bound':>6}"]
    for workload, runs in sorted(results.items()):
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            med, sp = spread(vals)
            bound = bounds.get(metric)
            flag = "" if bound is None or sp < bound / 3 else "  <-- wide"
            lines.append(f"{workload:14} {metric:44} {med:12.6g} {sp:8.4f} "
                         f"{'' if bound is None else bound:>6}{flag}")
        bad = [r for r in runs if not r["correct"]]
        lines.append(f"{workload:14} runs {len(runs)}, incorrect {len(bad)}, "
                     f"failed ops {[r['failed'] for r in runs]}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=None)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    for workload in workloads:
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds", f"{seconds:g}",
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            with open(os.path.join(args.out, f"{workload}-{seed}.txt"),
                      "w") as fh:
                fh.write(proc.stdout)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(table(by_workload(load_runs(args.out)), bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
