"""Compare two result sets of the benchmark, one row per workload and
end-to-end metric.

    python3 bench/compare.py BASE_DIR NEW_DIR

A result set is a directory of <workload>-<seed>.txt files holding a
run's stdout (bench/sweep.py writes them).  Each row gives the median and
quartiles on both sides and a verdict against the metric's bound in
BENCHMARK.json:

  regression  the new median is worse than the base median by more than
              the bound
  improved    the new side wins at least 9 of 10 same-seed pairs and the
              medians differ by more than the base side's quartile spread
  no change   neither of the above
  unresolved  the spread between runs on either side is wider than the
              bound, unless every new run is better than every base run
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from common import ROOT
from sweep import by_workload, load_runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, new, pairs, bound, better):
    """Verdict for one metric; pairs are (base, new) values of one seed."""
    sign = 1 if better == "higher" else -1
    bq1, bmed, bq3 = _quartiles(base)
    nq1, nmed, nq3 = _quartiles(new)
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (nq3 - nq1) / nmed if nmed else 0.0)
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if spread > bound and not all_better:
        return "unresolved"
    gain = sign * (nmed - bmed) / bmed if bmed else 0.0
    if gain < -bound:
        return "regression"
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if pairs and wins >= 0.9 * len(pairs) and \
            abs(nmed - bmed) > (bq3 - bq1):
        return "improved"
    return "no change"


def compare(base_dir, new_dir, spec):
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    base, new = by_workload(base_runs), by_workload(new_runs)
    rows = [f"{'workload':14} {'metric':16} {'base q1/med/q3':>32} "
            f"{'new q1/med/q3':>32} {'bound':>6}  verdict"]
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            pairs = [(base_runs[k]["metrics"][name]["value"],
                      new_runs[k]["metrics"][name]["value"])
                     for k in sorted(set(base_runs) & set(new_runs))
                     if k[0] == workload]
            v = verdict(b, n, pairs, m["bound"], m["better"])
            fmt = "/".join(f"{x:.4g}" for x in _quartiles(b))
            fmt_n = "/".join(f"{x:.4g}" for x in _quartiles(n))
            rows.append(f"{workload:14} {name:16} {fmt:>32} {fmt_n:>32} "
                        f"{m['bound']:>6}  {v}")
    return "\n".join(rows)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    print(compare(argv[0], argv[1], spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
