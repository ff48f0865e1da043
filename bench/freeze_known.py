"""Regenerate bench/known_values.json, the reference answers the checks
compare against.  Each table records where its values come from.

    python3 bench/freeze_known.py

Uses `tests/oracles.py` and the plain sweeps in bench/common.py.  The
workload modules are imported only for their input tables; no answer
comes from topocoding.
"""

from __future__ import annotations

import json
import os
import sys

_BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_BENCH, os.path.join(os.path.dirname(_BENCH), "src")]

from common import (BENCH, chi_total, count_matching_graphs,  # noqa: E402
                    load_oracles, named)
import wl_iso  # noqa: E402
import wl_search  # noqa: E402

# Closed forms stated in arXiv:2005.03937 for the ice-flower families,
# with the metric each family keeps constant.
CARDINALITY = {"GD": lambda n: 2 * n + 3, "ED": lambda n: 2 * n + 3,
               "EM": lambda n: 2 * n + 3, "EL": lambda n: 4 * n - 1,
               "FD": lambda n: 2 * n, "SF": lambda n: n,
               "FDeta": lambda n: 2 * n, "SG": lambda n: 2 * n,
               "BE": lambda n: 3 * n, "EMmax": lambda n: n}
KIND = {"GD": "gdt", "SG": "gdt", "ED": "edt", "BE": "edt", "EM": "emt",
        "EL": "emt", "EMmax": "emt", "FD": "fdt", "SF": "fdt",
        "FDeta": "fdt"}


def constant(tag, n):
    m, odd = divmod(n, 2)
    if KIND[tag] in ("gdt", "fdt"):
        return 0
    return {"ED": 4 * m + 6 if odd else 4 * m + 4, "BE": 3 * n,
            "EM": 6 * m + 9 if odd else 6 * m + 6, "EL": 6 * n,
            "EMmax": 3 * n}[tag]


def main():
    oracles = load_oracles()
    chi = {}
    for kind in wl_search.METRICS:
        chi[kind] = {}
        for name in wl_search.CHI_GRAPHS:
            n, edges = named(name)
            if kind == "fdt":
                chi[kind][name] = oracles.chi_fdt(n, edges)
            elif kind == "emt":
                chi[kind][name] = oracles.chi_emt(n, edges)
            else:
                chi[kind][name] = chi_total(n, edges, kind)
    gtc = {name: oracles.admits_gtc(*named(name))
           for name in wl_search.GTC_GRAPHS}
    stars = {name: count_matching_graphs(*wl_iso.star_matrix(*spec))
             for name, spec in {**wl_iso.STARS,
                                **wl_iso.PARTIAL_STARS}.items()}
    sizes = range(2, 9)
    known = {
        "chi": {
            "source": "fdt and emt: tests/oracles.py chi_fdt / chi_emt; "
                      "edt and gdt: bench/common.py chi_total, a plain "
                      "sweep over M and the constant",
            "values": chi},
        "gtc_admits": {
            "source": "tests/oracles.py admits_gtc (generate and filter)",
            "values": gtc},
        "grace_number": {
            "source": "arXiv:2005.03937 grace numbers, as frozen in "
                      "tests/test_acceptance.py criterion 04",
            "values": {"4,4,every-edge": 6}},
        "star_matching_counts": {
            "source": "bench/common.py count_matching_graphs: every merge "
                      "of equal end slots, classes by networkx "
                      "isomorphism",
            "values": stars},
        "iceflower": {
            "source": "closed forms of arXiv:2005.03937 for the family "
                      "sizes and constants (the tables iceflower."
                      "expected_cardinality and family_constant encode)",
            "kind": KIND,
            "cardinality": {t: {str(n): f(n) for n in sizes}
                            for t, f in CARDINALITY.items()},
            "constant": {t: {str(n): constant(t, n) for n in sizes}
                         for t in KIND}},
        "facts": {
            "trees": "every tree on at most 35 vertices is graceful "
                     "(Fang, computer verification), so None on a "
                     "tree is wrong",
            "cycles": "Rosa (1967): C_n is graceful iff n = 0 or 3 mod 4",
            "isomorphism": "networkx.is_isomorphic on the raw pairs"},
    }
    with open(os.path.join(BENCH, "known_values.json"), "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
