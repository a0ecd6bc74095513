#!/usr/bin/env python3
"""Compare two sets of runs: ``python3 bench/compare.py A.json B.json``.

``A`` is the baseline (the parent commit, or the first of two sets of
the same commit), ``B`` the candidate; both are files written by
``bench/run.py --runs K --out FILE``.  One row per workload and
end-to-end metric: both medians, both quartile pairs, the bound from
``BENCHMARK.json`` and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — the quartile spread of either set is wider than the
  bound and the two sets of runs overlap, so the row says nothing;
* ``ok``         — anything else.

Exit status is 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import median, quartiles, spread_share  # noqa: E402


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    cost_a = [sign * v for v in a]
    cost_b = [sign * v for v in b]
    if max(spread_share(a), spread_share(b)) > bound:
        if max(cost_b) < min(cost_a):
            return "ok"
        if min(cost_b) > max(cost_a):
            return "worse"
        return "unresolved"
    worse_by = (median(cost_b) - median(cost_a)) / abs(median(a))
    return "worse" if worse_by > bound else "ok"


def rows(set_a: dict, set_b: dict):
    bounds = set_a["bounds"]
    for workload, runs_a in set_a["runs"].items():
        runs_b = set_b["runs"].get(workload)
        if not runs_b:
            continue
        for name, spec in bounds.items():
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            yield (workload, name, spec["unit"], a, b, spec["bound"],
                   verdict(a, b, spec["better"], spec["bound"]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        set_a = json.load(fh)
    with open(argv[1]) as fh:
        set_b = json.load(fh)
    print(f"{'workload':<20} {'metric':<12} {'unit':<4} "
          f"{'A median [q1, q3] n':<38} {'B median [q1, q3] n':<38} "
          f"{'bound':>5}  verdict")
    n_worse = 0
    for workload, name, unit, a, b, bound, v in rows(set_a, set_b):
        cells = [
            f"{median(x):.5g} [{quartiles(x)[0]:.5g}, {quartiles(x)[1]:.5g}] "
            f"n={len(x)}" for x in (a, b)
        ]
        print(f"{workload:<20} {name:<12} {unit:<4} {cells[0]:<38} "
              f"{cells[1]:<38} {bound:>5.2f}  {v}")
        n_worse += v == "worse"
    return 1 if n_worse else 0


if __name__ == "__main__":
    sys.exit(main())
