#!/usr/bin/env python
"""Serving workflow — the factorization cache under a repeated stream.

Simulates the workload the serving layer is built for: a client that
repeatedly solves systems whose sparsity pattern recurs (time stepping,
parameter sweeps, Newton iterations).  A :class:`SolverService` is fed a
stream drawn from a handful of patterns, each with a few numeric-value
variants; the pattern-keyed cache turns most requests into symbolic-tier
hits (skip ordering + analysis) or full numeric hits (straight to the
triangular solves), and same-factor requests that queue up together are
solved as one blocked multi-RHS call.

Prints the cache hit rates, batching statistics, and the end-to-end
latency percentiles from the service's metrics.

Run:  python examples/serving_workflow.py
"""

import numpy as np

from repro.analysis import format_table
from repro.matrices import grid_laplacian_2d
from repro.service import SolverService


def main() -> None:
    rng = np.random.default_rng(7)

    # 3 recurring sparsity patterns x 3 value variants each
    patterns = [grid_laplacian_2d(10 + 2 * p, 11 + p) for p in range(3)]
    variants = [
        [
            type(a)(a.shape, a.indptr, a.indices,
                    a.data * (1.0 + 0.5 * v), check=False)
            for v in range(3)
        ]
        for a in patterns
    ]

    n_requests = 60
    with SolverService(n_workers=2, policy="P1", ordering="amd") as svc:
        requests = []
        for i in range(n_requests):
            a = variants[i % 3][(i // 3) % 3]
            b = rng.normal(size=a.n_rows)
            requests.append(svc.submit(a, b))
        outcomes = [r.result(timeout=300) for r in requests]

    rep = svc.report()
    lat = rep["latency"]["total"]
    tiers = {t: sum(1 for o in outcomes if o.tier == t)
             for t in ("miss", "symbolic", "numeric", "batched")}
    hit_rate = (n_requests - tiers["miss"]) / n_requests

    rows = [
        ("requests", n_requests),
        ("cold misses (fresh analyses)", tiers["miss"]),
        ("cache hit rate", f"{hit_rate:.1%}"),
        ("numeric factorizations", svc.metrics.counter("numeric_factorizations")),
        ("requests solved in shared batches",
         svc.metrics.counter("batched_requests")),
        ("p50 latency", f"{lat['p50'] * 1e3:.2f} ms"),
        ("p95 latency", f"{lat['p95'] * 1e3:.2f} ms"),
    ]
    print(format_table(["metric", "value"], rows, title="serving workflow"))

    # every answer carries its certificate, its normwise backward error
    worst = max(o.backward_error for o in outcomes)
    print(f"worst backward error across the stream: {worst:.2e}")
    assert worst <= 1e-12
    assert hit_rate >= 0.8, "repeated-pattern stream should mostly hit"


if __name__ == "__main__":
    main()
