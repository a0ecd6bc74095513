"""Extension — the serving layer under a repeated-pattern stream.

The paper's introduction motivates direct methods with "multiple
systems with the same coefficient matrix": the expensive factorization
amortizes across solves.  The serving layer generalizes that to a
long-lived process — a pattern-keyed cache plus a concurrent solve
service — and this bench quantifies the amortization: hit rates and
factorizations avoided for a stream where patterns and values recur.

The saved table holds only what the stream determines.  Five numbers
depend on how the two worker threads happen to interleave on the box —
the two latency percentiles, how many requests found a batch to share,
and (rarely: a second variant of a pattern dequeued while the first is
still being analysed repeats the analysis) the cold-miss count and the
hit rate derived from it — so they are printed next to the table,
never saved: the committed ``extension_serving.txt`` regenerates byte
for byte and the ``paper-artifacts`` CI job diffs it like every other
result file.  Their assertions run all the same.
"""

import numpy as np

from repro.analysis import format_table
from repro.matrices import grid_laplacian_2d
from repro.matrices.csc import CSCMatrix
from repro.service import SolverService


def _stream(n_patterns, n_variants, n_requests, rng):
    bases = [grid_laplacian_2d(12 + 3 * p, 13 + 2 * p) for p in range(n_patterns)]
    variants = [
        [
            CSCMatrix(a.shape, a.indptr, a.indices,
                      a.data * (1.0 + 0.5 * v), check=False)
            for v in range(n_variants)
        ]
        for a in bases
    ]
    for i in range(n_requests):
        a = variants[i % n_patterns][(i // n_patterns) % n_variants]
        yield a, rng.normal(size=a.n_rows)


def test_extension_serving(save, benchmark):
    rng = np.random.default_rng(42)
    n = 90
    with SolverService(n_workers=2, policy="P1", ordering="amd") as svc:
        reqs = [svc.submit(a, b) for a, b in _stream(3, 3, n, rng)]
        outs = [r.result(timeout=600) for r in reqs]

    rep = svc.report()
    lat = rep["latency"]["total"]
    misses = sum(1 for o in outs if o.tier == "miss")
    hit_rate = (n - misses) / n
    factorizations = svc.metrics.counter("numeric_factorizations")

    reused = n - factorizations
    rows = [
        ["requests", n],
        ["distinct patterns / value variants", "3 / 9"],
        ["numeric factorizations", factorizations],
        ["requests that factorized nothing", f"{reused} ({reused / n:.1%})"],
        ["cache evictions", rep["cache"]["evictions"]],
    ]
    thread_timed = [
        ["cold misses (fresh analyses)", misses],
        ["symbolic-tier hit rate", f"{hit_rate:.1%}"],
        ["requests in shared multi-RHS batches",
         svc.metrics.counter("batched_requests")],
        ["p50 latency (ms)", f"{lat['p50'] * 1e3:.2f}"],
        ["p95 latency (ms)", f"{lat['p95'] * 1e3:.2f}"],
    ]
    text = format_table(
        ["metric", "value"], rows,
        title="Extension — solver-as-a-service, repeated-pattern stream",
    )
    text += (
        "\nthe factorization amortizes exactly as the introduction's "
        "multiple-systems argument predicts: one analysis per pattern, one "
        "factorization per value variant, everything else rides the cache."
    )
    save("extension_serving", text)
    print(format_table(
        ["metric", "value"], thread_timed,
        title="this run only (thread-timed, not saved)",
    ))

    assert hit_rate >= 0.8
    # one factorization per distinct (pattern, values) pair, no duplicates
    assert factorizations == 9
    for o, r in zip(outs, reqs):
        res = r.b - r.canonical.matvec(o.x)
        assert np.abs(res).max() / np.abs(r.b).max() < 1e-10

    def warm_solve():
        a = grid_laplacian_2d(12, 13)
        with SolverService(n_workers=1, policy="P1") as s:
            s.solve(a, np.ones(a.n_rows))
            return s.solve(a, np.ones(a.n_rows)).tier

    benchmark(warm_solve)
