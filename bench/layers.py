"""Per-layer probes of a traced run: counters read from the objects the
public calls return, and small replays that time one layer on its own.

Counts are exact; bytes are the simulator's computed bytes, not measured
ones; ``gpu.*`` and ``runtime.utilization`` are on the virtual clock.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.dense import KernelCounts, potrf, syrk, trsm_right_lower
from repro.multifrontal import (
    SparseCholeskySolver,
    factorize_numeric,
    iterative_refinement,
    solve_factored,
)
from repro.ordering import compute_ordering
from repro.symbolic import symbolic_factorize

from stats import median

perf = time.perf_counter

#: the virtual-clock gate's record of the same factorization; read, never
#: written, so the two harnesses cannot drift apart silently
BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_factorize-serial-p1.json",
)


def timed(fn, *, before=None, repeats: int = 3) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls."""
    calls = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = perf()
        fn()
        calls.append(perf() - t0)
    return median(calls)


def structure_counts(a, sf) -> dict[str, float]:
    return {
        "symbolic.n_supernodes": sf.n_supernodes,
        "symbolic.nnz_factor": sf.nnz_factor,
        "symbolic.total_flops": sf.total_flops(),
        "ordering.fill_ratio": sf.nnz_factor / a.lower_triangle().nnz,
    }


def factor_counters(solver) -> dict[str, float]:
    """Counters of one finished factorization on a fresh node."""
    stats, factor = solver.stats, solver.factor
    m: dict[str, float] = {
        "multifrontal.sim_factor_s": stats.simulated_seconds,
        "multifrontal.fu_calls": len(factor.records),
        "multifrontal.batch_tasks": factor.batch_tasks,
        "multifrontal.peak_update_bytes": stats.peak_update_bytes,
    }
    for name in ("P1", "P2", "P3", "P4"):
        m[f"policies.calls.{name}"] = stats.policy_counts.get(name, 0)
    gpus = solver.node.gpus
    m["gpu.cublas_busy_s"] = sum(g.cublas.busy_seconds for g in gpus)
    m["gpu.device_pool.bytes_requested"] = sum(
        g.device_pool.stats.bytes_requested for g in gpus
    )
    m["gpu.device_pool.high_water"] = max(
        (g.device_pool.stats.high_water for g in gpus), default=0
    )
    m["gpu.pinned_pool.high_water"] = max(
        (g.pinned_pool.stats.high_water for g in gpus), default=0
    )
    par = solver.parallel
    if par is not None:
        m["multifrontal.peak_update_bytes"] = par.runtime.stats.peak_stack_bytes
        m["runtime.tasks"] = par.task_dispatches
        m["runtime.steals"] = par.runtime.stats.steals
        m["runtime.utilization"] = par.utilization()
    return m


def dense_replay(sf, rng, *, passes: int) -> dict[str, float]:
    """The three host kernels over every supernode's (m, k) on pre-built
    SPD fronts: the time the numeric phase cannot go below without
    faster kernels."""
    counts = KernelCounts()
    totals = []
    for _ in range(passes):
        t_potrf = t_trsm = t_syrk = 0.0
        for m, k in sf.mk_pairs():
            size = int(m + k)
            front = rng.random((size, size))
            front += front.T
            front[np.diag_indices(size)] += 2.0 * size
            t0 = perf()
            l1 = potrf(front[:k, :k], counts=counts)
            t1 = perf()
            t_potrf += t1 - t0
            if m:
                l2 = trsm_right_lower(front[k:, :k], l1, counts=counts)
                t2 = perf()
                syrk(front[k:, k:], l2, counts=counts)
                t_syrk += perf() - t2
                t_trsm += t2 - t1
        totals.append((t_potrf + t_trsm + t_syrk, t_potrf, t_trsm, t_syrk))
    # the pass with the median total
    floor, t_potrf, t_trsm, t_syrk = sorted(totals)[len(totals) // 2]
    flops = counts.total_flops() / passes
    return {
        "dense.kernel_floor_s": floor,
        "dense.potrf_s": t_potrf,
        "dense.trsm_s": t_trsm,
        "dense.syrk_s": t_syrk,
        "dense.calls": sum(counts.calls.values()) // passes,
        "dense.flops": flops,
        "dense.gflops": flops / floor / 1e9,
    }


def side_replay(tracer, a, rng) -> tuple[dict[str, float], dict[str, float]]:
    """``api-mixed``: the cold path of one pattern taken apart outside the
    request, with the service's settings (``amd``, P1).  Returns the
    layer timings and the structure counts."""
    b = rng.normal(size=a.n_rows)
    with tracer.span("side_replay"):
        with tracer.span("ordering.amd") as s_ord:
            perm = compute_ordering(a, "amd")
        with tracer.span("symbolic.factorize") as s_sym:
            sf = symbolic_factorize(a, perm=perm)
        solver = SparseCholeskySolver.from_symbolic(a, sf, policy="P1")
        with tracer.span("multifrontal.factor_first") as s_first:
            solver.factorize()
        with tracer.span("multifrontal.solve_refined") as s_solve:
            res = iterative_refinement(a, solver.factor, b, tol=1e-12, max_iter=5)
    warm = timed(
        lambda: factorize_numeric(a, sf, solver.policy, node=solver.node),
        before=solver.node.reset, repeats=2,
    )

    def dur(span) -> float:
        return span["end"] - span["start"]

    timings = {
        "ordering.amd_s": dur(s_ord),
        "symbolic.factorize_s": dur(s_sym),
        "multifrontal.factor_first_s": dur(s_first),
        "multifrontal.factor_warm_s": warm,
        "multifrontal.plan_build_s": dur(s_first) - warm,
        "multifrontal.solve_refined_s": dur(s_solve),
        "multifrontal.solve_s": timed(
            lambda: solve_factored(solver.factor, b), repeats=2
        ),
    }
    counts = {
        **structure_counts(a, sf),
        **factor_counters(solver),
        "multifrontal.refine_iters": res.iterations,
    }
    return timings, counts


def sim_matches_baseline(sim_s: float, n_supernodes: int, flops: float) -> bool:
    """Whether this harness and ``BENCH_factorize-serial-p1.json`` agree on
    the simulated factor time, the supernode count and the flop total."""
    try:
        with open(BASELINE) as fh:
            det = json.load(fh)["deterministic"]
    except (OSError, ValueError, KeyError):
        return False
    return (
        abs(sim_s - det["simulated_seconds"]) <= 1e-9 * det["simulated_seconds"]
        and n_supernodes == det["n_supernodes"]
        and flops == det["total_flops"]
    )
