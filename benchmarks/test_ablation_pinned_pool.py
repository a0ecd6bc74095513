"""Ablation — high-water-mark pinned/device memory pooling (V-A2) vs
per-call allocation.

Paper: "each call to allocate a chunk in pinned memory is prohibitively
expensive when the data ... is not large enough ... the supernodes are
typically small and frequent allocation calls degrade the overall
performance", hence allocation only "when the maximum allocated size
over all the previous calls is insufficient".  We replay the kyushu
workload under P3 with both allocators.
"""

import numpy as np

from repro.analysis import format_table
from repro.gpu import SimulatedNode
from repro.multifrontal.numeric import price_serial
from repro.policies import make_policy


def run(suite, model, pooling: bool):
    node = SimulatedNode(model=model, n_cpus=1, n_gpus=1, pinned_pooling=pooling)
    r = price_serial(suite.workload("kyushu"), make_policy("P3"), node)
    gpu = node.gpus[0]
    return r.makespan, gpu.pinned_pool.stats, gpu.device_pool.stats


def test_ablation_pinned_pool(suite, model, save, benchmark):
    t_pool, pstats_pool, _ = run(suite, model, pooling=True)
    t_naive, pstats_naive, _ = run(suite, model, pooling=False)
    rows = [
        ["high-water-mark pool", t_pool, pstats_pool.n_growths,
         pstats_pool.alloc_seconds],
        ["per-call allocation", t_naive, pstats_naive.n_growths,
         pstats_naive.alloc_seconds],
    ]
    text = format_table(
        ["allocator", "makespan (s)", "allocations", "alloc seconds"],
        rows,
        title="Ablation — pinned/device allocation policy (kyushu, P3)",
        float_fmt="{:.3f}",
    )
    text += f"\nslowdown without pooling: {t_naive / t_pool:.2f}x"
    save("ablation_pinned_pool", text)

    # pooling: a handful of growths; naive: one allocation per call
    assert pstats_pool.n_growths < 100
    assert pstats_naive.n_growths > 1000
    assert pstats_naive.alloc_seconds > 10 * pstats_pool.alloc_seconds
    assert t_naive > 1.05 * t_pool

    benchmark(lambda: run(suite, model, pooling=True)[0])
