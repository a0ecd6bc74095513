"""Extension — cluster scaling (the paper's future work, Section VIII).

"We are currently investigating the feasibility of using the
distributed-memory parallel version of WSMP to develop a cluster version
of the solver."  This bench runs that study on the simulated substrate:
the audikw_1 paper-scale workload over 1-8 ranks, CPU-only and
one-GPU-per-rank, with subtree-to-rank mapping and an InfiniBand-class
interconnect.
"""

import numpy as np

from repro.analysis import format_table
from repro.cluster import ClusterSpec
from repro.parallel import Cluster
from repro.policies import make_policy


def test_extension_cluster(suite, model, save, benchmark):
    sf = suite.workload("audikw_1")
    p1 = make_policy("P1")
    hybrid = suite.policy("ideal")

    serial = Cluster(ClusterSpec(1, 0, model=model)).run(sf, p1).makespan
    rows = []
    results = {}
    for n_ranks in (1, 2, 4, 8):
        cpu = Cluster(ClusterSpec(n_ranks, 0, model=model)).run(sf, p1)
        gpu = Cluster(ClusterSpec(n_ranks, 1, model=model)).run(sf, hybrid)
        results[n_ranks] = (cpu, gpu)
        rows.append(
            [n_ranks,
             cpu.makespan, serial / cpu.makespan, 100 * cpu.utilization(),
             gpu.makespan, serial / gpu.makespan,
             gpu.comm_bytes / 1e9, gpu.comm_messages]
        )
    text = format_table(
        ["ranks", "CPU s", "CPU speedup", "CPU util %",
         "rank+GPU s", "hybrid speedup", "comm GB", "msgs"],
        rows,
        title="Extension — cluster scaling on audikw_1 (paper scale)",
        float_fmt="{:.2f}",
    )
    text += (
        "\nsubtree-to-rank mapping: only subtree-boundary updates cross "
        "the network;\nthe top separators serialize on rank 0 (the "
        "classical scalability limit)."
    )
    save("extension_cluster", text)

    # scaling is monotone, communication grows with ranks, and the
    # hybrid ranks multiply the single-node GPU speedup
    for r in (2, 4, 8):
        cpu_prev, gpu_prev = results[r // 2]
        cpu, gpu = results[r]
        assert cpu.makespan < cpu_prev.makespan
        assert gpu.makespan < gpu_prev.makespan
        assert gpu.comm_bytes >= gpu_prev.comm_bytes
    # 8 hybrid ranks: north of 15x over one CPU core, but sublinear
    # (separator-path bound)
    sp8 = serial / results[8][1].makespan
    assert 12.0 < sp8 < 8 * 6.5
    assert results[8][0].utilization() < 0.9  # Amdahl visibly bites

    benchmark(
        lambda: Cluster(ClusterSpec(2, 0, model=model)).run(sf, p1).makespan
    )
