#!/usr/bin/env python
"""Cluster scaling — the paper's future-work system, running.

Distributes a paper-scale factorization over a simulated cluster (one
MPI-style rank per node, one GPU per rank, InfiniBand-class network)
with subtree-to-rank mapping, and prints the scaling curve with
communication volume — the study the paper's conclusion announces.

Run:  python examples/cluster_scaling.py
"""

from repro.analysis import format_table
from repro.cluster import ClusterSpec, InterconnectParams
from repro.gpu import tesla_t10_model
from repro.parallel import Cluster
from repro.policies import IdealHybrid, make_policy
from repro.workload import paper_workload


def main() -> None:
    model = tesla_t10_model()
    sf = paper_workload("sgi_1M")
    print(
        f"workload: sgi_1M geometry, n={sf.n}, "
        f"{sf.n_supernodes} supernodes, {sf.total_flops():.3g} flops"
    )

    p1 = make_policy("P1")
    hybrid = IdealHybrid(model)
    serial = Cluster(ClusterSpec(1, 0, model=model)).run(sf, p1).makespan
    print(f"serial host: {serial:.1f} simulated seconds\n")

    rows = []
    for n_ranks in (1, 2, 4, 8, 16):
        res = Cluster(ClusterSpec(n_ranks, 1, model=model)).run(sf, hybrid)
        rows.append(
            [n_ranks, res.makespan, serial / res.makespan,
             100 * res.utilization(), res.comm_bytes / 1e9,
             res.comm_messages]
        )
    print(format_table(
        ["ranks (1 GPU each)", "makespan s", "speedup", "util %",
         "comm GB", "messages"],
        rows, title="Hybrid cluster scaling", float_fmt="{:.2f}",
    ))

    # how much does the network matter?
    print("\nnetwork sensitivity (8 ranks):")
    for label, bw in (("IB-DDR 1.5 GB/s", 1.5e9), ("GigE 0.1 GB/s", 1e8)):
        spec = ClusterSpec(
            8, 1, model=model, interconnect=InterconnectParams(bandwidth=bw)
        )
        res = Cluster(spec).run(sf, hybrid)
        print(f"  {label}: {serial / res.makespan:.1f}x "
              f"({res.comm_seconds:.1f}s on the wire)")
    print(
        "\nThe top separators serialize on one rank — the classical\n"
        "multifrontal scalability limit the distributed WSMP papers attack\n"
        "with 2-D front distribution."
    )


if __name__ == "__main__":
    main()
