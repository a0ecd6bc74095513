#!/usr/bin/env python
"""Multi-worker scaling — the paper's Section VI-C configuration study.

Schedules a paper-scale workload (the audikw_1 geometry) over different
worker pools: 1-4 CPU threads, and 1-2 GPUs each paired with a host
thread ("our approach uses the same number of threads as the number of
available GPUs").  Reports makespans, speedups over the serial host run,
and worker utilization — the 2-CPU/2-GPU row reproduces the paper's
10-25x headline.

Run:  python examples/multigpu_scaling.py
"""

import numpy as np

from repro.analysis import format_table
from repro.autotune import train_default_classifier
from repro.gpu import tesla_t10_model
from repro.parallel import Static, make_worker_pool
from repro.policies import ModelHybrid, make_policy
from repro.workload import paper_workload


def main() -> None:
    model = tesla_t10_model()
    sf = paper_workload("audikw_1")
    print(
        f"workload: audikw_1 geometry, n={sf.n}, "
        f"{sf.n_supernodes} supernodes, {sf.total_flops():.3g} flops"
    )

    mh = ModelHybrid(train_default_classifier(model))
    p1 = make_policy("P1")

    configs = [
        ("1 CPU (serial host)", 1, 0, p1),
        ("2 CPU threads", 2, 0, p1),
        ("4 CPU threads", 4, 0, p1),
        ("1 CPU + 1 GPU, model hybrid", 1, 1, mh),
        ("2 CPU + 2 GPU, model hybrid", 2, 2, mh),
    ]
    serial = None
    rows = []
    for label, n_cpus, n_gpus, pol in configs:
        pool = make_worker_pool(n_cpus, n_gpus, model=model)
        gang = np.inf if n_cpus == 1 else 5e9
        res = Static(gang_threshold=gang).run(sf, pol, pool)
        if serial is None:
            serial = res.makespan
        rows.append(
            [label, res.makespan, serial / res.makespan,
             100 * res.utilization()]
        )
    print()
    print(format_table(
        ["configuration", "makespan (s)", "speedup", "utilization %"],
        rows, title="Scaling on the simulated node", float_fmt="{:.2f}",
    ))
    print(
        "\npaper Table VII (audikw_1): 4-thread 2.96x, model hybrid 6.73x,"
        "\n2 CPU + 2 GPU (copy-optimized) 14.14x"
    )


if __name__ == "__main__":
    main()
