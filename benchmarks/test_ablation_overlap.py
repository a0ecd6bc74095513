"""Ablation — Section V-A2 copy/compute overlap on vs off.

P3's two overlaps (H2D of the unsolved panel under the host potrf; D2H
of the solved panel under the device syrk) plus pinned buffers are what
separate the tuned P3 from the basic implementation.  We price both
variants per call and over the audikw workload.
"""

import numpy as np

from repro.analysis import format_table
from repro.parallel import Static, make_worker_pool
from repro.policies import estimate_policy_time, make_policy
from repro.policies.base import PolicyP3


def test_ablation_overlap(suite, model, save, benchmark):
    p3 = make_policy("P3")
    p3_basic = PolicyP3(overlap=False, pinned=False)
    p3_sync_pinned = PolicyP3(overlap=False, pinned=True)

    rows = []
    for m, k in [(120, 50), (500, 200), (2000, 800), (8000, 3000)]:
        t_over = estimate_policy_time(p3, m, k, model)
        t_pin = estimate_policy_time(p3_sync_pinned, m, k, model)
        t_basic = estimate_policy_time(p3_basic, m, k, model)
        rows.append([m, k, t_over, t_pin, t_basic, t_basic / t_over])
    per_call = format_table(
        ["m", "k", "overlap+pinned", "sync+pinned", "sync+pageable",
         "basic/overlap"],
        rows,
        title="Ablation — P3 copy handling, per call (seconds)",
        float_fmt="{:.4g}",
    )

    sf = suite.workload("audikw_1")
    pool = make_worker_pool(1, 1, model=model)
    t_over = Static(gang_threshold=np.inf).run(sf, p3, pool).makespan
    t_basic = Static(gang_threshold=np.inf).run(sf, p3_basic, pool).makespan
    text = per_call + (
        f"\n\naudikw_1 end-to-end: overlapped {t_over:.1f}s vs basic "
        f"{t_basic:.1f}s ({100 * (t_basic / t_over - 1):.1f}% slower without "
        "the V-A2 optimizations)"
    )
    save("ablation_overlap", text)

    # overlap+pinned dominates per call and end to end
    for _, _, t_o, t_p, t_b, _ in rows:
        assert t_o <= t_p <= t_b * 1.001
    assert t_over < t_basic
    assert t_basic / t_over > 1.05

    benchmark(lambda: estimate_policy_time(p3, 2000, 800, model))
