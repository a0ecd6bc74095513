"""Section VI-C remark — "One might not observe such speedups for large
2D problems arising in many practical applications."

2-D problems have O(sqrt(n)) separators instead of O(n^(2/3)), so their
frontal matrices stay small and the GPU policies have little to win.
We compare hybrid speedups for a 2-D and a 3-D grid of equal unknown
count at paper scale (geometric workloads: an L x L x 1 "grid" is the
2-D dissection tree).
"""

from repro.analysis import format_table
from repro.parallel import Static, make_worker_pool
from repro.policies import make_policy
from repro.workload import geometric_nd_workload
import numpy as np


def hybrid_speedup(suite, model, sf):
    pol1 = make_policy("P1")
    pool0 = make_worker_pool(1, 0, model=model)
    pool1 = make_worker_pool(1, 1, model=model)
    single = Static(gang_threshold=np.inf)
    serial = single.run(sf, pol1, pool0).makespan
    hybrid = single.run(sf, suite.policy("ideal"), pool1).makespan
    return serial / hybrid, serial


def test_remark_2d_vs_3d(suite, model, save, benchmark):
    n_target = 1_000_000
    sf3 = geometric_nd_workload(100, 100, 100)          # 1e6 unknowns, 3-D
    sf2 = geometric_nd_workload(1000, 1000, 1)          # 1e6 unknowns, 2-D
    sp3, t3 = hybrid_speedup(suite, model, sf3)
    sp2, t2 = hybrid_speedup(suite, model, sf2)
    mk3 = sf3.mk_pairs()
    mk2 = sf2.mk_pairs()
    text = format_table(
        ["family", "n", "total flops", "root k", "ideal-hybrid speedup"],
        [
            ["3-D 100^3", sf3.n, sf3.total_flops(), int(mk3[:, 1].max()), sp3],
            ["2-D 1000^2", sf2.n, sf2.total_flops(), int(mk2[:, 1].max()), sp2],
        ],
        title="Remark — 2-D vs 3-D problems of one million unknowns",
        float_fmt="{:.3g}",
    )
    text += (
        "\npaper: 'One might not observe such speedups for large 2D problems'"
    )
    save("remark_2d_vs_3d", text)

    # 2-D separators are ~sqrt-scale: far smaller root fronts, far fewer
    # flops, and a clearly smaller GPU speedup
    assert mk2[:, 1].max() < 0.2 * mk3[:, 1].max()
    assert sf2.total_flops() < 0.1 * sf3.total_flops()
    assert sp3 > 1.5 * sp2
    assert sp3 > 4.0

    benchmark(lambda: geometric_nd_workload(200, 200, 1))
