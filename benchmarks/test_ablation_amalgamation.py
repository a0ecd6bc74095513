"""Ablation — relaxed supernode amalgamation on vs off.

Amalgamation trades explicit zeros for wider supernodes.  That changes
the very distribution of (m, k) the hybrid policies schedule: more calls
land past the GPU transition points, small-call launch overhead
amortizes, and the end-to-end simulated time drops — at the price of
extra stored/computed entries.
"""

import numpy as np

from repro.analysis import format_table
from repro.gpu import SimulatedNode
from repro.matrices import grid_laplacian_3d
from repro.multifrontal.numeric import price_serial
from repro.symbolic import AmalgamationParams, symbolic_factorize


def stats(suite, sf):
    node = SimulatedNode(model=suite.model, n_cpus=1, n_gpus=1)
    hybrid = price_serial(sf, suite.policy("ideal"), node)
    node = SimulatedNode(model=suite.model, n_cpus=1, n_gpus=1)
    host = price_serial(sf, suite.policy("P1"), node)
    mk = sf.mk_pairs()
    return {
        "n_super": sf.n_supernodes,
        "nnz": sf.nnz_factor,
        "flops": sf.total_flops(),
        "median_k": float(np.median(mk[:, 1])),
        "t_host": host.makespan,
        "t_hybrid": hybrid.makespan,
    }


def test_ablation_amalgamation(suite, save, benchmark):
    a = grid_laplacian_3d(24, 24, 24)
    sf_off = symbolic_factorize(
        a, ordering="nd", amalgamation=AmalgamationParams(max_width=0)
    )
    sf_on = symbolic_factorize(a, ordering="nd")
    off = stats(suite, sf_off)
    on = stats(suite, sf_on)
    rows = [
        ["fundamental only"] + [off[c] for c in
            ("n_super", "nnz", "flops", "median_k", "t_host", "t_hybrid")],
        ["relaxed (default)"] + [on[c] for c in
            ("n_super", "nnz", "flops", "median_k", "t_host", "t_hybrid")],
    ]
    text = format_table(
        ["amalgamation", "supernodes", "nnz(L)", "flops", "median k",
         "host s", "hybrid s"],
        rows,
        title="Ablation — supernode amalgamation (24^3 Laplacian)",
        float_fmt="{:.4g}",
    )
    save("ablation_amalgamation", text)

    # amalgamation: fewer/wider supernodes, more stored entries
    assert on["n_super"] < off["n_super"]
    assert on["nnz"] >= off["nnz"]
    assert on["median_k"] >= off["median_k"]
    # the wider calls make both schedules faster despite the extra flops
    assert on["t_hybrid"] < off["t_hybrid"]
    assert on["t_host"] < off["t_host"]

    benchmark(
        lambda: symbolic_factorize(
            grid_laplacian_3d(10, 10, 10), ordering="nd"
        )
    )
