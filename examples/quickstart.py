#!/usr/bin/env python
"""Quickstart — solve a sparse SPD system with the hybrid solver.

Builds a 3-D Poisson problem, factors it with the baseline hybrid policy
(per-call CPU/GPU placement on the simulated Tesla-T10 node), solves,
and prints the statistics the paper reports: simulated time, effective
flop rate, and which policy handled how many factor-update calls.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import SparseCholeskySolver, grid_laplacian_3d


def main() -> None:
    # a 16^3 Poisson problem (4096 unknowns)
    a = grid_laplacian_3d(16, 16, 16)
    print(f"matrix: n={a.n_rows}, nnz={a.nnz}")

    solver = SparseCholeskySolver(a, ordering="nd", policy="baseline")
    solver.analyze()
    print(
        f"symbolic: {solver.symbolic.n_supernodes} supernodes, "
        f"nnz(L)={solver.symbolic.nnz_factor}, "
        f"{solver.symbolic.total_flops():.3g} flops"
    )

    solver.factorize()
    stats = solver.stats
    print(
        f"numeric: {stats.simulated_seconds * 1e3:.2f} ms simulated "
        f"({stats.effective_gflops:.2f} GF/s effective)"
    )
    print(f"policy usage: {stats.policy_counts}")

    # solve against a known solution; refinement recovers full fp64
    # accuracy even though GPU-placed kernels computed in fp32
    rng = np.random.default_rng(0)
    x_true = rng.normal(size=a.n_rows)
    b = a.matvec(x_true)
    result = solver.solve_refined(b)
    err = np.abs(result.x - x_true).max() / np.abs(x_true).max()
    print(
        f"solve: {result.iterations} refinement step(s), "
        f"backward error {result.final_residual:.2e}, forward error {err:.2e}"
    )


if __name__ == "__main__":
    main()
