#!/usr/bin/env python
"""Mixed precision and iterative refinement — the paper's Section III-B.

WSMP computes in double precision; the T10's double throughput is 8x
below single, so the paper runs CUBLAS in float32 and notes "the lost
accuracy could be readily regained by one or two steps of iterative
refinement using double precision sparse matrix-vector multiplication."

This example factors one matrix three ways — pure fp64 host (P1), fp32
GPU offload (P3), and the dp-GPU extension — and prints the backward-
error trace of refinement for each, plus the speed/accuracy trade the paper
describes.

Run:  python examples/mixed_precision_refinement.py
"""

import numpy as np

from repro import SparseCholeskySolver, grid_laplacian_3d
from repro.analysis import format_table
from repro.gpu import SimulatedNode, tesla_t10_model


def run(a, b, x_true, policy, node=None):
    solver = SparseCholeskySolver(a, ordering="nd", policy=policy, node=node)
    solver.factorize()
    res = solver.solve_refined(b, tol=1e-12)
    err = np.abs(res.x - x_true).max() / np.abs(x_true).max()
    return solver, res, err


def main() -> None:
    a = grid_laplacian_3d(12, 12, 12)
    rng = np.random.default_rng(3)
    x_true = rng.normal(size=a.n_rows)
    b = a.matvec(x_true)

    rows = []
    traces = {}
    for label, policy, node in (
        ("fp64 host (P1)", "P1", None),
        ("fp32 GPU (P3)", "P3", None),
        (
            "fp64 GPU (dp extension)",
            "P3",
            SimulatedNode(model=tesla_t10_model().with_precision("dp")),
        ),
    ):
        solver, res, err = run(a, b, x_true, policy, node)
        rows.append(
            [label, f"{res.initial_residual:.1e}", res.iterations,
             f"{res.final_residual:.1e}", f"{err:.1e}",
             solver.stats.simulated_seconds * 1e3]
        )
        traces[label] = res.residual_norms
    print(format_table(
        ["configuration", "initial eta", "iters", "final eta",
         "fwd error", "sim ms"],
        rows,
        title="Mixed precision + iterative refinement",
        float_fmt="{:.2f}",
    ))
    print("\nrefinement traces (normwise backward error per step):")
    for label, trace in traces.items():
        print(f"  {label}: " + " -> ".join(f"{r:.1e}" for r in trace))
    print(
        "\nfp32 offload loses ~8 digits in the factor; one or two"
        "\nrefinement steps recover full double-precision accuracy,"
        "\nexactly as the paper reports."
    )


if __name__ == "__main__":
    main()
