"""repro — hybrid CPU-GPU multifrontal sparse Cholesky with auto-tuned
policy scheduling.

A from-scratch Python reproduction of *"Multifrontal Factorization of
Sparse SPD Matrices on GPUs"* (George, Saxena, Gupta, Singh, Choudhury —
IEEE IPDPS 2011).  The GPU is a calibrated discrete-event simulation
(this environment has none); the numerics are real — float64 on the
host, float32 on the "device" — so the accuracy/iterative-refinement
story is faithfully reproduced alongside the scheduling one.

Quick start::

    import numpy as np
    from repro import SparseCholeskySolver, grid_laplacian_3d

    a = grid_laplacian_3d(12, 12, 12)
    solver = SparseCholeskySolver(a, ordering="nd", policy="baseline")
    solver.analyze().factorize()
    x = solver.solve(np.ones(a.n_rows))
    print(solver.stats.simulated_seconds, solver.stats.effective_gflops)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.matrices import (
    CSCMatrix,
    COOMatrix,
    elasticity_3d,
    grid_laplacian_2d,
    grid_laplacian_3d,
    load_test_matrix,
    random_spd,
    TEST_MATRICES,
)
from repro.multifrontal import (
    NumericFactor,
    SparseCholeskySolver,
    factorize_numeric,
    iterative_refinement,
    solve_factored,
)
from repro.policies import (
    BaselineHybrid,
    IdealHybrid,
    ModelHybrid,
    Worker,
    make_policy,
)
from repro.symbolic import AmalgamationParams, SymbolicFactor, symbolic_factorize
from repro.gpu import SimulatedNode, tesla_t10_model

__version__ = "1.0.0"

__all__ = [
    "CSCMatrix",
    "COOMatrix",
    "grid_laplacian_2d",
    "grid_laplacian_3d",
    "elasticity_3d",
    "random_spd",
    "load_test_matrix",
    "TEST_MATRICES",
    "SparseCholeskySolver",
    "NumericFactor",
    "factorize_numeric",
    "solve_factored",
    "iterative_refinement",
    "make_policy",
    "BaselineHybrid",
    "IdealHybrid",
    "ModelHybrid",
    "Worker",
    "SymbolicFactor",
    "symbolic_factorize",
    "AmalgamationParams",
    "SimulatedNode",
    "tesla_t10_model",
    "__version__",
]
