"""Supernodal multifrontal Cholesky: numeric phase and the public API.

The numeric phase walks the supernodal elimination tree in postorder,
assembling each frontal matrix from the original entries and the
children's update matrices (extend-add), running the factor-update under
the configured placement policy, and passing the update matrix up the
tree.  Forward/backward supernodal solves and double-precision iterative
refinement (which recovers the accuracy lost to single-precision GPU
kernels, Section III-B) complete the solver.
"""

from repro.multifrontal.batched import batch_groups
from repro.multifrontal.numeric import FURecord, NumericFactor, ResidencyStats, factorize_numeric
from repro.multifrontal.schur import PartialFactorization, partial_factorize
from repro.multifrontal.solve_sim import SolveEstimate, simulate_solve
from repro.multifrontal.solve import solve_factored
from repro.multifrontal.refine import RefinementResult, iterative_refinement
from repro.multifrontal.solver import FactorizationStats, SparseCholeskySolver

__all__ = [
    "batch_groups",
    "ResidencyStats",
    "FURecord",
    "NumericFactor",
    "factorize_numeric",
    "partial_factorize",
    "PartialFactorization",
    "simulate_solve",
    "SolveEstimate",
    "solve_factored",
    "iterative_refinement",
    "RefinementResult",
    "SparseCholeskySolver",
    "FactorizationStats",
]
