"""High-level public API: :class:`SparseCholeskySolver`.

One object drives the whole pipeline the paper describes:

>>> from repro import SparseCholeskySolver
>>> solver = SparseCholeskySolver(a, ordering="nd", policy="model")
>>> solver.analyze().factorize()
>>> x = solver.solve(b)
>>> solver.stats.simulated_seconds     # the quantity the paper reports

Policies may be given by name — any name
:func:`~repro.policies.base.make_policy` knows, case-insensitive
(``"P1"``..``"P4"``, ``"P4c"``, ``"basic"``, ``"baseline"``,
``"ideal"``, ``"model"``) — or as a
:class:`~repro.policies.base.Policy` instance.  ``policy="model"``
auto-trains a cost-sensitive classifier on synthetic timing data from
the node's performance model (the paper's auto-tuning loop) unless a
trained classifier is supplied.

``backend`` says how the factorization is *priced* on the virtual
clock, never what it computes.  Each name is one pricing pass, whose
:class:`~repro.multifrontal.numeric.PricedPass` the one numerics pass
(:func:`~repro.multifrontal.numeric.postorder_numeric_factor`) then
takes:

* ``"serial"`` (default) walks the tree in postorder on the node's
  first lane (:func:`~repro.multifrontal.numeric.price_serial`);
* ``"static"`` / ``"dynamic"`` / ``"cluster"`` run
  :func:`repro.parallel.parallel_schedule` over a worker pool built
  from this solver's node with the default :class:`~repro.parallel.Static`,
  :class:`~repro.parallel.Dynamic` or :class:`~repro.parallel.Cluster`
  executor — the critical-path list scheduler, the event-driven
  runtime of :mod:`repro.runtime`, or a two-rank fleet of this node's
  shape.  ``solver.parallel`` is then that pass.

The one rule: whatever the backend, front *s* is then computed on this
solver's node under ``policy.resolve(m, k, Worker.canonical(node))`` —
the policy's choice, or host P1 where the node's first lane has no
device the front fits on — whatever worker the schedule placed and
priced it on.  So every backend produces the same factor bit for bit.
Liu's stack-minimizing order, a memory budget, injected faults and any
fleet shape are library calls: ``factorize_numeric(spost=...)``, and
``parallel_schedule(..., Dynamic(memory_budget=..., faults=...))`` or
``parallel_schedule(..., Cluster(ClusterSpec(...)))`` followed by
``postorder_numeric_factor``; a front the dynamic runtime degraded after
injected GPU failures runs ``policy.fallback``, as its simulated
execution did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.device import SimulatedNode
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.frontal import get_assembly_plan
from repro.multifrontal.numeric import (
    NumericFactor,
    PricedPass,
    postorder_numeric_factor,
    price_serial,
)
from repro.multifrontal.refine import RefinementResult, iterative_refinement
from repro.multifrontal.solve import solve_factored
from repro.parallel.scheduler import (
    Cluster,
    Dynamic,
    Executor,
    Static,
    parallel_schedule,
)
from repro.parallel.workers import WorkerPool
from repro.policies.base import Policy, make_policy
from repro.symbolic.supernodes import AmalgamationParams
from repro.symbolic.symbolic import SymbolicFactor, symbolic_factorize

__all__ = ["SparseCholeskySolver", "FactorizationStats"]

#: the executor each backend name prices with (``None``: the serial walk)
_EXECUTORS: dict[str, Executor | None] = {
    "serial": None, "static": Static(), "dynamic": Dynamic(), "cluster": Cluster(),
}


@dataclass(frozen=True)
class FactorizationStats:
    """Summary statistics of a completed factorization."""

    n: int
    nnz_a: int
    nnz_factor: int
    n_supernodes: int
    total_flops: float
    simulated_seconds: float
    assembly_seconds: float
    peak_update_bytes: int
    policy_counts: dict[str, int]

    @property
    def effective_gflops(self) -> float:
        if self.simulated_seconds <= 0:
            return 0.0
        return self.total_flops / self.simulated_seconds / 1e9


class SparseCholeskySolver:
    """Multifrontal Cholesky solver with hybrid CPU-GPU policy scheduling."""

    def __init__(
        self,
        a: CSCMatrix,
        *,
        ordering: str = "nd",
        policy: str | Policy = "P1",
        node: SimulatedNode | None = None,
        amalgamation: AmalgamationParams | None = None,
        classifier=None,
        backend: str = "serial",
    ):
        if a.n_rows != a.n_cols:
            raise ValueError("matrix must be square")
        if backend not in _EXECUTORS:
            raise ValueError(
                f"unknown backend {backend!r} ({' | '.join(_EXECUTORS)})"
            )
        self.a = a.full_symmetric()
        self.ordering = ordering
        self.node = node if node is not None else SimulatedNode(n_cpus=1, n_gpus=1)
        self.amalgamation = amalgamation
        self.backend = backend
        self._policy = self._build_policy(policy, classifier)
        self.symbolic: SymbolicFactor | None = None
        self.factor: NumericFactor | None = None
        #: populated by the scheduled backends: the pricing pass, whose
        #: ``runtime`` holds the schedule, worker busy times and counters
        self.parallel: PricedPass | None = None

    # ------------------------------------------------------------------
    def _build_policy(self, policy: str | Policy, classifier) -> Policy:
        if isinstance(policy, Policy):
            return policy
        if policy.lower() == "model" and classifier is None:
            from repro.autotune import train_default_classifier

            classifier = train_default_classifier(self.node.model)
        return make_policy(policy, model=self.node.model, classifier=classifier)

    @property
    def policy(self) -> Policy:
        return self._policy

    # ------------------------------------------------------------------
    @classmethod
    def from_symbolic(
        cls,
        a: CSCMatrix,
        symbolic: SymbolicFactor,
        *,
        policy: str | Policy = "P1",
        node: SimulatedNode | None = None,
        classifier=None,
        backend: str = "serial",
    ) -> "SparseCholeskySolver":
        """Build a solver around an existing symbolic factorization.

        The expensive ordering + analysis step is skipped entirely: only
        the numeric factorization (and solves) remain.  ``symbolic``
        must come from a matrix with the same sparsity pattern as ``a``
        (same canonical full-symmetric structure) — the caller is
        responsible for that invariant; the serving layer guarantees it
        by keying symbolic factors on a canonical pattern hash.
        """
        self = cls(
            a,
            ordering=symbolic.ordering,
            policy=policy,
            node=node,
            amalgamation=symbolic.amalgamation,
            classifier=classifier,
            backend=backend,
        )
        if symbolic.n != self.a.n_rows:
            raise ValueError(
                f"symbolic factor is for n={symbolic.n}, matrix has "
                f"n={self.a.n_rows}"
            )
        self.symbolic = symbolic
        return self

    def analyze(self) -> "SparseCholeskySolver":
        """Run ordering + symbolic factorization."""
        self.symbolic = symbolic_factorize(
            self.a, ordering=self.ordering, amalgamation=self.amalgamation
        )
        return self

    def factorize(self) -> "SparseCholeskySolver":
        """Run the numeric factorization (analyze first if needed): price
        it with the backend, then compute it on this solver's node."""
        if self.symbolic is None:
            self.analyze()
        self.node.reset()
        executor = _EXECUTORS[self.backend]
        priced = (
            price_serial(
                self.symbolic, self._policy, self.node,
                plan=get_assembly_plan(self.a, self.symbolic),
            )
            if executor is None else parallel_schedule(
                self.symbolic, self._policy, WorkerPool.over(self.node), executor
            )
        )
        self.factor = postorder_numeric_factor(
            self.a, self.symbolic, priced, self.node
        )
        self.parallel = None if executor is None else priced
        return self

    def solve(
        self,
        b: np.ndarray,
        *,
        refine: bool = True,
        tol: float = 1e-12,
        max_iter: int = 5,
    ) -> np.ndarray:
        """Solve ``A x = b``; refinement on by default (needed to recover
        double precision whenever a GPU policy touched the factor)."""
        if self.factor is None:
            self.factorize()
        if not refine:
            return solve_factored(self.factor, b)
        return self.solve_refined(b, tol=tol, max_iter=max_iter).x

    def solve_refined(
        self, b: np.ndarray, *, tol: float = 1e-12, max_iter: int = 5
    ) -> RefinementResult:
        """Like :meth:`solve` but returns the full refinement trace."""
        if self.factor is None:
            self.factorize()
        return iterative_refinement(
            self.a, self.factor, b, tol=tol, max_iter=max_iter
        )

    def update_values(self, a_new: CSCMatrix) -> "SparseCholeskySolver":
        """Swap in a matrix with the *same nonzero pattern* and refactor,
        reusing the ordering and symbolic analysis — the standard fast
        path for sequences of systems (time stepping, Newton iterations).
        """
        new_full = a_new.full_symmetric()
        same_pattern = (
            new_full.shape == self.a.shape
            and np.array_equal(new_full.indptr, self.a.indptr)
            and np.array_equal(new_full.indices, self.a.indices)
        )
        if not same_pattern:
            raise ValueError(
                "update_values requires an identical nonzero pattern; "
                "build a new solver for a different structure"
            )
        self.a = new_full
        if self.symbolic is not None:
            self.factor = None
            self.factorize()
        return self

    def refactorize(self, values) -> "SparseCholeskySolver":
        """Re-run the numeric factorization with new matrix values against
        the existing symbolic factor — the fast path for Newton iterations
        and time stepping, and the primitive behind the serving layer's
        symbolic cache tier.

        ``values`` is either a :class:`CSCMatrix` with the same nonzero
        pattern as the original matrix, or a 1-D array of new values
        aligned with the solver's canonical full-symmetric storage
        (``self.a.data``).
        """
        if isinstance(values, CSCMatrix):
            self.update_values(values)
            if self.factor is None:
                self.factorize()
            return self
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.a.data.shape:
            raise ValueError(
                f"values must align with the canonical storage "
                f"({self.a.data.shape}), got {values.shape}"
            )
        self.a = CSCMatrix(
            self.a.shape, self.a.indptr, self.a.indices, values, check=False
        )
        if self.symbolic is None:
            self.analyze()
        self.factor = None
        self.factorize()
        return self

    def log_determinant(self) -> float:
        """``log det A`` from the factor's pivots."""
        if self.factor is None:
            self.factorize()
        return self.factor.log_determinant()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> FactorizationStats:
        if self.factor is None or self.symbolic is None:
            raise RuntimeError("factorize() first")
        counts: dict[str, int] = {}
        for r in self.factor.records:
            counts[r.policy] = counts.get(r.policy, 0) + 1
        return FactorizationStats(
            n=self.a.n_rows,
            nnz_a=self.a.nnz,
            nnz_factor=self.symbolic.nnz_factor,
            n_supernodes=self.symbolic.n_supernodes,
            total_flops=sum(r.total_flops for r in self.factor.records),
            simulated_seconds=self.factor.makespan,
            assembly_seconds=self.factor.assembly_seconds,
            peak_update_bytes=self.factor.peak_update_bytes,
            policy_counts=counts,
        )
