"""Numeric multifrontal factorization driver (serial / single worker).

Walks the supernodal tree in postorder; per supernode: assemble the
front (charging host memory time), resolve the placement policy for its
(m, k), execute the factor-update (real numerics + simulated task
scheduling on the node's engines), stash the update matrix for the
parent, and record the call for the analysis layer.

The simulated makespan of the whole factorization is the node's final
engine time; per-call records carry the per-component busy times that
Figures 2/5/6 and Table IV are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dense.kernels import NotPositiveDefiniteError
from repro.gpu.allocator import DeviceMemoryError
from repro.gpu.device import SimulatedNode
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.batched import (
    BatchGroup,
    BatchParams,
    factor_batch_group,
    resolve_batchable_groups,
)
from repro.multifrontal.frontal import (
    assemble_front_planned,
    assembly_bytes,
    get_assembly_plan,
)
from repro.policies.base import Policy, PolicyP1, Worker
from repro.symbolic.symbolic import SymbolicFactor, factor_update_flops

__all__ = ["FURecord", "NumericFactor", "factorize_numeric", "replay_factorize", "ReplayResult"]


@dataclass(frozen=True)
class FURecord:
    """Instrumentation record of one factor-update call."""

    sid: int
    m: int
    k: int
    policy: str
    start: float
    end: float
    components: dict[str, float]     # busy seconds per category
    flops: tuple[float, float, float]  # (N_P, N_T, N_S)

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def total_flops(self) -> float:
        return float(sum(self.flops))


@dataclass
class NumericFactor:
    """The computed factor plus everything the analysis layer wants."""

    sf: SymbolicFactor
    panels: list[np.ndarray]        # per-supernode (rows x k) [L1; L2]
    records: list[FURecord]
    makespan: float                 # simulated seconds, end-to-end
    node: SimulatedNode
    peak_update_bytes: int = 0
    assembly_seconds: float = 0.0
    #: batched small-front execution: stacked calls issued / fronts they
    #: covered (both 0 when batching was off or found nothing to group)
    batch_tasks: int = 0
    batched_fronts: int = 0
    #: the solve phase's sweep table, built by the first solve on this
    #: factor (:func:`repro.multifrontal.solve.sweep_table`)
    sweep: list | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.sf.n

    @property
    def task_dispatches(self) -> int:
        """Number of per-front work dispatches the factorization issued:
        every unbatched supernode is one dispatch, every batch group one."""
        return self.sf.n_supernodes - self.batched_fronts + self.batch_tasks

    def simulated_time(self) -> float:
        return self.makespan

    def l_matrix(self) -> CSCMatrix:
        """Materialize L as a sparse matrix (mainly for tests/validation)."""
        rows_all, cols_all, vals_all = [], [], []
        for s in range(self.sf.n_supernodes):
            f = int(self.sf.super_ptr[s])
            k = self.sf.width(s)
            rows = self.sf.rows[s]
            panel = self.panels[s]
            for j in range(k):
                rr = rows[j:]
                rows_all.append(rr)
                cols_all.append(np.full(rr.size, f + j, dtype=np.int64))
                vals_all.append(panel[j:, j])
        return CSCMatrix.from_coo(
            np.concatenate(rows_all),
            np.concatenate(cols_all),
            np.concatenate(vals_all),
            (self.n, self.n),
        )

    def log_determinant(self) -> float:
        """``log det A = 2 * sum(log diag(L))`` — free with the factor
        (one of the classic byproducts of a direct method)."""
        total = 0.0
        for s in range(self.sf.n_supernodes):
            k = self.sf.width(s)
            d = np.diagonal(self.panels[s][:k, :k])
            if np.any(d <= 0):
                raise ValueError("factor has non-positive pivots")
            total += float(np.log(d).sum())
        return 2.0 * total

    def residual_norm(self, a: CSCMatrix) -> float:
        """``max |P A P^T - L L^T|`` via a randomized probe: compares
        ``L (L^T v)`` with ``(P A P^T) v`` for a few vectors (avoids
        materializing L L^T for large problems)."""
        ap = a.permute_symmetric(self.sf.perm)
        l = self.l_matrix()
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(3):
            v = rng.normal(size=self.n)
            lhs = l.matvec(l.rmatvec(v))
            rhs = ap.matvec(v)
            denom = np.abs(rhs).max() + 1.0
            worst = max(worst, float(np.abs(lhs - rhs).max() / denom))
        return worst


def factorize_numeric(
    a: CSCMatrix,
    sf: SymbolicFactor,
    policy: Policy,
    *,
    node: SimulatedNode | None = None,
    spost: "np.ndarray | None" = None,
    batching: BatchParams | None = None,
) -> NumericFactor:
    """Factor ``P A P^T = L L^T`` under ``policy`` on a (possibly fresh)
    simulated node, serially on worker 0.

    Parameters
    ----------
    a : CSCMatrix
        The original SPD matrix (full symmetric or lower storage).
    sf : SymbolicFactor
        Result of :func:`repro.symbolic.symbolic_factorize` on ``a``.
    policy : Policy
        A base policy or hybrid selector.
    node : SimulatedNode, optional
        Simulated hardware; defaults to one CPU + one GPU with the
        Tesla-T10 calibration.
    spost : array, optional
        Alternative supernode schedule (must be a valid postorder, e.g.
        from :func:`repro.symbolic.stack.stack_minimizing_postorder`);
        defaults to ``sf.spost``.
    batching : BatchParams, optional
        Batch same-shape leaf fronts at or below ``front_cutoff`` rows
        into single stacked kernel calls (host P1 groups only; numerics
        are bit-identical to the per-front path).  Default: off.
    """
    if node is None:
        node = SimulatedNode(n_cpus=1, n_gpus=1)
    worker = Worker(node.cpus[0].engine, node.gpus[0] if node.gpus else None)

    n_super = sf.n_supernodes
    panels: list[np.ndarray | None] = [None] * n_super
    updates: dict[int, np.ndarray] = {}
    final_task: dict[int, object] = {}
    records: list[FURecord] = []
    kids = sf.schildren()
    live_update_bytes = 0
    peak_update_bytes = 0
    assembly_seconds = 0.0
    # permuting the matrix and index construction (gather sources, scatter
    # destinations, extend-add positions) are pattern-only work: done once
    # and cached on sf, so repeated factorizations of the same structure
    # read ``a.data`` where it lies
    plan = get_assembly_plan(a, sf)
    a_data = a.data

    from repro.gpu.clock import TaskGraph, schedule_graph

    groups, batch_of = resolve_batchable_groups(sf, policy, batching, worker)
    batched_fronts = sum(len(g) for g in groups)
    batch_tasks = 0
    #: per-member (panel, update) produced by a stacked group execution,
    #: consumed when the member's turn comes in the postorder walk
    batch_results: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
    batch_span: dict[tuple[int, int], tuple[object, float, float, dict]] = {}

    def run_batch(g: BatchGroup) -> None:
        nonlocal batch_tasks, assembly_seconds
        b = len(g)
        # one dispatched task chain for the whole group: assembly of all
        # members, then the P1 kernel sequence at B-scaled durations
        t_asm = b * node.model.host_memory_time(assembly_bytes(g.size, []))
        graph = TaskGraph()
        tag = f"batch:{g.size}x{g.k}"
        asm = graph.add(f"assemble:{tag}", worker.cpu_engine, t_asm, (), "assemble")
        t_potrf = node.model.kernel_time("cpu", "potrf", k=g.k)
        last = graph.add(
            f"potrf:{tag}", worker.cpu_engine, b * t_potrf, (asm,), "potrf"
        )
        single = {"potrf": t_potrf}
        if g.m > 0:
            t_trsm = node.model.kernel_time("cpu", "trsm", m=g.m, k=g.k)
            t_syrk = node.model.kernel_time("cpu", "syrk", m=g.m, k=g.k)
            t1 = graph.add(
                f"trsm:{tag}", worker.cpu_engine, b * t_trsm, (last,), "trsm"
            )
            last = graph.add(
                f"syrk:{tag}", worker.cpu_engine, b * t_syrk, (t1,), "syrk"
            )
            single.update(trsm=t_trsm, syrk=t_syrk)
        schedule_graph(graph, engines=node.engines)
        assembly_seconds += t_asm
        batch_tasks += 1
        batch_results.update(factor_batch_group(plan, a_data, g))
        start = min(t.start for t in graph.tasks)
        batch_span[(g.size, g.k)] = (last, start, last.end, single)

    schedule = sf.spost if spost is None else np.asarray(spost, dtype=np.int64)
    for s in schedule:
        s = int(s)
        if s in batch_of:
            g = batch_of[s]
            if s not in batch_results:
                run_batch(g)
            panel, u = batch_results.pop(s)
            final, start, end, single = batch_span[(g.size, g.k)]
            final_task[s] = final
            panels[s] = panel
            if u is not None:
                updates[s] = u
                live_update_bytes += u.size * 8
                peak_update_bytes = max(peak_update_bytes, live_update_bytes)
            records.append(
                FURecord(
                    sid=s, m=g.m, k=g.k, policy="P1",
                    start=start, end=end, components=dict(single),
                    flops=factor_update_flops(g.m, g.k),
                )
            )
            continue
        rows = sf.rows[s]
        k = sf.width(s)
        m = rows.size - k
        child_ids = kids[s]
        child_updates = [(c, updates.pop(c)) for c in child_ids if c in updates]
        live_update_bytes -= sum(u.size * 8 for _, u in child_updates)

        front = assemble_front_planned(
            plan, a_data, rows.size, s, child_updates
        )

        # charge assembly time on the host engine
        t_asm = node.model.host_memory_time(
            assembly_bytes(rows.size, [u.shape[0] for _, u in child_updates])
        )
        g = TaskGraph()
        deps = tuple(final_task[c] for c in child_ids if c in final_task)
        asm_task = g.add(f"assemble:{s}", worker.cpu_engine, t_asm, deps, "assemble")
        schedule_graph(g, engines=node.engines)
        assembly_seconds += t_asm

        base = policy.resolve(m, k, worker) if hasattr(policy, "resolve") else policy
        try:
            execution = base.execute(front, k, worker, node, deps=(asm_task,))
        except DeviceMemoryError:
            # the front does not fit on the device ("the memory
            # limitations of GPU ... requires deployment and coordination
            # among multiple CPUs and GPUs to handle large matrices",
            # Section IV-B) — fall back to the host for this call
            base = PolicyP1()
            execution = base.execute(front, k, worker, node, deps=(asm_task,))
        except NotPositiveDefiniteError as exc:
            f_col = int(sf.super_ptr[s])
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: Cholesky broke down in "
                f"supernode {s} (permuted columns {f_col}..{f_col + k - 1}, "
                f"original column ~{int(sf.perm[f_col])}): {exc}"
            ) from exc
        final_task[s] = execution.plan.final

        panels[s] = front[:, :k].copy()
        if m > 0:
            u = front[k:, k:].copy()
            updates[s] = u
            live_update_bytes += u.size * 8
            peak_update_bytes = max(peak_update_bytes, live_update_bytes)

        records.append(
            FURecord(
                sid=s,
                m=m,
                k=k,
                policy=base.name,
                start=execution.start,
                end=execution.end,
                components=execution.plan.duration_by_category(),
                flops=factor_update_flops(m, k),
            )
        )

    if updates:
        raise AssertionError("unconsumed update matrices: symbolic tree broken")

    return NumericFactor(
        sf=sf,
        panels=[p for p in panels],  # type: ignore[misc]
        records=records,
        makespan=node.now,
        node=node,
        peak_update_bytes=peak_update_bytes,
        assembly_seconds=assembly_seconds,
        batch_tasks=batch_tasks,
        batched_fronts=batched_fronts,
    )


@dataclass
class ReplayResult:
    """Timing-only walk of a factorization (no floating-point work).

    Produced by :func:`replay_factorize`: identical scheduling to
    :func:`factorize_numeric` — same task graphs, same engine contention,
    same records — at a small fraction of the cost.  The benchmark
    harness uses this for policy comparisons; numeric correctness is
    established separately by the test suite and the validation bench.
    """

    sf: SymbolicFactor
    records: list[FURecord]
    makespan: float
    node: SimulatedNode
    assembly_seconds: float = 0.0

    def simulated_time(self) -> float:
        return self.makespan


def replay_factorize(
    sf: SymbolicFactor,
    policy: Policy,
    *,
    node: SimulatedNode | None = None,
    spost: "np.ndarray | None" = None,
) -> ReplayResult:
    """Walk the supernodal tree charging simulated time under ``policy``
    without performing numerics.

    The task graphs are exactly those :func:`factorize_numeric` builds
    (same ``Policy.plan`` calls, same assembly charges, same engine
    timelines), so the resulting makespan and per-call records match a
    numeric run; only the frontal matrices are never touched.
    """
    from repro.gpu.clock import TaskGraph, schedule_graph

    if node is None:
        node = SimulatedNode(n_cpus=1, n_gpus=1)
    worker = Worker(node.cpus[0].engine, node.gpus[0] if node.gpus else None)

    kids = sf.schildren()
    final_task: dict[int, object] = {}
    records: list[FURecord] = []
    assembly_seconds = 0.0

    schedule = sf.spost if spost is None else np.asarray(spost, dtype=np.int64)
    for s in schedule:
        s = int(s)
        rows = sf.rows[s]
        k = sf.width(s)
        m = rows.size - k
        child_ids = kids[s]

        t_asm = node.model.host_memory_time(
            assembly_bytes(
                rows.size, [sf.rows[c].size - sf.width(c) for c in child_ids]
            )
        )
        g = TaskGraph()
        deps = tuple(final_task[c] for c in child_ids if c in final_task)
        asm_task = g.add(f"assemble:{s}", worker.cpu_engine, t_asm, deps, "assemble")
        assembly_seconds += t_asm

        base = policy.resolve(m, k, worker) if hasattr(policy, "resolve") else policy
        try:
            plan = base.plan(m, k, worker, node.model, g, deps=(asm_task,))
        except DeviceMemoryError:
            base = PolicyP1()
            g = TaskGraph()
            asm_task = g.add(
                f"assemble:{s}", worker.cpu_engine, t_asm, deps, "assemble"
            )
            plan = base.plan(m, k, worker, node.model, g, deps=(asm_task,))
        schedule_graph(g, engines=node.engines)
        final_task[s] = plan.final

        start = min(t.start for t in g.tasks)
        records.append(
            FURecord(
                sid=s, m=m, k=k, policy=base.name,
                start=start, end=plan.final.end,
                components=plan.duration_by_category(),
                flops=factor_update_flops(m, k),
            )
        )

    return ReplayResult(
        sf=sf, records=records, makespan=node.now, node=node,
        assembly_seconds=assembly_seconds,
    )
