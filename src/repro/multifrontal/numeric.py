"""Numeric multifrontal factorization: the pricing pass and the
numerics pass.

The two are independent.  The *pricing pass* walks the supernodal tree
in postorder charging the virtual clock: per supernode it resolves the
placement policy for its (m, k) and schedules the front's assembly and
factor-update tasks on the node's engines.  The simulated makespan of
the whole factorization is the node's final engine time; per-call
records carry the per-component busy times that Figures 2/5/6 and
Table IV are built from.  It is a function of the pattern, the policy
and the node model, so the serial driver keeps the outcome of a pure
pass on the symbolic factor and a warm ``refactorize`` does not pay for
it again (:func:`_price_once`).  The *numerics pass*
(:func:`postorder_numeric_factor`) does the floating-point work — one
way, the fastest bit-identical way, under every backend's task-to-worker
mapping: assemble each front, run its factor-update, hand the update
matrix to the parent.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.dense.kernels import NotPositiveDefiniteError
from repro.gpu.clock import EngineTimeline, TaskGraph, schedule_graph
from repro.gpu.device import SimulatedNode
from repro.gpu.perfmodel import PerfModel
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.batched import (
    BatchGroup,
    breakdown_error,
    factor_batch_group,
)
from repro.multifrontal.frontal import (
    assemble_front_planned,
    assembly_bytes,
    get_assembly_plan,
)
from repro.policies.base import Policy, PolicyP1, Worker
from repro.symbolic.symbolic import SymbolicFactor, factor_update_flops

if TYPE_CHECKING:
    from repro.multifrontal.solve import SweepTable

__all__ = [
    "FURecord",
    "NumericFactor",
    "factorize_numeric",
    "postorder_numeric_factor",
    "replay_factorize",
    "ReplayResult",
]


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
    #: the ``(B, rows, k)`` array the panels of each stacked leaf group
    #: are the slices of, by the group's first member
    #: (:func:`repro.multifrontal.batched.batch_groups`)
    stacks: dict[int, np.ndarray]
    records: list[FURecord]
    makespan: float                 # simulated seconds, end-to-end
    node: SimulatedNode
    peak_update_bytes: int = 0
    assembly_seconds: float = 0.0
    #: stacked small-front execution: stacked calls the numerics pass
    #: issued / fronts they covered (both 0 when it found nothing to group)
    batch_tasks: int = 0
    batched_fronts: int = 0
    #: the solve phase's sweep table, built by the first solve on this
    #: factor (:func:`repro.multifrontal.solve.sweep_table`)
    sweep: SweepTable | None = field(default=None, repr=False, compare=False)

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


def _price_postorder(
    sf: SymbolicFactor,
    policy: Policy,
    node: SimulatedNode,
    worker: Worker,
    spost: "np.ndarray | None",
    *,
    assembly_in_record: bool,
) -> tuple[list[FURecord], list[Policy], float]:
    """Charge the serial factorization to ``node``'s virtual clock.

    Walks the tree on ``worker``: per front one :class:`TaskGraph` holding
    its assembly task and the resolved policy's ``plan``, one
    ``schedule_graph`` call.  No floating-point work, and no knowledge
    of how the numerics pass will execute the fronts.

    Returns the per-call records (in schedule order), the policy each
    supernode resolved to (indexed by supernode id; host ``P1`` where
    ``worker`` has no device the front fits on) and the total assembly
    time.
    ``assembly_in_record`` says whether a record's ``start`` and
    ``components`` cover the front's assembly task or only its F-U call.
    """
    model = node.model
    kids = sf.schildren()
    final_task: dict[int, object] = {}
    records: list[FURecord] = []
    bases: list[Policy] = [policy] * sf.n_supernodes
    assembly_seconds = 0.0

    for s in np.asarray(sf.spost if spost is None else spost).tolist():
        size = sf.rows[s].size
        k = sf.width(s)
        m = size - k
        child_ids = kids[s]

        t_asm = model.host_memory_time(
            assembly_bytes(size, [sf.update_size(c) for c in child_ids])
        )
        g = TaskGraph()
        deps = tuple(final_task[c] for c in child_ids if c in final_task)
        asm_task = g.add(f"assemble:{s}", worker.cpu_engine, t_asm, deps, "assemble")
        assembly_seconds += t_asm

        base = policy.resolve(m, k, worker)
        plan = base.plan(m, k, worker, model, g, deps=(asm_task,))
        schedule_graph(g, engines=node.engines)
        final_task[s] = plan.final
        bases[s] = base

        tasks = g.tasks if assembly_in_record else g.tasks[1:]
        components: dict[str, float] = {}
        for t in tasks:
            components[t.category] = components.get(t.category, 0.0) + t.duration
        records.append(
            FURecord(
                sid=s, m=m, k=k, policy=base.name,
                start=min(t.start for t in tasks), end=plan.final.end,
                components=components,
                flops=factor_update_flops(m, k),
            )
        )
    return records, bases, assembly_seconds


@dataclass(frozen=True)
class _PricedPass:
    """What one *pure* serial pricing pass left behind, kept in one slot
    on the :class:`SymbolicFactor` (``_priced_pass``, beside
    ``_assembly_plan``) so that a warm ``refactorize`` does not price
    again what only the pattern decides.  Immutable: a hit copies out of
    it, a refill replaces it (last writer wins between threads sharing
    the symbolic factor)."""

    key: tuple            # policy type, cpu engine, has a GPU, schedule bytes
    model: PerfModel      # a copy, compared by value
    records: tuple[FURecord, ...]
    bases: tuple[Policy, ...]
    assembly_seconds: float
    engines: tuple[EngineTimeline, ...]


def _price_once(
    sf: SymbolicFactor,
    policy: Policy,
    node: SimulatedNode,
    worker: Worker,
    spost: "np.ndarray | None",
) -> tuple[list[FURecord], list[Policy], float]:
    """:func:`_price_postorder` for :func:`factorize_numeric`, paid once
    per pattern where the pass is a function of the pattern.

    The slot is read and written only on a fresh node (no engine timeline
    yet: records carry absolute times) under a host policy that is all
    in its type: no instance state (a selector counts what it selects in
    one) and no device to ask (a device policy resolves by the worker's
    pool, which the key does not carry).  A hit also needs the slot's
    policy type, worker, node model and schedule; it hands out fresh
    lists and fresh timeline copies, so the node and the records read
    exactly as after a real pass.  A pass is kept only if, on top of
    that, no allocator of the node saw a request during it (pool
    statistics and pool growth go through one): pure by construction,
    not by name.  Everything else prices as if this function did not
    exist.
    """
    order = np.asarray(sf.spost if spost is None else spost)
    key = (type(policy), worker.cpu_engine, worker.has_gpu, order.tobytes())
    eligible = not node.engines and not policy.needs_gpu and not vars(policy)
    memo: _PricedPass | None = getattr(sf, "_priced_pass", None)
    if eligible and memo and memo.key == key and memo.model == node.model:
        node.engines.update((t.name, replace(t)) for t in memo.engines)
        return list(memo.records), list(memo.bases), memo.assembly_seconds
    pools = [p for g in node.gpus for p in (g.device_pool, g.pinned_pool)]
    requests = sum(p.stats.n_requests for p in pools)
    records, bases, assembly_seconds = _price_postorder(
        sf, policy, node, worker, spost, assembly_in_record=False
    )
    if eligible and requests == sum(p.stats.n_requests for p in pools):
        sf._priced_pass = _PricedPass(  # type: ignore[attr-defined]
            key, copy.deepcopy(node.model), tuple(records), tuple(bases),
            assembly_seconds, tuple(replace(t) for t in node.engines.values()),
        )
    return records, bases, assembly_seconds


def _numeric_walk(
    a: CSCMatrix,
    sf: SymbolicFactor,
    bases: list[Policy],
    worker: Worker,
    order: "np.ndarray",
) -> tuple[
    list["np.ndarray | None"], dict[int, np.ndarray], dict[int, np.ndarray],
    int, int, int,
]:
    """The floating-point walk over the supernodes of ``order`` (children
    before parents): assemble each front, run its factor-update under
    ``bases[s]``, hand the update matrix to the parent.  Fronts and
    update matrices are live in their lower triangle only
    (:mod:`repro.multifrontal.frontal`); every unstacked front is a
    zero-filled view of one workspace sized for the largest, and the
    panel and the update are copied out of it, so nothing returned
    aliases the workspace.

    Returns the panels (``None`` outside ``order``), the panel stacks,
    the updates nobody in ``order`` consumed (in the order they were
    produced; none when ``order`` covers the tree), the peak live update
    bytes, and the stacked calls issued / fronts they covered.

    The panels of a leaf group lying wholly inside ``order`` are the
    slices of one ``(B, size, k)`` stack, whatever computed them (the
    solve phase sweeps a group as one stack,
    :class:`repro.multifrontal.solve.SolvePlan`); the stacks are returned
    keyed by the group's first member.  Same-shape host-P1 leaf fronts
    also *run* stacked (:mod:`repro.multifrontal.batched`), bit-identical
    per slice to the per-front path; a group any member of which resolved
    elsewhere (a device policy computes in float32) is computed front by
    front and written into its stack.
    """
    order = np.asarray(order).tolist()
    kids = sf.schildren()
    plan = get_assembly_plan(a, sf)
    a_data = a.data
    panels: list[np.ndarray | None] = [None] * sf.n_supernodes
    updates: dict[int, np.ndarray] = {}
    live_update_bytes = 0
    peak_update_bytes = 0

    walked = np.zeros(sf.n_supernodes, dtype=bool)
    walked[order] = True
    stacks: dict[int, np.ndarray] = {}
    #: group and position in it of every member of a group inside ``order``
    slot_of: dict[int, tuple[BatchGroup, int]] = {}
    #: the members of those of them that run stacked
    on_host: set[int] = set()
    for g in plan.groups:
        if walked[list(g.sids)].all():
            slot_of.update((s, (g, i)) for i, s in enumerate(g.sids))
            if all(type(bases[s]) is PolicyP1 for s in g.sids):
                on_host.update(g.sids)
            else:
                stacks[g.sids[0]] = np.empty((len(g), g.size, g.k))
    #: per-member update of the groups factored so far, consumed when the
    #: member's turn comes
    pending: dict[int, "np.ndarray | None"] = {}
    batch_tasks = 0
    workspace = np.empty(
        max((sf.rows[s].size for s in order if s not in on_host), default=0) ** 2
    )

    for s in order:
        g, i = slot_of.get(s, (None, 0))
        if s in on_host:
            head = g.sids[0]
            if head not in stacks:
                stacks[head], group_updates = factor_batch_group(sf, a_data, g)
                pending.update(zip(g.sids, group_updates))
                batch_tasks += 1
            panels[s], u = stacks[head][i], pending.pop(s)
        else:
            size = sf.rows[s].size
            k = sf.width(s)
            child_updates = [(c, updates.pop(c)) for c in kids[s] if c in updates]
            live_update_bytes -= sum(cu.nbytes for _, cu in child_updates)
            front = assemble_front_planned(
                plan, a_data, size, s, child_updates, workspace
            )
            try:
                bases[s].apply(front, k, worker)
            except NotPositiveDefiniteError as exc:
                raise breakdown_error(sf, s, exc) from exc
            if g is None:
                panels[s] = front[:, :k].copy()
            else:
                panels[s] = stacks[g.sids[0]][i]
                panels[s][...] = front[:, :k]
            u = front[k:, k:].copy() if size > k else None
        if u is not None:
            updates[s] = u
            live_update_bytes += u.nbytes
            peak_update_bytes = max(peak_update_bytes, live_update_bytes)
    return panels, stacks, updates, peak_update_bytes, batch_tasks, len(on_host)


def postorder_numeric_factor(
    a: CSCMatrix,
    sf: SymbolicFactor,
    bases: list[Policy],
    worker: Worker,
    node: SimulatedNode,
    records: list[FURecord],
    *,
    makespan: float,
    spost: "np.ndarray | None" = None,
    assembly_seconds: float = 0.0,
) -> NumericFactor:
    """The numerics pass: every panel of ``P A P^T = L L^T``, computed in
    postorder against one worker under the per-supernode policies
    ``bases``.

    This is what makes every backend — serial, static, dynamic and the
    cluster loop — bit-identical: whatever schedule priced ``records``
    and ``makespan``, the floating-point work runs here
    (:func:`_numeric_walk`), one way.
    """
    panels, stacks, leftover, peak_update_bytes, batch_tasks, batched_fronts = (
        _numeric_walk(a, sf, bases, worker, sf.spost if spost is None else spost)
    )
    if leftover:
        raise AssertionError("unconsumed update matrices: symbolic tree broken")

    return NumericFactor(
        sf=sf,
        panels=panels,  # type: ignore[arg-type]
        stacks=stacks,
        records=records,
        makespan=makespan,
        node=node,
        peak_update_bytes=peak_update_bytes,
        assembly_seconds=assembly_seconds,
        batch_tasks=batch_tasks,
        batched_fronts=batched_fronts,
    )


def factorize_numeric(
    a: CSCMatrix,
    sf: SymbolicFactor,
    policy: Policy,
    *,
    node: SimulatedNode | None = None,
    spost: "np.ndarray | None" = None,
) -> NumericFactor:
    """Factor ``P A P^T = L L^T`` under ``policy`` on a (possibly fresh)
    simulated node, serially on worker 0: one pricing pass over the
    virtual clock, then the numerics pass.

    Parameters
    ----------
    a : CSCMatrix
        The original SPD matrix, storing both triangles or either one
        (as :func:`repro.symbolic.symbolic_factorize` takes it): each
        entry is read from whichever side of the diagonal it is stored
        on, whatever the permutation does to it; of a pair stored on
        both sides the entry below the diagonal of ``P A P^T`` counts.
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
    """
    if node is None:
        node = SimulatedNode(n_cpus=1, n_gpus=1)
    worker = Worker.canonical(node)
    records, bases, assembly_seconds = _price_once(sf, policy, node, worker, spost)
    return postorder_numeric_factor(
        a, sf, bases, worker, node, records,
        makespan=node.now, spost=spost, assembly_seconds=assembly_seconds,
    )


@dataclass
class ReplayResult:
    """Timing-only walk of a factorization (no floating-point work).

    Produced by :func:`replay_factorize`: the pricing pass of
    :func:`factorize_numeric` on its own — same task graphs, same engine
    contention — at a small fraction of the cost.  The benchmark
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

    This is the very walk :func:`factorize_numeric` prices with (same
    ``Policy.plan`` calls, same assembly charges, same engine
    timelines), so the makespan matches a numeric run; a replay record
    additionally counts its front's assembly task.
    """
    if node is None:
        node = SimulatedNode(n_cpus=1, n_gpus=1)
    worker = Worker.canonical(node)
    records, _, assembly_seconds = _price_postorder(
        sf, policy, node, worker, spost, assembly_in_record=True
    )
    return ReplayResult(
        sf=sf, records=records, makespan=node.now, node=node,
        assembly_seconds=assembly_seconds,
    )
