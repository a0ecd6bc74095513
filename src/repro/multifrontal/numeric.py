"""Numeric multifrontal factorization: the pricing pass and the
numerics pass.

The two are independent.  The *pricing pass* walks the supernodal tree
in postorder charging the virtual clock: per supernode it resolves the
placement policy for its (m, k) and schedules the front's assembly and
factor-update tasks on the node's engines.  The simulated makespan of
the whole factorization is the node's final engine time; per-call
records carry the per-component busy times that Figures 2/5/6 and
Table IV are built from.  It is a function of the pattern, the policy
and the node model, so every pricer — this serial walk and the
schedulers of :mod:`repro.parallel` — keeps the outcome of a pure pass
on the symbolic factor and a warm ``refactorize`` does not pay for it
again (:func:`price_once_per_pattern`).  The *numerics pass*
(:func:`postorder_numeric_factor`) does the floating-point work — one
way, the fastest bit-identical way, under every backend's task-to-worker
mapping: assemble each front, run its factor-update, hand the update
matrix to the parent.  Its device kernels run uncharged; what the pass
owes the device clock (``cublas.busy_seconds``) is one list of kernel
seconds, also fixed by the pattern, kept with the priced pass and added
after the walk.  Every pricer hands the numerics pass one frozen
:class:`PricedPass`, and nothing else.
"""

from __future__ import annotations

import copy
from dataclasses import astuple, dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.dense.kernels import NotPositiveDefiniteError
from repro.gpu.allocator import AllocationStats
from repro.gpu.clock import EngineTimeline, SimTask, TaskGraph, schedule_graph
from repro.gpu.cublas import KernelCall
from repro.gpu.device import SimulatedNode
from repro.gpu.perfmodel import PerfModel
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.batched import breakdown_error, front_groups
from repro.multifrontal.frontal import (
    AssemblyPlan, assemble_group, assembly_bytes, get_assembly_plan,
)
from repro.multifrontal.solve import SweepTable, get_solve_plan
from repro.policies.base import Policy, Worker
from repro.symbolic.symbolic import SymbolicFactor, factor_update_flops

if TYPE_CHECKING:
    from repro.runtime.engine import RuntimeResult

__all__ = [
    "FURecord",
    "NumericFactor",
    "PricedPass",
    "ResidencyStats",
    "device_kernels",
    "factorize_numeric",
    "postorder_numeric_factor",
    "price_once_per_pattern",
    "price_serial",
]


@dataclass(frozen=True)
class FURecord:
    """Instrumentation record of one front: ``start`` is its assembly
    task's and ``end`` its factor-update's last task's, and a pricing
    pass that times every task (the serial walk) fills ``components``
    with all of them, ``"assemble"`` included."""

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


def _device_fronts(sf: SymbolicFactor, bases: Sequence[Policy], order):
    """``(base, m, k)`` of every front of ``order`` whose base policy
    runs device kernels, in order."""
    mk = sf.mk_pairs().tolist()
    for s in np.asarray(order).tolist():
        if bases[s].needs_gpu:
            yield bases[s], *mk[s]


def device_kernels(
    sf: SymbolicFactor, bases: Sequence[Policy], order
) -> list[KernelCall]:
    """Every device kernel the numerics pass runs over the supernodes of
    ``order`` under ``bases``, in the walk's order: each front's
    ``kernel_calls`` at its own turn.  A stacked leaf group runs each of
    these kernels once for all its members, but its slices are
    bit-identical to the members run on their own, so the device is
    charged as if they had been: each member's kernels at its turn."""
    return [
        c for base, m, k in _device_fronts(sf, bases, order)
        for c in base.kernel_calls(m, k)
    ]


def _kernel_seconds(
    sf: SymbolicFactor, bases: Sequence[Policy], worker: Worker, order
) -> tuple[float, ...]:
    """The simulated seconds of :func:`device_kernels` on ``worker``'s
    GPU, one per kernel, in order.  A front's kernels are a function of
    its base policy, ``m`` and ``k``, so each such triple is priced once
    (a paper-scale tree has a few hundred among thousands of fronts)."""
    if worker.gpu is None:
        return ()
    time = worker.gpu.cublas.model.kernel_time
    priced: dict[tuple[Policy, int, int], tuple[float, ...]] = {}
    seconds: list[float] = []
    for front in _device_fronts(sf, bases, order):
        if front not in priced:
            base, m, k = front
            priced[front] = tuple(
                time("gpu", c.kernel, m=c.m, n=c.n, k=c.k)
                for c in base.kernel_calls(m, k)
            )
        seconds += priced[front]
    return tuple(seconds)


@dataclass
class ResidencyStats:
    """Transfer and residency accounting of a serial pass under a
    resident policy (:attr:`~repro.policies.base.Policy.resident`)."""

    n_device_supernodes: int = 0
    n_host_supernodes: int = 0
    resident_reuse_bytes: float = 0.0    # update bytes that never crossed PCIe
    h2d_bytes: float = 0.0
    d2h_bytes: float = 0.0
    n_spills: int = 0
    peak_resident_bytes: int = 0


@dataclass(frozen=True)
class PricedPass:
    """What a pricing pass hands the numerics pass, and all it hands it:
    one record per front in the pass's order, the base policy each
    supernode is computed under (indexed by supernode id), the seconds
    of every device kernel those policies run on the canonical worker's
    GPU, in the walk's order (:func:`device_kernels`) — the only time the
    numerics pass keeps — the simulated makespan and assembly seconds,
    the supernode order the numerics pass walks, the scheduler's
    :class:`~repro.runtime.RuntimeResult` (``None`` for a serial walk),
    and the :class:`ResidencyStats` of a serial walk under a resident
    policy (else ``None``).

    Every pricer returns one: the serial walk (:func:`price_serial`) and
    the scheduled executors (:func:`repro.parallel.parallel_schedule`).
    Frozen all the way down but for the residency statistics, which no
    kept pass has, so a pass kept per pattern
    (:func:`price_once_per_pattern`) is handed out as it is: a warm
    factorization neither rebuilds a record nor resolves a policy (a
    selector's choice included) nor prices a kernel.  Which policies the
    pass chose is read off ``bases`` and ``records``.
    """

    records: tuple[FURecord, ...]
    bases: tuple[Policy, ...]
    kernel_seconds: tuple[float, ...]
    makespan: float
    assembly_seconds: float
    order: tuple[int, ...]
    runtime: "RuntimeResult | None" = None
    residency: ResidencyStats | None = None

    @classmethod
    def of(
        cls, sf: SymbolicFactor, records, bases, worker: Worker, order,
        makespan: float, assembly_seconds: float = 0.0, runtime=None,
        residency: ResidencyStats | None = None,
    ) -> "PricedPass":
        order = tuple(np.asarray(order).tolist())
        return cls(
            tuple(records), tuple(bases),
            _kernel_seconds(sf, bases, worker, order),
            makespan, assembly_seconds, order, runtime, residency,
        )

    @property
    def task_dispatches(self) -> int:
        """Work dispatches the scheduler issued (a scheduled pass)."""
        return self.runtime.task_dispatches

    def utilization(self) -> float:
        """Mean worker busy share of the schedule (a scheduled pass)."""
        return self.runtime.utilization()


@dataclass
class NumericFactor:
    """The computed factor plus everything the analysis layer wants."""

    sf: SymbolicFactor
    #: per-supernode (rows x k) [L1; L2], in the dtype it was computed
    #: in: float32 where a device front computed it, else float64
    panels: list[np.ndarray]
    #: the ``(B, rows, k)`` array the panels of each group are the slices
    #: of, by the group's first member (a group of one too,
    #: :func:`repro.multifrontal.batched.front_groups`)
    stacks: dict[int, np.ndarray]
    records: list[FURecord]
    makespan: float                 # simulated seconds, end-to-end
    node: SimulatedNode
    peak_update_bytes: int = 0
    assembly_seconds: float = 0.0
    #: stacked small-front execution: ``apply`` calls on more than one
    #: front the numerics pass issued / fronts they covered (both 0 when
    #: it found nothing to group)
    batch_tasks: int = 0
    batched_fronts: int = 0
    #: the pricing pass's residency statistics (a resident policy's)
    residency: ResidencyStats | None = None
    #: the solve phase's sweep table (:func:`repro.multifrontal.solve.sweep_table`),
    #: bound by the numerics pass; whoever edits a panel in place resets it
    #: to ``None``, and the next solve binds it again from the panels
    sweep: SweepTable | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.sf.n

    @property
    def task_dispatches(self) -> int:
        """Number of work dispatches (``apply`` calls) the factorization
        issued: every front computed alone is one, every stacked call one."""
        return self.sf.n_supernodes - self.batched_fronts + self.batch_tasks

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
            d = np.diagonal(self.panels[s][:k, :k]).astype(np.float64)
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


@dataclass(frozen=True)
class _KeptPass:
    """What one *pure* pricing pass left behind, kept in one slot on the
    :class:`SymbolicFactor` (``_priced_pass``, beside ``_assembly_plan``)
    so that a warm ``refactorize`` does not price again what only the
    pattern decides — whichever pass priced it: the serial walk
    (:func:`price_serial`) or a scheduler
    (:func:`repro.parallel.parallel_schedule`).  Immutable: the node's
    end state is kept as plain values and the outcome is a frozen
    :class:`PricedPass`, which a hit hands out as it is; a refill
    replaces the slot (last writer wins between threads sharing the
    symbolic factor)."""

    key: tuple                      # :func:`_pass_key`, a copy
    models: tuple[PerfModel, ...]   # the node's and its GPUs', copies
    outcome: PricedPass             # what the pass returned
    #: every engine timeline's fields, in the node's order
    engines: tuple[tuple, ...]
    #: end state of every GPU pool of the node: capacity (``None`` for a
    #: per-call pool, which keeps none), ``in_use``, statistics' fields
    pools: tuple[tuple["int | None", int, tuple], ...]


def _gpu_pools(node: SimulatedNode) -> list:
    return [p for g in node.gpus for p in (g.device_pool, g.pinned_pool)]


def _pass_key(
    policy: Policy, node: SimulatedNode, workers: list[Worker], how
) -> "tuple | None":
    """The key a pricing pass is kept under, or ``None`` where the one
    rule says the pass is not a function of any key.

    The rule: the caller can name everything the pass depends on (``how``;
    ``None`` for faults or a memory budget), the node is fresh (no engine
    timeline — records carry absolute times — and every GPU pool empty,
    with zero statistics: resolution and admission read the pools), and
    the policy is a value (:meth:`~repro.policies.base.Policy.key`, a
    selector's included).  The key then holds ``how``, the policy's key,
    each worker's CPU engine and GPU, and each GPU's id and pool kinds
    and limits; the perf models go beside it, compared by value.
    """
    policy_key = policy.key()
    if (
        how is None
        or policy_key is None
        or node.engines
        or any(
            p.in_use or getattr(p, "capacity", 0) or p.stats != AllocationStats()
            for p in _gpu_pools(node)
        )
    ):
        return None
    index = {id(g): i for i, g in enumerate(node.gpus)}
    if any(w.gpu is not None and id(w.gpu) not in index for w in workers):
        return None
    return (
        how, policy_key,
        tuple((w.cpu_engine, None if w.gpu is None else index[id(w.gpu)])
              for w in workers),
        tuple((g.gpu_id, type(p), p.capacity_limit)
              for g in node.gpus for p in (g.device_pool, g.pinned_pool)),
    )


def price_once_per_pattern(
    sf: SymbolicFactor,
    policy: Policy,
    node: SimulatedNode,
    workers: list[Worker],
    how,
    price: Callable[[], PricedPass],
) -> PricedPass:
    """``price()`` — a pricing pass of ``policy`` over ``workers`` of
    ``node``, driven as ``how`` says — paid once per pattern where the
    pass is a function of the pattern (:func:`_pass_key`).

    A hit needs the slot's key and perf models; it builds the engine
    timelines and every GPU pool's capacity, ``in_use`` and statistics
    the pass left, and returns the kept pass (frozen, so it is handed
    out as it is): the node and the pass read exactly as after a real
    pass.  A pure miss keeps the pass, the node's end state and copies
    of the key and the perf models, so that a policy or model edited in
    place after the pass does not match it.  Everything else prices as
    if this function did not exist.
    """
    key = _pass_key(policy, node, workers, how)
    models = (node.model, *(g.model for g in node.gpus))
    memo: _KeptPass | None = getattr(sf, "_priced_pass", None)
    if key is not None and memo and memo.key == key and memo.models == models:
        node.engines.update((row[0], EngineTimeline(*row)) for row in memo.engines)
        for pool, (capacity, in_use, stats) in zip(_gpu_pools(node), memo.pools):
            if capacity is not None:
                pool.capacity = capacity
            pool.in_use = in_use
            pool.stats = AllocationStats(*stats)
        return memo.outcome
    outcome = price()
    if key is not None:
        sf._priced_pass = _KeptPass(  # type: ignore[attr-defined]
            copy.deepcopy(key), copy.deepcopy(models), outcome,
            tuple(astuple(t) for t in node.engines.values()),
            tuple(
                (getattr(p, "capacity", None), p.in_use, astuple(p.stats))
                for p in _gpu_pools(node)
            ),
        )
    return outcome


def _host_chain(
    base: Policy, m: int, k: int, worker: Worker, model: PerfModel
) -> "tuple[tuple[str, float], ...] | None":
    """The ordered ``(category, duration)`` steps of ``base``'s plan of
    an (m, k) call where that plan is one chain on ``worker``'s CPU
    engine: every task on that engine, each depending on the one before
    it alone (the first on the call's dependencies), the last the plan's
    final task.  ``None`` otherwise, and, without planning, for a policy
    that needs a GPU: a device plan reserves pool memory, so it is
    planned front by front."""
    if base.needs_gpu:
        return None
    g = TaskGraph()
    prev = SimTask("deps", worker.cpu_engine, 0.0)
    plan = base.plan(m, k, worker, model, g, deps=(prev,))
    for t in g.tasks:
        if t.engine != worker.cpu_engine or len(t.deps) != 1 or t.deps[0] is not prev:
            return None
        prev = t
    if plan.final is not prev:
        return None
    return tuple((t.category, t.duration) for t in g.tasks)


class _Residency:
    """The updates a serial pass keeps on its worker's device (the
    Section VI-C copy optimization, :class:`~repro.policies.base.PolicyP4r`)
    and the transfers they cost or spare.  A front uploads the entries of
    A ``plan`` gives it, or one per row without a plan (a paper-scale
    workload, where no matrix exists)."""

    def __init__(self, worker: Worker, model: PerfModel, plan: "AssemblyPlan | None"):
        self.worker, self.model, self.plan = worker, model, plan
        self.stats = ResidencyStats()
        #: entries of each update resident on the device, oldest first
        self.updates: dict[int, int] = {}

    def _copy(self, g: TaskGraph, name: str, engine: str, nbytes, deps) -> SimTask:
        t = self.model.transfer_time(nbytes, pinned=True)
        return g.add(name, engine, t, deps, "copy")

    def fetch(self, g: TaskGraph, children, deps) -> tuple[SimTask, ...]:
        """A host front's downloads of its children's resident updates
        (or, at the end of a prefix order, of the updates it leaves to
        the host Schur complement)."""
        word, tasks = self.model.gpu_word, []
        for c in children:
            if c in self.updates:
                nbytes = self.updates.pop(c) * word
                tasks.append(self._copy(g, "d2h:child", self.worker.gpu.d2h_engine, nbytes, deps))
                self.stats.d2h_bytes += nbytes
        return tuple(tasks)

    def device_front(
        self, g: TaskGraph, s: int, m: int, k: int, base: Policy, children, mk, deps
    ) -> tuple[float, SimTask]:
        """Front ``s`` on the device: uploads of A's entries and of the
        children's updates not resident, a device extend-add, ``base``'s
        kernels, the panel's download; its update stays, the largest
        resident ones spilled while the device is full.  Returns the
        extend-add's seconds and the front's final task."""
        gpu, model, stats = self.worker.gpu, self.model, self.stats
        word, size = model.gpu_word, m + k
        stats.n_device_supernodes += 1
        n_entries = self.plan.src[s].size if self.plan is not None else size
        a_bytes = 2.0 * n_entries * word  # values + indices
        last = self._copy(g, "h2d:A", gpu.h2d_engine, a_bytes, deps)
        stats.h2d_bytes += a_bytes
        asm_bytes = 2.0 * size * size * word
        for c in children:
            n = mk[c][0] ** 2
            if self.updates.pop(c, None) is None:
                last = self._copy(g, "h2d:child", gpu.h2d_engine, n * word, (last,))
                stats.h2d_bytes += n * word
            else:
                stats.resident_reuse_bytes += n * word
            asm_bytes += 2.0 * n * word
        # the extend-add runs at device memory bandwidth
        t_asm = asm_bytes / (gpu.spec.device_bandwidth_gbs * 1e9)
        prev = g.add("dev-assemble", gpu.compute_engine, t_asm, (last,), "assemble")
        for c in base.kernel_calls(m, k):
            t = model.kernel_time("gpu", c.kernel, m=c.m, n=c.n, k=c.k)
            prev = g.add(f"gpu:{c.kernel}", gpu.compute_engine, t, (prev,), c.kernel)
        panel_bytes = (k * k + m * k) * word
        prev = self._copy(g, "d2h:L", gpu.d2h_engine, panel_bytes, (prev,))
        stats.d2h_bytes += panel_bytes
        final = g.add("done", self.worker.cpu_engine, 0.0, (prev,), "other")
        if m > 0:
            resident = self.updates
            while resident and (sum(resident.values()) + m * m) * word > gpu.spec.memory_bytes:
                nbytes = resident.pop(max(resident, key=resident.__getitem__)) * word
                final = self._copy(g, "d2h:spill", gpu.d2h_engine, nbytes, (final,))
                stats.d2h_bytes += nbytes
                stats.n_spills += 1
            resident[s] = m * m
            stats.peak_resident_bytes = max(
                stats.peak_resident_bytes, sum(resident.values()) * word
            )
        return t_asm, final


def price_serial(
    sf: SymbolicFactor,
    policy: Policy,
    node: SimulatedNode,
    spost: "np.ndarray | None" = None,
    plan: "AssemblyPlan | None" = None,
) -> PricedPass:
    """The serial pricing pass: charge the factorization to ``node``'s
    virtual clock, walking ``spost`` (default ``sf.spost``) on the
    node's canonical worker.  No floating-point work, and no knowledge
    of how the numerics pass will execute the fronts.

    Per front an assembly task on the worker's CPU engine, then the
    resolved policy's ``plan``; its record starts at the assembly task
    and its ``components`` cover every task, ``"assemble"`` included.  A
    front resolves to host ``P1`` where the worker has no device it fits
    on.  Each distinct (m, k) is resolved once per pass: the policy is a
    value, so its choice is a function of the shape.  A host plan is one
    chain of CPU steps, a function of its base policy and (m, k): each
    such shape is planned once per pass (:func:`_host_chain`) and its
    fronts are advanced in closed form,
    with the float adds ``schedule_graph`` makes, in its order — start
    at the later of the children's ends and the engine's ``free_at``,
    then ``end += d`` and ``busy += d`` per step — leaving a finished
    stub as the front's final task.  Every other front is one
    :class:`TaskGraph` and one ``schedule_graph`` call.  Paid once per
    pattern where the pass is a function of the pattern
    (:func:`price_once_per_pattern`: fresh node, a policy that is a
    value — P1 to P4 and the paper's selectors alike); the key adds the
    order walked.

    Under a resident policy (:attr:`~repro.policies.base.Policy.resident`)
    a ``P4r`` front keeps its update on the device, a host front first
    downloads its children's resident updates (:class:`_Residency`, which
    reads ``plan``), and the pass carries :class:`ResidencyStats`; such a
    pass is never kept.  A prefix order (a Schur complement's,
    :func:`repro.multifrontal.schur.partial_factorize`) ends with one
    download per update still resident, which the host folds.
    """
    worker = Worker.canonical(node)
    order = np.asarray(sf.spost if spost is None else spost)

    def price() -> PricedPass:
        model = node.model
        kids = sf.schildren()
        mk = sf.mk_pairs().tolist()
        final_task: dict[int, SimTask] = {}
        records: list[FURecord] = []
        bases: list[Policy] = [policy] * sf.n_supernodes
        #: per (m, k): its base policy, host chain's steps (or ``None``) and flops
        shapes: dict[tuple[int, int], tuple] = {}
        residency = _Residency(worker, model, plan) if policy.resident else None
        assembly_seconds = 0.0
        for s in order.tolist():
            m, k = mk[s]
            t_asm = model.host_memory_time(
                assembly_bytes(m + k, [mk[c][0] for c in kids[s]])
            )
            deps = tuple(final_task[c] for c in kids[s] if c in final_task)

            if (m, k) not in shapes:
                base = policy.resolve(m, k, worker)
                shapes[m, k] = (
                    base, _host_chain(base, m, k, worker, model),
                    factor_update_flops(m, k),
                )
            base, steps, flops = shapes[m, k]
            bases[s] = base
            held = residency is not None and any(c in residency.updates for c in kids[s])
            if steps is None or held:
                g = TaskGraph()
                if residency is not None and base.resident:
                    t_asm, final = residency.device_front(
                        g, s, m, k, base, kids[s], mk, deps
                    )
                else:
                    fetched = residency.fetch(g, kids[s], deps) if held else ()
                    asm_task = g.add(
                        f"assemble:{s}", worker.cpu_engine, t_asm,
                        deps + fetched, "assemble",
                    )
                    final = base.plan(m, k, worker, model, g, deps=(asm_task,)).final
                schedule_graph(g, engines=node.engines)
                final_task[s] = final
                start, end = min(t.start for t in g.tasks), final.end
                components = g.total_by_category()
            else:
                cpu = node.engines.setdefault(
                    worker.cpu_engine, EngineTimeline(worker.cpu_engine)
                )
                ready = 0.0
                for dep in deps:
                    ready = max(ready, dep.end)
                start = end = max(ready, cpu.free_at)
                components = {}
                for category, d in (("assemble", float(t_asm)), *steps):
                    end += d
                    cpu.busy += d
                    components[category] = components.get(category, 0.0) + d
                cpu.free_at = end
                cpu.n_tasks += 1 + len(steps)
                final_task[s] = SimTask(
                    f"fu:{s}", worker.cpu_engine, 0.0, start=end, end=end
                )
            assembly_seconds += t_asm
            records.append(
                FURecord(
                    sid=s, m=m, k=k, policy=base.name, start=start, end=end,
                    components=components, flops=flops,
                )
            )
        stats = None
        if residency is not None:
            # a prefix order leaves updates to the host Schur complement
            g = TaskGraph()
            for c in list(residency.updates):
                residency.fetch(g, (c,), (final_task[c],))
            schedule_graph(g, engines=node.engines)
            stats = residency.stats
            stats.n_host_supernodes = len(records) - stats.n_device_supernodes
        return PricedPass.of(
            sf, records, bases, worker, order, node.now, assembly_seconds,
            residency=stats,
        )

    how = None if policy.resident else ("serial", order.tobytes())
    return price_once_per_pattern(sf, policy, node, [worker], how, price)


def _numeric_walk(
    a: CSCMatrix,
    sf: SymbolicFactor,
    bases: Sequence[Policy],
    worker: Worker,
    order: "np.ndarray",
    kernel_seconds: Sequence[float],
    inverses: "np.ndarray | None" = None,
) -> tuple[
    list["np.ndarray | None"], dict[int, np.ndarray], dict[int, np.ndarray],
    int, int, int, dict[int, int], dict,
]:
    """The floating-point walk over the supernodes of ``order`` (children
    before parents), one group at a time
    (:func:`repro.multifrontal.batched.front_groups`: the stacked leaf
    groups lying wholly inside ``order``, a group of one for every other
    front).  At the turn of the member it reaches first, the walk
    assembles the group into one ``(B, size, size)`` stack
    (:func:`repro.multifrontal.frontal.assemble_group`), runs one
    ``apply`` on it per base policy among its members (``bases[s]``; more
    than one only where a fallback mixed them) and keeps the ``(B, size,
    k)`` panel stack: each member's panel is a slice of it, bit-identical
    to the member's own ``apply``, and each member's update goes to its
    parent's extend-add.  A breakdown names the failing slice's supernode.

    Fronts and update matrices are live in their lower triangle only
    (:mod:`repro.multifrontal.frontal`); every stack is a view of one
    ``np.zeros`` workspace sized for the largest.  A policy with
    :attr:`~repro.policies.base.Policy.device_front` (``PolicyP4``)
    copies each of its stacks into one *device* workspace, in the device
    dtype, sized for the largest it computes.  ``apply`` returns a panel
    and an update it owns, in the dtype it computed them in — float32
    from a device front under the sp model — and the walk keeps both as
    they are: no copy, no cast, but for a mixed group, whose panels are
    widened into one float64 stack.  Nothing returned aliases either
    workspace.  Its device kernels keep no time: after the walk,
    ``kernel_seconds`` (the seconds of :func:`device_kernels` over
    ``order`` on ``worker``'s GPU, kept per pattern with the priced pass)
    are added onto that GPU's ``cublas.busy_seconds`` one by one.

    ``inverses`` is the solve phase's buffer of diagonal-block inverses
    (:class:`repro.multifrontal.solve.SolvePlan`): the walk takes its
    :meth:`~repro.multifrontal.solve.SolvePlan.slots`, float32 where the
    stack is, and the panel solves of an unmixed group leave there the
    leading blocks :meth:`~repro.policies.base.Policy.inverted_blocks`
    counts, so the solve phase does not compute them again.

    Returns the panels (``None`` outside ``order``), the panel stacks by
    each group's first member, the updates nobody in ``order`` consumed
    (in the order of their turns; none when ``order`` covers the tree),
    the peak live update bytes (an update is live from its supernode's
    turn to its parent's), the ``apply`` calls on more than one front /
    fronts they covered, how many leading blocks' inverses of which group
    (by first member) are in ``inverses``, and the slots (empty without
    ``inverses``).
    """
    order = np.asarray(order, dtype=np.int64)
    kids = sf.schildren()
    plan = get_assembly_plan(a, sf)
    turn = dict(zip(order.tolist(), range(order.size)))
    walked = np.zeros(sf.n_supernodes, dtype=bool)
    walked[order] = True
    groups = sorted(front_groups(sf, plan.groups, walked), key=lambda g: min(map(turn.get, g.sids)))
    #: per group, its members' positions by base policy: one ``apply`` each
    calls: list[dict[Policy, list[int]]] = [{} for _ in groups]
    for g, by_base in zip(groups, calls):
        for i, s in enumerate(g.sids):
            by_base.setdefault(bases[s], []).append(i)
    device_words = [
        g.size ** 2 * len(idx) for g, by_base in zip(groups, calls)
        for base, idx in by_base.items() if base.device_front
    ]
    device = worker.gpu.cublas.dtype if device_words else np.float64
    #: the groups whose panel stacks stay float32
    single = {
        g.sids[0] for g, by_base in zip(groups, calls)
        if len(by_base) == 1 and next(iter(by_base)).device_front
    } if device == np.float32 else set()
    workspace = np.zeros(max((len(g) * g.size ** 2 for g in groups), default=0))
    device_workspace = np.empty(max(device_words, default=0), device)
    slots = {} if inverses is None else get_solve_plan(sf).slots(inverses, single)
    panels: list[np.ndarray | None] = [None] * sf.n_supernodes
    stacks: dict[int, np.ndarray] = {}
    updates: dict[int, np.ndarray] = {}
    update_bytes = np.zeros(sf.n_supernodes, dtype=np.int64)
    inverted: dict[int, int] = {}
    batch_tasks = batched_fronts = 0

    for g, by_base in zip(groups, calls):
        head = g.sids[0]
        child_updates = [(c, updates.pop(c)) for s in g.sids for c in kids[s] if c in updates]
        stack = assemble_group(plan, a.data, g, child_updates, workspace)
        # a mixed group leaves no inverses: its stack is widened to float64
        out = slots.get(head) if len(by_base) == 1 else None
        panel = None if len(by_base) == 1 else np.empty((len(g), g.size, g.k))
        for base, idx in by_base.items():
            kwargs = {"workspace": device_workspace} if base.device_front else {}
            if out is not None and base.inverted_blocks(g.m, g.k):
                kwargs["inverses"] = out
                inverted[head] = base.inverted_blocks(g.m, g.k)
            try:
                part, u = base.apply(
                    stack if panel is None else stack[idx], g.k, worker, **kwargs
                )
            except NotPositiveDefiniteError as exc:
                raise breakdown_error(sf, g.sids[idx[exc.failed[0]]], exc) from exc
            if panel is None:
                panel = part
            else:
                panel[idx] = part
            for i, ui in zip(idx, u if g.m else ()):
                updates[g.sids[i]] = ui
                update_bytes[g.sids[i]] = ui.nbytes
            if len(idx) > 1:
                batch_tasks += 1
                batched_fronts += len(idx)
        stacks[head] = panel
        for s, p in zip(g.sids, panel):
            panels[s] = p
    if kernel_seconds:
        busy = worker.gpu.cublas.busy_seconds
        for t in kernel_seconds:
            busy += t
        worker.gpu.cublas.busy_seconds = busy
    # the live update bytes after each turn: its update in, its children's out
    parent = sf.sparent[order]
    consumed = np.zeros(sf.n_supernodes, dtype=np.int64)
    np.add.at(consumed, parent[parent >= 0], update_bytes[order][parent >= 0])
    live = np.cumsum(update_bytes[order] - consumed[order])
    leftover = {s: updates[s] for s in order.tolist() if s in updates}
    return (
        panels, stacks, leftover, int(live.max(initial=0)), batch_tasks,
        batched_fronts, inverted, slots,
    )


def postorder_numeric_factor(
    a: CSCMatrix, sf: SymbolicFactor, priced: PricedPass, node: SimulatedNode
) -> NumericFactor:
    """The numerics pass: every panel of ``P A P^T = L L^T``, computed
    over ``priced.order`` against ``node``'s canonical worker under the
    per-supernode policies ``priced.bases``, its device kernels' seconds
    (``priced.kernel_seconds``) added to that worker's GPU after the
    walk.

    This is what makes every backend — serial (a resident placement
    too), static, dynamic and the cluster loop — bit-identical: whatever
    pass priced ``priced``, the floating-point work runs here
    (:func:`_numeric_walk`), one way.  It ends by binding the factor's
    sweep table (:meth:`repro.multifrontal.solve.SolvePlan.bind`) from
    the buffer of inverses the walk's panel solves filled.
    """
    solve_plan = get_solve_plan(sf)
    inverses = solve_plan.new_inverses()
    (panels, stacks, leftover, peak_update_bytes, batch_tasks, batched_fronts,
     inverted, slots) = _numeric_walk(
        a, sf, priced.bases, Worker.canonical(node), priced.order,
        priced.kernel_seconds, inverses,
    )
    if leftover:
        raise AssertionError("unconsumed update matrices: symbolic tree broken")

    return NumericFactor(
        sf=sf,
        panels=panels,  # type: ignore[arg-type]
        stacks=stacks,
        records=list(priced.records),
        makespan=priced.makespan,
        node=node,
        peak_update_bytes=peak_update_bytes,
        assembly_seconds=priced.assembly_seconds,
        batch_tasks=batch_tasks,
        batched_fronts=batched_fronts,
        residency=priced.residency,
        sweep=solve_plan.bind(stacks, inverses, inverted, slots),
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
    virtual clock (:func:`price_serial`, handed the assembly plan the
    numerics pass uses), then the numerics pass.

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
        A base policy or hybrid selector;
        :func:`repro.policies.flops_placement` keeps device updates
        resident (the result's ``residency`` counts the transfers).
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
    priced = price_serial(sf, policy, node, spost, get_assembly_plan(a, sf))
    return postorder_numeric_factor(a, sf, priced, node)
