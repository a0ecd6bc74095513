"""The four base placement policies for one factor-update call.

Every policy separates *planning* from *numerics*:

* :meth:`Policy.plan` appends :class:`SimTask` objects for the kernels,
  copies and host applies of one F-U call to a task graph — this is the
  timed artifact, and is also what the policy-time estimator and the
  auto-tuner's training-data generator price (no floating point work).
* :meth:`Policy.apply` performs the actual numerics on the frontal
  matrix — or on a stack of same-shape fronts, every slice as it would
  be on its own — in the matching order: host kernels in float64, device
  kernels in float32 through the simulated CUBLAS context (so
  GPU-touched results really carry single-precision error, as the
  paper's did), and returns the factored panel and the update block
  as new arrays it owns: the host kernels write into them directly, P4
  copies them off its device front.

Nothing here runs both: the drivers in :mod:`repro.multifrontal` price a
whole factorization first (``plan`` per front, engine timelines threaded
through successive calls so copies and kernels of neighboring supernodes
contend realistically) and ``postorder_numeric_factor`` is the one
caller of ``apply``.  :meth:`Policy.kernel_calls` is the one list of the
device kernels of a call: ``plan`` prices it, ``apply`` runs it, and
the numerics pass adds its seconds to the device's busy time.

Before either, every consumer *resolves*: :meth:`Policy.resolve` is the
one answer to "which base policy runs this (m, k) on this worker", and
the only host fallback; ``plan``/``apply`` of a device policy still
assume a worker that can run them.

Transfer-volume accounting follows the paper's Equation 2:
``N_D(L1, L2) = k^2 + 2mk`` words for the trsm round trip and
``N_D(L2 L2^T) = m^2`` words for the update product, in device (float32)
words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.dense import kernels as hk
from repro.dense.blocked import blocked_cholesky_panels, default_panel_width
from repro.gpu.clock import EngineTimeline, SimTask, TaskGraph, schedule_graph
from repro.gpu.cublas import KernelCall, panel_kernel_sequence
from repro.gpu.device import SimulatedGpu, SimulatedNode
from repro.gpu.perfmodel import PerfModel

__all__ = [
    "Worker",
    "FUPlan",
    "Policy",
    "PolicyP1",
    "PolicyP2",
    "PolicyP3",
    "PolicyP4",
    "PolicyP4r",
    "ALL_BASE_POLICIES",
    "make_policy",
    "estimate_policy_time",
]


@dataclass
class Worker:
    """An execution lane: one host CPU engine plus at most one GPU.

    The paper's multi-GPU configuration runs one host thread per GPU
    ("our approach uses the same number of threads as the number of
    available GPUs"), which is exactly this pairing.
    """

    cpu_engine: str
    gpu: SimulatedGpu | None = None

    @classmethod
    def canonical(cls, node: SimulatedNode) -> "Worker":
        """``node``'s first lane (CPU 0 and, if any, GPU 0): the worker
        the serial driver runs on and every backend's numerics resolve
        and compute against."""
        return cls(node.cpus[0].engine, node.gpus[0] if node.gpus else None)

    @property
    def has_gpu(self) -> bool:
        return self.gpu is not None


@dataclass
class FUPlan:
    """The planned task graph of one F-U call."""

    graph: TaskGraph
    final: SimTask
    roles: dict[str, SimTask] = field(default_factory=dict)

    def duration_by_category(self) -> dict[str, float]:
        return self.graph.total_by_category()


#: instance state a base policy may carry and still be a value
_SCALARS = (bool, int, float, str, type(None))


class Policy:
    """Base class; concrete policies implement ``kernel_calls``, ``plan``
    and ``apply``, and a device policy declares its working set
    (``device_words``).
    The pricing pass, the task pricer, the event loop and the numerics
    of every backend all ask :meth:`resolve`, so the clock and the
    floating-point work cannot disagree about a front."""

    name: str = "?"
    needs_gpu: bool = True
    #: whether :meth:`apply` factors a device copy of the front and
    #: returns the panel and U in the device dtype (``PolicyP4``): the
    #: factor keeps that panel, and the update stays in the device word
    #: until the parent's extend-add widens it
    device_front: bool = False
    #: whether a front this policy places on the device keeps its update
    #: there for the parent (``PolicyP4r``; a selector whose table holds
    #: such a base): its serial passes carry
    #: :class:`~repro.multifrontal.numeric.ResidencyStats`
    resident: bool = False
    #: the host policy :meth:`resolve` falls back to (``PolicyP1``, set
    #: below its definition; a selector's own table may supply another)
    fallback: "Policy"

    # -- resolution -------------------------------------------------------
    def key(self) -> "tuple | None":
        """What a pricing pass of this policy is kept under
        (:func:`repro.multifrontal.numeric.price_once_per_pattern`): a
        value, compared with ``==``, that two policies share only where
        they resolve and price alike, or ``None`` where the policy is
        not a value.  A base policy is its type and its instance state,
        where that state is plain scalars (a wrapped method is not a
        value)."""
        state = vars(self)
        if not all(isinstance(v, _SCALARS) for v in state.values()):
            return None
        return type(self), tuple(sorted(state.items()))

    def select(self, m: int, k: int) -> "Policy":
        """The base policy this policy wants for an (m, k) call: itself,
        or a selector's choice."""
        return self

    def device_words(self, m: int, k: int) -> int:
        """Device (float32) words the working set of one (m, k) call
        needs, per the transfer volumes of Section IV-B (Equation 2) —
        the number ``plan`` reserves from the device pool."""
        return 0

    def resolve(self, m: int, k: int, worker: Worker) -> "Policy":
        """The base policy that runs an (m, k) call on ``worker``: what
        :meth:`select` wants, or the host fallback when ``worker`` owns
        no GPU or the working set does not fit its device pool ("the
        memory limitations of GPU ... requires deployment and
        coordination among multiple CPUs and GPUs to handle large
        matrices", Section IV-B)."""
        want = self.select(m, k)
        gpu = worker.gpu
        if want.needs_gpu and (gpu is None or not gpu.device_pool.fits(
            want.device_words(m, k) * gpu.model.gpu_word
        )):
            return self.fallback
        return want

    def update_word(self, model: PerfModel) -> int:
        """Bytes per word of the update an :meth:`apply` of this policy
        hands its parent under ``model``."""
        return model.gpu_word if self.device_front else model.CPU_WORD

    def inverted_blocks(self, m: int, k: int) -> int:
        """How many of the ``SUBSTITUTION_BLOCK``-column diagonal blocks
        of an (m, k) call's pivot block, counted from the first (the full
        ones, then a tail), its panel solves invert, so that :meth:`apply`
        can leave them in an ``inverses=`` output."""
        return 0

    # -- planning ---------------------------------------------------------
    def kernel_calls(self, m: int, k: int) -> list[KernelCall]:
        """The device kernels of one (m, k) call, in order: what ``plan``
        prices and ``apply`` runs on the device."""
        raise NotImplementedError

    def plan(
        self,
        m: int,
        k: int,
        worker: Worker,
        model: PerfModel,
        graph: TaskGraph,
        deps: tuple = (),
    ) -> FUPlan:
        raise NotImplementedError

    # -- numerics ---------------------------------------------------------
    def apply(
        self, front: np.ndarray, k: int, worker: Worker
    ) -> tuple[np.ndarray, np.ndarray]:
        """Factor the assembled ``front``, or every front of a ``(B, size,
        size)`` stack (a group, :mod:`repro.multifrontal.batched`: the
        numerics pass hands every front over as one, ``B = 1`` for a
        front alone) with the same kernels, each taking the whole stack
        in one call; returns ``(panel, U)``, the
        factored ``[L1; L2]`` columns and the update block ``F22 - L2
        L2^T``, in the dtype they were computed in.  Both are new
        C-contiguous arrays the caller owns — they share no memory with
        ``front`` or any workspace, and ``apply`` writes every element
        of both (U is live in its lower triangle; above it U holds what
        the kernels left there, never uninitialized memory) — so the
        caller keeps them as they are.  ``front`` is only read.
        Slice ``i`` of a stack's result is bit for bit the result of
        ``apply`` on front ``i`` alone, and a breakdown names the failing
        slice (:attr:`repro.dense.kernels.NotPositiveDefiniteError.failed`)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Policy {self.name}>"


def _host_panel(
    front: np.ndarray, k: int, *, solve: bool = True, inverses=None
) -> tuple[np.ndarray, np.ndarray]:
    """The host half of a factor-update on ``front`` (or on every slice of
    a stack): a new C-contiguous ``(..., size, k)`` panel holding potrf's
    L1 and, with ``solve``, the panel solve of L2 written straight below
    it (``inverses`` as :func:`repro.dense.kernels.trsm_right_lower`
    takes them), and a new, unset ``(..., m, m)`` update for the caller
    to write ``F22 - L2 L2^T`` into.  Neither shares memory with
    ``front``."""
    size = front.shape[-1]
    lead = front.shape[:-2]
    panel = np.empty((*lead, size, k), front.dtype)
    panel[..., :k, :] = hk.potrf(front[..., :k, :k])
    if solve and size > k:
        hk.trsm_right_lower(
            front[..., k:, :k], panel[..., :k, :], inverses=inverses,
            out=panel[..., k:, :],
        )
    return panel, np.empty((*lead, size - k, size - k), front.dtype)


def _host_apply_time(model: PerfModel, m: int) -> float:
    """Host-side ``U -= W`` axpy: read W, read+write U (3 m^2 doubles)."""
    return model.host_memory_time(3.0 * m * m * model.CPU_WORD)


def _gpu_time(model: PerfModel, call: KernelCall) -> float:
    return model.kernel_time("gpu", call.kernel, m=call.m, n=call.n, k=call.k)


class PolicyP1(Policy):
    """Everything on the host CPU in double precision."""

    name = "P1"
    needs_gpu = False

    def kernel_calls(self, m, k):
        return []

    def plan(self, m, k, worker, model, graph, deps=()):
        t_potrf = graph.add(
            "potrf", worker.cpu_engine,
            model.kernel_time("cpu", "potrf", k=k), deps, "potrf",
        )
        last = t_potrf
        roles = {"potrf": t_potrf}
        if m > 0:
            t_trsm = graph.add(
                "trsm", worker.cpu_engine,
                model.kernel_time("cpu", "trsm", m=m, k=k), (t_potrf,), "trsm",
            )
            t_syrk = graph.add(
                "syrk", worker.cpu_engine,
                model.kernel_time("cpu", "syrk", m=m, k=k), (t_trsm,), "syrk",
            )
            roles.update(trsm=t_trsm, syrk=t_syrk)
            last = t_syrk
        return FUPlan(graph, last, roles)

    def inverted_blocks(self, m, k):
        # the one panel solve, on every block of L1, needs rows below
        return -(-k // hk.SUBSTITUTION_BLOCK) if m > 0 else 0

    def apply(self, front, k, worker, inverses=None):
        """As :meth:`Policy.apply`; ``inverses`` receives the inverses of
        the pivot block's diagonal blocks the panel solve computes
        (:func:`repro.dense.kernels.trsm_right_lower`)."""
        panel, u = _host_panel(front, k, inverses=inverses)
        if u.size:
            hk.syrk(front[..., k:, k:], panel[..., k:, :], out=u)
        return panel, u


Policy.fallback = PolicyP1()


class PolicyP2(Policy):
    """potrf and trsm on the CPU; syrk offloaded to the GPU.

    Copies: H2D of the *solved* L2 (mk words, pinned), compute
    ``W = L2 L2^T`` on the device, D2H of W (m^2 words, pinned), then a
    host apply ``U -= W``.  The H2D cannot overlap the potrf/trsm because
    it needs the solved panel, so P2 pays the full transfer on its
    critical path — which is why it only wins a band of moderate sizes
    (Figures 10-12).
    """

    name = "P2"

    def device_words(self, m, k):
        return m * k + m * m

    def kernel_calls(self, m, k):
        return [KernelCall("syrk", m=m, k=k)] if m > 0 else []

    def plan(self, m, k, worker, model, graph, deps=()):
        gpu = worker.gpu
        word = model.gpu_word
        t_potrf = graph.add(
            "potrf", worker.cpu_engine,
            model.kernel_time("cpu", "potrf", k=k), deps, "potrf",
        )
        roles = {"potrf": t_potrf}
        if m == 0:
            return FUPlan(graph, t_potrf, roles)
        t_trsm = graph.add(
            "trsm", worker.cpu_engine,
            model.kernel_time("cpu", "trsm", m=m, k=k), (t_potrf,), "trsm",
        )
        # the working set lives for this one planned call: the pool's
        # high-water mark (capacity) keeps the warm-start pricing while
        # in_use returns to zero even if graph building raises
        nbytes = self.device_words(m, k) * word
        (syrk,) = self.kernel_calls(m, k)
        with gpu.working_set(nbytes, nbytes) as alloc:
            t_prep = graph.add(
                "pin/alloc", worker.cpu_engine, alloc, (t_trsm,), "alloc"
            )
            t_h2d = graph.add(
                "h2d:L2", gpu.h2d_engine,
                model.transfer_time(m * k * word, pinned=True), (t_prep,), "copy",
            )
            t_syrk = graph.add(
                "syrk", gpu.compute_engine, _gpu_time(model, syrk), (t_h2d,), "syrk",
            )
            t_d2h = graph.add(
                "d2h:W", gpu.d2h_engine,
                model.transfer_time(m * m * word, pinned=True), (t_syrk,), "copy",
            )
            t_apply = graph.add(
                "apply:U-=W", worker.cpu_engine,
                _host_apply_time(model, m), (t_d2h,), "assemble",
            )
        roles.update(trsm=t_trsm, h2d=t_h2d, syrk=t_syrk, d2h=t_d2h, apply=t_apply)
        return FUPlan(graph, t_apply, roles)

    def apply(self, front, k, worker):
        panel, u = _host_panel(front, k)
        if u.size:
            ctx = worker.gpu.cublas
            x_dev = panel[..., k:, :].astype(ctx.dtype)  # H2D
            w = ctx.syrk_outer(x_dev)                 # device compute
            np.subtract(front[..., k:, k:], w, out=u)  # D2H + host apply
        return panel, u


class PolicyP3(Policy):
    """potrf on the CPU; trsm and syrk on the GPU, with the Section V-A2
    overlaps: H2D of the unsolved panel L2 runs *during* the host potrf,
    and the D2H of the solved L2 runs under the device syrk.

    ``overlap=False, pinned=False`` gives the paper's *basic GPU
    implementation* of Section IV — synchronous pageable copies strictly
    interleaved with the kernels — which is the configuration Figures
    2(b), 3, 5 and 6 and Table IV profile (registered as policy name
    ``"basic"``).
    """

    name = "P3"

    def __init__(self, *, overlap: bool = True, pinned: bool = True):
        self.overlap = overlap
        self.pinned = pinned
        if not (overlap and pinned):
            self.name = "P3basic"

    def device_words(self, m, k):
        return k * k + m * k + m * m

    def kernel_calls(self, m, k):
        if m == 0:
            return []
        return [KernelCall("trsm", m=m, k=k), KernelCall("syrk", m=m, k=k)]

    def plan(self, m, k, worker, model, graph, deps=()):
        gpu = worker.gpu
        word = model.gpu_word
        pinned = self.pinned
        nbytes = self.device_words(m, k) * word
        with gpu.working_set(nbytes, nbytes if pinned else 0) as alloc:
            t_prep = graph.add("pin/alloc", worker.cpu_engine, alloc, deps, "alloc")
            t_potrf = graph.add(
                "potrf", worker.cpu_engine,
                model.kernel_time("cpu", "potrf", k=k), (t_prep,), "potrf",
            )
            roles = {"potrf": t_potrf}
            if m == 0:
                return FUPlan(graph, t_potrf, roles)
            trsm, syrk = self.kernel_calls(m, k)
            # unsolved panel upload; overlaps the host potrf when enabled,
            # otherwise waits for it (the basic implementation's synchronous
            # cudaMemcpy after the host step)
            t_h2d_l2 = graph.add(
                "h2d:L2", gpu.h2d_engine,
                model.transfer_time(m * k * word, pinned=pinned),
                (t_prep,) if self.overlap else (t_potrf,), "copy",
            )
            t_h2d_l1 = graph.add(
                "h2d:L1", gpu.h2d_engine,
                model.transfer_time(k * k * word, pinned=pinned), (t_potrf,), "copy",
            )
            t_trsm = graph.add(
                "trsm", gpu.compute_engine, _gpu_time(model, trsm),
                (t_h2d_l2, t_h2d_l1), "trsm",
            )
            # solved panel comes home while the syrk runs (overlap) or before
            # the syrk may start (basic, synchronous)
            t_d2h_l2 = graph.add(
                "d2h:L2", gpu.d2h_engine,
                model.transfer_time(m * k * word, pinned=pinned), (t_trsm,), "copy",
            )
            t_syrk = graph.add(
                "syrk", gpu.compute_engine, _gpu_time(model, syrk),
                (t_trsm,) if self.overlap else (t_trsm, t_d2h_l2), "syrk",
            )
            t_d2h_w = graph.add(
                "d2h:W", gpu.d2h_engine,
                model.transfer_time(m * m * word, pinned=pinned), (t_syrk,), "copy",
            )
            t_apply = graph.add(
                "apply:U-=W", worker.cpu_engine,
                _host_apply_time(model, m), (t_d2h_w, t_d2h_l2), "assemble",
            )
        roles.update(
            trsm=t_trsm, syrk=t_syrk, h2d_l1=t_h2d_l1, h2d_l2=t_h2d_l2,
            d2h_l2=t_d2h_l2, d2h_w=t_d2h_w, apply=t_apply,
        )
        return FUPlan(graph, t_apply, roles)

    def apply(self, front, k, worker):
        panel, u = _host_panel(front, k, solve=False)
        if u.size:
            ctx = worker.gpu.cublas
            l1_dev = panel[..., :k, :].astype(ctx.dtype)  # H2D
            l2_dev = front[..., k:, :k].astype(ctx.dtype)  # H2D
            x_dev = ctx.trsm(l2_dev, l1_dev)          # device trsm
            panel[..., k:, :] = x_dev                 # D2H
            w = ctx.syrk_outer(x_dev)                 # device syrk
            np.subtract(front[..., k:, k:], w, out=u)  # D2H + host apply
        return panel, u


class PolicyP4(Policy):
    """Everything on the GPU: upload the whole frontal matrix, run the
    Figure-9 blocked panel factorization on the device, download the
    factored panel and the update matrix.

    ``apply`` writes nothing back into the host front: it copies the
    panel and U off the device front (the D2H), in the device dtype, and
    the numerics pass keeps the panel in the factor as it is — a float32
    factor keeps float32 panels, which the solve phase applies in
    float32 — and hands U to the parent's extend-add as it is (a float32
    value widens to float64 exactly, so every sum downstream keeps its
    bits).

    ``copy_optimized=True`` models the Section VI-C variant discovered
    for the multi-GPU runs: triangle-only transfer volumes and the U
    download overlapped with the tail of the panel loop, which makes P4
    "the better policy for even moderately sized frontal matrices".
    """

    name = "P4"
    device_front = True

    def __init__(self, *, copy_optimized: bool = False, panel_width: int | None = None):
        self.copy_optimized = copy_optimized
        self.panel_width = panel_width
        if copy_optimized:
            self.name = "P4c"

    def _width(self, k: int) -> int:
        return self.panel_width if self.panel_width else default_panel_width(k)

    def kernel_calls(self, m, k):
        return panel_kernel_sequence(m + k, k, self._width(k))

    def device_words(self, m, k):
        return (m + k) * (m + k)

    def plan(self, m, k, worker, model, graph, deps=()):
        gpu = worker.gpu
        word = model.gpu_word
        s = m + k
        nbytes = self.device_words(m, k) * word
        with gpu.working_set(nbytes, nbytes) as alloc:
            t_prep = graph.add(
                "pin/alloc", worker.cpu_engine, alloc, deps, "alloc"
            )
            if self.copy_optimized:
                up_words = s * (s + 1) // 2
                down_panel_words = k * (k + 1) // 2 + m * k
                down_u_words = m * (m + 1) // 2
            else:
                up_words = s * s
                down_panel_words = k * k + m * k
                down_u_words = m * m
            t_h2d = graph.add(
                "h2d:F", gpu.h2d_engine,
                model.transfer_time(up_words * word, pinned=True), (t_prep,), "copy",
            )
            # one task per device kernel of the blocked loop
            prev: SimTask = t_h2d
            kernel_tasks: list[SimTask] = []
            for c in self.kernel_calls(m, k):
                t = graph.add(
                    f"gpu:{c.kernel}", gpu.compute_engine, _gpu_time(model, c),
                    (prev,), c.kernel,
                )
                kernel_tasks.append(t)
                prev = t
            roles = {"h2d": t_h2d, "compute_last": prev}
            if self.copy_optimized and m > 0 and len(kernel_tasks) > 1:
                # U accumulates panel by panel; start draining it once ~80%
                # of the loop has retired
                drain_after = kernel_tasks[max(0, int(0.8 * len(kernel_tasks)) - 1)]
                t_d2h_u = graph.add(
                    "d2h:U", gpu.d2h_engine,
                    model.transfer_time(down_u_words * word, pinned=True),
                    (drain_after,), "copy",
                )
            elif m > 0:
                t_d2h_u = graph.add(
                    "d2h:U", gpu.d2h_engine,
                    model.transfer_time(down_u_words * word, pinned=True),
                    (prev,), "copy",
                )
            else:
                t_d2h_u = None
            t_d2h_panel = graph.add(
                "d2h:L", gpu.d2h_engine,
                model.transfer_time(down_panel_words * word, pinned=True),
                (prev,), "copy",
            )
            final_deps = [t_d2h_panel]
            if t_d2h_u is not None:
                final_deps.append(t_d2h_u)
                # ensure U is complete before its download finishes being used
                if t_d2h_u.deps and t_d2h_u.deps[0] is not prev:
                    t_sync = graph.add(
                        "sync:U", gpu.d2h_engine, 0.0, (prev, t_d2h_u), "other"
                    )
                    final_deps.append(t_sync)
            t_done = graph.add(
                "fu-done", worker.cpu_engine, 0.0, tuple(final_deps), "other"
            )
        roles["d2h_panel"] = t_d2h_panel
        if t_d2h_u is not None:
            roles["d2h_u"] = t_d2h_u
        return FUPlan(graph, t_done, roles)

    def inverted_blocks(self, m, k):
        # every panel but the last is whole blocks wide, and a trsm
        # follows every panel with rows below it: with m = 0 (a root) the
        # last panel runs none
        nb, w = hk.SUBSTITUTION_BLOCK, self._width(k)
        if w % nb:
            return 0
        return -(-k // nb) if m > 0 else (k - 1) // w * w // nb

    def apply(self, front, k, worker, inverses=None, workspace=None):
        """As :meth:`Policy.apply`.  ``workspace`` is a flat device-dtype
        buffer the device front is copied into (a new one by default),
        and ``inverses`` receives the inverses of the pivot block's
        diagonal blocks the device panel solves compute, where
        :meth:`inverted_blocks` counts them
        (:func:`repro.dense.blocked.blocked_cholesky_panels`)."""
        ctx = worker.gpu.cublas
        if workspace is None:
            workspace = np.empty(front.size, ctx.dtype)
        f_dev = workspace[:front.size].reshape(front.shape)
        np.copyto(f_dev, front)                       # H2D of the whole front
        blocked_cholesky_panels(f_dev, k, self._width(k), ctx, inverses)
        return f_dev[..., :k].copy(), f_dev[..., k:, k:].copy()  # D2H


class PolicyP4r(PolicyP4):
    """P4 whose update stays on the device for its parent: the Section
    VI-C copy optimization.  Its numerics are P4's; its transfers only
    the serial pricing pass prices
    (:func:`repro.multifrontal.numeric.price_serial`): an upload of A's
    entries and of host-resident child updates, a device extend-add, the
    Figure-9 kernels, a download of the panel, and the update left
    resident.  That pass's spill rule, not the device pool, bounds the
    resident updates, so ``device_words`` is 0; and it has no ``plan``,
    so no other pricer can price it as plain P4."""

    name = "P4r"
    resident = True

    def __init__(self):
        super().__init__()

    def device_words(self, m, k):
        return 0

    def plan(self, m, k, worker, model, graph, deps=()):
        raise TypeError(
            "P4r keeps its update on the device: only the serial pricing "
            "pass (price_serial) prices it"
        )


ALL_BASE_POLICIES = ("P1", "P2", "P3", "P4")


def make_policy(name: str, *, model=None, classifier=None, **kwargs) -> Policy:
    """Construct a policy by name — the one name table, case-insensitive.
    ``ideal`` needs ``model`` (the :class:`PerfModel` it prices with) and
    ``model`` needs ``classifier`` (a trained
    :class:`repro.autotune.classifier.PolicyClassifier`); further keyword
    arguments go to the policy's constructor."""
    from repro.policies import hybrid  # it imports this module

    key = name.lower()
    if key == "ideal" and model is None:
        raise ValueError("policy 'ideal' needs model=, a PerfModel")
    if key == "model" and classifier is None:
        raise ValueError(
            "policy 'model' needs classifier=, a trained PolicyClassifier "
            "(repro.autotune.train_default_classifier(model) trains one)"
        )
    table = {
        "p1": PolicyP1, "p2": PolicyP2, "p3": PolicyP3, "p4": PolicyP4,
        "p4c": partial(PolicyP4, copy_optimized=True),
        # the Section IV basic GPU implementation: trsm+syrk offloaded
        # with synchronous pageable copies
        "basic": partial(PolicyP3, overlap=False, pinned=False),
        "baseline": hybrid.BaselineHybrid,
        "ideal": partial(hybrid.IdealHybrid, model),
        "model": partial(hybrid.ModelHybrid, classifier),
    }
    if key not in table:
        raise ValueError(f"unknown policy {name!r}")
    return table[key](**kwargs)


def estimate_policy_time(
    policy: Policy, m: int, k: int, model: PerfModel, *, warm_pools: bool = True
) -> float:
    """Isolated simulated time of one F-U call under ``policy`` — fresh
    engines, no contention; this is the quantity T_ij the auto-tuner
    trains on and the per-call comparisons of Figures 10-12 plot.

    ``warm_pools=True`` (default) prices the steady state where the
    high-water-mark pools already fit the call (Section V-A2); pass
    False to include first-touch allocation costs.
    """
    node = SimulatedNode(model=model, n_cpus=1, n_gpus=1)
    worker = Worker.canonical(node)
    if warm_pools and worker.gpu is not None:
        s = m + k
        word = model.gpu_word
        worker.gpu.device_pool.capacity = max(1, s * s * word)
        worker.gpu.pinned_pool.capacity = max(1, s * s * word)
    graph = TaskGraph()
    plan = policy.plan(m, k, worker, model, graph, ())
    engines: dict[str, EngineTimeline] = {}
    res = schedule_graph(graph, engines=engines)
    return res.makespan
