"""Task pricing shared by every scheduler of the supernodal task DAG.

The static list scheduler (:mod:`repro.parallel.scheduler`) and the
event-driven executor (:mod:`repro.runtime.engine`, migrating or pinned
to a fleet) all ask the same questions of a task: how long does its
factor-update take on a worker with or without a GPU, under which
resolved policy, how long does its assembly take, how far is it from
the root.  One :class:`TaskPricer` answers them, so a task costs the
same whichever scheduler places it.
"""

from __future__ import annotations

import numpy as np

from repro.multifrontal.frontal import assembly_bytes
from repro.policies.base import Policy, PolicyP1, Worker, estimate_policy_time
from repro.symbolic.symbolic import SymbolicFactor

__all__ = ["TaskPricer"]


class TaskPricer:
    """Per-task durations, priorities and device demand for one
    ``(sf, policy, model)`` over a worker set.

    Caches per-``(m, k, has_gpu)`` factor-update durations with the
    policy resolved against an exemplar worker, assembly times, P1
    fallback times, upward-rank priorities, and the device working-set
    demand of Section IV-B.  Policies discriminate only on GPU presence,
    so the first GPU worker and the first GPU-less worker of the set
    price every worker of their shape.
    """

    def __init__(
        self, sf: SymbolicFactor, policy: Policy, model, workers: list[Worker]
    ):
        self.sf = sf
        self.policy = policy
        self.model = model
        #: first worker that owns a GPU (``None`` on a host-only set)
        self.gpu_worker = next((w for w in workers if w.has_gpu), None)
        self._cpu_worker = next((w for w in workers if not w.has_gpu), None)
        self._p1 = PolicyP1()
        self._kids = sf.schildren()
        # (m, k, has_gpu) -> (fu seconds, resolved policy name)
        self._dur_cache: dict[tuple[int, int, bool], tuple[float, str]] = {}
        # (m, k) -> P1 seconds, for dispatch-time fallbacks
        self._p1_cache: dict[tuple[int, int], float] = {}
        self._asm: np.ndarray | None = None

    def assembly_times(self) -> np.ndarray:
        """Per-supernode extend-add assembly seconds (host memory time)."""
        if self._asm is None:
            sf = self.sf
            out = np.zeros(sf.n_supernodes)
            for s in range(sf.n_supernodes):
                out[s] = self.model.host_memory_time(
                    assembly_bytes(
                        sf.rows[s].size,
                        [sf.rows[c].size - sf.width(c) for c in self._kids[s]],
                    )
                )
            self._asm = out
        return self._asm

    def fu_time(self, s: int, has_gpu: bool) -> tuple[float, str]:
        """Policy resolution for a worker of the given shape + isolated
        F-U seconds; a GPU-less worker runs a device policy as host P1."""
        m = self.sf.update_size(s)
        k = self.sf.width(s)
        key = (m, k, has_gpu)
        hit = self._dur_cache.get(key)
        if hit is None:
            worker = self.gpu_worker if has_gpu else self._cpu_worker
            if worker is None:  # the set has one shape only
                worker = self.gpu_worker or self._cpu_worker
            base = (
                self.policy.resolve(m, k, worker)
                if hasattr(self.policy, "resolve")
                else self.policy
            )
            if base.needs_gpu and not has_gpu:
                base = self._p1
            hit = (estimate_policy_time(base, m, k, self.model), base.name)
            self._dur_cache[key] = hit
        return hit

    def p1_time(self, s: int) -> float:
        m = self.sf.update_size(s)
        k = self.sf.width(s)
        key = (m, k)
        hit = self._p1_cache.get(key)
        if hit is None:
            hit = estimate_policy_time(self._p1, m, k, self.model)
            self._p1_cache[key] = hit
        return hit

    def upward_ranks(self) -> np.ndarray:
        """Task priority: seconds from the task to the root, inclusive,
        priced on the best (GPU if any) worker shape."""
        sf = self.sf
        has_gpu = self.gpu_worker is not None
        asm = self.assembly_times()
        dur = np.array(
            [self.fu_time(s, has_gpu)[0] + asm[s]
             for s in range(sf.n_supernodes)]
        )
        rank = dur.copy()
        for s in sf.spost[::-1]:  # parents before children
            parent = int(sf.sparent[s])
            if parent >= 0:
                rank[int(s)] = dur[int(s)] + rank[parent]
        return rank

    def device_demand(self, name: str, m: int, k: int) -> int:
        """Device words a policy's working set needs, per the transfer
        volumes of Section IV-B (Equation 2)."""
        word = self.model.gpu_word
        if name == "P2":
            return (m * k + m * m) * word
        if name.startswith("P3"):
            return (k * k + m * k + m * m) * word
        if name.startswith("P4"):
            return (m + k) * (m + k) * word
        return 0
