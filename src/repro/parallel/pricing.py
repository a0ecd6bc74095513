"""Task pricing shared by every scheduler of the supernodal task DAG.

The static list scheduler (:mod:`repro.parallel.scheduler`) and the
event-driven executor (:mod:`repro.runtime.engine`, migrating or pinned
to a fleet) all ask the same questions of a task: under which policy
does its factor-update run on a given worker (``Policy.resolve``, the
one answer), how long does that take, how many device bytes does it
hold, how long does its assembly take, how far is it from the root.
One :class:`TaskPricer` answers them, so a task costs the same
whichever scheduler places it.
"""

from __future__ import annotations

import numpy as np

from repro.multifrontal.frontal import assembly_bytes
from repro.policies.base import Policy, Worker, estimate_policy_time
from repro.symbolic.symbolic import SymbolicFactor

__all__ = ["TaskPricer"]


class TaskPricer:
    """Per-task durations, priorities and device demand for one
    ``(sf, policy, model)`` over a worker set.

    Caches, per ``(m, k)`` and device, the policy the task resolves to
    with its isolated factor-update seconds and device bytes; per
    resolved policy and ``(m, k)``, those seconds (so the host fallback
    is priced once whoever falls back); assembly times and upward-rank
    priorities.
    """

    def __init__(
        self, sf: SymbolicFactor, policy: Policy, model, workers: list[Worker]
    ):
        self.sf = sf
        self.policy = policy
        self.model = model
        #: ranks and gang tasks are priced on it: the first worker that
        #: owns a GPU, else the first
        self.best_worker = next((w for w in workers if w.has_gpu), workers[0])
        self._kids = sf.schildren()
        # (m, k, gpu) -> what fu_time returns
        self._fu_cache: dict[tuple, tuple[float, Policy, int, bool]] = {}
        # (resolved policy, m, k) -> isolated fu seconds
        self._seconds: dict[tuple, float] = {}
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

    def seconds(self, base: Policy, m: int, k: int) -> float:
        """Isolated F-U seconds of an (m, k) call under base policy ``base``."""
        key = (base, m, k)
        hit = self._seconds.get(key)
        if hit is None:
            hit = self._seconds[key] = estimate_policy_time(base, m, k, self.model)
        return hit

    def fu_time(self, s: int, worker: Worker) -> tuple[float, Policy, int, bool]:
        """Front ``s`` on ``worker``: isolated F-U seconds, the policy it
        resolves to, the device bytes its working set holds, and whether
        a device policy was selected (a host resolution is then a
        fallback)."""
        m = self.sf.update_size(s)
        k = self.sf.width(s)
        key = (m, k, worker.gpu)
        hit = self._fu_cache.get(key)
        if hit is None:
            base = self.policy.resolve(m, k, worker)
            hit = self._fu_cache[key] = (
                self.seconds(base, m, k), base,
                base.device_words(m, k) * self.model.gpu_word,
                base.needs_gpu or self.policy.select(m, k).needs_gpu,
            )
        return hit

    def upward_ranks(self) -> np.ndarray:
        """Task priority: seconds from the task to the root, inclusive,
        priced on the best (GPU if any) worker shape."""
        sf = self.sf
        asm = self.assembly_times()
        dur = np.array(
            [self.fu_time(s, self.best_worker)[0] + asm[s]
             for s in range(sf.n_supernodes)]
        )
        rank = dur.copy()
        for s in sf.spost[::-1]:  # parents before children
            parent = int(sf.sparent[s])
            if parent >= 0:
                rank[int(s)] = dur[int(s)] + rank[parent]
        return rank
