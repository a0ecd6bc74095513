"""The simulated node: host CPU cores + attached simulated GPUs.

A :class:`SimulatedNode` owns the engine timelines shared by every
factor-update call of a factorization, so engine contention and
cross-call pipelining are modeled (e.g. the H2D engine still draining the
previous supernode's panel delays the next one).  Worker composition for
the parallel runs (Section VI-C's "2 CPU threads and 2 GPUs") pairs each
CPU engine with at most one GPU, matching the paper's design: "our
approach uses the same number of threads as the number of available
GPUs".
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.gpu.allocator import AllocationStats, HighWaterMarkPool, PerCallPool
from repro.gpu.clock import EngineTimeline
from repro.gpu.cublas import CublasContext
from repro.gpu.perfmodel import PerfModel, tesla_t10_model
from repro.gpu.spec import TESLA_T10, GpuSpec

__all__ = ["HostCpu", "SimulatedGpu", "SimulatedNode"]


@dataclass
class HostCpu:
    """One host CPU core (fp64 kernels)."""

    cpu_id: int = 0

    @property
    def engine(self) -> str:
        return f"cpu{self.cpu_id}"


class SimulatedGpu:
    """One simulated GPU: compute queue, two DMA engines, memory pools."""

    def __init__(
        self,
        model: PerfModel,
        gpu_id: int = 0,
        spec: GpuSpec = TESLA_T10,
        *,
        pinned_pooling: bool = True,
    ):
        self.model = model
        self.gpu_id = gpu_id
        self.spec = spec
        self.cublas = CublasContext(model)
        pool_cls = HighWaterMarkPool if pinned_pooling else PerCallPool
        self.device_pool = pool_cls(
            alloc_time=lambda b: 1e-4 + b / 5e9,  # cudaMalloc: cheap-ish
            capacity_limit=spec.memory_bytes,
        )
        self.pinned_pool = pool_cls(
            alloc_time=model.transfer.pinned_alloc_time,
            capacity_limit=None,
        )

    # engine names --------------------------------------------------------
    @property
    def compute_engine(self) -> str:
        return f"gpu{self.gpu_id}.compute"

    @property
    def h2d_engine(self) -> str:
        return f"gpu{self.gpu_id}.h2d"

    @property
    def d2h_engine(self) -> str:
        return f"gpu{self.gpu_id}.d2h"

    # memory ---------------------------------------------------------------
    def reserve(self, device_bytes: int, pinned_bytes: int) -> float:
        """Reserve working memory for one F-U call; returns the allocation
        cost in simulated seconds (zero under the high-water mark).

        The caller owns both reservations and must pair this with
        :meth:`release` (or use :meth:`working_set`, which releases
        structurally).  If the pinned request fails the device
        reservation is rolled back, so a failed reserve leaves both
        pools untouched.
        """
        cost = self.device_pool.request(device_bytes)
        try:
            cost += self.pinned_pool.request(pinned_bytes)
        except BaseException:
            self.device_pool.release(device_bytes)
            raise
        return cost

    def release(self, device_bytes: int, pinned_bytes: int) -> None:
        """Return a :meth:`reserve` made earlier to both pools."""
        self.device_pool.release(device_bytes)
        self.pinned_pool.release(pinned_bytes)

    @contextmanager
    def working_set(self, device_bytes: int, pinned_bytes: int):
        """Own a per-call working set for the duration of a block.

        Yields the allocation cost in simulated seconds; both pools are
        released on every exit path, so ``in_use`` cannot drift even
        when the block raises (e.g. an injected kernel fault).
        """
        cost = self.reserve(device_bytes, pinned_bytes)
        try:
            yield cost
        finally:
            self.release(device_bytes, pinned_bytes)


@dataclass
class SimulatedNode:
    """Host + GPUs + the shared engine timelines of one simulated run."""

    model: PerfModel = field(default_factory=tesla_t10_model)
    n_cpus: int = 1
    n_gpus: int = 1
    pinned_pooling: bool = True
    cpus: list[HostCpu] = field(init=False)
    gpus: list[SimulatedGpu] = field(init=False)
    engines: dict[str, EngineTimeline] = field(init=False)

    def __post_init__(self):
        if self.n_cpus < 1:
            raise ValueError("need at least one CPU")
        if self.n_gpus < 0:
            raise ValueError("negative GPU count")
        self.cpus = [HostCpu(i) for i in range(self.n_cpus)]
        self.gpus = [
            SimulatedGpu(self.model, i, pinned_pooling=self.pinned_pooling)
            for i in range(self.n_gpus)
        ]
        self.engines = {}

    @property
    def now(self) -> float:
        """Current simulated time = latest engine completion."""
        if not self.engines:
            return 0.0
        return max(t.free_at for t in self.engines.values())

    def reset(self) -> None:
        """Clear all timelines and memory pools (fresh run): nothing is
        reserved or retained, and every pool counts from zero again, so
        its statistics read one run and not the node's lifetime.  The
        statistics are a new object: whoever holds the last run's still
        reads the last run."""
        self.engines = {}
        for g in self.gpus:
            g.cublas.busy_seconds = 0.0
            for pool in (g.device_pool, g.pinned_pool):
                pool.release()
                pool.stats = AllocationStats()
                pool.reset_peak()
