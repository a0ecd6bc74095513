"""The simulated CPU-GPU node.

The paper's experiments ran on an IBM HS21 blade (2x dual-core Xeon 5160)
attached to an Nvidia Tesla T10 over PCIe x8.  This environment has no
GPU, so — per the reproduction's substitution rule — this subpackage
provides a *discrete-event simulated device* whose kernels really compute
(in float32, like the paper's CUBLAS usage) while their *time* is charged
by a latency/throughput performance model calibrated against the paper's
measurements (Table III stabilized rates, Figure 7/8 CPU-GPU transition
points, the ~1.4 GB/s achieved PCIe bandwidth).

Components
----------
``clock``      deterministic event engine: engines, tasks, dependency
               scheduling, makespan/critical-path accounting.
``spec``       hardware description records (Table I).
``perfmodel``  the calibrated kernel/transfer timing model.
``allocator``  high-water-mark device & pinned-host memory pools (V-A2).
``cublas``     simulated CUBLAS context: fp32 kernels + kernel pricing.
``device``     ties the above into a `SimulatedGpu` / `HostCpu` pair.
"""

from repro.gpu.clock import EngineTimeline, SimTask, TaskGraph, schedule_graph
from repro.gpu.spec import GpuSpec, HostSpec, TESLA_T10, XEON_5160_CORE
from repro.gpu.perfmodel import (
    KernelParams,
    PerfModel,
    TransferParams,
    fermi_c2050_model,
    tesla_t10_model,
)
from repro.gpu.allocator import AllocationStats, HighWaterMarkPool
from repro.gpu.cublas import CublasContext
from repro.gpu.device import HostCpu, SimulatedGpu, SimulatedNode

__all__ = [
    "SimTask",
    "TaskGraph",
    "EngineTimeline",
    "schedule_graph",
    "GpuSpec",
    "HostSpec",
    "TESLA_T10",
    "XEON_5160_CORE",
    "KernelParams",
    "TransferParams",
    "PerfModel",
    "tesla_t10_model",
    "fermi_c2050_model",
    "HighWaterMarkPool",
    "AllocationStats",
    "CublasContext",
    "SimulatedGpu",
    "HostCpu",
    "SimulatedNode",
]
