"""A deterministic OpenCL-style GPU simulator.

The paper evaluates batmaps on a GeForce GTX 285 through PyOpenCL.  This
environment has no GPU, so the package provides the substrate described in
DESIGN.md: device specifications (:mod:`repro.gpu.device`), global/shared
memory models with coalescing analysis (:mod:`repro.gpu.memory`,
:mod:`repro.gpu.coalescing`), a kernel/work-group execution model
(:mod:`repro.gpu.kernel`, :mod:`repro.gpu.executor`) and an analytic timing
model (:mod:`repro.gpu.timing`).  A kernel executes a whole launch at once
(or, by default, one vectorised work group at a time), so results are exact
while byte counts, transaction counts and modelled device times quantify the
regularity properties the paper's argument rests on.
"""

from repro.gpu.coalescing import (
    CoalescingReport,
    analyze_access,
    segment_size_for_access,
    transactions_for_half_warp,
)
from repro.gpu.device import GTX_285, LAPTOP_CPU, XEON_5462, DeviceSpec
from repro.gpu.executor import GpuSimulator, LaunchRecord
from repro.gpu.kernel import Kernel, WorkGroupContext
from repro.gpu.memory import GlobalMemory, MemoryTraffic, SharedMemory
from repro.gpu.timing import (
    KernelStats,
    LaunchTiming,
    estimate_kernel_time,
    estimate_transfer_time,
)

__all__ = [
    "DeviceSpec",
    "GTX_285",
    "XEON_5462",
    "LAPTOP_CPU",
    "GpuSimulator",
    "LaunchRecord",
    "Kernel",
    "WorkGroupContext",
    "GlobalMemory",
    "SharedMemory",
    "MemoryTraffic",
    "KernelStats",
    "LaunchTiming",
    "estimate_kernel_time",
    "estimate_transfer_time",
    "CoalescingReport",
    "analyze_access",
    "segment_size_for_access",
    "transactions_for_half_warp",
]
