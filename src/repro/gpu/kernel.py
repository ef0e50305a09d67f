"""Kernel abstraction: one launch-level entry point, plus a per-work-group fallback.

A :class:`Kernel` is the simulator's equivalent of an OpenCL kernel.  The
simulator calls exactly one method per launch, :meth:`Kernel.run_launch`,
which must leave the kernel's outputs in global memory, record its global
traffic through the memory model, and return the launch's scalar-operation,
barrier and shared-memory counters — exactly what the per-item OpenCL
kernel would have generated.  The timing model then turns those counts into
modelled device time.

Kernels whose traffic has structure implement :meth:`~Kernel.run_launch`
directly and account a whole launch in a few vectorised passes (the paper's
pair-count kernel and the bitmap baseline in :mod:`repro.kernels` do).  The
default implementation keeps the simple model for everything else: it runs
:meth:`Kernel.run_group` once per work group, vectorised over the group's
work items, with a :class:`WorkGroupContext` that records reads, writes,
shared-memory stores, barriers and operations as they happen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import KernelLaunchError
from repro.gpu.device import DeviceSpec
from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.gpu.timing import KernelStats

__all__ = ["Kernel", "WorkGroupContext"]


@dataclass
class WorkGroupContext:
    """Everything a kernel sees while executing one work group."""

    device: DeviceSpec
    global_memory: GlobalMemory
    shared: SharedMemory
    group_id: tuple[int, int]
    num_groups: tuple[int, int]
    local_size: tuple[int, int]

    #: counters the kernel fills in while running
    scalar_ops: int = 0
    barriers: int = 0

    # ------------------------------------------------------------------ #
    # Identification helpers (mirror OpenCL's get_group_id / get_global_id)
    # ------------------------------------------------------------------ #
    @property
    def global_offset(self) -> tuple[int, int]:
        """Global index of this group's first work item, per dimension."""
        return (self.group_id[0] * self.local_size[0],
                self.group_id[1] * self.local_size[1])

    @property
    def work_items(self) -> int:
        return self.local_size[0] * self.local_size[1]

    # ------------------------------------------------------------------ #
    # Memory access
    # ------------------------------------------------------------------ #
    def read_global(self, buffer: str, indices: np.ndarray) -> np.ndarray:
        """Gather from a global buffer; traffic is recorded with coalescing analysis."""
        return self.global_memory.read(buffer, indices)

    def write_global(self, buffer: str, indices: np.ndarray, values: np.ndarray) -> None:
        self.global_memory.write(buffer, indices, values)

    def alloc_shared(self, name: str, shape, dtype) -> np.ndarray:
        return self.shared.alloc(name, shape, dtype)

    def store_shared(self, name: str, values: np.ndarray) -> None:
        self.shared.store(name, values)

    def barrier(self) -> None:
        """A work-group memory barrier (CLK_LOCAL_MEM_FENCE in the real kernel)."""
        self.barriers += 1

    def add_ops(self, count: int) -> None:
        """Record ``count`` scalar operations executed by this work group."""
        if count < 0:
            raise ValueError(f"operation count must be >= 0, got {count}")
        self.scalar_ops += int(count)


class Kernel:
    """Base class for simulated device kernels."""

    #: human-readable kernel name (shows up in launch reports)
    name: str = "kernel"
    #: work-group shape (rows, cols); the paper uses 16 x 16
    local_size: tuple[int, int] = (16, 16)

    def validate_launch(self, global_size: tuple[int, int], device: DeviceSpec) -> None:
        """Check the launch geometry the way an OpenCL runtime would."""
        if len(global_size) != 2:
            raise KernelLaunchError(f"global size must be 2-D, got {global_size!r}")
        gx, gy = global_size
        lx, ly = self.local_size
        if lx <= 0 or ly <= 0:
            raise KernelLaunchError(f"invalid local size {self.local_size!r}")
        if lx * ly > device.max_work_group_size:
            raise KernelLaunchError(
                f"work group {self.local_size!r} exceeds the device limit "
                f"{device.max_work_group_size}"
            )
        if gx <= 0 or gy <= 0:
            raise KernelLaunchError(f"global size must be positive, got {global_size!r}")
        if gx % lx or gy % ly:
            raise KernelLaunchError(
                f"global size {global_size!r} is not a multiple of the local size "
                f"{self.local_size!r}"
            )

    def run_launch(self, device: DeviceSpec, memory: GlobalMemory,
                   global_size: tuple[int, int]) -> KernelStats:
        """Execute a whole (validated) launch; return its non-traffic counters.

        Global traffic goes to ``memory.traffic``; the returned stats carry
        ``scalar_ops``, ``barriers`` and ``shared_bytes`` (the simulator adds
        the launch geometry and the traffic).  This default runs
        :meth:`run_group` once per work group, in row-major group order,
        each with fresh shared memory.
        """
        lx, ly = self.local_size
        num_groups = (global_size[0] // lx, global_size[1] // ly)
        stats = KernelStats()
        for gx in range(num_groups[0]):
            for gy in range(num_groups[1]):
                ctx = WorkGroupContext(
                    device=device,
                    global_memory=memory,
                    shared=SharedMemory(device),
                    group_id=(gx, gy),
                    num_groups=num_groups,
                    local_size=self.local_size,
                )
                self.run_group(ctx)
                stats.scalar_ops += ctx.scalar_ops
                stats.barriers += ctx.barriers
                stats.shared_bytes += ctx.shared.bytes_traffic
        return stats

    def run_group(self, ctx: WorkGroupContext) -> None:
        """Execute one work group (vectorised over its work items)."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither run_launch nor run_group")
