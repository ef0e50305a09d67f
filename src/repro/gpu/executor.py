"""The GPU simulator: buffer management, kernel launches, statistics, timing.

Usage mirrors a minimal OpenCL host program::

    sim = GpuSimulator(GTX_285)
    sim.upload("batmaps", device_words)
    record = sim.launch(PairCountKernel(...), global_size=(n, n))
    counts = sim.download("results")
    print(record.timing.device_seconds, record.stats.coalescing_efficiency)

A launch validates its geometry, hands the whole launch to
:meth:`~repro.gpu.kernel.Kernel.run_launch` (the paper's kernels account
every work group of a tile in a few vectorised passes; generic kernels fall
back to one ``run_group`` call per work group), then reads the launch's
global traffic off the memory model and prices it with the timing model.
Execution is deterministic; the timing model, not the host, accounts for
the device's parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.device import DeviceSpec, GTX_285
from repro.gpu.kernel import Kernel
from repro.gpu.memory import GlobalMemory
from repro.gpu.timing import (
    KernelStats,
    LaunchTiming,
    estimate_kernel_time,
    estimate_transfer_time,
)

__all__ = ["LaunchRecord", "GpuSimulator"]


@dataclass
class LaunchRecord:
    """Statistics and modelled timing of one kernel launch."""

    kernel_name: str
    global_size: tuple[int, int]
    stats: KernelStats
    timing: LaunchTiming


@dataclass
class SimulatorTotals:
    """Aggregate counters across every launch and transfer."""

    device_seconds: float = 0.0
    transfer_seconds: float = 0.0
    host_to_device_bytes: int = 0
    device_to_host_bytes: int = 0
    launches: int = 0

    @property
    def total_seconds(self) -> float:
        return self.device_seconds + self.transfer_seconds


class GpuSimulator:
    """Deterministic OpenCL-style device simulator."""

    def __init__(self, device: DeviceSpec = GTX_285) -> None:
        self.device = device
        self.memory = GlobalMemory(device)
        self.records: list[LaunchRecord] = []
        self.totals = SimulatorTotals()

    # ------------------------------------------------------------------ #
    # Host <-> device transfers
    # ------------------------------------------------------------------ #
    def upload(self, name: str, array: np.ndarray) -> None:
        """Transfer a host array to the device (tracked as PCIe traffic)."""
        before = self.memory.host_to_device_bytes
        self.memory.upload(name, array)
        moved = self.memory.host_to_device_bytes - before
        self.totals.host_to_device_bytes += moved
        self.totals.transfer_seconds += estimate_transfer_time(moved, self.device)

    def allocate(self, name: str, shape, dtype) -> None:
        """Allocate a device-resident buffer without transferring data."""
        self.memory.allocate(name, shape, dtype)

    def download(self, name: str) -> np.ndarray:
        """Transfer a device buffer back to the host."""
        before = self.memory.device_to_host_bytes
        out = self.memory.download(name)
        moved = self.memory.device_to_host_bytes - before
        self.totals.device_to_host_bytes += moved
        self.totals.transfer_seconds += estimate_transfer_time(moved, self.device)
        return out

    def free(self, name: str) -> None:
        self.memory.free(name)

    # ------------------------------------------------------------------ #
    # Kernel launches
    # ------------------------------------------------------------------ #
    def launch(self, kernel: Kernel, global_size: tuple[int, int]) -> LaunchRecord:
        """Run a kernel over the given 2-D global size and return its launch record."""
        kernel.validate_launch(global_size, self.device)
        lx, ly = kernel.local_size
        groups_x = global_size[0] // lx
        groups_y = global_size[1] // ly

        traffic_before = _snapshot_traffic(self.memory)
        stats = kernel.run_launch(self.device, self.memory, tuple(global_size))
        stats.work_groups = groups_x * groups_y
        stats.work_items = stats.work_groups * lx * ly

        traffic_after = _snapshot_traffic(self.memory)
        stats.global_bytes_read = traffic_after[0] - traffic_before[0]
        stats.global_bytes_written = traffic_after[1] - traffic_before[1]
        stats.global_read_transactions = traffic_after[2] - traffic_before[2]
        stats.global_write_transactions = traffic_after[3] - traffic_before[3]
        stats.ideal_read_transactions = traffic_after[4] - traffic_before[4]
        stats.ideal_write_transactions = traffic_after[5] - traffic_before[5]

        timing = estimate_kernel_time(stats, self.device)
        record = LaunchRecord(
            kernel_name=kernel.name,
            global_size=tuple(global_size),
            stats=stats,
            timing=timing,
        )
        self.records.append(record)
        self.totals.device_seconds += timing.device_seconds
        self.totals.launches += 1
        return record

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def combined_stats(self) -> KernelStats:
        """Merge the statistics of every launch so far."""
        merged = KernelStats()
        for record in self.records:
            merged.merge(record.stats)
        return merged

    def achieved_bandwidth_bytes_per_second(self) -> float:
        """Bytes moved through global memory per modelled device second.

        This is the quantity the paper reports as "36.2 Gbyte per second" in
        the throughput computation of Section IV.
        """
        if self.totals.device_seconds == 0:
            return 0.0
        return self.combined_stats().global_bytes_total / self.totals.device_seconds


def _snapshot_traffic(memory: GlobalMemory) -> tuple[int, int, int, int, int, int]:
    t = memory.traffic
    return (t.bytes_read, t.bytes_written, t.read_transactions, t.write_transactions,
            t.ideal_read_transactions, t.ideal_write_transactions)
