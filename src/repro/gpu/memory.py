"""Device memory models: global memory buffers and per-work-group shared memory.

The simulator does not model latency cycle by cycle; it models the two things
that determine the paper's performance story: *how many bytes* move through
each memory system and *how well coalesced* the global accesses are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import CapacityError, DeviceError, SharedMemoryError
from repro.gpu.coalescing import CoalescingReport, analyze_access
from repro.gpu.device import DeviceSpec

__all__ = ["GlobalMemory", "SharedMemory", "MemoryTraffic"]


@dataclass
class MemoryTraffic:
    """Byte / transaction counters for one memory space."""

    bytes_read: int = 0
    bytes_written: int = 0
    read_transactions: int = 0
    write_transactions: int = 0
    ideal_read_transactions: int = 0
    ideal_write_transactions: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def total_transactions(self) -> int:
        return self.read_transactions + self.write_transactions

    @property
    def coalescing_efficiency(self) -> float:
        actual = self.total_transactions
        if actual == 0:
            return 1.0
        return (self.ideal_read_transactions + self.ideal_write_transactions) / actual

    def record(self, direction: str, report: CoalescingReport) -> None:
        """Add one coalescing report to the read or the write counters.

        The one accounting path: :meth:`GlobalMemory.read` /
        :meth:`GlobalMemory.write` and the launch-level kernels all go
        through it.
        """
        if direction == "read":
            self.bytes_read += report.bytes_requested
            self.read_transactions += report.transactions
            self.ideal_read_transactions += report.ideal_transactions
        elif direction == "write":
            self.bytes_written += report.bytes_requested
            self.write_transactions += report.transactions
            self.ideal_write_transactions += report.ideal_transactions
        else:
            raise ValueError(f"direction must be 'read' or 'write', got {direction!r}")

    def merge(self, other: "MemoryTraffic") -> None:
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.read_transactions += other.read_transactions
        self.write_transactions += other.write_transactions
        self.ideal_read_transactions += other.ideal_read_transactions
        self.ideal_write_transactions += other.ideal_write_transactions


class GlobalMemory:
    """The device's global memory: named NumPy buffers plus traffic accounting.

    Buffers are uploaded from the host (tracked as host-to-device transfer
    bytes), read/written by kernels through :meth:`read` / :meth:`write`
    (tracked with the coalescing model) and downloaded back with
    :meth:`download`.
    """

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self._buffers: dict[str, np.ndarray] = {}
        self.traffic = MemoryTraffic()
        self.host_to_device_bytes = 0
        self.device_to_host_bytes = 0

    # ------------------------------------------------------------------ #
    # Allocation and transfer
    # ------------------------------------------------------------------ #
    @property
    def allocated_bytes(self) -> int:
        return sum(int(buf.nbytes) for buf in self._buffers.values())

    def upload(self, name: str, array: np.ndarray) -> None:
        """Copy a host array into a device buffer (host-to-device transfer)."""
        array = np.ascontiguousarray(array)
        new_total = self.allocated_bytes - self._nbytes_of(name) + int(array.nbytes)
        if new_total > self.device.global_memory_bytes:
            raise CapacityError(
                f"uploading {name!r} ({array.nbytes} B) would exceed device memory "
                f"({self.device.global_memory_bytes} B)"
            )
        self._buffers[name] = array.copy()
        self.host_to_device_bytes += int(array.nbytes)

    def allocate(self, name: str, shape, dtype) -> None:
        """Allocate an uninitialised (zeroed) device buffer without a transfer."""
        array = np.zeros(shape, dtype=dtype)
        new_total = self.allocated_bytes - self._nbytes_of(name) + int(array.nbytes)
        if new_total > self.device.global_memory_bytes:
            raise CapacityError(
                f"allocating {name!r} ({array.nbytes} B) would exceed device memory"
            )
        self._buffers[name] = array

    def download(self, name: str) -> np.ndarray:
        """Copy a device buffer back to the host (device-to-host transfer)."""
        buf = self.buffer(name)
        self.device_to_host_bytes += int(buf.nbytes)
        return buf.copy()

    def free(self, name: str) -> None:
        self._buffers.pop(name, None)

    def buffer(self, name: str) -> np.ndarray:
        if name not in self._buffers:
            raise DeviceError(f"no device buffer named {name!r}")
        return self._buffers[name]

    def _nbytes_of(self, name: str) -> int:
        buf = self._buffers.get(name)
        return int(buf.nbytes) if buf is not None else 0

    # ------------------------------------------------------------------ #
    # Kernel-visible access (with coalescing accounting)
    # ------------------------------------------------------------------ #
    def read(self, name: str, indices: np.ndarray, *, half_warp: int | None = None) -> np.ndarray:
        """Gather elements ``buffer[indices]`` and record the memory traffic.

        ``indices`` are element indices issued in work-item order; they are
        grouped into half warps for the coalescing analysis.
        """
        buf = self.buffer(name)
        indices = np.asarray(indices, dtype=np.int64)
        item = int(buf.dtype.itemsize)
        report = analyze_access(indices.ravel() * item, item,
                                half_warp=half_warp or self.device.half_warp)
        self.traffic.record("read", report)
        return buf[indices]

    def write(self, name: str, indices: np.ndarray, values: np.ndarray,
              *, half_warp: int | None = None) -> None:
        """Scatter ``values`` to ``buffer[indices]`` and record the traffic."""
        buf = self.buffer(name)
        indices = np.asarray(indices, dtype=np.int64)
        item = int(buf.dtype.itemsize)
        report = analyze_access(indices.ravel() * item, item,
                                half_warp=half_warp or self.device.half_warp)
        self.traffic.record("write", report)
        buf[indices] = values


class SharedMemory:
    """Per-work-group scratch memory with a hard capacity check.

    A kernel allocates named arrays at the start of each work group; the
    total must fit in the device's per-multiprocessor shared memory (16 KiB
    on the GTX 285 — the constraint that shapes the paper's 16x16 tile size:
    two 16x16 arrays of 32-bit words are 2 KiB, comfortably resident).
    """

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self._arrays: dict[str, np.ndarray] = {}
        self.bytes_allocated = 0
        self.peak_bytes = 0
        self.bytes_traffic = 0

    def alloc(self, name: str, shape, dtype) -> np.ndarray:
        if name in self._arrays:
            raise SharedMemoryError(f"shared array {name!r} already allocated in this group")
        array = np.zeros(shape, dtype=dtype)
        if self.bytes_allocated + array.nbytes > self.device.shared_memory_per_mp_bytes:
            raise SharedMemoryError(
                f"work group shared memory overflow: {self.bytes_allocated + array.nbytes} B "
                f"> {self.device.shared_memory_per_mp_bytes} B"
            )
        self._arrays[name] = array
        self.bytes_allocated += int(array.nbytes)
        self.peak_bytes = max(self.peak_bytes, self.bytes_allocated)
        return array

    def store(self, name: str, values: np.ndarray) -> None:
        """Record a write of ``values`` into a shared array (traffic accounting)."""
        arr = self.get(name)
        values = np.asarray(values)
        if values.shape != arr.shape:
            raise SharedMemoryError(
                f"store shape {values.shape} does not match allocation {arr.shape}"
            )
        arr[...] = values
        self.bytes_traffic += int(values.nbytes)

    def get(self, name: str) -> np.ndarray:
        if name not in self._arrays:
            raise SharedMemoryError(f"no shared array named {name!r}")
        return self._arrays[name]

    def reset(self) -> None:
        """Called between work groups: shared memory does not persist."""
        self._arrays.clear()
        self.bytes_allocated = 0
