"""Tests for the kernel abstraction, launch validation, executor and timing model."""

import numpy as np
import pytest

from repro.core.errors import KernelLaunchError
from repro.gpu.device import GTX_285
from repro.gpu.executor import GpuSimulator
from repro.gpu.kernel import Kernel, WorkGroupContext
from repro.gpu.timing import (
    KernelStats,
    estimate_kernel_time,
    estimate_transfer_time,
)


class CopyKernel(Kernel):
    """Toy kernel: each work item copies one word from 'src' to 'dst'."""

    name = "copy"
    local_size = (4, 4)

    def run_group(self, ctx: WorkGroupContext) -> None:
        gx, gy = ctx.global_offset
        lx, ly = ctx.local_size
        rows = gx + np.arange(lx)
        cols = gy + np.arange(ly)
        width = ctx.num_groups[1] * ly
        flat = (rows[:, None] * width + cols[None, :]).ravel()
        values = ctx.read_global("src", flat)
        ctx.write_global("dst", flat, values)
        ctx.add_ops(flat.size)
        ctx.barrier()


class TestKernelValidation:
    def test_rejects_non_multiple_global_size(self):
        with pytest.raises(KernelLaunchError):
            CopyKernel().validate_launch((5, 4), GTX_285)

    def test_rejects_oversized_work_group(self):
        k = CopyKernel()
        k.local_size = (64, 64)
        with pytest.raises(KernelLaunchError):
            k.validate_launch((64, 64), GTX_285)

    def test_rejects_non_2d_or_non_positive(self):
        with pytest.raises(KernelLaunchError):
            CopyKernel().validate_launch((4,), GTX_285)
        with pytest.raises(KernelLaunchError):
            CopyKernel().validate_launch((0, 4), GTX_285)

    def test_accepts_valid_geometry(self):
        CopyKernel().validate_launch((16, 8), GTX_285)


class TestExecutor:
    def test_copy_kernel_copies(self):
        sim = GpuSimulator(GTX_285)
        src = np.arange(64, dtype=np.uint32)
        sim.upload("src", src)
        sim.allocate("dst", (64,), np.uint32)
        record = sim.launch(CopyKernel(), (8, 8))
        assert np.array_equal(sim.download("dst"), src)
        assert record.stats.work_groups == 4
        assert record.stats.work_items == 64
        assert record.stats.scalar_ops == 64
        assert record.stats.barriers == 4
        assert record.stats.global_bytes_read == 256
        assert record.stats.global_bytes_written == 256

    def test_transfer_accounting(self):
        sim = GpuSimulator(GTX_285)
        sim.upload("src", np.zeros(1024, dtype=np.uint32))
        assert sim.totals.host_to_device_bytes == 4096
        assert sim.totals.transfer_seconds > 0
        sim.download("src")
        assert sim.totals.device_to_host_bytes == 4096

    def test_records_accumulate(self):
        sim = GpuSimulator(GTX_285)
        sim.upload("src", np.zeros(64, dtype=np.uint32))
        sim.allocate("dst", (64,), np.uint32)
        sim.launch(CopyKernel(), (8, 8))
        sim.launch(CopyKernel(), (8, 8))
        assert sim.totals.launches == 2
        assert len(sim.records) == 2
        merged = sim.combined_stats()
        assert merged.work_groups == 8
        assert sim.achieved_bandwidth_bytes_per_second() > 0

    def test_device_seconds_positive_and_additive(self):
        sim = GpuSimulator(GTX_285)
        sim.upload("src", np.zeros(64, dtype=np.uint32))
        sim.allocate("dst", (64,), np.uint32)
        r1 = sim.launch(CopyKernel(), (8, 8))
        total_after_one = sim.totals.device_seconds
        r2 = sim.launch(CopyKernel(), (8, 8))
        assert r1.timing.device_seconds > 0
        assert sim.totals.device_seconds == pytest.approx(
            total_after_one + r2.timing.device_seconds)


class TestTimingModel:
    def test_memory_bound_kernel(self):
        stats = KernelStats(global_bytes_read=159_000_000, scalar_ops=1000,
                            global_read_transactions=100, ideal_read_transactions=100)
        timing = estimate_kernel_time(stats, GTX_285)
        assert timing.memory_seconds == pytest.approx(1e-3, rel=1e-3)
        assert timing.device_seconds >= timing.memory_seconds
        assert timing.memory_seconds > timing.compute_seconds

    def test_compute_bound_kernel(self):
        stats = KernelStats(global_bytes_read=1000, scalar_ops=10**9,
                            global_read_transactions=1, ideal_read_transactions=1)
        timing = estimate_kernel_time(stats, GTX_285)
        assert timing.compute_seconds > timing.memory_seconds

    def test_poor_coalescing_slows_memory(self):
        good = KernelStats(global_bytes_read=10**6,
                           global_read_transactions=100, ideal_read_transactions=100)
        bad = KernelStats(global_bytes_read=10**6,
                          global_read_transactions=1600, ideal_read_transactions=100)
        assert (estimate_kernel_time(bad, GTX_285).memory_seconds
                > estimate_kernel_time(good, GTX_285).memory_seconds)

    def test_transfer_time(self):
        assert estimate_transfer_time(5_000_000_000, GTX_285) == pytest.approx(1.0)
        assert estimate_transfer_time(0, GTX_285) == 0.0
        with pytest.raises(ValueError):
            estimate_transfer_time(-1, GTX_285)

    def test_stats_merge(self):
        a = KernelStats(global_bytes_read=10, scalar_ops=5, work_groups=1)
        b = KernelStats(global_bytes_written=20, barriers=2, work_groups=3)
        a.merge(b)
        assert a.global_bytes_total == 30
        assert a.work_groups == 4
        assert a.barriers == 2

    def test_empty_stats_efficiency_is_one(self):
        assert KernelStats().coalescing_efficiency == 1.0


class TestLaunchEntryPoint:
    def test_kernel_without_an_implementation_raises(self):
        class Empty(Kernel):
            local_size = (4, 4)

        sim = GpuSimulator(GTX_285)
        with pytest.raises(NotImplementedError):
            sim.launch(Empty(), (4, 4))

    def test_run_launch_is_the_one_entry_point(self):
        class Counting(Kernel):
            local_size = (2, 2)

            def run_launch(self, device, memory, global_size):
                return KernelStats(scalar_ops=7, barriers=1)

        record = GpuSimulator(GTX_285).launch(Counting(), (4, 6))
        assert record.stats.work_groups == 6
        assert record.stats.work_items == 24
        assert (record.stats.scalar_ops, record.stats.barriers) == (7, 1)
