"""Tests for device specs, coalescing analysis and the memory models."""

import numpy as np
import pytest

from repro.core.errors import CapacityError, DeviceError, SharedMemoryError
from repro.gpu.coalescing import (
    analyze_access,
    segment_size_for_access,
    transactions_for_half_warp,
)
from repro.gpu.device import GTX_285, LAPTOP_CPU, XEON_5462, DeviceSpec
from repro.gpu.memory import GlobalMemory, MemoryTraffic, SharedMemory


class TestDeviceSpec:
    def test_gtx285_matches_paper(self):
        assert GTX_285.multiprocessors == 30
        assert GTX_285.cores_per_multiprocessor == 8
        assert GTX_285.total_cores == 240
        assert GTX_285.global_memory_bytes == 2**30
        assert GTX_285.memory_bandwidth_gbps == pytest.approx(159.0)
        assert GTX_285.shared_memory_per_mp_bytes == 16 * 1024

    def test_peak_rates_positive(self):
        for spec in (GTX_285, XEON_5462, LAPTOP_CPU):
            assert spec.peak_ops_per_second > 0
            assert spec.peak_bandwidth_bytes_per_second > 0
            assert spec.transfer_bandwidth_bytes_per_second > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", multiprocessors=0, cores_per_multiprocessor=1,
                       clock_ghz=1.0, global_memory_bytes=1, memory_bandwidth_gbps=1.0,
                       shared_memory_per_mp_bytes=1)


class TestCoalescing:
    def test_segment_sizes(self):
        assert segment_size_for_access(1) == 32
        assert segment_size_for_access(2) == 64
        assert segment_size_for_access(4) == 64
        assert segment_size_for_access(8) == 128
        with pytest.raises(ValueError):
            segment_size_for_access(3)

    def test_contiguous_aligned_is_one_transaction(self):
        addresses = np.arange(16) * 4  # 16 consecutive words starting at 0
        assert transactions_for_half_warp(addresses, 4) == 1

    def test_contiguous_misaligned_is_two_transactions(self):
        addresses = np.arange(16) * 4 + 32  # crosses a 64-byte boundary
        assert transactions_for_half_warp(addresses, 4) == 2

    def test_scattered_accesses_cost_many_transactions(self):
        addresses = np.arange(16) * 1024
        assert transactions_for_half_warp(addresses, 4) == 16

    def test_empty_and_invalid(self):
        assert transactions_for_half_warp(np.array([]), 4) == 0
        with pytest.raises(ValueError):
            transactions_for_half_warp(np.array([-4]), 4)

    def test_analyze_access_efficiency(self):
        good = analyze_access(np.arange(64) * 4, 4)
        bad = analyze_access(np.arange(64) * 256, 4)
        assert good.efficiency == 1.0
        assert bad.efficiency < 0.1
        assert good.bytes_requested == bad.bytes_requested == 256
        assert bad.bytes_transferred > good.bytes_transferred

    def test_analyze_access_half_warp_grouping(self):
        report = analyze_access(np.arange(32) * 4, 4, half_warp=16)
        assert report.half_warps == 2
        assert report.transactions == 2


class TestGlobalMemory:
    def test_upload_download_roundtrip(self):
        mem = GlobalMemory(GTX_285)
        data = np.arange(100, dtype=np.uint32)
        mem.upload("buf", data)
        assert np.array_equal(mem.download("buf"), data)
        assert mem.host_to_device_bytes == data.nbytes
        assert mem.device_to_host_bytes == data.nbytes

    def test_capacity_enforced(self):
        small = DeviceSpec(name="tiny", multiprocessors=1, cores_per_multiprocessor=1,
                           clock_ghz=1.0, global_memory_bytes=64,
                           memory_bandwidth_gbps=1.0, shared_memory_per_mp_bytes=1024)
        mem = GlobalMemory(small)
        with pytest.raises(CapacityError):
            mem.upload("big", np.zeros(1000, dtype=np.uint8))
        with pytest.raises(CapacityError):
            mem.allocate("big", (1000,), np.uint8)

    def test_unknown_buffer_rejected(self):
        mem = GlobalMemory(GTX_285)
        with pytest.raises(DeviceError):
            mem.buffer("nope")

    def test_read_write_track_traffic(self):
        mem = GlobalMemory(GTX_285)
        mem.upload("buf", np.arange(64, dtype=np.uint32))
        out = mem.read("buf", np.arange(16))
        assert np.array_equal(out, np.arange(16))
        assert mem.traffic.bytes_read == 64
        assert mem.traffic.read_transactions == 1
        mem.write("buf", np.arange(16), np.zeros(16, dtype=np.uint32))
        assert mem.traffic.bytes_written == 64
        assert mem.traffic.total_transactions == 2
        assert mem.traffic.coalescing_efficiency == 1.0

    def test_free(self):
        mem = GlobalMemory(GTX_285)
        mem.upload("buf", np.zeros(4, dtype=np.uint8))
        mem.free("buf")
        with pytest.raises(DeviceError):
            mem.buffer("buf")

    def test_traffic_merge(self):
        a = MemoryTraffic(bytes_read=10, read_transactions=2, ideal_read_transactions=1)
        b = MemoryTraffic(bytes_written=20, write_transactions=4, ideal_write_transactions=2)
        a.merge(b)
        assert a.total_bytes == 30
        assert a.total_transactions == 6
        assert 0 < a.coalescing_efficiency <= 1.0


class TestSharedMemory:
    def test_alloc_and_store(self):
        shared = SharedMemory(GTX_285)
        arr = shared.alloc("tile", (16, 16), np.uint32)
        assert arr.shape == (16, 16)
        shared.store("tile", np.ones((16, 16), dtype=np.uint32))
        assert shared.get("tile")[0, 0] == 1
        assert shared.bytes_traffic == 1024
        assert shared.peak_bytes == 1024

    def test_capacity_enforced(self):
        shared = SharedMemory(GTX_285)
        with pytest.raises(SharedMemoryError):
            shared.alloc("huge", (1 << 20,), np.uint32)

    def test_double_alloc_rejected(self):
        shared = SharedMemory(GTX_285)
        shared.alloc("a", (4,), np.uint32)
        with pytest.raises(SharedMemoryError):
            shared.alloc("a", (4,), np.uint32)

    def test_store_shape_checked(self):
        shared = SharedMemory(GTX_285)
        shared.alloc("a", (4,), np.uint32)
        with pytest.raises(SharedMemoryError):
            shared.store("a", np.zeros(8, dtype=np.uint32))

    def test_unknown_name_rejected(self):
        with pytest.raises(SharedMemoryError):
            SharedMemory(GTX_285).get("missing")

    def test_reset_clears_allocations(self):
        shared = SharedMemory(GTX_285)
        shared.alloc("a", (4,), np.uint32)
        shared.reset()
        assert shared.bytes_allocated == 0
        shared.alloc("a", (4,), np.uint32)  # can re-allocate after reset


class TestCallStreams:
    """A 2-D ``(calls, call_len)`` stream is chunked call by call."""

    def test_each_call_is_chunked_on_its_own(self):
        # 8 lanes per call: as one stream, two calls share one half warp
        calls = (np.arange(4)[:, None] * 4096 + np.arange(8)[None, :] * 4)
        per_call = analyze_access(calls, 4, half_warp=16)
        assert per_call.call_transactions.tolist() == [1, 1, 1, 1]
        assert per_call.transactions == 4
        assert per_call.half_warps == 4
        assert per_call.bytes_requested == 4 * 8 * 4
        assert analyze_access(calls.ravel(), 4, half_warp=16).half_warps == 2

    def test_one_row_equals_the_flat_stream(self):
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 1 << 16, size=37) * 4
        flat = analyze_access(stream, 4)
        row = analyze_access(stream[None, :], 4)
        assert flat == row
        assert row.call_transactions.tolist() == [flat.transactions]

    def test_record_is_the_accounting_of_read_and_write(self):
        from repro.gpu.memory import MemoryTraffic
        mem = GlobalMemory(GTX_285)
        mem.upload("buf", np.zeros(64, dtype=np.uint32))
        mem.read("buf", np.arange(0, 64, 3))
        mem.write("buf", np.arange(20), np.ones(20, dtype=np.uint32))
        expected = MemoryTraffic()
        expected.record("read", analyze_access(np.arange(0, 64, 3) * 4, 4))
        expected.record("write", analyze_access(np.arange(20) * 4, 4))
        assert mem.traffic == expected
        with pytest.raises(ValueError):
            expected.record("sideways", analyze_access(np.arange(4), 4))
