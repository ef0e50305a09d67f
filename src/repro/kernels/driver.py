"""Host-side drivers that run the pair-count kernels over a tiled schedule.

These functions are the "GPU phase" of the mining pipeline: transfer the
packed data to the device once, loop over the upper-triangle tiles, launch
one kernel per tile, download each tile's result matrix ``Z_{p,q}`` and
assemble the full symmetric count matrix on the host.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.bitmap import BitmapIndex
from repro.core.collection import BatmapCollection
from repro.core.results import SparseAccumulator
from repro.gpu.device import DeviceSpec, GTX_285
from repro.gpu.executor import GpuSimulator
from repro.kernels.bitmap_kernel import BitmapAndPopcountKernel
from repro.kernels.pair_count import PairCountKernel
from repro.kernels.tiling import TileScheduler, pad_to_multiple
from repro.utils.validation import require, require_positive

__all__ = ["DeviceRunResult", "run_batmap_pair_counts", "run_bitmap_pair_counts"]


@dataclass
class DeviceRunResult:
    """Counts plus the simulator that produced them (for stats and timing)."""

    counts: np.ndarray        #: (n, n) symmetric matrix of pair intersection counts
    simulator: GpuSimulator
    tiles: int
    #: Sparse/pruned runs return a CountResult (original index order) here
    #: instead of the dense sorted-order matrix; ``counts`` is then None.
    result: object | None = None
    tiles_skipped: int = 0

    @property
    def device_seconds(self) -> float:
        """Modelled kernel execution time on the device."""
        return self.simulator.totals.device_seconds

    @property
    def transfer_seconds(self) -> float:
        """Modelled host<->device transfer time."""
        return self.simulator.totals.transfer_seconds

    @property
    def total_device_bytes(self) -> int:
        return self.simulator.combined_stats().global_bytes_total

    @property
    def achieved_bandwidth_gbps(self) -> float:
        return self.simulator.achieved_bandwidth_bytes_per_second() / 1e9

    @property
    def coalescing_efficiency(self) -> float:
        return self.simulator.combined_stats().coalescing_efficiency


def run_batmap_pair_counts(
    collection: BatmapCollection,
    *,
    device: DeviceSpec = GTX_285,
    tile_size: int = 2048,
    work_group: tuple[int, int] = (16, 16),
    simulator: GpuSimulator | None = None,
    compute: str = "kernel",
    workers: int | None = None,
    result_format: str = "dense",
    min_support: int = 0,
) -> DeviceRunResult:
    """Compute every pairwise intersection count of a batmap collection on the simulator.

    The returned matrix is indexed by *sorted* batmap order (the device
    scheduling order); callers that need original indices should remap with
    ``collection.order`` — the mining pipeline does this in postprocessing.

    With ``result_format="sparse"`` the driver accumulates only the nonzero
    upper-triangle entries (already mapped to *original* index order) into a
    :class:`~repro.core.results.SparseCountResult` on ``DeviceRunResult.result``
    and leaves ``counts`` as ``None``.  A positive ``min_support`` lets the
    kernel path skip whole tiles whose set-size bounds cannot reach the
    threshold — those launches never happen, so the modelled device time and
    traffic shrink with the pruning.

    ``compute`` selects how the counts themselves are produced:

    * ``"kernel"`` (default) — simulate every tiled kernel launch work-group
      by work-group, recording the full traffic/coalescing statistics and the
      modelled device time;
    * ``"batch"`` — take the (bit-identical) counts from the host-side
      vectorised batch engine (:mod:`repro.core.batch`) and skip the
      per-work-group simulation.  Only the host->device transfer is modelled
      (``tiles == 0``, no launch records); use this when the counts matter
      but per-launch statistics do not.
    * ``"parallel"`` — count for real across ``workers`` processes over one
      shared-memory copy of the packed buffer
      (:class:`~repro.parallel.executor.ParallelPairCounter`); bit-identical
      to ``"batch"``.  Small collections (or a single available worker) fall
      back to the serial batch engine automatically.  ``workers=None``
      auto-selects from the machine's core count.
    * ``"auto"`` — let the workload planner
      (:func:`repro.core.plan.plan_counts`) pick between the batch engine
      and the executor from the collection's size, width-class mix and the
      available cores.  The simulator is never auto-selected — it models a
      device, it does not serve requests.
    """
    require_positive(tile_size, "tile_size")
    if compute not in ("kernel", "batch", "parallel", "auto"):
        raise ValueError(
            f"compute must be 'kernel', 'batch', 'parallel' or 'auto', got {compute!r}"
        )
    require(result_format in ("dense", "sparse"),
            f"result_format must be 'dense' or 'sparse', got {result_format!r}")
    sparse = result_format == "sparse"
    n = len(collection)
    sim = simulator or GpuSimulator(device)
    buffer = collection.device_buffer()
    sim.upload("batmaps", buffer.words)

    if compute != "kernel":
        from repro.core.plan import plan_counts

        # The result is always the full sorted-order one; "host"
        # (point-query) plans have no cheaper shape for it, so every plan but
        # "parallel" runs inline on the batch engine.
        plan = plan_counts(collection, requested=compute, workers=workers)
        with collection.pair_counter(plan) as counter:
            if sparse:
                result = counter.count_result(
                    result_format="sparse", min_support=min_support)
                return DeviceRunResult(
                    counts=None, simulator=sim, tiles=0, result=result,
                    tiles_skipped=result.stats["tiles_skipped"])
            counts = counter.counts_sorted().copy()
        return DeviceRunResult(counts=counts, simulator=sim, tiles=0)

    order = collection.order
    accumulator = None
    bounds = None
    counts = None
    tiles_skipped = 0
    if sparse:
        accumulator = SparseAccumulator(n, min_support=min_support)
        bounds = np.array([bm.set_size for bm in collection.batmaps_sorted],
                          dtype=np.int64)
    else:
        counts = np.zeros((n, n), dtype=np.int64)
    scheduler = TileScheduler(n, tile_size)
    for tile in scheduler:
        if sparse and min_support > 0:
            row_bound = bounds[tile.row_start:tile.row_end].max(initial=0)
            col_bound = bounds[tile.col_start:tile.col_end].max(initial=0)
            if min(row_bound, col_bound) < min_support:
                tiles_skipped += 1
                continue
        kernel = PairCountKernel(
            offsets=buffer.offsets,
            widths=buffer.widths,
            n_batmaps=n,
            row_base=tile.row_start,
            col_base=tile.col_start,
            tile_shape=(tile.rows, tile.cols),
        )
        kernel.local_size = tuple(work_group)
        sim.allocate("results", (tile.rows * tile.cols,), np.int64)
        global_size = (
            pad_to_multiple(tile.rows, work_group[0]),
            pad_to_multiple(tile.cols, work_group[1]),
        )
        sim.launch(kernel, global_size)
        z = sim.download("results").reshape(tile.rows, tile.cols)
        sim.free("results")
        if sparse:
            rows = np.arange(tile.row_start, tile.row_end)
            cols = np.arange(tile.col_start, tile.col_end)
            if tile.is_diagonal:
                # Diagonal tiles hold both triangles; keep slot-space r <= c
                # so the flipped original-order entries coalesce once.
                z = np.where(rows[:, None] <= cols[None, :], z, 0)
            accumulator.add_block(order[rows], order[cols], z)
        else:
            counts[tile.row_start:tile.row_end, tile.col_start:tile.col_end] = z
            if not tile.is_diagonal:
                counts[tile.col_start:tile.col_end, tile.row_start:tile.row_end] = z.T
    if sparse:
        accumulator.tiles_total = len(scheduler)
        accumulator.tiles_skipped = tiles_skipped
        return DeviceRunResult(
            counts=None, simulator=sim, tiles=len(scheduler) - tiles_skipped,
            result=accumulator.finalize(), tiles_skipped=tiles_skipped)
    return DeviceRunResult(counts=counts, simulator=sim, tiles=len(scheduler))


def run_bitmap_pair_counts(
    index: BitmapIndex,
    *,
    device: DeviceSpec = GTX_285,
    tile_size: int = 2048,
    work_group: tuple[int, int] = (16, 16),
    simulator: GpuSimulator | None = None,
) -> DeviceRunResult:
    """Same driver for the uncompressed-bitmap layout (the PBI baseline)."""
    require_positive(tile_size, "tile_size")
    n = index.n_sets
    sim = simulator or GpuSimulator(device)
    sim.upload("bitmaps", index.words.ravel())

    counts = np.zeros((n, n), dtype=np.int64)
    scheduler = TileScheduler(n, tile_size)
    for tile in scheduler:
        kernel = BitmapAndPopcountKernel(
            words_per_set=index.words_per_set,
            n_sets=n,
            row_base=tile.row_start,
            col_base=tile.col_start,
            tile_shape=(tile.rows, tile.cols),
        )
        kernel.local_size = tuple(work_group)
        sim.allocate("results", (tile.rows * tile.cols,), np.int64)
        global_size = (
            pad_to_multiple(tile.rows, work_group[0]),
            pad_to_multiple(tile.cols, work_group[1]),
        )
        sim.launch(kernel, global_size)
        z = sim.download("results").reshape(tile.rows, tile.cols)
        sim.free("results")
        counts[tile.row_start:tile.row_end, tile.col_start:tile.col_end] = z
        if not tile.is_diagonal:
            counts[tile.col_start:tile.col_end, tile.row_start:tile.row_end] = z.T
    return DeviceRunResult(counts=counts, simulator=sim, tiles=len(scheduler))
