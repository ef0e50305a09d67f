"""End-to-end frequent pair mining with batmaps on the simulated GPU.

This is the pipeline of Section III of the paper:

* **preprocess** (host): support filtering, vertical conversion, batmap
  construction, width sorting, device-buffer packing;
* **device phase**: the tiled pair-count kernel over all ``n x n`` pairs
  (upper triangle of tiles only);
* **postprocess** (host): reorder the counts to original item order, add the
  repair contributions of failed insertions, and threshold.

The report separates the three phases the way the paper's figures do
(Figure 6 plots the counting phase alone, Figure 7 the total).
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import BatmapConfig, DEFAULT_CONFIG
from repro.core.intersection import count_common
from repro.core.plan import PlanFeatures, plan_counts, resolve_result_format
from repro.datasets.streaming import collect_transactions
from repro.datasets.transactions import TransactionDatabase
from repro.gpu.device import DeviceSpec, GTX_285
from repro.kernels.driver import run_batmap_pair_counts
from repro.mining.postprocess import (
    reorder_counts,
    repair_count_result,
    repair_pair_counts,
    repair_pair_counts_from_failures,
)
from repro.mining.preprocess import preprocess, preprocess_streaming
from repro.mining.support import MiningReport, PairSupports
from repro.utils.memory import parse_memory_size
from repro.utils.rng import RngLike
from repro.utils.timer import PhaseTimer
from repro.utils.validation import require

__all__ = ["BatmapPairMiner", "DEFAULT_STREAM_BUDGET"]

#: Resident-set ceiling ``mine_stream`` uses when the caller names none —
#: generous enough that modest instances land in one shard, small enough
#: that a laptop never swaps.
DEFAULT_STREAM_BUDGET = 256 << 20


def _host_counts_sorted(collection) -> np.ndarray:
    """Dense count matrix in width-sorted order via the per-pair reference.

    The fallback counting phase for layouts the packed engines cannot
    represent (``payload_bits > 7``): exact for every configured width.
    """
    batmaps = collection.batmaps_sorted
    n = len(batmaps)
    out = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        out[a, a] = batmaps[a].stored_count
        for b in range(a + 1, n):
            c = count_common(batmaps[a], batmaps[b])
            out[a, b] = c
            out[b, a] = c
    return out


@dataclass
class BatmapPairMiner:
    """Frequent pair miner built on batmaps and the GPU simulator.

    Parameters
    ----------
    device:
        Device specification used by the simulator (defaults to the paper's
        GTX 285).
    tile_size:
        Side length ``k`` of the device sub-problems (the paper uses 2048;
        smaller values keep individual simulated launches short).
    config:
        Batmap construction parameters.
    compute:
        ``"device"`` (default) runs the tiled pair-count kernel on the GPU
        simulator and reports its modelled timing and traffic statistics;
        ``"host"`` computes the (bit-identical) counts with the vectorised
        batch engine (:mod:`repro.core.batch`) on the host — the fast
        wall-clock serving path, with no device model attached;
        ``"parallel"`` distributes the same tiles across a process pool over
        a shared-memory copy of the packed buffer
        (:class:`~repro.parallel.executor.ParallelPairCounter`), falling back
        to the serial batch engine for small inputs;
        ``"auto"`` defers the batch/parallel choice to the workload planner
        (:func:`repro.core.plan.plan_counts`) — the simulator is never
        auto-selected.
    workers:
        Worker processes for ``compute="parallel"``; ``None`` auto-selects
        from the machine's core count.
    build_compute:
        Construction engine for the preprocessing phase (``"auto"``,
        ``"host"``, ``"bulk"`` or ``"parallel"``), routed through
        :func:`~repro.core.plan.plan_build`.  All engines produce
        collections with identical pair counts; the bulk engines make the
        preprocessing phase — the dominant cost once counting is fast —
        run vectorized instead of one element at a time.
    build_workers:
        Worker processes for ``build_compute="parallel"``; ``None``
        auto-selects (and falls back to ``workers``).
    result_format:
        Shape of the count results: ``"dense"`` (default — the legacy
        ``(n, n)`` matrix, byte-identical to every previous release),
        ``"sparse"`` (COO upper triangle; with the mining ``min_support``
        pushed into the engines as a tile-pruning floor), or ``"auto"``
        (sparse only when the dense matrix would not fit the run's memory
        budget — in-memory :meth:`mine` has no budget, so auto stays
        dense there).
    """

    device: DeviceSpec = GTX_285
    tile_size: int = 2048
    config: BatmapConfig = DEFAULT_CONFIG
    work_group: tuple[int, int] = (16, 16)
    compute: str = "device"
    workers: int | None = None
    build_compute: str = "auto"
    build_workers: int | None = None
    result_format: str = "dense"

    def mine(
        self,
        database: TransactionDatabase,
        *,
        min_support: int = 1,
        rng: RngLike = None,
        filter_items: bool = True,
        result_format: str | None = None,
    ) -> MiningReport:
        """Compute the support of every item pair; return results plus phase timings.

        ``result_format`` overrides the miner-level default for this call.
        The sparse path threads ``min_support`` into the counting engines as
        a tile-pruning floor; ``frequent_pairs(min_support)`` on the result
        is exact (bit-identical to the dense pipeline filtered afterwards).
        """
        require(min_support >= 1, f"min_support must be >= 1, got {min_support}")
        require(self.compute in ("device", "host", "parallel", "auto"),
                f"compute must be 'device', 'host', 'parallel' or 'auto', "
                f"got {self.compute!r}")
        require(self.build_compute in ("auto", "host", "bulk", "parallel"),
                f"build_compute must be 'auto', 'host', 'bulk' or 'parallel', "
                f"got {self.build_compute!r}")
        timers = PhaseTimer()

        with timers.time("preprocess"):
            pre = preprocess(
                database,
                min_support=min_support,
                config=self.config,
                rng=rng,
                filter_items=filter_items,
                build_compute=self.build_compute,
                build_workers=(self.build_workers if self.build_workers is not None
                               else self.workers),
            )

        requested_format = (result_format if result_format is not None
                            else self.result_format)
        # In-memory mining has no spill budget, so "auto" resolves dense —
        # the byte-identical legacy pipeline.
        fmt = resolve_result_format(requested_format, len(pre.collection), None)
        # The mining min_support rides on the plan features: the planner and
        # the engines see the pruning floor the postprocess will apply.
        features = PlanFeatures.from_collection(
            pre.collection, result_format=fmt, min_support=min_support)

        backend = "kernel"
        if self.compute != "device":
            # compute="host" names the batch engine; the planner returns
            # "host" only for layouts the packed engines cannot represent
            # (the miner never asks for point queries), and demotes
            # "parallel" to "batch" when a pool cannot pay off.
            requested = {"auto": "auto", "parallel": "parallel",
                         "host": "batch"}[self.compute]
            plan = plan_counts(features, requested=requested, workers=self.workers)
            backend = plan.backend
            # Entries wider than one byte (payload_bits > 7) have no packed
            # word form: only the per-pair reference is exact.
            # (compute="device" keeps raising — a layout the simulated kernel
            # genuinely cannot represent should not be silently softened.)
            if pre.collection.config.entry_storage_bits != 8:
                backend = "host"

        sparse_result = None   # CountResult in original index order
        counts_sorted = None
        result = None
        if backend == "host":
            # Per-pair reference loop (exact for every payload width).
            with timers.time("count"):
                if fmt == "sparse":
                    sparse_result = pre.collection.count_result(
                        compute="host", result_format="sparse",
                        min_support=min_support)
                else:
                    counts_sorted = _host_counts_sorted(pre.collection)
        elif backend != "kernel":
            # The tile engines, wall-clock timed end to end (for the pool:
            # shared segment and pool startup included).
            with timers.time("count"):
                with pre.collection.pair_counter(plan) as counter:
                    if fmt == "sparse":
                        sparse_result = counter.count_result(
                            result_format="sparse", min_support=min_support)
                    else:
                        counts_sorted = counter.counts_sorted()
        else:
            # Device phase (timed by the simulator's analytic model, not wall clock).
            result = run_batmap_pair_counts(
                pre.collection,
                device=self.device,
                tile_size=self.tile_size,
                work_group=self.work_group,
                result_format=fmt,
                min_support=min_support if fmt == "sparse" else 0,
            )
            counts_sorted = result.counts
            sparse_result = result.result

        with timers.time("postprocess"):
            if sparse_result is not None:
                # The engines already mapped slots to original ids; repair
                # folds the failed-insertion increments in as COO entries.
                counts = repair_count_result(
                    sparse_result, pre.failed_insertions(),
                    pre.database.transactions)
            else:
                counts = reorder_counts(counts_sorted, pre.collection)
                counts = repair_pair_counts(counts, pre.collection, pre.database)
            supports = PairSupports(counts=counts, item_ids=pre.item_map)

        n_failed = sum(len(v) for v in pre.failed_insertions().values())
        return MiningReport(
            supports=supports,
            timers=timers,
            device_seconds=result.device_seconds if result else 0.0,
            transfer_seconds=result.transfer_seconds if result else 0.0,
            device_bytes=result.total_device_bytes if result else 0,
            achieved_bandwidth_gbps=result.achieved_bandwidth_gbps if result else 0.0,
            coalescing_efficiency=result.coalescing_efficiency if result else 1.0,
            batmap_bytes=pre.batmap_bytes,
            failed_insertions=n_failed,
            tiles=result.tiles if result else 0,
            count_backend=backend,
            build_backend=(pre.collection.build_plan.backend
                           if pre.collection.build_plan else "host"),
        )

    def mine_stream(
        self,
        source,
        *,
        min_support: int = 1,
        rng: RngLike = None,
        filter_items: bool = True,
        memory_budget=None,
        spill_dir=None,
        max_transactions: int | None = None,
        result_format: str | None = None,
    ) -> MiningReport:
        """Mine frequent pairs out-of-core from a FIMI stream on disk.

        The database is never fully resident: preprocessing streams the file
        (:func:`~repro.mining.preprocess.preprocess_streaming`), construction
        spills packed shards sized to ``memory_budget`` (a byte count or a
        string like ``"64M"``; default :data:`DEFAULT_STREAM_BUDGET`), and
        counting streams shard-pair rectangles through the batch/parallel
        engines.  Results are **bit-identical** to :meth:`mine` on the
        in-memory database read from the same file.

        ``spill_dir`` keeps the shard spill at a caller-chosen path (and
        leaves it behind for re-attach); by default a temporary directory
        is used and removed when mining finishes.  ``compute="device"`` is
        rejected — the simulated device models an in-memory buffer.

        ``result_format`` (default: the miner field) controls the count
        result shape.  ``"auto"`` compares the dense matrix footprint
        (``n**2 * 8`` bytes) against ``memory_budget`` once the kept item
        count is known and demotes to sparse when it would not fit — the
        path that lets workloads whose *result* outgrows the budget finish.
        The sparse path prunes shard-pair tiles against the exact item
        supports gathered during preprocessing.
        """
        require(min_support >= 1, f"min_support must be >= 1, got {min_support}")
        require(self.compute in ("host", "parallel", "auto"),
                "streaming mining supports compute 'host', 'parallel' or 'auto'; "
                f"got {self.compute!r} (the simulated device needs the whole "
                "buffer resident)")
        budget = parse_memory_size(
            memory_budget if memory_budget is not None else DEFAULT_STREAM_BUDGET)
        timers = PhaseTimer()
        cleanup = spill_dir is None
        spill = Path(spill_dir) if spill_dir is not None else Path(
            tempfile.mkdtemp(prefix="repro-shards-"))
        try:
            with timers.time("preprocess"):
                pre = preprocess_streaming(
                    source,
                    spill,
                    memory_budget=budget,
                    min_support=min_support,
                    config=self.config,
                    rng=rng,
                    filter_items=filter_items,
                    build_compute=self.build_compute,
                    build_workers=(self.build_workers
                                   if self.build_workers is not None
                                   else self.workers),
                    max_transactions=max_transactions,
                    result_format=(result_format if result_format is not None
                                   else self.result_format),
                )
            from repro.parallel.sharded import ShardedPairCounter

            counter = ShardedPairCounter(
                pre.collection,
                compute=self.compute,
                workers=self.workers,
                memory_budget=budget,
                result_format=pre.result_format,
                min_support=min_support if pre.result_format == "sparse" else 0,
            )
            with timers.time("count"):
                if counter.result_format == "sparse":
                    # Exact per-item supports (known from the streaming pass)
                    # bound every pair's post-repair support — the tightest
                    # sound tile-pruning input.
                    counts = counter.count_result(
                        bounds=pre.item_support_bounds)
                else:
                    counts = counter.counts()

            with timers.time("postprocess"):
                failures = pre.failed_insertions()
                if failures:
                    remap = -np.ones(max(1, pre.stats.n_items), dtype=np.int64)
                    remap[pre.item_map] = np.arange(pre.item_map.size)
                    raw = collect_transactions(pre.source, failures.keys(),
                                               max_transactions=max_transactions)
                    transactions = {}
                    for tid, items in raw.items():
                        mapped = remap[items]
                        transactions[tid] = np.sort(mapped[mapped >= 0])
                    if counter.result_format == "sparse":
                        counts = repair_count_result(counts, failures, transactions)
                    else:
                        counts = repair_pair_counts_from_failures(
                            counts, failures, transactions)
                supports = PairSupports(counts=counts, item_ids=pre.item_map)

            n_failed = sum(len(v) for v in failures.values())
            shards = pre.collection.shards
            return MiningReport(
                supports=supports,
                timers=timers,
                batmap_bytes=pre.batmap_bytes,
                failed_insertions=n_failed,
                count_backend=f"sharded({counter.plan.backend})",
                build_backend=f"sharded({shards[0].build_backend})",
            )
        finally:
            if cleanup:
                shutil.rmtree(spill, ignore_errors=True)

    def mine_pairs(
        self,
        transactions,
        n_items: int,
        min_support: int,
        *,
        rng: RngLike = None,
    ) -> dict[tuple[int, int], int]:
        """Drop-in counterpart of the baselines' ``mine_pairs`` API."""
        db = transactions if isinstance(transactions, TransactionDatabase) else (
            TransactionDatabase(transactions=list(transactions), n_items=n_items)
        )
        report = self.mine(db, min_support=min_support, rng=rng)
        return report.supports.frequent_pairs(min_support)
