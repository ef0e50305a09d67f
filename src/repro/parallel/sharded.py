"""Out-of-core pair counting: the tile pipeline over spilled shards.

The multiprocess executor (:mod:`repro.parallel.executor`) counts tiles of
one in-memory packed buffer over shared memory.  This module is its
out-of-core counterpart for a :class:`~repro.core.sharded.ShardedCollection`:
the ``n x n`` pair space decomposes into shard-pair rectangles (upper
triangle of shard pairs only, by symmetry), the one walk
(:func:`~repro.core.pipeline.triangle_tiles`) tiles every rectangle, and
every tile is answered by the very same width-class SWAR engine — inline
with the two shards of the current rectangle attached, or across the one
process pool, whose workers re-attach spilled shards by **memory mapping**
(:class:`SpillSource`; the page cache plays the role the shared-memory
segment plays for the in-memory executor).  Counts are bit-identical to
both in-memory engines on every workload.

Backend choice routes through the workload planner
(:func:`repro.core.plan.plan_counts`): small collections or single-core
hosts stay serial, everything else fans out — the same policy every other
integration point shares.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.batch import DEFAULT_BLOCK_WORDS, width_slot_bounds
from repro.core.pipeline import (
    DenseSink,
    SparseSink,
    TopKSink,
    auto_tile_edge,
    run_tiles,
    triangle_tiles,
)
from repro.core.plan import PlanFeatures, plan_counts, resolve_result_format
from repro.core.results import DenseCountResult
from repro.core.sharded import attach_shard
from repro.parallel.executor import open_pool, resolve_worker_count, run_on_pool
from repro.utils.validation import require, require_positive

__all__ = [
    "WORKER_SHARD_CACHE",
    "block_words_for_budget",
    "SpillSource",
    "ShardedPairCounter",
]

#: Shards one attached :class:`SpillSource` (the parent's or a pool
#: worker's) keeps at once, least recently used first out.  Memory-mapped
#: attachments are cheap to reopen (the pages stay in the OS cache), so a
#: small cache only avoids re-parsing the ``.npy`` headers and rebuilding
#: the width-class metadata between consecutive tiles of one rectangle.
WORKER_SHARD_CACHE = 3


def block_words_for_budget(memory_budget=None) -> int:
    """SWAR block budget honouring a resident-set ceiling.

    The broadcast comparison keeps a handful of ``block_words``-sized uint64
    temporaries alive; dividing the budget by 128 keeps their total around a
    quarter of the ceiling.  Without a budget the cache-sized default
    applies unchanged.
    """
    if memory_budget is None:
        return DEFAULT_BLOCK_WORDS
    require_positive(memory_budget, "memory_budget")
    return int(min(DEFAULT_BLOCK_WORDS, max(1 << 12, memory_budget // 128)))


# --------------------------------------------------------------------------- #
# Tile source
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SpillSource:
    """Tile source of spilled shards, attached by memory mapping.

    The same object serves the serial runner in the parent and, pickled,
    every pool worker (:func:`~repro.parallel.executor.open_pool`) — the
    page cache plays the role the shared-memory segment plays for an
    in-memory collection.
    """

    directories: tuple
    block_words: int = DEFAULT_BLOCK_WORDS

    def attach(self) -> "_AttachedShards":
        return _AttachedShards(self)


class _AttachedShards:
    """Shard ``p``'s index on demand, keeping the most recently used few."""

    def __init__(self, source: SpillSource) -> None:
        self.source = source
        self._indexes: OrderedDict = OrderedDict()

    def __getitem__(self, p: int):
        index = self._indexes.get(p)
        if index is None:
            index = attach_shard(self.source.directories[p], p,
                                 block_words=self.source.block_words)
            if len(self._indexes) >= WORKER_SHARD_CACHE:
                self._indexes.popitem(last=False)
            self._indexes[p] = index
        self._indexes.move_to_end(p)
        return index


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #
class ShardedPairCounter:
    """All-pairs counting over a spilled :class:`ShardedCollection`.

    ``compute`` mirrors the collection API: ``"batch"`` runs the tiles of
    every shard pair inline; ``"parallel"`` counts them on a process pool
    (falling back to inline below the pool pay-off floor); ``"auto"`` asks
    the workload planner.  Either way the tiles come from one walk over the
    shard-pair upper triangle (:func:`~repro.core.pipeline.triangle_tiles`)
    and go into one sink.  ``memory_budget`` additionally shrinks the SWAR
    block budget so counting temporaries respect the same ceiling the
    shards were sized for.
    """

    def __init__(
        self,
        sharded,
        *,
        compute: str = "auto",
        workers=None,
        tile_size=None,
        memory_budget=None,
        mp_context=None,
        result_format: str = "dense",
        min_support: int = 0,
    ) -> None:
        require(compute in ("auto", "batch", "host", "parallel"),
                f"compute must be 'auto', 'batch', 'host' or 'parallel', got {compute!r}")
        require(sharded.n_shards > 0, "cannot count an empty sharded collection")
        require(min_support >= 0, f"min_support must be >= 0, got {min_support}")
        if tile_size is not None:
            require_positive(tile_size, "tile_size")
        self.sharded = sharded
        self.workers = resolve_worker_count(workers)
        self.tile_size = tile_size
        self.result_format = resolve_result_format(
            result_format, sharded.n_physical_sets, memory_budget)
        self.min_support = int(min_support)
        if memory_budget is not None and self.result_format == "dense":
            # The dense result matrix is resident throughout counting; only
            # the remainder bounds the SWAR temporaries.  A sparse result
            # keeps only surviving nonzeros, so the full budget stays
            # available for counting temporaries.
            memory_budget = max(1, memory_budget - 8 * sharded.n_physical_sets ** 2)
        self.block_words = block_words_for_budget(memory_budget)
        self._mp_context = mp_context
        requested = {"auto": "auto", "host": "batch", "batch": "batch",
                     "parallel": "parallel"}[compute]
        features = PlanFeatures(
            n_sets=sharded.n_physical_sets,
            total_words=sharded.total_words,
            r0=sharded.r0,
            byte_entries=True,
            n_shards=sharded.n_shards,
            result_format=self.result_format,
            min_support=self.min_support,
        )
        self.plan = plan_counts(features, requested=requested, workers=workers)

    # ------------------------------------------------------------------ #
    def _run(self, sink, bounds=None):
        """Walk the shard-pair triangle into ``sink``, inline or on the pool.

        Tiles are computed in physical (storage) space — tombstones never
        change a stored row — and every slot is reported by its *live*
        index; tombstoned slots map to ``-1`` and never reach the sink, so
        results match a from-scratch build over only the live sets.
        """
        shards = self.sharded.shards
        live_pos = self.sharded.live_positions
        edge = self.tile_size or auto_tile_edge(self.sharded.n_physical_sets,
                                                self.plan.workers)
        tiles = triangle_tiles([live_pos[shard.global_order] for shard in shards],
                               edge, bounds)
        source = SpillSource(tuple(str(shard.directory) for shard in shards),
                             self.block_words)
        if self.plan.backend == "parallel":
            with open_pool(self.plan.workers, source, self._mp_context) as pool:
                stats = run_on_pool(pool, self.plan.workers, tiles, sink)
        else:
            stats = run_tiles(tiles, sink, source.attach())
        return sink.result(stats)

    def counts(self) -> np.ndarray:
        """Dense count matrix over the *live* sets, in live index order."""
        return self._run(DenseSink(self.sharded.n_sets))

    # ------------------------------------------------------------------ #
    # CountResult-producing queries (sparse / pruned / top-k)
    # ------------------------------------------------------------------ #
    def shard_slot_bounds(self, bounds=None) -> list:
        """Per-shard, slot-indexed count upper bounds (tombstoned slots zeroed).

        ``bounds`` — when the caller knows exact post-repair set sizes (the
        miner's item supports) — is indexed by *physical* set id; without it
        the bound falls back to the packed widths plus the per-set failed
        counts (:func:`~repro.core.batch.width_slot_bounds`), which only
        needs the mmap'd layout arrays.  Tombstoned slots get a zero bound:
        their entries are dropped from the result anyway, so zeroing lets
        whole tiles of deleted sets prune away.
        """
        live_pos = self.sharded.live_positions
        per_shard = []
        for shard in self.sharded.shards:
            if bounds is not None:
                b = np.asarray(bounds, dtype=np.int64)[shard.global_order]
            else:
                widths = np.load(shard.directory / "widths.npy")
                failed_local = np.bincount(
                    np.asarray(shard.failed, dtype=np.int64).reshape(-1, 2)[:, 1],
                    minlength=shard.n_sets)
                b = width_slot_bounds(widths, failed_local[shard.order])
            b = b.copy()
            b[live_pos[shard.global_order] < 0] = 0
            per_shard.append(b)
        return per_shard

    def count_result(self, *, min_support=None, top_k=None, bounds=None):
        """All-pairs counts as a :class:`~repro.core.results.CountResult`.

        The dense format wraps :meth:`counts` unchanged (the oracle path).
        Sparse and top-k results never materialise the ``n x n`` matrix:
        the same shard-pair tiles stream into a
        :class:`~repro.core.pipeline.SparseSink` or
        :class:`~repro.core.pipeline.TopKSink`, and tiles whose bound falls
        below the sink's threshold are skipped before any SWAR work (and,
        on the pool, before submission).  Results are expressed in live
        indices (tombstoned sets dropped), bit-identical to filtering
        :meth:`counts`.
        """
        ms = self.min_support if min_support is None else int(min_support)
        require(ms >= 0, f"min_support must be >= 0, got {ms}")
        if top_k is None and self.result_format == "dense":
            return DenseCountResult(self.counts())
        n_live = self.sharded.n_sets
        sink = (TopKSink(top_k, n_live, min_support=ms) if top_k is not None
                else SparseSink(n_live, min_support=ms))
        return self._run(sink, self.shard_slot_bounds(bounds))
