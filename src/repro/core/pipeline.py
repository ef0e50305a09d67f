"""One tile pipeline for every host counting query: source → walk → runner → sink.

The paper counts all pairs in one tiled pass over the width-sorted packed
buffer: the upper triangle of the ``n x n`` pair space, cut into tiles
(Figure 4 layout, Section III).  Every host engine runs that pass through
the four parts of this module:

* **Tile source** — an indexable of :class:`~repro.core.batch.WidthClassIndex`
  objects, one per shard: the in-memory collection's index (one shard),
  the same index attached from shared memory inside a pool worker, or
  memory-mapped spilled shards.
* **Walk** — :func:`triangle_tiles` enumerates the bound-annotated tiles of
  the upper triangle over all shard pairs (``edge``-square tiles, sized by
  :func:`auto_tile_edge`); :func:`rectangle_tiles` and :func:`aligned_tiles`
  cover the cross-product and pairs-list query shapes with the same tile
  type.
* **Runner** — :func:`run_tiles` counts each surviving tile inline, or keeps
  a bounded number of pool futures in flight and feeds each finished tile
  straight to the sink (the pool half lives in :mod:`repro.parallel.executor`).
* **Sinks** — :class:`DenseSink`, :class:`SparseSink` and :class:`TopKSink`
  consume ``(tile, block)`` and decide, through ``threshold()``, which of
  the remaining tiles the runner may skip before any SWAR work.

A tile's bound is ``min(max(bounds[rows]), max(bounds[cols]))`` over
per-slot count upper bounds; a tile whose bound is strictly below the
sink's current threshold cannot hold a count the sink would keep.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, as_completed, wait
from dataclasses import dataclass

import numpy as np

from repro.core.results import SparseAccumulator, TopKAccumulator

__all__ = [
    "DEFAULT_TILE_CAP",
    "Tile",
    "auto_tile_edge",
    "triangle_tiles",
    "rectangle_tiles",
    "aligned_tiles",
    "count_block",
    "run_tiles",
    "DenseSink",
    "PairsSink",
    "SparseSink",
    "TopKSink",
]

#: Upper bound on the auto-selected tile edge.  Small tiles keep the
#: broadcast SWAR temporaries cache-resident: on the E12 instance a 128-wide
#: tile counts ~3x faster than a 400-wide one, so auto-tiling never exceeds
#: this even when few workers would allow larger tiles.
DEFAULT_TILE_CAP = 128


def auto_tile_edge(n: int, workers: int) -> int:
    """Auto-selected tile side: ~2 tile rows per worker, cache-capped.

    The single tiling policy of the host engines — serial, pool and spilled
    counting all use it, and the measured-scaling benchmark pins it across
    worker counts, so recorded speed-up curves measure the production
    blocking.
    """
    return max(32, min(DEFAULT_TILE_CAP, -(-n // (2 * workers))))


@dataclass(frozen=True, eq=False)
class Tile:
    """One unit of counting work: rows of shard ``p`` against columns of shard ``q``.

    ``rows`` / ``cols`` are slot indices inside their shards (what a worker
    needs); ``row_ids`` / ``col_ids`` are the output indices the sink writes
    (``-1`` drops a slot, e.g. a tombstoned set).  A *diagonal* tile has the
    same slots on both axes, so it holds every pair twice; an *aligned* tile
    pairs ``rows[k]`` with ``cols[k]`` instead of forming a rectangle.
    """

    p: int
    q: int
    rows: np.ndarray
    cols: np.ndarray
    row_ids: np.ndarray
    col_ids: np.ndarray
    diagonal: bool = False
    aligned: bool = False
    #: count upper bound of every pair in the tile (``None``: never pruned)
    bound: int | None = None


def _tile_bound(bounds, p, q, rows, cols):
    if bounds is None:
        return None
    return min(int(bounds[p][rows].max()), int(bounds[q][cols].max()))


def triangle_tiles(ids, edge: int, bounds=None):
    """The upper triangle of the pair space over one or more shards.

    ``ids[p]`` maps shard ``p``'s slots to output indices and ``bounds[p]``
    (optional) holds their count upper bounds.  Shard pairs ``p <= q`` are
    visited in order; within a shard only tiles on or above the diagonal
    are emitted, across shards the whole rectangle.
    """
    for p in range(len(ids)):
        n_p = ids[p].size
        for q in range(p, len(ids)):
            n_q = ids[q].size
            for r in range(0, n_p, edge):
                rows = np.arange(r, min(r + edge, n_p))
                for c in range(r if p == q else 0, n_q, edge):
                    cols = np.arange(c, min(c + edge, n_q))
                    yield Tile(p, q, rows, cols, ids[p][rows], ids[q][cols],
                               diagonal=p == q and r == c,
                               bound=_tile_bound(bounds, p, q, rows, cols))


def rectangle_tiles(row_slots, col_slots, edge: int, bounds=None):
    """Tiles of one index's ``row_slots x col_slots`` rectangle.

    Output ids are positions within the two slot lists, so the sink fills a
    ``(len(row_slots), len(col_slots))`` result.
    """
    for r in range(0, row_slots.size, edge):
        rows = row_slots[r:r + edge]
        for c in range(0, col_slots.size, edge):
            cols = col_slots[c:c + edge]
            yield Tile(0, 0, rows, cols, np.arange(r, r + rows.size),
                       np.arange(c, c + cols.size),
                       bound=_tile_bound(bounds, 0, 0, rows, cols))


def aligned_tiles(a_slots, b_slots, chunk: int):
    """Chunks of an explicit pairs list (``a_slots[k]`` with ``b_slots[k]``)."""
    for start in range(0, a_slots.size, chunk):
        positions = np.arange(start, min(start + chunk, a_slots.size))
        yield Tile(0, 0, a_slots[positions], b_slots[positions], positions,
                   positions, aligned=True)


def count_block(indexes, tile: Tile) -> np.ndarray:
    """Counts of one tile over a tile source (run inline or inside a worker)."""
    a, b = indexes[tile.p], indexes[tile.q]
    if tile.aligned:
        return a.pairwise_index(b, tile.rows, tile.cols)
    if tile.diagonal:
        # the same slots on both axes: cross_index counts each pair once
        return a.cross_index(a, tile.rows, tile.rows)
    return a.cross_index(b, tile.rows, tile.cols)


def run_tiles(tiles, sink, indexes=None, *, submit=None, max_inflight=1) -> dict:
    """The one runner: count every tile the sink's threshold does not prune.

    Inline (``submit=None``) each tile is counted over ``indexes`` and handed
    to the sink at once.  With ``submit(tile) -> Future`` at most
    ``max_inflight`` tiles are outstanding; each finished tile goes straight
    into the sink, so the parent never holds more than the in-flight blocks
    on top of the sink's own result.  The threshold is read when a tile is
    reached, so a top-k heap that fills up prunes the tiles after it.

    Returns the pruning telemetry ``{"tiles_total", "tiles_skipped"}``.
    """
    stats = {"tiles_total": 0, "tiles_skipped": 0}
    pending: dict = {}

    def drain(futures) -> None:
        for future in futures:
            sink.add(pending.pop(future), future.result())

    try:
        for tile in tiles:
            stats["tiles_total"] += 1
            if tile.bound is not None and tile.bound < sink.threshold():
                stats["tiles_skipped"] += 1
                continue
            if submit is None:
                sink.add(tile, count_block(indexes, tile))
                continue
            if len(pending) >= max_inflight:
                drain(wait(pending, return_when=FIRST_COMPLETED).done)
            pending[submit(tile)] = tile
        drain(as_completed(list(pending)))
    except BaseException:
        for future in pending:
            future.cancel()
        raise
    return stats


def _drop_dead(tile: Tile, block: np.ndarray):
    """Tile axes and block without the slots whose output id is ``-1``."""
    rows, cols = tile.row_ids, tile.col_ids
    keep_r, keep_c = rows >= 0, cols >= 0
    if keep_r.all() and keep_c.all():
        return rows, cols, block
    return rows[keep_r], cols[keep_c], block[np.ix_(keep_r, keep_c)]


class DenseSink:
    """Scatter every tile into one dense int64 matrix (the oracle format)."""

    def __init__(self, n_rows: int, n_cols: int | None = None, *,
                 symmetric: bool = True) -> None:
        self.out = np.zeros((n_rows, n_rows if n_cols is None else n_cols),
                            dtype=np.int64)
        self.symmetric = symmetric

    def threshold(self) -> int:
        return 0

    def add(self, tile: Tile, block: np.ndarray) -> None:
        rows, cols, block = _drop_dead(tile, block)
        self.out[np.ix_(rows, cols)] = block
        if self.symmetric and not tile.diagonal:
            self.out[np.ix_(cols, rows)] = block.T

    def result(self, stats: dict) -> np.ndarray:
        return self.out


class PairsSink:
    """Aligned per-pair counts in request order (the pairs-list shape)."""

    def __init__(self, n_pairs: int) -> None:
        self.out = np.empty(n_pairs, dtype=np.int64)

    def threshold(self) -> int:
        return 0

    def add(self, tile: Tile, block: np.ndarray) -> None:
        self.out[tile.row_ids] = block

    def result(self, stats: dict) -> np.ndarray:
        return self.out


class SparseSink:
    """Nonzero counts as COO triplets (:class:`~repro.core.results.SparseAccumulator`).

    Diagonal tiles keep their upper triangle only, so each unordered pair
    (and each self-count) reaches the accumulator exactly once.
    """

    def __init__(self, n_rows: int, n_cols: int | None = None, *,
                 symmetric: bool = True, min_support: int = 0) -> None:
        self.acc = SparseAccumulator(n_rows, n_cols, symmetric=symmetric,
                                     min_support=min_support)

    def threshold(self) -> int:
        return self.acc.min_support

    def add(self, tile: Tile, block: np.ndarray) -> None:
        if tile.diagonal:
            block = np.triu(block)
        self.acc.add_block(*_drop_dead(tile, block))

    def result(self, stats: dict):
        self.acc.tiles_total = stats["tiles_total"]
        self.acc.tiles_skipped = stats["tiles_skipped"]
        return self.acc.finalize()


class TopKSink:
    """The ``k`` best off-diagonal pairs (:class:`~repro.core.results.TopKAccumulator`).

    The threshold is the heap's running floor (never below
    ``min_support``), so tiles that cannot reach a full heap are pruned.
    """

    def __init__(self, k: int, n_sets: int, *, min_support: int = 0) -> None:
        self.acc = TopKAccumulator(k)
        self.n_sets = n_sets
        self.min_support = min_support

    def threshold(self) -> int:
        return max(self.min_support, self.acc.floor)

    def add(self, tile: Tile, block: np.ndarray) -> None:
        if tile.diagonal:
            block = np.triu(block, 1)
        rows, cols, block = _drop_dead(tile, block)
        r_local, c_local = np.nonzero(block >= max(1, self.threshold()))
        if r_local.size == 0:
            return
        i, j = rows[r_local], cols[c_local]
        self.acc.push(np.minimum(i, j), np.maximum(i, j), block[r_local, c_local])

    def result(self, stats: dict):
        return self.acc.result(self.n_sets, min_support=self.min_support,
                               stats=stats, fill_zeros=self.min_support <= 1)
