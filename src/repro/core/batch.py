"""Vectorized batch pair counting over a packed :class:`BatmapCollection`.

The host-side reference path used to compute every intersection count with a
per-pair Python call (``count_common`` inside a double loop): one
``_check_compatible`` validation, one re-tiling of the smaller batmap and one
SWAR pass *per pair*.  For ``n`` sets that is ``O(n^2)`` interpreter overhead
dominating the actual bit work.

This module replaces that loop with a **batch engine** that operates directly
on the flat device buffer the collection already builds for the GPU
simulator:

* batmaps are grouped into *width classes* (same packed word width, i.e. the
  same hash range ``r``); a query gathers only the rows it touches as dense
  ``(rows, width)`` ``uint32`` matrices;
* every class pair of a tile — within a class, and across classes folded
  through the range-nesting property ``h mod r_small == (h mod r_large) mod
  r_small`` — is counted with *one broadcasted SWAR comparison*, chunked to
  bound peak memory;
* compatibility (shared hash family, compression floor) is validated **once**
  per engine, not once per pair.

Because the interleaved device layout of Figure 4 is block-aligned to the
collection granularity ``r0 >= 4`` (a power of two, so every table slice is
32-bit aligned), folding word position ``p`` of a wide batmap onto word
position ``p mod width_small`` of a narrow one matches exactly the per-row
``mod r_small`` folding of :func:`repro.core.intersection.count_common` —
the engine's counts are bit-identical to the per-pair reference.

The module is split into three parts:

* :class:`WidthClassIndex` — the pure *layout-level* engine.  It knows only
  the flat ``uint32`` word buffer plus per-slot offsets and widths; every
  query is expressed in width-sorted **slot** indices.  Because it needs no
  :class:`Batmap` objects, hash family or original-index mapping, the
  multiprocess executor (:mod:`repro.parallel.executor`) can rebuild one
  inside each worker over a shared-memory view of the same buffer.
* :class:`BatchPairCounter` — the collection-level front door: validates
  compatibility once, owns the original-index <-> slot mapping and the
  cached all-pairs matrix, and runs every query as tiles through the one
  pipeline of :mod:`repro.core.pipeline` (source → walk → runner → sink).
* :class:`ReferenceIndex` / :class:`ReferencePairCounter` — the per-pair
  reference (:func:`~repro.core.intersection.count_common`) as a tile
  source, and the same front door over it: the planner's ``host`` engine,
  exact for layouts the packed buffer cannot represent.

The engine is the shared hot path for :meth:`BatmapCollection.count_all_pairs`,
the boolean-matrix workloads (:mod:`repro.matrix.multiply`), the mining
pipeline's ``batch`` compute mode (:mod:`repro.mining.pair_mining`) and the
per-tile work of the multiprocess and out-of-core executors.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import LayoutError
from repro.core.intersection import (
    count_common,
    require_compression_floor,
    require_same_family,
)
from repro.core.pipeline import (
    DenseSink,
    PairsSink,
    SparseSink,
    TopKSink,
    aligned_tiles,
    auto_tile_edge,
    rectangle_tiles,
    run_tiles,
    triangle_tiles,
)
from repro.core.results import DenseCountResult
from repro.utils.validation import require, require_positive

__all__ = [
    "WidthClassIndex",
    "ReferenceIndex",
    "BatchPairCounter",
    "ReferencePairCounter",
    "DEFAULT_BLOCK_WORDS",
    "width_slot_bounds",
]

#: Upper bound on the number of packed words materialised by one broadcasted
#: comparison (the engine chunks the outer operand to stay below it).  Sized
#: for cache residency, not allocator limits: 2**17 words keep each SWAR
#: temporary around 1 MB, which on the E12 instance counts ~10x faster than
#: the 2**23 budget this started with (25 MB temporaries thrash the LLC, and
#: pathologically so when several executor workers compete for it).
DEFAULT_BLOCK_WORDS = 1 << 17

# SWAR constants for both lane widths.  The engine processes two packed
# 32-bit device words per operation (uint64 lanes) whenever the row width is
# even; byte order is preserved by the little-endian view, so the per-byte
# match condition is exactly the one of :mod:`repro.core.swar`.
_MSB = {np.dtype(np.uint32): np.uint32(0x80808080),
        np.dtype(np.uint64): np.uint64(0x8080808080808080)}
_LSB = {np.dtype(np.uint32): np.uint32(0x01010101),
        np.dtype(np.uint64): np.uint64(0x0101010101010101)}
_ONES = {np.dtype(np.uint32): np.uint32(0xFFFFFFFF),
         np.dtype(np.uint64): np.uint64(0xFFFFFFFFFFFFFFFF)}
_SEVEN = {np.dtype(np.uint32): np.uint32(7), np.dtype(np.uint64): np.uint64(7)}

#: Words per width chunk: each byte lane accumulates at most one match per
#: word, so chunks of <= 255 words cannot overflow a uint8 lane counter.
_LANE_CHUNK = 252


def _view_widest(a: np.ndarray) -> np.ndarray:
    """Reinterpret a ``(n, w)`` uint32 matrix as uint64 lanes when ``w`` is even."""
    if a.shape[1] % 2 == 0:
        return a.view(np.uint64)
    return a


def _match_count_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs match counts between the rows of ``a`` (n_a, w) and ``b`` (n_b, w).

    One fused SWAR pass per width chunk: compute the per-byte match mask
    (payloads equal, indicator OR set — the condition of
    :func:`repro.core.swar.match_bits`), turn the masked MSBs into per-byte
    0/1 lanes, sum the lanes along the width axis (safe from overflow within
    a chunk) and fold the byte lanes into the int64 result.
    """
    dt = a.dtype
    msb, lsb, ones, seven = _MSB[dt], _LSB[dt], _ONES[dt], _SEVEN[dt]
    n_a, w = a.shape
    n_b = b.shape[0]
    out = np.zeros((n_a, n_b), dtype=np.int64)
    for start in range(0, w, _LANE_CHUNK):
        stop = min(w, start + _LANE_CHUNK)
        x = a[:, None, start:stop]
        y = b[None, :, start:stop]
        p = ((x ^ y) | msb) - lsb
        matched = (p ^ ones) & ((x | y) & msb)
        # per-byte 0/1 lanes; lane sums stay < 256 within a chunk, so the
        # reduction cannot carry across byte lanes (dtype pinned: NumPy would
        # otherwise promote uint32 to uint64)
        lanes = np.add.reduce((matched >> seven) & lsb, axis=2, dtype=dt)
        out += lanes.view(np.uint8).reshape(n_a, n_b, dt.itemsize).sum(axis=2, dtype=np.int64)
    return out


def _match_count_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-aligned match counts: row ``k`` of ``a`` against row ``k`` of ``b``."""
    dt = a.dtype
    msb, lsb, ones, seven = _MSB[dt], _LSB[dt], _ONES[dt], _SEVEN[dt]
    n, w = a.shape
    out = np.zeros(n, dtype=np.int64)
    for start in range(0, w, _LANE_CHUNK):
        stop = min(w, start + _LANE_CHUNK)
        x = a[:, start:stop]
        y = b[:, start:stop]
        p = ((x ^ y) | msb) - lsb
        matched = (p ^ ones) & ((x | y) & msb)
        lanes = np.add.reduce((matched >> seven) & lsb, axis=1, dtype=dt)
        out += lanes.view(np.uint8).reshape(n, dt.itemsize).sum(axis=1, dtype=np.int64)
    return out


class WidthClassIndex:
    """Width-class pair-counting engine over a flat packed word buffer.

    The layout-level half of the batch engine: it is built from the three
    arrays of a :class:`~repro.core.collection.DeviceBuffer` (``words``,
    ``offsets``, ``widths``) and answers counting queries in width-sorted
    *slot* indices.  It never touches :class:`Batmap` objects, so it can be
    reconstructed inside a worker process over a zero-copy
    ``multiprocessing.shared_memory`` view of the very same words array, or
    over a memory-mapped spilled shard — the tile sources of
    :mod:`repro.core.pipeline`.

    Queries gather only the rows they touch, so a tile costs its own rows
    and SWAR temporaries, never a copy of the whole buffer.  Both queries
    take a second index: another buffer (e.g. another spilled shard) or
    ``self``.
    """

    def __init__(
        self,
        words: np.ndarray,
        offsets: np.ndarray,
        widths: np.ndarray,
        *,
        block_words: int = DEFAULT_BLOCK_WORDS,
    ) -> None:
        require_positive(block_words, "block_words")
        self.words = words
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.widths = np.asarray(widths, dtype=np.int64)
        self.block_words = int(block_words)
        self.n_slots = int(self.offsets.size)
        require(self.n_slots > 0, "cannot index an empty device buffer")
        require(self.widths.size == self.n_slots,
                "offsets and widths must have the same length")

        #: ascending distinct widths, and per sorted slot the index of its class
        self.class_widths, self.class_of = np.unique(self.widths, return_inverse=True)
        self._check_nesting(self.class_widths)

    @staticmethod
    def _check_nesting(widths) -> None:
        for small, large in zip(widths[:-1], widths[1:]):
            require(int(large) % int(small) == 0,
                    f"width {int(large)} is not a multiple of width {int(small)}; "
                    "ranges must be nested powers of two (spilled shards must "
                    "be packed from the same nested range family)")

    def _check_other(self, other: "WidthClassIndex") -> None:
        """Width nesting across two buffers (free when ``other is self``)."""
        if other is not self:
            self._check_nesting(
                np.unique(np.concatenate([self.class_widths, other.class_widths])))

    def _gather(self, slots: np.ndarray) -> np.ndarray:
        """Word matrix for slots that all share one width (direct buffer gather)."""
        width = int(self.widths[slots[0]]) if slots.size else 0
        gather = self.offsets[slots][:, None] + np.arange(width)[None, :]
        return self.words[gather]

    # ------------------------------------------------------------------ #
    # Low-level blocked SWAR comparisons
    # ------------------------------------------------------------------ #
    def _equal_width_counts(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pairwise match counts between two word matrices of the same width.

        Chunks the rows of ``a`` so no broadcast temporary exceeds the block
        budget, and widens to uint64 lanes (two device words per operation)
        whenever the width allows.
        """
        aw = _view_widest(a)
        bw = _view_widest(b)
        n_a, width = aw.shape
        n_b = bw.shape[0]
        out = np.empty((n_a, n_b), dtype=np.int64)
        rows = max(1, self.block_words // max(1, n_b * max(1, width)))
        for start in range(0, n_a, rows):
            stop = min(n_a, start + rows)
            out[start:stop] = _match_count_matrix(aw[start:stop], bw)
        return out

    def _symmetric_counts(self, a: np.ndarray) -> np.ndarray:
        """``_equal_width_counts(a, a)`` computing each unordered pair once.

        Row chunk ``[start, stop)`` is compared with rows ``start:`` only and
        the part below the chunk is mirrored (the SWAR match is symmetric).
        """
        aw = _view_widest(a)
        n, width = aw.shape
        out = np.empty((n, n), dtype=np.int64)
        rows = max(1, self.block_words // max(1, n * max(1, width)))
        for start in range(0, n, rows):
            stop = min(n, start + rows)
            block = _match_count_matrix(aw[start:stop], aw[start:])
            out[start:stop, start:] = block
            out[stop:, start:stop] = block[:, stop - start:].T
        return out

    def _folded_counts(self, large: np.ndarray, small: np.ndarray) -> np.ndarray:
        """Pairwise counts (rows of ``large`` x rows of ``small``), folding wide onto narrow.

        Word position ``p`` of a wide batmap compares against position
        ``p mod width_small`` of the narrow one, so the wide matrix is
        processed as ``reps`` contiguous blocks each compared against the
        whole narrow matrix.
        """
        width_small = small.shape[1]
        reps = large.shape[1] // width_small
        if reps == 1:
            return self._equal_width_counts(large, small)
        total = np.zeros((large.shape[0], small.shape[0]), dtype=np.int64)
        for block in range(reps):
            sl = slice(block * width_small, (block + 1) * width_small)
            total += self._equal_width_counts(large[:, sl], small)
        return total

    # ------------------------------------------------------------------ #
    # Slot-level queries
    # ------------------------------------------------------------------ #
    def cross_index(self, other: "WidthClassIndex", row_slots=None, col_slots=None) -> np.ndarray:
        """Rectangular counts: rows of *this* buffer against columns of ``other``.

        ``other`` is ``self`` for a within-buffer rectangle (every tile of an
        in-memory collection) or another buffer — the cross-shard primitive
        of the out-of-core pipeline (:mod:`repro.core.sharded`): two
        collections spilled as separate packed buffers are compared without
        ever concatenating them, rows gathered from each side's own
        (possibly memory-mapped) words.  Correctness requires both buffers
        to be interleaved with the *same* block granularity ``r0`` (the
        spill format pins a collection-wide ``r0`` for exactly this reason)
        and every pair of widths to nest; the nesting is checked here, the
        shared ``r0`` is the caller's contract.

        Passing the very same slot array on both axes of ``self`` (a
        diagonal tile) asks for a symmetric block: each unordered pair is
        counted once and mirrored.  The diagonal needs no special-casing:
        comparing a batmap with itself matches exactly the slots whose
        indicator bit is set, one per stored element, i.e.
        :attr:`Batmap.stored_count`.
        """
        symmetric = other is self and col_slots is row_slots and row_slots is not None
        row_slots = (np.arange(self.n_slots) if row_slots is None
                     else np.asarray(row_slots, dtype=np.int64).ravel())
        col_slots = (row_slots if symmetric
                     else np.arange(other.n_slots) if col_slots is None
                     else np.asarray(col_slots, dtype=np.int64).ravel())
        out = np.zeros((row_slots.size, col_slots.size), dtype=np.int64)
        if row_slots.size == 0 or col_slots.size == 0:
            return out
        self._check_other(other)
        row_class = self.class_of[row_slots]
        col_class = other.class_of[col_slots]
        for ci_idx in np.unique(row_class).tolist():
            row_pos = np.nonzero(row_class == ci_idx)[0]
            a = self._gather(row_slots[row_pos])
            for cj_idx in np.unique(col_class).tolist():
                if symmetric and cj_idx < ci_idx:
                    continue                    # mirrored from (cj, ci)
                col_pos = np.nonzero(col_class == cj_idx)[0]
                if symmetric and cj_idx == ci_idx:
                    out[np.ix_(row_pos, col_pos)] = self._symmetric_counts(a)
                    continue
                b = other._gather(col_slots[col_pos])
                if a.shape[1] >= b.shape[1]:
                    block = self._folded_counts(a, b)
                else:
                    block = self._folded_counts(b, a).T
                out[np.ix_(row_pos, col_pos)] = block
                if symmetric:
                    out[np.ix_(col_pos, row_pos)] = block.T
        return out

    def pairwise_index(self, other: "WidthClassIndex", a_slots, b_slots) -> np.ndarray:
        """Aligned counts: *this* slot ``a_slots[k]`` vs ``other``'s ``b_slots[k]``.

        The pairs-list counterpart of :meth:`cross_index` (``other`` may be
        ``self``): pairs are grouped by their (width, width) class
        combination so every group runs as one vectorised row-aligned fold
        instead of a dense rectangle; the result keeps the input order.  As
        with :meth:`cross_index`, two buffers must be interleaved at the
        same granularity ``r0``; width nesting is checked here.
        """
        a_slots = np.asarray(a_slots, dtype=np.int64).ravel()
        b_slots = np.asarray(b_slots, dtype=np.int64).ravel()
        require(a_slots.size == b_slots.size,
                "pairwise_index operands must have the same length")
        out = np.empty(a_slots.size, dtype=np.int64)
        if a_slots.size == 0:
            return out
        self._check_other(other)
        combos = np.stack([self.class_of[a_slots], other.class_of[b_slots]], axis=1)
        for ci_idx, cj_idx in np.unique(combos, axis=0).tolist():
            mask = (combos[:, 0] == ci_idx) & (combos[:, 1] == cj_idx)
            a = self._gather(a_slots[mask])
            b = other._gather(b_slots[mask])
            wide, narrow = (a, b) if a.shape[1] >= b.shape[1] else (b, a)
            width_small = narrow.shape[1]
            acc = np.zeros(int(mask.sum()), dtype=np.int64)
            narrow_w = _view_widest(narrow)
            for block in range(wide.shape[1] // width_small):
                sl = slice(block * width_small, (block + 1) * width_small)
                acc += _match_count_rows(_view_widest(wide[:, sl]), narrow_w)
            out[mask] = acc
        return out


class ReferenceIndex:
    """The per-pair reference as a tile source: one :func:`count_common` per pair.

    Answers :class:`WidthClassIndex`'s two queries from the batmaps
    themselves, with no packed buffer, so sub-word ranges and entries wider
    than a byte run through the same walk and sinks as the packed engines.
    A batmap compared with itself counts its ``stored_count``, so diagonal
    tiles need no special case; they only mirror their lower half.
    """

    def __init__(self, batmaps) -> None:
        self.batmaps = batmaps

    def cross_index(self, other: "ReferenceIndex", row_slots, col_slots) -> np.ndarray:
        """Rectangular counts: *this* source's ``row_slots`` x ``other``'s ``col_slots``."""
        symmetric = other is self and col_slots is row_slots
        out = np.empty((len(row_slots), len(col_slots)), dtype=np.int64)
        for p, a in enumerate(row_slots.tolist()):
            for q, b in enumerate(col_slots.tolist()):
                out[p, q] = (out[q, p] if symmetric and q < p
                             else count_common(self.batmaps[a], other.batmaps[b]))
        return out

    def pairwise_index(self, other: "ReferenceIndex", a_slots, b_slots) -> np.ndarray:
        """Aligned counts: *this* slot ``a_slots[k]`` vs ``other``'s ``b_slots[k]``."""
        return np.array([count_common(self.batmaps[a], other.batmaps[b])
                         for a, b in zip(a_slots.tolist(), b_slots.tolist())],
                        dtype=np.int64)


def width_slot_bounds(widths, failed_per_slot=None) -> np.ndarray:
    """Per-slot count upper bounds derived from packed row widths alone.

    A row of ``w`` words holds ``4 * w = 3r`` byte entries, and every stored
    element occupies two cuckoo copies, so at most ``2 * w`` elements are
    stored; adding the per-set failed-insertion count bounds the *repaired*
    set size as well.  Exact set sizes (when the caller knows them — the
    miner's item supports, a live collection's ``Batmap.set_size``) give a
    tighter bound; this is the fallback for mmap'd spilled shards where
    only the layout is resident.
    """
    bounds = 2 * np.asarray(widths, dtype=np.int64)
    if failed_per_slot is not None:
        bounds = bounds + np.asarray(failed_per_slot, dtype=np.int64)
    return bounds


class BatchPairCounter:
    """All-pairs / pairs-list / cross / top-k intersection counts for one collection.

    The engine validates compatibility once and answers every query as a
    stream of tiles through the one pipeline of :mod:`repro.core.pipeline`
    — no per-pair Python call.  This class runs the tiles inline (one
    worker); :class:`~repro.parallel.executor.ParallelPairCounter` is the
    same engine with a process pool behind :meth:`_run`.  Build it through
    :meth:`repro.core.collection.BatmapCollection.batch_counter`, which
    caches one instance per collection.
    """

    #: tiles run inline, sized for one worker (the pool engine overrides both)
    workers = 1
    tile_size = None

    def __init__(self, collection, *, block_words: int = DEFAULT_BLOCK_WORDS) -> None:
        self.collection = collection
        self.block_words = int(block_words)
        self.index = self._tile_source(collection)
        self._counts_sorted = None

    def _tile_source(self, collection) -> WidthClassIndex:
        """The width-class index over the collection's packed device buffer."""
        self._validate(collection)
        buffer = collection.device_buffer()
        return WidthClassIndex(buffer.words, buffer.offsets, buffer.widths,
                               block_words=self.block_words)

    def __enter__(self) -> "BatchPairCounter":
        return self

    def __exit__(self, *exc) -> None:
        pass

    # ------------------------------------------------------------------ #
    # Validation (once per engine, replacing the per-pair _check_compatible)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate(collection) -> None:
        batmaps = collection.batmaps_sorted
        require(len(batmaps) > 0, "cannot build a batch counter for an empty collection")
        family = batmaps[0].family
        for bm in batmaps[1:]:
            require_same_family(family, bm.family)
        r0 = collection.r0
        require_compression_floor(r0, family.shift)
        if r0 < 4:
            raise LayoutError(
                f"batch counting requires word-aligned ranges (r0 >= 4), got r0 = {r0}"
            )
        if collection.config.entry_storage_bits != 8:
            raise LayoutError(
                "batch counting requires one-byte entries; "
                f"payload_bits={collection.config.payload_bits} stores "
                f"{collection.config.entry_dtype} — use the per-pair reference path"
            )

    # ------------------------------------------------------------------ #
    # The pipeline hooks
    # ------------------------------------------------------------------ #
    def _run(self, tiles, sink):
        """Run tiles inline into ``sink`` and return its result."""
        return sink.result(run_tiles(tiles, sink, [self.index]))

    def _edge(self, n: int) -> int:
        return self.tile_size or auto_tile_edge(n, self.workers)

    def _triangle(self, ids, sink, bounds=None):
        """All pairs of the collection, slot ``s`` reported as ``ids[s]``."""
        tiles = triangle_tiles([ids], self._edge(ids.size),
                               None if bounds is None else [bounds])
        return self._run(tiles, sink)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def counts_sorted(self) -> np.ndarray:
        """Dense ``n x n`` count matrix in width-sorted (device) order, cached."""
        if self._counts_sorted is None:
            n = len(self.collection)
            self._counts_sorted = self._triangle(np.arange(n), DenseSink(n))
        return self._counts_sorted

    def count_all_pairs(self) -> np.ndarray:
        """Dense ``n x n`` count matrix indexed by *original* set indices."""
        order = self.collection.order
        out = np.empty_like(self.counts_sorted())
        out[np.ix_(order, order)] = self.counts_sorted()
        return out

    def count_pairs(self, pairs) -> np.ndarray:
        """Counts for an explicit list of ``(i, j)`` original-index pairs."""
        pairs = np.asarray(pairs, dtype=np.int64)
        require(pairs.ndim == 2 and pairs.shape[1] == 2,
                f"pairs must have shape (k, 2), got {pairs.shape}")
        total = pairs.shape[0]
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        rank = self.collection.rank
        tiles = aligned_tiles(rank[pairs[:, 0]], rank[pairs[:, 1]],
                              -(-total // (4 * self.workers)))
        return self._run(tiles, PairsSink(total))

    def count_pair(self, i: int, j: int) -> int:
        """Stored-copy intersection count of original sets ``i`` and ``j``."""
        return int(self.count_pairs(np.array([[i, j]], dtype=np.int64))[0])

    def count_cross(self, rows, cols) -> np.ndarray:
        """Rectangular count matrix between two lists of original indices.

        This is the boolean-matrix-product shape: entry ``(p, q)`` is the
        intersection count of original sets ``rows[p]`` and ``cols[q]``.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        rank = self.collection.rank
        tiles = rectangle_tiles(rank[rows], rank[cols],
                                self._edge(max(rows.size, cols.size)))
        return self._run(tiles, DenseSink(rows.size, cols.size, symmetric=False))

    def top_k(self, k: int) -> list:
        """The ``k`` off-diagonal pairs with the largest counts.

        Returns ``[((i, j), count), ...]`` with ``i < j`` in original indices,
        descending by count with ties broken by the index pair (the same
        ranking convention as :meth:`repro.mining.support.PairSupports.top_k`).
        """
        return self.count_result(top_k=k).ranked()

    # ------------------------------------------------------------------ #
    # CountResult-producing queries (sparse / pruned / top-k)
    # ------------------------------------------------------------------ #
    def slot_bounds(self) -> np.ndarray:
        """Per-slot count upper bounds from exact set sizes.

        ``Batmap.set_size`` counts stored *and* failed insertions, so the
        bound holds for the post-repair support too — which is what makes
        tile skipping sound for the miner's ``min_support`` filter (repair
        runs after counting and only ever adds).
        """
        return np.array([bm.set_size for bm in self.collection.batmaps_sorted],
                        dtype=np.int64)

    def count_result(
        self,
        *,
        result_format: str = "dense",
        min_support: int = 0,
        top_k: int | None = None,
        bounds=None,
    ):
        """All-pairs counts as a :class:`~repro.core.results.CountResult`.

        ``result_format="dense"`` wraps the cached dense matrix (the oracle
        path, unchanged).  ``"sparse"`` streams the tiles into a
        :class:`~repro.core.pipeline.SparseSink`: tiles whose count upper
        bound (from ``bounds``, default :meth:`slot_bounds`) falls below
        ``min_support`` are skipped before any SWAR work, and surviving
        nonzeros accumulate as COO triplets in original index order.
        ``top_k=k`` instead feeds a :class:`~repro.core.pipeline.TopKSink`
        whose running heap floor tightens the pruning threshold as it
        fills, returning a :class:`~repro.core.results.TopKCountResult`.
        """
        require(result_format in ("dense", "sparse"),
                f"result_format must be 'dense' or 'sparse', got {result_format!r}")
        require(min_support >= 0, f"min_support must be >= 0, got {min_support}")
        if top_k is None and result_format == "dense":
            # the dense path computes every count — nothing is pruned, so
            # the result carries no filtering floor
            return DenseCountResult(self.count_all_pairs())
        n = len(self.collection)
        sink = (TopKSink(top_k, n, min_support=min_support) if top_k is not None
                else SparseSink(n, min_support=min_support))
        bounds = (self.slot_bounds() if bounds is None
                  else np.asarray(bounds, dtype=np.int64))
        return self._triangle(self.collection.order, sink, bounds)

    def count_cross_result(self, rows, cols, *, min_support: int = 0, bounds=None):
        """Rectangular counts (:meth:`count_cross` shape) as a sparse result.

        ``rows`` / ``cols`` are *original* set indices (each side free of
        duplicates); the returned non-symmetric
        :class:`~repro.core.results.SparseCountResult` is indexed by
        position within those lists — entry ``(p, q)`` is the count of
        ``rows[p]`` x ``cols[q]``.  With ``min_support > 0``, tiles whose
        set-size bound cannot reach the threshold are skipped before any
        SWAR work (sound for the matrix product: repair only adds).
        """
        require(min_support >= 0, f"min_support must be >= 0, got {min_support}")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        require(np.unique(rows).size == rows.size
                and np.unique(cols).size == cols.size,
                "count_cross_result requires duplicate-free index lists")
        rank = self.collection.rank
        bounds = (self.slot_bounds() if bounds is None
                  else np.asarray(bounds, dtype=np.int64))
        tiles = rectangle_tiles(rank[rows], rank[cols],
                                self._edge(max(rows.size, cols.size)), [bounds])
        return self._run(tiles, SparseSink(rows.size, cols.size, symmetric=False,
                                           min_support=min_support))


class ReferencePairCounter(BatchPairCounter):
    """The batch engine's queries over :class:`ReferenceIndex` (the ``host`` plan).

    Only the tile source differs: every count is one
    :func:`~repro.core.intersection.count_common` call, exact for every
    payload width and range, and no packed buffer is built.
    """

    def _tile_source(self, collection) -> ReferenceIndex:
        return ReferenceIndex(collection.batmaps_sorted)
