"""The batmap pair-count kernel (Section III-B of the paper).

Work decomposition, exactly as the paper describes it:

* the global size is ``n x n`` (or one ``k x k`` tile of it), the work-group
  size is 16 x 16;
* the work item with local index ``(li, lj)`` in the group with global offset
  ``(gi, gj)`` is responsible for the pair of batmaps ``(gi + li, gj + lj)``;
* the group repeatedly copies one 16-integer-wide slice of each of its 16 row
  batmaps and 16 column batmaps from global memory into two 16 x 16 shared
  arrays (these loads are coalesced: 16 consecutive 32-bit words per half
  warp), synchronises, and lets every work item compare its pair's slices
  with the branch-free SWAR word comparison;
* batmaps of different widths are folded onto each other by indexing words
  modulo the batmap's width, and word positions beyond the pair's larger
  width are masked out of the count (predication, not branching).

The simulator executes a launch at once (:mod:`repro.kernels.sliced`): the
counts of the tile come from the host tile pipeline
(:func:`repro.core.pipeline.count_block` over a
:class:`~repro.core.batch.WidthClassIndex` of the device buffer), which
folds wide batmaps onto narrow ones exactly as the kernel's modulo
indexing does, and the global/shared traffic and operation counts are
accounted per row and column block rather than replayed group by group.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import WidthClassIndex
from repro.core.pipeline import Tile, count_block
from repro.kernels.sliced import SlicedPairKernel

__all__ = ["PairCountKernel"]

#: scalar operations per 32-bit word comparison: xor, or, sub, xor, and, and,
#: four shifts, three adds, one mask — the instruction sequence of Section III-A.
OPS_PER_WORD_COMPARISON = 14


class PairCountKernel(SlicedPairKernel):
    """Count |S_a ∩ S_b| for every batmap pair (a, b) inside one tile.

    Parameters
    ----------
    offsets, widths:
        Word offset and word width of every batmap inside the packed device
        buffer (sorted order), as produced by
        :meth:`repro.core.collection.BatmapCollection.device_buffer`.  Widths
        must nest (each divides every larger one), as the power-of-two hash
        ranges of one collection do.
    n_batmaps:
        Total number of batmaps (pairs outside this range are ignored).
    row_base, col_base:
        Sorted-index origin of the tile being processed.
    result_buffer / batmap_buffer:
        Names of the device buffers holding the output tile (int64, flattened
        ``tile_shape``) and the packed batmap words.
    tile_shape:
        Shape of the output tile (rows, cols); the launch's global size must
        equal this shape padded up to a multiple of the work-group size.
    """

    name = "batmap_pair_count"
    ops_per_word = OPS_PER_WORD_COMPARISON

    def __init__(
        self,
        offsets: np.ndarray,
        widths: np.ndarray,
        n_batmaps: int,
        *,
        row_base: int = 0,
        col_base: int = 0,
        tile_shape: tuple[int, int] | None = None,
        batmap_buffer: str = "batmaps",
        result_buffer: str = "results",
        local_size: tuple[int, int] = (16, 16),
    ) -> None:
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.widths = np.asarray(widths, dtype=np.int64)
        if self.offsets.shape != self.widths.shape:
            raise ValueError("offsets and widths must have the same length")
        if np.any(self.widths <= 0):
            raise ValueError("every batmap must have a positive word width")
        super().__init__(n_batmaps, row_base=row_base, col_base=col_base,
                         tile_shape=tile_shape, words_buffer=batmap_buffer,
                         result_buffer=result_buffer, local_size=local_size)

    def _lane_widths(self, ids: np.ndarray) -> np.ndarray:
        return self.widths[ids]

    def _read_indices(self, ids, valid, word_pos):
        # inactive lanes read word 0 (width 1, offset 0), as the kernel does
        offsets = np.where(valid, self.offsets[ids], 0)[:, None, :, None]
        widths = np.where(valid, self.widths[ids], 1)[:, None, :, None]
        return offsets + word_pos[None, :, None, :] % widths

    def _count(self, memory, rows, cols):
        index = WidthClassIndex(memory.buffer(self.words_buffer), self.offsets,
                                self.widths)
        return count_block([index], Tile(0, 0, rows, cols, rows, cols,
                                         diagonal=cols is rows))
