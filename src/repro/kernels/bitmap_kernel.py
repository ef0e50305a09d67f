"""Bitmap AND + popcount kernel — the PBI-GPU baseline on the same simulator.

Fang et al. [11] represent every item's tidlist as an uncompressed bitmap of
``m`` bits and compute pair supports as ``popcount(bitmap_i AND bitmap_j)``.
Running that layout through the same simulator as the batmap kernel isolates
the effect of the *data layout* (dense bitmaps vs batmaps) from everything
else: same device model, same tiling, same coalescing rules.  This drives
experiment E9 (dense vs sparse comparison of Section I-B2a).

A launch runs at once, like the batmap kernel's
(:mod:`repro.kernels.sliced`): the tile's counts come from
:meth:`~repro.baselines.bitmap.BitmapIndex.pairwise_counts` over the device
buffer, and the per-slice reads — every lane reads word
``min(position, words_per_set - 1)`` of its bitmap, masked past the end — are
accounted per row and column block.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.bitmap import BitmapIndex
from repro.kernels.sliced import SlicedPairKernel

__all__ = ["BitmapAndPopcountKernel"]

#: and + popcount (modelled as 4 ops with a lookup) + accumulate per word pair
OPS_PER_WORD = 6


class BitmapAndPopcountKernel(SlicedPairKernel):
    """Count ``popcount(row_i AND row_j)`` for all pairs in a tile of bitmaps.

    The bitmaps all have the same width ``words_per_set`` (that is the point
    of the layout — and its space problem), so there is no folding and no
    per-pair masking.
    """

    name = "bitmap_and_popcount"
    ops_per_word = OPS_PER_WORD

    def __init__(
        self,
        words_per_set: int,
        n_sets: int,
        *,
        row_base: int = 0,
        col_base: int = 0,
        tile_shape: tuple[int, int] | None = None,
        bitmap_buffer: str = "bitmaps",
        result_buffer: str = "results",
        local_size: tuple[int, int] = (16, 16),
    ) -> None:
        if words_per_set <= 0:
            raise ValueError("words_per_set must be positive")
        self.words_per_set = int(words_per_set)
        super().__init__(n_sets, row_base=row_base, col_base=col_base,
                         tile_shape=tile_shape, words_buffer=bitmap_buffer,
                         result_buffer=result_buffer, local_size=local_size)

    def _lane_widths(self, ids: np.ndarray) -> np.ndarray:
        return np.full(ids.shape, self.words_per_set)

    def _read_indices(self, ids, valid, word_pos):
        # inactive lanes hold id 0 and re-read bitmap 0, as the kernel does
        clamped = np.minimum(word_pos, self.words_per_set - 1)
        return ids[:, None, :, None] * self.words_per_set + clamped[None, :, None, :]

    def _count(self, memory, rows, cols):
        words = memory.buffer(self.words_buffer)
        index = BitmapIndex.from_words(words.reshape(-1, self.words_per_set))
        return index.pairwise_counts(rows, cols)
