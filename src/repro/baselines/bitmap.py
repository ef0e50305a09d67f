"""Uncompressed vertical bitmaps — the layout of the PBI-GPU baseline.

Fang et al. [11] store, for each item, a bitmap with one bit per transaction;
the support of an item pair is the popcount of the bitwise AND of the two
bitmaps.  This layout is perfectly regular (great for GPUs) but needs
``m`` bits per item regardless of how sparse the item is — the space blow-up
the paper's BATMAP avoids.  We implement it both as a baseline intersection
algorithm and as the memory model behind experiment E9.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bits import popcount_array
from repro.utils.validation import require_positive

__all__ = ["BitmapIndex", "bitmap_intersection_size"]


class BitmapIndex:
    """Vertical bitmap representation of a family of sets over ``{0..m-1}``.

    ``words[i]`` holds the 32-bit packed bitmap of set ``i``; all bitmaps
    have identical width ``ceil(m / 32)`` words.
    """

    WORD_BITS = 32

    def __init__(self, universe_size: int, n_sets: int) -> None:
        require_positive(universe_size, "universe_size")
        require_positive(n_sets, "n_sets")
        self.universe_size = universe_size
        self.n_sets = n_sets
        self.words_per_set = (universe_size + self.WORD_BITS - 1) // self.WORD_BITS
        self.words = np.zeros((n_sets, self.words_per_set), dtype=np.uint32)

    @classmethod
    def from_words(cls, words: np.ndarray) -> "BitmapIndex":
        """View packed ``(n_sets, words_per_set)`` ``uint32`` bitmaps (no copy).

        The universe is taken as every bit of a row; used to count over a
        buffer that already holds the layout, such as a simulated device's.
        """
        index = cls.__new__(cls)
        index.n_sets, index.words_per_set = words.shape
        index.universe_size = index.words_per_set * cls.WORD_BITS
        index.words = words
        return index

    @classmethod
    def from_sets(cls, sets, universe_size: int) -> "BitmapIndex":
        index = cls(universe_size, len(sets))
        for i, s in enumerate(sets):
            index.set_elements(i, s)
        return index

    def set_elements(self, set_index: int, elements) -> None:
        """Populate the bitmap of one set (replaces any previous contents)."""
        elements = np.unique(np.asarray(list(elements), dtype=np.int64))
        if elements.size and (elements.min() < 0 or elements.max() >= self.universe_size):
            raise ValueError("element out of range for the bitmap universe")
        row = np.zeros(self.words_per_set, dtype=np.uint32)
        if elements.size:
            word_idx = elements // self.WORD_BITS
            bit_idx = elements % self.WORD_BITS
            np.bitwise_or.at(row, word_idx, np.uint32(1) << bit_idx.astype(np.uint32))
        self.words[set_index] = row

    def contains(self, set_index: int, element: int) -> bool:
        if element < 0 or element >= self.universe_size:
            return False
        word = int(self.words[set_index, element // self.WORD_BITS])
        return bool((word >> (element % self.WORD_BITS)) & 1)

    def set_size(self, set_index: int) -> int:
        return int(popcount_array(self.words[set_index]).sum())

    def intersection_size(self, i: int, j: int) -> int:
        """Support of the pair ``{i, j}``: popcount of the bitwise AND."""
        return int(popcount_array(self.words[i] & self.words[j]).sum())

    def pairwise_counts(self, rows=None, cols=None) -> np.ndarray:
        """Matrix of pairwise intersection sizes (AND + popcount).

        ``rows`` / ``cols`` select a rectangle of the full matrix (default:
        every set on both axes), e.g. one tile of a tiled schedule.  The
        same index array on both axes computes each unordered pair once.
        """
        rows = np.arange(self.n_sets) if rows is None else np.asarray(rows)
        symmetric = cols is None or cols is rows
        cols = rows if symmetric else np.asarray(cols)
        a, b = self.words[rows], self.words[cols]
        out = np.zeros((rows.size, cols.size), dtype=np.int64)
        for i in range(rows.size):
            start = i if symmetric else 0
            counts = popcount_array(a[i][None, :] & b[start:]).sum(axis=1)
            out[i, start:] = counts
            if symmetric:
                out[start:, i] = counts
        return out

    @property
    def memory_bytes(self) -> int:
        """Total space: ``n * m`` bits, the quantity the paper contrasts with
        the information-theoretic ``~ mb log(n/b)`` bits of sparse data."""
        return int(self.words.nbytes)


def bitmap_intersection_size(a, b, universe_size: int) -> int:
    """One-off pair intersection through the bitmap layout."""
    index = BitmapIndex(universe_size, 2)
    index.set_elements(0, a)
    index.set_elements(1, b)
    return index.intersection_size(0, 1)
