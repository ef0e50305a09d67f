"""Launch-level execution shared by the two tiled pair kernels.

Both device kernels — the batmap comparison of Section III-B
(:mod:`repro.kernels.pair_count`) and the PBI bitmap baseline — give work
item ``(li, lj)`` of a square group the pair ``(row_base + gi + li,
col_base + gj + lj)``; the group walks the pair's word positions in slices
of ``ly`` words, each slice staging one word per lane of its row and column
sets in two ``lx x ly`` shared arrays between two barriers; in-tile work
items finally write their counts.  A group with no valid row or column
returns at once.

The simulator does not replay that loop; a launch is accounted in a few
vectorised passes that equal, field by field, what the loop records:

* **counts** for exactly the tile's rows x cols come from the host engines
  (:meth:`SlicedPairKernel._count`);
* **reads** — a row block's words at slice ``s`` do not depend on the
  column block it meets (and vice versa), so each block's per-slice
  transactions are computed once, :func:`~repro.gpu.coalescing.analyze_access`
  over a 2-D ``(block x slice, lanes)`` stream in bounded chunks, and each
  group adds its two blocks' prefix totals up to its slice count
  ``ceil(max(row width, column width) / ly)``;
* **writes** — each group writes the prefix rectangle of its lanes inside
  the tile; the few rectangle shapes are analysed as 2-D streams;
* **shared bytes, barriers and operations** are closed-form in the slice
  counts.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import KernelLaunchError
from repro.gpu.coalescing import CoalescingReport, analyze_access
from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import Kernel
from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.gpu.timing import KernelStats

__all__ = ["SlicedPairKernel"]

#: Addresses analysed per coalescing chunk: bounds the temporaries to about
#: a megabyte whatever the tile and width, below the counting's own.
_CHUNK_ADDRESSES = 1 << 14

#: shared arrays are staged as 32-bit words
_SHARED_WORD_BYTES = np.dtype(np.uint32).itemsize


class SlicedPairKernel(Kernel):
    """Base of the tiled all-pairs kernels: square groups, ``ly``-word slices."""

    #: scalar operations per compared word, per work item
    ops_per_word: int = 0

    def __init__(self, n_sets: int, *, row_base: int, col_base: int,
                 tile_shape: tuple[int, int] | None, words_buffer: str,
                 result_buffer: str, local_size: tuple[int, int]) -> None:
        self.n_sets = int(n_sets)
        self.row_base = int(row_base)
        self.col_base = int(col_base)
        self.tile_shape = tile_shape
        self.words_buffer = words_buffer
        self.result_buffer = result_buffer
        self.local_size = tuple(local_size)

    # ------------------------------------------------------------------ #
    # What a subclass defines
    # ------------------------------------------------------------------ #
    def _lane_widths(self, ids: np.ndarray) -> np.ndarray:
        """Words each set is compared over (its pairs use the larger of two)."""
        raise NotImplementedError

    def _read_indices(self, ids: np.ndarray, valid: np.ndarray,
                      word_pos: np.ndarray) -> np.ndarray:
        """Word index each lane reads: ``(blocks, slices, lanes, ly)``.

        ``ids`` / ``valid`` are ``(blocks, lanes)`` (inactive lanes hold id 0)
        and ``word_pos`` is ``(slices, ly)``.
        """
        raise NotImplementedError

    def _count(self, memory: GlobalMemory, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
        """Counts of ``rows x cols``; ``cols is rows`` on a diagonal tile."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # The launch
    # ------------------------------------------------------------------ #
    def validate_launch(self, global_size: tuple[int, int], device: DeviceSpec) -> None:
        super().validate_launch(global_size, device)
        lx, ly = self.local_size
        if lx != ly:
            raise KernelLaunchError(
                f"{self.name} stages lx x ly word slices and needs a square work "
                f"group, got {self.local_size!r}"
            )

    def run_launch(self, device: DeviceSpec, memory: GlobalMemory,
                   global_size: tuple[int, int]) -> KernelStats:
        lx, ly = self.local_size
        row_ids = self.row_base + np.arange(global_size[0]).reshape(-1, lx)
        col_ids = self.col_base + np.arange(global_size[1]).reshape(-1, ly)
        row_valid = row_ids < self.n_sets
        col_valid = col_ids < self.n_sets
        active = row_valid.any(axis=1)[:, None] & col_valid.any(axis=1)[None, :]
        if not active.any():
            return KernelStats()
        shared = SharedMemory(device)          # capacity check, as every group does
        shared.alloc("slice_a", (lx, ly), np.uint32)
        shared.alloc("slice_b", (lx, ly), np.uint32)
        if self.tile_shape is None:
            raise ValueError("tile_shape must be set before launching the kernel")
        row_ids = np.where(row_valid, row_ids, 0)
        col_ids = np.where(col_valid, col_ids, 0)

        # every pair of a group is compared over the group's widest set
        row_width = np.where(row_valid, self._lane_widths(row_ids), 0).max(axis=1)
        col_width = np.where(col_valid, self._lane_widths(col_ids), 0).max(axis=1)
        n_slices = -(-np.maximum(row_width[:, None], col_width[None, :]) // ly)
        n_slices[~active] = 0
        slices = int(n_slices.sum())

        # reads: per-block prefix totals, summed at each group's slice count
        item = memory.buffer(self.words_buffer).dtype.itemsize
        row_prefix, ideal = self._prefix_transactions(
            row_ids, row_valid, n_slices.max(axis=1), item, device.half_warp)
        col_prefix, _ = self._prefix_transactions(
            col_ids, col_valid, n_slices.max(axis=0), item, device.half_warp)
        transactions = (np.take_along_axis(row_prefix, n_slices, axis=1).sum()
                        + np.take_along_axis(col_prefix, n_slices.T, axis=1).sum())
        calls = 2 * slices
        memory.traffic.record("read", CoalescingReport(
            transactions=int(transactions),
            ideal_transactions=calls * ideal,
            bytes_requested=calls * lx * ly * item,
            half_warps=calls * -(-(lx * ly) // device.half_warp),
        ))

        self._write_counts(memory, global_size, device.half_warp)
        return KernelStats(scalar_ops=slices * lx * ly * ly * self.ops_per_word,
                           barriers=2 * slices,
                           shared_bytes=slices * 2 * lx * ly * _SHARED_WORD_BYTES)

    def _prefix_transactions(self, ids, valid, needed, item: int, half_warp: int):
        """``prefix[b, s]``: read transactions of block ``b``'s first ``s`` slices.

        Each block is analysed up to the most slices any of its groups runs
        (``needed``); returns the prefix table and the ideal transactions of
        one read.
        """
        ly = self.local_size[1]
        blocks, lanes = ids.shape
        most = int(needed.max())
        prefix = np.zeros((blocks, most + 1), dtype=np.int64)
        ideal = 0
        step = max(1, _CHUNK_ADDRESSES // (most * lanes * ly))
        for start in range(0, blocks, step):
            chunk = slice(start, start + step)
            count = int(needed[chunk].max())
            if count == 0:
                continue
            word_pos = np.arange(count * ly).reshape(count, ly)
            indices = self._read_indices(ids[chunk], valid[chunk], word_pos)
            report = analyze_access(indices.reshape(-1, lanes * ly) * item, item,
                                    half_warp=half_warp)
            per_slice = report.call_transactions.reshape(-1, count)
            prefix[chunk, 1:count + 1] = np.cumsum(per_slice, axis=1)
            ideal = report.ideal_transactions // per_slice.size
        return prefix, ideal

    def _write_counts(self, memory: GlobalMemory, global_size, half_warp: int) -> None:
        """Count the tile and write it, one write per group, in lane order.

        Each group writes the prefix rectangle of its lanes that lies inside
        the tile and the set range; groups sharing a rectangle shape are
        analysed as one 2-D stream.
        """
        lx, ly = self.local_size
        tile_rows, tile_cols = self.tile_shape
        n_rows = max(0, min(tile_rows, self.n_sets - self.row_base, global_size[0]))
        n_cols = max(0, min(tile_cols, self.n_sets - self.col_base, global_size[1]))
        if n_rows == 0 or n_cols == 0:
            return
        rows = self.row_base + np.arange(n_rows)
        diagonal = self.row_base == self.col_base and n_rows == n_cols
        cols = rows if diagonal else self.col_base + np.arange(n_cols)
        counts = self._count(memory, rows, cols)
        out = memory.buffer(self.result_buffer)
        out.reshape(tile_rows, tile_cols)[:n_rows, :n_cols] = counts
        item = out.dtype.itemsize
        group_rows = np.minimum(n_rows - lx * np.arange(-(-n_rows // lx)), lx)
        group_cols = np.minimum(n_cols - ly * np.arange(-(-n_cols // ly)), ly)
        for height in np.unique(group_rows).tolist():
            gx = np.flatnonzero(group_rows == height)
            for width in np.unique(group_cols).tolist():
                gy = np.flatnonzero(group_cols == width)
                base = (gx[:, None] * lx * tile_cols + gy[None, :] * ly).ravel()
                lane = (np.arange(height)[:, None] * tile_cols + np.arange(width)).ravel()
                step = max(1, _CHUNK_ADDRESSES // lane.size)
                for start in range(0, base.size, step):
                    calls = base[start:start + step, None] + lane[None, :]
                    memory.traffic.record("write", analyze_access(
                        calls * item, item, half_warp=half_warp))
