"""Device kernels for the GPU simulator.

* :class:`~repro.kernels.pair_count.PairCountKernel` — the paper's batmap
  comparison kernel (16x16 work groups, shared-memory staging, SWAR counting).
* :class:`~repro.kernels.bitmap_kernel.BitmapAndPopcountKernel` — the
  uncompressed-bitmap baseline (PBI layout) on the same execution model.
* :class:`~repro.kernels.sliced.SlicedPairKernel` — the launch-level
  execution both share: counts for exactly the launched tile, traffic
  accounted per row and column block.
* :class:`~repro.kernels.tiling.TileScheduler` — k x k tiling with
  upper-triangle symmetry pruning.
* :mod:`~repro.kernels.driver` — host-side drivers assembling full pair-count
  matrices from tiled launches.
"""

from repro.kernels.bitmap_kernel import BitmapAndPopcountKernel
from repro.kernels.driver import DeviceRunResult, run_batmap_pair_counts, run_bitmap_pair_counts
from repro.kernels.pair_count import PairCountKernel
from repro.kernels.tiling import Tile, TileScheduler, pad_to_multiple

__all__ = [
    "PairCountKernel",
    "BitmapAndPopcountKernel",
    "Tile",
    "TileScheduler",
    "pad_to_multiple",
    "DeviceRunResult",
    "run_batmap_pair_counts",
    "run_bitmap_pair_counts",
]
