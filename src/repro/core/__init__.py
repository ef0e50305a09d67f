"""The BATMAP core: data layout, construction and intersection counting.

Public entry points:

* :class:`~repro.core.config.BatmapConfig` — layout / construction knobs.
* :func:`~repro.core.batmap.build_batmap` — build one batmap.
* :class:`~repro.core.collection.BatmapCollection` — build and compare many
  sets sharing one hash family (the normal way to use the library).
* :func:`~repro.core.intersection.count_common` — intersection size of two
  batmaps.
* :class:`~repro.core.batch.BatchPairCounter` — vectorised all-pairs /
  pairs-list / top-k counting over a whole collection (the host hot path).
* :func:`~repro.core.plan.plan_counts` — the workload planner that picks a
  counting backend (host / batch / parallel / kernel / sharded) per request.
* :class:`~repro.core.sharded.ShardedCollection` — out-of-core collections:
  build shard by shard, spill packed buffers to disk, re-attach memory-mapped.
"""

from repro.core.batch import BatchPairCounter, WidthClassIndex
from repro.core.batmap import Batmap, build_batmap
from repro.core.builder import EMPTY, Placement, PlacementStats, place_set
from repro.core.collection import BatmapCollection, DeviceBuffer
from repro.core.config import DEFAULT_CONFIG, BatmapConfig
from repro.core.errors import (
    BatmapError,
    CapacityError,
    DataFormatError,
    DatasetError,
    DeviceError,
    InsertionFailure,
    KernelLaunchError,
    LayoutError,
    ReproError,
    SharedMemoryError,
    SpillFormatError,
)
from repro.core.sharded import ShardedCollection, ShardedCollectionBuilder
from repro.core.hashing import (
    ArrayPermutation,
    FeistelPermutation,
    HashFamily,
    make_permutations,
)
from repro.core.intersection import (
    count_common,
    count_common_bytes,
    count_common_packed,
    exact_intersection_size,
)
from repro.core.plan import (
    CountPlan,
    PlanFeatures,
    plan_counts,
    plan_levelwise,
)
from repro.core.swar import (
    count_matches,
    count_matches_folded,
    count_matches_per_word,
    match_bits,
)

__all__ = [
    "Batmap",
    "BatchPairCounter",
    "WidthClassIndex",
    "build_batmap",
    "EMPTY",
    "Placement",
    "PlacementStats",
    "place_set",
    "BatmapCollection",
    "DeviceBuffer",
    "BatmapConfig",
    "DEFAULT_CONFIG",
    "HashFamily",
    "ArrayPermutation",
    "FeistelPermutation",
    "make_permutations",
    "count_common",
    "count_common_bytes",
    "count_common_packed",
    "exact_intersection_size",
    "CountPlan",
    "PlanFeatures",
    "plan_counts",
    "plan_levelwise",
    "count_matches",
    "count_matches_folded",
    "count_matches_per_word",
    "match_bits",
    "ReproError",
    "BatmapError",
    "InsertionFailure",
    "CapacityError",
    "LayoutError",
    "DeviceError",
    "KernelLaunchError",
    "SharedMemoryError",
    "DatasetError",
    "DataFormatError",
    "SpillFormatError",
    "ShardedCollection",
    "ShardedCollectionBuilder",
]
