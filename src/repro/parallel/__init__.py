"""CPU parallelism: throughput / scaling models and the real multiprocess executor.

Two simulated models reproduce the paper's figures — multi-core SWAR
throughput (Fig. 11) and split scaling (Fig. 9) — while
:mod:`repro.parallel.executor` runs tiled pair counting for real across a
process pool over one shared-memory device buffer.
"""

from repro.parallel.cpu import (
    CpuThroughputPoint,
    cpu_throughput_series,
    measure_single_core_throughput,
    model_multicore_throughput,
)
from repro.parallel.executor import (
    ParallelPairCounter,
    SharedDeviceBuffer,
    auto_tile_edge,
    measure_executor_scaling,
    resolve_worker_count,
)
from repro.parallel.sharded import ShardedPairCounter
from repro.parallel.scaling import (
    ScalingPoint,
    measure_split_scaling,
    merge_part_counts,
    relative_speedups,
)

__all__ = [
    "CpuThroughputPoint",
    "measure_single_core_throughput",
    "model_multicore_throughput",
    "cpu_throughput_series",
    "ScalingPoint",
    "measure_split_scaling",
    "merge_part_counts",
    "relative_speedups",
    "ParallelPairCounter",
    "ShardedPairCounter",
    "SharedDeviceBuffer",
    "auto_tile_edge",
    "measure_executor_scaling",
    "resolve_worker_count",
]
