"""Golden modelled-device numbers of the simulated kernels.

The simulator's job is to reproduce the paper's modelled device behaviour —
bytes, transactions, coalescing, shared-memory staging, barriers, scalar
operations and the resulting device seconds — for the pair-count kernel of
Section III-B and the PBI bitmap baseline.  Every figure and ablation
benchmark reads these numbers, so any change to how the simulator computes
them must leave them exactly equal.  The values below were recorded with the
per-work-group reference execution of both kernels; each case also checks
the counts against a per-pair oracle.

Cases cover the shapes the benchmarks use and the edges of the traffic
model: uniform widths (the ``mine-device`` shape), mixed widths down to one
word (half warps wrap several times inside one slice), ragged tiles,
multi-tile launches at 8x8 and 16x16 work groups, sparse runs with
``min_support`` tile pruning, an unsorted collection, and the bitmap kernel.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.baselines.bitmap import BitmapIndex
from repro.core.collection import BatmapCollection
from repro.core.swar import count_matches_per_word
from repro.gpu.device import GTX_285
from repro.gpu.executor import GpuSimulator
from repro.gpu.timing import KernelStats
from repro.kernels.driver import run_batmap_pair_counts, run_bitmap_pair_counts
from repro.kernels.pair_count import PairCountKernel
from repro.kernels.tiling import pad_to_multiple


def _summary(sim: GpuSimulator, tiles: int, tiles_skipped: int = 0) -> dict:
    stats = sim.combined_stats()
    out = {f.name: getattr(stats, f.name) for f in fields(KernelStats)}
    out.update(
        device_seconds=sim.totals.device_seconds,
        transfer_seconds=sim.totals.transfer_seconds,
        host_to_device_bytes=sim.totals.host_to_device_bytes,
        device_to_host_bytes=sim.totals.device_to_host_bytes,
        launches=sim.totals.launches,
        tiles=tiles,
        tiles_skipped=tiles_skipped,
    )
    return out


def _collection(seed: int, sizes, universe: int, *, sort_by_size: bool = True):
    rng = np.random.default_rng(seed)
    sets = [np.sort(rng.choice(universe, size=int(s), replace=False)) for s in sizes]
    return BatmapCollection.build(sets, universe, rng=seed, sort_by_size=sort_by_size)


def _mixed_sizes(seed: int, n: int, high: int) -> np.ndarray:
    return np.random.default_rng(seed + 1000).integers(0, high, size=n)


def _batmap_case(coll, **kwargs):
    run = run_batmap_pair_counts(coll, **kwargs)
    oracle = coll._count_all_pairs_loop()
    if run.counts is not None:
        remapped = np.zeros_like(run.counts)
        remapped[np.ix_(coll.order, coll.order)] = run.counts
        assert np.array_equal(remapped, oracle)
    else:
        result = run.result
        assert np.array_equal(result.values, oracle[result.rows, result.cols])
        iu, ju = np.triu_indices(len(coll))
        frequent = oracle[iu, ju] >= kwargs.get("min_support", 0)
        kept = set(zip(result.rows.tolist(), result.cols.tolist()))
        assert set(zip(iu[frequent].tolist(), ju[frequent].tolist())) <= kept
    return _summary(run.simulator, run.tiles, run.tiles_skipped)


def case_uniform():
    coll = _collection(1, [60] * 48, 3000)
    assert np.unique(coll.device_buffer().widths).size == 1
    return _batmap_case(coll, tile_size=2048)


def case_mixed():
    coll = _collection(2, _mixed_sizes(2, 37, 700), 2000)
    return _batmap_case(coll, tile_size=2048)


def case_ragged():
    coll = _collection(3, _mixed_sizes(3, 70, 400), 1500)
    return _batmap_case(coll, tile_size=37)


def case_multi_tile_8x8():
    coll = _collection(4, _mixed_sizes(4, 200, 300), 1200)
    return _batmap_case(coll, tile_size=96, work_group=(8, 8))


def case_multi_tile_16x16():
    coll = _collection(4, _mixed_sizes(4, 200, 300), 1200)
    return _batmap_case(coll, tile_size=96, work_group=(16, 16))


def case_sparse_pruned():
    coll = _collection(5, _mixed_sizes(5, 120, 250), 1000)
    return _batmap_case(coll, tile_size=32, result_format="sparse", min_support=100)


def case_unsorted():
    coll = _collection(6, _mixed_sizes(6, 150, 300), 1200, sort_by_size=False)
    return _batmap_case(coll, tile_size=96)


def case_hand_built_widths():
    """A direct launch over a hand-packed buffer: widths 1..48, unaligned offsets.

    Narrow rows make every 16-lane slice wrap around a row several times,
    and offsets off the 16-word grid make half warps straddle segments.
    """
    rng = np.random.default_rng(7)
    n = 45
    widths = rng.choice([1, 3, 6, 12, 24, 48], size=n)
    gaps = rng.integers(0, 5, size=n)
    offsets = np.concatenate([[0], np.cumsum(widths + gaps)[:-1]]) + 3
    words = rng.integers(0, 2**32, size=int(offsets[-1] + widths[-1]) + 8,
                         dtype=np.uint64).astype(np.uint32)
    sim = GpuSimulator(GTX_285)
    sim.upload("batmaps", words)
    tile_rows, tile_cols, row_base, col_base = 30, 44, 2, 5
    kernel = PairCountKernel(offsets, widths, n, row_base=row_base,
                             col_base=col_base, tile_shape=(tile_rows, tile_cols))
    sim.allocate("results", (tile_rows * tile_cols,), np.int64)
    sim.launch(kernel, (pad_to_multiple(tile_rows, 16), pad_to_multiple(tile_cols, 16)))
    z = sim.download("results").reshape(tile_rows, tile_cols)
    for i in range(tile_rows):
        a = row_base + i
        for j in range(tile_cols):
            b = col_base + j
            if a >= n or b >= n:
                assert z[i, j] == 0
                continue
            pos = np.arange(max(widths[a], widths[b]))
            wa = words[offsets[a] + pos % widths[a]]
            wb = words[offsets[b] + pos % widths[b]]
            assert z[i, j] == int(count_matches_per_word(wa, wb).sum())
    return _summary(sim, tiles=1)


def _bitmap_case(work_group):
    rng = np.random.default_rng(8)
    m = 1250                          # 40 words per set: 3 slices, the last partial
    sets = [np.sort(rng.choice(m, size=int(s), replace=False))
            for s in rng.integers(0, 400, size=53)]
    index = BitmapIndex.from_sets(sets, m)
    run = run_bitmap_pair_counts(index, tile_size=37, work_group=work_group)
    for i in range(index.n_sets):
        for j in range(index.n_sets):
            assert run.counts[i, j] == index.intersection_size(i, j)
    return _summary(run.simulator, run.tiles)


def case_bitmap_16x16():
    return _bitmap_case((16, 16))


def case_bitmap_8x8():
    return _bitmap_case((8, 8))


CASES = {name[len("case_"):]: fn for name, fn in globals().items()
         if name.startswith("case_")}

GOLDEN: dict[str, dict] = {
    'bitmap_16x16': {
        'work_groups': 13, 'work_items': 3328, 'global_bytes_read': 79872,
        'global_bytes_written': 17736, 'global_read_transactions': 1664,
        'global_write_transactions': 241, 'ideal_read_transactions': 1248,
        'ideal_write_transactions': 139, 'shared_bytes': 79872, 'scalar_ops': 958464,
        'barriers': 78, 'device_seconds': 3.270569105691057e-05,
        'transfer_seconds': 5.2432e-06, 'host_to_device_bytes': 8480,
        'device_to_host_bytes': 17736, 'launches': 3, 'tiles': 3, 'tiles_skipped': 0,
    },
    'bitmap_8x8': {
        'work_groups': 39, 'work_items': 2496, 'global_bytes_read': 99840,
        'global_bytes_written': 17736, 'global_read_transactions': 3120,
        'global_write_transactions': 368, 'ideal_read_transactions': 1560,
        'ideal_write_transactions': 144, 'shared_bytes': 99840, 'scalar_ops': 599040,
        'barriers': 390, 'device_seconds': 3.169105691056911e-05,
        'transfer_seconds': 5.2432e-06, 'host_to_device_bytes': 8480,
        'device_to_host_bytes': 17736, 'launches': 3, 'tiles': 3, 'tiles_skipped': 0,
    },
    'hand_built_widths': {
        'work_groups': 6, 'work_items': 1536, 'global_bytes_read': 36864,
        'global_bytes_written': 9600, 'global_read_transactions': 827,
        'global_write_transactions': 142, 'ideal_read_transactions': 576,
        'ideal_write_transactions': 75, 'shared_bytes': 36864, 'scalar_ops': 1032192,
        'barriers': 36, 'device_seconds': 1.2913821138211383e-05,
        'transfer_seconds': 2.8736e-06, 'host_to_device_bytes': 3808,
        'device_to_host_bytes': 10560, 'launches': 1, 'tiles': 1, 'tiles_skipped': 0,
    },
    'mixed': {
        'work_groups': 9, 'work_items': 2304, 'global_bytes_read': 1671168,
        'global_bytes_written': 10952, 'global_read_transactions': 26112,
        'global_write_transactions': 188, 'ideal_read_transactions': 26112,
        'ideal_write_transactions': 86, 'shared_bytes': 1671168, 'scalar_ops': 46792704,
        'barriers': 1632, 'device_seconds': 0.00014209322493224932,
        'transfer_seconds': 2.72784e-05, 'host_to_device_bytes': 125440,
        'device_to_host_bytes': 10952, 'launches': 1, 'tiles': 1, 'tiles_skipped': 0,
    },
    'multi_tile_16x16': {
        'work_groups': 121, 'work_items': 30976, 'global_bytes_read': 7487488,
        'global_bytes_written': 233984, 'global_read_transactions': 118742,
        'global_write_transactions': 1828, 'ideal_read_transactions': 116992,
        'ideal_write_transactions': 1828, 'shared_bytes': 7487488,
        'scalar_ops': 209649664, 'barriers': 7312,
        'device_seconds': 0.0006518294489611563,
        'transfer_seconds': 9.939199999999999e-05, 'host_to_device_bytes': 262976,
        'device_to_host_bytes': 233984, 'launches': 6, 'tiles': 6, 'tiles_skipped': 0,
    },
    'multi_tile_8x8': {
        'work_groups': 457, 'work_items': 29248, 'global_bytes_read': 12861952,
        'global_bytes_written': 233984, 'global_read_transactions': 401936,
        'global_write_transactions': 3556, 'ideal_read_transactions': 200968,
        'ideal_write_transactions': 1828, 'shared_bytes': 12861952,
        'scalar_ops': 180067328, 'barriers': 50242,
        'device_seconds': 0.0005683201445347785,
        'transfer_seconds': 9.939199999999999e-05, 'host_to_device_bytes': 262976,
        'device_to_host_bytes': 233984, 'launches': 6, 'tiles': 6, 'tiles_skipped': 0,
    },
    'ragged': {
        'work_groups': 27, 'work_items': 6912, 'global_bytes_read': 2433024,
        'global_bytes_written': 29432, 'global_read_transactions': 38224,
        'global_write_transactions': 526, 'ideal_read_transactions': 38016,
        'ideal_write_transactions': 232, 'shared_bytes': 2433024,
        'scalar_ops': 68124672, 'barriers': 2376,
        'device_seconds': 0.0002223121951219512, 'transfer_seconds': 3.01552e-05,
        'host_to_device_bytes': 121344, 'device_to_host_bytes': 29432, 'launches': 3,
        'tiles': 3, 'tiles_skipped': 0,
    },
    'sparse_pruned': {
        'work_groups': 24, 'work_items': 6144, 'global_bytes_read': 1081344,
        'global_bytes_written': 41472, 'global_read_transactions': 16896,
        'global_write_transactions': 412, 'ideal_read_transactions': 16896,
        'ideal_write_transactions': 324, 'shared_bytes': 1081344,
        'scalar_ops': 30277632, 'barriers': 1056,
        'device_seconds': 0.00014547208672086717,
        'transfer_seconds': 3.256320000000001e-05, 'host_to_device_bytes': 121344,
        'device_to_host_bytes': 41472, 'launches': 6, 'tiles': 6, 'tiles_skipped': 4,
    },
    'uniform': {
        'work_groups': 9, 'work_items': 2304, 'global_bytes_read': 110592,
        'global_bytes_written': 18432, 'global_read_transactions': 1728,
        'global_write_transactions': 144, 'ideal_read_transactions': 1728,
        'ideal_write_transactions': 144, 'shared_bytes': 110592, 'scalar_ops': 3096576,
        'barriers': 108, 'device_seconds': 1.874146341463415e-05,
        'transfer_seconds': 7.3728e-06, 'host_to_device_bytes': 18432,
        'device_to_host_bytes': 18432, 'launches': 1, 'tiles': 1, 'tiles_skipped': 0,
    },
    'unsorted': {
        'work_groups': 76, 'work_items': 19456, 'global_bytes_read': 6881280,
        'global_bytes_written': 138528, 'global_read_transactions': 111328,
        'global_write_transactions': 1607, 'ideal_read_transactions': 107520,
        'ideal_write_transactions': 1083, 'shared_bytes': 6881280,
        'scalar_ops': 192675840, 'barriers': 6720,
        'device_seconds': 0.0005739132791327914, 'transfer_seconds': 6.4672e-05,
        'host_to_device_bytes': 184832, 'device_to_host_bytes': 138528, 'launches': 3,
        'tiles': 3, 'tiles_skipped': 0,
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_modelled_numbers_are_pinned(name):
    assert CASES[name]() == GOLDEN[name]


def test_sparse_case_prunes_tiles():
    assert GOLDEN["sparse_pruned"]["tiles_skipped"] > 0
    assert GOLDEN["sparse_pruned"]["tiles"] > 0
