"""Out-of-core sharded collections: spill format, identity, planning, budgets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchPairCounter
from repro.core.collection import BatmapCollection
from repro.core.config import BatmapConfig
from repro.core.errors import LayoutError, SpillFormatError
from repro.core.plan import BuildPlan, CountPlan, plan_build, plan_counts
from repro.core.sharded import (
    ShardedCollection,
    ShardedCollectionBuilder,
    fixed_resident_bytes,
    plan_shard_ranges,
    set_packed_bytes,
    working_budget,
)
from repro.core.hashing import HashFamily
from repro.core.intersection import count_common
from repro.parallel.sharded import ShardedPairCounter, block_words_for_budget
from repro.utils.memory import parse_memory_size
from tests.conftest import random_sets

UNIVERSE = 2048


def make_sets(n=36, universe=UNIVERSE, seed=5, max_size=300):
    rng = np.random.default_rng(seed)
    return random_sets(rng, n, universe, min_size=1, max_size=max_size)


def budget_for(n_sets, universe=UNIVERSE, extra=200_000):
    """A budget that leaves ``extra`` bytes of working room above the floor."""
    return fixed_resident_bytes(universe, n_sets) + extra


class TestShardPlanning:
    def test_ranges_cover_and_respect_budget(self):
        from repro.core.sharded import SHARD_BUDGET_DIVISOR

        packed = np.full(20, 1000, dtype=np.int64)
        ranges = plan_shard_ranges(packed, SHARD_BUDGET_DIVISOR * 3000)
        assert ranges[0] == (0, 3)
        assert ranges[-1][1] == 20
        for (_, hi), (next_lo, _) in zip(ranges, ranges[1:]):
            assert hi == next_lo
        for lo, hi in ranges:
            assert packed[lo:hi].sum() <= 3000

    def test_oversized_set_gets_singleton_shard(self):
        packed = np.array([10, 999_999, 10], dtype=np.int64)
        ranges = plan_shard_ranges(packed, 8 * 100)
        assert (1, 2) in ranges

    def test_max_sets_per_shard(self):
        packed = np.ones(10, dtype=np.int64)
        ranges = plan_shard_ranges(packed, 1 << 30, max_sets_per_shard=4)
        assert ranges == [(0, 4), (4, 8), (8, 10)]

    def test_set_packed_bytes_matches_device_layout(self):
        from repro.core.bulk_build import device_word_layout

        sets = make_sets(8)
        collection = BatmapCollection.build(sets, UNIVERSE, rng=0)
        _, _, total = device_word_layout(
            [bm.r for bm in collection.batmaps_sorted])
        sizes = [np.unique(np.asarray(s)).size for s in sets]
        assert int(set_packed_bytes(sizes, UNIVERSE, collection.config).sum()) == total * 4

    def test_working_budget_subtracts_fixed_residents(self):
        fixed = fixed_resident_bytes(1000, 10)
        assert working_budget(fixed + 100_000, 1000, 10) == 100_000
        with pytest.raises(ValueError, match="irreducibly resident"):
            working_budget(fixed + 1, 1000, 10)


class TestSpillIdentity:
    def test_sharded_counts_bit_identical_to_monolithic(self, tmp_path):
        sets = make_sets(36)
        reference = BatmapCollection.build(sets, UNIVERSE, rng=7).count_all_pairs()
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=7,
            memory_budget=budget_for(36), max_sets_per_shard=7,
        )
        assert sharded.n_shards >= 5
        np.testing.assert_array_equal(sharded.count_all_pairs(), reference)

    def test_reattach_from_spill(self, tmp_path):
        sets = make_sets(12, seed=9)
        reference = BatmapCollection.build(sets, UNIVERSE, rng=3).count_all_pairs()
        built = ShardedCollection.build(sets, UNIVERSE, tmp_path / "sp", rng=3,
                                        memory_budget=budget_for(12),
                                        max_sets_per_shard=5)
        reattached = ShardedCollection.from_spill(tmp_path / "sp")
        assert reattached.n_sets == built.n_sets
        assert reattached.r0 == built.r0
        np.testing.assert_array_equal(reattached.count_all_pairs(), reference)

    def test_mixed_widths_across_shards(self, tmp_path):
        # shard 0 gets only small sets, shard 1 only large ones: the
        # cross-shard rectangle must fold wide rows onto narrow ones
        rng = np.random.default_rng(3)
        small = [np.sort(rng.choice(UNIVERSE, size=12, replace=False))
                 for _ in range(4)]
        large = [np.sort(rng.choice(UNIVERSE, size=700, replace=False))
                 for _ in range(4)]
        sets = small + large
        reference = BatmapCollection.build(sets, UNIVERSE, rng=1).count_all_pairs()
        sharded = ShardedCollection.build(sets, UNIVERSE, tmp_path / "mix", rng=1,
                                          memory_budget=budget_for(8),
                                          max_sets_per_shard=4)
        assert sharded.n_shards >= 2
        np.testing.assert_array_equal(sharded.count_all_pairs(), reference)

    def test_parallel_counter_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.parallel.executor.PARALLEL_MIN_SETS", 4)
        sets = make_sets(24, seed=11)
        reference = BatmapCollection.build(sets, UNIVERSE, rng=2).count_all_pairs()
        sharded = ShardedCollection.build(sets, UNIVERSE, tmp_path / "par", rng=2,
                                          memory_budget=budget_for(24),
                                          max_sets_per_shard=6)
        counter = ShardedPairCounter(sharded, compute="parallel", workers=2,
                                     tile_size=5)
        assert counter.plan.backend == "parallel"
        np.testing.assert_array_equal(counter.counts(), reference)

    def test_failed_insertions_use_global_indices(self, tmp_path):
        config = BatmapConfig(range_multiplier=1.0, seed=3)
        rng = np.random.default_rng(8)
        sets = [np.sort(rng.choice(256, size=100, replace=False))
                for _ in range(10)]
        reference = BatmapCollection.build(sets, 256, config=config, rng=5)
        sharded = ShardedCollection.build(sets, 256, tmp_path / "fail",
                                          config=config, rng=5,
                                          memory_budget=budget_for(10, 256),
                                          max_sets_per_shard=3)
        assert sharded.failed_insertions() == reference.failed_insertions()

    def test_cross_index_matches_per_pair_oracle(self):
        sets = make_sets(14, seed=21)
        collection = BatmapCollection.build(sets, UNIVERSE, rng=4)
        index = BatchPairCounter(collection).index
        batmaps = collection.batmaps_sorted

        def oracle(rows, cols):
            return np.array([[count_common(batmaps[r], batmaps[c]) for c in cols]
                             for r in rows])

        rows = np.array([0, 3, 9])
        cols = np.array([1, 2, 13, 5])
        np.testing.assert_array_equal(index.cross_index(index, rows, cols),
                                      oracle(rows, cols))
        # the same slot array on both axes takes the symmetric path
        both = np.array([13, 0, 9, 3, 5, 0])
        assert np.unique(index.widths[both]).size > 1
        np.testing.assert_array_equal(index.cross_index(index, both, both),
                                      oracle(both, both))
        # full rectangle default: the slot-order all-pairs matrix
        order = collection.order
        np.testing.assert_array_equal(
            index.cross_index(index),
            collection._count_all_pairs_loop()[np.ix_(order, order)],
        )


class TestSpillFormat:
    def test_from_spill_requires_manifest(self, tmp_path):
        with pytest.raises(SpillFormatError, match="manifest"):
            ShardedCollection.from_spill(tmp_path)

    def test_incomplete_shard_directory(self, tmp_path):
        sets = make_sets(6, seed=2)
        built = ShardedCollection.build(sets, UNIVERSE, tmp_path, rng=0,
                                        memory_budget=budget_for(6),
                                        max_sets_per_shard=3)
        (built.shards[0].directory / "words.npy").unlink()
        reattached = ShardedCollection.from_spill(tmp_path)
        with pytest.raises(SpillFormatError, match="incomplete"):
            reattached.attach(0)

    def test_cleanup_removes_spill(self, tmp_path):
        built = ShardedCollection.build(make_sets(4, seed=1), UNIVERSE,
                                        tmp_path / "gone", rng=0,
                                        memory_budget=budget_for(4))
        built.cleanup()
        assert not (tmp_path / "gone").exists()

    def test_wide_payload_layout_rejected(self, tmp_path):
        config = BatmapConfig(payload_bits=9)
        family = HashFamily.create(64, shift=0, rng=0)
        with pytest.raises(LayoutError, match="byte-packed"):
            ShardedCollectionBuilder(tmp_path, 64, 4, family=family,
                                     config=config)

    def test_builder_rejects_empty_usage(self, tmp_path):
        family = HashFamily.create(64, shift=0, rng=0)
        builder = ShardedCollectionBuilder(tmp_path, 64, 4, family=family)
        with pytest.raises(ValueError, match="no shards"):
            builder.finalize()
        with pytest.raises(ValueError, match="empty shard"):
            builder.add_shard([])


class TestBudgetPlanning:
    def test_plan_counts_demotes_to_sharded_over_budget(self):
        from repro.core.plan import PlanFeatures

        features = PlanFeatures(n_sets=1000, total_words=1 << 22, r0=16,
                                byte_entries=True)
        plan = plan_counts(features, memory_budget=1 << 20, workers=4)
        assert plan.backend == "sharded"
        assert "budget" in plan.reason
        # without a budget nothing changes
        assert plan_counts(features, workers=4).backend in ("batch", "parallel")
        # fits under budget -> normal policy
        assert plan_counts(features, memory_budget=1 << 30,
                           workers=1).backend == "batch"

    def test_plan_counts_sharded_explicit_request(self):
        from repro.core.plan import PlanFeatures

        features = PlanFeatures(n_sets=10, total_words=100, r0=16,
                                byte_entries=True)
        assert plan_counts(features, requested="sharded").backend == "sharded"

    def test_plan_counts_layout_gate_beats_budget(self):
        from repro.core.plan import PlanFeatures

        features = PlanFeatures(n_sets=1000, total_words=1 << 22, r0=2,
                                byte_entries=True)
        assert plan_counts(features, memory_budget=1).backend == "host"

    def test_plan_build_demotes_to_sharded_over_budget(self):
        plan = plan_build(1000, 1 << 22, memory_budget=1 << 20,
                          packed_bytes=1 << 24)
        assert plan.backend == "sharded"
        fits = plan_build(1000, 1 << 22, memory_budget=1 << 30,
                          packed_bytes=1 << 24)
        assert fits.backend in ("host", "bulk", "parallel")
        assert plan_build(4, 100, requested="sharded").backend == "sharded"

    def test_plan_dataclasses_accept_sharded(self):
        CountPlan("sharded", 1, "r")
        BuildPlan("sharded", 1, "r")

    def test_block_words_budget(self):
        from repro.core.batch import DEFAULT_BLOCK_WORDS

        assert block_words_for_budget(None) == DEFAULT_BLOCK_WORDS
        assert block_words_for_budget(1 << 30) == DEFAULT_BLOCK_WORDS
        assert block_words_for_budget(1) == 1 << 12
        assert block_words_for_budget(1 << 20) == (1 << 20) // 128


class TestParseMemorySize:
    @pytest.mark.parametrize("text,expected", [
        ("64M", 64 << 20),
        ("64MiB", 64 << 20),
        ("1.5K", 1536),
        ("2g", 2 << 30),
        ("4096", 4096),
        (4096, 4096),
        ("10 kb", 10 << 10),
    ])
    def test_valid(self, text, expected):
        assert parse_memory_size(text) == expected

    @pytest.mark.parametrize("text", ["", "M", "64Q", "-5M", "0", -1, "1.2.3M"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_memory_size(text)
