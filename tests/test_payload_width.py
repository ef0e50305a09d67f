"""Regression tests for configurable payload widths (the hardcoded-0x7F bug).

The seed silently ignored ``BatmapConfig.payload_bits`` in every decode /
membership path: ``Batmap.contains``, ``Batmap.decode_elements`` and the
multiway probe all masked entries with a literal ``0x7F``, and the encoder
truncated wide payloads through ``astype(np.uint8)``.  Any non-default width
corrupted round-trips.  These tests pin the fix: masks and the entry storage
dtype now derive from the config, and ``payload_bits`` of 5, 7 (default) and
9 all round-trip exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batmap import build_batmap
from repro.core.collection import BatmapCollection
from repro.core.config import BatmapConfig
from repro.core.errors import LayoutError
from repro.core.intersection import count_common, exact_intersection_size
from repro.core.plan import plan_counts
from repro.extensions.multiway import multiway_intersection

WIDTHS = (5, 7, 9)


def build_sets(rng_seed, universe=500, n_sets=4):
    rng = np.random.default_rng(rng_seed)
    return [np.sort(rng.choice(universe, int(rng.integers(20, 120)), replace=False))
            for _ in range(n_sets)]


class TestConfigDerivedLayout:
    def test_payload_mask_matches_width(self):
        assert BatmapConfig(payload_bits=5).payload_mask == 0x1F
        assert BatmapConfig(payload_bits=7).payload_mask == 0x7F
        assert BatmapConfig(payload_bits=9).payload_mask == 0x1FF

    def test_storage_dtype_widens(self):
        assert BatmapConfig(payload_bits=5).entry_dtype == np.dtype(np.uint8)
        assert BatmapConfig(payload_bits=7).entry_dtype == np.dtype(np.uint8)
        assert BatmapConfig(payload_bits=9).entry_dtype == np.dtype(np.uint16)
        assert BatmapConfig(payload_bits=17).entry_dtype == np.dtype(np.uint32)

    def test_indicator_is_storage_top_bit(self):
        assert BatmapConfig(payload_bits=5).indicator_mask == 0x80
        assert BatmapConfig(payload_bits=7).indicator_mask == 0x80
        assert BatmapConfig(payload_bits=9).indicator_mask == 0x8000


class TestRoundTrip:
    @pytest.mark.parametrize("payload_bits", WIDTHS)
    def test_single_batmap_round_trips(self, payload_bits):
        config = BatmapConfig(payload_bits=payload_bits)
        elements = np.arange(0, 500, 3, dtype=np.int64)
        bm = build_batmap(elements, 500, config=config, rng=1)
        stored = np.setdiff1d(elements, np.array(bm.failed, dtype=np.int64))
        assert np.array_equal(bm.decode_elements(), stored)
        assert bm.entries.dtype == config.entry_dtype

    @pytest.mark.parametrize("payload_bits", WIDTHS)
    def test_collection_round_trips(self, payload_bits):
        """The ISSUE regression: a collection built with a non-default width
        must decode every set and answer membership exactly."""
        config = BatmapConfig(payload_bits=payload_bits)
        sets = build_sets(payload_bits, universe=500)
        coll = BatmapCollection.build(sets, 500, config=config, rng=2)
        probe = np.arange(500)
        for i, original in enumerate(sets):
            bm = coll.batmap(i)
            stored = np.setdiff1d(original, np.array(bm.failed, dtype=np.int64))
            assert np.array_equal(bm.decode_elements(), stored)
            member = np.array([bm.contains(int(x)) for x in probe])
            expected = np.isin(probe, original)
            # contains() also reports failed elements as members (they belong
            # to the represented set), so compare against the full set.
            assert np.array_equal(member, expected)

    @pytest.mark.parametrize("payload_bits", WIDTHS)
    def test_pairwise_counts_exact(self, payload_bits):
        config = BatmapConfig(payload_bits=payload_bits)
        sets = build_sets(payload_bits + 10, universe=400)
        coll = BatmapCollection.build(sets, 400, config=config, rng=3)
        if coll.failed_insertions():
            pytest.skip("exactness claim only covers stored elements")
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                expected = exact_intersection_size(sets[i], sets[j])
                assert count_common(coll.batmap(i), coll.batmap(j)) == expected

    @pytest.mark.parametrize("payload_bits", WIDTHS)
    def test_count_all_pairs_routes_around_packed_engines(self, payload_bits):
        config = BatmapConfig(payload_bits=payload_bits)
        sets = build_sets(payload_bits + 20, universe=300)
        coll = BatmapCollection.build(sets, 300, config=config, rng=4)
        counts = coll.count_all_pairs()
        for i in range(len(sets)):
            for j in range(len(sets)):
                bm_i, bm_j = coll.batmap(i), coll.batmap(j)
                expected = (bm_i.stored_count if i == j
                            else count_common(bm_i, bm_j))
                assert counts[i, j] == expected

    @pytest.mark.parametrize("payload_bits", WIDTHS)
    def test_multiway_respects_width(self, payload_bits):
        config = BatmapConfig(payload_bits=payload_bits)
        sets = build_sets(payload_bits + 30, universe=400, n_sets=3)
        coll = BatmapCollection.build(sets, 400, config=config, rng=5)
        result = multiway_intersection(coll, [0, 1, 2])
        if result.failed_involved:
            pytest.skip("exactness claim only covers stored elements")
        expected = set(sets[0].tolist()) & set(sets[1].tolist()) & set(sets[2].tolist())
        assert set(result.elements.tolist()) == expected

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_property_wide_payload_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        universe = int(rng.integers(40, 800))
        config = BatmapConfig(payload_bits=9)
        elements = np.sort(rng.choice(
            universe, int(rng.integers(1, max(2, universe // 2))), replace=False))
        bm = build_batmap(elements, universe, config=config, rng=int(seed % 13))
        stored = np.setdiff1d(elements, np.array(bm.failed, dtype=np.int64))
        assert np.array_equal(bm.decode_elements(), stored)


class TestMinerWidePayload:
    def test_pair_miner_auto_routes_to_host_reference(self):
        """The planner's 'host' verdict must reach the miner: wide-payload
        layouts mine exactly through the per-pair reference instead of
        crashing in the batch engine."""
        from repro.baselines.fpgrowth import FPGrowthMiner
        from repro.datasets.synthetic import generate_density_instance
        from repro.mining.pair_mining import BatmapPairMiner

        db = generate_density_instance(12, 0.3, 600, rng=6)
        for compute in ("auto", "host"):
            miner = BatmapPairMiner(compute=compute,
                                    config=BatmapConfig(payload_bits=9))
            report = miner.mine(db, min_support=3, rng=0)
            assert report.count_backend == "host"
            expected = FPGrowthMiner().mine_pairs(db.transactions, db.n_items, 3)
            assert report.supports.frequent_pairs(3) == expected


def upper_pairs_at_least(block: np.ndarray, floor: int, *, symmetric: bool):
    """Oracle triplets of a dense block: entries ``>= floor`` (strict upper
    triangle for a symmetric matrix, every entry for a rectangle)."""
    if symmetric:
        rows, cols = np.triu_indices(block.shape[0], k=1)
    else:
        rows, cols = np.indices(block.shape).reshape(2, -1)
    values = block[rows, cols]
    keep = values >= max(1, floor)
    return rows[keep], cols[keep], values[keep]


class TestReferenceEngine:
    """The ``host`` engine (per-pair reference as a tile source) on every
    query shape, for a wide payload (9 bits) and the default 7 as control.

    Small tiles make each query walk several diagonal and off-diagonal
    tiles, so the walk, the pruning and the sinks all see the reference
    source.
    """

    @pytest.fixture(params=(7, 9))
    def coll(self, request):
        config = BatmapConfig(payload_bits=request.param)
        sets = build_sets(request.param + 40, universe=400, n_sets=12)
        return BatmapCollection.build(sets, 400, config=config, rng=6)

    def counter(self, coll, requested="host"):
        plan = plan_counts(coll, requested=requested)
        assert plan.backend == "host"
        counter = coll.pair_counter(plan)
        counter.tile_size = 5
        return counter

    def test_wide_payload_demotes_every_packed_request(self, coll):
        for requested in ("batch", "parallel", "sharded", "auto"):
            plan = plan_counts(coll, requested=requested, workers=2)
            if coll.config.payload_bits == 9:
                assert plan.backend == "host"
                if requested != "auto":
                    assert plan.reason.startswith(f"{requested} fell back: ")
            else:
                assert plan.backend != "host"

    def test_dense(self, coll):
        oracle = coll._count_all_pairs_loop()
        assert np.array_equal(self.counter(coll).count_all_pairs(), oracle)
        assert np.array_equal(coll.count_all_pairs(compute="host"), oracle)

    @pytest.mark.parametrize("min_support", [0, 2, 6])
    def test_sparse_with_min_support(self, coll, min_support):
        oracle = coll._count_all_pairs_loop()
        result = self.counter(coll).count_result(result_format="sparse",
                                                 min_support=min_support)
        got = result.frequent_pairs(max(1, min_support))
        want = upper_pairs_at_least(oracle, min_support, symmetric=True)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert result.stats["tiles_total"] > 1
        if min_support == 0:
            assert np.array_equal(result.diagonal(), np.diag(oracle))

    @pytest.mark.parametrize("k", [1, 5, 100])
    def test_top_k(self, coll, k):
        oracle = coll._count_all_pairs_loop()
        rows, cols = np.triu_indices(oracle.shape[0], k=1)
        values = oracle[rows, cols]   # zero counts fill a heap larger than the nonzeros
        ranked = np.lexsort((cols, rows, -values))[:k]
        want = [((int(rows[o]), int(cols[o])), int(values[o])) for o in ranked]
        assert self.counter(coll).count_result(top_k=k).ranked() == want

    def test_count_cross(self, coll):
        oracle = coll._count_all_pairs_loop()
        rows, cols = np.array([0, 3, 5, 7, 11]), np.array([1, 2, 4, 6, 8, 9, 10])
        got = self.counter(coll).count_cross(rows, cols)
        assert np.array_equal(got, oracle[np.ix_(rows, cols)])

    @pytest.mark.parametrize("min_support", [0, 3])
    def test_count_cross_result(self, coll, min_support):
        oracle = coll._count_all_pairs_loop()
        rows, cols = np.array([0, 3, 5, 7, 11]), np.array([1, 2, 4, 6, 8, 9, 10])
        result = self.counter(coll).count_cross_result(rows, cols,
                                                       min_support=min_support)
        got = result.frequent_pairs(max(1, min_support))
        want = upper_pairs_at_least(oracle[np.ix_(rows, cols)], min_support,
                                    symmetric=False)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("payload_bits", [7, 9])
    def test_matrix_product_through_reference(self, payload_bits):
        from repro.matrix.boolean import SparseBooleanMatrix
        from repro.matrix.multiply import multiply_batmap, multiply_dense

        a = SparseBooleanMatrix.random(9, 60, 0.3, rng=payload_bits)
        b = SparseBooleanMatrix.random(60, 7, 0.3, rng=payload_bits + 1)
        config = BatmapConfig(payload_bits=payload_bits)
        oracle = multiply_dense(a, b)
        dense = multiply_batmap(a, b, rng=0, config=config, compute="host")
        assert np.array_equal(dense, oracle)
        sparse = multiply_batmap(a, b, rng=0, config=config, compute="host",
                                 result_format="sparse", min_support=4)
        got = sparse.frequent_pairs(4)
        want = upper_pairs_at_least(oracle, 4, symmetric=False)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


class TestPackedEngineGates:
    def test_batch_counter_rejects_wide_entries(self):
        config = BatmapConfig(payload_bits=9)
        coll = BatmapCollection.build(build_sets(0), 500, config=config, rng=0)
        with pytest.raises(LayoutError):
            coll.batch_counter()

    def test_packed_rows_reject_wide_entries(self):
        config = BatmapConfig(payload_bits=9)
        bm = build_batmap(np.arange(0, 300, 4), 300, config=config, rng=0)
        with pytest.raises(LayoutError):
            bm.packed_rows
        with pytest.raises(LayoutError):
            bm.device_array(bm.r)

    def test_wrong_dtype_rejected_at_construction(self):
        config = BatmapConfig(payload_bits=9)
        bm = build_batmap(np.arange(0, 100, 4), 100, config=config, rng=0)
        from repro.core.batmap import Batmap

        with pytest.raises(ValueError):
            Batmap(family=bm.family, config=config, r=bm.r,
                   entries=bm.entries.astype(np.uint8), set_size=bm.set_size)
