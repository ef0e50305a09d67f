"""Tests for the vectorised levelwise support counter (repro.mining.levelwise)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import generate_density_instance
from repro.datasets.transactions import TransactionDatabase
from repro.mining.itemsets import BatmapItemsetMiner
from repro.mining.levelwise import (
    TransactionBitmap,
    count_candidate_supports,
    scan_supports,
)
from repro.mining.pair_mining import BatmapPairMiner


def random_candidates(rng, n_items, k, n_candidates):
    out = []
    for _ in range(n_candidates):
        out.append(np.sort(rng.choice(n_items, k, replace=False)))
    return np.asarray(out, dtype=np.int64)


class TestTransactionBitmap:
    def test_shape_and_bits(self):
        db = TransactionDatabase(
            transactions=[[0, 2], [1], [0, 1, 2]], n_items=3)
        bm = TransactionBitmap.from_database(db)
        assert bm.words.shape == (3, 1)
        assert bm.n_transactions == 3
        # item 0 in transactions 0 and 2 -> bits 0 and 2
        assert int(bm.words[0, 0]) == 0b101
        assert int(bm.words[1, 0]) == 0b110
        assert int(bm.words[2, 0]) == 0b101

    def test_many_transactions_span_words(self):
        transactions = [[0] if t % 3 == 0 else [1] for t in range(130)]
        db = TransactionDatabase(transactions=transactions, n_items=2)
        bm = TransactionBitmap.from_database(db)
        assert bm.words.shape == (2, 3)
        supports = count_candidate_supports(bm, [[0]])
        assert supports[0] == sum(1 for t in range(130) if t % 3 == 0)

    def test_validation(self):
        bm = TransactionBitmap.from_database(
            TransactionDatabase(transactions=[[0]], n_items=2))
        with pytest.raises(ValueError):
            count_candidate_supports(bm, [[5]])
        with pytest.raises(ValueError):
            count_candidate_supports(bm, [[0]], compute="quantum")
        assert count_candidate_supports(bm, np.zeros((0, 3), dtype=np.int64)).size == 0


class TestBitIdentity:
    """Levels >= 3 supports must be bit-identical to the transaction scan."""

    @given(st.integers(0, 2**31), st.integers(3, 5))
    @settings(max_examples=15, deadline=None)
    def test_property_matches_scan(self, seed, k):
        rng = np.random.default_rng(seed)
        n_items = int(rng.integers(k + 1, 30))
        db = generate_density_instance(
            n_items, float(rng.uniform(0.1, 0.4)), int(rng.integers(200, 1500)),
            rng=seed % 97)
        bitmap = TransactionBitmap.from_database(db)
        candidates = random_candidates(rng, n_items, k, int(rng.integers(1, 40)))
        vectorised = count_candidate_supports(bitmap, candidates, compute="batch")
        reference = scan_supports(db.transactions, candidates)
        assert np.array_equal(vectorised, reference)

    def test_parallel_matches_scan(self):
        rng = np.random.default_rng(11)
        db = generate_density_instance(25, 0.3, 4000, rng=3)
        bitmap = TransactionBitmap.from_database(db)
        candidates = random_candidates(rng, 25, 3, 60)
        parallel = count_candidate_supports(bitmap, candidates,
                                            compute="parallel", workers=2)
        reference = scan_supports(db.transactions, candidates)
        assert np.array_equal(parallel, reference)

    def test_auto_matches_scan(self):
        rng = np.random.default_rng(12)
        db = generate_density_instance(20, 0.35, 2000, rng=4)
        bitmap = TransactionBitmap.from_database(db)
        candidates = random_candidates(rng, 20, 4, 30)
        auto = count_candidate_supports(bitmap, candidates, compute="auto")
        assert np.array_equal(auto, scan_supports(db.transactions, candidates))


class TestMinerIntegration:
    """The itemset miner's levels >= 3 agree between scan and bitmap engines."""

    @pytest.mark.parametrize("level_compute", ["auto", "batch", "parallel"])
    def test_levels_match_scan_engine(self, level_compute):
        db = generate_density_instance(18, 0.4, 3000, rng=9)
        kwargs = dict(max_size=5)
        if level_compute == "parallel":
            kwargs["workers"] = 2
        fast = BatmapItemsetMiner(
            BatmapPairMiner(compute="batch"),
            level_compute=level_compute, **kwargs,
        ).mine(db, min_support=8, rng=0)
        reference = BatmapItemsetMiner(
            BatmapPairMiner(compute="batch"),
            max_size=5, level_compute="scan",
        ).mine(db, min_support=8, rng=0)
        assert fast.itemsets == reference.itemsets
        assert fast.extension_levels == reference.extension_levels
        assert fast.max_size() >= 3  # the workload must actually reach level 3

    def test_rejects_unknown_level_compute(self):
        with pytest.raises(ValueError):
            BatmapItemsetMiner(level_compute="quantum")
