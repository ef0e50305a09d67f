"""Property tests for the CountResult API: sparse/top-k vs the dense oracle.

The redesign's contract, pinned across every counting backend:

* a sparse result pruned at ``min_support`` filtered with
  ``frequent_pairs(ms)`` (``ms >= floor``) is **bit-identical** to the
  dense matrix computed first and filtered afterwards;
* a top-k result equals the dense ranking under the *descending count,
  ties ascending (i, j)* convention;
* both hold for batch, parallel and sharded engines, for byte and
  non-byte payload layouts, for tombstoned incremental artifacts, and in
  the empty / all-pruned edge cases.
"""

import numpy as np
import pytest

from repro.core.collection import BatmapCollection
from repro.core.config import BatmapConfig
from repro.core.plan import PlanFeatures, plan_counts, resolve_result_format
from repro.core.results import (
    CountResult,
    DenseCountResult,
    SparseCountResult,
    TopKCountResult,
    as_count_result,
    coalesce_coo,
)
from repro.core.sharded import ShardedCollection
from repro.mining.support import PairSupports
from tests.conftest import random_sets

UNIVERSE = 600


def dense_frequent(counts: np.ndarray, ms: int):
    """Oracle: threshold the strict upper triangle of a dense matrix."""
    iu, ju = np.triu_indices(counts.shape[0], k=1)
    values = counts[iu, ju]
    keep = values >= ms
    return iu[keep], ju[keep], values[keep]


def dense_top_k(counts: np.ndarray, k: int):
    """Oracle ranking: descending count, ties ascending (i, j), k entries."""
    iu, ju = np.triu_indices(counts.shape[0], k=1)
    values = counts[iu, ju]
    order = np.lexsort((ju, iu, -values))[:k]
    return [((int(iu[o]), int(ju[o])), int(values[o])) for o in order]


def assert_matches_dense(result, dense: np.ndarray, ms: int):
    ri, rj, rv = result.frequent_pairs(ms)
    oi, oj, ov = dense_frequent(dense, ms)
    assert np.array_equal(ri, oi)
    assert np.array_equal(rj, oj)
    assert np.array_equal(rv, ov)


@pytest.fixture
def skewed_sets(rng):
    """A few large sets among many small ones, so tile pruning bites."""
    sets = []
    for i in range(60):
        size = 200 if i % 9 == 0 else rng.integers(1, 12)
        sets.append(np.unique(rng.integers(0, UNIVERSE, size=size)))
    return sets


class TestBatchEngine:
    @pytest.mark.parametrize("ms", [0, 1, 3, 25])
    def test_sparse_matches_dense_filter(self, skewed_sets, ms):
        coll = BatmapCollection.build(skewed_sets, UNIVERSE, rng=3)
        dense = coll.count_all_pairs()
        result = coll.batch_counter().count_result(
            result_format="sparse", min_support=ms)
        assert isinstance(result, SparseCountResult)
        assert_matches_dense(result, dense, max(1, ms))
        if ms >= 25:
            assert result.stats["tiles_skipped"] > 0

    @pytest.mark.parametrize("k", [1, 5, 40, 10_000])
    def test_top_k_matches_dense_ranking(self, skewed_sets, k):
        coll = BatmapCollection.build(skewed_sets, UNIVERSE, rng=3)
        dense = coll.count_all_pairs()
        result = coll.batch_counter().count_result(top_k=k)
        assert isinstance(result, TopKCountResult)
        assert result.ranked() == dense_top_k(dense, k)

    def test_top_k_with_min_support_truncates(self, skewed_sets):
        coll = BatmapCollection.build(skewed_sets, UNIVERSE, rng=3)
        dense = coll.count_all_pairs()
        result = coll.batch_counter().count_result(top_k=30, min_support=4)
        want = [e for e in dense_top_k(dense, 30) if e[1] >= 4]
        assert result.ranked()[:len(want)] == want

    def test_diagonal_round_trips(self, skewed_sets):
        coll = BatmapCollection.build(skewed_sets, UNIVERSE, rng=3)
        dense = coll.count_all_pairs()
        result = coll.batch_counter().count_result(result_format="sparse")
        assert np.array_equal(result.diagonal(), np.diag(dense))

    def test_cross_rectangle_matches_dense(self, rng):
        sets = random_sets(rng, 30, UNIVERSE, max_size=120)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=5)
        rows = np.arange(12)
        cols = np.arange(12, 30)
        dense = coll.batch_counter().count_cross(rows, cols)
        result = coll.batch_counter().count_cross_result(rows, cols)
        assert not result.symmetric
        ri, rj, rv = result.frequent_pairs(1)
        oi, oj = np.nonzero(dense >= 1)
        assert np.array_equal(ri, oi) and np.array_equal(rj, oj)
        assert np.array_equal(rv, dense[oi, oj])


class TestParallelEngine:
    def test_sparse_and_top_k_match_batch(self, skewed_sets):
        from repro.parallel.executor import ParallelPairCounter

        coll = BatmapCollection.build(skewed_sets, UNIVERSE, rng=3)
        dense = coll.count_all_pairs()
        with ParallelPairCounter(coll, workers=2) as counter:
            for ms in (0, 2, 25):
                assert_matches_dense(
                    counter.count_result(result_format="sparse", min_support=ms),
                    dense, max(1, ms))
            topk = counter.count_result(top_k=7)
        assert topk.ranked() == dense_top_k(dense, 7)


class TestShardedEngine:
    @pytest.mark.parametrize("workers_compute", [("host", None), ("parallel", 2)])
    def test_sparse_matches_dense_counts(self, tmp_path, rng, monkeypatch,
                                         workers_compute):
        # 80 sets sit below the pool pay-off floor: lower it so the parallel
        # case really runs the sharded pool path.
        monkeypatch.setattr("repro.parallel.executor.PARALLEL_MIN_SETS", 4)
        compute, workers = workers_compute
        sets = random_sets(rng, 80, UNIVERSE, max_size=150)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=7,
            memory_budget=512 << 10)
        from repro.parallel.sharded import ShardedPairCounter

        dense = ShardedPairCounter(sharded, compute="host").counts()
        counter = ShardedPairCounter(
            sharded, compute=compute, workers=workers,
            result_format="sparse", min_support=3)
        assert counter.plan.backend == ("parallel" if compute == "parallel"
                                        else "batch")
        result = counter.count_result()
        assert_matches_dense(result, dense, 3)

    def test_tombstoned_artifact(self, tmp_path, rng):
        sets = random_sets(rng, 60, UNIVERSE, max_size=100)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=9,
            memory_budget=512 << 10)
        sharded.delete([0, 7, 33, 59])
        reloaded = ShardedCollection.from_spill(tmp_path / "spill")
        from repro.parallel.sharded import ShardedPairCounter

        dense = ShardedPairCounter(reloaded, compute="host").counts()
        counter = ShardedPairCounter(
            reloaded, compute="host", result_format="sparse", min_support=2)
        assert_matches_dense(counter.count_result(), dense, 2)
        topk = counter.count_result(top_k=9, min_support=None)
        assert topk.ranked() == dense_top_k(dense, 9)

    def test_pool_top_k_and_tombstones(self, tmp_path, rng, monkeypatch):
        """The sharded pool path on a tombstoned artifact, sparse and top-k."""
        monkeypatch.setattr("repro.parallel.executor.PARALLEL_MIN_SETS", 4)
        sets = random_sets(rng, 60, UNIVERSE, max_size=100)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=9,
            memory_budget=512 << 10, max_sets_per_shard=25)
        sharded.delete([0, 7, 33, 59])
        reloaded = ShardedCollection.from_spill(tmp_path / "spill")
        assert reloaded.n_shards == 3
        from repro.parallel.sharded import ShardedPairCounter

        dense = ShardedPairCounter(reloaded, compute="host").counts()
        counter = ShardedPairCounter(
            reloaded, compute="parallel", workers=2, result_format="sparse",
            min_support=2)
        assert counter.plan.backend == "parallel"
        assert np.array_equal(counter.counts(), dense)
        assert_matches_dense(counter.count_result(), dense, 2)
        for k in (1, 9, 10_000):
            topk = counter.count_result(top_k=k, min_support=0)
            assert topk.ranked() == dense_top_k(dense, k)


def skewed_many(n: int, seed: int):
    """Mostly tiny sets plus a few large ones: low-slot tiles prune at 10."""
    rng = np.random.default_rng(seed)
    return [np.unique(rng.integers(0, UNIVERSE,
                                   size=120 if i % 16 == 0 else rng.integers(1, 8)))
            for i in range(n)]


class TestSerialPoolIdentity:
    """The inline runner and the pool walk the same tiles with the same sink.

    With >= 512 sets both pick a 128 edge, so pruning telemetry and results
    must agree exactly, in memory and across a multi-shard spill.
    """

    N_SETS = 520
    MIN_SUPPORT = 10

    @staticmethod
    def assert_same(serial, pool):
        assert serial.stats["tiles_skipped"] > 0
        for key in ("tiles_total", "tiles_skipped"):
            assert serial.stats[key] == pool.stats[key]
        for field in ("rows", "cols", "values"):
            assert np.array_equal(getattr(serial, field), getattr(pool, field))

    def test_in_memory(self):
        from repro.parallel.executor import ParallelPairCounter

        coll = BatmapCollection.build(skewed_many(self.N_SETS, 1), UNIVERSE, rng=4)
        serial = coll.batch_counter().count_result(
            result_format="sparse", min_support=self.MIN_SUPPORT)
        with ParallelPairCounter(coll, workers=2) as counter:
            pool = counter.count_result(result_format="sparse",
                                        min_support=self.MIN_SUPPORT)
        self.assert_same(serial, pool)
        assert_matches_dense(serial, coll.count_all_pairs(), self.MIN_SUPPORT)

    def test_multi_shard_spill(self, tmp_path):
        from repro.core.sharded import fixed_resident_bytes
        from repro.parallel.sharded import ShardedPairCounter

        sets = skewed_many(self.N_SETS, 2)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=4,
            memory_budget=fixed_resident_bytes(UNIVERSE, self.N_SETS) + (4 << 20),
            max_sets_per_shard=200)
        assert sharded.n_shards == 3
        sizes = np.array([s.size for s in sets])   # exact bounds, as the miner's
        results = []
        for compute in ("batch", "parallel"):
            counter = ShardedPairCounter(
                sharded, compute=compute, workers=2, result_format="sparse",
                min_support=self.MIN_SUPPORT)
            assert counter.plan.backend == compute
            results.append(counter.count_result(bounds=sizes))
        self.assert_same(*results)
        dense = BatmapCollection.build(sets, UNIVERSE, rng=4).count_all_pairs()
        assert_matches_dense(results[0], dense, self.MIN_SUPPORT)


class TestResidentBound:
    def test_pool_sparse_peak_stays_near_the_result(self):
        """Pool sparse counting holds the result plus in-flight tiles, no more.

        Finished tiles stream into the sink, so the parent's traced peak is
        at most the serial peak plus the in-flight tiles, and at most the
        sink's finalisation (pending chunks, their concatenation, the sort
        order and the sorted copy: under 4 result sizes) plus those tiles.
        Buffering every tile before reducing — 8 bytes per pair, ~9 MB
        here — breaks both bounds.
        """
        import tracemalloc

        from repro.parallel.executor import ParallelPairCounter, auto_tile_edge

        rng = np.random.default_rng(0)
        sets = [np.unique(rng.integers(0, 20_000, size=int(rng.integers(1, 60))))
                for _ in range(1500)]
        coll = BatmapCollection.build(sets, 20_000, rng=1)
        coll.device_buffer()

        def traced_peak(count):
            tracemalloc.start()
            try:
                result = count(result_format="sparse")
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        serial, serial_peak = traced_peak(coll.batch_counter().count_result)
        workers = 2
        with ParallelPairCounter(coll, workers=workers) as counter:
            counter.start()
            pool, pool_peak = traced_peak(counter.count_result)
        assert np.array_equal(pool.values, serial.values)
        edge = auto_tile_edge(len(coll), workers)
        # two tiles in flight per worker, each held once pickled, once unpickled
        in_flight = 2 * workers * 2 * edge * edge * 8
        assert pool_peak <= serial_peak + in_flight
        assert pool_peak <= 4 * serial.result_bytes + in_flight


class TestPayloadWidths:
    """Non-byte layouts route through the per-pair reference path."""

    @pytest.mark.parametrize("payload_bits", [5, 7])
    def test_sparse_matches_dense(self, rng, payload_bits):
        config = BatmapConfig(payload_bits=payload_bits)
        sets = random_sets(rng, 25, UNIVERSE, max_size=80)
        coll = BatmapCollection.build(sets, UNIVERSE, config=config, rng=11)
        dense = coll.count_all_pairs()
        result = coll.count_result(result_format="sparse", min_support=2)
        assert_matches_dense(result, dense, 2)
        topk = coll.count_result(top_k=5)
        assert topk.ranked() == dense_top_k(dense, 5)


class TestEdgeCases:
    def test_all_pruned_is_empty(self, rng):
        sets = random_sets(rng, 12, UNIVERSE, max_size=10)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=1)
        result = coll.batch_counter().count_result(
            result_format="sparse", min_support=10_000)
        assert result.nnz == 0
        assert result.stats["tiles_skipped"] == result.stats["tiles_total"] > 0
        ri, rj, rv = result.frequent_pairs(10_000)
        assert ri.size == rj.size == rv.size == 0

    def test_disjoint_sets_sparse_empty(self):
        sets = [np.arange(0, 10), np.arange(100, 110), np.arange(300, 310)]
        coll = BatmapCollection.build(sets, UNIVERSE, rng=2)
        result = coll.batch_counter().count_result(result_format="sparse")
        assert result.nnz == 0                      # off-diagonal empty
        assert result.stored_entries == 3           # diagonal supports kept
        assert np.array_equal(result.diagonal(),
                              np.diag(coll.count_all_pairs()))

    def test_refuses_filter_below_floor(self, rng):
        sets = random_sets(rng, 10, UNIVERSE, max_size=60)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=4)
        result = coll.batch_counter().count_result(
            result_format="sparse", min_support=5)
        with pytest.raises(ValueError):
            result.frequent_pairs(2)

    def test_merge_combines_partitions(self, rng):
        sets = random_sets(rng, 16, UNIVERSE, max_size=80)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=6)
        dense = coll.count_all_pairs()
        full = coll.batch_counter().count_result(result_format="sparse")
        i, j, v = full.pairs()
        half = i.size // 2
        a = SparseCountResult(len(sets), rows=i[:half], cols=j[:half],
                              values=v[:half])
        b = SparseCountResult(len(sets), rows=i[half:], cols=j[half:],
                              values=v[half:])
        merged = a.merge(b)
        mi, mj, mv = merged.frequent_pairs(1)
        oi, oj, ov = dense_frequent(dense, 1)
        assert np.array_equal(mi, oi) and np.array_equal(mj, oj)
        assert np.array_equal(mv, ov)


class TestResultPrimitives:
    def test_coalesce_sums_duplicates_drops_zeros(self):
        rows, cols, values = coalesce_coo(
            np.array([3, 1, 3, 2]), np.array([4, 2, 4, 2]),
            np.array([1, 5, 2, 0]))
        assert rows.tolist() == [1, 3]
        assert cols.tolist() == [2, 4]
        assert values.tolist() == [5, 3]

    def test_dense_matrix_access_is_silent(self, rng):
        dense = DenseCountResult(np.zeros((4, 4), dtype=np.int64))
        dense.matrix()                               # oracle path: no warning

    def test_sparse_matrix_access_warns(self):
        sparse = SparseCountResult(
            4, rows=np.array([0]), cols=np.array([1]), values=np.array([2]))
        with pytest.deprecated_call():
            sparse.matrix()

    def test_as_count_result_wraps_and_passes_through(self):
        raw = np.zeros((3, 3), dtype=np.int64)
        wrapped = as_count_result(raw)
        assert isinstance(wrapped, DenseCountResult)
        assert as_count_result(wrapped) is wrapped

    def test_pair_supports_accepts_count_result(self, rng):
        sets = random_sets(rng, 10, UNIVERSE, max_size=60)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=8)
        dense = coll.count_all_pairs()
        result = coll.batch_counter().count_result(result_format="sparse")
        supports = PairSupports(counts=result,
                                item_ids=np.arange(10, dtype=np.int64))
        for i in range(10):
            for j in range(10):
                assert supports.support(i, j) == dense[i, j]

    def test_plan_features_carry_format_and_floor(self, rng):
        sets = random_sets(rng, 10, UNIVERSE, max_size=40)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=1)
        features = PlanFeatures.from_collection(
            coll, result_format="sparse", min_support=6)
        plan = plan_counts(features)
        assert plan.result_format == "sparse"
        assert plan.min_support == 6

    def test_auto_resolves_against_budget(self):
        # 100 sets -> 80 kB dense result: sparse under a smaller budget.
        assert resolve_result_format("auto", 100, None) == "dense"
        assert resolve_result_format("auto", 100, 1 << 20) == "dense"
        assert resolve_result_format("auto", 100, 40_000) == "sparse"

    def test_count_all_pairs_legacy_signature_unchanged(self, rng):
        sets = random_sets(rng, 8, UNIVERSE, max_size=30)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=2)
        out = coll.count_all_pairs()
        assert isinstance(out, np.ndarray)           # deprecation shim intact
        assert not isinstance(out, CountResult)


class TestMinerIntegration:
    """End-to-end: sparse mining (repair included) equals dense-then-filter."""

    def _database(self, rng, n_items=70, n_txns=350):
        from repro.datasets.transactions import TransactionDatabase

        txns = [np.unique(rng.integers(0, n_items, size=rng.integers(2, 10)))
                for _ in range(n_txns)]
        return TransactionDatabase(
            transactions=[t for t in txns if t.size], n_items=n_items)

    @pytest.mark.parametrize("compute", ["host", "device"])
    def test_mine_sparse_matches_dense(self, rng, compute):
        from repro.mining.pair_mining import BatmapPairMiner

        db = self._database(rng)
        miner = BatmapPairMiner(compute=compute)
        dense = miner.mine(db, min_support=3, rng=1)
        sparse = miner.mine(db, min_support=3, rng=1, result_format="sparse")
        assert isinstance(sparse.supports.counts, SparseCountResult)
        assert (sparse.supports.frequent_pairs(3)
                == dense.supports.frequent_pairs(3))

    def test_mine_stream_sparse_matches_dense(self, tmp_path, rng):
        from repro.mining.pair_mining import BatmapPairMiner

        db = self._database(rng)
        path = tmp_path / "db.dat"
        path.write_text("\n".join(
            " ".join(str(i) for i in t) for t in db.transactions) + "\n")
        miner = BatmapPairMiner(compute="auto")
        dense = miner.mine_stream(path, min_support=3, rng=2,
                                  memory_budget="8M")
        sparse = miner.mine_stream(path, min_support=3, rng=2,
                                   memory_budget="8M", result_format="sparse")
        assert isinstance(sparse.supports.counts, SparseCountResult)
        assert (sparse.supports.frequent_pairs(3)
                == dense.supports.frequent_pairs(3))

    def test_serve_sparse_top_k_matches_dense(self, tmp_path, rng):
        from repro.serve.engine import SpillQueryEngine

        sets = random_sets(rng, 50, UNIVERSE, max_size=120)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=5,
            memory_budget=256 << 10)
        sharded.delete([3, 17])
        reloaded = ShardedCollection.from_spill(tmp_path / "spill")
        dense = SpillQueryEngine(reloaded)
        sparse = SpillQueryEngine(reloaded, result_format="sparse")
        requests = [(0, 1), (5, 10), (40, 47)]
        assert dense.top_k_batch(requests) == sparse.top_k_batch(requests)
