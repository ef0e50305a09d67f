"""Tests for the vectorized bulk-construction engine (core/bulk_build.py).

The serial inserter (:func:`repro.core.builder.place_set`) is the oracle
throughout: bulk placements must satisfy the same 2-of-3 invariants, decode
back to the same sets, and — because pair counts are placement-independent
and failing sets are rebuilt with the oracle — produce collections whose
count matrices and failed lists are bit-identical to serially built ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import EMPTY, place_set
from repro.core.bulk_build import (
    bulk_build_sets,
    bulk_place_group,
    bulk_place_sets,
    pack_group_words,
)
from repro.core.collection import BatmapCollection, _dedup_sorted
from repro.core.config import BatmapConfig
from repro.core.hashing import HashFamily
from repro.core.intersection import count_common
from repro.utils.bits import pack_bytes_to_words


def make_family(m: int, seed: int = 0, config: BatmapConfig | None = None) -> HashFamily:
    cfg = config or BatmapConfig()
    return HashFamily.create(m, shift=cfg.shift_for_universe(m), rng=seed)


def random_sets(rng, n_sets, universe, max_size=60, min_size=0):
    return [
        np.sort(rng.choice(universe, size=int(rng.integers(min_size, max_size + 1)),
                           replace=False))
        for _ in range(n_sets)
    ]


# --------------------------------------------------------------------------- #
# Placement invariants
# --------------------------------------------------------------------------- #
class TestBulkPlacements:
    def test_placements_validate_and_round_trip(self):
        rng = np.random.default_rng(0)
        universe = 2048
        family = make_family(universe)
        sets = random_sets(rng, 40, universe, max_size=100)
        placements = bulk_place_sets(sets, family, 256)
        assert len(placements) == len(sets)
        for s, p in zip(sets, placements):
            p.validate(family)
            recovered = np.union1d(p.stored_elements,
                                   np.asarray(p.failed, dtype=np.int64))
            assert np.array_equal(recovered, np.unique(s))

    def test_empty_and_singleton_sets(self):
        universe = 512
        family = make_family(universe)
        sets = [np.array([], dtype=np.int64), np.array([7]), np.array([0]),
                np.array([511, 3])]
        placements = bulk_place_sets(sets, family, 16)
        for s, p in zip(sets, placements):
            p.validate(family)
            assert not p.failed
            assert np.array_equal(p.stored_elements, np.unique(s))
        # a singleton occupies exactly two slots
        assert int((placements[1].rows != EMPTY).sum()) == 2

    def test_duplicates_ignored(self):
        family = make_family(64)
        (p,) = bulk_place_sets([np.array([5, 5, 5, 9])], family, 8)
        assert np.array_equal(p.stored_elements, np.array([5, 9]))

    def test_rejects_out_of_universe_elements(self):
        family = make_family(64)
        with pytest.raises(ValueError):
            bulk_place_sets([np.array([64])], family, 8)

    def test_rejects_non_power_of_two_range(self):
        family = make_family(64)
        with pytest.raises(ValueError):
            bulk_place_sets([np.array([1, 2])], family, 6)

    def test_failure_heavy_low_range_matches_serial(self):
        """At r below 2|S| failures are forced; the oracle fallback makes the
        bulk failed lists exactly the serial ones."""
        rng = np.random.default_rng(3)
        universe = 512
        family = make_family(universe)
        sets = random_sets(rng, 25, universe, max_size=30, min_size=20)
        r = 16  # far below 2|S|: heavy, forced failure pressure
        bulk = bulk_place_sets(sets, family, r)
        for s, p in zip(sets, bulk):
            p.validate(family)
            serial = place_set(np.unique(s), family, r)
            assert p.failed == serial.failed
            assert np.array_equal(p.stored_elements, serial.stored_elements)
        assert any(p.failed for p in bulk)  # the config really is failure-heavy

    def test_no_oracle_fallback_still_validates(self):
        rng = np.random.default_rng(4)
        universe = 512
        family = make_family(universe)
        sets = random_sets(rng, 25, universe, max_size=30, min_size=20)
        placements = bulk_place_sets(sets, family, 16, oracle_on_failure=False)
        for p in placements:
            p.validate(family)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), r_exp=st.integers(3, 7))
    def test_placement_invariants_property(self, seed, r_exp):
        rng = np.random.default_rng(seed)
        universe = 1024
        family = make_family(universe, seed=seed % 7)
        sets = random_sets(rng, 8, universe, max_size=40)
        for p, s in zip(bulk_place_sets(sets, family, 1 << r_exp), sets):
            p.validate(family)
            recovered = np.union1d(p.stored_elements,
                                   np.asarray(p.failed, dtype=np.int64))
            assert np.array_equal(recovered, np.unique(s))

    def test_grouping_is_result_invariant(self):
        """Per-set results cannot depend on which other sets share the group."""
        rng = np.random.default_rng(9)
        universe = 2048
        family = make_family(universe)
        sets = random_sets(rng, 12, universe, max_size=60)
        together = bulk_place_sets(sets, family, 128)
        for k, s in enumerate(sets):
            (alone,) = bulk_place_sets([s], family, 128)
            assert np.array_equal(alone.rows, together[k].rows)
            assert alone.failed == together[k].failed


# --------------------------------------------------------------------------- #
# Group encoding / packing
# --------------------------------------------------------------------------- #
class TestGroupEncoding:
    def test_encode_matches_per_set_device_packing(self):
        """Group-packed words must equal Batmap.device_array + word packing."""
        from repro.core.batmap import Batmap

        rng = np.random.default_rng(1)
        universe = 1024
        config = BatmapConfig()
        family = make_family(universe, config=config)
        sets = [np.unique(rng.choice(universe, size=40)) for _ in range(6)]
        r, r0 = 256, 64
        group = bulk_place_group([_dedup_sorted(s) for s in sets], family, r, config)
        entries = group.encode(family, config)
        packed, width = pack_group_words(entries, r0)
        assert width == 3 * r // 4
        for k in range(len(sets)):
            bm = Batmap(family=family, config=config, r=r, entries=entries[k],
                        set_size=int(np.unique(sets[k]).size))
            reference = pack_bytes_to_words(bm.device_array(r0))
            assert np.array_equal(packed[k, :reference.size], reference)
            assert not packed[k, reference.size:].any()  # zero padding

    def test_bulk_build_sets_orders_and_stats(self):
        rng = np.random.default_rng(2)
        universe = 1024
        config = BatmapConfig()
        family = make_family(universe, config=config)
        sets = [np.unique(rng.choice(universe, size=n)) for n in (5, 60, 17, 33)]
        rs = [max(4, config.range_for_size(s.size, universe)) for s in sets]
        built = bulk_build_sets(sets, rs, family, config)
        for s, r, b in zip(sets, rs, built):
            assert b.r == r
            assert b.entries.shape == (3, r)
            assert b.stats.inserted == s.size
            assert b.stats.total_moves >= 2 * s.size - len(b.failed)


# --------------------------------------------------------------------------- #
# Collection-level equivalence with the serial oracle
# --------------------------------------------------------------------------- #
class TestBulkCollections:
    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(7)
        universe = 4096
        sets = random_sets(rng, 120, universe, max_size=150)
        return sets, universe

    def _build_pair(self, sets, universe, **kwargs):
        host = BatmapCollection.build(sets, universe, rng=5,
                                      build_compute="host", **kwargs)
        bulk = BatmapCollection.build(sets, universe, rng=5,
                                      build_compute="bulk", **kwargs)
        return host, bulk

    def test_counts_identical_batch_engine(self, workload):
        sets, universe = workload
        host, bulk = self._build_pair(sets, universe)
        assert host.build_plan.backend == "host"
        assert bulk.build_plan.backend == "bulk"
        assert np.array_equal(host.count_all_pairs(), bulk.count_all_pairs())

    def test_counts_identical_per_pair_reference(self, workload):
        sets, universe = workload
        host, bulk = self._build_pair(sets, universe)
        for i, j in [(0, 1), (3, 77), (50, 119), (12, 12)]:
            assert (count_common(host.batmap(i), host.batmap(j))
                    == count_common(bulk.batmap(i), bulk.batmap(j)))

    def test_counts_identical_parallel_executor(self, workload):
        from repro.parallel.executor import ParallelPairCounter

        sets, universe = workload
        host, bulk = self._build_pair(sets, universe)
        with ParallelPairCounter(bulk, workers=2) as counter:
            parallel_counts = counter.count_all_pairs()
        assert np.array_equal(parallel_counts, host.count_all_pairs())

    def test_failed_lists_identical(self, workload):
        sets, universe = workload
        host, bulk = self._build_pair(sets, universe)
        assert host.failed_insertions() == bulk.failed_insertions()
        for k in range(len(sets)):
            assert host.batmap(k).failed == bulk.batmap(k).failed

    def test_decode_round_trip(self, workload):
        sets, universe = workload
        _, bulk = self._build_pair(sets, universe)
        for k in range(len(sets)):
            bm = bulk.batmap(k)
            recovered = np.union1d(bm.decode_elements(),
                                   np.asarray(bm.failed, dtype=np.int64))
            assert np.array_equal(recovered, np.unique(sets[k]))

    def test_prebuilt_device_buffer_matches_lazy_packing(self, workload):
        sets, universe = workload
        _, bulk = self._build_pair(sets, universe)
        prebuilt = bulk._device_buffer
        assert prebuilt is not None  # bulk builds pre-assemble the buffer
        bulk._device_buffer = None
        lazy = bulk.device_buffer()
        assert np.array_equal(prebuilt.words, lazy.words)
        assert np.array_equal(prebuilt.offsets, lazy.offsets)
        assert np.array_equal(prebuilt.widths, lazy.widths)
        assert prebuilt.r0 == lazy.r0

    def test_unsorted_collection_counts_identical(self, workload):
        sets, universe = workload
        host, bulk = self._build_pair(sets, universe, sort_by_size=False)
        assert np.array_equal(host.count_all_pairs(), bulk.count_all_pairs())

    @pytest.mark.parametrize("payload_bits", [5, 7, 9])
    def test_counts_identical_across_payload_widths(self, payload_bits):
        rng = np.random.default_rng(11)
        config = BatmapConfig(payload_bits=payload_bits)
        universe = 300
        sets = random_sets(rng, 30, universe, max_size=40)
        host, bulk = (BatmapCollection.build(sets, universe, rng=2, config=config,
                                             build_compute=mode)
                      for mode in ("host", "bulk"))
        assert np.array_equal(host.count_all_pairs(), bulk.count_all_pairs())
        assert host.failed_insertions() == bulk.failed_insertions()
        if payload_bits > 7:
            assert bulk._device_buffer is None  # no packed form for wide entries

    def test_failure_heavy_collection_identical(self):
        """range_multiplier=1.0 voids the insertion-time bound: failures are
        common, and the oracle fallback must keep bulk == host exactly."""
        rng = np.random.default_rng(13)
        config = BatmapConfig(range_multiplier=1.0)
        universe = 2048
        sets = random_sets(rng, 60, universe, max_size=120, min_size=40)
        host = BatmapCollection.build(sets, universe, rng=3, config=config,
                                      build_compute="host")
        bulk = BatmapCollection.build(sets, universe, rng=3, config=config,
                                      build_compute="bulk")
        assert sum(len(v) for v in host.failed_insertions().values()) > 0
        assert host.failed_insertions() == bulk.failed_insertions()
        assert np.array_equal(host.count_all_pairs(), bulk.count_all_pairs())

    def test_empty_and_tiny_sets_in_collection(self):
        universe = 256
        sets = [np.array([], dtype=np.int64), np.array([3]), np.arange(50),
                np.array([], dtype=np.int64)]
        host, bulk = self._build_pair(sets, universe)
        assert np.array_equal(host.count_all_pairs(), bulk.count_all_pairs())
        assert len(bulk.batmap(0)) == 0 and len(bulk.batmap(1)) == 1

    def test_auto_plan_uses_host_below_floor_and_bulk_above(self):
        rng = np.random.default_rng(17)
        universe = 4096
        small = random_sets(rng, 10, universe, max_size=20)
        coll = BatmapCollection.build(small, universe, rng=1)
        assert coll.build_plan.backend == "host"
        large = random_sets(rng, 80, universe, max_size=100, min_size=40)
        coll = BatmapCollection.build(large, universe, rng=1)
        assert coll.build_plan.backend == "bulk"


# --------------------------------------------------------------------------- #
# Multiprocess bulk build
# --------------------------------------------------------------------------- #
class TestParallelBulkBuild:
    def test_parallel_build_bit_identical(self, monkeypatch):
        from repro.core import plan as plan_module

        monkeypatch.setattr(plan_module, "PARALLEL_BUILD_MIN_SETS", 1)
        monkeypatch.setattr(plan_module, "PARALLEL_BUILD_MIN_ELEMENTS", 1)
        rng = np.random.default_rng(19)
        universe = 2048
        sets = random_sets(rng, 50, universe, max_size=80)
        parallel = BatmapCollection.build(sets, universe, rng=4,
                                          build_compute="parallel",
                                          build_workers=2)
        assert parallel.build_plan.backend == "parallel"
        bulk = BatmapCollection.build(sets, universe, rng=4,
                                      build_compute="bulk")
        for k in range(len(sets)):
            assert np.array_equal(parallel.batmap(k).entries,
                                  bulk.batmap(k).entries)
            assert parallel.batmap(k).failed == bulk.batmap(k).failed
        assert np.array_equal(parallel._device_buffer.words,
                              bulk._device_buffer.words)

    def test_parallel_build_no_shm_residue(self, monkeypatch):
        import glob

        from repro.core import plan as plan_module

        monkeypatch.setattr(plan_module, "PARALLEL_BUILD_MIN_SETS", 1)
        monkeypatch.setattr(plan_module, "PARALLEL_BUILD_MIN_ELEMENTS", 1)
        rng = np.random.default_rng(23)
        sets = random_sets(rng, 20, 512, max_size=30)
        BatmapCollection.build(sets, 512, rng=4, build_compute="parallel",
                               build_workers=2)
        assert not glob.glob("/dev/shm/repro-batmap-*")

    def test_parallel_demotes_below_floor(self):
        rng = np.random.default_rng(29)
        sets = random_sets(rng, 10, 512, max_size=30)
        coll = BatmapCollection.build(sets, 512, rng=4,
                                      build_compute="parallel",
                                      build_workers=2)
        assert coll.build_plan.backend == "bulk"


# --------------------------------------------------------------------------- #
# Pipeline integration (mining / matrix)
# --------------------------------------------------------------------------- #
class TestPipelineIntegration:
    def test_miner_bulk_build_same_supports(self):
        from repro.datasets.synthetic import generate_density_instance
        from repro.mining.pair_mining import BatmapPairMiner

        db = generate_density_instance(60, 0.2, 4000, rng=0)
        reports = {}
        for mode in ("host", "bulk"):
            miner = BatmapPairMiner(compute="host", build_compute=mode)
            reports[mode] = miner.mine(db, min_support=2, rng=9)
        assert reports["bulk"].build_backend == "bulk"
        assert reports["host"].build_backend == "host"
        assert np.array_equal(reports["host"].supports.counts,
                              reports["bulk"].supports.counts)

    def test_multiply_batmap_bulk_build(self):
        from repro.matrix.boolean import SparseBooleanMatrix
        from repro.matrix.multiply import multiply_batmap, multiply_dense

        rng = np.random.default_rng(31)
        a = SparseBooleanMatrix.random(30, 80, density=0.3, rng=rng)
        b = SparseBooleanMatrix.random(80, 25, density=0.3, rng=rng)
        product = multiply_batmap(a, b, rng=3, build_compute="bulk")
        assert np.array_equal(product, multiply_dense(a, b))

    def test_levelwise_mining_bulk_build(self):
        from repro.datasets.synthetic import generate_density_instance
        from repro.mining.itemsets import BatmapItemsetMiner
        from repro.mining.pair_mining import BatmapPairMiner

        db = generate_density_instance(30, 0.3, 2500, rng=1)
        results = {}
        for mode in ("host", "bulk"):
            miner = BatmapItemsetMiner(
                BatmapPairMiner(compute="host", build_compute=mode), max_size=3)
            results[mode] = miner.mine(db, min_support=3, rng=9).itemsets
        assert results["host"] == results["bulk"]

    def test_cli_build_compute_flag(self, tmp_path):
        import io

        from repro.cli import main
        from repro.datasets.fimi_io import write_fimi
        from repro.datasets.synthetic import generate_density_instance

        db = generate_density_instance(40, 0.2, 2000, rng=2)
        path = tmp_path / "db.fimi"
        write_fimi(db, path)
        out = io.StringIO()
        assert main(["mine", str(path), "--min-support", "3",
                     "--compute", "batch", "--build-compute", "bulk"],
                    out=out) == 0
        text = out.getvalue()
        assert "build backend: bulk" in text

    def test_cli_levelwise_reports_build_backend(self, tmp_path):
        import io

        from repro.cli import main
        from repro.datasets.fimi_io import write_fimi
        from repro.datasets.synthetic import generate_density_instance

        db = generate_density_instance(30, 0.3, 2500, rng=1)
        path = tmp_path / "db.fimi"
        write_fimi(db, path)
        out = io.StringIO()
        assert main(["mine", str(path), "--min-support", "3", "--max-size", "3",
                     "--compute", "batch", "--build-compute", "parallel"],
                    out=out) == 0
        # Small input: the explicit parallel request demotes, and says so.
        assert "build backend: bulk (parallel fell back" in out.getvalue()

    def test_cli_intersect_build_compute(self, tmp_path):
        import io

        from repro.cli import main

        (tmp_path / "a.txt").write_text(" ".join(map(str, range(0, 400, 2))))
        (tmp_path / "b.txt").write_text(" ".join(map(str, range(0, 400, 3))))
        out = io.StringIO()
        assert main(["intersect", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                     "--compute", "auto", "--build-compute", "bulk"],
                    out=out) == 0
        text = out.getvalue()
        assert "intersection size (batmap): 67" in text
        assert "build backend: bulk" in text

    def test_cli_intersect_multiway_build_compute(self, tmp_path):
        import io

        from repro.cli import main

        for name, step in (("a", 2), ("b", 3), ("c", 5)):
            (tmp_path / f"{name}.txt").write_text(
                " ".join(map(str, range(0, 600, step))))
        out = io.StringIO()
        assert main(["intersect", str(tmp_path / "a.txt"),
                     str(tmp_path / "b.txt"), str(tmp_path / "c.txt"),
                     "--build-compute", "bulk"], out=out) == 0
        text = out.getvalue()
        assert "intersection size (batmap): 20" in text  # multiples of 30 < 600
        assert "build backend: bulk" in text
