"""Real multiprocess pair counting over a shared-memory device buffer.

Everything else in :mod:`repro.parallel` *models* parallel execution (the
split-and-max methodology of Figure 9, the bandwidth-saturation model of
Figure 11).  This module actually runs it: it is the pool half of the tile
pipeline (:mod:`repro.core.pipeline`).

* :func:`open_pool` is the one process pool behind pair counting — one
  initializer that attaches a tile source (the packed buffer placed in
  ``multiprocessing.shared_memory`` by :class:`SharedIndexSource`, or the
  memory-mapped shards of :class:`~repro.parallel.sharded.SpillSource`) and
  one worker entry that counts a tile with the width-class SWAR engine
  (:class:`~repro.core.batch.WidthClassIndex`).
* :func:`run_on_pool` is the runner's pool mode: a small, worker-derived
  number of tiles stays in flight, and each finished tile goes straight
  into the query's sink.  Nothing is buffered, so the parent holds the
  sink's own result plus the in-flight tiles — a sparse result stays
  proportional to its entries.
* :class:`ParallelPairCounter` is the batch engine with this runner: the
  same queries over the same tiles, so the counts are bit-identical to
  ``compute="batch"`` on every workload (all-pairs, explicit pair lists,
  cross rectangles, sparse and top-k results).

Lifecycle / safety:

* :class:`ParallelPairCounter` is a context manager; ``close()`` (and hence
  ``__exit__``) shuts the pool down and **unlinks** the shared segment even
  when a worker died or a query raised, so no ``/dev/shm`` residue survives
  a failure;
* a ``weakref.finalize`` safety net unlinks the segment at garbage
  collection / interpreter exit if a caller never closed the counter;
* workers attach without taking ``multiprocessing.resource_tracker``
  ownership (``track=False`` on Python 3.13+), so the parent's ``unlink``
  stays the segment's single owner and no "leaked shared_memory" warnings
  are emitted at shutdown.

Small inputs are not worth a process pool: the workload planner
(:func:`repro.core.plan.plan_counts`) falls an explicit ``"parallel"``
request back to ``"batch"`` below :data:`PARALLEL_MIN_SETS` or when only
one worker is available.
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.batch import DEFAULT_BLOCK_WORDS, BatchPairCounter, WidthClassIndex
from repro.core.pipeline import DEFAULT_TILE_CAP, auto_tile_edge, count_block, run_tiles
from repro.parallel.scaling import ScalingPoint
from repro.utils.validation import require, require_positive

__all__ = [
    "SHM_PREFIX",
    "PARALLEL_MIN_SETS",
    "MAX_AUTO_WORKERS",
    "DEFAULT_TILE_CAP",
    "SharedDeviceBuffer",
    "SharedIndexSource",
    "ParallelPairCounter",
    "open_pool",
    "run_on_pool",
    "auto_tile_edge",
    "resolve_worker_count",
    "measure_executor_scaling",
]

#: Prefix of every shared-memory segment the executor creates; the leak
#: regression tests scan ``/dev/shm`` for it.
SHM_PREFIX = "repro-batmap-"

#: Below this many sets the pool/segment setup dominates the counting work
#: and the serial batch engine wins; the planner falls ``"parallel"`` back.
PARALLEL_MIN_SETS = 256

#: Auto-selected worker counts are capped here: the pair-count kernel is
#: memory-bound, so (exactly as Figure 11 measures for the CPU SWAR loop)
#: throughput saturates within a socket long before high core counts.
MAX_AUTO_WORKERS = 8


def resolve_worker_count(workers=None) -> int:
    """Number of worker processes to use.

    ``None`` auto-selects ``min(os.cpu_count(), MAX_AUTO_WORKERS)``; explicit
    values are validated but honoured even beyond the core count (useful for
    oversubscription experiments).
    """
    if workers is None:
        return max(1, min(os.cpu_count() or 1, MAX_AUTO_WORKERS))
    require_positive(workers, "workers")
    return int(workers)


# --------------------------------------------------------------------------- #
# Shared segment (parent side)
# --------------------------------------------------------------------------- #
def _unlink_quietly(shm: shared_memory.SharedMemory) -> None:
    """Best-effort close + unlink used by error paths and the GC safety net."""
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass


class SharedDeviceBuffer:
    """A packed device buffer copied once into a named shared-memory segment.

    Created by the parent; workers re-attach by :attr:`name` and view the
    words zero-copy.  Context-manager exit (or :meth:`unlink`) removes the
    segment; a finalizer removes it at garbage collection as a last resort.
    """

    def __init__(self, words: np.ndarray) -> None:
        words = np.ascontiguousarray(words, dtype=np.uint32)
        require(words.size > 0, "cannot share an empty device buffer")
        self.n_words = int(words.size)
        self._shm = None
        for _ in range(16):
            name = f"{SHM_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
            try:
                self._shm = shared_memory.SharedMemory(
                    create=True, size=words.nbytes, name=name
                )
                break
            except FileExistsError:  # pragma: no cover - 2^32 collision
                continue
        if self._shm is None:  # pragma: no cover
            raise OSError("could not allocate a uniquely named shared-memory segment")
        view = np.frombuffer(self._shm.buf, dtype=np.uint32, count=self.n_words)
        view[:] = words
        del view  # the mmap cannot close while ndarray views are alive
        self._finalizer = weakref.finalize(self, _unlink_quietly, self._shm)

    @property
    def name(self) -> str:
        return self._shm.name

    def unlink(self) -> None:
        """Close the mapping and remove the segment (idempotent)."""
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "SharedDeviceBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


# --------------------------------------------------------------------------- #
# The pool: one initializer, one worker entry
# --------------------------------------------------------------------------- #
_worker_shm = None
_worker_indexes = None


def _attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without taking resource-tracker ownership.

    Python < 3.13 registers every attachment with the resource tracker.
    Pool workers share the parent's tracker process, whose cache is a set —
    so the duplicate registration is a harmless no-op and the parent's
    ``unlink()`` remains the single owner.  (A worker must *not* unregister:
    that would steal the parent's entry and make the parent's own unlink
    fail inside the tracker.)  3.13+ skips the registration entirely via
    ``track=False``.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True, eq=False)
class SharedIndexSource:
    """Tile source of a packed buffer held in a shared-memory segment.

    Only the per-slot offset/width metadata travels by pickle, once per
    worker; :meth:`attach` views the words zero-copy.
    """

    name: str
    n_words: int
    offsets: np.ndarray
    widths: np.ndarray
    block_words: int

    def attach(self) -> list:
        # The worker keeps the segment in a module global: the mapping must
        # outlive every ndarray view of it for the worker's lifetime.
        global _worker_shm
        _worker_shm = _attach_shared_memory(self.name)
        words = np.frombuffer(_worker_shm.buf, dtype=np.uint32, count=self.n_words)
        return [WidthClassIndex(words, self.offsets, self.widths,
                                block_words=self.block_words)]


def _init_worker(source) -> None:
    """Pool initializer: attach the tile source (shared memory or spill) once."""
    global _worker_indexes
    _worker_indexes = source.attach()


def _count_tile(tile) -> np.ndarray:
    """The worker entry: one tile's counts over the attached source."""
    return count_block(_worker_indexes, tile)


def open_pool(workers: int, source, mp_context=None) -> ProcessPoolExecutor:
    """The pair-counting process pool; every worker attaches ``source`` once.

    ``source`` is any picklable object whose ``attach()`` returns an
    indexable of :class:`~repro.core.batch.WidthClassIndex` (one per
    shard): :class:`SharedIndexSource` for an in-memory collection,
    :class:`~repro.parallel.sharded.SpillSource` for spilled shards.
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context or multiprocessing.get_context(),
        initializer=_init_worker,
        initargs=(source,),
    )


def run_on_pool(pool: ProcessPoolExecutor, workers: int, tiles, sink) -> dict:
    """:func:`~repro.core.pipeline.run_tiles` with the tiles counted by ``pool``.

    Two tiles per worker stay in flight: enough that no worker idles while
    the parent feeds a finished tile to the sink, few enough that the
    parent's resident tiles stay a small constant.
    """
    return run_tiles(tiles, sink, submit=lambda tile: pool.submit(_count_tile, tile),
                     max_inflight=2 * workers)


# --------------------------------------------------------------------------- #
# Parent-side executor
# --------------------------------------------------------------------------- #
class ParallelPairCounter(BatchPairCounter):
    """Multiprocess counterpart of :class:`~repro.core.batch.BatchPairCounter`.

    Use as a context manager::

        with ParallelPairCounter(collection, workers=4) as counter:
            counts = counter.count_all_pairs()

    The queries are the batch engine's (:meth:`counts_sorted`,
    :meth:`count_all_pairs`, :meth:`count_result`, :meth:`count_pairs`,
    :meth:`count_cross`, ...) and return bit-identical results; only the
    runner differs — tiles are counted by the pool and each finished tile
    goes straight into the query's sink.
    """

    def __init__(
        self,
        collection,
        *,
        workers=None,
        tile_size=None,
        block_words: int = DEFAULT_BLOCK_WORDS,
        mp_context=None,
    ) -> None:
        if tile_size is not None:
            require_positive(tile_size, "tile_size")
        super().__init__(collection, block_words=block_words)
        self.workers = resolve_worker_count(workers)
        self.tile_size = tile_size
        self._mp_context = mp_context
        self._shared = None
        self._pool = None

    # Bound in this class's own namespace so each engine's query entry
    # points can be instrumented separately (perfbench/traced_cli.py).
    counts_sorted = BatchPairCounter.counts_sorted
    count_result = BatchPairCounter.count_result

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ParallelPairCounter":
        """Create the shared segment and spin up the pool (idempotent)."""
        if self._pool is not None:
            return self
        buffer = self.collection.device_buffer()
        self._shared = SharedDeviceBuffer(buffer.words)
        try:
            self._pool = open_pool(
                self.workers,
                SharedIndexSource(self._shared.name, self._shared.n_words,
                                  buffer.offsets, buffer.widths, self.block_words),
                self._mp_context,
            )
        except BaseException:
            self._shared.unlink()
            self._shared = None
            raise
        return self

    def close(self) -> None:
        """Shut the pool down and unlink the segment (idempotent, error-safe)."""
        pool, self._pool = self._pool, None
        shared, self._shared = self._shared, None
        try:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        finally:
            if shared is not None:
                shared.unlink()

    def __enter__(self) -> "ParallelPairCounter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _run(self, tiles, sink):
        """Count tiles on the pool, streaming each finished one into ``sink``."""
        self.start()
        return sink.result(run_on_pool(self._pool, self.workers, tiles, sink))


# --------------------------------------------------------------------------- #
# Measured scaling (the non-simulated Figure 9 counterpart)
# --------------------------------------------------------------------------- #
def measure_executor_scaling(
    collection,
    worker_counts=(1, 2, 4),
    *,
    tile_size=None,
    repeats: int = 1,
) -> list:
    """Wall-clock the executor's all-pairs counting at several worker counts.

    Unlike :func:`~repro.parallel.scaling.measure_split_scaling` — which
    *simulates* parallelism by splitting the instance and taking the max part
    time — every point here is a real end-to-end run: segment creation, pool
    startup, tile fan-out and the sink reduction are all inside the measured
    window.  Returns :class:`~repro.parallel.scaling.ScalingPoint` objects so
    :func:`~repro.parallel.scaling.relative_speedups` applies unchanged.

    The tile size is pinned across worker counts (auto-tiling would shrink
    tiles as workers grow, and tile size alone changes cache behaviour —
    conflating blocking effects with parallel speed-up).  An untimed warm-up
    run precedes the measurements — the first pass over a fresh collection
    pays one-off costs (buffer page-in, allocator growth) that would
    otherwise be billed to whichever worker count happens to run first — and
    with ``repeats > 1`` the repeats are the outer loop, so background-load
    drift hits every worker count alike (the E5 timing discipline).
    """
    require_positive(repeats, "repeats")
    require(len(worker_counts) > 0, "worker_counts must not be empty")
    if tile_size is None:
        tile_size = auto_tile_edge(len(collection), max(worker_counts))

    def run_once(workers) -> float:
        start = time.perf_counter()
        with ParallelPairCounter(
            collection, workers=workers, tile_size=tile_size
        ) as counter:
            counter.counts_sorted()
        return time.perf_counter() - start

    run_once(worker_counts[0])  # warm-up, untimed
    best = {workers: float("inf") for workers in worker_counts}
    for _ in range(repeats):
        for workers in worker_counts:
            best[workers] = min(best[workers], run_once(workers))
    return [
        ScalingPoint(cores=int(workers), seconds=best[workers],
                     part_seconds=(best[workers],), merge_seconds=0.0)
        for workers in worker_counts
    ]
