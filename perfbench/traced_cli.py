"""Run one ``repro`` CLI command with spans around each layer's entry points.

Usage::

    python3 perfbench/traced_cli.py TRACE.json -- <repro arguments...>

The program's source is not modified: after ``import repro.cli`` (itself a
span), this script replaces public functions at the bindings their callers
use with traced wrappers, then calls ``repro.cli.main``.  Counters come from
the values those functions return (``MiningReport``, ``CountResult`` and the
simulator's run result).  The trace and its summary are written on exit,
also when a server is stopped with SIGINT.
"""

from __future__ import annotations

import os
import sys
import time

EPOCH_NS = time.perf_counter_ns()

from tracer import Tracer  # noqa: E402  (the epoch is taken before any import)


def _module(name: str):
    # `import repro.mining.preprocess` can return a re-exported function of
    # the same name, so look modules up by their import path.
    __import__(name)
    return sys.modules[name]


def _count_result(tracer: Tracer, result) -> None:
    """Record what one counting call kept (last outermost call wins)."""
    stats = getattr(result, "stats", None)
    if stats is not None:
        tracer.counters["count.tiles_total"] = stats.get("tiles_total", 0)
        tracer.counters["count.tiles_skipped"] = stats.get("tiles_skipped", 0)
        tracer.counters["count.result_nnz"] = result.nnz
        tracer.counters["count.result_bytes"] = result.result_bytes
        tracer.labels["plan.result_format"] = result.format
    elif hasattr(result, "nbytes"):          # dense sorted-order matrix
        n = result.shape[0]
        tracer.counters["count.result_nnz"] = n * (n - 1) // 2
        tracer.counters["count.result_bytes"] = result.nbytes
        tracer.labels["plan.result_format"] = "dense"


def install(tracer: Tracer, command: str) -> None:
    """Wrap the entry points of every layer the benchmark reports."""
    cli = _module("repro.cli")
    streaming = _module("repro.datasets.streaming")
    preprocess = _module("repro.mining.preprocess")
    pair_mining = _module("repro.mining.pair_mining")
    collection = _module("repro.core.collection")
    core_sharded = _module("repro.core.sharded")
    batch = _module("repro.core.batch")
    executor = _module("repro.parallel.executor")
    par_sharded = _module("repro.parallel.sharded")
    support = _module("repro.mining.support")
    add = tracer.add

    # datasets: one pass per read / scan / chunk stream / repair re-read.
    def parsed(result, _args):
        add("datasets.passes", 1)
        n = getattr(result, "n_transactions", None)
        add("datasets.transactions", len(result) if n is None else n)

    tracer.patch(cli, "read_fimi", "datasets.read_fimi", "datasets", parsed)
    for owner in (streaming, preprocess):
        tracer.patch(owner, "scan_fimi_stats", "datasets.scan_fimi_stats",
                     "datasets", parsed)
    tracer.patch(pair_mining, "collect_transactions",
                 "datasets.collect_transactions", "datasets", parsed)
    chunks = tracer.wrap(streaming.iter_fimi_chunks, "datasets.iter_fimi_chunks",
                         "datasets",
                         lambda chunk, _a: add("datasets.transactions",
                                               chunk.n_transactions),
                         generator=True)

    def iter_chunks(*args, **kwargs):
        add("datasets.passes", 1)
        return chunks(*args, **kwargs)

    preprocess.iter_fimi_chunks = iter_chunks

    # mining: orchestration, plan labels from the report.
    def mined(report, _args):
        tracer.labels["plan.count_backend"] = report.count_backend
        tracer.labels["plan.build_backend"] = report.build_backend

    for attr in ("mine", "mine_stream"):
        tracer.patch(pair_mining.BatmapPairMiner, attr, f"mining.{attr}",
                     "mining", mined)

    def preprocessed(pre, _args):
        tracer.counters["preprocess.items_kept"] = int(pre.item_map.size)
        fmt = getattr(pre, "result_format", None)
        if fmt is not None:
            tracer.labels["plan.result_format"] = fmt

    for owner in (pair_mining, preprocess):
        for attr in ("preprocess", "preprocess_streaming"):
            tracer.patch(owner, attr, f"preprocess.{attr}", "preprocess",
                         preprocessed)

    # core: batmap construction (in memory, or one call per shard).
    def built(coll, _args):
        add("core.sets_built", len(coll))
        add("core.failed_insertions",
            sum(len(v) for v in coll.failed_insertions().values()))
        add("core.packed_bytes", coll.memory_bytes)
        plan = getattr(coll, "build_plan", None)
        if plan is not None:
            tracer.labels.setdefault("plan.build_backend", plan.backend)

    tracer.patch(collection.BatmapCollection, "build", "core.build", "core", built)

    # spill: shard staging, commit, and re-attach.
    builder = core_sharded.ShardedCollectionBuilder
    tracer.patch(builder, "add_shard", "spill.add_shard", "spill",
                 lambda _r, _a: add("spill.shards", 1))
    tracer.patch(builder, "finalize", "spill.finalize", "spill",
                 lambda coll, _a: tracer.counters.__setitem__(
                     "spill.packed_bytes", coll.total_packed_bytes))
    tracer.patch(core_sharded.ShardedCollection, "attach", "spill.attach", "spill")
    tracer.patch(core_sharded.ShardedCollection, "from_spill",
                 "spill.from_spill", "spill")

    # count: every engine's all-pairs entry point.
    counted = lambda result, _a: _count_result(tracer, result)  # noqa: E731
    for owner, attrs in ((batch.BatchPairCounter, ("counts_sorted", "count_result")),
                         (executor.ParallelPairCounter,
                          ("start", "close", "counts_sorted", "count_result")),
                         (par_sharded.ShardedPairCounter, ("counts", "count_result"))):
        for attr in attrs:
            tracer.patch(owner, attr, f"count.{owner.__name__}.{attr}", "count",
                         counted if attr not in ("start", "close") else None)

    # kernels/gpu: the simulated device run (modelled values are labelled).
    def simulated(run, _args):
        tracer.counters["sim.modelled_device_s"] = run.device_seconds
        tracer.counters["sim.device_bytes"] = run.total_device_bytes
        tracer.counters["sim.coalescing_efficiency"] = run.coalescing_efficiency
        tracer.counters["sim.tiles"] = run.tiles
        _count_result(tracer, run.result if run.result is not None else run.counts)

    tracer.patch(pair_mining, "run_batmap_pair_counts", "sim.run_batmap_pair_counts",
                 "sim", simulated)

    # postprocess: reorder + repair, then thresholding.
    for attr in ("reorder_counts", "repair_pair_counts", "repair_count_result",
                 "repair_pair_counts_from_failures"):
        tracer.patch(pair_mining, attr, f"post.{attr}", "post")
    tracer.patch(support.PairSupports, "frequent_pairs", "post.frequent_pairs",
                 "post", lambda pairs, _a: tracer.counters.__setitem__(
                     "post.frequent_pairs", len(pairs)))

    if command == "serve":
        _install_serve(tracer)


def _install_serve(tracer: Tracer) -> None:
    """Serve layer: engine calls per op, codec, and batcher queue wait."""
    from collections import deque

    server = _module("repro.serve.server")
    engine = _module("repro.serve.engine").SpillQueryEngine
    batcher = _module("repro.serve.batcher").RequestBatcher
    for attr, op in (("count_pairs", "count"), ("members_batch", "member"),
                     ("top_k_batch", "topk")):
        tracer.patch(engine, attr, f"serve.engine.{op}", "serve")
    for attr in ("decode_request", "normalize_params", "encode_message"):
        tracer.patch(server, attr, f"serve.codec.{attr}", "serve")

    # The queue is FIFO, so each executed batch takes the oldest submit
    # stamps; the wait ends when the executor thread starts the batch.
    # (A request that times out in the queue is skipped without a stamp
    # being taken; at the benchmark's loads none does.)
    stamps: deque = deque()
    submit, execute = getattr(batcher, "submit", None), getattr(batcher, "_execute", None)
    if submit is None or execute is None:
        tracer.missing.append("RequestBatcher.submit/_execute")
        return

    def timed_submit(self, op, params):
        future = submit(self, op, params)
        stamps.append(time.perf_counter())
        return future

    def timed_execute(self, items):
        started = time.perf_counter()
        for _ in items:
            if stamps:
                tracer.add("serve.queue_wait_s", started - stamps.popleft())
                tracer.add("serve.queue_waits", 1)
        return execute(self, items)

    batcher.submit, batcher._execute = timed_submit, timed_execute


def main() -> int:
    trace_path, separator, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if separator != "--":
        raise SystemExit("usage: traced_cli.py TRACE.json -- <repro arguments>")
    tracer = Tracer(EPOCH_NS)
    code = 1
    try:
        with tracer.span("cli.import", "cli"):
            import repro.cli
        install(tracer, argv[0] if argv else "")
        with tracer.span("cli.main", "cli"):
            try:
                code = repro.cli.main(argv)
            except KeyboardInterrupt:
                code = 0
    finally:
        tracer.write(trace_path, os.getpid())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
