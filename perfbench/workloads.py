"""The four workloads: inputs, timed CLI runs, output checks, metrics.

Each ``run_*`` function returns an :class:`Outcome`.  With ``trace=False``
it measures the end-to-end metrics with tracing off; with ``trace=True``
it alternates traced and untraced runs of the same command and derives the
per-layer metrics from the traced ones (medians over runs).
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import loadgen
import serving
from config import MIN_TIMED_RUNS, MINE, PROC_TIMEOUT, SERVE, SETUP_RUNS, TRACE_PAIRS
from procs import Env

__all__ = ["Outcome", "WORKLOADS", "run_workload"]

WORKLOADS = ("mine-inmem", "mine-stream", "mine-device", "serve-mixed")

_MEGA = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> (value, sample count)
    metrics: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), int(samples))


def _median(values) -> float:
    return float(statistics.median(values))


def _bytes(size: str) -> int:
    return int(size[:-1]) * _MEGA[size[-1]]


def _instance(spec: dict, rng: np.random.Generator) -> inputs.Instance:
    if spec["kind"] == "density":
        return inputs.density_instance(spec["items"], spec["density"],
                                       spec["transactions"], rng)
    return inputs.zipf_instance(spec["items"], spec["transactions"],
                                spec["mean_length"], spec["exponent"], rng)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _hash_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _interleaved(cold, warm, seconds: float, min_warm: int) -> tuple:
    """Cold set-ups spread among warm timed runs; returns both lists.

    Warm runs go on until their walls add up to ``seconds`` (and number at
    least ``min_warm``).  One of the ``SETUP_RUNS`` cold runs comes first and
    another each time ``seconds / SETUP_RUNS`` more warm time has passed, so
    both medians sample the whole run rather than one phase of a host whose
    CPU speed drifts.
    """
    setups, timed, spent = [], [], 0.0
    while len(setups) < SETUP_RUNS or len(timed) < min_warm or spent < seconds:
        if len(setups) < SETUP_RUNS and spent >= len(setups) * seconds / SETUP_RUNS:
            setups.append(cold())
        else:
            timed.append(warm())
            spent += timed[-1].wall_s
    return setups, timed


# --------------------------------------------------------------------------- #
# Per-layer metrics from one traced run
# --------------------------------------------------------------------------- #
def layer_metrics(summary: dict, wall_s: float) -> dict:
    """Named per-layer metrics of one traced CLI process of ``wall_s``."""
    inc = summary["inclusive_s"]
    top = summary["layer_top_s"]
    own = summary["name_self_s"]
    c = summary["counters"]
    kept = c.get("preprocess.items_kept", 0)
    count_s = top.get("count", 0.0)
    nnz = c.get("count.result_nnz", 0)
    return {
        "cli.import_s": inc.get("cli.import", 0.0),
        "cli.report_s": own.get("cli.main", 0.0),
        "datasets.parse_s": top.get("datasets", 0.0),
        "datasets.passes": c.get("datasets.passes", 0),
        "datasets.transactions": c.get("datasets.transactions", 0),
        "preprocess.self_s": summary["self_s"].get("preprocess", 0.0),
        "preprocess.items_kept": kept,
        "core.build_s": top.get("core", 0.0),
        "core.sets_built": c.get("core.sets_built", 0),
        "core.failed_insertions": c.get("core.failed_insertions", 0),
        "core.packed_bytes": c.get("core.packed_bytes", 0),
        "spill.commit_s": own.get("spill.add_shard", 0.0) + inc.get("spill.finalize", 0.0),
        "spill.attach_s": inc.get("spill.attach", 0.0) + inc.get("spill.from_spill", 0.0),
        "spill.shards": c.get("spill.shards", 0),
        "spill.packed_bytes": c.get("spill.packed_bytes", 0),
        "count.s": count_s,
        "count.tiles_total": c.get("count.tiles_total", 0),
        "count.tiles_skipped": c.get("count.tiles_skipped", 0),
        "count.result_nnz": nnz,
        "count.result_bytes": c.get("count.result_bytes", 0),
        "count.useful_ratio": c.get("post.frequent_pairs", 0) / nnz if nnz else 0.0,
        "count.pairs_per_s": kept * (kept - 1) / 2 / count_s if count_s else 0.0,
        "sim.s": top.get("sim", 0.0),
        "sim.modelled_device_s": c.get("sim.modelled_device_s", 0.0),
        "sim.device_bytes": c.get("sim.device_bytes", 0),
        "sim.coalescing_efficiency": c.get("sim.coalescing_efficiency", 0.0),
        "sim.tiles": c.get("sim.tiles", 0),
        "post.repair_s": sum(inc.get(name, 0.0) for name in (
            "post.reorder_counts", "post.repair_pair_counts",
            "post.repair_count_result", "post.repair_pair_counts_from_failures",
            "datasets.collect_transactions")),
        "post.threshold_s": inc.get("post.frequent_pairs", 0.0),
        "trace.residual_s": wall_s - summary["main_roots_s"],
    }


def _ledger(summary: dict, wall_s: float) -> dict:
    """Self time per layer plus the residual; sums to the traced wall."""
    ledger = {layer: round(s, 4) for layer, s in sorted(summary["self_s"].items())}
    ledger["(outside spans)"] = round(wall_s - summary["main_roots_s"], 4)
    return ledger


class _Traced:
    """Medians of per-layer metrics over several traced runs."""

    def __init__(self) -> None:
        self.runs: list = []
        self.labels: dict = {}
        self.ledger: dict = {}
        self.missing: list = []

    def add(self, trace_path: Path, wall_s: float) -> None:
        summary = json.loads(trace_path.read_text())["otherData"]
        self.runs.append(layer_metrics(summary, wall_s))
        self.labels = summary["labels"]
        self.ledger = _ledger(summary, wall_s)
        self.missing = summary["missing"]

    def into(self, outcome: Outcome) -> None:
        for name in self.runs[0]:
            outcome.put(name, _median([r[name] for r in self.runs]), len(self.runs))
        outcome.record.update(labels=self.labels, ledger=self.ledger,
                              unpatched=self.missing)


# --------------------------------------------------------------------------- #
# mine-*
# --------------------------------------------------------------------------- #
def run_mine(name: str, seed: int, seconds: float, trace: bool, env: Env) -> Outcome:
    spec = MINE[name]
    rng = _rng(name, seed)
    instance = _instance(spec["instance"], rng)
    fimi = env.work / "input.fimi"
    inputs.write_fimi(instance, fimi)
    min_support = spec.get("min_support") or instance.support_keeping(spec["kept_items"])
    expected = inputs.format_pairs(inputs.pair_oracle(instance, min_support))
    pairs = env.work / "pairs.txt"
    args = ["mine", str(fimi), "--min-support", str(min_support),
            "--seed", _hash_seed(rng), "--top", "0", "--pairs-out", str(pairs),
            *spec["args"]]
    out = Outcome(record={"instance": {**spec["instance"],
                                       "occurrences": instance.occurrences,
                                       "frequent_pairs": expected.count("\n")},
                          "command": ["repro", *args]})

    def invoke(trace_path=None, cold=False, command=args):
        pairs.unlink(missing_ok=True)
        proc = env.run(command, timeout=PROC_TIMEOUT, trace_path=trace_path, cold=cold)
        ok = proc.returncode == 0 and pairs.exists() and pairs.read_text() == expected
        out.check(ok, f"{' '.join(command[:1])} exit {proc.returncode}: "
                      f"{proc.output[-400:]}" if proc.returncode else
                      "pairs differ from the oracle")
        return proc

    if not trace:
        setups, timed = _interleaved(lambda: invoke(cold=True), invoke, seconds,
                                     MIN_TIMED_RUNS)
        out.put("wall_s", _median([p.wall_s for p in timed]), len(timed))
        out.put("setup_s", _median([p.wall_s for p in setups]), len(setups))
        out.record["walls_s"] = {"setup": [round(p.wall_s, 4) for p in setups],
                                 "timed": [round(p.wall_s, 4) for p in timed]}
        out.put("peak_rss_mb", max(p.peak_rss_mb for p in setups + timed),
                len(setups) + len(timed))
        return out

    invoke()                                   # warm bytecode, not measured
    traced, walls, rss = _Traced(), [], []
    start = time.perf_counter()
    k = 0
    while k < 1 or time.perf_counter() - start < seconds:
        path = env.work / f"trace-{k}.json"
        proc = invoke(trace_path=path)
        traced.add(path, proc.wall_s)
        plain = invoke()
        walls.append((proc.wall_s, plain.wall_s))
        rss.append(plain.peak_rss_mb)
        k += 1
    traced.into(out)
    traced_wall = _median([t for t, _ in walls])
    plain_wall = _median([p for _, p in walls])
    out.put("trace.overhead_frac", traced_wall / plain_wall - 1.0, len(walls))
    if "budget" in spec:
        out.put("spill.rss_over_budget",
                _median(rss) * (1 << 20) / _bytes(spec["budget"]), len(rss))
    if name == "mine-inmem":
        baseline = invoke(command=args + ["--engine", "fpgrowth"])
        out.put("baselines.fpgrowth_s", baseline.wall_s)
        out.put("baselines.speedup_vs_fpgrowth", baseline.wall_s / plain_wall)
    return out


# --------------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------------- #
def _serve_plan(seconds: float) -> list:
    """The fixed rate ladder as ``(rate, seconds)``, scaled to ``seconds``.

    The low and high rungs run ``long_step`` times longer than the others,
    so their p99 rests on enough samples.
    """
    weights = [SERVE["long_step"] if rate in (SERVE["low"], SERVE["high"]) else 1.0
               for rate in SERVE["ladder"]]
    unit = seconds / sum(weights)
    return [(rate, w * unit) for rate, w in zip(SERVE["ladder"], weights)]


def _serve_metrics(out: Outcome, steps: list, server_metrics: dict) -> None:
    """Client-side latencies per rung, sustained rate, server counters."""
    limit = SERVE["p99_limit_ms"]
    sustained = max((s.rate for s in steps if s.meets(limit)), default=0.0)
    by_rate = {step.rate: step for step in steps if step.ran}
    for tag in ("low", "high"):
        step = by_rate.get(float(SERVE[tag]))
        n = step.latency_ms.size if step else 0
        out.put(f"latency_p50_ms.{tag}", step.p(50) if step else 0.0, n)
        out.put(f"latency_p99_ms.{tag}", step.p(99) if step else 0.0, n)
    out.put("sustained_rps", sustained, sum(1 for s in steps if s.ran))
    late = np.concatenate([s.late_ms for s in steps if s.ran])
    out.put("serve.generator_late_ms", loadgen.percentile(late, 99), late.size)
    per_op = server_metrics.get("latency_by_op", {})
    counts = {op: v["count"] for op, v in per_op.items()}
    main_op = max(counts, key=counts.get) if counts else None
    out.put("serve.server_p50_ms", per_op[main_op]["p50_ms"] if main_op else 0.0)
    out.put("serve.server_p99_ms", per_op[main_op]["p99_ms"] if main_op else 0.0)
    out.put("serve.mean_batch_size", server_metrics.get("mean_batch_size", 0.0))
    out.put("serve.queue_high_water", server_metrics.get("queue_high_water", 0))
    out.put("serve.cache_hit_rate", server_metrics.get("cache", {}).get("hit_rate", 0.0))
    out.record["serve_steps"] = [
        {"rate": s.rate, "sent": s.sent, "p50_ms": round(s.p(50), 3),
         "p99_ms": round(s.p(99), 3), "failed": s.failed,
         "backlog": s.backlog(limit)} for s in steps if s.ran]
    out.record["server_op_counts"] = counts


def run_serve(seed: int, seconds: float, trace: bool, env: Env) -> Outcome:
    rng = _rng("serve-mixed", seed)
    instance = _instance(SERVE["instance"], rng)
    fimi = env.work / "input.fimi"
    inputs.write_fimi(instance, fimi)
    spill = env.work / "spill"
    build = ["build-index", str(fimi), str(spill), "--min-support",
             str(instance.support_keeping(SERVE["index_sets"])),
             "--memory-budget", SERVE["budget"],
             "--seed", _hash_seed(rng)]
    serve = ["serve", str(spill)]
    out = Outcome(record={"instance": {**SERVE["instance"],
                                       "occurrences": instance.occurrences},
                          "command": ["repro", *build]})

    def index(trace_path=None, cold=False):
        shutil.rmtree(spill, ignore_errors=True)
        proc = env.run(build, timeout=PROC_TIMEOUT, trace_path=trace_path, cold=cold)
        out.check(proc.returncode == 0,
                  f"build-index exit {proc.returncode}: {proc.output[-400:]}")
        return proc

    def stop(server):
        server.stop(PROC_TIMEOUT)
        out.check(server.returncode == 0,
                  f"serve exit {server.returncode}: {server.output[-400:]}")

    def load(server, steps):
        metrics = loadgen.run_steps(server.address, steps,
                                    connections=serving.connections(),
                                    drain_s=SERVE["drain_s"],
                                    p99_limit_ms=SERVE["p99_limit_ms"],
                                    keep_going=(SERVE["low"], SERVE["high"]))
        for step in steps:
            if step.ran:
                out.attempted += step.sent
                out.failed += step.failed
                if step.failed:
                    out.problems.append(f"{step.failed} failed requests at "
                                        f"{step.rate:g} req/s")
        return metrics

    rss = []
    if not trace:
        def setup():
            proc = index(cold=True)
            server = env.start_server(serve, timeout=PROC_TIMEOUT)
            stop(server)
            rss.extend([proc.peak_rss_mb, server.peak_rss_mb])
            return proc.wall_s + server.start_s

        setups, builds = _interleaved(setup, index, seconds, SERVE["min_builds"])
        rss += [p.peak_rss_mb for p in builds]
        out.put("wall_s", _median([p.wall_s for p in builds]), len(builds))
        out.put("setup_s", _median(setups), len(setups))
        out.record["walls_s"] = {"setup": [round(s, 4) for s in setups],
                                 "timed": [round(p.wall_s, 4) for p in builds]}
    else:
        index()                                # warm bytecode, not measured
        traced, pairs = _Traced(), []
        for k in range(TRACE_PAIRS):
            path = env.work / f"trace-build-{k}.json"
            pairs.append((index(trace_path=path), index()))
            traced.add(path, pairs[-1][0].wall_s)
        traced.into(out)
        out.put("trace.overhead_frac",
                _median([t.wall_s for t, _ in pairs])
                / _median([p.wall_s for _, p in pairs]) - 1.0, len(pairs))
        out.put("spill.rss_over_budget",
                _median([p.peak_rss_mb for _, p in pairs]) * (1 << 20)
                / _bytes(SERVE["budget"]), len(pairs))

    if out.failed:                             # no artifact to serve
        return out
    item_map = np.load(spill / "item_map.npy")
    oracle = serving.Oracle(instance, item_map, serving.read_failures(env.src, spill))
    # Untraced runs report no latency, only checked answers and server RSS,
    # so their ladder is half as long; the timed builds took ``seconds``.
    plan = _serve_plan(seconds if trace else seconds / 2)
    steps = serving.build_steps(oracle, instance.n_transactions, rng, plan)
    server = env.start_server(serve, timeout=PROC_TIMEOUT)
    try:
        started = time.perf_counter()
        server_metrics = load(server, steps)
        out.record["load_s"] = round(time.perf_counter() - started, 3)
    finally:
        stop(server)
    rss.append(server.peak_rss_mb)
    _serve_metrics(out, steps, server_metrics)
    if not trace:
        out.put("peak_rss_mb", max(rss), len(rss))
        return out

    # Traced server: the high rung again, for the serve layer's own costs.
    path = env.work / "trace-serve.json"
    high = [s for s in plan if s[0] == SERVE["high"]]
    steps = serving.build_steps(oracle, instance.n_transactions, rng, high)
    server = env.start_server(serve, timeout=PROC_TIMEOUT, trace_path=path)
    try:
        load(server, steps)
    finally:
        stop(server)
    summary = json.loads(path.read_text())["otherData"]
    inc, calls, c = summary["inclusive_s"], summary["calls"], summary["counters"]
    for op in ("count", "member", "topk"):
        out.put(f"serve.engine_s.{op}", inc.get(f"serve.engine.{op}", 0.0))
        out.put(f"serve.engine_calls.{op}", calls.get(f"serve.engine.{op}", 0))
    waits = c.get("serve.queue_waits", 0)
    out.put("serve.queue_wait_ms",
            1e3 * c.get("serve.queue_wait_s", 0.0) / waits if waits else 0.0, waits)
    out.put("serve.codec_s", sum(v for k, v in inc.items()
                                 if k.startswith("serve.codec.")))
    out.put("spill.attach_s", inc.get("spill.attach", 0.0)
            + inc.get("spill.from_spill", 0.0))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: Env) -> Outcome:
    if name == "serve-mixed":
        return run_serve(seed, seconds, trace, env)
    return run_mine(name, seed, seconds, trace, env)
