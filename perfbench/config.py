"""Fixed settings of the four workloads.

Sizes were chosen on a 2-core container so one ``repro mine`` run takes a
few seconds; each keeps the property its workload exists for (see
``README.md`` next to this file).  Changing any value here changes the
benchmark, and the baseline must then be measured again.
"""

from __future__ import annotations

#: The paper's regime: many items, density >= 1%.  Dense in-memory result,
#: parallel counting.
MINE_INMEM = {
    "instance": {"kind": "density", "items": 2000, "density": 0.02,
                 "transactions": 10_000},
    "min_support": 9,
    "args": ["--compute", "auto", "--workers", "2"],
}

#: Zipf-skewed web-documents-like input, mined out of core.  The min-support
#: is the support of the 1500th most frequent item (~40); the dense matrix
#: of the kept items (~18 MB) does not fit the 12 MB budget, so
#: ``--result-format auto`` resolves to sparse.
MINE_STREAM = {
    "instance": {"kind": "zipf", "items": 8000, "transactions": 4000,
                 "mean_length": 150, "exponent": 1.0},
    "kept_items": 1500,
    "budget": "12M",
    "args": ["--stream", "--result-format", "auto", "--memory-budget", "12M"],
}

#: Small density instance through the simulated device kernel.
MINE_DEVICE = {
    "instance": {"kind": "density", "items": 400, "density": 0.05,
                 "transactions": 2000},
    "min_support": 9,
    "args": ["--compute", "device"],
}

MINE = {"mine-inmem": MINE_INMEM, "mine-stream": MINE_STREAM,
        "mine-device": MINE_DEVICE}

#: ``repro build-index`` over the mine-stream input, then ``repro serve``
#: under an open-loop mix.  The budget leaves room for several shards next
#: to the build's resident count matrix.
SERVE = {
    "instance": MINE_STREAM["instance"],
    #: index the 1000 most frequent items (the min-support that keeps them)
    "index_sets": 1000,
    "budget": "14M",
    #: request mix: op -> share; member probes carry 8 elements, topk k=10
    "mix": {"count": 0.7, "member": 0.2, "topk": 0.1},
    "member_elements": 8,
    "topk_k": 10,
    #: Zipf exponent of set-id popularity (the LRU cache hits some repeats)
    "set_zipf": 1.1,
    #: fixed rate ladder (requests/s); "low" and "high" are two of its rungs
    "ladder": [100, 200, 300, 400, 500, 600, 700, 800],
    "low": 300,
    "high": 400,
    #: the low and high rungs last this many times longer than the others
    "long_step": 5.0,
    #: p99 latency limit a sustained rate must meet
    "p99_limit_ms": 100.0,
    "drain_s": 5.0,
    #: timed ``build-index`` runs (each ~1.3 s) go on until their walls add
    #: up to ``--seconds``, never fewer than this; ``wall_s`` is their median
    "min_builds": 7,
}

#: Untimed cold runs per workload; ``setup_s`` is their median.
SETUP_RUNS = 3
#: Traced/untraced ``build-index`` pairs in a traced serve-mixed run.
TRACE_PAIRS = 3
#: Timed runs never fewer than this, even past ``--seconds``.
MIN_TIMED_RUNS = 3
#: Hard deadline for any one child process, in seconds.
PROC_TIMEOUT = 150.0
#: Children still running this long after a run started are killed (and
#: fail their checks), so one run ends within the 180 s a run may take.
RUN_DEADLINE_S = 165.0
