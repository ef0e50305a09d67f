"""Benchmark of the ``repro`` CLI: four workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mine-inmem --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload mine-stream --repeat 10   # steadiness

Inputs are generated from ``--seed``; every output is checked against an
oracle.  The metrics are printed by name with unit and sample count, and
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The exit code is 1 when any output check failed.

``--repeat N`` runs the benchmark N times with seeds ``seed .. seed+N-1``
and prints each metric's median, quartiles and spread (interquartile range
over median) against its bound, flagging any that is not steady.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _source_state() -> dict:
    """Git SHA when the checkout is a repository, and a digest of ``src``."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except OSError:
        sha = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha or "unknown", "src_sha256": digest.hexdigest()[:16]}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; return (result JSON object, run record)."""
    import numpy as np

    from config import RUN_DEADLINE_S
    from procs import Env
    from workloads import run_workload

    spec = _spec()
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    work = ROOT / ".perfbench" / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        env = Env(ROOT, work, deadline=started + RUN_DEADLINE_S)
        outcome = run_workload(workload, seed, seconds, trace, env)
    finally:
        for path in work.iterdir():       # keep traces and the record only
            if not path.name.startswith(("trace", "record")):
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink()
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": {}}
    print(f"== {workload}  seed {seed}  trace {int(trace)}")
    for m in metrics:
        value, samples = outcome.metrics.get(m["name"], (0.0, 0))
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<30} {_fmt(value):>14} {m['unit']:<9} (n={samples})")
    error_rate = outcome.failed / max(1, outcome.attempted)
    print(f"  {'error_rate':<30} {_fmt(error_rate):>14} {'fraction':<9} "
          f"(n={outcome.attempted})")
    for problem in outcome.problems[:10]:
        print(f"  FAILED: {problem}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **_source_state(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "elapsed_s": round(time.perf_counter() - started, 3),
        "error_rate": error_rate,
        "metrics": {name: {"value": v, "samples": n}
                    for name, (v, n) in outcome.metrics.items()},
        **outcome.record,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))
    for key in ("labels", "ledger", "serve_steps"):
        if key in record:
            print(f"  {key}: {json.dumps(record[key])}")
    if record.get("unpatched"):
        print(f"  WARNING: trace targets not found: {record['unpatched']}")
    return result, record


def repeat(workload: str, seed: int, count: int, seconds: float, trace: bool) -> int:
    """Run ``count`` seeds in fresh processes and report spread per metric."""
    spec = _spec()
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    values: dict = {m["name"]: [] for m in metrics}
    correct = True
    for k in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed + k), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"seed {seed + k}: no result (exit {proc.returncode})\n"
                  f"{proc.stderr[-2000:]}", flush=True)
            correct = False
            continue
        correct &= result["correct"] and proc.returncode == 0
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed + k}: " + " ".join(
            f"{n}={_fmt(v[-1])}" for n, v in values.items()), flush=True)
    print(f"== {workload}: {count} runs, seeds {seed}..{seed + count - 1}")
    if any(len(v) < 2 for v in values.values()):
        return 1
    steady = True
    for m in metrics:
        v = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s":
            ok = spread <= bound / 3
            steady &= spread <= bound
            flag = "steady" if ok else ("WITHIN BOUND, NOT STEADY" if spread <= bound
                                        else "NOT STEADY")
        print(f"  {m['name']:<30} median {_fmt(q2):>12} {m['unit']:<9} "
              f"q1 {_fmt(q1):>12} q3 {_fmt(q3):>12} spread {spread:7.4f}"
              + (f" bound {bound}  {flag}" if bound is not None else ""))
    return 0 if correct and steady else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="mine-inmem, mine-stream, mine-device, serve-mixed or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds and report each metric's spread")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.repeat:
        return max(repeat(name, args.seed, args.repeat, seconds, bool(args.trace))
                   for name in names)

    results = {name: run_once(name, args.seed, seconds, bool(args.trace))[0]
               for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
