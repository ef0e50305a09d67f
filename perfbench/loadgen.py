"""Open-loop load generator for ``repro serve``.

One process, one asyncio loop, a few persistent connections (at most the
core count).  Requests are sent on a precomputed schedule whether or not
earlier ones were answered — arrivals model independent users, so the loop
is open.  Requests are pipelined and matched to responses by ``id``.

Latency runs from when a request was **due**, not from when it was sent,
so a stall in the server or in the generator itself is charged to every
request it delays.  How late the generator sent is reported separately.

A request fails on an error response, a wrong answer, or no answer by the
end of the drain window.  A step has a **growing backlog** when any request
is still unanswered at the end of its drain window, or when the requests
due in its last quarter wait longer at the median than the p99 limit.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Step", "run_steps", "percentile"]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = int(np.ceil(q / 100.0 * ordered.size)) - 1
    return float(ordered[min(max(rank, 0), ordered.size - 1)])


@dataclass
class Step:
    """One fixed-rate phase: its schedule and, after running, its outcome."""

    rate: float
    first_id: int                   #: request ids run first_id, first_id + 1, ...
    due: np.ndarray                 #: due offsets in seconds, ascending
    lines: list                     #: encoded request lines, ids included
    expected: list                  #: expected ``result`` per request
    latency_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    late_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ran: bool = False
    failed: int = 0
    unanswered: int = 0
    tail_median_ms: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.lines)

    def p(self, q: float) -> float:
        return percentile(self.latency_ms, q)

    def meets(self, p99_limit_ms: float) -> bool:
        """Whether this rate is sustained: p99 within the limit, no backlog."""
        return (self.ran and self.failed == 0 and self.p(99) <= p99_limit_ms
                and not self.backlog(p99_limit_ms))

    def backlog(self, p99_limit_ms: float) -> bool:
        return self.unanswered > 0 or self.tail_median_ms > p99_limit_ms


async def _run_step(address, connections: int, step: Step, drain_s: float) -> None:
    loop = asyncio.get_running_loop()
    n = step.sent
    received = np.full(n, np.nan)
    sent_at = np.full(n, np.nan)
    wrong = np.zeros(n, dtype=bool)
    pending = n
    done = loop.create_future()

    async def read(reader):
        nonlocal pending
        while True:
            line = await reader.readline()
            if not line:
                return
            now = loop.time()
            message = json.loads(line)
            k = message.get("id", -1) - step.first_id
            if not 0 <= k < n or not np.isnan(received[k]):
                continue
            received[k] = now
            wrong[k] = not (message.get("ok") and
                            message.get("result") == step.expected[k])
            pending -= 1
            if pending == 0 and not done.done():
                done.set_result(None)

    streams = [await asyncio.open_connection(*address, limit=1 << 22)
               for _ in range(connections)]
    readers = [loop.create_task(read(r)) for r, _ in streams]
    start = loop.time() + 0.05
    try:
        for k in range(n):
            target = start + step.due[k]
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = streams[k % connections][1]
            writer.write(step.lines[k])
            sent_at[k] = loop.time()
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        if n:
            try:
                await asyncio.wait_for(asyncio.shield(done), drain_s)
            except asyncio.TimeoutError:
                pass
    finally:
        for _, writer in streams:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in streams:
            try:
                await writer.wait_closed()
            except OSError:
                pass

    step.ran = True
    due = start + step.due
    answered = ~np.isnan(received)
    step.unanswered = int(n - answered.sum())
    step.failed = int(step.unanswered + (wrong & answered).sum())
    step.latency_ms = (received[answered] - due[answered]) * 1e3
    step.late_ms = (sent_at - due) * 1e3
    tail = due >= start + 0.75 * (step.due[-1] if n else 0.0)
    tail_answered = tail & answered
    step.tail_median_ms = (float(np.median((received[tail_answered]
                                            - due[tail_answered]) * 1e3))
                           if tail_answered.any() else 0.0)


async def _metrics(address) -> dict:
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(b'{"id": -1, "op": "metrics"}\n')
        await writer.drain()
        return json.loads(await reader.readline())["result"]
    finally:
        writer.close()
        await writer.wait_closed()


def run_steps(address, steps: list, *, connections: int, drain_s: float,
              p99_limit_ms: float, keep_going=()) -> dict:
    """Run ``steps`` in order; return the server's ``metrics`` afterwards.

    After the last step whose rate is in ``keep_going`` has run, the ladder
    stops at the first step that misses the limit; the steps after it are
    left unrun and count as not met.
    """
    last = max((k for k, s in enumerate(steps) if s.rate in keep_going), default=-1)

    async def main():
        for k, step in enumerate(steps):
            await _run_step(address, connections, step, drain_s)
            if k >= last and not step.meets(p99_limit_ms):
                break
        return await _metrics(address)

    return asyncio.run(main())
