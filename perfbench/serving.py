"""The ``serve-mixed`` workload: build an index, serve it under open-loop load.

Answers are checked against an oracle computed here from the generated
instance, not from the server:

* ``member`` — exact set membership (a batmap reports failed insertions as
  members, so probes are exact);
* ``count`` — the stored-copy intersection ``|A ∩ B|`` minus the elements
  of ``A ∩ B`` that either set failed to insert, with ``|A ∩ B|`` from
  ``X.T @ X`` and the failed insertions read from the artifact's manifest;
* ``topk`` — that count row, ranked by descending count then ascending set
  id, the queried set excluded.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import loadgen
from config import SERVE
from inputs import Instance

__all__ = ["Oracle", "build_steps", "read_failures", "connections"]


class Oracle:
    """Expected answers for one spill built from ``instance``."""

    def __init__(self, instance: Instance, item_map: np.ndarray, failures: dict):
        self.n_sets = int(item_map.size)
        column = -np.ones(instance.n_items, dtype=np.int64)
        column[item_map] = np.arange(item_map.size)
        keep = column[instance.items] >= 0
        self.tids = instance.tids[keep]
        self.sets = column[instance.items[keep]]
        order = np.lexsort((self.tids, self.sets))
        self.tids, self.sets = self.tids[order], self.sets[order]
        self.cuts = np.searchsorted(self.sets, np.arange(self.n_sets + 1))
        x = np.zeros((instance.n_transactions, self.n_sets), dtype=np.float32)
        x[self.tids, self.sets] = 1.0
        self.gram = (x.T @ x).astype(np.int64)
        self.failed = {}
        for element, members in failures.items():
            for s in members:
                self.failed.setdefault(int(s), set()).add(int(element))

    def members_of(self, s: int) -> np.ndarray:
        return self.tids[self.cuts[s]:self.cuts[s + 1]]

    def _lost(self, a: int, b: int) -> int:
        lost = self.failed.get(a, set()) | self.failed.get(b, set())
        if not lost:
            return 0
        both = np.intersect1d(self.members_of(a), self.members_of(b))
        return int(np.isin(np.fromiter(lost, dtype=np.int64), both).sum())

    def count(self, a: int, b: int) -> int:
        return int(self.gram[a, b]) - self._lost(a, b)

    def member(self, s: int, elements) -> list:
        return np.isin(np.asarray(elements), self.members_of(s)).tolist()

    def topk(self, s: int, k: int) -> list:
        row = self.gram[s].copy()
        for t in (range(self.n_sets) if s in self.failed else self.failed):
            row[t] = self.count(s, t)
        row[s] = -1
        ranked = np.lexsort((np.arange(self.n_sets), -row))[:min(k, self.n_sets - 1)]
        return [[int(j), int(row[j])] for j in ranked]


def build_steps(oracle: Oracle, n_transactions: int, rng: np.random.Generator,
                plan: list) -> list:
    """One :class:`loadgen.Step` per ``(rate, seconds)`` in ``plan``.

    Arrivals are Poisson at the step's rate.  Set ids follow a Zipf law
    over a seeded permutation, so popular queries repeat and the server's
    cache hits some of them.
    """
    ops = list(SERVE["mix"])
    shares = np.array([SERVE["mix"][op] for op in ops])
    ranks = np.arange(1, oracle.n_sets + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -SERVE["set_zipf"])
    cdf /= cdf[-1]
    popular = rng.permutation(oracle.n_sets)

    def pick(size=None):
        return popular[np.minimum(np.searchsorted(cdf, rng.random(size)),
                                  oracle.n_sets - 1)]

    topk_cache: dict = {}
    steps, next_id = [], 0
    for rate, seconds in plan:
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
        due = np.cumsum(gaps)
        due = due[due < seconds]
        lines, expected = [], []
        for k, op in enumerate(rng.choice(len(ops), size=due.size, p=shares)):
            request = {"id": next_id + k, "op": ops[op]}
            if ops[op] == "count":
                a, b = (int(v) for v in pick(2))
                if a == b:
                    b = (a + 1) % oracle.n_sets
                request["pairs"] = [[a, b]]
                answer = [oracle.count(a, b)]
            elif ops[op] == "member":
                s = int(pick())
                half = SERVE["member_elements"] // 2
                own = oracle.members_of(s)
                elements = np.concatenate([
                    rng.choice(own, size=half),
                    rng.integers(0, n_transactions, size=half)]).tolist()
                request.update(set=s, elements=elements)
                answer = oracle.member(s, elements)
            else:
                s, k_top = int(pick()), SERVE["topk_k"]
                request.update(set=s, k=k_top)
                if s not in topk_cache:
                    topk_cache[s] = oracle.topk(s, k_top)
                answer = topk_cache[s]
            lines.append((json.dumps(request, separators=(",", ":")) + "\n").encode())
            expected.append(answer)
        steps.append(loadgen.Step(rate=float(rate), first_id=next_id, due=due,
                                  lines=lines, expected=expected))
        next_id += len(lines)
    return steps


def read_failures(src, spill_dir) -> dict:
    """Failed insertions recorded in the artifact (element -> set ids)."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.core.sharded import ShardedCollection

    return ShardedCollection.from_spill(spill_dir).failed_insertions()


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))
