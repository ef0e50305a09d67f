"""Seeded workload inputs and the exact pair-support oracle.

The generators are the benchmark's own, written against NumPy only, so a
change to the program's dataset generators cannot change what the
benchmark measures.  An instance is a 0/1 transaction matrix held as
sorted COO arrays ``(tids, items)``; every transaction is non-empty, so
the FIMI line number is the transaction id.

The oracle computes every pair support exactly as ``X.T @ X`` over the
columns that can take part in a frequent pair (support >= the threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Instance", "density_instance", "zipf_instance", "write_fimi",
           "pair_oracle", "format_pairs"]

# float32 sums of 0/1 products stay exact below 2**24 transactions.
_EXACT_LIMIT = 1 << 24
_ROW_BLOCK = 2048


@dataclass(frozen=True)
class Instance:
    """A transaction database as sorted ``(tid, item)`` occurrence pairs."""

    tids: np.ndarray
    items: np.ndarray
    n_transactions: int
    n_items: int

    @property
    def occurrences(self) -> int:
        return int(self.items.size)

    def item_supports(self) -> np.ndarray:
        return np.bincount(self.items, minlength=self.n_items)

    def support_keeping(self, n_kept: int) -> int:
        """The support of the ``n_kept``-th most frequent item.

        As a min-support it keeps about ``n_kept`` items on every seed, so
        the all-pairs work does not swing with the seed.
        """
        return int(np.sort(self.item_supports())[::-1][n_kept - 1])


def _from_keys(keys: np.ndarray, n_items: int) -> Instance:
    """Build an instance from unique ``tid * n_items + item`` keys.

    Transactions left empty are dropped and the rest renumbered densely.
    """
    keys = np.unique(keys)
    tids, items = np.divmod(keys, n_items)
    present, tids = np.unique(tids, return_inverse=True)
    return Instance(tids=tids.astype(np.int64), items=items.astype(np.int64),
                    n_transactions=int(present.size), n_items=n_items)


def density_instance(n_items: int, density: float, n_transactions: int,
                     rng: np.random.Generator) -> Instance:
    """The paper's instance: each item joins each transaction with prob. ``density``."""
    keys = []
    for start in range(0, n_transactions, _ROW_BLOCK):
        rows = min(_ROW_BLOCK, n_transactions - start)
        hit = rng.random((rows, n_items), dtype=np.float32) < density
        r, c = np.nonzero(hit)
        keys.append((r.astype(np.int64) + start) * n_items + c)
    return _from_keys(np.concatenate(keys), n_items)


def zipf_instance(n_items: int, n_transactions: int, mean_length: int,
                  exponent: float, rng: np.random.Generator) -> Instance:
    """A web-documents-like instance: Zipf item popularity, skewed lengths.

    Transaction lengths are geometric around ``mean_length``; items are
    drawn with replacement from a Zipf(``exponent``) law over a seeded
    permutation of the vocabulary and de-duplicated per transaction.
    """
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -exponent)
    cdf /= cdf[-1]
    vocabulary = rng.permutation(n_items)
    lengths = rng.geometric(1.0 / mean_length, size=n_transactions)
    tids = np.repeat(np.arange(n_transactions, dtype=np.int64), lengths)
    draws = np.searchsorted(cdf, rng.random(tids.size), side="right")
    items = vocabulary[np.minimum(draws, n_items - 1)]
    return _from_keys(tids * n_items + items, n_items)


def write_fimi(instance: Instance, path: Path) -> None:
    """Write one space-separated transaction per line (FIMI format)."""
    ends = np.searchsorted(instance.tids, np.arange(1, instance.n_transactions + 1))
    separators = np.full(instance.items.size, " ", dtype="<U1")
    separators[ends - 1] = "\n"
    tokens = np.char.add(instance.items.astype("U"), separators)
    Path(path).write_text("".join(tokens.tolist()), encoding="utf-8")


def pair_oracle(instance: Instance, min_support: int) -> dict:
    """Exact ``{(i, j): support}`` for every pair ``i < j`` at ``min_support``."""
    if instance.n_transactions >= _EXACT_LIMIT:
        raise ValueError("oracle float32 sums are exact below 2**24 transactions")
    kept = np.nonzero(instance.item_supports() >= min_support)[0]
    column = -np.ones(instance.n_items, dtype=np.int64)
    column[kept] = np.arange(kept.size)
    mask = column[instance.items] >= 0
    tids, cols = instance.tids[mask], column[instance.items[mask]]
    gram = np.zeros((kept.size, kept.size), dtype=np.float32)
    cuts = np.searchsorted(tids, np.arange(0, instance.n_transactions + _ROW_BLOCK,
                                           _ROW_BLOCK))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lo == hi:
            continue
        block = np.zeros((_ROW_BLOCK, kept.size), dtype=np.float32)
        block[tids[lo:hi] % _ROW_BLOCK, cols[lo:hi]] = 1.0
        gram += block.T @ block
    a, b = np.nonzero(np.triu(gram >= min_support, k=1))
    supports = gram[a, b].astype(np.int64)
    return {(int(kept[i]), int(kept[j])): int(s)
            for i, j, s in zip(a.tolist(), b.tolist(), supports.tolist())}


def format_pairs(pairs: dict) -> str:
    """The ``--pairs-out`` text: sorted ``i j support`` lines."""
    lines = [f"{i} {j} {s}" for (i, j), s in sorted(pairs.items())]
    return "\n".join(lines) + ("\n" if lines else "")
