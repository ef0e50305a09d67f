"""Global-memory coalescing model (GT200-class rules, simplified).

One of the paper's central arguments is that the batmap comparison kernel
achieves fully coalesced global memory access: the 16 threads of a half warp
read 16 consecutive 32-bit words, which the device services in a single
64-byte transaction.  The simulator quantifies this by replaying the address
stream of each half warp through the rules below and counting transactions.

Rules implemented (simplified from the CUDA/OpenCL best-practice guide the
paper cites as [19]):

* accesses are grouped per half warp (16 work items);
* the device issues one transaction per distinct aligned segment touched,
  where the segment size is 32 B for 1-byte accesses, 64 B for 2- and 4-byte
  accesses and 128 B for 8- and 16-byte accesses;
* a fully scattered half warp therefore costs up to 16 transactions, while a
  contiguous aligned access costs exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import require, require_positive

__all__ = ["CoalescingReport", "segment_size_for_access", "transactions_for_half_warp",
           "analyze_access"]


def segment_size_for_access(access_bytes: int) -> int:
    """Aligned segment size used by the coalescer for a given per-thread access width."""
    require_positive(access_bytes, "access_bytes")
    if access_bytes == 1:
        return 32
    if access_bytes in (2, 4):
        return 64
    if access_bytes in (8, 16):
        return 128
    raise ValueError(f"unsupported access width {access_bytes} bytes")


def transactions_for_half_warp(byte_addresses: np.ndarray, access_bytes: int) -> int:
    """Number of memory transactions needed to service one half warp.

    ``byte_addresses`` holds the starting byte address of each work item's
    access (inactive lanes can simply be omitted).
    """
    addresses = np.asarray(byte_addresses, dtype=np.int64)
    if addresses.size == 0:
        return 0
    if addresses.min() < 0:
        raise ValueError("negative byte address")
    segment = segment_size_for_access(access_bytes)
    first = addresses // segment
    last = (addresses + access_bytes - 1) // segment
    return int(np.union1d(first, last).size)


@dataclass(frozen=True)
class CoalescingReport:
    """Aggregate coalescing statistics for an access pattern."""

    transactions: int
    ideal_transactions: int
    bytes_requested: int
    half_warps: int
    segment_bytes: int = 64
    #: transactions of each call of a 2-D ``(calls, call_len)`` stream
    call_transactions: np.ndarray | None = field(default=None, compare=False,
                                                 repr=False)

    @property
    def efficiency(self) -> float:
        """Ideal / actual transactions; 1.0 means perfectly coalesced."""
        if self.transactions == 0:
            return 1.0
        return self.ideal_transactions / self.transactions

    @property
    def bytes_transferred(self) -> int:
        """Bytes actually moved over the memory bus: whole segments are fetched,
        so poorly coalesced patterns move more than they request."""
        return self.transactions * self.segment_bytes


def analyze_access(
    byte_addresses: np.ndarray,
    access_bytes: int,
    *,
    half_warp: int = 16,
) -> CoalescingReport:
    """Group an address stream into half warps and total the transactions.

    ``byte_addresses`` is ordered by work-item id (the way a kernel issues
    them); it is chunked into groups of ``half_warp`` addresses.  A 2-D
    ``(calls, call_len)`` array holds ``calls`` separate accesses of
    ``call_len`` addresses each — one work group's read of one slice, say —
    and every row is chunked on its own, so a half warp never spans two
    calls; the report's ``call_transactions`` holds each row's count.  Any
    other shape is one stream, raveled.
    """
    require(half_warp >= 1, f"half_warp must be >= 1, got {half_warp}")
    addresses = np.asarray(byte_addresses, dtype=np.int64)
    if addresses.ndim != 2:
        addresses = addresses.reshape(1, -1)
    calls, call_len = addresses.shape
    segment = segment_size_for_access(access_bytes)
    if addresses.size and addresses.min() < 0:
        raise ValueError("negative byte address")
    per_call = np.zeros(calls, dtype=np.int64)
    ideal = 0
    n_chunks = -(-call_len // half_warp)
    if addresses.size:
        # Vectorised per-half-warp distinct-segment count: pad every call to
        # a whole number of half warps (repeating its last address, which
        # never adds a new segment), sort each chunk's touched segments and
        # count the distinct ones.
        pad = n_chunks * half_warp - call_len
        if pad:
            addresses = np.concatenate(
                [addresses, np.repeat(addresses[:, -1:], pad, axis=1)], axis=1)
        chunks = addresses.reshape(calls * n_chunks, half_warp)
        first = chunks // segment
        last = (chunks + access_bytes - 1) // segment
        touched = np.sort(np.concatenate([first, last], axis=1), axis=1)
        distinct = 1 + np.count_nonzero(np.diff(touched, axis=1), axis=1)
        per_call = distinct.reshape(calls, n_chunks).sum(axis=1)
        # the minimum possible: contiguous packing of each chunk's bytes
        sizes = np.full(n_chunks, half_warp, dtype=np.int64)
        sizes[-1] = call_len - (n_chunks - 1) * half_warp
        ideal = calls * int(np.maximum(1, -(-(sizes * access_bytes) // segment)).sum())
    return CoalescingReport(
        transactions=int(per_call.sum()),
        ideal_transactions=ideal,
        bytes_requested=calls * call_len * access_bytes,
        half_warps=calls * n_chunks if addresses.size else 0,
        segment_bytes=segment,
        call_transactions=per_call,
    )
