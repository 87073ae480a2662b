"""Sieved tables over [1, N]: smallest prime factor and d(n), plus the
d(n(n+v)) values formed from a d-table.

Builders are numpy-vectorised and chunked in SEGMENT_SIZE entries, so a
segment-by-segment build yields byte-identical arrays to a monolithic one;
tables are immutable after construction and safe to share.  charge() is the
one memory-cap check: callers charge their allocations before making them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import isqrt

import numpy as np

from divcorr.arith import trial_factorize
from divcorr.errors import ContractError, RangeError, ResourceError

SEGMENT_SIZE = 1 << 22  # table entries per chunk
DEFAULT_MEMORY_CAP = 2 << 30  # bytes
MEMCAP_ENV = "DIVCORR_MEMCAP"


def resolve_memory_cap(explicit: int | None = None) -> int:
    """Memory budget in bytes: explicit argument, else DIVCORR_MEMCAP, else 2 GiB.

    Raises ContractError unless the budget is an integer >= 1.
    """
    if explicit is not None:
        if explicit < 1:
            raise ContractError(f"memory cap must be >= 1 byte, got {explicit}")
        return explicit
    env = os.environ.get(MEMCAP_ENV)
    if not env:
        return DEFAULT_MEMORY_CAP
    if not env.isdecimal() or int(env) < 1:
        raise ContractError(f"{MEMCAP_ENV}={env!r} is not an integer byte count >= 1")
    return int(env)


def charge(nbytes: int, cap: int | None = None) -> None:
    """Raise ResourceError if an allocation of ~nbytes exceeds the memory cap
    (resolve_memory_cap(cap)); call it before allocating."""
    budget = resolve_memory_cap(cap)
    if nbytes > budget:
        raise ResourceError(
            f"allocation of ~{nbytes} bytes exceeds memory cap {budget}"
        )


@dataclass(frozen=True)
class SpfTable:
    """spf[n] = smallest prime factor of n for 2 <= n <= limit; spf[1] = 1."""

    limit: int
    spf: np.ndarray


@dataclass(frozen=True)
class DivisorTable:
    """values[n] = d(n) for 1 <= n <= limit (uint32); slot 0 is 0."""

    limit: int
    values: np.ndarray


def _base_primes(n: int) -> np.ndarray:
    """Primes <= n by a plain boolean sieve."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0]


def build_spf(limit: int, *, memory_cap: int | None = None) -> SpfTable:
    """Smallest-prime-factor table over [1, limit].

    Args:
        limit: inclusive upper bound, must satisfy 1 <= limit < 2^31.
        memory_cap: byte budget; DIVCORR_MEMCAP or 2 GiB when None.

    Returns:
        SpfTable with spf[1] = 1 and spf[p] = p on primes.
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    if limit >= 1 << 31:
        raise RangeError("limit must fit in int32")
    charge((limit + 1) * 4 + isqrt(limit) * 2, memory_cap)
    spf = np.zeros(limit + 1, dtype=np.int32)
    primes = [int(p) for p in _base_primes(isqrt(limit))]
    for lo in range(0, limit + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE - 1, limit)
        seg = spf[lo : hi + 1]
        for p in primes:
            if p * p > hi:
                break
            start = max(p * p, (lo + p - 1) // p * p)
            if start > hi:
                continue
            sl = seg[start - lo :: p]
            sl[sl == 0] = p
        # untouched entries are prime; this also leaves spf[0] = 0, spf[1] = 1
        unmarked = np.nonzero(seg == 0)[0]
        seg[unmarked] = unmarked + lo
    return SpfTable(limit, spf)


def build_divisor_table(limit: int, *, memory_cap: int | None = None) -> DivisorTable:
    """Divisor-count table d(1..limit).

    Every divisor pair (i, n/i) with i <= sqrt(n) contributes two counts
    (one when i*i = n), added as strided slice updates, so the whole build is
    a few thousand vector operations rather than a per-element loop.

    Args:
        limit: inclusive upper bound.
        memory_cap: byte budget; DIVCORR_MEMCAP or 2 GiB when None.

    Returns:
        DivisorTable of uint32 counts.
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    charge((limit + 1) * 4, memory_cap)
    d = np.zeros(limit + 1, dtype=np.uint32)
    for lo in range(0, limit + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE - 1, limit)
        seg = d[lo : hi + 1]
        for i in range(1, isqrt(hi) + 1):
            sq = i * i
            if lo <= sq <= hi:
                seg[sq - lo] += 1
            start = max(sq + i, (lo + i - 1) // i * i)
            if start <= hi:
                seg[start - lo :: i] += 2
    d[0] = 0
    return DivisorTable(limit, d)


def _valuations(p: int, n: int) -> np.ndarray:
    """v_p(m) for m in [0, n] as uint8."""
    val = np.zeros(n + 1, dtype=np.uint8)
    pk = p
    while pk <= n:
        val[pk::pk] += 1
        pk *= p
    return val


def shifted_product_values(dtab: DivisorTable, limit: int, shift: int) -> np.ndarray:
    """d(n(n+shift)) for n in [1, limit] from a d-table covering limit+shift.

    A prime shared by n and n+shift necessarily divides the shift, so with
    a = v_p(n), b = v_p(n+shift) over primes p | shift:

        d(n(n+shift)) = d(n) d(n+shift) * prod_p (a+b+1) / ((a+1)(b+1))

    and the divisions are exact.  This is the bulk equivalent of merging the
    two factorisations of n and n+shift.
    """
    need = limit + shift
    if dtab.limit < need:
        raise RangeError(f"divisor table limit {dtab.limit} < {need}")
    d = dtab.values
    pdivs = [p for p, _ in trial_factorize(shift).entries]
    vals = {p: _valuations(p, need) for p in pdivs}
    out = np.zeros(limit + 1, dtype=np.uint32)
    for lo in range(1, limit + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE - 1, limit)
        left = d[lo : hi + 1].astype(np.int64)
        right = d[lo + shift : hi + shift + 1].astype(np.int64)
        corr = np.ones(hi - lo + 1, dtype=np.int64)
        for p in pdivs:
            a = vals[p][lo : hi + 1].astype(np.int64)
            b = vals[p][lo + shift : hi + shift + 1].astype(np.int64)
            left //= a + 1
            right //= b + 1
            corr *= a + b + 1
        prod = left * right * corr
        if int(prod.max(initial=0)) >= 1 << 32:
            raise OverflowError("d(n(n+shift)) exceeds uint32")
        out[lo : hi + 1] = prod
    return out
