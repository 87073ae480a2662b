"""Sieved tables over [1, N]: smallest prime factor and d(n), the d(n(n+v))
values formed from a d-table, and the exact values f(n) of any
multiplicative spec formed from the SPF table.

Builders are numpy-vectorised.  The SPF and d builders work in windows of
SEGMENT_SIZE entries, so a window-by-window build yields byte-identical
arrays to a monolithic one; tables are immutable after construction and
safe to share.  A table of more than one window is filled on all usable
CPUs: forked workers take the windows round-robin and write them into one
shared anonymous mapping, with the same bytes as an in-process build.  No
knob selects this.  The children's CPU time is not the caller's own, so
time.process_time() no longer covers the build, while the CPU time of all
its workers together exceeds its wall time.  build_mult_table gives f(n) as
exact Python ints in an object array, from vectorised passes over the whole
SPF table.  charge() is the one memory-cap check: callers charge their
allocations before making them.

SEGMENT_SIZE is sized to the L2 cache rather than to memory: a window of
2^19 uint32 entries is 2 MiB, so the many strided passes over one window
(one per sieving prime in the builders, one per prime power of the shift in
shifted_product_values) hit cache instead of streaming the window from RAM
each time.  correlate's exact reductions read the same constant per call.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from math import isqrt
from typing import Callable

import numpy as np

from divcorr.arith import MultiplicativeSpec, trial_factorize
from divcorr.errors import ContractError, RangeError, ResourceError

SEGMENT_SIZE = 1 << 19  # table entries per window
# bytes per entry charged by build_mult_table: the object array's pointer
# (8), one int object (28-36 for values below 2^90) and the int64 / int8
# index temporaries of the build (about 40); tracemalloc peaks at 2e5
# entries are 53 (d) to 81 (sigma_3, tau)
MULT_ENTRY_BYTES = 96
DEFAULT_MEMORY_CAP = 2 << 30  # bytes
MEMCAP_ENV = "DIVCORR_MEMCAP"


def charge(nbytes: int) -> None:
    """Raise ResourceError if an allocation of ~nbytes exceeds the memory cap,
    DIVCORR_MEMCAP bytes or else 2 GiB; call it before allocating.  A cap
    that is not an integer >= 1 raises ContractError."""
    env = os.environ.get(MEMCAP_ENV) or str(DEFAULT_MEMORY_CAP)
    if not env.isdecimal() or int(env) < 1:
        raise ContractError(f"{MEMCAP_ENV}={env!r} is not an integer byte count >= 1")
    if nbytes > int(env):
        raise ResourceError(
            f"allocation of ~{nbytes} bytes exceeds memory cap {int(env)}"
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


def _fan_out(
    limit: int, dtype: type, fill: Callable[[np.ndarray, int, int], None]
) -> np.ndarray:
    """A zeroed table of limit+1 entries after fill(table, lo, hi) has run on
    every window [lo, hi] of SEGMENT_SIZE entries.

    fill writes only table[lo : hi+1], so windows are independent.  A table
    of two or more windows lives in a shared anonymous mapping and the
    windows go round-robin to one worker per usable CPU: the parent and
    forked children that fill their share and exit.  A child runs only
    numpy slice arithmetic, and leaves by os._exit, so it flushes no stdio
    and runs no exit handler of the parent.  The parent reaps every child
    before it returns or raises; a child that exits nonzero or is killed
    raises ResourceError.  One window, or a platform without fork, is
    filled in process.
    """
    bounds = [
        (lo, min(lo + SEGMENT_SIZE - 1, limit))
        for lo in range(0, limit + 1, SEGMENT_SIZE)
    ]
    workers = 1
    if len(bounds) > 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(bounds))
    if workers == 1:
        table = np.zeros(limit + 1, dtype=dtype)
        for lo, hi in bounds:
            fill(table, lo, hi)
        return table
    nbytes = (limit + 1) * np.dtype(dtype).itemsize
    table = np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype)  # zero-filled
    pids: list[int] = []
    try:
        for rank in range(1, workers):
            try:
                pid = os.fork()
            except OSError as exc:
                raise ResourceError(f"cannot fork a sieve worker: {exc}") from exc
            if pid == 0:
                code = 1
                try:
                    for lo, hi in bounds[rank::workers]:
                        fill(table, lo, hi)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        for lo, hi in bounds[::workers]:
            fill(table, lo, hi)
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status in zip(pids, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code > 0:
            raise ResourceError(f"sieve worker {pid} exited with status {code}")
        if code < 0:
            raise ResourceError(f"sieve worker {pid} was killed by signal {-code}")
    return table


def build_spf(limit: int) -> SpfTable:
    """Smallest-prime-factor table over [1, limit].

    Args:
        limit: inclusive upper bound, must satisfy 1 <= limit < 2^31.

    Returns:
        SpfTable with spf[1] = 1 and spf[p] = p on primes.
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    if limit >= 1 << 31:
        raise RangeError("limit must fit in int32")
    charge((limit + 1) * 4 + isqrt(limit) * 2)
    primes = [int(p) for p in _base_primes(isqrt(limit))]

    def fill(spf: np.ndarray, lo: int, hi: int) -> None:
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

    spf = _fan_out(limit, np.int32, fill)
    return SpfTable(limit, spf)


def build_divisor_table(limit: int) -> DivisorTable:
    """Divisor-count table d(1..limit).

    Every divisor pair (i, n/i) with i <= sqrt(n) contributes two counts
    (one when i*i = n), added as strided slice updates, so the whole build is
    a few thousand vector operations rather than a per-element loop.

    Args:
        limit: inclusive upper bound.

    Returns:
        DivisorTable of uint32 counts.
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    charge((limit + 1) * 4)

    def fill(d: np.ndarray, lo: int, hi: int) -> None:
        seg = d[lo : hi + 1]
        for i in range(1, isqrt(hi) + 1):
            sq = i * i
            if lo <= sq <= hi:
                seg[sq - lo] += 1
            start = max(sq + i, (lo + i - 1) // i * i)
            if start <= hi:
                seg[start - lo :: i] += 2

    d = _fan_out(limit, np.uint32, fill)
    d[0] = 0
    return DivisorTable(limit, d)


def shifted_product_values(dtab: DivisorTable, limit: int, shift: int) -> np.ndarray:
    """d(n(n+shift)) for n in [1, limit] from a d-table covering limit+shift.

    A prime shared by n and n+shift necessarily divides the shift, and for
    such p, p | n exactly when p | n+shift.  So with a = v_p(n) and
    b = v_p(n+shift),

        d(n(n+shift)) = d(n) d(n+shift) * prod_{p | shift} (a+b+1) / ((a+1)(b+1))

    where each factor is 1 unless p | n.  Each window of SEGMENT_SIZE entries
    takes the uint32 product d(n) d(n+shift) and corrects only its multiples
    of each p | shift: a and b come from strided increments over p^2, p^3, ...
    within the window, and the divisions are exact because (a+1)(b+1) still
    divides the running product.  Memory beyond the output is O(window).

    Returns a uint32 array of limit+1 entries with slot 0 = 0.  Raises
    RangeError if the d-table is too short, OverflowError if a window's
    max d(n) * max d(n+shift) reaches 2^32 (which bounds d(n(n+shift))).
    """
    need = limit + shift
    if dtab.limit < need:
        raise RangeError(f"divisor table limit {dtab.limit} < {need}")
    window = SEGMENT_SIZE
    charge(dtab.values.nbytes + (limit + 1) * 4 + 16 * min(window, limit))
    d = dtab.values
    pdivs = [p for p, _ in trial_factorize(shift).entries]
    out = np.zeros(limit + 1, dtype=np.uint32)
    for lo in range(1, limit + 1, window):
        hi = min(lo + window - 1, limit)
        left = d[lo : hi + 1]
        right = d[lo + shift : hi + shift + 1]
        if int(left.max()) * int(right.max()) >= 1 << 32:
            raise OverflowError("d(n) d(n+shift) exceeds uint32")
        seg = out[lo : hi + 1]
        np.multiply(left, right, out=seg)
        for p in pdivs:
            first = lo + (-lo) % p  # first multiple of p in the window
            sub = seg[first - lo :: p]
            a1 = np.full(len(sub), 2, dtype=np.uint32)  # a + 1
            b1 = np.full(len(sub), 2, dtype=np.uint32)  # b + 1
            pk = p * p
            while pk <= hi + shift:
                step = pk // p
                a1[(-first) % pk // p :: step] += 1
                b1[(-first - shift) % pk // p :: step] += 1
                pk *= p
            sub //= a1 * b1
            sub *= a1 + b1 - 1
    return out


def build_mult_table(
    spec: MultiplicativeSpec, spf: SpfTable, limit: int
) -> np.ndarray:
    """f(0..limit) for a multiplicative spec, as exact Python numbers.

    Each n >= 2 splits as n = p^e * rest with p = spf[n]; vectorised passes
    over the SPF table give p^e and rest, spec.prime_power_value runs once
    per prime power p^e <= limit (the n with rest = 1), and every other
    f(n) = f(rest) f(p^e) is filled by one gather pass per omega(n) level
    (omega(n) <= 9 below 2^31), once f(rest) is known.  Only
    multiplications are used, so the values are exact for any integer spec,
    including one with f(p^k) = 0.

    Returns an object-dtype array of limit+1 entries with f[0] = 0 and
    f[1] = 1.  Charges MULT_ENTRY_BYTES per entry against the memory cap
    before allocating; raises RangeError unless 1 <= limit <= spf.limit,
    and passes on whatever the spec raises (EvaluationError for a tau table
    that stops short of a prime power).
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    if spf.limit < limit:
        raise RangeError(f"spf table limit {spf.limit} < {limit}")
    charge(MULT_ENTRY_BYTES * (limit + 1))
    # position i holds n = i + 2
    p = spf.spf[2 : limit + 1].astype(np.int64)
    rest = np.arange(2, limit + 1, dtype=np.int64) // p
    pk = p.copy()  # p^e
    e = np.ones(len(p), dtype=np.int8)
    idx = np.nonzero(rest % p == 0)[0]
    while len(idx):
        rest[idx] //= p[idx]
        pk[idx] *= p[idx]
        e[idx] += 1
        idx = idx[rest[idx] % p[idx] == 0]
    f = np.zeros(limit + 1, dtype=object)
    f[1] = 1
    pp = np.nonzero(rest == 1)[0]
    f[pp + 2] = np.array(
        [spec.prime_power_value(q, k) for q, k in zip(p[pp].tolist(), e[pp].tolist())],
        dtype=object,
    )
    done = np.zeros(limit + 1, dtype=bool)
    done[1] = True
    done[pp + 2] = True
    todo = np.nonzero(rest > 1)[0]
    while len(todo):  # each round fills the next omega level
        ready = done[rest[todo]]
        at = todo[ready]
        f[at + 2] = f[rest[at]] * f[pk[at]]
        done[at + 2] = True
        todo = todo[~ready]
    return f
