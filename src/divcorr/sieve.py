"""Sieved tables over [1, N]: smallest prime factor and d(n), the windowed
d(n) d(n+v) kernel over a d-table, the streamed pair sums that need no
d-table, and the exact values f(n) of any multiplicative spec formed from
the SPF table.

windows() is the one walk in windows of SEGMENT_SIZE entries.  The SPF and
d builders fill their tables window by window, byte-identical to a
monolithic build; tables are immutable and safe to share.  A table of more
than one window is filled on all usable CPUs: forked workers (_fan_out,
the one fork site) take the windows round-robin and write one shared
anonymous mapping.  No knob selects this.  time.process_time() of the
caller leaves out the children's CPU time.  shifted_windows is the one
kernel of the d sums over a table: window by window it yields d(n) d(n+v),
or d(n(n+v)) with the correction at the primes of v, from buffers it
reuses or straight into an output array, so sum_dd, sum_dpoly and
shifted_product_values need O(window) memory beyond the d-table.
stream_pair_sums serves many cells sum_{n<=y} d(n) d(n+w) in one pass:
each window is sieved by the same divisor fill as the table build, every
shift is multiplied behind the same overflow guard, and the windows go to
the same workers, so only O(window) memory is held.  build_mult_table gives
f(n) as exact Python ints in an object array, from vectorised passes over
the whole SPF table.  charge() is the one memory-cap check: callers charge
their allocations before making them.

SEGMENT_SIZE is sized to the L2 cache rather than to memory: a window of
2^19 uint32 entries is 2 MiB, so the many strided passes over one window
(one per sieving prime in the builders, one per prime power of the shift in
shifted_windows) hit cache instead of streaming the window from RAM.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt
from typing import Callable, Iterable, Iterator

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


def windows(first: int, last: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) over [first, last] in ascending windows of SEGMENT_SIZE
    entries: the one window walk of the builders, the kernel and the sums."""
    for lo in range(first, last + 1, SEGMENT_SIZE):
        yield lo, min(lo + SEGMENT_SIZE - 1, last)


def _fan_out(
    size: int,
    dtype: type,
    bounds: list[tuple[int, int]],
    fill: Callable[[np.ndarray, int, int], None],
) -> np.ndarray:
    """A zeroed array of size entries after fill(out, lo, hi) has run on
    every window (lo, hi) of bounds.

    fill writes only the entries of out that its window owns, so windows are
    independent.  They go round-robin to one worker per usable CPU: the
    parent and forked children that fill their share and exit.  With more
    than one worker the array lives in a shared anonymous mapping, and a
    buffer that fill reuses is each worker's own copy.  A child runs only
    numpy arithmetic, and leaves by os._exit, so it flushes no stdio and
    runs no exit handler of the parent.  The parent reaps every child before
    it returns or raises; a child that exits nonzero or is killed raises
    ResourceError.  One window, or a platform without fork, makes the parent
    the only worker.
    """
    workers = 1
    if len(bounds) > 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(bounds))
    if workers == 1:
        out = np.zeros(size, dtype=dtype)
    else:
        nbytes = size * np.dtype(dtype).itemsize
        out = np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype)  # zero-filled
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
                        fill(out, lo, hi)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        for lo, hi in bounds[::workers]:
            fill(out, lo, hi)
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status in zip(pids, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code > 0:
            raise ResourceError(f"sieve worker {pid} exited with status {code}")
        if code < 0:
            raise ResourceError(f"sieve worker {pid} was killed by signal {-code}")
    return out


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

    spf = _fan_out(limit + 1, np.int32, list(windows(0, limit)), fill)
    return SpfTable(limit, spf)


def _divisor_fill(seg: np.ndarray, lo: int, hi: int) -> None:
    """Add d(n) for n in [lo, hi] into seg[n - lo], a zeroed window: the one
    divisor fill of the table build and the streamed pass.

    Every divisor pair (i, n/i) with i <= sqrt(n) contributes two counts
    (one when i*i = n), added as strided slice updates, so a window costs
    sqrt(hi) vector operations rather than a per-element loop.
    """
    for i in range(1, isqrt(hi) + 1):
        sq = i * i
        if lo <= sq <= hi:
            seg[sq - lo] += 1
        start = max(sq + i, (lo + i - 1) // i * i)
        if start <= hi:
            seg[start - lo :: i] += 2


def build_divisor_table(limit: int) -> DivisorTable:
    """Divisor-count table d(1..limit), filled window by window.

    Args:
        limit: inclusive upper bound.

    Returns:
        DivisorTable of uint32 counts.
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    charge((limit + 1) * 4)

    def fill(d: np.ndarray, lo: int, hi: int) -> None:
        _divisor_fill(d[lo : hi + 1], lo, hi)

    d = _fan_out(limit + 1, np.uint32, list(windows(0, limit)), fill)
    d[0] = 0
    return DivisorTable(limit, d)


def _pair_products(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> np.ndarray:
    """left * right into out in uint32: the one overflow guard of the d
    products raises OverflowError if max(left) * max(right), a bound on
    every product, reaches 2^32."""
    if int(left.max()) * int(right.max()) >= 1 << 32:
        raise OverflowError("d(n) d(n+shift) exceeds uint32")
    return np.multiply(left, right, out=out)


def shifted_windows(
    dtab: DivisorTable,
    limit: int,
    shift: int,
    product: bool,
    out: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """d(n) d(n+shift), or d(n(n+shift)) when product, for n in each window
    of windows(1, limit), from a d-table covering limit + shift.

    A prime shared by n and n+shift divides the shift, and for such p,
    p | n exactly when p | n+shift.  So with a = v_p(n), b = v_p(n+shift),

        d(n(n+shift)) = d(n) d(n+shift) * prod_{p | shift} (a+b+1) / ((a+1)(b+1))

    where each factor is 1 unless p | n.  The product form corrects only the
    multiples of each p | shift in the window: a and b come from strided
    increments over p^2, p^3, ..., and (a+1)(b+1) divides the product exactly.

    Every window is written into out[lo : hi+1] when out is given, else
    into one uint32 buffer of min(SEGMENT_SIZE, limit) entries, reused, so
    a yielded window is valid until the next; the correction works in one
    reused scratch of three half-window rows (empty when nothing is
    corrected).  The call raises RangeError if the d-table is too short and
    charges it with 16 B per window entry; a window raises OverflowError as
    _pair_products does.
    """
    need = limit + shift
    if dtab.limit < need:
        raise RangeError(f"divisor table limit {dtab.limit} < {need}")
    size = min(SEGMENT_SIZE, limit)
    charge(dtab.values.nbytes + 16 * size)
    d = dtab.values
    pdivs = [p for p, _ in trial_factorize(shift).entries] if product else []
    buf = np.empty(size if out is None else 0, dtype=np.uint32)
    scratch = np.empty((3, (size + 1) // 2 if pdivs else 0), dtype=np.uint32)

    def window(lo: int, hi: int) -> np.ndarray:
        dest = buf[: hi - lo + 1] if out is None else out[lo : hi + 1]
        seg = _pair_products(d[lo : hi + 1], d[lo + shift : hi + shift + 1], dest)
        for p in pdivs:
            first = lo + (-lo) % p  # first multiple of p in the window
            sub = seg[first - lo :: p]
            a1, b1, t = scratch[:, : len(sub)]  # a + 1, b + 1, temporary
            scratch[:2, : len(sub)] = 2
            pk = p * p
            while pk <= hi + shift:
                step = pk // p
                a1[(-first) % pk // p :: step] += 1
                b1[(-first - shift) % pk // p :: step] += 1
                pk *= p
            sub //= np.multiply(a1, b1, out=t)
            a1 += b1
            a1 -= 1  # a + b + 1
            sub *= a1
        return seg

    return (window(lo, hi) for lo, hi in windows(1, limit))


def shifted_product_values(dtab: DivisorTable, limit: int, shift: int) -> np.ndarray:
    """d(n(n+shift)) for n in [1, limit] from a d-table covering limit+shift:
    the product-form windows of shifted_windows, formed in place.

    Returns a uint32 array of limit+1 entries with slot 0 = 0; charges it
    with the table and one window, then raises as shifted_windows does.
    Memory beyond the output is O(window).
    """
    charge(dtab.values.nbytes + (limit + 1) * 4 + 16 * min(SEGMENT_SIZE, limit))
    out = np.zeros(limit + 1, dtype=np.uint32)
    for _ in shifted_windows(dtab, limit, shift, True, out):
        pass
    return out


@dataclass(frozen=True)
class PairSums:
    """sums[y, w] = sum_{n<=y} d(n) d(n+w), exact, for every cell (y, w)
    with y >= 1 that stream_pair_sums served."""

    sums: dict[tuple[int, int], int]

    def at(self, y: int, w: int) -> int:
        """The sum of cell (y, w); RangeError if it was not served."""
        if (y, w) not in self.sums:
            raise RangeError(f"no streamed sum for x={y}, v={w}")
        return self.sums[y, w]


def _divisor_summatory(y: int) -> int:
    """sum_{n<=y} d(n) by the hyperbola identity, in O(sqrt y)."""
    r = isqrt(y)
    return 2 * sum(y // i for i in range(1, r + 1)) - r * r


def stream_pair_sums(cells: Iterable[tuple[int, int]]) -> PairSums:
    """sum_{n<=y} d(n) d(n+w) for every cell (y, w), y >= 0 and w >= 1, in
    one pass over the windows of [1, max y] that keeps no d-table.

    Each window [lo, hi] is sieved into one reused buffer by the divisor
    fill of build_divisor_table, on [lo, hi + w] for the widest shift w
    still needed there.  Each shift forms d(n) d(n+w) up to its largest y
    only, in uint32 behind the overflow guard of shifted_windows, and sums
    it in uint64 between the window's cuts: its start and every y + 1 inside
    it (np.sum per segment casts in small buffers; np.add.reduceat would
    cast the whole window to uint64 first).  Each segment sum is one slot of
    a shared array; the windows go to the workers of _fan_out, and the parent
    adds each shift's slots in window order as Python ints, so the sums are
    exact and deterministic.

    The pass also sums d(n) up to every y, and up to the top y + w of any
    cell, which the last window sieves to; it checks each against the
    hyperbola identity sum_{n<=y} d(n) = 2 sum_{i<=r} floor(y/i) - r^2,
    r = floor(sqrt y), and a mismatch raises RuntimeError naming y.  Charges
    16 B per buffer entry and 8 B per slot; raises RangeError for a cell
    with y < 0 or w < 1.
    """
    marks: dict[int, set[int]] = {0: set()}  # shift -> its ys; 0 sums d(n)
    for y, w in cells:
        if y < 0 or w < 1:
            raise RangeError(f"cell x={y}, v={w} needs x >= 0 and v >= 1")
        if y:
            marks.setdefault(w, set()).add(y)
            marks[0].add(y)
    if not marks[0]:
        return PairSums({})
    top, widest = max(marks[0]), max(marks)
    # the last window sieves on to the top n + w any shift reads, and the d
    # row sums that far too, so no sieved d(n) goes unchecked
    marks[0].add(max(y + w for w in marks for y in marks[w]))
    # per shift: its last y, the starts of its segments and its first slot
    rows = []
    slot = 0
    for w in sorted(marks):
        last = max(marks[w])
        cuts = {lo for lo, _ in windows(1, min(last, top))} | {y + 1 for y in marks[w]}
        starts = np.array(sorted(cuts - {last + 1}), dtype=np.int64)
        rows.append((w, last, starts, slot))
        slot += len(starts)
    size = min(SEGMENT_SIZE, top)
    charge(16 * (size + widest) + 8 * slot)
    dbuf = np.empty(size + widest, dtype=np.uint32)
    pbuf = np.empty(size, dtype=np.uint32)

    def fill(slots: np.ndarray, lo: int, hi: int) -> None:
        # each row still summing here, with the last n it sums in this window
        live = [
            (row, row[1] if hi == top else min(hi, row[1]))
            for row in rows
            if row[1] >= lo
        ]
        end = max(n + row[0] for row, n in live)
        dwin = dbuf[: end - lo + 1]
        dwin.fill(0)
        _divisor_fill(dwin, lo, end)
        for (w, _, starts, first), n in live:
            m = n - lo + 1
            terms = dwin[:m]
            if w:
                terms = _pair_products(terms, dwin[w : w + m], pbuf[:m])
            i, j = np.searchsorted(starts, (lo, n + 1))
            cuts = (starts[i:j] - lo).tolist() + [m]
            for k, (a, b) in enumerate(zip(cuts, cuts[1:]), first + i):
                slots[k] = np.sum(terms[a:b], dtype=np.uint64)

    slots = _fan_out(slot, np.uint64, list(windows(1, top)), fill)
    sums = {}
    for w, last, starts, first in rows:
        prefix = list(accumulate(slots[first : first + len(starts)].tolist()))
        for y in sorted(marks[w]):
            value = prefix[int(np.searchsorted(starts, y, "right")) - 1]
            if w:
                sums[y, w] = value
            elif value != _divisor_summatory(y):
                raise RuntimeError(
                    f"divisor sieve self-test failed at y={y}: sum of d(n) "
                    f"{value} != {_divisor_summatory(y)} by the hyperbola identity"
                )
    return PairSums(sums)


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
