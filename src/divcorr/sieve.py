"""Sieved tables over [1, N]: d(n), the windowed d(n) d(n+v) kernel over a
d-table, the streamed pair sums that need no d-table, and the exact values
f(n) of any multiplicative spec; build_spf keeps a smallest-prime-factor
table, one plain sieve over the whole array, for callers outside the package.

windows() is the one walk in windows of SEGMENT_SIZE entries.  The d
builder fills its table window by window, byte-identical to a monolithic
build; tables are immutable and safe to share.  A table of more
than one window is filled on all usable CPUs: forked workers (_fan_out,
the one fork site) take the windows round-robin and write one shared
anonymous mapping, and the windows of a worker that raised are rerun in
the caller, so the error keeps its class.  No knob selects this.
time.process_time() of the caller leaves out the children's CPU time.
_divisor_fill, the one fill of d, works in the log domain behind a 75600
wheel: one packed uint32 word per entry counts the primes above 7 that
divide n once and holds minus the rounded log2 of the smooth part s of n.
Each such prime p <= sqrt(top) is one strided add to the words of its
multiples, each prime power past the wheel also updates d, and a last pass
compares each log with a threshold per dyadic chunk, so d doubles once per
counted prime and once more where s < n.  A window thus costs about one
vector operation per prime <= sqrt(hi), not one per i <= sqrt(hi).
shifted_windows is the one kernel of the d sums over a table: window by
window it yields d(n) d(n+v), or d(n(n+v)) with the correction at the
primes of v, from buffers it reuses or straight into an output array, so
sum_dd, sum_dpoly and shifted_product_values need O(window) memory beyond
the d-table.  stream_pair_sums serves many cells sum_{n<=y} d(n) d(n+w) in
one pass, as a plain dict keyed by (y, w): each window is sieved by the
same divisor fill as the table build, a shift wider than a window in a
piece of its own, and the windows go to the same workers, so only
O(window) memory is held.  Every d(n) d(n+w) of both passes is formed by
_pair_products, the one overflow guard: it reads the largest product only
when a bound on the d(n), one per table or per streamed window,
squared reaches 2^32.  build_mult_table gives f(n) as exact Python
ints in an object array by the smooth-part rule of the divisor fill, with
no SPF table.  charge() is the one memory-cap check: callers charge their
allocations before making them.

SEGMENT_SIZE is sized to the L2 cache rather than to memory: a window of
2^19 uint32 entries is 2 MiB, so the many strided passes over one window
(one per sieving prime in the builders, one per prime power of the shift
in shifted_windows) mostly hit cache instead of streaming the window from
RAM.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import isqrt, log2
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from divcorr.arith import MultiplicativeSpec, divisors, trial_factorize
from divcorr.errors import ContractError, RangeError, ResourceError

SEGMENT_SIZE = 1 << 19  # table entries per window
# bytes per entry charged by build_mult_table: the object array's pointer
# (8), one int object (28-40 below 2^120; none for Python's shared small
# ints) and the fill's chunk temporaries; tracemalloc peaks at 2e5 entries
# are 21 (d), 52 (sigma_1), 58 (sigma_3) and 61 (tau)
MULT_ENTRY_BYTES = 96
DEFAULT_MEMORY_CAP = 2 << 30  # bytes
MEMCAP_ENV = "DIVCORR_MEMCAP"
_WHEEL = 75600  # 2^4 3^3 5^2 7: the divisor fill's wheel
_LOG_UNIT = 1024  # K, the divisor fill's log units per bit
_OMEGA = 1 << 16  # one prime in the divisor fill's packed word
_MULT_CHUNK = 1 << 16  # entries per chunk of build_mult_table


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

    @cached_property
    def bound(self) -> int:
        """The largest d(n) of the table, read on first use and kept: the
        bound of _pair_products for every call over the table."""
        return int(self.values[1:].max(initial=0))


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


def _log_units(p: int) -> int:
    """round(K log2 p), the log of the prime p in the fill's units."""
    return round(_LOG_UNIT * log2(p))


def _wheel_patterns() -> tuple[np.ndarray, np.ndarray]:
    """d(g) as uint8 and minus the log of g as _divisor_fill sums it, as
    int16, for g = gcd(r, _WHEEL) and r in [0, _WHEEL): n mod _WHEEL fixes
    the part g of n that the wheel primes give up to the wheel's exponents.
    Read as int32, the packed word of g is that log, since omega is 0."""
    d = np.zeros(_WHEEL, dtype=np.uint8)
    for t in divisors(trial_factorize(_WHEEL)):
        d[::t] += 1  # t | r exactly when t | g
    log = np.zeros(_WHEEL, dtype=np.int16)
    for p, e in trial_factorize(_WHEEL):
        for k in range(1, e + 1):
            log[:: p**k] -= _log_units(p)
    return d, log


_WHEEL_D, _WHEEL_LOG = _wheel_patterns()


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
    it returns or raises.  A child that raised (status 1) has its windows
    rerun in the parent, so a fault of the window raises here with its own
    class and message; if the rerun passes, or the child was killed, or a
    fork fails, the call raises ResourceError.  One window, or a platform
    without fork, makes the parent the only worker.
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
    for rank, (pid, status) in enumerate(zip(pids, statuses), 1):
        code = os.waitstatus_to_exitcode(status)
        if code == 1:
            for lo, hi in bounds[rank::workers]:
                fill(out, lo, hi)
        if code > 0:
            raise ResourceError(f"sieve worker {pid} exited with status {code}")
        if code < 0:
            raise ResourceError(f"sieve worker {pid} was killed by signal {-code}")
    return out


def build_spf(limit: int) -> SpfTable:
    """Smallest-prime-factor table over [1, limit], sieved as one array.

    Args:
        limit: inclusive upper bound, must satisfy 1 <= limit < 2^31.

    Returns:
        SpfTable with spf[1] = 1 and spf[p] = p on primes.
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    if limit >= 1 << 31:
        raise RangeError("limit must fit in int32")
    charge(13 * (limit + 1))  # int32 table, bool mask, int64 index per prime
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in _base_primes(isqrt(limit)).tolist():
        sl = spf[p * p :: p]
        sl[sl == 0] = p
    # untouched entries are prime; this also leaves spf[0] = 0, spf[1] = 1
    unmarked = np.nonzero(spf == 0)[0]
    spf[unmarked] = unmarked
    spf.flags.writeable = False
    return SpfTable(limit, spf)


class _FillPlan(NamedTuple):
    """What _divisor_fill needs beyond its window, built once per call: each
    prime power p^k past the wheel, by p and then by k, with the word it
    adds and the factor old of d that it turns into new."""

    steps: np.ndarray  # p^k, int64
    adds: np.ndarray  # added to the packed word modulo 2^32, uint32
    olds: np.ndarray  # uint8
    news: np.ndarray  # uint8
    offset: int  # round(K/2 log2 P_min), P_min the least prime above max(r, 7)
    words: np.ndarray  # the packed words, uint32, one window long


def _fill_plan_bytes(top: int, size: int) -> int:
    """The bytes that callers charge for _fill_plan(top, size): 4 per word,
    and 48 per isqrt(top) plus 4 KiB for the prime powers (tracemalloc
    peaks per isqrt(top) of _fill_plan(top, 1): 74 at 1e4, 31 at 3e7, 25 at
    1e9; of a plan and one full fill, less the words and the window: 98,
    25 and 17)."""
    return 4 * size + 48 * isqrt(top) + 4096


def _fill_plan(top: int, size: int) -> _FillPlan:
    """The plan of _divisor_fill for windows of at most size entries that end
    at most at top: every prime power p^k <= top with p <= r = isqrt(top)
    that the wheel does not cover, and a word buffer of size entries."""
    steps, adds, olds, news = [], [], [], []
    r = isqrt(top)
    for p in _base_primes(r).tolist():
        units, q, k = _log_units(p), p, 1
        while q <= top:
            if _WHEEL % q:  # the wheel tiles the others
                if _WHEEL % p == 0 or k > 2:
                    add, old, new = 0, k, k + 1
                elif k == 1:  # p > 7 counts in omega while its exponent is 1
                    add, old, new = _OMEGA, 1, 1
                else:
                    add, old, new = -_OMEGA, 1, 3
                steps.append(q)
                adds.append((add - units) % (1 << 32))
                olds.append(old)
                news.append(new)
            q, k = q * p, k + 1
    pmin = max(r, 7) + 1
    while trial_factorize(pmin) != ((pmin, 1),):
        pmin += 1
    return _FillPlan(
        np.array(steps, dtype=np.int64),
        np.array(adds, dtype=np.uint32),
        np.array(olds, dtype=np.uint8),
        np.array(news, dtype=np.uint8),
        round(_LOG_UNIT / 2 * log2(pmin)),
        np.empty(size, dtype=np.uint32),
    )


def _tile(buf: np.ndarray, pattern: np.ndarray, phase: int) -> None:
    """buf[i] = pattern[(phase + i) % _WHEEL], by slices of the pattern."""
    head = min(len(buf), _WHEEL - phase)
    buf[:head] = pattern[phase : phase + head]
    rows, rest = divmod(len(buf) - head, _WHEEL)
    buf[head : head + rows * _WHEEL].reshape(rows, _WHEEL)[:] = pattern
    buf[head + rows * _WHEEL :] = pattern[:rest]


def _divisor_fill(seg: np.ndarray, lo: int, hi: int, plan: _FillPlan) -> None:
    """Write d(n) for n in [lo, hi], 1 <= lo, into seg[n - lo], a window of
    exactly hi - lo + 1 entries: the one divisor fill of the table build and
    the streamed pass.

    Every prime p <= r = isqrt(top), top the plan's, with p <= hi is sieved,
    so each n in the window is s or s P, s its smooth part and P a prime
    above max(r, 7), and d(n) = d(s), doubled when s < n.  The fill keeps
    d in seg and one packed uint32 word per entry in plan.words: the high
    16 bits count omega, the primes above 7 that divide n exactly once, and
    the low 16 bits hold minus the log2 of s at K = 1024 units per bit, each
    prime factor's log rounded on its own.  So:

    - the wheel tiles d(g) and the word of g, g = gcd(n, 2^4 3^3 5^2 7);
    - each prime p > 7 adds 2^16 - round(K log2 p) to its multiples, one
      strided add per prime;
    - each power p^k with k >= 2 adds -round(K log2 p) and turns the factor
      k of d into k + 1; at p^2 with p > 7 it also takes p back out of omega
      and multiplies d by 3, since the 2 of a single p is omega's.

    One vectorised pass finds the first multiple of each p^k and drops the
    p^k with none in the window.  The word is now omega 2^16 - L modulo
    2^32, L the accumulated log.  Last, on each chunk [n0, 2 n0) of the
    window, n0 = 2^j, it adds 2^16 + T with T = K j - plan.offset =
    K (log2 n0 - 1/2 log2 P_min), rounded, and shifts right by 16, which
    leaves omega + [L <= T], and d <<= that: three vector operations.

    The margin: L misses K log2 s by at most Omega(n)/2 <= 32 units.  When
    s = n, L - T >= K/2 log2 P_min - 32; when s = n/P < 2 n0 / P_min,
    T - L >= K/2 log2 P_min - K - 32.  P_min >= 11 leaves at least 700
    units on both sides, and no n < 2^64 has omega + 1 >= 16.
    """
    m = hi - lo + 1
    d, w = seg, plan.words[:m]
    _tile(d, _WHEEL_D, lo % _WHEEL)
    _tile(w.view(np.int32), _WHEEL_LOG, lo % _WHEEL)
    first = (-lo) % plan.steps
    rows = np.nonzero(first < m)[0]  # the p^k with a multiple in the window
    for start, q, add, old, new in zip(
        first[rows].tolist(),
        plan.steps[rows].tolist(),
        plan.adds[rows],  # uint32 scalars: no conversion per add
        plan.olds[rows].tolist(),
        plan.news[rows].tolist(),
    ):  # each prime's k rises
        sub = w[start::q]
        sub += add
        if new > 1:
            sub = d[start::q]
            if old > 1:
                sub //= old
            sub *= new
    for j in range(lo.bit_length() - 1, hi.bit_length()):
        a, b = max(lo, 1 << j) - lo, min(hi + 1, 2 << j) - lo
        sub = w[a:b]
        sub += _OMEGA + _LOG_UNIT * j - plan.offset
        sub >>= 16
        d[a:b] <<= sub


def build_divisor_table(limit: int) -> DivisorTable:
    """Divisor-count table d(1..limit), filled window by window.

    Args:
        limit: inclusive upper bound.

    Returns:
        DivisorTable of uint32 counts.
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    size = min(SEGMENT_SIZE, limit)
    charge((limit + 1) * 4 + _fill_plan_bytes(limit, size))
    plan = _fill_plan(limit, size)

    def fill(d: np.ndarray, lo: int, hi: int) -> None:
        lo = max(lo, 1)  # slot 0 stays 0
        _divisor_fill(d[lo : hi + 1], lo, hi, plan)

    d = _fan_out(limit + 1, np.uint32, list(windows(0, limit)), fill)
    d.flags.writeable = False
    return DivisorTable(limit, d)


def _pair_products(
    left: np.ndarray, right: np.ndarray, out: np.ndarray, bound: int
) -> np.ndarray:
    """left * right into out in uint32, for entries of both at most bound:
    the one overflow guard of the d products.  Only when bound^2 reaches
    2^32 does it read max(left) * max(right), a bound on every product,
    and raise OverflowError if that reaches 2^32."""
    if bound * bound >= 1 << 32 and int(left.max()) * int(right.max()) >= 1 << 32:
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
    charges it with 16 B per window entry; the table's bound, its largest
    d(n), read once per table, is the bound of _pair_products, so a window
    raises OverflowError as _pair_products does.
    """
    need = limit + shift
    if dtab.limit < need:
        raise RangeError(f"divisor table limit {dtab.limit} < {need}")
    size = min(SEGMENT_SIZE, limit)
    charge(dtab.values.nbytes + 16 * size)
    d = dtab.values
    pdivs = [p for p, _ in trial_factorize(shift)] if product else []
    buf = np.empty(size if out is None else 0, dtype=np.uint32)
    scratch = np.empty((3, (size + 1) // 2 if pdivs else 0), dtype=np.uint32)

    def window(lo: int, hi: int) -> np.ndarray:
        dest = buf[: hi - lo + 1] if out is None else out[lo : hi + 1]
        left, right = d[lo : hi + 1], d[lo + shift : hi + shift + 1]
        seg = _pair_products(left, right, dest, dtab.bound)
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


def _divisor_summatory(y: int) -> int:
    """sum_{n<=y} d(n) by the hyperbola identity, in O(sqrt y)."""
    r = isqrt(y)
    return 2 * sum(y // i for i in range(1, r + 1)) - r * r


def _check_d_sum(value: int, y: int, after: int = 0) -> None:
    """The self-test of the streamed pass: raise RuntimeError naming y unless
    value is the sum of d(n) over after < n <= y by the hyperbola identity."""
    want = _divisor_summatory(y) - _divisor_summatory(after)
    if value != want:
        raise RuntimeError(
            f"divisor sieve self-test failed at y={y}: sum of d(n) over "
            f"({after}, {y}] {value} != {want} by the hyperbola identity"
        )


def stream_pair_sums(cells: Iterable[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """{(y, w): sum_{n<=y} d(n) d(n+w)} for every cell (y, w) with y >= 1,
    exact, in one pass over the windows of [1, max y] that keeps no d-table;
    cells with y = 0 get no entry.

    Each window [lo, hi] is sieved into one reused buffer by the divisor
    fill of build_divisor_table, on [lo, hi + w] for the widest near shift w
    still needed there, a near shift being one no wider than a window.  A
    far shift sieves only its own piece [lo + w, n + w] into a second
    buffer, so no buffer spans the gap.  Each shift forms d(n) d(n+w) up to
    its largest y only, in uint32, and sums it in uint64 between the
    window's cuts: its start and every y + 1 inside it (np.sum per segment
    casts in small buffers; np.add.reduceat would cast the whole window to
    uint64 first).  Every shift is multiplied by _pair_products, with the
    window's largest d(n) as its bound, or for a far shift the larger of
    that and the largest d of its piece.  Each segment sum is one slot of a
    shared array; the windows go to the workers of _fan_out, and the parent
    adds each shift's slots in window order as Python ints, so the sums are
    exact and deterministic; a window that raises in a worker raises here.

    The pass also sums d(n) up to every y, and up to the top y + w of any
    near cell, which the last window sieves to, and sums each far piece;
    it checks each sum against the hyperbola identity
    sum_{n<=y} d(n) = 2 sum_{i<=r} floor(y/i) - r^2, r = floor(sqrt y), a
    piece (a, y] as the difference of two, so no sieved d(n) goes
    unchecked and a mismatch raises RuntimeError naming y.  Charges 12 B
    per entry of a window plus the widest near shift, the fill's prime
    powers up to the top n + w and 8 B per slot; raises RangeError for a
    cell with y < 0 or w < 1.
    """
    marks: dict[int, set[int]] = {0: set()}  # shift -> its ys; 0 sums d(n)
    for y, w in cells:
        if y < 0 or w < 1:
            raise RangeError(f"cell x={y}, v={w} needs x >= 0 and v >= 1")
        if y:
            marks.setdefault(w, set()).add(y)
            marks[0].add(y)
    if not marks[0]:
        return {}
    top = max(marks[0])
    size = min(SEGMENT_SIZE, top)
    near = max(w for w in marks if w <= size)
    ends = {w: max(marks[w]) + w for w in marks}
    # the last window sieves on to the top n + w any near shift reads, and
    # the d row sums that far too, so no sieved d(n) goes unchecked
    marks[0].add(max(ends[w] for w in marks if w <= size))
    # per shift: its last y, the starts of its segments and its first slot
    rows = []
    slot = 0
    for w in sorted(marks):
        last = max(marks[w])
        cuts = {lo for lo, _ in windows(1, min(last, top))} | {y + 1 for y in marks[w]}
        starts = np.array(sorted(cuts - {last + 1}), dtype=np.int64)
        rows.append((w, last, starts, slot))
        slot += len(starts)
    reach = max(ends.values())
    # dbuf and far, 4 B per entry each; the plan; the slots
    charge(8 * (size + near) + _fill_plan_bytes(reach, size + near) + 8 * slot)
    dbuf = np.empty(size + near, dtype=np.uint32)
    far = np.empty(size if max(marks) > size else 0, dtype=np.uint32)
    plan = _fill_plan(reach, size + near)
    pbuf = plan.words  # idle while the fill runs; then the products

    def fill(slots: np.ndarray, lo: int, hi: int) -> None:
        # each row still summing here, with the last n it sums in this window
        live = [
            (row, row[1] if hi == top else min(hi, row[1]))
            for row in rows
            if row[1] >= lo
        ]
        end = max(n + row[0] for row, n in live if row[0] <= size)
        dwin = dbuf[: end - lo + 1]
        _divisor_fill(dwin, lo, end, plan)
        bound = int(dwin.max())
        for (w, _, starts, first), n in live:
            m = n - lo + 1
            terms = dwin[:m]
            if w > size:
                right = far[:m]
                _divisor_fill(right, lo + w, n + w, plan)
                far_bound = max(bound, int(right.max()))
                terms = _pair_products(terms, right, pbuf[:m], far_bound)
                _check_d_sum(int(np.sum(right, dtype=np.uint64)), n + w, lo + w - 1)
            elif w:
                terms = _pair_products(terms, dwin[w : w + m], pbuf[:m], bound)
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
            else:
                _check_d_sum(value, y)
    return sums


def build_mult_table(spec: MultiplicativeSpec, limit: int) -> np.ndarray:
    """f(0..limit) for a multiplicative spec, as exact Python numbers.

    As in _divisor_fill, with r = isqrt(limit) each n <= limit is s or s P,
    s its r-smooth part and P > r prime, so f(n) = f(s) or f(s) f(P).  In
    each chunk of _MULT_CHUNK entries, every p <= r counts its exponent e
    into an int8 row and multiplies p into the int64 s on the multiples of
    p, p^2, ..., then multiplies f(p^e) into the multiples of p; last, n = P
    gets f(P) and n = s P > P reads f(P) from the table.  So
    spec.prime_power_value runs once per prime power p^k <= limit.  Only
    multiplications are used, so the values are exact for any integer spec,
    including one with f(p^k) = 0.

    Returns an object-dtype array of limit+1 entries with f[0] = 0 and
    f[1] = 1.  Charges MULT_ENTRY_BYTES per entry against the memory cap
    before allocating; raises RangeError unless limit >= 1, and passes on
    whatever the spec raises (RangeError for a tau table that stops short
    of a prime power).
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    charge(MULT_ENTRY_BYTES * (limit + 1))
    fpk = {}  # p -> [f(1), f(p), f(p^2), ...] up to the last p^k <= limit
    for p in _base_primes(isqrt(limit)).tolist():
        values, q = [1], p
        while q <= limit:
            values.append(spec.prime_power_value(p, len(values)))
            q *= p
        fpk[p] = np.array(values, dtype=object)
    f = np.ones(limit + 1, dtype=object)
    f[0] = 0
    for lo in range(1, limit + 1, _MULT_CHUNK):
        hi = min(lo + _MULT_CHUNK - 1, limit)
        seg = f[lo : hi + 1]
        e = np.zeros(len(seg), dtype=np.int8)
        s = np.ones(len(seg), dtype=np.int64)
        for p, values in fpk.items():
            for q in (p**k for k in range(1, len(values))):
                at = (-lo) % q
                e[at::q] += 1
                s[at::q] *= p
            start = (-lo) % p
            seg[start::p] *= values[e[start::p]]
            e[start::p] = 0
        rest = np.arange(lo, hi + 1, dtype=np.int64) // s
        at = np.nonzero((rest > 1) & (s == 1))[0]  # n = P
        fp = [spec.prime_power_value(q, 1) for q in (at + lo).tolist()]
        seg[at] = np.array(fp, dtype=object)
        at = np.nonzero((rest > 1) & (s > 1))[0]  # n = s P
        seg[at] *= f[rest[at]]
    return f
