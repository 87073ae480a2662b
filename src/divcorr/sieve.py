"""Sieved tables over [1, N]: d(n), the one pass of the d sums, over a
d-table or streamed with none, the exact values f(n) of any multiplicative
spec, and every term of a correlation sum; build_spf keeps a
smallest-prime-factor table, one plain sieve over the whole array, for
callers outside the package.

windows() is the one walk in windows of SEGMENT_SIZE entries.  The d
builder fills its table window by window, byte-identical to a monolithic
build; tables are immutable and safe to share.  A table of more
than one window is filled on all usable CPUs: window k is task k of
fanout.fan_out, the one fork site, whose forked workers take the tasks
round-robin and write one shared anonymous mapping, and the tasks of a
worker that raised are rerun in the caller, so the error keeps its class.
No knob selects this; inside a worker of another fan_out (a verify
suite's) the tasks run in that worker.  time.process_time() of the caller
leaves out the children's CPU time.
_divisor_fill, the one fill of d, works in the log domain behind a 75600
wheel: one packed uint32 word per entry counts the primes above 7 that
divide n once and holds minus the rounded log2 of the smooth part s of n.
Each such prime p <= sqrt(top) is one strided add to the words of its
multiples, each prime power past the wheel also updates d, and a last pass
compares each log with a threshold per dyadic chunk, so d doubles once per
counted prime and once more where s < n.  A window thus costs about one
vector operation per prime <= sqrt(hi), not one per i <= sqrt(hi).
stream_pair_sums is the one pass of the d sums: it serves many cells, the
pair form sum_{n<=y} d(n) d(n+w) and the product form sum_{n<=y}
d(n(n+w)), as a plain dict, one row per shift and shape.  Its windows are
tasks of the same fan_out, and it holds O(window) memory beyond its source:
the slices of a d-table (sum_dd, sum_dpoly and the Lemma 1 transforms), or
windows sieved by the divisor fill of the table build, a shift wider than
a window in a piece of its own (the CLI's sums, with no d-table).  A row
keeps only its sorted ys, and the slot of each y in the shared array
follows from the y itself; a sieved window also writes its own sums of
d(n), whose running total the parent checks by the hyperbola identity at
the window's first y, with no row of its own.  Every
d(n) d(n+w) and every d(n(n+w)), those of shifted_product_values too, is
formed by _pair_products, the one overflow guard: it reads the largest
product only when a bound on the d(n), one per table or per streamed
window, squared reaches 2^32, and corrects a product-form window at the
primes of w.  That correction is periodic in n modulo q = p^k, q at most
_PATTERN_CAP: per prime p of w, one right shift and one wrapping uint32
multiply by a pattern of one period, tiled over the multiples of p (exact
division by an inverse modulo 2^32), and an exact //= and *= only at the
multiples of q in n and in n+w.  build_mult_table gives f(n) as exact
Python ints in an object array by the smooth-part rule of the divisor
fill, with no SPF table, and f_terms forms every f(n) f(n+v) and
f(n(n+v)) of a window from such a table.  The product forms split n(n+w)
at the primes of w, and the f-table needs each n's exponents: all three
read v_p(n) from _valuations, the one valuation walk, at the multiples of
p or of a power of p in a window, and so do the correction's patterns.
charge() is the one memory-cap check: callers charge their allocations
before making them.

SEGMENT_SIZE is sized to the L2 cache rather than to memory: a window of
2^19 uint32 entries is 2 MiB, so the many strided passes over one window
(one per sieving prime in the builders, two per prime of the shift in the
product form) mostly hit cache instead of streaming the window from RAM.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from math import isqrt, log2
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from divcorr.arith import MultiplicativeSpec, divisors, trial_factorize
from divcorr.errors import ContractError, RangeError, ResourceError
from divcorr.fanout import fan_out

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
_PATTERN_CAP = 1 << 12  # the longest period of a product-form correction pattern
_PATTERN_EXP = _PATTERN_CAP.bit_length() - 1  # its largest exponent, at p = 2
# bytes charged by stream_pair_sums besides 8 B per slot of its shared
# array: per window, for its five d slots and the Python prefix sums of the
# longest row, which has a slot per window (the list of its slots, its
# prefix sums and, while they are built, the last row's); per cell, for its
# y in the lists and the array of its row, its prefix sum and its sum; per
# row, for the row's own objects.  tracemalloc peaks of whole passes in
# windows of 64, one worker, grow by 124-126 B per window for one cell and
# 248-255 B for twelve (six shifts in both forms), against 200 and 288 B
# charged; by at most 230 B per cell of one row or of twelve; and by at most
# 656 B per row, one cell each over 20 windows, against 1206 B charged
_SEGMENT_BYTES = 192
_CELL_BYTES = 384
_ROW_BYTES = 640


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
    """The bytes that callers charge for _fill_plan(top, size) and one fill
    of a window with it: 4 per word, 48 per isqrt(top) for the prime
    powers, and 8 KiB for the plan's array headers and the fill's lists per
    window, which dominate a small top.  tracemalloc peaks of a plan and one
    full fill, less the words and the window: 4.2 KB at top 100, 9.4 KB at
    1e4, 20 KB at 1e5, then per isqrt(top) 48 at 1e6, 31 at 3e7, 25 at
    1e9."""
    return 4 * size + 48 * isqrt(top) + 8192


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


def _tiles(buf: np.ndarray, phase: int, *patterns: np.ndarray) -> Iterator[tuple]:
    """(part, *pattern parts) over the 1-D view buf, so that buf[i] meets
    pattern[(phase + i) % period]: a head, the whole periods as the rows of
    a 2-D view of buf (a view, since buf has one stride), and a tail, each
    one broadcast operation."""
    period = len(patterns[0])
    head = min(len(buf), period - phase)
    rows, rest = divmod(len(buf) - head, period)
    yield buf[:head], *(pat[phase : phase + head] for pat in patterns)
    yield buf[head : head + rows * period].reshape(rows, period), *patterns
    yield buf[head + rows * period :], *(pat[:rest] for pat in patterns)


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
    for part, pattern in _tiles(d, lo % _WHEEL, _WHEEL_D):
        part[...] = pattern
    for part, pattern in _tiles(w.view(np.int32), lo % _WHEEL, _WHEEL_LOG):
        part[...] = pattern
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

    def fill(d: np.ndarray, k: int) -> None:
        lo = 1 + k * SEGMENT_SIZE  # slot 0 stays 0
        hi = min(lo + SEGMENT_SIZE - 1, limit)
        _divisor_fill(d[lo : hi + 1], lo, hi, plan)

    d = fan_out(limit + 1, np.uint32, -(-limit // SEGMENT_SIZE), fill)
    d.flags.writeable = False
    return DivisorTable(limit, d)


def _valuations(
    lo: int, hi: int, p: int, base: int = 0, k: int = 1
) -> tuple[int, np.ndarray]:
    """The offset of the first multiple of q = p^k in [lo, hi], 1 <= lo,
    and a uint32 row of base + v_p(n), one entry per multiple n of q in the
    window: the one valuation walk, one strided add per power p^j <= hi
    past q."""
    q = p**k
    first = (-lo) % q
    row = np.full(len(range(first, hi - lo + 1, q)), base + k, dtype=np.uint32)
    pj = q
    while (pj := pj * p) <= hi:
        row[(-lo - first) % pj // q :: pj // q] += 1
    return first, row


def _correction_codes() -> tuple[np.ndarray, np.ndarray]:
    """For each a, b < _PATTERN_EXP, at a * _PATTERN_EXP + b: the right
    shift s = v_2((a+1)(b+1)) as uint8, and the multiplier
    Q = (a+b+1) / k' modulo 2^32 as uint32, k' the odd part of (a+1)(b+1).
    Code 0, a = b = 0, is the identity: s = 0, Q = 1."""
    shifts, factors = [], []
    for a in range(_PATTERN_EXP):
        for b in range(_PATTERN_EXP):
            k = (a + 1) * (b + 1)
            s = (k & -k).bit_length() - 1
            shifts.append(s)
            factors.append(pow(k >> s, -1, 1 << 32) * (a + b + 1) % (1 << 32))
    return np.array(shifts, dtype=np.uint8), np.array(factors, dtype=np.uint32)


_CODE_SHIFTS, _CODE_FACTORS = _correction_codes()


def _correction_pattern(p: int, k: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """The shifts and multipliers of the product-form correction at p over
    one period of the multiples n of p, p | shift: entry i is for
    n = p i modulo q = p^k, and holds the code of a = v_p(n) and
    b = v_p(n + shift), or the identity where q divides n or n + shift."""
    a = _period_valuations(p, k)
    j = -shift // p % len(a)  # q | n + shift
    code = a * _PATTERN_EXP
    code[j:] += a[: len(a) - j]  # b = v_p(p i + shift), read at i - j
    code[:j] += a[len(a) - j :]
    code[[0, j]] = 0
    return _CODE_SHIFTS[code], _CODE_FACTORS[code]


@cache
def _period_valuations(p: int, k: int) -> np.ndarray:
    """v_p(n) at n = q + p i for i below p^(k-1), q = p^k, read-only: the
    row of _correction_pattern, kept per p and k."""
    _, row = _valuations(p**k, 2 * p**k - 1, p)
    row.flags.writeable = False
    return row


def _correction_bytes(size: int) -> int:
    """The bytes that callers charge for the product-form correction of a
    window of size entries by _pair_products: 16 per entry of the longest
    pattern period, for the valuation rows, codes, shifts and multipliers
    of one period, and 1/4 per window entry, for the rows of a prime above
    the square root of _PATTERN_CAP, walked at its every multiple.
    tracemalloc peaks of one call for the shifts 60 and 30030: 5.8 KB at
    255 entries, 38 KB at 4096, 53 KB at 2^16 and 2^19; and 94 to 105 KB
    at 2^19 for 67, 134 and 2010, the rows of 67."""
    return 16 * _PATTERN_CAP + size // 4


def _pair_products(
    left: np.ndarray,
    right: np.ndarray,
    out: np.ndarray,
    bound: int,
    lo: int = 1,
    shift: int = 0,
    factors: Iterable[tuple[int, int]] = (),
) -> np.ndarray:
    """left * right into out in uint32, for entries of both at most bound:
    the one overflow guard and the one former of the d products.  Only when
    bound^2 reaches 2^32 does it read max(left) * max(right), a bound on
    every product, and raise OverflowError if that reaches 2^32.

    Given the factorisation, pairs (p, c), of shift, with left[i] = d(n)
    and right[i] = d(n+shift) for n = lo + i, it forms d(n(n+shift))
    instead.  A prime shared by n and n+shift divides the shift, and for
    such p, p | n exactly when p | n+shift.  So with a = v_p(n) and
    b = v_p(n+shift),

        d(n(n+shift)) = d(n) d(n+shift) * prod_{p | shift} (a+b+1) / ((a+1)(b+1))

    where each factor is 1 unless p | n.  The factors are applied in place,
    one prime at a time, at the multiples of p only.  Exactness: before
    the step at p an entry is x = t (a+1)(b+1) with t an integer, since
    a+1 and b+1 are factors of d(n) and d(n+shift) and the earlier steps
    changed only the factors of other primes.  The step writes
    t (a+b+1) <= x, so no entry ever exceeds its first product, which the
    guard keeps below 2^32.

    Take q = p^k, the largest power of p at most _PATTERN_CAP and the
    window, or p.  Where q divides neither n nor n+shift, a and b are those
    of n mod q and both below k, so the step is periodic in n: one period
    of _correction_pattern is tiled over the multiples of p by broadcast
    operations, x >>= s then x *= Q in uint32, with s = v_2((a+1)(b+1)) and
    Q = (a+b+1) / k' modulo 2^32, k' the odd part of (a+1)(b+1).  x >> s is
    t k' exactly, and t k' Q is t (a+b+1) modulo 2^32, which the wrapping
    multiply leaves as it is, since t (a+b+1) <= x < 2^32: exact division
    by the inverse modulo 2^32 (Jebelean 1993).  The multiples of q in n
    and in n+shift, which the pattern leaves alone, take x //= (a+1)(b+1)
    and x *= a+b+1 from the rows of _valuations: if q | shift they are the
    same n and both rows are read; otherwise the other side's exponent is
    c = v_p(shift).
    """
    if bound * bound >= 1 << 32 and int(left.max()) * int(right.max()) >= 1 << 32:
        raise OverflowError("d(n) d(n+shift) exceeds uint32")
    seg = np.multiply(left, right, out=out)
    hi = lo + len(seg) - 1
    for p, c in factors:
        k, q = 1, p
        while q * p <= min(_PATTERN_CAP, len(seg)):
            k, q = k + 1, q * p
        if k > 1:
            first = (-lo) % p
            pattern = _correction_pattern(p, k, shift)
            for part, s, f in _tiles(seg[first::p], (lo + first) % q // p, *pattern):
                part >>= s
                part *= f
        first, a1 = _valuations(lo, hi, p, 1, k)  # a + 1 at the multiples of q
        start, b1 = _valuations(lo + shift, hi + shift, p, 1, k)  # b + 1
        if k <= c:  # q | n exactly when q | n+shift
            fixes = [(first, a1, b1)]
        else:
            fixes = [(first, a1, c + 1), (start, b1, c + 1)]
        for first, x, y in fixes:
            sub = seg[first::q]
            sub //= x * y
            x += y - 1  # a + b + 1
            sub *= x
    return seg


def f_terms(
    spec: MultiplicativeSpec, f: np.ndarray, lo: int, hi: int, v: int, product: bool
) -> np.ndarray:
    """f(n) f(n+v) for n in [lo, hi], 1 <= lo, over an f-table covering
    hi + v, or f(n(n+v)) when product, as exact Python numbers in an object
    array: the one former of the f terms.  The product form uses the strip
    rule: a prime shared by n and n+v divides v, so with L = n and R = n+v
    stripped of their powers p^a, p^b of each p | v, read from _valuations,
    f(n(n+v)) = f(L) f(R) prod f(p^(a+b)) over coprime factors, and
    f(p^(a+b)) goes into the multiples of p only."""
    if not product or v == 1:
        return f[lo : hi + 1] * f[lo + v : hi + v + 1]
    left = np.arange(lo, hi + 1, dtype=np.int64)
    right = left + v
    factors = []  # per p: the first multiple of p, p, and f(p^(a+b)) at each
    for p, _ in trial_factorize(v):
        first, a = _valuations(lo, hi, p)
        _, b = _valuations(lo + v, hi + v, p)
        left[first::p] //= np.int64(p) ** a
        right[first::p] //= np.int64(p) ** b
        ks, kat = np.unique(a + b, return_inverse=True)
        fpk = [spec.prime_power_value(p, k) for k in ks.tolist()]
        factors.append((first, p, np.array(fpk, dtype=object)[kat]))
    terms = f[left] * f[right]
    for first, p, fpk_at in factors:
        terms[first::p] *= fpk_at
    return terms


def shifted_product_values(dtab: DivisorTable, limit: int, shift: int) -> np.ndarray:
    """d(n(n+shift)) for n in [1, limit] from a d-table covering limit+shift,
    formed window by window by _pair_products straight into the output.

    Returns a uint32 array of limit+1 entries with slot 0 = 0.  Raises
    RangeError if the d-table is too short; charges the table, the output
    and the product-form correction of a window (_correction_bytes), then
    raises OverflowError as _pair_products does, with the table's bound.
    Memory beyond the output is O(window).
    """
    if dtab.limit < limit + shift:
        raise RangeError(f"divisor table limit {dtab.limit} < {limit + shift}")
    size = min(SEGMENT_SIZE, limit)
    charge(dtab.values.nbytes + (limit + 1) * 4 + _correction_bytes(size))
    out = np.zeros(limit + 1, dtype=np.uint32)
    d = dtab.values
    factors = trial_factorize(shift)
    for lo, hi in windows(1, limit):
        left, right = d[lo : hi + 1], d[lo + shift : hi + shift + 1]
        _pair_products(left, right, out[lo : hi + 1], dtab.bound, lo, shift, factors)
    return out


def _divisor_summatory(y: int) -> int:
    """sum_{n<=y} d(n) by the hyperbola identity, in O(sqrt y), exact for
    0 <= y < 2^64: the quotients y // i are uint64, and their low and high
    32-bit halves are summed apart, so neither sum wraps."""
    r = isqrt(y)
    q = np.uint64(y) // np.arange(1, r + 1, dtype=np.uint64)
    low = int(np.sum(q & 0xFFFFFFFF, dtype=np.uint64))
    high = int(np.sum(q >> 32, dtype=np.uint64))
    return 2 * (low + (high << 32)) - r * r


def _check_d_sum(value: int, y: int, after: int = 0, want: int | None = None) -> None:
    """The self-test of the streamed pass: raise RuntimeError naming y unless
    value is the sum of d(n) over after < n <= y: want, as the next window
    sieved those d(n), or else by the hyperbola identity."""
    how = "by the hyperbola identity" if want is None else "as sieved again"
    if want is None:
        want = _divisor_summatory(y) - (after and _divisor_summatory(after))
    if value != want:
        raise RuntimeError(
            f"divisor sieve self-test failed at y={y}: sum of d(n) over "
            f"({after}, {y}] {value} != {want} {how}"
        )


def stream_pair_sums(
    cells: Iterable[tuple[int, ...]], dtab: DivisorTable | None = None
) -> dict[tuple[int, ...], int]:
    """{cell: its exact sum} for every cell with y >= 1, in one pass over the
    windows of [1, max y]: a cell (y, w) is the pair form
    sum_{n<=y} d(n) d(n+w), and (y, w, True) the product form
    sum_{n<=y} d(n(n+w)), each keyed as given (y, w) or (y, w, True); cells
    with y = 0 get no entry.

    The pass keeps one row per shift and shape.  A window's d values come
    from dtab when it is given, as slices of the table, with the table's
    bound for _pair_products; RangeError if it does not reach every y + w,
    before anything is forked.  Without dtab no d-table is kept: each window
    [lo, hi] is sieved into one reused buffer by the divisor fill of
    build_divisor_table, on [lo, hi + w] for the widest near shift w still
    needed there, a near shift being one no wider than a window.  A far
    shift sieves only its own piece [lo + w, n + w] into a second buffer, so
    no buffer spans the gap.  The bound is then the window's largest d(n),
    or for a far shift the larger of that and the largest d of its piece.

    Each row forms its terms up to its largest y only, through
    _pair_products in uint32, and keeps only its sorted ys and its first
    slot in a shared array: in window k it has one slot per y in the window,
    the sum of its terms from the last cut up to that y, then one for the
    rest of the window, so the slot of ys[i] is first + i + k.  A row's
    terms are below b^2, b its bound, so per slot one np.add.reduceat in
    uint32 sums blocks of at most 2^32 // (b^2 + 1) terms, with no uint64
    copy of the window, and np.sum adds the blocks in uint64.  Window k,
    [1 + k S, (k + 1) S] for S = SEGMENT_SIZE, is task k of fan_out, which
    computes its bounds and its rows from k, and the parent adds each row's
    slots in window order as Python ints into one list of prefix sums and
    reads each y's sum at its slot, so the sums are exact and
    deterministic; a window that raises in a worker raises here.

    A sieving window also writes five d slots: its first cell y (of any
    row), the sum of d(n) up to it and over the rest of the window, the sum
    over its overhang, and, from the second window on, the sum over the
    last window's overhang as sieved again here.  A window but the last is
    sieved past its end, to the last n + w a near row reads there, and the
    last one to the top y + w of any near cell.  The parent keeps the
    running sum of d(n) and checks it against the hyperbola identity
    sum_{n<=y} d(n) = 2 sum_{i<=r} floor(y/i) - r^2, r = floor(sqrt y),
    at the first cell y in each window and at that top, at most wins + 1
    times for wins windows; it compares each window's overhang with its copy
    in the next window, window by window before that window's first y; and
    each far piece (a, y] is checked in its window, as the difference of two
    hyperbola sums.  So no sieved d(n) goes unchecked, and a mismatch raises
    RuntimeError naming y, or the overhang's last n.  It charges 12 B per
    entry of a window plus the widest near shift and the fill's prime powers
    up to the top n + w; a pass over dtab charges the table and 4 B per
    window entry.  Both charge the product-form correction of a window
    (_correction_bytes) when a cell is of product form, and its bookkeeping,
    counted from the list of the cells before any of it is built: 8 B per
    slot of the shared array, a slot per cell and one per window of each
    row, _SEGMENT_BYTES per window, _CELL_BYTES per cell and _ROW_BYTES per
    row.  RangeError for a cell with y < 0 or w < 1.
    """
    cells = list(cells)
    lasts: dict[tuple[int, bool], int] = {}  # (shift, product) -> its last y
    for y, w, *shape in cells:
        if y < 0 or w < 1:
            raise RangeError(f"cell x={y}, v={w} needs x >= 0 and v >= 1")
        if y:
            lasts[w, any(shape)] = max(y, lasts.get((w, any(shape)), 0))
    if not lasts:
        return {}
    top = max(lasts.values())
    size = min(SEGMENT_SIZE, top)
    reach = max(y + w for (w, _), y in lasts.items())
    # the last window sieves on to the top n + w any near shift reads, and
    # the d sums run that far too, so no sieved d(n) goes unchecked
    dtop = max(y + w if w <= size else top for (w, _), y in lasts.items())
    if dtab is not None and dtab.limit < reach:
        raise RangeError(f"divisor table limit {dtab.limit} < {reach}")
    # the bookkeeping, charged before it is built: per row a slot per y and
    # per window, 8 B each in the shared array; the d slots and prefix sums
    # per window, the cells' ys and sums and the rows' own objects
    wins = -(-top // SEGMENT_SIZE)
    slots = len(cells) + sum(-(-y // SEGMENT_SIZE) for y in lasts.values())
    rest = 8 * slots + _SEGMENT_BYTES * wins + _CELL_BYTES * len(cells)
    rest += _ROW_BYTES * len(lasts)
    if any(product for _, product in lasts):
        rest += _correction_bytes(size)
    if dtab is None:
        near = max((w for w, _ in lasts if w <= size), default=0)
        # dbuf and far, 4 B per entry each; the plan
        charge(8 * (size + near) + _fill_plan_bytes(reach, size + near) + rest)
        dbuf = np.empty(size + near, dtype=np.uint32)
        far = np.empty(size if max(lasts)[0] > size else 0, dtype=np.uint32)
        plan = _fill_plan(reach, size + near)
        pbuf = plan.words  # idle while the fill runs; then the products
    else:
        charge(dtab.values.nbytes + 4 * size + rest)
        pbuf = np.empty(size, dtype=np.uint32)
    marks: dict[tuple[int, bool], list] = {row: [] for row in lasts}
    for y, w, *shape in cells:
        if y:
            marks[w, any(shape)].append(y)
    # per row: its shift, its key's tail, the factorisation it corrects at,
    # its ys and its first slot; in window k the row has a slot per y there,
    # then one for the rest of the window, so ys[i] ends slot first + i + k
    rows, slot = [], 0
    for (w, product), ys in sorted(marks.items()):
        # not np.unique, whose first call adds about 0.6 MiB of RSS
        ys = np.array(sorted(set(ys)), dtype=np.int64)
        factors = trial_factorize(w) if product else ()
        rows.append((w, (True,) * product, factors, ys, slot))
        slot += len(ys) + -(-int(ys[-1]) // SEGMENT_SIZE)
    guard = slot  # five slots per window for a sieving pass's d sums

    def live(k: int) -> list:
        # each row still summing in window k, with the last n it sums there
        lo, hi = k * SEGMENT_SIZE, (k + 1) * SEGMENT_SIZE
        return [(row, min(hi, int(row[3][-1]))) for row in rows if row[3][-1] > lo]

    def end(k: int) -> int:
        # the last n whose d(n) a sieving pass fills in window k
        reads = [n + row[0] for row, n in live(k) if row[0] <= size]
        return dtop if k == wins - 1 else max([(k + 1) * SEGMENT_SIZE] + reads)

    def fill(slots: np.ndarray, k: int) -> None:
        lo = 1 + k * SEGMENT_SIZE
        if dtab is None:
            dwin = dbuf[: end(k) - lo + 1]
            _divisor_fill(dwin, lo, lo + len(dwin) - 1, plan)
            bound = int(dwin.max())
        else:
            dwin, bound = dtab.values[lo:], dtab.bound
        firsts = []  # per row with a y in the window, the entries up to it
        for (w, _, factors, ys, first), n in live(k):
            m = n - lo + 1
            right, b = dwin[w : w + m], bound
            piece = dtab is None and w > size  # a far shift's own piece
            if piece:
                right = far[:m]
                _divisor_fill(right, lo + w, n + w, plan)
                b = max(bound, int(right.max()))
            terms = _pair_products(dwin[:m], right, pbuf[:m], b, lo, w, factors)
            if piece:  # checked once the guard has read its products
                _check_d_sum(int(np.sum(right, dtype=np.uint64)), n + w, lo + w - 1)
            step = max(1, (1 << 32) // (b * b + 1))  # terms per uint32 block
            i, j = np.searchsorted(ys, (lo, n + 1))
            cuts = (ys[i:j] - (lo - 1)).tolist()
            firsts += cuts[:1]
            for at, (a, z) in enumerate(zip([0] + cuts, cuts + [m]), first + i + k):
                edges = np.arange(0, z - a, step)
                blocks = np.add.reduceat(terms[a:z], edges, dtype=np.uint32)
                slots[at] = np.sum(blocks, dtype=np.uint64)
        if dtab is None:
            # the window's first y, the sums of d(n) up to it and over the
            # rest of the window, the overhang past the window, and the last
            # window's overhang as sieved again here
            cut, again = min(firsts, default=0), dwin[: k and end(k - 1) - lo + 1]
            parts = dwin[:cut], dwin[cut:SEGMENT_SIZE], dwin[SEGMENT_SIZE:], again
            sums = [np.sum(part, dtype=np.uint64) for part in parts]
            slots[guard:].reshape(wins, 5)[k] = [cut and lo - 1 + cut, *sums]

    slots = fan_out(guard + 5 * wins, np.uint64, wins, fill)
    if dtab is None:
        # the overhang of each window but the last against its copy in the
        # next, and the sum of d(n) up to each first y and to the top
        total = over = 0  # the sum of d(n) so far; the last window's overhang
        for k, row in enumerate(slots[guard:].reshape(wins, 5)):
            y, upto, after, overhang, again = row.tolist()
            if k:
                _check_d_sum(over, end(k - 1), k * SEGMENT_SIZE, again)
            if y:
                _check_d_sum(total + upto, y)
            total, over = total + upto + after, overhang
        _check_d_sum(total + over, dtop)
    sums = {}
    for w, tail, _, ys, first in rows:
        count = len(ys) + -(-int(ys[-1]) // SEGMENT_SIZE)
        prefix = list(accumulate(slots[first : first + count].tolist()))
        for i, y in enumerate(ys.tolist()):
            sums[(y, w, *tail)] = prefix[i + (y - 1) // SEGMENT_SIZE]
    return sums


def build_mult_table(spec: MultiplicativeSpec, limit: int) -> np.ndarray:
    """f(0..limit) for a multiplicative spec, as exact Python numbers.

    As in _divisor_fill, with r = isqrt(limit) each n <= limit is s or s P,
    s its r-smooth part and P > r prime, so f(n) = f(s) or f(s) f(P).  In
    each chunk of _MULT_CHUNK entries, every p <= r reads its exponent e at
    each multiple of p from _valuations and multiplies p^e into the int64 s
    and f(p^e) into the table there; last, n = P gets f(P) and n = s P > P
    reads f(P) from the table.  So
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
        s = np.ones(len(seg), dtype=np.int64)
        for p, values in fpk.items():
            start, e = _valuations(lo, hi, p)
            s[start::p] *= np.int64(p) ** e
            seg[start::p] *= values[e]
        rest = np.arange(lo, hi + 1, dtype=np.int64) // s
        at = np.nonzero((rest > 1) & (s == 1))[0]  # n = P
        fp = [spec.prime_power_value(q, 1) for q in (at + lo).tolist()]
        seg[at] = np.array(fp, dtype=object)
        at = np.nonzero((rest > 1) & (s > 1))[0]  # n = s P
        seg[at] *= f[rest[at]]
    return f
