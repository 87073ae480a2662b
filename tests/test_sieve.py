import math
import mmap
import os
import signal
import struct
import time
import tracemalloc
from collections import Counter
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divcorr as dc
from divcorr.cli import main
from oracles import (
    d_naive,
    divisor_window_strided,
    divisor_window_trial,
    mobius_naive,
    prime_exponents_naive,
    shifted_product_divisor_count,
    sigma_naive,
    smallest_prime_factor_naive,
    sum_dd_naive,
    sum_dpoly_naive,
    sum_fpoly_naive,
    valuation_naive,
)


class TestSpfTable:
    def test_tiny_tables(self):
        assert list(dc.build_spf(1).spf) == [0, 1]
        spf = dc.build_spf(100)
        assert spf.spf[12] == 2
        assert spf.spf[97] == 97

    def test_invariants_against_oracle(self):
        spf = dc.build_spf(5000)
        for n in range(2, 5001):
            assert spf.spf[n] == smallest_prime_factor_naive(n), n

    def test_rejects_nonpositive(self):
        with pytest.raises(dc.RangeError):
            dc.build_spf(0)


class TestDivisorTable:
    def test_first_ten(self):
        # trial-division oracle gives [1,2,2,3,2,4,2,4,3,4]
        table = dc.build_divisor_table(10)
        assert list(table.values[1:]) == [d_naive(n) for n in range(1, 11)]
        assert list(table.values[1:]) == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]

    def test_spot_values(self):
        table = dc.build_divisor_table(100)
        assert table.values[1] == 1
        assert table.values[36] == 9  # 36 = 2^2 3^2
        assert table.values[97] == 2

    def test_agrees_with_factorization_to_1e4(self):
        table = dc.build_divisor_table(10_000)
        assert table.values[1:].tolist() == [d_naive(n) for n in range(1, 10_001)]

    @given(st.integers(min_value=1, max_value=3000))
    def test_oracle_sample(self, n):
        table = _shared_table()
        assert table.values[n] == d_naive(n)


def _fill(lo, hi, top=None):
    """The divisor fill on [lo, hi], planned for windows ending at most at top."""
    seg = np.empty(hi - lo + 1, dtype=np.uint32)
    plan = dc.sieve._fill_plan(top or hi, hi - lo + 1)
    dc.sieve._divisor_fill(seg, lo, hi, plan)
    return seg


class TestDivisorFill:
    # the wheel's period is 75600; 3e7, 1e8 + 17 and 1e9 need the primes and
    # prime powers past it up to sqrt(hi)
    @pytest.mark.parametrize(
        "lo", [1, 2, 144, 2519, 2520, 2521, 3 * 10**7, 10**8 + 17, 10**9]
    )
    def test_matches_strided_oracle(self, lo):
        hi = lo + (1 << 16) - 1
        seg = _fill(lo, hi)
        assert seg.tobytes() == divisor_window_strided(lo, hi).tobytes()
        for n in range(lo, hi + 1, 3277):
            assert seg[n - lo] == d_naive(n), n

    @pytest.mark.parametrize("lo", [1, 2, 1000, 2519, 2520, 5039, 10**6 + 1])
    @pytest.mark.parametrize("length", [1, 2, 17, 2519, 2520, 2521])
    def test_windows_around_the_wheel_period(self, lo, length):
        hi = lo + length - 1
        assert _fill(lo, hi).tobytes() == divisor_window_strided(lo, hi).tobytes()

    def test_window_straddling_2_to_the_32(self):
        # n past 2^32 keeps its log, not its smooth part, in a uint32 word;
        # 2^32 + 15 is the least prime past 2^32
        lo, hi = (1 << 32) - 3000, (1 << 32) + 3000
        seg = _fill(lo, hi)
        assert seg.tobytes() == divisor_window_strided(lo, hi).tobytes()
        for n in (lo, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 32) + 15, hi):
            assert seg[n - lo] == d_naive(n), n

    @pytest.mark.parametrize("hi", [1 << 40, 10**13])
    def test_matches_trial_division_at_height(self, hi):
        # far above the strided oracle's reach: 256 entries ending at hi
        lo = hi - 255
        assert _fill(lo, hi).tobytes() == divisor_window_trial(lo, hi).tobytes()

    def test_trial_oracle_agrees_with_the_naive_count(self):
        want = [d_naive(n) for n in range(1, 3001)]
        assert divisor_window_trial(1, 3000).tolist() == want
        lo, hi = (1 << 32) - 20, (1 << 32) + 20
        assert divisor_window_trial(lo, hi).tolist() == [
            d_naive(n) for n in range(lo, hi + 1)
        ]

    def test_every_start_to_300_around_the_wheel_period(self):
        # windows shorter than the 75600 wheel slice its pattern, the others
        # tile it, from every phase below 301
        want = divisor_window_strided(1, 300 + 75600)
        for length in (1, 2, 17, 75599, 75600, 75601):
            for lo in range(1, 301):
                hi = lo + length - 1
                got = _fill(lo, hi).tobytes()
                assert got == want[lo - 1 : hi].tobytes(), (lo, length)

    def test_windows_across_the_chunk_doublings(self):
        # the last pass takes a new threshold at each n0 = 2^j
        for j in range(1, 35):
            lo, hi = max(1, (1 << j) - 700), (1 << j) + 700
            want = divisor_window_strided(lo, hi).tobytes()
            assert _fill(lo, hi).tobytes() == want, j

    @pytest.mark.parametrize("lo", [3 * 10**7, 10**9])
    def test_logs_clear_their_thresholds_by_400_units(self, lo):
        # moving every threshold 400 units either way changes no d(n) of a
        # full window, so no entry's log lies within 400 units of its own
        hi = lo + dc.sieve.SEGMENT_SIZE - 1
        want = divisor_window_strided(lo, hi).tobytes()
        plan = dc.sieve._fill_plan(hi, hi - lo + 1)
        seg = np.empty(hi - lo + 1, dtype=np.uint32)
        for shift in (-400, 0, 400):
            moved = plan._replace(offset=plan.offset + shift)
            dc.sieve._divisor_fill(seg, lo, hi, moved)
            assert seg.tobytes() == want, shift

    @pytest.mark.parametrize("top", [100, 10**4, 10**5, 3 * 10**7])
    def test_plan_and_fill_within_charge(self, top):
        # a plan and one fill of its last full window, the window allocated
        # before tracing; at small tops the fixed part is most of the peak
        size = min(dc.sieve.SEGMENT_SIZE, top)
        seg = np.empty(size, dtype=np.uint32)
        tracemalloc.start()
        try:
            plan = dc.sieve._fill_plan(top, size)
            dc.sieve._divisor_fill(seg, top - size + 1, top, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dc.sieve._fill_plan_bytes(top, size), (top, peak)

    def test_wheel_patterns_within_240_kb(self):
        # d(g) in uint8 and the log of g in int16 per residue mod 75600,
        # 226,800 bytes, which every process holds from import on
        sieve = dc.sieve
        assert sieve._WHEEL_D.nbytes + sieve._WHEEL_LOG.nbytes <= 240_000

    @given(
        lo=st.integers(min_value=1, max_value=10**7),
        length=st.integers(min_value=1, max_value=6000),
        spare=st.integers(min_value=0, max_value=10**7),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_windows(self, lo, length, spare):
        # a plan for a larger top carries primes past sqrt(hi), as in a pass
        hi = lo + length - 1
        want = divisor_window_strided(lo, hi).tobytes()
        assert _fill(lo, hi, hi + spare).tobytes() == want


_TABLE_CACHE = {}


def _d_prefix_sums():
    # one table over four windows of the real SEGMENT_SIZE (2^19)
    if "dsum" not in _TABLE_CACHE:
        values = dc.build_divisor_table(2_000_000).values
        _TABLE_CACHE["dsum"] = np.cumsum(values, dtype=np.int64)
    return _TABLE_CACHE["dsum"]


@given(st.integers(min_value=1, max_value=2_000_000))
@example(1 << 19)
@example((1 << 19) + 1)
@example(2_000_000)
@settings(deadline=None)
def test_hyperbola_identity(x):
    # sum_{n<=x} d(n) = 2 sum_{i<=r} floor(x/i) - r^2, r = isqrt(x)
    r = isqrt(x)
    want = 2 * sum(x // i for i in range(1, r + 1)) - r * r
    assert int(_d_prefix_sums()[x]) == want


_CHUNK = dc.sieve._HYPERBOLA_CHUNK


@pytest.mark.parametrize(
    "y",
    [0, 1, 10**10]
    + [
        k * k + dk
        for k in (2, 3, 1000, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 65535, 65536, 10**5)
        for dk in (-1, 0, 1)
    ],
)
def test_divisor_summatory_matches_python_form(y):
    # the numpy form sums the low and high 32-bit halves of its uint64
    # quotients apart, _CHUNK quotients at a time; 65536^2 +- 1 is
    # 2^32 +- 1, and isqrt(y) falls just below, on and past chunk edges.
    # The sum over (after, y] is the difference of two Python forms, for
    # after = 0, y - 1 and y, and afters whose isqrt does the same
    def python_form(z):
        r = isqrt(z)
        return 2 * sum(z // i for i in range(1, r + 1)) - r * r

    want = python_form(y)
    assert dc.sieve._divisor_summatory(y) == want
    edges = (_CHUNK * _CHUNK - 1, _CHUNK * _CHUNK, (_CHUNK + 1) ** 2)
    for after in {0, max(y - 1, 0), y, *(a for a in edges if a <= y)}:
        got = dc.sieve._divisor_summatory(y, after)
        assert got == want - python_form(after), after


def test_divisor_summatory_memory_at_height():
    # 10^6 quotients at y = 10^12 are taken a chunk at a time: two uint64
    # rows of all of them would trace 16 MB
    y = 10**12
    tracemalloc.start()
    try:
        got = dc.sieve._divisor_summatory(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    assert got == 2 * sum(y // i for i in range(1, 10**6 + 1)) - 10**12


class _NaiveTable:
    """An f-table that computes f(n) by a naive oracle at the entries read,
    for windows whose table would be too long to build."""

    def __init__(self, f):
        self.f = f

    def __getitem__(self, at):
        ns = range(at.start, at.stop) if isinstance(at, slice) else at.tolist()
        return np.array([self.f(n) for n in ns], dtype=object)


class TestValuationWalk:
    # windows that start at p^k - 1, p^k and p^k + 1 for the primes p of the
    # shifts, with k in {1, 2, v_p(shift), v_p(shift) + 1}
    SHIFTS = (8, 9, 60, 1 << 20, 3**12)
    # f(p^e) of d and sigma_1, written out
    PRIME_POWERS = (
        (dc.divisor_count_spec(), d_naive, lambda p, e: e + 1),
        (dc.sigma_spec(1), sigma_naive, lambda p, e: (p ** (e + 1) - 1) // (p - 1)),
    )

    @staticmethod
    def _starts(v):
        for p in prime_exponents_naive(v):
            for k in sorted({1, 2, valuation_naive(v, p), valuation_naive(v, p) + 1}):
                yield from ((p, p**k - 1), (p, p**k), (p, p**k + 1))

    @staticmethod
    def _merged(n, v):
        # the prime exponents of n(n+v), from n and n+v factored apart
        return Counter(prime_exponents_naive(n)) + Counter(prime_exponents_naive(n + v))

    @staticmethod
    def _check_valuations(lo, hi, p, ks=(1,)):
        # base + v_p(n) at the multiples n of q = p^k in the window
        for base in (0, 1):
            for k in ks:
                q = p**k
                first, row = dc.sieve._valuations(lo, hi, p, base, k)
                multiples = [n for n in range(lo, hi + 1) if n % q == 0]
                want = [base + valuation_naive(n, p) for n in multiples]
                assert row.dtype == np.uint32 and row.tolist() == want, (lo, hi, p, k)
                want_first = multiples[0] - lo if multiples else (-lo) % q
                assert first == want_first, (lo, p, k)

    @pytest.mark.parametrize("v", SHIFTS)
    def test_valuations_match_repeated_division(self, v):
        for p, lo in self._starts(v):
            for length in (1, p - 1, p, 3 * p + 2, 300):
                self._check_valuations(lo, lo + length - 1, p, (1, 2, 3))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_valuations_from_each_pattern_power(self, p):
        # q = p^K for every K of a correction pattern, from windows that
        # start at q - 1, q and q + 1
        ks = range(1, dc.sieve._PATTERN_EXP + 1)
        for k in ks:
            if p**k <= dc.sieve._PATTERN_CAP:
                for lo in (p**k - 1, p**k, p**k + 1):
                    self._check_valuations(max(lo, 1), lo + 3 * p**k, p, ks)

    def test_valuations_across_2_to_the_32(self):
        for p in (2, 3, 5, 7, 65537):
            self._check_valuations((1 << 32) - 300, (1 << 32) + 300, p, (1, 2, 5))

    @pytest.mark.parametrize("v", SHIFTS)
    def test_f_terms_match_oracles(self, v):
        # each product-form term against f of the merged factorisations of
        # n and n+v; for the small shifts each window's sum against
        # sum_fpoly_naive too, and the pair form against f(n) f(n+v)
        for p, lo in self._starts(v):
            hi = lo + 24
            ns = range(lo, hi + 1)
            for spec, f, fpk in self.PRIME_POWERS:
                table = _NaiveTable(f)
                terms = dc.sieve.f_terms(spec, table, lo, hi, v, True).tolist()
                merged = [self._merged(n, v) for n in ns]
                want = [math.prod(fpk(q, e) for q, e in m.items()) for m in merged]
                assert terms == want, (spec.name, v, lo)
                if v < 100:
                    window = sum_fpoly_naive(f, hi, v) - sum_fpoly_naive(f, lo - 1, v)
                    assert sum(terms) == window, (spec.name, v, lo)
                pairs = dc.sieve.f_terms(spec, table, lo, hi, v, False).tolist()
                assert pairs == [f(n) * f(n + v) for n in ns]

    @pytest.mark.parametrize("v", [1 << 20, 3**12])
    def test_f_terms_across_2_to_the_32(self, v):
        lo, hi = (1 << 32) - 3, (1 << 32) + 2
        terms = dc.sieve.f_terms(
            dc.divisor_count_spec(), _NaiveTable(d_naive), lo, hi, v, True
        )
        merged = [self._merged(n, v) for n in range(lo, hi + 1)]
        assert terms.tolist() == [math.prod(e + 1 for e in m.values()) for m in merged]


def _shared_table():
    if "d3000" not in _TABLE_CACHE:
        _TABLE_CACHE["d3000"] = dc.build_divisor_table(3000)
    return _TABLE_CACHE["d3000"]


def _spv(limit, shift):
    return dc.shifted_product_values(
        dc.build_divisor_table(limit + shift), limit, shift
    )


def _plant_d(monkeypatch, planted_d):
    """Make the divisor fill write d(n) = planted_d[n] for each n given."""
    fill = dc.sieve._divisor_fill

    def planted(seg, lo, hi, plan):
        fill(seg, lo, hi, plan)
        for n, big in planted_d.items():
            if lo <= n <= hi:
                seg[n - lo] = big

    monkeypatch.setattr(dc.sieve, "_divisor_fill", planted)


def _spy_guard(monkeypatch):
    """The lengths of the windows whose products the overflow guard reads,
    filled in as the sieve calls it: those whose bound squared reaches 2^32."""
    pair_products = dc.sieve._pair_products
    checked = []

    def spy(left, right, out, bound, *product):
        if bound * bound >= 1 << 32:
            checked.append(len(left))
        return pair_products(left, right, out, bound, *product)

    monkeypatch.setattr(dc.sieve, "_pair_products", spy)
    return checked


class TestProductCorrection:
    """The product form of _pair_products: per prime p of w, a periodic
    shift and wrapping multiply at the multiples of p and an exact walk at
    the multiples of q = p^k, the largest power at most _PATTERN_CAP and
    the window; against oracles that factor n and n+w apart."""

    # w with c = v_p(w) in 0..3 at p in {2, 3, 5, 7}, times 1, 11 or the
    # other primes below 10; then w at and past the pattern cap
    SHIFTS = sorted(
        {p**c * r for p in (2, 3, 5, 7) for c in range(4) for r in (1, 11, 210 // p)}
        | {1 << 12, 1 << 13, 3**8, 1001, 30030}
    )

    @staticmethod
    def _q(p, length):
        q = p
        while q * p <= min(dc.sieve._PATTERN_CAP, length):
            q *= p
        return q

    @staticmethod
    def _window(lo, length, w):
        # d(n(n+w)) for n in [lo, lo + length), fed by the strided oracle
        d = divisor_window_strided(lo, lo + length - 1 + w)
        out = np.empty(length, dtype=np.uint32)
        factors = sorted(prime_exponents_naive(w).items())
        left, right = d[:length], d[w : w + length]
        return dc.sieve._pair_products(left, right, out, int(d.max()), lo, w, factors)

    @pytest.mark.parametrize("length", [1, 2, 255, 4099])
    def test_windows_at_the_period_edges(self, spf250k, length):
        # windows that start at q - 1, q, q + 1 and -w mod q, shifted by a
        # few periods so that n > q too
        for w in self.SHIFTS[:: 1 if length < 4000 else 5]:
            for p in prime_exponents_naive(w):
                q = self._q(p, length)
                for lo in {q - 1, q, q + 1, -w % q or q, 5 * q + (-w % q)}:
                    got = self._window(max(lo, 1), length, w).tolist()
                    ns = range(max(lo, 1), max(lo, 1) + length)
                    want = [shifted_product_divisor_count(n, w, spf250k) for n in ns]
                    assert got == want, (w, p, lo, length)

    @pytest.mark.parametrize("limit", [257, 258, 511])
    def test_short_last_windows(self, monkeypatch, spf250k, limit):
        # windows of 256: the last one holds 1, 2 or 255 entries
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 256)
        for w in self.SHIFTS:
            got = _spv(limit, w)[1:].tolist()
            ns = range(1, limit + 1)
            want = [shifted_product_divisor_count(n, w, spf250k) for n in ns]
            assert got == want, (w, limit)

    def test_one_window_past_every_pattern(self, spf250k):
        # one window of 5000 entries: every q is the largest power of p at
        # most the cap, and w = 2^12, 2^13, 3^8 are multiples of theirs
        for w in (1 << 12, 1 << 13, 3**8, 1001, 30030, 60, 2 * 3**4 * 5**2 * 7):
            got = _spv(5000, w)[1:].tolist()
            ns = range(1, 5001)
            want = [shifted_product_divisor_count(n, w, spf250k) for n in ns]
            assert got == want, w

    def test_small_values_against_d_naive(self):
        for w in (2, 12, 60, 1 << 12):
            got = self._window(1, 60, w).tolist()
            assert got == [d_naive(n * (n + w)) for n in range(1, 61)], w

    @pytest.mark.parametrize("w", [2, 12, 60, 1 << 12])
    def test_window_straddling_2_to_the_32(self, w):
        lo = (1 << 32) - 32
        got = self._window(lo, 64, w).tolist()
        want = []
        for n in range(lo, lo + 64):
            merged = TestValuationWalk._merged(n, w)
            want.append(math.prod(e + 1 for e in merged.values()))
        assert got == want

    def test_code_table(self):
        # for every a, b < the cap's exponent and x = (a+1)(b+1) t < 2^32,
        # x >> s times Q wraps to x / ((a+1)(b+1)) (a+b+1) in uint32
        kmax = dc.sieve._PATTERN_EXP
        for a in range(kmax):
            for b in range(kmax):
                k = (a + 1) * (b + 1)
                tmax = ((1 << 32) - 1) // k
                t = np.unique(
                    np.concatenate(
                        [
                            np.arange(1, min(tmax, 1 << 12) + 1),
                            np.linspace(1, tmax, 1 << 14).astype(np.int64),
                            tmax - np.arange(min(tmax, 1 << 12)),
                        ]
                    )
                )
                x = (k * t).astype(np.uint32)
                x >>= dc.sieve._CODE_SHIFTS[a * kmax + b]
                x *= dc.sieve._CODE_FACTORS[a * kmax + b]
                assert (x.astype(np.int64) == t * (a + b + 1)).all(), (a, b)
        assert dc.sieve._CODE_SHIFTS[0] == 0 and dc.sieve._CODE_FACTORS[0] == 1


class TestShiftedProductValues:
    def test_examples(self):
        assert list(_spv(4, 2)[1:]) == [2, 4, 4, 8]  # d(3), d(8), d(15), d(24)
        assert list(_spv(1, 1)[1:]) == [2]

    def test_coprime_shift_is_multiplicative(self):
        assert _spv(10, 2)[3] == 4  # gcd(3,2)=1 so d(3) d(5) = d(15)

    def test_matches_merged_factorizations(self, spf250k):
        for v in (1, 7, 12, 50, 1024, 30030):
            vals = _spv(10_000, v)
            for n in range(1, 10_001, 7):
                assert vals[n] == shifted_product_divisor_count(
                    n, v, spf250k
                ), (n, v)

    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=50),
    )
    @settings(deadline=None)
    def test_oracle_sample(self, n, v):
        key = ("spt", v)
        if key not in _TABLE_CACHE:
            _TABLE_CACHE[key] = _spv(2000, v)
        assert _TABLE_CACHE[key][n] == d_naive(n * (n + v))

    def test_table_bound_read_once(self):
        # the largest d of the whole table, kept on it for every later call
        dtab = dc.build_divisor_table(10_060)
        assert "bound" not in vars(dtab)
        dc.sum_dd(10_000, 60, dtab)
        dc.sum_dpoly(5_000, 12, dtab)
        assert vars(dtab)["bound"] == int(dtab.values.max()) == 64

    def test_table_too_small(self):
        small = dc.build_divisor_table(100)
        with pytest.raises(dc.RangeError):
            dc.shifted_product_values(small, 200, 5)
        with pytest.raises(dc.RangeError):
            dc.shifted_product_values(small, 96, 5)  # needs d up to 101

    def test_overflow_guard(self):
        # d(n) d(n+1) = 2^32 wraps to 0 in uint32; the guard must see it first
        big = dc.DivisorTable(10, np.full(11, 1 << 16, dtype=np.uint32))
        with pytest.raises(OverflowError):
            dc.shifted_product_values(big, 5, 1)

    @pytest.mark.parametrize(
        "name, run",
        [
            ("sum_dd", lambda dtab: dc.sum_dd(1000, 1, dtab).value),
            ("sum_dpoly", lambda dtab: dc.sum_dpoly(1000, 1, dtab).value),
            ("values", lambda dtab: dc.shifted_product_values(dtab, 1000, 1)),
        ],
    )
    def test_overflow_guard_on_planted_pair(self, monkeypatch, name, run):
        # d(500) = d(501) = 2^16 in one table: the table's bound lets the
        # guard read the products of every window, and the window [257, 512]
        # raises; at 2^16 - 1 no window reads them and no product wraps.  One
        # worker takes the windows in order, so the guard reads two
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 256)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        values = dc.build_divisor_table(1001).values.copy()
        values[500:502] = 1 << 16
        checked = _spy_guard(monkeypatch)
        with pytest.raises(OverflowError):
            run(dc.DivisorTable(1001, values))
        assert checked == [256, 256]
        values[500:502] = (1 << 16) - 1
        checked.clear()
        got = run(dc.DivisorTable(1001, values))
        assert checked == []
        # d(n(n+1)) = d(n) d(n+1): n and n+1 are coprime
        pair = values[1:1001].astype(np.int64) * values[2:1002]
        if name == "values":
            assert got[1:].tolist() == pair.tolist()
        else:
            assert got == int(pair.sum())

    @pytest.mark.parametrize("fn", [dc.sum_dd, dc.sum_dpoly])
    def test_overflow_guard_in_a_child_window(self, monkeypatch, deal, fn):
        # two workers over windows of 256, dealt by handshakes: the child
        # takes [257, 512], which holds the planted pair, while the parent
        # holds [1, 256]; the child's raise leaves no window to pull, and its
        # OverflowError comes back when the parent reruns that one window.
        # The parent's [1, 256] ends only once the child has left (WNOWAIT
        # leaves it to fan_out to reap), so the parent pulls after the child
        # raised, not by timing
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 256)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        values = dc.build_divisor_table(1001).values.copy()
        values[500:502] = 1 << 16
        deal(dc.sieve, task=1)
        forks = _count_forks(monkeypatch)
        checked = _spy_guard(monkeypatch)
        guard, parent = dc.sieve._pair_products, os.getpid()

        def after_the_child(left, right, out, bound, lo, *rest):
            if lo == 1 and os.getpid() == parent:
                os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
            return guard(left, right, out, bound, lo, *rest)

        monkeypatch.setattr(dc.sieve, "_pair_products", after_the_child)
        with pytest.raises(OverflowError, match="exceeds uint32"):
            fn(1000, 1, dc.DivisorTable(1001, values))
        assert len(forks) == 1
        assert checked == [256, 256]
        _assert_no_child_left()

    def test_no_full_length_temporaries(self, monkeypatch):
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1 << 16)
        limit = 10**6
        dtab = dc.build_divisor_table(limit + 60)
        tracemalloc.start()
        try:
            dc.shifted_product_values(dtab, limit, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (limit + 1) + 16 * dc.sieve.SEGMENT_SIZE, peak


MU = dc.MultiplicativeSpec("mu", lambda p, e: -1 if e == 1 else 0)
# f-table specs and their naive oracles; mu has f(p^k) = 0 for k >= 2
_MULT_ORACLES = (
    (dc.divisor_count_spec(), d_naive),
    (dc.sigma_spec(1), sigma_naive),
    (MU, mobius_naive),
)


class TestMultTable:
    def test_matches_oracles(self):
        for spec, f in (
            (dc.divisor_count_spec(), d_naive),
            (dc.sigma_spec(1), sigma_naive),
            (dc.sigma_spec(2), lambda n: sigma_naive(n, 2)),
        ):
            table = dc.build_mult_table(spec, 3000)
            assert table.dtype == object and len(table) == 3001
            values = table.tolist()
            assert values[0] == 0
            assert values[1:] == [f(n) for n in range(1, 3001)], spec.name
            assert all(type(x) is int for x in values)

    def test_reproduces_tau_table(self):
        # only prime powers are read from the table; every other entry
        # comes from multiplicativity (test_arith checks the table itself
        # against the naive q-expansion)
        tau = dc.ramanujan_tau_table(10_000)
        table = dc.build_mult_table(dc.tau_spec(tau), 10_000)
        assert table.tolist() == tau

    def test_zero_prime_power_values(self):
        table = dc.build_mult_table(MU, 3000)
        assert table[1:].tolist() == [mobius_naive(n) for n in range(1, 3001)]

    def test_matches_oracles_at_every_limit_to_300(self):
        for spec, f in _MULT_ORACLES:
            want = [0] + [f(n) for n in range(1, 301)]
            for limit in range(1, 301):
                table = dc.build_mult_table(spec, limit)
                assert table.tolist() == want[: limit + 1], (spec.name, limit)

    @pytest.mark.parametrize(
        "limit",
        [
            # the chunk edges of the fill
            (1 << 16) - 1,
            1 << 16,
            (1 << 16) + 1,
            (1 << 17) + 1,
            # r = isqrt(limit) gains the prime 251 at 251^2
            251**2 - 1,
            251**2,
            251**2 + 1,
        ],
    )
    def test_matches_oracles_at_edges(self, limit):
        # the entries within 300 of a chunk edge or of the limit against the
        # naive oracles, and every d(n) against the divisor table
        near = set(range(limit - 300, limit + 1))
        for edge in range(1 << 16, limit + 1, 1 << 16):
            near |= set(range(edge - 300, min(edge + 300, limit + 1)))
        for spec, f in _MULT_ORACLES:
            table = dc.build_mult_table(spec, limit)
            assert len(table) == limit + 1
            assert {n: table[n] for n in near} == {n: f(n) for n in near}, spec.name
            if spec.name == "d":
                assert table.tolist() == dc.build_divisor_table(limit).values.tolist()

    def test_range_errors(self):
        spec = dc.divisor_count_spec()
        with pytest.raises(dc.RangeError):
            dc.build_mult_table(spec, 0)
        assert dc.build_mult_table(spec, 1).tolist() == [0, 1]

    def test_charged_before_allocation(self, monkeypatch):
        monkeypatch.setenv("DIVCORR_MEMCAP", str(dc.sieve.MULT_ENTRY_BYTES * 1000))
        dc.build_mult_table(dc.sigma_spec(1), 998)  # fits
        tracemalloc.start()
        try:
            with pytest.raises(dc.ResourceError):
                dc.build_mult_table(dc.sigma_spec(1), 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_peak_within_charge(self):
        limit = 200_000
        specs = (
            dc.divisor_count_spec(),
            dc.sigma_spec(1),
            dc.sigma_spec(3),
            # by Deligne |tau(n)| <= d(n) n^(11/2) <= f(n) for f(p^e) =
            # (e + 1) p^(6e), so every entry is an int at least as large as
            # tau's, with no tau table to build
            dc.MultiplicativeSpec("tau_bound", lambda p, e: (e + 1) * p ** (6 * e)),
        )
        for spec in specs:
            tracemalloc.start()
            try:
                table = dc.build_mult_table(spec, limit)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del table
            assert peak <= dc.sieve.MULT_ENTRY_BYTES * (limit + 1), (spec.name, peak)


class TestSegmentedConstruction:
    def test_bit_identical_to_monolithic(self, monkeypatch):
        n = 60_000

        # 1 corrects at no prime; 1024 is a prime power above the 777
        # window; 30030 = 2*3*5*7*11*13
        shifts = (1, 12, 60, 1024, 30030)
        sums = (dc.sum_dd, dc.sum_dpoly)
        spec_sums = (dc.sum_correlation, dc.sum_shifted_product)
        sigma = dc.sigma_spec(1)

        def build(segment_size):
            monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", segment_size)
            dtab = dc.build_divisor_table(n)
            return (
                dtab.values.tobytes(),
                *(dc.shifted_product_values(dtab, n - v, v).tobytes() for v in shifts),
                *(f(n - v, v, dtab).value for f in sums for v in shifts),
                *(f(sigma, n - v, v).value for f in spec_sums for v in shifts),
            )

        mono = build(n + 1)
        for segment_size in (777, 1009, 4096):
            assert build(segment_size) == mono, segment_size

    @given(
        segment_size=st.integers(min_value=64, max_value=5000),
        x=st.integers(min_value=1, max_value=30_000),
        v=st.integers(min_value=1, max_value=2000),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_windows_match_one_window(self, segment_size, x, v):
        def build(size):
            with mock.patch.object(dc.sieve, "SEGMENT_SIZE", size):
                dtab = dc.build_divisor_table(x + v)
                return (
                    dtab.values.tobytes(),
                    dc.shifted_product_values(dtab, x, v).tobytes(),
                    dc.sum_dd(x, v, dtab).value,
                    dc.sum_dpoly(x, v, dtab).value,
                )

        assert build(segment_size) == build(x + v + 1)

    @pytest.mark.parametrize("segment_size", [777, 1009, 4096])
    def test_worker_pool_matches_in_process_and_oracles(self, monkeypatch, segment_size):
        # three CPUs split 26, 20 and 5 windows unevenly between the parent
        # and two children
        n = 20_000
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", segment_size)
        forks = _count_forks(monkeypatch)

        def build(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            return dc.build_divisor_table(n).values

        d1 = build(1)
        assert forks == []
        d3 = build(3)
        assert len(forks) == 2  # two children for the table
        assert d3.tobytes() == d1.tobytes()
        assert d3[1:].tolist() == [d_naive(k) for k in range(1, n + 1)]
        assert dc.build_spf(n).spf[2:].tolist() == [
            smallest_prime_factor_naive(k) for k in range(2, n + 1)
        ]

    def test_tables_are_read_only(self, monkeypatch):
        # one window in the caller's memory, then 2^20 entries in the shared
        # mapping that two workers fill
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        tables = [dc.build_divisor_table(10).values, dc.build_spf(10).spf]
        tables.append(dc.build_divisor_table(1 << 20).values)
        assert isinstance(tables[2].base.obj, mmap.mmap)
        for values in tables:
            with pytest.raises(ValueError, match="read-only"):
                values[1] = 7
        assert tables[0][1] == tables[2][1] == tables[1][1] == 1

    def test_single_window_tables_never_fork(self, monkeypatch):
        def no_fork():
            raise AssertionError("a one-window table forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert dc.build_divisor_table(10_100).values[10_080] == d_naive(10_080)
        assert dc.build_spf(40_000).spf[39_999] == smallest_prime_factor_naive(39_999)

    @pytest.mark.parametrize("n, last", [(5, 1009), (1500, 2018)])
    def test_fault_in_a_table_window_raises(self, monkeypatch, deal, n, last):
        # windows of 1009 on two workers, dealt so that the caller fills the
        # first and a child the second: a d(n) planted in either fails the
        # self-test of its window where it was filled, named by the window's
        # last n; the child's window is rerun in the caller and raises there
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1009)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        deal(dc.sieve)
        _plant_d(monkeypatch, {n: d_naive(n) + 1})
        with pytest.raises(RuntimeError, match=f"self-test failed at y={last}:"):
            dc.build_divisor_table(20_000)
        _assert_no_child_left()


class TestStreamedPairSums:
    # 30030 is wider than every window below; y = 0 is the empty sum
    SHIFTS = (1, 2, 12, 60, 1024, 30030)
    YS = (0, 1, 2, 776, 777, 778, 1008, 1009, 1010, 4097, 12_345, 20_000)

    @pytest.mark.parametrize("segment_size", [777, 1009, 4096])
    def test_matches_table_path(self, monkeypatch, segment_size):
        # three CPUs split the windows between the parent and two children,
        # each pulling the next; the cells mix checkpoints on and beside
        # window edges
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", segment_size)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        cells = [(y, w) for y in self.YS for w in self.SHIFTS]
        sums = dc.stream_pair_sums(cells)
        dtab = dc.build_divisor_table(max(self.YS) + max(self.SHIFTS))
        for y, w in cells:
            assert dc.sum_dd(y, w, sums) == dc.sum_dd(y, w, dtab), (y, w)
        assert dc.sum_dd(776, 2, sums).value == sum(
            d_naive(n) * d_naive(n + 2) for n in range(1, 777)
        )

    @given(
        segment_size=st.integers(min_value=64, max_value=5000),
        cells=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30_000),
                st.integers(min_value=1, max_value=2000),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_windows_match_table_path(self, segment_size, cells):
        with mock.patch.object(dc.sieve, "SEGMENT_SIZE", segment_size):
            sums = dc.stream_pair_sums(cells)
        dtab = dc.build_divisor_table(max(y + w for y, w in cells))
        for y, w in cells:
            assert dc.sum_dd(y, w, sums) == dc.sum_dd(y, w, dtab), (y, w)

    def test_cells_outside_the_pass(self):
        sums = dc.stream_pair_sums([(10, 2), (0, 3)])
        assert dc.sum_dd(0, 3, sums).value == 0
        with pytest.raises(dc.RangeError):
            dc.sum_dd(10, 3, sums)
        with pytest.raises(dc.RangeError):
            dc.stream_pair_sums([(10, 0)])
        with pytest.raises(dc.RangeError):
            dc.stream_pair_sums([(-1, 2)])
        assert dc.stream_pair_sums([(0, 5)]) == {}

    @pytest.mark.parametrize("y, w", [(1000, 1), (20_000, 30_030)])
    def test_dropped_divisor_past_the_last_y_raises(self, monkeypatch, y, w):
        # d(n + w) for n <= y reaches past y.  For w = 1 the last window
        # sieves it, and its sum of d(n) is checked up to y + w.  w = 30030
        # is wider than a window, so the last window's piece [lo + w, y + w]
        # is sieved and checked on its own, by whichever worker pulls that
        # window, and y + w = 50030 lies in no other piece
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1009)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        fill = dc.sieve._divisor_fill

        def dropping(seg, lo, hi, plan):
            fill(seg, lo, hi, plan)
            if lo <= y + w <= hi:
                seg[y + w - lo] -= 1

        monkeypatch.setattr(dc.sieve, "_divisor_fill", dropping)
        with pytest.raises(RuntimeError, match=f"self-test failed at y={y + w}:"):
            dc.stream_pair_sums([(y, w)])
        _assert_no_child_left()

    def test_d_row_checked_once_per_window(self, monkeypatch):
        # a cell every 16 n over 64 windows of 1009: the d(n) a window sieves
        # are checked by the hyperbola once per window, up to the last n it
        # sieves, not at each of the 4036 ys, and the sums still match the
        # table's
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1009)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls = []
        hyperbola = dc.sieve._divisor_summatory
        monkeypatch.setattr(
            dc.sieve,
            "_divisor_summatory",
            lambda y, after: calls.append(y) or hyperbola(y, after),
        )
        cells = [(y, 1) for y in range(16, 64_577, 16)]
        sums = dc.stream_pair_sums(cells)
        wins = -(-64_576 // 1009)
        assert wins == 64 and len(calls) <= wins + 1, len(calls)
        assert sums == dc.stream_pair_sums(cells, dc.build_divisor_table(64_577))

    @pytest.mark.parametrize(
        "cpus, cells, fill_lo, n, y",
        [
            # the first window [1, 256] is sieved on to 257 for the shift 1
            ({0}, [(1000, 1)], 1, 257, 257),
            # the third, a child's, on to 780 for the shift 12
            ({0, 1, 2}, [(1000, 1), (1000, 12)], 513, 770, 780),
            # a fault in that window's own part, not its overhang
            ({0, 1, 2}, [(1000, 1), (1000, 12)], 513, 600, 780),
        ],
    )
    def test_fault_in_a_window_overhang_raises(
        self, monkeypatch, cpus, cells, fill_lo, n, y
    ):
        # near rows read d(n) past the window's end from its overhang, and
        # the next window sieves those n again; each window's own sum of
        # d(n) and its overhang's are checked together up to its last n, so
        # a fault in either raises there, before any later window is checked
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 256)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        fill = dc.sieve._divisor_fill

        def planted(seg, lo, hi, plan):
            fill(seg, lo, hi, plan)
            if lo == fill_lo:
                seg[n - lo] += 1

        monkeypatch.setattr(dc.sieve, "_divisor_fill", planted)
        with pytest.raises(RuntimeError, match=f"self-test failed at y={y}:"):
            dc.stream_pair_sums(cells)
        _assert_no_child_left()

    @pytest.mark.parametrize("x, w", [(1000, 10**7), (10, (1 << 32) - 5)])
    def test_far_shift_sieves_no_gap(self, x, w):
        # the pass sieves [1, x] and [w + 1, w + x], not the gap between
        # them (40 MB at w = 10^7); the second piece straddles 2^32.  The
        # plan's prime powers up to sqrt(x + w) take most of the peak
        tracemalloc.start()
        try:
            sums = dc.stream_pair_sums([(x, w)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        left = divisor_window_strided(1, x).astype(np.int64)
        right = divisor_window_strided(w + 1, w + x).astype(np.int64)
        assert sums == {(x, w): int(left @ right)}
        assert peak < dc.sieve._fill_plan_bytes(x + w, x) + (1 << 16), peak

    @pytest.mark.parametrize(
        "big, error, guards",
        [(1 << 16, OverflowError, [256]), ((1 << 16) - 1, RuntimeError, [])],
    )
    def test_overflow_guard_runs_where_it_can_fire(
        self, monkeypatch, big, error, guards
    ):
        # d(500) = d(501) = big in the window [257, 512]: 2^16 squared wraps
        # uint32, so that window's bound lets the guard read its products
        # and it raises; 2^16 - 1 squared does not, so no window reads them
        # and the planted values fail the self-test instead
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 256)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _plant_d(monkeypatch, {500: big, 501: big})
        checked = _spy_guard(monkeypatch)
        with pytest.raises(error):
            dc.stream_pair_sums([(1000, 1)])
        assert checked == guards

    @pytest.mark.parametrize(
        "near, far, error, guards",
        [
            (1 << 16, 1 << 16, OverflowError, [1000]),
            ((1 << 16) - 1, (1 << 16) - 1, RuntimeError, []),
            # the bound is the far piece's when that is the larger
            (1 << 15, 1 << 17, OverflowError, [1000]),
        ],
    )
    def test_far_shift_overflow_guard(self, monkeypatch, near, far, error, guards):
        # w = 5000 is wider than the one window [1, 1000], so d(5500) and
        # d(5501) lie in the far piece: the guard runs before its self-test
        _plant_d(monkeypatch, {500: near, 501: near, 5500: far, 5501: far})
        checked = _spy_guard(monkeypatch)
        with pytest.raises(error):
            dc.stream_pair_sums([(1000, 5000)])
        assert checked == guards

    def test_table_pass_matches_oracles(self, monkeypatch):
        self._check_pass_against_oracles(monkeypatch, table=True)

    def test_sieved_pass_matches_oracles(self, monkeypatch):
        self._check_pass_against_oracles(monkeypatch, table=False)

    @staticmethod
    def _check_pass_against_oracles(monkeypatch, table):
        # one pass, over a d-table or sieving its windows, in windows of 256
        # on two workers: pair and product cells together, y = 0, y on and
        # beside window edges, a shift wider than a window (a far piece of
        # its own when sieving) and repeated cells, against brute force
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 256)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        dtab = dc.build_divisor_table(1000) if table else None
        forks = _count_forks(monkeypatch)
        cells = [
            (y, w, *shape)
            for y in (0, 255, 256, 257, 700)
            for w in (1, 12, 300)
            for shape in ((), (True,))
        ]
        sums = dc.stream_pair_sums(cells + [(257, 12), (257, 12, True)], dtab)
        assert len(forks) == 1
        naive = {(): sum_dd_naive, (True,): sum_dpoly_naive}
        assert sums == {
            (y, w, *shape): naive[tuple(shape)](y, w) for y, w, *shape in cells if y
        }
        if not table:
            return
        # 700 + 301 lies past the table: refused before anything is forked
        def no_fork():
            raise AssertionError("a refused pass forked")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(dc.RangeError, match="divisor table limit 1000 < 1001"):
            dc.stream_pair_sums([(700, 1), (700, 301, True)], dtab)

    @given(
        segment_size=st.integers(min_value=16, max_value=100),
        window=st.integers(min_value=0, max_value=3),
        offsets=st.lists(
            st.integers(min_value=0, max_value=99), min_size=2, max_size=4
        ),
        rows=st.lists(
            st.tuples(st.integers(min_value=1, max_value=300), st.booleans()),
            min_size=1,
            max_size=2,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_several_ys_in_one_window_match_oracles(
        self, segment_size, window, offsets, rows
    ):
        # a sieving pass with several cells in one window, of pair and
        # product form, near and far shifts, against brute force
        ys = {window * segment_size + 1 + i % segment_size for i in offsets}
        cells = [(y, w, True) if product else (y, w) for y in ys for w, product in rows]
        with mock.patch.object(dc.sieve, "SEGMENT_SIZE", segment_size):
            sums = dc.stream_pair_sums(cells)
        naive = {False: sum_dd_naive, True: sum_dpoly_naive}
        assert sums == {
            cell: naive[len(cell) == 3](*cell[:2]) for cell in cells
        }

    def test_running_total_across_chunks_matches_oracle(self, monkeypatch):
        # windows of 64 with a cell at every 16th y to 38,400: the row's
        # 3000 slots span three of the parent's chunks, and each y's sum is
        # read from its running total
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert dc.sieve._TOTAL_CHUNK < 3000 <= 3 * dc.sieve._TOTAL_CHUNK
        ys = range(16, 38_401, 16)
        d = divisor_window_strided(1, 38_401).astype(np.int64)
        prefix = np.cumsum(d[:-1] * d[1:])  # prefix[y - 1] = S_dd(y, 1)
        sums = dc.stream_pair_sums([(y, 1) for y in ys])
        assert sums == {(y, 1): int(prefix[y - 1]) for y in ys}

    def test_parent_holds_no_entry_per_window(self, monkeypatch):
        # a one-cell pass on two workers over 2,000 and then 8,000 windows of
        # 64: the parent's traced peak grows by under 8 B per window (77 B
        # when it kept a list of every window's prefix sum).  The children
        # stop tracing, so they run at full speed
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        fork = os.fork

        def untraced_fork():
            pid = fork()
            if pid == 0:
                tracemalloc.stop()
            return pid

        monkeypatch.setattr(os, "fork", untraced_fork)
        peaks = []
        for wins in (2000, 8000):
            tracemalloc.start()
            try:
                dc.stream_pair_sums([(64 * wins, 1)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * 6000, peaks

    def test_keeps_no_d_table(self, monkeypatch):
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1 << 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        tracemalloc.start()
        try:
            dc.stream_pair_sums([(10**6, v) for v in (1, 2, 6, 12)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * dc.sieve.SEGMENT_SIZE, peak


def _failing_children(monkeypatch, how):
    """Make every forked sieve worker die at once, by exit or by SIGKILL."""
    fork = os.fork

    def failing_fork():
        pid = fork()
        if pid == 0:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(1)
        return pid

    monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1009)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", failing_fork)


def _count_forks(monkeypatch):
    """The pids of the sieve workers forked from here on, filled in."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerFailure:
    @pytest.mark.parametrize(
        "how, status", [("exit", "exited with status 1"), ("kill", "killed by signal 9")]
    )
    def test_failed_child_raises_and_is_reaped(self, monkeypatch, how, status):
        _failing_children(monkeypatch, how)
        with pytest.raises(dc.ResourceError, match=status):
            dc.build_divisor_table(20_000)
        _assert_no_child_left()

    def test_fork_failure_raises_and_reaps_started_children(self, monkeypatch):
        _failing_children(monkeypatch, "exit")
        fork = os.fork  # the failing wrapper: its one child exits at once
        calls = []

        def second_fork_fails():
            calls.append(1)
            if len(calls) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        with pytest.raises(dc.ResourceError, match="cannot fork a sieve worker"):
            dc.build_divisor_table(20_000)
        _assert_no_child_left()

    @pytest.mark.parametrize("n", [3000, 4000])
    def test_window_fault_keeps_its_class(self, monkeypatch, capsys, n):
        # windows of 1009 on two workers: n = 3000 and n = 4000 lie in the
        # third and fourth windows, which either worker may pull, for the
        # table build and the streamed pass alike; both raise the same error
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1009)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        fill = dc.sieve._divisor_fill

        def faulty(seg, lo, hi, plan):
            if lo <= n <= hi:
                raise OverflowError("planted window fault")
            fill(seg, lo, hi, plan)

        monkeypatch.setattr(dc.sieve, "_divisor_fill", faulty)
        argv = ["compare", "--kind", "dd", "--x", "100,10000", "--v", "1"]
        for call in (
            lambda: dc.build_divisor_table(20_000),
            lambda: dc.stream_pair_sums([(10_000, 1)]),
            lambda: main(argv),
        ):
            with pytest.raises(OverflowError, match="^planted window fault$"):
                call()
            _assert_no_child_left()
        assert capsys.readouterr().out == ""

    def test_children_reaped_when_parent_windows_raise(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        parent = os.getpid()

        def fill(out, k):
            if os.getpid() == parent:
                raise KeyError("parent task")
            out[k] = 1

        with pytest.raises(KeyError):
            dc.fanout.fan_out(20, np.uint32, 20, fill)
        _assert_no_child_left()


class TestFanOutTasks:
    def test_three_workers(self, monkeypatch, deal):
        # three mocked CPUs: the caller and two forked children run the ten
        # tasks between them, each task once; every task counts its own run
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        forks = _count_forks(monkeypatch)

        def count(out, k):
            out[k] += 1

        out = dc.fanout.fan_out(10, np.int64, 10, count)
        assert out.tolist() == [1] * 10
        assert len(forks) == 2
        _assert_no_child_left()

        # a fan_out called inside a task runs in that task's worker
        def nested(out, k):
            def inner(part, j):
                part[j] = k + j

            before = len(forks)
            total = dc.fanout.fan_out(4, np.int64, 4, inner).sum()
            out[2 * k : 2 * k + 2] = len(forks) - before, total

        out = dc.fanout.fan_out(6, np.int64, 3, nested)
        assert out.tolist() == [0, 6, 0, 10, 0, 14]
        assert len(forks) == 4
        _assert_no_child_left()

        # dealt by handshakes, a child runs task 4 and raises there while
        # the caller holds task 0; the caller then reruns that child's
        # tasks in order, and the fault raises there with its own class
        deal(dc.fanout, task=4)
        ran = []  # the tasks run in the caller

        def faulty(out, k):
            ran.append(k)
            if k == 4:
                raise ZeroDivisionError("task 4")

        with pytest.raises(ZeroDivisionError, match="^task 4$"):
            dc.fanout.fan_out(10, np.int64, 10, faulty)
        assert ran[0] == 0 and ran[-1] == 4 and ran.count(4) == 1
        assert len(forks) == 6
        _assert_no_child_left()

    def test_a_free_worker_pulls_the_next_task(self, monkeypatch, deal):
        # two workers: the caller's task 0 blocks until the child has
        # started the last task, so the child must run all five others; a
        # fixed split would give the caller 2 and 4 and time out instead
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        deal(dc.fanout, task=5)
        caller = os.getpid()

        def where(out, k):
            out[k] = 1 + (os.getpid() != caller)

        out = dc.fanout.fan_out(6, np.int64, 6, where)
        assert out.tolist() == [1, 2, 2, 2, 2, 2]
        _assert_no_child_left()

    def test_every_task_runs_once_under_contention(self, monkeypatch):
        # eight workers on the two CPUs pull 4000 empty tasks: a number
        # handed out twice or skipped leaves a count other than 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))

        def count(out, k):
            out[k] += 1

        out = dc.fanout.fan_out(4000, np.int64, 4000, count)
        assert out.tolist() == [1] * 4000
        _assert_no_child_left()

    def test_a_raising_child_has_exactly_its_tasks_rerun(self, monkeypatch, deal):
        # while the caller holds task 0 the child takes 1, 2 and 3, and
        # raises in 3, which leaves no task to pull; the caller reruns 3
        # alone, once, which passes there, so the call raises ResourceError.
        # Every run writes (pid, k) to one pipe, whose writes of 16 B are
        # atomic
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        deal(dc.fanout, task=3)
        caller = os.getpid()
        log_r, log_w = os.pipe()

        def logged(out, k):
            os.write(log_w, struct.pack("qq", os.getpid(), k))
            if k == 3 and os.getpid() != caller:
                raise ZeroDivisionError("task 3 in the child")

        try:
            with pytest.raises(dc.ResourceError, match="exited with status 1"):
                dc.fanout.fan_out(8, np.int64, 8, logged)
            log = list(struct.iter_unpack("qq", os.read(log_r, 1 << 16)))
        finally:
            os.close(log_r)
            os.close(log_w)
        _assert_no_child_left()
        assert [k for pid, k in log if pid != caller] == [1, 2, 3]
        ran = [k for pid, k in log if pid == caller]
        assert ran[0] == 0 and ran[-1] == 3 and ran.count(3) == 1
        assert not {1, 2} & set(ran)

    @pytest.mark.parametrize("fault", [0, 1])
    def test_a_fault_stops_the_other_workers_pulling(self, monkeypatch, deal, fault):
        # 400 tasks of 5 ms on two workers, dealt so that the child runs
        # task 1 while the caller holds task 0; task 0 raises in the caller
        # or task 1 in the child, and the other worker finishes the task it
        # holds and at most one it pulled before the fault, where it used to
        # pull all 400.  Every run writes its task number to one pipe
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        deal(dc.fanout, task=1)
        log_r, log_w = os.pipe()

        def slow(out, k):
            os.write(log_w, struct.pack("q", k))
            time.sleep(0.005)
            if k == fault:
                raise ZeroDivisionError(f"task {k}")

        try:
            with pytest.raises(ZeroDivisionError, match=f"^task {fault}$"):
                dc.fanout.fan_out(400, np.int64, 400, slow)
            ran = [k for (k,) in struct.iter_unpack("q", os.read(log_r, 1 << 16))]
        finally:
            os.close(log_r)
            os.close(log_w)
        _assert_no_child_left()
        # 0 and 1, one task pulled at most, and the rerun of a child's fault
        assert len(ran) <= 3 + fault, ran

    def test_fan_outs_state_does_not_grow_with_the_tasks(self, monkeypatch):
        # beyond the caller's array, 4000 tasks on eight workers map 8 B
        # per worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        mapped, anonymous = [], mmap.mmap

        def mapping(fd, nbytes):
            mapped.append(nbytes)
            return anonymous(fd, nbytes)

        monkeypatch.setattr(mmap, "mmap", mapping)
        dc.fanout.fan_out(4000, np.int64, 4000, lambda out, k: None)
        assert mapped == [8 * 4000, 64]
        _assert_no_child_left()


class TestNestedFanOut:
    def test_inner_fan_out_runs_in_its_worker(self, monkeypatch):
        # a table of 20 windows forks alone; built inside a worker of an
        # outer fan_out it forks nothing, in the caller and in the child
        # alike.  Each window reports the forks its process made during
        # the inner build, and whether the table matched, through the
        # shared array
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1009)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks = _count_forks(monkeypatch)
        want = dc.build_divisor_table(20_000).values.tobytes()
        assert len(forks) == 1

        def fill(out, i):
            before = len(forks)
            same = dc.build_divisor_table(20_000).values.tobytes() == want
            out[2 * i : 2 * i + 2] = len(forks) - before, same

        out = dc.fanout.fan_out(8, np.int64, 4, fill)
        assert out.tolist() == [0, 1] * 4
        assert len(forks) == 2  # the outer call's one child
        _assert_no_child_left()

        # the caller is no worker once the call is over, raised or not
        def raising(out, i):
            raise KeyError("outer task")

        with pytest.raises(KeyError):
            dc.fanout.fan_out(2, np.int64, 2, raising)
        assert len(forks) == 3
        assert dc.build_divisor_table(20_000).values.tobytes() == want
        assert len(forks) == 4
        _assert_no_child_left()


class TestMemoryCap:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DIVCORR_MEMCAP", "1000")
        with pytest.raises(dc.ResourceError):
            dc.build_divisor_table(10**6)
        with pytest.raises(dc.ResourceError):
            dc.build_spf(10**6)
        monkeypatch.setenv("DIVCORR_MEMCAP", str(2**31))
        dc.build_divisor_table(1000)  # fits again
        dc.build_spf(1000)

    def test_stream_charges_its_bookkeeping_before_building_it(self, monkeypatch):
        # 190,735 windows to 1e11: their slots take 6.1 MB and the plan
        # 15 MB, charged before any is made
        monkeypatch.setenv("DIVCORR_MEMCAP", str(4 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(dc.ResourceError):
                dc.stream_pair_sums([(10**11, 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak

    def test_stream_charges_fan_outs_shared_mappings(self, monkeypatch):
        # RLIMIT_DATA counts no shared mapping, so the pass charges the slot
        # array that fan_out maps for it, a slot per window, on top of its
        # buffers and its plan; fan_out's only other mapping is 8 B per
        # worker, which does not grow with the input: a one-cell pass over
        # 1000 windows of 64 on two workers
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        charged, mapped = [], []
        charge, anonymous = dc.sieve.charge, mmap.mmap

        def counted(nbytes):
            charged.append(nbytes)
            charge(nbytes)

        def mapping(fd, nbytes):
            mapped.append(nbytes)
            return anonymous(fd, nbytes)

        monkeypatch.setattr(dc.sieve, "charge", counted)
        monkeypatch.setattr(mmap, "mmap", mapping)
        x = 64 * 1000
        dc.stream_pair_sums([(x, 1)])
        private = 8 * (64 + 1) + dc.sieve._fill_plan_bytes(x + 1, 64 + 1)
        assert mapped == [8 * (1 + 1000), 8 * 2]
        assert charged == [private + mapped[0]]

    def test_stream_charges_its_cells_before_building_their_sets(self, monkeypatch):
        # 100,000 cells of one row, under a cap that the buffers and the plan
        # fit (1.2 MB) but not with a slot per cell (0.8 MB more): the charge
        # comes before their sets and sums are built, and before it the pass
        # holds the ys of the cells, 8 B each
        cells = [(y, 1) for y in range(1, 100_001)]
        cap = 16 * len(cells)
        monkeypatch.setenv("DIVCORR_MEMCAP", str(cap))
        tracemalloc.start()
        try:
            with pytest.raises(dc.ResourceError):
                dc.stream_pair_sums(cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak
