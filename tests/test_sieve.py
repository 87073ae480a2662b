import os
import signal
import tracemalloc
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divcorr as dc
from oracles import (
    d_naive,
    mobius_naive,
    shifted_product_divisor_count,
    sigma_naive,
    smallest_prime_factor_naive,
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


def _shared_table():
    if "d3000" not in _TABLE_CACHE:
        _TABLE_CACHE["d3000"] = dc.build_divisor_table(3000)
    return _TABLE_CACHE["d3000"]


def _spv(limit, shift):
    return dc.shifted_product_values(
        dc.build_divisor_table(limit + shift), limit, shift
    )


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


class TestMultTable:
    def test_matches_oracles(self):
        spf = dc.build_spf(3000)
        for spec, f in (
            (dc.divisor_count_spec(), d_naive),
            (dc.sigma_spec(1), sigma_naive),
            (dc.sigma_spec(2), lambda n: sigma_naive(n, 2)),
        ):
            table = dc.build_mult_table(spec, spf, 3000)
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
        table = dc.build_mult_table(dc.tau_spec(tau), dc.build_spf(10_000), 10_000)
        assert table.tolist() == tau

    def test_zero_prime_power_values(self):
        mu = dc.MultiplicativeSpec("mu", lambda p, e: -1 if e == 1 else 0)
        table = dc.build_mult_table(mu, dc.build_spf(3000), 3000)
        assert table[1:].tolist() == [mobius_naive(n) for n in range(1, 3001)]

    def test_range_errors(self):
        spf = dc.build_spf(100)
        spec = dc.divisor_count_spec()
        with pytest.raises(dc.RangeError):
            dc.build_mult_table(spec, spf, 0)
        with pytest.raises(dc.RangeError):
            dc.build_mult_table(spec, spf, 101)
        assert dc.build_mult_table(spec, spf, 1).tolist() == [0, 1]

    def test_charged_before_allocation(self, monkeypatch):
        spf = dc.build_spf(10**5)
        monkeypatch.setenv("DIVCORR_MEMCAP", str(dc.sieve.MULT_ENTRY_BYTES * 1000))
        dc.build_mult_table(dc.sigma_spec(1), spf, 998)  # fits
        tracemalloc.start()
        try:
            with pytest.raises(dc.ResourceError):
                dc.build_mult_table(dc.sigma_spec(1), spf, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


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
            spf = dc.build_spf(n)
            return (
                spf.spf.tobytes(),
                dtab.values.tobytes(),
                *(dc.shifted_product_values(dtab, n - v, v).tobytes() for v in shifts),
                *(f(n - v, v, dtab).value for f in sums for v in shifts),
                *(f(sigma, n - v, v, spf).value for f in spec_sums for v in shifts),
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
                    dc.build_spf(x + v).spf.tobytes(),
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
        forks = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)

        def build(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            return dc.build_divisor_table(n).values, dc.build_spf(n).spf

        d1, spf1 = build(1)
        assert forks == []
        d3, spf3 = build(3)
        assert len(forks) == 4  # two children per table
        assert d3.tobytes() == d1.tobytes()
        assert spf3.tobytes() == spf1.tobytes()
        assert d3[1:].tolist() == [d_naive(k) for k in range(1, n + 1)]
        assert spf3[2:].tolist() == [
            smallest_prime_factor_naive(k) for k in range(2, n + 1)
        ]

    def test_single_window_tables_never_fork(self, monkeypatch):
        def no_fork():
            raise AssertionError("a one-window table forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert dc.build_divisor_table(10_100).values[10_080] == d_naive(10_080)
        assert dc.build_spf(40_000).spf[39_999] == smallest_prime_factor_naive(39_999)


class TestStreamedPairSums:
    # 30030 is wider than every window below; y = 0 is the empty sum
    SHIFTS = (1, 2, 12, 60, 1024, 30030)
    YS = (0, 1, 2, 776, 777, 778, 1008, 1009, 1010, 4097, 12_345, 20_000)

    @pytest.mark.parametrize("segment_size", [777, 1009, 4096])
    def test_matches_table_path(self, monkeypatch, segment_size):
        # three CPUs split the windows unevenly between the parent and two
        # children; the cells mix checkpoints on and beside window edges
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
        assert dc.stream_pair_sums([(0, 5)]).sums == {}

    @pytest.mark.parametrize("y, w", [(1000, 1), (20_000, 30_030)])
    def test_dropped_divisor_past_the_last_y_raises(self, monkeypatch, y, w):
        # d(n + w) for n <= y reaches past y; the last window sieves it, and
        # the d row is checked at its top, y + w.  At y = 20000 that window
        # is a child's, and y + w = 50030 lies in no other window
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1009)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        fill = dc.sieve._divisor_fill

        def dropping(seg, lo, hi):
            fill(seg, lo, hi)
            if lo <= y + w <= hi:
                seg[y + w - lo] -= 1

        monkeypatch.setattr(dc.sieve, "_divisor_fill", dropping)
        with pytest.raises(RuntimeError, match=f"self-test failed at y={y + w}:"):
            dc.stream_pair_sums([(y, w)])
        _assert_no_child_left()

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


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerFailure:
    @pytest.mark.parametrize(
        "how, status", [("exit", "exited with status 1"), ("kill", "killed by signal 9")]
    )
    def test_failed_child_raises_and_is_reaped(self, monkeypatch, how, status):
        _failing_children(monkeypatch, how)
        for build in (dc.build_divisor_table, dc.build_spf):
            with pytest.raises(dc.ResourceError, match=status):
                build(20_000)
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

    def test_children_reaped_when_parent_windows_raise(self, monkeypatch):
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1009)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        parent = os.getpid()

        def fill(table, lo, hi):
            if os.getpid() == parent:
                raise KeyError("parent window")
            table[lo : hi + 1] = 1

        with pytest.raises(KeyError):
            dc.sieve._fan_out(
                20_001, np.uint32, list(dc.sieve.windows(0, 20_000)), fill
            )
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
