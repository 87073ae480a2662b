import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divcorr as dc
from oracles import (
    d_naive,
    shifted_product_divisor_count,
    sigma_naive,
    sum_dd_naive,
    sum_dpoly_naive,
    sum_ff_naive,
    sum_fpoly_naive,
    tau_naive,
)

DTAB = dc.build_divisor_table(12_000)
SPF = dc.build_spf(12_000)


class TestDirectSums:
    def test_sum_dd_examples(self):
        assert dc.sum_dd(1, 1, DTAB).value == 2  # d(1) d(2)
        assert dc.sum_dd(3, 1, DTAB).value == 12  # 2 + 4 + 6
        assert dc.sum_dd(6, 2, DTAB).value == 44  # brute force

    def test_sum_dpoly_examples(self):
        assert dc.sum_dpoly(0, 2, DTAB).value == 0
        assert dc.sum_dpoly(6, 2, DTAB).value == 32  # brute force
        assert dc.sum_dpoly(3, 1, DTAB).value == 12  # d(2)+d(6)+d(12)

    def test_sum_dpoly_from_spf_table(self):
        # the per-n merged-factorisation count over the SPF table is the
        # reference for the d-table path
        for x in (1, 7, 50):
            want = sum(
                shifted_product_divisor_count(n, 3, SPF) for n in range(1, x + 1)
            )
            assert dc.sum_dpoly(x, 3, DTAB).value == want

    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=30),
    )
    @settings(deadline=None, max_examples=50)
    def test_sums_match_oracle(self, x, v):
        assert dc.sum_dd(x, v, DTAB).value == sum_dd_naive(x, v)
        assert dc.sum_dpoly(x, v, DTAB).value == sum_dpoly_naive(x, v)

    def test_range_errors(self):
        with pytest.raises(dc.RangeError):
            dc.sum_dd(DTAB.limit, 1, DTAB)
        with pytest.raises(dc.RangeError):
            dc.sum_dpoly(DTAB.limit, 1, DTAB)  # d-table too small
        with pytest.raises(dc.RangeError):
            dc.sum_dd(10, 0, DTAB)  # v = 0 excluded
        with pytest.raises(dc.RangeError):
            dc.sum_dd_from_dpoly(-5, 2, DTAB)  # same x contract as sum_dd

    def test_sum_dd_overflow_guard(self):
        # d(n) d(n+1) = 2^32 wraps to 0 in uint32; the guard must see it first
        big = dc.DivisorTable(10, np.full(11, 1 << 16, dtype=np.uint32))
        with pytest.raises(OverflowError):
            dc.sum_dd(5, 1, big)
        edge = dc.DivisorTable(10, np.full(11, (1 << 16) - 1, dtype=np.uint32))
        assert dc.sum_dd(5, 1, edge).value == 5 * ((1 << 16) - 1) ** 2

    @pytest.mark.parametrize("sum_fn", [dc.sum_dd, dc.sum_dpoly])
    def test_window_memory(self, monkeypatch, sum_fn):
        # the terms live in one reused window, not in an x-length array
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1 << 16)
        x, v = 10**6, 60
        dtab = dc.build_divisor_table(x + v)
        tracemalloc.start()
        try:
            sum_fn(x, v, dtab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * dc.sieve.SEGMENT_SIZE < 4 * (x + 1), peak

    def test_exactness_types(self):
        assert isinstance(dc.sum_dd(100, 3, DTAB).value, int)
        assert isinstance(dc.sum_dpoly(100, 3, DTAB).value, int)


class TestDivisorTransforms:
    def test_example_values(self):
        # 32 + 12 = 44 splits the pair sum over e | 2
        assert dc.sum_dd_from_dpoly(6, 2, DTAB).value == 44
        # 44 - 12 = 32 inverts it
        assert dc.sum_dpoly_from_dd(6, 2, DTAB).value == 32

    def test_degenerate_shift_one(self):
        for x in (5, 100, 999):
            assert (
                dc.sum_dd_from_dpoly(x, 1, DTAB).value
                == dc.sum_dd(x, 1, DTAB).value
            )
            assert (
                dc.sum_dpoly_from_dd(x, 1, DTAB).value
                == dc.sum_dd(x, 1, DTAB).value
            )

    def test_shift_four(self):
        assert dc.sum_dd_from_dpoly(10, 4, DTAB).value == dc.sum_dd(10, 4, DTAB).value

    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=40),
    )
    @settings(deadline=None)
    def test_both_directions_exact(self, x, v):
        assert dc.sum_dd_from_dpoly(x, v, DTAB).value == dc.sum_dd(x, v, DTAB).value
        assert (
            dc.sum_dpoly_from_dd(x, v, DTAB).value == dc.sum_dpoly(x, v, DTAB).value
        )


class TestSpecSums:
    def test_sigma_pair_sum_example(self):
        spec = dc.sigma_spec(1)
        got = dc.sum_correlation(spec, 4, 2)
        assert got.value == 133  # 1*4 + 3*7 + 4*6 + 7*12
        assert got.kind == "ff"

    def test_sigma_product_sum_example(self):
        spec = dc.sigma_spec(1)
        assert dc.sum_shifted_product(spec, 4, 2).value == 103

    @given(
        st.integers(min_value=0, max_value=150),
        # the composite shifts are p^2, p^2 q and p^2 q r shapes (and 2^10),
        # where stripping p^a from n and p^b from n+v matters
        st.one_of(
            st.integers(min_value=1, max_value=12),
            st.sampled_from([1, 4, 12, 60, 90, 1024]),
        ),
        st.sampled_from([1, 2]),
    )
    @settings(deadline=None, max_examples=60)
    def test_spec_sums_match_oracle(self, x, v, alpha):
        spec = dc.sigma_spec(alpha)

        def f(n):
            return sigma_naive(n, alpha)

        assert dc.sum_correlation(spec, x, v).value == sum_ff_naive(f, x, v)
        assert dc.sum_shifted_product(spec, x, v).value == sum_fpoly_naive(
            f, x, v
        )

    def test_range_errors(self):
        spec = dc.sigma_spec(1)
        for fn in (dc.sum_correlation, dc.sum_shifted_product):
            with pytest.raises(dc.RangeError, match="x must be >= 0"):
                fn(spec, -1, 2)
            with pytest.raises(dc.RangeError):
                fn(spec, 10, 0)  # v = 0 excluded
            assert fn(spec, 0, 2).value == 0  # the empty sum

    def test_product_sums_build_one_table(self, monkeypatch):
        limits = []
        build = dc.correlate.build_mult_table

        def counted(spec, limit):
            limits.append(limit)
            return build(spec, limit)

        monkeypatch.setattr(dc.correlate, "build_mult_table", counted)
        spec = dc.sigma_spec(2)
        cells = [(50, 6), (0, 30), (200, 1), (7, 12)]
        want = [sum_fpoly_naive(lambda n: sigma_naive(n, 2), x, v) for x, v in cells]
        assert dc.product_sums(spec, cells) == want
        assert limits == [230]  # max x + max v
        limits.clear()
        assert dc.product_sums(spec, [(0, 3), (0, 1)]) == [0, 0]
        with pytest.raises(dc.RangeError, match="shift v must be >= 1"):
            dc.product_sums(spec, [(10, 1), (10, 0)])
        assert limits == []  # nothing built for empty sums or a bad cell

    def test_one_walk_per_shift_across_window_edges(self, monkeypatch):
        # 64-entry windows: every x sits on, just before or just past an edge
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 64)
        walks = []
        windows = dc.sieve.windows

        def counted(first, last):
            walks.append((first, last))
            return windows(first, last)

        monkeypatch.setattr(dc.sieve, "windows", counted)
        xs, shifts = (0, 1, 63, 64, 65, 128, 129), (1, 2, 6, 12)
        # tau(n(n+v)) up to 129 * 141, from the tau table that test_arith
        # checks against the naive expansion and Ramanujan's congruence
        table = dc.ramanujan_tau_table(129 * 141)
        small = tau_naive(141)
        cases = [
            (dc.sigma_spec(1), sigma_naive, sigma_naive),
            (dc.tau_spec(table), small.__getitem__, table.__getitem__),
        ]
        for spec, f, f_poly in cases:
            cells = [(x, v) for v in shifts for x in xs]
            walks.clear()
            assert dc.product_sums(spec, cells) == [
                sum_fpoly_naive(f_poly, x, v) for x, v in cells
            ]
            assert walks == [(1, 129)] * len(shifts)  # each shift walked once
            for x, v in cells:
                walks.clear()
                assert dc.sum_correlation(spec, x, v).value == sum_ff_naive(f, x, v)
                assert walks == ([(1, x)] if x else [])

    def test_peak_within_charge(self, monkeypatch):
        # a call's traced peak stays within what _mult_table charges, the
        # f-table's MULT_ENTRY_BYTES per entry plus _TERM_BYTES per window
        # entry; with the table built before tracing starts, the peak is the
        # walk's own, which must fit in the _TERM_BYTES part alone.  tau's
        # product form runs at v = 1 only: at v > 1 it needs tau(p^k) far
        # past x.
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1 << 12)
        x = 3 * (1 << 12) + 5
        window_charge = dc.correlate._TERM_BYTES * (1 << 12)
        build = dc.correlate.build_mult_table
        tau = dc.tau_spec(dc.ramanujan_tau_table(x + 1))
        sigmas = (dc.sigma_spec(1), dc.sigma_spec(3))
        cases = [(tau, False, 1), (tau, True, 1)]
        cases += [(s, p, v) for s in sigmas for p in (False, True) for v in (1, 6)]
        for spec, product, v in cases:

            def traced():
                tracemalloc.start()
                try:
                    if product:  # three cells on one walk
                        got = dc.product_sums(spec, [(x // 2, v), (x, v), (x - 1, v)])
                    else:
                        got = dc.sum_correlation(spec, x, v)
                    return got, tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

            want, peak = traced()
            charge = dc.sieve.MULT_ENTRY_BYTES * (x + v + 1) + window_charge
            assert peak <= charge, (spec.name, product, v, peak)
            f = build(spec, x + v)
            monkeypatch.setattr(dc.correlate, "build_mult_table", lambda *_: f)
            got, peak = traced()
            monkeypatch.setattr(dc.correlate, "build_mult_table", build)
            assert got == want
            assert peak <= window_charge, (spec.name, product, v, peak)

    def test_spf_argument_is_not_read(self):
        # a two-entry SPF table is far too short for every sum below
        spf = dc.build_spf(2)
        for spec in (dc.divisor_count_spec(), dc.sigma_spec(1)):
            for x, v in ((1000, 12), (50, 6)):
                for fn in (dc.sum_correlation, dc.sum_shifted_product):
                    assert fn(spec, x, v, spf) == fn(spec, x, v)
                for direction in dc.correlate.DIRECTIONS:
                    got = dc.transform_correlation(spec, x, v, direction, spf)
                    assert got == dc.transform_correlation(spec, x, v, direction)

    def test_prime_power_outside_tau_table(self):
        # n = 6, v = 2: 6 * 8 = 2^4 * 3 needs tau(16) from a table to 8
        spec = dc.tau_spec(dc.ramanujan_tau_table(8))
        with pytest.raises(dc.RangeError, match="no value at 2\\^4"):
            dc.sum_shifted_product(spec, 6, 2)
        tau = tau_naive(35)  # n(n+2) <= 35 for n <= 5
        assert dc.sum_shifted_product(spec, 5, 2).value == sum_fpoly_naive(
            tau.__getitem__, 5, 2
        )

    @given(st.integers(min_value=1, max_value=300))
    def test_monotone_in_x_for_positive_summands(self, x):
        for kind_sum in (dc.sum_correlation, dc.sum_shifted_product):
            a = kind_sum(dc.divisor_count_spec(), x, 3).value
            b = kind_sum(dc.divisor_count_spec(), x + 1, 3).value
            assert b >= a


class TestSpecTransforms:
    def test_transform_matches_direct_sigma(self):
        spec = dc.sigma_spec(1)
        got = dc.transform_correlation(spec, 4, 2, "corr_from_poly")
        assert got.value == 133  # 103 + 2*15
        got = dc.transform_correlation(spec, 4, 2, "poly_from_corr")
        assert got.value == 103

    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=40),
    )
    @settings(deadline=None, max_examples=25)
    def test_g_equal_one_reduces_to_divisor_transform(self, x, v):
        spec = dc.divisor_count_spec()
        assert (
            dc.transform_correlation(spec, x, v, "corr_from_poly").value
            == dc.sum_dd_from_dpoly(x, v, DTAB).value
        )
        assert (
            dc.transform_correlation(spec, x, v, "poly_from_corr").value
            == dc.sum_dpoly_from_dd(x, v, DTAB).value
        )

    def test_tau_transform(self):
        spec = dc.tau_spec(dc.ramanujan_tau_table(1000))
        direct = dc.sum_correlation(spec, 20, 2).value
        assert (
            dc.transform_correlation(spec, 20, 2, "corr_from_poly").value
            == direct
        )

    @staticmethod
    def _round_trip_restores_pair_sum(spec, x, v):
        # reassemble the pair sum from transform-produced product sums
        total = 0
        for e in dc.divisors(dc.trial_factorize(v)):
            ge = dc.completely_mult_value(spec.companion_g, e)
            inner = dc.transform_correlation(
                spec, x // e, v // e, "poly_from_corr"
            ).value
            total += ge * inner
        assert total == dc.sum_correlation(spec, x, v).value

    @given(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=1, max_value=20),
    )
    @settings(deadline=None, max_examples=30)
    def test_directions_are_mutually_inverse(self, x, v):
        self._round_trip_restores_pair_sum(dc.sigma_spec(1), x, v)

    def test_round_trip_other_specs(self):
        tau = dc.tau_spec(dc.ramanujan_tau_table(1100))
        for spec in (dc.divisor_count_spec(), dc.sigma_spec(2), tau):
            for x, v in ((1000, 12), (729, 20), (50, 6)):
                self._round_trip_restores_pair_sum(spec, x, v)

    def test_one_f_table_per_transform(self, monkeypatch):
        limits = []
        build = dc.correlate.build_mult_table

        def counted(spec, limit):
            limits.append(limit)
            return build(spec, limit)

        monkeypatch.setattr(dc.correlate, "build_mult_table", counted)
        spec = dc.sigma_spec(1)
        for direction in dc.correlate.DIRECTIONS:
            limits.clear()
            dc.transform_correlation(spec, 1000, 12, direction)
            assert limits == [1012], direction  # one table over x + v
            limits.clear()
            assert dc.transform_correlation(spec, 0, 12, direction).value == 0
            assert limits == []  # the empty sum builds nothing
            with pytest.raises(dc.RangeError, match="x must be >= 0"):
                dc.transform_correlation(spec, -1, 12, direction)

    def test_requires_companion_and_direction(self):
        bare = dc.MultiplicativeSpec("bare", lambda p, e: e + 1)
        with pytest.raises(dc.ContractError):
            dc.transform_correlation(bare, 10, 2, "corr_from_poly")
        with pytest.raises(dc.ContractError):
            dc.transform_correlation(dc.sigma_spec(1), 10, 2, "sideways")
