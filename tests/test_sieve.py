import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divcorr as dc
from oracles import (
    d_naive,
    shifted_product_divisor_count,
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

    def test_agrees_with_factorization_to_1e4(self, spf250k):
        table = dc.build_divisor_table(10_000)
        for n in range(1, 10_001):
            assert table.values[n] == dc.divisor_count(dc.factorize(n, spf250k))

    @given(st.integers(min_value=1, max_value=3000))
    def test_oracle_sample(self, n):
        table = _shared_table()
        assert table.values[n] == d_naive(n)


_TABLE_CACHE = {}


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
        for v in (1, 7, 12, 50):
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


class TestSegmentedConstruction:
    def test_bit_identical_to_monolithic(self, monkeypatch):
        n = 60_000

        def build(segment_size):
            monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", segment_size)
            return (
                dc.build_spf(n).spf.tobytes(),
                dc.build_divisor_table(n).values.tobytes(),
                _spv(n - 64, 12).tobytes(),
            )

        mono = build(n + 1)
        for segment_size in (777, 1009, 4096):
            assert build(segment_size) == mono, segment_size


class TestMemoryCap:
    def test_explicit_cap(self):
        with pytest.raises(dc.ResourceError):
            dc.build_divisor_table(10**7, memory_cap=1000)
        with pytest.raises(dc.ResourceError):
            dc.build_spf(10**7, memory_cap=1000)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DIVCORR_MEMCAP", "1000")
        with pytest.raises(dc.ResourceError):
            dc.build_divisor_table(10**6)
        monkeypatch.setenv("DIVCORR_MEMCAP", str(2**31))
        dc.build_divisor_table(1000)  # fits again
