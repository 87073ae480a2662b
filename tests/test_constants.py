import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import divcorr as dc

# high-precision references computed independently (arbitrary-precision
# summation at development time) and frozen
GAMMA_REF = 0.5772156649015329
ZETA_PRIME_2_REF = -0.9375482543158438
ZETA_DOUBLE_PRIME_2_REF = 1.989280234298901
ZETA_3_REF = 1.2020569031595942
ZETA_1_5_REF = 2.612375348685488


class TestZetaConstants:
    def test_values_against_references(self, zc):
        assert zc.gamma == pytest.approx(GAMMA_REF, abs=1e-13)
        assert zc.zeta2 == pytest.approx(math.pi**2 / 6, abs=1e-14)
        assert zc.zeta_prime_2 == pytest.approx(ZETA_PRIME_2_REF, abs=1e-13)
        assert zc.zeta_double_prime_2 == pytest.approx(
            ZETA_DOUBLE_PRIME_2_REF, abs=1e-13
        )

    def test_stability_under_doubling(self, zc):
        doubled = dc.compute_zeta_constants(truncation=2 * zc.truncation_point)
        assert abs(zc.gamma - doubled.gamma) <= 1e-12
        assert abs(zc.zeta2 - doubled.zeta2) <= 1e-12
        assert abs(zc.zeta_prime_2 - doubled.zeta_prime_2) <= 1e-12
        assert abs(zc.zeta_double_prime_2 - doubled.zeta_double_prime_2) <= 1e-12

    def test_error_bounds_certify_target(self, zc):
        assert all(b <= 1e-12 for b in zc.abs_error_bound.values())
        doubled = dc.compute_zeta_constants(truncation=2 * zc.truncation_point)
        for name in ("gamma", "zeta2", "zeta_prime_2", "zeta_double_prime_2"):
            drift = abs(getattr(zc, name) - getattr(doubled, name))
            assert drift <= zc.abs_error_bound[name] + doubled.abs_error_bound[name]

    def test_peak_within_charge(self, monkeypatch):
        charged = []
        charge = dc.constants.charge

        def record(nbytes):
            charged.append(nbytes)
            charge(nbytes)

        monkeypatch.setattr(dc.constants, "charge", record)
        dc.compute_zeta_constants.cache_clear()  # a cached call allocates nothing
        tracemalloc.start()
        try:
            # tracemalloc slows the per-term floats 20-fold; the peak per term
            # is the same 72 B from 1e4 to 2e6 terms
            dc.compute_zeta_constants(1e-9, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert charged and peak <= sum(charged), (peak, charged)

    def test_peak_is_one_chunk_at_default_truncation(self, monkeypatch):
        # the head sums hold one chunk of terms at a time, so the call is
        # charged one chunk whatever the truncation, and peaks below it
        charged = []
        charge = dc.constants.charge

        def record(nbytes):
            charged.append(nbytes)
            charge(nbytes)

        monkeypatch.setattr(dc.constants, "charge", record)
        dc.compute_zeta_constants.cache_clear()
        tracemalloc.start()
        try:
            dc.compute_zeta_constants()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert charged == [dc.constants._ZETA_CHUNK_BYTES], charged
        assert peak <= charged[0], (peak, charged)

    def test_rejects_impossible_precision(self):
        with pytest.raises(dc.ContractError):
            dc.compute_zeta_constants(precision_target=1e-15)

    def test_zeta_em(self):
        assert dc.zeta_em(3.0) == pytest.approx(ZETA_3_REF, abs=1e-13)
        assert dc.zeta_em(1.5) == pytest.approx(ZETA_1_5_REF, abs=1e-12)
        assert dc.zeta_em(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-13)
        with pytest.raises(dc.ContractError):
            dc.zeta_em(1.0)

    def test_zeta_em_cached_and_charged(self, monkeypatch):
        # n and n^(-s) in float64 are charged before they are allocated,
        # and a repeated (s, truncation) allocates nothing
        dc.zeta_em.cache_clear()
        monkeypatch.setenv("DIVCORR_MEMCAP", str(16 * 10**5 - 1))
        with pytest.raises(dc.ResourceError):
            dc.zeta_em(4.0)
        monkeypatch.setenv("DIVCORR_MEMCAP", str(16 * 10**5))
        tracemalloc.start()
        try:
            first = dc.zeta_em(4.0)
            lead = dc.sigma_correlation_main_term(100, 6, 1.5)  # zeta(2.5), zeta(5)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert dc.sigma_correlation_main_term(100, 6, 1.5) == lead
            assert dc.zeta_em(4.0) == first
            again = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 10**5 + 4096, peak
        assert again < 1 << 14, again
        assert dc.zeta_em.cache_info().currsize == 3  # zeta(4), zeta(2.5), zeta(5)


class TestCoefficients:
    def test_pair_form_at_shift_one(self, zc):
        c1, c2 = dc.estermann_coefficients(1, zc)
        # 4 gamma - 2 - 4 zeta'/zeta(2), printed value 2.58870...
        expected = 4 * zc.gamma - 2 - 4 * zc.zeta_prime_2 / zc.zeta2
        assert c1 == pytest.approx(expected, rel=1e-15)
        assert c1 == pytest.approx(2.58870, abs=1e-4)
        base = (
            (2 * zc.gamma - 1 - 2 * zc.zeta_prime_2 / zc.zeta2) ** 2
            + 1
            - 4 * zc.zeta_double_prime_2 / zc.zeta2
            + 4 * (zc.zeta_prime_2 / zc.zeta2) ** 2
        )
        assert c2 == base  # shift-1 corrections vanish identically

    def test_pair_form_at_shift_two(self, zc):
        c1_1, _ = dc.estermann_coefficients(1, zc)
        c1_2, _ = dc.estermann_coefficients(2, zc)
        assert c1_2 == pytest.approx(c1_1 - 4 * math.log(2) / 3, rel=1e-13)
        assert c1_2 == pytest.approx(1.66450, abs=1e-4)

    def test_product_form_lambda_sums(self, zc):
        a1_1, _ = dc.shifted_product_coefficients(1, zc)
        a1_2, _ = dc.shifted_product_coefficients(2, zc)
        a1_3, _ = dc.shifted_product_coefficients(3, zc)
        assert a1_2 == pytest.approx(a1_1 - math.log(2), rel=1e-13)
        assert a1_2 == pytest.approx(1.89556, abs=1e-4)
        assert a1_3 - a1_1 == pytest.approx(-2 * math.log(3) / 3, rel=1e-12)

    def test_families_coincide_at_shift_one(self, zc):
        coef = dc.asymptotic_coefficients(1, zc)
        assert coef.a1 == coef.c1
        assert coef.a2 == coef.c2

    def test_prime_power_shift_closed_form(self, zc):
        # A1(p^k) = A1(1) - 2 log p sum_{j<=k} p^(-j), straight from the
        # von Mangoldt sum over divisors
        a1_1, _ = dc.shifted_product_coefficients(1, zc)
        for p in (2, 3, 5):
            for k in range(1, 5):
                a1, _ = dc.shifted_product_coefficients(p**k, zc)
                expected = a1_1 - 2 * math.log(p) * sum(
                    p**-j for j in range(1, k + 1)
                )
                assert a1 == pytest.approx(expected, rel=1e-12), (p, k)


class TestIdentityReports:
    def test_sigma_lambda_examples(self):
        rep = dc.sigma_lambda_identity(4, 1)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.75 * math.log(2), rel=1e-13)
        for k in (1, 2, 3):
            rep = dc.sigma_lambda_identity(1, k)
            assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0
        assert dc.sigma_lambda_identity(30, 2).passed

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=3),
    )
    def test_sigma_lambda_range(self, v, k):
        assert dc.sigma_lambda_identity(v, k).passed

    def test_binomial_examples(self):
        rep = dc.binomial_log_identity(2, 0)
        assert rep.passed and rep.lhs == pytest.approx(1.0, abs=1e-14)
        for n in (1, 2, 3):
            assert dc.binomial_log_identity(1, n).lhs == 0.0
        assert dc.binomial_log_identity(12, 2).passed

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=3),
    )
    def test_binomial_range(self, v, n):
        assert dc.binomial_log_identity(v, n).passed

    def test_consistency_examples(self, zc):
        rep = dc.coefficient_consistency(1, zc)
        assert rep.passed and rep.max_abs_diff < 1e-12
        assert dc.coefficient_consistency(2, zc).passed
        assert dc.coefficient_consistency(12, zc).passed

    @given(st.integers(min_value=1, max_value=100))
    def test_consistency_range(self, zc, v):
        assert dc.coefficient_consistency(v, zc).passed


class TestMainTerms:
    def test_one_term_shape(self, zc):
        x = 10_000
        got = dc.shifted_product_main_term(x, 1, zc, terms=1)
        assert got == pytest.approx(6 / math.pi**2 * x * math.log(x) ** 2, rel=1e-15)

    def test_three_term_value_at_e_squared(self, zc):
        x = math.e**2
        a1, a2 = dc.shifted_product_coefficients(1, zc)
        got = dc.shifted_product_main_term(x, 1, zc, terms=3)
        assert got == pytest.approx(
            6 / math.pi**2 * x * (4 + 2 * a1 + a2), rel=1e-12
        )

    def test_families_equal_at_shift_one(self, zc):
        for x in (10, 1000, 123456):
            for terms in (1, 2, 3):
                assert dc.estermann_main_term(
                    x, 1, zc, terms
                ) == dc.shifted_product_main_term(x, 1, zc, terms)

    def test_domain_checks(self, zc):
        with pytest.raises(dc.ContractError):
            dc.shifted_product_main_term(1, 1, zc)
        with pytest.raises(dc.ContractError):
            dc.shifted_product_main_term(10, 1, zc, terms=4)


class TestSigmaCorrelationMainTerm:
    def test_coefficient_is_five_sixths_symbolically(self):
        # zeta(2)^2 / zeta(4) = (pi^4/36) / (pi^4/90): the pi powers cancel
        ratio = Fraction(1, 36) / Fraction(1, 90)
        assert Fraction(1, 3) * ratio == Fraction(5, 6)

    def test_alpha_one_shift_one(self):
        x = 1000
        got = dc.sigma_correlation_main_term(x, 1, 1.0)
        assert got == pytest.approx(5 / 6 * x**3, rel=1e-10)

    def test_alpha_one_shift_two(self):
        x = 1000
        got = dc.sigma_correlation_main_term(x, 2, 1.0)
        assert got == pytest.approx(7 / 8 * 5 / 6 * x**3, rel=1e-10)

    def test_shift_one_divisor_factor_is_one(self):
        for alpha in (0.5, 1.0, 2.0):
            lead = dc.sigma_correlation_main_term(10.0, 1, alpha)
            z1 = dc.zeta_em(alpha + 1)
            z2 = dc.zeta_em(2 * alpha + 2)
            assert lead == pytest.approx(
                z1 * z1 / z2 / (2 * alpha + 1) * 10.0 ** (2 * alpha + 1), rel=1e-12
            )

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(dc.ContractError):
            dc.sigma_correlation_main_term(10, 1, 0.0)

    def test_error_exponents(self):
        assert dc.sigma_correlation_error_exponent(1.0) == (2.0, 2)
        assert dc.sigma_correlation_error_exponent(2.0) == (4.0, 0)
        assert dc.sigma_correlation_error_exponent(0.5) == (1.5, 1)
