import math
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import divcorr as dc
from oracles import (
    d_naive,
    divisors_naive,
    mobius_naive,
    sigma_naive,
    tau_naive,
    von_mangoldt_naive,
)


class TestFactorize:
    def test_one_is_empty_product(self, spf250k):
        assert dc.factorize(1, spf250k).entries == ()

    def test_forced_decompositions(self, spf250k):
        assert dc.factorize(12, spf250k).entries == ((2, 2), (3, 1))
        assert dc.factorize(97, spf250k).entries == ((97, 1),)

    def test_out_of_range(self, spf250k):
        with pytest.raises(dc.RangeError):
            dc.factorize(0, spf250k)
        with pytest.raises(dc.RangeError):
            dc.factorize(spf250k.limit + 1, spf250k)

    @given(st.integers(min_value=1, max_value=250_000))
    def test_reconstructs_input(self, spf250k, n):
        f = dc.factorize(n, spf250k)
        assert f.n == n
        primes = [p for p, _ in f.entries]
        assert primes == sorted(primes)
        assert all(e >= 1 for _, e in f.entries)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_trial_division_agrees(self, spf250k, n):
        assert dc.trial_factorize(n) == dc.factorize(n, spf250k)


class TestPointwiseFunctions:
    def test_mobius_examples(self):
        assert dc.mobius(dc.trial_factorize(1)) == 1
        assert dc.mobius(dc.trial_factorize(30)) == -1
        assert dc.mobius(dc.trial_factorize(12)) == 0

    @given(st.integers(min_value=1, max_value=5000))
    def test_mobius_oracle(self, n):
        assert dc.mobius(dc.trial_factorize(n)) == mobius_naive(n)

    def test_mobius_divisors_examples(self):
        assert dc.mobius_divisors(1) == [(1, 1)]
        assert dc.mobius_divisors(12) == [(1, 1), (2, -1), (3, -1), (6, 1)]

    @given(st.integers(min_value=1, max_value=5000))
    def test_mobius_divisors_oracle(self, n):
        want = [(e, mobius_naive(e)) for e in divisors_naive(n) if mobius_naive(e)]
        assert sorted(dc.mobius_divisors(n)) == want

    def test_divisor_count_examples(self):
        assert dc.divisor_count(dc.trial_factorize(1)) == 1
        assert dc.divisor_count(dc.trial_factorize(12)) == 6
        assert dc.divisor_count(dc.trial_factorize(32)) == 6  # 2^5 -> 5+1

    @given(st.integers(min_value=1, max_value=5000))
    def test_divisor_count_oracle(self, n):
        assert dc.divisor_count(dc.trial_factorize(n)) == d_naive(n)

    def test_divisors_enumeration(self):
        assert sorted(dc.divisors(dc.trial_factorize(60))) == divisors_naive(60)
        assert dc.divisors(dc.trial_factorize(1)) == [1]

    def test_sigma_pow_examples(self):
        assert dc.sigma_pow(1, dc.trial_factorize(6)) == 12
        assert dc.sigma_pow(0, dc.trial_factorize(48)) == 10
        assert dc.sigma_pow(-1, dc.trial_factorize(2)) == 1.5

    def test_sigma_pow_integer_alpha_is_exact_int(self):
        value = dc.sigma_pow(2, dc.trial_factorize(720))
        assert isinstance(value, int)
        assert value == sigma_naive(720, 2)

    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=0, max_value=3),
    )
    def test_sigma_pow_oracle(self, n, alpha):
        assert dc.sigma_pow(alpha, dc.trial_factorize(n)) == sigma_naive(n, alpha)

    @given(st.integers(min_value=1, max_value=500))
    def test_sigma_pow_negative_one(self, n):
        # sigma_{-1}(n) = sigma_1(n)/n
        got = dc.sigma_pow(-1.0, dc.trial_factorize(n))
        assert got == pytest.approx(sigma_naive(n, 1) / n, rel=1e-12)

    def test_sigma_log_k_examples(self):
        assert dc.sigma_log_k(1, 1) == 0.0
        assert dc.sigma_log_k(1, 5) == 0.0
        # direct two-term sums
        expected = math.log(2) / 2 + math.log(4) / 4
        assert dc.sigma_log_k(4, 1) == pytest.approx(expected, rel=1e-14)
        assert dc.sigma_log_k(2, 2) == pytest.approx(math.log(2) ** 2 / 2, rel=1e-14)

    @given(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=3),
    )
    def test_sigma_log_k_oracle(self, v, k):
        expected = math.fsum(math.log(d) ** k / d for d in divisors_naive(v))
        assert dc.sigma_log_k(v, k) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_von_mangoldt_examples(self):
        assert dc.von_mangoldt_k(8, 1) == pytest.approx(math.log(2), rel=1e-12)
        assert dc.von_mangoldt_k(6, 1) == pytest.approx(0.0, abs=1e-12)
        expected = 2 * math.log(2) * math.log(3)
        assert dc.von_mangoldt_k(6, 2) == pytest.approx(expected, rel=1e-12)

    def test_von_mangoldt_k0_detects_one(self):
        assert dc.von_mangoldt_k(1, 0) == 1.0
        for n in range(2, 50):
            assert dc.von_mangoldt_k(n, 0) == pytest.approx(0.0, abs=1e-12)

    def test_von_mangoldt_matches_classical_to_1e4(self):
        for n in range(1, 10_001):
            assert dc.von_mangoldt_k(n, 1) == pytest.approx(
                von_mangoldt_naive(n), abs=1e-11
            ), n


class TestMultiplicativeSpecs:
    def test_eval_examples(self):
        d = dc.divisor_count_spec()
        assert dc.eval_mult(d, dc.trial_factorize(12)) == 6
        assert dc.eval_mult(dc.sigma_spec(1), dc.trial_factorize(4)) == 7
        assert dc.eval_mult(d, dc.trial_factorize(1)) == 1

    def test_tau_spec_out_of_table(self):
        spec = dc.tau_spec(dc.ramanujan_tau_table(10))
        with pytest.raises(dc.EvaluationError):
            dc.eval_mult(spec, dc.trial_factorize(11))

    def test_sigma_spec_rejects_bad_alpha(self):
        with pytest.raises(dc.ContractError):
            dc.sigma_spec(0)

    def test_gcd_lcm_identity_exhaustive(self):
        # f(a) f(b) == f(gcd) f(lcm) exactly, for a, b <= 500
        for spec in (dc.divisor_count_spec(), dc.sigma_spec(1), dc.sigma_spec(2)):
            cache = {}

            def f(n, spec=spec, cache=cache):
                if n not in cache:
                    cache[n] = dc.eval_mult(spec, dc.trial_factorize(n))
                return cache[n]

            for a in range(1, 501):
                for b in range(a, 501):
                    g = gcd(a, b)
                    assert f(a) * f(b) == f(g) * f(a * b // g), (spec.name, a, b)

    def test_chebyshev_examples(self):
        assert dc.chebyshev_extend(2, 1, 3) == 4  # d(p^3)
        assert dc.chebyshev_extend(3, 2, 2) == 7  # sigma_1(4)
        assert dc.chebyshev_extend(-24, 2048, 2) == -1472  # tau(4)
        assert dc.chebyshev_extend(5, 7, 0) == 1
        assert dc.chebyshev_extend(5, 7, 1) == 5

    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=3),
    )
    def test_chebyshev_generates_sigma(self, p, k, alpha):
        got = dc.chebyshev_extend(1 + p**alpha, p**alpha, k)
        assert got == sum(p ** (j * alpha) for j in range(k + 1))

    def test_chebyshev_negative_exponent(self):
        with pytest.raises(dc.ContractError):
            dc.chebyshev_extend(2, 1, -1)


class TestConvolutionIdentity:
    def test_divisor_example(self):
        ok, lhs, rhs = dc.convolution_identity_check(dc.divisor_count_spec(), 4, 6)
        assert ok and lhs == 12 and rhs == 12  # d(24) + d(6) = 8 + 4

    def test_sigma_example(self):
        ok, lhs, rhs = dc.convolution_identity_check(dc.sigma_spec(1), 4, 6)
        # sigma(4) sigma(6) = 84 = sigma(24) + 2 sigma(6) = 60 + 24
        assert ok and lhs == 84 and rhs == 84

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
    )
    def test_coprime_reduces_to_multiplicativity(self, a, b):
        while gcd(a, b) > 1:
            b //= gcd(a, b)
        spec = dc.sigma_spec(1)
        check = dc.convolution_identity_check(spec, a, b)
        assert check.ok
        assert check.rhs == dc.eval_mult(spec, dc.trial_factorize(a * b))

    def test_requires_companion(self):
        spec = dc.MultiplicativeSpec("bare", lambda p, e: e + 1)
        with pytest.raises(dc.ContractError):
            dc.convolution_identity_check(spec, 4, 6)


class TestRamanujanTau:
    def test_small_values(self):
        tau = dc.ramanujan_tau_table(12)
        assert tau[1] == 1
        assert tau[2] == -24
        assert tau[3] == 252
        assert tau[4] == -1472
        assert tau[6] == -6048 == tau[2] * tau[3]

    def test_against_naive_expansion(self):
        assert dc.ramanujan_tau_table(50) == tau_naive(50)

    def test_multiplicative_on_coprime_pairs(self):
        limit = 2000
        tau = dc.ramanujan_tau_table(limit)
        for m in range(2, 50):
            for n in range(2, limit // m + 1):
                if gcd(m, n) == 1:
                    assert tau[m * n] == tau[m] * tau[n], (m, n)

    def test_hecke_recurrence(self):
        limit = 3000
        tau = dc.ramanujan_tau_table(limit)
        for p in (2, 3, 5):
            k = 1
            while p ** (k + 1) <= limit:
                assert (
                    tau[p ** (k + 1)]
                    == tau[p] * tau[p**k] - p**11 * tau[p ** (k - 1)]
                ), (p, k)
                k += 1

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(dc.RangeError):
            dc.ramanujan_tau_table(0)
