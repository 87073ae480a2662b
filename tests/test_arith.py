import math
import tracemalloc
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import divcorr as dc
from oracles import (
    divisors_naive,
    mobius_naive,
    sigma_naive,
    smallest_prime_factor_naive,
    tau_naive,
    von_mangoldt_naive,
)


class TestFactorize:
    def test_one_is_empty_product(self):
        assert dc.trial_factorize(1) == ()

    def test_forced_decompositions(self):
        assert dc.trial_factorize(12) == ((2, 2), (3, 1))
        assert dc.trial_factorize(97) == ((97, 1),)
        assert dc.trial_factorize(2 * 49999) == ((2, 1), (49999, 1))
        # the largest prime below 2^40, the slowest argument allowed
        assert dc.trial_factorize(2**40 - 87) == ((2**40 - 87, 1),)

    def test_out_of_range(self):
        for n in (0, -12, 2**40, 1_000_000_007 * 1_000_000_009):
            with pytest.raises(dc.RangeError, match=f"cannot factor n={n}"):
                dc.trial_factorize(n)

    @given(st.integers(min_value=1, max_value=250_000))
    def test_reconstructs_input(self, n):
        f = dc.trial_factorize(n)
        assert math.prod(p**e for p, e in f) == n
        primes = [p for p, _ in f]
        assert primes == sorted(set(primes))
        assert all(e >= 1 for _, e in f)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_trial_division_agrees(self, n):
        f = dc.trial_factorize(n)
        assert all(smallest_prime_factor_naive(p) == p for p, _ in f)
        want: dict[int, int] = {}
        while n > 1:  # peel smallest prime factors off n
            p = smallest_prime_factor_naive(n)
            want[p] = want.get(p, 0) + 1
            n //= p
        assert dict(f) == want


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

    def test_divisors_enumeration(self):
        assert sorted(dc.divisors(dc.trial_factorize(60))) == divisors_naive(60)
        assert dc.divisors(dc.trial_factorize(1)) == [1]

    def test_sigma_minus_one_oracle(self):
        # sigma_{-1}(v) = sigma_1(v) / v, one correctly rounded division
        for v in range(1, 2001):
            assert dc.sigma_log_k(v, 0) == sigma_naive(v, 1) / v, v

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

    def test_sigma_log_k_factorises_each_v_once_per_k(self, monkeypatch):
        # the identity suites ask for each (v, k) once per divisor e of a
        # shift; repeats come from the cache
        dc.sigma_log_k.cache_clear()
        factor = dc.arith.trial_factorize
        calls = []

        def counting(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(dc.arith, "trial_factorize", counting)
        first = [dc.sigma_log_k(v, k) for v in (12, 30) for k in range(3)]
        assert [dc.sigma_log_k(v, k) for v in (12, 30) for k in range(3)] == first
        assert sorted(calls) == [12, 12, 12, 30, 30, 30]
        with pytest.raises(dc.RangeError):
            dc.sigma_log_k(0, 1)

    def test_von_mangoldt_examples(self):
        assert dc.von_mangoldt_k(8, 1) == pytest.approx(math.log(2), rel=1e-12)
        assert dc.von_mangoldt_k(6, 1) == pytest.approx(0.0, abs=1e-12)
        expected = 2 * math.log(2) * math.log(3)
        assert dc.von_mangoldt_k(6, 2) == pytest.approx(expected, rel=1e-12)

    def test_von_mangoldt_factorises_each_n_once_per_k(self, monkeypatch):
        dc.von_mangoldt_k.cache_clear()
        factor = dc.arith.trial_factorize
        calls = []

        def counting(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(dc.arith, "trial_factorize", counting)
        first = [dc.von_mangoldt_k(n, k) for n in (12, 30) for k in range(3)]
        assert [dc.von_mangoldt_k(n, k) for n in (12, 30) for k in range(3)] == first
        assert sorted(calls) == [12, 12, 12, 30, 30, 30]
        with pytest.raises(dc.RangeError):
            dc.von_mangoldt_k(0, 1)

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
    def test_tau_spec_out_of_table(self):
        spec = dc.tau_spec(dc.ramanujan_tau_table(10))
        assert spec.prime_power_value(3, 2) == -113643  # tau(9)
        with pytest.raises(dc.RangeError, match="no value at 11\\^1"):
            spec.prime_power_value(11, 1)

    def test_sigma_spec_rejects_bad_alpha(self):
        with pytest.raises(dc.ContractError):
            dc.sigma_spec(0)

    def test_gcd_lcm_identity_exhaustive(self):
        # f(a) f(b) == f(gcd) f(lcm) exactly, for a, b <= 500, on the f-table
        for spec in (dc.divisor_count_spec(), dc.sigma_spec(1), dc.sigma_spec(2)):
            f = dc.build_mult_table(spec, 250_000).tolist()
            for a in range(1, 501):
                for b in range(a, 501):
                    g = gcd(a, b)
                    assert f[a] * f[b] == f[g] * f[a * b // g], (spec.name, a, b)

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


@pytest.fixture(scope="module")
def tau30k():
    return dc.ramanujan_tau_table(30_000)


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

    def test_ramanujan_congruence_mod_691(self, tau30k):
        # tau(n) = sigma_11(n) (mod 691), from the weight-12 Eisenstein series;
        # sigma_11 mod 691 summed over each divisor's multiples
        limit = len(tau30k) - 1
        sigma11 = [0] * (limit + 1)
        for d in range(1, limit + 1):
            power = pow(d, 11, 691)
            for m in range(d, limit + 1, d):
                sigma11[m] += power
        for n in range(1, limit + 1):
            assert (tau30k[n] - sigma11[n]) % 691 == 0, n

    def test_multiplicative_on_coprime_pairs(self):
        limit = 2000
        tau = dc.ramanujan_tau_table(limit)
        for m in range(2, 50):
            for n in range(2, limit // m + 1):
                if gcd(m, n) == 1:
                    assert tau[m * n] == tau[m] * tau[n], (m, n)

    def test_hecke_recurrence(self, tau30k):
        for p in (2, 3, 5):
            k = 1
            while p ** (k + 1) < len(tau30k):
                assert (
                    tau30k[p ** (k + 1)]
                    == tau30k[p] * tau30k[p**k] - p**11 * tau30k[p ** (k - 1)]
                ), (p, k)
                k += 1

    def test_prefix_across_prime_count_changes(self, monkeypatch, tau30k):
        # The table takes as many CRT moduli as its product needs to exceed
        # 2 S^8, S = sum of |J coefficients| below the limit: K^2 for the K
        # terms (-1)^k (2k+1) q^(k(k+1)/2) there, K growing at the limits
        # k(k+1)/2 + 1.  On both sides of each limit where the count grows,
        # the table must be a prefix of one built with more moduli.
        top = len(tau30k) - 1
        starts = {k + 1: k * (k + 1) // 2 + 1 for k in range(1, 250)}
        moduli = dc.arith._crt_moduli(2 * max(starts) ** 16)

        def moduli_count(terms):
            return next(
                c for c in range(1, len(moduli) + 1)
                if math.prod(moduli[:c]) > 2 * terms**16
            )

        changes = [
            n for terms, n in starts.items()
            if n <= top and moduli_count(terms) > moduli_count(terms - 1)
        ]
        assert changes == [7, 106, 1432, 21322]  # 2, 3, 4 and 5 moduli from here
        crt_moduli = dc.arith._crt_moduli
        used = []

        def spy(bound):
            out = crt_moduli(bound)
            used.append(len(out))
            return out

        monkeypatch.setattr(dc.arith, "_crt_moduli", spy)
        for n in changes:
            for limit in (n - 1, n):
                assert dc.ramanujan_tau_table(limit) == tau30k[: limit + 1], limit
        assert used == [1, 2, 2, 3, 3, 4, 4, 5]

    def test_times_jacobi_exact_at_the_limit_bound(self):
        # Below a limit of 2^31 J has K = 2^16 terms, whose |c| = 2k + 1 sum
        # to S = 2^32; packed at shifts 0..3 with one sign, against residues
        # p - 1, they carry the unreduced sum to S (p - 1), just below 2^63
        p = 2**31 - 1
        k_top = 0
        while (k_top + 1) * (k_top + 2) // 2 < 2**31 - 1:
            k_top += 1
        assert k_top + 1 == 2**16
        a = np.full(8, p - 1, dtype=np.int64)
        for sign in (1, -1):
            terms = [(k % 4, sign * (2 * k + 1)) for k in range(2**16)]
            assert sum(abs(c) for _, c in terms) == 2**32
            expected = [
                sum(c * (p - 1) for t, c in terms if t <= i) % p
                for i in range(len(a))
            ]
            assert dc.arith._times_jacobi(a, terms, p).tolist() == expected

    def test_rejects_limit_from_2_31_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(dc.RangeError, match="2\\*\\*31"):
                dc.ramanujan_tau_table(1 << 31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_crt_moduli_rule(self):
        bound = 2**300
        moduli = dc.arith._crt_moduli(bound)
        assert moduli[0] == 2**31 - 1
        assert all(m % 2 and m < 2**31 for m in moduli)
        for i, m in enumerate(moduli):
            assert all(gcd(m, q) == 1 for q in moduli[i + 1 :]), m
        assert math.prod(moduli) > bound >= math.prod(moduli[:-1])
        # every odd number skipped between two moduli shares a factor with
        # the product of the moduli taken before it
        for i, (hi, lo) in enumerate(zip(moduli, moduli[1:])):
            before = math.prod(moduli[: i + 1])
            assert all(gcd(n, before) > 1 for n in range(lo + 2, hi, 2)), (hi, lo)

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(dc.RangeError):
            dc.ramanujan_tau_table(0)
