"""Independent brute-force oracles for expected values.

Deliberately naive (trial division, divisor scans, shifted-subtraction
q-expansion) so that no library code path is reused to produce the value it
is checked against.
"""

import math

import numpy as np


def d_naive(n: int) -> int:
    count = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            count += 1 if i * i == n else 2
        i += 1
    return count


def divisor_window_strided(lo: int, hi: int) -> np.ndarray:
    """d(n) for n in [lo, hi], 1 <= lo, as uint32: each divisor pair (i, n/i)
    with i <= sqrt(n) adds two counts (one when i*i = n), one strided slice
    add per i <= sqrt(hi)."""
    seg = np.zeros(hi - lo + 1, dtype=np.uint32)
    for i in range(1, math.isqrt(hi) + 1):
        sq = i * i
        if lo <= sq <= hi:
            seg[sq - lo] += 1
        start = max(sq + i, (lo + i - 1) // i * i)
        if start <= hi:
            seg[start - lo :: i] += 2
    return seg


def divisor_window_trial(lo: int, hi: int) -> np.ndarray:
    """d(n) for n in [lo, hi], 1 <= lo, hi < 2^63, as uint32, by trial
    division: the primes <= sqrt(hi) come from a plain numpy sieve, each n
    is tested against all of them in one vector operation, and each prime
    that divides it is divided out to its exponent; a cofactor left above
    1 is one more prime.  Meant for short windows at any height."""
    r = math.isqrt(hi)
    sieve = np.ones(r + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(r) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    primes = np.nonzero(sieve)[0].astype(np.int64)
    out = np.empty(hi - lo + 1, dtype=np.uint32)
    for n in range(lo, hi + 1):
        count, rest = 1, n
        for p in primes[n % primes == 0].tolist():
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            count *= e + 1
        out[n - lo] = count * (2 if rest > 1 else 1)
    return out


def divisors_naive(n: int) -> list[int]:
    small = []
    large = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def sigma_naive(n: int, alpha: int = 1) -> int:
    return sum(d**alpha for d in divisors_naive(n))


def mobius_naive(n: int) -> int:
    count = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        p += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def von_mangoldt_naive(n: int) -> float:
    if n < 2:
        return 0.0
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        return math.log(n)  # n itself is prime
    m = n
    while m % p == 0:
        m //= p
    return math.log(p) if m == 1 else 0.0


def valuation_naive(n: int, p: int) -> int:
    """v_p(n) for n >= 1 by repeated division."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def prime_exponents_naive(n: int) -> dict[int, int]:
    """{p: v_p(n)} for n >= 1 by trial division."""
    exponents: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        exponents[n] = exponents.get(n, 0) + 1
    return exponents


def smallest_prime_factor_naive(n: int) -> int:
    if n < 2:
        return n
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def shifted_product_divisor_count(n: int, shift: int, spf) -> int:
    """d(n(n+shift)) from the merged prime factors of n and n+shift, each
    found by walking the smallest-prime-factor array of the SpfTable spf."""
    exponents: dict[int, int] = {}
    for m in (n, n + shift):
        while m > 1:
            p = int(spf.spf[m])
            exponents[p] = exponents.get(p, 0) + 1
            m //= p
    return math.prod(e + 1 for e in exponents.values())


def sum_dd_naive(x: int, v: int) -> int:
    return sum(d_naive(n) * d_naive(n + v) for n in range(1, x + 1))


def sum_dpoly_naive(x: int, v: int) -> int:
    return sum(d_naive(n * (n + v)) for n in range(1, x + 1))


def sum_ff_naive(f, x: int, v: int):
    return sum(f(n) * f(n + v) for n in range(1, x + 1))


def sum_fpoly_naive(f, x: int, v: int):
    return sum(f(n * (n + v)) for n in range(1, x + 1))


def tau_naive(limit: int) -> list[int]:
    """tau(1..limit) by literally multiplying out (1 - q^m)^24 factors."""
    top = limit - 1  # degree window of the eta-product part
    coeffs = [1] + [0] * top
    for m in range(1, top + 1):
        for _ in range(24):
            for i in range(top, m - 1, -1):
                coeffs[i] -= coeffs[i - m]
    return [0] + coeffs[:limit]


def zeta_heads_fsum(m: int) -> tuple[float, float, float, float]:
    """The four head sums of the zeta constants over n <= m, each term formed
    in one float64 array and the whole list fed to math.fsum."""
    n = np.arange(1, m + 1, dtype=np.float64)
    terms = (
        1.0 / n,
        (1.0 / n) * (1.0 / n),
        np.log(n) * ((1.0 / n) * (1.0 / n)),
        np.log(n) * np.log(n) * ((1.0 / n) * (1.0 / n)),
    )
    return tuple(math.fsum(t.tolist()) for t in terms)
