"""Exact arithmetic of single integers and multiplicative specs.

Everything here works on one integer at a time, factored by trial division
(shifts v, their divisors, prime powers); values of f over a range come
from divcorr.sieve, which builds on this bottom layer.  arith imports
nothing from divcorr except its errors.  Exact Python integers throughout;
floating point only enters for the log-weighted divisor sums, and numpy
only for the int64 residues, modulo pairwise-coprime odd moduli below
2^31, from which the tau table rebuilds its exact integers.

Key objects:
    Factorization       ordered (prime, exponent) pairs, a plain tuple
    MultiplicativeSpec  a multiplicative f given by its prime-power values,
                        optionally with the completely multiplicative
                        companion g of the Chebyshev-type recurrence
                        f(p^(n+1)) = f(p) f(p^n) - g(p) f(p^(n-1))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from divcorr.errors import ContractError, RangeError

# ordered prime factorisation ((p1, e1), (p2, e2), ...) with p1 < p2 < ...;
# the integer 1 carries the empty tuple
Factorization = tuple[tuple[int, int], ...]
_TRIAL_LIMIT = 1 << 40  # worst case below it: about 0.1 s on 2 vCPUs


def trial_factorize(n: int) -> Factorization:
    """Factor n by trial division, no table needed; RangeError unless
    1 <= n < 2^40, which bounds the divisions by 2^19."""
    if not 0 < n < _TRIAL_LIMIT:
        raise RangeError(f"cannot factor n={n}: trial division needs 1 <= n < 2**40")
    entries = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            entries.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        entries.append((m, 1))
    return tuple(entries)


def divisors(f: Factorization) -> list[int]:
    """All positive divisors, in deterministic (not sorted) order."""
    out = [1]
    for p, e in f:
        base = list(out)
        pk = 1
        for _ in range(e):
            pk *= p
            out.extend(d * pk for d in base)
    return out


def mobius(f: Factorization) -> int:
    """mu(n): 0 on squareful n, else (-1)^(number of prime factors)."""
    for _, e in f:
        if e >= 2:
            return 0
    return -1 if len(f) % 2 else 1


def mobius_divisors(n: int) -> list[tuple[int, int]]:
    """(e, mu(e)) for the divisors e of n with mu(e) != 0, i.e. the
    squarefree ones, in the order divisors() lists them."""
    out = [(1, 1)]
    for p, _ in trial_factorize(n):
        out += [(e * p, -mu) for e, mu in out]
    return out


@lru_cache(maxsize=1 << 12)
def sigma_log_k(v: int, k: int) -> float:
    """sum over divisors d of v of (log d)^k / d, the k-fold log-weighted
    variant of sigma_{-1}; k = 0 gives sigma_{-1}(v) = sigma_1(v)/v.

    Cached, since the identity checks ask for the same (v, k) many times
    over the divisors of each shift: v is factorised once per k."""
    if v < 1:
        raise RangeError(f"v={v} must be positive")
    divs = divisors(trial_factorize(v))
    if k == 0:
        return sum(divs) / v
    return math.fsum(math.log(d) ** k / d for d in divs)


@lru_cache(maxsize=1 << 12)
def von_mangoldt_k(n: int, k: int) -> float:
    """Lambda_k(n) = sum_{d|n} mu(d) (log(n/d))^k.

    Lambda_1 is the classical von Mangoldt function (log p on prime powers,
    0 elsewhere); Lambda_0(n) = 1 exactly when n = 1.  Cached like
    sigma_log_k: the coefficient suites ask for it at every divisor of
    every shift.
    """
    if n < 1:
        raise RangeError(f"n={n} must be positive")
    return math.fsum(mu * math.log(n // d) ** k for d, mu in mobius_divisors(n))


@dataclass(frozen=True)
class MultiplicativeSpec:
    """A multiplicative function given by its prime-power values.

    prime_power_value(p, e) returns f(p^e) for e >= 1; f(p^0) = 1 is implicit.
    companion_g, when present, is the completely multiplicative companion of
    the recurrence f(p^(n+1)) = f(p) f(p^n) - g(p) f(p^(n-1)).
    """

    name: str
    prime_power_value: Callable[[int, int], int | float]
    companion_g: Callable[[int], int] | None = None


def divisor_count_spec() -> MultiplicativeSpec:
    """d(n): f(p^e) = e + 1, companion g == 1."""
    return MultiplicativeSpec("d", lambda p, e: e + 1, companion_g=lambda p: 1)


def sigma_spec(alpha: int) -> MultiplicativeSpec:
    """sigma_alpha for integer alpha >= 1, companion g(p) = p^alpha."""
    if not isinstance(alpha, int) or alpha < 1:
        raise ContractError("sigma_spec needs an integer alpha >= 1")

    def ppv(p: int, e: int) -> int:
        pa = p**alpha
        return (pa ** (e + 1) - 1) // (pa - 1)

    return MultiplicativeSpec(
        f"sigma_{alpha}", ppv, companion_g=lambda p: p**alpha
    )


def tau_spec(table: Sequence[int]) -> MultiplicativeSpec:
    """Ramanujan tau backed by a precomputed table, companion g(p) = p^11;
    its prime-power values raise RangeError past the end of the table."""
    limit = len(table) - 1

    def ppv(p: int, e: int) -> int:
        q = p**e
        if q > limit:
            raise RangeError(
                f"tau table of limit {limit} has no value at {p}^{e}"
            )
        return table[q]

    return MultiplicativeSpec("tau", ppv, companion_g=lambda p: p**11)


def completely_mult_value(g: Callable[[int], int], n: int) -> int:
    """Value at n of the completely multiplicative function with g(p) given."""
    out = 1
    for p, e in trial_factorize(n):
        out *= g(p) ** e
    return out


def chebyshev_extend(f_p: int | float, g_p: int | float, k: int) -> int | float:
    """f(p^k) from f(p^0) = 1 and f(p^1) = f_p via
    f(p^(n+1)) = f(p) f(p^n) - g(p) f(p^(n-1)); exact when the inputs are."""
    if k < 0:
        raise ContractError("exponent must be >= 0")
    if k == 0:
        return 1
    prev: int | float = 1
    cur = f_p
    for _ in range(k - 1):
        prev, cur = cur, f_p * cur - g_p * prev
    return cur


def ramanujan_tau_table(limit: int) -> list[int]:
    """tau(n) for n <= limit as exact integers, index-aligned (slot 0 is 0);
    RangeError unless 1 <= limit < 2^31, before anything is allocated.

    Coefficients of q prod_{m>=1} (1 - q^m)^24 = q J^8, where Jacobi's
    identity gives J = prod (1 - q^m)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2)
    directly, with K, about sqrt(2 limit), nonzero terms below degree limit
    and S = K^2 the sum of their |coefficients|.  Every coefficient of J^8
    is at most S^8 in size, so its residue mod M, any M > 2 S^8, fixes it
    once centred in (-M/2, M/2).  J^8 is formed modulo each of the
    pairwise-coprime odd moduli below 2^31 of _crt_moduli, whose product M
    is the first to exceed 2 S^8, by seven sparse multiplications by J in
    int64; Garner's mixed-radix CRT, which needs the moduli only to be
    coprime, rebuilds M's residue from them.  No bound on tau itself is
    assumed.  A limit below 2^31 keeps K <= 2^16 and S <= 2^32, the bound
    under which _times_jacobi cannot overflow.
    """
    if not 0 < limit < 1 << 31:
        raise RangeError(f"tau table limit {limit} must be in [1, 2**31)")
    jacobi = []
    k = 0
    while k * (k + 1) // 2 < limit:
        jacobi.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    moduli = _crt_moduli(2 * sum(abs(c) for _, c in jacobi) ** 8)
    digits = []
    for m in moduli:
        power = np.zeros(limit, dtype=np.int64)  # J^8 below degree limit
        for t, c in jacobi:
            power[t] = c % m
        for _ in range(7):
            power = _times_jacobi(power, jacobi, m)
        # Garner: the residue mod m becomes the next mixed-radix digit
        for q, d in zip(moduli, digits):
            power = (power - d) * pow(q, -1, m) % m
        digits.append(power)
    # J^8 mod M = d_0 + m_0 (d_1 + m_1 (d_2 + ...)), rebuilt from the top
    acc = digits.pop().tolist()
    while digits:
        m = moduli[len(digits) - 1]
        acc = [d + m * a for d, a in zip(digits.pop().tolist(), acc)]
    big = math.prod(moduli)
    half = big // 2
    return [0] + [a - big if a > half else a for a in acc]


def _crt_moduli(bound: int) -> list[int]:
    """The odd numbers from 2^31 - 1 down, each taken when it is coprime to
    the product of those taken before it, until that product exceeds bound:
    pairwise coprime, in descending order."""
    moduli: list[int] = []
    product = 1
    candidate = (1 << 31) - 1
    while product <= bound:
        if math.gcd(candidate, product) == 1:
            moduli.append(candidate)
            product *= candidate
        candidate -= 2
    return moduli


def _times_jacobi(a: np.ndarray, jacobi: list[tuple[int, int]], m: int) -> np.ndarray:
    """a J truncated to len(a) coefficients, reduced mod m < 2^31, for a
    reduced mod m.  Each term adds c a shifted by t, and the sum is reduced
    once: for jacobi's terms below a limit under 2^31 the |c| sum to at most
    2^32, so every int64 entry stays within 2^32 (m - 1) < 2^63."""
    n = len(a)
    out = np.zeros_like(a)
    scratch = np.empty_like(a)
    for t, c in jacobi:
        np.multiply(a[: n - t], c, out=scratch[: n - t])
        out[t:] += scratch[: n - t]
    out %= m
    return out
