"""Exact arithmetic of single integers and multiplicative specs.

Everything here works on one integer at a time, factored by trial division
(shifts v, their divisors, prime powers); values of f over a range come
from divcorr.sieve, which builds on this bottom layer.  arith imports
nothing from divcorr except its errors.  Exact Python integers throughout;
floating point only enters for real-exponent power sums and the
log-weighted divisor sums.

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
from typing import Callable, Sequence

from divcorr.errors import ContractError, EvaluationError, RangeError

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


def sigma_pow(alpha: int | float, f: Factorization) -> int | float:
    """sigma_alpha(n) = sum of d^alpha over divisors d of n.

    Exact integer for integer alpha >= 0, binary64 otherwise; evaluated as a
    product of per-prime geometric sums either way.
    """
    if isinstance(alpha, int) and alpha >= 0:
        if alpha == 0:
            return math.prod(e + 1 for _, e in f)
        out = 1
        for p, e in f:
            pa = p**alpha
            out *= (pa ** (e + 1) - 1) // (pa - 1)
        return out
    out = 1.0
    for p, e in f:
        pa = float(p) ** alpha
        out *= math.fsum(pa**j for j in range(e + 1))
    return out


def sigma_log_k(v: int, k: int) -> float:
    """sum over divisors d of v of (log d)^k / d, the k-fold log-weighted
    variant of sigma_{-1}; k = 0 gives sigma_{-1}(v) = sigma_1(v)/v."""
    if v < 1:
        raise RangeError(f"v={v} must be positive")
    f = trial_factorize(v)
    if k == 0:
        return int(sigma_pow(1, f)) / v
    return math.fsum(math.log(d) ** k / d for d in divisors(f))


def von_mangoldt_k(n: int, k: int) -> float:
    """Lambda_k(n) = sum_{d|n} mu(d) (log(n/d))^k.

    Lambda_1 is the classical von Mangoldt function (log p on prime powers,
    0 elsewhere); Lambda_0(n) = 1 exactly when n = 1.
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
    """Ramanujan tau backed by a precomputed table, companion g(p) = p^11."""
    limit = len(table) - 1

    def ppv(p: int, e: int) -> int:
        q = p**e
        if q > limit:
            raise EvaluationError(
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
    """tau(n) for n <= limit as exact integers, index-aligned (slot 0 is 0).

    Coefficients of q prod_{m>=1} (1 - q^m)^24 = q J^8, where Jacobi's
    identity gives J = prod (1 - q^m)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2)
    directly.  J^8 takes three truncated squarings, each one exact bigint
    multiply over unbounded Python integers (signed Kronecker packing), so
    no fixed-width overflow can occur.
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    n = limit  # degree window for J^8
    j = [0] * n
    k = 0
    while k * (k + 1) // 2 < n:
        j[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    for _ in range(3):
        j = _square_trunc(j, n)
    return [0] + j


def _square_trunc(a: list[int], n: int) -> list[int]:
    """Exact square of an integer polynomial, truncated to degree < n.

    Every coefficient c is packed as the limb c + 2^(B-1), with B-bit limbs
    wide enough that |c| and every convolution sum stay below 2^(B-1); the
    packed integer minus the all-2^(B-1) offset is the signed polynomial at
    2^B.  Squaring it natively, adding the offset back and keeping n limbs
    leaves each limb s_k + 2^(B-1) in [0, 2^B), with no borrow across limbs.
    """
    bound = max(abs(c) for c in a) ** 2 * len(a)
    limb = bound.bit_length() // 8 + 1  # bytes per limb
    half = 1 << (8 * limb - 1)
    offset = int.from_bytes((bytes(limb - 1) + b"\x80") * n, "little")
    packed = int.from_bytes(
        b"".join((c + half).to_bytes(limb, "little") for c in a), "little"
    )
    packed -= offset
    square = (packed * packed + offset) & ((1 << (8 * limb * n)) - 1)
    raw = square.to_bytes(limb * n, "little")
    return [
        int.from_bytes(raw[i : i + limb], "little") - half
        for i in range(0, limb * n, limb)
    ]
