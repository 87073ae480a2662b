"""Exact evaluation of multiplicative arithmetic functions.

Everything here works on explicit prime factorisations and exact Python
integers; floating point only enters for real-exponent power sums and the
log-weighted divisor sums.

Key objects:
    Factorization       ordered (prime, exponent) decomposition
    MultiplicativeSpec  a multiplicative f given by its prime-power values,
                        optionally with the completely multiplicative
                        companion g of the Chebyshev-type recurrence
                        f(p^(n+1)) = f(p) f(p^n) - g(p) f(p^(n-1))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from divcorr.errors import ContractError, EvaluationError, RangeError

if TYPE_CHECKING:  # pragma: no cover - annotation only, sieve imports us
    from divcorr.sieve import SpfTable


@dataclass(frozen=True)
class Factorization:
    """Ordered prime factorisation ((p1, e1), (p2, e2), ...) with p1 < p2 < ...

    The integer 1 carries the empty tuple.
    """

    entries: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        out = 1
        for p, e in self.entries:
            out *= p**e
        return out


def factorize(n: int, spf: "SpfTable") -> Factorization:
    """Factor n by walking the smallest-prime-factor table.

    Runs in O(Omega(n)) table lookups; raises RangeError when n is outside
    [1, spf.limit].
    """
    if n <= 0 or n > spf.limit:
        raise RangeError(f"n={n} outside factorisable range [1, {spf.limit}]")
    table = spf.spf
    entries = []
    m = n
    while m > 1:
        p = int(table[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        entries.append((p, e))
    return Factorization(tuple(entries))


def trial_factorize(n: int) -> Factorization:
    """Factor n by trial division; meant for small arguments, no table needed."""
    if n <= 0:
        raise RangeError(f"cannot factor n={n}")
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
    return Factorization(tuple(entries))


def divisors(f: Factorization) -> list[int]:
    """All positive divisors, in deterministic (not sorted) order."""
    out = [1]
    for p, e in f.entries:
        base = list(out)
        pk = 1
        for _ in range(e):
            pk *= p
            out.extend(d * pk for d in base)
    return out


def mobius(f: Factorization) -> int:
    """mu(n): 0 on squareful n, else (-1)^(number of prime factors)."""
    for _, e in f.entries:
        if e >= 2:
            return 0
    return -1 if len(f.entries) % 2 else 1


def mobius_divisors(n: int) -> list[tuple[int, int]]:
    """(e, mu(e)) for the divisors e of n with mu(e) != 0, i.e. the
    squarefree ones, in the order divisors() lists them."""
    out = [(1, 1)]
    for p, _ in trial_factorize(n).entries:
        out += [(e * p, -mu) for e, mu in out]
    return out


def divisor_count(f: Factorization) -> int:
    """d(n) = product of (exponent + 1)."""
    out = 1
    for _, e in f.entries:
        out *= e + 1
    return out


def sigma_pow(alpha: int | float, f: Factorization) -> int | float:
    """sigma_alpha(n) = sum of d^alpha over divisors d of n.

    Exact integer for integer alpha >= 0, binary64 otherwise; evaluated as a
    product of per-prime geometric sums either way.
    """
    if isinstance(alpha, int) and alpha >= 0:
        if alpha == 0:
            return divisor_count(f)
        out = 1
        for p, e in f.entries:
            pa = p**alpha
            out *= (pa ** (e + 1) - 1) // (pa - 1)
        return out
    out = 1.0
    for p, e in f.entries:
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
    primes = [p for p, _ in trial_factorize(n).entries]
    terms = []
    for mask in range(1 << len(primes)):
        d = 1
        sign = 1
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d *= p
                sign = -sign
        terms.append(sign * math.log(n // d) ** k)
    return math.fsum(terms)


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


def eval_mult(spec: MultiplicativeSpec, f: Factorization) -> int | float:
    """f(n) as the product of prime-power values; 1 on the empty product."""
    out: int | float = 1
    for p, e in f.entries:
        out *= spec.prime_power_value(p, e)
    return out


def completely_mult_value(g: Callable[[int], int], n: int) -> int:
    """Value at n of the completely multiplicative function with g(p) given."""
    out = 1
    for p, e in trial_factorize(n).entries:
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


class IdentityCheck(NamedTuple):
    ok: bool
    lhs: int | float
    rhs: int | float


def convolution_identity_check(
    spec: MultiplicativeSpec, a: int, b: int
) -> IdentityCheck:
    """Compare f(a) f(b) against sum over e | gcd(a, b) of g(e) f(ab / e^2).

    Exact arithmetic whenever the spec values are; requires a companion g
    (g == 1 recovers the unweighted identity satisfied by d).
    """
    if spec.companion_g is None:
        raise ContractError(f"spec {spec.name!r} has no companion g")
    fa = eval_mult(spec, trial_factorize(a))
    fb = eval_mult(spec, trial_factorize(b))
    lhs = fa * fb
    ab = a * b
    rhs: int | float = 0
    for e in divisors(trial_factorize(math.gcd(a, b))):
        ge = completely_mult_value(spec.companion_g, e)
        rhs += ge * eval_mult(spec, trial_factorize(ab // (e * e)))
    return IdentityCheck(lhs == rhs, lhs, rhs)


def ramanujan_tau_table(limit: int) -> list[int]:
    """tau(n) for n <= limit as exact integers, index-aligned (slot 0 is 0).

    Coefficients of q prod_{m>=1} (1 - q^m)^24; the 24th power is formed by
    repeated squaring of truncated dense polynomials, with each product taken
    exactly over unbounded Python integers (packed-limb multiplication), so
    no fixed-width overflow can occur.
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    n = limit  # degree window for the eta-product factor
    e1 = _euler_product_coeffs(n)
    e2 = _poly_mul_trunc(e1, e1, n)
    e4 = _poly_mul_trunc(e2, e2, n)
    e8 = _poly_mul_trunc(e4, e4, n)
    e16 = _poly_mul_trunc(e8, e8, n)
    e24 = _poly_mul_trunc(e16, e8, n)
    return [0] + e24


def _euler_product_coeffs(n: int) -> list[int]:
    # prod_{m>=1} (1 - q^m) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2))
    out = [0] * n
    out[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 >= n:
            break
        sign = -1 if k % 2 else 1
        out[g1] = sign
        if g2 < n:
            out[g2] = sign
        k += 1
    return out


def _poly_mul_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    """Exact product of integer polynomials, truncated to degree < n.

    Packs each sign-split factor into one big integer with fixed-width limbs
    wide enough that convolution sums cannot carry between limbs, multiplies
    natively, and unpacks the first n limbs.
    """
    a = a[:n]
    b = b[:n]
    max_a = max((abs(c) for c in a), default=0)
    max_b = max((abs(c) for c in b), default=0)
    if max_a == 0 or max_b == 0:
        return [0] * n
    bound = max_a * max_b * min(len(a), len(b))
    limb_bytes = bound.bit_length() // 8 + 2
    apos = _pack([c if c > 0 else 0 for c in a], limb_bytes)
    aneg = _pack([-c if c < 0 else 0 for c in a], limb_bytes)
    bpos = _pack([c if c > 0 else 0 for c in b], limb_bytes)
    bneg = _pack([-c if c < 0 else 0 for c in b], limb_bytes)
    plus = _unpack(apos * bpos + aneg * bneg, limb_bytes, n)
    minus = _unpack(apos * bneg + aneg * bpos, limb_bytes, n)
    return [x - y for x, y in zip(plus, minus)]


def _pack(coeffs: list[int], limb_bytes: int) -> int:
    buf = bytearray(limb_bytes * len(coeffs))
    for i, c in enumerate(coeffs):
        if c:
            nbytes = (c.bit_length() + 7) // 8
            off = i * limb_bytes
            buf[off : off + nbytes] = c.to_bytes(nbytes, "little")
    return int.from_bytes(buf, "little")


def _unpack(x: int, limb_bytes: int, count: int) -> list[int]:
    size = max(limb_bytes * count, (x.bit_length() + 7) // 8)
    raw = x.to_bytes(size, "little")
    return [
        int.from_bytes(raw[i * limb_bytes : (i + 1) * limb_bytes], "little")
        for i in range(count)
    ]
