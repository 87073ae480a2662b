"""Correlation sums and the divisor-lattice transforms connecting them.

The two shapes of sum:

    pair form      sum_{n<=x} f(n) f(n+v)        (kind "dd" / "ff")
    product form   sum_{n<=x} f(n(n+v))          (kind "dpoly" / "fpoly")

For any multiplicative f with Chebyshev companion g they determine each
other through exact divisor sums over v; everything here is evaluated in
the spec's exact value domain (Python integers for d, sigma_k, tau).

The d sums read a DivisorTable and reduce in uint64 window by window.  The
f sums read one exact object-dtype f-table from sieve.build_mult_table over
an SpfTable covering x + v, which also serves every inner sum of a
transform; the product form splits each n(n+v) into coprime parts at the
primes of v, so it needs no factorisation per n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from divcorr import sieve
from divcorr.arith import (
    MultiplicativeSpec,
    completely_mult_value,
    divisors,
    mobius_divisors,
    trial_factorize,
)
from divcorr.errors import ContractError, RangeError
from divcorr.sieve import (
    DivisorTable,
    SpfTable,
    build_mult_table,
    shifted_product_values,
)


@dataclass(frozen=True)
class CorrelationSum:
    """One evaluated correlation sum; value is the literal finite sum."""

    kind: str  # dd | dpoly | ff | fpoly
    x: int
    v: int
    value: int | float
    spec_name: str | None = None


def _windows(x: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) over [1, x] in ascending windows of sieve.SEGMENT_SIZE
    terms, the constant read per call."""
    chunk = sieve.SEGMENT_SIZE
    for lo in range(1, x + 1, chunk):
        yield lo, min(lo + chunk - 1, x)


def _exact_sum(x: int, terms: Callable[[int, int], np.ndarray]) -> int:
    """sum_{n<=x} a(n), where terms(lo, hi) gives a(lo..hi) for one window.

    Each window is reduced in uint64 and folded into an unbounded Python
    int; a window of 2^19 terms below 2^32 stays far from uint64 overflow.
    """
    return sum(int(np.sum(terms(lo, hi), dtype=np.uint64)) for lo, hi in _windows(x))


def _check_shift(v: int) -> None:
    if v < 1:
        raise RangeError("shift v must be >= 1")


def check_range(x: int, v: int) -> None:
    """Raise RangeError unless v >= 1 and x >= 0."""
    _check_shift(v)
    if x < 0:
        raise RangeError("x must be >= 0")


def _lattice_sum(
    v: int, g: Callable[[int], int], inverse: bool, term: Callable[[int], int | float]
) -> int | float:
    """sum_{e|v} w(e) term(e), w = g(e), or mu(e) g(e) when inverse.

    This is the Lemma 1 transform for every spec; d is the g == 1 case.
    """
    _check_shift(v)
    if inverse:
        weights = mobius_divisors(v)
    else:
        weights = [(e, 1) for e in divisors(trial_factorize(v))]
    total: int | float = 0
    for e, mu in weights:
        total += mu * completely_mult_value(g, e) * term(e)
    return total


def _unit(p: int) -> int:
    return 1


def sum_dd(x: int, v: int, tables: DivisorTable) -> CorrelationSum:
    """Exact sum of d(n) d(n+v) over n <= x.

    Each window multiplies in uint32 into one reused buffer; raises
    OverflowError if a window's max d(n) * max d(n+v) reaches 2^32.
    """
    check_range(x, v)
    if x > 0 and tables.limit < x + v:
        raise RangeError(f"divisor table limit {tables.limit} < {x + v}")
    d = tables.values
    buf = np.empty(min(sieve.SEGMENT_SIZE, x), dtype=np.uint32)

    def terms(lo: int, hi: int) -> np.ndarray:
        left = d[lo : hi + 1]
        right = d[lo + v : hi + v + 1]
        if int(left.max()) * int(right.max()) >= 1 << 32:
            raise OverflowError("d(n) d(n+v) exceeds uint32")
        return np.multiply(left, right, out=buf[: hi - lo + 1])

    return CorrelationSum("dd", x, v, _exact_sum(x, terms))


def sum_dpoly(x: int, v: int, tables: DivisorTable) -> CorrelationSum:
    """Exact sum of d(n(n+v)) over n <= x; x = 0 gives the empty sum.

    The d(n(n+v)) values are formed from a DivisorTable covering x + v.
    This is the direct sum; sum_dpoly_from_dd reaches the same value
    through pair-form sums.
    """
    check_range(x, v)
    value = 0
    if x:
        vals = shifted_product_values(tables, x, v)
        value = _exact_sum(x, lambda lo, hi: vals[lo : hi + 1])
    return CorrelationSum("dpoly", x, v, value)


def sum_dd_from_dpoly(x: int, v: int, tables: DivisorTable) -> CorrelationSum:
    """Assemble sum_{n<=x} d(n) d(n+v) from product-form sums over the
    divisors of v:  sum_{e|v} sum_{n<=x/e} d(n(n+v/e)).  Equals sum_dd."""
    value = _lattice_sum(
        v, _unit, False, lambda e: sum_dpoly(x // e, v // e, tables).value
    )
    return CorrelationSum("dd", x, v, value)


def sum_dpoly_from_dd(x: int, v: int, tables: DivisorTable) -> CorrelationSum:
    """Moebius-inverted companion:  sum_{e|v} mu(e) sum_{n<=x/e} d(n) d(n+v/e).
    Equals sum_dpoly."""
    value = _lattice_sum(
        v, _unit, True, lambda e: sum_dd(x // e, v // e, tables).value
    )
    return CorrelationSum("dpoly", x, v, value)


# bytes per term of one window of the f-sums: int64 L and R, the weight,
# the gathered and product ints and the index temporaries (measured 70-110
# for values below 2^128)
_TERM_BYTES = 128


def _mult_table(
    spec: MultiplicativeSpec, x: int, v: int, spf: SpfTable
) -> np.ndarray:
    """f(0..x+v), charged together with one window of the sum over it."""
    window = min(sieve.SEGMENT_SIZE, x)
    sieve.charge(sieve.MULT_ENTRY_BYTES * (x + v + 1) + _TERM_BYTES * window)
    return build_mult_table(spec, spf, x + v)


def _pair_sum(f: np.ndarray, x: int, v: int) -> int | float:
    """sum_{n<=x} f(n) f(n+v) over an f-table covering x + v."""
    value: int | float = 0
    for lo, hi in _windows(x):
        value += sum(f[lo : hi + 1] * f[lo + v : hi + v + 1])
    return value


def _product_sum(
    spec: MultiplicativeSpec, f: np.ndarray, x: int, v: int
) -> int | float:
    """sum_{n<=x} f(n(n+v)) over an f-table covering x + v."""
    value: int | float = 0
    pdivs = [p for p, _ in trial_factorize(v).entries]
    for lo, hi in _windows(x):
        left = np.arange(lo, hi + 1, dtype=np.int64)
        right = left + v
        weight = np.ones(len(left), dtype=object)  # prod f(p^(a+b))
        for p in pdivs:
            at = np.arange((-lo) % p, len(left), p)  # multiples of p
            k = np.zeros(len(at), dtype=np.int64)  # a + b
            for side in (left, right):
                j = np.arange(len(at))
                while len(j):
                    side[at[j]] //= p
                    k[j] += 1
                    j = j[side[at[j]] % p == 0]
            fpk = np.zeros(int(k.max(initial=0)) + 1, dtype=object)
            for m in np.unique(k).tolist():
                fpk[m] = spec.prime_power_value(p, m)
            weight[at] *= fpk[k]
        terms = f[left]
        terms *= f[right]  # in place: one new int per term, not two
        terms *= weight
        value += sum(terms)
    return value


def sum_correlation(
    spec: MultiplicativeSpec, x: int, v: int, spf: SpfTable
) -> CorrelationSum:
    """Exact pair-form sum of f(n) f(n+v) over n <= x; x = 0 gives the
    empty sum.  f comes from one build_mult_table over an SPF table
    covering x + v, charged with the window temporaries of the sum."""
    check_range(x, v)
    value = _pair_sum(_mult_table(spec, x, v, spf), x, v) if x else 0
    return CorrelationSum("ff", x, v, value, spec_name=spec.name)


def sum_shifted_product(
    spec: MultiplicativeSpec, x: int, v: int, spf: SpfTable
) -> CorrelationSum:
    """Exact product-form sum of f(n(n+v)) over n <= x; x = 0 gives the
    empty sum.

    A prime shared by n and n+v divides v, so with L = n and R = n+v
    stripped of their powers p^a, p^b of each p | v,

        f(n(n+v)) = f(L) f(R) prod_{p | v} f(p^(a+b))

    over coprime factors; f(L) and f(R) are read from one build_mult_table
    over an SPF table covering x + v, and the stripping touches only the
    multiples of each p | v, window by window.
    """
    check_range(x, v)
    value = _product_sum(spec, _mult_table(spec, x, v, spf), x, v) if x else 0
    return CorrelationSum("fpoly", x, v, value, spec_name=spec.name)


DIRECTIONS = ("corr_from_poly", "poly_from_corr")


def transform_correlation(
    spec: MultiplicativeSpec, x: int, v: int, direction: str, spf: SpfTable
) -> CorrelationSum:
    """Divisor-lattice transform between the two sum shapes.

    corr_from_poly:  sum_{e|v} g(e)       * [product form at (x/e, v/e)]
    poly_from_corr:  sum_{e|v} mu(e) g(e) * [pair form at (x/e, v/e)]

    The two directions are mutually inverse; each must reproduce the direct
    sum of the other shape.  Every inner sum reads the one f-table over
    x + v; x = 0 gives the empty sum without building it.
    """
    if spec.companion_g is None:
        raise ContractError(f"spec {spec.name!r} has no companion g")
    if direction not in DIRECTIONS:
        raise ContractError(f"direction must be one of {DIRECTIONS}")
    check_range(x, v)
    inverse = direction == "poly_from_corr"
    total: int | float = 0
    if x:
        f = _mult_table(spec, x, v, spf)

        def term(e: int) -> int | float:
            if inverse:
                return _pair_sum(f, x // e, v // e)
            return _product_sum(spec, f, x // e, v // e)

        total = _lattice_sum(v, spec.companion_g, inverse, term)
    kind = "fpoly" if inverse else "ff"
    return CorrelationSum(kind, x, v, total, spec_name=spec.name)
