"""Correlation sums and the divisor-lattice transforms connecting them.

The two shapes of sum:

    pair form      sum_{n<=x} f(n) f(n+v)        (kind "dd" / "ff")
    product form   sum_{n<=x} f(n(n+v))          (kind "dpoly" / "fpoly")

For any multiplicative f with Chebyshev companion g they determine each
other through exact divisor sums over v; everything here is evaluated in
the spec's exact value domain (Python integers for d, sigma_k, tau).

The d sums fold the windows of sieve.shifted_windows over a DivisorTable
into exact ints, in uint64 per window and O(window) memory; sum_dd also
reads the exact cells of sieve.stream_pair_sums, which keeps no d-table;
streamed_d_sums, the route of every d sum the CLI prints, reads only those.
The f sums walk sieve.windows over one exact object-dtype f-table from
sieve.build_mult_table over an SpfTable covering x + v, which also serves
every inner sum of a transform; the product form splits each n(n+v) into
coprime parts at the primes of v, so it needs no factorisation per n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
from divcorr.sieve import DivisorTable, PairSums, SpfTable, build_mult_table


@dataclass(frozen=True)
class CorrelationSum:
    """One evaluated correlation sum; value is the literal finite sum."""

    kind: str  # dd | dpoly | ff | fpoly
    x: int
    v: int
    value: int | float
    spec_name: str | None = None


def _exact_sum(terms: Iterable[np.ndarray]) -> int:
    """The sum of every term of every window of terms.

    Each window is reduced in uint64 and folded into an unbounded Python
    int; a window of 2^19 terms below 2^32 stays far from uint64 overflow.
    """
    return sum(int(np.sum(window, dtype=np.uint64)) for window in terms)


def _check_range(x: int, v: int) -> None:
    """Raise RangeError unless v >= 1 and x >= 0."""
    if v < 1:
        raise RangeError("shift v must be >= 1")
    if x < 0:
        raise RangeError("x must be >= 0")


def _lattice_sum(
    v: int, g: Callable[[int], int], inverse: bool, term: Callable[[int], int | float]
) -> int | float:
    """sum_{e|v} w(e) term(e), w = g(e), or mu(e) g(e) when inverse.

    This is the Lemma 1 transform for every spec; d is the g == 1 case.
    Callers check the range of x and v first.
    """
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


def sum_dd(x: int, v: int, tables: DivisorTable | PairSums) -> CorrelationSum:
    """Exact sum of d(n) d(n+v) over n <= x; x = 0 gives the empty sum.

    From PairSums it is the streamed sum of the cell (x, v), RangeError if
    that cell was not served.  From a DivisorTable the terms come window by
    window from sieve.shifted_windows, which raises OverflowError if a
    window's max d(n) * max d(n+v) reaches 2^32.
    """
    _check_range(x, v)
    if not x:
        value = 0
    elif isinstance(tables, PairSums):
        value = tables.at(x, v)
    else:
        value = _exact_sum(sieve.shifted_windows(tables, x, v, False))
    return CorrelationSum("dd", x, v, value)


def sum_dpoly(x: int, v: int, tables: DivisorTable) -> CorrelationSum:
    """Exact sum of d(n(n+v)) over n <= x; x = 0 gives the empty sum.

    The d(n(n+v)) values come window by window from sieve.shifted_windows
    over a DivisorTable covering x + v, in O(window) memory beyond it.
    This is the direct sum; sum_dpoly_from_dd reaches the same value
    through pair-form sums.
    """
    _check_range(x, v)
    value = _exact_sum(sieve.shifted_windows(tables, x, v, True)) if x else 0
    return CorrelationSum("dpoly", x, v, value)


def sum_dd_from_dpoly(x: int, v: int, tables: DivisorTable) -> CorrelationSum:
    """Assemble sum_{n<=x} d(n) d(n+v) from product-form sums over the
    divisors of v:  sum_{e|v} sum_{n<=x/e} d(n(n+v/e)).  Equals sum_dd."""
    _check_range(x, v)
    value = _lattice_sum(
        v, _unit, False, lambda e: sum_dpoly(x // e, v // e, tables).value
    )
    return CorrelationSum("dd", x, v, value)


def sum_dpoly_from_dd(
    x: int, v: int, tables: DivisorTable | PairSums
) -> CorrelationSum:
    """Moebius-inverted companion:  sum_{e|v} mu(e) sum_{n<=x/e} d(n) d(n+v/e).
    Equals sum_dpoly; PairSums must serve every cell (x/e, v/e)."""
    _check_range(x, v)
    value = _lattice_sum(
        v, _unit, True, lambda e: sum_dd(x // e, v // e, tables).value
    )
    return CorrelationSum("dpoly", x, v, value)


def streamed_d_sums(kind: str, cells: Sequence[tuple[int, int]]) -> list[int]:
    """Exact dd or dpoly sums at the cells (x, v), in order; RangeError for
    a bad cell before anything is sieved.  One sieve.stream_pair_sums pass
    serves the pair-form cells (x/e, v/e): e = 1 for dd; e | v squarefree
    for dpoly, assembled by sum_dpoly_from_dd (Lemma 1).  The pass sieves a
    window plus the widest shift, so a v far above x costs more than a
    d-table to x + v would."""
    if kind not in ("dd", "dpoly"):
        raise ContractError(f"kind must be dd or dpoly, got {kind!r}")
    for x, v in cells:
        _check_range(x, v)
    sums = sieve.stream_pair_sums(
        (x // e, v // e)
        for x, v in cells
        for e, _ in ([(1, 1)] if kind == "dd" else mobius_divisors(v))
    )
    sum_fn = sum_dd if kind == "dd" else sum_dpoly_from_dd
    return [sum_fn(x, v, sums).value for x, v in cells]


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
    for lo, hi in sieve.windows(1, x):
        value += sum(f[lo : hi + 1] * f[lo + v : hi + v + 1])
    return value


def _product_sum(
    spec: MultiplicativeSpec, f: np.ndarray, x: int, v: int
) -> int | float:
    """sum_{n<=x} f(n(n+v)) over an f-table covering x + v."""
    value: int | float = 0
    pdivs = [p for p, _ in trial_factorize(v).entries]
    for lo, hi in sieve.windows(1, x):
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
    _check_range(x, v)
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
    _check_range(x, v)
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
    _check_range(x, v)
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
