"""Correlation sums and the divisor-lattice transforms connecting them.

The two shapes of sum:

    pair form      sum_{n<=x} f(n) f(n+v)        (kind "dd" / "ff")
    product form   sum_{n<=x} f(n(n+v))          (kind "dpoly" / "fpoly")

For any multiplicative f with Chebyshev companion g they determine each
other through exact divisor sums over v; everything here is evaluated in
the spec's exact value domain (Python integers for d, sigma_k, tau).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from divcorr.arith import (
    Factorization,
    MultiplicativeSpec,
    completely_mult_value,
    divisors,
    eval_mult,
    factorize,
    mobius_divisors,
    trial_factorize,
)
from divcorr.errors import ContractError, RangeError
from divcorr.sieve import (
    SEGMENT_SIZE,
    DivisorTable,
    SpfTable,
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


def _exact_sum(x: int, terms: Callable[[int, int], np.ndarray]) -> int:
    """sum_{n<=x} a(n), where terms(lo, hi) gives a(lo..hi) for one chunk.

    Chunks of SEGMENT_SIZE terms are reduced in int64 and folded into an
    unbounded Python int; each chunk of <= 2^22 terms below 2^40 stays far
    from int64 overflow.
    """
    total = 0
    for lo in range(1, x + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE - 1, x)
        total += int(np.sum(terms(lo, hi), dtype=np.int64))
    return total


def _check_shift(v: int) -> None:
    if v < 1:
        raise RangeError("shift v must be >= 1")


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
    """Exact sum of d(n) d(n+v) over n <= x."""
    _check_shift(v)
    if x < 0:
        raise RangeError("x must be >= 0")
    if x > 0 and tables.limit < x + v:
        raise RangeError(f"divisor table limit {tables.limit} < {x + v}")
    d = tables.values
    total = _exact_sum(
        x, lambda lo, hi: d[lo : hi + 1].astype(np.int64) * d[lo + v : hi + v + 1]
    )
    return CorrelationSum("dd", x, v, total)


def sum_dpoly(x: int, v: int, tables: DivisorTable) -> CorrelationSum:
    """Exact sum of d(n(n+v)) over n <= x; x = 0 gives the empty sum.

    The d(n(n+v)) values are formed from a DivisorTable covering x + v.
    This is the direct sum; sum_dpoly_from_dd reaches the same value
    through pair-form sums.
    """
    _check_shift(v)
    if x < 0:
        raise RangeError("x must be >= 0")
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


def _merged_factorization(n: int, v: int, spf: SpfTable) -> Factorization:
    merged = dict(factorize(n, spf).entries)
    for p, e in factorize(n + v, spf).entries:
        merged[p] = merged.get(p, 0) + e
    return Factorization(tuple(sorted(merged.items())))


def sum_correlation(
    spec: MultiplicativeSpec, x: int, v: int, spf: SpfTable
) -> CorrelationSum:
    """Exact pair-form sum of f(n) f(n+v) over n <= x."""
    _check_shift(v)
    if x <= 0:
        return CorrelationSum("ff", x, v, 0, spec_name=spec.name)
    if spf.limit < x + v:
        raise RangeError(f"spf table limit {spf.limit} < {x + v}")
    fvals = [eval_mult(spec, factorize(n, spf)) for n in range(1, x + v + 1)]
    value = sum(fvals[n - 1] * fvals[n - 1 + v] for n in range(1, x + 1))
    return CorrelationSum("ff", x, v, value, spec_name=spec.name)


def sum_shifted_product(
    spec: MultiplicativeSpec, x: int, v: int, spf: SpfTable
) -> CorrelationSum:
    """Exact product-form sum of f(n(n+v)) over n <= x, f evaluated on the
    merged factorisation of n and n+v."""
    _check_shift(v)
    if x <= 0:
        return CorrelationSum("fpoly", x, v, 0, spec_name=spec.name)
    if spf.limit < x + v:
        raise RangeError(f"spf table limit {spf.limit} < {x + v}")
    value: int | float = 0
    for n in range(1, x + 1):
        value += eval_mult(spec, _merged_factorization(n, v, spf))
    return CorrelationSum("fpoly", x, v, value, spec_name=spec.name)


DIRECTIONS = ("corr_from_poly", "poly_from_corr")


def transform_correlation(
    spec: MultiplicativeSpec, x: int, v: int, direction: str, spf: SpfTable
) -> CorrelationSum:
    """Divisor-lattice transform between the two sum shapes.

    corr_from_poly:  sum_{e|v} g(e)       * [product form at (x/e, v/e)]
    poly_from_corr:  sum_{e|v} mu(e) g(e) * [pair form at (x/e, v/e)]

    The two directions are mutually inverse; each must reproduce the direct
    sum of the other shape.
    """
    if spec.companion_g is None:
        raise ContractError(f"spec {spec.name!r} has no companion g")
    if direction not in DIRECTIONS:
        raise ContractError(f"direction must be one of {DIRECTIONS}")
    inverse = direction == "poly_from_corr"
    kind, inner = ("fpoly", sum_correlation) if inverse else ("ff", sum_shifted_product)
    total = _lattice_sum(
        v, spec.companion_g, inverse, lambda e: inner(spec, x // e, v // e, spf).value
    )
    return CorrelationSum(kind, x, v, total, spec_name=spec.name)
