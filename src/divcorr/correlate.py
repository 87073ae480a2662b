"""Correlation sums and the divisor-lattice transforms connecting them.

The two shapes of sum:

    pair form      sum_{n<=x} f(n) f(n+v)        (kind "dd" / "ff")
    product form   sum_{n<=x} f(n(n+v))          (kind "dpoly" / "fpoly")

For any multiplicative f with Chebyshev companion g they determine each
other through exact divisor sums over v; everything here is evaluated in
the spec's exact value domain (Python integers for d, sigma_k, tau).

Every d sum reads the dict of exact cells of sieve.stream_pair_sums, the
one pass: over a DivisorTable, one pass per call serves every inner cell
of the call, pair form or product form, in O(window) memory beyond the
table; streamed_d_sums, the route of every d sum the CLI prints, makes one
pass with no d-table and hands its dict to sum_dd and sum_dpoly_from_dd.
Every f sum is one _f_sums walk: one exact object-dtype
f-table from sieve.build_mult_table to max x + max v serves all cells of
a call (the cells of product_sums, the inner sums of a transform), and
each distinct v is walked once over sieve.windows, its running sum read at
each x.  The module forms no term: sieve.stream_pair_sums forms the d
products and sieve.f_terms the f terms of each window.  It picks the
cells, walks them and applies Lemma 1, whose direction rule, the
(e, weight) pairs over the divisors e of v, is written once in _lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from divcorr import sieve
from divcorr.arith import (
    MultiplicativeSpec,
    completely_mult_value,
    divisor_count_spec,
    divisors,
    mobius_divisors,
    trial_factorize,
)
from divcorr.errors import ContractError, RangeError
from divcorr.sieve import DivisorTable, build_mult_table


@dataclass(frozen=True)
class CorrelationSum:
    """One evaluated correlation sum; value is the literal finite sum."""

    kind: str  # dd | dpoly | ff | fpoly
    x: int
    v: int
    value: int | float


# where the d sums of a call come from: a d-table, or the dict of cells that
# one sieve.stream_pair_sums pass served
DSums = DivisorTable | dict[tuple[int, ...], int]


def _check_range(x: int, v: int) -> None:
    """Raise RangeError unless v >= 1 and x >= 0."""
    if v < 1:
        raise RangeError("shift v must be >= 1")
    if x < 0:
        raise RangeError("x must be >= 0")


def _lattice(v: int, inverse: bool) -> list[tuple[int, int]]:
    """The (e, weight) pairs of Lemma 1 at v, the one direction rule: every
    e | v with weight 1, or when inverse the squarefree e | v with mu(e)."""
    return mobius_divisors(v) if inverse else [(e, 1) for e in divisors(trial_factorize(v))]


def lattice_sum(
    v: int, g: Callable[[int], int], inverse: bool, term: Callable[[int], Any]
) -> Any:
    """sum_{e|v} w(e) term(e), w = g(e), or mu(e) g(e) when inverse.

    This is the Lemma 1 transform for every spec and every term type (an
    int, a float or an int64 array of prefix sums); d is the g == 1 case.
    Callers check the range of x and v first.
    """
    pairs = _lattice(v, inverse)
    return sum(mu * completely_mult_value(g, e) * term(e) for e, mu in pairs)


def _d_sum(tables: DSums, x: int, v: int, product: bool) -> int:
    """The exact d sum at (x, v): sum_{n<=x} d(n(n+v)) when product, else
    sum_{n<=x} d(n) d(n+v); x = 0 gives the empty sum.  A DivisorTable
    serves it by one sieve.stream_pair_sums pass; the dict of a pass must
    hold the cell, keyed as the pass keys it, or RangeError."""
    _check_range(x, v)
    key = (x, v, True) if product else (x, v)
    if isinstance(tables, DivisorTable):
        tables = sieve.stream_pair_sums([key], tables)
    if x and key not in tables:
        raise RangeError(f"no streamed sum for x={x}, v={v}")
    return tables.get(key, 0)


def _d_lattice(tables: DSums, x: int, v: int, inverse: bool) -> int:
    """Lemma 1 for d over the inner sums at (x/e, v/e): the product form
    over e | v, or when inverse the pair form over squarefree e | v.  A
    DivisorTable serves every inner cell in one sieve.stream_pair_sums pass;
    each is read through this module's sum_dpoly or sum_dd binding."""
    _check_range(x, v)
    if isinstance(tables, DivisorTable):
        shape = () if inverse else (True,)
        cells = [(x // e, v // e, *shape) for e, _ in _lattice(v, inverse)]
        tables = sieve.stream_pair_sums(cells, tables)
    inner = sum_dd if inverse else sum_dpoly
    g = divisor_count_spec().companion_g
    return lattice_sum(v, g, inverse, lambda e: inner(x // e, v // e, tables).value)


def sum_dd(x: int, v: int, tables: DSums) -> CorrelationSum:
    """Exact sum of d(n) d(n+v) over n <= x; x = 0 gives the empty sum.

    From a DivisorTable it is one pass of sieve.stream_pair_sums over the
    table, which raises OverflowError if a window's max d(n) * max d(n+v)
    reaches 2^32; from the dict of a pass it is the streamed sum of the cell
    (x, v), RangeError if that cell was not served.
    """
    return CorrelationSum("dd", x, v, _d_sum(tables, x, v, False))


def sum_dpoly(x: int, v: int, tables: DSums) -> CorrelationSum:
    """Exact sum of d(n(n+v)) over n <= x; x = 0 gives the empty sum.

    The product-form cell (x, v, True) of sieve.stream_pair_sums, from a
    pass over a DivisorTable covering x + v, in O(window) memory beyond it,
    or from the dict of a pass.  This is the direct sum; sum_dpoly_from_dd
    reaches the same value through pair-form sums.
    """
    return CorrelationSum("dpoly", x, v, _d_sum(tables, x, v, True))


def sum_dd_from_dpoly(x: int, v: int, tables: DSums) -> CorrelationSum:
    """Assemble sum_{n<=x} d(n) d(n+v) from product-form sums over the
    divisors of v:  sum_{e|v} sum_{n<=x/e} d(n(n+v/e)).  Equals sum_dd."""
    return CorrelationSum("dd", x, v, _d_lattice(tables, x, v, False))


def sum_dpoly_from_dd(x: int, v: int, tables: DSums) -> CorrelationSum:
    """Moebius-inverted companion:  sum_{e|v} mu(e) sum_{n<=x/e} d(n) d(n+v/e).
    Equals sum_dpoly; streamed sums must serve every cell (x/e, v/e)."""
    return CorrelationSum("dpoly", x, v, _d_lattice(tables, x, v, True))


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
        for e, _ in ([(1, 1)] if kind == "dd" else _lattice(v, True))
    )
    sum_fn = sum_dd if kind == "dd" else sum_dpoly_from_dd
    return [sum_fn(x, v, sums).value for x, v in cells]


def _f_sums(
    spec: MultiplicativeSpec, product: bool, cells: Sequence[tuple[int, int]]
) -> list[int | float]:
    """Exact f-sums at the cells (x, v), in order: sum_{n<=x} f(n(n+v)) when
    product, else sum_{n<=x} f(n) f(n+v); RangeError for a bad cell before
    anything is built.  One f-table to max x + max v serves every cell,
    none when every x is 0.  Each distinct v is walked once, window by
    window, over [1, max x of v], and its running sum is read at each x."""
    ends: dict[int, set[int]] = {}  # v -> its x > 0
    for x, v in cells:
        _check_range(x, v)
        if x:
            ends.setdefault(v, set()).add(x)
    sums = dict.fromkeys(cells, 0)
    if ends:
        top = max(map(max, ends.values())) + max(v for _, v in cells)
        f = build_mult_table(spec, top)
    for v, xs in ends.items():
        value: int | float = 0
        for lo, hi in sieve.windows(1, max(xs)):
            terms = sieve.f_terms(spec, f, lo, hi, v, product)
            cuts = sorted({lo, hi + 1} | {x + 1 for x in xs if lo <= x < hi})
            for a, b in zip(cuts, cuts[1:]):
                value += sum(terms[a - lo : b - lo])
                sums[b - 1, v] = value  # read back only where b - 1 is an x
            del terms  # one window of terms at a time
    return [sums[cell] for cell in cells]


def sum_correlation(
    spec: MultiplicativeSpec, x: int, v: int, spf: object = None
) -> CorrelationSum:
    """Exact pair-form sum of f(n) f(n+v) over n <= x, the one cell of
    _f_sums; x = 0 gives the empty sum.  spf is not read."""
    return CorrelationSum("ff", x, v, _f_sums(spec, False, [(x, v)])[0])


def product_sums(
    spec: MultiplicativeSpec, cells: Sequence[tuple[int, int]]
) -> list[int | float]:
    """Exact product-form sums sum_{n<=x} f(n(n+v)) at the cells (x, v), in
    order, from one _f_sums walk: RangeError for a bad cell before anything
    is built, one f-table to max x + max v (none when every x is 0), and
    each distinct v walked once, its running sum read at each of its x."""
    return _f_sums(spec, True, cells)


def sum_shifted_product(
    spec: MultiplicativeSpec, x: int, v: int, spf: object = None
) -> CorrelationSum:
    """Exact product-form sum of f(n(n+v)) over n <= x, the one cell of
    product_sums; x = 0 gives the empty sum.  spf is not read."""
    return CorrelationSum("fpoly", x, v, _f_sums(spec, True, [(x, v)])[0])


DIRECTIONS = ("corr_from_poly", "poly_from_corr")


def transform_correlation(
    spec: MultiplicativeSpec, x: int, v: int, direction: str, spf: object = None
) -> CorrelationSum:
    """Divisor-lattice transform between the two sum shapes.

    corr_from_poly:  sum_{e|v} g(e)       * [product form at (x/e, v/e)]
    poly_from_corr:  sum_{e|v} mu(e) g(e) * [pair form at (x/e, v/e)]

    The two directions are mutually inverse; each must reproduce the direct
    sum of the other shape.  The inner sums, all of one shape, are the cells
    of one _f_sums call over one f-table to x + v; x = 0 gives the empty sum
    without building it.  spf is not read.
    """
    if spec.companion_g is None:
        raise ContractError(f"spec {spec.name!r} has no companion g")
    if direction not in DIRECTIONS:
        raise ContractError(f"direction must be one of {DIRECTIONS}")
    _check_range(x, v)
    inverse = direction == "poly_from_corr"
    es = [e for e, _ in _lattice(v, inverse)]
    inner = _f_sums(spec, not inverse, [(x // e, v // e) for e in es])
    total = lattice_sum(v, spec.companion_g, inverse, dict(zip(es, inner)).__getitem__)
    return CorrelationSum("fpoly" if inverse else "ff", x, v, total)
