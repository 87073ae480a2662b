"""Expected outputs of a seeded run, derived through the other sum shape.

For a seed without committed digests every exact output is checked with the
divisor-lattice transform (Lemma 1):

    S_dd(x, v)    = sum_{e|v}       S_dpoly(x/e, v/e)
    S_dpoly(x, v) = sum_{e|v} mu(e) S_dd(x/e, v/e)

where the right-hand sides are sums of the other shape, formed here from a
divisor table with numpy prefix sums.  The transforms of the general specs
must agree with the direct sum_correlation / sum_shifted_product of the
shape they produce.  Floating fields of the compare CSV are rebuilt from the
exact value and the main terms, formatted as the harness documents.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

import divcorr as dc
from divcorr.arith import divisors, mobius, trial_factorize
from workloads import KINDS, residual_cells, transform_ops

CHUNK = 1 << 22
# RunConfig's default: residual_scaled = residual / x**(2/3 + 0.05)
RESIDUAL_EXPONENT = 2.0 / 3.0 + 0.05


def _prefix_at(values_of, points) -> dict[int, int]:
    """{p: sum_{1<=n<=p} a(n)} where values_of(lo, hi) gives a(lo..hi)."""
    out = {0: 0}
    wanted = sorted(p for p in set(points) if p > 0)
    total, lo, i = 0, 1, 0
    while i < len(wanted):
        hi = min(lo + CHUNK - 1, wanted[-1])
        csum = np.cumsum(values_of(lo, hi), dtype=np.int64)
        while i < len(wanted) and wanted[i] <= hi:
            out[wanted[i]] = total + int(csum[wanted[i] - lo])
            i += 1
        total += int(csum[-1])
        lo = hi + 1
    return out


def _pair_prefix(d: np.ndarray, w: int, points) -> dict[int, int]:
    """Prefix sums of d(n) d(n+w) at the given points."""
    return _prefix_at(
        lambda lo, hi: d[lo : hi + 1].astype(np.int64) * d[lo + w : hi + w + 1], points
    )


def _product_prefix(dtab, w: int, points) -> dict[int, int]:
    """Prefix sums of d(n(n+w)) at the given points."""
    top = max(points)
    if top <= 0:
        return {p: 0 for p in points}
    vals = dc.shifted_product_values(dtab, top, w)
    return _prefix_at(lambda lo, hi: vals[lo : hi + 1], points)


def _divs(v: int) -> list[tuple[int, int]]:
    return [(e, mobius(trial_factorize(e))) for e in divisors(trial_factorize(v))]


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def expected_residual_grid(inputs: dict) -> dict[str, str]:
    """Each dpoly cell is the Moebius sum of direct pair-form sums; each dd
    cell is that product-form value at (x, v) plus the direct product-form
    sums at (x/e, v/e) for the divisors e > 1 of v.  Product forms are thus
    only sieved to x/2, never at full length."""
    xs, vs = inputs["x"], inputs["v"]
    dtab = dc.build_divisor_table(max(xs) + max(vs))
    need_pair: dict[int, set[int]] = defaultdict(set)
    need_product: dict[int, set[int]] = defaultdict(set)
    for v in vs:
        for e, mu in _divs(v):
            for x in xs:
                if mu:
                    need_pair[v // e].add(x // e)
                if e > 1:
                    need_product[v // e].add(x // e)
    pair = {w: _pair_prefix(dtab.values, w, pts) for w, pts in need_pair.items()}
    product = {w: _product_prefix(dtab, w, pts) for w, pts in need_product.items()}
    zc = dc.compute_zeta_constants()
    expected = {}
    for kind in KINDS:
        main_term = dc.estermann_main_term if kind == "dd" else dc.shifted_product_main_term
        cells = iter(residual_cells(inputs, kind))
        for v in vs:
            for x in xs:
                emp = sum(mu * pair[v // e][x // e] for e, mu in _divs(v) if mu)
                if kind == "dd":
                    emp += sum(product[v // e][x // e] for e, _ in _divs(v) if e > 1)
                mains = [main_term(x, v, zc, t) for t in (1, 2, 3)]
                residual = emp - mains[2]
                fields = [kind, str(x), str(v), str(emp)] + [
                    _fmt17(f) for f in (*mains, residual, residual / x**RESIDUAL_EXPONENT)
                ]
                expected[next(cells)] = ",".join(fields)
    return expected


def expected_transform_lattice(inputs: dict) -> dict[str, str]:
    x = inputs["x_big"]
    dtab = dc.build_divisor_table(x + max(inputs["v_big"]))
    x_small = inputs["x_small"]
    v_small = max(v for vs in inputs["v_sigma"].values() for v in vs)
    spf = dc.build_spf(x_small + v_small)
    specs = {
        "sigma_1": dc.sigma_spec(1),
        "sigma_2": dc.sigma_spec(2),
        "tau": dc.tau_spec(dc.ramanujan_tau_table(x_small + 1)),
    }
    expected = {}
    direct: dict[tuple[str, int], int] = {}
    for v in inputs["v_big"]:
        direct["dd", v] = _pair_prefix(dtab.values, v, [x])[x]
        direct["dpoly", v] = _product_prefix(dtab, v, [x])[x]
    for op_id, fn, xo, v, direction in transform_ops(inputs):
        if direction is None:
            # sum_dd and sum_dd_from_dpoly must both equal the direct pair
            # form; sum_dpoly_from_dd the direct product form
            kind = "dpoly" if fn == "sum_dpoly_from_dd" else "dd"
            expected[op_id] = f"{kind},{xo},{v},{direct[kind, v]}"
        elif direction == "corr_from_poly":
            value = dc.sum_correlation(specs[fn], xo, v, spf).value
            expected[op_id] = f"ff,{xo},{v},{value}"
        else:
            value = dc.sum_shifted_product(specs[fn], xo, v, spf).value
            expected[op_id] = f"fpoly,{xo},{v},{value}"
    return expected


EXPECTED = {
    "residual_grid": expected_residual_grid,
    "transform_lattice": expected_transform_lattice,
}
