"""Verification suites and empirical-vs-asymptotic comparison runs.

run_verify exercises the exact and floating identity suites at configurable
bounds; run_compare produces one ComparisonRow per (x, v) pair, with the
empirical sum kept in exact integer arithmetic end to end.  emit/parse_rows
serialise rows to CSV or JSON deterministically (17 significant digits for
binary64 fields, decimal strings for exact integers), so output is
byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from divcorr.arith import (
    chebyshev_extend,
    completely_mult_value,
    divisor_count_spec,
    divisors,
    mobius_divisors,
    ramanujan_tau_table,
    sigma_spec,
    tau_spec,
    trial_factorize,
)
from divcorr.constants import (
    binomial_log_identity,
    coefficient_consistency,
    compute_zeta_constants,
    estermann_main_term,
    shifted_product_main_term,
    sigma_correlation_main_term,
    sigma_lambda_identity,
)
from divcorr.correlate import sum_dd, sum_dpoly_from_dd, sum_shifted_product
from divcorr.errors import ContractError
from divcorr.sieve import (
    MULT_ENTRY_BYTES,
    build_divisor_table,
    build_mult_table,
    build_spf,
    charge,
    shifted_product_values,
)

KINDS = ("dd", "dpoly", "sigma_corr")
# bytes per entry at the peak of ramanujan_tau_table (measured 182-198 for
# limits 1e2-1e4; the finished table holds 38-46)
_TAU_ENTRY_BYTES = 200
SUITES = (
    "lemma1",
    "lemma2",
    "induction",
    "genrec",
    "sigma_lambda",
    "binomial",
    "coeff_consistency",
)


@dataclass
class RunConfig:
    """Parameters of one comparison run."""

    x_list: Sequence[int]
    v_list: Sequence[int]
    kind: str = "dpoly"
    alpha: int | None = None
    truncation: int = 3
    residual_exponent: float = 2.0 / 3.0 + 0.05

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ContractError(f"kind must be one of {KINDS}")
        if not self.x_list or min(self.x_list) < 2:
            raise ContractError("all bounds must be >= 2")
        if not self.v_list or min(self.v_list) < 1:
            raise ContractError("all shifts must be >= 1")
        if not 0.5 < self.residual_exponent < 1.0:
            raise ContractError("residual_exponent must lie in (0.5, 1)")
        if self.truncation not in (1, 2, 3):
            raise ContractError("truncation must be 1, 2 or 3")
        if self.kind == "sigma_corr":
            if not isinstance(self.alpha, int) or self.alpha < 1:
                raise ContractError(
                    "sigma_corr keeps the empirical sum exact only for "
                    "integer alpha >= 1"
                )
            # x (x(x+v))^alpha zeta(2) bounds the exact sum (alpha >= 2)
            # and the main term, so it bounds every float of a row
            x, v = max(self.x_list), max(self.v_list)
            size = math.log(x * math.pi**2 / 6) + self.alpha * math.log(x * (x + v))
            if size >= math.log(sys.float_info.max):
                raise ContractError(
                    f"sigma_corr with alpha={self.alpha} overflows a float "
                    f"at x={x}, v={v}"
                )


@dataclass(frozen=True)
class ComparisonRow:
    """One (x, v) cell: exact empirical sum, truncated main terms, residual."""

    kind: str
    x: int
    v: int
    empirical: int
    main1: float
    main2: float
    main3: float
    residual: float
    residual_scaled: float


def run_compare(config: RunConfig) -> list[ComparisonRow]:
    """One row per (v, x), v-major order; deterministic across runs."""
    rows: list[ComparisonRow] = []
    xmax = max(config.x_list)
    vmax = max(config.v_list)
    if config.kind in ("dd", "dpoly"):
        # both kinds read the one d-table; product-form cells go through
        # Lemma 1 on pair-form sums
        if config.kind == "dd":
            sum_fn, main = sum_dd, estermann_main_term
        else:
            sum_fn, main = sum_dpoly_from_dd, shifted_product_main_term
        zc = compute_zeta_constants()
        dtab = build_divisor_table(xmax + vmax)
        for v in config.v_list:
            for x in config.x_list:
                emp = sum_fn(x, v, dtab).value
                mains = [main(x, v, zc, t) for t in (1, 2, 3)]
                rows.append(_row(config, x, v, emp, mains))
    else:
        spf = build_spf(xmax + vmax)
        spec = sigma_spec(config.alpha)
        for v in config.v_list:
            for x in config.x_list:
                emp = sum_shifted_product(spec, x, v, spf).value
                m = sigma_correlation_main_term(x, v, config.alpha)
                rows.append(_row(config, x, v, emp, [m, m, m]))
    return rows


def _row(
    config: RunConfig, x: int, v: int, empirical: int, mains: list[float]
) -> ComparisonRow:
    residual = empirical - mains[config.truncation - 1]
    return ComparisonRow(
        kind=config.kind,
        x=x,
        v=v,
        empirical=empirical,
        main1=mains[0],
        main2=mains[1],
        main3=mains[2],
        residual=residual,
        residual_scaled=residual / x**config.residual_exponent,
    )


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    failures: int
    first_counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class VerifyReport:
    suites: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)


def run_verify(
    suites: Sequence[str], xmax: int | None = None, vmax: int | None = None
) -> VerifyReport:
    """Run the named identity suites; unknown names raise ContractError.

    When xmax/vmax are None each suite uses its own full verification bounds
    (lemma1: x <= 1e4, v <= 50; lemma2: n <= 1e4, v <= 100; genrec:
    a, b <= 200; sigma_lambda and binomial: v <= 200; coeff_consistency:
    v <= 100); a given bound below 1 raises ContractError.
    """
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ContractError(f"unknown suite names: {unknown}")
    for label, given in (("xmax", xmax), ("vmax", vmax)):
        if given is not None and given < 1:
            raise ContractError(f"{label} must be >= 1, got {given}")

    def bound(given: int | None, default: int) -> int:
        return default if given is None else given

    runners = {
        "lemma1": lambda: _suite_lemma1(bound(xmax, 10_000), bound(vmax, 50)),
        "lemma2": lambda: _suite_lemma2(bound(xmax, 10_000), bound(vmax, 100)),
        "induction": lambda: _suite_induction(50, 8),
        "genrec": lambda: _suite_genrec(bound(vmax, 200)),
        "sigma_lambda": lambda: _suite_sigma_lambda(bound(vmax, 200), 3),
        "binomial": lambda: _suite_binomial(bound(vmax, 200), 3),
        "coeff_consistency": lambda: _suite_coeff_consistency(bound(vmax, 100)),
    }
    results = tuple(runners[name]() for name in suites)
    return VerifyReport(results)


def _first_bad(lhs: np.ndarray, rhs: np.ndarray, label: str) -> tuple[int, str | None]:
    bad = np.nonzero(lhs != rhs)[0]
    if len(bad) == 0:
        return 0, None
    i = int(bad[0])
    return len(bad), f"{label} index {i}: {int(lhs[i])} != {int(rhs[i])}"


def _suite_lemma1(xmax: int, vmax: int) -> SuiteResult:
    # both transform directions, checked for every x <= xmax and v <= vmax
    charge(2 * vmax * (xmax + 1) * 8)
    dtab = build_divisor_table(xmax + vmax)
    d = dtab.values.astype(np.int64)
    idx = np.arange(0, xmax + 1)
    dd_cum: dict[int, np.ndarray] = {}
    poly_cum: dict[int, np.ndarray] = {}
    for v in range(1, vmax + 1):
        pair = d[1 : xmax + 1] * d[1 + v : xmax + v + 1]
        dd_cum[v] = np.concatenate(([0], np.cumsum(pair, dtype=np.int64)))
        poly_cum[v] = np.cumsum(
            shifted_product_values(dtab, xmax, v), dtype=np.int64
        )
    checks = failures = 0
    first = None
    for v in range(1, vmax + 1):
        rhs_dd = np.zeros(xmax + 1, dtype=np.int64)
        rhs_poly = np.zeros(xmax + 1, dtype=np.int64)
        for e in divisors(trial_factorize(v)):
            rhs_dd += poly_cum[v // e][idx // e]
        for e, mu in mobius_divisors(v):
            rhs_poly += mu * dd_cum[v // e][idx // e]
        for lhs, rhs, tag in (
            (dd_cum[v][1:], rhs_dd[1:], f"pair form v={v}, x="),
            (poly_cum[v][1:], rhs_poly[1:], f"product form v={v}, x="),
        ):
            checks += xmax
            nbad, msg = _first_bad(lhs, rhs, tag)
            failures += nbad
            if first is None and msg:
                first = msg
    return SuiteResult("lemma1", checks, failures, first)


def _suite_lemma2(nmax: int, vmax: int) -> SuiteResult:
    # pointwise d(n) d(n+v) == sum_{e | gcd(n,v)} d(n(n+v)/e^2); the inner
    # term at n = e m equals the shifted-product value at (m, v/e)
    charge(vmax * (nmax + 1) * 8)
    dtab = build_divisor_table(nmax + vmax)
    d = dtab.values.astype(np.int64)
    spt = {
        w: shifted_product_values(dtab, nmax, w).astype(np.int64)
        for w in range(1, vmax + 1)
    }
    checks = failures = 0
    first = None
    for v in range(1, vmax + 1):
        lhs = d[1 : nmax + 1] * d[1 + v : nmax + v + 1]
        rhs = np.zeros(nmax + 1, dtype=np.int64)
        for e in divisors(trial_factorize(v)):
            m_count = nmax // e
            rhs[e :: e] += spt[v // e][1 : m_count + 1]
        checks += nmax
        nbad, msg = _first_bad(lhs, rhs[1:], f"v={v}, n=")
        failures += nbad
        if first is None and msg:
            first = msg
    return SuiteResult("lemma2", checks, failures, first)


def _suite_induction(pmax: int, alpha_max: int) -> SuiteResult:
    # sum_{m<=beta} g(p)^m f(p^(alpha+beta-2m)) == f(p^alpha) f(p^beta) for
    # recurrence-generated prime-power values; g == 1 for d, g(p) = p for
    # sigma_1
    primes = [p for p in range(2, pmax + 1) if all(p % q for q in range(2, p))]
    checks = failures = 0
    first = None
    for label, f_of_p, g_of_p in (
        ("d", lambda p: 2, lambda p: 1),
        ("sigma_1", lambda p: p + 1, lambda p: p),
    ):
        for p in primes:
            fp, gp = f_of_p(p), g_of_p(p)
            values = [chebyshev_extend(fp, gp, k) for k in range(2 * alpha_max + 1)]
            for alpha in range(alpha_max + 1):
                for beta in range(alpha + 1):
                    lhs = sum(
                        gp**m * values[alpha + beta - 2 * m]
                        for m in range(beta + 1)
                    )
                    rhs = values[alpha] * values[beta]
                    checks += 1
                    if lhs != rhs:
                        failures += 1
                        if first is None:
                            first = (
                                f"{label} p={p} alpha={alpha} beta={beta}: "
                                f"{lhs} != {rhs}"
                            )
    return SuiteResult("induction", checks, failures, first)


def _suite_genrec(amax: int) -> SuiteResult:
    # gcd-weighted convolution identity f(a) f(b) == sum g(e) f(ab/e^2) for
    # d, sigma_1, sigma_2 on all unordered pairs a <= b <= amax, and for tau
    # on pairs with ab inside the tau table; the SPF table, the tau table,
    # the f-table in use and the next one being built are charged before
    # anything is built
    tau_limit = min(10_000, amax * amax)
    charge(
        (4 + 2 * MULT_ENTRY_BYTES) * (amax * amax + 1)
        + _TAU_ENTRY_BYTES * (tau_limit + 1)
    )
    spf = build_spf(amax * amax)
    tau = ramanujan_tau_table(tau_limit)
    specs = [
        (divisor_count_spec(), amax * amax),
        (sigma_spec(1), amax * amax),
        (sigma_spec(2), amax * amax),
        (tau_spec(tau), tau_limit),
    ]
    checks = failures = 0
    first = None
    for spec, prod_limit in specs:
        fval = build_mult_table(spec, spf, prod_limit).tolist()
        gval = {
            e: completely_mult_value(spec.companion_g, e)
            for e in range(1, amax + 1)
        }
        for a in range(1, amax + 1):
            b_top = min(amax, prod_limit // a)
            for b in range(a, b_top + 1):
                lhs = fval[a] * fval[b]
                rhs = 0
                ab = a * b
                for e in divisors(trial_factorize(math.gcd(a, b))):
                    rhs += gval[e] * fval[ab // (e * e)]
                checks += 1
                if lhs != rhs:
                    failures += 1
                    if first is None:
                        first = f"{spec.name} a={a} b={b}: {lhs} != {rhs}"
    return SuiteResult("genrec", checks, failures, first)


def _report_suite(name: str, reports) -> SuiteResult:
    failures = 0
    first = None
    reports = list(reports)
    for r in reports:
        if not r.passed:
            failures += 1
            if first is None:
                first = f"v={r.v}: |{r.lhs} - {r.rhs}| > {r.tolerance}"
    return SuiteResult(name, len(reports), failures, first)


def _suite_sigma_lambda(vmax: int, kmax: int) -> SuiteResult:
    return _report_suite(
        "sigma_lambda",
        (
            sigma_lambda_identity(v, k)
            for v in range(1, vmax + 1)
            for k in range(kmax + 1)
        ),
    )


def _suite_binomial(vmax: int, nmax: int) -> SuiteResult:
    return _report_suite(
        "binomial",
        (
            binomial_log_identity(v, n)
            for v in range(1, vmax + 1)
            for n in range(nmax + 1)
        ),
    )


def _suite_coeff_consistency(vmax: int) -> SuiteResult:
    zc = compute_zeta_constants()
    failures = 0
    first = None
    count = 0
    for v in range(1, vmax + 1):
        rep = coefficient_consistency(v, zc)
        count += 1
        if not rep.passed:
            failures += 1
            if first is None:
                first = f"v={v}: max deviation {rep.max_abs_diff:.3e}"
    return SuiteResult("coeff_consistency", count, failures, first)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

CSV_HEADER = "kind,x,v,empirical,main1,main2,main3,residual,residual_scaled"


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def emit(rows: Sequence[ComparisonRow], fmt: str) -> bytes:
    """Serialise rows to CSV or JSON bytes.

    Binary64 fields carry 17 significant digits (lossless round trip); the
    exact integer `empirical` is a decimal string in both formats.
    """
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in rows:
            lines.append(
                ",".join(
                    (
                        r.kind,
                        str(r.x),
                        str(r.v),
                        str(r.empirical),
                        _fmt17(r.main1),
                        _fmt17(r.main2),
                        _fmt17(r.main3),
                        _fmt17(r.residual),
                        _fmt17(r.residual_scaled),
                    )
                )
            )
        return ("\n".join(lines) + "\n").encode("ascii")
    if fmt == "json":
        items = [
            (
                f'{{"kind": "{r.kind}", "x": {r.x}, "v": {r.v},'
                f' "empirical": "{r.empirical}", "main1": {_fmt17(r.main1)},'
                f' "main2": {_fmt17(r.main2)}, "main3": {_fmt17(r.main3)},'
                f' "residual": {_fmt17(r.residual)},'
                f' "residual_scaled": {_fmt17(r.residual_scaled)}}}'
            )
            for r in rows
        ]
        return ("[" + ", ".join(items) + "]\n").encode("ascii")
    raise ContractError(f"unknown format {fmt!r}")


def parse_rows(data: bytes, fmt: str) -> list[ComparisonRow]:
    """Inverse of emit: parse_rows(emit(rows, fmt), fmt) == rows."""
    if fmt == "csv":
        lines = data.decode("ascii").splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ContractError("missing CSV header")
        out = []
        for line in lines[1:]:
            kind, x, v, emp, m1, m2, m3, res, scaled = line.split(",")
            out.append(
                ComparisonRow(
                    kind, int(x), int(v), int(emp),
                    float(m1), float(m2), float(m3), float(res), float(scaled),
                )
            )
        return out
    if fmt == "json":
        out = []
        for obj in json.loads(data.decode("ascii")):
            out.append(
                ComparisonRow(
                    obj["kind"], obj["x"], obj["v"], int(obj["empirical"]),
                    obj["main1"], obj["main2"], obj["main3"],
                    obj["residual"], obj["residual_scaled"],
                )
            )
        return out
    raise ContractError(f"unknown format {fmt!r}")
