"""Verification suites and empirical-vs-asymptotic comparison runs.

run_verify exercises the exact and floating identity suites at configurable
bounds; run_compare produces one ComparisonRow per (x, v) pair, with the
empirical sum kept in exact integer arithmetic end to end: dd and dpoly
rows from correlate.streamed_d_sums with no d-table, sigma_corr rows and
the verify suites from tables.  emit/parse_rows serialise rows to CSV or
JSON deterministically (17 significant digits for binary64 fields,
decimal strings for exact integers), so output is byte-identical.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, get_type_hints

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
    IdentityReport,
    binomial_log_identity,
    coefficient_consistency,
    compute_zeta_constants,
    estermann_main_term,
    shifted_product_main_term,
    sigma_correlation_main_term,
    sigma_lambda_identity,
)
from divcorr.correlate import streamed_d_sums, sum_shifted_product
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
    cells = [(x, v) for v in config.v_list for x in config.x_list]
    if config.kind == "sigma_corr":
        spf = build_spf(max(config.x_list) + max(config.v_list))
        spec = sigma_spec(config.alpha)
        sums = [sum_shifted_product(spec, x, v, spf).value for x, v in cells]
        alpha = config.alpha
        mains = [[sigma_correlation_main_term(x, v, alpha)] * 3 for x, v in cells]
    else:
        main = estermann_main_term if config.kind == "dd" else shifted_product_main_term
        zc = compute_zeta_constants()
        sums = streamed_d_sums(config.kind, cells)
        mains = [[main(x, v, zc, t) for t in (1, 2, 3)] for x, v in cells]
    rows = []
    for (x, v), emp, terms in zip(cells, sums, mains):
        residual = emp - terms[config.truncation - 1]
        scaled = residual / x**config.residual_exponent
        rows.append(ComparisonRow(config.kind, x, v, emp, *terms, residual, scaled))
    return rows


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


# (checks, failures, first counterexample or None) of one row, array or
# identity report; a suite with many checks per row yields one per row, and
# a message is formatted only for a failing check
_Outcome = tuple[int, int, "str | None"]


def _tally(suite: Callable[..., Iterator[_Outcome]]) -> Callable[..., SuiteResult]:
    """Run a suite's outcome generator into its SuiteResult, named after the
    function (_suite_<name>); the one place a suite's result is formed."""
    name = suite.__name__.removeprefix("_suite_")

    @functools.wraps(suite)
    def run(*args: int) -> SuiteResult:
        checks = failures = 0
        first = None
        for n, bad, msg in suite(*args):
            checks += n
            failures += bad
            first = first or msg
        return SuiteResult(name, checks, failures, first)

    return run


def _compare(lhs: np.ndarray, rhs: np.ndarray, label: str) -> _Outcome:
    bad = np.flatnonzero(lhs != rhs)
    if len(bad) == 0:
        return len(lhs), 0, None
    i = int(bad[0])  # the arrays start at x = 1 (n = 1)
    return len(lhs), len(bad), f"{label}{i + 1}: {int(lhs[i])} != {int(rhs[i])}"


def _reported(r: IdentityReport) -> _Outcome:
    if r.passed:
        return 1, 0, None
    return 1, 1, f"v={r.v}: |{r.lhs} - {r.rhs}| > {r.tolerance}"


@_tally
def _suite_lemma1(xmax: int, vmax: int) -> Iterator[_Outcome]:
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
    for v in range(1, vmax + 1):
        rhs_dd = np.zeros(xmax + 1, dtype=np.int64)
        rhs_poly = np.zeros(xmax + 1, dtype=np.int64)
        for e in divisors(trial_factorize(v)):
            rhs_dd += poly_cum[v // e][idx // e]
        for e, mu in mobius_divisors(v):
            rhs_poly += mu * dd_cum[v // e][idx // e]
        yield _compare(dd_cum[v][1:], rhs_dd[1:], f"pair form v={v}, x=")
        yield _compare(poly_cum[v][1:], rhs_poly[1:], f"product form v={v}, x=")


@_tally
def _suite_lemma2(nmax: int, vmax: int) -> Iterator[_Outcome]:
    # pointwise d(n) d(n+v) == sum_{e | gcd(n,v)} d(n(n+v)/e^2); the inner
    # term at n = e m equals the shifted-product value at (m, v/e)
    charge(vmax * (nmax + 1) * 8)
    dtab = build_divisor_table(nmax + vmax)
    d = dtab.values.astype(np.int64)
    spt = {
        w: shifted_product_values(dtab, nmax, w).astype(np.int64)
        for w in range(1, vmax + 1)
    }
    for v in range(1, vmax + 1):
        lhs = d[1 : nmax + 1] * d[1 + v : nmax + v + 1]
        rhs = np.zeros(nmax + 1, dtype=np.int64)
        for e in divisors(trial_factorize(v)):
            rhs[e :: e] += spt[v // e][1 : nmax // e + 1]
        yield _compare(lhs, rhs[1:], f"v={v}, n=")


@_tally
def _suite_induction(pmax: int, alpha_max: int) -> Iterator[_Outcome]:
    # sum_{m<=beta} g(p)^m f(p^(alpha+beta-2m)) == f(p^alpha) f(p^beta) for
    # recurrence-generated prime-power values; g == 1 for d, g(p) = p for
    # sigma_1
    primes = [p for p in range(2, pmax + 1) if all(p % q for q in range(2, p))]
    pairs = [(a, b) for a in range(alpha_max + 1) for b in range(a + 1)]
    for label, f_of_p, g_of_p in (
        ("d", lambda p: 2, lambda p: 1),
        ("sigma_1", lambda p: p + 1, lambda p: p),
    ):
        for p in primes:
            fp, gp = f_of_p(p), g_of_p(p)
            values = [chebyshev_extend(fp, gp, k) for k in range(2 * alpha_max + 1)]
            bad = []
            for alpha, beta in pairs:
                lhs = sum(
                    gp**m * values[alpha + beta - 2 * m] for m in range(beta + 1)
                )
                rhs = values[alpha] * values[beta]
                if lhs != rhs:
                    bad.append(
                        f"{label} p={p} alpha={alpha} beta={beta}: {lhs} != {rhs}"
                    )
            yield len(pairs), len(bad), bad[0] if bad else None


@_tally
def _suite_genrec(amax: int) -> Iterator[_Outcome]:
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
    for spec, prod_limit in specs:
        fval = build_mult_table(spec, spf, prod_limit).tolist()
        gval = {
            e: completely_mult_value(spec.companion_g, e)
            for e in range(1, amax + 1)
        }
        for a in range(1, amax + 1):
            bs = range(a, min(amax, prod_limit // a) + 1)
            bad = []
            for b in bs:
                lhs = fval[a] * fval[b]
                rhs = 0
                ab = a * b
                for e in divisors(trial_factorize(math.gcd(a, b))):
                    rhs += gval[e] * fval[ab // (e * e)]
                if lhs != rhs:
                    bad.append(f"{spec.name} a={a} b={b}: {lhs} != {rhs}")
            yield len(bs), len(bad), bad[0] if bad else None


@_tally
def _suite_sigma_lambda(vmax: int, kmax: int) -> Iterator[_Outcome]:
    return (
        _reported(sigma_lambda_identity(v, k))
        for v in range(1, vmax + 1)
        for k in range(kmax + 1)
    )


@_tally
def _suite_binomial(vmax: int, nmax: int) -> Iterator[_Outcome]:
    return (
        _reported(binomial_log_identity(v, n))
        for v in range(1, vmax + 1)
        for n in range(nmax + 1)
    )


@_tally
def _suite_coeff_consistency(vmax: int) -> Iterator[_Outcome]:
    zc = compute_zeta_constants()
    for v in range(1, vmax + 1):
        rep = coefficient_consistency(v, zc)
        yield 1, not rep.passed, (
            None if rep.passed else f"v={v}: max deviation {rep.max_abs_diff:.3e}"
        )


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

# field name -> type, in declaration order: the one field list behind the
# CSV header, both writers and both readers
_FIELDS = get_type_hints(ComparisonRow)
_QUOTED_IN_JSON = ("kind", "empirical")
CSV_HEADER = ",".join(_FIELDS)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def emit(rows: Sequence[ComparisonRow], fmt: str) -> bytes:
    """Serialise rows to CSV or JSON bytes.

    Binary64 fields carry 17 significant digits (lossless round trip); the
    exact integer `empirical` is a decimal string in both formats.
    """
    table = [
        [
            _fmt17(getattr(r, name)) if kind is float else str(getattr(r, name))
            for name, kind in _FIELDS.items()
        ]
        for r in rows
    ]
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(cells) for cells in table]
        return ("\n".join(lines) + "\n").encode("ascii")
    if fmt == "json":
        items = [
            ", ".join(
                f'"{name}": ' + (f'"{cell}"' if name in _QUOTED_IN_JSON else cell)
                for name, cell in zip(_FIELDS, cells)
            )
            for cells in table
        ]
        return ("[" + ", ".join(f"{{{i}}}" for i in items) + "]\n").encode("ascii")
    raise ContractError(f"unknown format {fmt!r}")


def parse_rows(data: bytes, fmt: str) -> list[ComparisonRow]:
    """Inverse of emit: parse_rows(emit(rows, fmt), fmt) == rows."""
    if fmt == "csv":
        lines = data.decode("ascii").splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ContractError("missing CSV header")
        records = [line.split(",") for line in lines[1:]]
    elif fmt == "json":
        records = [
            [obj[name] for name in _FIELDS] for obj in json.loads(data.decode("ascii"))
        ]
    else:
        raise ContractError(f"unknown format {fmt!r}")
    return [
        ComparisonRow(*(kind(cell) for kind, cell in zip(_FIELDS.values(), record)))
        for record in records
    ]
