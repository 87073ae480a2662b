"""Verification suites and empirical-vs-asymptotic comparison runs.

run_verify exercises the exact and floating identity suites at configurable
bounds; run_compare produces one ComparisonRow per (x, v) pair, with the
empirical sum kept in exact integer arithmetic end to end: dd and dpoly
rows from correlate.streamed_d_sums with no d-table, sigma_corr rows from
correlate.product_sums on one f-table.  Each row's residual subtracts the
three-term main term and is scaled by its kind's error scale from
constants.  emit serialises rows to CSV or JSON deterministically (17
significant digits for binary64 fields, decimal strings for exact
integers), so output is byte-identical.
"""

from __future__ import annotations

import functools
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
    ramanujan_tau_table,
    sigma_spec,
    tau_spec,
    trial_factorize,
)
from divcorr.constants import (
    D_SUM_ERROR_EXPONENT,
    binomial_log_identity,
    coefficient_consistency,
    compute_zeta_constants,
    estermann_main_term,
    shifted_product_main_term,
    sigma_correlation_error_exponent,
    sigma_correlation_main_term,
    sigma_lambda_identity,
)
from divcorr.correlate import lattice_sum, product_sums, streamed_d_sums
from divcorr.errors import ContractError
from divcorr.fanout import fan_out
from divcorr.sieve import (
    MULT_ENTRY_BYTES,
    build_divisor_table,
    build_mult_table,
    charge,
    shifted_product_values,
)

KINDS = ("dd", "dpoly", "sigma_corr")
# bytes per entry at the peak of ramanujan_tau_table (measured 133-161 for
# limits 1e2-1e5; the finished table holds 40-46)
_TAU_ENTRY_BYTES = 200
_CONSISTENCY_TOLERANCE = 1e-9  # largest coefficient_consistency deviation that passes
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

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ContractError(f"kind must be one of {KINDS}")
        if not self.x_list or min(self.x_list) < 2:
            raise ContractError("all bounds must be >= 2")
        if not self.v_list or min(self.v_list) < 1:
            raise ContractError("all shifts must be >= 1")
        if self.kind != "sigma_corr" and self.alpha is not None:
            raise ContractError("alpha applies only to kind sigma_corr")
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
    """One (x, v) cell: exact empirical sum, the main term truncated to 1, 2
    and 3 terms, residual = empirical - main3, and the residual over its
    kind's error scale."""

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
    """One row per (v, x), v-major order; deterministic across runs.

    dd and dpoly residuals are scaled by x^D_SUM_ERROR_EXPONENT, sigma_corr
    residuals by x^omega log^c x from sigma_correlation_error_exponent.
    """
    cells = [(x, v) for v in config.v_list for x in config.x_list]
    if config.kind == "sigma_corr":
        alpha = config.alpha
        sums = product_sums(sigma_spec(alpha), cells)
        mains = [[sigma_correlation_main_term(x, v, alpha)] * 3 for x, v in cells]
        omega, c = sigma_correlation_error_exponent(alpha)
        scales = [x**omega * math.log(x) ** c for x, _ in cells]
    else:
        main = estermann_main_term if config.kind == "dd" else shifted_product_main_term
        zc = compute_zeta_constants()
        sums = streamed_d_sums(config.kind, cells)
        mains = [[main(x, v, zc, t) for t in (1, 2, 3)] for x, v in cells]
        scales = [x**D_SUM_ERROR_EXPONENT for x, _ in cells]
    rows = []
    for (x, v), emp, terms, scale in zip(cells, sums, mains, scales):
        residual = emp - terms[2]
        rows.append(
            ComparisonRow(config.kind, x, v, emp, *terms, residual, residual / scale)
        )
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


def run_verify(
    suites: Sequence[str], xmax: int | None = None, vmax: int | None = None
) -> tuple[SuiteResult, ...]:
    """Run the named identity suites, one SuiteResult each in the order
    given; unknown names raise ContractError.

    When xmax/vmax are None each suite uses its own full verification bounds
    (lemma1: x <= 1e4, v <= 50; lemma2: n <= 1e4, v <= 100; genrec:
    a, b <= 200; sigma_lambda and binomial: v <= 200; coeff_consistency:
    v <= 100); a given bound below 1 raises ContractError.  A suite keeps
    a row only while a later check reads it, and only the prefix that
    check reads, and charges what it holds against the memory cap before
    building anything (ResourceError).

    The suites run on every usable CPU, round-robin in the order given, as
    the tasks of fan_out, suite i as task i: each worker writes the checks
    and failures of its suites into two shared slots each.  A suite that
    failed in a child is rerun here for its first counterexample, and a
    rerun that counts otherwise than the child raises RuntimeError naming
    the suite; one that raised in a child raises here with its own class.
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
    own: dict[int, SuiteResult] = {}  # the suites this process ran

    def fill(slots: np.ndarray, i: int) -> None:
        own[i] = runners[suites[i]]()
        slots[2 * i : 2 * i + 2] = own[i].checks, own[i].failures

    slots = fan_out(2 * len(suites), np.uint64, len(suites), fill)

    def result(i: int, name: str) -> SuiteResult:
        if i in own:
            return own[i]
        checks, failures = map(int, slots[2 * i : 2 * i + 2])
        if not failures:
            return SuiteResult(name, checks, 0)
        rerun = runners[name]()
        if (rerun.checks, rerun.failures) != (checks, failures):
            raise RuntimeError(
                f"suite {name}: a worker counted {checks} checks, {failures} "
                f"failures, its rerun {rerun.checks} and {rerun.failures}"
            )
        return rerun

    return tuple(result(i, name) for i, name in enumerate(suites))


# (checks, failures, first counterexample or None) of one row, array or
# identity; a suite with many checks per row yields one per row, and
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


def _within(v: int, lhs: float, rhs: float, tol: float) -> _Outcome:
    if abs(lhs - rhs) <= tol:
        return 1, 0, None
    return 1, 1, f"v={v}: |{lhs} - {rhs}| > {tol}"


@_tally
def _suite_lemma1(xmax: int, vmax: int) -> Iterator[_Outcome]:
    # both transform directions, checked for every x <= xmax and v <= vmax.
    # The pair and product prefix sums of shift v, one int64 row each, are
    # formed at v and kept, cut to the entries n // e (e >= 2) reads, only
    # while a multiple of v is left.  Charged: 8 B per entry of the table's
    # length for seven rows (the two of shift v, the uint32 table, the
    # temporaries of lattice_sum and _compare; 52 B traced in all) and for
    # each shift w with 2w <= vmax, whose two rows are cut to half
    charge(8 * (7 + vmax // 2) * (xmax + vmax + 1))
    dtab = build_divisor_table(xmax + vmax)
    d = dtab.values
    rows: dict[int, np.ndarray] = {}  # shift -> its pair and product rows
    g = divisor_count_spec().companion_g

    def at(e: int, form: int) -> np.ndarray:
        # the row of shift v / e at n // e for every n <= xmax: its first
        # xmax // e + 1 entries, each repeated e times
        return np.repeat(rows[v // e][form][: xmax // e + 1], e)[: xmax + 1]

    def rhs(form: int, inverse: bool) -> np.ndarray:
        return lattice_sum(v, g, inverse, lambda e: at(e, form))[1:]

    for v in range(1, vmax + 1):
        rows[v] = np.zeros((2, xmax + 1), dtype=np.int64)
        pair = np.multiply(d[1 : xmax + 1], d[1 + v : xmax + v + 1], dtype=np.int64)
        np.cumsum(pair, out=rows[v][0, 1:])
        rows[v][1] = np.cumsum(shifted_product_values(dtab, xmax, v), dtype=np.int64)
        yield _compare(rows[v][0, 1:], rhs(1, False), f"pair form v={v}, x=")
        yield _compare(rows[v][1, 1:], rhs(0, True), f"product form v={v}, x=")
        _cut_rows(rows, v, vmax, xmax // 2 + 1)


def _cut_rows(rows: dict[int, np.ndarray], v: int, vmax: int, keep: int) -> None:
    """Once shift v is checked, drop every row whose shift has no multiple
    left in (v, vmax], and cut the rows of v to their first keep entries,
    the prefix that a later shift reads at indices n // e, e >= 2."""
    for w in [w for w in rows if (v // w + 1) * w > vmax]:
        del rows[w]
    if v in rows:
        rows[v] = rows[v][..., :keep].copy()


@_tally
def _suite_lemma2(nmax: int, vmax: int) -> Iterator[_Outcome]:
    # pointwise d(n) d(n+v) == sum_{e | gcd(n,v)} d(n(n+v)/e^2); the inner
    # term at n = e m equals the shifted-product value at (m, v/e).  The
    # uint32 row of shift v is formed at v and kept as lemma1 keeps its
    # rows.  Charged: 34 B per entry of the table's length for the uint32
    # table, the int64 lhs and rhs, the row of shift v, the mask of _compare
    # and the window work of shifted_product_values (31 B traced at
    # n = 2e4), and 2 B for each shift w with 2w <= vmax, whose row is cut
    # to half
    charge((34 + 2 * (vmax // 2)) * (nmax + vmax + 1))
    dtab = build_divisor_table(nmax + vmax)
    d = dtab.values
    spt: dict[int, np.ndarray] = {}
    lhs, rhs = np.empty((2, nmax + 1), dtype=np.int64)
    for v in range(1, vmax + 1):
        spt[v] = shifted_product_values(dtab, nmax, v)
        np.multiply(d[1 : nmax + 1], d[1 + v : nmax + v + 1], lhs[1:], dtype=np.int64)
        rhs[:] = 0
        for e in divisors(trial_factorize(v)):
            rhs[e :: e] += spt[v // e][1 : nmax // e + 1]
        yield _compare(lhs[1:], rhs[1:], f"v={v}, n=")
        _cut_rows(spt, v, vmax, nmax // 2 + 1)


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
    # on pairs with ab inside the tau table.  One f-table is alive at a
    # time, and the tau table is built for its own spec, after the sigma
    # tables are gone, so the larger phase is charged before anything is
    # built: an f-table over amax^2, or the tau table and its f-table
    tau_limit = min(10_000, amax * amax)
    tau_phase = (MULT_ENTRY_BYTES + _TAU_ENTRY_BYTES) * (tau_limit + 1)
    charge(max(MULT_ENTRY_BYTES * (amax * amax + 1), tau_phase))
    gcd_divisors = {g: divisors(trial_factorize(g)) for g in range(1, amax + 1)}
    specs = [
        (divisor_count_spec, amax * amax),
        (lambda: sigma_spec(1), amax * amax),
        (lambda: sigma_spec(2), amax * amax),
        (lambda: tau_spec(ramanujan_tau_table(tau_limit)), tau_limit),
    ]
    for make, prod_limit in specs:
        spec = make()
        fval = build_mult_table(spec, prod_limit).tolist()
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
                for e in gcd_divisors[math.gcd(a, b)]:
                    rhs += gval[e] * fval[ab // (e * e)]
                if lhs != rhs:
                    bad.append(f"{spec.name} a={a} b={b}: {lhs} != {rhs}")
            yield len(bs), len(bad), bad[0] if bad else None
        del fval


@_tally
def _suite_sigma_lambda(vmax: int, kmax: int) -> Iterator[_Outcome]:
    # relative tolerance: the sides grow like log^k v
    for v in range(1, vmax + 1):
        for k in range(kmax + 1):
            lhs, rhs = sigma_lambda_identity(v, k)
            yield _within(v, lhs, rhs, 1e-10 * (1.0 + max(abs(lhs), abs(rhs))))


@_tally
def _suite_binomial(vmax: int, nmax: int) -> Iterator[_Outcome]:
    return (
        _within(v, binomial_log_identity(v, n), 1.0 if n == 0 else 0.0, 1e-10)
        for v in range(1, vmax + 1)
        for n in range(nmax + 1)
    )


@_tally
def _suite_coeff_consistency(vmax: int) -> Iterator[_Outcome]:
    zc = compute_zeta_constants()
    for v in range(1, vmax + 1):
        dev = coefficient_consistency(v, zc)
        bad = not dev <= _CONSISTENCY_TOLERANCE  # a NaN deviation fails
        yield 1, bad, f"v={v}: max deviation {dev:.3e}" if bad else None


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

# field name -> type, in declaration order: the one field list behind the
# CSV header and both writers
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
