"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Criteria 4 and 5 sieve up to 1e7 and take a few seconds each; all stated
runtime and memory budgets are asserted, not just observed.
"""

import math
import resource
import time
from fractions import Fraction
from math import gcd

import pytest

import divcorr as dc


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_identity_suites():
    t0 = time.monotonic()
    report = dc.run_verify(["lemma1", "lemma2", "induction", "genrec"])
    elapsed = time.monotonic() - t0
    failures = {s.name: s.failures for s in report}
    checks = sum(s.checks for s in report)
    ok = all(s.passed for s in report) and elapsed < 60.0
    _report(
        1,
        ok,
        f"exact suites (lemma1 v<=50 x<=1e4, lemma2 v<=100 n<=1e4, induction, "
        f"genrec a,b<=200): {checks} checks, failures {failures}, {elapsed:.1f}s "
        f"(< 60s)",
    )


def test_criterion_2_float_identity_suites():
    t0 = time.monotonic()
    report = dc.run_verify(["sigma_lambda", "binomial", "coeff_consistency"])
    elapsed = time.monotonic() - t0
    failures = {s.name: s.failures for s in report}
    ok = all(s.passed for s in report) and elapsed < 10.0
    _report(
        2,
        ok,
        f"float suites (sigma_lambda v<=200 k<=3 @1e-10, binomial v<=200 n<=3 "
        f"@1e-10, coeff_consistency v<=100 @1e-9): failures {failures}, "
        f"{elapsed:.1f}s (< 10s)",
    )


def test_criterion_3_constants_stability():
    t0 = time.monotonic()
    zc = dc.compute_zeta_constants.__wrapped__()  # bypass cache: time honestly
    doubled = dc.compute_zeta_constants.__wrapped__(
        truncation=2 * zc.truncation_point
    )
    elapsed = time.monotonic() - t0
    drift = {
        "gamma": abs(zc.gamma - doubled.gamma),
        "zeta_prime_2": abs(zc.zeta_prime_2 - doubled.zeta_prime_2),
        "zeta_double_prime_2": abs(
            zc.zeta_double_prime_2 - doubled.zeta_double_prime_2
        ),
    }
    pi_gap = abs(zc.zeta2 - math.pi**2 / 6)
    ok = (
        all(v <= 1e-12 for v in drift.values())
        and pi_gap <= 1e-14
        and elapsed < 5.0
    )
    _report(
        3,
        ok,
        f"constants: doubling drift {max(drift.values()):.2e} (<= 1e-12), "
        f"|zeta2 - pi^2/6| = {pi_gap:.2e} (<= 1e-14), {elapsed:.1f}s (< 5s)",
    )


def test_criterion_4_shifted_product_empirics():
    shifts = [1, 2, 3, 4, 6]
    t0 = time.monotonic()
    config = dc.RunConfig(
        x_list=[10**4, 10**5, 10**6, 10**7],
        v_list=shifts,
        kind="dpoly",
    )
    rows = dc.run_compare(config)
    elapsed = time.monotonic() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**20
    problems = []
    worst_rel = 0.0
    for v in shifts:
        per_v = [r for r in rows if r.v == v]
        at_1e6 = next(r for r in per_v if r.x == 10**6)
        rel = abs(at_1e6.residual) / at_1e6.empirical
        worst_rel = max(worst_rel, rel)
        if rel > 0.01:
            problems.append(f"v={v}: relative residual {rel:.2e} > 1%")
        gaps = [
            abs(at_1e6.empirical - m)
            for m in (at_1e6.main3, at_1e6.main2, at_1e6.main1)
        ]
        if not gaps[0] < gaps[1] < gaps[2]:
            problems.append(f"v={v}: main-term ordering violated {gaps}")
        # bounded scaled residuals: no later decade may exceed twice the
        # bound established by the decades before it
        scaled = [
            abs(r.residual) / r.x**0.717 for r in sorted(per_v, key=lambda r: r.x)
        ]
        bound = scaled[0]
        for value in scaled[1:]:
            if value > 2.0 * bound:
                problems.append(f"v={v}: scaled residuals double: {scaled}")
                break
            bound = max(bound, value)
    if elapsed >= 120.0:
        problems.append(f"sieve+sums took {elapsed:.0f}s >= 120s")
    if peak_gb >= 2.0:
        problems.append(f"peak rss {peak_gb:.2f} GB >= 2 GB")
    _report(
        4,
        not problems,
        f"shifted-product sums v in {shifts}: worst relative residual at x=1e6 "
        f"is {worst_rel:.2e} (<= 1e-2), scaled residuals (exponent 0.717) stay "
        f"bounded over x=1e4..1e7, {elapsed:.1f}s (< 120s), {peak_gb:.2f} GB "
        f"(< 2 GB)" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_5_pair_correlation_empirics():
    shifts = [1, 2, 4]
    config = dc.RunConfig(x_list=[10**6], v_list=shifts, kind="dd")
    rows = dc.run_compare(config)
    problems = []
    worst_rel = 0.0
    for r in rows:
        rel = abs(r.residual) / r.empirical
        worst_rel = max(worst_rel, rel)
        if rel > 0.01:
            problems.append(f"v={r.v}: relative residual {rel:.2e} > 1%")
        gaps = [abs(r.empirical - m) for m in (r.main3, r.main2, r.main1)]
        if not gaps[0] < gaps[1] < gaps[2]:
            problems.append(f"v={r.v}: main-term ordering violated")
    _report(
        5,
        not problems,
        f"pair-correlation sums at x=1e6, v in {shifts}: worst relative "
        f"residual {worst_rel:.2e} (<= 1e-2), three-term fit tightens "
        f"monotonically" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_6_sigma_correlation():
    # the leading coefficient collapses to 5/6: zeta(2)^2/zeta(4) is
    # (pi^4/36)/(pi^4/90), so the pi powers cancel symbolically
    coeff = Fraction(1, 3) * (Fraction(1, 36) / Fraction(1, 90))
    symbolic_ok = coeff == Fraction(5, 6)

    x = 10**4
    spec = dc.sigma_spec(1)
    pair = dc.sum_correlation(spec, x, 1).value
    product = dc.sum_shifted_product(spec, x, 1).value
    main = dc.sigma_correlation_main_term(x, 1, 1.0)
    rel = abs(pair - main) / main
    ok = symbolic_ok and pair == product and rel <= 0.02
    _report(
        6,
        ok,
        f"sum sigma_1(n) sigma_1(n+1) to x=1e4: {pair} vs (5/6)x^3, deviation "
        f"{rel:.2%} (<= 2%); coefficient 5/6 confirmed symbolically; pair and "
        f"product forms agree at shift 1",
    )


def test_criterion_7_tau_oracle():
    limit = 1000
    tau = dc.ramanujan_tau_table(limit)
    problems = []
    if (tau[2], tau[3], tau[4]) != (-24, 252, -1472):
        problems.append(f"q-expansion start {(tau[2], tau[3], tau[4])}")
    for m in range(2, limit):
        for n in range(2, limit // m + 1):
            if gcd(m, n) == 1 and tau[m * n] != tau[m] * tau[n]:
                problems.append(f"multiplicativity fails at ({m}, {n})")
                break
    for p in (2, 3, 5):
        k = 1
        while p ** (k + 1) <= limit:
            if tau[p ** (k + 1)] != tau[p] * tau[p**k] - p**11 * tau[p ** (k - 1)]:
                problems.append(f"recurrence fails at p={p}, k={k}")
            k += 1
    _report(
        7,
        not problems,
        "tau(n) for n <= 1e3: q-expansion gives (-24, 252, -1472) at n=2,3,4; "
        "multiplicative on coprime pairs; Hecke recurrence with g(p)=p^11 "
        "holds at p=2,3,5" + ("; " + "; ".join(problems) if problems else ""),
    )
