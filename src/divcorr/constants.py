"""Analytic constants and the asymptotic coefficients of the correlation sums.

Provides:
    - gamma, zeta(2), zeta'(2), zeta''(2) by direct summation with
      Euler-Maclaurin tail corrections and certified error bounds;
    - the pair-form coefficients c1(v), c2(v) and product-form coefficients
      A1(v), A2(v) of the x (log^2 x + c1 log x + c2) expansions;
    - numerical checks of the exact identities that tie the two coefficient
      families together through Moebius sums over the divisors of v.

Note on normalisation: the Moebius combinations assembled in
coefficient_consistency carry no 6/pi^2 prefactor.  That factor belongs to
the enclosing x-expansion and would be double-counted inside the
coefficients, as the numerical agreement verified here confirms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable

import numpy as np

from divcorr.arith import (
    divisors,
    mobius_divisors,
    sigma_log_k,
    sigma_pow,
    trial_factorize,
    von_mangoldt_k,
)
from divcorr.errors import ContractError
from divcorr.sieve import charge

DEFAULT_TRUNCATION = 1_000_000
# terms per chunk of the head sums of compute_zeta_constants, and the bytes
# charged for one: a float64 array and the 32 B per term of its tolist()
# list of floats (tracemalloc: 40.0 B per term for truncations 2^16-1e6)
_ZETA_CHUNK = 1 << 16
_ZETA_CHUNK_BYTES = 48 * _ZETA_CHUNK
# bytes per term of zeta_em: n and n^(-s) in float64 (tracemalloc: 16.0
# for truncations 1e4-1e6)
_ZETA_EM_TERM_BYTES = 16


@dataclass(frozen=True)
class ZetaConstants:
    """Euler-Mascheroni constant and zeta values at 2 with per-field absolute
    error bounds (Euler-Maclaurin truncation tail plus rounding allowance)."""

    gamma: float
    zeta2: float
    zeta_prime_2: float
    zeta_double_prime_2: float
    abs_error_bound: dict[str, float]
    truncation_point: int


def _logpoly_diff(coeffs: list[float], s: float) -> tuple[list[float], float]:
    # d/dx of x^(-s) * sum_k c_k (log x)^k, returned in the same representation
    out = [0.0] * len(coeffs)
    for k, c in enumerate(coeffs):
        if k >= 1:
            out[k - 1] += k * c
        out[k] -= s * c
    return out, s + 1.0


def _logpoly_eval(coeffs: list[float], s: float, x: float) -> float:
    lx = math.log(x)
    return x ** (-s) * math.fsum(c * lx**k for k, c in enumerate(coeffs))


def _tail_log_power(m: int, j: int, s: float) -> tuple[float, float]:
    """(tail, bound): Euler-Maclaurin value of sum_{n>m} (log n)^j / n^s
    through the B4 term, and the magnitude of the first dropped term."""
    lx = math.log(m)
    # integral_m^inf (log x)^j x^(-s) dx
    integral = m ** (1.0 - s) * math.fsum(
        (math.factorial(j) // math.factorial(i)) * lx**i / (s - 1.0) ** (j - i + 1)
        for i in range(j + 1)
    )
    coeffs = [0.0] * (j + 1)
    coeffs[j] = 1.0
    f0 = _logpoly_eval(coeffs, s, m)
    c1, s1 = _logpoly_diff(coeffs, s)
    f1 = _logpoly_eval(c1, s1, m)
    c2, s2 = _logpoly_diff(c1, s1)
    c3, s3 = _logpoly_diff(c2, s2)
    f3 = _logpoly_eval(c3, s3, m)
    c4, s4 = _logpoly_diff(c3, s3)
    c5, s5 = _logpoly_diff(c4, s4)
    f5 = _logpoly_eval(c5, s5, m)
    tail = integral - f0 / 2.0 - f1 / 12.0 + f3 / 720.0
    bound = abs(f5) / 30240.0  # B6/6! term, first one dropped
    return tail, bound


@lru_cache(maxsize=None)
def compute_zeta_constants(
    precision_target: float = 1e-12, truncation: int = DEFAULT_TRUNCATION
) -> ZetaConstants:
    """Euler-Maclaurin evaluation of gamma, zeta(2), zeta'(2), zeta''(2).

    gamma comes from the harmonic sum minus log; zeta'(2) = -sum log n / n^2
    and zeta''(2) = sum log^2 n / n^2 are summed to the truncation point with
    tail corrections through the third derivative.  Raises ContractError when
    the requested precision cannot be certified in binary64, and
    ResourceError when one chunk of the head sums would exceed the memory cap.
    """
    if precision_target < 1e-14:
        raise ContractError("binary64 cannot certify targets below 1e-14")
    m = truncation
    charge(_ZETA_CHUNK_BYTES)

    def head(term: Callable[[np.ndarray], np.ndarray]) -> float:
        # fsum is exactly rounded, so only per-term rounding remains, and
        # feeding it chunk by chunk cannot change the sum
        chunks = (
            term(np.arange(lo, min(lo + _ZETA_CHUNK, m + 1), dtype=np.float64))
            for lo in range(1, m + 1, _ZETA_CHUNK)
        )
        return math.fsum(chain.from_iterable(c.tolist() for c in chunks))

    harmonic = head(lambda n: 1.0 / n)
    s2 = head(lambda n: (1.0 / n) * (1.0 / n))
    s2l = head(lambda n: np.log(n) * ((1.0 / n) * (1.0 / n)))
    s2ll = head(lambda n: np.log(n) * np.log(n) * ((1.0 / n) * (1.0 / n)))

    lm = math.log(m)
    gamma = harmonic - lm - 0.5 / m + 1.0 / (12.0 * m**2) - 1.0 / (120.0 * m**4)

    tail0, b0 = _tail_log_power(m, 0, 2.0)
    tail1, b1 = _tail_log_power(m, 1, 2.0)
    tail2, b2 = _tail_log_power(m, 2, 2.0)
    zeta2 = s2 + tail0
    zeta_prime_2 = -(s2l + tail1)
    zeta_double_prime_2 = s2ll + tail2
    # per-term relative rounding: 1u for 1/n, 3u for its square, plus ~4u per
    # log factor; the fsum result itself rounds once more
    u = 2.0**-53
    bounds = {
        "gamma": 1.0 / (252.0 * m**6) + u * (2.0 * harmonic + lm + 4.0),
        "zeta2": b0 + 4.0 * u * s2,
        "zeta_prime_2": b1 + 8.0 * u * s2l,
        "zeta_double_prime_2": b2 + 12.0 * u * s2ll,
    }
    if max(bounds.values()) > precision_target:
        raise ContractError(
            f"truncation {m} certifies only {max(bounds.values()):.2e}, "
            f"worse than the target {precision_target:.2e}"
        )
    return ZetaConstants(
        gamma=gamma,
        zeta2=zeta2,
        zeta_prime_2=zeta_prime_2,
        zeta_double_prime_2=zeta_double_prime_2,
        abs_error_bound=bounds,
        truncation_point=m,
    )


@lru_cache(maxsize=None, typed=True)
def zeta_em(s: float, truncation: int = 100_000) -> float:
    """zeta(s) for real s > 1 by direct summation with Euler-Maclaurin tail,
    cached per (s, truncation).  Raises ResourceError when the per-term
    arrays would exceed the memory cap."""
    if s <= 1.0:
        raise ContractError("zeta_em needs s > 1")
    charge(_ZETA_EM_TERM_BYTES * truncation)
    n = np.arange(1, truncation + 1, dtype=np.float64)
    head = float(np.sum(n ** (-s)))
    tail, _ = _tail_log_power(truncation, 0, s)
    return head + tail


# ---------------------------------------------------------------------------
# asymptotic coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Coefficients of x (log^2 x + . log x + .) for both sum shapes at shift v:
    (c1, c2) for the pair form, (a1, a2) for the product form."""

    v: int
    c1: float
    c2: float
    a1: float
    a2: float


def _zeta_ratios(zc: ZetaConstants) -> tuple[float, float]:
    return zc.zeta_prime_2 / zc.zeta2, zc.zeta_double_prime_2 / zc.zeta2


def estermann_coefficients(v: int, zc: ZetaConstants) -> tuple[float, float]:
    """(c1, c2) of the pair-form expansion
    (6/pi^2) sigma_{-1}(v) x (log^2 x + c1(v) log x + c2(v))."""
    zr1, zr2 = _zeta_ratios(zc)
    s0 = sigma_log_k(v, 0)
    r1 = sigma_log_k(v, 1) / s0
    r2 = sigma_log_k(v, 2) / s0
    base1 = 4.0 * zc.gamma - 2.0 - 4.0 * zr1
    base2 = (2.0 * zc.gamma - 1.0 - 2.0 * zr1) ** 2 + 1.0 - 4.0 * zr2 + 4.0 * zr1 * zr1
    c1 = base1 - 4.0 * r1
    c2 = base2 - 2.0 * base1 * r1 + 4.0 * r2
    return c1, c2


def shifted_product_coefficients(v: int, zc: ZetaConstants) -> tuple[float, float]:
    """(A1, A2) of the product-form expansion
    (6/pi^2) x (log^2 x + A1(v) log x + A2(v)); the shift enters only through
    von Mangoldt sums over the divisors of v."""
    zr1, zr2 = _zeta_ratios(zc)
    divs = divisors(trial_factorize(v))
    lam = math.fsum(von_mangoldt_k(e, 1) / e for e in divs)
    lam_log = math.fsum(von_mangoldt_k(e, 1) * math.log(e) / e for e in divs)
    lam2 = math.fsum(von_mangoldt_k(e, 2) / e for e in divs)
    base1 = 4.0 * zc.gamma - 2.0 - 4.0 * zr1
    base2 = (2.0 * zc.gamma - 1.0 - 2.0 * zr1) ** 2 + 1.0 - 4.0 * zr2 + 4.0 * zr1 * zr1
    a1 = base1 - 2.0 * lam
    a2 = base2 - base1 * lam + 2.0 * lam_log + lam2
    return a1, a2


def asymptotic_coefficients(v: int, zc: ZetaConstants) -> AsymptoticCoefficients:
    """Both coefficient pairs at shift v; at v = 1 they coincide."""
    c1, c2 = estermann_coefficients(v, zc)
    a1, a2 = shifted_product_coefficients(v, zc)
    return AsymptoticCoefficients(v, c1, c2, a1, a2)


def estermann_main_term(
    x: float, v: int, zc: ZetaConstants, terms: int = 3
) -> float:
    """(6/pi^2) sigma_{-1}(v) x (log^2 x [+ c1 log x [+ c2]]), truncated to
    1, 2 or 3 terms for residual studies."""
    poly = _log_poly(x, estermann_coefficients(v, zc), terms)
    s0 = int(sigma_pow(1, trial_factorize(v))) / v
    return 6.0 / math.pi**2 * s0 * x * poly


def shifted_product_main_term(
    x: float, v: int, zc: ZetaConstants, terms: int = 3
) -> float:
    """(6/pi^2) x (log^2 x [+ A1 log x [+ A2]]), truncated to 1, 2 or 3 terms."""
    poly = _log_poly(x, shifted_product_coefficients(v, zc), terms)
    return 6.0 / math.pi**2 * x * poly


def _log_poly(x: float, pair: tuple[float, float], terms: int) -> float:
    if x < 2:
        raise ContractError("main terms are defined for x >= 2")
    if terms not in (1, 2, 3):
        raise ContractError("terms must be 1, 2 or 3")
    k1, k2 = pair
    lx = math.log(x)
    poly = lx * lx
    if terms >= 2:
        poly += k1 * lx
    if terms == 3:
        poly += k2
    return poly


def sigma_correlation_main_term(x: float, v: int, alpha: float) -> float:
    """Leading term of sum_{n<=x} sigma_alpha(n(n+v)) for alpha > 0:

        (1/(2a+1)) (zeta(a+1)^2 / zeta(2a+2)) x^(2a+1)
            * sum_{d|v} d^(-2a-1) sum_{e|d} mu(e) e^a

    The expected error scale is x^omega log^c x with (omega, c) as returned
    by sigma_correlation_error_exponent.
    """
    if alpha <= 0:
        raise ContractError("alpha must be positive")
    z1 = zeta_em(alpha + 1.0)
    z2 = zeta_em(2.0 * alpha + 2.0)
    dfac = 0.0
    for d in divisors(trial_factorize(v)):
        inner = math.fsum(mu * float(e) ** alpha for e, mu in mobius_divisors(d))
        dfac += float(d) ** (-2.0 * alpha - 1.0) * inner
    return z1 * z1 / z2 / (2.0 * alpha + 1.0) * float(x) ** (2.0 * alpha + 1.0) * dfac


def sigma_correlation_error_exponent(alpha: float) -> tuple[float, int]:
    """(omega, log power c) of the error scale x^omega log^c x for the
    sigma_alpha product-form sum: omega = 2a + 1 - min(a, 1); c is 0 for
    a > 1, 1 for a < 1, 2 at a = 1."""
    omega = 2.0 * alpha + 1.0 - min(alpha, 1.0)
    if alpha > 1:
        c = 0
    elif alpha < 1:
        c = 1
    else:
        c = 2
    return omega, c


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """One numerically checked identity; failure is an outcome, not an error."""

    name: str
    v: int
    order: int
    lhs: float
    rhs: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.lhs - self.rhs) <= self.tolerance


def sigma_lambda_identity(v: int, k: int) -> IdentityReport:
    """sum_{e|v} (mu(e)/e) sigma_{-1}^{(k)}(v/e)  ==  sum_{d|v} Lambda_k(d)/d."""
    lhs = math.fsum(mu / e * sigma_log_k(v // e, k) for e, mu in mobius_divisors(v))
    rhs = math.fsum(von_mangoldt_k(d, k) / d for d in divisors(trial_factorize(v)))
    tol = 1e-10 * (1.0 + max(abs(lhs), abs(rhs)))
    return IdentityReport("sigma_lambda", v, k, lhs, rhs, tol)


def binomial_log_identity(v: int, n: int) -> IdentityReport:
    """sum_{k<=n} C(n,k) sum_{e|v} (mu(e)/e) sigma_{-1}^{(k)}(v/e) (log e)^(n-k)
    collapses to 1 for n = 0 and to 0 for every n >= 1."""
    terms = []
    for e, mu in mobius_divisors(v):
        le = math.log(e)
        for k in range(n + 1):
            terms.append(
                math.comb(n, k) * mu / e * sigma_log_k(v // e, k) * le ** (n - k)
            )
    lhs = math.fsum(terms)
    rhs = 1.0 if n == 0 else 0.0
    return IdentityReport("binomial", v, n, lhs, rhs, 1e-10)


@dataclass(frozen=True)
class ConsistencyReport:
    """Moebius assembly of the product-form coefficients from the pair-form
    ones, against their direct formulas, plus the log^2-collapse helper."""

    v: int
    a1_combined: float
    a1_direct: float
    a2_combined: float
    a2_direct: float
    helper_lhs: float
    helper_rhs: float
    tolerance: float

    @property
    def max_abs_diff(self) -> float:
        return max(
            abs(self.a1_combined - self.a1_direct),
            abs(self.a2_combined - self.a2_direct),
            abs(self.helper_lhs - self.helper_rhs),
        )

    @property
    def passed(self) -> bool:
        return self.max_abs_diff <= self.tolerance


def coefficient_consistency(
    v: int, zc: ZetaConstants, tolerance: float = 1e-9
) -> ConsistencyReport:
    """Check, to within `tolerance`:

        sum_{e|v} (mu(e)/e) sigma_{-1}(v/e) (c1(v/e) - 2 log e)          == A1(v)
        sum_{e|v} (mu(e)/e) sigma_{-1}(v/e) (log^2 e - c1(v/e) log e
                                             + c2(v/e))                  == A2(v)
        sum_{e|v} (mu(e)/e) [sigma_{-1}(v/e) log^2 e
                             + sigma_{-1}^{(1)}(v/e) log e]  == -sum Lambda(e) log e / e
    """
    a1_terms: list[float] = []
    a2_terms: list[float] = []
    helper_terms: list[float] = []
    for e, mu in mobius_divisors(v):
        w = mu / e
        s0 = sigma_log_k(v // e, 0)
        c1e, c2e = estermann_coefficients(v // e, zc)
        le = math.log(e)
        a1_terms.append(w * s0 * (c1e - 2.0 * le))
        a2_terms.append(w * s0 * (le * le - c1e * le + c2e))
        helper_terms.append(w * (s0 * le * le + sigma_log_k(v // e, 1) * le))
    a1_direct, a2_direct = shifted_product_coefficients(v, zc)
    helper_rhs = -math.fsum(
        von_mangoldt_k(e, 1) * math.log(e) / e
        for e in divisors(trial_factorize(v))
    )
    return ConsistencyReport(
        v=v,
        a1_combined=math.fsum(a1_terms),
        a1_direct=a1_direct,
        a2_combined=math.fsum(a2_terms),
        a2_direct=a2_direct,
        helper_lhs=math.fsum(helper_terms),
        helper_rhs=helper_rhs,
        tolerance=tolerance,
    )
