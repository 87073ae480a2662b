"""Analytic constants and the asymptotic coefficients of the correlation sums.

Provides:
    - gamma, zeta(2), zeta'(2), zeta''(2) by direct summation with
      Euler-Maclaurin tail corrections and certified error bounds;
    - the pair-form coefficients c1(v), c2(v) and product-form coefficients
      A1(v), A2(v) of the x (log^2 x + c1 log x + c2) expansions;
    - the main terms and the error scales that harness.run_compare divides
      residuals by: x^(2/3 + 0.05) for the d sums, x^omega log^c x for the
      sigma_alpha sums;
    - the two sides, or the largest deviation, of the exact identities that
      tie the two coefficient families together through Moebius sums over
      the divisors of v; harness.run_verify sets the tolerances and gives
      the verdicts.

Note on normalisation: the Moebius combinations assembled in
coefficient_consistency carry no 6/pi^2 prefactor.  That factor belongs to
the enclosing x-expansion and would be double-counted inside the
coefficients, as the numerical agreement verified here confirms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from divcorr.arith import (
    divisors,
    mobius_divisors,
    sigma_log_k,
    trial_factorize,
    von_mangoldt_k,
)
from divcorr.errors import ContractError

DEFAULT_TRUNCATION = 1_000_000
_PRECISION_TARGET = 1e-12  # absolute error every zeta constant must certify
_ZETA_CHUNK = 1 << 13  # terms per chunk of the head sums of compute_zeta_constants
# the head sums are exact on the grid 2^-123: three levels of 2^41 each
_GRID_STEP = 41
_GRID_LEVELS = 3


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
    # f[i], the i-th derivative of (log x)^j x^(-s) at m, for i <= 5
    coeffs, t, f = [0.0] * j + [1.0], s, []
    for _ in range(6):
        f.append(_logpoly_eval(coeffs, t, m))
        coeffs, t = _logpoly_diff(coeffs, t)
    tail = integral - f[0] / 2.0 - f[1] / 12.0 + f[3] / 720.0
    bound = abs(f[5]) / 30240.0  # B6/6! term, first one dropped
    return tail, bound


@lru_cache(maxsize=None)
def compute_zeta_constants(truncation: int = DEFAULT_TRUNCATION) -> ZetaConstants:
    """Euler-Maclaurin evaluation of gamma, zeta(2), zeta'(2), zeta''(2).

    gamma comes from the harmonic sum minus log; zeta'(2) = -sum log n / n^2
    and zeta''(2) = sum log^2 n / n^2 are summed to the truncation point with
    tail corrections through the third derivative.  Raises ContractError when
    the truncation cannot certify every constant to 1e-12.

    Each head sum is the exactly rounded sum of its float64 terms, the
    float math.fsum gives for them: the terms are added exactly on a
    2^-123 fixed-point grid and the total is rounded once (_head_sums).
    """
    m = truncation
    harmonic, s2, s2l, s2ll = _head_sums(m)

    lm = math.log(m)
    gamma = harmonic - lm - 0.5 / m + 1.0 / (12.0 * m**2) - 1.0 / (120.0 * m**4)

    tail0, b0 = _tail_log_power(m, 0, 2.0)
    tail1, b1 = _tail_log_power(m, 1, 2.0)
    tail2, b2 = _tail_log_power(m, 2, 2.0)
    zeta2 = s2 + tail0
    zeta_prime_2 = -(s2l + tail1)
    zeta_double_prime_2 = s2ll + tail2
    # per-term relative rounding: 1u for 1/n, 3u for its square, plus ~4u per
    # log factor; the rounded head sum itself rounds once more
    u = 2.0**-53
    bounds = {
        "gamma": 1.0 / (252.0 * m**6) + u * (2.0 * harmonic + lm + 4.0),
        "zeta2": b0 + 4.0 * u * s2,
        "zeta_prime_2": b1 + 8.0 * u * s2l,
        "zeta_double_prime_2": b2 + 12.0 * u * s2ll,
    }
    if max(bounds.values()) > _PRECISION_TARGET:
        raise ContractError(
            f"truncation {m} certifies only {max(bounds.values()):.2e}, "
            f"worse than the target {_PRECISION_TARGET:.2e}"
        )
    return ZetaConstants(
        gamma=gamma,
        zeta2=zeta2,
        zeta_prime_2=zeta_prime_2,
        zeta_double_prime_2=zeta_double_prime_2,
        abs_error_bound=bounds,
        truncation_point=m,
    )


def _head_sums(m: int) -> list[float]:
    """sum 1/n, sum 1/n^2, sum log n / n^2 and sum log^2 n / n^2 over n <= m,
    each the exactly rounded sum of its float64 terms, the value math.fsum
    returns for them.

    The terms are 1/n, (1/n)(1/n), log n (1/n)^2 and (log n log n)(1/n)^2,
    formed in float64 chunk by chunk.  Every such term up to n = 2^35 lies
    in [0, 1] on the grid 2^-123, so _grid_sums adds them exactly as
    integers, and one int / int division per head, which Python rounds
    correctly, gives the float whatever the chunking.
    """
    heads = [0, 0, 0, 0]  # exact sums, in units of 2^-123
    for lo in range(1, m + 1, _ZETA_CHUNK):
        n = np.arange(lo, min(lo + _ZETA_CHUNK, m + 1), dtype=np.float64)
        log = np.log(n)
        terms = np.empty((4, len(n)))
        inv, sq, sql, sqll = terms
        np.divide(1.0, n, out=inv)
        np.multiply(inv, inv, out=sq)
        np.multiply(log, sq, out=sql)
        np.multiply(log, log, out=sqll)
        sqll *= sq
        heads = [h + s for h, s in zip(heads, _grid_sums(terms))]
    one = 1 << (_GRID_STEP * _GRID_LEVELS)
    return [h / one for h in heads]


def _grid_sums(terms: np.ndarray) -> list[int]:
    """The exact sum of each row of a 2-D float64 array, in units of 2^-123,
    for rows of fewer than 2^22 terms of magnitude at most 1; overwrites
    terms.

    Each level scales the remainders by 2^41, takes their integer parts with
    floor and keeps the fractions; scaling, floor and subtraction are all
    exact, and each level's integers sum in int64 without overflow.  Raises
    ContractError when a term has bits below 2^-123.
    """
    totals = [0] * len(terms)
    whole = np.empty_like(terms)
    for _ in range(_GRID_LEVELS):
        terms *= float(1 << _GRID_STEP)
        np.floor(terms, out=whole)
        terms -= whole
        level = whole.sum(axis=1, dtype=np.int64).tolist()
        totals = [(t << _GRID_STEP) + w for t, w in zip(totals, level)]
    if terms.any():
        raise ContractError(
            f"a head term is finer than the 2^-{_GRID_STEP * _GRID_LEVELS} grid"
        )
    return totals


@lru_cache(maxsize=None, typed=True)
def zeta_em(s: float) -> float:
    """zeta(s) for real s > 1: the exactly rounded sum of n^(-s) over
    n <= 1000 plus the Euler-Maclaurin tail, cached per s."""
    if s <= 1.0:
        raise ContractError("zeta_em needs s > 1")
    tail, _ = _tail_log_power(1000, 0, s)
    return math.fsum(n**-s for n in range(1, 1001)) + tail


# ---------------------------------------------------------------------------
# asymptotic coefficients
# ---------------------------------------------------------------------------


def _base_coefficients(zc: ZetaConstants) -> tuple[float, float]:
    """The shift-free parts of (c1, c2) and of (A1, A2): both pairs at v = 1."""
    zr1, zr2 = zc.zeta_prime_2 / zc.zeta2, zc.zeta_double_prime_2 / zc.zeta2
    base1 = 4.0 * zc.gamma - 2.0 - 4.0 * zr1
    base2 = (2.0 * zc.gamma - 1.0 - 2.0 * zr1) ** 2 + 1.0 - 4.0 * zr2 + 4.0 * zr1 * zr1
    return base1, base2


def estermann_coefficients(v: int, zc: ZetaConstants) -> tuple[float, float]:
    """(c1, c2) of the pair-form expansion
    (6/pi^2) sigma_{-1}(v) x (log^2 x + c1(v) log x + c2(v))."""
    base1, base2 = _base_coefficients(zc)
    s0 = sigma_log_k(v, 0)
    r1 = sigma_log_k(v, 1) / s0
    r2 = sigma_log_k(v, 2) / s0
    c1 = base1 - 4.0 * r1
    c2 = base2 - 2.0 * base1 * r1 + 4.0 * r2
    return c1, c2


def shifted_product_coefficients(v: int, zc: ZetaConstants) -> tuple[float, float]:
    """(A1, A2) of the product-form expansion
    (6/pi^2) x (log^2 x + A1(v) log x + A2(v)); the shift enters only through
    von Mangoldt sums over the divisors of v."""
    base1, base2 = _base_coefficients(zc)
    divs = divisors(trial_factorize(v))
    lam = math.fsum(von_mangoldt_k(e, 1) / e for e in divs)
    lam_log = math.fsum(von_mangoldt_k(e, 1) * math.log(e) / e for e in divs)
    lam2 = math.fsum(von_mangoldt_k(e, 2) / e for e in divs)
    a1 = base1 - 2.0 * lam
    a2 = base2 - base1 * lam + 2.0 * lam_log + lam2
    return a1, a2


def estermann_main_term(
    x: float, v: int, zc: ZetaConstants, terms: int = 3
) -> float:
    """(6/pi^2) sigma_{-1}(v) x (log^2 x [+ c1 log x [+ c2]]), truncated to
    1, 2 or 3 terms for residual studies."""
    poly = _log_poly(x, estermann_coefficients(v, zc), terms)
    return 6.0 / math.pi**2 * sigma_log_k(v, 0) * x * poly


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


# exponent of the error scale of S_dd and S_dpoly: x^(2/3 + eps) with
# eps = 0.05, so bounded scaled residuals are a claim one number can falsify
D_SUM_ERROR_EXPONENT = 2.0 / 3.0 + 0.05


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
# identity checks
# ---------------------------------------------------------------------------


def sigma_lambda_identity(v: int, k: int) -> tuple[float, float]:
    """(lhs, rhs) of
    sum_{e|v} (mu(e)/e) sigma_{-1}^{(k)}(v/e)  ==  sum_{d|v} Lambda_k(d)/d."""
    lhs = math.fsum(mu / e * sigma_log_k(v // e, k) for e, mu in mobius_divisors(v))
    rhs = math.fsum(von_mangoldt_k(d, k) / d for d in divisors(trial_factorize(v)))
    return lhs, rhs


def binomial_log_identity(v: int, n: int) -> float:
    """sum_{k<=n} C(n,k) sum_{e|v} (mu(e)/e) sigma_{-1}^{(k)}(v/e) (log e)^(n-k),
    which collapses to 1 for n = 0 and to 0 for every n >= 1."""
    terms = []
    for e, mu in mobius_divisors(v):
        le = math.log(e)
        for k in range(n + 1):
            terms.append(
                math.comb(n, k) * mu / e * sigma_log_k(v // e, k) * le ** (n - k)
            )
    return math.fsum(terms)


def coefficient_consistency(v: int, zc: ZetaConstants) -> float:
    """Largest absolute deviation between the two sides of

        sum_{e|v} (mu(e)/e) sigma_{-1}(v/e) (c1(v/e) - 2 log e)          == A1(v)
        sum_{e|v} (mu(e)/e) sigma_{-1}(v/e) (log^2 e - c1(v/e) log e
                                             + c2(v/e))                  == A2(v)
        sum_{e|v} (mu(e)/e) [sigma_{-1}(v/e) log^2 e
                             + sigma_{-1}^{(1)}(v/e) log e]  == -sum Lambda(e) log e / e

    the Moebius assembly of the product-form coefficients from the pair-form
    ones against their direct formulas, plus the log^2-collapse helper.
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
    return max(
        abs(math.fsum(a1_terms) - a1_direct),
        abs(math.fsum(a2_terms) - a2_direct),
        abs(math.fsum(helper_terms) - helper_rhs),
    )
