"""Divisor correlation sums: exact identities, sieved tables, asymptotic
coefficients, and an empirical comparison harness.

The two central quantities are the pair correlation sum_{n<=x} d(n) d(n+v)
and the shifted-product sum sum_{n<=x} d(n(n+v)); exact divisor-lattice
transforms connect them, and truncated main terms with coefficients built
from gamma, zeta'(2) and zeta''(2) describe their growth.
"""

from divcorr.arith import (
    Factorization,
    MultiplicativeSpec,
    chebyshev_extend,
    completely_mult_value,
    divisor_count_spec,
    divisors,
    mobius,
    mobius_divisors,
    ramanujan_tau_table,
    sigma_log_k,
    sigma_spec,
    tau_spec,
    trial_factorize,
    von_mangoldt_k,
)
from divcorr.constants import (
    ZetaConstants,
    binomial_log_identity,
    coefficient_consistency,
    compute_zeta_constants,
    estermann_coefficients,
    estermann_main_term,
    shifted_product_coefficients,
    shifted_product_main_term,
    sigma_correlation_error_exponent,
    sigma_correlation_main_term,
    sigma_lambda_identity,
    zeta_em,
)
from divcorr.correlate import (
    CorrelationSum,
    product_sums,
    streamed_d_sums,
    sum_correlation,
    sum_dd,
    sum_dd_from_dpoly,
    sum_dpoly,
    sum_dpoly_from_dd,
    sum_shifted_product,
    transform_correlation,
)
from divcorr.errors import ContractError, RangeError, ResourceError
from divcorr.harness import (
    ComparisonRow,
    RunConfig,
    SuiteResult,
    emit,
    run_compare,
    run_verify,
)
from divcorr.sieve import (
    DivisorTable,
    SpfTable,
    build_divisor_table,
    build_mult_table,
    build_spf,
    shifted_product_values,
    stream_pair_sums,
)

__version__ = "0.1.0"
