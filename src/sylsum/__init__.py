"""Exact weighted gap sums over numerical semigroups.

Given coprime generators, the positive integers they cannot represent form
a finite gap set; this package evaluates sums of lambda**n * n**mu over the
gaps with exact arithmetic, via closed formulas cross-checked against
brute-force enumeration.
"""

from .combinatorics import bernoulli, eulerian
from .exactnum import (
    QQ,
    FieldElement,
    NumberField,
    canonical_str,
    cyclotomic_field,
    pretty_str,
    quadratic_field,
    sqrt_of,
    to_element,
    zeta,
)
from .oracle import VerificationReport, brute_force_weighted_sum, cross_validate
from .semigroup import (
    AperySet,
    GapSet,
    GeneratorSet,
    apery_set,
    frobenius_number,
    gap_set,
    sieve_representable,
    sylvester_number,
    sylvester_sum,
    validate_generators,
)
from .sums import (
    Formula,
    SumRequest,
    SumResult,
    ThreeVarContext,
    alternating_sum,
    closed_three_var,
    closed_three_var_degenerate,
    closed_two_var,
    closed_two_var_degenerate,
    dispatch_sum,
    unweighted_power_sum,
    weighted_power_sum,
    weighted_sum_mu1,
    weighted_sum_mu1_rou,
    weighted_sum_mu2,
)

__version__ = "0.1.0"

__all__ = [
    "AperySet",
    "FieldElement",
    "Formula",
    "GapSet",
    "GeneratorSet",
    "NumberField",
    "QQ",
    "SumRequest",
    "SumResult",
    "ThreeVarContext",
    "VerificationReport",
    "alternating_sum",
    "apery_set",
    "bernoulli",
    "brute_force_weighted_sum",
    "canonical_str",
    "closed_three_var",
    "closed_three_var_degenerate",
    "closed_two_var",
    "closed_two_var_degenerate",
    "cross_validate",
    "cyclotomic_field",
    "dispatch_sum",
    "eulerian",
    "frobenius_number",
    "gap_set",
    "pretty_str",
    "quadratic_field",
    "sieve_representable",
    "sqrt_of",
    "sylvester_number",
    "sylvester_sum",
    "to_element",
    "unweighted_power_sum",
    "validate_generators",
    "weighted_power_sum",
    "weighted_sum_mu1",
    "weighted_sum_mu1_rou",
    "weighted_sum_mu2",
    "zeta",
]
