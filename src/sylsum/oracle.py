"""Brute-force ground truth for every sum.

This module deliberately knows nothing about the closed formulas: it
enumerates the gap set and adds up lambda**n * n**mu term by term with
exact arithmetic.  Tests and the CLI ``verify`` command compare the
dispatcher's output against it.

It is independent of the formulas, not of the Apery set: ``gap_set`` reads
the gaps off ``apery_set``, so a wrong Apery set gives the oracle and the
formulas the same wrong gaps and this check cannot catch it.  The Apery
layer's own independent checks are ``semigroup.sieve_representable`` and
the Dijkstra reference in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import FieldElement, Scalar, to_element
from .semigroup import GeneratorSet, gap_set
from .sums import Formula, SumRequest, dispatch_sum


def brute_force_weighted_sum(A: GeneratorSet, mu: int, lam: Scalar) -> FieldElement:
    """sum of lambda**n * n**mu over every gap n, by direct enumeration."""
    lam = to_element(lam)
    total = lam.field.zero
    power = lam.field.one
    prev = 0
    for n in gap_set(A):
        power = power * lam ** (n - prev)
        prev = n
        total = total + (n**mu) * power
    return total


@dataclass(frozen=True)
class VerificationReport:
    request: SumRequest
    formula_value: FieldElement
    oracle_value: FieldElement
    agrees: bool
    formula_used: Formula
    gap_count: int


def cross_validate(req: SumRequest) -> VerificationReport:
    """Run the dispatcher and the brute-force oracle, compare exactly."""
    result = dispatch_sum(req)
    oracle_value = brute_force_weighted_sum(req.A, req.mu, req.lam)
    return VerificationReport(
        request=req,
        formula_value=result.value,
        oracle_value=oracle_value,
        agrees=result.value == oracle_value,
        formula_used=result.formula_used,
        gap_count=len(gap_set(req.A)),
    )
