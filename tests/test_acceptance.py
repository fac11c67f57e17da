"""Acceptance suite: every criterion is exact (zero tolerance) and prints
one pass/fail line.  Run with ``pytest tests/test_acceptance.py -s``."""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, gcd

import pytest

from sylsum.cli import parse_element, run_command
from sylsum.combinatorics import bernoulli, eulerian, faulhaber_sum
from sylsum.exactnum import (
    element_from_obj,
    quadratic_field,
    to_element,
    zeta,
)
from sylsum.oracle import brute_force_weighted_sum, cross_validate
from sylsum.semigroup import (
    apery_set,
    frobenius_number,
    gap_set,
    sylvester_number,
    sylvester_sum,
    validate_generators,
)
from sylsum.sums import (
    Formula,
    PreconditionViolated,
    SumRequest,
    ThreeVarContext,
    alternating_sum,
    closed_three_var,
    closed_three_var_degenerate,
    closed_two_var_degenerate,
    dispatch_sum,
    unweighted_power_sum,
    weighted_power_sum,
    weighted_sum_mu1,
    weighted_sum_mu1_rou,
    weighted_sum_mu2,
)
from test_sums import mu1_thm3_reference, mu2_thm2_reference


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL: {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS: {description}")


def random_instances(count, seed, k_max=4, bound=40):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = sorted({rng.randint(2, bound) for _ in range(rng.randint(2, k_max))})
        if len(gens) >= 2 and gcd(*gens) == 1:
            out.append(validate_generators(gens))
    return out


def test_criterion_1_general_and_mu2_golden_values():
    with criterion(1, "mu=2 golden values on (5,17,19,23)"):
        A = validate_generators([5, 17, 19, 23])
        omega = quadratic_field(-3).element([Fraction(-1, 2), Fraction(1, 2)])
        expected_omega = quadratic_field(-3).element([Fraction(-443, 2), Fraction(391, 2)])
        for lam, expected in ((-1, -116), (2, 2110129433818), (omega, expected_omega)):
            assert weighted_power_sum(A, 2, lam).value == expected
            assert weighted_sum_mu2(A, lam).value == expected


def test_criterion_2_mu1_golden_values():
    with criterion(2, "mu=1 golden values: (3,11,17) at -2 and (3,8) at zeta(8)"):
        assert weighted_sum_mu1(validate_generators([3, 11, 17]), -2).value == -9008090

        z = zeta(8)
        A = validate_generators([3, 8])
        via_degenerate = closed_two_var_degenerate(3, 8, z).value
        via_oracle = brute_force_weighted_sum(A, 1, z)
        via_apery = weighted_sum_mu1(A, z).value
        assert via_degenerate == via_oracle == via_apery
        # radical form with sqrt(2) = zeta8 + zeta8^7 and sqrt(-1) = zeta8^2;
        # the imaginary coefficient is 12*(1 - sqrt(2)), see the decisions
        # ledger for the sign analysis
        sqrt2 = z + z**7
        sqrt_m1 = z**2
        assert via_degenerate == -(4 + 5 * sqrt2) + 12 * (1 - sqrt2) * sqrt_m1


def test_criterion_3_unweighted_golden_values():
    with criterion(3, "weight-1 power sums on (3,11,17), mu = 1..5"):
        A = validate_generators([3, 11, 17])
        expected = [85, 1045, 15205, 241813, 4049725]
        assert [unweighted_power_sum(A, mu).value for mu in range(1, 6)] == expected


def test_criterion_4_three_variable_golden_values():
    with criterion(4, "three-generator closed forms on (6,9,10) and (5,15,6)"):
        ctx = ThreeVarContext(6, 9, 10)
        assert closed_three_var(ctx, 2).value == 195527810
        lam = quadratic_field(5).element([0, Fraction(-1, 5)])
        expected = quadratic_field(5).element(
            [Fraction(4 * 34971875, 5**12), Fraction(-4 * 22709912, 5**12)]
        )
        assert closed_three_var(ctx, lam).value == expected
        assert closed_three_var_degenerate(ThreeVarContext(5, 15, 6), -1).value == -24


def test_criterion_5_apery_golden_values():
    with criterion(5, "Apery set, frobenius, genus, gap list of (5,17,19,23)"):
        A = validate_generators([5, 17, 19, 23])
        assert apery_set(A, 5).reps == (0, 36, 17, 23, 19)
        assert frobenius_number(A) == 31
        assert sylvester_number(A) == 17
        assert list(gap_set(A)) == [
            1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 16, 18, 21, 26, 31,
        ]


def test_criterion_6_two_generator_classical_identities():
    with criterion(6, "classical identities for all coprime 2 <= a < b <= 30"):
        for a in range(2, 31):
            for b in range(a + 1, 31):
                if gcd(a, b) != 1:
                    continue
                A = validate_generators([a, b])
                assert frobenius_number(A) == (a - 1) * (b - 1) - 1
                assert 2 * sylvester_number(A) == (a - 1) * (b - 1)
                assert 12 * sylvester_sum(A) == (a - 1) * (b - 1) * (2 * a * b - a - b - 1)


def test_criterion_7_randomized_oracle_equivalence():
    with criterion(7, ">= 200 random instances: dispatch equals brute force"):
        weights = [
            to_element(2), to_element(-2), to_element(3), to_element(-3),
            to_element(Fraction(1, 2)), to_element(Fraction(-1, 2)),
            to_element(-1), zeta(3), zeta(4), zeta(5), zeta(8),
        ]
        rng = random.Random(777)
        instances = random_instances(200, seed=999)
        checked = 0
        for A in instances:
            lam = rng.choice(weights)
            mu = rng.randint(0, 3)
            report = cross_validate(SumRequest(A, mu, lam))
            assert report.agrees, (A.gens, mu, lam)
            checked += 1
            # degenerate pivots must be rejected, never silently mis-evaluated
            if not (lam ** A.min).is_one():
                continue
            with pytest.raises(PreconditionViolated):
                weighted_power_sum(A, mu, lam, pivot=A.min)
        assert checked >= 200


def test_criterion_8_cross_formula_coherence():
    with criterion(8, "independent formulas agree wherever both apply"):
        instances = random_instances(15, seed=555)

        # general formula vs Theorems 3 and 2 as the paper writes them
        for A in instances[:8]:
            for lam in map(to_element, (2, Fraction(-1, 2), zeta(4))):
                r1 = weighted_power_sum(A, 1, lam)
                assert r1.value == mu1_thm3_reference(A, lam, r1.pivot_used)
                r2 = weighted_power_sum(A, 2, lam)
                assert r2.value == mu2_thm2_reference(A, lam, r2.pivot_used)

        # root-of-unity pivot form vs the general form on an alternate pivot
        A = validate_generators([4, 6, 9])
        assert (
            weighted_sum_mu1_rou(A, zeta(4), pivot=4).value
            == weighted_power_sum(A, 1, zeta(4), pivot=9).value
        )
        B = validate_generators([5, 15, 6])
        assert (
            weighted_sum_mu1_rou(B, -1, pivot=6).value
            == weighted_power_sum(B, 1, -1, pivot=5).value
        )

        # three-generator closed forms vs the Apery-based formula
        ctx = ThreeVarContext(6, 9, 10)
        for lam in (2, 3, -2, Fraction(1, 2)):
            assert (
                closed_three_var(ctx, lam).value
                == weighted_sum_mu1(validate_generators([6, 9, 10]), lam).value
            )
        assert (
            closed_three_var_degenerate(ThreeVarContext(5, 15, 6), -1).value
            == weighted_sum_mu1(validate_generators([5, 15, 6]), -1).value
        )

        # alternating corollary vs dispatch at weight -1
        for A in instances:
            assert (
                alternating_sum(A).value
                == dispatch_sum(SumRequest(A, 1, to_element(-1))).value
            )

        # weight-1 formula vs the gap statistics
        for A in instances:
            assert unweighted_power_sum(A, 0).value == sylvester_number(A)
            assert unweighted_power_sum(A, 1).value == sylvester_sum(A)


def test_criterion_9_combinatorics_invariants():
    with criterion(9, "Eulerian and Bernoulli invariants, Faulhaber sums"):
        for n in range(1, 10):
            assert sum(eulerian(n, m) for m in range(n + 1)) == factorial(n)
            for k in range(n):
                assert eulerian(n, k) == eulerian(n, n - k - 1)
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        for n in range(3, 22, 2):
            assert bernoulli(n) == 0
        for kappa in range(7):
            for ell in range(51):
                assert faulhaber_sum(ell, kappa) == sum(
                    j**kappa for j in range(1, ell + 1)
                )


def test_criterion_10_cli_contract(capsys):
    with criterion(10, "CLI examples, exit codes, JSON reparse"):
        code = run_command(["sum", "--gens", "3,11,17", "--mu", "1", "--lambda", "-2"])
        out = capsys.readouterr().out
        assert code == 0 and out.splitlines()[0] == "-9008090"

        code = run_command(["closed3", "--gens", "4,6,9", "--lambda", "2"])
        err = capsys.readouterr().err
        assert code == 3 and "ConditionNotMet" in err

        code = run_command(["frobenius", "--gens", "6,9,10"])
        out = capsys.readouterr().out
        assert code == 0 and out.splitlines()[0] == "23"

        # JSON output re-parses to the identical exact value
        code = run_command(
            ["sum", "--gens", "3,8", "--mu", "1", "--lambda", "zeta(8)",
             "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        envelope = json.loads(out)
        value = element_from_obj(envelope["result"])
        expected = brute_force_weighted_sum(validate_generators([3, 8]), 1, zeta(8))
        assert value == expected
        assert parse_element(envelope["result"]["text"]) == expected
        assert envelope["formula_used"] == Formula.GENERAL.value

        code = run_command(
            ["verify", "--gens", "5,15,6", "--mu", "1", "--lambda", "-1"]
        )
        out = capsys.readouterr().out
        assert code == 0 and out.splitlines()[0] == "true"
