from fractions import Fraction

from sylsum import oracle
from sylsum.exactnum import to_element, zeta
from sylsum.oracle import brute_force_weighted_sum, cross_validate
from sylsum.semigroup import gap_set, validate_generators
from sylsum.sums import Formula, SumRequest


class TestBruteForce:
    def test_term_by_term_golden(self):
        A = validate_generators([3, 11, 17])
        assert brute_force_weighted_sum(A, 1, -2) == -9008090

    def test_three_generator_golden(self):
        A = validate_generators([6, 9, 10])
        assert brute_force_weighted_sum(A, 1, 2) == 195527810

    def test_empty_gap_set(self):
        A = validate_generators([1, 4])
        for mu in range(3):
            assert brute_force_weighted_sum(A, mu, 7) == 0
            assert brute_force_weighted_sum(A, mu, zeta(8)) == 0

    def test_unit_weight_allowed(self):
        A = validate_generators([3, 11, 17])
        assert brute_force_weighted_sum(A, 2, 1) == 1045


class TestCrossValidate:
    def test_golden_four_generators(self):
        report = cross_validate(SumRequest(validate_generators([5, 17, 19, 23]), 2, to_element(-1)))
        assert report.agrees
        assert report.formula_value == -116
        assert report.oracle_value == -116
        assert report.gap_count == 17

    def test_golden_unit_power_case(self):
        report = cross_validate(SumRequest(validate_generators([5, 15, 6]), 1, to_element(-1)))
        assert report.agrees
        assert report.formula_value == -24
        assert report.formula_used is Formula.GENERAL

    def test_single_gap_rational_weight(self):
        report = cross_validate(SumRequest(validate_generators([2, 3]), 0, to_element(Fraction(1, 2))))
        assert report.agrees
        assert report.formula_value == Fraction(1, 2)
        assert report.gap_count == 1

    def test_gap_set_enumerated_once(self, monkeypatch):
        calls = []

        def counting_gap_set(A):
            calls.append(A)
            return gap_set(A)

        monkeypatch.setattr(oracle, "gap_set", counting_gap_set)
        report = cross_validate(SumRequest(validate_generators([6, 9, 10]), 1, to_element(2)))
        assert report.agrees
        assert report.gap_count == 12
        assert len(calls) == 1
