import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sylsum
from sylsum import cli, exactnum, semigroup, sums
from sylsum.cli import ParseError, parse_element, parse_lambda, run_command
from sylsum.exactnum import (
    QQ,
    FieldElement,
    NumberField,
    _int_from_str,
    canonical_str,
    cyclotomic_field,
    element_from_obj,
    element_to_obj,
    pretty_str,
    quadratic_field,
    to_element,
    zeta,
)
from sylsum.oracle import brute_force_weighted_sum
from sylsum.semigroup import AperySet, validate_generators
from sylsum.sums import InvalidWeight, SumRequest, dispatch_sum


fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))


def _elements_of(field):
    return st.lists(fractions, min_size=field.degree, max_size=field.degree).map(field.element)


weight_elements = st.one_of(
    st.integers(1, 15).map(cyclotomic_field).flatmap(_elements_of),
    st.builds(lambda n, k: zeta(n) ** k, st.integers(1, 15), st.integers(0, 14)),
    st.sampled_from([-7, -3, -2, -1, 2, 3, 5, 6, 10]).map(quadratic_field).flatmap(_elements_of),
    st.lists(fractions, min_size=1, max_size=4)
    .map(lambda low: NumberField(low + [1]))
    .flatmap(_elements_of),
)


VIEWS = ["pretty_str", "canonical_str", "element_to_obj"]


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseLambda:
    def test_rational(self):
        assert parse_lambda("-2") == -2
        assert parse_lambda("-3/2") == Fraction(-3, 2)

    def test_zeta(self):
        assert parse_lambda("zeta(8)^1") == zeta(8)
        assert parse_lambda("zeta(8)") == zeta(8)
        assert parse_lambda("zeta(8)^11") == zeta(8) ** 3
        assert parse_lambda("zeta(8)^-1") == zeta(8) ** 7

    def test_quadratic(self):
        lam = parse_lambda("q(5; 0, -1/5)")
        assert lam == quadratic_field(5).element([0, Fraction(-1, 5)])
        # it really is -1/sqrt(5): square must be 1/5
        assert lam * lam == Fraction(1, 5)

    def test_nf(self):
        lam = parse_lambda("nf([-1,0,1]; [0,1])")
        assert lam.field.degree == 2
        assert lam * lam == 1

    def test_zero_rejected(self):
        with pytest.raises(InvalidWeight):
            parse_lambda("0")
        with pytest.raises(InvalidWeight):
            parse_lambda("q(5; 0, 0)")

    @pytest.mark.parametrize("bad", ["", "zeta(0)", "two", "1/0", "q(5; 1)", "nf([2,2]; [1])"])
    def test_parse_errors(self, bad):
        with pytest.raises((ParseError, ValueError)):
            parse_element(bad)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_element("totally wrong")
        assert err.value.position == 0

    @pytest.mark.parametrize(
        "text", ["-3/2", "zeta(8)^3", "q(5; 0, -1/5)", "nf([-1,0,1]; [2,1])", "7"]
    )
    def test_roundtrip_through_canonical_form(self, text):
        lam = parse_lambda(text)
        assert isinstance(lam, FieldElement)
        back = parse_lambda(canonical_str(lam))
        assert back == lam
        assert back.field.modulus == lam.field.modulus

    @given(weight_elements)
    def test_canonical_form_roundtrip_fuzz(self, e):
        back = parse_element(canonical_str(e))
        assert back == e
        assert back.field.modulus == e.field.modulus

    @pytest.mark.parametrize(
        "e",
        [
            to_element(Fraction(3**10000, 2**9000 + 1)),
            quadratic_field(5).element([Fraction(-(7**6000), 5), Fraction(1, 3**9500)]),
            NumberField([Fraction(-(10**5000 + 3), 2**9000), 0, 1]).element([2, -(5**7000)]),
        ],
    )
    def test_canonical_form_roundtrip_beyond_digit_limit(self, e):
        # every value above has a number of over 4,300 digits, past
        # CPython's default limit for int <-> str conversion
        back = parse_element(canonical_str(e))
        assert back == e
        assert back.field.modulus == e.field.modulus


class TestCliContract:
    def test_sum_example(self, capsys):
        code, out, _ = run(capsys, "sum", "--gens", "3,11,17", "--mu", "1", "--lambda", "-2")
        assert code == 0
        assert out.splitlines()[0] == "-9008090"

    @pytest.mark.parametrize(
        "command",
        [
            ("sum", "--gens", "5,7", "--mu", "1"),
            ("verify", "--gens", "5,7", "--mu", "2"),
            ("closed3", "--gens", "6,9,10"),
        ],
    )
    def test_negative_fraction_weight(self, capsys, command):
        code, spaced, _ = run(capsys, *command, "--lambda", "-3/2")
        assert code == 0
        code, glued, _ = run(capsys, *command, "--lambda=-3/2")
        assert code == 0
        assert spaced == glued

    def test_negative_fraction_weight_value(self, capsys):
        A = validate_generators([5, 7])
        for flag in ("--lambda", "--lam"):
            code, out, _ = run(capsys, "sum", "--gens", "5,7", "--mu", "1", flag, "-3/2")
            assert code == 0
            value = parse_element(out.splitlines()[1].removeprefix("canonical: "))
            assert value == brute_force_weighted_sum(A, 1, Fraction(-3, 2))

    def test_closed3_condition_not_met(self, capsys):
        code, out, err = run(capsys, "closed3", "--gens", "4,6,9", "--lambda", "2")
        assert code == 3
        assert "ConditionNotMet" in err
        assert out == ""

    def test_frobenius_example(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--gens", "6,9,10")
        assert code == 0
        assert out.splitlines()[0] == "23"

    def test_frobenius_undefined(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--gens", "1,7")
        assert code == 0
        assert out.splitlines()[0] == "undefined"

    def test_genus_and_gaps(self, capsys):
        code, out, _ = run(capsys, "genus", "--gens", "5,17,19,23")
        assert code == 0 and out.splitlines()[0] == "17"
        code, out, _ = run(capsys, "gaps", "--gens", "3,8")
        assert code == 0 and out.splitlines()[0] == "1,2,4,5,7,10,13"

    def test_apery_with_pivot(self, capsys):
        code, out, _ = run(capsys, "apery", "--gens", "5,17,19,23", "--pivot", "5")
        assert code == 0
        assert out.splitlines()[0] == "0,36,17,23,19"

    def test_quiet_suppresses_metadata(self, capsys):
        _, loud, _ = run(capsys, "sum", "--gens", "3,8", "--mu", "1", "--lambda", "2")
        _, quiet, _ = run(capsys, "sum", "--gens", "3,8", "--mu", "1", "--lambda", "2", "--quiet")
        assert len(loud.splitlines()) > 1
        assert quiet.splitlines() == [loud.splitlines()[0]]

    def test_invalid_gcd_exit_2(self, capsys):
        code, _, err = run(capsys, "sum", "--gens", "4,6", "--mu", "1", "--lambda", "2")
        assert code == 2
        assert "NotCoprime" in err

    def test_zero_weight_exit_2(self, capsys):
        code, _, err = run(capsys, "sum", "--gens", "2,3", "--mu", "1", "--lambda", "0")
        assert code == 2
        assert "InvalidWeight" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "sum", "--gens", "2,3", "--mu", "1", "--lambda", "wat")
        assert code == 2
        assert "ParseError" in err

    def test_quadratic_d_beyond_bound_exit_2(self, capsys):
        weight = "q(1000000000000000000000000000057; 1, 1)"
        code, out, err = run(capsys, "sum", "--gens", "3,5", "--mu", "1", "--lambda", weight)
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["error"] == "InvalidField"
        assert "10**12" in record["message"]

    def test_zero_divisor_exit_4(self, capsys):
        # pivot 2 has x**2 == 1; on 3, L - 1 = x - 1 divides zero, on the
        # dispatched route and on both forced fixed-mu routes
        for mu, forced in [
            ("1", ()),
            ("1", ("--force-formula", "mu1_thm3")),
            ("2", ("--force-formula", "mu2_thm2")),
        ]:
            code, out, err = run(
                capsys, "sum", "--gens", "2,3", "--mu", mu, "--lambda", "nf([-1,0,1]; [0,1])",
                *forced,
            )
            assert (code, out) == (4, ""), forced
            assert json.loads(err) == {
                "error": "ZeroDivisor",
                "message": "<-1+x in Q[x]/(x^2-1)> is a zero divisor modulo x^2-1",
            }

    def test_zero_divisor_on_general_route_exit_4(self, capsys):
        # pivots 4 and 6 have lambda**a == 1; on 9, lambda**9 - 1 = x - 1
        code, _, err = run(
            capsys, "sum", "--gens", "4,6,9", "--mu", "1", "--lambda=nf([-1,0,1];[0,1])"
        )
        assert code == 4
        assert "ZeroDivisor" in err

    def test_internal_invariant_failure_exit_5(self, capsys, monkeypatch):
        # 17 is not congruent to 1 mod 3, so the weight-1 sum fails its
        # integrality check: an internal error, not a traceback
        monkeypatch.setattr(
            semigroup, "apery_power_sums", lambda A, pivot, ks: tuple(sum(m**k for m in (0, 17, 8)) for k in ks)
        )
        code, out, err = run(capsys, "sum", "--gens", "3,8", "--mu", "0", "--lambda", "1")
        assert code == 5
        assert out == ""
        assert json.loads(err)["error"] == "ArithmeticError"

    def test_theorem1_identity_failure_exit_5(self, capsys, monkeypatch):
        # a wrong lambda-term (A_mu off by one) leaves Theorem 1's value
        # non-integral over d**f, which the exact division reports
        homogeneous = exactnum._homogeneous
        monkeypatch.setattr(
            exactnum, "_homogeneous", lambda *args: [x + 1 for x in homogeneous(*args)]
        )
        code, out, err = run(capsys, "sum", "--gens", "5,7", "--mu", "1", "--lambda=-3/2")
        assert (code, out) == (5, "")
        assert json.loads(err) == {
            "error": "ArithmeticError",
            "message": "Theorem 1's value times d**23 is not an integer",
        }

    def test_internal_value_error_exit_5(self, capsys, monkeypatch):
        # a negative Apery element reaches the power-sum kernel, whose
        # "exponents must be nonnegative" is an internal error, not bad input;
        # <3, 4, 5> is an L-shape with a corner, so it reads its Apery list
        monkeypatch.setattr(sums, "apery_set", lambda A, pivot=None: AperySet(3, (0, -4, 8)))
        code, out, err = run(capsys, "sum", "--gens", "3,4,5", "--mu", "1", "--lambda", "2")
        assert (code, out) == (5, "")
        assert json.loads(err) == {"error": "ValueError", "message": "exponents must be nonnegative"}

    @pytest.mark.parametrize("command", ["sum", "verify"])
    def test_negative_mu_exit_2(self, capsys, command):
        code, out, err = run(capsys, command, "--gens", "3,8", "--mu", "-1", "--lambda", "2")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "NegativeMu", "message": "mu must be nonnegative"}

    def test_pivot_not_a_generator_exit_2(self, capsys):
        code, out, err = run(capsys, "apery", "--gens", "5,7", "--pivot", "9")
        assert (code, out) == (2, "")
        message = "pivot 9 is not a generator of (5, 7)"
        assert json.loads(err) == {"error": "NotAGenerator", "message": message}

    @pytest.mark.parametrize("gens", ["3,11,17", "1,6"])
    @pytest.mark.parametrize("mu", ["0", "1", "3"])
    def test_unit_weight_result_stays_in_weight_field(self, capsys, gens, mu):
        # weight 1 given in Q(zeta_8): every route answers in that field
        code, out, _ = run(
            capsys, "sum", "--gens", gens, "--mu", mu, "--lambda", "zeta(8)^8", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["result"]["label"] == "Q(zeta_8)"

    def test_minus_one_result_stays_in_weight_field(self, capsys):
        code, out, _ = run(
            capsys, "sum", "--gens", "3,11,17", "--mu", "1", "--lambda", "zeta(4)^2",
            "--force-formula", "alternating_cor1", "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["label"] == "Q(zeta_4)"
        assert result["coeffs"] == ["-5", "0"]

    def test_precondition_exit_3(self, capsys):
        code, _, err = run(
            capsys, "closed3", "--gens", "5,15,6", "--lambda", "zeta(3)"
        )
        assert code == 3
        assert "PreconditionViolated" in err

    def test_errors_are_single_line_json(self, capsys):
        _, _, err = run(capsys, "sum", "--gens", "4,6", "--mu", "1", "--lambda", "2")
        record = json.loads(err.strip())
        assert record["error"] == "NotCoprime"


class TestJsonOutput:
    def test_envelope_shape_and_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "sum", "--gens", "5,17,19,23", "--mu", "2",
            "--lambda", "q(-3; -1/2, 1/2)", "--format", "json",
        )
        assert code == 0
        envelope = json.loads(out)
        assert list(envelope) == [
            "command", "inputs", "result", "formula_used", "pivot", "elapsed_ms",
        ]
        assert envelope["command"] == "sum"
        assert envelope["inputs"]["gens"] == [5, 17, 19, 23]
        value = element_from_obj(envelope["result"])
        expected = quadratic_field(-3).element([Fraction(-443, 2), Fraction(391, 2)])
        assert value == expected
        assert envelope["formula_used"] == "general_thm1"
        assert envelope["pivot"] == 5
        # the embedded text form parses back to the same value
        assert parse_element(envelope["result"]["text"]) == expected

    def test_sum_and_verify_agree(self, capsys):
        _, sum_out, _ = run(
            capsys, "sum", "--gens", "6,9,10", "--mu", "1", "--lambda", "2",
            "--format", "json",
        )
        code, verify_out, _ = run(
            capsys, "verify", "--gens", "6,9,10", "--mu", "1", "--lambda", "2",
            "--format", "json",
        )
        assert code == 0
        sum_env = json.loads(sum_out)
        verify_env = json.loads(verify_out)
        assert verify_env["result"]["agrees"] is True
        assert verify_env["result"]["formula_value"]["coeffs"] == sum_env["result"]["coeffs"]
        assert element_from_obj(verify_env["result"]["oracle_value"]) == 195527810

    def test_result_beyond_int_str_digit_limit(self, capsys):
        # the numerator has 69,666 digits, past CPython's default limit of
        # 4,300 for int <-> str conversion; no process-wide setting changes
        args = ("--gens", "1000,1001,1007,2003", "--mu", "1", "--lambda=-3/2")
        code, out, err = run(capsys, "sum", *args, "--format", "json")
        assert code == 0, err
        value = element_from_obj(json.loads(out)["result"])
        A = validate_generators([1000, 1001, 1007, 2003])
        assert value == dispatch_sum(SumRequest(A, 1, to_element(Fraction(-3, 2)))).value

    def test_weight_beyond_int_str_digit_limit(self, capsys):
        num, den = "-" + "3" * 5000, "7" * 4999 + "1"
        args = ("sum", "--gens", "3,5", "--mu", "1", f"--lambda={num}/{den}", "--format", "json")
        code, out, err = run(capsys, *args)
        assert code == 0, err
        lam = to_element(Fraction(_int_from_str(num), _int_from_str(den)))
        value = dispatch_sum(SumRequest(validate_generators([3, 5]), 1, lam)).value
        assert element_from_obj(json.loads(out)["result"]) == value

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv, values",
        [
            (("sum", "--gens", "5,7,9", "--mu", "2", "--lambda", "q(5; 0, -1/5)"), 1),
            (("closed3", "--gens", "6,10,15", "--lambda", "-3/2"), 1),
            (("verify", "--gens", "6,9,10", "--mu", "1", "--lambda", "-3/2"), 2),
        ],
    )
    def test_each_view_rendered_once(self, capsys, monkeypatch, argv, values, fmt):
        # the text lines read the views _value_obj already rendered, and a
        # value in Q reuses its one coefficient string as text and pretty
        views = ["element_to_obj"] if argv[-1] == "-3/2" else VIEWS
        calls = []
        for name in VIEWS:
            render = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda e, name=name, render=render: calls.append(name) or render(e)
            )
        code, _, err = run(capsys, *argv, "--format", fmt)
        assert code == 0, err
        assert sorted(calls) == sorted(views * values)

    @pytest.mark.parametrize(
        "value",
        [
            QQ.from_rational(Fraction(-(3**10000), 2**15000)),  # 4,772 and 4,516 digits
            QQ.from_rational(-(7**6000)),
            QQ.from_rational(Fraction(5, 7)),
            NumberField([Fraction(-3, 2), 1]).from_rational(Fraction(-(3**10000), 2**15000)),
        ],
    )
    def test_rational_value_views_match_renderers(self, value):
        # a value in Q renders once; the others still go through each renderer
        obj = cli._value_obj(value)
        assert obj == dict(
            element_to_obj(value), text=canonical_str(value), pretty=pretty_str(value)
        )

    def test_gaps_json(self, capsys):
        _, out, _ = run(capsys, "gaps", "--gens", "6,9,10", "--format", "json")
        assert json.loads(out)["result"] == [1, 2, 3, 4, 5, 7, 8, 11, 13, 14, 17, 23]


class TestForceFormula:
    def test_force_each_applicable_formula(self, capsys):
        cases = [
            ("general_thm1", ["3,8"], "1", "2"),
            ("mu2_thm2", ["3,8"], "2", "2"),
            ("mu1_thm3", ["3,8"], "1", "2"),
            ("mu1_rou_thm4", ["4,6,9"], "1", "zeta(4)"),
            ("unweighted_thm5", ["3,8"], "3", "1"),
            ("alternating_cor1", ["3,8"], "1", "-1"),
            ("two_var_closed", ["3,8"], "1", "2"),
            ("two_var_degenerate", ["3,8"], "1", "zeta(8)"),
            ("three_var_thm6", ["6,9,10"], "1", "2"),
            ("three_var_thm7", ["3,9,10"], "1", "-1"),
            ("oracle", ["3,8"], "2", "-2"),
        ]
        for name, gens, mu, lam in cases:
            code, out, err = run(
                capsys, "sum", "--gens", gens[0], "--mu", mu, "--lambda", lam,
                "--force-formula", name, "--format", "json",
            )
            assert code == 0, (name, err)
            envelope = json.loads(out)
            assert envelope["formula_used"] == name
            A = validate_generators([int(t) for t in gens[0].split(",")])
            expected = brute_force_weighted_sum(A, int(mu), parse_element(lam))
            assert element_from_obj(envelope["result"]) == expected

    def test_forced_mu2_golden(self, capsys):
        code, out, _ = run(
            capsys, "sum", "--gens", "6,9,10", "--mu", "2", "--lambda", "q(5; 1/2, 1/3)",
            "--force-formula", "mu2_thm2",
        )
        assert code == 0
        assert out.splitlines() == [
            "(40891393315931915564823+18287223599025283648822*sqrt(5))/789730223053602816",
            "canonical: q(5; 13630464438643971854941/263243407684534272,"
            " 9143611799512641824411/394865111526801408)",
            "formula: mu2_thm2",
            "pivot: 6",
        ]

    def test_forced_formula_still_checks_preconditions(self, capsys):
        code, _, err = run(
            capsys, "sum", "--gens", "3,8", "--mu", "1", "--lambda", "zeta(8)",
            "--force-formula", "two_var_closed",
        )
        assert code == 3
        assert "PreconditionViolated" in err

    def test_zero_divisor_off_the_pivot_gives_the_value(self, capsys):
        # lambda**4 - 1 divides zero modulo x**2 - 1, but two_var_closed runs
        # Theorem 1 at pivot 3, which inverts only lambda**3 - 1 and lambda - 1
        lam = "nf([-1,0,1]; [1/2,-3/2])"
        code, out, err = run(
            capsys, "sum", "--gens", "3,4", "--mu", "1", "--lambda", lam,
            "--force-formula", "two_var_closed", "--format", "json",
        )
        assert code == 0, err
        envelope = json.loads(out)
        assert envelope["formula_used"] == "two_var_closed"
        want = brute_force_weighted_sum(validate_generators([3, 4]), 1, parse_element(lam))
        assert element_from_obj(envelope["result"]) == want

    def test_forced_formula_mu_mismatch(self, capsys):
        code, _, _ = run(
            capsys, "sum", "--gens", "3,8", "--mu", "3", "--lambda", "2",
            "--force-formula", "mu2_thm2",
        )
        assert code == 3

    def test_forced_formula_arity_mismatch(self, capsys):
        code, _, _ = run(
            capsys, "sum", "--gens", "3,8,13", "--mu", "1", "--lambda", "2",
            "--force-formula", "two_var_closed",
        )
        assert code == 3

    def test_forced_oracle_rejects_negative_mu(self, capsys):
        code, _, err = run(
            capsys, "sum", "--gens", "3,8", "--mu", "-1", "--lambda", "2",
            "--force-formula", "oracle",
        )
        assert code == 2
        assert json.loads(err)["error"] == "NegativeMu"

    @pytest.mark.parametrize(
        "name, gens, mu, lam",
        [
            ("mu2_thm2", "3,8", "1", "2"),
            ("mu1_thm3", "3,8", "2", "2"),
            ("mu1_rou_thm4", "4,6,9", "2", "zeta(4)"),
            ("unweighted_thm5", "3,8", "1", "2"),
            ("alternating_cor1", "3,8", "1", "2"),
            ("two_var_closed", "3,8", "3", "2"),
            ("two_var_degenerate", "3,8,13", "1", "zeta(8)"),
            ("three_var_thm6", "6,9,10", "2", "2"),
            ("three_var_thm7", "3,9,10", "2", "-1"),
        ],
    )
    def test_forced_formula_outside_declared_domain(self, capsys, name, gens, mu, lam):
        # each formula computes one fixed mu, generator count or weight only
        code, out, err = run(
            capsys, "sum", "--gens", gens, "--mu", mu, "--lambda", lam,
            "--force-formula", name,
        )
        assert code == 3, (name, out)
        assert json.loads(err)["error"] in ("PreconditionViolated", "ConditionNotMet")


class TestClosed3Command:
    def test_routes_to_plain_form(self, capsys):
        code, out, _ = run(capsys, "closed3", "--gens", "6,9,10", "--lambda", "2")
        assert code == 0
        assert out.splitlines()[0] == "195527810"

    def test_routes_to_degenerate_form(self, capsys):
        code, out, _ = run(
            capsys, "closed3", "--gens", "5,15,6", "--lambda", "-1", "--format", "json"
        )
        assert code == 0
        envelope = json.loads(out)
        assert envelope["formula_used"] == "three_var_thm7"
        assert element_from_obj(envelope["result"]) == -24

    def test_generator_order_is_preserved(self, capsys):
        # 10 does not divide lcm(6,9) = 18, so a leading 10 must be rejected
        code, _, err = run(capsys, "closed3", "--gens", "10,6,9", "--lambda", "2")
        assert code == 3
        assert "ConditionNotMet" in err

    def test_needs_three_generators(self, capsys):
        code, _, _ = run(capsys, "closed3", "--gens", "3,8", "--lambda", "2")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_each_power_of_lambda_formed_once(self, capsys, pow_exponents, fmt):
        argv = ["closed3", "--gens", "6,10,15", "--lambda=-3/2", "--format", fmt]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        # the units pattern of three_var_thm6 holds; Theorem 1 at pivot 6
        # reads lambda**6 from it, and 2 squares 1/(lambda-1)
        assert pow_exponents == [6, 10, 15, 2]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_degenerate_form_forms_each_power_once(self, capsys, pow_exponents, fmt):
        argv = ["closed3", "--gens", "5,15,6", "--lambda", "-1", "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "three_var_thm7" in out
        # three_var_thm6 fails on (-1)**6 == 1, and three_var_thm7 reuses all
        # three powers; lcm(5,15) = 15 is one of them
        assert pow_exponents == [5, 15, 6, 2]

    def test_order_beyond_the_search_bound(self, capsys):
        # x has order 30 in Q[x]/(Phi_5 * Phi_6), of degree 6, so x**30 == 1
        # is found by the power itself, not by an order search
        lam = "nf([1,0,1,1,1,0,1]; [0,1])"
        argv = ["closed3", "--gens", "7,14,30", "--lambda", lam, "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        envelope = json.loads(out)
        assert envelope["formula_used"] == "three_var_thm7"
        expected = brute_force_weighted_sum(validate_generators([7, 14, 30]), 1, parse_element(lam))
        assert element_from_obj(envelope["result"]) == expected

    def test_zero_divisor_factors_exit_4(self, capsys):
        # x has order 30 modulo Phi_5 * Phi_6, and x**6 - 1 divides zero
        # there: Theorem 1 at pivot 6 cannot invert lambda**6 - 1
        lam = "nf([1,0,1,1,1,0,1]; [0,1])"
        code, out, err = run(capsys, "closed3", "--gens", "6,9,10", "--lambda", lam)
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"] == "ZeroDivisor"

    def test_generator_one_has_no_gaps(self, capsys):
        code, out, err = run(capsys, "closed3", "--gens", "1,6,9", "--lambda", "1")
        assert code == 0, err
        assert out.splitlines()[0] == "0"

    def test_nonpositive_generator(self, capsys):
        code, _, err = run(capsys, "closed3", "--gens", "0,6,9", "--lambda", "2")
        assert code == 2
        assert json.loads(err)["error"] == "NonPositive"


def test_verify_exit_zero_iff_agrees(capsys):
    code, out, _ = run(capsys, "verify", "--gens", "5,17,19,23", "--mu", "2", "--lambda", "-1")
    assert code == 0
    assert out.splitlines()[0] == "true"


SRC = Path(sylsum.__file__).resolve().parent.parent


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports ``sylsum`` from this source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestEntryPoint:
    """``python -m sylsum`` in a fresh process: ``__main__`` and cold start."""

    def test_genus_json(self):
        proc = _python("-m", "sylsum", "genus", "--gens", "5,7", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"] == 12

    def test_invalid_input_exit_2(self):
        proc = _python(
            "-m", "sylsum", "sum", "--gens", "4,6", "--mu", "1", "--lambda=2", "--format", "json"
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "NotCoprime"

    def test_closed_stdout_exits_141_without_traceback(self):
        # the reader stops after a few bytes of about 480 kB, as `| head -c 10` does
        # leaving the with block closes both pipes
        with subprocess.Popen(
            [sys.executable, "-m", "sylsum", "gaps", "--gens", "400,401", "--format", "text"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.read(10) == b"1,2,3,4,5,"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert (proc.wait(timeout=120), stderr) == (141, b"")

    def test_import_loads_no_dataclasses(self):
        # the CLI's imports add neither module to what a bare interpreter has
        probe = "import sys{}; print(*sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
        bare = _python("-c", probe.format(""))
        cli = _python("-c", probe.format(", sylsum.cli"))
        assert cli.returncode == 0, cli.stderr
        assert set(cli.stdout.split()) <= set(bare.stdout.split())
