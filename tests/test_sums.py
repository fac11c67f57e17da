import random
import re
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sylsum import sums
from sylsum.combinatorics import bernoulli, eulerian
from sylsum.exactnum import (
    FieldElement,
    NumberField,
    ZeroDivisor,
    power_sums,
    quadratic_field,
    to_element,
    zeta,
)
from sylsum.oracle import brute_force_weighted_sum
from sylsum.semigroup import (
    AperySet,
    NotCoprime,
    apery_set,
    gap_set,
    sylvester_number,
    sylvester_sum,
    validate_generators,
)
from sylsum.sums import (
    ConditionNotMet,
    Formula,
    InvalidWeight,
    PreconditionViolated,
    SumRequest,
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

A4 = validate_generators([5, 17, 19, 23])
A3 = validate_generators([3, 11, 17])
OMEGA = quadratic_field(-3).element([Fraction(-1, 2), Fraction(1, 2)])


def random_instances(count, seed, k_max=4, bound=40):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = sorted({rng.randint(2, bound) for _ in range(rng.randint(2, k_max))})
        if len(gens) >= 2 and gcd(*gens) == 1:
            out.append(validate_generators(gens))
    return out


class TestGeneralFormula:
    def test_golden_minus_one(self):
        assert weighted_power_sum(A4, 2, -1).value == -116

    def test_golden_two(self):
        assert weighted_power_sum(A4, 2, 2).value == 2110129433818

    def test_golden_omega(self):
        expected = quadratic_field(-3).element([Fraction(-443, 2), Fraction(391, 2)])
        assert weighted_power_sum(A4, 2, OMEGA).value == expected

    def test_mu_zero_weighted_count(self):
        A = validate_generators([3, 8])
        # sum of 2**n over the gaps {1,2,4,5,7,10,13}
        assert weighted_power_sum(A, 0, 2).value == 9398

    def test_rejects_unit_weight(self):
        with pytest.raises(PreconditionViolated):
            weighted_power_sum(A3, 1, 1)

    def test_rejects_unit_pivot_power(self):
        with pytest.raises(PreconditionViolated):
            weighted_power_sum(validate_generators([4, 6, 9]), 1, zeta(4), pivot=4)

    def test_rejects_zero_weight(self):
        with pytest.raises(PreconditionViolated):
            weighted_power_sum(A3, 1, 0)

    def test_empty_gap_set(self):
        assert weighted_power_sum(validate_generators([1, 4]), 3, 2).value == 0

    @pytest.mark.parametrize("mu", range(0, 4))
    def test_matches_oracle_small(self, mu):
        A = validate_generators([4, 6, 9])
        for lam in (2, -2, Fraction(1, 2), zeta(3)):
            assert weighted_power_sum(A, mu, lam).value == brute_force_weighted_sum(
                A, mu, lam
            )


def rep_power_sums_reference(reps, lam, mu):
    """The generic loop the integer kernel replaced: one lam**m per exponent,
    accumulated as field elements."""
    pows = [lam**m for m in reps]
    sums = []
    for t in range(mu + 1):
        acc = lam.field.zero
        for m, p in zip(reps, pows):
            acc = acc + (m**t) * p  # 0**0 == 1 covers the m = 0 term
        sums.append(acc)
    return sums


small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
nonzero_fractions = st.builds(
    Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 30)
)


def _elements(modulus):
    field = NumberField(modulus)
    return st.lists(
        small_fractions, min_size=field.degree, max_size=field.degree
    ).map(field.element)


NON_INTEGRAL = NumberField([Fraction(1, 2), Fraction(-1, 3), 0, 1])

weights = st.one_of(
    st.integers(-9, 9).filter(bool).map(to_element),  # d = 1
    nonzero_fractions.map(to_element),  # |lambda| below and above 1, both signs
    st.builds(lambda n, k: zeta(n) ** (k % n), st.integers(1, 12), st.integers(0, 11)),
    st.builds(
        lambda d, r0, r1: quadratic_field(d).element([r0, r1]),
        st.sampled_from([-3, -1, 2, 5, 7]),
        small_fractions,
        small_fractions,
    ),
    _elements([-2, 0, 0, 1]),  # cubic
    _elements(NON_INTEGRAL.modulus),  # monic modulus with non-integer coefficients
)
exponent_lists = st.lists(st.integers(0, 40), max_size=12)


class TestPowerSumKernel:
    @settings(deadline=None)
    @given(
        lam=weights,
        reps=st.one_of(exponent_lists, exponent_lists.map(lambda r: [0] + r)),
        mu=st.integers(0, 6),
    )
    @example(
        lam=NON_INTEGRAL.element([Fraction(1, 3), Fraction(-2, 5), 1]),
        reps=[0, 3, 7, 11, 38],
        mu=6,
    )
    def test_matches_generic_loop(self, lam, reps, mu):
        got = power_sums(lam, reps, mu)
        want = rep_power_sums_reference(reps, lam, mu)
        assert [(s.field.modulus, s.coeffs) for s in got] == [
            (s.field.modulus, s.coeffs) for s in want
        ]

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            power_sums(to_element(2), [0, -1], 1)


def general_thm1_reference(A, mu, lam, pivot):
    """Theorem 1 as field-element arithmetic, the loop that
    ``exactnum.eulerian_sum`` replaced: every power, inverse and product of
    L = lam**pivot is formed in the field."""
    La = lam**pivot
    S = power_sums(lam, apery_set(A, pivot).reps, mu)
    d_inv = (La - 1).inverse()
    lam1_inv = (lam - 1).inverse()

    total = lam.field.zero
    d_inv_pow = d_inv
    La_pows = [lam.field.one]
    for _ in range(mu):
        La_pows.append(La_pows[-1] * La)
    for n in range(mu + 1):
        inner = lam.field.zero
        for j in range(n + 1):
            e = eulerian(n, n - j)
            if e:
                inner = inner + e * La_pows[j]
        total = total + ((-pivot) ** n * comb(mu, n)) * d_inv_pow * inner * S[mu - n]
        d_inv_pow = d_inv_pow * d_inv

    tail = lam.field.zero
    lam_pow = lam.field.one
    for j in range(mu + 1):
        e = eulerian(mu, mu - j)
        if e:
            tail = tail + e * lam_pow
        lam_pow = lam_pow * lam
    return total + (-1) ** (mu + 1) * lam1_inv ** (mu + 1) * tail


def unweighted_thm5_reference(A, mu, pivot):
    """Theorem 5 as the Fraction double loop that the integer evaluation
    replaced: one Bernoulli number and one pass over the Apery set per
    (kappa, j)."""
    reps = apery_set(A, pivot).reps
    a = pivot
    total = Fraction(0)
    for kappa in range(mu + 1):
        for j in range(1, kappa + 2):
            inner = sum((reps[i] - i) ** j * reps[i] ** (mu - kappa) for i in range(1, a))
            total += (
                comb(mu, kappa)
                * comb(kappa + 1, j)
                * Fraction((-1) ** (j - 1), kappa + 1)
                * Fraction(a) ** (kappa - j)
                * bernoulli(kappa - j + 1)
                * inner
            )
    return total


generator_sets = (
    st.lists(st.integers(2, 16), min_size=2, max_size=4, unique=True)
    .filter(lambda gens: gcd(*gens) == 1)
    .map(validate_generators)
)
REDUCIBLE = NumberField([-1, 0, 1])  # x**2 - 1 = (x - 1)(x + 1)


class TestTheorem1Evaluation:
    @settings(deadline=None)
    @given(A=generator_sets, lam=weights, mu=st.integers(0, 8))
    # x**2 - 1 is reducible: on pivot 9, lambda**9 - 1 = x - 1 is a zero
    # divisor, and both sides must raise ZeroDivisor with the same message
    @example(A=validate_generators([4, 6, 9]), lam=REDUCIBLE.element([0, 1]), mu=1)
    @example(
        A=validate_generators([5, 7, 9]),
        lam=NON_INTEGRAL.element([Fraction(-2, 3), Fraction(1, 5), Fraction(3, 4)]),
        mu=8,
    )
    def test_matches_field_element_loop(self, A, lam, mu):
        assume(not lam.is_zero())
        pivots = [p for p in A if not (lam**p).is_one()]
        assume(pivots)
        for p in pivots:
            try:
                want = general_thm1_reference(A, mu, lam, p)
            except ZeroDivisor as exc:
                with pytest.raises(ZeroDivisor, match=re.escape(str(exc))):
                    weighted_power_sum(A, mu, lam, pivot=p)
                continue
            got = weighted_power_sum(A, mu, lam, pivot=p).value
            assert (got.field.modulus, got.coeffs) == (want.field.modulus, want.coeffs)


class TestTheorem5Evaluation:
    @settings(deadline=None)
    @given(A=generator_sets, mu=st.integers(0, 40), data=st.data())
    @example(A=validate_generators([2, 3]), mu=40, data=None)
    def test_matches_fraction_loop(self, A, mu, data):
        pivot = 2 if data is None else data.draw(st.sampled_from(sorted(A)))
        got = unweighted_power_sum(A, mu, pivot=pivot).value
        assert got == unweighted_thm5_reference(A, mu, pivot)


class TestSpecializedFormulas:
    def test_mu2_golden(self):
        assert weighted_sum_mu2(A4, -1).value == -116
        assert weighted_sum_mu2(A4, 2).value == 2110129433818

    def test_mu2_empty(self):
        assert weighted_sum_mu2(validate_generators([1, 2]), 2).value == 0

    def test_mu1_golden(self):
        assert weighted_sum_mu1(A3, -2).value == -9008090

    def test_mu1_zeta8_on_3_8(self):
        # both lambda**3 != 1 and the answer lives in the eighth cyclotomic field
        z = zeta(8)
        value = weighted_sum_mu1(validate_generators([3, 8]), z).value
        sqrt2 = z + z**7
        sqrt_m1 = z**2
        assert value == -(4 + 5 * sqrt2) + 12 * (1 - sqrt2) * sqrt_m1

    def test_mu1_empty(self):
        assert weighted_sum_mu1(validate_generators([1, 5]), 3).value == 0

    def test_specialization_coherence(self):
        for A in random_instances(12, seed=31):
            for lam in (2, -3, Fraction(-1, 2), zeta(4)):
                general1 = weighted_power_sum(A, 1, lam)
                assert general1.value == weighted_sum_mu1(A, lam, general1.pivot_used).value
                general2 = weighted_power_sum(A, 2, lam)
                assert general2.value == weighted_sum_mu2(A, lam, general2.pivot_used).value


def mu1_rou_reference(A, lam, pivot):
    """Theorem 4 as the per-residue loop that the Apery power sums
    replaced: lam**i stands in for lam**reps[i], as lam**pivot == 1."""
    reps = apery_set(A, pivot).reps
    a = pivot
    sq = lin = lam.field.zero
    lam_pow = lam.field.one
    for i in range(1, a):
        lam_pow = lam_pow * lam
        sq = sq + (reps[i] * reps[i]) * lam_pow
        lin = lin + reps[i] * lam_pow
    lam1_inv = (lam - 1).inverse()
    return Fraction(1, 2 * a) * sq - Fraction(1, 2) * lin + lam * lam1_inv**2


class TestRootOfUnityFormula:
    @settings(deadline=None)
    @given(A=generator_sets, data=st.data())
    @example(A=validate_generators([5, 6, 15]), data=None)
    def test_matches_residue_loop_and_oracle(self, A, data):
        if data is None:
            lam = to_element(-1)
        else:
            # a root of unity whose order divides some generator, or -1
            b = data.draw(st.sampled_from(sorted(A)))
            n = data.draw(st.sampled_from([n for n in range(2, b + 1) if b % n == 0]))
            k = data.draw(st.integers(1, n - 1))
            lam = data.draw(st.sampled_from([zeta(n) ** k, to_element(-1)]))
        pivots = [a for a in A if (lam**a).is_one()]
        assume(pivots)
        oracle = brute_force_weighted_sum(A, 1, lam)
        for a in pivots:
            result = weighted_sum_mu1_rou(A, lam, pivot=a)
            want = mu1_rou_reference(A, lam, a)
            assert (result.value.field.modulus, result.value.coeffs) == (
                want.field.modulus,
                want.coeffs,
            )
            assert result.value == oracle
            assert result.pivot_used == a

    def test_unit_pivot_power_against_oracle(self):
        A = validate_generators([4, 6, 9])
        lam = zeta(4)
        result = weighted_sum_mu1_rou(A, lam, pivot=4)
        assert result.value == brute_force_weighted_sum(A, 1, lam)
        assert result.pivot_used == 4

    def test_golden_5_15_6(self):
        A = validate_generators([5, 15, 6])
        assert weighted_sum_mu1_rou(A, -1, pivot=6).value == -24

    def test_empty(self):
        assert weighted_sum_mu1_rou(validate_generators([1, 3]), -1).value == 0

    def test_rejects_non_unit_power(self):
        with pytest.raises(PreconditionViolated):
            weighted_sum_mu1_rou(A3, 2, pivot=3)

    def test_agrees_with_general_on_other_pivot(self):
        A = validate_generators([4, 6, 9])
        lam = zeta(4)  # lam**4 == 1 but lam**9 != 1
        via_rou = weighted_sum_mu1_rou(A, lam, pivot=4).value
        via_general = weighted_power_sum(A, 1, lam, pivot=9).value
        assert via_rou == via_general


class TestUnweightedFormula:
    def test_golden_power_sums(self):
        values = [unweighted_power_sum(A3, mu).value for mu in range(1, 6)]
        assert values == [85, 1045, 15205, 241813, 4049725]

    def test_mu_zero_is_genus(self):
        assert unweighted_power_sum(A3, 0).value == 10

    def test_empty(self):
        for mu in range(4):
            assert unweighted_power_sum(validate_generators([1, 9]), mu).value == 0

    def test_lemma_consistency_random(self):
        for A in random_instances(25, seed=47):
            assert unweighted_power_sum(A, 0).value == sylvester_number(A)
            assert unweighted_power_sum(A, 1).value == sylvester_sum(A)

    def test_matches_direct_power_sums(self):
        for A in random_instances(10, seed=53):
            for mu in range(4):
                direct = sum(n**mu for n in gap_set(A))
                assert unweighted_power_sum(A, mu).value == direct

    def test_wrong_apery_set_raises(self, monkeypatch):
        # 17 is not congruent to 1 mod 3, so the gap count comes out as 22/3
        monkeypatch.setattr(sums, "apery_set", lambda A, pivot=None: AperySet(3, (0, 17, 8)))
        with pytest.raises(ArithmeticError):
            unweighted_power_sum(validate_generators([3, 8]), 0)


class TestAlternatingSum:
    def test_3_11_17(self):
        assert alternating_sum(A3).value == -5

    def test_matches_oracle(self):
        assert alternating_sum(A4).value == brute_force_weighted_sum(A4, 1, -1)

    def test_empty(self):
        assert alternating_sum(validate_generators([1, 3])).value == 0

    def test_even_pivot_rejected(self):
        with pytest.raises(PreconditionViolated):
            alternating_sum(validate_generators([4, 7]), pivot=4)

    def test_matches_dispatch(self):
        for A in random_instances(15, seed=61):
            expected = dispatch_sum(SumRequest(A, 1, to_element(-1))).value
            assert alternating_sum(A).value == expected


class TestClosedTwoVar:
    def test_rejects_root_of_unity(self):
        with pytest.raises(PreconditionViolated):
            closed_two_var(3, 8, zeta(8))

    def test_matches_oracle_3_8(self):
        A = validate_generators([3, 8])
        assert closed_two_var(3, 8, 2).value == brute_force_weighted_sum(A, 1, 2)

    def test_single_gap(self):
        assert closed_two_var(2, 3, -2).value == weighted_sum_mu1(
            validate_generators([2, 3]), -2
        ).value
        assert closed_two_var(2, 3, -2).value == -2

    def test_matches_formula_across_weights(self):
        for a, b in [(2, 3), (3, 8), (4, 7), (5, 9), (7, 12)]:
            A = validate_generators([a, b])
            for lam in (2, -2, 3, Fraction(1, 2), Fraction(-3, 2)):
                assert closed_two_var(a, b, lam).value == brute_force_weighted_sum(A, 1, lam)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            closed_two_var(4, 6, 2)


class TestClosedTwoVarDegenerate:
    def test_zeta8_on_3_8(self):
        z = zeta(8)
        value = closed_two_var_degenerate(3, 8, z).value
        assert value == brute_force_weighted_sum(validate_generators([3, 8]), 1, z)
        sqrt2 = z + z**7
        assert value == -(4 + 5 * sqrt2) + 12 * (1 - sqrt2) * z**2

    def test_minus_one_on_3_8(self):
        assert closed_two_var_degenerate(3, 8, -1).value == -10

    def test_single_gap_cube_root(self):
        assert closed_two_var_degenerate(2, 3, zeta(3)).value == zeta(3)

    def test_rejects_wrong_pattern(self):
        with pytest.raises(PreconditionViolated):
            closed_two_var_degenerate(3, 8, 2)  # 2**8 != 1
        with pytest.raises(PreconditionViolated):
            closed_two_var_degenerate(8, 3, zeta(8))  # needs unit power on b


class TestThreeVarContext:
    def test_structure(self):
        ctx = ThreeVarContext(6, 9, 10)
        assert (ctx.gcd_ab, ctx.gcd_ac) == (3, 2)
        assert (ctx.lcm_ab, ctx.lcm_ac) == (18, 30)
        # the lcm identities that make the closed form work
        assert ctx.b * ctx.gcd_ac == ctx.lcm_ab
        assert ctx.c * ctx.gcd_ab == ctx.lcm_ac

    def test_divisibility_required(self):
        with pytest.raises(ConditionNotMet):
            ThreeVarContext(4, 6, 9)

    def test_coprimality_required(self):
        with pytest.raises(NotCoprime):
            ThreeVarContext(4, 6, 10)

    def test_closed_gap_statistics(self):
        from sylsum.semigroup import frobenius_number

        for abc in [(6, 9, 10), (5, 15, 6), (3, 9, 10), (4, 12, 7)]:
            ctx = ThreeVarContext(*abc)
            A = validate_generators(abc)
            assert ctx.frobenius() == frobenius_number(A)
            assert ctx.genus() == sylvester_number(A)
            assert ctx.gap_sum() == sylvester_sum(A)


class TestClosedThreeVar:
    def test_golden_integer_weight(self):
        assert closed_three_var(ThreeVarContext(6, 9, 10), 2).value == 195527810

    def test_golden_quadratic_weight(self):
        lam = quadratic_field(5).element([0, Fraction(-1, 5)])  # -1/sqrt(5)
        expected = quadratic_field(5).element(
            [Fraction(4 * 34971875, 5**12), Fraction(-4 * 22709912, 5**12)]
        )
        assert closed_three_var(ThreeVarContext(6, 9, 10), lam).value == expected

    def test_agrees_with_apery_formula(self):
        ctx = ThreeVarContext(6, 9, 10)
        assert closed_three_var(ctx, 3).value == weighted_sum_mu1(
            validate_generators([6, 9, 10]), 3
        ).value

    def test_rejects_unit_powers(self):
        with pytest.raises(PreconditionViolated):
            closed_three_var(ThreeVarContext(5, 15, 6), -1)  # (-1)**6 == 1


class TestClosedThreeVarDegenerate:
    def test_golden_5_15_6(self):
        assert closed_three_var_degenerate(ThreeVarContext(5, 15, 6), -1).value == -24

    def test_rejects_unit_power_on_b(self):
        with pytest.raises(PreconditionViolated):
            closed_three_var_degenerate(ThreeVarContext(5, 15, 6), zeta(3))

    def test_rejects_nonunit_power_on_c(self):
        with pytest.raises(PreconditionViolated):
            closed_three_var_degenerate(ThreeVarContext(6, 9, 10), 2)

    def test_against_oracle_zeta4(self):
        # (4,6,9): 4 | lcm(6,9)? no -> use (9,6,4): 9 | lcm(6,4) = 12? no.
        # (6,9,10) with zeta(5): powers 6,9 are non-unit, power 10 is unit.
        ctx = ThreeVarContext(6, 9, 10)
        lam = zeta(5)
        value = closed_three_var_degenerate(ctx, lam).value
        assert value == brute_force_weighted_sum(validate_generators([6, 9, 10]), 1, lam)


class TestDispatch:
    def test_routes_to_general(self):
        result = dispatch_sum(SumRequest(A3, 1, to_element(-2)))
        assert result.value == -9008090
        assert result.formula_used is Formula.GENERAL
        assert result.pivot_used == 3

    def test_skips_unit_power_pivot(self):
        A = validate_generators([5, 15, 6])
        result = dispatch_sum(SumRequest(A, 1, to_element(-1)))
        assert result.value == -24
        assert result.formula_used is Formula.GENERAL
        assert result.pivot_used == 5

    def test_unweighted_route(self):
        result = dispatch_sum(SumRequest(validate_generators([2, 3]), 3, to_element(1)))
        assert result.value == 1
        assert result.formula_used is Formula.UNWEIGHTED

    def test_empty_gap_set(self):
        result = dispatch_sum(SumRequest(validate_generators([1, 6]), 2, to_element(5)))
        assert result.value == 0
        assert result.formula_used is Formula.GENERAL
        assert result.pivot_used is None
        result = dispatch_sum(SumRequest(validate_generators([1, 6]), 2, to_element(1)))
        assert result.value == 0
        assert result.formula_used is Formula.UNWEIGHTED
        assert result.pivot_used is None

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidWeight):
            SumRequest(A3, 1, to_element(0))

    def test_pivot_independence(self):
        A = validate_generators([4, 6, 9])
        lam = to_element(Fraction(-1, 2))
        values = {weighted_power_sum(A, 2, lam, pivot=p).value for p in A}
        assert len(values) == 1

    def test_unit_weight_in_extension_field(self):
        # weight given as zeta(8)**8, i.e. 1 in a bigger field
        result = dispatch_sum(SumRequest(A3, 1, zeta(8) ** 8))
        assert result.formula_used is Formula.UNWEIGHTED
        assert result.value == 85


# Every route with a pivot rule, as (A, lam, pivot) -> SumResult; the two
# fixed-weight routes ignore lam.
PIVOT_ROUTES = {
    "general": lambda A, lam, pivot=None: weighted_power_sum(A, 1, lam, pivot),
    "mu1": lambda A, lam, pivot=None: weighted_sum_mu1(A, lam, pivot),
    "mu2": lambda A, lam, pivot=None: weighted_sum_mu2(A, lam, pivot),
    "mu1_rou": lambda A, lam, pivot=None: weighted_sum_mu1_rou(A, lam, pivot),
    "unweighted": lambda A, lam, pivot=None: unweighted_power_sum(A, 2, pivot),
    "alternating": lambda A, lam, pivot=None: alternating_sum(A, pivot),
}


@pytest.fixture
def pow_exponents(monkeypatch):
    """The exponent of every ``FieldElement.__pow__`` call, in call order."""
    seen = []
    power = FieldElement.__pow__

    def counted(self, exponent):
        seen.append(exponent)
        return power(self, exponent)

    monkeypatch.setattr(FieldElement, "__pow__", counted)
    return seen


class TestPivotPower:
    @pytest.mark.parametrize("route", PIVOT_ROUTES)
    @pytest.mark.parametrize("pivot", [0, 7, 10**6])
    @pytest.mark.parametrize("gens", [(3, 5), (1, 4)])  # (1, 4) has no gaps
    def test_non_generator_pivot_rejected_before_any_power(
        self, pow_exponents, route, pivot, gens
    ):
        message = re.escape(f"pivot {pivot} is not a generator of {gens}")
        with pytest.raises(ValueError, match=message):
            PIVOT_ROUTES[route](validate_generators(gens), Fraction(-3, 2), pivot)
        assert pow_exponents == []

    @pytest.mark.parametrize(
        "route, lam, tried",
        [
            # zeta(4)**4 == 1, so 4 is tried and passed over; 6 is taken
            ("general", zeta(4), [4, 6]),
            ("mu1", zeta(4), [4, 6]),
            ("mu2", zeta(4), [4, 6]),
            # zeta(3)**4 != 1, so 4 is passed over; zeta(3)**6 == 1
            ("mu1_rou", zeta(3), [4, 6]),
        ],
    )
    def test_formed_once_per_candidate(self, pow_exponents, route, lam, tried):
        A = validate_generators([4, 6, 9])
        assert PIVOT_ROUTES[route](A, lam).pivot_used == tried[-1]
        assert [pow_exponents.count(a) for a in A] == [int(a in tried) for a in A]

    @pytest.mark.parametrize("route", ["unweighted", "alternating"])
    @pytest.mark.parametrize("gens", [(4, 6, 9), (1000, 1001, 1007, 2003)])
    def test_fixed_weight_routes_form_no_power(self, pow_exponents, route, gens):
        PIVOT_ROUTES[route](validate_generators(gens), None)
        assert pow_exponents == []
