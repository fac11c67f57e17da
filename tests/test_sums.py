import random
import re
from fractions import Fraction
from math import comb, gcd
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sylsum import exactnum, semigroup, sums
from sylsum.combinatorics import bernoulli, eulerian
from sylsum.exactnum import (
    DivideByZero,
    FieldElement,
    NumberField,
    ZeroDivisor,
    canonical_str,
    power_sums,
    quadratic_field,
    to_element,
    zeta,
)
from sylsum.oracle import brute_force_weighted_sum
from sylsum.semigroup import (
    NotCoprime,
    apery_set,
    frobenius_number,
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
# degree 1 with a modulus other than x: c = 2, g = (-3, 1), and x == 3/2
LINEAR = NumberField([Fraction(-3, 2), 1])

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
    nonzero_fractions.map(LINEAR.from_rational),
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


def mu2_thm2_reference(A, lam, pivot):
    """Theorem 2 (mu = 2) as the paper writes it, combined from normalised
    field elements: the reference for the mu2_thm2 route, which evaluates
    Theorem 1 at mu = 2."""
    a = pivot
    s0, s1, s2 = power_sums(lam, apery_set(A, a).reps, 2)
    L = lam**a
    d_inv = (L - 1).inverse()
    lam1_inv = (lam - 1).inverse()
    return (
        d_inv * s2
        - 2 * a * L * d_inv**2 * s1
        + a * a * L * (L + 1) * d_inv**3 * s0
        - lam * (lam + 1) * lam1_inv**3
    )


def mu1_thm3_reference(A, lam, pivot):
    """Theorem 3 (mu = 1) as the paper writes it, combined from normalised
    field elements: the reference for the mu1_thm3 route, which evaluates
    Theorem 1 at mu = 1."""
    a = pivot
    s0, s1 = power_sums(lam, apery_set(A, a).reps, 1)
    L = lam**a
    d_inv = (L - 1).inverse()
    lam1_inv = (lam - 1).inverse()
    return d_inv * s1 - a * L * d_inv**2 * s0 + lam * lam1_inv**2


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


FINITE_ORDER_WEIGHTS = st.one_of(
    st.builds(lambda n, k: zeta(n) ** (k % n), st.integers(1, 12), st.integers(0, 11)),
    st.just(to_element(-1)),
    st.sampled_from([1, -1]).map(lambda r1: quadratic_field(-1).element([0, r1])),
    st.builds(
        lambda r0, r1: quadratic_field(-3).element([r0, r1]),
        st.sampled_from([Fraction(1, 2), Fraction(-1, 2)]),
        st.sampled_from([Fraction(1, 2), Fraction(-1, 2)]),
    ),
    st.just(REDUCIBLE.element([0, 1])),  # x**2 == 1
)
INFINITE_ORDER_WEIGHTS = st.sampled_from(
    [
        to_element(2),
        to_element(-2),
        quadratic_field(2).element([1, 1]),
        quadratic_field(5).element([Fraction(1, 2), Fraction(1, 2)]),
        NumberField([-2, 0, 0, 1]).generator,
        LINEAR.generator,  # 3/2 as y/2, y == 3
    ]
)


class TestPowerSumProviders:
    """``power_sums`` takes residue buckets when lambda has a finite order it
    has checked, and the Horner walk for every other weight."""

    @settings(deadline=None)
    @given(
        lam=st.one_of(FINITE_ORDER_WEIGHTS, INFINITE_ORDER_WEIGHTS),
        # repeated exponents and exponent 0 included
        reps=st.one_of(exponent_lists, exponent_lists.map(lambda r: [0, 0] + r + r)),
        mu=st.integers(0, 6),
    )
    def test_provider_follows_the_order(self, lam, reps, mu):
        walks = []
        walk = exactnum._apery_horner

        def spy(*args):
            walks.append(args)
            return walk(*args)

        with patch.object(exactnum, "_apery_horner", spy):
            got = power_sums(lam, reps, mu)
        want = rep_power_sums_reference(reps, lam, mu)
        assert [s.coeffs for s in got] == [s.coeffs for s in want]
        finite = any((lam**r).is_one() for r in range(1, 13))
        assert len(walks) == (0 if finite or not reps else 1)

    def test_walk_builds_gap_powers_from_smaller_gaps(self):
        # degree 2: a degree-1 weight walks on ints and forms no vector powers
        lam = quadratic_field(2).element([1, 1])
        exps = sorted(apery_set(validate_generators([1000, 1001, 1007, 2003])).reps, reverse=True)
        gaps = {m - n for m, n in zip(exps, exps[1:] + [0])} - {0}
        calls = []
        ipower = exactnum._ipower

        def spy(*args):
            calls.append(args)
            return ipower(*args)

        with patch.object(exactnum, "_ipower", spy):
            H, scale = exactnum._apery_horner(lam, exps, 1)
        assert 0 < len(calls) < len(gaps)
        assert [FieldElement(lam.field, h, scale) for h in H] == power_sums(lam, exps, 1)


def _grid(shape):
    """The grid {step: count} of a row or rectangle shape, as
    ``semigroup.apery_grid`` gives it above its size rule."""
    b, c, alpha, _, beta, _ = shape
    return {s: n for s, n in ((b, alpha), (c, beta)) if n > 1}


def _invertible(x):
    try:
        x.inverse()
    except (ZeroDivisor, DivideByZero):
        return False
    return True


# pairs, and triples (p*q, p*x, q*y) with gcd(p, q) = 1, so that p*q | lcm(b, c)
row_and_rectangle_sets = st.one_of(
    st.lists(st.integers(2, 30), min_size=2, max_size=2, unique=True),
    st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(1, 9), st.integers(1, 9))
    .filter(lambda t: gcd(t[0], t[1]) == 1)
    .map(lambda t: [t[0] * t[1], t[0] * t[2], t[1] * t[3]]),
).filter(lambda gens: gcd(*gens) == 1).map(validate_generators)
GRID_WEIGHTS = st.one_of(
    nonzero_fractions.map(to_element),
    st.builds(
        lambda d, r0, r1: quadratic_field(d).element([r0, r1]),
        st.sampled_from([-3, 2, 5]),
        small_fractions,
        small_fractions,
    ),
    _elements([-2, 0, 0, 1]),  # cubic
    _elements(NON_INTEGRAL.modulus),
    _elements(REDUCIBLE.modulus),  # lambda**s - 1 can divide zero
)


def _grids_and_walks(A, lam, mu):
    """(grid, its ``_grid_sums``, the walk's (H, D)) at every pivot of A
    whose Apery set is a row or a rectangle; the walk runs on the grid's
    elements, which must be that Apery set."""
    for pivot in A:
        _, shape = semigroup._closed_shape(A, pivot, weighted=True)
        if shape is None:
            continue
        grid = _grid(shape)
        elements = [0]
        for s, n in grid.items():
            elements = [m + x * s for x in range(n) for m in elements]
        assert sorted(elements) == sorted(apery_set(A, pivot).reps)
        walk = exactnum._apery_horner(lam, sorted(elements, reverse=True), mu)
        yield grid, exactnum._grid_sums(lam, grid, mu), walk


def _same_sums(lam, closed, walk):
    """The two (H, D) are equal: as integers in degree 1, else as S[t] = H_t / D."""
    if lam.field.degree == 1:
        return closed == walk
    return [FieldElement(lam.field, h, closed[1]) for h in closed[0]] == [
        FieldElement(lam.field, h, walk[1]) for h in walk[0]
    ]


class TestGridProvider:
    """Rows and rectangles: ``exactnum._grid_sums`` gives the walk's H."""

    @settings(deadline=None)
    @given(A=row_and_rectangle_sets, lam=GRID_WEIGHTS, mu=st.integers(0, 8))
    @example(A=validate_generators([3, 4]), lam=REDUCIBLE.element([Fraction(1, 2), Fraction(-3, 2)]), mu=1)
    @example(A=validate_generators([6, 10, 15]), lam=to_element(Fraction(-3, 2)), mu=8)
    def test_closed_form_equals_the_walk_at_every_pivot(self, A, lam, mu):
        assume(not lam.is_zero())
        for grid, closed, walk in _grids_and_walks(A, lam, mu):
            if closed is None:
                assert not all(_invertible(lam**s - 1) for s in grid)
            else:
                assert _same_sums(lam, closed, walk)

    @settings(deadline=None)
    @given(
        A=row_and_rectangle_sets,
        lam=st.one_of(
            st.just(to_element(-1)),
            st.builds(lambda n, k: zeta(n) ** (k % n), st.integers(1, 12), st.integers(0, 11)),
        ),
        mu=st.integers(0, 8),
    )
    # at pivot 6, step 10 has ratio (-1)**10 == 1, and both steps have
    # ratio 1 for zeta(5); the row of <4, 7> at pivot 4 has ratio
    # lambda**7 == 1 for every power of zeta(7)
    @example(A=validate_generators([6, 10, 15]), lam=to_element(-1), mu=3)
    @example(A=validate_generators([6, 10, 15]), lam=zeta(5), mu=2)
    @example(A=validate_generators([4, 7]), lam=zeta(7) ** 3, mu=8)
    def test_ratio_one_steps_equal_the_walk(self, A, lam, mu):
        # in a field, lambda**s - 1 is 0 or a unit: no grid declines, and a
        # step with lambda**s == 1 sums F_j
        for _, closed, walk in _grids_and_walks(A, lam, mu):
            assert closed is not None and _same_sums(lam, closed, walk)

    def test_remainder_raises(self):
        # a wrong determinant leaves a remainder in the division by delta - Z
        with patch.object(exactnum, "_adjugate", lambda q, g: ([1], q[0] + 1)):
            with pytest.raises(ArithmeticError, match="remainder"):
                exactnum._grid_sums(to_element(Fraction(-3, 2)), {37: 23}, 1)


class TestGridRoute:
    """Which source ``sums._general`` reads: a grid above the size rule of
    ``semigroup._closed_shape``, else the Apery list and the walk."""

    @pytest.fixture
    def reads(self, monkeypatch):
        seen = {"apery_set": 0, "walk": 0}
        build, walk = semigroup.apery_set, exactnum._apery_horner

        def build_spy(A, pivot=None):
            seen["apery_set"] += 1
            return build(A, pivot)

        def walk_spy(*args):
            seen["walk"] += 1
            return walk(*args)

        monkeypatch.setattr(semigroup, "apery_set", build_spy)
        monkeypatch.setattr(sums, "apery_set", build_spy)
        monkeypatch.setattr(exactnum, "_apery_horner", walk_spy)
        return seen

    @pytest.mark.parametrize(
        "gens, mus",
        [((23, 37), range(4)), ((37, 23), range(4)), ((42, 44, 63), range(1, 4))],
        ids=["pair", "pair-at-37", "grid-triple"],
    )
    @pytest.mark.parametrize(
        "lam",
        [to_element(Fraction(-3, 2)), quadratic_field(5).element([Fraction(1, 2), Fraction(1, 2)])],
        ids=["-3/2", "q5"],
    )
    def test_above_the_rule_reads_no_list(self, reads, gens, mus, lam):
        A = validate_generators(gens)
        want = [brute_force_weighted_sum(A, mu, lam) for mu in mus]
        reads.update(apery_set=0, walk=0)
        for mu, value in zip(mus, want):
            result = weighted_power_sum(A, mu, lam, gens[0])
            assert (result.value, result.formula_used, result.pivot_used) == (value, Formula.GENERAL, gens[0])
        assert reads == {"apery_set": 0, "walk": 0}

    @pytest.mark.parametrize(
        "gens, mu", [((4, 11), 40), ((18, 19, 22), 1)], ids=["below-the-rule", "l-shape"]
    )
    def test_below_the_rule_or_with_a_corner_walks(self, reads, gens, mu):
        A, lam = validate_generators(gens), to_element(Fraction(-3, 2))
        want = brute_force_weighted_sum(A, mu, lam)
        reads.update(apery_set=0, walk=0)
        assert dispatch_sum(SumRequest(A, mu, lam)).value == want
        assert reads == {"apery_set": 1, "walk": 1}

    @pytest.mark.parametrize("gens, builds", [((3, 4), 1), ((9, 14), 0)])
    def test_zero_divisor_step_walks(self, reads, gens, builds):
        # lambda = -1 at x = 1, so lambda**4 - 1 and lambda**14 - 1 divide
        # zero; <9, 14> is above the rule, and its list is written from the row
        A, lam = validate_generators(gens), REDUCIBLE.element([Fraction(1, 2), Fraction(-3, 2)])
        want = brute_force_weighted_sum(A, 1, lam)
        reads.update(apery_set=0, walk=0)
        result = dispatch_sum(SumRequest(A, 1, lam))
        assert (result.value, result.formula_used, result.pivot_used) == (want, Formula.GENERAL, gens[0])
        assert reads == {"apery_set": builds, "walk": 1}


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
    # in degree 1 the value times d**F is reduced by gcds with d: F = 2 and
    # d = 2 leave an integer, or 0 (gaps 1, 2: -1/2 + 2/4); F = 39 and
    # d = 12 cancel both primes of d
    @example(A=validate_generators([3, 4, 5]), lam=to_element(Fraction(3, 2)), mu=1)
    @example(A=validate_generators([3, 4, 5]), lam=to_element(Fraction(-1, 2)), mu=1)
    @example(A=validate_generators([5, 11]), lam=to_element(Fraction(7, 12)), mu=3)
    @example(A=validate_generators([3, 5, 7]), lam=LINEAR.from_rational(Fraction(-1, 2)), mu=2)
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
            assert got.den > 0 and gcd(got.den, *got.num) == 1  # == reads num and den

    @settings(deadline=None)
    @given(A=generator_sets, lam=weights)
    # the (A, lambda) examples of test_matches_field_element_loop, and x of
    # the reducible x**2 - 1 on <2, 3>, where pivot 3 meets x - 1
    @example(A=validate_generators([4, 6, 9]), lam=REDUCIBLE.element([0, 1]))
    @example(A=validate_generators([2, 3]), lam=REDUCIBLE.element([0, 1]))
    @example(
        A=validate_generators([5, 7, 9]),
        lam=NON_INTEGRAL.element([Fraction(-2, 3), Fraction(1, 5), Fraction(3, 4)]),
    )
    @example(A=validate_generators([3, 4, 5]), lam=to_element(Fraction(3, 2)))
    @example(A=validate_generators([3, 4, 5]), lam=to_element(Fraction(-1, 2)))
    @example(A=validate_generators([5, 11]), lam=to_element(Fraction(7, 12)))
    @example(A=validate_generators([3, 5, 7]), lam=LINEAR.from_rational(Fraction(-1, 2)))
    def test_fixed_mu_routes_match_theorems_2_and_3(self, A, lam):
        assume(not lam.is_zero())
        pivots = [p for p in A if not (lam**p).is_one()]
        assume(pivots)
        for route, reference in (
            (weighted_sum_mu1, mu1_thm3_reference),
            (weighted_sum_mu2, mu2_thm2_reference),
        ):
            for p in pivots:
                try:
                    want = reference(A, lam, p)
                except ZeroDivisor as exc:
                    with pytest.raises(ZeroDivisor, match=f"^{re.escape(str(exc))}$"):
                        route(A, lam, pivot=p)
                    continue
                got = route(A, lam, pivot=p).value
                assert (got.field.modulus, got.coeffs) == (want.field.modulus, want.coeffs)

    def test_wrong_tail_raises(self, monkeypatch):
        # in degree 1, _homogeneous forms only A_mu(lambda), the tail's
        # numerator; the forced Theorem 3 and 2 routes run the same check
        homogeneous = exactnum._homogeneous
        monkeypatch.setattr(
            exactnum, "_homogeneous", lambda *args: [x + 1 for x in homogeneous(*args)]
        )
        A = validate_generators([5, 7])
        with pytest.raises(ArithmeticError, match="is not an integer"):
            weighted_power_sum(A, 1, Fraction(-3, 2))
        for route in (weighted_sum_mu1, weighted_sum_mu2):
            with pytest.raises(ArithmeticError, match="is not an integer"):
                route(A, Fraction(-3, 2))

    @pytest.mark.parametrize(
        "formula, mu", [(Formula.MU1, 1), (Formula.MU2, 2), (Formula.ALTERNATING, 1)]
    )
    def test_fixed_mu_routes_run_theorem_1(self, monkeypatch, formula, mu):
        # one Theorem 1 evaluation at the route's pivot, and no S[t] formed
        # apart; Corollary 1 runs at its own weight -1, where the pivot 5 is odd
        lam = sums.ROUTES[formula].weight or Fraction(-3, 2)
        pivots, power_sum_calls = [], []
        evaluator, power_sums_ = sums.eulerian_sum, sums.power_sums
        monkeypatch.setattr(
            sums, "eulerian_sum", lambda *args: pivots.append(args[3]) or evaluator(*args)
        )
        monkeypatch.setattr(
            sums, "power_sums", lambda *args: power_sum_calls.append(args) or power_sums_(*args)
        )
        result = sums.evaluate(formula, A4, mu, lam)
        assert (result.formula_used, result.pivot_used) == (formula, 5)
        assert (pivots, power_sum_calls) == ([5], [])
        assert result.value == brute_force_weighted_sum(A4, mu, lam)

    def test_no_gcd_of_two_long_integers(self, monkeypatch):
        # the value has about 231,000 bits; its denominator is 2**F
        calls = []
        spied = exactnum.gcd

        def spy(*args):
            calls.append(sorted(x.bit_length() for x in args))
            return spied(*args)

        monkeypatch.setattr(exactnum, "gcd", spy)
        A = validate_generators([1000, 1001, 1007, 2003])
        value = weighted_power_sum(A, 1, Fraction(-3, 2)).value
        assert value.den.bit_length() > 10_000
        assert calls and not any(len(bits) > 1 and bits[-2] > 10_000 for bits in calls)


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
            for lam in map(to_element, (2, -3, Fraction(-1, 2), zeta(4))):
                general1 = weighted_power_sum(A, 1, lam)
                assert general1.value == mu1_thm3_reference(A, lam, general1.pivot_used)
                general2 = weighted_power_sum(A, 2, lam)
                assert general2.value == mu2_thm2_reference(A, lam, general2.pivot_used)


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
            gaps = gap_set(A)
            assert unweighted_power_sum(A, 0).value == sylvester_number(A) == len(gaps)
            assert unweighted_power_sum(A, 1).value == sylvester_sum(A) == sum(gaps)

    def test_matches_direct_power_sums(self):
        for A in random_instances(10, seed=53):
            for mu in range(4):
                direct = sum(n**mu for n in gap_set(A))
                assert unweighted_power_sum(A, mu).value == direct

    def test_wrong_apery_set_raises(self, monkeypatch):
        # 17 is not congruent to 1 mod 3, so the gap count comes out as 22/3
        monkeypatch.setattr(
            semigroup, "apery_power_sums", lambda A, pivot, ks: tuple(sum(m**k for m in (0, 17, 8)) for k in ks)
        )
        with pytest.raises(ArithmeticError):
            unweighted_power_sum(validate_generators([3, 8]), 0)

    @pytest.mark.parametrize(
        "gens, builds", [((97, 131, 163), 0), ((7, 11), 0), ((1000, 1001, 1007, 2003), 1)]
    )
    def test_pairs_and_l_shapes_build_no_apery_list(self, monkeypatch, gens, builds):
        A = validate_generators(gens)
        gaps = gap_set(A)
        calls = []
        build = semigroup.apery_set

        def spy(A, pivot=None):
            calls.append(pivot)
            return build(A, pivot)

        monkeypatch.setattr(semigroup, "apery_set", spy)
        monkeypatch.setattr(sums, "apery_set", spy)
        for mu in range(3):
            assert dispatch_sum(SumRequest(A, mu, 1)).value == sum(n**mu for n in gaps)
            assert len(calls) == builds
            calls.clear()
        for statistic, want in [
            (sylvester_number, len(gaps)),
            (sylvester_sum, sum(gaps)),
            (frobenius_number, max(gaps)),
        ]:
            assert statistic(A) == want
            assert len(calls) == builds
            calls.clear()


def alternating_reference(A, pivot):
    """Corollary 1 as the per-element loop that ``power_sums`` replaced."""
    reps = apery_set(A, pivot).reps
    signed = sum((-1) ** reps[i] * reps[i] for i in range(1, pivot))
    signs = sum((-1) ** reps[i] for i in range(1, pivot))
    return Fraction(-signed, 2) + Fraction(pivot * signs, 4) + Fraction(pivot - 1, 4)


class TestAlternatingSum:
    def test_3_11_17(self):
        assert alternating_sum(A3).value == -5

    @settings(deadline=None)
    @given(A=generator_sets, data=st.data())
    def test_matches_reference_and_oracle(self, A, data):
        pivot = data.draw(st.sampled_from([a for a in A if a % 2]))  # coprime: one is odd
        value = alternating_sum(A, pivot).value
        assert value == alternating_reference(A, pivot)
        assert value == brute_force_weighted_sum(A, 1, -1)

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


def two_var_reference(A, lam):
    """The paper's two-generator closed form as normalised field elements:
    the reference for the two_var_closed route, which evaluates Theorem 1
    on the row of a."""
    power = lam.__pow__
    a, b = A
    pa, pb, pab = power(a), power(b), power(a * b)
    inv_a = (pa - 1).inverse()
    inv_b = (pb - 1).inverse()
    lam1_inv = (lam - 1).inverse()
    return (
        lam * lam1_inv**2
        + (a * b) * pab * inv_a * inv_b
        - (pab - 1) * ((a + b) * pa * pb - a * pa - b * pb) * inv_a**2 * inv_b**2
    )


def two_var_degenerate_reference(A, lam):
    """The paper's form for lambda**b == 1: the reference for the
    two_var_degenerate route."""
    power = lam.__pow__
    a, b = A
    pa = power(a)
    inv_a = (pa - 1).inverse()
    lam1_inv = (lam - 1).inverse()
    return lam * lam1_inv**2 + Fraction((a - 1) * a * b, 2) * inv_a - (a * a) * pa * inv_a**2


def three_var_reference(A, lam):
    """Theorem 6 as normalised field elements: the reference for the
    three_var_thm6 route, which evaluates Theorem 1 on the rectangle of a."""
    power = lam.__pow__
    ctx = ThreeVarContext(*A)
    a, b, c = ctx.a, ctx.b, ctx.c
    pa, pb, pc = power(a), power(b), power(c)
    l1, l2 = ctx.lcm_ab, ctx.lcm_ac
    q1, q2 = power(l1) - 1, power(l2) - 1
    # each factor inverted on its own: their product is 0 when a reducible
    # modulus makes them zero divisors, and ``inverse`` names the factor
    inv_a, inv_b, inv_c = (pa - 1).inverse(), (pb - 1).inverse(), (pc - 1).inverse()
    den_inv = inv_a * inv_b * inv_c
    lam1_inv = (lam - 1).inverse()
    head = (l1 * q2 + l2 * q1 + (l1 + l2 - a - b - c) * q1 * q2) * den_inv
    harmonic = a * inv_a + b * inv_b + c * inv_c
    return head - q1 * q2 * den_inv * harmonic + lam * lam1_inv**2


def three_var_degenerate_reference(A, lam):
    """Theorem 7 (lambda**c == 1) as normalised field elements: the
    reference for the three_var_thm7 route."""
    power = lam.__pow__
    ctx = ThreeVarContext(*A)
    a, b, c = ctx.a, ctx.b, ctx.c
    pa, pb = power(a), power(b)
    l1, l2 = ctx.lcm_ab, ctx.lcm_ac
    inv_a, inv_b = (pa - 1).inverse(), (pb - 1).inverse()
    inv_ab = inv_a * inv_b
    lam1_inv = (lam - 1).inverse()
    inner = Fraction(2 * l1 + l2 - 2 * a - 2 * b - c, 2) - a * inv_a - b * inv_b
    return (
        Fraction(l2, c) * (power(l1) - 1) * inv_ab * inner
        + Fraction(l1 * l2, c) * inv_ab
        + lam * lam1_inv**2
    )


# in-order triples (p*q, p*x, q*y) with gcd(p, q) = 1, so that the first
# divides the lcm of the other two
lcm_triples = (
    st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(1, 9), st.integers(1, 9))
    .filter(lambda t: gcd(t[0], t[1]) == 1)
    .map(lambda t: (t[0] * t[1], t[0] * t[2], t[1] * t[3]))
    .filter(lambda abc: gcd(*abc) == 1 and len(set(abc)) == 3)
)


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

    @pytest.mark.parametrize("a, b", [(3, 4), (9, 14), (5, 8)])
    def test_zero_divisor_on_b_gives_the_value(self, a, b):
        # lambda is -1 at x = 1 and 2 at x = -1, so lambda**b - 1 divides
        # zero for an even b while lambda**a - 1 is a unit: the paper's form
        # cannot invert it, and Theorem 1 at pivot a never does
        lam = REDUCIBLE.element([Fraction(1, 2), Fraction(-3, 2)])
        with pytest.raises(ZeroDivisor):
            two_var_reference((a, b), lam)
        assert closed_two_var(a, b, lam).value == brute_force_weighted_sum(validate_generators([a, b]), 1, lam)


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
        # a set that holds 1 has no gaps, and -1 for its Frobenius number
        for abc in [(6, 9, 10), (5, 15, 6), (3, 9, 10), (4, 12, 7), (2, 1, 4), (1, 6, 9)]:
            ctx = ThreeVarContext(*abc)
            gaps = gap_set(validate_generators(abc))
            assert ctx.frobenius() == max(gaps, default=-1)
            assert ctx.genus() == len(gaps)
            assert ctx.gap_sum() == sum(gaps)

    @settings(deadline=None)
    @given(abc=lcm_triples)
    def test_statistics_match_gap_set(self, abc):
        ctx = ThreeVarContext(*abc)
        gaps = gap_set(validate_generators(abc))
        assert (ctx.frobenius(), ctx.genus(), ctx.gap_sum()) == (max(gaps), len(gaps), sum(gaps))


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


def _order_three_in_reducible_ring():
    """A weight of order 3 in Q[x]/((x^2+x+1)(x^2+3x+3)): it is zeta_3 in both
    factors (x and x+1 are their roots of x^2+x+1), so lambda**g - 1 is a
    unit or 0, never a zero divisor."""
    x = NumberField([3, 6, 7, 4, 1]).element([0, 1])
    return x - Fraction(1, 2) * (x + 1) ** 2 * (x**2 + x + 1)


# generators in the order the closed forms read them; each triple has
# gcd 1 and its first generator divides the lcm of the other two
CLOSED_PAIRS = [(2, 3), (3, 8), (8, 3), (4, 7), (5, 9), (3, 10), (6, 7), (10, 3)]
CLOSED_TRIPLES = [
    (6, 9, 10), (5, 15, 6), (3, 9, 10), (4, 12, 7), (6, 10, 15), (10, 6, 15), (4, 7, 12), (2, 4, 3),
]
CLOSED_WEIGHTS = [to_element(w) for w in (2, -1, Fraction(-3, 2), Fraction(1, 2), 1)] + [
    zeta(3), zeta(4), zeta(5) ** 2, zeta(6), zeta(8) ** 3, zeta(10) ** 3,
    NumberField([-4, 0, 1]).element([0, 1]),  # x with x^2 = 4: no power is 1
    _order_three_in_reducible_ring(),
]


class TestClosedRouteUnits:
    """Each closed form runs exactly where its declared ``units`` pattern holds."""

    def test_declared_patterns(self):
        assert sums.ROUTES[Formula.TWO_VAR].units == (False, False)
        assert sums.ROUTES[Formula.TWO_VAR_DEGENERATE].units == (False, True)
        assert sums.ROUTES[Formula.THREE_VAR].units == (False, False, False)
        assert sums.ROUTES[Formula.THREE_VAR_DEGENERATE].units == (False, False, True)

    @pytest.mark.parametrize("lam", CLOSED_WEIGHTS, ids=canonical_str)
    @pytest.mark.parametrize(
        "formula",
        [Formula.TWO_VAR, Formula.TWO_VAR_DEGENERATE, Formula.THREE_VAR, Formula.THREE_VAR_DEGENERATE],
        ids=lambda f: f.value,
    )
    def test_value_iff_pattern_holds(self, formula, lam):
        units = sums.ROUTES[formula].units
        for gens in CLOSED_PAIRS if len(units) == 2 else CLOSED_TRIPLES:
            if all((lam**g).is_one() == unit for g, unit in zip(gens, units)):
                result = sums.evaluate(formula, gens, 1, lam)
                assert result.formula_used is formula
                assert result.pivot_used is None
                assert result.value == brute_force_weighted_sum(validate_generators(gens), 1, lam)
            else:
                with pytest.raises(PreconditionViolated, match=f"^{formula.value} needs lambda"):
                    sums.evaluate(formula, gens, 1, lam)

    def test_message_is_generated_from_the_declaration(self):
        with pytest.raises(PreconditionViolated) as info:
            closed_two_var(3, 8, zeta(8))
        assert str(info.value) == "two_var_closed needs lambda**3 != 1, lambda**8 != 1"

    def test_first_applicable_form_runs(self):
        pair = (Formula.THREE_VAR, Formula.THREE_VAR_DEGENERATE)
        assert sums.evaluate(pair, (6, 9, 10), 1, 2).formula_used is Formula.THREE_VAR
        result = sums.evaluate(pair, (5, 15, 6), 1, -1)
        assert (result.formula_used, result.value) == (Formula.THREE_VAR_DEGENERATE, -24)

    def test_order_beyond_the_search_bound(self):
        # Q[x]/(Phi_5 * Phi_6) has degree 6, and x has order 30 there, beyond
        # the 18 an order search by phi(r) <= degree reaches
        lam = NumberField([1, 0, 1, 1, 1, 0, 1]).element([0, 1])
        pair = (Formula.THREE_VAR, Formula.THREE_VAR_DEGENERATE)
        result = sums.evaluate(pair, (7, 14, 30), 1, lam)
        assert result.formula_used is Formula.THREE_VAR_DEGENERATE
        assert result.value == brute_force_weighted_sum(validate_generators([7, 14, 30]), 1, lam)

    def test_no_form_applies(self):
        pair = (Formula.TWO_VAR, Formula.TWO_VAR_DEGENERATE)
        with pytest.raises(PreconditionViolated) as info:
            sums.evaluate(pair, (3, 8), 1, 1)
        assert str(info.value) == (
            "two_var_closed needs lambda**3 != 1, lambda**8 != 1; "
            "two_var_degenerate needs lambda**3 != 1, lambda**8 == 1"
        )

    def test_body_error_is_not_a_fallback(self):
        # 4 does not divide lcm(6, 9): the oracle after it must not run
        with pytest.raises(ConditionNotMet):
            sums.evaluate((Formula.THREE_VAR, Formula.ORACLE), (4, 6, 9), 1, 2)

    def test_single_form_keeps_its_error_type(self):
        with pytest.raises(ConditionNotMet, match="needs exactly 2 generators"):
            sums.evaluate(Formula.TWO_VAR, (3, 8, 13), 1, 2)


CLOSED_REFERENCES = {
    Formula.TWO_VAR: two_var_reference,
    Formula.TWO_VAR_DEGENERATE: two_var_degenerate_reference,
    Formula.THREE_VAR: three_var_reference,
    Formula.THREE_VAR_DEGENERATE: three_var_degenerate_reference,
}
ZERO_DIVISOR_WEIGHT = REDUCIBLE.element([Fraction(1, 2), Fraction(-3, 2)])  # -1 at x = 1, 2 at x = -1


class TestClosedFormsRunTheorem1:
    """Each closed route is Theorem 1 on its row or rectangle, equal to the
    paper's form wherever that form can invert its factors."""

    @settings(deadline=None)
    @given(
        gens=st.one_of(
            st.sampled_from(CLOSED_PAIRS + CLOSED_TRIPLES),
            st.tuples(st.integers(2, 30), st.integers(2, 30)).filter(lambda ab: gcd(*ab) == 1 < ab[0]),
            lcm_triples,
        ),
        lam=st.one_of(
            st.sampled_from(CLOSED_WEIGHTS + [ZERO_DIVISOR_WEIGHT]),
            FINITE_ORDER_WEIGHTS,
            INFINITE_ORDER_WEIGHTS,
            GRID_WEIGHTS,
        ),
    )
    # lambda**b - 1 divides zero, lambda**a - 1 does not
    @example(gens=(3, 4), lam=ZERO_DIVISOR_WEIGHT)
    @example(gens=(9, 14), lam=ZERO_DIVISOR_WEIGHT)
    @example(gens=(5, 8), lam=ZERO_DIVISOR_WEIGHT)
    # x has order 30 modulo Phi_5 * Phi_6, and lambda**a - 1 = x**6 - 1
    # divides zero: both sides raise
    @example(gens=(6, 7), lam=NumberField([1, 0, 1, 1, 1, 0, 1]).element([0, 1]))
    # the in-order degenerate examples of the spy test below
    @example(gens=(1001, 1000), lam=zeta(8))
    @example(gens=(1001, 231, 221), lam=zeta(17))
    def test_route_equals_its_reference(self, gens, lam):
        assume(not lam.is_zero())
        formulas = [
            f for f, route in sums.ROUTES.items()
            if f in CLOSED_REFERENCES
            and len(route.units) == len(gens)
            and all((lam**g).is_one() == unit for g, unit in zip(gens, route.units))
        ]
        assume(formulas)
        (formula,) = formulas
        try:
            want = CLOSED_REFERENCES[formula](gens, lam)
        except ZeroDivisor as exc:
            if not (_invertible(lam ** gens[0] - 1) and _invertible(lam - 1)):
                with pytest.raises(ZeroDivisor, match=f"^{re.escape(str(exc))}$"):
                    sums.evaluate(formula, gens, 1, lam)
                return
            want = brute_force_weighted_sum(validate_generators(gens), 1, lam)
        result = sums.evaluate(formula, gens, 1, lam)
        assert (result.formula_used, result.pivot_used) == (formula, None)
        assert (result.value.field.modulus, result.value.coeffs) == (want.field.modulus, want.coeffs)

    def test_no_list_walk_or_ladder(self, monkeypatch):
        cases = [
            (closed_two_var_degenerate, (1001, 1000), zeta(8), two_var_degenerate_reference),
            (closed_three_var_degenerate, (1001, 231, 221), zeta(17), three_var_degenerate_reference),
        ]
        want = [reference(gens, lam) for _, gens, lam, reference in cases]

        def forbid(owner, name):
            def spy(*args):
                raise AssertionError(f"a closed form called {name}")

            monkeypatch.setattr(owner, name, spy)

        for owner, name in [
            (semigroup, "apery_set"),
            (sums, "apery_set"),
            (exactnum, "_apery_horner"),
            (exactnum, "order_ladder"),
            (sums, "order_ladder"),
        ]:
            forbid(owner, name)
        # the largest gap n = F, odd, alone has the denominator 2**F; the
        # value itself is held to Theorem 1 at pivot 1013 in the large tier
        assert closed_two_var(1009, 1013, Fraction(-3, 2)).value.den == 2 ** (1009 * 1013 - 1009 - 1013)
        assert closed_two_var_degenerate(1001, 1000, zeta(8)).value == want[0]
        assert closed_three_var_degenerate(ThreeVarContext(1001, 231, 221), zeta(17)).value == want[1]


class TestOracleRoute:
    @pytest.mark.parametrize(
        "gens, mu, lam",
        [([3, 8], 2, -2), ([5, 7, 9], 1, Fraction(-3, 2)), ([4, 6, 9], 3, zeta(4)), ([1, 4], 2, 3)],
    )
    def test_evaluate_runs_the_oracle(self, gens, mu, lam):
        A = validate_generators(gens)
        result = sums.evaluate(Formula.ORACLE, A, mu, lam)
        assert result.value == brute_force_weighted_sum(A, mu, lam)
        assert result.formula_used is Formula.ORACLE
        assert result.formula_used.value == "oracle"
        assert result.pivot_used is None


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


# weights of finite order, each within the order ladder's bound
LADDER_WEIGHTS = st.one_of(
    st.builds(lambda n, k: zeta(n) ** (k % n), st.integers(1, 30), st.integers(0, 29)),
    st.just(quadratic_field(-3).element([Fraction(1, 2), Fraction(1, 2)])),
    st.just(to_element(-1)),
)


class TestOrderLadder:
    """A weight of finite order has its powers and its unit inverses read off
    one order ladder; each must equal what the general path forms."""

    @settings(deadline=None)
    @given(lam=LADDER_WEIGHTS, exponents=st.lists(st.integers(0, 200), max_size=6))
    def test_memo_power_is_the_field_power(self, lam, exponents):
        power = sums._Powers(lam)
        assert power.ladder()
        for e in exponents:
            got, want = power(e), FieldElement.__pow__(lam, e)
            assert (got.num, got.den) == (want.num, want.den)

    @settings(deadline=None)
    @given(lam=LADDER_WEIGHTS, s=st.integers(0, 200))
    def test_ladder_inverse_is_the_field_inverse(self, lam, s):
        coords = exactnum._ladder_coords(exactnum.order_ladder(lam), lam.den)
        x = lam**s
        try:
            want = (x - 1).inverse()
        except (DivideByZero, ZeroDivisor) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                exactnum._inverse_minus_one(x, s, lam, coords)
            return
        got = exactnum._inverse_minus_one(x, s, lam, coords)
        assert (got.num, got.den) == (want.num, want.den)

    @settings(deadline=None)
    @given(A=generator_sets, lam=LADDER_WEIGHTS, mu=st.integers(0, 4), data=st.data())
    def test_sums_match_brute_force(self, A, lam, mu, data):
        want = brute_force_weighted_sum(A, mu, lam)
        assert dispatch_sum(SumRequest(A, mu, lam)).value == want
        pivots = [p for p in A if not (lam**p).is_one()]
        if pivots:
            pivot = data.draw(st.sampled_from(pivots))
            assert weighted_power_sum(A, mu, lam, pivot).value == want

    def test_general_route_inverts_nothing(self, inverse_calls):
        result = weighted_power_sum(A4, 3, zeta(7) ** 3)
        assert inverse_calls == []
        assert result.value == brute_force_weighted_sum(A4, 3, zeta(7) ** 3)

    def test_zero_divisor_keeps_its_message(self):
        # x has order 2 modulo x**2 - 1, and x - 1 divides zero: the ladder
        # sum 1 + x is not 0, so the inverse falls back to Bareiss
        lam = REDUCIBLE.element([0, 1])
        assert len(exactnum.order_ladder(lam)) == 2
        message = "<-1+x in Q[x]/(x^2-1)> is a zero divisor modulo x^2-1"
        with pytest.raises(ZeroDivisor, match=f"^{re.escape(message)}$"):
            dispatch_sum(SumRequest(validate_generators([2, 3]), 1, lam))

    def test_fixed_weight_route_builds_no_ladder(self, monkeypatch):
        ladders = []
        monkeypatch.setattr(sums, "order_ladder", lambda lam: ladders.append(lam) or [])
        assert unweighted_power_sum(A4, 2).value == sum(n * n for n in gap_set(A4))
        assert ladders == []

    @pytest.mark.parametrize("lam", [Fraction(-3, 2), zeta(7)])
    def test_closed_forms_build_no_ladder(self, monkeypatch, lam):
        # a closed form needs a few powers of lambda, formed by __pow__; an
        # order search could cost up to _max_order(degree) products
        want2 = brute_force_weighted_sum(validate_generators([3, 5]), 1, lam)
        want3 = brute_force_weighted_sum(validate_generators([6, 10, 15]), 1, lam)
        ladders = []
        monkeypatch.setattr(sums, "order_ladder", lambda lam: ladders.append(lam) or [])
        assert closed_two_var(3, 5, lam).value == want2
        assert closed_three_var(ThreeVarContext(6, 10, 15), lam).value == want3
        assert ladders == []


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

    def test_dispatch_forms_each_pivot_power_once(self, pow_exponents):
        # unweighted_thm5 is passed over on its weight; general_thm1 reads the
        # power its pivot search formed
        A = validate_generators([4, 6, 9])
        assert dispatch_sum(SumRequest(A, 1, zeta(4))).pivot_used == 6
        assert [pow_exponents.count(a) for a in A] == [1, 1, 0]

    @pytest.mark.parametrize("route", ["unweighted", "alternating"])
    @pytest.mark.parametrize("gens", [(4, 6, 9), (1000, 1001, 1007, 2003)])
    def test_fixed_weight_routes_form_no_power(self, pow_exponents, route, gens):
        # the pivot rules read the int weight**a and form no power; the
        # weight-1 body forms none either, while the alternating body
        # (Theorem 1) forms lambda**a at its pivot, the least odd generator,
        # and the tail's 1/(lambda-1)**2
        formed = {(4, 6, 9): [9, 2], (1000, 1001, 1007, 2003): [1001, 2]}
        PIVOT_ROUTES[route](validate_generators(gens), None)
        assert pow_exponents == ([] if route == "unweighted" else formed[gens])
