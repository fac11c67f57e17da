import functools
import pickle
import random
import re
import time
from fractions import Fraction
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sylsum import exactnum
from sylsum.combinatorics import eulerian
from sylsum.exactnum import (
    QQ,
    DivideByZero,
    FieldElement,
    FieldMismatch,
    InvalidField,
    NumberField,
    ZeroDivisor,
    canonical_str,
    cyclotomic_field,
    element_from_obj,
    element_to_obj,
    eulerian_sum,
    _apery_horner,
    _int_from_str,
    _int_str,
    pretty_str,
    quadratic_field,
    sqrt_of,
    to_element,
    zeta,
)
from sylsum.oracle import brute_force_weighted_sum
from sylsum.semigroup import apery_set, validate_generators
from sylsum.sums import SumRequest, dispatch_sum

# classic cyclotomic polynomial coefficients, constant term first
CYCLOTOMIC_TABLE = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    7: [1, 1, 1, 1, 1, 1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    10: [1, -1, 1, -1, 1],
    11: [1] * 11,
    12: [1, 0, -1, 0, 1],
}


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


class TestCyclotomicField:
    @pytest.mark.parametrize("n,coeffs", sorted(CYCLOTOMIC_TABLE.items()))
    def test_modulus_matches_table(self, n, coeffs):
        assert list(cyclotomic_field(n).modulus) == coeffs

    @pytest.mark.parametrize("n", [*range(1, 13), 105, 210, 385])  # Phi_105 has a -2
    def test_product_over_divisors_is_x_n_minus_1(self, n):
        # independent check: prod of the moduli over all divisors of n
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_field(d).modulus)
        expected = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        assert prod == expected

    @pytest.mark.parametrize("n", [*range(1, 201), 420, 1155])
    def test_modulus_matches_fraction_division(self, n):
        assert cyclotomic_field(n).modulus == ref_cyclotomic_poly(n)

    def test_degree_one_cases(self):
        assert cyclotomic_field(1).degree == 1
        assert zeta(1) == 1
        assert zeta(2) == -1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_zeta_order(self, n):
        z = zeta(n)
        for k in range(61):
            assert (z**k).is_one() == (k % n == 0)


class TestQuadraticField:
    def test_sqrt5_modulus(self):
        assert list(quadratic_field(5).modulus) == [-5, 0, 1]

    def test_gaussian_modulus(self):
        assert list(quadratic_field(-1).modulus) == [1, 0, 1]

    def test_omega_in_sqrt_minus_3(self):
        field = quadratic_field(-3)
        assert list(field.modulus) == [3, 0, 1]
        omega = field.element([Fraction(-1, 2), Fraction(1, 2)])
        # a primitive cube root of unity: omega^3 == 1, omega != 1
        assert (omega**3).is_one() and not omega.is_one()

    @pytest.mark.parametrize("d", [0, 1, 4, 12, -4, 50])
    def test_rejects_bad_d(self, d):
        with pytest.raises(InvalidField):
            quadratic_field(d)

    @pytest.mark.parametrize("d", [10**12 + 39, -(10**12) - 1, 10**30 + 57])
    def test_rejects_d_beyond_bound_without_trial_division(self, d, monkeypatch):
        # trial division up to sqrt|d| would take about 10**15 steps at 10**30
        def no_trial_division(n):
            raise AssertionError("squarefree test reached")

        monkeypatch.setattr(exactnum, "_is_squarefree", no_trial_division)
        start = time.perf_counter()
        with pytest.raises(InvalidField, match=r"10\*\*12"):
            quadratic_field(d)
        assert time.perf_counter() - start < 1.0


class TestElementArithmetic:
    def test_sqrt5_squares_to_5(self):
        r = sqrt_of(5)
        assert r * r == 5

    def test_zeta8_times_zeta8_cubed(self):
        z = zeta(8)
        assert z * z**3 == -1

    def test_conjugate_sum(self):
        field = quadratic_field(-3)
        omega = field.element([Fraction(-1, 2), Fraction(1, 2)])
        omega_bar = field.element([Fraction(-1, 2), Fraction(-1, 2)])
        assert omega + omega_bar == -1

    def test_mixed_scalar_ops(self):
        z = zeta(8)
        assert 2 * z - z == z
        assert (z + Fraction(1, 2)) - z == Fraction(1, 2)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            zeta(8) + sqrt_of(5)
        with pytest.raises(FieldMismatch):
            zeta(8) == sqrt_of(5)

    def test_rational_valued_elements_compare_across_fields(self):
        assert zeta(8) ** 8 == QQ.one
        assert to_element(3, quadratic_field(5)) == to_element(3)


class TestInverse:
    def test_rational_inverse(self):
        assert to_element(2).inverse() == Fraction(1, 2)

    def test_zeta8_minus_one_roundtrip(self):
        a = zeta(8) - 1
        assert a * a.inverse() == 1

    def test_zero_divisor_in_reducible_ring(self):
        ring = NumberField([-1, 0, 1])  # x^2 - 1 = (x-1)(x+1)
        with pytest.raises(ZeroDivisor):
            ring.element([-1, 1]).inverse()

    def test_zero_has_no_inverse(self):
        with pytest.raises(DivideByZero):
            QQ.zero.inverse()


class TestPower:
    def test_zeta8_to_the_8th(self):
        assert (zeta(8) ** 8).is_one()

    def test_minus_two_to_the_22nd(self):
        assert to_element(-2) ** 22 == 4194304  # 2**22

    def test_zero_to_the_zero_is_one(self):
        assert QQ.zero**0 == 1
        assert cyclotomic_field(8).zero ** 0 == 1

    def test_negative_exponent(self):
        z = zeta(8)
        assert z**-1 == z**7


class TestIsOne:
    def test_minus_one_even_power(self):
        assert (to_element(-1) ** 6).is_one()

    def test_zeta8_fourth_is_minus_one(self):
        z4 = zeta(8) ** 4
        assert not z4.is_one()
        assert z4 == -1

    def test_rational_one(self):
        assert QQ.one.is_one()


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def elements(field):
    return st.lists(
        rationals, min_size=field.degree, max_size=field.degree
    ).map(lambda cs: field.element(cs))


@settings(max_examples=60, deadline=None)
@given(elements(cyclotomic_field(8)), elements(cyclotomic_field(8)), elements(cyclotomic_field(8)))
def test_ring_axioms_zeta8(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(elements(quadratic_field(5)), elements(quadratic_field(5)), elements(quadratic_field(5)))
def test_ring_axioms_sqrt5(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(elements(cyclotomic_field(8)))
def test_inverse_roundtrip_zeta8(a):
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@settings(max_examples=60, deadline=None)
@given(elements(quadratic_field(-3)))
def test_inverse_roundtrip_quadratic(a):
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@settings(max_examples=40, deadline=None)
@given(
    elements(cyclotomic_field(8)),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
)
def test_power_additivity(a, m, n):
    assert a ** (m + n) == a**m * a**n


@settings(max_examples=60, deadline=None)
@given(elements(cyclotomic_field(8)), elements(cyclotomic_field(8)))
def test_coefficients_stay_normalized(a, b):
    for e in (a + b, a - b, a * b):
        for c in e.coeffs:
            assert c.denominator > 0
            assert gcd(abs(c.numerator), c.denominator) == 1


@given(st.sampled_from([QQ, NumberField([Fraction(-3, 2), 1])]), rationals, rationals)
def test_degree_one_coefficient_is_a_reduced_fraction(field, p, q):
    # built without a gcd, it must still equal, hash and print as Fraction(num, den)
    for e in (field.element([p]) + q, field.element([p]) * q, field.element([p]) / 6):
        (c,) = e.coeffs
        want = Fraction(e.num[0], e.den)
        assert type(c) is Fraction and (c.numerator, c.denominator) == (want.numerator, want.denominator)
        assert (c, hash(c), str(c), c + 1) == (want, hash(want), str(want), want + 1)


# ---------------------------------------------------------------------------
# The Fraction-polynomial arithmetic that integer vectors replaced: elements
# as coefficient tuples in x, products reduced by polynomial division,
# inverses by the extended Euclidean algorithm over Q[x], and cyclotomic
# polynomials by division of x^n - 1.


def _trim(p):
    n = len(p)
    while n > 0 and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def _pdivmod(p, q):
    """Polynomial division over Q; q must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quot = [Fraction(0)] * max(len(p) - dq, 0)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = c / lead
        quot[i - dq] = f
        for j in range(dq + 1):
            rem[i - dq + j] -= f * q[j]
    return _trim(quot), _trim(rem)


@functools.lru_cache(maxsize=None)
def ref_cyclotomic_poly(n):
    """x^n - 1 divided by the cyclotomic polynomials of all proper divisors."""
    poly = _trim([Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)])
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _pdivmod(poly, ref_cyclotomic_poly(d))
            assert not rem
    return poly


def _padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _pneg(p):
    return tuple(-c for c in p)


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _pxgcd(p, q):
    """Extended Euclid over Q[x]: returns (g, u, v) with u*p + v*q = g."""
    r0, r1 = _trim(p), _trim(q)
    u0, u1 = (Fraction(1),), ()
    v0, v1 = (), (Fraction(1),)
    while r1:
        quo, rem = _pdivmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, _padd(u0, _pneg(_pmul(quo, u1)))
        v0, v1 = v1, _padd(v0, _pneg(_pmul(quo, v1)))
    return r0, u0, v0


def ref_residue(poly, modulus):
    """poly mod modulus, padded to the field degree."""
    poly = _trim(poly)
    if len(poly) >= len(modulus):
        _, poly = _pdivmod(poly, modulus)
    return tuple(poly) + (Fraction(0),) * (len(modulus) - 1 - len(poly))


def ref_mul(p, q, modulus):
    return ref_residue(_pmul(_trim(p), _trim(q)), modulus)


def ref_inverse(p, modulus):
    """The inverse's coefficients, or None for a zero divisor (or zero)."""
    g, u, _ = _pxgcd(_trim(p), modulus)
    if len(g) != 1:
        return None
    return ref_residue(_pmul(u, (1 / g[0],)), modulus)


def ref_pow(p, e, modulus):
    if e < 0:
        return ref_pow(ref_inverse(p, modulus), -e, modulus)
    result = ref_residue((Fraction(1),), modulus)
    while e:
        if e & 1:
            result = ref_mul(result, p, modulus)
        p = ref_mul(p, p, modulus)
        e >>= 1
    return result


REDUCIBLE = NumberField([-1, 0, 1])  # x^2 - 1 = (x-1)(x+1)
LINEAR = NumberField([Fraction(-3, 2), 1])  # degree 1, c = 2: x == 3/2, y == 3
REFERENCE_FIELDS = [
    QQ,
    LINEAR,
    cyclotomic_field(5),
    cyclotomic_field(7),
    cyclotomic_field(8),
    cyclotomic_field(12),
    quadratic_field(5),
    NumberField([-2, 0, 0, 1]),
    NumberField([Fraction(1, 2), Fraction(-7, 3), Fraction(3, 4), 1]),
    REDUCIBLE,
]

sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def reference_pairs(draw):
    field = draw(st.sampled_from(REFERENCE_FIELDS))
    n = field.degree
    coeffs = st.one_of(
        st.lists(sparse_rationals, min_size=n, max_size=n),
        sparse_rationals.map(lambda q: [q] + [0] * (n - 1)),  # rational valued
    )
    if field == REDUCIBLE:  # multiples of x - 1 and x + 1 divide zero
        coeffs = st.one_of(
            coeffs, st.builds(lambda q, s: [q, s * q], rationals, st.sampled_from([1, -1]))
        )
    return field, draw(coeffs), draw(coeffs)


def _in_lowest_terms(e):
    return e.den > 0 and gcd(e.den, *e.num) == 1


def _outcome(fn):
    try:
        return fn()
    except (ZeroDivisor, DivideByZero) as err:
        return type(err), str(err)


class TestAgainstFractionPolynomials:
    @settings(deadline=None)
    @given(reference_pairs(), st.integers(-4, 13))
    @example((REDUCIBLE, [-1, 1], [2, 3]), 1)
    @example((QQ, [0], [0]), 0)
    @example((QQ, [Fraction(5, 7)], [Fraction(-7, 3)]), -2)  # degree 1: inverse is den / p
    @example((LINEAR, [Fraction(1, 6)], [Fraction(-7, 3)]), -1)
    @example((LINEAR, [Fraction(-1, 4)], [0]), 3)
    @example((cyclotomic_field(8), [0, 0, 0, 0], [1, 0, 0, 0]), -1)
    @example((quadratic_field(5), [1, 1], [Fraction(1, 2), Fraction(1, 2)]), 2)
    # lam = -sqrt(5)/5 has lam**2 = 1/5: P**e and d**e share most of their factors
    @example((quadratic_field(5), [0, Fraction(-1, 5)], [1, 0]), 1001)
    @example((quadratic_field(5), [0, Fraction(-1, 5)], [1, 0]), -7)
    def test_arithmetic_matches_reference(self, case, k):
        field, p, q = case
        a, b = field.element(p), field.element(q)
        mod = field.modulus
        p, q = a.coeffs, b.coeffs
        assert p == ref_residue([Fraction(c) for c in case[1]], mod)
        assert (a + b).coeffs == tuple(x + y for x, y in zip(p, q))
        assert (a - b).coeffs == tuple(x - y for x, y in zip(p, q))
        assert (-a).coeffs == tuple(-x for x in p)
        assert (a * b).coeffs == ref_mul(p, q, mod)
        assert field.element(_pmul(_trim(p), _trim(q))) == a * b  # reduces long lists
        assert (a * Fraction(-3, 7)).coeffs == tuple(x * Fraction(-3, 7) for x in p)
        for k in (0, -5, 7, True):  # an int (not a bool) skips the Fraction path
            f = Fraction(k)
            for got, want in ((a + k, a + f), (a - k, a - f), (k - a, f - a), (a * k, a * f)):
                assert (got.field, got.num, got.den) == (want.field, want.num, want.den)
                assert all(type(x) is int for x in got.num)
        assert (a == b) == (p == q)
        assert field.element(a.coeffs) == a

        inv = ref_inverse(q, mod)
        if b.is_zero():
            assert inv is None
            msg = f"zero has no inverse in {field.label}"
            with pytest.raises(DivideByZero, match=f"^{re.escape(msg)}$"):
                a / b
        elif inv is None:
            assert field == REDUCIBLE
            msg = f"{b!r} is a zero divisor modulo x^2-1"
            assert _outcome(b.inverse) == (ZeroDivisor, msg)
            assert _outcome(lambda: a / b) == (ZeroDivisor, msg)
        else:
            assert b.inverse().coeffs == inv
            assert (a / b).coeffs == ref_mul(p, inv, mod)
            assert _in_lowest_terms(b.inverse())
        assert all(map(_in_lowest_terms, (a + b, a - b, a * b, -a)))

        if k < 0 and ref_inverse(p, mod) is None:
            with pytest.raises((ZeroDivisor, DivideByZero)):
                a**k
        else:
            assert (a**k).coeffs == ref_pow(p, k, mod)  # 0**0 == 1
            assert _in_lowest_terms(a**k)

        if a.is_rational():
            r = a.as_rational()
            assert hash(a) == hash(r)
            assert a == r and a == QQ.from_rational(r) and QQ.from_rational(r) == a
            assert a == to_element(r, quadratic_field(-1))


class TestHornerSteps:
    def test_steps_in_lowest_terms(self):
        # lam = -sqrt(5)/5: lam**2 = 5/25 = 1/5, so each step of gap 2 adds
        # one factor 5 to the scale, not 5**2
        lam = quadratic_field(5).element([0, Fraction(-1, 5)])
        exps = list(range(40, -1, -2))
        H, scale = _apery_horner(lam, exps, 1)
        assert scale == 5**20
        for t, h in enumerate(H):
            want = ref_residue((Fraction(0),), lam.field.modulus)
            for m in exps:
                term = ref_pow(lam.coeffs, m, lam.field.modulus)
                want = tuple(w + m**t * c for w, c in zip(want, term))
            assert FieldElement(lam.field, h, scale).coeffs == want

    def test_degree_one_steps_in_lowest_terms(self):
        # p = -3 and d = 2 are coprime, so every step -27/8 stays in lowest
        # terms and the scale is d**max(exps)
        lam = to_element(Fraction(-3, 2))
        exps = list(range(40, -1, -3))
        H, scale = _apery_horner(lam, exps, 2)
        assert scale == 2**40
        want = [sum(m**t * Fraction(-3, 2) ** m for m in exps) for t in range(3)]
        assert [Fraction(h, scale) for (h,) in H] == want


class TestMatrixReuse:
    """Each fixed multiplier's matrix is built once and applied many times."""

    @pytest.fixture
    def imatrix_calls(self, monkeypatch):
        calls = []
        build = exactnum._imatrix

        def spy(q, g):
            calls.append(tuple(q))
            return build(q, g)

        monkeypatch.setattr(exactnum, "_imatrix", spy)
        return calls

    def test_powers_ladder_builds_one_matrix(self, imatrix_calls):
        lam = quadratic_field(5).element([1, 2])
        pows = exactnum._ipowers(lam.num, 9, lam.field.g)
        assert imatrix_calls == [lam.num]
        assert [FieldElement(lam.field, p, 1) for p in pows] == [lam**k for k in range(10)]

    @pytest.mark.parametrize(
        "lam, order",
        [(zeta(7) ** 3, 7), (to_element(-1), 2), (quadratic_field(5).element([1, 2]), None)],
    )
    def test_unit_powers_builds_one_matrix(self, imatrix_calls, lam, order):
        pows = exactnum.order_ladder(lam)
        assert imatrix_calls == [lam.num]
        assert (len(pows) or None) == order

    def test_eulerian_sum_builds_fewer_matrices(self, imatrix_calls):
        # mu = 6, a weight of infinite order: one matrix per product would
        # build 43 here; W's matrix and each power ladder's are built once
        A = validate_generators([5, 7, 9])
        lam = quadratic_field(5).element([1, 2])
        mu, a = 6, 5
        rows = [[eulerian(n, n - j) for j in range(n + 1)] for n in range(mu + 1)]
        L = lam**a
        imatrix_calls.clear()
        value = eulerian_sum(lam, apery_set(A, a).reps, mu, a, L, rows)
        assert len(imatrix_calls) <= 26
        assert value == brute_force_weighted_sum(A, mu, lam)


def max_order_reference(n):
    """The largest r with phi(r) <= n, phi counted by gcd for every r <= 2n^2."""
    return max(r for r in range(1, 2 * n * n + 1) if sum(gcd(k, r) == 1 for k in range(r)) <= n)


def max_orders_by_sieve(N):
    """[_max_order(n) for n = 0..N] (0 for n = 0) from one totient sieve of
    every r <= 2N^2: phi(r) >= sqrt(r/2), so no r > 2n^2 has phi(r) <= n."""
    phi = list(range(2 * N * N + 1))
    for p in range(2, len(phi)):
        if phi[p] == p:  # p is prime: each multiple keeps (p - 1)/p of its count
            phi[p::p] = [f - f // p for f in phi[p::p]]
    largest = [0] * (N + 1)  # largest[v] = the largest r with phi(r) == v
    for r, v in enumerate(phi):
        if 0 < v <= N:
            largest[v] = r
    return list(accumulate(largest, max))


class TestMaxOrder:
    def test_sieve_matches_gcd_count(self):
        assert [exactnum._max_order(n) for n in range(1, 25)] == [
            max_order_reference(n) for n in range(1, 25)
        ]

    def test_bounded_sieve_matches_the_2n2_sieve(self):
        assert [exactnum._max_order(n) for n in range(1, 301)] == max_orders_by_sieve(300)[1:]

    def test_degree_96(self):
        # phi(420) = 96, and no r > 420 has phi(r) <= 96
        assert exactnum._max_order(96) == 420


PICKLED = [
    QQ.from_rational(Fraction(-3, 2)),
    zeta(5) ** 2 - Fraction(1, 3),
    quadratic_field(5).element([Fraction(1, 2), Fraction(-3, 2)]),
    NumberField([Fraction(1, 2), Fraction(-1, 3), 0, 1]).element([1, Fraction(2, 3), 5]),
]


class TestPickle:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("elem", PICKLED)
    def test_element_and_field_roundtrip(self, elem, protocol):
        elem.coeffs  # fill the cache, which is not pickled
        for obj in (elem, elem.field):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert (back, hash(back)) == (obj, hash(obj))
        back = pickle.loads(pickle.dumps(elem, protocol))
        assert back._coeffs is None and back.coeffs == elem.coeffs
        assert (back.field.label, back.field.tag, back.field.g) == (
            elem.field.label, elem.field.tag, elem.field.g
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_sum_result_roundtrip(self, protocol):
        result = dispatch_sum(SumRequest(validate_generators([3, 5]), 1, zeta(5)))
        back = pickle.loads(pickle.dumps(result, protocol))
        assert (back, hash(back)) == (result, hash(result))


class TestSerialization:
    @pytest.mark.parametrize(
        "elem",
        [
            to_element(Fraction(-3, 2)),
            zeta(8) ** 3 - 2 * zeta(8) + 1,
            quadratic_field(5).element([0, Fraction(-1, 5)]),
            NumberField([-1, 0, 1]).element([Fraction(1, 3), 2]),
        ],
    )
    def test_obj_roundtrip(self, elem):
        assert element_from_obj(element_to_obj(elem)) == elem

    def test_obj_uses_fraction_strings(self):
        obj = element_to_obj(quadratic_field(5).element([0, Fraction(-1, 5)]))
        assert obj["coeffs"] == ["0", "-1/5"]
        assert obj["modulus"] == ["-5", "0", "1"]

    @pytest.mark.parametrize("length", [1, 599, 600, 601, 1200, 1201, 4300, 4301, 9999, 20000])
    def test_decimal_text_at_any_size(self, length):
        # past 4,300 digits str() and int() refuse by default; the reference
        # value is assembled from 100-digit slices instead
        rng = random.Random(length)
        for text in (
            "9" * length,
            "1" + "0" * (length - 1),
            str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=length - 1)),
        ):
            n = 0
            for start in range(0, length, 100):
                piece = text[start:start + 100]
                n = n * 10 ** len(piece) + int(piece)
            assert _int_str(n) == text
            assert _int_str(-n) == "-" + text
            assert _int_from_str(text) == n
            assert _int_from_str("-" + text) == -n
            assert _int_from_str("+" + text) == n

    @pytest.mark.parametrize("text", ["1" * 700 + "x", "1" * 700 + "-1", "--" + "1" * 700, "1_" * 400])
    def test_long_decimal_text_rejects_non_digits(self, text):
        with pytest.raises(ValueError):
            _int_from_str(text)

    def test_obj_roundtrip_beyond_digit_limit(self):
        field = NumberField([-(10**5000 + 3), 0, 1])
        e = field.element([Fraction(10**5000 + 1, 3**10000), -(7**9000)])
        obj = element_to_obj(e)
        assert min(len(obj["modulus"][0]), *map(len, obj["coeffs"][1:])) > 4300
        back = element_from_obj(obj)
        assert back == e
        assert back.field.modulus == field.modulus
        assert pretty_str(e).endswith(f"/{_int_str(3**10000)}")
        assert canonical_str(e).startswith("nf([-1000")

    def test_canonical_forms(self):
        assert canonical_str(to_element(Fraction(-3, 2))) == "-3/2"
        assert canonical_str(zeta(8) ** 3) == "zeta(8)^3"
        assert canonical_str(quadratic_field(5).element([0, Fraction(-1, 5)])) == "q(5; 0, -1/5)"
        assert canonical_str(NumberField([-1, 0, 1]).element([2, 1])) == "nf([-1,0,1]; [2,1])"

    def test_pretty_forms(self):
        w = quadratic_field(-3).element([Fraction(-443, 2), Fraction(391, 2)])
        assert pretty_str(w) == "(-443+391*sqrt(-3))/2"
        assert pretty_str(to_element(7)) == "7"
        assert pretty_str(zeta(8) ** 2 - 4) == "-4+zeta(8)^2"
