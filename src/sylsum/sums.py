"""Closed formulas for weighted gap sums over a numerical semigroup.

The quantity computed throughout is

    sum over every gap n of  lambda**n * n**mu

for a nonzero exact weight lambda and a nonnegative exponent mu.  All
formulas reduce the sum to the Apery set of a pivot generator a: the gaps
in residue class i are reps[i] - a, reps[i] - 2a, ... and the geometric
structure of each class collapses into rational functions of lambda.

Which formula applies depends on lambda:

  * lambda**a != 1: the general Eulerian-number formula (any mu), with
    specialised forms for mu = 1 and mu = 2;
  * lambda**a == 1, lambda != 1: a root-of-unity form for mu = 1;
  * lambda == 1: a Bernoulli-number form (any mu), pure power sums;
  * two and three generators additionally admit fully closed forms with
    no Apery set at all, under divisibility side conditions.

The Apery power sums S[t] = sum_i reps[i]**t * lambda**reps[i] that the
weighted formulas consume come from an exact integer Horner pass over the
sorted Apery set (all t at once).  The general formula is evaluated whole
by ``exactnum.eulerian_sum`` in the same integer basis, with one division
at the end; this module hands it the Apery set, L = lambda**a and the
Eulerian rows and never sees the integer vectors.  The Bernoulli form
needs only the plain Apery power sums P_k = sum_i reps[i]**k for
k <= mu+1, combined in integers over one common denominator.  Every route
returns its value in the weight's field, also when the value is rational.

``ROUTES`` declares each formula's domain once (fixed mu, generator count,
fixed weight, pivot rule); ``evaluate`` enforces it and runs the formula.
A pivot rule tests (lambda, L) with L = lambda**a; ``evaluate`` forms L
once per candidate a and hands the chosen L to the formula.
The public formula functions, ``dispatch_sum`` and the CLI all go through
``evaluate``; every route is cross-checked against brute-force enumeration
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import repeat
from math import comb, gcd, lcm
from typing import Callable

from .combinatorics import bernoulli, eulerian
from .exactnum import FieldElement, Scalar, eulerian_sum, power_sums, to_element
from .semigroup import (
    GeneratorSet,
    NonPositive,
    NotCoprime,
    apery_set,
    check_pivot,
    validate_generators,
)


class InvalidWeight(ValueError):
    """The weight is zero (or otherwise not a usable scalar)."""


class PreconditionViolated(ValueError):
    """A power-of-lambda hypothesis of the requested formula fails."""


class ConditionNotMet(ValueError):
    """A structural side condition on the generators fails."""


class Formula(str, Enum):
    GENERAL = "general_thm1"
    MU2 = "mu2_thm2"
    MU1 = "mu1_thm3"
    MU1_ROU = "mu1_rou_thm4"
    UNWEIGHTED = "unweighted_thm5"
    ALTERNATING = "alternating_cor1"
    TWO_VAR = "two_var_closed"
    TWO_VAR_DEGENERATE = "two_var_degenerate"
    THREE_VAR = "three_var_thm6"
    THREE_VAR_DEGENERATE = "three_var_thm7"
    ORACLE = "oracle"


@dataclass(frozen=True)
class SumRequest:
    """A fully specified sum: generators, exponent mu, nonzero weight."""

    A: GeneratorSet
    mu: int
    lam: FieldElement

    def __post_init__(self):
        object.__setattr__(self, "lam", to_element(self.lam))
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.lam.is_zero():
            raise InvalidWeight("weight must be nonzero")


@dataclass(frozen=True)
class SumResult:
    """Exact value plus provenance: which formula ran, and on which pivot."""

    value: FieldElement
    formula_used: Formula
    pivot_used: int | None = None


# A sorted generator set, or generators in the order a closed form reads them.
Gens = GeneratorSet | tuple[int, ...]


# ---------------------------------------------------------------------------
# formula bodies, called only by ``evaluate`` once the route's declared domain
# holds: (A, mu, lam, a, L) with pivot a and L = lambda**a on a route with a
# pivot rule, (A, mu, lam) on a closed form


def _general(A: GeneratorSet, mu: int, lam: FieldElement, a: int, L: FieldElement) -> FieldElement:
    rows = [[eulerian(n, n - j) for j in range(n + 1)] for n in range(mu + 1)]
    return eulerian_sum(lam, apery_set(A, a).reps, mu, a, L, rows)


def _mu2(A: GeneratorSet, mu: int, lam: FieldElement, a: int, L: FieldElement) -> FieldElement:
    s0, s1, s2 = power_sums(lam, apery_set(A, a).reps, 2)
    d_inv = (L - 1).inverse()
    lam1_inv = (lam - 1).inverse()
    return (
        d_inv * s2
        - 2 * a * L * d_inv**2 * s1
        + a * a * L * (L + 1) * d_inv**3 * s0
        - lam * (lam + 1) * lam1_inv**3
    )


def _mu1(A: GeneratorSet, mu: int, lam: FieldElement, a: int, L: FieldElement) -> FieldElement:
    s0, s1 = power_sums(lam, apery_set(A, a).reps, 1)
    d_inv = (L - 1).inverse()
    lam1_inv = (lam - 1).inverse()
    return d_inv * s1 - a * L * d_inv**2 * s0 + lam * lam1_inv**2


def _mu1_rou(A: GeneratorSet, mu: int, lam: FieldElement, a: int, L: FieldElement) -> FieldElement:
    _, s1, s2 = power_sums(lam, apery_set(A, a).reps, 2)
    lam1_inv = (lam - 1).inverse()
    return Fraction(1, 2 * a) * s2 - Fraction(1, 2) * s1 + lam * lam1_inv**2


def _unweighted(A: GeneratorSet, mu: int, lam: FieldElement, a: int, L: int) -> FieldElement:
    # The identity in unweighted_power_sum's docstring, times the lcm of the
    # Bernoulli denominators.  Its k = 0 term (P_0 = a) and -a*B_m start the
    # total; each other P_k is one C-level map pass over the Apery set, with
    # no per-element list, and the integer total is divided once.
    reps = apery_set(A, a).reps
    m = mu + 1
    B = [bernoulli(b) for b in range(m + 1)]
    b_lcm = lcm(*(x.denominator for x in B))
    by_b = [x.numerator * (b_lcm // x.denominator) for x in B]
    total = by_b[m] * a * (a**m - 1)
    for k in range(1, m + 1):
        if by_b[m - k]:
            p_k = sum(map(pow, reps, repeat(k))) if k > 1 else sum(reps)
            total += comb(m, k) * a ** (m - k) * by_b[m - k] * p_k
    value, rem = divmod(total, a * m * b_lcm)
    if rem:
        raise ArithmeticError(
            f"unweighted power sum is not an integer: a remainder of {rem.bit_length()} bits"
        )
    return lam.field.from_rational(value)


def _alternating(A: GeneratorSet, mu: int, lam: FieldElement, a: int, L: int) -> FieldElement:
    reps = apery_set(A, a).reps
    signed = sum((-1) ** reps[i] * reps[i] for i in range(1, a))
    signs = sum((-1) ** reps[i] for i in range(1, a))
    value = Fraction(-signed, 2) + Fraction(a * signs, 4) + Fraction(a - 1, 4)
    if value.denominator != 1:
        raise ArithmeticError(f"alternating sum {value} is not an integer")
    return lam.field.from_rational(value)


def _two_var(A: Gens, mu: int, lam: FieldElement) -> FieldElement:
    a, b = A
    pa, pb = lam**a, lam**b
    if pa.is_one() or pb.is_one():
        raise PreconditionViolated("lambda**a and lambda**b must both differ from 1")
    inv_a = (pa - 1).inverse()
    inv_b = (pb - 1).inverse()
    lam1_inv = (lam - 1).inverse()
    pab = lam ** (a * b)
    return (
        lam * lam1_inv**2
        + (a * b) * pab * inv_a * inv_b
        - (pab - 1) * ((a + b) * pa * pb - a * pa - b * pb) * inv_a**2 * inv_b**2
    )


def _two_var_degenerate(A: Gens, mu: int, lam: FieldElement) -> FieldElement:
    a, b = A
    pa, pb = lam**a, lam**b
    if not pb.is_one():
        raise PreconditionViolated("this form needs lambda**b == 1")
    if pa.is_one():
        raise PreconditionViolated("lambda**a must differ from 1")
    inv_a = (pa - 1).inverse()
    lam1_inv = (lam - 1).inverse()
    return (
        lam * lam1_inv**2
        + Fraction((a - 1) * a * b, 2) * inv_a
        - (a * a) * pa * inv_a**2
    )


def _three_var(A: Gens, mu: int, lam: FieldElement) -> FieldElement:
    ctx = ThreeVarContext(*A)
    a, b, c = ctx.a, ctx.b, ctx.c
    pa, pb, pc = lam**a, lam**b, lam**c
    if pa.is_one() or pb.is_one() or pc.is_one():
        raise PreconditionViolated("all three lambda powers must differ from 1")
    l1, l2 = ctx.lcm_ab, ctx.lcm_ac
    q1 = lam**l1 - 1
    q2 = lam**l2 - 1
    den_inv = ((pa - 1) * (pb - 1) * (pc - 1)).inverse()
    lam1_inv = (lam - 1).inverse()
    head = (l1 * q2 + l2 * q1 + (l1 + l2 - a - b - c) * q1 * q2) * den_inv
    harmonic = (
        a * (pa - 1).inverse() + b * (pb - 1).inverse() + c * (pc - 1).inverse()
    )
    return head - q1 * q2 * den_inv * harmonic + lam * lam1_inv**2


def _three_var_degenerate(A: Gens, mu: int, lam: FieldElement) -> FieldElement:
    ctx = ThreeVarContext(*A)
    a, b, c = ctx.a, ctx.b, ctx.c
    pa, pb, pc = lam**a, lam**b, lam**c
    if pa.is_one() or pb.is_one():
        raise PreconditionViolated("lambda**a and lambda**b must differ from 1")
    if not pc.is_one():
        raise PreconditionViolated("this form needs lambda**c == 1")
    l1, l2 = ctx.lcm_ab, ctx.lcm_ac
    inv_ab = ((pa - 1) * (pb - 1)).inverse()
    lam1_inv = (lam - 1).inverse()
    inner = (
        Fraction(2 * l1 + l2 - 2 * a - 2 * b - c, 2)
        - a * (pa - 1).inverse()
        - b * (pb - 1).inverse()
    )
    return (
        Fraction(l2, c) * (lam**l1 - 1) * inv_ab * inner
        + Fraction(l1 * l2, c) * inv_ab
        + lam * lam1_inv**2
    )


# ---------------------------------------------------------------------------
# the route table


@dataclass(frozen=True)
class _Route:
    """One formula's domain and body.

    ``mu``, ``arity`` and ``weight`` are the fixed exponent, generator count
    and weight the formula computes (None: any).  ``pivot`` decides whether
    a generator a may serve as the Apery pivot, from (lambda, L) with
    L = lambda**a (the int ``weight**a`` on a fixed-weight route);
    ``pivot_rule`` says the same in words for error messages.  A route
    without ``pivot`` uses no Apery set and reads the generators in the
    order given (the closed forms are not symmetric in them).
    """

    body: Callable[..., FieldElement]
    mu: int | None = None
    arity: int | None = None
    weight: int | None = None
    pivot: Callable[[FieldElement, FieldElement | int], bool] | None = None
    pivot_rule: str = ""


def _non_unit_power(lam: FieldElement, L: FieldElement | int) -> bool:
    return L != 1


ROUTES: dict[Formula, _Route] = {
    Formula.GENERAL: _Route(_general, pivot=_non_unit_power, pivot_rule="lambda**a != 1"),
    Formula.MU2: _Route(_mu2, mu=2, pivot=_non_unit_power, pivot_rule="lambda**a != 1"),
    Formula.MU1: _Route(_mu1, mu=1, pivot=_non_unit_power, pivot_rule="lambda**a != 1"),
    Formula.MU1_ROU: _Route(
        _mu1_rou,
        mu=1,
        pivot=lambda lam, L: L == 1 and not lam.is_one(),
        pivot_rule="lambda**a == 1 != lambda",
    ),
    Formula.UNWEIGHTED: _Route(_unweighted, weight=1, pivot=lambda lam, L: True, pivot_rule="any a"),
    # L = (-1)**a differs from 1 exactly when a is odd
    Formula.ALTERNATING: _Route(
        _alternating, mu=1, weight=-1, pivot=_non_unit_power, pivot_rule="a odd"
    ),
    Formula.TWO_VAR: _Route(_two_var, mu=1, arity=2),
    Formula.TWO_VAR_DEGENERATE: _Route(_two_var_degenerate, mu=1, arity=2),
    Formula.THREE_VAR: _Route(_three_var, mu=1, arity=3),
    Formula.THREE_VAR_DEGENERATE: _Route(_three_var_degenerate, mu=1, arity=3),
}


def evaluate(formula: Formula, A: Gens, mu: int, lam: Scalar, pivot: int | None = None) -> SumResult:
    """Run one formula after checking the domain its route declares.

    Checks, in order: nonzero weight, mu >= 0, the route's fixed mu,
    generator count and weight, and that a given ``pivot`` is a generator;
    an empty gap set (1 a generator) then gives 0.  A route with a pivot
    rule takes the smallest generator that meets it, or checks the given
    ``pivot`` against it, forming each candidate's L = lambda**a once.
    Raises ``ValueError`` for a given ``pivot`` that is not a generator,
    ``PreconditionViolated`` when a condition on mu, lambda or the pivot
    fails and ``ConditionNotMet`` for a wrong number of generators.
    """
    route = ROUTES[formula]
    lam = to_element(lam)
    if lam.is_zero():
        raise PreconditionViolated("weight must be nonzero")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if route.mu is not None and mu != route.mu:
        raise PreconditionViolated(f"{formula.value} computes the mu = {route.mu} sum")
    if route.arity is not None and len(A) != route.arity:
        raise ConditionNotMet(f"{formula.value} needs exactly {route.arity} generators")
    if route.weight is not None and lam != route.weight:
        raise PreconditionViolated(f"{formula.value} needs weight {route.weight}")
    if pivot is not None:
        check_pivot(A, pivot)
    if 1 in A:
        return SumResult(lam.field.zero, formula, None)
    if route.pivot is None:
        return SumResult(route.body(A, mu, lam), formula, None)
    candidates = tuple(A) if pivot is None else (pivot,)
    for a in candidates:
        L = lam**a if route.weight is None else route.weight**a
        if route.pivot(lam, L):
            return SumResult(route.body(A, mu, lam, a, L), formula, a)
    raise PreconditionViolated(
        f"{formula.value} needs a pivot a with {route.pivot_rule}; none of {candidates} has it"
    )


# ---------------------------------------------------------------------------
# public formula functions


def weighted_power_sum(
    A: GeneratorSet, mu: int, lam: Scalar, pivot: int | None = None
) -> SumResult:
    """General formula for any mu >= 0, valid when lambda**pivot != 1.

    sum_{n=0}^{mu} (-a)^n / (L-1)^{n+1} * C(mu,n)
                 * sum_{j=0}^{n} E(n, n-j) L^j * S[mu-n]
      + (-1)^{mu+1} / (lambda-1)^{mu+1} * sum_{j=0}^{mu} E(mu, mu-j) lambda^j

    with a the pivot, L = lambda**a, E the Eulerian numbers and S the
    weighted power sums over the Apery set, evaluated in exact integers by
    ``exactnum.eulerian_sum``.
    """
    return evaluate(Formula.GENERAL, A, mu, lam, pivot)


def weighted_sum_mu2(A: GeneratorSet, lam: Scalar, pivot: int | None = None) -> SumResult:
    """Specialised mu = 2 formula (lambda**pivot != 1)."""
    return evaluate(Formula.MU2, A, 2, lam, pivot)


def weighted_sum_mu1(A: GeneratorSet, lam: Scalar, pivot: int | None = None) -> SumResult:
    """Specialised mu = 1 formula (lambda**pivot != 1)."""
    return evaluate(Formula.MU1, A, 1, lam, pivot)


def weighted_sum_mu1_rou(A: GeneratorSet, lam: Scalar, pivot: int | None = None) -> SumResult:
    """mu = 1 when lambda**pivot == 1 but lambda != 1 (root-of-unity weight).

    (1/2a) sum_{i=1}^{a-1} reps[i]^2 lambda^i
      - (1/2) sum_{i=1}^{a-1} reps[i] lambda^i + lambda/(lambda-1)^2

    lambda**a == 1 makes lambda^i == lambda^reps[i], and reps[0] == 0, so
    the two sums are the Apery power sums S[2] and S[1].
    """
    return evaluate(Formula.MU1_ROU, A, 1, lam, pivot)


def unweighted_power_sum(A: GeneratorSet, mu: int, pivot: int | None = None) -> SumResult:
    """Pure power sum over the gaps (weight 1), via Bernoulli numbers.

    With m = mu+1 and P_k = sum_{i=0}^{a-1} reps[i]^k (so P_0 = a):

    a m * sum_{gaps n} n^mu = sum_{k=0}^{m} C(m,k) a^{m-k} B_{m-k} P_k - a B_m

    Faulhaber's formula in Bernoulli polynomials sums the gaps
    i, i+a, ..., reps[i]-a of each residue class, and Raabe's
    multiplication theorem sum_{i<a} B_m(i/a) = a^{1-m} B_m sums the class
    starts.  The paper's (kappa, j) double sum of Theorem 5 gives the same
    value and is this function's test reference.
    """
    return evaluate(Formula.UNWEIGHTED, A, mu, 1, pivot)


def alternating_sum(A: GeneratorSet, pivot: int | None = None) -> SumResult:
    """sum (-1)^n n over the gaps, via an odd pivot a:

    -(1/2) sum (-1)^{reps[i]} reps[i] + (a/4) sum (-1)^{reps[i]} + (a-1)/4
    """
    return evaluate(Formula.ALTERNATING, A, 1, -1, pivot)


# ---------------------------------------------------------------------------
# fully closed two- and three-generator forms (mu = 1)


def _in_order(*gens: int) -> tuple[int, ...]:
    """Validated generators in the caller's order; a repeated generator is
    dropped, so the route's generator count rejects it."""
    A = validate_generators(gens)
    return gens if len(A) == len(gens) else A.gens


def closed_two_var(a: int, b: int, lam: Scalar) -> SumResult:
    """Closed form for two generators with lambda**a != 1 and lambda**b != 1:

    lambda/(lambda-1)^2 + ab L^{ab} / ((L^a-1)(L^b-1))
      - (L^{ab}-1)((a+b)L^{a+b} - a L^a - b L^b) / ((L^a-1)^2 (L^b-1)^2)

    written with L = lambda.
    """
    return evaluate(Formula.TWO_VAR, _in_order(a, b), 1, lam)


def closed_two_var_degenerate(a: int, b: int, lam: Scalar) -> SumResult:
    """Closed form for two generators when lambda**b == 1 (lambda != 1):

    lambda/(lambda-1)^2 + (a-1)ab/(2(L^a-1)) - a^2 L^a/(L^a-1)^2
    """
    return evaluate(Formula.TWO_VAR_DEGENERATE, _in_order(a, b), 1, lam)


@dataclass(frozen=True)
class ThreeVarContext:
    """Three generators a, b, c with gcd(a,b,c) = 1 and a | lcm(b,c).

    Under those conditions gcd(a,b) * gcd(a,c) = a, and the Apery set of a
    is the grid {bx + cy} with 0 <= x < gcd(a,c) and 0 <= y < gcd(a,b),
    which is what makes a fully closed form possible.
    """

    a: int
    b: int
    c: int
    gcd_ab: int = field(init=False)
    gcd_ac: int = field(init=False)
    lcm_ab: int = field(init=False)
    lcm_ac: int = field(init=False)

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if min(a, b, c) < 1:
            raise NonPositive("generators must be positive")
        if gcd(a, b, c) != 1:
            raise NotCoprime(f"gcd({a},{b},{c}) != 1")
        if lcm(b, c) % a != 0:
            raise ConditionNotMet(f"{a} does not divide lcm({b},{c}) = {lcm(b, c)}")
        object.__setattr__(self, "gcd_ab", gcd(a, b))
        object.__setattr__(self, "gcd_ac", gcd(a, c))
        object.__setattr__(self, "lcm_ab", lcm(a, b))
        object.__setattr__(self, "lcm_ac", lcm(a, c))

    # unweighted statistics also collapse to closed forms in this setting

    def frobenius(self) -> int:
        return self.lcm_ab + self.lcm_ac - (self.a + self.b + self.c)

    def genus(self) -> int:
        g = self.frobenius()
        if (g + 1) % 2 != 0:
            raise ArithmeticError(f"Frobenius number {g} of {self} is not odd")
        return (g + 1) // 2

    def gap_sum(self) -> int:
        a, b, c = self.a, self.b, self.c
        l1, l2 = self.lcm_ab, self.lcm_ac
        total = (
            a * a + b * b + c * c
            + 3 * (a * b * c + a * b + b * c + c * a)
            - 3 * (a + b + c) * (l1 + l2)
            + 2 * (l1 * l1 + l2 * l2)
            - 1
        )
        if total % 12 != 0:
            raise ArithmeticError(f"12 * gap sum {total} of {self} is not divisible by 12")
        return total // 12


def closed_three_var(ctx: ThreeVarContext, lam: Scalar) -> SumResult:
    """Closed form with l1 = lcm(a,b), l2 = lcm(a,c), all lambda powers != 1:

    [l1(L^{l2}-1) + l2(L^{l1}-1) + (l1+l2-a-b-c)(L^{l1}-1)(L^{l2}-1)] / D
      - (L^{l1}-1)(L^{l2}-1)/D * (a/(L^a-1) + b/(L^b-1) + c/(L^c-1))
      + L/(L-1)^2,        D = (L^a-1)(L^b-1)(L^c-1)
    """
    return evaluate(Formula.THREE_VAR, (ctx.a, ctx.b, ctx.c), 1, lam)


def closed_three_var_degenerate(ctx: ThreeVarContext, lam: Scalar) -> SumResult:
    """Closed form when lambda**c == 1 but lambda**a != 1 and lambda**b != 1:

    l2(L^{l1}-1)/(c(L^a-1)(L^b-1))
        * (l1 + l2/2 - a - b - c/2 - a/(L^a-1) - b/(L^b-1))
      + l1 l2/(c(L^a-1)(L^b-1)) + L/(L-1)^2
    """
    return evaluate(Formula.THREE_VAR_DEGENERATE, (ctx.a, ctx.b, ctx.c), 1, lam)


# ---------------------------------------------------------------------------


def dispatch_sum(req: SumRequest) -> SumResult:
    """Route a request to the applicable formula.

    Weight 1 -> the Bernoulli power-sum form; otherwise the general form on
    the smallest pivot a with lambda**a != 1 (one always exists for
    lambda != 1 because the generators are coprime).  An empty gap set gives
    0 under the same label, with no pivot.
    """
    formula = Formula.UNWEIGHTED if req.lam.is_one() else Formula.GENERAL
    return evaluate(formula, req.A, req.mu, req.lam)
