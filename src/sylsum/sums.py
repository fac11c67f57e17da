"""Closed formulas for weighted gap sums over a numerical semigroup.

The quantity computed throughout is

    sum over every gap n of  lambda**n * n**mu

for a nonzero exact weight lambda and a nonnegative exponent mu.  All
formulas reduce the sum to the Apery set of a pivot generator a: the gaps
in residue class i are reps[i] - a, reps[i] - 2a, ... and the geometric
structure of each class collapses into rational functions of lambda.

Which formula applies depends on lambda:

  * lambda**a != 1: the general Eulerian-number formula (any mu), which
    also runs the paper's mu = 1 and mu = 2 forms and its alternating
    corollary (lambda = -1, mu = 1, a odd) at their fixed mu and weight;
  * lambda**a == 1, lambda != 1: a root-of-unity form for mu = 1;
  * lambda == 1: a Bernoulli-number form (any mu), pure power sums;
  * two generators, and three with a | lcm(b, c), have the paper's closed
    forms at mu = 1; each is Theorem 1 at pivot a on an Apery set that is a
    box, the row of a pair or the rectangle of the triple, with no list.

The Apery power sums S[t] = sum_i reps[i]**t * lambda**reps[i] that the
weighted formulas consume come from exact integers, all t at once (by
residue class for a root-of-unity weight, else by a Horner pass, or in
closed form for a row or a rectangle).  The general formula is evaluated
whole by ``exactnum.eulerian_sum`` in the same integer basis; this module
hands it the Apery set, L = lambda**a, the Eulerian rows and lambda's order
ladder, and never sees the integer vectors.  A pair, or a triple whose
Apery set is a rectangle (a | lcm(b, c) among them), hands the set over as
the grid ``semigroup.apery_grid`` reads off its shape, with no list, once
the pivot is above the size rule of ``semigroup._closed_shape``; the closed
forms hand over the same box at any size, and climb no ladder.  The
Bernoulli form is ``semigroup.gap_power_sum``, the same integer identity
that gives the genus (mu = 0) and the gap sum (mu = 1): it needs only the
plain Apery power sums P_k = sum_i reps[i]**k for k <= mu+1, in closed
form for a pair or an L-shaped triple.  Every route returns its
value in the weight's field, also when the value is rational.

``ROUTES`` declares each formula's domain once: fixed mu, generator count
and weight, and its conditions on powers of lambda (a pivot rule, or a
closed form's ``units``).  ``evaluate`` runs the first of the formulas it is
given whose domain holds, forming each power of lambda once per call.  A
route that reads power sums finds a finite-order weight's order once, by
one ladder of its powers, and reads its powers off that ladder.
``Formula.ORACLE`` routes to the brute-force enumeration of ``oracle``.
The public formula functions, ``dispatch_sum`` and the CLI all go through
``evaluate``; every route is cross-checked against brute-force enumeration
in the test suite.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .combinatorics import eulerian
from .exactnum import (
    FieldElement,
    Scalar,
    eulerian_sum,
    ladder_power,
    order_ladder,
    power_sums,
    to_element,
)
from .semigroup import (
    GeneratorSet,
    NonPositive,
    NotCoprime,
    Record,
    apery_grid,
    apery_set,
    check_pivot,
    frobenius_number,
    gap_power_sum,
    sylvester_number,
    sylvester_sum,
    validate_generators,
)


class InvalidWeight(ValueError):
    """The weight is zero (or otherwise not a usable scalar)."""


class NegativeMu(ValueError):
    """The exponent mu is negative."""


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


class SumRequest(Record):
    """A fully specified sum: generators, exponent mu, nonzero weight."""

    __slots__ = ("A", "mu", "lam")

    def __init__(self, A: GeneratorSet, mu: int, lam: Scalar):
        lam = to_element(lam)
        if mu < 0:
            raise NegativeMu("mu must be nonnegative")
        if lam.is_zero():
            raise InvalidWeight("weight must be nonzero")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)


class SumResult(Record):
    """Exact value plus provenance: which formula ran, and on which pivot."""

    __slots__ = ("value", "formula_used", "pivot_used")

    def __init__(self, value: FieldElement, formula_used: Formula, pivot_used: int | None = None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "formula_used", formula_used)
        object.__setattr__(self, "pivot_used", pivot_used)


# A sorted generator set, or generators in the order a closed form reads them.
Gens = GeneratorSet | tuple[int, ...]


class _Powers:
    """lambda**e for one ``evaluate`` call, each e formed once.

    ``ladder()`` climbs lambda's ``order_ladder`` on its first call, which a
    route that reads power sums makes before its pivot test, and the bodies
    pass it on to ``power_sums`` and ``eulerian_sum``.  Once it stops at an
    order r, lambda**e is read off it at e mod r.  Before it is climbed (the
    closed forms never climb it: their powers and Theorem 1 on a box do not
    pay for up to ``_max_order(degree)`` steps), or when it finds no order,
    ``FieldElement.__pow__`` forms lambda**e: no order found does not prove
    lambda**e != 1 (see ``order_ladder``), so every test on a power stays
    exact.
    """

    __slots__ = ("lam", "_ladder", "_formed")

    def __init__(self, lam: FieldElement):
        self.lam = lam
        self._ladder: list[list[int]] | None = None
        self._formed: dict[int, FieldElement] = {}

    def ladder(self) -> list[list[int]]:
        if self._ladder is None:
            self._ladder = order_ladder(self.lam)
        return self._ladder

    def __call__(self, e: int) -> FieldElement:
        x = self._formed.get(e)
        if x is None:
            ladder = self._ladder
            x = self._formed[e] = ladder_power(self.lam, ladder, e) if ladder else self.lam**e
        return x


# ---------------------------------------------------------------------------
# formula bodies, called by ``evaluate`` once the route's domain holds, as
# (A, mu, lam, a, power): a is the pivot (None on a route without a pivot
# rule), and power is the call's ``_Powers``


def _theorem1(
    apery: list[int] | dict[int, int], mu: int, lam: FieldElement, a: int, power: _Powers,
    ladder: list[list[int]],
) -> FieldElement:
    """Theorem 1 at pivot a on a's Apery set, as a list or a box."""
    rows = [[eulerian(n, n - j) for j in range(n + 1)] for n in range(mu + 1)]
    return eulerian_sum(lam, apery, mu, a, power(a), rows, ladder)


def _general(A: GeneratorSet, mu: int, lam: FieldElement, a: int, power: _Powers) -> FieldElement:
    apery = apery_grid(A, a, mu) or apery_set(A, a).reps
    return _theorem1(apery, mu, lam, a, power, power.ladder())


def _mu1_rou(A: GeneratorSet, mu: int, lam: FieldElement, a: int, power: _Powers) -> FieldElement:
    _, s1, s2 = power_sums(lam, apery_set(A, a).reps, 2, power.ladder())
    lam1_inv = (lam - 1).inverse()
    return Fraction(1, 2 * a) * s2 - Fraction(1, 2) * s1 + lam * lam1_inv**2


def _unweighted(A: GeneratorSet, mu: int, lam: FieldElement, a: int, power: _Powers) -> FieldElement:
    return lam.field.from_rational(gap_power_sum(A, mu, a))


def _closed(A: Gens, mu: int, lam: FieldElement, _: None, power: _Powers) -> FieldElement:
    """Theorem 1 at pivot a = A[0] on its Apery set, a box: the row {b: a}
    of <a, b>, or the rectangle of ``ThreeVarContext`` (a step taken once
    adds nothing and is left out).  It climbs no order ladder."""
    if len(A) == 2:
        a, b = A
        box = {b: a}
    else:
        ctx = ThreeVarContext(*A)
        a = ctx.a
        box = {s: n for s, n in ((ctx.b, ctx.gcd_ac), (ctx.c, ctx.gcd_ab)) if n > 1}
    return _theorem1(box, mu, lam, a, power, [])


def _oracle(A: GeneratorSet, mu: int, lam: FieldElement, _: None, power: _Powers) -> FieldElement:
    from .oracle import brute_force_weighted_sum  # oracle imports this module

    return brute_force_weighted_sum(A, mu, lam)


# ---------------------------------------------------------------------------
# the route table


class _Route(Record):
    """One formula's domain and body.

    ``mu`` and ``weight`` are the fixed exponent and weight the formula
    computes (None: any).  ``units`` declares a closed form: for each
    generator g in the order given, whether it needs lambda**g == 1 (True)
    or != 1 (False); its length is the generator count.  ``pivot`` decides
    whether a generator a may serve as the Apery pivot, from (lambda, L)
    with L = lambda**a (the int ``weight**a`` on a fixed-weight route), and
    ``pivot_rule`` says the same in words.  A route without ``pivot`` reads
    the generators in the order given (the closed forms are not symmetric
    in them).
    """

    __slots__ = ("body", "mu", "units", "weight", "pivot", "pivot_rule")

    def __init__(
        self,
        body: Callable[..., FieldElement],
        mu: int | None = None,
        units: tuple[bool, ...] | None = None,
        weight: int | None = None,
        pivot: Callable[[FieldElement, FieldElement | int], bool] | None = None,
        pivot_rule: str = "",
    ):
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "pivot_rule", pivot_rule)


def _non_unit_power(lam: FieldElement, L: FieldElement | int) -> bool:
    return L != 1


ROUTES: dict[Formula, _Route] = {
    Formula.GENERAL: _Route(_general, pivot=_non_unit_power, pivot_rule="lambda**a != 1"),
    Formula.MU2: _Route(_general, mu=2, pivot=_non_unit_power, pivot_rule="lambda**a != 1"),
    Formula.MU1: _Route(_general, mu=1, pivot=_non_unit_power, pivot_rule="lambda**a != 1"),
    Formula.MU1_ROU: _Route(
        _mu1_rou,
        mu=1,
        pivot=lambda lam, L: L == 1 and not lam.is_one(),
        pivot_rule="lambda**a == 1 != lambda",
    ),
    Formula.UNWEIGHTED: _Route(_unweighted, weight=1, pivot=lambda lam, L: True, pivot_rule="any a"),
    # L = (-1)**a differs from 1 exactly when a is odd
    Formula.ALTERNATING: _Route(_general, mu=1, weight=-1, pivot=_non_unit_power, pivot_rule="a odd"),
    Formula.TWO_VAR: _Route(_closed, mu=1, units=(False, False)),
    Formula.TWO_VAR_DEGENERATE: _Route(_closed, mu=1, units=(False, True)),
    Formula.THREE_VAR: _Route(_closed, mu=1, units=(False, False, False)),
    Formula.THREE_VAR_DEGENERATE: _Route(_closed, mu=1, units=(False, False, True)),
    Formula.ORACLE: _Route(_oracle),
}


def _admit(
    formula: Formula, A: Gens, mu: int, lam: FieldElement, pivot: int | None, power: _Powers
) -> int | None | ValueError:
    """``formula``'s pivot (None: none, or no gaps) if its domain holds, else the error."""
    route = ROUTES[formula]
    if route.mu is not None and mu != route.mu:
        return PreconditionViolated(f"{formula.value} computes the mu = {route.mu} sum")
    if route.units is not None and len(A) != len(route.units):
        return ConditionNotMet(f"{formula.value} needs exactly {len(route.units)} generators")
    if route.weight is not None and lam != route.weight:
        return PreconditionViolated(f"{formula.value} needs weight {route.weight}")
    if 1 in A:
        return None
    if route.pivot is None:
        pattern = tuple(zip(A, route.units or ()))
        if all(power(g).is_one() == unit for g, unit in pattern):
            return None
        rule = ", ".join(f"lambda**{g} {'==' if unit else '!='} 1" for g, unit in pattern)
        return PreconditionViolated(f"{formula.value} needs {rule}")
    candidates = tuple(A) if pivot is None else (pivot,)
    if route.weight is None:
        power.ladder()  # this route reads power sums off the ladder
    for a in candidates:
        L = power(a) if route.weight is None else route.weight**a
        if route.pivot(lam, L):
            return a
    return PreconditionViolated(
        f"{formula.value} needs a pivot a with {route.pivot_rule}; none of {candidates} has it"
    )


def evaluate(
    formulas: Formula | tuple[Formula, ...], A: Gens, mu: int, lam: Scalar, pivot: int | None = None
) -> SumResult:
    """Run the first of ``formulas`` (one, or a tuple) whose domain holds.

    First, for all: a nonzero weight, mu >= 0, and a given ``pivot`` must be
    a generator (else ``ValueError``).  Then, per formula in order: its
    fixed mu, generator count and weight; an empty gap set (1 a generator)
    gives 0; last its ``units`` pattern or its pivot rule, which takes the
    smallest generator that meets it (or checks the given ``pivot``).  Each
    power of lambda is formed once per call.  A formula outside its domain
    is passed over, but an error from a body (``ConditionNotMet`` from
    ``ThreeVarContext``, ``ZeroDivisor``) propagates at once.  If none
    applies, a lone formula raises its own error (``ConditionNotMet`` for
    the generator count, else ``PreconditionViolated``), and several raise
    one ``PreconditionViolated`` naming each formula's failing condition.
    """
    formulas = (formulas,) if isinstance(formulas, Formula) else formulas
    lam = to_element(lam)
    if lam.is_zero():
        raise PreconditionViolated("weight must be nonzero")
    if mu < 0:
        raise NegativeMu("mu must be nonnegative")
    if pivot is not None:
        check_pivot(A, pivot)
    power = _Powers(lam)
    errors = []
    for formula in formulas:
        a = _admit(formula, A, mu, lam, pivot, power)
        if not isinstance(a, ValueError):
            value = lam.field.zero if 1 in A else ROUTES[formula].body(A, mu, lam, a, power)
            return SumResult(value, formula, a)
        errors.append(a)
    raise errors[0] if len(errors) == 1 else PreconditionViolated("; ".join(map(str, errors)))


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
    """Theorem 2, mu = 2, valid when lambda**pivot != 1:

    S[2] / (L-1) - 2a L S[1] / (L-1)^2 + a^2 L(L+1) S[0] / (L-1)^3
      - lambda(lambda+1) / (lambda-1)^3

    with a, L and S as in ``weighted_power_sum``.  It is Theorem 1 at
    mu = 2 (A_0 = 1, A_1(t) = t, A_2(t) = t + t^2), and is evaluated by
    ``exactnum.eulerian_sum`` at that fixed mu.
    """
    return evaluate(Formula.MU2, A, 2, lam, pivot)


def weighted_sum_mu1(A: GeneratorSet, lam: Scalar, pivot: int | None = None) -> SumResult:
    """Theorem 3, mu = 1, valid when lambda**pivot != 1:

    S[1] / (L-1) - a L S[0] / (L-1)^2 + lambda / (lambda-1)^2

    with a, L and S as in ``weighted_power_sum``.  It is Theorem 1 at
    mu = 1 (A_0 = 1, A_1(t) = t), and is evaluated by
    ``exactnum.eulerian_sum`` at that fixed mu.
    """
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
    """Pure power sum over the gaps (weight 1): the Bernoulli identity of
    ``semigroup.gap_power_sum``, which at mu = 0 and 1 is also
    ``sylvester_number`` and ``sylvester_sum``.  The paper's (kappa, j)
    double sum of Theorem 5 gives the same value and is this function's test
    reference.
    """
    return evaluate(Formula.UNWEIGHTED, A, mu, 1, pivot)


def alternating_sum(A: GeneratorSet, pivot: int | None = None) -> SumResult:
    """Corollary 1, sum (-1)^n n over the gaps, via an odd pivot a:

    -(1/2) sum (-1)^{reps[i]} reps[i] + (a/4) sum (-1)^{reps[i]} + (a-1)/4

    It is Theorem 1 at mu = 1 and lambda = -1, where L = (-1)^a = -1, and is
    evaluated by ``exactnum.eulerian_sum`` at that fixed mu and weight.
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

    written with L = lambda.  It is evaluated as Theorem 1 at pivot a on the
    row {0, b, ..., (a-1)b}, the Apery set of a, as ``weighted_sum_mu1``
    evaluates Theorem 3.  A zero divisor lambda**b - 1 of a reducible
    modulus therefore still gives the value; lambda**a - 1 raises
    ``ZeroDivisor``.
    """
    return evaluate(Formula.TWO_VAR, _in_order(a, b), 1, lam)


def closed_two_var_degenerate(a: int, b: int, lam: Scalar) -> SumResult:
    """Closed form for two generators when lambda**b == 1 (lambda != 1):

    lambda/(lambda-1)^2 + (a-1)ab/(2(L^a-1)) - a^2 L^a/(L^a-1)^2

    It is evaluated as Theorem 1 at pivot a on the row of ``closed_two_var``,
    whose step b has ratio lambda**b == 1.
    """
    return evaluate(Formula.TWO_VAR_DEGENERATE, _in_order(a, b), 1, lam)


class ThreeVarContext(Record):
    """Three generators a, b, c with gcd(a,b,c) = 1 and a | lcm(b,c).

    Under those conditions gcd(a,b) * gcd(a,c) = a, and the Apery set of a
    is the grid {bx + cy} with 0 <= x < gcd(a,c) and 0 <= y < gcd(a,b),
    the rectangle on which the closed forms run Theorem 1.  The gcd_* and
    lcm_* fields are derived from a, b and c and cannot be passed.
    """

    __slots__ = ("a", "b", "c", "gcd_ab", "gcd_ac", "lcm_ab", "lcm_ac")

    def __init__(self, a: int, b: int, c: int):
        if min(a, b, c) < 1:
            raise NonPositive("generators must be positive")
        if gcd(a, b, c) != 1:
            raise NotCoprime(f"gcd({a},{b},{c}) != 1")
        if lcm(b, c) % a != 0:
            raise ConditionNotMet(f"{a} does not divide lcm({b},{c}) = {lcm(b, c)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "gcd_ab", gcd(a, b))
        object.__setattr__(self, "gcd_ac", gcd(a, c))
        object.__setattr__(self, "lcm_ab", lcm(a, b))
        object.__setattr__(self, "lcm_ac", lcm(a, c))

    # the unweighted statistics, at pivot a; -1 is the Frobenius number of
    # a set that holds 1, which has no gaps

    def frobenius(self) -> int:
        return frobenius_number(validate_generators((self.a, self.b, self.c)), self.a) or -1

    def genus(self) -> int:
        return sylvester_number(validate_generators((self.a, self.b, self.c)), self.a)

    def gap_sum(self) -> int:
        return sylvester_sum(validate_generators((self.a, self.b, self.c)), self.a)


def closed_three_var(ctx: ThreeVarContext, lam: Scalar) -> SumResult:
    """Closed form with l1 = lcm(a,b), l2 = lcm(a,c), all lambda powers != 1:

    [l1(L^{l2}-1) + l2(L^{l1}-1) + (l1+l2-a-b-c)(L^{l1}-1)(L^{l2}-1)] / D
      - (L^{l1}-1)(L^{l2}-1)/D * (a/(L^a-1) + b/(L^b-1) + c/(L^c-1))
      + L/(L-1)^2,        D = (L^a-1)(L^b-1)(L^c-1)

    It is evaluated as Theorem 1 at pivot a on the rectangle of ``ctx``,
    the Apery set of a, as ``weighted_sum_mu1`` evaluates Theorem 3.
    """
    return evaluate(Formula.THREE_VAR, (ctx.a, ctx.b, ctx.c), 1, lam)


def closed_three_var_degenerate(ctx: ThreeVarContext, lam: Scalar) -> SumResult:
    """Closed form when lambda**c == 1 but lambda**a != 1 and lambda**b != 1:

    l2(L^{l1}-1)/(c(L^a-1)(L^b-1))
        * (l1 + l2/2 - a - b - c/2 - a/(L^a-1) - b/(L^b-1))
      + l1 l2/(c(L^a-1)(L^b-1)) + L/(L-1)^2

    It is evaluated as Theorem 1 at pivot a on the rectangle of ``ctx``,
    whose step c has ratio lambda**c == 1.
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
    return evaluate((Formula.UNWEIGHTED, Formula.GENERAL), req.A, req.mu, req.lam)
