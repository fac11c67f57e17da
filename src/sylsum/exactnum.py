"""Exact scalar arithmetic in Q and in quotient rings Q[x]/(f).

Every weight and every computed sum in this package is an element of some
number field Q[x]/(f).  The rational field itself is the degree-1 quotient
Q[x]/(x), so a single element type covers rational weights, roots of unity
and quadratic irrationals alike.

An element is an integer vector P(y) over one denominator d > 0, in the
basis y = c*x of its ``NumberField`` that makes the modulus monic and
integral, so products of integer vectors stay integral.  Addition is integer
cross-multiplication, multiplication an integer matrix product (a fixed
multiplier's matrix, as in a power ladder, is built once and applied to each
vector), a power one square-and-multiply, inversion a fraction-free
Gauss-Jordan solve.  ``Fraction`` appears only in moduli, in text forms and
where elements are built from, or read back as, coefficients in x: nothing
here divides Fraction polynomials.  The cyclotomic modulus Phi_n is an
integer product of factors (1 - x**e)**(+-1), e | n.  On the same integers
``power_sums`` evaluates sum_m m**t * lam**m over an Apery set for every t
at once (by residue class when lam is a root of unity, else by a Horner
walk), and ``eulerian_sum`` the general formula (Theorem 1): its main sum
and its lambda term (a field product) over one common denominator, reduced
once.  ``eulerian_sum`` also takes an Apery set written as a grid of one
or two steps (a row or a rectangle); for a lam with no order found its
power sums then have a closed form of O(mu**2) products, with no walk and
no list.  In a field of degree 1 an element is one int over d, so the walk
and the main sum run on plain ints, with no matrices, and that one
reduction is an exact division by known factors (the value times d**f is
an integer, f the Frobenius number), with no gcd of two long integers.
Both read a root of unity off one ``order_ladder`` of its powers, stopped
at its order, which the caller can build once and pass to each.

Conventions:
  * moduli are monic with degree >= 1, stored constant term first;
  * arithmetic is ring arithmetic: the modulus is never checked for
    irreducibility, and only inversion can fail (``ZeroDivisor``);
  * ``e ** 0 == 1`` for every element, including zero.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate, count, repeat
from math import comb, gcd, lcm, log
from operator import add, mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, "FieldElement"]


class InvalidField(ValueError):
    """Field constructor arguments do not describe a valid field."""


class FieldMismatch(ValueError):
    """Operands belong to different fields."""


class ZeroDivisor(ArithmeticError):
    """Inversion failed because the element divides zero (reducible modulus)."""


class DivideByZero(ZeroDivisionError):
    """Inversion of the zero element."""


# ---------------------------------------------------------------------------
# integer vectors modulo a monic integral g, constant term first


def _imatrix(q: Sequence[int], g: Sequence[int]) -> list[tuple[int, ...]]:
    """Rows of the integer matrix of multiplication by q modulo the monic g.

    Column j holds y**j * q mod g; reducing y * col by y**n == y**n - g(y)
    keeps every entry an integer.
    """
    n = len(g) - 1
    cols = [q]
    for _ in range(n - 1):
        prev = cols[-1]
        top = prev[-1]
        cols.append([-top * g[0]] + [prev[k - 1] - top * g[k] for k in range(1, n)])
    return list(zip(*cols))


def _apply(rows: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """The matrix with these rows times the vector v."""
    return [sum(map(mul, row, v)) for row in rows]


def _ipower(p: Sequence[int], e: int, g: Sequence[int]) -> list[int]:
    """p**e mod g by squaring (in degree 1, where nothing reduces, one int
    power)."""
    if len(g) == 2:
        return [p[0] ** e]
    result = [1] + [0] * (len(g) - 2)
    while e:
        rows = _imatrix(p, g)
        if e & 1:
            result = _apply(rows, result)
        e >>= 1
        if e:
            p = _apply(rows, p)
    return result


def _ipowers(p: Sequence[int], k: int, g: Sequence[int]) -> list[list[int]]:
    """[p**0, p**1, ..., p**k] mod g, from one matrix of p."""
    rows = _imatrix(p, g)
    out = [[1] + [0] * (len(g) - 2)]
    for _ in range(k):
        out.append(_apply(rows, out[-1]))
    return out


# CPython converts an int to or from decimal text only up to
# sys.get_int_max_str_digits() digits (4300 by default, 640 at least).
# Longer numbers are split by powers of ten into chunks of at most
# _CHUNK_DIGITS digits, and only the chunks are converted.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _int_str(n: int) -> str:
    """Decimal text of an int of any size."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    pows = [_CHUNK]  # pows[j] = 10**(_CHUNK_DIGITS * 2**j)
    while pows[-1] <= n:
        pows.append(pows[-1] * pows[-1])

    def digits(n: int, j: int, pad: bool) -> str:
        # n < pows[j]; pad zero-fills to _CHUNK_DIGITS * 2**j digits
        if j == 0:
            return str(n).zfill(_CHUNK_DIGITS) if pad else str(n)
        hi, lo = divmod(n, pows[j - 1])
        if hi or pad:
            return digits(hi, j - 1, pad) + digits(lo, j - 1, True)
        return digits(lo, j - 1, False)

    return digits(n, len(pows) - 1, False)


def _int_from_str(text: str) -> int:
    """Inverse of :func:`_int_str`; beyond one chunk only an optional sign
    and decimal digits are accepted."""
    text = text.strip()
    if len(text) <= _CHUNK_DIGITS:
        return int(text)
    sign, body = (text[0], text[1:]) if text[0] in "+-" else ("", text)
    if not body.isdigit():
        raise ValueError(f"invalid decimal integer of {len(text)} characters")

    def value(s: str) -> int:
        if len(s) <= _CHUNK_DIGITS:
            return int(s)
        h = len(s) // 2
        return value(s[:-h]) * 10**h + value(s[-h:])

    n = value(body)
    return -n if sign == "-" else n


def _fraction_str(q: Fraction) -> str:
    """"p/q" or "p", at any size."""
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def _fraction_from_str(text: str) -> Fraction:
    """Inverse of :func:`_fraction_str`."""
    num, slash, den = text.partition("/")
    return Fraction(_int_from_str(num), _int_from_str(den) if slash else 1)


# ---------------------------------------------------------------------------


class NumberField:
    """The quotient ring Q[x]/(f) for a monic polynomial f of degree >= 1.

    ``modulus`` is f with Fraction coefficients.  The field also fixes the
    integral basis its elements are stored in: y = c*x, c the lcm of the
    denominators of f, so that ``g`` = c**n f(y/c) is monic with integer
    coefficients, and ``c_pows`` = (c**0, ..., c**n) turns the
    coefficient of y**k back into that of x**k.

    ``tag`` records how the field was built (``("cyclotomic", n)`` or
    ``("quadratic", d)``) and is cosmetic: equality and hashing use the
    modulus alone, so e.g. the fourth cyclotomic field and Q(sqrt(-1))
    are the same field.
    """

    __slots__ = ("modulus", "label", "tag", "g", "c_pows")

    def __init__(self, modulus: Iterable, label: str | None = None, tag=None):
        coeffs = tuple(Fraction(c) for c in modulus)
        if len(coeffs) < 2:
            raise InvalidField("modulus must have degree >= 1")
        if coeffs[-1] != 1:
            raise InvalidField("modulus must be monic")
        self.modulus = coeffs
        self.label = label if label is not None else f"Q[x]/({_poly_str(coeffs)})"
        self.tag = tag
        n = len(coeffs) - 1
        c = lcm(*(f.denominator for f in coeffs))
        self.g = tuple(int(f * c ** (n - k)) for k, f in enumerate(coeffs))
        self.c_pows = tuple(c**k for k in range(n + 1))

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def element(self, coeffs: Iterable) -> "FieldElement":
        """Build an element from polynomial coefficients in x (constant first).

        Longer coefficient lists are reduced modulo the field modulus,
        shorter ones are zero padded: a_k x**k is a_k / c**k y**k, and over
        one denominator y**k = y**(k-n) * (y**n - g(y)) reduces the vector.
        """
        c = self.c_pows[1]
        in_y = [Fraction(a) / c**k for k, a in enumerate(coeffs)]
        den = lcm(*(a.denominator for a in in_y))
        num = [a.numerator * (den // a.denominator) for a in in_y]
        n, g = self.degree, self.g
        for k in range(len(num) - 1, n - 1, -1):
            top = num.pop()
            for j in range(n):
                num[k - n + j] -= top * g[j]
        return FieldElement(self, num + [0] * (n - len(num)), den)

    def from_rational(self, value) -> "FieldElement":
        q = Fraction(value)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    @property
    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    @property
    def one(self) -> "FieldElement":
        return self.from_rational(1)

    @property
    def generator(self) -> "FieldElement":
        """The residue of x in this field."""
        return self.element([0, 1])

    def __eq__(self, other):
        if isinstance(other, NumberField):
            return self.modulus == other.modulus
        return NotImplemented

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"NumberField({self.label})"

    def __getstate__(self):
        return self.modulus, self.label, self.tag

    def __setstate__(self, state):
        self.__init__(*state)


class FieldElement:
    """An element of a :class:`NumberField`, immutable after construction.

    The value is ``num(y) / den``: ``num`` is a tuple of ``field.degree``
    ints, the coefficients of y**0, y**1, ... in the field's integral basis
    y = c*x, and ``den`` is an int > 0.  The constructor brings every
    element to lowest terms, gcd(den, *num) == 1, so two elements of one
    field are equal exactly when their ``num`` and ``den`` are.  ``coeffs``
    reads the value back as Fraction coefficients in x, constant term first.
    Pickling keeps ``field``, ``num`` and ``den`` only, at every protocol.

    Supports +, -, *, /, ** and exact equality.  Integers and Fractions
    coerce to constants of the same field, so formula code can mix scalars
    freely.  Equality against elements of a *different* field is defined
    only when at least one side is rational valued; otherwise it raises
    ``FieldMismatch`` rather than guessing.
    """

    __slots__ = ("field", "num", "den", "_coeffs")

    def __init__(self, field: NumberField, num: Sequence[int], den: int):
        if len(num) != field.degree:
            raise InvalidField("coefficient count must equal the field degree")
        if den == 0:
            raise ZeroDivisionError("element denominator is zero")
        t = gcd(den, *num)
        if den < 0:
            t = -t
        self.field = field
        self.num = tuple(num) if t == 1 else tuple(a // t for a in num)
        self.den = den // t
        self._coeffs = None

    def __getstate__(self):
        return self.field, self.num, self.den  # not the coeffs cache

    def __setstate__(self, state):
        self.field, self.num, self.den = state
        self._coeffs = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of x**0, x**1, ... as Fractions."""
        if self._coeffs is None and self.field.degree == 1:
            self._coeffs = (_lowest_terms(self.num[0], self.den),)
        elif self._coeffs is None:
            pairs = zip(self.num, self.field.c_pows)
            self._coeffs = tuple(Fraction(a * ck, self.den) for a, ck in pairs)
        return self._coeffs

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.num[0] == self.den == 1 and self.is_rational()

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational valued")
        return Fraction(self.num[0], self.den)

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                if other.is_rational():
                    return self.field.from_rational(other.as_rational())
                raise FieldMismatch(
                    f"cannot combine elements of {self.field.label} and {other.field.label}"
                )
            return other
        if type(other) is int:  # not a bool, which takes the Fraction path
            return _reduced(self.field, (other,) + (0,) * (len(self.num) - 1), 1)
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return FieldElement(self.field, [a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return FieldElement(self.field, [a * db - b * da for a, b in zip(self.num, o.num)], da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(
                self.field, [a * q.numerator for a in self.num], self.den * q.denominator
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, _apply(_imatrix(self.num, self.field.g), o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse, den * w / D where M w = D * e0.

        M is the integer matrix of multiplication by ``num``, and
        fraction-free Gauss-Jordan elimination (Bareiss) turns [M | e0]
        into [D*I | D*w], D = +-det M, with every division exact.  M is
        singular exactly when ``num`` divides zero modulo g.
        """
        if self.is_zero():
            raise DivideByZero(f"zero has no inverse in {self.field.label}")
        if self.field.degree == 1:  # den / p, already in lowest terms
            p = self.num[0]
            return _reduced(self.field, (self.den if p > 0 else -self.den,), abs(p))
        solved = _adjugate(self.num, self.field.g)
        if solved is None:
            raise ZeroDivisor(f"{self!r} is a zero divisor modulo {_poly_str(self.field.modulus)}")
        w, D = solved
        return FieldElement(self.field, [self.den * x for x in w], D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        """P**e mod g over d**e, brought to lowest terms once at the end; a
        negative exponent inverts first, and 0**0 == 1."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return FieldElement(self.field, _ipower(self.num, exponent, self.field.g), self.den**exponent)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other * self.den
        if isinstance(other, FieldElement):
            if other.field == self.field:
                return self.num == other.num and self.den == other.den
            if self.is_rational() or other.is_rational():
                return (
                    self.is_rational()
                    and other.is_rational()
                    and self.num[0] == other.num[0]
                    and self.den == other.den
                )
            raise FieldMismatch(
                f"cannot compare elements of {self.field.label} and {other.field.label}"
            )
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(_lowest_terms(self.num[0], self.den))
        return hash((self.field.modulus, self.num, self.den))

    def __repr__(self):
        return f"<{pretty_str(self)} in {self.field.label}>"


def _adjugate(q: Sequence[int], g: Sequence[int]) -> tuple[list[int], int] | None:
    """(w, D) with q * w == D (mod g), or None when q is 0 or divides zero.

    Fraction-free Gauss-Jordan elimination (Bareiss) of [M | e0], M the
    integer matrix of multiplication by q, ends at [D*I | w] with D = +-det M
    and every division exact; M is singular exactly when q divides zero.
    """
    n = len(q)
    if n == 1:  # q * 1 == q
        return ([1], q[0]) if q[0] else None
    rows = [[*row, int(i == 0)] for i, row in enumerate(_imatrix(q, g))]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        pk = pivot[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(pk * x - f * y) // prev for x, y in zip(row, pivot)]
        prev = pk
    return [row[n] for row in rows], prev


def _lowest_terms(num: int, den: int) -> Fraction:
    """The Fraction num / den, for gcd(num, den) == 1 and den > 0: no gcd."""
    q = object.__new__(Fraction)
    q._numerator, q._denominator = num, den
    return q


def _reduced(field: NumberField, num: Sequence[int], den: int) -> FieldElement:
    """The element num / den, which the caller has brought to lowest terms
    with den > 0: stored as given, with no gcd."""
    e = object.__new__(FieldElement)
    e.field, e.num, e.den, e._coeffs = field, tuple(num), den, None
    return e


# ---------------------------------------------------------------------------
# weighted power sums: one exact integer pass


def _over(e: FieldElement, scale: int) -> tuple[list[int], int]:
    """e / scale as (P, d): the integer vector P(y) over the least d."""
    t = gcd(scale, *e.num)
    return [a // t for a in e.num], e.den * (scale // t)


@functools.lru_cache(maxsize=None)
def _max_order(n: int) -> int:
    """The largest r with phi(r) <= n, by a totient sieve below the first R
    with B(R) > n.  B(r) = r / (e**gamma ln ln r + 3 / ln ln r) increases
    for r >= 3 and bounds phi(r) from below (Rosser & Schoenfeld, Illinois
    J. Math. 6 (1962), Thm 15), so no r >= R has phi(r) <= n."""

    def bound(r: int) -> float:
        u = log(log(r))
        return r / (1.7810724179901979 * u + 3 / u)  # e**gamma, gamma Euler's constant

    phi = list(range(next(r for r in count(3) if bound(r) > n)))
    for p in range(2, len(phi)):
        if phi[p] == p:  # p is prime: each multiple keeps (p - 1)/p of its count
            phi[p::p] = [f - f // p for f in phi[p::p]]
    return max(r for r in range(1, len(phi)) if phi[r] <= n)


def order_ladder(lam: FieldElement) -> list[list[int]]:
    """[P**0, ..., P**(r-1)] mod g for lam = P/d of order r, else [].

    The ladder climbs one product at a time and stops at the first r with
    P**r == d**r * e0.  It gives up past ``_max_order(degree)``, the largest
    order of a root of unity in a field of that degree, and then returns [].
    [] does not prove that no power of lam is 1: a reducible modulus can
    hold a unit of larger order (x has order 30 in Q[x]/(Phi_5*Phi_6), of
    degree 6 and bound 18), so a caller with no order forms powers directly.
    """
    P, d = lam.num, lam.den
    rows = _imatrix(P, lam.field.g)
    ladder = [[1] + [0] * (len(P) - 1)]
    d_r = 1  # d**r
    for _ in range(_max_order(len(P))):
        Q = _apply(rows, ladder[-1])
        d_r *= d
        if Q[0] == d_r and not any(Q[1:]):
            return ladder
        ladder.append(Q)
    return []


def ladder_power(lam: FieldElement, ladder: list[list[int]], e: int) -> FieldElement:
    """lam**e for e >= 0, read off lam's nonempty ``order_ladder``."""
    k = e % len(ladder)
    return FieldElement(lam.field, ladder[k], lam.den**k)


def _ladder_coords(ladder: list[list[int]], d: int) -> list[tuple[int, ...]]:
    """The ladder over its common denominator d**(r-1), coordinate-major:
    row i holds coordinate i of P**c * d**(r-1-c) for c = 0..r-1.  An empty
    ladder (no order found) gives []."""
    if d != 1:
        r = len(ladder)
        ladder = [[p * d ** (r - 1 - c) for p in Pc] for c, Pc in enumerate(ladder)]
    return list(zip(*ladder))


def _inverse_minus_one(
    x: FieldElement, s: int, lam: FieldElement, coords: list[tuple[int, ...]]
) -> FieldElement:
    """1/(x - 1) for x = lam**s, given lam's ``order_ladder`` as
    ``_ladder_coords`` lays it out.

    When lam has an order r, x has order r' = r/gcd(s, r), and
    (x - 1) * sum_{k<r'} k x**k equals r' - sum_{k<r'} x**k, so
    1/(x - 1) = (1/r') sum_{k<r'} k x**k exactly when sum_{k<r'} x**k == 0.
    Both sums are read off the ladder, since x**k = lam**(s*k mod r).  When
    the sum is not 0, x - 1 is 0 or divides zero (their product is
    x**r' - 1 == 0); then, and for a lam with no order found, ``inverse``
    runs and raises its own ``DivideByZero`` or ``ZeroDivisor``.
    """
    if coords:
        r = len(coords[0])
        step = gcd(s, r)
        if not any(_apply(coords, [int(c % step == 0) for c in range(r)])):
            k_at = [0] * r  # k_at[s*k mod r] = k
            for k in range(r // step):
                k_at[s * k % r] = k
            return FieldElement(lam.field, _apply(coords, k_at), r // step * lam.den ** (r - 1))
    return (x - 1).inverse()


def _apery_sums(
    lam: FieldElement, exps: list[int], mu: int, coords: list[tuple[int, ...]]
) -> tuple[list[list[int]], int]:
    """(H, D) with H[t] = D * sum_m m**t * lam**m for t = 0..mu.

    ``exps`` is nonempty and sorted downwards, and ``coords`` is lam's
    ``order_ladder`` as ``_ladder_coords`` lays it out.  When the ladder
    stops at an order r of lam = P/d, lam**m depends on m mod r only: with
    B[t][c] the sum of m**t over the exponents m = c (mod r), H[t] is
    sum_c B[t][c] * P**c * d**(r-1-c) over D = d**(r-1).  When it found no
    order (coords is []), the Horner walk.
    """
    if not coords:
        return _apery_horner(lam, exps, mu)
    r = len(coords[0])
    buckets: list[list[int]] = [[] for _ in range(r)]
    for m in exps:
        buckets[m % r].append(m)
    B = [[sum(map(pow, b, repeat(t))) for b in buckets] for t in range(mu + 1)]  # 0**0 == 1
    return [_apply(coords, Bt) for Bt in B], lam.den ** (r - 1)


def _apery_horner(lam: FieldElement, exps: list[int], mu: int) -> tuple[list[list[int]], int]:
    """(H, D) as ``_apery_sums`` gives them, by a Horner walk for any lam.

    With lam = P/d, a step lam**gap is P**gap over d**gap divided by their
    gcd, P**gap the power of the next smaller gap times P**(difference),
    and D the product of the step denominators.  From the largest exponent
    down, H_t <- P**gap * H_t (mod g) + m**t * D, in coordinate-major H
    (H[i][t]): a step is one C-level pass per nonzero step-matrix entry.
    In a field of degree 1, P = (p,) and d are coprime ints, so every step
    p**gap / d**gap is in lowest terms, D = d**max(exps), and the walk
    runs on a list of mu + 1 ints.
    """
    g, P, d = lam.field.g, lam.num, lam.den
    ends = exps[1:] + [0]
    gaps = sorted({m - n for m, n in zip(exps, ends)} - {0})
    if len(P) == 1:
        p = P[0]
        scalar_steps = {gap: (p**gap, d**gap) for gap in gaps}
        h, scale = [0] * (mu + 1), 1
        for m, n in zip(exps, ends):
            terms = accumulate(repeat(m, mu), mul, initial=scale)  # m**t * scale
            if m == n:
                h = list(map(add, h, terms))
            else:
                q, e = scalar_steps[m - n]
                h = [(x + y) * q for x, y in zip(h, terms)]
                scale *= e
        return [[x] for x in h], scale
    powers = {0: [1] + [0] * (len(P) - 1)}  # P**gap, not reduced
    steps = {}  # gap -> nonzero (j, entry) of each row of the reduced step, its denominator
    for prev, gap in zip([0] + gaps, gaps):
        step = powers.get(gap - prev) or _ipower(P, gap - prev, g)
        Q = powers[gap] = _apply(_imatrix(powers[prev], g), step)
        e = d**gap
        t = gcd(e, *Q)
        rows = _imatrix([q // t for q in Q], g)
        steps[gap] = ([[(j, x) for j, x in enumerate(row) if x] for row in rows], e // t)

    H = [[0] * (mu + 1) for _ in P]
    scale = 1  # product of the step denominators so far
    for m, n in zip(exps, ends):
        H[0] = list(map(add, H[0], accumulate(repeat(m, mu), mul, initial=scale)))
        if m != n:
            rows, e = steps[m - n]
            scale *= e
            H = [_combine(row, H, mu) for row in rows]
    return [list(h) for h in zip(*H)], scale


def _combine(row: list[tuple[int, int]], H: list[list[int]], mu: int) -> list[int]:
    """sum_j x * H[j] over the (j, x) of ``row``, elementwise."""
    acc = None
    for j, x in row:
        term = map(mul, repeat(x), H[j])
        acc = term if acc is None else map(add, acc, term)
    return [0] * (mu + 1) if acc is None else list(acc)


def _grid_sums(lam: FieldElement, grid: dict[int, int], mu: int) -> tuple[list[list[int]], int] | None:
    """(H, D) as ``_apery_sums`` gives them, in closed form, over the Apery
    set {sum_s x_s * s : 0 <= x_s < grid[s]}, or None when lam**s - 1 is 0
    or divides zero for some step s (the walk then runs).

    With lam = P/d, Z = P**s mod g and delta = d**s, one step s taken
    n = grid[s] times gives T_j = sum_{x<n} x**j Z**x delta**(n-1-x) from
    (delta - Z) T_0 = delta**n - Z**n and, for j >= 1,

      (delta - Z) T_j = delta sum_{i<j} C(j,i) (-1)**(j-1-i) T_i
                        + (-1)**j delta**n - (n-1)**j Z**n,

    each an exact division by delta - Z (``_adjugate``, then a division by
    its determinant; a remainder raises ``ArithmeticError``).  Z and delta
    are first divided by their gcd, as a walk step is.  The steps combine
    by the binomial theorem, H_t = sum_j C(t,j) s**j T_j H'_{t-j} for H'
    the steps before, over D = prod_s delta**(grid[s] - 1), which in degree
    1 is the walk's d**E, E = sum_s (grid[s] - 1) * s the largest element.
    That is O(mu**2) products, whatever the size of the set.
    """
    g, P, d = lam.field.g, lam.num, lam.den
    steps = []
    for s, n in grid.items():
        Q, e = _ipower(P, s, g), d**s
        t = gcd(e, *Q)  # lam**s = Z/delta
        Z, delta = [q // t for q in Q], e // t
        solved = _adjugate([delta - Z[0], *(-z for z in Z[1:])], g)
        if solved is None:
            return None
        steps.append((s, n, Z, delta, solved))
    binomials = [[comb(t, j) for j in range(t + 1)] for t in range(mu + 1)]
    H, scale = None, 1
    for s, n, Z, delta, (w, det) in steps:
        cols, delta_top = _step_sums(g, Z, delta, n, binomials, w, det)
        U = [[s**j * x for x in T] for j, T in enumerate(zip(*cols))]  # s**j T_j
        if H is None:
            H = U
        else:  # H_t = [U_0 | U_1 | ...] times [C(t,0) H_t; C(t,1) H_{t-1}; ...]
            mats = [_imatrix(u, g) for u in U]
            rows = [[x for m in mats for x in m[i]] for i in range(len(P))]
            H = [
                _apply(rows, [c * x for c, h in zip(binom, H[t::-1]) for x in h])
                for t, binom in enumerate(binomials)
            ]
        scale *= delta_top
    return H, scale


def _step_sums(
    g: Sequence[int],
    Z: list[int],
    delta: int,
    n: int,
    binomials: list[list[int]],
    w: list[int],
    det: int,
) -> tuple[list[list[int]], int]:
    """(T, delta**(n-1)) for one step of :func:`_grid_sums`, T coordinate-major
    (T[i][j] is coordinate i of T_j), given (delta - Z) * w == det (mod g)
    and ``binomials``, the rows C(j, 0..j) of Pascal's triangle for j <= mu."""
    W = _imatrix(w, g)
    delta_top = delta ** (n - 1)
    Zn, delta_n = _ipower(Z, n, g), delta_top * delta
    T: list[list[int]] = [[] for _ in Z]
    k, sign = 1, 1  # (n-1)**j, (-1)**j
    for j, row in enumerate(binomials):
        signed = [c if (j - i) % 2 else -c for i, c in enumerate(row[:j])]  # C(j,i) (-1)**(j-1-i)
        rhs = [delta * sum(map(mul, signed, col)) - k * z for col, z in zip(T, Zn)]
        rhs[0] += sign * delta_n
        for col, x in zip(T, _apply(W, rhs) if len(W) > 1 else rhs):  # w == [1] in degree 1
            q, r = divmod(x, det)
            if r:
                raise ArithmeticError(
                    f"a closed-form Apery power sum left a remainder of {r.bit_length()} bits"
                )
            col.append(q)
        k *= n - 1
        sign = -sign
    return T, delta_top


def _apery_source(
    lam: FieldElement, apery: Iterable[int] | dict[int, int], mu: int, coords: list[tuple[int, ...]]
) -> tuple[list[list[int]], int, int]:
    """(H, D) as ``_apery_sums`` gives them, and the largest Apery element,
    from the Apery list or a grid {step: count} (see :func:`_grid_sums`).
    A grid takes the closed form when lam has no order found and every
    lam**step - 1 is invertible, and is otherwise written out as a list."""
    if isinstance(apery, dict):
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        closed = None if coords else _grid_sums(lam, apery, mu)
        if closed is not None:
            return (*closed, sum((n - 1) * s for s, n in apery.items()))
        elements = [0]
        for s, n in apery.items():
            elements = [m + x * s for x in range(n) for m in elements]
        apery = elements
    exps = _sorted_exponents(apery, mu)
    if not exps:
        raise ValueError("exponents must be nonempty")
    return (*_apery_sums(lam, exps, mu, coords), exps[0])


def _sorted_exponents(exponents: Iterable[int], mu: int) -> list[int]:
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    exps = sorted(exponents, reverse=True)
    if exps and exps[-1] < 0:
        raise ValueError("exponents must be nonnegative")
    return exps


def power_sums(
    lam: FieldElement, exponents: Iterable[int], mu: int, ladder: list[list[int]] | None = None
) -> list[FieldElement]:
    """S[t] = sum of m**t * lam**m over the exponents m, for t = 0..mu.

    0**0 == 1, so an exponent 0 adds lam**0 == 1 to S[0] and nothing to the
    other S[t]; a repeated exponent counts each time.  All of S[0..mu] come
    at once as integer vectors H_t = D * S[t] on lam's integer vector P(y)
    over d (see :class:`FieldElement`): summed by residue class mod r when
    lam's ``order_ladder`` (``ladder``, built here when None) stops at an
    order r, which every root of unity in a field has, else by a Horner walk
    over the exponents.  One division by D gives S[t].
    """
    exps = _sorted_exponents(exponents, mu)
    if not exps:
        return [lam.field.zero] * (mu + 1)
    ladder = order_ladder(lam) if ladder is None else ladder
    H, scale = _apery_sums(lam, exps, mu, _ladder_coords(ladder, lam.den))
    return [FieldElement(lam.field, h, scale) for h in H]


def eulerian_sum(
    lam: FieldElement,
    apery: Iterable[int] | dict[int, int],
    mu: int,
    a: int,
    L: FieldElement,
    eulerian_rows: Sequence[Sequence[int]],
    ladder: list[list[int]] | None = None,
) -> FieldElement:
    """The combination of Theorem 1, with S = power_sums and L = lam**a as
    the caller formed it (``sums.evaluate`` does, to test its pivot):

      sum_{n=0}^{mu} C(mu,n) (-a)**n A_n(L) S[mu-n] / (L-1)**(n+1)
        + (-1)**(mu+1) A_mu(lam) / (lam-1)**(mu+1),

    where A_n(t) = sum_j eulerian_rows[n][j] * t**j.  It is evaluated on
    integer vectors modulo g (lam = P(y)/d, H_t = D * S[t] from residue
    buckets when lam's ``order_ladder`` (``ladder``, built here when None)
    stops at an order, else in closed form from a grid (``_grid_sums``), or
    by the Horner walk), with the main sum and the lambda term over one
    common denominator, reduced once:

      * L = U/V in lowest terms (as every ``FieldElement`` is), and
        A_n(L) = N_n / V**n with N_n = sum_j E_nj U**j V**(n-j)
        (homogeneous in U and V);
      * 1/(L-1) = V*W/N, where W/N = 1/(U-V) is over its least integer
        denominator, and 1/(lam-1) is an element.  For a lam of order r,
        both inverses are read off the ladder: x = L (of order r/gcd(a, r))
        and x = lam have 1/(x-1) = (1/r') sum_{k<r'} k x**k when
        sum_{k<r'} x**k == 0, r' the order of x.  Otherwise, and for a
        lam with no order found, they come from ``FieldElement.inverse``, so
        a zero divisor of a reducible modulus raises ``ZeroDivisor`` with
        the same message either way;
      * the main sum is sum_n C(mu,n) (-a)**n V W**(n+1) N**(mu-n) N_n H_{mu-n}
        over N**(mu+1) D, by Horner in W, and stays unreduced (in a field
        of degree 1, where U, W and each H_t hold one int, it runs on ints,
        and each N_n is one Horner pass in U); the tail is the field product
        (-1)**(mu+1) A_mu(lam) * (1/(lam-1))**(mu+1), A_mu(lam) = T / d**mu with
        T = sum_j E_mu,j P**j d**(mu-j), whose numbers are small;
      * the two are cross-multiplied over N**(mu+1) D * tail.den.  In degree
        2 and up one normalising ``FieldElement`` reduces the result.  In
        degree 1, lam = p/d and D = d**m, m the largest Apery element; every
        gap is at most the Frobenius number f = m - a, so the value times
        d**f is an integer X, and one exact division by
        N**(mu+1) * tail.den * d**a gives it.  A nonzero remainder raises
        ``ArithmeticError``: Theorem 1's identity fails.  X / d**f is then
        brought to lowest terms by gcds of numbers no larger than d, with no
        gcd of two long integers.

    ``apery`` must be the Apery set of a, given one of two ways:
      * its elements, in any order (nonempty, as it holds 0);
      * a grid {step: count} (``semigroup.apery_grid``), a row or a
        rectangle whose elements are the sums sum_s x_s * step_s with
        0 <= x_s < count_s.  Its power sums come in closed form when lam
        has no order found and no lam**step - 1 is 0 or a zero divisor;
        otherwise the grid is written out as a list.
    In a field of degree 1 another set raises ``ArithmeticError`` unless
    the formula's value happens to be an integer over d**f.  L and lam
    must differ from 1.
    """
    field = lam.field
    g, P, d = field.g, lam.num, lam.den
    U, V = L.num, L.den
    ladder = order_ladder(lam) if ladder is None else ladder
    coords = _ladder_coords(ladder, d)
    W, N = _over(_inverse_minus_one(L, a, lam, coords), V)
    lam1_inv = _inverse_minus_one(lam, 1, lam, coords)
    H, scale, top = _apery_source(lam, apery, mu, coords)

    W_rows = _imatrix(W, g)
    acc = [0] * len(P)
    N_pow = 1  # N**(mu-n)
    if len(P) == 1:  # degree 1: every vector holds one int
        u, w = U[0], W[0]
        V_pows = list(accumulate(repeat(V, mu), mul, initial=1))
        for n in range(mu, -1, -1):
            N_n = 0  # by Horner in u, from j = n down
            for e, v in zip(reversed(eulerian_rows[n]), V_pows):
                N_n = N_n * u + e * v
            acc = [acc[0] * w + comb(mu, n) * (-a) ** n * N_pow * N_n * H[mu - n][0]]
            N_pow *= N
    else:
        U_pows = _ipowers(U, mu, g)
        for n in range(mu, -1, -1):
            X = _apply(_imatrix(_homogeneous(eulerian_rows[n], U_pows, V), g), H[mu - n])
            k = comb(mu, n) * (-a) ** n * N_pow
            acc = [s + k * x for s, x in zip(_apply(W_rows, acc), X)]
            N_pow *= N
    P_pows = ladder if mu < len(ladder) else _ipowers(P, mu, g)  # P**0..P**mu, or more
    A_mu = FieldElement(field, _homogeneous(eulerian_rows[mu], P_pows, d), d**mu)  # A_mu(lam)
    tail = A_mu * lam1_inv ** (mu + 1)  # times (-1)**(mu+1)
    # main + (-1)**(mu+1) tail over one denominator, N**(mu+1) * D * tail.den
    sign = 1 if mu % 2 else -1
    main_den = N_pow * scale
    num = [V * x * tail.den + sign * t * main_den for x, t in zip(_apply(W_rows, acc), tail.num)]
    if len(P) > 1:
        return FieldElement(field, num, main_den * tail.den)
    # Degree 1: every gap is at most the Frobenius number f = top - a, so
    # the value times d**f is an integer X, and D = d**top (d == 1 when the
    # buckets ran, for lam == -1).
    den = d ** max(top - a, 0)
    X, rem = divmod(num[0], N_pow * tail.den * (scale // den))
    if rem:
        raise ArithmeticError(f"Theorem 1's value times d**{top - a} is not an integer")
    # every prime of den divides d, so gcd(d, den, X) == 1 is lowest terms
    while X and (k := gcd(d, den, X % d)) > 1:
        X //= k
        den //= k
    return _reduced(field, (X,), den if X else 1)


def _homogeneous(row: Sequence[int], pows: list[list[int]], v: int) -> list[int]:
    """sum_j row[j] * pows[j] * v**(n-j) with n = len(row) - 1."""
    out = [0] * len(pows[0])
    scale = 1  # v**(n-j)
    for e, p in zip(reversed(row), reversed(pows[: len(row)])):
        if e:
            k = e * scale
            out = [o + k * x for o, x in zip(out, p)]
        scale *= v
    return out


# ---------------------------------------------------------------------------
# built-in fields

#: The rational field, realised as Q[x]/(x) so elements are bare constants.
QQ = NumberField((0, 1), label="Q", tag=("rational",))


@functools.lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Phi_n, constant term first: prod_{e | n} (1 - x**e)**mobius(n/e),
    negated for n = 1, as a power series truncated at degree n.

    Multiplying or dividing by 1 - x**e is one pass over n + 1 integers,
    in any order of the factors.  A result that is not monic of degree
    phi(n) = sum mobius(s) * n/s raises ``ArithmeticError``.
    """
    factors = [(n, 1)]  # (n/s, mobius(s)) for each squarefree divisor s of n
    for p in set(_prime_factors(n)):
        factors += [(e // p, -m) for e, m in factors]
    phi = sum(e * m for e, m in factors)  # the degree of the product
    c = [-1 if n == 1 else 1] + [0] * n  # Phi_1 = -(1 - x)
    for e, m in factors:
        if m > 0:  # times 1 - x**e
            for k in range(n, e - 1, -1):
                c[k] -= c[k - e]
        else:  # times 1/(1 - x**e) = 1 + x**e + x**(2e) + ...
            for k in range(e, n + 1):
                c[k] += c[k - e]
    if c[phi] != 1 or any(c[phi + 1 :]):
        raise ArithmeticError(f"Phi_{n} did not come out monic of degree {phi}")
    return tuple(c[: phi + 1])


def cyclotomic_field(n: int) -> NumberField:
    """Q adjoined a primitive n-th root of unity, as Q[x]/(Phi_n)."""
    if n < 1:
        raise InvalidField("cyclotomic index must be >= 1")
    return NumberField(_cyclotomic_poly(n), label=f"Q(zeta_{n})", tag=("cyclotomic", n))


def zeta(n: int) -> FieldElement:
    """A primitive n-th root of unity (the generator of ``cyclotomic_field(n)``)."""
    return cyclotomic_field(n).generator


def _prime_factors(n: int) -> list[int]:
    """The primes dividing |n|, with multiplicity, by trial division."""
    n, p, out = abs(n), 2, []
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out + [n] if n > 1 else out


def _is_squarefree(n: int) -> bool:
    primes = _prime_factors(n)
    return len(primes) == len(set(primes))


def quadratic_field(d: int) -> NumberField:
    """Q(sqrt(d)) as Q[x]/(x^2 - d), for squarefree d not in {0, 1} with
    |d| <= 10**12."""
    if d in (0, 1):
        raise InvalidField(f"no quadratic field for d={d}")
    if abs(d) > 10**12:  # trial division up to sqrt|d| takes 10**6 steps there
        raise InvalidField("|d| must be at most 10**12, the bound of the squarefree test")
    if not _is_squarefree(d):
        raise InvalidField(f"d={d} is not squarefree")
    return NumberField((-d, 0, 1), label=f"Q(sqrt({d}))", tag=("quadratic", d))


def sqrt_of(d: int) -> FieldElement:
    """sqrt(d) as the generator of ``quadratic_field(d)``."""
    return quadratic_field(d).generator


def to_element(value: Scalar, field: NumberField | None = None) -> FieldElement:
    """Coerce an int, Fraction or FieldElement into a field element.

    Plain numbers land in ``field`` (default Q).  A FieldElement is returned
    unchanged unless a different target field is requested, in which case it
    must be rational valued.
    """
    if isinstance(value, FieldElement):
        if field is None or field == value.field:
            return value
        return field.from_rational(value.as_rational())
    return (field or QQ).from_rational(Fraction(value))


# ---------------------------------------------------------------------------
# text forms


def _poly_str(coeffs: Sequence[Fraction], symbol: str = "x", ascending: bool = False) -> str:
    order = range(len(coeffs)) if ascending else range(len(coeffs) - 1, -1, -1)
    terms = []
    for k in order:
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = _fraction_str(abs(c))
        else:
            mon = symbol if k == 1 else f"{symbol}^{k}"
            body = mon if abs(c) == 1 else f"{_fraction_str(abs(c))}*{mon}"
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(sign + body)
    return "".join(terms) if terms else "0"


def canonical_str(e: FieldElement) -> str:
    """Canonical text form, re-parseable by the CLI weight grammar.

    Rationals print as ``p/q``; pure powers of a cyclotomic generator as
    ``zeta(n)^k``; elements of Q(sqrt(d)) as ``q(d; r0, r1)``; everything
    else as ``nf([modulus]; [coeffs])``.
    """
    field = e.field
    if field == QQ:
        return _fraction_str(e.coeffs[0])
    tag = field.tag or ()
    if tag[:1] == ("cyclotomic",):
        nonzero = [k for k, c in enumerate(e.coeffs) if c != 0]
        if len(nonzero) == 1 and e.coeffs[nonzero[0]] == 1:
            return f"zeta({tag[1]})^{nonzero[0]}"
    if tag[:1] == ("quadratic",):
        return f"q({tag[1]}; {_fraction_str(e.coeffs[0])}, {_fraction_str(e.coeffs[1])})"
    mod = ",".join(_fraction_str(c) for c in field.modulus)
    coeffs = ",".join(_fraction_str(c) for c in e.coeffs)
    return f"nf([{mod}]; [{coeffs}])"


def pretty_str(e: FieldElement) -> str:
    """Human-oriented rendering: a polynomial in zeta(n), sqrt(d) or x,
    constant term first, over a common denominator, e.g.
    ``(-443+391*sqrt(-3))/2``."""
    if e.is_rational():
        return _fraction_str(e.coeffs[0])
    tag = e.field.tag or ()
    if tag[:1] == ("cyclotomic",):
        symbol = f"zeta({tag[1]})"
    elif tag[:1] == ("quadratic",):
        symbol = f"sqrt({tag[1]})"
    else:
        symbol = "x"
    denom = lcm(*(c.denominator for c in e.coeffs))
    if denom == 1:
        return _poly_str(e.coeffs, symbol, ascending=True)
    scaled = [c * denom for c in e.coeffs]
    return f"({_poly_str(scaled, symbol, ascending=True)})/{_int_str(denom)}"


def element_to_obj(e: FieldElement) -> dict:
    """JSON-ready dict: coefficient strings plus the modulus, bit exact."""
    return {
        "coeffs": [_fraction_str(c) for c in e.coeffs],
        "modulus": [_fraction_str(c) for c in e.field.modulus],
        "label": e.field.label,
    }


def element_from_obj(obj: dict) -> FieldElement:
    """Inverse of :func:`element_to_obj` (field tag is not restored)."""
    modulus = tuple(_fraction_from_str(c) for c in obj["modulus"])
    if modulus == QQ.modulus:
        field = QQ
    else:
        field = NumberField(modulus, label=obj.get("label"))
    return field.element([_fraction_from_str(c) for c in obj["coeffs"]])
