"""Exact scalar arithmetic in Q and in quotient rings Q[x]/(f).

Every weight and every computed sum in this package is an element of some
number field Q[x]/(f).  The rational field itself is the degree-1 quotient
Q[x]/(x), so a single element type covers rational weights, roots of unity
and quadratic irrationals alike.

An element is an integer vector P(y) over one denominator d > 0, in the
basis y = c*x of its ``NumberField`` that makes the modulus monic and
integral, so products of integer vectors stay integral.  Addition is integer
cross-multiplication, multiplication an integer matrix product, inversion a
fraction-free Gauss-Jordan solve; ``Fraction`` appears only where elements
are built from, or read back as, rational coefficients in x.  On the same
integers ``power_sums`` evaluates sum_m m**t * lam**m over an Apery set for
every t in one Horner pass, and ``eulerian_sum`` the whole general formula
(Theorem 1) with one division at the end.

Conventions:
  * moduli are monic with degree >= 1, stored constant term first;
  * arithmetic is ring arithmetic: the modulus is never checked for
    irreducibility, and only inversion can fail (``ZeroDivisor``);
  * ``e ** 0 == 1`` for every element, including zero.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Rational = Fraction

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
# polynomial helpers over Fraction, constant term first, no trailing zeros


def _trim(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
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


def _denominator_lcm(coeffs: Iterable[Fraction]) -> int:
    d = 1
    for c in coeffs:
        d = lcm(d, c.denominator)
    return d


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
    return [tuple(col[i] for col in cols) for i in range(n)]


def _imul(p: Sequence[int], q: Sequence[int], g: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, q)) for row in _imatrix(p, g)]


def _ipower(p: Sequence[int], e: int, g: Sequence[int]) -> list[int]:
    """p**e mod g by squaring."""
    result = [1] + [0] * (len(g) - 2)
    while e:
        rows = _imatrix(p, g)
        if e & 1:
            result = [sum(map(mul, row, result)) for row in rows]
        e >>= 1
        if e:
            p = [sum(map(mul, row, p)) for row in rows]
    return result


def _ipowers(p: Sequence[int], k: int, g: Sequence[int]) -> list[list[int]]:
    """[p**0, p**1, ..., p**k] mod g."""
    out = [[1] + [0] * (len(g) - 2)]
    for _ in range(k):
        out.append(_imul(out[-1], p, g))
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
    coefficients, and ``c_pows`` = (c**0, ..., c**(n-1)) turns the
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
        c = _denominator_lcm(coeffs)
        self.g = tuple(int(f * c ** (n - k)) for k, f in enumerate(coeffs))
        self.c_pows = tuple(c**k for k in range(n))

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def element(self, coeffs: Iterable) -> "FieldElement":
        """Build an element from polynomial coefficients in x (constant first).

        Longer coefficient lists are reduced modulo the field modulus,
        shorter ones are zero padded.
        """
        poly = _trim([Fraction(c) for c in coeffs])
        if len(poly) > self.degree:
            _, poly = _pdivmod(poly, self.modulus)
        in_y = [a / ck for a, ck in zip(poly, self.c_pows)]
        den = _denominator_lcm(in_y)
        num = [a.numerator * (den // a.denominator) for a in in_y]
        return FieldElement(self, num + [0] * (self.degree - len(num)), den)

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


class FieldElement:
    """An element of a :class:`NumberField`, immutable after construction.

    The value is ``num(y) / den``: ``num`` is a tuple of ``field.degree``
    ints, the coefficients of y**0, y**1, ... in the field's integral basis
    y = c*x, and ``den`` is an int > 0.  The constructor brings every
    element to lowest terms, gcd(den, *num) == 1, so two elements of one
    field are equal exactly when their ``num`` and ``den`` are.  ``coeffs``
    reads the value back as Fraction coefficients in x, constant term first.

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

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of x**0, x**1, ... as Fractions."""
        if self._coeffs is None:
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
        return FieldElement(self.field, _imul(self.num, o.num, self.field.g), self.den * o.den)

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
        n = self.field.degree
        rows = [[*row, int(i == 0)] for i, row in enumerate(_imatrix(self.num, self.field.g))]
        prev = 1
        for k in range(n):
            p = next((i for i in range(k, n) if rows[i][k]), None)
            if p is None:
                raise ZeroDivisor(
                    f"{self!r} is a zero divisor modulo {_poly_str(self.field.modulus)}"
                )
            rows[k], rows[p] = rows[p], rows[k]
            pivot = rows[k]
            pk = pivot[k]
            for i, row in enumerate(rows):
                if i != k:
                    f = row[k]
                    rows[i] = [(pk * x - f * y) // prev for x, y in zip(row, pivot)]
            prev = pk
        return FieldElement(self.field, [self.den * row[n] for row in rows], prev)

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
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one  # 0**0 == 1 by convention
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.modulus, self.num, self.den))

    def __repr__(self):
        return f"<{pretty_str(self)} in {self.field.label}>"


# ---------------------------------------------------------------------------
# weighted power sums: one exact integer pass


def _over(e: FieldElement, scale: int) -> tuple[list[int], int]:
    """e / scale as (P, d): the integer vector P(y) over the least d."""
    t = gcd(scale, *e.num)
    return [a // t for a in e.num], e.den * (scale // t)


def _apery_horner(lam: FieldElement, exps: list[int], mu: int) -> tuple[list[list[int]], int]:
    """(H, D) with H[t] = D * sum_m m**t * lam**m for t = 0..mu.

    ``exps`` is nonempty and sorted downwards.  With lam = P/d, each step
    lam**gap is the integer vector P**gap over d**gap, both divided by
    their gcd and computed once per distinct gap; D is the product of the
    step denominators.  Walking the exponents from the largest,
    H_t <- P**gap * H_t (mod g) + m**t * D, which ends at H[t] after the
    smallest exponent's own step.
    """
    g, P, d = lam.field.g, lam.num, lam.den
    steps: dict[int, tuple[list[tuple[int, ...]], int]] = {}

    def step(gap: int):
        if gap not in steps:
            Q, e = _ipower(P, gap, g), d**gap
            t = gcd(e, *Q)
            steps[gap] = (_imatrix([q // t for q in Q], g), e // t)
        return steps[gap]

    H = [[0] * len(P) for _ in range(mu + 1)]
    scale = 1  # product of the step denominators so far
    prev = exps[0]
    for m in exps:
        if m != prev:
            rows, e = step(prev - m)
            scale *= e
            H = [[sum(map(mul, row, h)) for row in rows] for h in H]
            prev = m
        term = scale
        for h in H:
            h[0] += term
            term *= m
    if prev:
        rows, e = step(prev)
        scale *= e
        H = [[sum(map(mul, row, h)) for row in rows] for h in H]
    return H, scale


def _sorted_exponents(exponents: Iterable[int], mu: int) -> list[int]:
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    exps = sorted(exponents, reverse=True)
    if exps and exps[-1] < 0:
        raise ValueError("exponents must be nonnegative")
    return exps


def power_sums(lam: FieldElement, exponents: Iterable[int], mu: int) -> list[FieldElement]:
    """S[t] = sum of m**t * lam**m over the exponents m, for t = 0..mu.

    0**0 == 1, so an exponent 0 adds lam**0 == 1 to S[0] and nothing to the
    other S[t].  All of S[0..mu] come from one Horner pass on lam's integer
    vector P(y) over d (see :class:`FieldElement`): walking the exponents
    downwards, H_t <- P**gap * H_t (mod g) + m**t * D, with each step
    P**gap / d**gap in lowest terms and D the product of the step
    denominators, ends at D * S[t]; one division by D gives S[t].
    """
    exps = _sorted_exponents(exponents, mu)
    if not exps:
        return [lam.field.zero] * (mu + 1)
    H, scale = _apery_horner(lam, exps, mu)
    return [FieldElement(lam.field, h, scale) for h in H]


def eulerian_sum(
    lam: FieldElement,
    exponents: Iterable[int],
    mu: int,
    a: int,
    L: FieldElement,
    eulerian_rows: Sequence[Sequence[int]],
) -> FieldElement:
    """The combination of Theorem 1, with S = power_sums and L = lam**a as
    the caller formed it (``sums.evaluate`` does, to test its pivot):

      sum_{n=0}^{mu} C(mu,n) (-a)**n A_n(L) S[mu-n] / (L-1)**(n+1)
        + (-1)**(mu+1) A_mu(lam) / (lam-1)**(mu+1),

    where A_n(t) = sum_j eulerian_rows[n][j] * t**j.  It is evaluated on
    integer vectors modulo g (lam = P(y)/d, H_t = D * S[t] from the Horner
    pass of ``power_sums``) with one division at the end:

      * L = U/V in lowest terms (as every ``FieldElement`` is), and
        A_n(L) = N_n / V**n with N_n = sum_j E_nj U**j V**(n-j)
        (homogeneous in U and V);
      * 1/(L-1) = V*W/N and 1/(lam-1) = d*W1/N1, where W/N = 1/(U-V) and
        W1/N1 = 1/(P-d), each over its least integer denominator, come from
        ``FieldElement.inverse`` of L - 1 and lam - 1 (so a zero divisor of
        a reducible modulus raises ``ZeroDivisor`` with the same message);
      * the main sum is sum_n C(mu,n) (-a)**n V W**(n+1) N**(mu-n) N_n H_{mu-n}
        over N**(mu+1) D, by Horner in W; the tail is
        (-1)**(mu+1) d W1**(mu+1) T / N1**(mu+1), T = sum_j E_mu,j P**j d**(mu-j).

    The exponent list must be nonempty (an Apery set holds 0), and L and lam
    must differ from 1.
    """
    exps = _sorted_exponents(exponents, mu)
    if not exps:
        raise ValueError("exponents must be nonempty")
    field = lam.field
    g, P, d = field.g, lam.num, lam.den
    U, V = L.num, L.den
    W, N = _over((L - 1).inverse(), V)
    W1, N1 = _over((lam - 1).inverse(), d)
    H, scale = _apery_horner(lam, exps, mu)

    U_pows = _ipowers(U, mu, g)
    acc = [0] * len(P)
    N_pow = 1  # N**(mu-n)
    for n in range(mu, -1, -1):
        X = _imul(_homogeneous(eulerian_rows[n], U_pows, V), H[mu - n], g)
        k = comb(mu, n) * (-a) ** n * N_pow
        acc = [s + k * x for s, x in zip(_imul(acc, W, g), X)]
        N_pow *= N
    main = _imul(acc, [V * w for w in W], g)  # over N**(mu+1) * D
    T = _homogeneous(eulerian_rows[mu], _ipowers(P, mu, g), d)
    tail = _imul(_ipower(W1, mu + 1, g), T, g)  # times (-1)**(mu+1) d / N1**(mu+1)

    main_den = N_pow * scale
    tail_den = N1 ** (mu + 1)
    k = (-1) ** (mu + 1) * d * main_den
    return FieldElement(field, [s * tail_den + k * t for s, t in zip(main, tail)], main_den * tail_den)


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
def _cyclotomic_poly(n: int) -> tuple[Fraction, ...]:
    # (x^n - 1) divided by the cyclotomic polynomials of all proper divisors
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    poly = _trim(poly)
    for d in range(1, n):
        if n % d == 0:
            quo, rem = _pdivmod(poly, _cyclotomic_poly(d))
            if rem:
                raise ArithmeticError(f"Phi_{d} does not divide x^{n} - 1 exactly")
            poly = quo
    return poly


def cyclotomic_field(n: int) -> NumberField:
    """Q adjoined a primitive n-th root of unity, as Q[x]/(Phi_n)."""
    if n < 1:
        raise InvalidField("cyclotomic index must be >= 1")
    return NumberField(_cyclotomic_poly(n), label=f"Q(zeta_{n})", tag=("cyclotomic", n))


def zeta(n: int) -> FieldElement:
    """A primitive n-th root of unity (the generator of ``cyclotomic_field(n)``)."""
    return cyclotomic_field(n).generator


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return True


def quadratic_field(d: int) -> NumberField:
    """Q(sqrt(d)) as Q[x]/(x^2 - d), for squarefree d not in {0, 1}."""
    if d in (0, 1):
        raise InvalidField(f"no quadratic field for d={d}")
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
    denom = _denominator_lcm(e.coeffs)
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
