"""Exact scalar arithmetic in Q and in quotient rings Q[x]/(f).

Every weight and every computed sum in this package is an element of some
number field, represented as a polynomial residue with ``fractions.Fraction``
coefficients.  The rational field itself is the degree-1 quotient Q[x]/(x),
so a single element type covers rational weights, roots of unity and
quadratic irrationals alike.

The hot paths of the package do not go through FieldElement arithmetic.
``_IntegralBasis`` writes a field in a basis y = c*x that makes the
modulus integral, so lam is an integer polynomial P(y) over a common
denominator d.  On it, ``power_sums`` evaluates the weighted power sums
sum_m m**t * lam**m over an Apery set for every t in one integer Horner
pass, and ``eulerian_sum`` evaluates the whole general formula (Theorem 1)
on those same integers with one division at the end; only its two
inverses are FieldElement operations.  The same code serves Q,
cyclotomic, quadratic and arbitrary ``Q[x]/(f)`` fields.

Conventions:
  * moduli are monic with degree >= 1, stored constant term first;
  * arithmetic is ring arithmetic: the modulus is never checked for
    irreducibility, and only inversion can fail (``ZeroDivisor``);
  * ``e ** 0 == 1`` for every element, including zero.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, lcm
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

    ``tag`` records how the field was built (``("cyclotomic", n)`` or
    ``("quadratic", d)``) and is cosmetic: equality and hashing use the
    modulus alone, so e.g. the fourth cyclotomic field and Q(sqrt(-1))
    are the same field.
    """

    __slots__ = ("modulus", "label", "tag")

    def __init__(self, modulus: Iterable, label: str | None = None, tag=None):
        coeffs = tuple(Fraction(c) for c in modulus)
        if len(coeffs) < 2:
            raise InvalidField("modulus must have degree >= 1")
        if coeffs[-1] != 1:
            raise InvalidField("modulus must be monic")
        self.modulus = coeffs
        self.label = label if label is not None else f"Q[x]/({_poly_str(coeffs)})"
        self.tag = tag

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def element(self, coeffs: Iterable) -> "FieldElement":
        """Build an element from polynomial coefficients (constant first).

        Longer coefficient lists are reduced modulo the field modulus,
        shorter ones are zero padded.
        """
        poly = _trim([Fraction(c) for c in coeffs])
        if len(poly) > self.degree:
            _, poly = _pdivmod(poly, self.modulus)
        padded = list(poly) + [Fraction(0)] * (self.degree - len(poly))
        return FieldElement(self, tuple(padded))

    def from_rational(self, value) -> "FieldElement":
        return self.element([Fraction(value)])

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

    Supports +, -, *, /, ** and exact equality.  Integers and Fractions
    coerce to constants of the same field, so formula code can mix scalars
    freely.  Equality against elements of a *different* field is defined
    only when at least one side is rational valued; otherwise it raises
    ``FieldMismatch`` rather than guessing.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != field.degree:
            raise InvalidField("coefficient count must equal the field degree")
        self.field = field
        self.coeffs = coeffs

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational valued")
        return self.coeffs[0]

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                if other.is_rational():
                    return self.field.from_rational(other.coeffs[0])
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
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(self.field, tuple(c * q for c in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = _pmul(_trim(self.coeffs), _trim(o.coeffs))
        return self.field.element(prod)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by the extended Euclidean algorithm."""
        if self.is_zero():
            raise DivideByZero(f"zero has no inverse in {self.field.label}")
        g, u, _ = _pxgcd(_trim(self.coeffs), self.field.modulus)
        if len(g) != 1:
            raise ZeroDivisor(
                f"{self!r} is a zero divisor modulo {_poly_str(self.field.modulus)}"
            )
        return self.field.element(_pmul(u, (1 / g[0],)))

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
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, FieldElement):
            if other.field == self.field:
                return self.coeffs == other.coeffs
            if self.is_rational() or other.is_rational():
                return (
                    self.is_rational()
                    and other.is_rational()
                    and self.coeffs[0] == other.coeffs[0]
                )
            raise FieldMismatch(
                f"cannot compare elements of {self.field.label} and {other.field.label}"
            )
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field.modulus, self.coeffs))

    def __repr__(self):
        return f"<{pretty_str(self)} in {self.field.label}>"


# ---------------------------------------------------------------------------
# weighted power sums: one exact integer pass


def _denominator_lcm(coeffs: Iterable[Fraction]) -> int:
    d = 1
    for c in coeffs:
        d = lcm(d, c.denominator)
    return d


def _imatrix(q: list[int], g: list[int]) -> list[tuple[int, ...]]:
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


class _IntegralBasis:
    """A field Q[x]/(f) written as Q[y]/(g) with y = c*x, g monic integral.

    c is the lcm of the denominators of f and g(y) = c**n f(y/c), so the
    product of two integer polynomials stays integral modulo g.  Every
    element is an integer vector over one common denominator.
    """

    __slots__ = ("field", "g", "c_pows")

    def __init__(self, field: NumberField):
        n = field.degree
        c = _denominator_lcm(field.modulus)
        self.field = field
        self.g = [int(f * c ** (n - k)) for k, f in enumerate(field.modulus)]
        self.c_pows = [c**k for k in range(n)]

    def split(self, e: FieldElement, scale: int = 1) -> tuple[list[int], int]:
        """e / scale as (P, d): the integer vector P(y) over the least d."""
        coeffs = [a / (scale * ck) for a, ck in zip(e.coeffs, self.c_pows)]
        d = _denominator_lcm(coeffs)
        return [int(a * d) for a in coeffs], d

    def element(self, v: list[int], denominator: int) -> FieldElement:
        """The field element v(y) / denominator, back in the basis of x."""
        return FieldElement(
            self.field, tuple(Fraction(a * ck, denominator) for a, ck in zip(v, self.c_pows))
        )

    def one(self) -> list[int]:
        return [1] + [0] * (len(self.g) - 2)

    def mul(self, p: list[int], q: list[int]) -> list[int]:
        return [sum(map(mul, row, q)) for row in _imatrix(p, self.g)]

    def power(self, p: list[int], e: int) -> list[int]:
        """p**e mod g by squaring."""
        result = self.one()
        while e:
            rows = _imatrix(p, self.g)
            if e & 1:
                result = [sum(map(mul, row, result)) for row in rows]
            e >>= 1
            if e:
                p = [sum(map(mul, row, p)) for row in rows]
        return result

    def powers(self, p: list[int], k: int) -> list[list[int]]:
        """[p**0, p**1, ..., p**k] mod g."""
        out = [self.one()]
        for _ in range(k):
            out.append(self.mul(out[-1], p))
        return out

    def apery_horner(self, P: list[int], d: int, exps: list[int], mu: int) -> list[list[int]]:
        """H[t] = d**M * sum_m m**t * (P/d)**m for t = 0..mu, M = exps[0].

        ``exps`` is nonempty and sorted downwards.  Walking it from M,
        H_t <- P**gap * H_t (mod g) + m**t * d**(M-m), which ends at H[t]
        after the smallest exponent's own power of P.  ``P**gap`` and
        ``d**gap`` are computed once per distinct gap.
        """
        steps: dict[int, tuple[list[tuple[int, ...]], int]] = {}

        def step(gap: int):
            if gap not in steps:
                steps[gap] = (_imatrix(self.power(P, gap), self.g), d**gap)
            return steps[gap]

        H = [[0] * len(P) for _ in range(mu + 1)]
        d_pow = 1  # d**(M - m)
        prev = exps[0]
        for m in exps:
            if m != prev:
                rows, d_gap = step(prev - m)
                d_pow *= d_gap
                H = [[sum(map(mul, row, h)) for row in rows] for h in H]
                prev = m
            term = d_pow
            for h in H:
                h[0] += term
                term *= m
        if prev:
            rows, _ = step(prev)
            H = [[sum(map(mul, row, h)) for row in rows] for h in H]
        return H


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
    other S[t].  All of S[0..mu] come from one Horner pass in integers:

      * the modulus f is made integral by x = y/c, c the lcm of its
        denominators: g(y) = c**n f(y/c) is monic with integer
        coefficients, and Q[x]/(f) is isomorphic to Q[y]/(g);
      * lam, written in y, is P(y)/d with integer P and d the lcm of its
        coefficient denominators;
      * walking the exponents downwards from the largest, M,
        H_t <- P**gap * H_t (mod g) + m**t * d**(M-m), which ends at
        d**M * S[t] after the smallest exponent's own power of P;
      * one division by d**M and the map y**k -> c**k x**k return to the
        field's basis.
    """
    exps = _sorted_exponents(exponents, mu)
    if not exps:
        return [lam.field.zero] * (mu + 1)
    basis = _IntegralBasis(lam.field)
    P, d = basis.split(lam)
    scale = d ** exps[0]
    return [basis.element(h, scale) for h in basis.apery_horner(P, d, exps, mu)]


def eulerian_sum(
    lam: FieldElement,
    exponents: Iterable[int],
    mu: int,
    a: int,
    eulerian_rows: Sequence[Sequence[int]],
) -> FieldElement:
    """The combination of Theorem 1, with L = lam**a and S = power_sums:

      sum_{n=0}^{mu} C(mu,n) (-a)**n A_n(L) S[mu-n] / (L-1)**(n+1)
        + (-1)**(mu+1) A_mu(lam) / (lam-1)**(mu+1),

    where A_n(t) = sum_j eulerian_rows[n][j] * t**j.  It is evaluated in the
    integral basis of ``power_sums`` (lam = P(y)/d, H_t = d**M * S[t]) with
    integer vectors and one division at the end:

      * L = U/V with U = P**a mod g and V = d**a, and A_n(L) = N_n / V**n
        with N_n = sum_j E_nj U**j V**(n-j) (homogeneous in U and V);
      * 1/(L-1) = V*W/N and 1/(lam-1) = d*W1/N1, where W/N = 1/(U-V) and
        W1/N1 = 1/(P-d), each over its least integer denominator, come from
        ``FieldElement.inverse`` of L - 1 and lam - 1 (so a zero divisor of
        a reducible modulus raises ``ZeroDivisor`` with the same message);
      * the main sum is sum_n C(mu,n) (-a)**n V W**(n+1) N**(mu-n) N_n H_{mu-n}
        over N**(mu+1) d**M, by Horner in W; the tail is
        (-1)**(mu+1) d W1**(mu+1) T / N1**(mu+1), T = sum_j E_mu,j P**j d**(mu-j).

    The exponent list must be nonempty (an Apery set holds 0), and lam**a
    and lam must differ from 1.
    """
    exps = _sorted_exponents(exponents, mu)
    if not exps:
        raise ValueError("exponents must be nonempty")
    basis = _IntegralBasis(lam.field)
    P, d = basis.split(lam)
    U, V = basis.power(P, a), d**a
    W, N = basis.split((basis.element(U, V) - 1).inverse(), V)
    W1, N1 = basis.split((lam - 1).inverse(), d)
    H = basis.apery_horner(P, d, exps, mu)

    U_pows = basis.powers(U, mu)
    acc = [0] * len(P)
    N_pow = 1  # N**(mu-n)
    for n in range(mu, -1, -1):
        X = basis.mul(_homogeneous(eulerian_rows[n], U_pows, V), H[mu - n])
        k = comb(mu, n) * (-a) ** n * N_pow
        acc = [s + k * x for s, x in zip(basis.mul(acc, W), X)]
        N_pow *= N
    main = basis.mul(acc, [V * w for w in W])  # over N**(mu+1) * d**M
    T = _homogeneous(eulerian_rows[mu], basis.powers(P, mu), d)
    tail = basis.mul(basis.power(W1, mu + 1), T)  # times (-1)**(mu+1) d / N1**(mu+1)

    main_den = N_pow * d ** exps[0]
    tail_den = N1 ** (mu + 1)
    k = (-1) ** (mu + 1) * d * main_den
    return basis.element([s * tail_den + k * t for s, t in zip(main, tail)], main_den * tail_den)


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
