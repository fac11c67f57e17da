"""Numerical semigroup machinery: generator validation, Apery sets, gap
enumeration, and the classical gap statistics.

For generators a_1 < ... < a_k with gcd 1, the semigroup is the set of
nonnegative integer combinations; its complement in the positive integers
(the gap set) is finite.  Everything here is driven by the Apery set with
respect to a pivot generator a: for each residue i mod a, ``reps[i]`` is the
least semigroup element congruent to i, and the gaps in that class are
exactly reps[i] - a, reps[i] - 2a, ..., down to i's first positive value.

Two independent algorithms are provided on purpose: Apery sets come from the
round-robin algorithm of Boecker & Liptak, O(k * a) for k generators with no
heap, seeded where it can be from the L-shape of a pair of steps, while
``sieve_representable`` is a reachability table, one big-integer bitset
closed under adding each generator.  Tests play them against each other,
and against the heap Dijkstra (Nijenhuis 1979) that round-robin replaced,
which the tests keep as a reference.  The gap statistics need only the
power sums P_k = sum_i reps[i]**k and the largest element, which a pair or
an L-shaped triple gives in closed form, Faulhaber sums with no list: one
Bernoulli identity, :func:`gap_power_sum`, turns the P_k into the sum of
n**mu over the gaps, the genus at mu = 0 and the gap sum at mu = 1.

The value classes here (``GeneratorSet``, ``AperySet``, ``GapSet``) and in
``sums`` and ``oracle`` are immutable records on the small base
:class:`Record`, each with its own ``__init__``.
"""

from __future__ import annotations

from itertools import accumulate, combinations, count, repeat
from math import comb, gcd, lcm
from operator import mod, mul
from typing import Iterable, Iterator, Sequence

from .combinatorics import bernoulli, power_sum_table


class EmptyGenerators(ValueError):
    """No generators supplied."""


class NonPositive(ValueError):
    """A generator was zero or negative."""


class NotCoprime(ValueError):
    """The generators have a common factor > 1."""


class NotAGenerator(ValueError):
    """A requested pivot is not one of the generators."""


class Record:
    """Base of the package's immutable records.

    A subclass names its fields once, in ``__slots__``, and sets them in its
    own ``__init__`` with ``object.__setattr__``.  A record equals only a
    record of the same class with equal fields, hashes as the tuple of its
    fields, prints as ``Name(field=value, ...)``, and refuses assignment
    and deletion with ``AttributeError``.  ``copy``, ``deepcopy`` and
    ``pickle`` restore the fields through ``__setstate__`` without calling
    ``__init__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(getattr, repeat(self), self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class GeneratorSet(Record):
    """Strictly increasing, deduplicated, coprime positive generators."""

    __slots__ = ("gens",)

    def __init__(self, gens: tuple[int, ...]):
        object.__setattr__(self, "gens", gens)

    def __iter__(self) -> Iterator[int]:
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self.gens)

    def __contains__(self, value: int) -> bool:
        return value in self.gens

    @property
    def min(self) -> int:
        return self.gens[0]


def validate_generators(raw: Iterable[int]) -> GeneratorSet:
    """Sort, deduplicate and validate a generator list (gcd must be 1)."""
    gens = sorted(set(int(a) for a in raw))
    if not gens:
        raise EmptyGenerators("at least one generator is required")
    if gens[0] <= 0:
        raise NonPositive(f"generators must be positive, got {gens[0]}")
    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        raise NotCoprime(f"gcd of generators is {g}, must be 1")
    return GeneratorSet(tuple(gens))


class AperySet(Record):
    """Minimal semigroup representatives per residue class mod the pivot.

    ``reps[i]`` is the least semigroup element congruent to i mod pivot;
    reps[0] == 0.  ``gap_counts[i] == (reps[i] - i) // pivot`` is the number
    of gaps in residue class i.
    """

    __slots__ = ("pivot", "reps")

    def __init__(self, pivot: int, reps: tuple[int, ...]):
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "reps", reps)

    @property
    def gap_counts(self) -> tuple[int, ...]:
        return tuple((m - i) // self.pivot for i, m in enumerate(self.reps))


def check_pivot(A: GeneratorSet, pivot: int) -> None:
    """Raise ``NotAGenerator`` unless ``pivot`` is one of the generators."""
    if pivot not in A:
        raise NotAGenerator(f"pivot {pivot} is not a generator of {A.gens}")


def apery_set(A: GeneratorSet, pivot: int | None = None) -> AperySet:
    """Compute the Apery set by the round-robin algorithm of Boecker & Liptak.

    ``n[i]`` is the least element congruent to i mod pivot that the
    generators seen so far reach.  A generator b with b % pivot != 0 moves
    residue p to (p + b) % pivot, so it splits the residues into
    d = gcd(pivot, b) cycles of pivot/d residues.  The L-shape or row that
    :func:`_seed` finds is written in one pass; without one, the first such
    b fills its own cycle through 0 directly, n[j*b % pivot] = j*b.  Every
    other one is walked by :func:`_walk`: O(k * pivot) for k generators.

    A residue left at the sentinel ``pivot * max(gens)``, above every Apery
    element, is unreachable, which the gcd 1 of validated generators rules
    out.  (Boecker & Liptak, "A fast and simple algorithm for the money
    changing problem", Algorithmica 48, 2007.)
    """
    if pivot is None:
        pivot = A.min
    check_pivot(A, pivot)
    a = pivot
    steps = [b for b in A if b % a != 0]
    unreached = a * max(A)
    n = [unreached] * a
    n[0] = 0
    if seed := _seed(a, steps):
        b, c, alpha, v, beta, w = seed
        steps = [d for d in steps if d not in (b, c)]
        for y in range(beta):
            width = alpha if y < beta - v else alpha - w
            for m in range(y * c, y * c + width * b, b):
                n[m % a] = m
    elif steps:
        b = steps.pop(0)
        for m in range(b, a // gcd(a, b) * b, b):
            n[m % a] = m
    for b in steps:
        _walk(n, a, b, unreached)
    if unreached in n:
        raise ArithmeticError(f"some residue mod {pivot} is unreachable from {A.gens}")
    return AperySet(pivot, tuple(n))


def _relation(a: int, b: int, c: int) -> tuple[int, int]:
    """The least x > 0 with x*b in <a, c>, and the least y with x*b - y*c
    a nonnegative multiple of a: y is (x*b mod a)/g * (c/g)**-1 mod a/g for
    g = gcd(a, c), so the search takes x steps."""
    g = gcd(a, c)
    inv = pow(c // g, -1, a // g)
    for x in count(1):
        r = x * b % a
        if r % g == 0:
            y = r // g * inv % (a // g)
            if y * c <= x * b:
                return x, y


def _l_shape(a: int, b: int, c: int) -> tuple[int, int, int, int] | None:
    """(alpha, v, beta, w) of the Apery set of <a, b, c> (gcd 1, b and c not
    multiples of a), or None when it is not an L-shape.

    With (alpha, v) = _relation(a, b, c) and (beta, w) = _relation(a, c, b)
    it is x*b + y*c, x < alpha, y < beta, less the corner x >= alpha - w,
    y >= beta - v: alpha*beta - v*w == a elements, unless v == beta and so
    alpha*b == beta*c (Herzog, Manuscripta Math. 3, 1970; Rosales &
    Garcia-Sanchez, Numerical Semigroups, Springer 2009, ch. 9)."""
    (alpha, v), (beta, w) = _relation(a, b, c), _relation(a, c, b)
    if v == beta:
        return None
    if alpha * beta - v * w != a:
        raise ArithmeticError(f"L-shape of <{a}, {b}, {c}> has {alpha * beta - v * w} elements")
    return alpha, v, beta, w


def _seed(a: int, steps: list[int]) -> tuple[int, ...] | None:
    """(b, c, alpha, v, beta, w) of :func:`_l_shape` for the first pair of
    steps b, c, in order, with gcd(a, b, c) == 1 whose Apery set is an
    L-shape, or the row (b, 0, a, 0, 1, 0) for a lone step b coprime to a."""
    if len(steps) == 1 and gcd(a, steps[0]) == 1:
        return steps[0], 0, a, 0, 1, 0
    for b, c in combinations(steps, 2):
        if gcd(a, b, c) == 1 and (shape := _l_shape(a, b, c)):
            return (b, c, *shape)
    return None


def _walk(n: list[int], a: int, b: int, unreached: int) -> None:
    """Walk every cycle of p -> (p + b) % a once from its least reached
    residue (nothing in the cycle can improve it; being congruent to its
    residue, the least value also gives its position), setting
    n[p] = min(m + b, n[p]); a cycle nothing has reached yet is skipped."""
    d = gcd(a, b)
    s = b % a
    span = a // d * s
    for r in range(d):
        # residue 0 holds 0.  The slice is dropped before the walk: kept
        # during it, it would hold every value the walk replaces.
        m = min(n[r::d]) if r else 0
        if m == unreached:
            continue
        q = m % a  # a reached value is congruent to its residue
        for p in map(mod, range(q + s, q + span, s), repeat(a)):
            m += b
            v = n[p]
            if v < m:
                m = v
            else:
                n[p] = m


class GapSet(Record):
    """The finite, sorted set of positive integers outside the semigroup."""

    __slots__ = ("gaps",)

    def __init__(self, gaps: tuple[int, ...]):
        object.__setattr__(self, "gaps", gaps)

    def __iter__(self) -> Iterator[int]:
        return iter(self.gaps)

    def __len__(self) -> int:
        return len(self.gaps)

    def __contains__(self, n: int) -> bool:
        return n in self.gaps


def gap_set(A: GeneratorSet) -> GapSet:
    """Enumerate all gaps from the Apery set of the smallest generator."""
    ap = apery_set(A)
    gaps = []
    for m in ap.reps:
        gaps.extend(range(m - ap.pivot, 0, -ap.pivot))
    gaps.sort()
    return GapSet(tuple(gaps))


def sieve_representable(A: GeneratorSet, bound: int) -> list[bool]:
    """Reachability table t[0..bound]: t[n] iff n is a semigroup element.

    Independent of :func:`apery_set`; used as its cross-check oracle.  Bit n
    of the integer ``s`` is t[n].  Starting from {0}, each generator a is
    added by doubling shifts: after shifting by a, 2a, ..., 2**j * a, the
    set is closed under adding up to 2**(j+1) - 1 copies of a, which covers
    every multiple of a up to ``bound`` once 2**(j+1) * a > bound.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    mask = (1 << (bound + 1)) - 1
    s = 1
    for a in A:
        shift = a
        while shift <= bound:
            s |= (s << shift) & mask
            shift <<= 1
    return [bit == "1" for bit in reversed(f"{s:0{bound + 1}b}")]


def apery_power_sums(A: GeneratorSet, pivot: int | None, ks: Sequence[int]) -> tuple[int, ...]:
    """P_k = sum_i reps[i]**k for each k in ``ks``, over the Apery set of
    ``pivot`` (default the least generator).  When :func:`_seed` writes the
    set from at most two steps, with F_j(n) = sum_{x<n} x**j (``power_sum_table``),

        P_k = sum_j C(k, j) b**j c**(k-j) [F_j(alpha) F_{k-j}(beta)
                - (F_j(alpha) - F_j(alpha-w)) (F_{k-j}(beta) - F_{k-j}(beta-v))].

    It runs above the size rule of :func:`_closed_shape` for the largest k;
    otherwise each P_k is one pass over ``apery_set(A, pivot).reps``.
    """
    a, shape = _closed_shape(A, pivot, max(ks, default=0))
    if shape:
        return _shape_power_sums(shape, ks)
    reps = apery_set(A, a).reps
    return tuple(sum(reps) if k == 1 else sum(map(pow, reps, repeat(k))) for k in ks)


def _shape_power_sums(shape: tuple[int, ...], ks: Sequence[int]) -> tuple[int, ...]:
    """The closed form of :func:`apery_power_sums` on a shape of :func:`_seed`."""
    b, c, alpha, v, beta, w = shape
    top = max(ks, default=0)
    if beta == 1:  # one row, and no corner: one table, not the L's four
        row = power_sum_table(alpha, top)
        return tuple(b**k * row[k] for k in ks)
    (x, x_corner), (y, y_corner) = _scaled_sums(b, alpha, w, top), _scaled_sums(c, beta, v, top)
    return tuple(
        sum([comb(k, j) * (x[j] * y[k - j] - x_corner[j] * y_corner[k - j]) for j in range(k + 1)])
        for k in ks
    )


# The closed forms' size rule: a closed form runs when the pivot a exceeds
# slope * top + intercept, top the largest power summed, keyed by
# (weighted, number of steps).  Each line is the measured crossover below
# which building the Apery list and passing over it is faster:
#   * weight 1, a row: k + 1 products per P_k, each about two pows of a
#     list pass;
#   * weight 1, an L: its relations, four tables and corner products cost
#     about a 90-element pass;
#   * weighted, a row or a rectangle: O(mu**2) big-number products
#     (``exactnum._grid_sums``) against one Horner step per element for
#     each of the mu + 1 sums; at mu = 1, 6, 20 and 40 the crossovers were
#     a = 3, 12, 25 and 42 for a row, 14, 32, 66 and 130 for a rectangle.
_SIZE_RULE = {
    (False, 1): (2, 0),
    (False, 2): (2, 90),
    (True, 1): (1, 6),
    (True, 2): (3, 14),
}


def _closed_shape(
    A: GeneratorSet, pivot: int | None, top: int | None = None, weighted: bool = False
) -> tuple[int, tuple | None]:
    """(a, shape): the pivot a, by default the least generator, and the shape
    :func:`_seed` writes when a's steps are at most two, else None.  Given
    the largest power ``top``, only above the size rule ``_SIZE_RULE``; a
    ``weighted`` shape must also have no corner (v * w == 0), a row or a
    rectangle."""
    a = A.min if pivot is None else pivot
    check_pivot(A, a)
    steps = [b for b in A if b % a != 0]
    if not 0 < len(steps) <= 2:
        return a, None
    if top is not None:
        slope, intercept = _SIZE_RULE[weighted, len(steps)]
        if a <= slope * top + intercept:
            return a, None
    shape = _seed(a, steps)
    if weighted and shape and shape[3] * shape[5]:  # v * w != 0: a corner
        return a, None
    return a, shape


def apery_grid(A: GeneratorSet, pivot: int, mu: int) -> dict[int, int] | None:
    """The Apery set of ``pivot`` as a grid {step: count}, the sums
    sum_s x_s * s over 0 <= x_s < count, when it is a row or a rectangle
    above the size rule for weighted power sums up to mu (see
    :func:`_closed_shape`), else None.  A step taken once adds nothing and
    is left out."""
    _, shape = _closed_shape(A, pivot, mu, weighted=True)
    if shape is None:
        return None
    b, c, alpha, _, beta, _ = shape
    return {s: n for s, n in ((b, alpha), (c, beta)) if n > 1}


def _scaled_sums(b: int, n: int, corner: int, top: int) -> tuple[list[int], list[int]]:
    """b**j * F_j(n) and b**j * (F_j(n) - F_j(n - corner)) for j <= top."""
    whole, inner = power_sum_table(n, top), power_sum_table(n - corner, top)
    b_pows = list(accumulate(repeat(b, top), mul, initial=1))
    return [p * f for p, f in zip(b_pows, whole)], [p * (f - g) for p, f, g in zip(b_pows, whole, inner)]


def frobenius_number(A: GeneratorSet, pivot: int | None = None) -> int | None:
    """Largest gap, or None when the gap set is empty (1 is a generator): the
    largest Apery element less the pivot, read off an L of :func:`_closed_shape`."""
    a, shape = _closed_shape(A, pivot)
    if 1 in A:
        return None
    if shape is None:
        return max(apery_set(A, a).reps) - a
    b, c, alpha, v, beta, w = shape
    return max((alpha - 1) * b + (beta - v - 1) * c, (alpha - w - 1) * b + (beta - 1) * c) - a


def gap_power_sum(A: GeneratorSet, mu: int, pivot: int | None = None) -> int:
    """Sum of n**mu over the gaps, from the P_k of :func:`apery_power_sums`
    at the pivot a (default the least generator); with m = mu+1 and P_0 = a,

    a m * sum_{gaps n} n^mu = sum_{k=0}^{m} C(m,k) a^{m-k} B_{m-k} P_k - a B_m

    Faulhaber's formula sums each residue class's gaps i, i+a, ..., reps[i]-a
    and Raabe's theorem sum_{i<a} B_m(i/a) = a^{1-m} B_m the class starts
    (Tuenter, J. Number Theory 117, 2006).  The B_b are scaled to integers
    over one lcm, only the P_k with B_(m-k) != 0 are formed, and the total is
    divided once.  At mu = 0 and 1 it is the genus and the gap sum.
    """
    a = A.min if pivot is None else pivot
    m = mu + 1
    B = [bernoulli(b) for b in range(m + 1)]
    b_lcm = lcm(*(x.denominator for x in B))
    by_b = [x.numerator * (b_lcm // x.denominator) for x in B]
    ks = [k for k in range(1, m + 1) if by_b[m - k]]
    total = by_b[m] * a * (a**m - 1)
    for k, p_k in zip(ks, apery_power_sums(A, a, ks)):
        total += comb(m, k) * a ** (m - k) * by_b[m - k] * p_k
    value, rem = divmod(total, a * m * b_lcm)
    if rem:
        raise ArithmeticError(
            f"sum of n**{mu} over the gaps of {A.gens} is not an integer:"
            f" a remainder of {rem.bit_length()} bits"
        )
    return value


def sylvester_number(A: GeneratorSet, pivot: int | None = None) -> int:
    """Number of gaps (the genus): :func:`gap_power_sum` at mu = 0, which is
    n(A) = (1/a) * P_1 - (a-1)/2."""
    return gap_power_sum(A, 0, pivot)


def sylvester_sum(A: GeneratorSet, pivot: int | None = None) -> int:
    """Sum of all gaps: :func:`gap_power_sum` at mu = 1, which is
    s(A) = (1/2a) * P_2 - (1/2) * P_1 + (a^2 - 1)/12."""
    return gap_power_sum(A, 1, pivot)
