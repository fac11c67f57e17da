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
heap, while ``sieve_representable`` is a plain dynamic-programming
reachability table.  Tests play them against each other, and against the
heap Dijkstra (Nijenhuis 1979) that round-robin replaced, which the tests
keep as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import mod
from typing import Iterable, Iterator


class EmptyGenerators(ValueError):
    """No generators supplied."""


class NonPositive(ValueError):
    """A generator was zero or negative."""


class NotCoprime(ValueError):
    """The generators have a common factor > 1."""


@dataclass(frozen=True)
class GeneratorSet:
    """Strictly increasing, deduplicated, coprime positive generators."""

    gens: tuple[int, ...]

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


@dataclass(frozen=True)
class AperySet:
    """Minimal semigroup representatives per residue class mod the pivot.

    ``reps[i]`` is the least semigroup element congruent to i mod pivot;
    reps[0] == 0.  ``gap_counts[i] == (reps[i] - i) // pivot`` is the number
    of gaps in residue class i.
    """

    pivot: int
    reps: tuple[int, ...]

    @property
    def gap_counts(self) -> tuple[int, ...]:
        return tuple((m - i) // self.pivot for i, m in enumerate(self.reps))


def check_pivot(A: GeneratorSet, pivot: int) -> None:
    """Raise ``ValueError`` unless ``pivot`` is one of the generators."""
    if pivot not in A:
        raise ValueError(f"pivot {pivot} is not a generator of {A.gens}")


def apery_set(A: GeneratorSet, pivot: int | None = None) -> AperySet:
    """Compute the Apery set by the round-robin algorithm of Boecker & Liptak.

    ``n[i]`` is the least element congruent to i mod pivot that the
    generators seen so far reach.  A generator b with b % pivot != 0 moves
    residue p to (p + b) % pivot, so it splits the residues into
    d = gcd(pivot, b) cycles of pivot/d residues.  The first such b fills
    its own cycle through 0 directly, n[j*b % pivot] = j*b.  Each later b
    walks every cycle once, starting at the cycle's least reached residue
    (nothing in the cycle can improve it; being congruent to its residue,
    the least value also gives its position) and setting
    n[p] = min(m + b, n[p]) as it goes; a cycle nothing has reached yet is
    skipped.  That is O(k * pivot) for k generators, with no heap and no
    queue.

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
    if steps:
        b = steps[0]
        for m in range(b, a // gcd(a, b) * b, b):
            n[m % a] = m
    for b in steps[1:]:
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
    if unreached in n:
        raise ArithmeticError(f"some residue mod {pivot} is unreachable from {A.gens}")
    return AperySet(pivot, tuple(n))


@dataclass(frozen=True)
class GapSet:
    """The finite, sorted set of positive integers outside the semigroup."""

    gaps: tuple[int, ...]

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
    for i, m in enumerate(ap.reps):
        if i == 0:
            continue
        n = m - ap.pivot
        while n > 0:
            gaps.append(n)
            n -= ap.pivot
    gaps.sort()
    return GapSet(tuple(gaps))


def sieve_representable(A: GeneratorSet, bound: int) -> list[bool]:
    """Reachability table t[0..bound]: t[n] iff n is a semigroup element.

    Independent of :func:`apery_set`; used as its cross-check oracle.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    table = [False] * (bound + 1)
    table[0] = True
    for n in range(1, bound + 1):
        table[n] = any(n >= a and table[n - a] for a in A)
    return table


def frobenius_number(A: GeneratorSet, pivot: int | None = None) -> int | None:
    """Largest gap, or None when the gap set is empty (1 is a generator)."""
    if 1 in A:
        return None
    ap = apery_set(A, pivot)
    return max(ap.reps) - ap.pivot


def sylvester_number(A: GeneratorSet, pivot: int | None = None) -> int:
    """Number of gaps (the genus), via the Apery set identity
    n(A) = (1/a) * sum_i reps[i] - (a-1)/2."""
    ap = apery_set(A, pivot)
    a = ap.pivot
    value = Fraction(sum(ap.reps), a) - Fraction(a - 1, 2)
    if value.denominator != 1:
        raise ArithmeticError(f"genus {value} of {A.gens} is not an integer")
    return int(value)


def sylvester_sum(A: GeneratorSet, pivot: int | None = None) -> int:
    """Sum of all gaps, via
    s(A) = (1/2a) * sum reps[i]^2 - (1/2) * sum reps[i] + (a^2 - 1)/12."""
    ap = apery_set(A, pivot)
    a = ap.pivot
    sq = sum(m * m for m in ap.reps)
    value = Fraction(sq, 2 * a) - Fraction(sum(ap.reps), 2) + Fraction(a * a - 1, 12)
    if value.denominator != 1:
        raise ArithmeticError(f"gap sum {value} of {A.gens} is not an integer")
    return int(value)
