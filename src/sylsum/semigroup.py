"""Numerical semigroup machinery: generator validation, Apery sets, gap
enumeration, and the classical gap statistics.

For generators a_1 < ... < a_k with gcd 1, the semigroup is the set of
nonnegative integer combinations; its complement in the positive integers
(the gap set) is finite.  Everything here is driven by the Apery set with
respect to a pivot generator a: for each residue i mod a, ``reps[i]`` is the
least semigroup element congruent to i, and the gaps in that class are
exactly reps[i] - a, reps[i] - 2a, ..., down to i's first positive value.

Two independent algorithms are provided on purpose: Apery sets come from a
shortest-path relaxation on the residue graph, while ``sieve_representable``
is a plain dynamic-programming reachability table.  Tests play them against
each other.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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


def apery_set(A: GeneratorSet, pivot: int | None = None) -> AperySet:
    """Compute the Apery set by Dijkstra on the residue graph mod pivot.

    Vertices are residues 0..pivot-1; each generator a_j adds edges
    i -> (i + a_j) mod pivot of weight a_j.  The shortest distance to
    residue i from 0 is exactly the minimal semigroup element congruent
    to i, because every semigroup element is a sum of edge weights.
    """
    if pivot is None:
        pivot = A.min
    if pivot not in A:
        raise ValueError(f"pivot {pivot} is not a generator of {A.gens}")
    dist = [None] * pivot
    dist[0] = 0
    heap = [(0, 0)]
    steps = [a for a in A if a % pivot != 0]
    while heap:
        d, i = heapq.heappop(heap)
        if dist[i] is not None and d > dist[i]:
            continue
        for a in steps:
            j = (i + a) % pivot
            nd = d + a
            if dist[j] is None or nd < dist[j]:
                dist[j] = nd
                heapq.heappush(heap, (nd, j))
    # gcd(gens) == 1 makes every residue reachable
    if None in dist:
        raise ArithmeticError(f"some residue mod {pivot} is unreachable from {A.gens}")
    return AperySet(pivot, tuple(dist))


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
