"""Exact combinatorial coefficients: Eulerian numbers, Bernoulli numbers,
and the power sums F_j(n) = sum_{x<n} x**j (Faulhaber's sums).

The Eulerian triangle entry E(n, m) counts permutations of 1..n with
exactly m ascents.  Rows are built from the previous row by the recurrence
E(n, m) = (m+1) E(n-1, m) + (n-m) E(n-1, m-1), starting from E(0, 0) = 1;
this equals the alternating binomial sum
sum_{k=0}^{m+1} (-1)^k C(n+1, k) (m-k+1)^n (with 0**0 == 1) at O(n)
integer operations per row instead of O(n^2) large powers.  Bernoulli
numbers follow the x/(e^x - 1) convention, i.e. B_1 = -1/2.

Each sequence is memoized per process in a ``MemoTable``, grown append-only
behind a lock so concurrent readers are safe.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import repeat
from math import comb, lcm
from typing import Callable


class MemoTable:
    """Entries 0, 1, ... of a sequence; ``step(entries)`` returns the next."""

    def __init__(self, first, step: Callable[[list], object]):
        self._entries = [first]
        self._step = step
        self._lock = threading.Lock()

    def __getitem__(self, n: int):
        if n >= len(self._entries):
            with self._lock:
                while len(self._entries) <= n:
                    self._entries.append(self._step(self._entries))
        return self._entries[n]


def next_eulerian_row(rows: list[list[int]]) -> list[int]:
    """Row r = len(rows) of the Eulerian triangle, by the recurrence."""
    r = len(rows)
    prev = rows[-1] + [0]  # E(r-1, r) == 0
    return [1] + [(j + 1) * prev[j] + (r - j) * prev[j - 1] for j in range(1, r + 1)]


def next_bernoulli(entries: list[tuple[Fraction, int]]) -> tuple[Fraction, int]:
    """(B_r, lcm of the denominators of B_0..B_r) for r = len(entries), from
    sum_{j=0}^{r} C(r+1, j) B_j = 0 summed in integers over the previous lcm."""
    r = len(entries)
    den = entries[-1][1]
    acc = sum(
        comb(r + 1, j) * b.numerator * (den // b.denominator)
        for j, (b, _) in enumerate(entries)
        if b
    )
    b = Fraction(-acc, (r + 1) * den)
    return b, lcm(den, b.denominator)


_EULERIAN = MemoTable([1], next_eulerian_row)
_BERNOULLI = MemoTable((Fraction(1), 1), next_bernoulli)


def eulerian(n: int, m: int) -> int:
    """Eulerian number for n >= 0; 0 outside the triangle 0 <= m < max(n, 1)."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    if m < 0 or m >= max(n, 1):
        return 0
    return _EULERIAN[n][m]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _BERNOULLI[n][0]


def power_sum_table(n: int, k: int) -> list[int]:
    """[F_0(n), ..., F_k(n)] with F_j(n) = sum_{x<n} x**j (0**0 == 1): by
    direct summation, n*k pows, when n <= k/2 (the two cost the same there),
    else k*k/2 products, one exact division per j, by Pascal's identity
    n**(j+1) = sum_{x<n} ((x+1)**(j+1) - x**(j+1)) = sum_{i<=j} C(j+1, i) F_i(n)."""
    if 2 * n <= k:
        return [sum(map(pow, range(n), repeat(j))) for j in range(k + 1)]
    table: list[int] = []
    for j in range(k + 1):
        table.append((n ** (j + 1) - sum([comb(j + 1, i) * f for i, f in enumerate(table)])) // (j + 1))
    return table


def faulhaber_sum(ell: int, kappa: int) -> Fraction:
    """sum_{j=1}^{ell} j**kappa, ``power_sum_table(ell + 1, kappa)`` less
    0**kappa: exact for arbitrarily large ``ell``, an integer-valued Fraction."""
    if ell < 0:
        raise ValueError("upper limit must be nonnegative")
    if kappa < 0:
        raise ValueError("exponent must be nonnegative")
    return Fraction(power_sum_table(ell + 1, kappa)[kappa] - (kappa == 0))
