"""Exact combinatorial coefficients: Eulerian numbers, Bernoulli numbers,
and the Bernoulli closed form for power sums.

The Eulerian triangle entry E(n, m) counts permutations of 1..n with
exactly m ascents.  Rows are built from the previous row by the recurrence
E(n, m) = (m+1) E(n-1, m) + (n-m) E(n-1, m-1), starting from E(0, 0) = 1;
this equals the alternating binomial sum
sum_{k=0}^{m+1} (-1)^k C(n+1, k) (m-k+1)^n (with 0**0 == 1) at O(n)
integer operations per row instead of O(n^2) large powers.  Bernoulli
numbers follow the x/(e^x - 1) convention, i.e. B_1 = -1/2.

Both tables are memoized per process; growth is append-only behind a lock
so concurrent readers are safe.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, lcm


class EulerianTable:
    """Lazily grown triangle of Eulerian numbers.

    Row n holds entries for 0 <= m <= n; the diagonal entry (n, n) is 0
    for n >= 1 and the row sums to n!.
    """

    def __init__(self):
        self._rows: list[list[int]] = [[1]]
        self._lock = threading.Lock()

    def value(self, n: int, m: int) -> int:
        if n < 0:
            raise ValueError("row index must be nonnegative")
        if m < 0 or m >= max(n, 1):
            return 0
        if n >= len(self._rows):
            with self._lock:
                while len(self._rows) <= n:
                    r = len(self._rows)
                    prev = self._rows[-1] + [0]  # E(r-1, r) == 0
                    row = [1]
                    for j in range(1, r + 1):
                        row.append((j + 1) * prev[j] + (r - j) * prev[j - 1])
                    self._rows.append(row)
        return self._rows[n][m]

    def row(self, n: int) -> tuple[int, ...]:
        self.value(n, 0)
        return tuple(self._rows[n])


class BernoulliCache:
    """Bernoulli numbers B_0, B_1, ... via the defining recurrence
    sum_{j=0}^{n} C(n+1, j) B_j = 0 with B_0 = 1.

    Each row sums integers over ``_den``, the lcm of the denominators so
    far, and forms a single Fraction."""

    def __init__(self):
        self._values: list[Fraction] = [Fraction(1)]
        self._den = 1
        self._lock = threading.Lock()

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("index must be nonnegative")
        if n >= len(self._values):
            with self._lock:
                while len(self._values) <= n:
                    r = len(self._values)
                    acc = sum(
                        comb(r + 1, j) * b.numerator * (self._den // b.denominator)
                        for j, b in enumerate(self._values)
                        if b
                    )
                    b = Fraction(-acc, (r + 1) * self._den)
                    self._den = lcm(self._den, b.denominator)
                    self._values.append(b)
        return self._values[n]


_EULERIAN = EulerianTable()
_BERNOULLI = BernoulliCache()


def eulerian(n: int, m: int) -> int:
    """Eulerian number for n >= 0; 0 outside the triangle."""
    return _EULERIAN.value(n, m)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2."""
    return _BERNOULLI.value(n)


def faulhaber_sum(ell: int, kappa: int) -> Fraction:
    """sum_{j=1}^{ell} j**kappa, by the Bernoulli closed form.

    Exact for arbitrarily large ``ell``; the result is an integer-valued
    Fraction.
    """
    if ell < 0:
        raise ValueError("upper limit must be nonnegative")
    if kappa < 0:
        raise ValueError("exponent must be nonnegative")
    total = Fraction(0)
    for i in range(1, kappa + 2):
        total += comb(kappa + 1, i) * (-1) ** (kappa - i + 1) * bernoulli(kappa - i + 1) * ell**i
    return total / (kappa + 1)
