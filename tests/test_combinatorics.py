import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, lcm

import pytest

from sylsum.combinatorics import (
    MemoTable,
    bernoulli,
    eulerian,
    faulhaber_sum,
    next_bernoulli,
    next_eulerian_row,
)


def eulerian_by_counting(n, m):
    """Independent oracle: count permutations of 1..n with m ascents."""
    count = 0
    for p in permutations(range(n)):
        count += sum(p[i] < p[i + 1] for i in range(n - 1)) == m
    return count


class TestEulerian:
    def test_base_entry(self):
        assert eulerian(0, 0) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_diagonal_vanishes(self, n):
        assert eulerian(n, n) == 0

    def test_small_value(self):
        assert eulerian(3, 1) == 4

    def test_out_of_range_is_zero(self):
        assert eulerian(4, -1) == 0
        assert eulerian(4, 7) == 0
        assert eulerian(0, 1) == 0

    @pytest.mark.parametrize("n", range(0, 7))
    def test_against_permutation_counting(self, n):
        for m in range(n + 1):
            assert eulerian(n, m) == eulerian_by_counting(n, m)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_row_sums_to_factorial(self, n):
        assert sum(eulerian(n, m) for m in range(n + 1)) == factorial(n)

    def test_recurrence_matches_alternating_sum(self):
        table = MemoTable([1], next_eulerian_row)
        for n in range(1, 31):  # row 0 is [1] by convention
            row = table[n]
            expected = [
                sum(
                    (-1) ** k * comb(n + 1, k) * (m - k + 1) ** n  # 0**0 == 1
                    for k in range(m + 2)
                )
                for m in range(n + 1)
            ]
            assert list(row) == expected
            assert sum(row) == factorial(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_symmetry(self, n):
        for k in range(n):
            assert eulerian(n, k) == eulerian(n, n - k - 1)


@pytest.mark.parametrize("n", range(0, 7))
def test_generating_function_identity(n):
    """(sum_{k<=K} k^n x^k)(1-x)^{n+1} agrees with the Eulerian numerator
    below degree K+1, checked as an exact polynomial identity."""
    K = n + 3

    def pmul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    partial = [Fraction(k**n) for k in range(K + 1)]  # 0**0 == 1
    one_minus_x = [Fraction(1), Fraction(-1)]
    lhs = partial
    for _ in range(n + 1):
        lhs = pmul(lhs, one_minus_x)
    if n == 0:
        numerator = [Fraction(1)]  # sum_k x^k = 1/(1-x) with 0**0 == 1
    else:
        numerator = [Fraction(0)] * (n + 1)
        for m in range(n):
            numerator[m + 1] = Fraction(eulerian(n, m))
    diff = list(lhs)
    for i, c in enumerate(numerator):
        diff[i] -= c
    assert all(c == 0 for c in diff[: K + 1])


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)

    @pytest.mark.parametrize("j", range(1, 11))
    def test_odd_values_vanish(self, j):
        assert bernoulli(2 * j + 1) == 0

    def test_matches_fraction_recurrence_from_scratch(self):
        # B_n = -1/(n+1) sum_{j<n} C(n+1, j) B_j, in Fractions, no memo table
        values = [Fraction(1)]
        for n in range(1, 201):
            values.append(-sum(comb(n + 1, j) * b for j, b in enumerate(values)) / (n + 1))
        assert [bernoulli(n) for n in range(201)] == values

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index must be nonnegative"):
            bernoulli(-1)


class TestFaulhaberSum:
    @pytest.mark.parametrize("kappa", range(0, 7))
    def test_empty_sum(self, kappa):
        assert faulhaber_sum(0, kappa) == 0

    def test_spot_values(self):
        assert faulhaber_sum(5, 1) == 15
        assert faulhaber_sum(4, 3) == 100

    def test_matches_direct_summation(self):
        for kappa in range(7):
            for ell in range(51):
                assert faulhaber_sum(ell, kappa) == sum(
                    j**kappa for j in range(1, ell + 1)
                )

    def test_large_argument_exact(self):
        ell = 10**12
        assert faulhaber_sum(ell, 1) == ell * (ell + 1) // 2


def test_concurrent_table_growth():
    # eight threads start growing fresh tables at once; a lost or repeated
    # append would shift every later entry
    def bernoulli_entry(n):
        return bernoulli(n), lcm(*(bernoulli(j).denominator for j in range(n + 1)))

    cases = [
        (MemoTable([1], next_eulerian_row), lambda n: [eulerian(n, m) for m in range(n + 1)]),
        (MemoTable((Fraction(1), 1), next_bernoulli), bernoulli_entry),
    ]
    rng = random.Random(13)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for table, want in cases:
            queries = [rng.randint(0, 150) for _ in range(400)]
            start = threading.Barrier(8, timeout=60)

            def worker(chunk):
                start.wait()
                return [table[n] for n in chunk]

            with ThreadPoolExecutor(max_workers=8) as pool:
                chunks = [queries[i::8] for i in range(8)]
                results = list(pool.map(worker, chunks, timeout=60))
            for chunk, values in zip(chunks, results):
                assert values == [want(n) for n in chunk]
    finally:
        sys.setswitchinterval(interval)
