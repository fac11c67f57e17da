import heapq
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sylsum.semigroup import (
    EmptyGenerators,
    GeneratorSet,
    NonPositive,
    NotCoprime,
    apery_set,
    frobenius_number,
    gap_set,
    sieve_representable,
    sylvester_number,
    sylvester_sum,
    validate_generators,
)


def apery_set_dijkstra_reference(A, pivot):
    """The heap Dijkstra that round-robin replaced (Nijenhuis 1979): the
    shortest distance from residue 0 to residue i, with an edge
    i -> (i + b) % pivot of weight b per generator, is reps[i]."""
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
    return tuple(dist)


def sieve_representable_reference(A, bound):
    """The O(k * bound) dynamic-programming table that the bitset sieve
    replaced: t[n] iff t[n - a] for some generator a <= n."""
    table = [False] * (bound + 1)
    table[0] = True
    for n in range(1, bound + 1):
        table[n] = any(n >= a and table[n - a] for a in A)
    return table


def random_generator_sets(count, seed, k_max=4, bound=40):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(2, k_max)
        gens = sorted({rng.randint(2, bound) for _ in range(k)})
        if len(gens) >= 2 and gcd(*gens) == 1:
            out.append(validate_generators(gens))
    return out


class TestValidateGenerators:
    def test_sorts_and_keeps(self):
        assert validate_generators([9, 6, 10]).gens == (6, 9, 10)

    def test_dedup(self):
        assert validate_generators([3, 8, 3]).gens == (3, 8)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            validate_generators([4, 6])

    def test_one_is_fine(self):
        assert validate_generators([1, 7]).gens == (1, 7)

    def test_empty(self):
        with pytest.raises(EmptyGenerators):
            validate_generators([])

    @pytest.mark.parametrize("raw", [[0, 3], [-2, 3]])
    def test_nonpositive(self, raw):
        with pytest.raises(NonPositive):
            validate_generators(raw)


class TestAperySet:
    def test_four_generators(self):
        A = validate_generators([5, 17, 19, 23])
        assert apery_set(A, 5).reps == (0, 36, 17, 23, 19)

    def test_three_generators(self):
        A = validate_generators([3, 11, 17])
        assert apery_set(A, 3).reps == (0, 22, 11)

    def test_two_generators(self):
        A = validate_generators([3, 8])
        assert apery_set(A, 3).reps == (0, 16, 8)

    def test_gap_counts(self):
        A = validate_generators([3, 8])
        assert apery_set(A, 3).gap_counts == (0, 5, 2)

    def test_bad_pivot(self):
        with pytest.raises(ValueError):
            apery_set(validate_generators([3, 8]), 5)

    def test_matches_sieve_on_random_instances(self):
        # reps[i] must be the least sieve-representable value congruent to i
        for A in random_generator_sets(40, seed=101):
            for pivot in A:
                ap = apery_set(A, pivot)
                bound = max(ap.reps) + pivot
                table = sieve_representable(A, bound)
                for i, m in enumerate(ap.reps):
                    assert table[m]
                    for below in range(i, m, pivot):
                        assert not table[below]

    @given(
        st.lists(st.integers(1, 60), min_size=2, max_size=6, unique=True)
        .filter(lambda gens: gcd(*gens) == 1)
        .map(validate_generators)
    )
    @example(validate_generators([12, 18, 20, 27]))  # gcd(12, b) > 1 for every b
    @example(validate_generators([6, 10, 15]))
    @example(validate_generators([5, 13, 15, 40]))  # multiples of 5, 13 > 2*5
    @example(validate_generators([1, 7]))  # pivot 1
    def test_matches_dijkstra_and_sieve_for_every_pivot(self, A):
        for pivot in A:
            reps = apery_set(A, pivot).reps
            assert reps == apery_set_dijkstra_reference(A, pivot)
            table = sieve_representable(A, max(reps) + pivot)
            for i, m in enumerate(reps):
                assert table[m] and not any(table[i:m:pivot])

    @pytest.mark.parametrize("pivot", [4, 6])
    def test_unreachable_residue_raises(self, pivot):
        # a hand-built set that skips validation: odd residues are unreachable
        with pytest.raises(ArithmeticError, match="unreachable"):
            apery_set(GeneratorSet((4, 6)), pivot)

    def test_peak_memory_within_dijkstra_reference(self):
        # A class slice n[r::d] kept alive during a walk holds 8 bytes per
        # residue plus every value the walk replaces, about 0.8 MB more here;
        # the 1 kB allowance covers the loop-local integers of either function.
        A = validate_generators([20011, 24999, 31013, 37001])
        peaks = []
        tracemalloc.start()
        try:
            for build in (apery_set, apery_set_dijkstra_reference):
                build(A, A.min)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                build(A, A.min)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= peaks[1] + 1024

    def test_pivot_changes_keep_statistics(self):
        A = validate_generators([5, 17, 19, 23])
        stats = {
            (frobenius_number(A, p), sylvester_number(A, p), sylvester_sum(A, p))
            for p in A
        }
        assert stats == {(31, 17, 202)}


class TestGapSet:
    def test_paper_families(self):
        gaps = gap_set(validate_generators([5, 17, 19, 23]))
        assert list(gaps) == [1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 16, 18, 21, 26, 31]
        gaps = gap_set(validate_generators([3, 11, 17]))
        assert list(gaps) == [1, 2, 4, 5, 7, 8, 10, 13, 16, 19]

    def test_empty_when_one_generates(self):
        assert list(gap_set(validate_generators([1, 7]))) == []

    def test_membership_protocol(self):
        gaps = gap_set(validate_generators([3, 8]))
        assert 13 in gaps and 14 not in gaps
        assert len(gaps) == 7


class TestSieve:
    def test_3_8_reachability(self):
        table = sieve_representable(validate_generators([3, 8]), 20)
        reachable = {n for n, ok in enumerate(table) if ok}
        assert reachable == {0, 3, 6, 8, 9, 11, 12, 14, 15, 16, 17, 18, 19, 20}

    def test_frobenius_gap_of_6_9_10(self):
        table = sieve_representable(validate_generators([6, 9, 10]), 23)
        assert not table[23]

    def test_unit_generator(self):
        assert all(sieve_representable(validate_generators([1, 7]), 5))

    @pytest.mark.parametrize("bound", [0, -3])
    def test_bound_below_one_raises(self, bound):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            sieve_representable(validate_generators([3, 8]), bound)

    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True)
        .filter(lambda gens: gcd(*gens) == 1)
        .map(validate_generators),
        st.integers(1, 150),
    )
    @example(validate_generators([1]), 1)
    @example(validate_generators([7, 9]), 6)  # below the smallest generator
    @example(validate_generators([7, 9]), 7)
    @example(validate_generators([6, 10, 15, 37, 40]), 149)
    def test_matches_the_dynamic_programming_reference(self, A, bound):
        assert sieve_representable(A, bound) == sieve_representable_reference(A, bound)


class TestGapStatistics:
    def test_frobenius(self):
        assert frobenius_number(validate_generators([5, 17, 19, 23])) == 31
        assert frobenius_number(validate_generators([3, 8])) == 13
        assert frobenius_number(validate_generators([1, 7])) is None

    def test_sylvester_number(self):
        assert sylvester_number(validate_generators([5, 17, 19, 23])) == 17
        assert sylvester_number(validate_generators([3, 8])) == 7
        assert sylvester_number(validate_generators([1, 7])) == 0

    def test_sylvester_sum(self):
        assert sylvester_sum(validate_generators([3, 8])) == 42
        assert sylvester_sum(validate_generators([3, 11, 17])) == 85
        assert sylvester_sum(validate_generators([1, 7])) == 0

    def test_consistency_with_gap_enumeration(self):
        for A in random_generator_sets(100, seed=202):
            gaps = list(gap_set(A))
            assert frobenius_number(A) == (max(gaps) if gaps else None)
            assert sylvester_number(A) == len(gaps)
            assert sylvester_sum(A) == sum(gaps)

    def test_two_generator_closed_forms(self):
        for a in range(2, 31):
            for b in range(a + 1, 31):
                if gcd(a, b) != 1:
                    continue
                A = validate_generators([a, b])
                assert frobenius_number(A) == (a - 1) * (b - 1) - 1
                assert sylvester_number(A) == (a - 1) * (b - 1) // 2
                assert 12 * sylvester_sum(A) == (a - 1) * (b - 1) * (2 * a * b - a - b - 1)
