import heapq
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sylsum import semigroup
from sylsum.semigroup import (
    EmptyGenerators,
    GeneratorSet,
    NonPositive,
    NotCoprime,
    apery_power_sums,
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


def coprime_sets(size, bound):
    return (
        st.lists(st.integers(1, bound), min_size=size[0], max_size=size[1], unique=True)
        .filter(lambda gens: gcd(*gens) == 1)
        .map(validate_generators)
    )


def peak_over_dijkstra_reference(A):
    """The peak traced memory of a second ``apery_set`` at the least pivot,
    minus that of a second Dijkstra reference."""
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
    return peaks[0] - peaks[1]


def rep_power_sums(reps, ks):
    """sum_i reps[i]**k for each k in ks, summed over the list."""
    return tuple(sum(m**k for m in reps) for k in ks)


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

    @given(st.one_of(coprime_sets((2, 6), 60), coprime_sets((3, 3), 500), coprime_sets((4, 6), 150)))
    @example(validate_generators([97, 131, 163]))  # an L-shape at every pivot
    @example(validate_generators([9, 22, 33]))  # 3*22 == 2*33: no L-shape
    @example(validate_generators([3, 4, 8]))  # 2*4 == 8: no L-shape
    @example(validate_generators([12, 18, 20, 27]))  # gcd(12, b) > 1 for every b
    @example(validate_generators([4, 6, 8, 9]))  # 4 divides 8: L-shape of 4, 6, 9
    @example(validate_generators([6, 10, 15]))  # gcd(a, b) > 1 at every pivot
    @example(validate_generators([5, 13, 15, 40]))  # multiples of 5, 13 > 2*5
    @example(validate_generators([1, 7]))  # pivot 1
    def test_matches_dijkstra_and_sieve_for_every_pivot(self, A):
        for pivot in A:
            reps = apery_set(A, pivot).reps
            assert reps == apery_set_dijkstra_reference(A, pivot)
            table = sieve_representable(A, max(reps) + pivot)
            for i, m in enumerate(reps):
                assert table[m] and not any(table[i:m:pivot])

    @pytest.mark.parametrize(
        "gens, shapes, walks",
        [
            ((20011, 24999, 31013), [True], 0),
            ((7, 9, 11, 13), [True], 1),
            ((9, 22, 33), [False], 1),
            ((3, 4, 8), [False], 1),
            ((12, 18, 20, 27), [True], 1),  # gcd(12, 18, 20) == 2: seeds from 20, 27
            ((5, 13, 15), [], 0),  # 5 divides 15: one step, filled directly
        ],
    )
    def test_l_shape_replaces_the_first_walk(self, monkeypatch, gens, shapes, walks):
        results = {"_l_shape": [], "_walk": []}  # what each call returned

        def spy(name, fn):
            def spied(*args):
                results[name].append(fn(*args))
                return results[name][-1]

            return spied

        for name in results:
            monkeypatch.setattr(semigroup, name, spy(name, getattr(semigroup, name)))
        A = validate_generators(gens)
        assert apery_set(A, A.min).reps == apery_set_dijkstra_reference(A, A.min)
        assert [shape is not None for shape in results["_l_shape"]] == shapes
        assert len(results["_walk"]) == walks

    def test_l_shape_of_the_wrong_size_raises(self, monkeypatch):
        # an explicit check, not an assert: it holds under python -O too
        relation = semigroup._relation

        def wrong_alpha(a, b, c):
            x, y = relation(a, b, c)
            return (x + 1, y) if b < c else (x, y)

        monkeypatch.setattr(semigroup, "_relation", wrong_alpha)
        A = validate_generators([20011, 24999, 31013])
        for statistic in (apery_set, frobenius_number, sylvester_number, sylvester_sum):
            with pytest.raises(ArithmeticError, match="L-shape of <20011, 24999, 31013> has"):
                statistic(A)

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
        assert peak_over_dijkstra_reference(A) <= 1024

    def test_l_shape_peak_memory_within_dijkstra_reference(self):
        # the rows of the L-shape are ranges: no second list of pivot length
        A = validate_generators([20011, 24999, 31013])
        assert peak_over_dijkstra_reference(A) <= 1024

    def test_pivot_changes_keep_statistics(self):
        A = validate_generators([5, 17, 19, 23])
        stats = {
            (frobenius_number(A, p), sylvester_number(A, p), sylvester_sum(A, p))
            for p in A
        }
        assert stats == {(31, 17, 202)}


class TestAperyPowerSums:
    @given(
        st.one_of(
            coprime_sets((2, 2), 60),
            coprime_sets((3, 3), 60),
            coprime_sets((2, 3), 400),
            # a redundant generator, or a multiple of some pivot
            coprime_sets((2, 2), 30).map(lambda A: validate_generators([*A, 2 * A.gens[1]])),
            coprime_sets((3, 3), 30).map(lambda A: validate_generators([*A, 2 * A.min])),
        )
    )
    @example(validate_generators([3, 5, 10]))  # 10 = 2 * 5 is redundant
    @example(validate_generators([4, 6, 8, 9]))  # 4 divides 8: steps 6 and 9
    @example(validate_generators([9, 22, 33]))  # 3*22 == 2*33: no L-shape
    @example(validate_generators([3, 4, 8]))  # 2*4 == 8: no L-shape
    @example(validate_generators([97, 131, 163]))  # closed form at every pivot
    @example(validate_generators([1, 7]))  # pivot 7 has one step, pivot 1 none
    def test_closed_form_matches_the_enumerated_sums(self, A):
        ks = range(9)
        for pivot in A:
            reps = apery_set(A, pivot).reps
            want = rep_power_sums(reps, ks)
            assert apery_power_sums(A, pivot, ks) == want
            # the closed form below the size at which apery_power_sums takes it
            _, shape = semigroup._closed_shape(A, pivot)
            if shape is not None:
                assert semigroup._shape_power_sums(shape, ks) == want
            if 1 not in A:
                assert frobenius_number(A, pivot) == max(reps) - pivot
                assert sylvester_number(A, pivot) == sum(apery_set(A, pivot).gap_counts)


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

    @pytest.mark.parametrize(
        "statistic, message",
        [(sylvester_number, r"genus 1/3 of \(3, 5\) is"), (sylvester_sum, r"gap sum 1/3 of \(3, 5\) is")],
    )
    def test_non_apery_reps_give_no_integer(self, monkeypatch, statistic, message):
        # (0, 1, 3) is not an Apery set: the identities give 1/3, not a count
        monkeypatch.setattr(
            semigroup, "apery_power_sums", lambda A, pivot, ks: tuple(sum(m**k for m in (0, 1, 3)) for k in ks)
        )
        with pytest.raises(ArithmeticError, match=message + " not an integer"):
            statistic(validate_generators([3, 5]))

    def test_two_generator_closed_forms(self):
        for a in range(2, 31):
            for b in range(a + 1, 31):
                if gcd(a, b) != 1:
                    continue
                A = validate_generators([a, b])
                assert frobenius_number(A) == (a - 1) * (b - 1) - 1
                assert sylvester_number(A) == (a - 1) * (b - 1) // 2
                assert 12 * sylvester_sum(A) == (a - 1) * (b - 1) * (2 * a * b - a - b - 1)
