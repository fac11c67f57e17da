"""Independent checks at sizes beyond brute force (``large`` tier).

Deselected by default; run with ``python -m pytest -q -m large``.  With no
oracle in reach, the Apery sets are held to the Dijkstra reference, and the
sums and statistics to pivot independence: every pivot gives a different
Apery set and a different rational function, but the same value.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from sylsum.semigroup import (
    apery_set,
    frobenius_number,
    sylvester_number,
    sylvester_sum,
    validate_generators,
)
from sylsum.sums import unweighted_power_sum, weighted_power_sum
from test_semigroup import apery_set_dijkstra_reference

pytestmark = pytest.mark.large


def seeded_instances(seed, count):
    """``count`` coprime sets of 2..5 generators, least one a in 10^4..5*10^4,
    the others in (a, 3a)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randint(10_000, 50_000)
        k = 2 + len(out) % 4
        gens = {a} | {rng.randint(a + 1, 3 * a) for _ in range(k - 1)}
        if len(gens) == k and gcd(*gens) == 1:
            out.append(validate_generators(gens))
    return out


# the last instance has 50,000 and 20,000 cycles of 2 and 5 residues
@pytest.mark.parametrize(
    "A",
    seeded_instances(seed=5, count=8) + [validate_generators([100_000, 100_001, 140_000, 150_000])],
    ids=str,
)
def test_round_robin_matches_dijkstra(A):
    for pivot in A:
        assert apery_set(A, pivot).reps == apery_set_dijkstra_reference(A, pivot)


def _statistics(A, pivot):
    return (
        frobenius_number(A, pivot),
        sylvester_number(A, pivot),
        sylvester_sum(A, pivot),
        tuple(unweighted_power_sum(A, mu, pivot).value for mu in range(4)),
    )


@pytest.mark.parametrize(
    "gens", [(1000, 1001, 1007, 2003), (20011, 24999, 31013, 37001, 43003)]
)
def test_pivot_independence(gens):
    A = validate_generators(gens)
    assert len({_statistics(A, pivot) for pivot in A}) == 1


def test_weighted_pivot_independence():
    # only on the 1000-instance: its largest Apery element is 146,999; on the
    # five-generator instance it is about 2*10^6 and one pivot takes a minute
    A = validate_generators([1000, 1001, 1007, 2003])
    values = {weighted_power_sum(A, 1, Fraction(-3, 2), pivot).value for pivot in A}
    assert len(values) == 1


@pytest.mark.parametrize("a, b", [(100_003, 100_019), (99_991, 150_001), (100_000, 100_001)])
def test_two_generator_identities(a, b):
    A = validate_generators([a, b])
    for pivot in (a, b):
        assert frobenius_number(A, pivot) == a * b - a - b
        assert sylvester_number(A, pivot) == (a - 1) * (b - 1) // 2
        assert 12 * sylvester_sum(A, pivot) == (a - 1) * (b - 1) * (2 * a * b - a - b - 1)
