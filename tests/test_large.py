"""Independent checks at sizes beyond brute force (``large`` tier).

Deselected by default; run with ``python -m pytest -q -m large``.  With no
oracle in reach, the Apery sets are held to the Dijkstra reference and to
the sieve, the closed forms of pairs and L-shaped triples to their Apery
lists and the Horner walk, and the sums and statistics to pivot independence: every pivot
gives a different Apery set and a different rational function, but the same
value.  The fixed-mu routes are held to Theorems 2 and 3 as the paper
writes them, and the closed forms to the general formula at every pivot.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from sylsum import exactnum, semigroup, sums
from sylsum.cli import run_command
from sylsum.exactnum import (
    FieldElement,
    NumberField,
    _apery_horner,
    _grid_sums,
    canonical_str,
    element_from_obj,
    power_sums,
    quadratic_field,
    to_element,
    zeta,
)
from sylsum.oracle import brute_force_weighted_sum
from sylsum.semigroup import (
    apery_grid,
    apery_power_sums,
    apery_set,
    frobenius_number,
    gap_set,
    sieve_representable,
    sylvester_number,
    sylvester_sum,
    validate_generators,
)
from sylsum.sums import (
    ThreeVarContext,
    closed_three_var,
    closed_two_var,
    unweighted_power_sum,
    weighted_power_sum,
    weighted_sum_mu1,
    weighted_sum_mu2,
)
from test_semigroup import apery_set_dijkstra_reference, rep_power_sums
from test_sums import (
    mu1_thm3_reference,
    mu2_thm2_reference,
    two_var_reference,
    unweighted_thm5_reference,
)

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


def unit_pool_shapes(seed, count):
    """``count`` coprime sets shaped like the weight-1 benchmark pool: a in
    3*10^3..1.5*10^4 followed by 2, 3 or 4 generators in (a, 2a)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randint(3_000, 15_000)
        gens = {a} | set(rng.sample(range(a + 1, 2 * a), 2 + len(out) % 3))
        if gcd(*gens) == 1:
            out.append(validate_generators(gens))
    return out


# the 100,000 instance has 50,000 and 20,000 cycles of 2 and 5 residues; the
# 61,810 one is a three-generator shape of the weight-1 benchmark pool
@pytest.mark.parametrize(
    "A",
    seeded_instances(seed=5, count=8)
    + [
        validate_generators([100_000, 100_001, 140_000, 150_000]),
        validate_generators([61_810, 103_417, 111_037]),
    ],
    ids=str,
)
def test_round_robin_matches_dijkstra(A):
    for pivot in A:
        assert apery_set(A, pivot).reps == apery_set_dijkstra_reference(A, pivot)


@pytest.mark.parametrize("A", unit_pool_shapes(seed=21, count=9), ids=str)
def test_apery_sets_match_sieve(A):
    # the sieve shares nothing with the L-shape or the round-robin walk
    aps = [apery_set(A, pivot) for pivot in A]
    table = sieve_representable(A, max(max(ap.reps) + ap.pivot for ap in aps))
    for ap in aps:
        for i, m in enumerate(ap.reps):
            assert table[m] and not any(table[i : m : ap.pivot])


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


@pytest.mark.parametrize("mu", [12, 40])
def test_unweighted_high_mu_pivot_independence(mu):
    # genus 73,213: the direct sum over the gap list is still in reach here
    A = validate_generators([1000, 1001, 1007, 2003])
    values = {unweighted_power_sum(A, mu, pivot).value for pivot in A}
    assert values == {sum(n**mu for n in gap_set(A))}


def test_unweighted_matches_paper_double_sum():
    A = validate_generators([1000, 1001, 1007, 2003])
    assert unweighted_power_sum(A, 8, 1007).value == unweighted_thm5_reference(A, 8, 1007)


def test_weighted_pivot_independence():
    # -3/2 only on the 1000-instance: its largest Apery element is 146,999; on
    # the five-generator instance it is about 2*10^6, and the Horner walk
    # takes a minute per pivot there
    A = validate_generators([1000, 1001, 1007, 2003])
    values = {weighted_power_sum(A, 1, Fraction(-3, 2), pivot).value for pivot in A}
    assert len(values) == 1


@pytest.mark.parametrize(
    "route, reference",
    [(weighted_sum_mu1, mu1_thm3_reference), (weighted_sum_mu2, mu2_thm2_reference)],
    ids=["mu1_thm3", "mu2_thm2"],
)
def test_fixed_mu_routes_match_theorems_2_and_3(route, reference):
    # the references combine normalised field elements, a second or so each
    A, lam = validate_generators([1000, 1001, 1007, 2003]), to_element(Fraction(-3, 2))
    result = route(A, lam)
    assert result.pivot_used == 1000
    assert result.value == reference(A, lam, 1000)


@pytest.mark.parametrize("lam", [zeta(7), to_element(-1), zeta(12) ** 5], ids=canonical_str)
@pytest.mark.parametrize("mu", [1, 2, 3])
def test_weighted_pivot_independence_at_roots_of_unity(lam, mu):
    # residue buckets make a pivot cost tens of milliseconds at this size
    A = validate_generators([20011, 24999, 31013, 37001, 43003])
    pivots = [a for a in A if not (lam**a).is_one()]
    assert pivots == list(A)
    assert len({weighted_power_sum(A, mu, lam, pivot).value for pivot in pivots}) == 1


def test_buckets_match_horner_walk():
    lam = zeta(7)
    exps = sorted(apery_set(validate_generators([1000, 1001, 1007, 2003])).reps, reverse=True)
    H, scale = _apery_horner(lam, exps, 6)
    assert power_sums(lam, exps, 6) == [FieldElement(lam.field, h, scale) for h in H]


@pytest.mark.parametrize("a, b", [(100_003, 100_019), (99_991, 150_001), (100_000, 100_001)])
def test_two_generator_identities(a, b):
    A = validate_generators([a, b])
    for pivot in (a, b):
        assert frobenius_number(A, pivot) == a * b - a - b
        assert sylvester_number(A, pivot) == (a - 1) * (b - 1) // 2
        assert 12 * sylvester_sum(A, pivot) == (a - 1) * (b - 1) * (2 * a * b - a - b - 1)


# three pairs, and three triples whose Apery set is an L-shape at every pivot
CLOSED_FORM_SETS = [
    (100_003, 100_019),
    (99_991, 150_001),
    (100_000, 100_001),
    (99_663, 119_436, 151_414),
    (100_333, 106_662, 109_828),
    (100_681, 113_019, 170_921),
]


@pytest.mark.parametrize("gens", CLOSED_FORM_SETS, ids=str)
def test_closed_form_matches_the_enumerated_apery_set(monkeypatch, gens):
    def no_list(A, pivot=None):
        raise AssertionError("the closed form builds no Apery list")

    A = validate_generators(gens)
    for pivot in A:
        with monkeypatch.context() as m:
            m.setattr(semigroup, "apery_set", no_list)
            m.setattr(sums, "apery_set", no_list)
            sums_k = apery_power_sums(A, pivot, range(5))
            values = [unweighted_power_sum(A, mu, pivot).value for mu in range(4)]
            statistics = frobenius_number(A, pivot), sylvester_number(A, pivot), sylvester_sum(A, pivot)
        ap = apery_set(A, pivot)
        assert sums_k == rep_power_sums(ap.reps, range(5))
        # the gaps of class i are reps[i] - pivot, reps[i] - 2*pivot, ...
        gap_sum = sum(g * m - pivot * g * (g + 1) // 2 for m, g in zip(ap.reps, ap.gap_counts))
        assert statistics == (max(ap.reps) - pivot, sum(ap.gap_counts), gap_sum)
        with monkeypatch.context() as m:
            m.setattr(semigroup, "apery_power_sums", lambda A, pivot, ks: rep_power_sums(ap.reps, ks))
            assert values == [unweighted_power_sum(A, mu, pivot).value for mu in range(4)]


@pytest.mark.parametrize(
    "lam", [zeta(97), NumberField([1] + [0] * 79 + [1]).element([0, 1])], ids=["zeta(97)", "x^80=-1"]
)
def test_high_degree_weight(lam):
    # the order search behind the residue buckets runs up to 2 * degree^2
    # (18,432 at degree 96); phi comes from a sieve, so this takes about a second
    A = validate_generators([3, 5])
    assert weighted_power_sum(A, 1, lam).value == brute_force_weighted_sum(A, 1, lam)


def test_degree_400_weight_inverts_nothing(capsys, inverse_calls):
    # zeta(1000) has degree 400: the order ladder stops at 1000, and both
    # unit inverses of the general formula are read off it, with no Bareiss
    # elimination on a 400 x 400 matrix
    argv = ["sum", "--gens", "3,5", "--mu", "1", "--lambda", "zeta(1000)", "--format", "json"]
    code = run_command(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert inverse_calls == []
    A, lam = validate_generators([3, 5]), zeta(1000)
    assert list(gap_set(A)) == [1, 2, 4, 7]
    want = sum((n * lam**n for n in (1, 2, 4, 7)), lam.field.zero)
    assert want == brute_force_weighted_sum(A, 1, lam)
    assert element_from_obj(json.loads(out)["result"]) == want


# weights of infinite order, whose Apery power sums come from the walk or,
# on a row or a rectangle, in closed form
GRID_WEIGHTS = [
    to_element(Fraction(-3, 2)),
    to_element(Fraction(5, 7)),
    quadratic_field(5).element([Fraction(1, 2), Fraction(1, 2)]),
]


@pytest.mark.parametrize(
    "gens, grid, lam, mu",
    [((1000, 1008, 1125), {1008: 125, 1125: 8}, lam, mu) for lam in GRID_WEIGHTS for mu in (1, 2, 3)]
    # the walk over a pair's 1,009 elements of up to 1,019,096 takes seconds
    + [((1009, 1013), {1013: 1009}, GRID_WEIGHTS[0], 1)],
    ids=str,
)
def test_grid_closed_form_matches_the_walk(gens, grid, lam, mu):
    # 1000 = 8 * 125 divides lcm(1008, 1125): the Apery set is a rectangle
    A = validate_generators(gens)
    assert apery_grid(A, A.min, mu) == grid
    closed, scale = _grid_sums(lam, grid, mu)
    H, walk_scale = _apery_horner(lam, sorted(apery_set(A, A.min).reps, reverse=True), mu)
    if lam.field.degree == 1:
        assert (closed, scale) == (H, walk_scale)
    else:
        got = [FieldElement(lam.field, h, scale) for h in closed]
        assert got == [FieldElement(lam.field, h, walk_scale) for h in H]


@pytest.mark.parametrize(
    "gens, lam, mu",
    [((1009, 1013), lam, mu) for lam in GRID_WEIGHTS for mu in (1, 2, 3)]
    # 3782 = 61*62, 3843 = 61*63, 3906 = 62*63: a rectangle at every pivot
    + [((3782, 3843, 3906), lam, mu) for lam, mu in zip(GRID_WEIGHTS, (1, 2, 3))]
    + [((10100, 10300, 10403), lam, 1) for lam in GRID_WEIGHTS],
    ids=str,
)
def test_weighted_pivot_independence_on_rows_and_rectangles(monkeypatch, gens, lam, mu):
    def no_list(A, pivot=None):
        raise AssertionError("a row or a rectangle builds no Apery list")

    monkeypatch.setattr(sums, "apery_set", no_list)
    A = validate_generators(gens)
    assert len({weighted_power_sum(A, mu, lam, pivot).value for pivot in A}) == 1


def test_closed_two_var_on_a_large_row():
    # two_var_reference, the paper's form in normalised field elements, takes about 30 s here
    A, lam = validate_generators([1009, 1013]), Fraction(-3, 2)
    value = closed_two_var(1009, 1013, lam).value
    assert all(value == weighted_power_sum(A, 1, lam, pivot).value for pivot in A)


def test_closed_three_var_on_a_large_rectangle():
    # 1001 = 7*11*13 divides lcm(1309, 247) = 7*11*13*17*19
    A, lam = validate_generators([1001, 1309, 247]), Fraction(-3, 2)
    value = closed_three_var(ThreeVarContext(1001, 1309, 247), lam).value
    assert all(value == weighted_power_sum(A, 1, lam, pivot).value for pivot in A)


def test_closed_form_of_degree_210_climbs_no_ladder(monkeypatch):
    # 1 + zeta(211) has no finite order; an order search would climb 840 steps
    lam = 1 + zeta(211)
    want = two_var_reference((3, 5), lam)

    def no_ladder(lam):
        raise AssertionError("a closed form climbed the order ladder")

    monkeypatch.setattr(sums, "order_ladder", no_ladder)
    monkeypatch.setattr(exactnum, "order_ladder", no_ladder)
    assert closed_two_var(3, 5, lam).value == want
