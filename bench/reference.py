"""Independent reference values for the benchmark's output checks.

Nothing here calls into ``sylsum``: gaps come from a big-integer bitset
sieve (no Apery set, no Dijkstra), and weighted sums come from an integer
Horner evaluation over every integer up to the Frobenius number, with the
weight written as P(x)/d for an integer polynomial P and a positive integer
d.  The results are exact and compared coefficient by coefficient with
what the program returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def representable_bits(gens, bound: int) -> int:
    """Bitset whose bit n (0 <= n <= bound) is set iff n is a nonnegative
    integer combination of ``gens``."""
    mask = (1 << (bound + 1)) - 1
    s = 1
    for g in gens:
        step = g
        while step <= bound:
            s = (s | (s << step)) & mask
            step <<= 1
    return s


def _sieve(gens) -> tuple[int, int]:
    """(representable bitset, its bound), the bound past the Frobenius number."""
    gens = sorted(set(gens))
    a1, ak = gens[0], gens[-1]
    # Schur's bound: the Frobenius number is at most (a1 - 1)(ak - 1) - 1.
    bound = (a1 - 1) * (ak - 1) + a1
    s = representable_bits(gens, bound)
    top = ((1 << a1) - 1) << (bound - a1 + 1)
    if s & top != top:
        raise ValueError(f"sieve bound {bound} too small for {gens}")
    return s, bound


def frobenius(gens) -> int:
    """Largest gap, or -1 when there is none."""
    s, bound = _sieve(gens)
    return (~s & ((1 << (bound + 1)) - 1)).bit_length() - 1


def gaps(gens) -> list[int]:
    """Sorted gaps of the semigroup generated by ``gens`` (gcd 1)."""
    s, bound = _sieve(gens)
    bits = format(s, "b")[::-1].ljust(bound + 1, "0")
    return [n for n in range(1, bound + 1) if bits[n] == "0"]


def apery_reps(gens, pivot: int) -> list[int]:
    """Least representable integer in each residue class mod ``pivot``."""
    g = gaps(gens)
    top = (g[-1] if g else 0) + pivot
    bits = format(representable_bits(gens, top), "b")[::-1].ljust(top + 1, "0")
    reps = [None] * pivot
    for n in range(top + 1):
        if bits[n] == "1" and reps[n % pivot] is None:
            reps[n % pivot] = n
    return reps


def _reduce(poly: list[int], modulus: list[int]) -> list[int]:
    """Remainder of an integer polynomial by a monic integer modulus."""
    deg = len(modulus) - 1
    poly = list(poly)
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for j in range(deg):
                poly[k - deg + j] -= c * modulus[j]
    return (poly + [0] * deg)[:deg]


def weighted_gap_sums(gens, mus, modulus, coeffs) -> dict[int, tuple[Fraction, ...]]:
    """sum over gaps n of lam**n * n**mu, for each mu in ``mus``.

    ``lam`` is the element with rational ``coeffs`` (constant term first) of
    Q[x]/(modulus), for a monic integer ``modulus`` (constant term first).
    Returns the coefficient tuple of each sum.
    """
    modulus = [Fraction(c) for c in modulus]
    if modulus[-1] != 1 or any(c.denominator != 1 for c in modulus):
        raise ValueError("the reference needs a monic integer modulus")
    modulus = [int(c) for c in modulus]
    deg = len(modulus) - 1
    coeffs = [Fraction(c) for c in coeffs] + [Fraction(0)] * (deg - len(coeffs))
    d = lcm(*(c.denominator for c in coeffs))
    p = [int(c * d) for c in coeffs]
    gap_list = gaps(gens)
    if not gap_list:
        return {mu: (Fraction(0),) * deg for mu in mus}
    is_gap = set(gap_list)
    top = gap_list[-1]
    # With lam = P/d, Horner over n = top..1 builds
    # H = sum_n w_n d^(top-n) P^n, and the sum is H / d^top.
    horner = {mu: [0] * deg for mu in mus}
    dpow = 1
    for n in range(top, 0, -1):
        for mu, h in horner.items():
            if n in is_gap:
                h[0] += n**mu * dpow
            prod = [0] * (2 * deg - 1)
            for i, hi in enumerate(h):
                if hi:
                    for j, pj in enumerate(p):
                        prod[i + j] += hi * pj
            horner[mu] = _reduce(prod, modulus)
        dpow *= d
    return {mu: tuple(Fraction(c, dpow) for c in h) for mu, h in horner.items()}


def pair_identities(a: int, b: int) -> dict[str, int]:
    """Classical closed forms for the semigroup <a, b>, gcd(a, b) == 1."""
    return {
        "genus": (a - 1) * (b - 1) // 2,
        "frobenius": a * b - a - b,
        "gap_sum": (a - 1) * (b - 1) * (2 * a * b - a - b - 1) // 12,
    }
