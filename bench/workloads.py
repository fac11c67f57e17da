"""Seeded request pools for the benchmark's four workloads.

Each pool is a fixed grid of cells (family x weight x mu x size, or the
CLI command mix); the seed only picks the generators inside each cell.  The
grid keeps the cost distribution, and so the latency percentiles, the same
from seed to seed, while the instances themselves differ.

Run as a script (``python3 bench/workloads.py WORKLOAD SEED``) it performs
one set-up and exits; the benchmark times such children for ``setup_s``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import exp, gcd, log

import reference

WORKLOADS = ("rational_warm", "algebraic_warm", "unit_weight_large", "cli_cold")

FAMILIES = ("roadmap", "triple", "pair", "lcm")
MUS = (1, 2, 3, 6)

# Layers each workload runs, as tracer hook names; an expected layer that
# records nothing in a traced run is reported missing.
WEIGHTED_LAYERS = {
    "exactnum.pow",
    "exactnum.mul",
    "exactnum.inverse",
    "sums.dispatch",
    "semigroup.apery",
    "combinatorics.eulerian",
}
EXPECTED_LAYERS = {
    "rational_warm": WEIGHTED_LAYERS,
    "algebraic_warm": WEIGHTED_LAYERS,
    "unit_weight_large": {"sums.dispatch", "semigroup.apery", "combinatorics.bernoulli"},
    "cli_cold": WEIGHTED_LAYERS
    | {
        "semigroup.gap_set",
        "oracle.brute_force",
        "cli.run_command",
        "cli.parse",
        "cli.serialise",
        "cli.startup",
    },
}


@dataclass(frozen=True)
class Weight:
    """A weight as CLI text plus the recipe to build it through the API."""

    text: str
    wclass: str  # rational | cyclotomic | quadratic | cubic | unit
    recipe: tuple
    order: int = 0  # multiplicative order if lambda is a root of unity, else 0

    def build(self):
        import sylsum

        kind, *args = self.recipe
        if kind == "rational":
            return sylsum.to_element(Fraction(args[0]))
        if kind == "zeta":
            n, k = args
            return sylsum.zeta(n) ** k
        if kind == "quadratic":
            d, r0, r1 = args
            return sylsum.quadratic_field(d).element([Fraction(r0), Fraction(r1)])
        modulus, coeffs = args
        return sylsum.NumberField(modulus).element([Fraction(c) for c in coeffs])


def _rational(text: str) -> Weight:
    wclass = "unit" if text == "1" else "rational"
    return Weight(text, wclass, ("rational", text), {"1": 1, "-1": 2}.get(text, 0))


def _zeta(n: int, k: int = 1) -> Weight:
    text = f"zeta({n})" + (f"^{k}" if k != 1 else "")
    return Weight(text, "cyclotomic", ("zeta", n, k), n // gcd(n, k))


def _quadratic(d: int, r0: str, r1: str, order: int = 0) -> Weight:
    return Weight(f"q({d}; {r0}, {r1})", "quadratic", ("quadratic", d, r0, r1), order)


def _cubic(*coeffs: int) -> Weight:
    text = f"nf([-2,0,0,1]; [{','.join(map(str, coeffs))}])"
    return Weight(text, "cubic", ("nf", (-2, 0, 0, 1), coeffs))


RATIONAL_WEIGHTS = tuple(_rational(t) for t in ("-2", "-3/2", "2/3", "-1", "5/7", "3", "-1/4"))

# Two elements in each of eight fields: Q(zeta_n) for n = 5, 7, 8, 12, the
# quadratic fields Q(sqrt 5), Q(sqrt -3), Q(sqrt 2), and Q(2^(1/3)).
ALGEBRAIC_WEIGHTS = (
    (_zeta(5), _zeta(5, 2)),
    (_zeta(7), _zeta(7, 3)),
    (_zeta(8), _zeta(8, 3)),
    (_zeta(12), _zeta(12, 5)),
    (_quadratic(5, "0", "-1/5"), _quadratic(5, "1/2", "1/2")),
    (_quadratic(-3, "1/2", "1/2", order=6), _quadratic(-3, "1", "1")),
    (_quadratic(2, "1", "1"), _quadratic(2, "-1", "1")),
    (_cubic(1, -1, 0), _cubic(0, 1, 0)),
)

UNIT = _rational("1")


@dataclass
class Request:
    """One request of a pool; ``rid`` is its index in the pool."""

    rid: int
    kind: str  # sum | genus | frobenius, or a CLI subcommand
    family: str
    gens: tuple[int, ...]
    mu: int | None = None
    weight: Weight | None = None
    pivot: int | None = None  # ``apery --pivot``
    args: tuple = ()  # API arguments, built at set-up

    def argv(self) -> list[str]:
        """CLI arguments; weights use the ``--lambda=VALUE`` form because
        argparse reads ``--lambda -3/2`` as a missing value."""
        out = [self.kind, "--gens", ",".join(map(str, self.gens))]
        if self.mu is not None and self.kind != "closed3":
            out += ["--mu", str(self.mu)]
        if self.weight is not None:
            out.append(f"--lambda={self.weight.text}")
        if self.pivot is not None:
            out += ["--pivot", str(self.pivot)]
        return out + ["--format", "json"]

    def describe(self) -> dict:
        return {
            "rid": self.rid,
            "kind": self.kind,
            "family": self.family,
            "gens": list(self.gens),
            "mu": self.mu,
            "weight": None if self.weight is None else self.weight.text,
            "wclass": None if self.weight is None else self.weight.wclass,
        }


# ---------------------------------------------------------------------------
# generator families


def _max_apery(gens) -> int:
    return reference.frobenius(gens) + min(gens)


def _draw(rng: random.Random, family: str, lo: int, hi: int) -> tuple[int, ...]:
    """One candidate of a family whose least generator a lies in [lo, hi]."""
    while True:
        a = rng.randint(lo, hi)
        if family == "roadmap":
            gens = (a, a + 1, a + 7, 2 * a + 3)
        elif family == "pair":
            gens = (a, rng.randint(a + 1, 3 * a))
        elif family == "triple":
            b, c = sorted(rng.sample(range(a + 1, 4 * a), 2))
            gens = (a, b, c)
        else:  # lcm: a = p*q divides lcm(b, c) with p | b and q | c
            split = [(p, a // p) for p in range(2, a) if a % p == 0 and gcd(p, a // p) == 1]
            if not split:
                continue
            p, q = rng.choice(split)
            gens = (a, p * rng.randint(q + 1, 4 * q), q * rng.randint(p + 1, 4 * p))
        if len(set(gens)) == len(gens) and gcd(*gens) == 1:
            return gens


# Sizes of the weighted draws.  Cell i of n asks for a largest Apery element
# (w.r.t. the least generator a) within 10% of its own target, the targets
# log-spaced over 300..6000, and for a within 7% of the family's typical
# value at that size (interpolated from the table below, measured on free
# draws).  Latency grows about linearly with a (one power of lambda per
# Apery element), so pinning both keeps each cell's cost steady from seed to
# seed, and spreading the targets keeps the latency distribution smooth, so
# its percentiles do not sit between two clusters.
SIZE_RANGE = (300, 6000)
SIZE_TABLE = (400, 900, 2000, 4400)
PIVOT_TABLE = {
    "roadmap": (42, 68, 106, 162),
    "triple": (23, 37, 61, 81),
    "pair": (15, 23, 33, 47),
    "lcm": (21, 35, 55, 88),
}


def _log_spaced(lo: float, hi: float, i: int, n: int) -> float:
    return lo * (hi / lo) ** ((i + 0.5) / n)


def _typical_pivot(family: str, size: float) -> float:
    """Log-log interpolation in PIVOT_TABLE, extended linearly at the ends."""
    xs = [log(x) for x in SIZE_TABLE]
    ys = [log(y) for y in PIVOT_TABLE[family]]
    j = min(max(sum(x <= log(size) for x in xs) - 1, 0), len(xs) - 2)
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return exp(ys[j] + slope * (log(size) - xs[j]))


def _draw_sized(rng: random.Random, family: str, size: float, weight: Weight) -> tuple[int, ...]:
    pivot = _typical_pivot(family, size)
    tries = 0
    while True:
        # widen both windows if a cell is hard to fill (the ROADMAP family
        # has one instance per a, and a weight's order may exclude it)
        slack = 1 + tries // 1000
        tries += 1
        lo, hi = round(pivot * (1 - 0.07 * slack)), round(pivot * (1 + 0.07 * slack))
        gens = _draw(rng, family, lo, hi)
        # a root-of-unity weight with lambda**a == 1 would move the pivot
        if weight.order and gens[0] % weight.order == 0:
            continue
        if abs(_max_apery(gens) - size) <= 0.1 * slack * size:
            return gens


def _coprime_tail(rng: random.Random, a: int, k: int) -> tuple[int, ...]:
    """a followed by k - 1 distinct generators in (a, 2a), all coprime."""
    while True:
        rest = sorted(rng.sample(range(a + 1, 2 * a), k - 1))
        if gcd(a, *rest) == 1:
            return (a, *rest)


# ---------------------------------------------------------------------------
# pools


def _weighted_pool(rng: random.Random, cells) -> list[Request]:
    """``cells`` are (family, weight, mu, quarter); the targets rise through
    quarter 0 to 3, so the quarter sets how large a cell is."""
    cells = sorted(cells, key=lambda c: c[3])
    pool = []
    for i, (family, weight, mu, _) in enumerate(cells):
        size = _log_spaced(*SIZE_RANGE, i, len(cells))
        gens = _draw_sized(rng, family, size, weight)
        pool.append(Request(len(pool), "sum", family, gens, mu, weight))
    return pool


def rational_pool(seed: int) -> list[Request]:
    """4 families x 7 rational weights x 4 mu; every (weight, mu) pair meets
    every size quarter across the families."""
    rng = random.Random(f"rational_warm/{seed}")
    cells = [
        (family, weight, mu, (f + w + m) % 4)
        for f, family in enumerate(FAMILIES)
        for w, weight in enumerate(RATIONAL_WEIGHTS)
        for m, mu in enumerate(MUS)
    ]
    return _weighted_pool(rng, cells)


def algebraic_pool(seed: int) -> list[Request]:
    """8 fields x 2 elements x 4 mu; family and size quarter rotate with mu
    so each element meets every family and every size quarter."""
    rng = random.Random(f"algebraic_warm/{seed}")
    cells = [
        (FAMILIES[(f + m) % 4], weight, mu, (m + e) % 4)
        for f, pair in enumerate(ALGEBRAIC_WEIGHTS)
        for e, weight in enumerate(pair)
        for m, mu in enumerate(MUS)
    ]
    return _weighted_pool(rng, cells)


UNIT_INSTANCES = 20
ROADMAP_UNIT = {0: 1000, 7: 5000}  # instance index -> a of (a, a+1, a+7, 2a+3)


def unit_pool(seed: int) -> list[Request]:
    """20 instances with pivots log-spaced over 10^3..10^5 (each drawn within
    1%) and 2..5 generators in turn; instances 0 and 7 are the ROADMAP family
    (a, a+1, a+7, 2a+3) at a = 1000 and a = 5000.  Each instance is asked for
    the sums mu = 0, 1, 2 with weight 1, its genus and its Frobenius number."""
    rng = random.Random(f"unit_weight_large/{seed}")
    pool = []
    for i in range(UNIT_INSTANCES):
        if i in ROADMAP_UNIT:
            a = ROADMAP_UNIT[i]
            gens, family = (a, a + 1, a + 7, 2 * a + 3), "roadmap"
        else:
            centre = 1000 * 100 ** (i / (UNIT_INSTANCES - 1))
            a = rng.randint(round(centre * 0.99), round(centre * 1.01))
            k = 2 + i % 4
            gens, family = _coprime_tail(rng, a, k), f"{k}-gen"
        for mu in (0, 1, 2):
            pool.append(Request(len(pool), "sum", family, gens, mu, UNIT))
        pool.append(Request(len(pool), "genus", family, gens))
        pool.append(Request(len(pool), "frobenius", family, gens))
    return pool


CLI_HIGH_MU = (40, 51, 63, 74, 86, 97, 109, 120)
CLI_VERIFY_WEIGHTS = (
    _rational("-2"),
    _zeta(7),
    _quadratic(5, "0", "-1/5"),
    _rational("2/3"),
    _zeta(8, 3),
    _rational("-3/2"),
)


def _small_gens(rng: random.Random, k: int, top: int) -> tuple[int, ...]:
    while True:
        gens = tuple(sorted(rng.sample(range(2, top + 1), k)))
        if gcd(*gens) == 1:
            return gens


def cli_pool(seed: int) -> list[Request]:
    """34 CLI calls: 8 high-mu sums, 6 verifies on the ROADMAP family at
    a in 20..60, and 20 short gaps / apery / genus / frobenius / closed3."""
    rng = random.Random(f"cli_cold/{seed}")
    pool = []

    def add(*args, **kwargs):
        pool.append(Request(len(pool), *args, **kwargs))

    for i, mu in enumerate(CLI_HIGH_MU):
        k = 2 + i % 2
        add("sum", f"{k}-gen", _small_gens(rng, k, 12), mu, RATIONAL_WEIGHTS[i % 7])
    for i, weight in enumerate(CLI_VERIFY_WEIGHTS):
        a = min(rng.randint(20 + 7 * i, 26 + 7 * i), 60)
        add("verify", "roadmap", (a, a + 1, a + 7, 2 * a + 3), 1 + i % 3, weight)
    for i in range(4):
        for kind in ("gaps", "apery", "genus", "frobenius"):
            gens = _small_gens(rng, 2 + i % 3, 30)
            add(kind, f"{len(gens)}-gen", gens, pivot=gens[1] if kind == "apery" and i == 2 else None)
    for i in range(4):
        while True:
            gens = _draw(rng, "lcm", 6, 30)
            if max(gens) <= 60:
                break
        add("closed3", "lcm", gens, 1, RATIONAL_WEIGHTS[(0, 2, 4, 5)[i]])
    return pool


POOLS = {
    "rational_warm": rational_pool,
    "algebraic_warm": algebraic_pool,
    "unit_weight_large": unit_pool,
    "cli_cold": cli_pool,
}


def setup(name: str, seed: int) -> list[Request]:
    """Import the program, build the pool and fill the lazy tables, as a
    user of the workload would before the first request."""
    if name == "cli_cold":
        import sylsum.cli  # noqa: F401  (a CLI call pays only the import here)

        return POOLS[name](seed)
    import sylsum

    pool = POOLS[name](seed)
    for req in pool:
        A = sylsum.validate_generators(req.gens)
        req.args = (A,) if req.weight is None else (A, req.mu, req.weight.build())
    top_mu = max(req.mu or 0 for req in pool)
    sylsum.eulerian(top_mu, 0)
    sylsum.bernoulli(top_mu + 1)
    return pool


if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]))
