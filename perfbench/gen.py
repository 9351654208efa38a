"""Seeded CLI payloads for the four benchmark workloads, stdlib only.

Each workload is an endless, deterministic stream: ``payloads(workload,
seed)`` yields ``Op`` records whose ``payload`` is the JSON object handed
to ``p1moduli.cli.run`` and whose ``expect`` holds what the checker needs
to know about the input by construction (planted equivalence, planted
conic point, expected exit code).  Nothing here imports the program, so
the inputs do not depend on the code being measured.

The mix inside each stream cycles through a fixed schedule of input kinds
and draws only the details from the seed; every run therefore sees the
same proportions of cheap and costly requests, which keeps run-to-run
medians comparable across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Iterator

WORKLOADS = ("counterexample", "analyze", "equivalence", "conic")

# squarefree radicands for multiquadratic towers Q(sqrt r0, sqrt r1)
RADICANDS = (-1, 2, 3, 5, -2, -3, 6, 7)


@dataclass
class Op:
    command: str
    payload: dict
    kind: str
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# multiquadratic tower arithmetic (coordinate index = bitmask of roots)
# ---------------------------------------------------------------------------

class MQ:
    """Q(sqrt r_0, ..., sqrt r_{k-1}) with rational radicands; elements are
    coordinate lists where index bit i means a factor sqrt(r_i), matching
    the program's tower layout."""

    def __init__(self, rads):
        self.rads = tuple(rads)
        self.level = len(self.rads)
        self.degree = 1 << self.level

    def const(self, q):
        c = [F(0)] * self.degree
        c[0] = F(q)
        return c

    def mul(self, a, b):
        out = [F(0)] * self.degree
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                c = x * y
                s = i & j
                for bit, r in enumerate(self.rads):
                    if s >> bit & 1:
                        c *= r
                out[i ^ j] += c
        return out

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def sub(self, a, b):
        return [x - y for x, y in zip(a, b)]

    def conj(self, a, mask):
        """The Galois conjugate flipping the roots whose bits are in mask."""
        return [-x if bin(i & mask).count("1") % 2 else x
                for i, x in enumerate(a)]

    def inv(self, a):
        prod = self.const(1)
        for mask in range(1, self.degree):
            prod = self.mul(prod, self.conj(a, mask))
        norm = self.mul(a, prod)[0]
        return [x / norm for x in prod]

    def is_zero(self, a):
        return not any(a)

    def rand(self, rng, lo, hi, den=1, irrational=False):
        while True:
            c = [F(rng.randint(lo, hi), rng.randint(1, den))
                 for _ in range(self.degree)]
            if not irrational or any(c[1:]):
                return c

    def orbit(self, a):
        """The distinct Galois conjugates of a, in mask order."""
        seen, out = set(), []
        for mask in range(self.degree):
            c = self.conj(a, mask)
            if tuple(c) not in seen:
                seen.add(tuple(c))
                out.append(c)
        return out


INF = None  # the point at infinity


def mobius_apply(k: MQ, m, z):
    """(a z + b) / (c z + d) on a finite point or infinity."""
    a, b, c, d = m
    if z is INF:
        return INF if k.is_zero(c) else k.mul(a, k.inv(c))
    den = k.add(k.mul(c, z), d)
    if k.is_zero(den):
        return INF
    return k.mul(k.add(k.mul(a, z), b), k.inv(den))


def rand_mobius(k: MQ, rng, lo=-4, hi=4):
    while True:
        m = [k.rand(rng, lo, hi) for _ in range(4)]
        if not k.is_zero(k.sub(k.mul(m[0], m[3]), k.mul(m[1], m[2]))):
            return m


def sort_key(p):
    """The program's point order: infinity first, then coordinates."""
    return (0,) if p is INF else (1, tuple(p))


def distinct(points) -> bool:
    return len({sort_key(p) for p in points}) == len(points)


def point_json(p):
    return "infinity" if p is INF else [str(c) for c in p]


def divisor_json(k: MQ, points) -> dict:
    return {"tower": [str(r) for r in k.rads],
            "points": [point_json(p) for p in points]}


def slot_tower(level: int, slot: int) -> MQ:
    """The tower of a cycle position.  It depends on the position, not on
    the seed: larger radicands make every field operation dearer, so a
    seeded choice would move a run's cost with its seed."""
    return MQ(random.Random(f"tower:{slot}").sample(RADICANDS, level))


# ---------------------------------------------------------------------------
# counterexample: (-1, -1) at n = 8
# ---------------------------------------------------------------------------

# One level-3 counterexample costs about six reference seconds, so a run
# holds three to five.  The generator redraws until the deck involution
# is self-centralizing, and each rejected draw adds a compute_aut of
# about two seconds; about one payload seed in five needs a second draw.
# Within three to five ops that split the runs into two cost levels, and
# the slowest op, and often the median, jumped between them with the
# seed.  The ops therefore use payload seeds that the generator accepts
# at their first draw, as found by running it; the workload's seed picks
# their order.  n = 10 (12-18 s) is left out for the same reason.
COUNTEREXAMPLE_SEEDS = (
    1, 1001, 2001, 4001, 5001, 6001, 7001, 8001, 9001, 10001, 11001,
    13001, 14001, 15001, 16001, 17001, 18001, 19001, 20001, 22001, 23001,
)


def gen_counterexample(seed: int) -> Iterator[Op]:
    order = random.Random(f"counterexample:{seed}").sample(
        COUNTEREXAMPLE_SEEDS, len(COUNTEREXAMPLE_SEEDS))
    i = 0
    while True:
        payload = {"a": -1, "b": -1, "n": 8,
                   "seed": order[i % len(order)]}
        yield Op("counterexample", payload, "n8",
                 {"code": 0, "symbol": ["-1", "-1"], "n": 8})
        i += 1


# ---------------------------------------------------------------------------
# analyze: a fixed cycle of input kinds covering every decide branch
# ---------------------------------------------------------------------------

def _stable_base(k: MQ, rng, n: int):
    """Rational points plus full Galois orbits: a Galois-stable set.  The
    number of orbits is fixed by the degree, so sets of one kind share
    their structure and cost about the same."""
    orbits = max(1, n // 2 // k.degree) if k.level else 0
    pts: list = []
    while len(pts) < orbits * k.degree:
        orb = k.orbit(k.rand(rng, -5, 5, 2, irrational=True))
        if len(orb) == k.degree and distinct(pts + orb):
            pts += orb
    while len(pts) < n:
        p = k.const(F(rng.randint(-9, 9), rng.randint(1, 3)))
        if distinct(pts + [p]):
            pts.append(p)
    return pts


def _twisted(k: MQ, rng, pts):
    """The image of a point set under a random Mobius map over k.  Entries
    shrink with the level: tall coordinates give compression conics whose
    Legendre descent meets integers too hard to factor in minutes."""
    bound = 4 >> k.level
    while True:
        m = rand_mobius(k, rng, -bound, bound)
        img = [mobius_apply(k, m, p) for p in pts]
        if distinct(img):
            rng.shuffle(img)
            return img


def stable_twist(k: MQ, rng, n: int):
    return _twisted(k, rng, _stable_base(k, rng, n))


# an order-2 Mobius map over Q, and generators of the Klein four-group,
# as (a, b, c, d) integer tuples
_GROUP_GENS = {
    "C2": [(-1, 0, 0, 1)],
    "V4": [(-1, 0, 0, 1), (0, 1, 1, 0)],
}


def orbit_set(rng, group: str, n: int):
    """A degree-n set over Q that is a union of orbits of a finite group,
    moved by a random rational Mobius map so the group is not visible."""
    k = MQ(())
    gens = [[k.const(v) for v in g] for g in _GROUP_GENS[group]]
    pts: list = []
    misses = 0
    while len(pts) < n:
        if misses > 50:
            # the orbits left cannot fill the remaining room; start over
            pts, misses = [], 0
        misses += 1
        z = k.const(F(rng.randint(-12, 12), rng.randint(1, 5)))
        orb = [z]
        frontier = [z]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = mobius_apply(k, g, p)
                    if sort_key(q) not in {sort_key(o) for o in orb}:
                        orb.append(q)
                        nxt.append(q)
            frontier = nxt
        if len(pts) + len(orb) <= n and distinct(pts + orb):
            pts += orb
    return k, _twisted(k, rng, pts)


def nonstable_set(k: MQ, rng, n: int):
    """Random irrational points that are not closed under conjugation;
    their field of moduli is a proper extension, so analyze exits 3."""
    while True:
        pts = [k.rand(rng, -6, 6, 3, irrational=True) for _ in range(n - 2)]
        pts += [k.const(rng.randint(-9, 9)) for _ in range(2)]
        if distinct(pts):
            rng.shuffle(pts)
            return pts


# Kinds, by the decide branch they exercise: twists and C2 sets reach
# the conic and a p1_model certificate; V4 sets and degrees 4 and 5 take
# fast paths; nonstable sets are refused as UnsupportedBase; hyperelliptic
# requests wrap decide.  Level-2 twists of degree 6, the only inputs that
# end in a conic_point certificate, are left out: one costs 1.3-4.7 s
# depending on the draw, which alone moved ops_per_s by 10% between seeds.
#
# The cycle is built by cost rank so that a run of whole cycles has its
# median and its tail percentile (the 78th, see run.py) inside a tier of
# like-priced kinds, not on the edge between two.  By rank, in reference
# seconds: 5 cheap kinds (0.04-0.22 s); 6 at 0.25-0.35 s holding the
# median, half of them nonstable sets of degree 6, whose cost hardly
# moves with the seed; and 5 dear ones, four at 0.6-0.9 s holding the
# tail percentile and one level-2 set at about 2 s.
ANALYZE_CYCLE = (
    ("twist", 0, 6), ("twist", 1, 6), ("nonstable", 1, 8), ("V4", 0, 8),
    ("nonstable", 1, 6), ("twist", 1, 8), ("hyper", 0, 5), ("nonstable", 1, 6),
    ("nonstable", 2, 6), ("twist", 1, 4), ("twist", 1, 6), ("nonstable", 1, 8),
    ("C2", 0, 8), ("hyper", 1, 6), ("twist", 1, 8), ("nonstable", 1, 6),
)


def gen_analyze(seed: int) -> Iterator[Op]:
    rng = random.Random(f"analyze:{seed}")
    i = 0
    while True:
        kind, level, n = ANALYZE_CYCLE[i % len(ANALYZE_CYCLE)]
        label = f"{kind}-L{level}-d{n}"
        k = slot_tower(level, i % len(ANALYZE_CYCLE))
        if kind == "twist":
            pts = stable_twist(k, rng, n)
            yield Op("analyze", divisor_json(k, pts), label,
                     {"code": 0, "outcome": "DefinedOnP1"})
        elif kind == "nonstable":
            pts = nonstable_set(k, rng, n)
            yield Op("analyze", divisor_json(k, pts), label,
                     {"code": 3, "outcome": "UnsupportedBase"})
        elif kind == "hyper":
            # odd degree appends infinity, which keeps the branch set
            # stable only over Q, so odd degrees stay at level 0
            while True:
                pts = stable_twist(k, rng, n)
                if INF not in pts:
                    break
            payload = {"branch": divisor_json(k, pts),
                       "odd_infinity": n % 2 == 1}
            yield Op("hyperelliptic", payload, label,
                     {"code": 0, "outcome": "DefinedOnP1"})
        else:
            k, pts = orbit_set(rng, kind, n)
            yield Op("analyze", divisor_json(k, pts), label,
                     {"code": 0, "outcome": "DefinedOnP1"})
        i += 1


# ---------------------------------------------------------------------------
# equivalence: planted Mobius images and one-point perturbations
# ---------------------------------------------------------------------------

# (level, degree) of each pair, each drawn once planted and once moved.
# Level-0 degree-10 and level-1 degree-8 pairs cost about the run's median
# and appear twice, so the median is read from several like-priced ops.
# Level-2 degree-8 pairs are left out: at 1.5-3 s a pair, with a spread
# set by coefficient heights, they carried half of a cycle's time.
EQUIVALENCE_CYCLE = (
    (0, 8), (1, 6), (2, 6), (0, 10), (1, 8), (0, 6), (1, 10), (0, 10),
    (1, 8),
)


def _rank(points, p) -> int:
    return sum(1 for q in points if sort_key(q) < sort_key(p))


def _image(k: MQ, rng, first, planted: bool, tries: int = 100):
    """The second divisor of a pair, or None when no map drawn in `tries`
    puts the lead point mid-scan (a map with small entries cannot move the
    pole into every gap of the first divisor)."""
    n = len(first)
    lead = min(first, key=sort_key)
    for _ in range(tries):
        m = rand_mobius(k, rng)
        second = [mobius_apply(k, m, p) for p in first]
        if not distinct(second):
            continue
        if planted:
            if _rank(second, mobius_apply(k, m, lead)) == n // 2:
                return second
            continue
        second[rng.randrange(n)] = k.rand(rng, -6, 6, 3)
        if distinct(second):
            return second
    return None


def gen_equivalence(seed: int) -> Iterator[Op]:
    """The search fixes the first three points of the first divisor (in
    the program's point order) and scans ordered triples of the second.  A
    planted map is redrawn until the image of the first point sits in the
    middle of the second divisor, so a hit scans about half the triples
    and every planted pair of a size costs about the same."""
    rng = random.Random(f"equivalence:{seed}")
    i = 0
    while True:
        level, n = EQUIVALENCE_CYCLE[(i // 2) % len(EQUIVALENCE_CYCLE)]
        planted = i % 2 == 0
        k = slot_tower(level, i % (2 * len(EQUIVALENCE_CYCLE)))
        second = None
        while second is None:
            first = [k.rand(rng, -6, 6, 2) for _ in range(n)]
            if distinct(first):
                second = _image(k, rng, first, planted)
        rng.shuffle(second)
        payload = {"first": divisor_json(k, first),
                   "second": divisor_json(k, second)}
        label = f"{'equiv' if planted else 'moved'}-L{level}-d{n}"
        yield Op("equivalence", payload, label,
                 {"code": 0, "equivalent": True if planted else None})
        i += 1


# ---------------------------------------------------------------------------
# conic: large prime factors, planted points and random forms
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rand_prime(rng, lo_exp: int, hi_exp: int) -> int:
    """A prime drawn log-uniformly from [10^lo_exp, 10^hi_exp]."""
    while True:
        n = int(10 ** rng.uniform(lo_exp, hi_exp)) | 1
        while not is_prime(n):
            n += 2
        if n < 10 ** hi_exp:
            return n


def _big_coeff(rng, decade: int) -> int:
    return rng.choice((1, -1)) * rng.choice((1, 2, 3, 5, 6, 7)) \
        * rand_prime(rng, decade, decade + 1)


def _unitriangular(rng):
    u, v, w = (rng.randint(-3, 3) for _ in range(3))
    return [[1, u, v], [0, 1, w], [0, 0, 1]]


def _congruent_gram(diag, m):
    """m^T diag(d) m; an upper unitriangular m keeps the program's
    diagonalization at diag, so every factored integer stays controlled."""
    return [[sum(m[k][i] * diag[k] * m[k][j] for k in range(3))
             for j in range(3)] for i in range(3)]


def _solve_unitriangular(m, v):
    """x with m x = v, for upper unitriangular integer m."""
    x = [F(0)] * 3
    for i in (2, 1, 0):
        x[i] = F(v[i]) - sum(m[i][j] * x[j] for j in range(i + 1, 3))
    return x


CONIC_CYCLE = (("planted", "diagonal"), ("random", "diagonal"),
               ("planted", "gram"), ("random", "gram"))
# Decades of the big primes in a, c and a random b, cycled beside the
# kinds (period 12): a prime below 1e6 falls to trial division, one above
# needs rho.  Fixing the decade per slot keeps every run's mix alike.  The
# top decades appear only in random forms, because a rho-sized prime in a
# planted form makes every step of the Legendre descent slow and noisy.
# Planted forms take one prime from each of 1e6-1e7 and 1e7-1e8: the
# descent's cost then varies least for the time it takes (a cycle's
# variance over its mean fell from 0.087 to 0.052 s against planted
# primes from 1e5-1e6), so a run's figures move least with the seed.
CONIC_DECADES = ((6, 7, 7), (7, 6, 10), (6, 7, 5), (8, 5, 6), (7, 6, 8),
                 (7, 8, 9))


def gen_conic(seed: int) -> Iterator[Op]:
    rng = random.Random(f"conic:{seed}")
    i = 0
    while True:
        mode, shape = CONIC_CYCLE[i % len(CONIC_CYCLE)]
        ea, ec, eb = CONIC_DECADES[i % len(CONIC_DECADES)]
        point = None
        while True:
            a, c = _big_coeff(rng, ea), _big_coeff(rng, ec)
            if mode == "planted":
                # a x0^2 + b + c z0^2 = 0 at (x0, 1, z0); |b| stays below
                # 1e15, so its cofactor after trial division splits fast
                x0, z0 = rng.randint(1, 4), rng.randint(1, 4)
                b = -(a * x0 * x0 + c * z0 * z0)
                point = [x0, 1, z0]
            else:
                b = _big_coeff(rng, eb)
            if b:
                break
        diag = [a, b, c]
        if shape == "diagonal":
            payload = {"diagonal": [str(v) for v in diag]}
        else:
            m = _unitriangular(rng)
            gram = _congruent_gram(diag, m)
            payload = {"gram": [[str(v) for v in row] for row in gram]}
            if point is not None:
                point = _solve_unitriangular(m, point)
        expect = {"code": 0, "solvable": True if point else None}
        if point is not None:
            expect["planted_point"] = [str(F(v)) for v in point]
        yield Op("conic", payload, f"{mode}-{shape}", expect)
        i += 1


GENERATORS = {"counterexample": gen_counterexample, "analyze": gen_analyze,
              "equivalence": gen_equivalence, "conic": gen_conic}

# A run ends on a whole cycle of its stream, so every run holds the same
# mix of input kinds.
CYCLE = {"counterexample": 1,
         "analyze": len(ANALYZE_CYCLE),
         "equivalence": 2 * len(EQUIVALENCE_CYCLE),
         "conic": math.lcm(len(CONIC_CYCLE), len(CONIC_DECADES))}


def payloads(workload: str, seed: int) -> Iterator[Op]:
    return GENERATORS[workload](seed)


def take(workload: str, seed: int, count: int) -> list[Op]:
    stream = payloads(workload, seed)
    return [next(stream) for _ in range(count)]
