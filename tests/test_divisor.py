# tests/test_divisor.py
import functools
import importlib
import random
from fractions import Fraction

import pytest

from p1moduli.construct import CounterexampleSpec, gen_counterexample
from p1moduli.divisor import (
    AutGroup,
    Divisor,
    _matches,
    _reduce,
    compute_aut,
    conjugate_divisor,
    pgl2_equivalent,
)
from p1moduli.decide import decide, verify_certificate
from p1moduli.errors import DegreeTooSmall, InternalInconsistency
from p1moduli.moduli import field_of_moduli
from p1moduli.projline import Mobius, ProjPoint, mobius_from_triples
from p1moduli.qfield import FieldElem, FieldTower, galois_group, \
    multiquadratic_tower, tower_extend

F = Fraction
Q = FieldTower.rationals()


def pt(v, tower=Q):
    return ProjPoint.finite(tower.from_rational(F(v)))


def inf(tower=Q):
    return ProjPoint.infinity(tower)


def rational_divisor(values, with_inf=False, tower=Q):
    pts = [pt(v, tower) for v in values]
    if with_inf:
        pts.append(inf(tower))
    return Divisor(pts)


def random_rational_divisor(rng, degree, tower=Q):
    vals = set()
    while len(vals) < degree:
        vals.add(F(rng.randint(-40, 40), rng.randint(1, 7)))
    return rational_divisor(sorted(vals), tower=tower)


def random_mobius(rng, tower=Q):
    from p1moduli.errors import SingularMatrix
    while True:
        try:
            return Mobius.from_rationals(tower, *(rng.randint(-6, 6)
                                                  for _ in range(4)))
        except SingularMatrix:
            continue


# ---------------------------------------------------------
# divisor basics
# ---------------------------------------------------------

def test_divisor_rejects_duplicates():
    with pytest.raises(ValueError):
        Divisor([pt(1), pt(1), pt(2)])


def test_divisor_canonical_order_and_equality():
    d1 = rational_divisor([3, 1, 2])
    d2 = rational_divisor([2, 3, 1])
    assert d1 == d2
    assert hash(d1) == hash(d2)
    assert d1.degree == 3


def test_degree_too_small():
    with pytest.raises(DegreeTooSmall):
        compute_aut(rational_divisor([0, 1]))


# ---------------------------------------------------------
# stabilizers
# ---------------------------------------------------------

def contains_klein(g):
    """Whether the group has two distinct commuting involutions, that is
    a Klein four-subgroup."""
    invs = [i for i in range(g.order) if g.orders[i] == 2]
    return any(g.table[a][b] == g.table[b][a]
               for a in invs for b in invs if a < b)


def test_harmonic_quadruple_aut():
    # {0, inf, 1, -1} is harmonic: full stabilizer is dihedral of order 8
    # and contains the Klein subgroup {id, -x, 1/x, -1/x}
    d = rational_divisor([0, 1, -1], with_inf=True)
    g = compute_aut(d)
    assert g.order == 8
    assert g.tag.label() == "dihedral(4)"
    assert contains_klein(g)
    for m in (Mobius.from_rationals(Q, -1, 0, 0, 1),
              Mobius.from_rationals(Q, 0, 1, 1, 0),
              Mobius.from_rationals(Q, 0, -1, 1, 0)):
        assert m in g


def test_six_point_normal_form_aut():
    # {0, inf, 1, -1, lam, -lam} carries x -> -x and x -> lam/x
    lam = F(5, 3)
    d = rational_divisor([0, 1, -1, lam, -lam], with_inf=True)
    g = compute_aut(d)
    assert Mobius.from_rationals(Q, -1, 0, 0, 1) in g
    assert Mobius.from_rationals(Q, 0, lam, 1, 0) in g
    assert g.order % 4 == 0


def test_random_five_points_trivial():
    rng = random.Random(202608)
    d = random_rational_divisor(rng, 5)
    g = compute_aut(d)
    # overwhelmingly trivial; regenerate once on a freak collision
    if g.order != 1:
        d = random_rational_divisor(rng, 5)
        g = compute_aut(d)
    assert g.order == 1
    assert g.tag.label() == "trivial"


def test_cyclic_even_flag():
    # {1, i, -1, -i} = 4th roots of unity: stabilized by x -> ix (order 4)
    t = multiquadratic_tower([-1])
    i = t.root(0)
    d = Divisor([ProjPoint.finite(v) for v in
                 (t.one(), i, -t.one(), -i)])
    g = compute_aut(d)
    rot = Mobius(i, t.zero(), t.zero(), t.one())
    assert rot in g
    assert g.order == 8  # dihedral: x -> 1/x also stabilizes
    assert g.tag.label() == "dihedral(4)"
    assert not g.is_cyclic_even()


def test_cyclic_group_detected():
    # three free orbits of x -> ix; any reflection x -> c/x would need
    # c ~ z_j * z_k with matching absolute values, and 2+i, 5, 3 rule
    # every pairing out
    t = multiquadratic_tower([-1])
    i = t.root(0)
    pts = []
    for z in (t.element([2, 1]), t.from_rational(5), t.from_rational(3)):
        pts += [z, i * z, -z, -i * z]
    d = Divisor([ProjPoint.finite(v) for v in pts])
    g = compute_aut(d)
    assert g.tag.label() == "cyclic(4)"
    assert g.is_cyclic_even()
    gen = g.generator()
    assert g.orders[g.index_of(gen)] == 4


def test_aut_conjugation_equivariance():
    rng = random.Random(77)
    d = rational_divisor([0, 1, -1], with_inf=True)
    g = compute_aut(d)
    for _ in range(5):
        m = random_mobius(rng)
        moved = d.apply(m)
        gm = compute_aut(moved)
        assert gm.order == g.order
        lhs = {m.compose(e).compose(m.inverse()) for e in g.elements}
        assert lhs == set(gm.elements)


def test_aut_size_bound_and_permutation():
    rng = random.Random(31)
    for deg in (4, 5, 6):
        d = random_rational_divisor(rng, deg)
        g = compute_aut(d)
        assert g.order <= deg * (deg - 1) * (deg - 2)
        for e in g.elements:
            assert d.apply(e) == d


def test_degree4_always_contains_klein():
    # any 4 distinct points admit the Klein four-group of double transpositions
    rng = random.Random(160814)
    for _ in range(100):
        d = random_rational_divisor(rng, 4)
        g = compute_aut(d)
        assert g.order % 4 == 0
        assert contains_klein(g)


# ---------------------------------------------------------
# equivalence
# ---------------------------------------------------------

def test_equivalent_to_itself():
    d = rational_divisor([0, 1, 2], with_inf=True)
    m = pgl2_equivalent(d, d)
    assert m is not None
    assert d.apply(m) == d


def test_equivalent_under_inversion():
    d1 = rational_divisor([0, 1, 2], with_inf=True)
    half = Mobius.from_rationals(Q, 0, 1, 1, 0)  # x -> 1/x
    d2 = d1.apply(half)
    m = pgl2_equivalent(d1, d2)
    assert m is not None
    assert d1.apply(m) == d2


def test_inequivalent_quadruples():
    d1 = rational_divisor([0, 1, 2], with_inf=True)
    d2 = rational_divisor([0, 1, 3], with_inf=True)
    assert pgl2_equivalent(d1, d2) is None


def test_equivalence_relation_properties():
    rng = random.Random(4321)
    d = random_rational_divisor(rng, 5)
    m1 = random_mobius(rng)
    m2 = random_mobius(rng)
    e1 = d.apply(m1)
    e2 = e1.apply(m2)
    w12 = pgl2_equivalent(d, e1)
    w23 = pgl2_equivalent(e1, e2)
    assert w12 is not None and w23 is not None
    # symmetry: invert the witness
    assert e1.apply(w12.inverse()) == d
    # transitivity: compose witnesses
    assert d.apply(w23.compose(w12)) == e2


def test_different_degrees_not_equivalent():
    d1 = rational_divisor([0, 1, 2])
    d2 = rational_divisor([0, 1, 2, 3])
    assert pgl2_equivalent(d1, d2) is None


def test_small_degrees_always_equivalent():
    # PGL2 is sharply 3-transitive, so one or two points go anywhere
    t = multiquadratic_tower([2])
    cases = [(rational_divisor([0]), rational_divisor([7])),
             (rational_divisor([5]), Divisor([inf()])),
             (rational_divisor([0, 1]), rational_divisor([2, 5])),
             (Divisor([pt(0), inf()]), rational_divisor([1, 0])),
             (Divisor([ProjPoint.finite(t.root(0)), inf(t)]),
              Divisor([ProjPoint.finite(-t.root(0)), pt(3, t)]))]
    for d1, d2 in cases:
        w = pgl2_equivalent(d1, d2)
        assert w is not None and d1.apply(w) == d2
    assert pgl2_equivalent(rational_divisor([0]),
                           rational_divisor([0, 1])) is None


# ---------------------------------------------------------
# Galois conjugation
# ---------------------------------------------------------

def test_conjugate_divisor_identity():
    t = multiquadratic_tower([2])
    g = galois_group(t)
    d = Divisor([ProjPoint.finite(t.root(0)), ProjPoint.finite(t.zero()),
                 ProjPoint.infinity(t)])
    assert conjugate_divisor(g.elements[0], d) == d


def test_conjugate_divisor_stable_set():
    t = multiquadratic_tower([2])
    g = galois_group(t)
    sigma = g.elements[1]  # sqrt2 -> -sqrt2
    r = t.root(0)
    d = Divisor([ProjPoint.finite(r), ProjPoint.finite(-r),
                 ProjPoint.finite(t.zero())])
    assert conjugate_divisor(sigma, d) == d


def test_conjugate_divisor_moves_points():
    t = multiquadratic_tower([2])
    g = galois_group(t)
    sigma = g.elements[1]
    r = t.root(0)
    d = Divisor([ProjPoint.finite(r), ProjPoint.finite(t.zero()),
                 ProjPoint.finite(t.one())])
    moved = conjugate_divisor(sigma, d)
    assert ProjPoint.finite(-r) in moved
    assert moved != d


# ---------------------------------------------------------
# orbits
# ---------------------------------------------------------

def orbit_structure(d, g):
    """The orbits of the group on the points of the divisor, listed by
    (size, first point). Each orbit must lie in the divisor, and a
    cyclic group acts freely outside at most two fixed points."""
    remaining = set(d.points)
    orbits = []
    while remaining:
        p = min(remaining, key=ProjPoint.sort_key)
        orbit = {m(p) for m in g.elements}
        assert orbit <= remaining
        remaining -= orbit
        orbits.append(sorted(orbit, key=ProjPoint.sort_key))
    sizes = [len(o) for o in orbits]
    if g.is_cyclic():
        assert sizes.count(1) <= 2 or g.order == 1
        assert set(sizes) <= {1, g.order}
    return sorted(orbits, key=lambda o: (len(o), o[0].sort_key()))


def aut_group(d, maps):
    """AutGroup of the given maps, each with its permutation of D found
    by imaging every point (``imaged_perm``), not by the Aut scan."""
    return AutGroup((m, imaged_perm(d.points, m, d.points)) for m in maps)


def test_orbit_structure_normal_form():
    lam = F(7, 2)
    d = rational_divisor([0, 1, -1, lam, -lam], with_inf=True)
    neg = Mobius.from_rationals(Q, -1, 0, 0, 1)
    g = aut_group(d, [Mobius.identity(Q), neg])
    orbits = orbit_structure(d, g)
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, 1, 2, 2]
    singletons = {o[0] for o in orbits if len(o) == 1}
    assert singletons == {pt(0), inf()}


def test_orbit_structure_trivial_group():
    d = rational_divisor([0, 1, 2, 3])
    g = aut_group(d, [Mobius.identity(Q)])
    orbits = orbit_structure(d, g)
    assert len(orbits) == 4
    assert all(len(o) == 1 for o in orbits)


def test_orbit_structure_free_action():
    # degree 8, no fixed point of x -> -x in the divisor
    d = rational_divisor([1, -1, 2, -2, 3, -3, 4, -4])
    neg = Mobius.from_rationals(Q, -1, 0, 0, 1)
    g = aut_group(d, [Mobius.identity(Q), neg])
    orbits = orbit_structure(d, g)
    assert [len(o) for o in orbits] == [2, 2, 2, 2]


def test_orbit_sizes_divide_group_order():
    d = rational_divisor([0, 1, -1], with_inf=True)
    g = compute_aut(d)
    orbits = orbit_structure(d, g)
    assert sum(len(o) for o in orbits) == d.degree
    for o in orbits:
        assert g.order % len(o) == 0


# ---------------------------------------------------------
# the triple table against the exhaustive searches it replaced
# ---------------------------------------------------------

def _mobius_key(m):
    return tuple(e.sort_key() for e in m.entries())


def oracle_aut(d):
    """Every map sending the base triple to some ordered triple of D
    that carries D into itself, in scan order."""
    pts = d.points
    found, seen = [], set()
    for q1 in pts:
        for q2 in pts:
            if q2 == q1:
                continue
            for q3 in pts:
                if q3 == q1 or q3 == q2:
                    continue
                m = mobius_from_triples(pts[0], pts[1], pts[2], q1, q2, q3)
                key = _mobius_key(m)
                if key not in seen and all(m(p) in d for p in pts):
                    seen.add(key)
                    found.append(m)
    return found


def oracle_equivalent(d1, d2):
    """The first map, in scan order of the triples of d2, with M(d1) = d2."""
    if d1.degree != d2.degree:
        return None
    base = d1.points[:3]
    for q1 in d2.points:
        for q2 in d2.points:
            if q2 == q1:
                continue
            for q3 in d2.points:
                if q3 == q1 or q3 == q2:
                    continue
                m = mobius_from_triples(*base, q1, q2, q3)
                if all(m(p) in d2 for p in d1.points):
                    return m
    return None


def random_tower_divisor(rng, tower, degree, with_inf=False):
    vals = set()
    while len(vals) < degree - with_inf:
        vals.add(tuple(F(rng.randint(-6, 6), rng.randint(1, 3))
                       for _ in range(tower.degree)))
    pts = [ProjPoint.finite(tower.element(list(v))) for v in sorted(vals)]
    if with_inf:
        pts.append(inf(tower))
    return Divisor(pts)


def sqrt2_six_c2():
    # three free orbits of z -> 2/z over Q(sqrt 2); Aut is C2
    t = multiquadratic_tower([2])
    r = t.root(0)
    vals = [r * 3, -r * 3, r / 3, -r / 3, t.one(), t.from_rational(2)]
    return Divisor([ProjPoint.finite(v) for v in vals])


def table_cases():
    rng = random.Random(20261018)
    levels = [Q, multiquadratic_tower([2]), multiquadratic_tower([2, 3]),
              multiquadratic_tower([-1, 2, 3])]
    cases = [rational_divisor([0, 1, -1], with_inf=True),
             rational_divisor([0, 1, -1, F(5, 3), F(-5, 3)], with_inf=True),
             sqrt2_six_c2()]
    for level, tower in enumerate(levels):
        for degree in (3, 4, 6) if level < 3 else (5,):
            cases.append(random_tower_divisor(rng, tower, degree,
                                              with_inf=degree % 2 == 0))
    return cases


@functools.lru_cache(maxsize=1)
def counterexample_divisor():
    data, _ = gen_counterexample(CounterexampleSpec(-1, -1, 8, seed=1))
    return data.divisor


def assert_table_matches_oracle(d):
    found = oracle_aut(d)
    assert d.aut.elements == aut_group(d, found).elements
    assert set(d.aut.elements) == set(found)
    for sigma in galois_group(d.tower).elements:
        moved = conjugate_divisor(sigma, d)
        hit = d.galois_witness(sigma)
        assert (hit and hit[0]) == oracle_equivalent(moved, d)


def test_table_aut_and_witnesses_match_oracle():
    for d in table_cases():
        assert_table_matches_oracle(d)


def test_table_on_counterexample_divisor():
    d = counterexample_divisor()
    assert d.tower.level == 3
    assert_table_matches_oracle(d)
    assert d.aut.order == 2
    # every sigma has a witness: the field of moduli is Q
    group = galois_group(d.tower)
    assert all(d.galois_witness(s) is not None for s in group.elements)


def test_degree_six_c2_table():
    d = sqrt2_six_c2()
    assert_table_matches_oracle(d)
    assert d.aut.tag.label() == "cyclic(2)"
    assert Mobius(d.tower.zero(), d.tower.from_rational(2), d.tower.one(),
                  d.tower.zero()) in d.aut


def kept_first_witness(d, e):
    """The first map from e onto d, found by a scan that reads d's points
    mod p as d's Aut scan reduced them."""
    d.aut
    hit = next(_matches(e.points, (0, 1, 2), d.points, [], d._mods), None)
    return hit and hit[0]


def test_table_witness_for_moved_and_foreign_divisors():
    rng = random.Random(618)
    for d in table_cases():
        m = Mobius(*(d.tower.element([F(rng.randint(-3, 3))
                                      for _ in range(d.tower.degree)])
                     for _ in range(2)),
                   d.tower.one(), d.tower.from_rational(7))
        moved = d.apply(m)
        w = kept_first_witness(d, moved)
        assert w == oracle_equivalent(moved, d) == pgl2_equivalent(moved, d)
        assert moved.apply(w) == d
        other = random_tower_divisor(rng, d.tower, d.degree)
        assert kept_first_witness(d, other) \
            == oracle_equivalent(other, d) == pgl2_equivalent(other, d)
        # one point more: its signature holds every cross-ratio of D, so
        # only the degree test refuses it
        bigger = Divisor(list(d.points) + [ProjPoint.finite(
            d.tower.from_rational(100 + max(abs(p.x.coords[0]) for p in d)))])
        assert pgl2_equivalent(bigger, d) is None


def test_pgl2_equivalent_matches_oracle():
    rng = random.Random(4242)
    for d in table_cases():
        for _ in range(2):
            m = random_mobius(rng, d.tower)
            e = d.apply(m)
            assert pgl2_equivalent(d, e) == oracle_equivalent(d, e)
            assert pgl2_equivalent(e, d) == oracle_equivalent(e, d)
        other = random_tower_divisor(rng, d.tower, d.degree)
        assert pgl2_equivalent(d, other) == oracle_equivalent(d, other)


def imaged_perm(src, m, pts):
    """perm[k] = the index in pts of m(src[k]), found by imaging every
    point."""
    where = {p: k for k, p in enumerate(pts)}
    return tuple(where[m(p)] for p in src)


def assert_perms_match_imaging(d, rng):
    pts = d.points
    # Aut: the full scan, with the permutation of each element
    base = (0, 1, 2)
    mods = []
    hits = list(_matches(pts, base, pts, mods, mods))
    assert {m for m, _ in hits} == set(d.aut.elements)
    for m, perm in hits:
        assert perm == imaged_perm(pts, m, pts)
    # Galois witnesses: today's maps, and pi with phi(sigma p_k) = p_pi(k)
    for sigma in galois_group(d.tower).elements:
        moved = conjugate_divisor(sigma, d)
        hit = d.galois_witness(sigma)
        assert (hit and hit[0]) == pgl2_equivalent(moved, d) \
            == oracle_equivalent(moved, d)
        if hit is not None:
            conj = [ProjPoint(sigma(p.x), sigma(p.y)) for p in pts]
            assert hit[1] == imaged_perm(conj, hit[0], pts)
    # pgl2_equivalent: every map from a planted image e back onto D
    e = d.apply(random_mobius(rng, d.tower))
    hits = list(_matches(e.points, base, pts, [], d._mods))
    assert len(hits) == d.aut.order
    assert hits[0][0] == pgl2_equivalent(e, d)
    for m, perm in hits:
        assert perm == imaged_perm(e.points, m, pts)


def test_permutations_read_from_cross_ratios_match_imaging():
    rng = random.Random(1515)
    cases = table_cases() + [counterexample_divisor()]
    assert {d.degree for d in cases} >= {3, 4, 5, 6, 8}
    for d in cases:
        assert_perms_match_imaging(d, rng)


def test_next_split_prime_when_the_first_fails():
    p0 = Q.split_prime(0)[0]
    # -1 is a non-residue mod the first prime of the sequence, so Q(i)
    # starts further down it
    gauss = multiquadratic_tower([-1])
    assert pow(p0 - 1, p0 >> 1, p0) == p0 - 1
    assert gauss.split_prime(0)[0] < p0
    rng = random.Random(1616)
    for tower in (Q, gauss):
        (p, _), (p1, _) = tower.split_prime(0), tower.split_prime(1)
        # the bracket [0, p] = -p maps to 0 mod p
        d = rational_divisor([0, p, 1, -1, F(1, 3), 5], tower=tower)
        assert d.aut.elements == aut_group(d, oracle_aut(d)).elements
        assert d._mods[0] is None and d._mods[1][0][0] == p1
        e = d.apply(random_mobius(rng, tower))
        assert pgl2_equivalent(e, d) == oracle_equivalent(e, d) is not None
        assert pgl2_equivalent(d, e) == oracle_equivalent(d, e) is not None
        # a source that fails at p while the target reduces there: a point
        # that meets another mod p (1 + p), or one with p in a denominator
        g = rational_divisor([0, 1, 2, 3, 4, 6], tower=tower)
        for v in (1 + p, F(1, p)):
            f = rational_divisor([0, 1, v, 2, 3], with_inf=True, tower=tower)
            src_mods, mods = [], []
            hit = next(_matches(f.points, (0, 1, 2), g.points, src_mods,
                                mods), None)
            assert (hit and hit[0]) == oracle_equivalent(f, g)
            assert src_mods[0] is None and src_mods[1][0][0] == p1
            assert mods[0] is not None and len(mods) == 2
            h = f.apply(random_mobius(rng, tower))
            assert pgl2_equivalent(f, h) == oracle_equivalent(f, h) \
                is not None
            assert pgl2_equivalent(h, f) == oracle_equivalent(h, f) \
                is not None


def test_a_miss_reads_no_bracket_of_the_target(monkeypatch):
    # every triple is decided mod p, on brackets formed from the residues
    # of the points, so a miss computes no exact bracket and no
    # mobius_from_triples of either divisor
    divisor_mod = importlib.import_module("p1moduli.divisor")
    projline_mod = importlib.import_module("p1moduli.projline")
    rng = random.Random(1717)
    t = multiquadratic_tower([-1, 2])
    d, other = (random_tower_divisor(rng, t, 8) for _ in range(2))
    assert oracle_equivalent(d, other) is None
    seen = []

    def recorded(module, name):
        f = getattr(module, name)

        def call(*args):
            seen.append(name)
            return f(*args)

        monkeypatch.setattr(module, name, call)

    recorded(projline_mod, "bracket")
    recorded(divisor_mod, "mobius_from_triples")
    assert pgl2_equivalent(d, other) is None
    assert seen == []
    # a hit builds its map, so both are watched
    assert pgl2_equivalent(d, d.apply(random_mobius(rng, t))) is not None
    assert {"bracket", "mobius_from_triples"} <= set(seen)


def test_reduce_inverts_every_bracket():
    # one modular inversion, prefix products and antisymmetry give the
    # same table as inverting each bracket on its own
    rng = random.Random(1919)
    towers = [Q, multiquadratic_tower([2]), multiquadratic_tower([-1, 2]),
              multiquadratic_tower([-1, 2, 3])]
    for tower in towers:
        for degree in range(4, 11):
            d = random_tower_divisor(rng, tower, degree,
                                     with_inf=degree % 2 == 1)
            (p, _), hbr, hinv = _reduce(d.points, tower.split_prime(0))
            assert hinv == [[v and pow(v, -1, p) for v in row]
                            for row in hbr]


def test_reduce_refuses_points_that_meet():
    p = Q.split_prime(0)[0]
    for with_inf in (False, True):
        d = rational_divisor([0, 1, -1, 5, p], with_inf=with_inf)
        assert _reduce(d.points, Q.split_prime(0)) is None
        assert _reduce(d.points, Q.split_prime(1)) is not None


def small_split_primes(start, stop):
    """Primes from start below stop, as split primes of Q."""
    return [(p, [1]) for p in range(start, stop)
            if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def test_false_mod_p_matches_are_refused_exactly(monkeypatch):
    # at small primes a triple can match every cross-ratio mod p without
    # matching exactly; imaging under its map must refuse it, so Aut and
    # the first witnesses still equal the exact oracles
    divisor_mod = importlib.import_module("p1moduli.divisor")
    primes = small_split_primes(11, 1000)
    monkeypatch.setattr(FieldTower, "split_prime",
                        lambda self, k=0: primes[k])
    certified, matched = [], []
    build, matches = divisor_mod.mobius_from_triples, divisor_mod._matches

    def counted_build(*args):
        certified.append(args)
        return build(*args)

    def counted_matches(*args):
        for hit in matches(*args):
            matched.append(hit)
            yield hit

    monkeypatch.setattr(divisor_mod, "mobius_from_triples", counted_build)
    monkeypatch.setattr(divisor_mod, "_matches", counted_matches)
    rng = random.Random(1818)
    for _ in range(40):
        d = random_rational_divisor(rng, rng.randint(4, 8))
        assert compute_aut(d).elements == aut_group(d, oracle_aut(d)).elements
        e = d.apply(random_mobius(rng))
        assert pgl2_equivalent(e, d) == oracle_equivalent(e, d) is not None
        other = random_rational_divisor(rng, d.degree)
        assert pgl2_equivalent(other, d) == oracle_equivalent(other, d)
    assert len(certified) > len(matched) > 0


def test_a_trivial_aut_scan_builds_no_map(monkeypatch):
    # the Aut scan certifies only full mod-p matches, and the base triple
    # matched to itself is the identity, so with trivial Aut it builds no
    # map from triples, where checking survivors of the first mod-p test
    # on exact bracket rows took 16 inversions
    divisor_mod = importlib.import_module("p1moduli.divisor")
    d = random_tower_divisor(random.Random(1819), multiquadratic_tower([2]),
                             8)
    assert len(oracle_aut(d)) == 1
    calls = {"maps": 0, "inverses": 0}
    build, inverse = divisor_mod.mobius_from_triples, FieldElem.inverse

    def counted_build(*args):
        calls["maps"] += 1
        return build(*args)

    def counted_inverse(self):
        calls["inverses"] += 1
        return inverse(self)

    monkeypatch.setattr(divisor_mod, "mobius_from_triples", counted_build)
    monkeypatch.setattr(FieldElem, "inverse", counted_inverse)
    assert d.aut.order == 1
    assert calls["maps"] == 0 and calls["inverses"] <= 2


def test_table_requires_three_points():
    with pytest.raises(DegreeTooSmall):
        rational_divisor([0, 1]).aut
    for entry in (compute_aut, field_of_moduli, decide):
        with pytest.raises(DegreeTooSmall):
            entry(rational_divisor([0, 1]))


def counted_aut_groups(monkeypatch) -> list:
    """The AutGroups built from here on, one entry each."""
    built, init = [], AutGroup.__init__

    def counted(self, pairs):
        built.append(self)
        init(self, pairs)

    monkeypatch.setattr(AutGroup, "__init__", counted)
    return built


def test_one_aut_scan_per_divisor_object(monkeypatch):
    built = counted_aut_groups(monkeypatch)
    d = sqrt2_six_c2()
    aut = compute_aut(d)
    assert field_of_moduli(d).aut is aut
    assert decide(d).aut is aut
    assert len(built) == 1
    # the scan is kept by the object, not by equal divisors
    again = Divisor(d.points)
    assert again == d and compute_aut(again) is not aut
    assert len(built) == 2


def test_one_aut_scan_per_counterexample_draw(monkeypatch):
    construct_mod = importlib.import_module("p1moduli.construct")
    build = construct_mod._build_divisor
    draws = []

    def counted_build(*args):
        built = build(*args)
        if built is not None:
            draws.append(built)
        return built

    monkeypatch.setattr(construct_mod, "_build_divisor", counted_build)
    auts = counted_aut_groups(monkeypatch)
    # seed 32 rejects its first draw (Aut not self-centralizing)
    for seed, want in ((1, 1), (32, 2)):
        draws.clear()
        auts.clear()
        gen_counterexample(CounterexampleSpec(-1, -1, 8, seed=seed))
        assert len(draws) == len(auts) == want


# ---------------------------------------------------------
# the multiplication table from permutations
# ---------------------------------------------------------

def octahedron():
    """The six vertices 0, oo, +-1, +-i of the octahedron over Q(i)."""
    t = multiquadratic_tower([-1])
    i = t.root(0)
    return Divisor([pt(0, t), inf(t), pt(1, t), pt(-1, t),
                    ProjPoint.finite(i), ProjPoint.finite(-i)])


def icosahedron():
    """Klein's twelve vertices 0, oo, z^k (z + z^4), z^k (z^2 + z^3) of
    the icosahedron, z a primitive fifth root of unity, over
    Q(sqrt 5)(sqrt((-5 - sqrt 5)/2)) = Q(z)."""
    t1 = multiquadratic_tower([5])
    t = tower_extend(t1, (-5 - t1.root(0)) / 2).tower
    w = (t.root(0) - 1) / 2  # z + 1/z
    z = (w + t.root(1)) / 2
    powers = [t.one()]
    for _ in range(4):
        powers.append(powers[-1] * z)
    assert powers[-1] * z == t.one() != z
    a, b = z + powers[4], powers[2] + powers[3]
    return Divisor([pt(0, t), inf(t)]
                   + [ProjPoint.finite(q * c) for q in powers for c in (a, b)])


@pytest.mark.parametrize("make, label", [(octahedron, "S4"),
                                         (icosahedron, "A5")])
def test_platonic_aut_groups(make, label):
    d = make()
    g = compute_aut(d)
    assert g.tag.label() == label
    assert g.perms == tuple(imaged_perm(d.points, m, d.points)
                            for m in g.elements)
    # the table read from permutations is the one composing maps gives
    assert g.table == [[g.index[a.compose(b)] for b in g.elements]
                       for a in g.elements]
    v = decide(d)
    assert v.certificate.rule == "noncyclic" and verify_certificate(d, v)


def test_aut_group_composes_no_map(monkeypatch):
    composed = []
    compose = Mobius.compose

    def counting(self, other):
        composed.append(other)
        return compose(self, other)

    for d in (octahedron(), icosahedron(), counterexample_divisor(),
              rational_divisor([0, 1, -1], with_inf=True)):
        pts, mods = d.points, []
        pairs = list(_matches(pts, (0, 1, 2), pts, mods, mods))
        monkeypatch.setattr(Mobius, "compose", counting)
        g = AutGroup(pairs)
        monkeypatch.undo()
        assert not composed and g.order == len(pairs) > 1


def test_aut_group_rejects_a_set_not_closed():
    d = octahedron()
    pts, mods = d.points, []
    pairs = list(_matches(pts, (0, 1, 2), pts, mods, mods))
    idn = [pr for pr in pairs if pr[0].is_identity()]
    rest = [pr for pr in pairs if not pr[0].is_identity()]
    with pytest.raises(InternalInconsistency, match="not closed"):
        AutGroup(idn + rest[1:])
    with pytest.raises(InternalInconsistency, match="identity once"):
        AutGroup(rest)
    # a wrong permutation beside a right map breaks closure as well
    m, perm = rest[0]
    with pytest.raises(InternalInconsistency, match="not closed"):
        AutGroup(idn + [(m, perm[1:] + perm[:1])] + rest[1:])
