# tests/test_projline.py
import random
from fractions import Fraction

import pytest

from p1moduli.errors import DegenerateTriple, SingularMatrix
from p1moduli.projline import (
    Mobius,
    ProjPoint,
    fixed_points,
    mobius_from_triples,
    one_point,
    zero_point,
)
from p1moduli.qfield import FieldTower, multiquadratic_tower, tower_extend

F = Fraction
Q = FieldTower.rationals()


def pt(value) -> ProjPoint:
    return ProjPoint.finite(Q.from_rational(F(value)))


INF = ProjPoint.infinity(Q)


def random_mobius(tower, rng):
    while True:
        entries = [tower.from_rational(F(rng.randint(-9, 9), rng.randint(1, 3)))
                   for _ in range(4)]
        try:
            return Mobius(*entries)
        except SingularMatrix:
            continue


# ---------------------------------------------------------
# points
# ---------------------------------------------------------

def test_point_normalization():
    two = Q.from_rational(2)
    six = Q.from_rational(6)
    assert ProjPoint(six, two) == pt(3)
    assert ProjPoint(two, Q.zero()) == INF
    with pytest.raises(ValueError):
        ProjPoint(Q.zero(), Q.zero())


def test_point_affine_accessors():
    assert pt(F(5, 2)).affine().as_fraction() == F(5, 2)
    assert INF.is_infinity()
    with pytest.raises(ValueError):
        INF.affine()


# ---------------------------------------------------------
# Mobius algebra
# ---------------------------------------------------------

def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrix):
        Mobius.from_rationals(Q, 1, 2, 2, 4)


def test_normalization_makes_equality_canonical():
    m1 = Mobius.from_rationals(Q, 2, 0, 0, 4)
    m2 = Mobius.from_rationals(Q, 1, 0, 0, 2)
    assert m1 == m2
    assert hash(m1) == hash(m2)


def test_negation_is_involution():
    neg = Mobius.from_rationals(Q, -1, 0, 0, 1)
    assert neg.compose(neg).is_identity()


def test_apply_handles_infinity():
    lam_over_z = Mobius.from_rationals(Q, 0, 7, 1, 0)
    assert lam_over_z(pt(0)) == INF
    assert lam_over_z(INF) == pt(0)
    shift = Mobius.from_rationals(Q, 1, 1, 0, 1)
    assert shift(INF) == INF
    assert shift(pt(4)) == pt(5)


def test_sends_agrees_with_apply_on_unnormalised_pairs():
    # sends compares (x : y) -> (u : v) without normalising either pair,
    # so scaled pairs and infinity on either side must agree with apply
    rng = random.Random(8080)
    t = multiquadratic_tower([2])
    r = t.root(0)
    for _ in range(20):
        m = random_mobius(t, rng)
        p = rng.choice([ProjPoint.finite(r + rng.randint(-5, 5)),
                        ProjPoint.infinity(t)])
        q, other = m(p), m(ProjPoint.finite(r * 3 + 7))  # other != q
        x, y, k = p.x * (r + 2), p.y * (r + 2), r - 5
        assert m.sends(x, y, q.x * k, q.y * k)
        assert not m.sends(x, y, other.x * k, other.y * k)


def test_inverse_of_shift():
    shift = Mobius.from_rationals(Q, 1, 1, 0, 1)
    inv = shift.inverse()
    assert inv(pt(0)) == pt(-1)
    assert shift.compose(inv).is_identity()
    assert inv.compose(shift).is_identity()


def test_inverse_random():
    rng = random.Random(5150)
    t = multiquadratic_tower([2])
    for _ in range(20):
        m = random_mobius(t, rng)
        assert m.compose(m.inverse()).is_identity()


def test_pow_and_matmul():
    m = Mobius.from_rationals(Q, 1, 1, 0, 1)
    assert (m ** 5)(pt(0)) == pt(5)
    assert m.compose(m) == m ** 2
    assert m ** -3 == (m ** 3).inverse()


# ---------------------------------------------------------
# triples
# ---------------------------------------------------------

def test_from_triples_identity():
    m = mobius_from_triples(pt(0), pt(1), INF, pt(0), pt(1), INF)
    assert m.is_identity()


def test_from_triples_reciprocal():
    m = mobius_from_triples(pt(0), pt(1), INF, INF, pt(1), pt(0))
    # x -> 1/x
    assert m(pt(2)) == pt(F(1, 2))
    assert m(pt(0)) == INF
    assert m(INF) == pt(0)


def test_from_triples_negation():
    m = mobius_from_triples(pt(0), pt(1), INF, pt(0), pt(-1), INF)
    assert m(pt(3)) == pt(-3)
    assert m(INF) == INF


def test_from_triples_hits_defining_points_random():
    rng = random.Random(8)
    t = multiquadratic_tower([3])
    for _ in range(25):
        pts = []
        while len(pts) < 6:
            cand = ProjPoint.finite(t.element([F(rng.randint(-8, 8)),
                                               F(rng.randint(-8, 8))]))
            if cand not in pts[:3] if len(pts) < 3 else cand not in pts[3:]:
                pts.append(cand)
        p1, p2, p3, q1, q2, q3 = pts
        m = mobius_from_triples(p1, p2, p3, q1, q2, q3)
        assert m(p1) == q1 and m(p2) == q2 and m(p3) == q3


def test_from_triples_rejects_repeats():
    with pytest.raises(DegenerateTriple):
        mobius_from_triples(pt(0), pt(0), INF, pt(0), pt(1), INF)
    with pytest.raises(DegenerateTriple):
        mobius_from_triples(pt(0), pt(1), INF, pt(2), INF, INF)


def distinct_tower_points(rng, tower, k):
    pts = []
    while len(pts) < k:
        cand = ProjPoint.finite(tower.element(
            [F(rng.randint(-8, 8), rng.randint(1, 3))
             for _ in range(tower.degree)]))
        if cand not in pts:
            pts.append(cand)
    return pts


def test_from_triples_equals_the_composition():
    rng = random.Random(1717)
    for t in (Q, multiquadratic_tower([3]), multiquadratic_tower([-1, 2, 3])):
        for _ in range(10):
            p, q = (distinct_tower_points(rng, t, 3) for _ in range(2))
            if rng.random() < 0.3:
                p[rng.randrange(3)] = ProjPoint.infinity(t)
            std = (zero_point(t), one_point(t), ProjPoint.infinity(t))
            old = mobius_from_triples(*std, *q).compose(
                mobius_from_triples(*std, *p).inverse())
            assert mobius_from_triples(*p, *q) == old


def test_from_triples_builds_one_map(monkeypatch):
    built = []
    init = Mobius.__init__

    def counted(self, *entries):
        built.append(entries)
        init(self, *entries)

    monkeypatch.setattr(Mobius, "__init__", counted)
    rng = random.Random(17)
    t = multiquadratic_tower([-1, 2])
    for _ in range(5):
        built.clear()
        mobius_from_triples(*distinct_tower_points(rng, t, 6))
        assert len(built) == 1


@pytest.mark.parametrize("repeat", [(0, 1), (0, 2), (1, 2)])
def test_degenerate_triple_in_either_position_raises(monkeypatch, repeat):
    good = [pt(0), pt(1), INF]
    bad = list(good)
    bad[repeat[1]] = bad[repeat[0]]
    monkeypatch.setattr(Mobius, "__init__", None)  # no map may be built
    for args in (bad + good, good + bad):
        with pytest.raises(DegenerateTriple):
            mobius_from_triples(*args)


# ---------------------------------------------------------
# fixed points
# ---------------------------------------------------------

def test_fixed_points_of_identity_raise():
    with pytest.raises(ValueError):
        fixed_points(Mobius.identity(Q))


def test_negation_fixes_zero_and_infinity():
    points, tower = fixed_points(Mobius.from_rationals(Q, -1, 0, 0, 1))
    assert set(points) == {zero_point(Q), ProjPoint.infinity(Q)}
    assert tower == Q


def test_lambda_over_z_fixed_points_extend():
    m = Mobius.from_rationals(Q, 0, 7, 1, 0)
    points, tower = fixed_points(m)
    assert tower.rational_radicands() == [F(7)]
    root7 = tower.root(0)
    assert set(points) == {ProjPoint.finite(root7), ProjPoint.finite(-root7)}
    big = m.embed(tower)
    for p in points:
        assert big(p) == p


def test_shift_is_parabolic():
    points, tower = fixed_points(Mobius.from_rationals(Q, 1, 1, 0, 1))
    assert points == (ProjPoint.infinity(Q),)
    assert tower == Q


def test_scaling_by_two_fixes_zero_and_infinity():
    points, tower = fixed_points(Mobius.from_rationals(Q, 2, 0, 0, 1))
    assert set(points) == {zero_point(Q), ProjPoint.infinity(Q)}
    assert tower == Q


def test_affine_involution_fixed_point():
    # z -> 5 - z fixes 5/2, not -5/2
    points, _ = fixed_points(Mobius.from_rationals(Q, -1, 5, 0, 1))
    half = ProjPoint.finite(Q.from_rational(Fraction(5, 2)))
    assert set(points) == {half, ProjPoint.infinity(Q)}


def test_small_rotation_orders():
    cases = [
        (Mobius.from_rationals(Q, 0, -1, 1, -1), 3),
        (Mobius.from_rationals(Q, 1, -1, 1, 1), 4),
        (Mobius.from_rationals(Q, 2, -1, 1, 1), 6),
    ]
    for m, expected in cases:
        assert (m ** expected).is_identity()
        for k in range(1, expected):
            assert not (m ** k).is_identity()
        # an elliptic map over Q has two conjugate fixed points off Q
        points, tower = fixed_points(m)
        assert len(points) == 2 and tower != Q
        big = m.embed(tower)
        for p in points:
            assert big(p) == p


def test_order_five_needs_sqrt5():
    # z -> -tau / (z + tau), tau = 2 + 2 cos(2 pi / 5), has order 5 and
    # its entries need sqrt 5
    t = multiquadratic_tower([5])
    s = t.element([F(-1, 2), F(1, 2)])  # 2 cos(2 pi / 5)
    tau = s + 2
    m = Mobius(t.zero(), -tau, t.one(), tau)
    assert (m ** 5).is_identity()
    for k in range(1, 5):
        assert not (m ** k).is_identity()
    points, tower = fixed_points(m)
    assert len(points) == 2
    big = m.embed(tower)
    for p in points:
        assert big(p) == p


def rotations():
    """Maps of orders 3, 4 and 6 over Q, and of order 5 over Q(sqrt 5)."""
    t = multiquadratic_tower([5])
    tau = t.element([F(-1, 2), F(1, 2)]) + 2  # 2 + 2 cos(2 pi / 5)
    order_five = Mobius(t.zero(), -tau, t.one(), tau)
    assert (order_five ** 5).is_identity()
    return [Mobius.from_rationals(Q, 0, -1, 1, -1),
            Mobius.from_rationals(Q, 1, -1, 1, 1),
            Mobius.from_rationals(Q, 2, -1, 1, 1),
            order_five]


def random_tower_mobius(tower, rng):
    def entry():
        return tower.element([F(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(tower.degree)])
    while True:
        try:
            return Mobius(entry(), entry(), entry(), entry())
        except SingularMatrix:
            continue


def test_fixed_points_are_fixed_in_the_returned_tower():
    # random maps, and conjugates of a shift (one fixed point) and of a
    # scaling (two fixed points in the map's tower), over towers of
    # level 0-2
    rng = random.Random(2323)
    r2 = multiquadratic_tower([2])
    towers = [Q, r2, multiquadratic_tower([-1, 3]),
              tower_extend(r2, r2.root(0) + 1).tower]
    maps = rotations()
    for t in towers:
        shift = Mobius.from_rationals(t, 1, 1, 0, 1)
        for _ in range(6):
            g = random_tower_mobius(t, rng)
            scale = Mobius.from_rationals(t, rng.choice([-3, -1, 2, 5]), 0, 0, 1)
            maps += [random_tower_mobius(t, rng),
                     g.compose(shift).compose(g.inverse()),
                     g.compose(scale).compose(g.inverse())]
    counts = {1: 0, 2: 0, "extended": 0}
    for m in maps:
        points, tower = fixed_points(m)
        a, b, c, d = m.entries()
        disc = (a - d) * (a - d) + 4 * b * c
        assert len(points) == (1 if disc.is_zero() else 2)
        assert (tower != m.tower) == (disc.sqrt() is None)
        big = m.embed(tower)
        for p in points:
            assert p.tower == tower and big(p) == p
        assert len(set(points)) == len(points)
        counts[len(points)] += 1
        counts["extended"] += tower != m.tower
    # every branch is reached
    assert counts[1] and counts[2] and counts["extended"]
