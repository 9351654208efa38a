# tests/test_projline.py
import random
from fractions import Fraction

import pytest

from p1moduli.errors import DegenerateTriple, SingularMatrix, UnsupportedCyclotomy
from p1moduli.projline import (
    Mobius,
    ProjPoint,
    cross_ratio,
    mobius_from_triples,
    mobius_order_and_fixed,
    mobius_to_triple,
    one_point,
    supported_orders,
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
            old = mobius_to_triple(*q).compose(mobius_to_triple(*p).inverse())
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
# cross-ratio
# ---------------------------------------------------------

def test_cross_ratio_convention():
    lam = pt(F(7, 3))
    assert cross_ratio(pt(0), pt(1), INF, lam) == lam
    assert cross_ratio(pt(0), pt(1), INF, pt(1)) == pt(1)
    assert cross_ratio(pt(0), pt(1), INF, INF) == INF


def test_cross_ratio_mobius_invariant():
    # invariance under simultaneous Mobius action, many random samples
    rng = random.Random(424242)
    t = multiquadratic_tower([2])
    base = [zero_point(t), one_point(t), ProjPoint.infinity(t)]
    for _ in range(120):
        lam = t.element([F(rng.randint(-20, 20), rng.randint(1, 5)),
                         F(rng.randint(-20, 20), rng.randint(1, 5))])
        z = ProjPoint.finite(lam)
        if z in base:
            continue
        m = random_mobius(t, rng)
        moved = [m(p) for p in base + [z]]
        assert cross_ratio(*moved) == ProjPoint.finite(lam)


# ---------------------------------------------------------
# orders and fixed points
# ---------------------------------------------------------

def test_supported_orders_default():
    assert supported_orders() == [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 17, 20, 24]


def test_identity_order():
    res = mobius_order_and_fixed(Mobius.identity(Q))
    assert res.order == 1
    assert res.fixed == ()


def test_negation_order_two():
    res = mobius_order_and_fixed(Mobius.from_rationals(Q, -1, 0, 0, 1))
    assert res.order == 2
    assert set(res.fixed) == {zero_point(Q), ProjPoint.infinity(Q)}
    assert not res.extended


def test_lambda_over_z_order_two_extends():
    m = Mobius.from_rationals(Q, 0, 7, 1, 0)
    res = mobius_order_and_fixed(m)
    assert res.order == 2
    assert res.extended
    assert res.tower.rational_radicands() == [F(7)]
    root7 = res.tower.root(0)
    assert set(res.fixed) == {ProjPoint.finite(root7), ProjPoint.finite(-root7)}
    big = m.embed(res.tower)
    for p in res.fixed:
        assert big(p) == p


def test_shift_is_parabolic():
    res = mobius_order_and_fixed(Mobius.from_rationals(Q, 1, 1, 0, 1))
    assert res.order is None
    assert res.fixed == (ProjPoint.infinity(Q),)


def test_scaling_by_two_infinite_order():
    res = mobius_order_and_fixed(Mobius.from_rationals(Q, 2, 0, 0, 1))
    assert res.order is None
    assert set(res.fixed) == {zero_point(Q), ProjPoint.infinity(Q)}


def test_affine_involution_fixed_point():
    # z -> 5 - z fixes 5/2, not -5/2
    res = mobius_order_and_fixed(Mobius.from_rationals(Q, -1, 5, 0, 1))
    assert res.order == 2
    half = ProjPoint.finite(Q.from_rational(Fraction(5, 2)))
    assert set(res.fixed) == {half, ProjPoint.infinity(Q)}


def test_small_rotation_orders():
    cases = [
        (Mobius.from_rationals(Q, 0, -1, 1, -1), 3),
        (Mobius.from_rationals(Q, 1, -1, 1, 1), 4),
        (Mobius.from_rationals(Q, 2, -1, 1, 1), 6),
    ]
    for m, expected in cases:
        res = mobius_order_and_fixed(m)
        assert res.order == expected
        assert (m ** expected).is_identity()
        for k in range(1, expected):
            assert not (m ** k).is_identity()


def test_order_five_needs_sqrt5():
    t = multiquadratic_tower([5])
    s = t.element([F(-1, 2), F(1, 2)])  # 2 cos(2 pi / 5)
    tau = s + 2
    m = Mobius(t.zero(), -tau, t.one(), tau)
    res = mobius_order_and_fixed(m)
    assert res.order == 5
    assert (m ** 5).is_identity()


def test_order_of_inverse_and_conjugate():
    rng = random.Random(99)
    m = Mobius.from_rationals(Q, 2, -1, 1, 1)  # order 6
    assert mobius_order_and_fixed(m.inverse()).order == 6
    for _ in range(5):
        g = random_mobius(Q, rng)
        conj = g.compose(m).compose(g.inverse())
        assert mobius_order_and_fixed(conj).order == 6


def test_unsupported_order_32_raises():
    t = multiquadratic_tower([2])
    t = tower_extend(t, t.element([2, 1])).tower
    r = t.element([2, 0, 1, 0])  # 2 + sqrt(2 + sqrt 2)
    t = tower_extend(t, r).tower
    s = t.root(2)  # 2 cos(2 pi / 32)
    tau = s + 2
    m = Mobius(t.zero(), -tau, t.one(), tau)
    with pytest.raises(UnsupportedCyclotomy):
        mobius_order_and_fixed(m)


def test_order_32_allowed_with_larger_bound():
    t = multiquadratic_tower([2])
    t = tower_extend(t, t.element([2, 1])).tower
    r = t.element([2, 0, 1, 0])
    t = tower_extend(t, r).tower
    s = t.root(2)
    tau = s + 2
    m = Mobius(t.zero(), -tau, t.one(), tau)
    res = mobius_order_and_fixed(m, max_order=32)
    assert res.order == 32
