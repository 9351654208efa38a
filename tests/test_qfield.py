# tests/test_qfield.py
import random
from fractions import Fraction

import pytest

from p1moduli.errors import NotGalois, NoInverse, ZeroRadicand
from p1moduli.qfield import (
    FieldTower,
    fixed_subtower,
    galois_group,
    multiquadratic_tower,
    sign_real,
    tower_extend,
)

F = Fraction


def random_element(tower, rng, height=9):
    return tower.element([F(rng.randint(-height, height),
                            rng.randint(1, 4)) for _ in range(tower.degree)])


def random_tower(rng, level):
    t = FieldTower.rationals()
    for _ in range(level):
        while True:
            x = random_element(t, rng, height=5)
            # candidate radicand must be a non-square to actually extend
            if not x.is_zero() and x.sqrt() is None:
                t = tower_extend(t, x).tower
                break
    return t


# ---------------------------------------------------------
# tower construction
# ---------------------------------------------------------

def test_extend_by_square_is_noop():
    q = FieldTower.rationals()
    res = tower_extend(q, F(9, 4))
    assert not res.extended
    assert res.tower is q
    assert res.existing_sqrt.as_fraction() == F(3, 2)


def test_extend_normalizes_to_squarefree():
    q = FieldTower.rationals()
    t = tower_extend(q, F(8)).tower
    assert t.rad_coords == ((F(2),),)
    t2 = tower_extend(q, F(-4, 9)).tower
    assert t2.rad_coords == ((F(-1),),)


def test_extend_zero_radicand_rejected():
    with pytest.raises(ZeroRadicand):
        tower_extend(FieldTower.rationals(), 0)


def test_nested_extension_keeps_irrational_radicand():
    t = multiquadratic_tower([2])
    r2 = t.root(0)
    res = tower_extend(t, r2)  # Q(sqrt(sqrt 2)), not multiquadratic
    assert res.extended
    assert res.tower.level == 2
    assert not res.tower.is_multiquadratic()
    x = res.tower.root(1)
    assert x * x == res.tower.embed(r2)


def test_multiquadratic_drops_square_radicands():
    t = multiquadratic_tower([2, 3, 6])  # sqrt 6 = sqrt 2 * sqrt 3 already there
    assert t.level == 2
    assert t.rational_radicands() == [F(2), F(3)]


# ---------------------------------------------------------
# field axioms on random elements
# ---------------------------------------------------------

def test_field_axioms_random():
    rng = random.Random(20260814)
    for level in (1, 2, 3):
        t = random_tower(rng, level)
        for _ in range(12):
            a = random_element(t, rng)
            b = random_element(t, rng)
            c = random_element(t, rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + t.zero() == a
            assert a * t.one() == a


def test_inverse_random():
    rng = random.Random(7)
    t = random_tower(rng, 3)
    for _ in range(25):
        a = random_element(t, rng)
        if a.is_zero():
            continue
        assert a * a.inverse() == t.one()
        assert (t.one() / a) * a == t.one()


def test_zero_has_no_inverse():
    for t in KERNEL_TOWERS:
        with pytest.raises(NoInverse):
            t.zero().inverse()
        with pytest.raises(NoInverse):
            t.one() / t.zero()


def test_root_squares_to_radicand():
    rng = random.Random(99)
    for level in (1, 2, 3, 4):
        t = random_tower(rng, min(level, 3)) if level <= 3 else multiquadratic_tower([2, 3, 5, 7])
        for step in range(t.level):
            r = t.root(step)
            assert r * r == t.radicand(step)


def test_pow_matches_repeated_mul():
    t = multiquadratic_tower([2, 5])
    x = t.element([1, 2, 0, F(1, 3)])
    assert x ** 0 == t.one()
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()


# ---------------------------------------------------------
# square roots
# ---------------------------------------------------------

def test_sqrt_of_squares_random():
    rng = random.Random(314)
    for level in (1, 2, 3):
        t = random_tower(rng, level)
        for _ in range(15):
            a = random_element(t, rng)
            s = (a * a).sqrt()
            assert s is not None
            assert s * s == a * a


def test_sqrt_canonical_sign_real_tower():
    t = multiquadratic_tower([2, 3])
    x = t.element([-1, 1, 0, 0])  # sqrt2 - 1 > 0
    s = (x * x).sqrt()
    assert s == x
    assert sign_real(s) > 0


def test_sqrt_canonical_sign_imaginary_tower():
    t = multiquadratic_tower([-1])
    i = t.root(0)
    s = (-t.one() * 4).sqrt()
    assert s == 2 * i  # first nonzero coordinate positive


def test_sqrt_nonsquare_returns_none():
    t = multiquadratic_tower([2])
    assert t.from_rational(3).sqrt() is None
    assert t.root(0).sqrt() is None  # 2^(1/4) is not in Q(sqrt 2)
    assert (-t.one()).sqrt() is None


def test_sqrt_detects_product_of_radicands():
    t = multiquadratic_tower([2, 3])
    six = t.from_rational(6)
    s = six.sqrt()
    assert s is not None and s * s == six
    assert s == t.root(0) * t.root(1)


def test_sign_real_exact_near_tie():
    # 99/70 is a convergent of sqrt 2: 99^2 - 2*70^2 = 1
    t = multiquadratic_tower([2])
    x = t.element([F(-99, 70), 1])
    assert sign_real(x) < 0
    y = t.element([F(-140, 99), 1])
    assert sign_real(y) > 0


# ---------------------------------------------------------
# Galois groups
# ---------------------------------------------------------

def test_galois_group_multiquadratic():
    t = multiquadratic_tower([2, 3, 5])
    g = galois_group(t)
    assert g.order == 8
    assert g.is_elementary_abelian_2()
    # each automorphism flips a subset of the roots
    seen = set()
    for a in g.elements:
        pattern = tuple(a.images[i] == t.root(i) for i in range(3))
        seen.add(pattern)
    assert len(seen) == 8


def test_galois_group_identity_first():
    t = multiquadratic_tower([-1, 5])
    g = galois_group(t)
    assert g.elements[0].is_identity()
    assert g.table[0] == list(range(g.order))


def test_galois_aut_is_field_hom():
    rng = random.Random(41)
    t = multiquadratic_tower([2, -3])
    g = galois_group(t)
    for a in g.elements:
        for _ in range(6):
            x = random_element(t, rng)
            y = random_element(t, rng)
            assert a(x + y) == a(x) + a(y)
            assert a(x * y) == a(x) * a(y)
        assert a(t.from_rational(F(7, 3))) == t.from_rational(F(7, 3))


def test_galois_table_consistent():
    t = multiquadratic_tower([2, 7])
    g = galois_group(t)
    for i, a in enumerate(g.elements):
        for j, b in enumerate(g.elements):
            k = g.table[i][j]
            x = t.element([1, 2, 3, 4])
            assert g.elements[k](x) == a(b(x))
        assert g.table[i][g.inverses[i]] == 0


def test_galois_group_non_normal_tower():
    # Q(2^(1/4)) is not Galois: the conjugate -sqrt(2) has no square root
    t = multiquadratic_tower([2])
    t = tower_extend(t, t.root(0)).tower
    with pytest.raises(NotGalois) as exc:
        galois_group(t)
    assert exc.value.step == 1


def test_galois_group_cyclic_degree4():
    # Q(sqrt(2+sqrt2)) / Q is cyclic of order 4
    t = multiquadratic_tower([2])
    rad = t.element([2, 1])
    t2 = tower_extend(t, rad).tower
    g = galois_group(t2)
    assert g.order == 4
    assert not g.is_elementary_abelian_2()
    orders = sorted(_element_order(g, i) for i in range(4))
    assert orders == [1, 2, 4, 4]


def _element_order(g, i):
    k, n = i, 1
    while k != 0:
        k = g.table[k][i]
        n += 1
    return n


# ---------------------------------------------------------
# fixed subfields
# ---------------------------------------------------------

def test_fixed_subtower_full_group_is_rationals():
    t = multiquadratic_tower([2, 3])
    g = galois_group(t)
    pres = fixed_subtower(g, range(g.order))
    assert pres.tower.level == 0
    assert pres.restrict(t.from_rational(5)).as_fraction() == 5
    with pytest.raises(ValueError):
        pres.restrict(t.root(0))


def test_fixed_subtower_trivial_group_is_everything():
    t = multiquadratic_tower([2, 3])
    g = galois_group(t)
    pres = fixed_subtower(g, [0])
    assert pres.tower == t
    x = t.element([1, 2, 3, 4])
    assert pres.embed(pres.restrict(x)) == x


def test_fixed_subtower_index_two():
    t = multiquadratic_tower([2, 3])
    g = galois_group(t)
    # subgroup fixing sqrt 2: pick the automorphism with root0 -> root0, root1 -> -root1
    sigma = next(a for a in g.elements
                 if a.images[0] == t.root(0) and a.images[1] == -t.root(1))
    pres = fixed_subtower(g, [sigma.index])
    assert pres.tower.level == 1
    assert pres.tower.rational_radicands() == [F(2)]
    r2 = pres.embed(pres.tower.root(0))
    assert r2 * r2 == t.from_rational(2)
    # restrict of fixed elements round-trips
    x = t.from_rational(3) + 5 * r2
    assert pres.embed(pres.restrict(x)) == x


def test_fixed_subtower_diagonal_subgroup():
    # the subgroup flipping both roots fixes Q(sqrt 6) inside Q(sqrt2, sqrt3)
    t = multiquadratic_tower([2, 3])
    g = galois_group(t)
    sigma = next(a for a in g.elements
                 if a.images[0] == -t.root(0) and a.images[1] == -t.root(1))
    pres = fixed_subtower(g, [sigma.index])
    assert pres.tower.level == 1
    d = pres.tower.rational_radicands()[0]
    assert d == 6
    img = pres.embed(pres.tower.root(0))
    assert img * img == t.from_rational(6)


def test_fixed_subtower_random_rounds():
    rng = random.Random(1234)
    t = multiquadratic_tower([2, 5, -1])
    g = galois_group(t)
    for _ in range(6):
        gens = [rng.randrange(g.order) for _ in range(2)]
        sub = g.subgroup_closure(gens)
        pres = fixed_subtower(g, sub)
        assert pres.tower.degree * len(sub) == t.degree
        # embedded subtower elements are fixed by the subgroup
        x = random_element(pres.tower, rng, height=4)
        emb = pres.embed(x)
        for i in sub:
            assert g.elements[i](emb) == emb
        assert pres.restrict(emb) == x
        # arithmetic is preserved through the embedding
        y = random_element(pres.tower, rng, height=4)
        assert pres.embed(x * y) == pres.embed(x) * pres.embed(y)
        assert pres.embed(x + y) == pres.embed(x) + pres.embed(y)


def test_fixed_subtower_in_cyclic_quartic():
    t = multiquadratic_tower([2])
    t2 = tower_extend(t, t.element([2, 1])).tower
    g = galois_group(t2)
    gen = next(i for i in range(4) if _element_order(g, i) == 4)
    sq = g.table[gen][gen]
    pres = fixed_subtower(g, [sq])
    assert pres.tower.level == 1
    assert pres.tower.rational_radicands() == [F(2)]


# ---------------------------------------------------------
# int kernel against a Fraction oracle
# ---------------------------------------------------------

def _ref_mul(a, b, rads):
    """Product of Fraction coordinate vectors, recursing on the top root."""
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    h = n // 2
    sub, rho = rads[:-1], rads[-1]
    low = _ref_add(_ref_mul(a[:h], b[:h], sub),
                   _ref_mul(_ref_mul(a[h:], b[h:], sub), rho, sub))
    high = _ref_add(_ref_mul(a[:h], b[h:], sub), _ref_mul(a[h:], b[:h], sub))
    return low + high


def _ref_add(a, b, sign=1):
    return tuple(x + sign * y for x, y in zip(a, b))


def _ref_norm(a, rads):
    h = len(a) // 2
    sub = rads[:-1]
    return _ref_add(_ref_mul(a[:h], a[:h], sub),
                    _ref_mul(_ref_mul(a[h:], a[h:], sub), rads[-1], sub), -1)


def _ref_inv(a, rads):
    if len(a) == 1:
        return (1 / a[0],)
    h = len(a) // 2
    ni = _ref_inv(_ref_norm(a, rads), rads[:-1])
    return (_ref_mul(a[:h], ni, rads[:-1])
            + tuple(-x for x in _ref_mul(a[h:], ni, rads[:-1])))


def _ref_sign(a, rads):
    if len(a) == 1:
        return (a[0] > 0) - (a[0] < 0)
    h = len(a) // 2
    s0, s1 = _ref_sign(a[:h], rads[:-1]), _ref_sign(a[h:], rads[:-1])
    if s0 * s1 >= 0:
        return s0 or s1
    return s0 * _ref_sign(_ref_norm(a, rads), rads[:-1])


def _irrational_tower():
    """Q(sqrt 2, sqrt(1/3 + sqrt2/2), sqrt(5/2 + sqrt2/3 + t/4)), real."""
    t = multiquadratic_tower([2])
    t = tower_extend(t, t.element([F(1, 3), F(1, 2)])).tower
    res = tower_extend(t, t.element([F(5, 2), F(1, 3), F(1, 4), 0]))
    assert res.extended
    return res.tower


def _kernel_towers():
    out = []
    for rads in ([2, 3, 5, 7], [-1, 2, -3, 5]):
        full = multiquadratic_tower(rads)
        out += [full.prefix(level) for level in range(5)]
    sqrt2 = multiquadratic_tower([2])
    out.append(tower_extend(sqrt2, sqrt2.element([2, 1])).tower)
    out.append(_irrational_tower())
    return out


KERNEL_TOWERS = _kernel_towers()
KERNEL_IDS = [repr(t) for t in KERNEL_TOWERS]


@pytest.mark.parametrize("t", KERNEL_TOWERS, ids=KERNEL_IDS)
def test_kernel_mul_and_inverse_match_oracle(t):
    rng = random.Random(f"kernel:{t!r}")
    for _ in range(20):
        a = random_element(t, rng, height=30)
        b = random_element(t, rng, height=30)
        assert (a * b).coords == _ref_mul(a.coords, b.coords, t.rad_coords)
        if not a.is_zero():
            assert a.inverse().coords == _ref_inv(a.coords, t.rad_coords)


@pytest.mark.parametrize("t", KERNEL_TOWERS, ids=KERNEL_IDS)
def test_kernel_sqrt_matches_oracle(t):
    rng = random.Random(f"sqrt:{t!r}")
    for _ in range(10):
        y = random_element(t, rng)
        square = t.element(_ref_mul(y.coords, y.coords, t.rad_coords))
        s = square.sqrt()
        assert s in (y, -y)
        assert _ref_mul(s.coords, s.coords, t.rad_coords) == square.coords
    for step in range(t.level):
        # each radicand is a nonsquare in the subtower it extends
        below = t.prefix(step)
        assert below.element(t.rad_coords[step]).sqrt() is None


@pytest.mark.parametrize("t", [t for t in KERNEL_TOWERS if t.is_real],
                         ids=[i for t, i in zip(KERNEL_TOWERS, KERNEL_IDS)
                              if t.is_real])
def test_kernel_sign_real_matches_oracle(t):
    rng = random.Random(f"sign:{t!r}")
    for _ in range(30):
        a = random_element(t, rng)
        assert sign_real(a) == _ref_sign(a.coords, t.rad_coords)


def test_equal_values_by_different_routes():
    rng = random.Random(5)
    for t in KERNEL_TOWERS:
        a, b = random_element(t, rng), random_element(t, rng)
        if a.is_zero() or b.is_zero():
            continue
        routes = [a, (a * b) / b, (a * 3 + b) * F(1, 3) - b * F(1, 3),
                  t.element([2 * c for c in a.coords]) / 2,
                  a.inverse().inverse()]
        for r in routes:
            assert r == a and hash(r) == hash(a)
        half = t.element([F(2, 4)] + [0] * (t.degree - 1))
        assert half == t.from_rational(F(1, 2)) == F(1, 2)
        assert hash(half) == hash(t.from_rational(F(1, 2)))


def test_coords_are_fractions():
    t = _irrational_tower()
    x = t.element([F(1, 2), 3, 0, F(-5, 6), 1, 0, 0, 2])
    assert isinstance(x.coords, tuple)
    assert all(type(c) is Fraction for c in x.coords)
    assert x.coords == (F(1, 2), 3, 0, F(-5, 6), 1, 0, 0, 2)
    assert all(type(c) is Fraction for r in t.rad_coords for c in r)
    assert x.sort_key() == x.coords
    assert t.from_rational(F(7, 3)).as_fraction() == F(7, 3)
