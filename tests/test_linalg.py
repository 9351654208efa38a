"""The ring-generic small-matrix helpers and the primitive-vector scale."""

import random
from fractions import Fraction as F

import pytest

from p1moduli.errors import SingularMatrix
from p1moduli.intmath import primitive_scale
from p1moduli.linalg import cross, det, identity, inverse, mat_mul, \
    proportional
from p1moduli.qfield import FieldElem, multiquadratic_tower

T2 = multiquadratic_tower([2, 3])


def elimination_det(m):
    """Fraction Gaussian elimination, kept here as an oracle for det."""
    a = [[F(x) for x in row] for row in m]
    n = len(a)
    d = F(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def tower_elem(rng):
    return T2.element([F(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(T2.degree)])


def test_det_matches_elimination_oracle():
    rng = random.Random(20261018)
    for n in (2, 3):
        for _ in range(200):
            # small entries make singular matrices common enough to test
            m = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
            assert det(m) == elimination_det(m)


def test_det_rejects_size_four():
    with pytest.raises(ValueError):
        det(identity(4))


def test_inverse_over_level_two_tower():
    rng = random.Random(7)
    a = [[tower_elem(rng) for _ in range(3)] for _ in range(3)]
    assert det(a)
    inv = inverse(a)
    assert all(isinstance(x, FieldElem) for row in inv for x in row)
    for prod in (mat_mul(inv, a), mat_mul(a, inv)):
        assert all(isinstance(x, FieldElem) for row in prod for x in row)
        assert prod == identity(3)


def test_inverse_of_rational_matrix():
    a = [[F(2), F(1), F(0)], [F(0), F(1), F(4)], [F(1), F(0), F(1)]]
    assert mat_mul(a, inverse(a)) == identity(3)


def test_inverse_rejects_singular():
    rng = random.Random(11)
    u = [tower_elem(rng) for _ in range(3)]
    v = [tower_elem(rng) for _ in range(3)]
    # third row is u + sqrt(2) v
    w = [x + T2.root(0) * y for x, y in zip(u, v)]
    with pytest.raises(SingularMatrix):
        inverse([u, v, w])
    with pytest.raises(SingularMatrix):
        inverse([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]])


def test_cross_and_proportional_on_tower_vectors():
    rng = random.Random(3)
    u = [tower_elem(rng) for _ in range(3)]
    v = [tower_elem(rng) for _ in range(3)]
    c = cross(u, v)
    assert all(isinstance(x, FieldElem) for x in c)
    # the cross product is orthogonal to both factors and antisymmetric
    for w in (u, v):
        assert (c[0] * w[0] + c[1] * w[1] + c[2] * w[2]).is_zero()
    assert cross(v, u) == [-x for x in c]
    assert det([u, v, c]) == sum((x * x for x in c[1:]), c[0] * c[0])
    scale = T2.root(1) + 5
    assert proportional(u, [scale * x for x in u])
    assert not proportional(u, v)
    assert proportional(u, [T2.zero()] * 3)
    assert cross(u, [scale * x for x in u]) == [T2.zero()] * 3


def test_primitive_scale():
    def normal(values):
        s = primitive_scale(values)
        return [v * s for v in values]

    assert normal([F(-2, 3), F(4, 9), F(0)]) == [3, -2, 0]
    assert normal([F(0), F(0), F(-3, 4), F(1, 6)]) == [0, 0, 9, -2]
    assert normal([F(1, 2), F(1, 3), F(1, 5)]) == [15, 10, 6]
    assert normal([F(4), F(6), F(-8)]) == [2, 3, -4]
    assert primitive_scale([F(0), F(0)]) == 1
    assert primitive_scale([]) == 1
    assert primitive_scale([3, -6]) == F(1, 3)
    assert isinstance(primitive_scale([F(1, 2)]), F)
