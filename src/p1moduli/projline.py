"""The projective line over a quadratic tower: points, Mobius maps,
maps from triples, and fixed points.

Points are homogeneous pairs normalized to y = 1 (finite) or (1 : 0)
(infinity). Mobius transformations are 2x2 matrices up to scale,
normalized so the first nonzero entry is 1, which makes equality and
hashing canonical.
"""

from __future__ import annotations

from .errors import DegenerateTriple, SingularMatrix
from .qfield import FieldElem, FieldTower, tower_extend


class ProjPoint:
    """A point of the projective line, stored in normalized homogeneous
    coordinates over a tower."""

    __slots__ = ("x", "y", "_hash")

    def __init__(self, x: FieldElem, y: FieldElem):
        if x.tower != y.tower:
            raise ValueError("coordinates live in different towers")
        if y.is_zero():
            if x.is_zero():
                raise ValueError("(0 : 0) is not a projective point")
            x = x.tower.one()
        elif y != 1:
            x = x / y
            y = y.tower.one()
        self.x = x
        self.y = y
        self._hash = None

    @staticmethod
    def finite(value: FieldElem) -> "ProjPoint":
        return ProjPoint(value, value.tower.one())

    @staticmethod
    def infinity(tower: FieldTower) -> "ProjPoint":
        return ProjPoint(tower.one(), tower.zero())

    @property
    def tower(self) -> FieldTower:
        return self.x.tower

    def is_infinity(self) -> bool:
        return self.y.is_zero()

    def affine(self) -> FieldElem:
        if self.is_infinity():
            raise ValueError("the point at infinity has no affine value")
        return self.x

    def embed(self, tower: FieldTower) -> "ProjPoint":
        return ProjPoint(tower.embed(self.x), tower.embed(self.y))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ProjPoint)
                and self.x == other.x and self.y == other.y)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.x, self.y))
        return self._hash

    def __repr__(self) -> str:
        if self.is_infinity():
            return "ProjPoint(inf)"
        return f"ProjPoint({self.x!r})"

    def sort_key(self):
        return (0 if self.is_infinity() else 1, self.x.sort_key())


def zero_point(tower: FieldTower) -> ProjPoint:
    return ProjPoint.finite(tower.zero())


def one_point(tower: FieldTower) -> ProjPoint:
    return ProjPoint.finite(tower.one())


class Mobius:
    """A Mobius transformation z -> (az + b)/(cz + d) with tower entries.

    The stored matrix is scaled so its first nonzero entry equals 1."""

    __slots__ = ("a", "b", "c", "d", "_hash")

    def __init__(self, a: FieldElem, b: FieldElem, c: FieldElem, d: FieldElem):
        t = a.tower
        if not (b.tower == t and c.tower == t and d.tower == t):
            raise ValueError("entries live in different towers")
        if (a * d - b * c).is_zero():
            raise SingularMatrix("Mobius matrix must be nonsingular")
        lead = next(e for e in (a, b, c, d) if not e.is_zero())
        inv = lead.inverse()
        self.a = a * inv
        self.b = b * inv
        self.c = c * inv
        self.d = d * inv
        self._hash = None

    @staticmethod
    def from_rationals(tower: FieldTower, a, b, c, d) -> "Mobius":
        fr = tower.from_rational
        return Mobius(fr(a), fr(b), fr(c), fr(d))

    @staticmethod
    def identity(tower: FieldTower) -> "Mobius":
        return Mobius.from_rationals(tower, 1, 0, 0, 1)

    @staticmethod
    def scaling(factor: FieldElem) -> "Mobius":
        t = factor.tower
        return Mobius(factor, t.zero(), t.zero(), t.one())

    @property
    def tower(self) -> FieldTower:
        return self.a.tower

    def entries(self) -> tuple[FieldElem, FieldElem, FieldElem, FieldElem]:
        return (self.a, self.b, self.c, self.d)

    def matrix(self, tower: FieldTower) -> list[list[FieldElem]]:
        """The entries, embedded in ``tower``, as a 2x2 matrix."""
        e = tower.embed
        return [[e(self.a), e(self.b)], [e(self.c), e(self.d)]]

    def image(self, x: FieldElem, y: FieldElem) -> tuple[FieldElem, FieldElem]:
        """The image of (x : y) as an unnormalised pair."""
        return self.a * x + self.b * y, self.c * x + self.d * y

    def apply(self, p: ProjPoint) -> ProjPoint:
        if p.tower != self.tower:
            raise ValueError("point and map live in different towers")
        return ProjPoint(*self.image(p.x, p.y))

    def sends(self, x: FieldElem, y: FieldElem, u: FieldElem, v: FieldElem
              ) -> bool:
        """Whether the map sends (x : y) to (u : v), neither of them (0 : 0).
        Nothing is normalised: the image (X : Y) is (u : v) when X v = Y u."""
        img_x, img_y = self.image(x, y)
        return img_x * v == img_y * u

    __call__ = apply

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other."""
        return Mobius(self.a * other.a + self.b * other.c,
                      self.a * other.b + self.b * other.d,
                      self.c * other.a + self.d * other.c,
                      self.c * other.b + self.d * other.d)

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "Mobius":
        if n < 0:
            return self.inverse() ** (-n)
        out = Mobius.identity(self.tower)
        base = self
        while n:
            if n & 1:
                out = out.compose(base)
            base = base.compose(base)
            n >>= 1
        return out

    def is_identity(self) -> bool:
        return (self.b.is_zero() and self.c.is_zero()
                and self.a == self.d and not self.a.is_zero())

    def embed(self, tower: FieldTower) -> "Mobius":
        e = tower.embed
        return Mobius(e(self.a), e(self.b), e(self.c), e(self.d))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mobius)
                and self.entries() == other.entries())

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.entries())
        return self._hash

    def __repr__(self) -> str:
        return f"Mobius({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

def bracket(p: ProjPoint, q: ProjPoint) -> FieldElem:
    """The 2x2 determinant [p, q] = x_p y_q - x_q y_p; zero exactly when
    p = q."""
    return p.x * q.y - q.x * p.y


def _triple_matrix(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint):
    """The entries (a, b, c, d) of a matrix taking (0, 1, inf) to (p1, p2,
    p3), not normalized; DegenerateTriple if two of the points coincide."""
    # columns: (b,d) ~ p1, (a,c) ~ p3, scaled so they sum to [p3, p1] p2;
    # the determinant [p2, p1][p3, p2][p3, p1] vanishes exactly when two
    # of the points coincide
    nu, mu = bracket(p2, p1), bracket(p3, p2)
    if not (nu and mu and bracket(p3, p1)):
        raise DegenerateTriple("points of the triple coincide")
    return nu * p3.x, mu * p1.x, nu * p3.y, mu * p1.y


def mobius_from_triples(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint,
                        q1: ProjPoint, q2: ProjPoint, q3: ProjPoint) -> Mobius:
    """The unique Mobius transformation sending p_i to q_i: the matrix of
    q times the adjugate of p's (its inverse up to scale), normalized once."""
    a, b, c, d = _triple_matrix(p1, p2, p3)
    e, f, g, h = _triple_matrix(q1, q2, q3)
    return Mobius(e * d - f * c, f * a - e * b, g * d - h * c, h * a - g * b)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def fixed_points(mob: Mobius) -> tuple[tuple[ProjPoint, ...], FieldTower]:
    """The fixed points of a nonidentity map, and the tower they live in:
    the map's own tower, or that tower extended by the square root of the
    discriminant when it is not a square there. A parabolic map has one
    fixed point, every other map two. The identity fixes every point and
    raises ValueError."""
    if mob.is_identity():
        raise ValueError("the identity fixes every point")
    a, b, c, d = mob.entries()
    t = mob.tower
    if c.is_zero():
        inf = ProjPoint.infinity(t)
        if a == d:
            return (inf,), t
        # z = (a z + b) / d fixes b / (d - a)
        return (inf, ProjPoint.finite(b / (d - a))), t
    disc = (a - d) * (a - d) + 4 * b * c
    if disc.is_zero():
        return (ProjPoint.finite((a - d) / (2 * c)),), t
    res = tower_extend(t, disc)
    if res.extended:
        big = res.tower
        root = big.embed(disc).sqrt()
        a, d, c = big.embed(a), big.embed(d), big.embed(c)
    else:
        big = t
        root = res.existing_sqrt
    p_plus = ProjPoint.finite((a - d + root) / (2 * c))
    p_minus = ProjPoint.finite((a - d - root) / (2 * c))
    return (p_plus, p_minus), big
