"""The projective line over a quadratic tower: points, Mobius maps,
cross-ratios, orders and fixed points.

Points are homogeneous pairs normalized to y = 1 (finite) or (1 : 0)
(infinity). Mobius transformations are 2x2 matrices up to scale,
normalized so the first nonzero entry is 1, which makes equality and
hashing canonical.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import (
    DegenerateTriple,
    InternalInconsistency,
    SingularMatrix,
    UnsupportedCyclotomy,
)
from .intmath import factorint
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
        return Mobius(fr(Fraction(a)), fr(Fraction(b)),
                      fr(Fraction(c)), fr(Fraction(d)))

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

    def det(self) -> FieldElem:
        return self.a * self.d - self.b * self.c

    def trace(self) -> FieldElem:
        return self.a + self.d

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
# triples and cross-ratio
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


def mobius_to_triple(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> Mobius:
    """The Mobius taking (0, 1, inf) to (p1, p2, p3)."""
    return Mobius(*_triple_matrix(p1, p2, p3))


def mobius_from_triples(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint,
                        q1: ProjPoint, q2: ProjPoint, q3: ProjPoint) -> Mobius:
    """The unique Mobius transformation sending p_i to q_i: the matrix of
    q times the adjugate of p's (its inverse up to scale), normalized once."""
    a, b, c, d = _triple_matrix(p1, p2, p3)
    e, f, g, h = _triple_matrix(q1, q2, q3)
    return Mobius(e * d - f * c, f * a - e * b, g * d - h * c, h * a - g * b)


def cross_ratio(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint,
                p4: ProjPoint) -> ProjPoint:
    """The cross-ratio as a point of the line, with cr(0, 1, inf, z) = z.

    The first three points must be pairwise distinct; the value is (1:0)
    when p4 coincides with p3.
    """
    return mobius_to_triple(p1, p2, p3).inverse().apply(p4)


# ---------------------------------------------------------------------------
# orders and fixed points
# ---------------------------------------------------------------------------

def _euler_phi(n: int) -> int:
    out = 1
    for p, e in factorint(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def supported_orders(bound: int = 24) -> list[int]:
    """Orders m <= bound whose primitive roots of unity have a real
    subfield of 2-power degree, i.e. phi(m) is a power of 2."""
    out = []
    for m in range(1, bound + 1):
        phi = _euler_phi(m)
        if phi & (phi - 1) == 0:
            out.append(m)
    return out


def _cheb_pair(s: FieldElem, m: int) -> FieldElem:
    """c_m where c_j = r^j + r^(-j), c_0 = 2, c_1 = s, via a Lucas ladder."""
    t = s.tower
    two = t.from_rational(2)
    if m == 0:
        return two
    lo, hi = two, s  # (c_j, c_{j+1}) with j = 0
    for bit in bin(m)[2:]:
        if bit == "1":
            lo, hi = lo * hi - s, hi * hi - two  # j -> 2j+1
        else:
            lo, hi = lo * lo - two, lo * hi - s  # j -> 2j
    return lo


def _min_poly_coeffs(s: FieldElem) -> list[Fraction]:
    """Monic minimal polynomial of s over Q, low degree first."""
    deg = s.tower.degree
    powers = [s.tower.one()]
    while True:
        powers.append(powers[-1] * s)
        n = len(powers) - 1
        cols = [list(p.coords) for p in powers[:n]]
        target = [-c for c in powers[n].coords]
        sol = linalg.solve(linalg.transpose(cols), target)
        if sol is not None:
            return sol + [Fraction(1)]
        if n >= deg:
            raise InternalInconsistency("minimal polynomial search exceeded degree")


class OrderFixedResult:
    """Order data of a Mobius map.

    ``order`` is None for infinite order. ``fixed`` holds the fixed
    points over ``tower``, which extends the input tower when the
    discriminant was not a square; the identity fixes everything and
    reports an empty tuple.
    """

    __slots__ = ("order", "fixed", "tower", "extended")

    def __init__(self, order: int | None, fixed: tuple[ProjPoint, ...],
                 tower: FieldTower, extended: bool):
        self.order = order
        self.fixed = fixed
        self.tower = tower
        self.extended = extended

    def __repr__(self) -> str:
        o = "inf" if self.order is None else self.order
        return f"OrderFixedResult(order={o}, fixed={list(self.fixed)!r})"


def _fixed_points(mob: Mobius) -> tuple[tuple[ProjPoint, ...], FieldTower, bool]:
    a, b, c, d = mob.entries()
    t = mob.tower
    if c.is_zero():
        inf = ProjPoint.infinity(t)
        if a == d:
            return (inf,), t, False
        # z = (a z + b) / d fixes b / (d - a)
        return (inf, ProjPoint.finite(b / (d - a))), t, False
    disc = (a - d) * (a - d) + 4 * b * c
    if disc.is_zero():
        return (ProjPoint.finite((a - d) / (2 * c)),), t, False
    res = tower_extend(t, disc)
    if res.extended:
        big = res.tower
        root = big.embed(disc).sqrt()
        a2, d2, c2 = big.embed(a), big.embed(d), big.embed(c)
    else:
        big = t
        root = res.existing_sqrt
        a2, d2, c2 = a, d, c
    p_plus = ProjPoint.finite((a2 - d2 + root) / (2 * c2))
    p_minus = ProjPoint.finite((a2 - d2 - root) / (2 * c2))
    return (p_plus, p_minus), big, res.extended


def mobius_order_and_fixed(mob: Mobius, max_order: int = 24) -> OrderFixedResult:
    """Least m with mob^m scalar, plus the fixed points.

    Detection runs over the orders supported in a quadratic tower (phi(m)
    a power of 2) up to ``max_order``. A map of finite order beyond that
    list raises UnsupportedCyclotomy; a map whose eigenvalue ratio is not
    a root of unity at all reports infinite order.
    """
    tr = mob.trace()
    dt = mob.det()
    s = tr * tr / dt - 2  # r + 1/r for the eigenvalue ratio r
    two = mob.tower.from_rational(2)
    if s == two:
        # equal eigenvalues: scalar or parabolic
        if mob.is_identity():
            return OrderFixedResult(1, (), mob.tower, False)
        fixed, t, ext = _fixed_points(mob)
        return OrderFixedResult(None, fixed, t, ext)
    for m in supported_orders(max_order):
        if _cheb_pair(s, m) == two:
            fixed, t, ext = _fixed_points(mob)
            return OrderFixedResult(m, fixed, t, ext)
    # no supported order matched: decide root-of-unity beyond the list
    coeffs = _min_poly_coeffs(s)
    if all(c.denominator == 1 for c in coeffs):
        target_phi = 2 * (len(coeffs) - 1)
        limit = max(2 * target_phi * target_phi, max_order + 1)
        for m in range(max_order + 1, limit + 1):
            if _euler_phi(m) == target_phi and _cheb_pair(s, m) == two:
                raise UnsupportedCyclotomy(
                    f"map has order {m}, beyond the supported bound {max_order}")
    fixed, t, ext = _fixed_points(mob)
    return OrderFixedResult(None, fixed, t, ext)
