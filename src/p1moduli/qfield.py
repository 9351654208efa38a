"""Iterated quadratic extensions of the rationals with exact arithmetic.

A tower of level L is Q(sqrt(d_0), ..., sqrt(d_{L-1})) where each radicand
d_i is an element of the level-i subtower. Elements carry a coordinate
vector of length 2^L over the power-product basis: the basis element at
index ``mask`` is the product of the roots whose step bits are set in
``mask`` (binary-counter order, step 0 is the lowest bit).

An element stores its coordinates as a tuple of int numerators over one
positive int denominator, reduced so that all of them have gcd 1; equal
elements therefore hold equal ints. Each tower builds, once, a sparse
structure-constant table with one int denominator D:
e_a * e_b = sum_c T[a][b][c] e_c / D. In a multiquadratic tower every
entry is the single term (prod_{i in a&b} d_i) e_{a^b} and D = 1; an
irrational radicand gives dense entries. A prefix subtower's basis is a
prefix of the basis, so the top-left block of the table is the table of
every prefix: inversion (conj(x) / N(x)), square roots and real signs
recurse on the halves x = a + b*t, with t the top root, through the same
multiply loop.

``Fraction`` appears only at the edges (``coords``, ``rad_coords``,
``as_fraction``, ``sort_key``). Square roots, Galois groups of Galois
towers, and fixed subfields of subgroups are all computed exactly; no
floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Sequence, Union

from . import linalg
from .errors import (
    InternalInconsistency,
    NoInverse,
    NotGalois,
    ZeroRadicand,
)
from .intmath import fraction_sqrt, squarefree_part

Rational = Fraction
Coords = tuple[Fraction, ...]
Scalar = Union["FieldElem", Fraction, int]
Ints = tuple[tuple[int, ...], int]   # numerators and a positive denominator

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# int coordinate arithmetic
# ---------------------------------------------------------------------------

def _reduce(nums: Sequence[int], den: int) -> Ints:
    """Divide out the common gcd, leaving a positive denominator."""
    g = gcd(*nums, den)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple(v // g for v in nums), den // g


def _ints(coords: Iterable[Fraction | int]) -> Ints:
    fr = [Fraction(c) for c in coords]
    den = lcm(*(f.denominator for f in fr))
    return tuple(f.numerator * (den // f.denominator) for f in fr), den


def _mul(x: Sequence[int], y: Sequence[int], table) -> list[int]:
    """D times the product of two int vectors of equal length."""
    acc = [0] * len(x)
    ys = [(b, v) for b, v in enumerate(y) if v]
    for a, u in enumerate(x):
        if u:
            row = table[a]
            for b, v in ys:
                uv = u * v
                for c, t in row[b]:
                    acc[c] += uv * t
    return acc


def _conj_norm(x: Sequence[int], table) -> tuple[tuple[int, ...], list[int]]:
    """For x = a + b*t: conj(x) = a - b*t, and D times the norm
    x * conj(x) = a^2 - b^2 t^2, which lies in the subtower."""
    h = len(x) // 2
    conj = tuple(x[:h]) + tuple(-v for v in x[h:])
    return conj, _mul(x, conj, table)[:h]


def _extend_table(table, den: int, rad: Ints):
    """The structure constants one step up, adjoining t with t^2 = rad."""
    rn, rd = rad
    h = len(rn)
    # e_c * rad, as D * rd times its coordinates
    crad = [_mul([int(i == c) for i in range(h)], rn, table) for c in range(h)]
    scale = den * rd
    rows = [[()] * (2 * h) for _ in range(2 * h)]
    for a in range(h):
        for b in range(h):
            low = table[a][b]
            rows[a][b] = tuple((c, t * scale) for c, t in low)
            rows[a][b + h] = rows[a + h][b] = tuple((c + h, t * scale)
                                                    for c, t in low)
            acc = [0] * h
            for c, t in low:
                for m, v in enumerate(crad[c]):
                    acc[m] += t * v
            rows[a + h][b + h] = tuple((m, v) for m, v in enumerate(acc) if v)
    new_den = den * scale
    g = gcd(new_den, *(t for row in rows for cell in row for _, t in cell))
    if g > 1:
        rows = [[tuple((c, t // g) for c, t in cell) for cell in row]
                for row in rows]
    return rows, new_den // g


def _inv(x: Sequence[int], den: int, tower: "FieldTower") -> Ints:
    """The inverse of x / den in the prefix of its length."""
    n = len(x)
    if n == 1:
        if not x[0]:
            raise NoInverse("division by zero in tower field")
        return _reduce((den,), x[0])
    h = n // 2
    if not any(x[h:]):
        lo, d = _inv(x[:h], den, tower)
        return lo + (0,) * h, d
    table, tden = tower._mult()
    conj, norm = _conj_norm(x, table)
    nn, nd = _inv(norm, tden, tower)   # 1/x = conj(x) / N(x)
    return _reduce([v * den for v in _mul(conj, nn + (0,) * h, table)],
                   tden * nd)


def _sqrt(x: Sequence[int], den: int, tower: "FieldTower") -> Ints | None:
    """Some square root of x / den in the prefix of its length, or None."""
    n = len(x)
    if n == 1:
        g = gcd(x[0], den)
        p, q = x[0] // g, den // g
        if p < 0:
            return None
        rp, rq = isqrt(p), isqrt(q)
        return ((rp,), rq) if rp * rp == p and rq * rq == q else None
    h = n // 2
    a, b = tuple(x[:h]), tuple(x[h:])
    zeros = (0,) * h
    table, tden = tower._mult()
    if not any(b):
        r = _sqrt(a, den, tower)
        if r is not None:
            return r[0] + zeros, r[1]
        rn, rd = _inv(*tower._rads[h.bit_length() - 1], tower)
        r = _sqrt(*_reduce(_mul(a, rn, table), den * rd * tden), tower)
        return None if r is None else (zeros + r[0], r[1])
    # x = u + v t with 2uv = b != 0: norm descent
    s = _sqrt(*_reduce(_conj_norm(x, table)[1], tden * den * den), tower)
    if s is None:
        return None
    target = _reduce(x, den)
    sn, sd = s
    for sign in (1, -1):
        u = _sqrt(*_reduce([p * sd + sign * q * den for p, q in zip(a, sn)],
                           2 * den * sd), tower)
        if u is None or not any(u[0]):
            continue
        un, ud = u
        wn, wd = _inv(un, ud, tower)
        vn, vd = _reduce(_mul(b, wn, table), 2 * den * wd * tden)
        root = _reduce([p * vd for p in un] + [q * ud for q in vn], ud * vd)
        if _reduce(_mul(root[0], root[0], table),
                   root[1] * root[1] * tden) == target:
            return root
    return None


def _sign(x: Sequence[int], tower: "FieldTower") -> int:
    """Sign of an int vector under the all-roots-positive embedding."""
    n = len(x)
    if n == 1:
        return (x[0] > 0) - (x[0] < 0)
    h = n // 2
    s0 = _sign(x[:h], tower)
    s1 = _sign(x[h:], tower)
    if s1 == 0:
        return s0
    if s0 == 0 or s0 == s1:
        return s1
    # opposite signs: the sign of the norm a^2 - b^2 rho decides
    sd = _sign(_conj_norm(x, tower._mult()[0])[1], tower)
    if sd == 0:
        raise InternalInconsistency("radicand is a square in its subtower")
    return sd if s0 > 0 else -sd


# ---------------------------------------------------------------------------
# towers and elements
# ---------------------------------------------------------------------------

class FieldTower:
    """An iterated quadratic extension of Q, immutable.

    ``rad_coords[i]`` is the coordinate vector (length 2^i) of the step-i
    radicand over the level-i subtower. Rational radicands are normalized
    to squarefree integers; genuinely irrational ones are kept as given.
    """

    __slots__ = ("rad_coords", "level", "degree", "_rads", "_hash", "_table",
                 "_galois", "_is_real")

    def __init__(self, rad_coords: tuple[Coords, ...] = ()):
        self.rad_coords = rad_coords
        self.level = len(rad_coords)
        self.degree = 1 << self.level
        self._rads = tuple(_ints(c) for c in rad_coords)
        self._hash = hash(self._rads)
        self._table = None
        self._galois = None
        self._is_real = None

    @staticmethod
    def rationals() -> "FieldTower":
        return FieldTower(())

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FieldTower)
                                 and self._rads == other._rads)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.level == 0:
            return "FieldTower(Q)"
        rads = ", ".join(_coords_repr(c) for c in self.rad_coords)
        return f"FieldTower(Q; {rads})"

    def _mult(self):
        """The structure-constant table and its denominator, built once."""
        if self._table is None:
            if self.level == 0:
                self._table = ([[((0, 1),)]], 1)
            else:
                sub = self.prefix(self.level - 1)._mult()
                self._table = _extend_table(*sub, self._rads[-1])
        return self._table

    # -- element constructors ------------------------------------------------

    def element(self, coords: Iterable[Fraction | int]) -> "FieldElem":
        nums, den = _ints(coords)
        if len(nums) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(nums)}")
        return FieldElem(self, nums, den)

    def from_rational(self, q: Fraction | int) -> "FieldElem":
        q = Fraction(q)
        return FieldElem(self, (q.numerator,) + (0,) * (self.degree - 1),
                         q.denominator)

    def zero(self) -> "FieldElem":
        return self.from_rational(0)

    def one(self) -> "FieldElem":
        return self.from_rational(1)

    def root(self, step: int) -> "FieldElem":
        """The square root adjoined at the given step, as an element."""
        return FieldElem(self, tuple(int(i == 1 << step)
                                     for i in range(self.degree)))

    def radicand(self, step: int) -> "FieldElem":
        """The step radicand embedded into the full tower."""
        nums, den = self._rads[step]
        return FieldElem(self, nums + (0,) * (self.degree - len(nums)), den)

    def prefix(self, level: int) -> "FieldTower":
        sub = FieldTower(self.rad_coords[:level])
        sub._table = self._table   # its top-left block serves the prefix
        return sub

    def embed(self, x: "FieldElem") -> "FieldElem":
        """Embed an element of a prefix tower into this tower."""
        if x.tower == self:
            return x
        if x.tower._rads != self._rads[: x.tower.level]:
            raise ValueError("element does not live in a prefix of this tower")
        return FieldElem(self, x.num + (0,) * (self.degree - len(x.num)), x.den)

    @property
    def is_real(self) -> bool:
        """True when every radicand is positive under the real embedding
        that takes all adjoined roots positive."""
        if self._is_real is None:
            self._is_real = all(_sign(nums, self) > 0
                                for nums, _ in self._rads)
        return self._is_real

    def rationals_only(self) -> bool:
        return self.level == 0

    def is_multiquadratic(self) -> bool:
        """True when every radicand is rational."""
        return all(not any(nums[1:]) for nums, _ in self._rads)

    def rational_radicands(self) -> list[Fraction]:
        if not self.is_multiquadratic():
            raise ValueError("tower has irrational radicands")
        return [c[0] for c in self.rad_coords]


class FieldElem:
    """An element of a FieldTower; immutable and hashable.

    ``num`` holds int numerators over the positive int ``den``, with no
    common factor left."""

    __slots__ = ("tower", "num", "den", "_hash")

    def __init__(self, tower: FieldTower, num: tuple[int, ...], den: int = 1):
        self.tower = tower
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def _make(tower: FieldTower, nums: Sequence[int], den: int) -> "FieldElem":
        return FieldElem(tower, *_reduce(nums, den))

    @property
    def coords(self) -> Coords:
        return tuple(Fraction(v, self.den) for v in self.num)

    # -- coercion -------------------------------------------------------------

    def _coerce(self, other: Scalar) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.tower is not self.tower and other.tower != self.tower:
                raise ValueError("elements live in different towers")
            return other
        return self.tower.from_rational(Fraction(other))

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: Scalar) -> "FieldElem":
        o = self._coerce(other)
        if self.den == o.den:
            return self._make(self.tower, [p + q for p, q in zip(self.num, o.num)],
                              self.den)
        return self._make(self.tower, [p * o.den + q * self.den
                                       for p, q in zip(self.num, o.num)],
                          self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "FieldElem":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "FieldElem":
        return self._coerce(other) + (-self)

    def __neg__(self) -> "FieldElem":
        return FieldElem(self.tower, tuple(-v for v in self.num), self.den)

    def __mul__(self, other: Scalar) -> "FieldElem":
        if isinstance(other, FieldElem):
            table, tden = self._coerce(other).tower._mult()
            return self._make(self.tower, _mul(self.num, other.num, table),
                              self.den * other.den * tden)
        q = Fraction(other)
        return self._make(self.tower, [v * q.numerator for v in self.num],
                          self.den * q.denominator)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        return FieldElem(self.tower, *_inv(self.num, self.den, self.tower))

    def __truediv__(self, other: Scalar) -> "FieldElem":
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other: Scalar) -> "FieldElem":
        o = self._coerce(other)
        return o * self.inverse()

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.tower.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.tower.from_rational(other)
        return (
            isinstance(other, FieldElem)
            and self.num == other.num
            and self.den == other.den
            and self.tower == other.tower
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.tower, self.num, self.den))
        return self._hash

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def sqrt(self) -> "FieldElem | None":
        """The canonical square root inside the tower, or None.

        For a real tower the root positive under the real embedding is
        returned; otherwise the representative whose first nonzero
        coordinate is positive.
        """
        r = _sqrt(self.num, self.den, self.tower)
        if r is None:
            return None
        elem = FieldElem(self.tower, *r)
        if elem.is_zero():
            return elem
        if self.tower.is_real:
            if sign_real(elem) < 0:
                elem = -elem
        else:
            first = next(v for v in elem.num if v)
            if first < 0:
                elem = -elem
        return elem

    def __repr__(self) -> str:
        return f"FieldElem({_coords_repr(self.coords)})"

    def sort_key(self):
        return self.coords


def _coords_repr(coords: Coords) -> str:
    return "[" + ", ".join(str(c) for c in coords) + "]"


def sign_real(x: FieldElem) -> int:
    """Exact sign of x under the all-roots-positive real embedding.

    Only meaningful when the tower is real; computed by recursive
    comparison of conjugate halves, no floating point involved.
    """
    return _sign(x.num, x.tower)


# ---------------------------------------------------------------------------
# tower extension
# ---------------------------------------------------------------------------

class ExtendResult:
    """Outcome of tower_extend.

    ``tower`` is the (possibly unchanged) tower, ``existing_sqrt`` is set
    when the radicand was already a square, and ``embed`` maps elements of
    the original tower into ``tower``.
    """

    __slots__ = ("tower", "existing_sqrt", "embed", "extended")

    def __init__(self, tower: FieldTower, existing_sqrt: FieldElem | None,
                 embed: Callable[[FieldElem], FieldElem], extended: bool):
        self.tower = tower
        self.existing_sqrt = existing_sqrt
        self.embed = embed
        self.extended = extended


def tower_extend(tower: FieldTower, radicand: Scalar) -> ExtendResult:
    """Adjoin a square root of ``radicand`` to ``tower``.

    If the radicand is already a square the tower is returned unchanged
    together with the square root as an embedding note. Rational radicands
    are reduced to their squarefree integer part before being stored.
    """
    if isinstance(radicand, (int, Fraction)):
        radicand = tower.from_rational(Fraction(radicand))
    if radicand.tower != tower:
        radicand = tower.embed(radicand)
    if radicand.is_zero():
        raise ZeroRadicand("cannot extend by a square root of zero")
    existing = radicand.sqrt()
    if existing is not None:
        return ExtendResult(tower, existing, lambda e: e, False)
    if radicand.is_rational():
        stored = Fraction(squarefree_part(radicand.as_fraction()))
        store_coords: Coords = (stored,) + (_ZERO,) * (tower.degree - 1)
    else:
        store_coords = radicand.coords
    new = FieldTower(tower.rad_coords + (store_coords,))
    return ExtendResult(new, None, new.embed, True)


def multiquadratic_tower(radicands: Sequence[Fraction | int]) -> FieldTower:
    """Tower from rational radicands, dropping those already squares."""
    t = FieldTower.rationals()
    for d in radicands:
        t = tower_extend(t, Fraction(d)).tower
    return t


# ---------------------------------------------------------------------------
# Galois groups
# ---------------------------------------------------------------------------

class GaloisAut:
    """A field automorphism of a Galois tower.

    ``images[i]`` is the image of the step-i root, a FieldElem of the full
    tower equal to plus or minus a square root of the conjugated radicand.
    """

    __slots__ = ("tower", "images", "_basis_imgs", "_hash", "index")

    def __init__(self, tower: FieldTower, images: tuple[FieldElem, ...]):
        self.tower = tower
        self.images = images
        self._basis_imgs = None
        self._hash = None
        self.index = None  # set by GaloisGroup

    def _basis_images(self) -> tuple[list[tuple[int, ...]], int]:
        """Images of the basis as int vectors over one common denominator."""
        if self._basis_imgs is None:
            imgs = [self.tower.one()] * self.tower.degree
            for mask in range(1, self.tower.degree):
                low = mask & (-mask)
                imgs[mask] = imgs[mask ^ low] * self.images[low.bit_length() - 1]
            den = lcm(*(img.den for img in imgs))
            self._basis_imgs = ([tuple(v * (den // img.den) for v in img.num)
                                 for img in imgs], den)
        return self._basis_imgs

    def apply(self, x: FieldElem) -> FieldElem:
        if x.tower != self.tower:
            raise ValueError("element lives in a different tower")
        imgs, den = self._basis_images()
        acc = [0] * self.tower.degree
        for c, img in zip(x.num, imgs):
            if c:
                for i, v in enumerate(img):
                    if v:
                        acc[i] += c * v
        return FieldElem._make(self.tower, acc, x.den * den)

    __call__ = apply

    def compose(self, other: "GaloisAut") -> "GaloisAut":
        """self after other: (self*other)(x) = self(other(x))."""
        return GaloisAut(self.tower,
                         tuple(self.apply(img) for img in other.images))

    def is_identity(self) -> bool:
        return all(img == self.tower.root(i)
                   for i, img in enumerate(self.images))

    def key(self):
        return tuple((img.num, img.den) for img in self.images)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GaloisAut) and self.tower == other.tower
                and self.key() == other.key())

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.tower, self.key()))
        return self._hash

    def __repr__(self) -> str:
        return f"GaloisAut({[repr(i) for i in self.images]})"


class GaloisGroup:
    """The full automorphism group of a Galois tower, with its
    multiplication table.

    Elements are stored in a canonical order (identity first, the rest
    sorted by root-image coordinates); ``table[i][j]`` is the index of
    elements[i] composed with elements[j].
    """

    __slots__ = ("tower", "elements", "table", "inverses", "_by_key")

    def __init__(self, tower: FieldTower, elements: tuple[GaloisAut, ...]):
        self.tower = tower
        idn = [e for e in elements if e.is_identity()]
        rest = sorted((e for e in elements if not e.is_identity()),
                      key=lambda e: tuple(i.coords for i in e.images))
        self.elements = tuple(idn + rest)
        self._by_key = {e.key(): i for i, e in enumerate(self.elements)}
        for i, e in enumerate(self.elements):
            e.index = i
        n = len(self.elements)
        self.table = [[0] * n for _ in range(n)]
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                k = self._by_key.get(a.compose(b).key())
                if k is None:
                    raise InternalInconsistency("Galois group not closed")
                self.table[i][j] = k
        self.inverses = [0] * n
        for i in range(n):
            self.inverses[i] = next(j for j in range(n) if self.table[i][j] == 0)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> GaloisAut:
        return self.elements[0]

    def index_of(self, aut: GaloisAut) -> int:
        return self._by_key[aut.key()]

    def compose(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.inverses[i]

    def subgroup_closure(self, indices: Iterable[int]) -> frozenset[int]:
        cur = {0} | set(indices)
        changed = True
        while changed:
            changed = False
            for i in list(cur):
                for j in list(cur):
                    k = self.table[i][j]
                    if k not in cur:
                        cur.add(k)
                        changed = True
        return frozenset(cur)

    def is_elementary_abelian_2(self) -> bool:
        n = self.order
        for i in range(n):
            if self.table[i][i] != 0:
                return False
            for j in range(i + 1, n):
                if self.table[i][j] != self.table[j][i]:
                    return False
        return True


def galois_group(tower: FieldTower) -> GaloisGroup:
    """The Galois group of the tower over Q.

    Raises NotGalois (with the offending step) when some conjugate of a
    radicand has no square root in the tower.
    """
    if tower._galois is not None:
        return tower._galois
    partial: list[list[FieldElem]] = [[]]
    for step in range(tower.level):
        rad = tower._rads[step]
        nxt: list[list[FieldElem]] = []
        for images in partial:
            conj = _eval_on_images(rad, images, tower)
            root = conj.sqrt()
            if root is None:
                raise NotGalois(step,
                                f"conjugated radicand {conj!r} has no square root")
            nxt.append(images + [root])
            nxt.append(images + [-root])
        partial = nxt
    auts = tuple(GaloisAut(tower, tuple(imgs)) for imgs in partial)
    group = GaloisGroup(tower, auts)
    tower._galois = group
    return group


def _eval_on_images(rad: Ints, images: list[FieldElem],
                    tower: FieldTower) -> FieldElem:
    """Evaluate a subtower coordinate vector on given root images."""
    nums, den = rad
    acc = tower.zero()
    for mask, c in enumerate(nums):
        if not c:
            continue
        term = tower.from_rational(Fraction(c, den))
        m = mask
        while m:
            low = m & (-m)
            term = term * images[low.bit_length() - 1]
            m ^= low
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# fixed subfields
# ---------------------------------------------------------------------------

class SubfieldPresentation:
    """A fixed field presented as its own tower plus maps in and out."""

    __slots__ = ("tower", "basis_images", "parent")

    def __init__(self, tower: FieldTower, basis_images: list[FieldElem],
                 parent: FieldTower):
        self.tower = tower
        self.basis_images = basis_images
        self.parent = parent

    def embed(self, x: FieldElem) -> FieldElem:
        if x.tower != self.tower:
            raise ValueError("element does not live in the subtower")
        acc = self.parent.zero()
        for c, img in zip(x.num, self.basis_images):
            if c:
                acc = acc + img * c
        return acc * Fraction(1, x.den)

    def restrict(self, x: FieldElem) -> FieldElem:
        """Express a parent element lying in the subfield in subtower
        coordinates; raises when it does not lie there."""
        cols = [list(img.coords) for img in self.basis_images]
        m = linalg.transpose(cols)
        sol = linalg.solve(m, list(x.coords))
        if sol is None:
            raise ValueError("element is not fixed by the subgroup")
        return self.tower.element(sol)


def _action_matrix(aut: GaloisAut) -> tuple[linalg.Matrix, int]:
    deg = aut.tower.degree
    imgs, den = aut._basis_images()
    return [[imgs[c][r] for c in range(deg)] for r in range(deg)], den


def _fixed_space(group: GaloisGroup, indices: frozenset[int]) -> list[linalg.Vector]:
    deg = group.tower.degree
    rows: linalg.Matrix = []
    for i in sorted(indices):
        if i == 0:
            continue
        # den * (action - 1): the same kernel, over the ints
        a, den = _action_matrix(group.elements[i])
        for r in range(deg):
            row = a[r][:]
            row[r] -= den
            rows.append(row)
    if not rows:
        return [list(v) for v in linalg.identity(deg)]
    return linalg.kernel_basis(rows)


def fixed_subtower(group: GaloisGroup, subgroup: Iterable[int]) -> SubfieldPresentation:
    """The fixed field of a subgroup, presented as a quadratic tower.

    The subgroup is given by element indices; it is closed under products
    before use. Walks a chain of index-two subgroups between the subgroup
    and the whole group, producing one radicand per step.
    """
    tower = group.tower
    sub = group.subgroup_closure(subgroup)
    if len(sub) == len(group.elements):
        qq = FieldTower.rationals()
        return SubfieldPresentation(qq, [tower.one()], tower)
    if len(sub) == 1:
        basis = [tower.element([int(i == m) for i in range(tower.degree)])
                 for m in range(tower.degree)]
        return SubfieldPresentation(tower, basis, tower)

    # chain sub = U_0 < U_1 < ... < U_k = G with index-2 steps
    chain = [sub]
    full = frozenset(range(group.order))
    while chain[-1] != full:
        u = chain[-1]
        grew = None
        for g in range(group.order):
            if g in u:
                continue
            if group.table[g][g] not in u:
                continue
            conj_ok = all(
                group.table[group.table[g][h]][group.inverses[g]] in u
                for h in u)
            if conj_ok:
                grew = frozenset(u | {group.table[g][h] for h in u})
                break
        if grew is None:
            raise InternalInconsistency("no index-2 step above subgroup")
        chain.append(grew)

    fixed_spaces = {u: _fixed_space(group, u) for u in chain}
    subtower = FieldTower.rationals()
    basis_images = [tower.one()]
    # walk downward: from fixed(G) = Q towards fixed(sub)
    for j in range(len(chain) - 1, 0, -1):
        bigger_grp, smaller_grp = chain[j], chain[j - 1]
        space_small = fixed_spaces[smaller_grp]   # larger field
        space_big = fixed_spaces[bigger_grp]      # smaller field
        x_vec = next(v for v in space_small
                     if not linalg.in_span(space_big, v))
        tau_i = next(iter(bigger_grp - smaller_grp))
        tau = group.elements[tau_i]
        x = tower.element(x_vec)
        y = x - tau.apply(x)
        if y.is_zero():
            raise InternalInconsistency("fixed-space vector collapsed")
        d = y * y
        cols = [list(img.coords) for img in basis_images]
        sol = linalg.solve(linalg.transpose(cols), list(d.coords))
        if sol is None:
            raise InternalInconsistency("radicand not in current subfield")
        rad = subtower.element(sol)
        ext = tower_extend(subtower, rad)
        if not ext.extended:
            raise InternalInconsistency("chain step radicand was a square")
        # keep the stored radicand consistent with the chosen root image:
        # stored = rad * s^2 for rational s, so the root image is y / s
        stored = ext.tower.rad_coords[-1]
        if rad.is_rational():
            ratio = rad.as_fraction() / stored[0]
            s = fraction_sqrt(ratio)
            if s is None:
                raise InternalInconsistency("squarefree reduction mismatch")
            y = y / s
        subtower = ext.tower
        basis_images = basis_images + [img * y for img in basis_images]
    return SubfieldPresentation(subtower, basis_images, tower)
