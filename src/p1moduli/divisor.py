"""Reduced effective divisors on the projective line and their Mobius
stabilizers.

A divisor is a finite set of distinct points over one tower. A Mobius
map is pinned down by where it sends three points, so every search here
is one scan of the ordered triples t of a divisor for those whose
cross-ratios with the other points are a source divisor's with its base
triple (``_matches``). Matching D's own cross-ratios gives Aut(P1, D);
the first match of another divisor's is an equivalence witness. Each
match also yields the map's permutation of the points, read off the
matching cross-ratios. The scan runs mod a split prime p of the tower,
on brackets formed from the residues of the points: reduction mod p is a
ring homomorphism, so no match is lost, and exact arithmetic only
certifies a triple whose every cross-ratio matches mod p, by imaging the
source under the map the caller needs anyway. The groups are the
classical finite Mobius groups, classified by element-order statistics.
"""

from __future__ import annotations

from itertools import accumulate, count, permutations
from typing import Iterable, Optional

from .errors import (
    DegreeTooSmall,
    InternalInconsistency,
    UnrecognizedGroup,
)
from .projline import Mobius, ProjPoint, mobius_from_triples, one_point, \
    zero_point
from .qfield import GaloisAut, sorted_by_coords


class Divisor:
    """A set of distinct points of the projective line over one tower."""

    __slots__ = ("points", "tower", "_set", "_hash", "_aut", "_mods")

    def __init__(self, points: Iterable[ProjPoint]):
        pts = list(points)
        if not pts:
            raise ValueError("a divisor needs at least one point")
        tower = pts[0].tower
        if any(p.tower != tower for p in pts):
            raise ValueError("points live in different towers")
        if len(set(pts)) != len(pts):
            raise ValueError("reduced divisor requires distinct points")
        # y is 0 at infinity and 1 elsewhere: (y, x) orders as sort_key
        self.points = tuple(sorted_by_coords(pts, lambda p: (p.y, p.x)))
        self.tower = tower
        self._set = frozenset(self.points)
        self._hash = None
        self._aut = None
        self._mods = []

    @property
    def degree(self) -> int:
        return len(self.points)

    def __contains__(self, p: ProjPoint) -> bool:
        return p in self._set

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Divisor) and self.tower == other.tower
                and self._set == other._set)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.tower, self._set))
        return self._hash

    def __repr__(self) -> str:
        return f"Divisor({list(self.points)!r})"

    def apply(self, m: Mobius) -> "Divisor":
        return Divisor(m(p) for p in self.points)

    @property
    def aut(self) -> "AutGroup":
        """Aut(P1, D) over the divisor's tower, from one scan of the
        ordered triples on first use; the scan keeps the points reduced
        mod the split primes it tried (``_mods``) for galois_witness."""
        if self._aut is None:
            if self.degree < 3:
                raise DegreeTooSmall(
                    f"need at least 3 points, got {self.degree}")
            pts = self.points
            self._aut = AutGroup(_matches(pts, (0, 1, 2), pts, self._mods,
                                          self._mods))
        return self._aut

    def galois_witness(self, sigma: GaloisAut) -> Optional[tuple]:
        """pgl2_equivalent(sigma(D), D) and its permutation pi of D, with
        phi(sigma(p_k)) = p_{pi[k]}; or None. The base is the preimage of
        sigma(D)'s first three points, so the witness is the one
        pgl2_equivalent finds."""
        moved = [ProjPoint(sigma(p.x), sigma(p.y)) for p in self.points]
        base = tuple(sorted_by_coords(range(len(moved)), lambda k: (
            moved[k].y, moved[k].x))[:3])
        return next(_matches(moved, base, self.points, [], self._mods), None)


def conjugate_divisor(sigma: GaloisAut, d: Divisor) -> Divisor:
    """Apply a Galois automorphism to every coordinate of the divisor."""
    return Divisor(ProjPoint(sigma(p.x), sigma(p.y)) for p in d.points)


def conjugate_mobius(sigma: GaloisAut, m: Mobius) -> Mobius:
    return Mobius(sigma(m.a), sigma(m.b), sigma(m.c), sigma(m.d))


# ---------------------------------------------------------------------------
# stabilizer computation
# ---------------------------------------------------------------------------

class GroupTag:
    """Classification of a finite Mobius group."""

    __slots__ = ("kind", "m")

    def __init__(self, kind: str, m: int | None = None):
        self.kind = kind  # trivial | cyclic | dihedral | A4 | S4 | A5
        self.m = m

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupTag) and self.kind == other.kind
                and self.m == other.m)

    def __hash__(self) -> int:
        return hash((self.kind, self.m))

    def __repr__(self) -> str:
        if self.m is None:
            return f"GroupTag({self.kind})"
        return f"GroupTag({self.kind}({self.m}))"

    def label(self) -> str:
        return self.kind if self.m is None else f"{self.kind}({self.m})"


class AutGroup:
    """A finite group of Mobius transformations with its multiplication
    table, canonical element order (identity first) and classification.
    ``index`` maps each (canonically scaled) element to its position.

    Built from the Aut scan's (map, perm) pairs, perm[k] the index in D
    of map(p_k), kept in element order as ``perms``. The table composes
    permutations, not maps: a Mobius map is fixed by three points, so for
    n >= 3 a permutation of D identifies its element."""

    __slots__ = ("elements", "perms", "tower", "table", "orders", "tag",
                 "index")

    def __init__(self, pairs: Iterable[tuple[Mobius, tuple]]):
        pairs = list(pairs)
        idn = [pr for pr in pairs if pr[0].is_identity()]
        rest = sorted_by_coords((p for p in pairs if not p[0].is_identity()),
                                lambda p: p[0].entries())
        if len(idn) != 1:
            raise InternalInconsistency("group must contain the identity once")
        self.elements, self.perms = zip(*(idn + rest))
        self.tower = self.elements[0].tower
        self.index = {e: i for i, e in enumerate(self.elements)}
        pos = {q: i for i, q in enumerate(self.perms)}
        self.table = []
        for pa in self.perms:  # (a o b)(p_k) = p_{pa[pb[k]]}
            self.table.append([pos.get(tuple(pa[k] for k in pb))
                               for pb in self.perms])
            if None in self.table[-1]:
                raise InternalInconsistency("set not closed under composition")
        self.orders = [self._order_from_table(i)
                       for i in range(len(self.table))]
        self.tag = _classify(self)

    def _order_from_table(self, i: int) -> int:
        k, n = i, 1
        while k != 0:
            k = self.table[k][i]
            n += 1
        return n

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, m: Mobius) -> int:
        if m not in self.index:
            raise ValueError("element not in group")
        return self.index[m]

    def __contains__(self, m: Mobius) -> bool:
        return m in self.index

    def is_cyclic(self) -> bool:
        return self.tag.kind in ("trivial", "cyclic")

    def is_cyclic_even(self) -> bool:
        return self.tag.kind == "cyclic" and self.tag.m % 2 == 0

    def generator(self) -> Mobius:
        """A generator when the group is cyclic (the identity for the
        trivial group)."""
        if not self.is_cyclic():
            raise ValueError("group is not cyclic")
        n = self.order
        return self.elements[self.orders.index(n)]

    def centralizer_size(self, i: int) -> int:
        return sum(1 for j in range(self.order)
                   if self.table[i][j] == self.table[j][i])

    def __repr__(self) -> str:
        return f"AutGroup({self.tag.label()}, order={self.order})"


def _classify(g: AutGroup) -> GroupTag:
    n = g.order
    mx = max(g.orders)
    if n == 1:
        return GroupTag("trivial")
    if mx == n:
        return GroupTag("cyclic", n)
    if n == 12 and mx == 3:
        return GroupTag("A4")
    if n == 24 and mx == 4:
        return GroupTag("S4")
    if n == 60 and mx == 5:
        return GroupTag("A5")
    if n % 2 == 0 and mx == n // 2:
        m = n // 2
        expected_invs = m + 1 if m % 2 == 0 else m
        if sum(1 for o in g.orders if o == 2) == expected_invs:
            return GroupTag("dihedral", m)
    raise UnrecognizedGroup(
        f"order {n} with element orders {sorted(set(g.orders))} is not a "
        "finite Mobius group")


# ---------------------------------------------------------------------------
# the triple matcher
# ---------------------------------------------------------------------------

def ordered_triples(n: int):
    """Index triples of distinct points in scan order, first index slowest."""
    return permutations(range(n), 3)


def _reduce(pts, split):
    """(split, the brackets [p_i, p_j] mod p as int rows, their inverses)
    at a split prime (p, h(e_mask)), from the residues of the x coordinates
    alone (points are normalised to y = 1 or (1 : 0)); None if some x is
    not p-integral or two of the points meet mod p."""
    p, n = split[0], len(pts)
    hpts = [(q.x.residue(split), 0 if q.is_infinity() else 1) for q in pts]
    if any(x is None for x, _ in hpts):
        return None
    hbr = [[(x * w - u * y) % p for u, w in hpts] for x, y in hpts]
    # no zero beyond the diagonal's n zeros
    if sum(not v for r in hbr for v in r) > n:
        return None
    # one inversion for the brackets above the diagonal, by prefix products
    # (Montgomery's trick); [p_j, p_i] = -[p_i, p_j] gives the rest
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    prefix = list(accumulate((hbr[i][j] for i, j in pairs),
                             lambda a, b: a * b % p, initial=1))
    inv, hinv = pow(prefix.pop(), -1, p), [[0] * n for _ in range(n)]
    for (i, j), before in zip(reversed(pairs), reversed(prefix)):
        hinv[i][j] = inv * before % p
        hinv[j][i] = p - hinv[i][j]
        inv = inv * hbr[i][j] % p
    return split, hbr, hinv


def _reduced(pts, mods, k):
    """mods[k]: the points reduced at the k-th split prime of their
    tower, built on first use (None where that prime fails)."""
    while len(mods) <= k:
        mods.append(_reduce(pts, pts[0].tower.split_prime(len(mods))))
    return mods[k]


def _matches(src, base, pts, src_mods, mods):
    """The maps M sending src[i], i in ``base``, to the ordered triples t of
    ``pts`` (of src's degree) with M(src) = pts, in scan order, each with
    perm[i] = the index of M(src[i]) in pts. ``src_mods`` and ``mods``
    keep the points of each side reduced mod the split primes tried; pass
    one list for both when src is pts.

    Every triple is decided mod p, at the first split prime at which both
    sides reduce. Cross-ratios are Mobius invariant, so M(src[i]) is the
    point whose cross-ratio with t is src[i]'s with the base, and reduction
    mod p is a ring homomorphism: a match maps every cross-ratio of t mod p
    into the target, src's n - 3 cross-ratios mod p, each to the index of
    its preimage. The points of each side stay distinct mod p, so these
    values are distinct too, and a full mod-p match reads off perm. The
    cheap test reads only the first cross-ratio (three products mod p);
    the full test is needed because the cross-ratio is invariant under the
    Klein four-group of double transpositions of its points, so around
    every match three more triples per point pass the first test. Exact
    arithmetic only certifies a full mod-p match, by imaging: the map M is
    built (the caller needs it anyway) and each src[i] outside the base
    must land on pts[perm[i]]. At degree 3 every triple matches and
    nothing is reduced. When src is pts, the base matched to itself yields
    the identity, which fixes every point, so nothing is built or checked."""
    n = len(pts)
    if n > 3:
        k = next(k for k in count() if _reduced(src, src_mods, k)
                 and _reduced(pts, mods, k))
        (p, _), sbr, sinv = src_mods[k]
        _, hbr, hinv = mods[k]
        a, b, c = base
        scale = sbr[c][b] * sinv[a][b]
        target = {sbr[a][i] * sinv[c][i] * scale % p: i
                  for i in range(n) if i not in base}
    for t in ordered_triples(n):
        if src is pts and t == base:
            yield Mobius.identity(pts[0].tower), tuple(range(n))
            continue
        if n > 3:
            a, b, c = t
            k = 0
            while k in t:
                k += 1
            if hbr[a][k] * hinv[c][k] * hbr[c][b] * hinv[a][b] % p \
                    not in target:
                continue
        perm = dict(zip(base, t))
        if n > 3:
            ra, rc, scale = hbr[a], hinv[c], hbr[c][b] * hinv[a][b]
            for k in range(n):
                if k not in t:
                    i = target.get(ra[k] * rc[k] * scale % p)
                    if i is None:
                        break
                    perm[i] = k
            if len(perm) < n:
                continue
        m = mobius_from_triples(*(src[i] for i in base),
                                *(pts[k] for k in t))
        if all(m.sends(src[i].x, src[i].y, pts[k].x, pts[k].y)
               for i, k in perm.items() if i not in base):
            yield m, tuple(map(perm.get, range(n)))


def compute_aut(d: Divisor) -> AutGroup:
    """The stabilizer of the point set inside the Mobius group over the
    divisor's own tower: ``d.aut``, scanned once per divisor object.

    Complete for stabilizer elements defined over that tower: any such
    map is determined by the ordered triple it sends the base triple to,
    and the scan tries every triple.
    """
    return d.aut


def _padded_triple(d: Divisor) -> list[ProjPoint]:
    """The points of a divisor of degree at most 2, followed by the first
    of 0, 1, inf that are not in it: three points in all."""
    t = d.tower
    extra = [zero_point(t), one_point(t), ProjPoint.infinity(t)]
    return (list(d.points) + [p for p in extra if p not in d])[:3]


def pgl2_equivalent(d1: Divisor, d2: Divisor) -> Optional[Mobius]:
    """Some Mobius map with M(d1) = d2, or None.

    Stops at the first ordered triple of d2 whose signature is that of
    d1 at its first three points; complete over the common tower by the
    same triple-determination argument as compute_aut. Below degree 3
    any two divisors of equal degree are equivalent (PGL2 is sharply
    3-transitive): both are padded to three points and matched.
    """
    if d1.tower != d2.tower:
        raise ValueError("divisors live in different towers")
    if d1.degree != d2.degree:
        return None
    if d1.degree < 3:
        return mobius_from_triples(*_padded_triple(d1), *_padded_triple(d2))
    hit = next(_matches(d1.points, (0, 1, 2), d2.points, [], []), None)
    return hit[0] if hit else None

