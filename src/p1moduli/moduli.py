"""Field of moduli, descent cochains, and the compression conic.

The field of moduli of (P1, D) is the fixed field of the subgroup H of
Galois elements sigma for which sigma(D) is Mobius-equivalent to D. A
witness cochain phi_sigma with phi_sigma(sigma(D)) = D realizes the
descent data; its coboundary defect is a 2-cocycle valued in Aut(P1, D).
Aut and every witness come from scans of D's points reduced mod its
split primes, kept by D itself.

For cyclic Aut of order m the quotient by Aut is computed literally: a
generator is conjugated to w -> zeta w by sending its fixed points to 0
and infinity, the quotient map is w -> w^m, and the twisted Galois
action descends to the target line. Embedding the target by the degree-2
Veronese, the symmetric square of each descended map over its determinant
is an exact matrix 1-cocycle, proved from the checked projective one and
not checked itself; averaging over the Galois group cuts out a rational
3-space, and the Veronese quadric in that basis is the compression conic
over the field of moduli.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from .conic import TernaryForm
from .divisor import AutGroup, Divisor, conjugate_mobius
from .errors import (
    DescentFailure,
    InternalInconsistency,
    NonCyclicAut,
    NonElementaryGaloisQuotient,
    UnsupportedAut,
)
from .intmath import primitive_scale
from .linalg import det, dot, inverse, mat_map, mat_mul, mat_vec, \
    proportional, transpose
from .projline import Mobius, ProjPoint, fixed_points
from .qfield import (
    FieldElem,
    FieldTower,
    GaloisAut,
    GaloisGroup,
    SubfieldPresentation,
    fixed_subtower,
    galois_group,
    sorted_by_coords,
)

F = Fraction


class ModuliData:
    """H, the witnesses and their permutations of D, fom and Aut(P1, D)."""

    __slots__ = ("group", "h_indices", "cochain", "perms", "fom", "fom_is_q",
                 "divisor")

    def __init__(self, group: GaloisGroup, h_indices: tuple[int, ...],
                 cochain: dict[int, Mobius], perms: dict[int, tuple],
                 fom: SubfieldPresentation, divisor: Divisor):
        self.group = group
        self.h_indices = h_indices
        self.cochain = cochain
        self.perms = perms
        self.fom = fom
        self.fom_is_q = fom.tower.level == 0
        self.divisor = divisor

    @property
    def aut(self) -> AutGroup:
        return self.divisor.aut

    def __repr__(self) -> str:
        return (f"ModuliData(|H|={len(self.h_indices)}, "
                f"fom_degree={self.fom.tower.degree})")


def field_of_moduli(d: Divisor) -> ModuliData:
    """H = {sigma : sigma(D) ~ D}, one equivalence witness per element
    with its permutation pi of D, phi_sigma(sigma(p_k)) = p_{pi(k)}, and
    the fixed field of H.

    D's Aut is scanned first unless D already holds it, and each witness
    is the first match of sigma(D)'s signature among D's ordered triples,
    on the residues that scan kept (``Divisor.galois_witness``). Cosets
    are eliminated in blocks: once sigma is known to lie outside H, so
    does its entire coset sigma H; witnesses for products come from
    composing known witnesses instead of searching again.
    """
    d.aut  # DegreeTooSmall below three points, before any witness search
    group = galois_group(d.tower)
    n = group.order
    cochain: dict[int, Mobius] = {0: Mobius.identity(d.tower)}
    perms = {0: tuple(range(d.degree))}
    not_in_h: set[int] = set()
    for i in range(1, n):
        if i in cochain or i in not_in_h:
            continue
        hit = d.galois_witness(group.elements[i])
        if hit is None:
            not_in_h.update(group.table[i][j] for j in cochain)
            continue
        cochain[i], perms[i] = hit
        # close the witness set under composition:
        # phi_{st} = phi_s o s(phi_t) and pi_{st} = pi_s o pi_t
        changed = True
        while changed:
            changed = False
            for a in list(cochain):
                for b in list(cochain):
                    ab = group.table[a][b]
                    if ab not in cochain:
                        cochain[ab] = cochain[a].compose(
                            conjugate_mobius(group.elements[a], cochain[b]))
                        perms[ab] = tuple(perms[a][k] for k in perms[b])
                        changed = True
        not_in_h = {group.table[j][k] for j in not_in_h for k in cochain}
    h = tuple(sorted(cochain))
    if group.subgroup_closure(h) != frozenset(h):
        raise InternalInconsistency("H is not closed under composition")
    # pi is certified by imaging each point under a scanned witness (or
    # composes such), so a Mobius map sends each sigma(p_k) to p_{pi(k)};
    # fixed by three points, it is phi_sigma once phi_sigma agrees with it
    # on p_0, p_1, p_2
    pts = d.points
    for i in h:
        sigma, pi = group.elements[i], perms[i]
        if set(pi) != set(range(d.degree)) or not all(
                cochain[i].sends(sigma(p.x), sigma(p.y), pts[k].x, pts[k].y)
                for p, k in zip(pts[:3], pi)):
            raise InternalInconsistency("witness does not carry sigma(D) to D")
    fom = fixed_subtower(group, h)
    return ModuliData(group, h, cochain, perms, fom, d)


# ---------------------------------------------------------------------------
# descent cocycle
# ---------------------------------------------------------------------------

class Cocycle:
    """The coboundary defect c_{sigma,tau} of the witness cochain, valued
    in Aut(P1, D)."""

    __slots__ = ("values",)

    def __init__(self, values: dict[tuple[int, int], Mobius]):
        self.values = values

    def __repr__(self) -> str:
        nontriv = sum(1 for v in self.values.values() if not v.is_identity())
        return f"Cocycle({nontriv} nontrivial of {len(self.values)})"


def descent_cocycle(data: ModuliData) -> Cocycle:
    """c_{sigma,tau} = phi_sigma o sigma(phi_tau) o phi_{sigma tau}^-1,
    computed on the points p_k of D.

    Each witness permutes D: phi_i(sigma_i p_k) = p_{pi_i(k)}, with pi_i
    kept in ``data.perms``, so no witness images D here. Then c_{i,j}
    acts on D as pi_i pi_j pi_{ij}^-1, and the twist a -> phi_i o sigma_i(a)
    o phi_i^-1 as pi_i perm(a) pi_i^-1. A Mobius map is fixed by the
    images of three points, so for n >= 3 an element of Aut(P1, D) is
    known by its permutation of D: each value and each twist is looked
    up among the permutations of Aut, and a miss means it leaves Aut.
    The twisted 2-cocycle identity is asserted exactly over all of H^3,
    by lookups in the multiplication table of Aut. Unlike the 1-cocycle
    identities of ``compression`` it is not cut down to generators of H:
    its |H|^3 checks are table lookups. The permutations of Aut are the
    ones the Aut scan read off its cross-ratios (``AutGroup.perms``).
    """
    aut, d = data.aut, data.divisor
    group, h, pi = data.group, data.h_indices, data.perms
    pos = {q: k for k, q in enumerate(aut.perms)}
    if any(set(pi[i]) != set(range(d.degree)) for i in h):
        raise InternalInconsistency("cocycle value moves the divisor")
    # sorting the positions by their images inverts a permutation
    pi_inv = {i: sorted(range(d.degree), key=pi[i].__getitem__) for i in h}
    idx = {(i, j): pos.get(tuple(pi[i][pi[j][k]]
                                 for k in pi_inv[group.table[i][j]]))
           for i in h for j in h}
    if None in idx.values():
        raise InternalInconsistency("cocycle value moves the divisor")
    twist = {i: [pos.get(tuple(pi[i][q[k]] for k in pi_inv[i]))
                 for q in aut.perms] for i in h}
    if any(None in twist[i] for i in h):
        raise InternalInconsistency("twisted Aut element leaves Aut")
    for i in h:
        for j in h:
            ij = group.table[i][j]
            for k in h:
                jk = group.table[j][k]
                if aut.table[idx[(i, j)]][idx[(ij, k)]] != \
                        aut.table[twist[i][idx[(j, k)]]][idx[(i, jk)]]:
                    raise InternalInconsistency("2-cocycle identity fails")
    return Cocycle({key: aut.elements[a] for key, a in idx.items()})


# ---------------------------------------------------------------------------
# Veronese coordinates
# ---------------------------------------------------------------------------

def _veronese_q(u, v):
    """The Veronese quadric as a bilinear form: (u0 v2 + u2 v0)/2 - u1 v1."""
    return (u[0] * v[2] + u[2] * v[0]) * F(1, 2) - u[1] * v[1]


def _sym2_over_det(a, b, c, d):
    """Symmetric square of the matrix [[a, b], [c, d]] divided by its
    determinant; the canonical scale-independent action on Veronese
    coordinates."""
    inv = (a * d - b * c).inverse()
    two = 2
    return [[a * a * inv, two * a * b * inv, b * b * inv],
            [a * c * inv, (a * d + b * c) * inv, b * d * inv],
            [c * c * inv, two * c * d * inv, d * d * inv]]


def _veronese_point(p: ProjPoint):
    x, y = p.x, p.y
    return [x * x, x * y, y * y]


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

class CompressionResult:
    """All artifacts of the quotient-and-descend construction.

    ``divisor_conj`` is kappa(D) over ``tower2``, in D's order, as
    unnormalised (x, y) pairs: kappa sends the fixed points of a generator
    of Aut to 0 and infinity, where it acts as w -> ``zeta`` w. ``basis``
    is the descent basis B, whose columns span the fixed Veronese 3-space;
    the conic is B^T Q B."""

    __slots__ = ("m", "tower2", "zeta", "divisor_conj", "h2_group", "psi",
                 "basis", "conic", "conic_gram_fom")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def quotient_map(self, p: ProjPoint) -> ProjPoint:
        """The quotient map w -> w^m in the conjugated coordinates."""
        return ProjPoint(p.x ** self.m, p.y ** self.m)

    def __repr__(self) -> str:
        return f"CompressionResult(m={self.m}, conic={self.conic!r})"


def _descend(phi: Mobius, m: int) -> Mobius:
    """psi with psi(w^m) = phi(w)^m, for a twisted witness phi.

    For m > 1, phi sends s(kappa D) to kappa D, so it conjugates their
    stabilizers <w -> s(zeta) w> and <w -> zeta w>, which are one group G.
    Normalising G, phi permutes the fixed points 0 and infinity of its
    generator: it is w -> aw or w -> b/w, and psi is phi with its entries
    raised to the m-th power."""
    if m == 1:
        return phi
    a, b, c, d = phi.entries()
    if not (b.is_zero() and c.is_zero() or a.is_zero() and d.is_zero()):
        raise DescentFailure("twisted witness does not normalise Aut")
    return Mobius(a ** m, b ** m, c ** m, d ** m)


def _lift_subgroup(tower2: FieldTower, base: FieldTower, group: GaloisGroup,
                   h_indices: Sequence[int]) -> tuple[GaloisGroup, dict]:
    """All automorphisms of tower2 extending the given subgroup of the
    base tower's group; also the restriction map to base indices.

    tower2 is the base tower plus at most one extra quadratic step. The
    result is Gal(tower2 / fixed field of H), of size |H| or 2|H|.
    """
    extra = tower2.level - base.level
    if extra not in (0, 1):
        raise InternalInconsistency("tower2 must extend the base by one step")
    if extra == 0:
        return group.subgroup(h_indices), dict(enumerate(h_indices))
    lifts: list[GaloisAut] = []
    restriction: dict = {}
    rad = base.element(tower2.rad_coords[base.level])
    for i in h_indices:
        sigma = group.elements[i]
        images = [tower2.embed(img) for img in sigma.images]
        conj = tower2.embed(sigma(rad))
        root = conj.sqrt()
        if root is None:
            raise DescentFailure(
                "conjugated fixed-point radicand has no square root; the "
                "automorphism does not extend")
        for r in (root, -root):
            aut = GaloisAut(tower2, tuple(images + [r]))
            lifts.append(aut)
            restriction[aut.key()] = i
    g2 = GaloisGroup(tower2, tuple(lifts))
    restr = {k: restriction[g2.elements[k].key()] for k in range(g2.order)}
    return g2, restr


def compression(d: Divisor, data: ModuliData) -> CompressionResult:
    """The conic model of P1/Aut over the field of moduli.

    Requires cyclic Aut (read from ``data``); the quotient is taken in
    coordinates where a generator acts as w -> zeta w, and the Veronese
    embedding of the target is descended through the exact
    symmetric-square cocycle.

    Every twisted witness is checked on three moved points of D against its
    permutation, every descended map psi on a test point, and the psi
    1-cocycle identity, up to scale, for s in a greedy generating set S of
    H2 and every t (``_assert_cocycle`` says why that is enough). That rho
    = Sym^2(psi)/det(psi) is then an exact cocycle is proved where rho is
    built, not checked, and as v -> rho_s s(v) is an action of H2, each
    projector output is checked for fixity under S only.
    """
    aut = data.aut
    if not aut.is_cyclic():
        raise NonCyclicAut("compression implemented for cyclic Aut only")
    m = aut.order
    base = d.tower

    if m == 1:
        tower2, kappa = base, Mobius.identity(base)
    else:
        gen = aut.generator()
        (p_plus, p_minus), tower2 = fixed_points(gen)
        kappa = Mobius(p_plus.y, -p_plus.x, p_minus.y, -p_minus.x)
    kmat, kinv = kappa.matrix(tower2), kappa.inverse().matrix(tower2)
    zeta = tower2.one()
    if m > 1:
        (a, b), (c, e) = mat_mul(mat_mul(kmat, gen.matrix(tower2)), kinv)
        if not (b.is_zero() and c.is_zero()):
            raise InternalInconsistency("conjugated generator is not diagonal")
        # w -> zeta w has order m exactly when zeta is a primitive m-th
        # root of unity
        zeta, one = a / e, tower2.one()
        if zeta ** m != one or any(zeta ** k == one for k in range(1, m)):
            raise InternalInconsistency("generator order mismatch")

    h2, restr = _lift_subgroup(tower2, base, data.group, data.h_indices)
    # kappa(D) in D's order as unnormalised pairs: the checks cross-multiply
    moved = [kappa.image(tower2.embed(p.x), tower2.embed(p.y))
             for p in d.points]

    # twisted maps phi~ = kappa o phi o s(kappa)^-1, each the one matrix
    # product kappa phi s(kappa^-1) normalised once, send s(kappa p_k) to
    # kappa p_{pi(k)} for every k; a Mobius map is fixed by three points,
    # so three of them check it
    phit: dict[int, Mobius] = {}
    for k, s in enumerate(h2.elements):
        i = restr[k]
        twisted = mat_mul(mat_mul(kmat, data.cochain[i].matrix(tower2)),
                          mat_map(s, kinv))
        phit[k] = Mobius(*twisted[0], *twisted[1])
        if not all(phit[k].sends(s(x), s(y), *moved[j])
                   for (x, y), j in zip(moved[:3], data.perms[i])):
            raise InternalInconsistency("twisted witness fails on moved divisor")

    # descend each phi~ through q(w) = w^m, psi o q = q o phi~, checked at 5
    five, one = tower2.from_rational(5), tower2.one()
    psi: dict[int, Mobius] = {}
    for k in range(h2.order):
        psi[k] = _descend(phit[k], m)
        x, y = phit[k].image(five, one)
        if not psi[k].sends(five ** m, one, x ** m, y ** m):
            raise DescentFailure("quotient map does not descend the witness")
    # a trivial H2 has no generators; its one pair (1, 1) is still checked
    gens = h2.generators(range(h2.order)) or [0]
    _assert_cocycle(h2, gens, psi)

    # rho_k = Sym^2(psi_k)/det(psi_k) on Veronese coordinates is an exact
    # matrix cocycle, by proof rather than by a check: Sym^2(M)/det M does
    # not change when M is scaled, is multiplicative (Sym^2 and det are)
    # and commutes with Galois (its entries are rational functions over Q
    # of those of M), so psi_st ~ psi_s s(psi_t) gives rho_st = rho_s s(rho_t)
    rho = [_sym2_over_det(*psi[k].entries()) for k in range(h2.order)]

    # the twisted action v -> rho_k sigma_k(v), and its averaging
    # projector onto the rational 3-space
    def act(k, v):
        return mat_vec(rho[k], list(map(h2.elements[k], v)))

    # the probes alpha_j e_i, over a Q-basis alpha_j of the tower, are a
    # Q-basis of tower2^3, so their projections span the fixed space over
    # the tower; rational probes alone can land in a proper subspace. The
    # projection of alpha e_i is sum_k sigma_k(alpha) rho_k[:, i] / |H2|
    inv_n = F(1, h2.order)
    basis_cols: list[list[FieldElem]] = []
    for j, i in product(range(tower2.degree), range(3)):
        if len(basis_cols) == 3:
            break
        alpha = tower2.element([1 if t == j else 0 for t in range(tower2.degree)])
        conj = [s(alpha) for s in h2.elements]
        w = [dot([r[row][i] for r in rho], conj) * inv_n for row in range(3)]
        if any(act(k, w) != w for k in gens):
            raise InternalInconsistency("projector output is not fixed")
        trial = basis_cols + [w]
        if _cols_independent(trial):
            basis_cols = trial
    if len(basis_cols) < 3:
        raise DescentFailure("fixed space has dimension < 3")

    # conic = B^T Q B, entries provably in the field of moduli
    gram2 = [[_veronese_q(basis_cols[i], basis_cols[j]) for j in range(3)]
             for i in range(3)]
    gram_fom = [[_restrict_to_fom(gram2[i][j], base, data.fom)
                 for j in range(3)] for i in range(3)]
    conic = None
    if data.fom_is_q:
        gram_q = mat_map(FieldElem.as_fraction, gram_fom)
        scale = primitive_scale(x for row in gram_q for x in row)
        conic = TernaryForm(mat_map(lambda x: x * scale, gram_q))
        if not conic.det():
            raise InternalInconsistency("compression conic is singular")

    return CompressionResult(
        m=m, tower2=tower2, zeta=zeta, divisor_conj=moved,
        h2_group=h2, psi=psi, basis=transpose(basis_cols), conic=conic,
        conic_gram_fom=gram_fom)


def _assert_cocycle(group: GaloisGroup, gens: list[int],
                    psi: dict[int, Mobius]) -> None:
    """Assert psi_st = psi_s s(psi_t) up to scale for s in ``gens`` and
    every t, comparing the unnormalised product u with psi_st.

    With ``gens`` generating the group this is as strong as checking
    every pair: the pairs (s, 1) give psi_1 = 1, and if the identity holds
    for g it holds for sg, as psi_{sgt} = psi_s s(psi_g g(psi_t)) =
    psi_{sg} sg(psi_t), all in PGL2. The first nonzero entry of the
    Mobius map psi_st is 1, so u ~ psi_st says u = u[lead] psi_st.
    """
    for s in gens:
        sigma, ps = group.elements[s], psi[s].matrix(group.tower)
        for t, pt in psi.items():
            prod = mat_mul(ps, mat_map(sigma, pt.matrix(group.tower)))
            u, target = prod[0] + prod[1], psi[group.table[s][t]].entries()
            lam = u[next(j for j in range(4) if target[j])]
            if not lam or any(x != lam * y for x, y in zip(u, target)):
                raise InternalInconsistency("1-cocycle identity fails for psi")


def _cols_independent(cols) -> bool:
    """Linear independence over the tower (not merely over Q; a fixed
    vector and a tower multiple of it are Q-independent but useless)."""
    if len(cols) == 1:
        return any(cols[0])
    if len(cols) == 2:
        return not proportional(*cols)
    return bool(det(cols))


def _restrict_to_fom(x: FieldElem, base: FieldTower,
                     fom: SubfieldPresentation) -> FieldElem:
    """Move an element of tower2 known to lie in the field of moduli into
    the fom presentation (fom sits inside the base tower)."""
    if x.tower == base:
        return fom.restrict(x)
    deg = base.degree
    if any(x.coords[deg:]):
        raise InternalInconsistency("conic entry does not lie in the base tower")
    return fom.restrict(base.element(x.coords[:deg]))


# ---------------------------------------------------------------------------
# compressed divisor
# ---------------------------------------------------------------------------

class CompressedDivisor:
    """Galois orbits of the image of D on the descended conic."""

    __slots__ = ("orbits", "degrees")

    def __init__(self, orbits, degrees):
        self.orbits = orbits
        self.degrees = degrees

    def all_degrees_even(self) -> bool:
        return all(deg % 2 == 0 for deg in self.degrees)

    def __repr__(self) -> str:
        return f"CompressedDivisor(degrees={self.degrees})"


def compressed_divisor(d: Divisor, data: ModuliData,
                       comp: CompressionResult) -> CompressedDivisor:
    """Image points of D under the quotient map, grouped into orbits of
    the twisted Galois action and written in conic coordinates."""
    # in any order: the orbits partition the images and are sorted below
    images = list(dict.fromkeys(ProjPoint(x ** comp.m, y ** comp.m)
                                for x, y in comp.divisor_conj))
    h2 = comp.h2_group
    point_set = set(images)
    orbits = []
    degrees = []
    remaining = images
    while remaining:
        orbit = set()
        stack = [remaining[0]]
        while stack:
            y = stack.pop()
            if y in orbit:
                continue
            orbit.add(y)
            for k in range(h2.order):
                s = h2.elements[k]
                moved = comp.psi[k](ProjPoint(s(y.x), s(y.y)))
                if moved not in point_set:
                    raise InternalInconsistency(
                        "twisted action does not permute the image points")
                if moved not in orbit:
                    stack.append(moved)
        orbits.append(sorted_by_coords(orbit, lambda q: (q.x, q.y)))
        degrees.append(len(orbit))
        remaining = [y for y in remaining if y not in orbit]
    # conic coordinates: v = B^{-1} (y0^2, y0 y1, y1^2)
    basis_inv = inverse(comp.basis)
    coord_orbits = []
    for orbit in orbits:
        coords = []
        for y in orbit:
            v = mat_vec(basis_inv, _veronese_point(y))
            lead = next(x for x in v if not x.is_zero())
            inv = lead.inverse()
            coords.append(tuple(x * inv for x in v))
        coord_orbits.append(coords)
    order = sorted_by_coords(range(len(orbits)), lambda t: [
        c for pt in coord_orbits[t] for c in pt])
    order.sort(key=degrees.__getitem__)  # stable: by degree, then coords
    return CompressedDivisor([coord_orbits[t] for t in order],
                             [degrees[t] for t in order])


# ---------------------------------------------------------------------------
# ramification ledger
# ---------------------------------------------------------------------------

class RamificationLedger:
    """Ramification data of a tame covering of the line."""

    __slots__ = ("entries", "covering_degree")

    def __init__(self, entries, covering_degree):
        self.entries = entries  # (label, e, d, residue degree)
        self.covering_degree = covering_degree
        for (_, e, dd, _) in entries:
            if dd != e - 1:
                raise InternalInconsistency("tame entry must have d = e - 1")
        total = sum(dd * res for (_, _, dd, res) in entries)
        if total != 2 * covering_degree - 2:
            raise InternalInconsistency("Riemann-Hurwitz sum is off")

    def __repr__(self) -> str:
        return (f"RamificationLedger(degree={self.covering_degree}, "
                f"entries={self.entries})")


def quotient_ramification(m: int) -> RamificationLedger:
    """The ledger of w -> w^m: 0 and infinity totally ramified."""
    if m < 2:
        raise ValueError("quotient ramification needs m >= 2")
    entries = [("0", m, m - 1, 1), ("infinity", m, m - 1, 1)]
    return RamificationLedger(entries, m)


# ---------------------------------------------------------------------------
# quaternion decomposition of the obstruction class
# ---------------------------------------------------------------------------

def cocycle_class_to_quaternion(coc: Cocycle, data: ModuliData
                                ) -> list[tuple[int, int]]:
    """The class of a {+-1}-valued 2-cocycle as quaternion symbols.

    Needs Aut of order at most 2 (central values), H elementary abelian
    with the base field as field of moduli. Writing H = (Z/2)^r with a
    dual basis of radicands d_i, the class decomposes via the alternating
    pairing A(u,v) = f(u,v) + f(v,u) into symbols (d_i, d_j), and via the
    diagonal Q(u) = f(u,u) into symbols (d_i, -1); both are coboundary
    invariants, so no normal form of the cocycle is needed.
    """
    group = data.group
    h = data.h_indices
    nontrivial = {v for v in coc.values.values() if not v.is_identity()}
    if len(nontrivial) > 1 or not all(map(_is_involution, nontrivial)):
        raise UnsupportedAut(
            "cocycle values must lie in a single group of order 2")
    if not data.fom_is_q:
        raise NonElementaryGaloisQuotient(
            "decomposition implemented over Q only")
    for i in h:
        for j in h:
            if group.table[i][j] != group.table[j][i] or \
                    group.table[i][i] != 0:
                raise NonElementaryGaloisQuotient(
                    "H must be elementary 2-abelian")

    def bit(i: int, j: int) -> int:
        return 0 if coc.values[(i, j)].is_identity() else 1

    basis = group.generators(h)
    r = len(basis)
    if (1 << r) != len(h):
        raise InternalInconsistency("basis does not span H")

    # dual radicands: d_i is fixed by every basis element except e_i
    rads: list[int] = []
    for i in range(r):
        others = [basis[j] for j in range(r) if j != i]
        pres = fixed_subtower(group, group.subgroup_closure(others))
        if pres.tower.level != 1:
            raise InternalInconsistency("dual fixed field is not quadratic")
        rad = pres.tower.rational_radicands()[0]
        if rad.denominator != 1:
            raise InternalInconsistency("radicand must be an integer")
        rads.append(int(rad))

    symbols: list[tuple[int, int]] = []
    for i in range(r):
        for j in range(i + 1, r):
            a_ij = (bit(basis[i], basis[j]) + bit(basis[j], basis[i])) % 2
            if a_ij:
                symbols.append((rads[i], rads[j]))
        if bit(basis[i], basis[i]):
            symbols.append((rads[i], -1))
    return symbols


def _is_involution(m: Mobius) -> bool:
    return m.compose(m).is_identity()
