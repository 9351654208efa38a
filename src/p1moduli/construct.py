"""Constructing divisors that fail to descend, and related normal forms.

The generator starts from a nonsplit quaternion symbol (a, b), takes the
pointless conic a x^2 + b y^2 = z^2, parametrizes it over Q(sqrt a), and
pulls a rational divisor back through the double cover ramified at a
conjugate pair of points. The resulting divisor of even degree n >= 8 has
field of moduli Q but is not defined over Q; the engine's verdict is
recomputed and checked on every generated instance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .conic import Parametrization, TernaryForm, find_point, hasse_solvable, \
    parametrize
from .decide import DEFINED_ON_CONIC, NOT_DEFINED, Verdict, decide
from .divisor import AutGroup, Divisor, compute_aut, conjugate_divisor
from .errors import BadDegree, GenusTooSmall, HypothesesNotMet, \
    InternalInconsistency, NotAnInvolution, RetriesExhausted, SplitSymbol, \
    TangentLine
from .intmath import squarefree_part
from .linalg import cross, det, dot, proportional
from .projline import Mobius, ProjPoint, fixed_points, mobius_from_triples, \
    zero_point
from .qfield import FieldElem, FieldTower, galois_group, tower_extend

F = Fraction
QQ = FieldTower()

_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


class CounterexampleSpec:
    """Input data for the generator: a nonsplit symbol, an even degree
    n >= 8, and a seed making retries reproducible."""

    __slots__ = ("a", "b", "n", "seed")

    def __init__(self, a: int, b: int, n: int, seed: int = 0):
        if not all(v != 0 and squarefree_part(v) == v for v in (a, b)):
            raise ValueError("symbol entries must be nonzero and squarefree")
        if n < 8 or n % 2:
            raise BadDegree(f"need even degree >= 8, got {n}")
        self.a = a
        self.b = b
        self.n = n
        self.seed = seed

    def __repr__(self) -> str:
        return (f"CounterexampleSpec(a={self.a}, b={self.b}, "
                f"n={self.n}, seed={self.seed})")


class DoubleCoverData:
    """Geometric witness package for one generated counterexample.

    The cover sends z to the conic point with parameter value z^2; its
    deck involution -z acts on the divisor, and E collects the rational
    line sections downstairs whose reduced preimage is the divisor.
    """

    __slots__ = ("spec", "conic", "parametrization", "nu", "p", "pbar",
                 "sections", "divisor", "deck")

    def __init__(self, spec, conic, parametrization, nu, p, pbar, sections,
                 divisor, deck):
        self.spec = spec
        self.conic = conic
        self.parametrization = parametrization
        self.nu = nu
        self.p = p
        self.pbar = pbar
        self.sections = tuple(sections)
        self.divisor = divisor
        self.deck = deck

    def cover(self, points: Sequence[ProjPoint]) -> list[tuple]:
        """Images on the conic, in unnormalised homogeneous coordinates,
        of points of the covering line that share one tower; nu^-1 and the
        parametrisation are embedded in that tower once."""
        t = points[0].tower
        nu_inv = self.nu.embed(t).inverse()
        par = Parametrization(self.parametrization.form, [
            tuple(map(t.embed, c)) for c in self.parametrization.coeffs],
            map(t.embed, self.parametrization.base))
        return [par.apply(*nu_inv.image(z.x * z.x, z.y * z.y))
                for z in points]

    @property
    def section_points(self) -> list:
        return [pt for _, pair in self.sections for pt in pair]

    def __repr__(self) -> str:
        return f"DoubleCoverData({self.spec!r})"


class Deg6Form:
    """Degree-6 normal form {0, oo, 1, -1, lam, -lam} with the motion
    that produced it. lam is only well defined up to the orbit
    {lam, -lam, 1/lam, -1/lam}, reported in full."""

    __slots__ = ("lam", "mobius", "orbit")

    def __init__(self, lam: FieldElem, mobius: Mobius, orbit):
        self.lam = lam
        self.mobius = mobius
        self.orbit = tuple(orbit)

    def __repr__(self) -> str:
        return f"Deg6Form(lam={self.lam!r})"


# ---------------------------------------------------------------------------
# conic sections and parametrization bookkeeping
# ---------------------------------------------------------------------------

def _param_of_point(par: Parametrization, pt: Sequence) -> ProjPoint:
    """The parameter (s : t) whose image is proportional to pt.

    With p the base point, lead its first nonzero index and o0 < o1 the
    others, X(s, t) = f(v) p - 2 B(p, v) v for v = s e_o0 + t e_o1, so
    p_lead pt_o - pt_lead p_o is linear in (s, t) for pt not ~ p; pt ~ p
    has the tangent's parameter, B(p, v) = 0. Verified by evaluation.
    """
    p = par.base
    lead = next(i for i in range(3) if p[i])
    o0, o1 = (i for i in range(3) if i != lead)
    s = pt[o0] * p[lead] - pt[lead] * p[o0]
    t = pt[o1] * p[lead] - pt[lead] * p[o1]
    if not (s or t):
        gp = [dot(pt, row) for row in par.form.gram]
        s, t = gp[o1], -gp[o0]
    r = ProjPoint(s, t)
    if not proportional(par.apply(r.x, r.y), pt):
        raise InternalInconsistency("point is not in the parametrized image")
    return r


def _mu_value(par: Parametrization, nu: Mobius, pt: Sequence) -> ProjPoint:
    return nu.apply(_param_of_point(par, pt))


def line_section_divisor(form: TernaryForm, line: Sequence[Fraction]
                         ) -> tuple[FieldTower, tuple]:
    """The two conic points cut out by a rational line.

    They are conjugate over Q(sqrt disc) of the restricted binary
    quadratic; a double intersection raises TangentLine. Rational pairs
    (split discriminant) come back over the rational tower.
    """
    ell = [F(v) for v in line]
    if all(v == 0 for v in ell):
        raise ValueError("zero line")
    lead = next(i for i in range(3) if ell[i])
    others = [i for i in range(3) if i != lead]
    basis = []
    for idx in others:
        vec = [F(0)] * 3
        vec[idx] = F(1)
        vec[lead] = -ell[idx] / ell[lead]
        basis.append(vec)
    p0, p1 = basis
    qa = form.evaluate(p0)
    qb = 2 * form.polar(p0, p1)
    qc = form.evaluate(p1)
    disc = qb * qb - 4 * qa * qc
    if disc == 0:
        raise TangentLine("line is tangent to the conic")
    if qa == 0:
        tower = QQ
        params = [(F(1), F(0)), (-qc, qb)]
        pts = []
        for s, t in params:
            pts.append(tuple(tower.from_rational(p0[c] * s + p1[c] * t)
                             for c in range(3)))
    else:
        tower = tower_extend(QQ, disc).tower
        sq = tower.from_rational(disc).sqrt()
        if sq is None:
            raise InternalInconsistency("discriminant root missing")
        inv = F(1, 2) / qa
        pts = []
        for root in (sq, -sq):
            s = (root - qb) * inv
            pts.append(tuple(s * p0[c] + p1[c] for c in range(3)))
    for pt in pts:
        val = form.evaluate(pt)
        if val:
            raise InternalInconsistency("section point misses the conic")
    return tower, tuple(pts)


def _normalised(v: Sequence) -> tuple | None:
    """v divided by its first nonzero coordinate, None for v = 0: nonzero
    vectors are proportional exactly when these are equal."""
    lead = next((c for c in v if c), None)
    if lead is None:
        return None
    inv = lead.inverse()
    return tuple(c * inv for c in v)


def _rational_line_through(p: Sequence, q: Sequence) -> tuple:
    """The line through two conjugate points, verified rational."""
    line = _normalised(cross(p, q))
    if line is None:
        raise InternalInconsistency("points coincide; no unique line")
    if not all(v.is_rational() for v in line):
        raise InternalInconsistency("chord of a conjugate pair must be "
                                    "rational")
    return tuple(v.as_fraction() for v in line)


# ---------------------------------------------------------------------------
# group-theoretic checks
# ---------------------------------------------------------------------------

def check_self_centralizing(group: AutGroup, g: Mobius) -> bool:
    """Whether the involution g is its own centralizer in the group.

    When it is, |group|/2 is odd (any finite Mobius group with a
    self-centralizing involution has this property); that consequence is
    asserted as a runtime sanity check.
    """
    try:
        idx = group.index_of(g)
    except ValueError:
        raise NotAnInvolution("element is not in the group")
    if idx == 0 or not g.compose(g).is_identity():
        raise NotAnInvolution("element does not have order two")
    if group.centralizer_size(idx) != 2:
        return False
    if (group.order // 2) % 2 == 0:
        raise InternalInconsistency(
            "self-centralizing involution in a group of order divisible "
            "by four")
    return True


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

def _conjugation(tower: FieldTower):
    group = galois_group(tower)
    return group.elements[1]


def gen_counterexample(spec: CounterexampleSpec,
                       max_retries: int = 40
                       ) -> tuple[DoubleCoverData, Verdict]:
    """A degree-n divisor with field of moduli Q that is not defined
    over Q, realizing the conic of the symbol (a, b) as its obstruction.

    Deterministic in the seed; draws are rejected until the deck
    involution is self-centralizing in the full automorphism group, and
    the final verdict is recomputed and asserted.
    """
    a, b, n = spec.a, spec.b, spec.n
    conic = TernaryForm.diagonal(a, b, -1)
    solvable, _ = hasse_solvable(conic)
    if solvable:
        raise SplitSymbol(f"({a}, {b}) is split everywhere")

    ta = tower_extend(QQ, a).tower
    alpha = ta.from_rational(a).sqrt()
    one, zero = ta.one(), ta.zero()
    p0 = (one, zero, alpha)
    pbar = (one, zero, -alpha)
    par = parametrize(conic, p0)
    sig = _conjugation(ta)

    tp = _param_of_point(par, p0)
    tpb = _param_of_point(par, pbar)
    nu = Mobius(tp.y, -tp.x, tpb.y, -tpb.x)
    nu = _normalize_twist(par, nu, sig, a, b, alpha)

    pairs = n // 4 if n % 4 == 0 else (n - 2) // 4
    include_ram = n % 4 == 2
    rng = random.Random(f"counterexample:{a}:{b}:{n}:{spec.seed}")

    for _ in range(max_retries):
        drawn = _draw_pairs(rng, pairs, a, b)
        if drawn is None:
            continue
        rads, cs = drawn
        built = _build_divisor(ta, a, b, rads, cs, include_ram)
        if built is None:
            continue
        big, divisor = built
        aut = compute_aut(divisor)
        deck = Mobius.from_rationals(big, -1, 0, 0, 1)
        try:
            deck_in = aut.index_of(deck)
        except ValueError:
            raise InternalInconsistency("deck involution lost")
        if not check_self_centralizing(aut, aut.elements[deck_in]):
            continue

        sections = _assemble_sections(conic, par, nu, sig, ta, alpha, b,
                                      rads, cs, include_ram, p0, pbar)
        _check_bookkeeping(spec, sections, divisor, include_ram)
        data = DoubleCoverData(spec, conic, par, nu, p0, pbar, sections,
                               divisor, deck)
        _check_cover(data, big)
        verdict = decide(divisor)
        if verdict.outcome != NOT_DEFINED or not verdict.fom.rationals_only():
            raise InternalInconsistency(
                "generated divisor does not realize the obstruction")
        return data, verdict
    raise RetriesExhausted(f"no generic draw after {max_retries} attempts")


def _normalize_twist(par, nu, sig, a, b, alpha):
    """Rescale nu so that conjugating the coordinate gives w -> b/w.

    The mismatch factor is a norm from Q(sqrt a) precisely because the
    parametrized conic represents the same symbol class as (a, b); the
    norm equation is solved by find_point.
    """
    ta = alpha.tower
    wt = ta.from_rational(7)
    et = par.apply(*nu.inverse().image(wt, ta.one()))
    et_bar = tuple(sig(c) for c in et)
    r_bar = _param_of_point(par, et_bar)
    m2 = nu.apply(r_bar)
    if m2.is_infinity():
        raise InternalInconsistency("test point hit the ramification")
    theta = sig(m2.affine()) * wt
    if not theta.is_rational():
        raise InternalInconsistency("twist factor must be rational")
    target = F(b) / theta.as_fraction()
    point = find_point(TernaryForm.diagonal(1, -a, -target))
    if point is None:
        raise InternalInconsistency("twist normalization norm equation "
                                    "unsolvable")
    x, y, z = point
    c = ta.from_rational(F(x, z)) + alpha * F(y, z)
    nu2 = Mobius.scaling(c).compose(nu)
    check = sig(nu2.apply(r_bar).affine()) * _mu_value(par, nu2, et).affine()
    if check != ta.from_rational(b):
        raise InternalInconsistency("twist normalization failed")
    return nu2


def _draw_pairs(rng, pairs, a, b):
    pool = [p for p in _PRIME_POOL if (a * b) % p != 0]
    if len(pool) < pairs:
        return None
    rads = rng.sample(pool, pairs)
    cs = []
    for _ in range(pairs):
        u = rng.randint(1, 9)
        v = rng.randint(1, 4)
        cs.append((F(u), F(v)))
    return rads, cs


def _build_divisor(ta, a, b, rads, cs, include_ram):
    tower = ta
    for r in [b] + list(rads):
        res = tower_extend(tower, r)
        tower = res.tower
    sqrt_a = tower.from_rational(a).sqrt()
    sqrt_b = tower.from_rational(b).sqrt()
    if sqrt_a is None or sqrt_b is None:
        raise InternalInconsistency("base radicands lost in the tower")
    values = []
    for r, (u, v) in zip(rads, cs):
        sr = tower.from_rational(r).sqrt()
        if sr is None:
            raise InternalInconsistency("pair radicand lost in the tower")
        c = tower.from_rational(u) + sqrt_a * v
        cbar = tower.from_rational(u) - sqrt_a * v
        z1 = sr * c
        z3 = sqrt_b / (sr * cbar)
        values.extend([z1, -z1, z3, -z3])
    pts = [ProjPoint.finite(v) for v in values]
    if include_ram:
        pts.append(ProjPoint.finite(tower.zero()))
        pts.append(ProjPoint.infinity(tower))
    if len(set(pts)) < len(pts):
        return None
    return tower, Divisor(pts)


def _assemble_sections(conic, par, nu, sig, ta, alpha, b, rads, cs,
                       include_ram, p0, pbar):
    sections = []
    if include_ram:
        ram_line = _rational_line_through(p0, pbar)
        sections.append((ram_line, (p0, pbar)))
    nu_inv = nu.inverse()
    for r, (u, v) in zip(rads, cs):
        c = ta.from_rational(u) + alpha * v
        w = c * c * r
        # a normalised parameter: the scale of e reaches the report
        rw = nu_inv.apply(ProjPoint.finite(w))
        e = par.apply(rw.x, rw.y)
        ebar = tuple(sig(x) for x in e)
        line = _rational_line_through(e, ebar)
        tower, pts = line_section_divisor(conic, line)
        if tower != ta:
            raise InternalInconsistency("section pair over unexpected field")
        recovered = all(any(proportional(x, y) for y in (e, ebar))
                        for x in pts)
        if not recovered:
            raise InternalInconsistency("line section does not recover the "
                                        "chosen pair")
        mu_bar = _mu_value(par, nu, ebar).affine()
        cbar = ta.from_rational(u) - alpha * v
        if mu_bar * (cbar * cbar * r) != ta.from_rational(b):
            raise InternalInconsistency("conjugate parameter value is off")
        sections.append((line, (e, ebar)))
    return sections


def _check_bookkeeping(spec, sections, divisor, include_ram):
    deg_e = sum(len(pair) for _, pair in sections)
    shared = 2 if include_ram else 0
    if 2 * deg_e - shared != spec.n or divisor.degree != spec.n:
        raise InternalInconsistency("degree bookkeeping violated")


def _check_cover(data: DoubleCoverData, big: FieldTower):
    e_img = {_normalised(tuple(map(big.embed, pt)))
             for pt in data.section_points}
    *images, over_p, over_pbar = data.cover(
        [*data.divisor.points, ProjPoint.finite(big.zero()),
         ProjPoint.infinity(big)])
    if not all(_normalised(img) in e_img for img in images):
        raise InternalInconsistency("divisor point does not lie over E")
    if not (proportional(over_p, tuple(map(big.embed, data.p)))
            and proportional(over_pbar, tuple(map(big.embed, data.pbar)))):
        raise InternalInconsistency("cover must ramify exactly over the "
                                    "conjugate pair")


# ---------------------------------------------------------------------------
# degree-6 normal form
# ---------------------------------------------------------------------------

def deg6_normal_form(d: Divisor) -> Deg6Form:
    """Normalize a degree-6 divisor to {0, oo, 1, -1, lam, -lam}.

    Requires an order-2 automorphism whose both fixed points belong to
    the divisor. The stabilizing map x -> lam/x is verified, which is the
    mechanism forcing such divisors to descend.
    """
    if d.degree != 6:
        raise HypothesesNotMet("normal form requires degree 6")
    aut = compute_aut(d)
    tower = d.tower
    for g, order in zip(aut.elements, aut.orders):
        if order != 2:
            continue
        (f1, f2), fixed_tower = fixed_points(g)
        if fixed_tower != tower:
            continue
        if f1 not in d or f2 not in d:
            continue
        rest = [p for p in d.points if p not in (f1, f2)]
        e = rest[0]
        m = mobius_from_triples(f1, f2, e, zero_point(tower),
                                ProjPoint.infinity(tower), ProjPoint.finite(tower.one()))
        moved = d.apply(m)
        vals = {p for p in moved.points}
        expected = {ProjPoint.finite(tower.zero()),
                    ProjPoint.infinity(tower),
                    ProjPoint.finite(tower.one()),
                    ProjPoint.finite(-tower.one())}
        lam_pts = [p for p in moved.points if p not in expected]
        if len(lam_pts) != 2 or not expected <= vals:
            continue
        v1, v2 = lam_pts[0].affine(), lam_pts[1].affine()
        if v1 != -v2:
            raise InternalInconsistency("residual points must be opposite")
        lam = v1 if v1.sort_key() >= v2.sort_key() else v2
        if lam.is_zero() or lam == tower.one() or lam == -tower.one():
            raise InternalInconsistency("degenerate normal form")
        swap = Mobius(tower.zero(), lam, tower.one(), tower.zero())
        if moved.apply(swap) != moved:
            raise InternalInconsistency("x -> lam/x must stabilize the "
                                        "normal form")
        orbit = (lam, -lam, lam.inverse(), -lam.inverse())
        return Deg6Form(lam, m, orbit)
    raise HypothesesNotMet("no order-2 automorphism fixes two divisor "
                           "points")


# ---------------------------------------------------------------------------
# hyperelliptic branch loci
# ---------------------------------------------------------------------------

class HyperellipticReport:
    __slots__ = ("genus", "branch_degree", "aut_class", "fom", "verdict",
                 "note")

    def __init__(self, genus, branch_degree, aut_class, fom, verdict):
        self.genus = genus
        self.branch_degree = branch_degree
        self.aut_class = aut_class
        self.fom = fom
        self.verdict = verdict
        self.note = ("reduced-group analysis constrains but does not "
                     "decide descent of the curve itself")

    def __repr__(self) -> str:
        return (f"HyperellipticReport(genus={self.genus}, "
                f"aut={self.aut_class.label()})")


def hyperelliptic_branch_analysis(branch: Divisor, odd_infinity: bool = False
                                  ) -> HyperellipticReport:
    """Analyze the branch divisor of a hyperelliptic curve y^2 = f(x).

    Odd-degree models append the point at infinity. The branch locus
    must have even total degree >= 6 (genus >= 2). The report asserts the
    necessary descent condition: a pointless compression forces a cyclic
    reduced automorphism group.
    """
    pts = list(branch.points)
    if odd_infinity:
        inf = ProjPoint.infinity(branch.tower)
        if inf in branch:
            raise HypothesesNotMet("branch already contains infinity")
        pts.append(inf)
    total = len(pts)
    if total % 2 or total < 6:
        raise GenusTooSmall(f"{total} branch points give genus below two")
    d = Divisor(pts)
    verdict = decide(d)
    if verdict.outcome in (NOT_DEFINED, DEFINED_ON_CONIC):
        if not verdict.aut.is_cyclic():
            raise InternalInconsistency(
                "pointless compression with noncyclic reduced group")
    return HyperellipticReport(total // 2 - 1, total, verdict.aut_class,
                               verdict.fom, verdict)


# ---------------------------------------------------------------------------
# randomized stable-twist inputs
# ---------------------------------------------------------------------------

def random_twisted_divisor(n: int, tower: FieldTower, seed: int = 0
                           ) -> Divisor:
    """A degree-n divisor PGL2-equivalent to a Galois-stable one.

    Builds a stable base set from rational points and full conjugate
    orbits, then applies a random invertible twist over the tower. The
    field of moduli is Q by construction and is asserted.
    """
    if n < 3:
        raise BadDegree("need degree at least three")
    rng = random.Random(f"twist:{n}:{seed}")
    group = galois_group(tower)
    values: list[FieldElem] = []
    keys = set()

    def push(x: FieldElem) -> None:
        if x.coords not in keys:
            keys.add(x.coords)
            values.append(x)

    guard = 0
    while len(values) < n:
        guard += 1
        if guard > 200:
            raise RetriesExhausted("could not assemble a stable base set")
        room = n - len(values)
        if tower.level and room >= 2 and rng.random() < 0.6:
            coords = [F(rng.randint(-5, 5), rng.randint(1, 2))
                      for _ in range(tower.degree)]
            if all(c == 0 for c in coords[1:]):
                continue
            x = tower.element(coords)
            orbit = {sigma(x).coords for sigma in group.elements}
            if len(orbit) <= room and not (orbit & keys):
                for co in sorted(orbit):
                    push(tower.element(co))
        else:
            push(tower.from_rational(F(rng.randint(-9, 9),
                                       rng.randint(1, 3))))
    base = Divisor([ProjPoint.finite(v) for v in values])
    for sigma in group.elements:
        if conjugate_divisor(sigma, base) != base:
            raise InternalInconsistency("base divisor must be stable")
    while True:
        entries = [tower.element([F(rng.randint(-4, 4))
                                  for _ in range(tower.degree)])
                   for _ in range(4)]
        if det([entries[:2], entries[2:]]):
            break
    twisted = base.apply(Mobius(*entries))
    from .moduli import field_of_moduli
    if not field_of_moduli(twisted).fom_is_q:
        raise InternalInconsistency("twisting must preserve the field of "
                                    "moduli")
    return twisted
