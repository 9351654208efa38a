"""Deciding whether a divisor pair descends to its field of moduli.

Fast paths settle most inputs without local analysis: noncyclic
automorphism groups, odd degree, and degree 4 always descend. The
remaining cyclic cases are decided over Q by the compression conic. A
rational point yields a projective-line model (p1_model), except for
m = |Aut| > 1 with |H| > 2, where the point itself is the certificate
(conic_point); no point with even m certifies genuine failure; no point
with odd m leaves a conic model. Every verdict carries a certificate
that can be re-checked independently.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from typing import Optional

from .conic import PlaceEval, TernaryForm, diagonalize, find_point, \
    hasse_solvable, hilbert_symbol, parametrize
from .divisor import AutGroup, Divisor
from .errors import InternalInconsistency, NonElementaryGaloisQuotient, \
    UnsupportedAut
from .intmath import primitive_scale
from .linalg import det, identity, mat_add, mat_map, mat_mul, mat_vec
from .moduli import CompressedDivisor, CompressionResult, ModuliData, \
    cocycle_class_to_quaternion, compressed_divisor, compression, \
    descent_cocycle, field_of_moduli
from .projline import Mobius, ProjPoint, mobius_from_triples

F = Fraction

DEFINED_ON_P1 = "DefinedOnP1"
DEFINED_ON_CONIC = "DefinedOnConic"
NOT_DEFINED = "NotDefined"
UNSUPPORTED_BASE = "UnsupportedBase"


class Certificate:
    """Machine-checkable evidence for a verdict.

    kind is one of fast_path, p1_model, conic_point, conic_model,
    obstruction; the payload fields used depend on the kind. A solvable
    conic gives p1_model, or conic_point when m > 1 and |H| > 2. The
    noncyclic fast path carries two involutions of D (``pair``).
    """

    __slots__ = ("kind", "rule", "pair", "form", "mobius", "conic", "point",
                 "compressed", "failing", "symbols")

    def __init__(self, kind: str, rule: Optional[str] = None, pair=None,
                 form=None, mobius: Optional[Mobius] = None,
                 conic: Optional[TernaryForm] = None, point=None,
                 compressed: Optional[CompressedDivisor] = None,
                 failing: Optional[list[PlaceEval]] = None, symbols=None):
        self.kind = kind
        self.rule = rule
        self.pair = pair
        self.form = form
        self.mobius = mobius
        self.conic = conic
        self.point = point
        self.compressed = compressed
        self.failing = failing
        self.symbols = symbols

    def __repr__(self) -> str:
        extra = f" rule={self.rule}" if self.rule else ""
        return f"Certificate({self.kind}{extra})"


class Verdict:
    """An outcome with its certificate; the divisor, its Aut and the
    field of moduli are read from ``moduli``."""

    __slots__ = ("outcome", "certificate", "moduli", "compression",
                 "compressed", "notes")

    def __init__(self, outcome, certificate, moduli: ModuliData, comp=None,
                 compressed=None, notes=()):
        self.outcome = outcome
        self.certificate = certificate
        self.moduli = moduli
        self.compression = comp
        self.compressed = compressed
        self.notes = tuple(notes)

    @property
    def divisor(self) -> Divisor:
        return self.moduli.divisor

    @property
    def aut(self) -> AutGroup:
        return self.moduli.aut

    @property
    def aut_class(self):
        return self.moduli.aut.tag

    @property
    def fom(self):
        return self.moduli.fom.tower

    def __repr__(self) -> str:
        return f"Verdict({self.outcome}, aut={self.aut_class.label()})"


def decide(d: Divisor) -> Verdict:
    """Full pipeline: Aut (scanned once per divisor object and kept by
    it), field of moduli, fast paths, then the conic."""
    data = field_of_moduli(d)
    aut = data.aut
    n = d.degree

    def fast(rule: str, pair=None) -> Verdict:
        return Verdict(DEFINED_ON_P1,
                       Certificate("fast_path", rule=rule, pair=pair), data)

    if not aut.is_cyclic():
        # every noncyclic finite Mobius group holds two involutions
        invs = [e for e, o in zip(aut.elements, aut.orders) if o == 2]
        return fast("noncyclic", tuple(invs[:2]))
    if n % 2 == 1:
        return fast("n odd")
    if n == 4:
        return fast("n = 4")

    if not data.fom_is_q:
        notes = ["local analysis implemented over Q only; the field of "
                 "moduli is a proper extension"]
        return Verdict(UNSUPPORTED_BASE, None, data,
                       comp=compression(d, data), notes=notes)

    comp = compression(d, data)
    solvable, failing = hasse_solvable(comp.conic)
    m = aut.order
    if solvable:
        point = find_point(comp.conic)
        if point is None:
            raise InternalInconsistency("solvable conic without a point")
        model = build_p1_model(d, data, comp, point)
        if model is None:
            cert = Certificate("conic_point", conic=comp.conic, point=point)
        else:
            cert = Certificate("p1_model", form=model[0], mobius=model[1],
                               conic=comp.conic, point=point)
        verdict = Verdict(DEFINED_ON_P1, cert, data, comp=comp)
    else:
        cd = compressed_divisor(comp)
        if not cd.all_degrees_even():
            raise InternalInconsistency(
                "pointless conic with an odd-degree orbit")
        if m % 2 == 0:
            try:
                coc = descent_cocycle(data)
                symbols = cocycle_class_to_quaternion(coc, data)
            except (UnsupportedAut, NonElementaryGaloisQuotient):
                symbols = None
            cert = Certificate("obstruction", conic=comp.conic,
                               failing=failing, symbols=symbols)
            verdict = Verdict(NOT_DEFINED, cert, data, comp=comp,
                              compressed=cd)
        else:
            cert = Certificate("conic_model", conic=comp.conic,
                               compressed=cd, failing=failing)
            verdict = Verdict(DEFINED_ON_CONIC, cert, data, comp=comp,
                              compressed=cd)

    if verdict.outcome == NOT_DEFINED:
        if not aut.is_cyclic_even():
            raise InternalInconsistency(
                "failure verdict outside the cyclic even case")
        if n == 6:
            raise InternalInconsistency("degree 6 can never fail to descend")
    return verdict


# ---------------------------------------------------------------------------
# explicit projective-line model
# ---------------------------------------------------------------------------

def binary_form_coefficients(pairs) -> list:
    """Coefficients of prod (y_i X - x_i Y) over the pairs (x_i, y_i),
    highest X-power first."""
    tower = pairs[0][0].tower
    coeffs = [tower.one()]
    for x, y in pairs:
        nxt = [y * c for c in coeffs] + [tower.zero()]
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] - x * c
        coeffs = nxt
    return coeffs


def _rational_form(coeffs) -> list[Fraction]:
    # the form of normalised points has first nonzero coefficient +-1, so
    # it is rational exactly when its divisor is stable under the Galois
    # group; it is rescaled to a primitive integer form
    if not all(c.is_rational() for c in coeffs):
        raise InternalInconsistency("descended divisor not stable")
    out = [c.as_fraction() for c in coeffs]
    s = primitive_scale(out)
    return [c * s for c in out]


def build_p1_model(d: Divisor, data: ModuliData, comp: CompressionResult,
                   point) -> Optional[tuple[list[Fraction], Mobius]]:
    """A binary form over Q cutting out B^{-1}(D), plus the motion B, for
    a conic with the rational ``point``. The construction is picked by H,
    the Galois elements whose conjugate of D is equivalent to D:

    - |H| = 1: D is rational, so its own form with B the identity;
    - |H| = 2: the norm-equation path (``_norm_equation_model``);
    - Aut trivial: B from the conic point (``_conic_point_model``);
    - otherwise (m > 1, |H| > 2) None: decide certifies with the point.
    """
    if not data.fom_is_q:
        raise ValueError("model construction implemented over Q only")
    h = data.h_indices
    if len(h) == 1:
        return _descended_model(d, Mobius.identity(d.tower))
    if len(h) == 2:
        return _norm_equation_model(d, data)
    if data.aut.order == 1:
        return _conic_point_model(d, comp, point)
    return None


def _norm_equation_model(d: Divisor, data: ModuliData
                         ) -> tuple[list[Fraction], Mobius]:
    """Quadratic descent: the witness is adjusted by an automorphism to a
    strict matrix cocycle (scalars repaired by a norm equation), and B
    comes from the averaging A + P sigma(A)."""
    tower = d.tower
    si = data.h_indices[1]  # h_indices is sorted, 0 is the identity
    sigma = data.group.elements[si]
    phi = data.cochain[si]
    for a in data.aut.elements:
        p = a.compose(phi).matrix(tower)
        k = mat_mul(p, mat_map(sigma, p))
        lam = k[0][0]
        if k[0][1] or k[1][0] or k[0][0] != k[1][1]:
            continue  # not a projective cocycle
        if not lam.is_rational():
            raise InternalInconsistency("cocycle scalar is irrational")
        lam_q = lam.as_fraction()
        rad = tower.rational_radicands()[0]
        sol = find_point(TernaryForm.diagonal(1, -rad, F(-1) / lam_q))
        if sol is None:
            continue
        x, y, z = sol
        c = tower.element([F(x, z), F(y, z)])
        p = mat_map(lambda e: c * e, p)
        if mat_mul(p, mat_map(sigma, p)) != identity(2):
            raise InternalInconsistency("scalar repair failed")
        b = _find_invertible(p, sigma, tower)
        return _descended_model(d, Mobius(b[0][0], b[0][1], b[1][0], b[1][1]))
    raise InternalInconsistency(
        "no automorphism adjustment trivializes the quadratic cocycle")


def _conic_point_model(d: Divisor, comp: CompressionResult, point
                       ) -> tuple[list[Fraction], Mobius]:
    """With Aut trivial the conic is the twisted line itself: for X a
    rational point of it and C the descent basis, w = C X lies on the
    Veronese quadric, and z = (w0 : w1), or (w1 : w2) when w0 = 0, has
    phi_s(s(z)) = z for every s in H. The map M sending 0, 1, oo to three
    such points then has phi_s s(M) = M, so M^{-1}(D) is Galois-stable."""
    tower = d.tower
    par = parametrize(comp.conic, point)
    zs = []
    for s, t in ((0, 1), (1, 0), (1, 1)):
        w = mat_vec(comp.basis, par.apply(s, t))
        zs.append(ProjPoint(w[1], w[2]) if w[0].is_zero()
                  else ProjPoint(w[0], w[1]))
    std = (ProjPoint.finite(tower.zero()), ProjPoint.finite(tower.one()),
           ProjPoint.infinity(tower))
    return _descended_model(d, mobius_from_triples(*std, *zs))


def _descended_model(d: Divisor, mob: Mobius
                     ) -> tuple[list[Fraction], Mobius]:
    """The rational form of D0 = mob^{-1}(D), read off its normalised
    points, with mob."""
    return _rational_form(binary_form_coefficients(
        [(p.x, p.y) for p in map(mob.inverse(), d.points)])), mob


def _find_invertible(p, sigma, tower):
    rng = random.Random(52600814)
    one, zero = tower.one(), tower.zero()
    root = tower.root(tower.level - 1)
    trials = [[[one, zero], [zero, one]],
              [[root, zero], [zero, root]],
              [[root, one], [zero, one]]]
    # probe with full tower coordinates, drawn only when reached; rational
    # entries alone can land in the kernel of the averaging
    randoms = ([[tower.element([rng.randint(-5, 5)
                                for _ in range(tower.degree)])
                 for _ in range(2)] for _ in range(2)] for _ in range(16))
    for a in chain(trials, randoms):
        b = mat_add(a, mat_mul(p, mat_map(sigma, a)))
        if det(b):
            return b
    raise InternalInconsistency("no invertible averaging matrix found")


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

class VerifyResult:
    __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str = ""):
        self.ok = ok
        self.reason = reason

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"VerifyResult({self.ok}{', ' + self.reason if self.reason else ''})"


def _fail(reason: str) -> VerifyResult:
    return VerifyResult(False, reason)


def verify_certificate(d: Divisor, v: Verdict) -> VerifyResult:
    """Re-check a verdict's certificate from scratch."""
    cert = v.certificate
    if cert is None:
        if v.outcome == UNSUPPORTED_BASE:
            return VerifyResult(True)
        return _fail("missing certificate")

    if cert.kind == "fast_path":
        return _verify_fast_path(d, cert)

    if cert.kind == "p1_model":
        if v.outcome != DEFINED_ON_P1:
            return _fail("model certificate with wrong outcome")
        coeffs = cert.form
        if len(coeffs) != d.degree + 1:
            return _fail("form degree mismatch")
        if not all(isinstance(c, Fraction) for c in coeffs):
            return _fail("form coefficients not rational")
        if not any(coeffs):
            return _fail("the zero form vanishes everywhere")
        inv = cert.mobius.inverse()
        coeffs = [d.tower.from_rational(c) for c in coeffs]
        for p in d.points:
            # Horner's rule at x / y for the image (x : y) of p; at
            # (x : 0) only c_0 survives
            x, y = inv.image(p.x, p.y)
            val = coeffs[0]
            if not y.is_zero():
                z = x / y
                for c in coeffs[1:]:
                    val = val * z + c
            if not val.is_zero():
                return _fail("form does not vanish on the descended divisor")
        return VerifyResult(True)

    if cert.kind == "conic_point":
        if v.outcome != DEFINED_ON_P1:
            return _fail("point certificate with wrong outcome")
        x = [F(t) for t in cert.point]
        val = cert.conic.evaluate(x)
        if val != 0 or all(t == 0 for t in x):
            return _fail("claimed point does not lie on the conic")
        return VerifyResult(True)

    if cert.kind == "conic_model":
        if v.outcome != DEFINED_ON_CONIC:
            return _fail("conic model with wrong outcome")
        if not cert.compressed.all_degrees_even():
            return _fail("odd orbit degree contradicts pointlessness")
        if not cert.failing:
            return _fail("no failing places recorded")
        return _recheck_failing(cert)

    if cert.kind == "obstruction":
        if v.outcome != NOT_DEFINED:
            return _fail("obstruction with wrong outcome")
        if not cert.failing:
            return _fail("no failing places recorded")
        return _recheck_failing(cert)

    return _fail(f"unknown certificate kind {cert.kind}")


def _recheck_failing(cert: Certificate) -> VerifyResult:
    (a, b, c), _ = diagonalize(cert.conic)
    for pe in cert.failing:
        if hilbert_symbol(-a * c, -b * c, pe.place) != -1:
            return _fail(f"Hilbert symbol at {pe.place} is not -1")
    return VerifyResult(True)


def _verify_fast_path(d: Divisor, cert: Certificate) -> VerifyResult:
    rule = cert.rule
    if rule == "noncyclic":
        # g(D) = D puts g in Aut; a cyclic group is abelian and holds at
        # most one involution
        pair = cert.pair or ()
        if len(pair) != 2 or any(g.is_identity() or g.tower != d.tower
                                 or d.apply(g) != d for g in pair):
            return _fail("noncyclic rule needs two automorphisms of D")
        g, h = pair
        if g.compose(h) == h.compose(g) and (g == h or not all(
                x.compose(x).is_identity() for x in pair)):
            return _fail("the pair lies in a cyclic group")
        return VerifyResult(True)
    if rule == "n odd":
        if d.degree % 2 == 0:
            return _fail("degree is even; odd rule does not apply")
        return VerifyResult(True)
    if rule == "n = 4":
        if d.degree != 4:
            return _fail("degree is not 4")
        return VerifyResult(True)
    return _fail(f"unknown fast path rule {rule}")
