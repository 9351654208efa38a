"""Deciding whether a divisor pair descends to its field of moduli.

Fast paths settle most inputs without local analysis: noncyclic
automorphism groups, odd degree, and degree 4 always descend. The
remaining cyclic cases are decided over Q by the compression conic: a
rational point certifies a projective-line model (built explicitly for
quadratic descent); no point with even Aut order certifies genuine
failure; no point with odd Aut order leaves a conic model. Every verdict
carries a certificate that can be re-checked independently.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .conic import PlaceEval, TernaryForm, diagonalize, find_point, \
    hasse_solvable, hilbert_symbol
from .divisor import AutGroup, Divisor, compute_aut, conjugate_divisor, \
    conjugate_mobius
from .errors import InternalInconsistency, ModelConstructionFailed, \
    NonElementaryGaloisQuotient, UnsupportedAut
from .moduli import CompressedDivisor, CompressionResult, ModuliData, \
    cocycle_class_to_quaternion, compressed_divisor, compression, \
    descent_cocycle, field_of_moduli
from .projline import Mobius

F = Fraction

DEFINED_ON_P1 = "DefinedOnP1"
DEFINED_ON_CONIC = "DefinedOnConic"
NOT_DEFINED = "NotDefined"
UNSUPPORTED_BASE = "UnsupportedBase"


class Certificate:
    """Machine-checkable evidence for a verdict.

    kind is one of fast_path, p1_model, conic_point, conic_model,
    obstruction; the payload fields used depend on the kind.
    """

    __slots__ = ("kind", "rule", "form", "mobius", "conic", "point",
                 "compressed", "failing", "symbols")

    def __init__(self, kind: str, rule: Optional[str] = None, form=None,
                 mobius: Optional[Mobius] = None,
                 conic: Optional[TernaryForm] = None, point=None,
                 compressed: Optional[CompressedDivisor] = None,
                 failing: Optional[list[PlaceEval]] = None, symbols=None):
        self.kind = kind
        self.rule = rule
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
    __slots__ = ("outcome", "fom", "aut_class", "certificate", "divisor",
                 "aut", "moduli", "compression", "compressed", "notes")

    def __init__(self, outcome, fom, aut_class, certificate, divisor, aut,
                 moduli, comp=None, compressed=None, notes=()):
        self.outcome = outcome
        self.fom = fom
        self.aut_class = aut_class
        self.certificate = certificate
        self.divisor = divisor
        self.aut = aut
        self.moduli = moduli
        self.compression = comp
        self.compressed = compressed
        self.notes = tuple(notes)

    def __repr__(self) -> str:
        return f"Verdict({self.outcome}, aut={self.aut_class.label()})"


def decide(d: Divisor) -> Verdict:
    """Full pipeline: Aut, field of moduli, fast paths, then the conic."""
    if d.degree < 3:
        raise ValueError("need at least three points")
    aut = compute_aut(d)
    data = field_of_moduli(d, aut)
    n = d.degree
    fom_tower = data.fom.tower

    def fast(rule: str, notes=()) -> Verdict:
        cert = Certificate("fast_path", rule=rule)
        return Verdict(DEFINED_ON_P1, fom_tower, aut.tag, cert, d, aut, data,
                       notes=notes)

    if not aut.is_cyclic():
        return fast("noncyclic")
    if n % 2 == 1:
        return fast("n odd")
    if n == 4:
        return fast("n = 4")

    if not data.fom_is_q:
        notes = ["local analysis implemented over Q only; the field of "
                 "moduli is a proper extension"]
        comp = compression(d, data, aut)
        return Verdict(UNSUPPORTED_BASE, fom_tower, aut.tag, None, d, aut,
                       data, comp=comp, notes=notes)

    comp = compression(d, data, aut)
    solvable, failing = hasse_solvable(comp.conic)
    m = aut.order
    if solvable:
        point = find_point(comp.conic)
        if point is None:
            raise InternalInconsistency("solvable conic without a point")
        cert = None
        try:
            form, mob = build_p1_model(d, data, point)
            cert = Certificate("p1_model", form=form, mobius=mob,
                               conic=comp.conic, point=point)
        except ModelConstructionFailed:
            cert = Certificate("conic_point", conic=comp.conic, point=point)
        verdict = Verdict(DEFINED_ON_P1, fom_tower, aut.tag, cert, d, aut,
                          data, comp=comp)
    else:
        cd = compressed_divisor(d, data, comp)
        if not cd.all_degrees_even():
            raise InternalInconsistency(
                "pointless conic with an odd-degree orbit")
        if m % 2 == 0:
            try:
                coc = descent_cocycle(data, d)
                symbols = cocycle_class_to_quaternion(coc, data)
            except (UnsupportedAut, NonElementaryGaloisQuotient):
                symbols = None
            cert = Certificate("obstruction", conic=comp.conic,
                               failing=failing, symbols=symbols)
            verdict = Verdict(NOT_DEFINED, fom_tower, aut.tag, cert, d, aut,
                              data, comp=comp, compressed=cd)
        else:
            cert = Certificate("conic_model", conic=comp.conic,
                               compressed=cd, failing=failing)
            verdict = Verdict(DEFINED_ON_CONIC, fom_tower, aut.tag, cert, d,
                              aut, data, comp=comp, compressed=cd)

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

def _mobius_matrix(m: Mobius):
    a, b, c, d = m.entries()
    return [[a, b], [c, d]]


def _mat2_mul(x, y):
    return [[x[0][0] * y[0][0] + x[0][1] * y[1][0],
             x[0][0] * y[0][1] + x[0][1] * y[1][1]],
            [x[1][0] * y[0][0] + x[1][1] * y[1][0],
             x[1][0] * y[0][1] + x[1][1] * y[1][1]]]


def _mat2_aut(sigma, x):
    return [[sigma(x[0][0]), sigma(x[0][1])],
            [sigma(x[1][0]), sigma(x[1][1])]]


def _mat2_add(x, y):
    return [[x[i][j] + y[i][j] for j in range(2)] for i in range(2)]


def _mat2_scale(c, x):
    return [[c * x[i][j] for j in range(2)] for i in range(2)]


def binary_form_coefficients(d: Divisor) -> list:
    """Coefficients of prod (y_i X - x_i Y), highest X-power first."""
    one = d.tower.one()
    coeffs = [one]
    for p in d.points:
        nxt = [p.y * c for c in coeffs] + [d.tower.zero()]
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] - p.x * c
        coeffs = nxt
    return coeffs


def _rational_form(coeffs) -> list[Fraction]:
    import math
    out = []
    for c in coeffs:
        if not c.is_rational():
            raise InternalInconsistency("form coefficient is irrational")
        out.append(c.as_fraction())
    den = 1
    for c in out:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in out]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    g = g or 1
    lead = next((v for v in ints if v), 1)
    if lead < 0:
        g = -g
    return [F(v, g) for v in ints]


def build_p1_model(d: Divisor, data: ModuliData, point=None
                   ) -> tuple[list[Fraction], Mobius]:
    """A binary form over Q cutting out B^{-1}(D), plus the motion B.

    For quadratic descent the witness is adjusted by an automorphism to a
    strict matrix cocycle (scalars repaired by a norm equation), and B
    comes from the averaging A + P sigma(A). Larger H is attempted by
    brute-force cocycle trivialization and may fail.
    """
    if not data.fom_is_q:
        raise ValueError("model construction implemented over Q only")
    tower = d.tower
    h = data.h_indices
    if len(h) == 1:
        return _rational_form(binary_form_coefficients(d)), \
            Mobius.identity(tower)
    aut = compute_aut(d)
    if len(h) == 2:
        si = next(i for i in h if i != 0)
        sigma = data.group.elements[si]
        phi = data.cochain[si]
        for a in aut.elements:
            cand = a.compose(phi)
            if not cand.compose(conjugate_mobius(sigma, cand)).is_identity():
                continue
            p = _mobius_matrix(cand)
            k = _mat2_mul(p, _mat2_aut(sigma, p))
            lam = k[0][0]
            if k[0][1] or k[1][0] or k[0][0] != k[1][1]:
                raise InternalInconsistency("projective identity not scalar")
            if not lam.is_rational():
                raise InternalInconsistency("cocycle scalar is irrational")
            lam_q = lam.as_fraction()
            rad = tower.rational_radicands()[0]
            sol = find_point(TernaryForm.diagonal(1, -rad, F(-1) / lam_q))
            if sol is None:
                continue
            x, y, z = sol
            c = tower.element([F(x, z), F(y, z)])
            p = _mat2_scale(c, p)
            k = _mat2_mul(p, _mat2_aut(sigma, p))
            if k[0][1] or k[1][0] or k[0][0] != tower.one() \
                    or k[1][1] != tower.one():
                raise InternalInconsistency("scalar repair failed")
            b = _find_invertible(p, sigma, tower)
            mob = Mobius(b[0][0], b[0][1], b[1][0], b[1][1])
            d0 = d.apply(mob.inverse())
            if conjugate_divisor(sigma, d0) != d0:
                raise InternalInconsistency("descended divisor not stable")
            return _rational_form(binary_form_coefficients(d0)), mob
        raise InternalInconsistency(
            "no automorphism adjustment trivializes the quadratic cocycle")
    return _best_effort_model(d, data, aut)


def _find_invertible(p, sigma, tower):
    rng = random.Random(52600814)
    one, zero = tower.one(), tower.zero()
    root = tower.root(tower.level - 1)
    trials = [[[one, zero], [zero, one]],
              [[root, zero], [zero, root]],
              [[root, one], [zero, one]]]
    for _ in range(16):
        # probe with full tower coordinates; rational entries alone can
        # land in the kernel of the averaging
        trials.append([[tower.element([rng.randint(-5, 5)
                                       for _ in range(tower.degree)])
                        for _ in range(2)] for _ in range(2)])
    for a in trials:
        b = _mat2_add(a, _mat2_mul(p, _mat2_aut(sigma, a)))
        det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
        if not det.is_zero():
            return b
    raise InternalInconsistency("no invertible averaging matrix found")


def _best_effort_model(d: Divisor, data: ModuliData, aut: AutGroup):
    """Trivialize the witness cochain by an Aut-valued adjustment, then
    average. Only projective consistency is enforced, so the averaging
    can fail; that is allowed for |H| > 2."""
    h = [i for i in data.h_indices if i != 0]
    group = data.group
    if len(aut.elements) ** len(h) > 4096:
        raise ModelConstructionFailed("adjustment search space too large")
    import itertools
    for choice in itertools.product(aut.elements, repeat=len(h)):
        cand = {0: Mobius.identity(d.tower)}
        for i, a in zip(h, choice):
            cand[i] = a.compose(data.cochain[i])
        ok = True
        for i in data.h_indices:
            si = group.elements[i]
            for j in data.h_indices:
                ij = group.table[i][j]
                if cand[i].compose(conjugate_mobius(si, cand[j])) != cand[ij]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        rng = random.Random(91160252)
        for _ in range(12):
            a = [[d.tower.from_rational(rng.randint(-4, 4)) for _ in range(2)]
                 for _ in range(2)]
            b = None
            for i in data.h_indices:
                si = group.elements[i]
                term = _mat2_mul(_mobius_matrix(cand[i]), _mat2_aut(si, a))
                b = term if b is None else _mat2_add(b, term)
            det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
            if det.is_zero():
                continue
            mob = Mobius(b[0][0], b[0][1], b[1][0], b[1][1])
            d0 = d.apply(mob.inverse())
            if all(conjugate_divisor(group.elements[i], d0) == d0
                   for i in data.h_indices):
                return _rational_form(binary_form_coefficients(d0)), mob
    raise ModelConstructionFailed("cochain does not trivialize strictly")


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
        return _verify_fast_path(d, v, cert)

    if cert.kind == "p1_model":
        if v.outcome != DEFINED_ON_P1:
            return _fail("model certificate with wrong outcome")
        coeffs = cert.form
        if len(coeffs) != d.degree + 1:
            return _fail("form degree mismatch")
        if not all(isinstance(c, Fraction) for c in coeffs):
            return _fail("form coefficients not rational")
        d0 = d.apply(cert.mobius.inverse())
        n = d.degree
        for p in d0.points:
            val = d.tower.zero()
            for k, c in enumerate(coeffs):
                val = val + (p.x ** (n - k)) * (p.y ** k) * c
            if not val.is_zero():
                return _fail("form does not vanish on the descended divisor")
        return VerifyResult(True)

    if cert.kind == "conic_point":
        if v.outcome != DEFINED_ON_P1:
            return _fail("point certificate with wrong outcome")
        x = [F(t) for t in cert.point]
        g = cert.conic.gram
        val = sum(g[i][j] * x[i] * x[j] for i in range(3) for j in range(3))
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


def _verify_fast_path(d: Divisor, v: Verdict, cert: Certificate
                      ) -> VerifyResult:
    rule = cert.rule
    if rule == "noncyclic":
        if compute_aut(d).is_cyclic():
            return _fail("Aut is cyclic; noncyclic rule does not apply")
        return VerifyResult(True)
    if rule == "n odd":
        if d.degree % 2 == 0:
            return _fail("degree is even; odd rule does not apply")
        return VerifyResult(True)
    if rule == "n = 4":
        if d.degree != 4:
            return _fail("degree is not 4")
        return VerifyResult(True)
    if rule == "n = 6":
        if d.degree != 6:
            return _fail("degree is not 6")
        return VerifyResult(True)
    if rule == "cyclic-odd":
        aut = compute_aut(d)
        if not aut.is_cyclic() or aut.order % 2 == 0:
            return _fail("Aut is not cyclic of odd order")
        return VerifyResult(True)
    return _fail(f"unknown fast path rule {rule}")
