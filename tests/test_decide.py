"""End-to-end verdicts, explicit models, and certificate verification."""

import importlib
from fractions import Fraction as F

import pytest

from p1moduli.conic import INFINITE_PLACE, PlaceEval, hilbert_symbol
from p1moduli.decide import (
    DEFINED_ON_P1, NOT_DEFINED, UNSUPPORTED_BASE, Certificate,
    binary_form_coefficients, build_p1_model, decide, verify_certificate)
from p1moduli.divisor import Divisor, compute_aut, conjugate_divisor
from p1moduli.errors import InternalInconsistency, UnsupportedAut
from p1moduli.moduli import field_of_moduli
from p1moduli.projline import Mobius, ProjPoint
from p1moduli.qfield import FieldTower, galois_group, multiquadratic_tower

QQ = FieldTower()


def fin(tower, value):
    if isinstance(value, (int, F)):
        value = tower.from_rational(F(value))
    return ProjPoint.finite(value)


def rational_divisor(*values):
    return Divisor([fin(QQ, v) for v in values])


def klein_four():
    pts = [fin(QQ, v) for v in (0, 1, -1)]
    pts.append(ProjPoint.infinity(QQ))
    return Divisor(pts)


def twisted_six():
    t = multiquadratic_tower([2])
    r = t.root(0)
    shift = Mobius(t.one(), r, t.zero(), t.one())
    base = Divisor([fin(t, v) for v in (0, 1, 3, 7, 12, 20)])
    return base.apply(shift)


def six_with_sqrt2():
    # three free <2/z>-orbits, none containing the fixed points
    t = multiquadratic_tower([2])
    r = t.root(0)
    pts = [r * 3, -r * 3, r / 3, -r / 3, t.one(), t.from_rational(2)]
    return Divisor([ProjPoint.finite(v) for v in pts])


def moduli_mismatch_six():
    # orbits {±3√2, ±√2/3} and {2+√3, 4-2√3} under 2/z; the last orbit has
    # norm-one generator so no Mobius repairs the √3 conjugation
    t = multiquadratic_tower([2, 3])
    s2, s3 = t.root(0), t.root(1)
    vals = [s2 * 3, -s2 * 3, s2 / 3, -s2 / 3, s3 + 2, s3 * (-2) + 4]
    return Divisor([ProjPoint.finite(v) for v in vals])


def obstructed_eight():
    t = multiquadratic_tower([-1, 2, 3])
    i, s2, s3 = t.root(0), t.root(1), t.root(2)
    z1 = s2 * (i + 1)
    z3 = (i - 1) / (s2 * 2)
    z5 = s3 * (i * 2 + 1)
    z7 = (i - 2) / (s3 * 5)
    vals = [z1, -z1, z3, -z3, z5, -z5, z7, -z7]
    return Divisor([ProjPoint.finite(v) for v in vals])


def symbols_agree(symbols, target):
    places = {INFINITE_PLACE, 2}
    nums = [abs(x) for s in symbols for x in s] + [abs(x) for x in target]
    for v in nums:
        p = 3
        while p * p <= v:
            if v % p == 0:
                places.add(p)
                while v % p == 0:
                    v //= p
            p += 2
        if v > 2:
            places.add(v)
    for place in places:
        prod = 1
        for a, b in symbols:
            prod *= hilbert_symbol(a, b, place)
        if prod != hilbert_symbol(target[0], target[1], place):
            return False
    return True


# ---------------------------------------------------------------------------
# fast paths
# ---------------------------------------------------------------------------

def test_klein_four_is_noncyclic_fast_path():
    v = decide(klein_four())
    assert v.outcome == DEFINED_ON_P1
    assert v.certificate.kind == "fast_path"
    assert v.certificate.rule == "noncyclic"
    assert verify_certificate(klein_four(), v)


def test_odd_degree_fast_path():
    d = rational_divisor(0, 1, 2, 3, 7)
    v = decide(d)
    assert v.outcome == DEFINED_ON_P1
    assert v.certificate.rule in ("n odd", "noncyclic")
    assert verify_certificate(d, v)


def test_degree_two_rejected():
    with pytest.raises(Exception):
        decide(rational_divisor(0, 1))


# ---------------------------------------------------------------------------
# explicit models over Q
# ---------------------------------------------------------------------------

def test_rational_six_gets_p1_model():
    d = rational_divisor(1, 2, -1, -2, 3, F(2, 3))
    v = decide(d)
    assert v.outcome == DEFINED_ON_P1
    assert v.certificate.kind == "p1_model"
    assert v.certificate.mobius.is_identity()
    assert verify_certificate(d, v)


def test_six_with_sqrt2_model():
    d = six_with_sqrt2()
    v = decide(d)
    assert v.outcome == DEFINED_ON_P1
    assert v.certificate.kind == "p1_model"
    assert all(isinstance(c, F) for c in v.certificate.form)
    assert verify_certificate(d, v)


def test_twisted_six_descends_with_nontrivial_motion():
    d = twisted_six()
    v = decide(d)
    assert v.outcome == DEFINED_ON_P1
    assert v.certificate.kind == "p1_model"
    assert verify_certificate(d, v)
    # the descended divisor is stable under the full Galois group
    mob = v.certificate.mobius
    d0 = d.apply(mob.inverse())
    group = galois_group(d.tower)
    for sigma in group.elements:
        assert conjugate_divisor(sigma, d0) == d0


def test_build_p1_model_form_vanishes():
    d = twisted_six()
    data = field_of_moduli(d)
    form, mob = build_p1_model(d, data)
    assert len(form) == 7
    d0 = d.apply(mob.inverse())
    for p in d0.points:
        val = d.tower.zero()
        for k, c in enumerate(form):
            val = val + (p.x ** (6 - k)) * (p.y ** k) * c
        assert val.is_zero()


def test_binary_form_matches_rational_roots():
    d = rational_divisor(1, -1, 2)
    coeffs = binary_form_coefficients(d)
    vals = [c.as_fraction() for c in coeffs]
    # (X - Y)(X + Y)(X - 2Y) = X^3 - 2X^2 Y - X Y^2 + 2 Y^3
    assert vals == [F(1), F(-2), F(-1), F(2)]


# ---------------------------------------------------------------------------
# genuine failures
# ---------------------------------------------------------------------------

def test_obstructed_eight_is_not_defined():
    d = obstructed_eight()
    v = decide(d)
    assert v.outcome == NOT_DEFINED
    assert v.aut.order == 2
    assert v.fom.rationals_only()
    cert = v.certificate
    assert cert.kind == "obstruction"
    places = [pe.place for pe in cert.failing]
    assert places == [INFINITE_PLACE, 2]
    assert cert.symbols, "quaternion decomposition should be available"
    assert symbols_agree(cert.symbols, (-1, -1))
    assert verify_certificate(d, v)


def test_obstructed_eight_orbits_all_even():
    d = obstructed_eight()
    v = decide(d)
    assert v.compressed is not None
    assert v.compressed.all_degrees_even()


def test_obstruction_symbols_refusal_and_internal_error(monkeypatch):
    """A decomposition the cocycle step does not support leaves the
    symbols out; an internal error there propagates instead."""
    # the package attribute p1moduli.decide is the function
    decide_mod = importlib.import_module("p1moduli.decide")

    def refuse(*args):
        raise UnsupportedAut("values outside a group of order 2")

    def broken(*args):
        raise InternalInconsistency("cocycle identity fails")

    monkeypatch.setattr(decide_mod, "cocycle_class_to_quaternion", refuse)
    v = decide(obstructed_eight())
    assert v.outcome == NOT_DEFINED and v.certificate.symbols is None
    monkeypatch.setattr(decide_mod, "descent_cocycle", broken)
    with pytest.raises(InternalInconsistency):
        decide(obstructed_eight())


# ---------------------------------------------------------------------------
# unsupported base field
# ---------------------------------------------------------------------------

def test_moduli_field_extension_refused():
    d = moduli_mismatch_six()
    v = decide(d)
    assert v.outcome == UNSUPPORTED_BASE
    assert v.certificate is None
    assert v.fom.rational_radicands() == [F(3)]
    assert v.compression is not None and v.compression.conic is None
    assert verify_certificate(d, v)


# ---------------------------------------------------------------------------
# certificate tampering
# ---------------------------------------------------------------------------

def test_fast_path_rule_mismatch_detected():
    d = rational_divisor(1, 2, -1, -2, 3, F(2, 3))
    v = decide(d)
    v.certificate = Certificate("fast_path", rule="n odd")
    res = verify_certificate(d, v)
    assert not res and "odd" in res.reason


def test_fake_failing_place_detected():
    d = obstructed_eight()
    v = decide(d)
    v.certificate.failing = [PlaceEval(7, -1), PlaceEval(11, -1)]
    res = verify_certificate(d, v)
    assert not res and "7" in res.reason


def test_corrupted_model_detected():
    d = six_with_sqrt2()
    v = decide(d)
    bad = list(v.certificate.form)
    bad[0] += 1
    v.certificate.form = bad
    assert not verify_certificate(d, v)


def test_wrong_outcome_for_certificate_detected():
    d = rational_divisor(1, 2, -1, -2, 3, F(2, 3))
    v = decide(d)
    v.outcome = NOT_DEFINED
    assert not verify_certificate(d, v)
