"""End-to-end verdicts, explicit models, and certificate verification."""

import importlib
import json
import random
from fractions import Fraction as F

import pytest

from p1moduli import cli
from p1moduli.conic import (INFINITE_PLACE, PlaceEval, TernaryForm,
                            find_point, hilbert_symbol, parametrize)
from p1moduli.construct import _param_of_point, random_twisted_divisor
from p1moduli.decide import (
    DEFINED_ON_CONIC, DEFINED_ON_P1, NOT_DEFINED, UNSUPPORTED_BASE,
    Certificate, binary_form_coefficients, build_p1_model, decide,
    verify_certificate)
from p1moduli.divisor import Divisor, compute_aut, conjugate_divisor
from p1moduli.errors import DegreeTooSmall, InternalInconsistency, \
    UnsupportedAut
from p1moduli.moduli import compression, field_of_moduli
from p1moduli.projline import Mobius, ProjPoint
from p1moduli.qfield import FieldElem, FieldTower, galois_group, \
    multiquadratic_tower

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


def pointless_conic_divisor(n):
    """n points of P1 over Q(i), identified with the conic
    x^2 + y^2 + z^2 = 0, that come in pairs {s, s'} whose images on the
    conic are complex conjugate: the divisor descends to that pointless
    conic, and Aut is trivial."""
    t = multiquadratic_tower([-1])
    i = t.root(0)
    sigma = galois_group(t).elements[1]
    par = parametrize(TernaryForm.diagonal(1, 1, 1), (t.one(), i, t.zero()))
    pts = []
    for s in (i + 1, i + 2, 3 - i * 2, i * 3 + 1)[:n // 2]:
        image = par.apply(s, t.one())
        pts += [ProjPoint.finite(s),
                _param_of_point(par, tuple(sigma(c) for c in image))]
    return Divisor(pts)


def obstructed_eight():
    t = multiquadratic_tower([-1, 2, 3])
    i, s2, s3 = t.root(0), t.root(1), t.root(2)
    z1 = s2 * (i + 1)
    z3 = (i - 1) / (s2 * 2)
    z5 = s3 * (i * 2 + 1)
    z7 = (i - 2) / (s3 * 5)
    vals = [z1, -z1, z3, -z3, z5, -z5, z7, -z7]
    return Divisor([ProjPoint.finite(v) for v in vals])


def c2_symmetric_divisor(seed):
    """A Galois-stable set over Q(sqrt -1, sqrt 2), symmetric under
    z -> -z: +-y for y in the Galois orbit of a level-2 element, and +-r
    for one or two rationals r, moved by a Mobius map with small tower
    entries. Aut has order 2 and every Galois element is in H."""
    rng = random.Random(seed)
    t = multiquadratic_tower([-1, 2])
    group = galois_group(t)

    def small():
        return t.element([rng.randint(-2, 2) for _ in range(4)])

    while True:
        y = t.element([rng.randint(-3, 3) for _ in range(4)])
        orbit = list(dict.fromkeys(s(y) for s in group.elements))
        rs = [t.from_rational(F(rng.randint(1, 9), rng.randint(1, 4)))
              for _ in range(1 + seed % 2)]
        vals = orbit + [-v for v in orbit] + rs + [-r for r in rs]
        mob = Mobius(small(), small(), small(), small())
        if len(orbit) == 4 and len(set(vals)) == len(vals):
            return Divisor([ProjPoint.finite(v) for v in vals]).apply(mob)


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


def klein_six():
    # {+-1, +-2, +-1/2}: Aut is the Klein four-group of z -> -z, 1/z
    return rational_divisor(1, -1, 2, -2, F(1, 2), F(-1, 2))


@pytest.mark.parametrize("make", [klein_four, klein_six])
def test_noncyclic_certificate_carries_a_pair(monkeypatch, make):
    d = make()
    v = decide(d)
    assert v.certificate.rule == "noncyclic"
    g, h = v.certificate.pair
    assert g in v.aut and h in v.aut and g != h
    assert all(x.compose(x).is_identity() and not x.is_identity()
               for x in (g, h))
    # the verifier images D by the pair and never scans triples again
    divisor_mod = importlib.import_module("p1moduli.divisor")

    def no_scan(n):
        raise AssertionError("verify_certificate scanned triples")

    monkeypatch.setattr(divisor_mod, "ordered_triples", no_scan)
    assert verify_certificate(d, v)


def test_noncyclic_certificate_rejects_bad_pairs():
    d = klein_four()
    v = decide(d)
    g, h = v.certificate.pair
    four = v.aut.elements[v.aut.orders.index(4)]
    involution = v.aut.elements[v.aut.orders.index(2)]
    shift = Mobius.from_rationals(QQ, 1, 1, 0, 1)  # z -> z + 1, not in Aut
    t = multiquadratic_tower([2])
    foreign = Mobius.from_rationals(t, 0, 1, 1, 0)
    for pair, reason in (
            (None, "two automorphisms"),
            ((g,), "two automorphisms"),
            ((g, shift), "two automorphisms"),
            ((foreign, h), "two automorphisms"),
            ((g, g), "cyclic group"),
            ((four, four.inverse()), "cyclic group"),
            ((involution, Mobius.identity(QQ)), "two automorphisms")):
        v.certificate.pair = pair
        res = verify_certificate(d, v)
        assert not res and reason in res.reason, pair
    # a pair that does not commute passes, whatever the orders
    reflection = next(e for e in v.aut.elements
                      if e.compose(four) != four.compose(e))
    v.certificate.pair = (four, reflection)
    assert verify_certificate(d, v)
    # two distinct commuting involutions of the Klein four-group pass
    d = klein_six()
    v = decide(d)
    assert v.aut.tag.label() == "dihedral(2)"
    a, b = v.aut.elements[1:3]
    v.certificate.pair = (a, b)
    assert verify_certificate(d, v)


def test_odd_degree_fast_path():
    d = rational_divisor(0, 1, 2, 3, 7)
    v = decide(d)
    assert v.outcome == DEFINED_ON_P1
    assert v.certificate.rule in ("n odd", "noncyclic")
    assert verify_certificate(d, v)


def test_degree_two_rejected():
    with pytest.raises(DegreeTooSmall):
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
    comp = compression(d, data)
    form, mob = build_p1_model(d, data, comp, find_point(comp.conic))
    assert len(form) == 7
    d0 = d.apply(mob.inverse())
    for p in d0.points:
        val = d.tower.zero()
        for k, c in enumerate(form):
            val = val + (p.x ** (6 - k)) * (p.y ** k) * c
        assert val.is_zero()


def test_binary_form_matches_rational_roots():
    d = rational_divisor(1, -1, 2)
    coeffs = binary_form_coefficients([(p.x, p.y) for p in d.points])
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


def test_rational_operands_skip_the_tower_kernel(monkeypatch):
    """Products with a zero, one or rational factor never reach the
    structure-constant loop: about 2350 kernel products instead of 7201."""
    qfield = importlib.import_module("p1moduli.qfield")
    d = obstructed_eight()
    calls = [0]
    kernel = qfield._mul

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(qfield, "_mul", counted)
    assert decide(d).outcome == NOT_DEFINED
    assert 0 < calls[0] <= 2500


@pytest.mark.parametrize("n", [6, 8])
def test_pointless_conic_gives_conic_model(n, tmp_path, capsys):
    d = pointless_conic_divisor(n)
    v = decide(d)
    assert v.outcome == DEFINED_ON_CONIC
    assert v.aut.order == 1
    cert = v.certificate
    assert cert.kind == "conic_model"
    assert [pe.place for pe in cert.failing] == [INFINITE_PLACE, 2]
    assert verify_certificate(d, v)
    cert.failing = []
    assert not verify_certificate(d, v)

    path = tmp_path / "in.json"
    path.write_text(json.dumps(cli.divisor_json(d)))
    assert cli.run(["analyze", "--input", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["outcome"] == DEFINED_ON_CONIC
    assert rep["certificate"]["kind"] == "conic_model"


TWIST_TOWERS = [[-1, 2], [2, 3], [-1, 3], [5, -3]]


@pytest.mark.parametrize("radicands", TWIST_TOWERS,
                         ids=[",".join(map(str, r)) for r in TWIST_TOWERS])
def test_trivial_aut_model_from_conic_point(radicands):
    # Aut trivial and |H| = 4: the conic point is the descent datum
    d = random_twisted_divisor(6, multiquadratic_tower(radicands), 0)
    v = decide(d)
    assert v.outcome == DEFINED_ON_P1
    assert v.aut.order == 1 and len(v.moduli.h_indices) == 4
    cert = v.certificate
    assert cert.kind == "p1_model"
    assert verify_certificate(d, v)
    d0 = d.apply(cert.mobius.inverse())
    for sigma in galois_group(d.tower).elements:
        assert conjugate_divisor(sigma, d0) == d0


def test_conic_point_model_off_the_fixed_locus_raises(monkeypatch):
    decide_mod = importlib.import_module("p1moduli.decide")
    d = random_twisted_divisor(6, multiquadratic_tower([-1, 2]), 0)
    triples = decide_mod.mobius_from_triples
    i = d.tower.root(0)

    def moved(*points):
        z3 = points[5]
        return triples(*points[:5], ProjPoint(z3.x + z3.y * i, z3.y))

    monkeypatch.setattr(decide_mod, "mobius_from_triples", moved)
    with pytest.raises(InternalInconsistency,
                       match="descended divisor not stable"):
        decide(d)


@pytest.mark.parametrize("seed", [0, 1])
def test_conic_point_when_aut_and_h_are_both_nontrivial(seed):
    # m = 2 and |H| = 4: no model construction applies, so the conic
    # point alone certifies descent
    d = c2_symmetric_divisor(seed)
    assert d.degree == (10, 12)[seed]
    v = decide(d)
    assert v.outcome == DEFINED_ON_P1
    assert v.aut.order == 2 and len(v.moduli.h_indices) == 4
    cert = v.certificate
    assert cert.kind == "conic_point"
    assert cert.conic.evaluate([F(c) for c in cert.point]) == 0
    assert verify_certificate(d, v)
    # (x + 1, y, z) can stay on these conics, e.g. from (1, 0, 0)
    x, y, z = cert.point
    cert.point = (x, y + 1, z)
    res = verify_certificate(d, v)
    assert not res and "conic" in res.reason


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


def test_dead_fast_path_rules_rejected():
    # decide never emits these rules, so a certificate claiming one is forged
    for rule, d in (("n = 6", rational_divisor(1, 2, -1, -2, 3, F(2, 3))),
                    ("cyclic-odd", rational_divisor(1, 2, 3, 4, 5))):
        v = decide(d)
        v.certificate = Certificate("fast_path", rule=rule)
        res = verify_certificate(d, v)
        assert not res and "unknown fast path rule" in res.reason


def test_decide_scans_the_triples_once(monkeypatch):
    # one full scan (Aut); every witness search stops at its hit, and
    # every scan decides its triples mod a split prime: exact arithmetic
    # builds a map only for a triple whose every cross-ratio matches mod
    # p, to certify it (5 here: the 2 elements of Aut and 3 witnesses)
    divisor_mod = importlib.import_module("p1moduli.divisor")
    calls = []
    scan = divisor_mod.ordered_triples
    certified = []
    mobius_from_triples = divisor_mod.mobius_from_triples

    def recorded(n):
        consumed = []
        calls.append(consumed)
        for t in scan(n):
            consumed.append(t)
            yield t

    def counted(*args):
        certified.append(args)
        return mobius_from_triples(*args)

    monkeypatch.setattr(divisor_mod, "ordered_triples", recorded)
    monkeypatch.setattr(divisor_mod, "mobius_from_triples", counted)
    d = obstructed_eight()
    v = decide(d)
    assert v.outcome == NOT_DEFINED and v.certificate.symbols
    n = d.degree
    full = [c for c in calls if len(c) == n * (n - 1) * (n - 2)]
    assert len(full) == 1 and calls[0] is full[0]
    assert len(calls) > 1
    assert 0 < len(certified) <= 8


def test_decide_images_no_divisor_again(monkeypatch):
    # each witness carries its permutation of D, so the field of moduli,
    # the descent cocycle and the compression check three points per
    # witness instead of imaging all of D, and the descent cocycle reads
    # the permutations of Aut from the Aut scan: 40 point images, 56
    # while it imaged D under Aut, 288 before witnesses carried theirs
    counted = []
    apply = Mobius.apply

    def counting(self, p):
        counted.append(p)
        return apply(self, p)

    monkeypatch.setattr(Mobius, "apply", counting)
    monkeypatch.setattr(Mobius, "__call__", counting)
    v = decide(obstructed_eight())
    assert v.outcome == NOT_DEFINED and v.certificate.symbols
    assert 0 < len(counted) <= 40


@pytest.mark.parametrize("make, kind", [(twisted_six, "p1_model"),
                                        (obstructed_eight, "obstruction")])
def test_one_elimination_per_conic(monkeypatch, make, kind):
    # hasse_solvable, find_point and the certificate recheck share the
    # diagonalisation kept on the compression conic; the norm equation's
    # conics are other objects, each diagonalised once
    conic_mod = importlib.import_module("p1moduli.conic")
    run, seen = conic_mod._diagonalize, []

    def counted(f):
        seen.append(f)
        return run(f)

    monkeypatch.setattr(conic_mod, "_diagonalize", counted)
    d = make()
    v = decide(d)
    assert v.certificate.kind == kind and verify_certificate(d, v)
    assert sum(f is v.certificate.conic for f in seen) == 1
    assert all(sum(g is f for g in seen) == 1 for f in seen)


def test_decide_inverts_and_reduces_on_demand(monkeypatch):
    # the scans read the points mod p, x coordinates only, and build no
    # exact bracket: 254 inversions, 32 residues and 450 kernel products
    # here, 277, 36 and 701 when survivors of the first mod-p test were
    # checked on exact bracket rows
    qfield_mod = importlib.import_module("p1moduli.qfield")
    calls = {"inverse": 0, "residue": 0, "_mul": 0}
    for name in ("inverse", "residue"):
        method = getattr(FieldElem, name)

        def counting(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(FieldElem, name, counting)
    kernel_mul = qfield_mod._mul

    def counted_mul(*args):
        calls["_mul"] += 1
        return kernel_mul(*args)

    monkeypatch.setattr(qfield_mod, "_mul", counted_mul)
    v = decide(obstructed_eight())
    assert v.outcome == NOT_DEFINED and v.certificate.symbols
    assert 0 < calls["inverse"] <= 260
    assert 0 < calls["residue"] <= 36
    assert 0 < calls["_mul"] <= 480


def test_fake_failing_place_detected():
    d = obstructed_eight()
    v = decide(d)
    v.certificate.failing = [PlaceEval(7, -1), PlaceEval(11, -1)]
    res = verify_certificate(d, v)
    assert not res and "7" in res.reason


def test_p1_model_form_checked_at_infinity():
    # D0 = D holds oo; X g, with g the form of the finite points,
    # vanishes on all of them and only oo tells it from the true form
    finite = [fin(QQ, v) for v in (0, 1, 2, 3, 5)]
    d = Divisor(finite + [ProjPoint.infinity(QQ)])
    v = decide(d)
    assert v.certificate.kind == "p1_model"
    assert v.certificate.mobius.is_identity()
    assert v.certificate.form[0] == 0
    assert verify_certificate(d, v)
    g = binary_form_coefficients([(p.x, p.y) for p in finite])
    v.certificate.form = [c.as_fraction() for c in g] + [F(0)]
    res = verify_certificate(d, v)
    assert not res and "does not vanish" in res.reason


def test_corrupted_model_detected():
    d = six_with_sqrt2()
    v = decide(d)
    bad = list(v.certificate.form)
    bad[0] += 1
    v.certificate.form = bad
    assert not verify_certificate(d, v)


def test_zero_form_rejected():
    d = rational_divisor(0, 1, 2, 3, 4, 5)
    v = decide(d)
    assert v.certificate.kind == "p1_model"
    v.certificate.form = [F(0)] * 7
    res = verify_certificate(d, v)
    assert not res and "zero form" in res.reason


def test_wrong_outcome_for_certificate_detected():
    d = rational_divisor(1, 2, -1, -2, 3, F(2, 3))
    v = decide(d)
    v.outcome = NOT_DEFINED
    assert not verify_certificate(d, v)
