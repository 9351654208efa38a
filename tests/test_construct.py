"""Generator, sections, normal forms, and hyperelliptic reporting."""

import functools
from fractions import Fraction as F

import pytest

from p1moduli.conic import INFINITE_PLACE, TernaryForm, hilbert_symbol
from p1moduli import construct
from p1moduli.construct import (
    CounterexampleSpec, Deg6Form, check_self_centralizing, deg6_normal_form,
    gen_counterexample, hyperelliptic_branch_analysis, line_section_divisor,
    random_twisted_divisor)
from p1moduli.decide import NOT_DEFINED, decide
from p1moduli.divisor import Divisor, compute_aut
from p1moduli.errors import (
    BadDegree, GenusTooSmall, HypothesesNotMet, NotAnInvolution,
    SplitSymbol, TangentLine)
from p1moduli.projline import Mobius, ProjPoint
from p1moduli.qfield import FieldTower, multiquadratic_tower

QQ = FieldTower()


def fin(tower, value):
    if isinstance(value, (int, F)):
        value = tower.from_rational(F(value))
    return ProjPoint.finite(value)


@functools.lru_cache(maxsize=None)
def minus_one_eight():
    return gen_counterexample(CounterexampleSpec(-1, -1, 8, seed=1))


# ---------------------------------------------------------------------------
# line sections
# ---------------------------------------------------------------------------

def test_line_section_conjugate_pair():
    form = TernaryForm.diagonal(1, 1, -1)
    tower, pts = line_section_divisor(form, (1, 1, 0))
    assert tower.rational_radicands() == [F(2)]
    assert len(pts) == 2
    for pt in pts:
        assert form.evaluate(pt).is_zero()
    # the two points are swapped by the nontrivial conjugation
    assert pts[0] != pts[1]


def test_line_section_rational_pair():
    form = TernaryForm.diagonal(1, 1, -1)
    tower, pts = line_section_divisor(form, (0, 1, 0))
    assert tower.level == 0
    vals = {tuple(c.as_fraction() for c in pt) for pt in pts}
    assert len(vals) == 2


def test_tangent_line_rejected():
    form = TernaryForm.diagonal(1, 1, -1)
    with pytest.raises(TangentLine):
        line_section_divisor(form, (0, 1, -1))


# ---------------------------------------------------------------------------
# self-centralizing involutions
# ---------------------------------------------------------------------------

def klein_group():
    # generic cross-ratio, so exactly the three pair-swapping involutions
    pts = [fin(QQ, v) for v in (0, 1, 4)] + [ProjPoint.infinity(QQ)]
    return compute_aut(Divisor(pts))


def order_two_group():
    t = multiquadratic_tower([2])
    r = t.root(0)
    pts = [r * 3, -r * 3, r / 3, -r / 3, t.one(), t.from_rational(2)]
    return compute_aut(Divisor([ProjPoint.finite(v) for v in pts]))


def test_self_centralizing_in_order_two():
    g = order_two_group()
    assert g.order == 2
    assert check_self_centralizing(g, g.elements[1])


def test_klein_involutions_not_self_centralizing():
    g = klein_group()
    assert g.order == 4
    for m in g.elements[1:]:
        assert not check_self_centralizing(g, m)


def test_identity_rejected():
    g = klein_group()
    with pytest.raises(NotAnInvolution):
        check_self_centralizing(g, g.elements[0])


def test_outside_element_rejected():
    g = klein_group()
    with pytest.raises(NotAnInvolution):
        check_self_centralizing(g, Mobius.from_rationals(QQ, 1, 1, 0, 1))


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(BadDegree):
        CounterexampleSpec(-1, -1, 6)
    with pytest.raises(BadDegree):
        CounterexampleSpec(-1, -1, 9)
    with pytest.raises(ValueError):
        CounterexampleSpec(4, 3, 8)


def test_split_symbol_rejected():
    with pytest.raises(SplitSymbol):
        gen_counterexample(CounterexampleSpec(1, 5, 8))
    with pytest.raises(SplitSymbol):
        gen_counterexample(CounterexampleSpec(5, 5, 8))


def test_minus_one_eight_not_defined():
    data, verdict = minus_one_eight()
    assert verdict.outcome == NOT_DEFINED
    assert verdict.fom.rationals_only()
    assert data.divisor.degree == 8
    assert verdict.aut.order == 2


def test_minus_one_eight_obstruction_matches_symbol():
    data, verdict = minus_one_eight()
    cert = verdict.certificate
    assert cert.kind == "obstruction"
    places = [pe.place for pe in cert.failing]
    assert places == [INFINITE_PLACE, 2]
    assert cert.symbols
    for place in (INFINITE_PLACE, 2, 3, 5, 7):
        prod = 1
        for a, b in cert.symbols:
            prod *= hilbert_symbol(a, b, place)
        assert prod == hilbert_symbol(-1, -1, place)


def test_minus_one_eight_sections():
    data, _ = minus_one_eight()
    # degree bookkeeping: two conjugate pairs, no ramification sections
    assert len(data.sections) == 2
    assert all(len(pair) == 2 for _, pair in data.sections)
    for line, _ in data.sections:
        assert all(isinstance(c, F) for c in line)
    # deck involution is order two in Aut
    aut = compute_aut(data.divisor)
    assert check_self_centralizing(aut, data.deck)


def test_minus_one_ten_includes_ramification():
    data, verdict = gen_counterexample(CounterexampleSpec(-1, -1, 10, seed=3))
    assert verdict.outcome == NOT_DEFINED
    assert data.divisor.degree == 10
    tower = data.divisor.tower
    assert ProjPoint.finite(tower.zero()) in data.divisor
    assert ProjPoint.infinity(tower) in data.divisor
    # the ramification section is the conjugate pair itself
    first_line, first_pair = data.sections[0]
    assert first_pair == (data.p, data.pbar)


def test_generator_deterministic():
    d1, _ = gen_counterexample(CounterexampleSpec(-1, -1, 8, seed=1))
    d2, _ = gen_counterexample(CounterexampleSpec(-1, -1, 8, seed=1))
    assert d1.divisor == d2.divisor


def test_generator_redraws_only_on_repeated_points(monkeypatch):
    """Repeated points mean a redraw; any other ValueError from Divisor is
    an internal fault and must reach the caller, not end in retries."""
    def foreign(points):
        raise ValueError("points live in different towers")

    monkeypatch.setattr(construct, "Divisor", foreign)
    with pytest.raises(ValueError, match="different towers"):
        gen_counterexample(CounterexampleSpec(-1, -1, 8, seed=1),
                           max_retries=3)


# ---------------------------------------------------------------------------
# degree-6 normal form
# ---------------------------------------------------------------------------

def test_deg6_normal_form_basic():
    pts = [fin(QQ, v) for v in (0, 1, -1, 4, -4)] + [ProjPoint.infinity(QQ)]
    form = deg6_normal_form(Divisor(pts))
    assert isinstance(form, Deg6Form)
    lam = form.lam.as_fraction()
    assert abs(lam) in (F(4), F(1, 4))
    assert len(form.orbit) == 4
    vals = {x.as_fraction() for x in form.orbit}
    assert vals == {lam, -lam, 1 / lam, -1 / lam}


def test_deg6_normal_form_needs_fixed_points():
    pts = [fin(QQ, v) for v in (1, 2, 3, 4, 5, 7)]
    with pytest.raises(HypothesesNotMet):
        deg6_normal_form(Divisor(pts))


def test_deg6_wrong_degree():
    pts = [fin(QQ, v) for v in (0, 1, 2, 3)]
    with pytest.raises(HypothesesNotMet):
        deg6_normal_form(Divisor(pts))


# ---------------------------------------------------------------------------
# hyperelliptic branch loci
# ---------------------------------------------------------------------------

def test_hyperelliptic_even_model():
    branch = Divisor([fin(QQ, v) for v in (0, 1, 2, 3, 4, 5)])
    rep = hyperelliptic_branch_analysis(branch)
    assert rep.genus == 2
    assert rep.branch_degree == 6
    assert rep.verdict.outcome == "DefinedOnP1"
    assert "does not decide" in rep.note


def test_hyperelliptic_odd_model_appends_infinity():
    branch = Divisor([fin(QQ, v) for v in (0, 1, 2, 3, 4)])
    rep = hyperelliptic_branch_analysis(branch, odd_infinity=True)
    assert rep.branch_degree == 6
    assert rep.genus == 2


def test_hyperelliptic_genus_guard():
    branch = Divisor([fin(QQ, v) for v in (0, 1, 2, 3)])
    with pytest.raises(GenusTooSmall):
        hyperelliptic_branch_analysis(branch)
    with pytest.raises(GenusTooSmall):
        hyperelliptic_branch_analysis(
            Divisor([fin(QQ, v) for v in (0, 1, 2, 3, 4)]))


def test_hyperelliptic_counterexample_branch():
    data, _ = minus_one_eight()
    rep = hyperelliptic_branch_analysis(data.divisor)
    assert rep.genus == 3
    assert rep.verdict.outcome == NOT_DEFINED
    assert rep.aut_class.label() == "cyclic(2)"


# ---------------------------------------------------------------------------
# random stable twists
# ---------------------------------------------------------------------------

def test_random_twisted_divisor_properties():
    t = multiquadratic_tower([2])
    d = random_twisted_divisor(6, t, seed=11)
    assert d.degree == 6
    assert d.tower == t


def test_random_twisted_divisor_deterministic():
    t = multiquadratic_tower([2])
    assert random_twisted_divisor(5, t, seed=4) == \
        random_twisted_divisor(5, t, seed=4)


def test_random_twisted_divisor_rational_tower():
    d = random_twisted_divisor(4, QQ, seed=9)
    assert d.degree == 4
    v = decide(d)
    assert v.outcome == "DefinedOnP1"
