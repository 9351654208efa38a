"""Generator, sections, normal forms, and hyperelliptic reporting."""

import functools
import random
from fractions import Fraction as F

import pytest

from p1moduli.conic import (
    INFINITE_PLACE, TernaryForm, hilbert_symbol, parametrize)
from p1moduli import construct
from p1moduli.construct import (
    CounterexampleSpec, Deg6Form, check_self_centralizing, deg6_normal_form,
    gen_counterexample, hyperelliptic_branch_analysis, line_section_divisor,
    random_twisted_divisor)
from p1moduli.decide import NOT_DEFINED, decide
from p1moduli.divisor import Divisor, compute_aut
from p1moduli.errors import (
    BadDegree, GenusTooSmall, HypothesesNotMet, InternalInconsistency,
    NotAnInvolution, SplitSymbol, TangentLine)
from p1moduli.linalg import proportional
from p1moduli.projline import Mobius, ProjPoint
from p1moduli.qfield import FieldElem, FieldTower, multiquadratic_tower

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
# the generator's own checks, each fed a spoiled input
# ---------------------------------------------------------------------------

def respoiled(data, **changes):
    """A copy of the cover data with some fields replaced."""
    fields = {k: getattr(data, k) for k in construct.DoubleCoverData.__slots__}
    fields.update(changes)
    return construct.DoubleCoverData(**fields)


def test_check_cover_accepts_the_generated_cover():
    data, _ = minus_one_eight()
    construct._check_cover(data, data.divisor.tower)


def test_check_cover_refuses_a_point_off_e():
    data, _ = minus_one_eight()
    big = data.divisor.tower
    moved = [ProjPoint.finite(data.divisor.points[0].x + 1),
             *data.divisor.points[1:]]
    with pytest.raises(InternalInconsistency,
                       match="divisor point does not lie over E"):
        construct._check_cover(respoiled(data, divisor=Divisor(moved)), big)


def test_check_cover_refuses_other_ramification():
    data, _ = minus_one_eight()
    with pytest.raises(InternalInconsistency,
                       match="cover must ramify exactly over the conjugate"):
        construct._check_cover(respoiled(data, p=data.pbar, pbar=data.p),
                               data.divisor.tower)


def spoil_call(monkeypatch, name, spoiler):
    """Run the seed-1 (-1, -1, 8) generator once to count the calls of
    construct.<name>, then patch it so that its last call returns a
    spoiled value."""
    real = getattr(construct, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construct, name, counted)
    gen_counterexample(CounterexampleSpec(-1, -1, 8, seed=1))
    clean = len(calls)
    calls.clear()

    def spoiled(*args):
        calls.append(args)
        out = real(*args)
        return spoiler(out) if len(calls) == clean else out

    monkeypatch.setattr(construct, name, spoiled)


def double(m):
    return ProjPoint(m.x * 2, m.y)


def test_spoiled_line_section_is_refused(monkeypatch):
    # the last section's second point is swapped for a conic point off
    # the chosen pair: (x : y : z) -> (y : x : z) stays on x^2 + y^2 + z^2
    def swap(out):
        tower, (q0, (x, y, z)) = out
        return tower, (q0, (y, x, z))

    spoil_call(monkeypatch, "line_section_divisor", swap)
    with pytest.raises(InternalInconsistency,
                       match="line section does not recover the chosen pair"):
        gen_counterexample(CounterexampleSpec(-1, -1, 8, seed=1))


def test_spoiled_conjugate_parameter_is_refused(monkeypatch):
    # the last _mu_value call is the conjugate parameter of the last pair
    spoil_call(monkeypatch, "_mu_value", double)
    with pytest.raises(InternalInconsistency,
                       match="conjugate parameter value is off"):
        gen_counterexample(CounterexampleSpec(-1, -1, 8, seed=1))


def test_spoiled_twist_normalization_is_refused(monkeypatch):
    # the norm equation's solution (x : y : z) gives the rescaling factor
    # c = (x + y sqrt a)/z; halving c divides the checked product
    # s(w(et_bar)) w(et) = b by N(2) = 4
    spoil_call(monkeypatch, "find_point", lambda pt: (pt[0], pt[1], 2 * pt[2]))
    with pytest.raises(InternalInconsistency,
                       match="twist normalization failed"):
        gen_counterexample(CounterexampleSpec(-1, -1, 8, seed=1))


def test_param_of_point_refuses_a_point_off_the_conic():
    data, _ = minus_one_eight()
    t = data.p[0].tower
    with pytest.raises(InternalInconsistency,
                       match="point is not in the parametrized image"):
        construct._param_of_point(data.parametrization,
                                  (t.one(), t.one(), t.one()))


# ---------------------------------------------------------------------------
# parameters of conic points
# ---------------------------------------------------------------------------

def param_cases():
    """(form, base point) pairs over Q(sqrt -1) and Q(sqrt -1, sqrt 2),
    with the base point's first nonzero coordinate at 0, 1 and 2."""
    cases = []
    for t in (multiquadratic_tower([-1]), multiquadratic_tower([-1, 2])):
        i, one, zero = t.root(0), t.one(), t.zero()
        unit = TernaryForm.diagonal(1, 1, 1)
        hyperbolic = TernaryForm([[0, 0, F(1, 2)], [0, -1, 0],
                                  [F(1, 2), 0, 0]])  # x z - y^2
        cases += [(t, unit, (one, i, zero)),
                  (t, unit, (zero, i * 3, one * 3)),
                  (t, hyperbolic, (zero, zero, i + 2)),
                  (t, TernaryForm.diagonal(-1, -1, -1), (one, zero, i))]
    return cases


def tangent_parameter(form, p):
    """(B(p, e_o1) : -B(p, e_o0)), the parameter whose line through p is
    the tangent there, for o0 < o1 the indices past p's first nonzero one."""
    lead = next(k for k in range(3) if p[k])
    o0, o1 = (k for k in range(3) if k != lead)
    e = [[F(int(k == j)) for k in range(3)] for j in range(3)]
    return ProjPoint(form.polar(p, e[o1]), -form.polar(p, e[o0]))


@pytest.mark.parametrize("t, form, base", param_cases(),
                         ids=[f"L{t.level}-{k % 4}"
                              for k, (t, _, _) in enumerate(param_cases())])
def test_param_of_point_inverts_the_parametrization(monkeypatch, t, form,
                                                   base):
    assert form.evaluate(base) == 0
    par = parametrize(form, base)
    rng = random.Random(f"params:{t.level}:{form.gram}:{base}")
    rs = [ProjPoint.infinity(t), ProjPoint.finite(t.zero()),
          tangent_parameter(form, base)]
    while len(rs) < 15:
        x = t.element([F(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(t.degree)])
        rs.append(ProjPoint.finite(x))
    assert proportional(par.apply(rs[2].x, rs[2].y), base)
    real_sqrt, roots = FieldElem.sqrt, []
    monkeypatch.setattr(FieldElem, "sqrt",
                        lambda x: roots.append(x) or real_sqrt(x))
    scale = t.root(0) + 2
    for r in rs:
        image = par.apply(r.x, r.y)
        assert construct._param_of_point(par, image) == r
        assert construct._param_of_point(
            par, tuple(c * scale for c in image)) == r
    # the base point itself, scaled, is the tangent's parameter
    assert construct._param_of_point(
        par, tuple(c * 5 for c in base)) == rs[2]
    assert roots == []


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
