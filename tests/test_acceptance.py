"""Acceptance gate: ten package-level guarantees, one test per line.

Each test states one law the package promises: the degree parity and
small-degree descent laws, counterexample reproduction, agreement of the
three failure characterizations, obstruction arithmetic against local
symbols, reciprocity, the ramification ledger, the involution structure
of accepted counterexamples, and exact model reconstruction. Budgets on
the randomized batches are asserted in wall-clock seconds.
"""

import random
import time
from fractions import Fraction as F

import pytest

from p1moduli.conic import (INFINITE_PLACE, TernaryForm, diagonalize,
                            find_point, hasse_solvable, hilbert_symbol)
from p1moduli.construct import (CounterexampleSpec, check_self_centralizing,
                                deg6_normal_form, gen_counterexample,
                                random_twisted_divisor)
from p1moduli.decide import (DEFINED_ON_P1, NOT_DEFINED, UNSUPPORTED_BASE,
                             build_p1_model, decide, verify_certificate)
from p1moduli.divisor import Divisor, compute_aut
from p1moduli.errors import HypothesesNotMet
from p1moduli.intmath import factorint
from p1moduli.moduli import (cocycle_class_to_quaternion, compression,
                             descent_cocycle, field_of_moduli,
                             quotient_ramification)
from p1moduli.projline import Mobius, ProjPoint
from p1moduli.qfield import FieldTower, multiquadratic_tower, tower_extend

QQ = FieldTower()

TOWER_RADS = ([], [2], [3], [5], [-1], [-2], [6], [2, 3], [2, 5],
              [-1, 2], [-1, 3], [3, 5], [2, 7])


def fin(tower, value):
    if isinstance(value, (int, F)):
        value = tower.from_rational(F(value))
    return ProjPoint.finite(value)


def cyclic_quartic_tower():
    # Q(sqrt(2 + sqrt 2)), a Galois 2-tower that is not multiquadratic
    t1 = multiquadratic_tower([2])
    return tower_extend(t1, t1.root(0) + 2).tower


def random_tower(rng, max_level=2):
    if max_level >= 2 and rng.random() < 0.1:
        return cyclic_quartic_tower()
    rads = rng.choice([r for r in TOWER_RADS if len(r) <= max_level])
    return multiquadratic_tower(rads)


def rational_mobius(rng):
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        if a * d - b * c != 0:
            return Mobius.from_rationals(QQ, a, b, c, d)


# ---------------------------------------------------------------------------
# shared batches (each computed once per module run)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def odd_degree_batch():
    rng = random.Random("acceptance:odd")
    start = time.monotonic()
    verdicts = []
    for i in range(200):
        n = (3, 5, 7, 9)[i % 4]
        # full level-2 towers on the cheaper degrees
        d = random_twisted_divisor(n, random_tower(rng, 2 if n < 9 else 1),
                                   seed=i)
        verdicts.append(decide(d))
    return verdicts, time.monotonic() - start


@pytest.fixture(scope="module")
def degree_four_batch():
    rng = random.Random("acceptance:four")
    start = time.monotonic()
    verdicts = []
    while len(verdicts) < 100:
        tower = multiquadratic_tower(rng.choice(([], [2], [3], [-1], [5])))
        vals = set()
        while len(vals) < 4:
            q = F(rng.randint(-20, 20), rng.randint(1, 6))
            x = tower.from_rational(q)
            if tower.level and rng.random() < 0.5:
                x = x + tower.root(0) * rng.randint(-3, 3)
            vals.add(x)
        pts = [ProjPoint.finite(v) for v in vals]
        if rng.random() < 0.3:
            pts[0] = ProjPoint.infinity(tower)
        try:
            d = Divisor(pts)
        except ValueError:
            continue
        verdicts.append(decide(d))
    return verdicts, time.monotonic() - start


@pytest.fixture(scope="module")
def degree_six_batch():
    rng = random.Random("acceptance:six")
    start = time.monotonic()
    verdicts = []
    adversarial = []
    normal_hits = 0
    # 40 plain rational six-point sets
    for _ in range(40):
        vals = rng.sample(range(-30, 31), 6)
        d = Divisor([fin(QQ, v) for v in vals])
        verdicts.append(decide(d))
        try:
            deg6_normal_form(d)
            normal_hits += 1
        except HypothesesNotMet:
            pass
    # 30 twisted {0, oo, 1, -1, lam, -lam} configurations
    for i in range(30):
        if i % 3 == 2:
            t = multiquadratic_tower([rng.choice((2, 3, 5, -1))])
            lam = t.from_rational(rng.randint(2, 7)) \
                + t.root(0) * rng.randint(1, 3)
        else:
            t = QQ
            q = F(1)
            while q in (1, -1):
                q = F(rng.randint(2, 9), rng.randint(1, 3))
            lam = t.from_rational(q)
        base = Divisor([ProjPoint.infinity(t), fin(t, 0), fin(t, 1),
                        fin(t, -1), ProjPoint.finite(lam),
                        ProjPoint.finite(-lam)])
        m = rational_mobius(rng)
        d = base.apply(Mobius(*(t.embed(e) for e in m.entries())))
        verdicts.append(decide(d))
        nf = deg6_normal_form(d)
        normal_hits += 1
        adversarial.append((lam, nf))
    # 30 stable twists over small towers
    for i in range(30):
        tower = multiquadratic_tower(rng.choice(([], [2], [3], [5], [-1])))
        d = random_twisted_divisor(6, tower, seed=1000 + i)
        verdicts.append(decide(d))
        try:
            deg6_normal_form(d)
            normal_hits += 1
        except HypothesesNotMet:
            pass
    elapsed = time.monotonic() - start
    return verdicts, adversarial, normal_hits, elapsed


@pytest.fixture(scope="module")
def counterexample_batch():
    out = {}
    for n in (8, 10):
        start = time.monotonic()
        data, verdict = gen_counterexample(CounterexampleSpec(-1, -1, n,
                                                              seed=1))
        out[n] = (data, verdict, time.monotonic() - start)
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_odd_degree_always_defined(odd_degree_batch):
    verdicts, elapsed = odd_degree_batch
    assert len(verdicts) == 200
    outcomes = [v.outcome for v in verdicts]
    assert outcomes.count(DEFINED_ON_P1) == 200
    assert elapsed < 300.0


def test_criterion_02_degree_four_always_defined(degree_four_batch):
    verdicts, elapsed = degree_four_batch
    assert len(verdicts) == 100
    for v in verdicts:
        assert v.outcome == DEFINED_ON_P1
        # every stabilizer of 4 points contains the Klein four-group
        assert v.aut.tag.label() in ("dihedral(2)", "dihedral(4)", "A4")
    assert elapsed < 60.0


def test_criterion_03_degree_six_never_fails(degree_six_batch):
    verdicts, adversarial, normal_hits, elapsed = degree_six_batch
    assert len(verdicts) == 100
    assert all(v.outcome != NOT_DEFINED for v in verdicts)
    # every planted configuration was recognized, with the planted value
    # inside the reported orbit {lam, -lam, 1/lam, -1/lam}
    assert len(adversarial) == 30
    for lam, nf in adversarial:
        one = lam.tower.one()
        assert any(x == lam or x == -lam or x * lam == one
                   or x * lam == -one for x in nf.orbit)
    assert normal_hits >= 30
    assert elapsed < 120.0


def test_criterion_04_counterexamples_reproduce(counterexample_batch):
    for n in (8, 10):
        data, verdict, elapsed = counterexample_batch[n]
        assert verdict.outcome == NOT_DEFINED
        assert verdict.fom.rationals_only()
        assert verdict.aut_class.label() == "cyclic(2)"
        assert verdict.aut.order == 2
        # independent local recomputation at the failing place 2
        (qa, qb, qc), _ = diagonalize(verdict.compression.conic)
        assert hilbert_symbol(-qa * qc, -qb * qc, 2) == -1
        failing_places = {e.place for e in verdict.certificate.failing}
        assert 2 in failing_places
        assert verify_certificate(data.divisor, verdict)
        assert elapsed < 60.0


def test_criterion_05_three_conditions_agree(odd_degree_batch,
                                             degree_four_batch,
                                             degree_six_batch,
                                             counterexample_batch):
    verdicts = list(odd_degree_batch[0]) + list(degree_four_batch[0]) \
        + list(degree_six_batch[0]) \
        + [v for (_, v, _) in counterexample_batch.values()]
    mismatches = 0
    for v in verdicts:
        failed = v.outcome == NOT_DEFINED
        if (v.compression is not None and v.compression.conic is not None
                and v.fom.rationals_only()):
            pointless = not hasse_solvable(v.compression.conic)[0]
            even_aut = pointless and v.aut.order % 2 == 0
            cyclic_even = pointless and v.aut.is_cyclic_even()
            if not (failed == even_aut == cyclic_even):
                mismatches += 1
        elif failed:
            mismatches += 1
    assert mismatches == 0


def test_criterion_06_symbols_match_conic(counterexample_batch):
    twists = [Mobius.from_rationals(QQ, *e) for e in
              ((1, 0, 0, 1), (1, 1, 1, 2), (2, 1, 3, 2), (0, 1, 1, 0),
               (1, -2, 2, 1), (3, 0, 1, 1), (1, 3, -1, 2), (5, 2, 2, 1))]

    t6 = multiquadratic_tower([2])
    r = t6.root(0)
    six = Divisor([ProjPoint.finite(v) for v in
                   (r * 3, -r * 3, r / 3, -r / 3, t6.one(),
                    t6.from_rational(2))])
    t8 = multiquadratic_tower([-1, 2, 3])
    i8, s2, s3 = t8.root(0), t8.root(1), t8.root(2)
    z1, z3 = s2 * (i8 + 1), (i8 - 1) / (s2 * 2)
    z5, z7 = s3 * (i8 * 2 + 1), (i8 - 2) / (s3 * 5)
    eight = Divisor([ProjPoint.finite(v) for v in
                     (z1, -z1, z3, -z3, z5, -z5, z7, -z7)])

    instances = []
    for base, take in ((six, 8), (eight, 8)):
        for m in twists[:take]:
            emb = Mobius(*(base.tower.embed(e) for e in m.entries()))
            instances.append(base.apply(emb))
    for n in (8, 10):
        cx = counterexample_batch[n][0].divisor
        instances.append(cx)
        emb = Mobius(*(cx.tower.embed(e) for e in twists[1].entries()))
        instances.append(cx.apply(emb))
    assert len(instances) == 20

    mismatches = 0
    for d in instances:
        aut = compute_aut(d)
        assert aut.order == 2 and aut.is_cyclic()
        data = field_of_moduli(d)
        assert data.fom_is_q
        symbols = cocycle_class_to_quaternion(descent_cocycle(data), data)
        comp = compression(d, data)
        (qa, qb, qc), _ = diagonalize(comp.conic)
        places = {INFINITE_PLACE, 2}
        for v in (qa, qb, qc, *(x for s in symbols for x in s)):
            places.update(p for p in factorint(abs(int(v))) if p != 2)
        for place in sorted(places, key=str):
            lhs = 1
            for a, b in symbols:
                lhs *= hilbert_symbol(a, b, place)
            rhs = hilbert_symbol(-qa * qc, -qb * qc, place)
            if lhs != rhs:
                mismatches += 1
    assert mismatches == 0


def test_criterion_07_reciprocity_and_local_oracle():
    rng = random.Random("acceptance:local")
    start = time.monotonic()
    for _ in range(500):
        a = rng.choice([v for v in range(-50, 51) if v])
        b = rng.choice([v for v in range(-50, 51) if v])
        places = [INFINITE_PLACE, 2]
        places += [p for p in factorint(abs(a * b)) if p != 2]
        prod = 1
        for place in places:
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1

    height = 200

    def brute_point(a, b, c):
        for x in range(height + 1):
            for y in range(height + 1):
                num = -(a * x * x + b * y * y)
                if num % c:
                    continue
                zz = num // c
                if zz < 0:
                    continue
                z = int(zz ** 0.5)
                for cand in (z - 1, z, z + 1):
                    if cand >= 0 and cand * cand == zz:
                        if x or y or cand:
                            return (x, y, cand)
        return None

    for _ in range(100):
        a, b, c = (rng.choice([v for v in range(-12, 13) if v])
                   for _ in range(3))
        form = TernaryForm.diagonal(a, b, c)
        solvable, _ = hasse_solvable(form)
        found = brute_point(a, b, c)
        if solvable:
            assert found is not None
            x, y, z = found
            assert a * x * x + b * y * y + c * z * z == 0
        else:
            assert found is None
    assert time.monotonic() - start < 120.0


def test_criterion_08_ramification_ledger(counterexample_batch):
    for m in (2, 3, 4, 6, 8, 12):
        led = quotient_ramification(m)
        assert led.covering_degree == m
        assert sum(d * res for (_, _, d, res) in led.entries) == 2 * m - 2

    # two orbits of one rotation always pick up a swapping involution, so
    # exactly-cyclic stabilizers need three orbits
    def three_orbits(mob, size):
        pts = []
        for v in (2, 5, 7):
            p = fin(QQ, v)
            for _ in range(size):
                pts.append(p)
                p = mob.apply(p)
        return Divisor(pts)

    instances = [(v.aut, v.compression)
                 for (_, v, _) in counterexample_batch.values()]
    for entries, order in (((0, -1, 1, -1), 3), ((1, -1, 1, 1), 4)):
        d = three_orbits(Mobius.from_rationals(QQ, *entries), order)
        aut = compute_aut(d)
        assert aut.is_cyclic() and aut.order == order
        data = field_of_moduli(d)
        instances.append((aut, compression(d, data)))

    for aut, comp in instances:
        m = comp.m
        assert m == aut.order >= 2
        t2 = comp.tower2
        w0 = t2.from_rational(3)
        fiber = [w0 * comp.zeta ** j for j in range(m)]
        assert len({f.coords for f in fiber}) == m
        images = {comp.quotient_map(ProjPoint.finite(f)).sort_key()
                  for f in fiber}
        assert len(images) == 1
        zero = ProjPoint.finite(t2.zero())
        inf = ProjPoint.infinity(t2)
        assert comp.quotient_map(zero) == zero
        assert comp.quotient_map(inf) == inf
        assert quotient_ramification(m).covering_degree == m


def test_criterion_09_deck_involution_structure(counterexample_batch):
    failures = 0
    for n in (8, 10):
        data, verdict, _ = counterexample_batch[n]
        aut = verdict.aut
        idx = aut.index_of(data.deck)
        if not check_self_centralizing(aut, aut.elements[idx]):
            failures += 1
        if (aut.order // 2) % 2 != 1:
            failures += 1
    assert failures == 0


def test_criterion_10_exact_model_reconstruction():
    rng = random.Random("acceptance:model")
    prime_pool = (2, 3, 5, -1, 7, -2, 13, 11)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 150:
        attempts += 1
        kind = attempts % 3
        if kind == 0:
            n = 5 + attempts % 4
            vals = rng.sample(range(-40, 41), n)
            d = Divisor([fin(QQ, v) for v in vals])
        elif kind == 1:
            tower = multiquadratic_tower([prime_pool[attempts % 8]])
            d = random_twisted_divisor(5 + attempts % 4, tower,
                                       seed=2000 + attempts)
        else:
            t = multiquadratic_tower([prime_pool[attempts % 4]])
            r = t.root(0)
            k = 2 + attempts % 3
            pts = [r * k, -r * k, r / k, -r / k, t.one(),
                   t.from_rational(2)]
            try:
                d = Divisor([ProjPoint.finite(v) for v in pts])
            except ValueError:
                continue
        aut = compute_aut(d)
        if not aut.is_cyclic():
            continue
        data = field_of_moduli(d)
        if not data.fom_is_q or len(data.h_indices) > 2:
            continue
        comp = compression(d, data)
        point = find_point(comp.conic)
        if point is None:
            continue
        form, mob = build_p1_model(d, data, comp, point)
        n = d.degree
        assert len(form) == n + 1
        assert all(isinstance(c, F) for c in form)
        model = d.apply(mob.inverse())
        assert model.apply(mob) == d
        tower = d.tower
        coeffs = [tower.from_rational(c) for c in form]
        for p in model.points:
            acc = tower.zero()
            for k, c in enumerate(coeffs):
                acc = acc + c * p.x ** (n - k) * p.y ** k
            assert acc.is_zero()
        checked += 1
    assert checked == 50
