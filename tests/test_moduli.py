import functools
import random
from fractions import Fraction as F

import pytest

from p1moduli import linalg, moduli
from p1moduli.conic import find_point, hilbert_symbol
from p1moduli.construct import CounterexampleSpec, gen_counterexample
from p1moduli.decide import DEFINED_ON_P1, decide
from p1moduli.divisor import (
    AutGroup,
    Divisor,
    _matches,
    compute_aut,
    conjugate_divisor,
    conjugate_mobius,
)
from p1moduli.errors import (
    InternalInconsistency,
    NonCyclicAut,
    NonElementaryGaloisQuotient,
    UnsupportedAut,
)
from p1moduli.moduli import (
    Cocycle,
    ModuliData,
    cocycle_class_to_quaternion,
    compressed_divisor,
    compression,
    descent_cocycle,
    field_of_moduli,
    quotient_ramification,
)
from p1moduli.linalg import inverse, mat_mul, mat_vec
from p1moduli.projline import Mobius, ProjPoint
from p1moduli.qfield import (
    FieldTower,
    GaloisGroup,
    fixed_subtower,
    galois_group,
    multiquadratic_tower,
    sorted_by_coords,
    tower_extend,
)
from test_decide import obstructed_eight, twisted_six

QQ = FieldTower()


def fin(tower, value):
    return ProjPoint.finite(tower.from_rational(F(value)))


def elem(tower, coords):
    return ProjPoint.finite(tower.element(coords))


def q_i_pentagon():
    """{i, 0, 1, -1, oo} over Q(i); Aut is Z/4 rotating the harmonic part."""
    t = tower_extend(QQ, F(-1)).tower
    pts = [elem(t, [0, 1]), fin(t, 0), fin(t, 1), fin(t, -1),
           ProjPoint.infinity(t)]
    return Divisor(pts)


def sqrt2_five_points():
    t = tower_extend(QQ, F(2)).tower
    r = t.root(0)
    return Divisor([ProjPoint.finite(r), ProjPoint.finite(-r),
                    fin(t, 0), fin(t, 1), fin(t, 3)])


def rational_involution_six():
    """{1, 2, -1, -2, 3, 2/3}: stable under z -> 2/z and nothing else."""
    return Divisor([fin(QQ, 1), fin(QQ, 2), fin(QQ, -1), fin(QQ, -2),
                    fin(QQ, 3), fin(QQ, F(2, 3))])


def biquadratic_five_points():
    t1 = tower_extend(QQ, F(2)).tower
    t2 = tower_extend(t1, F(3)).tower
    r2 = t2.element([0, 1, 0, 0])
    r3 = t2.element([0, 0, 1, 0])
    return Divisor([ProjPoint.finite(r2), ProjPoint.finite(-r2),
                    ProjPoint.finite(r3), ProjPoint.finite(-r3), fin(t2, 1)])


@functools.lru_cache(maxsize=None)
def counterexample_eight():
    """The seed-1 (-1, -1) counterexample of degree 8: Aut of order 2,
    H2 = (Z/2)^3 over a level-3 tower."""
    return gen_counterexample(CounterexampleSpec(-1, -1, 8, seed=1))[0].divisor


# ---------------------------------------------------------------------------
# field of moduli
# ---------------------------------------------------------------------------

def test_fom_is_q_when_divisor_is_stable():
    d = sqrt2_five_points()
    data = field_of_moduli(d)
    assert len(data.h_indices) == 2
    assert data.fom_is_q
    assert data.fom.tower.level == 0


def test_fom_biquadratic_full_group():
    d = biquadratic_five_points()
    data = field_of_moduli(d)
    assert len(data.h_indices) == 4
    assert data.fom_is_q


def test_fom_proper_subfield():
    t = tower_extend(QQ, F(2)).tower
    r = t.root(0)
    d = Divisor([ProjPoint.finite(r), ProjPoint.finite(t.from_rational(2) + r),
                 fin(t, 5), fin(t, 0), fin(t, 1)])
    data = field_of_moduli(d)
    assert data.h_indices == (0,)
    assert not data.fom_is_q
    assert data.fom.tower.level == 1
    assert data.fom.tower.rational_radicands() == [F(2)]


def test_fom_witnesses_carry_conjugate_back():
    d = q_i_pentagon()
    data = field_of_moduli(d)
    assert len(data.h_indices) == 2  # the full group of Q(i)
    for i in data.h_indices:
        sigma = data.group.elements[i]
        assert conjugate_divisor(sigma, d).apply(data.cochain[i]) == d


def test_fom_nontrivial_witness_needed():
    # sigma(D) != D for the pentagon, so the witness is a real motion
    d = q_i_pentagon()
    data = field_of_moduli(d)
    moved = [i for i in data.h_indices
             if conjugate_divisor(data.group.elements[i], d) != d]
    assert moved
    assert all(not data.cochain[i].is_identity() for i in moved)


def spoil_last_call(monkeypatch, name, calls_in_clean_run, spoiler):
    """Patch moduli.<name> so that its call number calls_in_clean_run
    (its last one in a run like the clean one) returns a spoiled value;
    returns the list of its outputs. With 0 it only records them."""
    real = getattr(moduli, name)
    calls = []

    def spoiled(*args):
        out = real(*args)
        calls.append(out)
        return spoiler(out) if len(calls) == calls_in_clean_run else out

    monkeypatch.setattr(moduli, name, spoiled)
    return calls


@pytest.mark.parametrize("make", [biquadratic_five_points,
                                  counterexample_eight])
def test_spoiled_closure_witness_detected(monkeypatch, make):
    # closure witnesses phi_a o a(phi_b) are composed, not searched; the
    # last one composed, spoiled by z -> z + 1 after a(phi_b), must fail
    # its three-point check against the composed permutation
    d = make()
    probe = spoil_last_call(monkeypatch, "conjugate_mobius", 0, None)
    field_of_moduli(d)
    closed = len(probe)
    assert closed >= 1
    shift = Mobius.from_rationals(d.tower, 1, 1, 0, 1)
    spoil_last_call(monkeypatch, "conjugate_mobius", closed,
                    shift.compose)
    with pytest.raises(InternalInconsistency,
                       match="witness does not carry sigma"):
        field_of_moduli(d)


@pytest.mark.parametrize("make", [biquadratic_five_points,
                                  counterexample_eight])
def test_spoiled_twisted_witness_detected(monkeypatch, make):
    # s(kappa)^-1, the matrix mat_map(s, kappa^-1), enters the twisted
    # witness of every element s of H2, and no other mat_map call comes
    # first; a spoiled one at the last element must fail the three-point
    # check on kappa(D)
    d = make()
    data = field_of_moduli(d)
    h2 = compression(d, data).h2_group
    one, zero = h2.tower.one(), h2.tower.zero()
    shift = [[one, one], [zero, one]]  # z -> z + 1
    calls = spoil_last_call(monkeypatch, "mat_map", h2.order,
                            functools.partial(mat_mul, shift))
    with pytest.raises(InternalInconsistency,
                       match="twisted witness fails on moved divisor"):
        compression(d, data)
    assert len(calls) == h2.order


# ---------------------------------------------------------------------------
# descent cocycle
# ---------------------------------------------------------------------------

def test_cocycle_trivial_for_stable_divisors():
    d = biquadratic_five_points()
    data = field_of_moduli(d)
    coc = descent_cocycle(data)
    assert all(v.is_identity() for v in coc.values.values())
    assert len(coc.values) == 16


def test_cocycle_values_stabilize_divisor():
    d = q_i_pentagon()
    data = field_of_moduli(d)
    coc = descent_cocycle(data)
    for v in coc.values.values():
        assert d.apply(v) == d


def imaged_perm(d, sigma, m):
    """The permutation of D found by imaging every point: m(sigma(p_k))
    is p_perm[k], with None where the image leaves D."""
    where = {p: k for k, p in enumerate(d.points)}.get
    return tuple(where(m(ProjPoint(sigma(p.x), sigma(p.y))))
                 for p in d.points)


def swap_witness(data, i, m):
    """Replace the witness at i by m, with the permutation of D that m
    induces, as imaging D finds it."""
    data.cochain[i] = m
    data.perms[i] = imaged_perm(data.divisor, data.group.elements[i], m)


def test_cocycle_identity_agrees_with_mobius_form():
    # the values computed on permutations of D are the maps
    # phi_i o sigma_i(phi_j) o phi_ij^-1 composed as matrices, and the
    # table lookups accept what composing the maps themselves accepts.
    # The coboundary of any Aut-adjusted cochain is a cocycle; with
    # phi_id = a its value at (i, id) is the twist phi_i o sigma_i(a) o
    # phi_i^-1, so running over all a in Aut checks every twist. On the
    # pentagon conjugation acts on Aut = C4 by inversion, so phi_id = g
    # gives values g and g^-1 that pass only when the twist is applied
    for d in (q_i_pentagon(), obstructed_eight(), counterexample_eight()):
        data = field_of_moduli(d)
        group, h, phi = data.group, data.h_indices, data.cochain
        for a in data.aut.elements:
            swap_witness(data, 0, a)
            c = descent_cocycle(data).values
            for i in h:
                si = group.elements[i]
                for j in h:
                    ij = group.table[i][j]
                    assert c[(i, j)] == phi[i].compose(
                        conjugate_mobius(si, phi[j])).compose(phi[ij].inverse())
                assert c[(i, 0)] == phi[i].compose(conjugate_mobius(si, a)) \
                    .compose(phi[i].inverse())
                for j in h:
                    for k in h:
                        lhs = c[(i, j)].compose(c[(group.table[i][j], k)])
                        twisted = phi[i].compose(
                            conjugate_mobius(si, c[(j, k)])) \
                            .compose(phi[i].inverse())
                        assert lhs == twisted.compose(
                            c[(i, group.table[j][k])])
    pentagon = field_of_moduli(q_i_pentagon())
    assert pentagon.aut.order == 4
    g = pentagon.aut.elements[pentagon.aut.orders.index(4)]
    swap_witness(pentagon, 0, g)
    c = descent_cocycle(pentagon).values
    assert {c[(0, 0)], c[(1, 0)]} == {g, g.inverse()}


def test_cochain_value_outside_aut_detected():
    d = biquadratic_five_points()
    data = field_of_moduli(d)
    shift = Mobius.from_rationals(d.tower, 1, 1, 0, 1)  # z -> z + 1
    assert shift not in data.aut
    i = data.h_indices[1]
    swap_witness(data, i, shift.compose(data.cochain[i]))
    assert None in data.perms[i]
    with pytest.raises(InternalInconsistency, match="moves the divisor"):
        descent_cocycle(data)


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def test_compression_order_four_pentagon():
    d = q_i_pentagon()
    aut = compute_aut(d)
    assert aut.tag.label() == "cyclic(4)"
    data = field_of_moduli(d)
    comp = compression(d, data)
    assert comp.m == 4
    one = comp.tower2.one()
    assert comp.zeta ** 4 == one and comp.zeta ** 2 != one
    # conic of a rationally compressible divisor must have a point
    assert find_point(comp.conic) is not None


def test_compression_refuses_a_generator_of_smaller_order(monkeypatch):
    # the square of a cyclic(4) generator conjugates to w -> -w, and -1 is
    # not a primitive 4th root of unity
    d = q_i_pentagon()
    data = field_of_moduli(d)
    real = AutGroup.generator
    monkeypatch.setattr(AutGroup, "generator",
                        lambda self: real(self).compose(real(self)))
    with pytest.raises(InternalInconsistency,
                       match="generator order mismatch"):
        compression(d, data)


def test_compression_extends_tower_for_irrational_fixed_points():
    d = rational_involution_six()
    aut = compute_aut(d)
    assert aut.order == 2
    data = field_of_moduli(d)
    comp = compression(d, data)
    assert d.tower.level == 0 and comp.tower2.level == 1
    assert comp.h2_group.order == 2
    assert find_point(comp.conic) is not None


def test_compression_trivial_aut_descends_whole_line():
    d = sqrt2_five_points()
    data = field_of_moduli(d)
    comp = compression(d, data)
    assert comp.m == 1
    assert find_point(comp.conic) is not None


def test_compression_recovers_veronese_quadric():
    d = q_i_pentagon()
    data = field_of_moduli(d)
    comp = compression(d, data)
    t2 = comp.tower2
    gram = [[t2.from_rational(comp.conic.gram[i][j]) for j in range(3)]
            for i in range(3)]
    binv = inverse(comp.basis)
    bt = [[binv[j][i] for j in range(3)] for i in range(3)]
    back = mat_mul(bt, mat_mul(gram, binv))
    q = [[F(0), F(0), F(1, 2)], [F(0), F(-1), F(0)], [F(1, 2), F(0), F(0)]]
    # the conic is the quadric up to a rational scale
    assert back[1][1].is_rational()
    scale = -back[1][1].as_fraction()
    assert scale != 0
    for i in range(3):
        for j in range(3):
            assert back[i][j] == t2.from_rational(q[i][j] * scale)


def test_compression_conic_over_proper_subfield():
    t = tower_extend(QQ, F(2)).tower
    r = t.root(0)
    d = Divisor([ProjPoint.finite(r), ProjPoint.finite(t.from_rational(2) + r),
                 fin(t, 5), fin(t, 0), fin(t, 1)])
    data = field_of_moduli(d)
    comp = compression(d, data)
    assert comp.conic is None
    assert all(x.tower == data.fom.tower
               for row in comp.conic_gram_fom for x in row)


@pytest.mark.parametrize("make", [biquadratic_five_points,
                                  counterexample_eight])
@pytest.mark.parametrize("spoil", ["psi"])
def test_compression_cocycle_checks_reach_non_generators(
        monkeypatch, make, spoil):
    # the psi identity is checked for generators s of H2 only, against
    # every t; a value spoiled at the last element of H2, which is no
    # generator, must still fail its own check. (The rho identity follows
    # from it and is not checked; see
    # test_sym2_over_det_is_a_galois_homomorphism.)
    d = make()
    data = field_of_moduli(d)
    clean = compression(d, data)
    h2 = clean.h2_group
    last = h2.order - 1
    assert h2.order >= 4 and last not in h2.generators(range(h2.order))
    # z -> 2z - 5^m fixes the point where psi is checked against the
    # witness it descends, and moves every other point
    shift = Mobius.from_rationals(clean.tower2, 2, -5 ** clean.m, 0, 1)
    # psi_k is descended from the k-th twisted witness in closed form,
    # one _descend call per element of H2 in index order; the spoiler
    # turns the last psi_k into psi_k o shift
    calls = spoil_last_call(monkeypatch, "_descend", h2.order,
                            lambda psi: psi.compose(shift))
    with pytest.raises(InternalInconsistency,
                       match="1-cocycle identity fails for psi"):
        compression(d, data)
    assert len(calls) == h2.order


def flip_sign(psi: Mobius, j: int) -> Mobius:
    entries = list(psi.entries())
    entries[j] = -entries[j]
    return Mobius(*entries)


@pytest.mark.parametrize("make", [biquadratic_five_points,
                                  counterexample_eight])
def test_assert_cocycle_refuses_a_sign_flip(make):
    # psi_k with one non-lead entry negated is another map; every pair
    # with k as its target then has a product that differs from psi_k by
    # that sign only, and the lead-entry comparison must see it
    d = make()
    comp = compression(d, field_of_moduli(d))
    h2 = comp.h2_group
    gens = h2.generators(range(h2.order)) or [0]
    moduli._assert_cocycle(h2, gens, comp.psi)
    for k in range(1, h2.order):
        nonzero = [j for j, e in enumerate(comp.psi[k].entries()) if e]
        spoiled = dict(comp.psi)
        spoiled[k] = flip_sign(comp.psi[k], nonzero[-1])
        with pytest.raises(InternalInconsistency,
                           match="1-cocycle identity fails for psi"):
            moduli._assert_cocycle(h2, gens, spoiled)


def test_assert_cocycle_on_the_trivial_group():
    # over Q the one pair is (1, 1): psi_1 = psi_1 psi_1 up to scale
    group = galois_group(QQ)
    check = functools.partial(moduli._assert_cocycle, group, [0])
    check({0: Mobius.identity(QQ)})
    # the product I differs from diag(1, -1) only in the sign of d
    with pytest.raises(InternalInconsistency, match="1-cocycle identity"):
        check({0: Mobius.from_rationals(QQ, 1, 0, 0, -1)})
    # [[1, 1], [-1, 0]]^2 = [[0, 1], [-1, -1]] has a zero lead entry
    with pytest.raises(InternalInconsistency, match="1-cocycle identity"):
        check({0: Mobius.from_rationals(QQ, 1, 1, -1, 0)})


@pytest.mark.parametrize("tower", [
    multiquadratic_tower([2, -3]),
    tower_extend(multiquadratic_tower([2]),
                 multiquadratic_tower([2]).element([2, 1])).tower,
    multiquadratic_tower([-1, 2, 5])], ids=["V4", "C4", "V8"])
def test_sym2_over_det_is_a_galois_homomorphism(tower):
    # why compression need not check the rho identity: for nonsingular M,
    # N and a nonzero tower element l, rho(M) = Sym^2(M)/det M satisfies
    # rho(l M) = rho(M), rho(M N) = rho(M) rho(N) and s(rho(M)) = rho(s(M))
    # for every Galois element s, so a projective psi cocycle is an exact
    # rho cocycle
    rng = random.Random(f"sym2:{tower.rad_coords}")
    sym2 = moduli._sym2_over_det

    def rand():
        return tower.element([F(rng.randint(-6, 6), rng.randint(1, 3))
                              for _ in range(tower.degree)])

    def nonsingular():
        while True:
            a, b, c, d = (rand() for _ in range(4))
            if a * d - b * c:
                return a, b, c, d

    group = galois_group(tower)
    assert group.order == tower.degree
    for _ in range(4):
        m, n = nonsingular(), nonsingular()
        lam = next(x for x in iter(rand, None) if x)
        rho_m = sym2(*m)
        assert sym2(*(lam * x for x in m)) == rho_m
        (a, b), (c, d) = mat_mul([m[:2], m[2:]], [n[:2], n[2:]])
        assert sym2(a, b, c, d) == mat_mul(rho_m, sym2(*n))
        for s in group.elements:
            assert linalg.mat_map(s, rho_m) == sym2(*map(s, m))


def test_compression_builds_each_map_once(monkeypatch):
    # the seed-1 counterexample (m = 2, H2 of order 8 over the base tower):
    # one normalised map per twisted witness and per descended map, no
    # composition, no elimination for the Q presentation and H2 read off
    # the Galois group of the base
    d = counterexample_eight()
    data = field_of_moduli(d)
    counts = {}

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            key = f"{owner.__name__}.{name}"
            counts[key] = counts.get(key, 0) + 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    count(Mobius, "__init__")
    count(Mobius, "compose")
    count(linalg, "rref")
    count(GaloisGroup, "__init__")
    comp = compression(d, data)
    assert comp.h2_group.order == 8 and comp.m == 2
    assert counts.get("Mobius.__init__", 0) <= 30
    assert counts.get("Mobius.compose", 0) <= 2
    assert "p1moduli.linalg.rref" not in counts
    assert "GaloisGroup.__init__" not in counts
    monkeypatch.undo()
    # the shared Galois elements keep their index in the base group
    assert all(data.group.elements[i] is s and s.index == i
               for i, s in zip(data.h_indices, comp.h2_group.elements))


def test_compression_rejects_noncyclic():
    d = Divisor([fin(QQ, 0), ProjPoint.infinity(QQ), fin(QQ, 1), fin(QQ, -1)])
    data = field_of_moduli(d)
    with pytest.raises(NonCyclicAut):
        compression(d, data)


# ---------------------------------------------------------------------------
# compressed divisor
# ---------------------------------------------------------------------------

def test_compressed_degrees_pentagon():
    d = q_i_pentagon()
    data = field_of_moduli(d)
    comp = compression(d, data)
    cd = compressed_divisor(d, data, comp)
    assert cd.degrees == [1, 1]


def test_compressed_degrees_split_orbits():
    d = sqrt2_five_points()
    data = field_of_moduli(d)
    comp = compression(d, data)
    cd = compressed_divisor(d, data, comp)
    assert cd.degrees == [1, 1, 1, 2]
    assert sum(cd.degrees) == 5
    assert not cd.all_degrees_even()


def test_compressed_degrees_biquadratic():
    d = biquadratic_five_points()
    data = field_of_moduli(d)
    comp = compression(d, data)
    cd = compressed_divisor(d, data, comp)
    assert cd.degrees == [1, 2, 2]


def test_compressed_points_lie_on_conic():
    for d in (q_i_pentagon(), rational_involution_six()):
        data = field_of_moduli(d)
        comp = compression(d, data)
        cd = compressed_divisor(d, data, comp)
        t2 = comp.tower2
        gram = [[t2.from_rational(comp.conic.gram[i][j]) for j in range(3)]
                for i in range(3)]
        for orbit in cd.orbits:
            for pt in orbit:
                gv = mat_vec(gram, list(pt))
                val = sum((pt[k] * gv[k] for k in range(1, 3)),
                          start=pt[0] * gv[0])
                assert val.is_zero()


def test_kappa_divisor_is_built_only_for_orbits(monkeypatch):
    # compression keeps kappa(D) as unnormalised pairs, and a solvable
    # conic reads no orbits, so deciding it builds no Divisor of kappa(D)
    solvable, obstructed = twisted_six(), obstructed_eight()
    built = []
    init = Divisor.__init__

    def counted(self, points):
        init(self, points)
        built.append(set(self.points))

    monkeypatch.setattr(Divisor, "__init__", counted)
    v = decide(solvable)
    assert v.outcome == DEFINED_ON_P1 and v.compressed is None
    assert {ProjPoint(x, y) for x, y in v.compression.divisor_conj} \
        not in built
    assert decide(obstructed).compressed.degrees == [2, 2]


def test_compressed_degree_count_matches_orbits():
    d = rational_involution_six()
    data = field_of_moduli(d)
    comp = compression(d, data)
    cd = compressed_divisor(d, data, comp)
    # three <2/z>-orbits of size two, each rational as a point downstairs
    assert cd.degrees == [1, 1, 1]


# ---------------------------------------------------------------------------
# ramification ledger
# ---------------------------------------------------------------------------

def test_ramification_ledger_shape():
    led = quotient_ramification(5)
    assert led.covering_degree == 5
    assert led.entries == [("0", 5, 4, 1), ("infinity", 5, 4, 1)]
    assert sum(dd * res for (_, _, dd, res) in led.entries) == 8


def test_ramification_rejects_trivial_cover():
    with pytest.raises(ValueError):
        quotient_ramification(1)


# ---------------------------------------------------------------------------
# quaternion decomposition of the obstruction class
# ---------------------------------------------------------------------------

def symbols_agree(symbols_a, symbols_b):
    """Same Brauer class: equal local Hilbert invariants everywhere that
    could matter for the participating entries."""
    places = {"infinity", 2}
    for (u, v) in symbols_a + symbols_b:
        for w in (u, v):
            for p in range(2, abs(w) + 1):
                if w % p == 0:
                    places.add(p)
    def local(symbols, p):
        out = 1
        for (u, v) in symbols:
            out *= hilbert_symbol(u, v, p)
        return out
    return all(local(symbols_a, p) == local(symbols_b, p) for p in places)


def two_five_tower_data():
    t1 = tower_extend(QQ, F(2)).tower
    t2 = tower_extend(t1, F(5)).tower
    group = galois_group(t2)
    h = tuple(range(group.order))
    fom = fixed_subtower(group, h)
    ident = Mobius.identity(t2)
    cochain = {i: ident for i in h}
    perms = {i: (0, 1, 2) for i in h}
    dummy = Divisor([fin(t2, 0), fin(t2, 1), fin(t2, 2)])
    return t2, group, ModuliData(group, h, cochain, perms, fom, dummy)


def sign_vector(group, i, tower):
    """Action of element i on (sqrt2, sqrt5) as bits."""
    r2 = tower.element([0, 1, 0, 0])
    r5 = tower.element([0, 0, 1, 0])
    sig = group.elements[i]
    return (0 if sig(r2) == r2 else 1, 0 if sig(r5) == r5 else 1)


def test_quaternion_trivial_class():
    t2, group, data = two_five_tower_data()
    coc = descent_cocycle(data)
    assert cocycle_class_to_quaternion(coc, data) == []


def test_quaternion_cup_product_class():
    t2, group, data = two_five_tower_data()
    g = Mobius.from_rationals(t2, -1, 0, 0, 1)  # z -> -z, an involution
    ident = Mobius.identity(t2)
    h = data.h_indices
    values = {}
    for i in h:
        si = sign_vector(group, i, t2)
        for j in h:
            sj = sign_vector(group, j, t2)
            values[(i, j)] = g if (si[0] * sj[1]) % 2 else ident
    coc = Cocycle(values)
    symbols = cocycle_class_to_quaternion(coc, data)
    assert symbols_agree(symbols, [(2, 5)])


def test_quaternion_diagonal_class():
    t2, group, data = two_five_tower_data()
    g = Mobius.from_rationals(t2, -1, 0, 0, 1)
    ident = Mobius.identity(t2)
    h = data.h_indices
    values = {}
    for i in h:
        si = sign_vector(group, i, t2)
        for j in h:
            sj = sign_vector(group, j, t2)
            values[(i, j)] = g if (si[0] * sj[0]) % 2 else ident
    coc = Cocycle(values)
    symbols = cocycle_class_to_quaternion(coc, data)
    assert symbols_agree(symbols, [(2, -1)])


def test_quaternion_reads_dual_radicands_without_elimination(monkeypatch):
    # the seed-1 counterexample: H = Gal of a level-3 multiquadratic tower
    data = field_of_moduli(counterexample_eight())
    coc = descent_cocycle(data)
    calls = []
    real = linalg.rref

    def counting(m):
        calls.append(len(m))
        return real(m)

    monkeypatch.setattr(linalg, "rref", counting)
    symbols = cocycle_class_to_quaternion(coc, data)
    assert calls == []
    # dual radicands of the generators of H, as the matrix path found them
    assert symbols == [(-38, -1), (-2, -1), (-19, -1)]


def test_quaternion_rejects_cyclic_quartic_group():
    t1 = tower_extend(QQ, F(2)).tower
    step2 = tower_extend(t1, t1.from_rational(2) + t1.root(0))
    t2 = step2.tower
    r = t2.root(1)
    s2 = t2.element([0, 1, 0, 0])
    other = s2 / r  # sqrt(2 - sqrt2)
    d = Divisor([ProjPoint.finite(r), ProjPoint.finite(-r),
                 ProjPoint.finite(other), ProjPoint.finite(-other)])
    data = field_of_moduli(d)
    assert data.fom_is_q and len(data.h_indices) == 4
    coc = descent_cocycle(data)
    with pytest.raises(NonElementaryGaloisQuotient):
        cocycle_class_to_quaternion(coc, data)


def test_quaternion_rejects_higher_order_values():
    group = galois_group(QQ)
    fom = fixed_subtower(group, (0,))
    dummy = Divisor([fin(QQ, 0), fin(QQ, 1), fin(QQ, 2)])
    data = ModuliData(group, (0,), {0: Mobius.identity(QQ)}, {0: (0, 1, 2)},
                      fom, dummy)
    spin = Mobius.from_rationals(QQ, 1, -1, 1, 1)  # order 4
    coc = Cocycle({(0, 0): spin})
    with pytest.raises(UnsupportedAut):
        cocycle_class_to_quaternion(coc, data)


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------

def test_random_stable_divisors_descend(rounds=4):
    rng = random.Random(940)
    rads = [2, 3, 5, -1, -2]
    for _ in range(rounds):
        rad = F(rng.choice(rads))
        t = tower_extend(QQ, rad).tower
        r = t.root(0)
        used = set()
        pts = [ProjPoint.finite(r), ProjPoint.finite(-r)]
        while len(pts) < 5:
            q = F(rng.randint(-6, 6))
            if q in used:
                continue
            used.add(q)
            pts.append(fin(t, q))
        d = Divisor(pts)
        data = field_of_moduli(d)
        assert data.fom_is_q
        frozen = frozenset(data.h_indices)
        assert data.group.subgroup_closure(data.h_indices) == frozen
        aut = compute_aut(d)
        if not aut.is_cyclic():
            continue
        comp = compression(d, data)
        cd = compressed_divisor(d, data, comp)
        orbit_count = len({frozenset(
            (m(p).x.coords, m(p).y.coords) for m in aut.elements)
            for p in d.points})
        assert sum(cd.degrees) == orbit_count
        assert find_point(comp.conic) is not None


# ---------------------------------------------------------------------------
# int sort keys against the Fraction sort keys
# ---------------------------------------------------------------------------

def fraction_key(row):
    return tuple(e.sort_key() for e in row)


def mixed_elem(rng, tower):
    """Coordinates over denominators 1 to 12, about a third of them 0."""
    return tower.element([F(rng.randint(-3, 3), rng.randint(1, 12))
                          if rng.random() < 0.6 else 0
                          for _ in range(tower.degree)])


def octahedron():
    """{0, oo, +-1, +-i} over Q(i); Aut is S4."""
    t = tower_extend(QQ, F(-1)).tower
    i = t.root(0)
    return Divisor([fin(t, 0), fin(t, 1), fin(t, -1), ProjPoint.finite(i),
                    ProjPoint.finite(-i), ProjPoint.infinity(t)])


def test_int_keys_order_as_fraction_keys():
    rng = random.Random(2424)
    t1 = tower_extend(QQ, F(2)).tower
    for tower in (QQ, t1, multiquadratic_tower([-1, 3]),
                  multiquadratic_tower([-1, 2, 3]),
                  tower_extend(t1, t1.element([2, 1])).tower):
        # equal rows keep their order in both stable sorts
        rows = [tuple(mixed_elem(rng, tower) for _ in range(2))
                for _ in range(40)]
        assert sorted_by_coords(rows, lambda r: r) == \
            sorted(rows, key=fraction_key)
        pts = list({ProjPoint.finite(mixed_elem(rng, tower))
                    for _ in range(9)}) + [ProjPoint.infinity(tower)]
        rng.shuffle(pts)
        assert Divisor(pts).points == tuple(sorted(pts,
                                                   key=ProjPoint.sort_key))
        rest = galois_group(tower).elements[1:]
        assert list(rest) == sorted(rest, key=lambda e: fraction_key(e.images))

    for d in (octahedron(), q_i_pentagon(), sqrt2_five_points(),
              biquadratic_five_points(), rational_involution_six(),
              counterexample_eight(), obstructed_eight()):
        rest = d.aut.elements[1:]
        assert list(rest) == sorted(rest,
                                    key=lambda m: fraction_key(m.entries()))
        for sigma in galois_group(d.tower).elements:
            moved = [ProjPoint(sigma(p.x), sigma(p.y)) for p in d.points]
            base = tuple(sorted(range(d.degree),
                                key=lambda k: moved[k].sort_key())[:3])
            assert d.galois_witness(sigma) == \
                next(_matches(moved, base, d.points, [], []), None)
        if not d.aut.is_cyclic():
            continue
        data = field_of_moduli(d)
        comp = compression(d, data)
        cd = compressed_divisor(d, data, comp)
        keys = [(deg, [fraction_key(pt) for pt in orbit])
                for deg, orbit in zip(cd.degrees, cd.orbits)]
        assert keys == sorted(keys)
        # within an orbit, conic points follow their points y on the line
        line_point = {}
        for x, y in comp.divisor_conj:
            q = ProjPoint(x ** comp.m, y ** comp.m)
            v = mat_vec(inverse(comp.basis), moduli._veronese_point(q))
            lead = next(c for c in v if c).inverse()
            line_point[tuple(c * lead for c in v)] = q
        for orbit in cd.orbits:
            ys = [line_point[pt] for pt in orbit]
            assert ys == sorted(ys, key=lambda q: (q.x.coords, q.y.coords))
