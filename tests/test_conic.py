# tests/test_conic.py
import importlib
import random
from fractions import Fraction

import pytest

from p1moduli import linalg
from p1moduli.conic import (
    INFINITE_PLACE,
    TernaryForm,
    diagonalize,
    find_point,
    hasse_solvable,
    hilbert_symbol,
    parametrize,
)
from p1moduli.errors import InternalInconsistency, PointNotOnConic, \
    SingularForm
from p1moduli.intmath import fraction_sqrt, squarefree_part

F = Fraction


def brute_force_diag_point(a, b, c, height):
    # diagonal forms are even in each variable, so x, y >= 0 suffices;
    # z is solved for rather than enumerated
    import math
    for x in range(height + 1):
        for y in range(height + 1):
            num = -(a * x * x + b * y * y)
            if num % c:
                continue
            q = num // c
            if q < 0:
                continue
            z = math.isqrt(q)
            if z * z == q and (x or y or z):
                return (x, y, z)
    return None


def random_squarefree(rng, lo=2, hi=30):
    while True:
        v = rng.randint(lo, hi) * rng.choice([1, -1])
        if v != 0 and squarefree_part(v) == v:
            return v


# ---------------------------------------------------------
# diagonalization
# ---------------------------------------------------------

def test_diagonalize_hyperbolic_form():
    # y0 y2 - y1^2
    f = TernaryForm([[0, 0, F(1, 2)], [0, -1, 0], [F(1, 2), 0, 0]])
    (a, b, c), basis = diagonalize(f)
    assert sorted((a, b, c)) == [-1, -1, 1]
    assert linalg.det(basis) != 0


def test_diagonalize_keeps_diagonal():
    f = TernaryForm.diagonal(1, 1, 1)
    coeffs, basis = diagonalize(f)
    assert coeffs == (1, 1, 1)
    assert basis == linalg.identity(3)


def test_diagonalize_random_congruence():
    rng = random.Random(2024)
    for _ in range(20):
        while True:
            m = [[F(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
            if linalg.det(m) != 0:
                break
        g0 = TernaryForm.diagonal(1, 1, 1).gram
        g = linalg.mat_mul(linalg.mat_mul(linalg.transpose(m),
                                          [list(r) for r in g0]), m)
        f = TernaryForm(g)
        (a, b, c), basis = diagonalize(f)
        # congruent to the unit form: diagonal entries positive squarefree
        assert a > 0 and b > 0 and c > 0
        check = linalg.mat_mul(linalg.mat_mul(linalg.transpose(basis), g), basis)
        assert check == [[F(x) if i == j else F(0)
                          for j, x in enumerate((a, b, c))] for i in range(3)]


def test_diagonalize_squarefree_diagonal_forms():
    # a diagonal form with squarefree integer entries comes back as
    # (entries, I); the general path gives the same coefficients for
    # 4 f, with B = I / 2, and the same (entries, I) for f itself
    rng = random.Random(20261019)
    for _ in range(20):
        entries = tuple(random_squarefree(rng, 1, 60) for _ in range(3))
        coeffs, basis = diagonalize(TernaryForm.diagonal(*entries))
        assert coeffs == entries and all(type(c) is int for c in coeffs)
        assert basis == linalg.identity(3)
        assert all(type(x) is F for row in basis for x in row)
        coeffs4, basis4 = diagonalize(TernaryForm.diagonal(
            *(4 * e for e in entries)))
        assert coeffs4 == entries
        assert [[2 * x for x in row] for row in basis4] == basis


def test_diagonalize_rescales_other_diagonal_forms():
    for entries, want in (((1, 1, -8), (1, 1, -2)),
                          ((F(1, 2), 3, F(-5, 9)), (2, 3, -5)),
                          ((12, F(7, 3), -1), (3, 21, -1))):
        f = TernaryForm.diagonal(*entries)
        coeffs, basis = diagonalize(f)
        assert coeffs == want
        check = linalg.mat_mul(linalg.mat_mul(linalg.transpose(basis),
                                              [list(r) for r in f.gram]), basis)
        assert check == [[F(x) if i == j else F(0)
                          for j, x in enumerate(want)] for i in range(3)]


def test_diagonalize_rejects_singular():
    with pytest.raises(SingularForm):
        diagonalize(TernaryForm.diagonal(1, 1, 0))


def oracle_diagonalize(f):
    """The rational congruence elimination, one Fraction column operation
    at a time, as diagonalize ran it before it worked over the integers.
    Returns (coeffs, B) and the branches taken: "diagonal" for the early
    return, ("swap", i) and ("sum", i) for a zero pivot at step i."""
    (d0, _, _), (u, d1, _), (v, w, d2) = f.gram
    if not (u or v or w) and all(d and d.denominator == 1
                                 and squarefree_part(d) == d
                                 for d in (d0, d1, d2)):
        return (tuple(map(int, (d0, d1, d2))), linalg.identity(3)), \
            {"diagonal"}
    g = [list(r) for r in f.gram]
    b = [list(r) for r in linalg.identity(3)]
    branches = set()

    def addmul(dst, src, r):
        for k in range(3):
            g[k][dst] += r * g[k][src]
        for k in range(3):
            g[dst][k] += r * g[src][k]
        for k in range(3):
            b[k][dst] += r * b[k][src]

    for i in range(3):
        if g[i][i] == 0:
            j = next((j for j in range(i + 1, 3) if g[j][j] != 0), None)
            if j is not None:
                branches.add(("swap", i))
                for m in (g, b):
                    for row in m:
                        row[i], row[j] = row[j], row[i]
                g[i], g[j] = g[j], g[i]
            else:
                branches.add(("sum", i))
                j = next(j for j in range(i + 1, 3) if g[i][j] != 0)
                addmul(i, j, F(1))
        for j in range(i + 1, 3):
            if g[i][j] != 0:
                addmul(j, i, -g[i][j] / g[i][i])
    coeffs = []
    for i in range(3):
        target = squarefree_part(g[i][i])
        r = fraction_sqrt(F(target) / g[i][i])
        for k in range(3):
            b[k][i] *= r
        coeffs.append(target)
    return (tuple(coeffs), b), branches


def random_rational(rng, zero=True):
    """A small rational with a small denominator; nonzero unless ``zero``."""
    while True:
        v = F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 9, 10]))
        if v or zero:
            return v


def congruent_form(rng, h):
    """T^T H T with T = I + s e_01 + t e_02, s and t each zero or not: the
    elimination clears row 0 against H's pivot, scaling column 1 when s is
    nonzero and column 2 when t is, and then meets H's lower block."""
    s, t = (rng.choice([F(0), random_rational(rng, zero=False)])
            for _ in range(2))
    m = [[F(1), s, t], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    return linalg.mat_mul(linalg.mat_mul(linalg.transpose(m), h), m)


def oracle_cases(rng):
    """Upper triangles of symmetric Gram matrices, by branch."""
    z = F(0)

    def r(zero=False):
        return random_rational(rng, zero)

    for _ in range(30):  # generic pivots
        yield [[r(), r(), r(True)], [None, r(), r()], [None, None, r(True)]]
        # zero pivot at step 0: a swap, or the sum when all three vanish
        yield [[z, r(), r()], [None, r(), r(True)], [None, None, r(True)]]
        yield [[z, r(), r()], [None, z, r()], [None, None, z]]
        # zero pivot at step 1 behind a nonzero one: a swap, or the sum
        # of two columns that may carry different scales
        yield congruent_form(rng, [[r(), z, z], [z, z, r()], [z, r(), r()]])
        yield congruent_form(rng, [[r(), z, z], [z, z, r()], [z, r(), z]])
        # diagonal forms, squarefree integral or not
        yield [[F(random_squarefree(rng, 1, 40)), z, z],
               [None, F(random_squarefree(rng, 1, 40)), z],
               [None, None, F(random_squarefree(rng, 1, 40))]]
        yield [[r(), z, z], [None, r(), z], [None, None, r()]]


def test_diagonalize_matches_the_rational_elimination():
    # the integer elimination returns the rational one's (coeffs, B)
    # exactly, int coefficients and Fraction entries, in every branch
    rng = random.Random(20261020)
    seen = set()
    for rows in oracle_cases(rng):
        gram = [[rows[min(i, j)][max(i, j)] for j in range(3)]
                for i in range(3)]
        if linalg.det(gram) == 0:
            continue
        f = TernaryForm(gram)
        (want, branches) = oracle_diagonalize(f)
        seen |= branches or {"generic"}
        got = diagonalize(f)
        assert got == want
        coeffs, basis = got
        assert all(type(c) is int for c in coeffs)
        assert all(type(x) is F for row in basis for x in row)
        # kept on the form: a second call returns the same, and changing
        # the returned basis does not reach the kept one
        basis[0][0] += 1
        assert diagonalize(TernaryForm(gram)) == want == diagonalize(f)
    assert seen >= {"generic", "diagonal", ("swap", 0), ("sum", 0),
                    ("swap", 1), ("sum", 1)}


def test_diagonalize_catches_a_corrupted_elimination_step(monkeypatch):
    conic_mod = importlib.import_module("p1moduli.conic")
    step = conic_mod._col_op

    def spoiled(g, b, dst, s, src, r):
        step(g, b, dst, s, src, r)
        b[0][dst] += 1

    monkeypatch.setattr(conic_mod, "_col_op", spoiled)
    f = TernaryForm([[1, 2, 3], [2, 5, 7], [3, 7, 2]])
    with pytest.raises(InternalInconsistency,
                       match="congruence verification failed"):
        diagonalize(f)
    # nothing unverified is kept
    assert f._diag is None
    monkeypatch.undo()
    diagonalize(f)
    assert f._diag is not None


def test_upper_roundtrip():
    # x^2 + 2xy + 3xz + 4y^2 + 5yz + 6z^2: the Gram matrix holds half of
    # each mixed coefficient, and the upper triangle reads them back
    h = F(1, 2)
    f = TernaryForm([[1, 2 * h, 3 * h], [2 * h, 4, 5 * h], [3 * h, 5 * h, 6]])
    g = f.gram
    assert [g[0][0], 2 * g[0][1], 2 * g[0][2], g[1][1], 2 * g[1][2],
            g[2][2]] == [F(1), F(2), F(3), F(4), F(5), F(6)]
    # at (1,1,1) = 21
    assert f.evaluate([F(1), F(1), F(1)]) == 21


# ---------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------

def test_symbol_minus_one_minus_one():
    assert hilbert_symbol(-1, -1, INFINITE_PLACE) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(-1, -1, 5) == 1


def test_symbol_square_argument_trivial():
    rng = random.Random(1)
    for _ in range(30):
        b = random_squarefree(rng)
        for place in (INFINITE_PLACE, 2, 3, 5, 7):
            assert hilbert_symbol(1, b, place) == 1
            assert hilbert_symbol(F(4, 9), b, place) == 1


def test_symbol_against_mod8_solvability():
    # for odd unit arguments at p = 2: symbol +1 iff z^2 = ax^2 + by^2
    # has a primitive solution mod 8
    squares8 = {(v * v) % 8 for v in range(8)}
    for a in (-7, -5, -3, -1, 1, 3, 5, 7):
        for b in (-7, -5, -3, -1, 1, 3, 5, 7):
            found = False
            for x in range(8):
                for y in range(8):
                    if x % 2 == 0 and y % 2 == 0:
                        continue
                    if (a * x * x + b * y * y) % 8 in squares8:
                        # z odd or even both allowed as long as primitive
                        pass
                    rhs = (a * x * x + b * y * y) % 8
                    for z in range(8):
                        if (z * z) % 8 == rhs and (x % 2 or y % 2 or z % 2):
                            found = True
            assert (hilbert_symbol(a, b, 2) == 1) == found


def test_symbol_bilinearity_and_symmetry():
    rng = random.Random(55)
    places = [INFINITE_PLACE, 2, 3, 5, 7, 11, 13]
    for _ in range(200):
        a = random_squarefree(rng)
        b1 = random_squarefree(rng)
        b2 = random_squarefree(rng)
        v = rng.choice(places)
        assert hilbert_symbol(a, b1 * b2, v) == \
            hilbert_symbol(a, b1, v) * hilbert_symbol(a, b2, v)
        assert hilbert_symbol(a, b1, v) == hilbert_symbol(b1, a, v)
        assert hilbert_symbol(a, -a, v) == 1
        # a fraction has the symbol of its squarefree part
        fa = F(rng.choice([-1, 1]) * rng.randint(1, 5000), rng.randint(1, 500))
        fb = F(rng.choice([-1, 1]) * rng.randint(1, 5000), rng.randint(1, 500))
        assert hilbert_symbol(fa, fb, v) == \
            hilbert_symbol(squarefree_part(fa), squarefree_part(fb), v)


def test_hilbert_reciprocity_random():
    rng = random.Random(9009)
    for _ in range(500):
        a = random_squarefree(rng, 2, 120)
        b = random_squarefree(rng, 2, 120)
        places = {INFINITE_PLACE, 2}
        for n in (a, b):
            m = abs(n)
            d = 2
            while d * d <= m:
                if m % d == 0:
                    places.add(d)
                    while m % d == 0:
                        m //= d
                d += 1
            if m > 1:
                places.add(m)
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


# ---------------------------------------------------------
# Hasse solvability
# ---------------------------------------------------------

def test_sum_of_three_squares_fails_at_inf_and_2():
    solvable, failing = hasse_solvable(TernaryForm.diagonal(1, 1, 1))
    assert not solvable
    assert {pe.place for pe in failing} == {INFINITE_PLACE, 2}


def test_indefinite_unit_form_solvable():
    solvable, failing = hasse_solvable(TernaryForm.diagonal(1, 1, -1))
    assert solvable
    assert failing == []


def test_three_fails_at_3():
    solvable, failing = hasse_solvable(TernaryForm.diagonal(1, 1, -3))
    assert not solvable
    assert 3 in {pe.place for pe in failing}


def test_hasse_agrees_with_bounded_search():
    # small diagonal forms: a solvable one has a point with |x|, |y| <= 20
    # (Holzer bounds sqrt|bc|, sqrt|ac|), far below the 200 search cap.
    # The Legendre descent of find_point decides solvability on its own,
    # so it must agree with both.
    rng = random.Random(77001)
    checked = 0
    while checked < 100:
        a = random_squarefree(rng, 1, 20)
        b = random_squarefree(rng, 1, 20)
        c = random_squarefree(rng, 1, 20)
        form = TernaryForm.diagonal(a, b, c)
        solvable, _ = hasse_solvable(form)
        found = brute_force_diag_point(a, b, c, 200)
        if solvable:
            assert found is not None
            x, y, z = found
            assert a * x * x + b * y * y + c * z * z == 0
        else:
            assert found is None
        assert (find_point(form) is None) == (not solvable)
        checked += 1
    # non-diagonal forms with fractional entries
    rng = random.Random(77002)
    outcomes = set()
    while len(outcomes) < 2 or checked < 250:
        g = [[F(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                g[i][j] = g[j][i] = F(rng.randint(-12, 12), rng.randint(1, 3))
        if linalg.det(g) == 0:
            continue
        form = TernaryForm(g)
        solvable, _ = hasse_solvable(form)
        pt = find_point(form)
        assert (pt is None) == (not solvable)
        if pt is not None:
            assert form.evaluate([F(v) for v in pt]) == 0
        outcomes.add(solvable)
        checked += 1


# ---------------------------------------------------------
# point search
# ---------------------------------------------------------

def test_find_point_simple_forms():
    p = find_point(TernaryForm.diagonal(1, 1, -2))
    assert p is not None
    assert TernaryForm.diagonal(1, 1, -2).evaluate([F(v) for v in p]) == 0
    p5 = find_point(TernaryForm.diagonal(1, 1, -5))
    assert p5 is not None
    assert sorted(abs(v) for v in p5) == [1, 1, 2]


def test_find_point_none_when_unsolvable():
    assert find_point(TernaryForm.diagonal(1, 1, 1)) is None
    assert find_point(TernaryForm.diagonal(1, 1, 3)) is None


def test_find_point_random_solvable_forms():
    rng = random.Random(31337)
    produced = 0
    while produced < 60:
        a = random_squarefree(rng, 1, 60)
        b = random_squarefree(rng, 1, 60)
        c = random_squarefree(rng, 1, 60)
        form = TernaryForm.diagonal(a, b, c)
        solvable, _ = hasse_solvable(form)
        if not solvable:
            continue
        pt = find_point(form)
        assert pt is not None
        assert form.evaluate([F(v) for v in pt]) == 0
        assert pt != (0, 0, 0)
        produced += 1


def test_find_point_nondiagonal_form():
    # y0 y2 - y1^2 carries (1, 0, 0) and (0, 0, 1)
    f = TernaryForm([[0, 0, F(1, 2)], [0, -1, 0], [F(1, 2), 0, 0]])
    p = find_point(f)
    assert p is not None
    assert f.evaluate([F(v) for v in p]) == 0


def test_find_point_deterministic():
    form = TernaryForm.diagonal(3, 5, -2)
    assert find_point(form) == find_point(form)


def test_find_point_larger_coefficients():
    rng = random.Random(60601)
    for _ in range(10):
        a = random_squarefree(rng, 50, 400)
        b = random_squarefree(rng, 50, 400)
        form = TernaryForm.diagonal(a, b, -1)
        solvable, _ = hasse_solvable(form)
        if solvable:
            pt = find_point(form)
            assert pt is not None
            assert form.evaluate([F(v) for v in pt]) == 0


# ---------------------------------------------------------
# parametrization
# ---------------------------------------------------------

def test_parametrize_veronese_like():
    f = TernaryForm([[0, 0, F(1, 2)], [0, -1, 0], [F(1, 2), 0, 0]])
    par = parametrize(f, [F(1), F(0), F(0)])
    for s, t in ((F(1), F(0)), (F(0), F(1)), (F(2), F(3)), (F(-5), F(7))):
        img = par.apply(s, t)
        assert f.evaluate(img) == 0
    # the image actually moves: two parameters give distinct points
    img1 = par.apply(F(1), F(1))
    img2 = par.apply(F(1), F(2))
    assert img1[0] * img2[1] != img1[1] * img2[0] or \
        img1[0] * img2[2] != img1[2] * img2[0]


def test_parametrize_pythagorean():
    f = TernaryForm.diagonal(1, 1, -1)
    par = parametrize(f, [F(1), F(0), F(1)])
    rng = random.Random(3)
    for _ in range(25):
        s, t = F(rng.randint(-9, 9)), F(rng.randint(-9, 9))
        if s == 0 and t == 0:
            continue
        x, y, z = par.apply(s, t)
        assert x * x + y * y == z * z


def test_parametrize_rejects_off_conic_point():
    with pytest.raises(PointNotOnConic):
        parametrize(TernaryForm.diagonal(1, 1, -1), [F(1), F(1), F(1)])


def test_parametrize_tower_point():
    # point with irrational coordinates on x^2 + y^2 - 3 z^2
    from p1moduli.qfield import multiquadratic_tower
    t = multiquadratic_tower([3])
    f = TernaryForm.diagonal(1, 1, -3)
    p = [t.root(0), t.zero(), t.one()]  # (sqrt3)^2 - 3 = 0
    par = parametrize(f, p)
    img = par.apply(t.from_rational(2), t.from_rational(5))
    assert f.evaluate(img) == 0


@pytest.mark.parametrize("tower_point", [False, True])
@pytest.mark.parametrize("pos", range(9))
def test_parametrize_refuses_a_spoiled_parametrization(monkeypatch, pos,
                                                       tower_point):
    # one coefficient of X(s, t) moved by 1 breaks f(X(s, t)) = 0, and the
    # five-point check must see it whichever coefficient it is
    from p1moduli.qfield import multiquadratic_tower
    conic_mod = importlib.import_module("p1moduli.conic")
    if tower_point:
        t = multiquadratic_tower([3])
        f = TernaryForm.diagonal(1, 1, -3)
        point = [t.root(0), t.zero(), t.one()]
    else:
        f = TernaryForm.diagonal(1, 1, -1)
        point = [F(1), F(0), F(1)]

    class Spoiled(conic_mod.Parametrization):
        def __init__(self, form, coeffs, base):
            rows = [list(row) for row in coeffs]
            rows[pos // 3][pos % 3] = rows[pos // 3][pos % 3] + 1
            super().__init__(form, tuple(map(tuple, rows)), base)

    monkeypatch.setattr(conic_mod, "Parametrization", Spoiled)
    with pytest.raises(InternalInconsistency,
                       match="parametrization does not satisfy the form"):
        parametrize(f, point)
