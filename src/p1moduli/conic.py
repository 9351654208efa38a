"""Ternary quadratic forms over Q: diagonalization, local solvability,
rational points, and parametrization of plane conics.

Solvability is decided by Hilbert symbols at the relevant places (the
infinite place, 2, and the odd primes dividing the diagonal
coefficients). Points are produced by the classical descent on the
two-term Legendre equation x^2 = A y^2 + B z^2, replacing B by the
squarefree part of (w^2 - A)/B for a square root w of A modulo |B|
until a unit coefficient appears. Each step keeps the equation's
solvability, since B (w^2 - A)/B is a norm from Q(sqrt A), and shrinks
|B|, so the descent alone also decides solvability: it meets a
non-residue or x^2 = -y^2 - z^2 exactly when the conic has no point.
There is no search fallback. All arithmetic is exact. A form is
diagonalised once, fraction-free over the integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import linalg
from .errors import (
    InternalInconsistency,
    PointNotOnConic,
    SearchExhausted,
    SingularForm,
)
from .intmath import (
    crt,
    factorint,
    fraction_sqrt,
    primitive_scale,
    sqrt_mod_prime,
    squarefree_part,
)

Place = Union[str, int]  # "infinity" or a prime
INFINITE_PLACE: Place = "infinity"

Coord = Union[Fraction, "object"]  # Fraction or FieldElem-like


class TernaryForm:
    """A symmetric 3x3 rational Gram matrix, viewed as a plane conic;
    ``_diag`` is filled by ``diagonalize`` alone, once it is verified."""

    __slots__ = ("gram", "_diag")

    def __init__(self, gram: Sequence[Sequence[Fraction]]):
        g = [[Fraction(gram[i][j]) for j in range(3)] for i in range(3)]
        if g != linalg.transpose(g):
            raise ValueError("Gram matrix must be symmetric")
        self.gram = tuple(tuple(row) for row in g)
        self._diag = None

    @staticmethod
    def diagonal(a, b, c) -> "TernaryForm":
        z = Fraction(0)
        return TernaryForm([[Fraction(a), z, z],
                            [z, Fraction(b), z],
                            [z, z, Fraction(c)]])

    def det(self) -> Fraction:
        return linalg.det(self.gram)

    def evaluate(self, point: Sequence[Coord]):
        return self.polar(point, point)

    def polar(self, p: Sequence[Coord], q: Sequence[Coord]):
        """The symmetric bilinear form B(p, q) = p^T G q, so B(x, x) = f(x).
        Each coordinate is the left factor, so no Fraction operator runs."""
        return linalg.dot(p, [linalg.dot(q, row) for row in self.gram])

    def __eq__(self, other) -> bool:
        return isinstance(other, TernaryForm) and self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

    def __repr__(self) -> str:
        return f"TernaryForm({[list(r) for r in self.gram]})"


class PlaceEval:
    """A Hilbert-symbol evaluation at one place."""

    __slots__ = ("place", "symbol")

    def __init__(self, place: Place, symbol: int):
        if symbol not in (1, -1):
            raise ValueError("symbol must be +1 or -1")
        self.place = place
        self.symbol = symbol

    def __eq__(self, other) -> bool:
        return (isinstance(other, PlaceEval) and self.place == other.place
                and self.symbol == other.symbol)

    def __hash__(self) -> int:
        return hash((self.place, self.symbol))

    def __repr__(self) -> str:
        return f"PlaceEval({self.place}, {self.symbol:+d})"


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------

def _col_op(g, b, dst: int, s: int, src: int, r: int) -> None:
    # congruence x_dst -> s x_dst + r x_src on the integer Gram matrix g
    for row in g + b:
        row[dst] = s * row[dst] + r * row[src]
    g[dst] = [s * x + r * y for x, y in zip(g[dst], g[src])]


def _diagonalize(f: TernaryForm
                 ) -> tuple[tuple[int, int, int], linalg.Matrix]:
    """``diagonalize`` run on the Gram matrix cleared to integers by one
    lcm L, fraction-free. Column k of the integer basis is scale[k] > 0
    times the column of the rational elimination with unit steps, so the
    zero-pivot sum x_i + x_j weighs each column by the other's scale. The
    rational pivot is d = g_kk / (L scale[k]^2), and column k ends as
    b_k sqrt(squarefree(d) / d) / scale[k]: the rational result exactly.
    """
    gram = f.gram
    den = math.lcm(*(x.denominator for row in gram for x in row))
    gint = [[x.numerator * (den // x.denominator) for x in row]
            for row in gram]
    if not linalg.det(gint):
        raise SingularForm("conic operations need a nonsingular form")
    g = [row[:] for row in gint]
    b = [[int(i == j) for j in range(3)] for i in range(3)]
    scale = [1, 1, 1]
    for i in range(3):
        if g[i][i] == 0:
            j = next((j for j in range(i + 1, 3) if g[j][j] != 0), None)
            if j is not None:
                for row in g + b:
                    row[i], row[j] = row[j], row[i]
                g[i], g[j] = g[j], g[i]
                scale[i], scale[j] = scale[j], scale[i]
            else:
                j = next(j for j in range(i + 1, 3) if g[i][j] != 0)
                _col_op(g, b, i, scale[j], j, scale[i])
                scale[i] *= scale[j]
        p = g[i][i]
        for j in range(i + 1, 3):
            if g[i][j] != 0:  # x_j -> |p| x_j - sgn(p) g_ij x_i
                _col_op(g, b, j, abs(p), i, -g[i][j] if p > 0 else g[i][j])
                scale[j] *= abs(p)
    coeffs, cols = [], []
    for k in range(3):
        d = Fraction(g[k][k], den * scale[k] ** 2)
        target = squarefree_part(d)
        r = fraction_sqrt(Fraction(target) / d)
        if r is None:
            raise InternalInconsistency("squarefree rescale failed")
        coeffs.append(target)
        cols.append((r.numerator, r.denominator * scale[k]))
    basis = [[Fraction(x * p, q) for x, (p, q) in zip(row, cols)]
             for row in b]
    # B^T G B = diag(coeffs), cleared to integers: B = Bi / s, G = Gi / L
    s = math.lcm(*(x.denominator for row in basis for x in row))
    bi = [[x.numerator * (s // x.denominator) for x in row] for row in basis]
    check = linalg.mat_mul(linalg.mat_mul(linalg.transpose(bi), gint), bi)
    if check != [[coeffs[i] * den * s * s if i == j else 0
                  for j in range(3)] for i in range(3)]:
        raise InternalInconsistency("congruence verification failed")
    return tuple(coeffs), basis


def diagonalize(f: TernaryForm) -> tuple[tuple[int, int, int], linalg.Matrix]:
    """Exact congruence diagonalization with squarefree integer entries.

    Returns (coefficients, B) with B^T G B = diag(coefficients); points
    of the diagonal conic map to points of f through B. A form that is
    already diagonal with squarefree integer entries has B = I. Each
    form is diagonalised once; later calls return copies of its result.
    """
    if f._diag is None:
        f._diag = _diagonalize(f)
    coeffs, b = f._diag
    return coeffs, [list(r) for r in b]


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------

def _split_valuation(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _legendre_unit(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def hilbert_symbol(a, b, place: Place) -> int:
    """The Hilbert symbol (a, b) at a place of Q, by the closed formulas.

    A fraction p/q is replaced by the integer p q of its square class;
    the formulas need only its valuation and unit residue, so nothing is
    factored."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    ai = a.numerator * a.denominator
    bi = b.numerator * b.denominator
    if place == INFINITE_PLACE:
        return -1 if (ai < 0 and bi < 0) else 1
    p = place
    alpha, u = _split_valuation(abs(ai), p)
    beta, v = _split_valuation(abs(bi), p)
    u = u if ai > 0 else -u
    v = v if bi > 0 else -v
    if p == 2:
        eps_u = ((u - 1) // 2) % 2
        eps_v = ((v - 1) // 2) % 2
        omega_u = ((u * u - 1) // 8) % 2
        omega_v = ((v * v - 1) // 8) % 2
        e = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if e % 2 else 1
    s = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        s = -s
    if beta % 2 and _legendre_unit(u, p) == -1:
        s = -s
    if alpha % 2 and _legendre_unit(v, p) == -1:
        s = -s
    return s


def hasse_solvable(f: TernaryForm) -> tuple[bool, list[PlaceEval]]:
    """Global solvability of the conic and the places where it fails.

    Diagonalizes to (a, b, c), reduces to the symbol (-ac, -bc), and
    evaluates it at infinity, 2, and the odd primes dividing abc.
    Reciprocity (an even number of failing places) is asserted.
    """
    (a, b, c), _ = diagonalize(f)
    aa, bb = -a * c, -b * c
    places: list[Place] = [INFINITE_PLACE, 2]
    primes = sorted(q for q in factorint(abs(a * b * c)) if q > 2)
    places.extend(primes)
    failing = [PlaceEval(v, -1) for v in places
               if hilbert_symbol(aa, bb, v) == -1]
    if len(failing) % 2:
        raise InternalInconsistency("odd number of failing places")
    return not failing, failing


# ---------------------------------------------------------------------------
# rational points
# ---------------------------------------------------------------------------

def _sqrt_mod_squarefree(a: int, m: int) -> Optional[int]:
    """A square root of a modulo squarefree m >= 1."""
    moduli = list(factorint(m))
    residues = [sqrt_mod_prime(a, p) for p in moduli]
    return None if None in residues else crt(residues, moduli)


def _solve_legendre(a: int, b: int, depth: int = 0
                    ) -> Optional[tuple[int, int, int]]:
    """A nontrivial (x, y, z) with x^2 = a y^2 + b z^2, for squarefree
    nonzero a, b, or None when the equation has no solution."""
    if depth > 200:
        raise SearchExhausted("Legendre descent exceeded its depth bound")
    if a == 1:
        return (1, 1, 0)
    if b == 1:
        return (1, 0, 1)
    if abs(a) > abs(b):
        sol = _solve_legendre(b, a, depth + 1)
        return None if sol is None else (sol[0], sol[2], sol[1])
    if b == -1:  # then a = -1 as well: x^2 + y^2 + z^2 = 0 has no solution
        return None
    # a solution forces a to be a square modulo every prime dividing b
    w = _sqrt_mod_squarefree(a % abs(b), abs(b))
    if w is None:
        return None
    if w > abs(b) // 2:
        w = abs(b) - w
    t = (w * w - a) // b
    if t == 0:
        raise InternalInconsistency("squarefree coefficient turned square")
    t1 = squarefree_part(t)
    s = math.isqrt(t // t1)
    sol = _solve_legendre(a, t1, depth + 1)
    if sol is None:
        return None
    x1, y1, z1 = sol
    x, y, z = w * x1 + a * y1, x1 + w * y1, t1 * s * z1
    g = math.gcd(math.gcd(x, y), z)
    return (x // g, y // g, z // g)


def _coprime_reduce(a: int, b: int, c: int
                    ) -> tuple[tuple[int, int, int], list[Fraction]]:
    """Make squarefree (a,b,c) pairwise coprime; returns the new triple
    and per-coordinate multipliers carrying points back to the input."""
    mult = [Fraction(1)] * 3
    changed = True
    while changed:
        changed = False
        g3 = math.gcd(math.gcd(a, b), c)
        if g3 > 1:
            # scaling the whole form does not move its points
            a, b, c = a // g3, b // g3, c // g3
            changed = True
            continue
        for (i, j, k) in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            trip = [a, b, c]
            g = math.gcd(trip[i], trip[j])
            if g > 1:
                p = min(factorint(g))
                trip[i] //= p
                trip[j] //= p
                trip[k] *= p
                # substitution x_k -> x_k / p: points of the new form map
                # back with coordinate k scaled by p
                mult[k] *= p
                a, b, c = trip
                changed = True
    return (a, b, c), mult


def find_point(f: TernaryForm) -> Optional[tuple[int, int, int]]:
    """An exact rational point on the conic, or None when none exists.

    Runs the Legendre descent on the diagonalized form, with no search
    fallback: None means the descent met a non-residue or the equation
    x^2 = -y^2 - z^2, which proves the conic pointless. A point is
    verified by substitution before being returned.
    """
    (a0, b0, c0), basis = diagonalize(f)
    (a, b, c), mult = _coprime_reduce(a0, b0, c0)
    sol = _solve_legendre(-a * c, -b * c)
    if sol is None:
        return None
    x, y, z = sol
    diag_pt = [Fraction(c * y), Fraction(c * z), Fraction(x)]
    reduced = TernaryForm.diagonal(a, b, c)
    if reduced.evaluate(diag_pt) != 0:
        raise InternalInconsistency("descent produced a non-point")
    back = [diag_pt[i] * mult[i] for i in range(3)]
    orig = linalg.mat_vec(basis, back)
    s = primitive_scale(orig)
    point = tuple(int(c * s) for c in orig)
    if f.evaluate([Fraction(v) for v in point]) != 0:
        raise InternalInconsistency("basis mapping produced a non-point")
    return point


# ---------------------------------------------------------------------------
# parametrization
# ---------------------------------------------------------------------------

class Parametrization:
    """A degree-2 map from the projective line onto a conic.

    ``coeffs[i]`` holds (alpha, beta, gamma) with
    X_i(s, t) = alpha s^2 + beta s t + gamma t^2; ``base`` is the point p
    of the conic whose lines give the map.
    """

    __slots__ = ("form", "coeffs", "base")

    def __init__(self, form: TernaryForm, coeffs, base):
        self.form = form
        self.coeffs = coeffs
        self.base = tuple(base)

    def apply(self, s: Coord, t: Coord) -> tuple:
        out = []
        for alpha, beta, gamma in self.coeffs:
            out.append(s * s * alpha + s * t * beta + t * t * gamma)
        return tuple(out)

    def __repr__(self) -> str:
        return f"Parametrization({self.coeffs!r})"


def parametrize(f: TernaryForm, point: Sequence[Coord]) -> Parametrization:
    """Parametrize the conic by residual intersection of lines through a
    given point of it.

    The point's coordinates may live in any exact field containing the
    rationals; the parametrization inherits that field. The substitution
    identity f(X(s, t)) = 0 is verified exactly: f(X(s, t)) is a binary
    quartic form, so it is zero once it vanishes at five pairwise
    non-proportional int parameters (s, t).
    """
    p = list(point)
    fp = f.evaluate(p)
    if fp != 0:
        raise PointNotOnConic(f"f(p) = {fp!r} is nonzero")
    lead = next(i for i in range(3) if p[i] != 0)
    u, w = (e for i, e in enumerate(linalg.identity(3)) if i != lead)
    fu, fw = f.evaluate(u), f.evaluate(w)
    buw = f.polar(u, w)
    bpu = f.polar(p, u)
    bpw = f.polar(p, w)
    coeffs = []
    for i in range(3):
        alpha = p[i] * fu - 2 * (bpu * u[i])
        beta = p[i] * (2 * buw) - 2 * (bpu * w[i]) - 2 * (bpw * u[i])
        gamma = p[i] * fw - 2 * (bpw * w[i])
        coeffs.append((alpha, beta, gamma))
    par = Parametrization(f, tuple(coeffs), p)
    if any(f.evaluate(par.apply(s, t)) != 0
           for s, t in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2))):
        raise InternalInconsistency("parametrization does not satisfy the form")
    if all(c == 0 for triple in coeffs for c in triple):
        raise InternalInconsistency("degenerate parametrization")
    return par
