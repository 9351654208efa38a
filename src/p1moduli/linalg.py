"""Exact linear algebra over the rationals (lists of Fractions).

Matrices are lists of rows; everything works on copies and never mutates
its arguments. Sizes here are tiny (at most a few dozen), so plain
Gaussian elimination with exact pivots is the right tool.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def mat_copy(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            s = ZERO
            for k in range(inner):
                if a[i][k]:
                    s += a[i][k] * b[k][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((a[i][k] * v[k] for k in range(len(v)) if v[k]), ZERO) for i in range(len(a))]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    a = mat_copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of the right kernel {v : m v = 0}."""
    if not m:
        return []
    cols = len(m[0])
    a, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def solve(m: Matrix, b: Vector) -> Vector | None:
    """One solution of m x = b, or None when inconsistent.

    Works for rectangular systems; free variables are set to zero.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    aug = [m[i][:] + [b[i]] for i in range(rows)]
    a, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][cols]
    return x


def det(m: Matrix) -> Fraction:
    a = mat_copy(m)
    n = len(a)
    d = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            d = -d
        d *= a[c][c]
        inv = ONE / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def in_span(vectors: list[Vector], v: Vector) -> bool:
    """Whether v lies in the rational span of the given vectors."""
    if not vectors:
        return all(x == 0 for x in v)
    m = transpose(vectors)
    return solve(m, list(v)) is not None
