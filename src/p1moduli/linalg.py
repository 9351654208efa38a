"""Small exact matrices as lists of rows; no routine mutates its arguments.

Entries may be ints, Fractions or tower ``FieldElem``s, mixed with
rational scalars. The ring routines never divide, and their sums start
from the first term, so a tower matrix keeps tower entries; ``inverse``
divides once, by the determinant. No row reduction is kept: fixed fields
are read off the Galois chain in ``qfield``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import SingularMatrix

Matrix = list[list]
Vector = list

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def dot(u: Vector, v: Vector):
    return sum(map(mul, u[1:], v[1:]), u[0] * v[0])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = transpose(b)
    return [[dot(row, col) for col in cols] for row in a]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [dot(row, v) for row in a]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_map(f, a: Matrix) -> Matrix:
    """f applied to every entry: a Galois action, or a scalar multiple."""
    return [[f(x) for x in row] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def cross(u: Vector, v: Vector) -> Vector:
    """The cross product of two 3-vectors."""
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def proportional(u: Vector, v: Vector) -> bool:
    """Whether u and v are linearly dependent (every 2x2 minor vanishes)."""
    n = len(u)
    return not any(u[i] * v[j] - u[j] * v[i]
                   for i in range(n) for j in range(i + 1, n))


def det(a: Matrix):
    """Determinant of a 2x2 or 3x3 matrix, by cofactors."""
    n = len(a)
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if n == 3:
        return dot(a[0], cross(a[1], a[2]))
    raise ValueError(f"det is implemented for 2x2 and 3x3, got {n}x{n}")


def inverse(a: Matrix) -> Matrix:
    """The inverse of a 3x3 matrix, as its adjugate over its determinant."""
    # the columns of the adjugate are cross products of the rows
    cols = [cross(a[1], a[2]), cross(a[2], a[0]), cross(a[0], a[1])]
    d = dot(a[0], cols[0])
    if not d:
        raise SingularMatrix("matrix is singular")
    inv_d = ONE / d
    return [[col[i] * inv_d for col in cols] for i in range(3)]
