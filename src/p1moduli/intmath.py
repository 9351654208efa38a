"""Elementary integer number theory: factorization at desk scale,
modular square roots, squarefree parts.

Factorization runs trial division up to a bound and then Brent's cycle
variant of Pollard rho on what is left. Trial division stops early once
the cofactor is a prime or the square of one. Inputs that resist both
raise FactorizationTooLarge rather than silently stalling. The trial
bound is the context variable ``trial_bound``, which the command line
sets from ``--factor-bound`` for one request.
"""

from __future__ import annotations

import math
import random
from contextvars import ContextVar
from fractions import Fraction

from .errors import FactorizationTooLarge

TRIAL_BOUND = 10 ** 6
trial_bound: ContextVar[int] = ContextVar("trial_bound", default=TRIAL_BOUND)
# below this bound Miller-Rabin on the first 12 primes is exact
# (Sorenson and Webster, 2015; 3.3e24 needs the 13th prime, 41, as well)
MR_EXACT_BOUND = 318665857834031151167461
# and on the first 4 alone below their first exception (Jaeschke, 1993)
MR_SMALL_BOUND = 3215031751  # = 151 * 751 * 28351, above the split primes
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < MR_EXACT_BOUND (3.2e23)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:4] if n < MR_SMALL_BOUND else _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite odd n, or 0 on failure."""
    for _ in range(20):
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            if r > 1 << 22:
                break
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return 0


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; ignores the sign.

    Raises FactorizationTooLarge when a composite cofactor survives both
    trial division up to ``trial_bound`` and Pollard rho. Trial division
    tests the cofactor before it starts and after each factor it finds,
    the only times the cofactor changes, and stops when the cofactor is p
    or p^2 for a prime p. Below MR_EXACT_BOUND that test is exact, and the result is the
    one full trial division would reach; above it the test is skipped.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("factorint(0)")
    factor_bound = trial_bound.get()
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    changed = True
    while d * d <= n and d <= factor_bound:
        if changed and n < MR_EXACT_BOUND:
            if is_probable_prime(n):
                out[n] = 1
                return out
            root = math.isqrt(n)
            if root * root == n and is_probable_prime(root):
                out[root] = 2
                return out
        changed = False
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
            changed = True
        d += wheel[w]
        w = (w + 1) % 8
    if n == 1:
        return out
    stack = [n]
    rng = random.Random(0xC0FFEE)
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        g = _brent_rho(m, rng)
        if g == 0:
            raise FactorizationTooLarge(f"cannot factor {m}")
        stack.extend([g, m // g])
    return out


def squarefree_part(q: Fraction | int) -> int:
    """The unique squarefree integer s with q = s * (rational square).

    For a fraction p/q this is the squarefree part of p*q; the sign is
    preserved. squarefree_part(0) is 0.
    """
    q = Fraction(q)
    if q == 0:
        return 0
    n = q.numerator * q.denominator
    sign = -1 if n < 0 else 1
    s = 1
    for p, e in factorint(n).items():
        if e % 2:
            s *= p
    return sign * s


def primitive_scale(values) -> Fraction:
    """The rational s making [v * s for v in values] coprime integers
    whose first nonzero entry is positive; 1 for the zero vector."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    g = math.gcd(*(int(v * den) for v in values))
    if g == 0:
        return Fraction(1)
    lead = next(v for v in values if v)
    return Fraction(den if lead > 0 else -den, g)


def fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, if it is one."""
    if q.numerator < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo prime p via Tonelli-Shanks, or None."""
    a %= p
    if p == 2 or a == 0:
        return a
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def crt(residues: list[int], moduli: list[int]) -> int:
    """Chinese remainder combination for pairwise coprime moduli."""
    x, m = 0, 1
    for r, n in zip(residues, moduli):
        x = (x + (r - x) * pow(m, -1, n) % n * m) % (m * n)
        m *= n
    return x
