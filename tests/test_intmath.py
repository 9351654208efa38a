import random
from fractions import Fraction as F

import pytest

from p1moduli import intmath
from p1moduli.intmath import MR_EXACT_BOUND, MR_SMALL_BOUND, factorint, \
    is_probable_prime, squarefree_part

# primes on either side of the default trial bound 10^6
BELOW = (999979, 999983)
ABOVE = (1000003, 1000033)


def trial_factor(n):
    """Plain trial division by every integer from 2: the test oracle."""
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_oracle_primes():
    for p in BELOW + ABOVE + (846401,):
        assert trial_factor(p) == {p: 1}


def test_factorint_matches_oracle_on_seeded_inputs():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(1, 10 ** rng.randrange(1, 10))
        assert factorint(n) == trial_factor(n)
        assert factorint(-n) == trial_factor(n)


def test_factorint_matches_oracle_on_smooth_times_square():
    # a smooth part times the square of a prime: trial division stops at
    # the square, whatever comes before it
    rng = random.Random(7)
    for _ in range(100):
        smooth = 1
        for _ in range(rng.randrange(4)):
            smooth *= rng.choice((2, 3, 5, 7, 11, 13, 23, 101))
        p = rng.choice((7, 11, 101, 1009, 7919))
        n = smooth * p * p * rng.choice((1, 1, p))
        assert factorint(n) == trial_factor(n)


@pytest.mark.parametrize("p", BELOW + ABOVE)
def test_prime_powers_near_trial_bound(p):
    assert factorint(p) == {p: 1}
    assert factorint(p ** 2) == {p: 2}
    assert factorint(p ** 3) == {p: 3}
    assert factorint(-6 * p ** 2) == {2: 1, 3: 1, p: 2}


@pytest.mark.parametrize("p, q", [BELOW, ABOVE, (BELOW[1], ABOVE[0])])
def test_products_of_primes_near_trial_bound(p, q):
    assert factorint(p * q) == {p: 1, q: 1}
    assert factorint(12 * p * q) == {2: 2, 3: 1, p: 1, q: 1}


def test_square_from_the_generator():
    n = 2 ** 6 * 3 ** 2 * 23 ** 2 * 846401 ** 2
    assert factorint(n) == {2: 6, 3: 2, 23: 2, 846401: 2}
    assert squarefree_part(n) == 1
    assert squarefree_part(-5 * n) == -5


def test_prime_squares_on_either_side_of_exact_test_bound():
    below, above = 10 ** 11 + 3, 10 ** 12 + 39
    assert below ** 2 < MR_EXACT_BOUND < above ** 2
    assert factorint(7 * below ** 2) == {7: 1, below: 2}
    # above the bound the cofactor test is skipped; trial division and
    # the square check after it still find the factorization
    assert factorint(above ** 2) == {above: 2}


def test_strong_pseudoprimes_are_composite():
    # 3215031751 passes the bases 2, 3, 5 and 7, so from it on all 12 are
    # used; the others pass 2, 3 and 5 and are caught by 7
    assert MR_SMALL_BOUND == 3215031751 == 151 * 751 * 28351
    for n in (3215031751, 25326001, 161304001, 960946321, 1157839381):
        assert trial_factor(n) != {n: 1}
        assert not is_probable_prime(n)


def test_primality_matches_trial_division_below_two_to_the_31():
    # the window the split primes are searched in
    small = [q for q in range(2, 46341) if trial_factor(q) == {q: 1}]
    top = 2 ** 31
    for n in range(top - 3000, top):
        assert is_probable_prime(n) == all(n % q for q in small), n


def test_squarefree_part_signs_and_fractions():
    assert squarefree_part(0) == 0
    assert squarefree_part(1) == 1
    assert squarefree_part(-1) == -1
    assert squarefree_part(-12) == -3
    assert squarefree_part(72) == 2
    assert squarefree_part(F(-8, 27)) == -6
    assert squarefree_part(F(50, 3)) == 6
    assert squarefree_part(F(1, 846401 ** 2)) == 1
    assert squarefree_part(F(-999983, 4)) == -999983


def test_factor_bound_limits_trial_division(monkeypatch):
    calls = []
    real = intmath._brent_rho

    def counting(n, rng):
        calls.append(n)
        return real(n, rng)

    monkeypatch.setattr(intmath, "_brent_rho", counting)
    n = 1009 * 1013
    assert factorint(n) == {1009: 1, 1013: 1}
    assert calls == []
    # trial division stops at the bound; Pollard rho splits the rest
    token = intmath.trial_bound.set(100)
    try:
        assert factorint(n) == {1009: 1, 1013: 1}
        assert calls == [n]
        assert factorint(30 * n) == {2: 1, 3: 1, 5: 1, 1009: 1, 1013: 1}
        assert calls == [n, n]
    finally:
        intmath.trial_bound.reset(token)


def test_factorint_rejects_zero():
    with pytest.raises(ValueError):
        factorint(0)
