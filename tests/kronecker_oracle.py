"""Kronecker's trial factoring: a slow, independent irreducibility oracle.

A monic integer factor g of degree d of f is fixed by its values at d+1
integer points, and each value g(k) divides f(k).  Trying every signed
divisor combination and interpolating therefore finds a factor whenever
one exists.  The divisor lists grow with the values of f, so the oracle is
kept to degree at most 6 and small coefficients; the tests compare the
library's certified engine against it.
"""

from fractions import Fraction
from itertools import product
from math import isqrt, prod

MAX_DEGREE = 6
POINTS = (0, 1, -1, 2)


def is_irreducible(coeffs):
    """Irreducibility over Q of a monic integer polynomial, lowest first."""
    f = [int(c) for c in coeffs]
    n = len(f) - 1
    assert 1 <= n <= MAX_DEGREE and f[-1] == 1
    values = [sum(c * k ** i for i, c in enumerate(f)) for k in POINTS]
    if n > 1 and 0 in values[:n // 2 + 1]:
        return False
    for d in range(1, n // 2 + 1):
        points = POINTS[:d + 1]
        weights = [prod(Fraction(1, x - y) for y in points if y != x)
                   for x in points]
        for combo in product(*map(_signed_divisors, values[:d + 1])):
            if sum(w * v for w, v in zip(weights, combo)) != 1:
                continue
            g = _interpolate(points, combo)
            if all(c.denominator == 1 for c in g) and _divides(g, f):
                return False
    return True


def _signed_divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    ds = set(small) | {n // d for d in small}
    return sorted(ds | {-d for d in ds})


def _interpolate(points, values):
    """Coefficients, lowest first, of the polynomial through the points."""
    out = [Fraction(0)] * len(points)
    for x, v in zip(points, values):
        basis = [Fraction(v)]
        for y in points:
            if y != x:
                basis = [a - y * b for a, b in zip([0] + basis, basis + [0])]
                basis = [c / (x - y) for c in basis]
        out = [a + b for a, b in zip(out, basis)]
    return out


def _divides(g, f):
    r = [Fraction(c) for c in f]
    ng = len(g) - 1
    for k in range(len(r) - ng - 1, -1, -1):
        c = r[k + ng]
        for j, y in enumerate(g):
            r[k + j] -= c * y
    return not any(r[:ng])
