"""Roots in a number field, re-splitting at every step: a slow oracle.

``roots_in_field`` and ``_roots_at_prime`` here are the p-adic root search
as it ran before the prime scan handed its linear parts to the lift: every
prime of the scan computes the linear parts of m and f afresh, the lift
splits the roots of f and of m modulo p separately (again on each lattice
try), the scan always visits ``ROOT_PRIMES`` good primes, every candidate
divides by m'(alpha) c on its own, and candidates the cheap lattice leaves
open always go on to the full-bound lattice.  The tests compare the
library's search against it, root list by root list.
"""

from fractions import Fraction
from itertools import count, islice
from math import lcm
from operator import mul

from poly_oracle import (_eval_poly_at_element, poly_deg, poly_deriv,
                         poly_divmod, poly_gcd, poly_trim)
from skewfield.numfield import FieldElement, _lll
from skewfield.zfactor import linear_part, lift_root, odd_primes, roots_mod

ROOT_PRIMES = 2  # good primes the scan compares, taking the fewest roots


def roots_in_field(coeffs, field):
    """All roots in ``field`` of a nonzero rational polynomial, sorted."""
    cs = poly_trim([Fraction(c) for c in coeffs])
    if poly_deg(cs) < 1:
        return []
    cs = poly_divmod(cs, poly_gcd(cs, poly_deriv(cs)))[0]
    den = lcm(*[c.denominator for c in cs]) * (1 if cs[-1] > 0 else -1)
    f = [c.numerator * (den // c.denominator) for c in cs]
    m = [int(c) for c in field.min_poly]
    good = ((len(g), p) for p in odd_primes()
            if len(linear_part(m, p) or ()) > 1 and (g := linear_part(f, p)))
    p = min(islice(good, ROOT_PRIMES))[1]
    return _roots_at_prime(f, field, p)[0]


def _roots_at_prime(f, field, p):
    """The sorted roots in K of f at p, and the residues the bound refutes."""
    def cauchy(g):
        return next(R for R in (2 ** e for e in count()) if abs(g[-1]) * R ** (
            len(g) - 1) > sum(abs(x) * R ** i for i, x in enumerate(g[:-1])))
    n, c = field.degree, f[-1]
    m = [int(x) for x in field.min_poly]
    delta = field.element(poly_deriv(field.min_poly)) * c
    R, babai = cauchy(m), 2 ** ((n + 1) // 2)
    S = (2 * R) ** (n - 1) * c * cauchy(f)
    bound = (n * (babai + 1) * n ** ((n + 1) // 2)
             * R ** ((n + 2) * (n - 1) // 2) * S) ** n
    left, roots = roots_mod(f, p), []
    for limit in sorted({min((2 * babai * S) ** n, bound), bound}):
        if not left:
            break
        k = next(k for k in count(1) if p ** k > limit)
        q = p ** k
        A = lift_root(m, roots_mod(m, p)[0], p, k)
        powers = [pow(A, i, q) for i in range(n)]
        _, nearest = _lll([[-powers[i] if i else q]
                           + [int(j == i) for j in range(1, n)] for i in range(n)])
        scale, unresolved = sum(map(mul, delta.num, powers)), []
        for b in left:
            target = scale * lift_root(f, b, p, k) % q
            u = nearest([target] + [0] * (n - 1))
            if sum(map(mul, u, powers)) % q != target:
                raise AssertionError("rounded candidate left its residue class")
            beta = FieldElement(field, tuple(u)) / delta
            if _eval_poly_at_element(f, beta).is_zero():
                roots.append(beta)
            else:
                unresolved.append(b)
        left = unresolved
    roots.sort(key=lambda r: r.coords)
    return roots, left
