"""Certified irreducibility of monic integer polynomials over Q.

The certificate is Zassenhaus's (Cohen, *A Course in Computational
Algebraic Number Theory*, sections 3.4-3.5), on Python integers only, with
the polynomial arithmetic modulo m of ``poly``:

1. Eisenstein's criterion at a prime below ``PRIME_CAP`` settles many
   inputs at once (x^8 + 2 at p = 2).
2. Odd primes are scanned in order.  A prime is *good* when f stays
   squarefree modulo it.  Every bad prime divides the discriminant, which
   is a nonzero integer bounded by Hadamard's inequality when f is
   squarefree; so once the bad primes multiply past that bound, f has a
   repeated factor and is reducible.
3. Distinct-degree factorization modulo each good prime gives the degrees
   a rational factor could have.  Their intersection over up to
   ``SIEVE_PRIMES`` primes (Musser, JACM 1978) proves irreducibility as
   soon as no degree from 1 to n/2 is left.
4. Otherwise the factorization modulo the good prime with the fewest
   factors is completed by Cantor-Zassenhaus equal-degree splitting, seeded
   by the prime so every run repeats, and Hensel-lifted to a modulus
   m > 2B, where B = C(n/2, n/4) * |f|_2 bounds the coefficients of a
   monic factor of degree at most n/2 (Mignotte: |g_j| <= C(d, j) |f|_2).
   Such a factor is congruent modulo m to the product of a subset of the
   lifted factors and is recovered from its symmetric residues, so trying
   every subset, at most 2^8, decides: f is irreducible exactly when no
   subset's product divides it.

The scan stops at the ``SIEVE_PRIMES``-th good prime, or at the first good
prime above ``PRIME_CAP``, or when the bad primes prove a repeated factor;
one of the three always comes.
"""

import random
from itertools import combinations, count
from math import comb, gcd, isqrt

from . import poly

MAX_DEGREE = 8
SIEVE_PRIMES = 5
PRIME_CAP = 1000

_SMALL_PRIMES = tuple(p for p in range(2, PRIME_CAP)
                      if all(p % q for q in range(2, isqrt(p) + 1)))


def is_irreducible_over_q(int_coeffs):
    """Irreducibility over Q of a monic integer polynomial, degree at most 8.

    Coefficients are listed lowest degree first.  A polynomial with a
    repeated factor is reducible, so the answer is False.
    """
    f = poly.reduce([int(c) for c in int_coeffs])
    n = len(f) - 1
    if n <= 0:
        raise ValueError("constant polynomial")
    if f[-1] != 1:
        raise ValueError("polynomial must be monic")
    if n > MAX_DEGREE:
        raise ValueError("degree above %d not supported" % MAX_DEGREE)
    if n == 1:
        return True
    # a root at 0, 1 or -1 is a linear factor
    if not f[0] or not sum(f) or sum(f[::2]) == sum(f[1::2]):
        return False
    content = gcd(*f[:-1])
    if any(content % p == 0 and f[0] % (p * p) for p in _SMALL_PRIMES):
        return True
    deriv = poly.deriv(f)
    norm = isqrt(sum(c * c for c in f)) + 1
    hadamard = norm ** (n - 1) * (isqrt(sum(c * c for c in deriv)) + 1) ** n
    bad_product = 1
    degrees = set(range(1, n // 2 + 1))
    good = []
    for p in odd_primes():
        if len(good) == SIEVE_PRIMES or (good and p > PRIME_CAP):
            break
        fp = poly.reduce(f, p)
        if len(poly.gcd(fp, deriv, p)) > 1:
            bad_product *= p
            if bad_product > hadamard:
                return False
            continue
        split = _distinct_degree(fp, p)
        sums = {0}
        for d, g in split:
            for _ in range((len(g) - 1) // d):
                sums |= {s + d for s in sums}
        degrees &= sums
        if not degrees:
            return True
        good.append((sum((len(g) - 1) // d for d, g in split), p, split))
    _, p, split = min(good)
    rng = random.Random(p)
    factors = [h for d, g in split for h in _equal_degree(g, d, p, rng)]
    lifted, m = _hensel_lift(f, factors, p, 2 * comb(n // 2, n // 4) * norm)
    for size in range(1, len(lifted)):
        for subset in combinations(lifted, size):
            if sum(len(h) - 1 for h in subset) not in degrees:
                continue
            g = [1]
            for h in subset:
                g = poly.mul(g, h, m)
            if _divides([c - m if 2 * c > m else c for c in g], f):
                return False
    return True


def odd_primes():
    yield from _SMALL_PRIMES[1:]
    for q in count(PRIME_CAP + 1, 2):
        if all(q % r for r in range(3, isqrt(q) + 1, 2)):
            yield q


def linear_part(f, p):
    """The monic product of the linear factors of f modulo p, or None if f
    does not stay squarefree of its degree there."""
    fp = poly.reduce(f, p)
    if len(fp) < len(f) or len(poly.gcd(fp, poly.deriv(fp, p), p)) > 1:
        return None
    return poly.gcd(fp, poly.add(poly.powmod([0, 1], p, fp, p), [0, 1],
                                 p, -1), p)


def roots_mod(f, p, g=None):
    """Sorted roots mod the odd prime p of f, squarefree of its degree; g
    is its linear part there when known."""
    g = linear_part(f, p) if g is None else g
    split = _equal_degree(g, 1, p, random.Random(p)) if len(g) > 1 else []
    return sorted(-h[0] % p for h in split)


def lift_root(f, b, p, k):
    """The root modulo p^k of f above its simple root b modulo p (Newton)."""
    e = 1
    while e < k:
        e = min(2 * e, k)
        q = p ** e
        value = slope = 0
        for c in reversed(f):
            slope = (slope * b + value) % q
            value = (value * b + c) % q
        b = (b - value * pow(slope, -1, q)) % q
    return b


def _divides(g, f):
    """Whether the monic integer polynomial g divides f over Z."""
    r = list(f)
    ng = len(g) - 1
    for k in range(len(r) - ng - 1, -1, -1):
        c = r[k + ng]
        if c:
            for j, y in enumerate(g):
                r[k + j] -= c * y
    return not any(r[:ng])


# ---------------------------------------------------------------------------
# factoring modulo p and lifting modulo p^k
# ---------------------------------------------------------------------------

def _distinct_degree(f, p):
    """Pairs (d, product of the degree-d factors) of squarefree monic f mod p."""
    out = []
    h = x = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = poly.powmod(h, p, f, p)
        g = poly.gcd(f, poly.add(h, x, p, -1), p)
        if len(g) > 1:
            out.append((d, g))
            f = poly.quo_rem(f, g, p)[0]
            h = poly.quo_rem(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(g, d, p, rng):
    """Monic irreducible factors of g mod the odd prime p, all of degree d."""
    if len(g) - 1 == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        t = poly.reduce([rng.randrange(p) for _ in range(len(g) - 1)], p)
        u = poly.gcd(g, poly.add(poly.powmod(t, e, g, p), [1], p, -1), p)
        if 1 < len(u) < len(g):
            return (_equal_degree(u, d, p, rng)
                    + _equal_degree(poly.quo_rem(g, u, p)[0], d, p, rng))


def _hensel_lift(f, factors, p, bound):
    """Monic lifts of the factors of f mod p, modulo some m = p^k > bound.

    Each factor is lifted against the product of the others; the monic lift
    of a coprime factorization is unique, so the lifts multiply to f mod m.
    """
    lifted = []
    for i, h in enumerate(factors):
        g = [1]
        for j, other in enumerate(factors):
            if j != i:
                g = poly.mul(g, other, p)
        s, t = poly.xgcd(g, h, p)
        m = p
        while m <= bound:
            g, h, s, t, m = _hensel_step(f, g, h, s, t, m)
        lifted.append(h)
    return lifted, m


def _hensel_step(f, g, h, s, t, m):
    """From f = g*h, s*g + t*h = 1 mod m, h monic, to the same mod m^2.

    Von zur Gathen and Gerhard, *Modern Computer Algebra*, Algorithm 15.10.
    """
    mm = m * m
    e = poly.add(f, poly.mul(g, h, mm), mm, -1)
    q, r = poly.quo_rem(poly.mul(s, e, mm), h, mm)
    g = poly.add(g, poly.add(poly.mul(t, e, mm), poly.mul(q, g, mm), mm), mm)
    h = poly.add(h, r, mm)
    b = poly.add(poly.add(poly.mul(s, g, mm), poly.mul(t, h, mm), mm), [1],
                 mm, -1)
    c, d = poly.quo_rem(poly.mul(s, b, mm), h, mm)
    s = poly.add(s, d, mm, -1)
    t = poly.add(t, poly.add(poly.mul(t, b, mm), poly.mul(c, g, mm), mm),
                 mm, -1)
    return g, h, s, t, mm
