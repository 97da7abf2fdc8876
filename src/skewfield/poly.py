"""Dense polynomials over Q or over Z/m.

A polynomial is a list of coefficients, lowest degree first, with no
trailing zeros; [] is zero.  The modulus ``m`` picks the ring: None means
Q, with int or Fraction coefficients, and an integer m >= 2 means Z/m,
with coefficients in 0..m-1.  The two rings differ only in ``reduce`` and
in the inverse of a leading coefficient, which must be a unit mod m; the
gcd routines need a field, so there m is prime.
"""

from fractions import Fraction


def reduce(a, m=None):
    """a with its trailing zeros cut, and its coefficients mod m if set."""
    out = list(a) if m is None else [c % m for c in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def _inverse(c, m):
    return 1 / Fraction(c) if m is None else pow(c, -1, m)


def add(a, b, m=None, sign=1):
    """a + sign * b."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += sign * y
    return reduce(out, m)


def mul(a, b, m=None):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return reduce(out, m)


def quo_rem(a, b, m=None):
    """Quotient and remainder of a by b != 0.  Mod m only the quotient
    coefficients are reduced on the way, which keeps the remainder small."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    nb = len(b) - 1
    inv = _inverse(b[-1], m)
    q = [0] * max(len(r) - nb, 0)
    for k in range(len(r) - nb - 1, -1, -1):
        c = r[k + nb] * inv
        c = q[k] = c if m is None else c % m
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return reduce(q, m), reduce(r[:nb], m)


def gcd(a, b, m=None):
    """Monic gcd of a and b; [] when both are zero."""
    a, b = reduce(a, m), reduce(b, m)
    while b:
        a, b = b, quo_rem(a, b, m)[1]
    if not a:
        return a
    inv = _inverse(a[-1], m)
    return reduce([c * inv for c in a], m)


def deriv(a, m=None):
    return reduce([i * a[i] for i in range(1, len(a))], m)


def evaluate(a, x):
    """a(x) by Horner's rule, in the ring of x: Q or a number field."""
    acc = a[-1] if a else 0
    for c in a[-2::-1]:
        acc = acc * x + c
    return acc


def powmod(a, e, f, m=None):
    """a^e modulo f."""
    out, a = [1], quo_rem(a, f, m)[1]
    while e:
        if e & 1:
            out = quo_rem(mul(out, a, m), f, m)[1]
        e >>= 1
        if e:
            a = quo_rem(mul(a, a, m), f, m)[1]
    return out


def xgcd(a, b, m=None):
    """s, t with s*a + t*b = 1 for coprime a and b, deg s < deg b and
    deg t < deg a."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = quo_rem(r0, r1, m)
        r0, r1 = r1, r
        s0, s1 = s1, add(s0, mul(q, s1, m), m, -1)
        t0, t1 = t1, add(t0, mul(q, t1, m), m, -1)
    inv = _inverse(r0[0], m)
    return reduce([c * inv for c in s0], m), reduce([c * inv for c in t0], m)
