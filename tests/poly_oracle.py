"""The two dense-polynomial sets that ``skewfield.poly`` replaced.

``poly_trim`` ... ``poly_eval`` are the rational routines of ``numfield``,
with ``_eval_poly_at_element``, its Horner step at a field element;
``_mod`` ... ``_xgcd`` are the mod-m routines of ``zfactor``.  Coefficient
lists run lowest degree first.  The tests compare ``skewfield.poly``
against them, and the older oracles build on them.
"""

from fractions import Fraction

_Q0 = Fraction(0)


# ---------------------------------------------------------------------------
# dense rational polynomials, coefficient lists lowest degree first
# ---------------------------------------------------------------------------

def poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_deg(cs):
    return len(cs) - 1


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [_Q0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_scale(a, c):
    return poly_trim([c * x for x in a])


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [_Q0] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and a:
        s = a[-1] / lead
        k = len(a) - len(b)
        q[k] = s
        for i in range(len(b)):
            a[k + i] -= s * b[i]
        a = poly_trim(a)
        if len(a) >= len(b) and a and a[-1] == 0:
            a = poly_trim(a)
    return poly_trim(q), poly_trim(a)


def poly_gcd(a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        a = poly_scale(a, 1 / a[-1])
    return a


def poly_deriv(a):
    return poly_trim([Fraction(i) * a[i] for i in range(1, len(a))])


def poly_eval(a, x):
    acc = _Q0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _eval_poly_at_element(coeffs, elem):
    acc = elem.field.zero()
    for c in reversed(coeffs):
        acc = acc * elem + elem.field.scalar(c)
    return acc


# ---------------------------------------------------------------------------
# dense polynomials modulo m, coefficient lists lowest degree first, trimmed
# ---------------------------------------------------------------------------

def _mod(a, m):
    out = [c % m for c in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def _add(a, b, m, sign=1):
    n = max(len(a), len(b))
    return _mod([(a[i] if i < len(a) else 0)
                 + sign * (b[i] if i < len(b) else 0) for i in range(n)], m)


def _mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _mod(out, m)


def _divmod(a, b, m):
    """Quotient and remainder of a by b, whose leading coefficient is a unit."""
    r = [c % m for c in a]
    nb = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(r) - nb, 0)
    for k in range(len(r) - nb - 1, -1, -1):
        c = q[k] = r[k + nb] * inv % m
        if c:
            for j, y in enumerate(b):
                r[k + j] = (r[k + j] - c * y) % m
    return _mod(q, m), _mod(r[:nb], m)


def _gcd(a, b, p):
    """Monic gcd modulo the prime p."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _powmod(a, e, f, m):
    """a^e modulo f and m."""
    out, a = [1], _divmod(a, f, m)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, m), f, m)[1]
        e >>= 1
        if e:
            a = _divmod(_mul(a, a, m), f, m)[1]
    return out


def _xgcd(a, b, p):
    """s, t with s*a + t*b = 1 modulo p, deg s < deg b, deg t < deg a."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _add(s0, _mul(q, s1, p), p, -1)
        t0, t1 = t1, _add(t0, _mul(q, t1, p), p, -1)
    inv = pow(r0[0], -1, p)
    return _mod([c * inv for c in s0], p), _mod([c * inv for c in t0], p)
