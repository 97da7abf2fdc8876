"""One-sided division by whole monomial products: a slow oracle.

``_divide`` here is the division as it ran before the remainder was
updated in place: each quotient term c t^d becomes its own ``SkewPoly``,
the whole product c t^d * b (right) or b * c t^d (left) is formed,
leading entry included, and quotient and remainder are rebuilt over their
full length.  ``apply_twist`` applies an automorphism through every entry
of its integer matrix, zeros included.  The tests compare the library's
in-place division and nonzero-entry twist rows against both.
"""

from operator import mul

from skewfield.ore import SkewPoly
from skewfield.qalg import QuatElement


def apply_twist(twist, x):
    """twist(x) by the dense rows of ``twist.int_matrix()``."""
    if twist.is_identity():
        return x
    rows, den = twist.int_matrix()
    return QuatElement(twist.owner,
                       tuple([sum(map(mul, row, x.num)) for row in rows]),
                       den * x.den)


def _divide(a, b, right):
    """Quotient and remainder of a by b, on the right or on the left."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    twist = a.twist
    q, r, db = SkewPoly(twist, []), a, b.degree()
    blead_inv = b.leading().inverse()
    while not r.is_zero() and r.degree() >= db:
        d = r.degree() - db
        c = (r.leading() * apply_twist(twist.power(d), blead_inv) if right
             else apply_twist(twist.power(-db), blead_inv * r.leading()))
        term = SkewPoly(twist, [twist.owner.zero()] * d + [c])
        product = term * b if right else b * term
        n = max(len(r.coeffs), len(product.coeffs))
        q = SkewPoly(twist, [q.coefficient(i) + term.coefficient(i)
                             for i in range(max(len(q.coeffs), d + 1))])
        r = SkewPoly(twist, [r.coefficient(i) + -product.coefficient(i)
                             for i in range(n)])
    return q, r


def right_divide(a, b):
    """(q, r) with a = q*b + r and deg r < deg b."""
    return _divide(a, b, True)


def left_divide(a, b):
    """(q, r) with a = b*q + r and deg r < deg b."""
    return _divide(a, b, False)
