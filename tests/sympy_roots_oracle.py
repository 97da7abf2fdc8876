"""Roots in a number field through sympy's algebraic-field factoring.

The polynomial is factored over Q(alpha), with alpha the first complex
root of the defining polynomial, and each linear factor gives a root.  An
independent route to the roots, kept for the tests to compare the
library's certified p-adic search against; every root it returns is
re-verified by exact evaluation, but a root it misses goes unnoticed.
"""

from fractions import Fraction

import sympy
from sympy import QQ as SQQ

from poly_oracle import _eval_poly_at_element, poly_deg, poly_trim


def roots_in_field(coeffs, field):
    """All roots in ``field`` of a rational polynomial, sorted by coordinates."""
    cs = poly_trim([Fraction(c) for c in coeffs])
    if poly_deg(cs) < 1:
        return []
    x = sympy.Symbol('x')
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(cs))
    if field.degree == 1:
        dom = SQQ
    else:
        fp = sum(sympy.Integer(int(c)) * x ** i
                 for i, c in enumerate(field.min_poly))
        dom = SQQ.algebraic_field(sympy.CRootOf(fp, 0))
    factors = sympy.Poly(expr, x, domain=dom).factor_list()[1]
    roots = []
    for fac, _mult in factors:
        if fac.degree() != 1:
            continue
        c1, c0 = fac.rep.to_list()
        roots.append((-_dom_to_element(c0, field)) / _dom_to_element(c1, field))
    roots.sort(key=lambda r: r.coords)
    for r in roots:
        if not _eval_poly_at_element(cs, r).is_zero():
            raise AssertionError("root candidate failed exact verification")
    return roots


def _dom_to_element(c, field):
    if hasattr(c, 'to_list'):
        rep = list(c.to_list())  # highest degree first, in the generator
        rep.reverse()
        return field.element([Fraction(int(q.numerator), int(q.denominator))
                              for q in rep])
    return field.scalar(Fraction(int(c.numerator), int(c.denominator)))
