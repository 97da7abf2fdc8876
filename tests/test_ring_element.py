"""The derived operators every ring element class shares.

-, reflected +, - and *, and ** are defined once on numfield.RingElement
from each class's +, unary -, * and scalar coercion.
"""

from fractions import Fraction

import pytest

from skewfield.numfield import NumberField, RingElement
from skewfield.ore import SkewFraction, SkewPoly, constant_poly
from skewfield.qalg import AlgebraAutomorphism, QuaternionAlgebra

Q_SQRT2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
H2 = QuaternionAlgebra(Q_SQRT2, -1, -1)
CONJ = next(g for g in Q_SQRT2.automorphisms() if not g.is_identity())
TWIST = AlgebraAutomorphism(H2, H2.i(), H2.j(), CONJ)

POLY = SkewPoly(TWIST, [H2.i(), H2.element([1, 0, 1]), H2.scalar(
    Q_SQRT2.gen())])
DEN = SkewPoly(TWIST, [1, H2.k()])


def _fraction_scalar(n):
    return SkewFraction(constant_poly(TWIST, n), constant_poly(TWIST, 1))


# (element, scalar embedding, whether it has an inverse)
CASES = [
    (Q_SQRT2.element([1, 2]), Q_SQRT2.scalar, True),
    (H2.element([1, 2, 0, -1]), H2.scalar, True),
    (POLY, lambda n: constant_poly(TWIST, n), False),
    (SkewFraction(POLY, DEN), _fraction_scalar, True),
]


@pytest.mark.parametrize('x, scalar, invertible', CASES,
                         ids=['FieldElement', 'QuatElement', 'SkewPoly',
                              'SkewFraction'])
def test_derived_operators_match_the_forward_forms(x, scalar, invertible):
    assert isinstance(x, RingElement)
    for n in (3, Fraction(-2, 3)):
        c = scalar(n)
        assert n - x == c - x
        assert x - n == x - c
        assert n * x == c * x
        assert n + x == c + x
    assert x ** 3 == x * x * x
    if invertible:
        assert x ** -2 == (x * x).inverse()
