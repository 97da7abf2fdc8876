"""In-place one-sided division and nonzero-entry twists, against the oracle.

``ore._divide`` updates one list of remainder coefficients and subtracts
only the entries below the divisor's degree; ``AlgebraAutomorphism``
applies its integer matrix through the nonzero entries alone.  Both must
give exactly what ``ore_division_oracle`` gives: the division by whole
monomial products and the dense matrix rows.  The centers are Q, Q(sqrt2)
and the cyclic quartic, the twists the identity, the outer twist, the
inner twist by 1+i+j+k and the conjugation by 1+2i of infinite order.
"""

import random

import ore_division_oracle as oracle
import pytest
from skewfield.numfield import NumberField
from skewfield.ore import SkewPoly, left_divide, right_divide
from skewfield.qalg import (AlgebraAutomorphism, QuaternionAlgebra,
                            ZeroNormError, inner_automorphism)

CENTERS = ([0, 1], [-2, 0, 1], [2, 0, -4, 0, 1])
QUARTIC = NumberField(CENTERS[2])


def outer_twist(K):
    H = QuaternionAlgebra(K, -1, -1)
    gen = max((a for a in K.automorphisms() if not a.is_identity()),
              key=lambda a: a.order())
    return AlgebraAutomorphism(H, H.i(), H.j(), gen)


def twists():
    for poly in CENTERS:
        K = NumberField(poly)
        H = QuaternionAlgebra(K, -1, -1)
        yield H.identity_automorphism()
        if K.degree > 1:
            yield outer_twist(K)
        yield inner_automorphism(H.element([1, 1, 1, 1]))
    yield inner_automorphism(QuaternionAlgebra(NumberField(CENTERS[0]), -1,
                                               -1).element([1, 2]))


def quaternion(rng, alg, zero_share):
    if rng.random() < zero_share:
        return alg.zero()
    K = alg.base
    while True:
        q = alg.element([K.element([rng.randint(-2, 2)
                                    for _ in range(K.degree)])
                         for _ in range(4)])
        if not q.is_zero():
            return q


def poly(rng, twist, deg, zero_share=0.3):
    """A polynomial of exactly this degree (zero for deg -1)."""
    alg = twist.owner
    if deg < 0:
        return SkewPoly(twist, [])
    return SkewPoly(twist, [quaternion(rng, alg, zero_share)
                            for _ in range(deg)]
                    + [quaternion(rng, alg, 0.0)])


def test_divisions_and_twists_match_the_oracle():
    rng = random.Random(20)
    cases = gaps = 0
    for twist in twists():
        alg = twist.owner
        for k in (-2, -1, 0, 1, 2, 3):
            for _ in range(3):
                x = quaternion(rng, alg, 0.2)
                assert twist.power(k)(x) == oracle.apply_twist(
                    twist.power(k), x)
        for deg_b in range(4):
            for deg_a in range(-1, 7):
                for share in (0.0, 0.6):
                    a = poly(rng, twist, deg_a, share)
                    b = poly(rng, twist, deg_b, share)
                    for divide, slow in ((right_divide, oracle.right_divide),
                                         (left_divide, oracle.left_divide)):
                        q, r = divide(a, b)
                        assert (q, r) == slow(a, b)
                        gaps += any(c.is_zero() for c in q.coeffs)
                    cases += 1
        zero = SkewPoly(twist, [])
        for divide in (right_divide, left_divide):
            with pytest.raises(ZeroDivisionError):
                divide(poly(rng, twist, 2), zero)
    assert cases == 9 * 32 * 2
    # some quotients skip a power of t: their remainder entry was zero
    assert gaps > 0


def test_division_forms_only_the_products_it_needs(monkeypatch):
    # dense degree 6 by dense degree 3: 4 quotient coefficients, each one
    # product to form it and 3 for the entries below the divisor's leading
    # one, plus 2 to invert that leading coefficient; whole monomial
    # products took 4 * (1 + 4) + 2 = 22
    twist = outer_twist(QUARTIC)
    rng = random.Random(6)
    a, b = poly(rng, twist, 6, 0.0), poly(rng, twist, 3, 0.0)
    product = QuaternionAlgebra._product
    calls = []

    def counted(alg, xn, yn, terms):
        calls.append(1)
        return product(alg, xn, yn, terms)

    for divide in (right_divide, left_divide):
        divide(a, b)            # the twist's power matrices, warm
        monkeypatch.setattr(QuaternionAlgebra, '_product', counted)
        q, r = divide(a, b)
        monkeypatch.setattr(QuaternionAlgebra, '_product', product)
        assert q.degree() == 3 and all(not c.is_zero() for c in q.coeffs)
        assert len(calls) == 18, divide
        calls.clear()


def test_lower_degree_dividend_needs_no_inverse():
    # over the split (1,1/Q) the leading coefficient 1 + i of b has norm 0;
    # a of lower degree is b*0 + a = 0*b + a all the same
    H = QuaternionAlgebra(NumberField(CENTERS[0]), 1, 1)
    twist = H.identity_automorphism()
    a = SkewPoly(twist, [H.element([1, 2, 0, 3]), H.j()])
    b = SkewPoly(twist, [H.one(), H.zero(), H.element([1, 1])])
    for divide in (right_divide, left_divide):
        assert divide(a, b) == (SkewPoly(twist, []), a)
        with pytest.raises(ZeroNormError):
            divide(b, b)
