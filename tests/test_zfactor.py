import random

import pytest
import sympy

import kronecker_oracle
from skewfield.numfield import NumberField
from skewfield.zfactor import is_irreducible_over_q

X8_PLUS_2 = [2, 0, 0, 0, 0, 0, 0, 0, 1]
# minimal polynomial of sqrt2 + sqrt3 + sqrt5, Galois group C2^3: modulo
# every prime it splits into factors of degree at most 2
C2_CUBED_OCTIC = [576, 0, -960, 0, 352, 0, -40, 0, 1]
BIQUAD_23 = [1, 0, -10, 0, 1]   # sqrt2 + sqrt3
BIQUAD_25 = [9, 0, -14, 0, 1]   # sqrt2 + sqrt5


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_monic(rng, degree, height):
    return [rng.randint(-height, height) for _ in range(degree)] + [1]


def _seeded_cases():
    """200 monic polynomials of degree 2-8, every other one a product."""
    rng = random.Random(6)
    for k in range(200):
        degree = 2 + k % 7
        height = 3 if degree <= 6 else 6
        if k % 2:
            yield _random_monic(rng, degree, height)
        else:
            d = rng.randint(1, degree - 1)
            yield _mul(_random_monic(rng, d, height),
                       _random_monic(rng, degree - d, height))


def _sympy_irreducible(coeffs):
    x = sympy.Symbol('x')
    return sympy.Poly(list(reversed(coeffs)), x).is_irreducible


def test_irreducibility_agrees_with_independent_oracles():
    verdicts = set()
    for coeffs in _seeded_cases():
        if len(coeffs) - 1 <= kronecker_oracle.MAX_DEGREE:
            want = kronecker_oracle.is_irreducible(coeffs)
        else:
            want = _sympy_irreducible(coeffs)
        assert is_irreducible_over_q(coeffs) == want, coeffs
        verdicts.add(want)
    assert verdicts == {True, False}


def test_irreducibility_hard_octics():
    assert is_irreducible_over_q(X8_PLUS_2)        # Eisenstein at 2
    assert is_irreducible_over_q(C2_CUBED_OCTIC)   # only recombination
    assert NumberField(X8_PLUS_2).degree == 8
    assert NumberField(C2_CUBED_OCTIC).degree == 8
    # both quartics split into factors of degree at most 2 modulo every
    # prime, so only recombination finds either of them
    assert not is_irreducible_over_q(_mul(BIQUAD_23, BIQUAD_25))
    # no rational root
    assert not is_irreducible_over_q(_mul([1, 0, 0, 0, 1], [-2, 0, 0, 0, 1]))


def test_irreducibility_bounded_time_on_big_coefficients():
    assert NumberField([10 ** 30 + 1, 0, 0, 0, 1]).degree == 4
    assert not is_irreducible_over_q(_mul([3, 0, 1], [10 ** 20 + 7, 0, 1]))
    assert is_irreducible_over_q([10 ** 40 + 3, 1, 0, 0, 0, 1])


def test_irreducibility_of_a_repeated_factor_is_false():
    assert not is_irreducible_over_q([4, 0, -4, 0, 1])            # (x^2-2)^2
    assert not is_irreducible_over_q(_mul([10 ** 15, 0, 1],
                                          [10 ** 15, 0, 1]))
    assert not is_irreducible_over_q([0, 0, 1])                   # x^2


@pytest.mark.parametrize('coeffs', [
    [0, 3, -2, 5, 1, 0, 1],     # x^6 + x^4 + 5x^3 - 2x^2 + 3x: root 0
    [2, -1, 0, 0, 1, -3, 1],    # x^6 - 3x^5 + x^4 - x + 2: root 1
    [5, 8, 3, 0, 1, 1],         # (x + 1)(x^4 + 3x + 5): root -1
    [-1, 0, 1],                 # x^2 - 1: roots 1 and -1
])
def test_irreducibility_of_a_linear_factor_is_false(coeffs):
    assert kronecker_oracle.is_irreducible(coeffs) is False
    assert not is_irreducible_over_q(coeffs)


def test_linear_polynomials_with_a_root_at_0_or_1_stay_irreducible():
    assert is_irreducible_over_q([0, 1])
    assert is_irreducible_over_q([-1, 1])
    assert is_irreducible_over_q([1, 1])


@pytest.mark.parametrize('coeffs', [[5], [1, 2], [1] + [0] * 8 + [1]])
def test_irreducibility_rejects_out_of_range_input(coeffs):
    with pytest.raises(ValueError):
        is_irreducible_over_q(coeffs)
