"""skewfield.poly against the rational and mod-m sets it replaced."""

import random
from fractions import Fraction

import pytest

import poly_oracle as old
from skewfield import poly

DRAWS = 300


def _rational(rng, degree):
    return old.poly_trim(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(degree + 1))


def _residues(rng, m, degree, monic=False):
    cs = [rng.randrange(m) for _ in range(degree + 1)]
    if monic:
        cs[-1] = 1
    return old._mod(cs, m)


def test_rational_routines_match_the_rational_set():
    rng = random.Random(1)
    for _ in range(DRAWS):
        a = _rational(rng, rng.randint(-1, 8))
        b = _rational(rng, rng.randint(-1, 8))
        c = _rational(rng, rng.randint(0, 4))
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        assert poly.mul(a, b) == old.poly_mul(a, b)
        assert poly.deriv(a) == old.poly_deriv(a)
        assert poly.evaluate(a, x) == old.poly_eval(a, x)
        if b:
            assert poly.quo_rem(a, b) == old.poly_divmod(a, b)
        # a common factor c makes the gcd nontrivial
        ac, bc = old.poly_mul(a, c), old.poly_mul(b, c)
        assert poly.gcd(ac, bc) == old.poly_gcd(ac, bc)


@pytest.mark.parametrize('p', [3, 7, 997])
def test_routines_mod_a_prime_match_the_mod_m_set(p):
    rng = random.Random(p)
    coprime = 0
    for _ in range(DRAWS):
        raw = [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randint(0, 9))]
        assert poly.reduce(raw, p) == old._mod(raw, p)
        a = _residues(rng, p, rng.randint(-1, 8))
        b = _residues(rng, p, rng.randint(-1, 8))
        f = _residues(rng, p, rng.randint(1, 8), monic=True)
        e = rng.randrange(2 * p)
        sign = rng.choice((1, -1))
        assert poly.add(a, b, p, sign) == old._add(a, b, p, sign)
        assert poly.mul(a, b, p) == old._mul(a, b, p)
        assert poly.powmod(a, e, f, p) == old._powmod(a, e, f, p)
        if not b:
            continue
        assert poly.quo_rem(a, b, p) == old._divmod(a, b, p)
        c = _residues(rng, p, rng.randint(0, 3), monic=True)
        ac, bc = old._mul(a, c, p), old._mul(b, c, p)
        assert poly.gcd(ac, bc, p) == old._gcd(ac, bc, p)
        if a and old._gcd(a, b, p) == [1]:
            coprime += 1
            assert poly.xgcd(a, b, p) == old._xgcd(a, b, p)
    assert coprime > 30


@pytest.mark.parametrize('m', [3 ** 5, 101 ** 3])
def test_lifting_moduli_match_the_mod_m_set(m):
    # Hensel lifting divides by monic factors modulo prime powers
    rng = random.Random(m)
    for _ in range(DRAWS):
        a = _residues(rng, m, rng.randint(-1, 8))
        b = _residues(rng, m, rng.randint(-1, 8))
        h = _residues(rng, m, rng.randint(0, 8), monic=True)
        assert poly.mul(a, b, m) == old._mul(a, b, m)
        assert poly.quo_rem(a, h, m) == old._divmod(a, h, m)


@pytest.mark.parametrize('m', [None, 7])
def test_division_by_zero_raises(m):
    with pytest.raises(ZeroDivisionError):
        poly.quo_rem([1, 2], [], m)
