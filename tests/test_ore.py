import random
from fractions import Fraction

import pytest

from api_oracle import from_left
from skewfield import ore
from skewfield.numfield import (FieldMorphism, NumberField, OrderCapExceeded,
                                automorphism_group)
from skewfield.ore import (
    HypothesisFailed, InsufficientPrecision, SkewFraction, SkewLaurent,
    SkewPoly, center_bounded, constant_poly, detect_recurrence, is_central,
    left_divide, ore_right_lcm, right_divide, series_expand, t_poly,
    tensor_decomposition_check)
from skewfield.qalg import (AlgebraAutomorphism, QuaternionAlgebra,
                            inner_automorphism)

Q = NumberField([0, 1], label='Q')
Q_SQRT2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
BIQUAD = NumberField([1, 0, -10, 0, 1], label='Q(sqrt2,sqrt3)')

HAM_Q = QuaternionAlgebra(Q, -1, -1, label='(-1,-1/Q)')
H2 = QuaternionAlgebra(Q_SQRT2, -1, -1, label='(-1,-1/Q(sqrt2))')

CONJ = next(g for g in automorphism_group(Q_SQRT2) if not g.is_identity())
TWIST = AlgebraAutomorphism(H2, H2.i(), H2.j(), CONJ)      # id (x) conj
ID_TWIST = HAM_Q.identity_automorphism()

SQRT2 = H2.scalar(Q_SQRT2.gen())


def rnd_poly(rng, twist, max_deg=3, lo=-2, hi=2):
    alg = twist.owner
    deg = rng.randint(0, max_deg)
    coeffs = [alg.element([alg.base.element(
        [rng.randint(lo, hi) for _ in range(alg.base.degree)])
        for _ in range(4)]) for _ in range(deg + 1)]
    return SkewPoly(twist, coeffs)


def rnd_nonzero_poly(rng, twist, max_deg=3):
    while True:
        p = rnd_poly(rng, twist, max_deg)
        if not p.is_zero():
            return p


# ---------------------------------------------------------------------------
# twisted multiplication
# ---------------------------------------------------------------------------

def test_twist_relation_on_constants():
    t = t_poly(TWIST)
    i_const = constant_poly(TWIST, H2.i())
    assert t * i_const == i_const * t          # twist fixes i
    s2 = constant_poly(TWIST, SQRT2)
    assert t * s2 == constant_poly(TWIST, -SQRT2) * t
    assert t * s2 == (-s2) * t


def test_linear_product_commutes_here():
    t = t_poly(TWIST)
    one = constant_poly(TWIST, 1)
    assert (t + one) * (t - one) == (t - one) * (t + one)


def test_degree_additivity_randomized():
    rng = random.Random(99)
    for _ in range(1000):
        twist = rng.choice((TWIST, ID_TWIST))
        p = rnd_nonzero_poly(rng, twist, 3)
        q = rnd_nonzero_poly(rng, twist, 3)
        assert (p * q).degree() == p.degree() + q.degree()


# ---------------------------------------------------------------------------
# divisions and right lcm
# ---------------------------------------------------------------------------

def test_right_divide_exact_product():
    rng = random.Random(1)
    b = rnd_nonzero_poly(rng, TWIST, 2)
    c = rnd_nonzero_poly(rng, TWIST, 2)
    a = b * c  # wait: a = q*b + r wants b as right factor
    q, r = right_divide(a, c)
    assert r.is_zero()
    assert q * c == a


def test_right_divide_small_degree():
    rng = random.Random(2)
    a = rnd_poly(rng, TWIST, 1)
    b = rnd_nonzero_poly(rng, TWIST, 3)
    while b.degree() <= a.degree():
        b = rnd_nonzero_poly(rng, TWIST, 3)
    q, r = right_divide(a, b)
    assert q.is_zero()
    assert r == a


def test_divisions_remultiplication_500():
    rng = random.Random(77)
    for _ in range(500):
        twist = rng.choice((TWIST, ID_TWIST))
        a = rnd_poly(rng, twist, 3)
        b = rnd_nonzero_poly(rng, twist, 2)
        q, r = right_divide(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()
        q2, r2 = left_divide(a, b)
        assert b * q2 + r2 == a
        assert r2.is_zero() or r2.degree() < b.degree()


def test_ore_lcm_equal_inputs():
    rng = random.Random(3)
    a = rnd_nonzero_poly(rng, TWIST, 2)
    m, u, v = ore_right_lcm(a, a)
    assert m == a * u == a * v
    assert u.degree() == 0


def test_ore_lcm_coprime_linear():
    t = t_poly(TWIST)
    a = t + constant_poly(TWIST, H2.i())
    b = t + constant_poly(TWIST, H2.j())
    m, u, v = ore_right_lcm(a, b)
    assert m.degree() == 2
    assert a * u == m and b * v == m


def test_ore_lcm_divisor_case():
    rng = random.Random(4)
    a = rnd_nonzero_poly(rng, TWIST, 2)
    c = rnd_nonzero_poly(rng, TWIST, 1)
    b = a * c
    m, u, v = ore_right_lcm(a, b)
    assert m.degree() == b.degree()
    assert a * u == m and b * v == m


def test_ore_lcm_refuses_a_wrong_quotient(monkeypatch):
    # m = a*u and b*v are formed once each; their comparison still catches
    # cofactors built from a wrong quotient
    rng = random.Random(5)
    a = rnd_nonzero_poly(rng, TWIST, 2)
    b = rnd_nonzero_poly(rng, TWIST, 3)
    m, u, v = ore_right_lcm(a, b)
    assert a * u == m == b * v
    divide = ore.left_divide

    def wrong(x, y):
        q, r = divide(x, y)
        return q + constant_poly(TWIST, 1), r
    monkeypatch.setattr(ore, 'left_divide', wrong)
    with pytest.raises(AssertionError):
        ore_right_lcm(a, b)


def test_a_twist_of_infinite_order_divides_and_expands():
    # conjugation by 1 + 2i has no finite order, but it has an inverse
    twist = inner_automorphism(HAM_Q.element([1, 2]))
    with pytest.raises(OrderCapExceeded):
        twist.order()
    assert twist.inverse().compose(twist).is_identity()
    assert twist.compose(twist.inverse()).is_identity()
    rng = random.Random(21)
    for _ in range(10):
        a = rnd_nonzero_poly(rng, twist, 3)
        b = rnd_nonzero_poly(rng, twist, 2)
        q, r = left_divide(a, b)
        assert b * q + r == a
        assert r.is_zero() or r.degree() < b.degree()
        m, u, v = ore_right_lcm(a, b)
        assert a * u == m == b * v
        t = t_poly(twist)
        f = SkewFraction(a, t)
        g = SkewFraction(constant_poly(twist, 1), b)
        assert (f + g) - g == f
        assert series_expand(f + g, 6).agrees_with(
            series_expand(f, 6) + series_expand(g, 6))
        s = series_expand(f, 6)
        assert all(s.coefficient(n - 1) == a.coefficient(n)
                   for n in range(s.ord + 1, s.limit + 1))


# ---------------------------------------------------------------------------
# fractions
# ---------------------------------------------------------------------------

def one_frac(twist):
    return SkewFraction(constant_poly(twist, 1), constant_poly(twist, 1))


def test_fraction_cofactor_cancellation():
    rng = random.Random(5)
    a = rnd_nonzero_poly(rng, TWIST, 2)
    c = rnd_nonzero_poly(rng, TWIST, 1)
    f = SkewFraction(a, constant_poly(TWIST, 1))
    g = SkewFraction(a * c, c)
    assert f == g


def test_fraction_inverse_property_200():
    rng = random.Random(6)
    for _ in range(200):
        num = rnd_nonzero_poly(rng, TWIST, 2)
        den = rnd_nonzero_poly(rng, TWIST, 2)
        f = SkewFraction(num, den)
        assert f * f.inverse() == one_frac(TWIST)


def test_fraction_add_zero():
    rng = random.Random(7)
    f = SkewFraction(rnd_poly(rng, TWIST, 2), rnd_nonzero_poly(rng, TWIST, 2))
    zero = SkewFraction(SkewPoly(TWIST, []), constant_poly(TWIST, 1))
    assert f + zero == f


def test_fraction_equality_equivalence_relation():
    rng = random.Random(8)
    for _ in range(60):
        a = rnd_nonzero_poly(rng, TWIST, 2)
        b = rnd_nonzero_poly(rng, TWIST, 1)
        c1 = rnd_nonzero_poly(rng, TWIST, 1)
        c2 = rnd_nonzero_poly(rng, TWIST, 1)
        f = SkewFraction(a, b)
        g = SkewFraction(a * c1, b * c1)
        h = SkewFraction(a * c2, b * c2)
        assert f == f
        assert f == g and g == f
        assert g == h
        assert f == h


def test_fraction_inverse_of_zero_raises():
    zero = SkewFraction(SkewPoly(TWIST, []), constant_poly(TWIST, 1))
    with pytest.raises(ZeroDivisionError):
        zero.inverse()


def test_left_fraction_ingestion():
    rng = random.Random(10)
    for _ in range(40):
        den = rnd_nonzero_poly(rng, TWIST, 2)
        num = rnd_nonzero_poly(rng, TWIST, 2)
        f = from_left(den, num)
        # den * f == num as right fractions
        lhs = SkewFraction(den, constant_poly(TWIST, 1)) * f
        assert lhs == SkewFraction(num, constant_poly(TWIST, 1))
    assert from_left(rnd_nonzero_poly(rng, TWIST, 1),
                     SkewPoly(TWIST, [])).is_zero()


# ---------------------------------------------------------------------------
# Laurent series
# ---------------------------------------------------------------------------

def test_geometric_series_untwisted():
    t = t_poly(ID_TWIST)
    one = constant_poly(ID_TWIST, 1)
    f = SkewFraction(one, one - t)
    s = series_expand(f, 12)
    assert s.ord == 0
    assert all(s.coefficient(n) == HAM_Q.one() for n in range(12))


def test_twisted_geometric_series():
    t = t_poly(TWIST)
    one = constant_poly(TWIST, 1)
    i_const = constant_poly(TWIST, H2.i())
    f = SkewFraction(one, one - i_const * t)
    s = series_expand(f, 12)
    i = H2.i()
    for n in range(12):
        assert s.coefficient(n) == i ** n
    # plug-back oracle: (1 - i t) * series == 1 to precision
    back = s.twist and (one - i_const * t)
    from skewfield.ore import _poly_times_series
    prod = _poly_times_series(back, s)
    assert prod.coefficient(0) == H2.one()
    assert all(prod.coefficient(n).is_zero() for n in range(1, prod.limit))


def test_t_over_t_cubed():
    t = t_poly(TWIST)
    f = SkewFraction(t, t * t * t)
    s = series_expand(f, 10)
    assert s.ord == -2
    assert s.coefficient(-2) == H2.one()
    assert all(s.coefficient(n).is_zero() for n in range(-1, s.limit))


def test_fraction_eq_iff_series_agree():
    rng = random.Random(9)
    for _ in range(40):
        a = rnd_nonzero_poly(rng, TWIST, 2)
        b = rnd_nonzero_poly(rng, TWIST, 2)
        c = rnd_nonzero_poly(rng, TWIST, 1)
        f = SkewFraction(a, b)
        g = SkewFraction(a * c, b * c)      # equal to f
        h = SkewFraction(a + constant_poly(TWIST, 1), b)
        sf = series_expand(f, 20)
        sg = series_expand(g, 20)
        sh = series_expand(h, 20)
        assert (f == g) == sf.agrees_with(sg)
        assert (f == h) == sf.agrees_with(sh)


# ---------------------------------------------------------------------------
# recurrence detection
# ---------------------------------------------------------------------------

def test_recurrence_untwisted_geometric():
    t = t_poly(ID_TWIST)
    one = constant_poly(ID_TWIST, 1)
    s = series_expand(SkewFraction(one, one - t), 30)
    cert = detect_recurrence(s, 3)
    assert cert is not None
    assert cert.order == 1
    assert cert.ys[0] == HAM_Q.one()
    assert cert.verify(s)


def test_recurrence_twisted_geometric():
    t = t_poly(TWIST)
    one = constant_poly(TWIST, 1)
    i_const = constant_poly(TWIST, H2.i())
    s = series_expand(SkewFraction(one, one - i_const * t), 30)
    cert = detect_recurrence(s, 3)
    assert cert is not None
    assert cert.order == 1
    assert cert.ys[0] == H2.i()
    assert cert.verify(s)


def test_recurrence_with_negative_order_series():
    # 1/(t - t^2) = sum of t^n from n = -1 on; the certificate starts at 0
    t = t_poly(TWIST)
    one = constant_poly(TWIST, 1)
    s = series_expand(SkewFraction(one, t - t * t), 24)
    assert s.ord == -1
    cert = detect_recurrence(s, 2)
    assert cert is not None and cert.order == 1
    assert cert.start == 0
    assert cert.ys[0] == H2.one()
    assert cert.verify(s)


def test_recurrence_rejects_square_indicator():
    coeffs = [H2.one() if n in (0, 1, 4, 9, 16) else H2.zero()
              for n in range(20)]
    s = SkewLaurent(TWIST, 0, coeffs)
    assert detect_recurrence(s, 3) is None


def test_recurrence_insufficient_precision():
    s = SkewLaurent(TWIST, 0, [H2.one()] * 6)
    with pytest.raises(InsufficientPrecision):
        detect_recurrence(s, 3)


# ---------------------------------------------------------------------------
# centrality
# ---------------------------------------------------------------------------

def test_is_central_examples():
    t = t_poly(TWIST)
    assert is_central(t * t)
    assert not is_central(constant_poly(TWIST, SQRT2))
    assert not is_central(constant_poly(TWIST, H2.i()) * t)
    assert not is_central(t)
    one = constant_poly(TWIST, 1)
    assert is_central(SkewFraction(t * t, one))
    assert is_central(SkewFraction(one, t * t))


def test_center_bounded_tensor_conjugation():
    report = center_bounded(H2, TWIST, 6)
    assert report.hypothesis_holds
    assert report.closed_form_matches
    assert len(report.raw_basis) == 4  # 1, t^2, t^4, t^6 over Q
    for b in report.raw_basis:
        assert is_central(b)


def test_center_bounded_identity_twist():
    report = center_bounded(HAM_Q, ID_TWIST, 3)
    assert report.hypothesis_holds
    assert report.closed_form_matches
    assert len(report.raw_basis) == 4  # c t^j, c rational, j <= 3


def test_fixed_center_powers_are_central():
    # constructive direction: with inner order equal to order, every power
    # of t^m with a fixed-center coefficient commutes with everything
    m = TWIST.order()
    assert m == 2
    for p in range(4):
        for c in (1, Fraction(3, 7)):
            mono = SkewPoly(TWIST, [H2.zero()] * (m * p) + [H2.scalar(c)])
            assert is_central(mono)


def test_center_bounded_inner_twist_hypothesis_fails():
    sigma = inner_automorphism(HAM_Q.i())
    report = center_bounded(HAM_Q, sigma, 2)
    assert not report.hypothesis_holds
    assert report.inner_order == 1 and report.twist_order == 2
    assert report.closed_form_matches is None
    # raw center: 1, i t, t^2
    assert len(report.raw_basis) == 3
    for b in report.raw_basis:
        assert is_central(b)


# ---------------------------------------------------------------------------
# tensor decomposition check
# ---------------------------------------------------------------------------

def embed_q(field):
    return FieldMorphism(Q, field, field.zero())


def test_tensor_check_trivial_twist():
    L = QuaternionAlgebra(Q_SQRT2, -1, -1)
    emb = embed_q(Q_SQRT2)
    report = tensor_decomposition_check(HAM_Q, ID_TWIST, L,
                                        L.identity_automorphism(), emb, 4)
    assert report.passed()
    assert report.rank == report.ambient_dim == 40


def test_tensor_check_quadratic_tower():
    # base (-1,-1/Q(sqrt2)) with the conjugation twist, extension through
    # Q(sqrt2,sqrt3) with the twist acting as conj on sqrt2 and fixing sqrt3
    sqrt2_in = BIQUAD.element([0, Fraction(-9, 2), 0, Fraction(1, 2)])
    emb = FieldMorphism(Q_SQRT2, BIQUAD, sqrt2_in)
    L = QuaternionAlgebra(BIQUAD, -1, -1)
    sqrt3_in = BIQUAD.gen() - sqrt2_in
    assert sqrt3_in * sqrt3_in == BIQUAD.scalar(3)
    tau_tilde = next(g for g in automorphism_group(BIQUAD)
                     if g(sqrt2_in) == -sqrt2_in and g(sqrt3_in) == sqrt3_in)
    tau = AlgebraAutomorphism(L, L.i(), L.j(), tau_tilde)
    report = tensor_decomposition_check(H2, TWIST, L, tau, emb, 4)
    assert report.passed()
    assert report.rank == report.ambient_dim == 80


def test_tensor_check_hypothesis_failure():
    L = QuaternionAlgebra(Q_SQRT2, -1, -1)
    emb = embed_q(Q_SQRT2)
    conj = next(g for g in automorphism_group(Q_SQRT2) if not g.is_identity())
    tau_prime = AlgebraAutomorphism(L, L.i(), L.j(), conj)
    tau = inner_automorphism(L.i()).compose(tau_prime)
    sigma = inner_automorphism(HAM_Q.i())
    with pytest.raises(HypothesisFailed):
        tensor_decomposition_check(HAM_Q, sigma, L, tau, emb, 4)


def test_negative_degree_bound_is_refused():
    L = QuaternionAlgebra(Q_SQRT2, -1, -1)
    with pytest.raises(ValueError, match='degree bound'):
        center_bounded(H2, TWIST, -1)
    with pytest.raises(ValueError, match='degree bound'):
        tensor_decomposition_check(HAM_Q, ID_TWIST, L,
                                   L.identity_automorphism(),
                                   embed_q(Q_SQRT2), -1)
