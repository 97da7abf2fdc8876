"""Recurrence detection on leading blocks over the algebra, against one
tall system.

``detect_recurrence`` solves each order's k leading equations as a k x k
system over the quaternion algebra and falls back to the whole stacked
rational system only when some column of that block has no invertible
entry.  It must return exactly what the one tall system returned
(``recurrence_oracle``): the same order, start and y's, or None, over Q,
Q(sqrt2) and the cyclic quartic, the algebras (-1,-1), (2,3) and the split
(1,1), the identity, outer and inner twists, for seeded series with zero
coefficients, expanded fractions and 0/1 indicator series.
"""

import random
from fractions import Fraction

import recurrence_oracle as oracle
import pytest
from skewfield import linalg, ore
from skewfield.numfield import NumberField
from skewfield.ore import (InsufficientPrecision, SkewFraction, SkewLaurent,
                           SkewPoly, _leading_block, detect_recurrence,
                           series_expand)
from skewfield.qalg import (AlgebraAutomorphism, QuaternionAlgebra,
                            inner_automorphism)

CENTERS = ([0, 1], [-2, 0, 1], [2, 0, -4, 0, 1])
PARAMS = ((-1, -1), (2, 3), (1, 1))
MAX_ORDER = 3


def twists():
    """(label, twist) over every center and algebra."""
    for poly in CENTERS:
        K = NumberField(poly)
        outer = [a for a in K.automorphisms() if not a.is_identity()]
        for a, b in PARAMS:
            H = QuaternionAlgebra(K, a, b)
            label = '%s (%d,%d)' % (poly, a, b)
            yield label + ' identity', H.identity_automorphism()
            if outer:
                yield label + ' outer', AlgebraAutomorphism(
                    H, H.i(), H.j(), max(outer, key=lambda g: g.order()))
            # 2 + i + j + k has nonzero norm in all three algebras
            yield label + ' inner', inner_automorphism(H.element([2, 1, 1, 1]))


def quaternion(rng, alg, zero_share=0.0):
    if rng.random() < zero_share:
        return alg.zero()
    K = alg.base
    return alg.element([K.element([rng.choice((-1, 0, 0, 1, 2))
                                   for _ in range(K.degree)])
                        for _ in range(4)])


def series_cases(rng, twist):
    """Seeded series: some with zero coefficients, expanded fractions (some
    with every odd coefficient 0 or with a pole) and 0/1 indicators; 16 of
    them, or 7 over the quartic, whose 16-dimensional systems cost most."""
    alg = twist.owner
    sparse, fractions, indicators = ((5, 7, 4) if alg.base.degree <= 2
                                     else (2, 3, 2))
    for _ in range(sparse):
        yield SkewLaurent(twist, rng.choice((-1, 0, 1)), [alg.one()] + [
            quaternion(rng, alg, 0.4) for _ in range(9)])
    for n in range(fractions):
        num = SkewPoly(twist, [quaternion(rng, alg, 0.3)
                               for _ in range(rng.randint(1, 3))])
        if num.is_zero():
            num = SkewPoly(twist, [alg.one()])
        tail = [quaternion(rng, alg, 0.3) for _ in range(rng.randint(1, 3))]
        if n % 3 == 0:      # a function of t^2: every odd coefficient is 0
            tail = [c for x in tail for c in (alg.zero(), x)]
        pole = [alg.zero()] * (n % 2)
        den = SkewPoly(twist, pole + [alg.one()] + tail)
        yield series_expand(SkewFraction(num, den), 10)
    for _ in range(indicators):
        yield SkewLaurent(twist, 0, [alg.one()] + [
            alg.one() if rng.random() < 0.5 else alg.zero()
            for _ in range(9)])


def outcome(detect, series):
    try:
        cert = detect(series, MAX_ORDER)
    except InsufficientPrecision:
        return 'insufficient'
    return None if cert is None else (cert.order, cert.start, cert.ys)


def counting(monkeypatch):
    """Record each ``_leading_block`` outcome (True when solved over the
    algebra, False on None) and the shape of each ``eliminate``."""
    outcomes, shapes = [], []
    leading, eliminate = ore._leading_block, linalg.eliminate

    def leading_counted(series, k, start):
        ys = leading(series, k, start)
        outcomes.append(ys is not None)
        return ys

    def eliminate_counted(rows, ncols):
        shapes.append((len(rows), ncols))
        return eliminate(rows, ncols)

    monkeypatch.setattr(ore, '_leading_block', leading_counted)
    monkeypatch.setattr(linalg, 'eliminate', eliminate_counted)
    return outcomes, shapes


def test_leading_block_matches_one_tall_system(monkeypatch):
    rng = random.Random(19)
    cases = solved = fallback = 0
    for label, twist in twists():
        for series in series_cases(rng, twist):
            want = outcome(oracle.detect_recurrence, series)
            with monkeypatch.context() as m:
                outcomes, shapes = counting(m)
                got = outcome(detect_recurrence, series)
            assert got == want, (label, series)
            # each None goes on to exactly one whole stacked system
            tall = sum(1 for rows, ncols in shapes if rows > ncols)
            assert outcomes.count(False) == tall, label
            solved += outcomes.count(True)
            fallback += outcomes.count(False)
            cases += 1
    assert cases == 15 * 16 + 9 * 7
    # both routes ran: blocks solved over the algebra and blocks that fell
    # back to the whole system
    assert solved > 0 and fallback > 0, (solved, fallback)


def test_split_block_without_invertible_entries_falls_back(monkeypatch):
    # e = (1+i)/2 is an idempotent of norm 0 in (1,1/Q); the order-2 block
    # [[e, 1-e], [1-e, e]] squares to the identity, so it is invertible
    # over Q, yet none of its entries is invertible
    H = QuaternionAlgebra(NumberField(CENTERS[0]), 1, 1)
    twist = H.identity_automorphism()
    e = H.element([Fraction(1, 2), Fraction(1, 2)])
    assert e * e == e and e.reduced_norm().is_zero()
    series = SkewLaurent(twist, 0, [H.one() - e, e] * 5)
    assert _leading_block(series, 2, 2) is None
    want = outcome(oracle.detect_recurrence, series)
    assert want == (2, 2, (H.zero(), H.one()))
    outcomes, shapes = counting(monkeypatch)
    assert outcome(detect_recurrence, series) == want
    # order 1 (the block [1-e]) and order 2 both went to the whole system
    assert outcomes == [False, False]
    assert sum(1 for rows, ncols in shapes if rows > ncols) == 2


def test_block_invertible_over_the_algebra_makes_no_elimination(
        monkeypatch):
    # a_n = sum a_{n-i} sigma^(n-i)(y_i) over Q(sqrt2) with an outer twist,
    # of order 1, and of order 2 from a_0 = 1, a_1 = 0, whose leading block
    # has a zero first entry and needs a row swap
    K = NumberField(CENTERS[1])
    H = QuaternionAlgebra(K, -1, -1)
    twist = AlgebraAutomorphism(H, H.i(), H.j(), next(
        a for a in K.automorphisms() if not a.is_identity()))
    y = H.element([K.element([1, 1]), 2, 0, -1])
    twist.power(-1)     # its center action's inverse, an echelon, warm
    for coeffs, ys in (([H.element([1, 0, 3])], [y]),
                       ([H.one(), H.zero()], [y, H.element([0, 1, 1])])):
        for n in range(len(coeffs), 10):
            coeffs.append(sum((coeffs[n - i] * twist.power(n - i)(x)
                               for i, x in enumerate(ys, 1)), H.zero()))
        with monkeypatch.context() as m:
            outcomes, shapes = counting(m)
            cert = detect_recurrence(SkewLaurent(twist, 0, coeffs), MAX_ORDER)
        assert (cert.order, cert.start, cert.ys) == (len(ys), len(ys),
                                                     tuple(ys))
        # every order tried was solved over the algebra
        assert outcomes == [True] * len(ys) and shapes == []
