"""Recurrence detection on leading square blocks, against one tall system.

``detect_recurrence`` solves each order on its leading k blocks and falls
back to the whole stacked system only when that square system is
rank-deficient.  It must return exactly what the one tall system returned
(``recurrence_oracle``): the same order, start and y's, or None, over Q,
Q(sqrt2) and the cyclic quartic, the algebras (-1,-1), (2,3) and the split
(1,1), the identity, outer and inner twists, for seeded series with zero
coefficients, expanded fractions and 0/1 indicator series.
"""

import random

import recurrence_oracle as oracle
import pytest
from skewfield import linalg
from skewfield.numfield import NumberField
from skewfield.ore import (InsufficientPrecision, SkewFraction, SkewLaurent,
                           SkewPoly, detect_recurrence, series_expand)
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


def test_leading_block_matches_one_tall_system(monkeypatch):
    shapes = []
    eliminate = linalg.eliminate

    def counted(rows, ncols):
        shapes.append((len(rows), ncols))
        return eliminate(rows, ncols)

    rng = random.Random(19)
    cases = square = fallback = 0
    for label, twist in twists():
        for series in series_cases(rng, twist):
            want = outcome(oracle.detect_recurrence, series)
            monkeypatch.setattr(linalg, 'eliminate', counted)
            got = outcome(detect_recurrence, series)
            monkeypatch.setattr(linalg, 'eliminate', eliminate)
            assert got == want, (label, series)
            square += sum(1 for m, n in shapes if m == n)
            fallback += sum(1 for m, n in shapes if m > n)
            shapes.clear()
            cases += 1
    assert cases == 15 * 16 + 9 * 7
    # both routes ran: full-rank leading blocks and rank-deficient ones
    assert square > 0 and fallback > 0, (square, fallback)
