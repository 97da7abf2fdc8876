"""The center and the tensor rank per degree block, against one system.

``center_bounded`` solves the commutator system one degree block at a
time, and ``tensor_decomposition_check`` sums the ranks of each degree's
coefficients.  Both must give exactly what the one dense system gave
(``block_elimination_oracle``): the same raw basis, value for value and in
the same order, and the same reports, over Q, Q(sqrt2) and the cyclic
quartic at degree bounds 0 to 6, for the identity, outer and inner twists,
the infinite-order conjugation by 1 + 2i and seeded inner twists after a
center map.
"""

import os
import random

import block_elimination_oracle as oracle
import pytest
from skewfield.cli import Workspace, parse_scenario, tower
from skewfield.galois import build_special_case_3
from skewfield.numfield import NumberField, OrderCapExceeded
from skewfield.ore import (CenterReport, HypothesisFailed, SkewPoly,
                           TensorReport, _center_basis, center_bounded,
                           tensor_decomposition_check)
from skewfield.qalg import (AlgebraAutomorphism, QuaternionAlgebra,
                            inner_automorphism)
from skewfield.regressions import (biquadratic, counterexample,
                                   cyclic_quartic, hamilton, hamilton_over,
                                   matching_tower, q_embedding, sqrt2_field)

SCN_DIR = os.path.join(os.path.dirname(__file__), '..', 'scenarios')
FLAGS = {'height_bound': 20, 'degree_bound': 4, 'precision': 30}
BOUNDS = range(7)

HAM_Q = hamilton()
Q_SQRT2 = sqrt2_field()
BIQUAD_EMB = biquadratic(Q_SQRT2)


def twists(rng):
    """(name, twist) over (-1,-1) on each center, with the seeded ones."""
    for K in (NumberField([0, 1], label='Q'), Q_SQRT2,
              cyclic_quartic(Q_SQRT2).target):
        H = QuaternionAlgebra(K, -1, -1)
        autos = K.automorphisms()
        yield 'identity', H.identity_automorphism()
        outer = [a for a in autos if not a.is_identity()]
        if outer:
            yield 'outer', AlgebraAutomorphism(
                H, H.i(), H.j(), max(outer, key=lambda a: a.order()))
        yield 'inner', inner_automorphism(H.element([1, 1, 1, 1]))
        yield 'infinite', inner_automorphism(H.element([1, 2]))
        # seeded twists over the quartic cost the one system seconds
        for _ in range(2 if K.degree <= 2 else 0):
            y = H.zero()
            while y.is_zero():
                y = H.element([K.element([rng.choice((-1, 0, 0, 1))
                                          for _ in range(K.degree)])
                               for _ in range(4)])
            center = AlgebraAutomorphism(H, H.i(), H.j(), rng.choice(autos))
            yield 'seeded', inner_automorphism(y).compose(center)


def _outcome(fn, *args):
    try:
        return 'value', fn(*args)
    except (ValueError, ArithmeticError, AssertionError,
            HypothesisFailed) as exc:
        return type(exc), str(exc)


def _fields(report_class, outcome):
    kind, value = outcome
    if kind != 'value':
        return outcome
    return kind, tuple(getattr(value, name) for name in report_class.__slots__)


def test_center_blocks_equal_the_one_system():
    names = set()
    for name, twist in twists(random.Random(16)):
        names.add(name)
        H = twist.owner
        for bound in BOUNDS:
            new = _outcome(center_bounded, H, twist, bound)
            if new[0] is OrderCapExceeded:
                # no report past the order guard: compare the raw bases
                got = _center_basis(H, twist, bound)
                want = oracle.center_basis(H, twist, bound)
            else:
                old = _outcome(oracle.center_bounded, H, twist, bound)
                assert _fields(CenterReport, new) == \
                    _fields(CenterReport, old), (name, H, bound)
                got, want = new[1].raw_basis, old[1].raw_basis
            assert got == want, (name, H, bound)
            assert [b.q_vector(bound) for b in got] == \
                [b.q_vector(bound) for b in want], (name, H, bound)
            assert (new[0] is OrderCapExceeded) == (name == 'infinite')
    assert names == {'identity', 'outer', 'inner', 'infinite', 'seeded'}


def tensor_instances():
    """(H, sigma, L, tau, emb): criterion 9's three instances, the matching
    tower, and the twisted extensions of ore_center.scn and q8.scn."""
    L = QuaternionAlgebra(Q_SQRT2, -1, -1)
    yield (HAM_Q, HAM_Q.identity_automorphism(), L,
           L.identity_automorphism(), q_embedding(HAM_Q, Q_SQRT2))
    biquad = BIQUAD_EMB.target
    twisted = [build_special_case_3(HAM_Q, biquad,
                                    q_embedding(HAM_Q, biquad), 2),
               counterexample(hamilton_over(HAM_Q, Q_SQRT2))]
    for name in ('ore_center.scn', 'q8.scn'):
        with open(os.path.join(SCN_DIR, name)) as handle:
            scenario = parse_scenario(handle.read())
        ws = Workspace(scenario, FLAGS)
        for _, op, params in scenario.checks:
            if op == 'special_case_3':
                alg, fld, emb = tower(ws.read(params, 'algebra'),
                                      ws.read(params, 'field'),
                                      ws.read(params, 'emb'))
                twisted.append(build_special_case_3(
                    alg, fld, emb, int(params['n']), FLAGS['height_bound']))
            elif op == 'hypothesis_report':
                twisted.append(ws.twisted(ws.read(params, 'problem').ext,
                                          params))
    for X in twisted:
        yield X.ext.H, X.sigma, X.ext.L, X.tau, X.ext.emb
    sigma, tau = matching_tower(BIQUAD_EMB)
    yield sigma.owner, sigma, tau.owner, tau, BIQUAD_EMB


def test_tensor_rank_by_degree_equals_the_full_rank():
    refused = passed = 0
    for instance in tensor_instances():
        for bound in BOUNDS:
            new = _outcome(tensor_decomposition_check, *instance, bound)
            old = _outcome(oracle.tensor_decomposition_check, *instance,
                           bound)
            assert _fields(TensorReport, new) == _fields(TensorReport, old)
            if new[0] is HypothesisFailed:
                refused += 1
            else:
                assert new[1].rank == old[1].rank
                passed += new[1].passed()
    assert refused == len(BOUNDS)
    assert passed == 5 * len(BOUNDS)


def test_tensor_rank_refuses_a_product_that_is_no_monomial(monkeypatch):
    # the rank is a sum over degrees only for monomial spanning products
    real_mul = SkewPoly.__mul__

    def spread(a, b):
        prod = real_mul(a, b)
        return prod + SkewPoly(prod.twist, [prod.alg.one()])
    monkeypatch.setattr(SkewPoly, '__mul__', spread)
    L = QuaternionAlgebra(Q_SQRT2, -1, -1)
    with pytest.raises(AssertionError, match='not a monomial'):
        tensor_decomposition_check(
            HAM_Q, HAM_Q.identity_automorphism(), L,
            L.identity_automorphism(), q_embedding(HAM_Q, Q_SQRT2), 2)
