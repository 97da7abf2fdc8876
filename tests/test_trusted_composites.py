"""Composites of verified maps, built without re-verification.

``compose`` (and so ``power``) trusts its verified factors and skips the
constructor certificate.  Every composite must equal the same data passed
through the checking constructors, and the Galois group elements, no
longer re-checked one by one at construction, must act on the center as
their center action.  The product conditions, the direct-product test and
the lift groups must match the composing oracle (``galois_compose_oracle``)
on the shipped scenarios, the bundled regressions and seeded twist pairs,
and Gal must be normal in <Gal, tau> there, as the library now assumes.
"""

import os
import random

import galois_compose_oracle as oracle
from regressions import (biquadratic, conjugation_twist, counterexample,
                         cyclic_quartic, hamilton, hamilton_over,
                         matching_tower, q_embedding, sqrt2_field)
from skewfield.cli import Workspace, parse_scenario, tower
from skewfield.galois import (ProductReport, TwistedExtension,
                              build_galois_extension, build_special_case_3,
                              build_twisted_extension,
                              check_product_conditions, eq_produit)
from skewfield.numfield import (FieldMorphism, NumberField,
                                automorphism_group, fixed_field)
from skewfield.qalg import (AlgebraAutomorphism, QuaternionAlgebra,
                            inner_automorphism)

SCN_DIR = os.path.join(os.path.dirname(__file__), '..', 'scenarios')
FLAGS = {'height_bound': 20, 'degree_bound': 4, 'precision': 30}

HAM_Q = hamilton()
Q_SQRT2 = sqrt2_field()
C4_EMB = cyclic_quartic(Q_SQRT2)
BIQUAD_EMB = biquadratic(Q_SQRT2)
# the splitting field of x^3 - 4x + 1, totally real with group S3,
# generated by a difference of two roots: composites here depend on order
S3_REAL = NumberField([-229, 0, 144, 0, -24, 0, 1], label='real S3 sextic')


def checked(a):
    """a rebuilt from its data through the checking constructors."""
    if isinstance(a, FieldMorphism):
        return FieldMorphism(a.source, a.target, a.gen_image)
    return AlgebraAutomorphism(a.owner, a.image_i, a.image_j,
                               checked(a.center_action))


def assert_composite(c, a, b):
    """c is a after b, and equal to its rebuild through the checks."""
    rebuilt = checked(c)
    assert c == rebuilt and c.is_identity() == rebuilt.is_identity(), c
    basis = (c.owner.q_basis() if isinstance(c, AlgebraAutomorphism)
             else c.source.basis())
    assert all(c(x) == a(b(x)) for x in basis), (a, b)


def extensions():
    """(-1,-1/Q) over Q(sqrt2), the cyclic quartic and the biquadratic
    field (the extensions of the search benchmark), and over the real S3
    sextic."""
    return [hamilton_over(HAM_Q, field) for field in
            (Q_SQRT2, C4_EMB.target, BIQUAD_EMB.target, S3_REAL)]


def scenario_checks():
    """(workspace, op, params) for every check of the shipped scenarios."""
    for name in sorted(os.listdir(SCN_DIR)):
        with open(os.path.join(SCN_DIR, name)) as handle:
            scenario = parse_scenario(handle.read())
        ws = Workspace(scenario, FLAGS)
        for _, op, params in scenario.checks:
            yield ws, op, params


def _tower(ws, params):
    return tower(ws.read(params, 'algebra'), ws.read(params, 'field'),
                 ws.read(params, 'emb'))


def _tower_extension(ws, params):
    return build_galois_extension(*_tower(ws, params), FLAGS['height_bound'])


def shipped_twists():
    twists = []
    for ws, op, params in scenario_checks():
        twists += ws.named['twist'].values()
        if any(key.startswith(('sigma_', 'tau_')) for key in params):
            X = ws.twisted(_tower_extension(ws, params), params)
            twists += [X.sigma, X.tau]
    X = counterexample(hamilton_over(HAM_Q, Q_SQRT2))
    return twists + [X.sigma, X.tau, conjugation_twist(Q_SQRT2),
                     *matching_tower(BIQUAD_EMB)]


def test_composites_and_powers_equal_their_checked_rebuilds():
    rng = random.Random(13)
    maps = []
    for ext in extensions():
        group = list(ext.group)
        maps += group
        for a in group:
            for b in group:
                assert_composite(a.compose(b), a, b)
                assert_composite(a.center_action.compose(b.center_action),
                                 a.center_action, b.center_action)
    maps += shipped_twists()
    for a in maps:
        assert a.inverse().compose(a).is_identity()
        for k in range(1, a.order() + 2):
            assert_composite(a.power(k), a, a.power(k - 1))
            assert_composite(a.power(-k), a.power(-1), a.power(1 - k))
    # seeded words of three maps on one algebra
    for _ in range(60):
        a = rng.choice(maps)
        same = [b for b in maps if b.owner == a.owner]
        b, c = rng.choice(same), rng.choice(same)
        assert_composite(a.compose(b).compose(c), a.compose(b), c)
        assert_composite(a.compose(b.compose(c)), a, b.compose(c))
    # field morphisms across the towers
    for emb in (C4_EMB, BIQUAD_EMB):
        for g in automorphism_group(emb.target):
            assert_composite(g.compose(emb), g, emb)
            for s in automorphism_group(emb.source):
                assert_composite(g.compose(emb).compose(s), g.compose(emb), s)


def test_group_elements_act_on_the_center_as_their_center_action():
    for ext in extensions():
        L = ext.L
        for a in ext.group:
            for x in ext.ell.basis():
                assert a(L.scalar(x)) == L.scalar(a.center_action(x)), a


# ---------------------------------------------------------------------------
# product conditions and lifts against the composing oracle
# ---------------------------------------------------------------------------

def _outcome(fn, X):
    """What fn(X) returns, or the type and message of what it raises."""
    try:
        return 'value', fn(X)
    except (ValueError, ArithmeticError, AssertionError,
            oracle.ProductConditionFailed) as exc:
        return type(exc), str(exc)


def _report(check):
    def fields(X):
        report = check(X)
        return tuple(getattr(report, name) for name in ProductReport.__slots__)
    return fields


def _lift_order(build):
    return lambda X: build(X).group_order()


def _assert_agrees_with_oracle(X):
    for new, old in (
            (_report(check_product_conditions),
             _report(oracle.check_product_conditions)),
            (eq_produit, oracle.eq_produit),
            (_lift_order(build_twisted_extension),
             _lift_order(oracle.build_twisted_extension))):
        assert _outcome(new, X) == _outcome(old, X), X
    # check_product_conditions takes this normality as a theorem
    assert oracle.gal_normal(X), X


def scenario_instances():
    for ws, op, params in scenario_checks():
        if op in ('product_conditions', 'converse_check'):
            yield ws.twisted(_tower_extension(ws, params), params)
        elif op == 'hypothesis_report':
            yield ws.twisted(ws.read(params, 'problem').ext, params)
        elif op == 'special_case_3':
            alg, fld, emb = _tower(ws, params)
            yield build_special_case_3(alg, fld, emb, int(params['n']),
                                       FLAGS['height_bound'])


def regression_instances():
    q2_ext = hamilton_over(HAM_Q, Q_SQRT2)
    biquad = BIQUAD_EMB.target
    sigma2, tau2 = matching_tower(BIQUAD_EMB)
    tower = build_galois_extension(sigma2.owner, biquad, BIQUAD_EMB)
    return [
        counterexample(q2_ext),
        TwistedExtension(q2_ext, inner_automorphism(HAM_Q.i()),
                         inner_automorphism(q2_ext.L.i())),
        TwistedExtension(q2_ext, HAM_Q.identity_automorphism(),
                         q2_ext.L.identity_automorphism()),
        build_special_case_3(HAM_Q, biquad, q_embedding(HAM_Q, biquad), 2),
        TwistedExtension(tower, sigma2, tau2),
    ]


def seeded_instances(rng, per_extension):
    """Pairs inner(y) after the center map s below, inner(y) after t above,
    for t on the top field restricting to s; y has small coordinates.

    Over the quadratic subfield of the S3 sextic, a transposition t has
    powers meeting the group C3 trivially but commutes with none of it.
    """
    H2 = conjugation_twist(Q_SQRT2).owner
    three_cycle = next(g for g in automorphism_group(S3_REAL)
                       if g.order() == 3)
    quadratic, s3_emb = fixed_field(S3_REAL, [three_cycle])
    exts = [hamilton_over(HAM_Q, Q_SQRT2),
            hamilton_over(HAM_Q, BIQUAD_EMB.target),
            build_galois_extension(H2, BIQUAD_EMB.target, BIQUAD_EMB),
            build_galois_extension(QuaternionAlgebra(quadratic, -1, -1),
                                   S3_REAL, s3_emb)]
    for ext in exts:
        H, L, K = ext.H, ext.L, ext.H.base
        pairs = [(s, t) for t in automorphism_group(ext.ell)
                 for s in automorphism_group(K)
                 if t.compose(ext.emb) == ext.emb.compose(s)]
        for _ in range(per_extension):
            y = H.zero()
            while y.is_zero():
                y = H.element([K.element([rng.choice((-1, 0, 0, 1))
                                          for _ in range(K.degree)])
                               for _ in range(4)])
            s, t = rng.choice(pairs)
            sigma = inner_automorphism(y).compose(
                AlgebraAutomorphism(H, H.i(), H.j(), s))
            tau = inner_automorphism(ext.embed_base(y)).compose(
                AlgebraAutomorphism(L, L.i(), L.j(), t))
            yield TwistedExtension(ext, sigma, tau)


def test_product_conditions_and_lifts_agree_with_the_composing_oracle():
    instances = (list(scenario_instances()) + regression_instances()
                 + list(seeded_instances(random.Random(29), 6)))
    for X in instances:
        _assert_agrees_with_oracle(X)
