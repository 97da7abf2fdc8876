import random
from fractions import Fraction

import pytest

import center_action_matrix_oracle as product_oracle
import quat_unit_table_oracle as unit_table
from skewfield import qalg
from skewfield.galois import build_galois_extension
from skewfield.linalg import difference_rows, kernel_basis, same_span
from skewfield.numfield import (ORDER_CAP, FieldElement, FieldMorphism,
                                NumberField, OrderCapExceeded,
                                automorphism_group, cyclic_powers)
from skewfield.qalg import (
    AlgebraAutomorphism, QuatElement, QuaternionAlgebra, ZeroNormError,
    anisotropy, extend_quaternion, inner_automorphism, inner_order,
    mul_matrix, norm_form, quat_from_q_vector, reduced_norm, scalar_extension)

Q = NumberField([0, 1], label='Q')
Q_SQRT2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
Q_SQRT3 = NumberField([-3, 0, 1], label='Q(sqrt3)')
Q_I = NumberField([1, 0, 1], label='Q(i)')
Q_SQRTM2 = NumberField([2, 0, 1], label='Q(sqrt-2)')
CYCLIC_QUARTIC = NumberField([2, 0, -4, 0, 1], label='Q(sqrt(2+sqrt2))')
BIQUAD = NumberField([1, 0, -10, 0, 1], label='Q(sqrt2,sqrt3)')
EIGHTH_ROOT_OF_2 = NumberField([-2, 0, 0, 0, 0, 0, 0, 0, 1])

HAM_Q = QuaternionAlgebra(Q, -1, -1, label='(-1,-1/Q)')
SPLIT_Q = QuaternionAlgebra(Q, 1, 1, label='(1,1/Q)')
HAM_SQRT2 = QuaternionAlgebra(Q_SQRT2, -1, -1, label='(-1,-1/Q(sqrt2))')


def embed_q(field):
    return FieldMorphism(Q, field, field.zero())


def rnd_elem(rng, alg, lo=-4, hi=4):
    return alg.element([alg.base.element([rng.randint(lo, hi)
                                          for _ in range(alg.base.degree)])
                        for _ in range(4)])


# ---------------------------------------------------------------------------
# basic arithmetic
# ---------------------------------------------------------------------------

def test_defining_relations():
    i, j, k = HAM_Q.i(), HAM_Q.j(), HAM_Q.k()
    assert i * j == k
    assert j * i == -k
    assert i * i == HAM_Q.scalar(-1)
    assert j * j == HAM_Q.scalar(-1)
    assert k * k == HAM_Q.scalar(-1)
    assert i * j == k


def test_associativity_guard_rejects_a_flipped_structure_constant(monkeypatch):
    units = [list(row) for row in qalg._UNITS]
    negate, t = units[1][1]
    units[1][1] = (1 - negate, t)  # i^2 = -a: (i i) j = -a j, i (i j) = a j
    monkeypatch.setattr(qalg, '_UNITS', tuple(map(tuple, units)))
    with pytest.raises(AssertionError, match="structure constants not associative"):
        QuaternionAlgebra(Q, -1, -1)


def test_associativity_check_makes_sixteen_field_products(monkeypatch):
    a = CYCLIC_QUARTIC.element([3, -1, 2, 5])
    b = CYCLIC_QUARTIC.element([Fraction(-2, 3), 4, 1, -7])
    products = []
    multiply = FieldElement.__mul__
    monkeypatch.setattr(FieldElement, '__mul__',
                        lambda x, y: products.append(y) or multiply(x, y))
    alg = QuaternionAlgebra(CYCLIC_QUARTIC, a, b)
    # one product forms ab; the table of products of (1, a, b, ab) has 16
    assert len(products) == 1 + 16
    assert alg.i() * alg.j() == alg.k() and alg.k() * alg.k() == -alg.scalar(a * b)


def dense_product(alg, x, y):
    """Reference: the full quaternion product formula on all 16 terms."""
    a, b, ab = alg.a, alg.b, alg.a * alg.b
    x0, x1, x2, x3 = x.coords
    y0, y1, y2, y3 = y.coords
    return (x0 * y0 + a * (x1 * y1) + b * (x2 * y2) - ab * (x3 * y3),
            x0 * y1 + x1 * y0 - b * (x2 * y3) + b * (x3 * y2),
            x0 * y2 + x2 * y0 + a * (x1 * y3) - a * (x3 * y1),
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


def rnd_field_elem(rng, field):
    return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(field.degree)])


def rnd_sparse_elem(rng, alg):
    """Random rational coordinates, each zero with probability one half."""
    return alg.element([rnd_field_elem(rng, alg.base) if rng.random() < 0.5
                        else 0 for _ in range(4)])


def test_sparse_product_agrees_with_the_dense_formula():
    rng = random.Random(77)
    for field in (Q, Q_SQRT2, CYCLIC_QUARTIC, EIGHTH_ROOT_OF_2):
        params = [(-1, -1), (1, 1), (Fraction(3, 2), Fraction(-5, 7))]
        while len(params) < 6:
            a, b = rnd_field_elem(rng, field), rnd_field_elem(rng, field)
            if a and b and a.coords[0].denominator > 1:
                params.append((a, b))
        for a, b in params:
            alg = QuaternionAlgebra(field, a, b)
            for _ in range(12):
                x, y = rnd_sparse_elem(rng, alg), rnd_sparse_elem(rng, alg)
                assert (x * y).coords == dense_product(alg, x, y) \
                    == unit_table.product_coords(alg, x, y)


BIG = 2 ** 200


def rnd_big_elem(rng, alg):
    """Numerators up to 2^200 of either sign, over random denominators;
    about one coordinate in four is zero and one element in six has every
    numerator at +-2^200, the most a packed digit must hold."""
    n = alg.base.degree
    if rng.random() < 1 / 6:
        sign = rng.choice((1, -1))
        return QuatElement(alg, tuple([sign * BIG] * (4 * n)))
    coords = []
    for _ in range(4):
        if rng.random() < 0.25:
            coords.append(0)
            continue
        top = rng.choice((9, 2 ** 64, BIG))
        den = rng.choice((1, 3, rng.randint(1, 2 ** 70)))
        coords.append(alg.base.element([Fraction(rng.randint(-top, top), den)
                                        for _ in range(n)]))
    return alg.element(coords)


def test_packed_product_agrees_with_the_unit_table_oracle():
    rng = random.Random(8)
    pairs = 0
    for field in (Q, Q_SQRT2, CYCLIC_QUARTIC, EIGHTH_ROOT_OF_2):
        g = field.gen() if field.degree > 1 else field.scalar(2)
        params = [(-1, -1), (Fraction(1, 2), g * Fraction(-3, 5)),
                  # constants of the full degree n - 1, products up to 3n - 3
                  (g ** (field.degree - 1) - Fraction(1, 7),
                   g * Fraction(5, 3) + 2)]
        for a, b in params:
            alg = QuaternionAlgebra(field, a, b)
            for _ in range(26):
                x, y = rnd_big_elem(rng, alg), rnd_big_elem(rng, alg)
                assert (x * y).coords == unit_table.product_coords(alg, x, y)
                pairs += 1
    assert pairs >= 300


def test_inverse_of_one_plus_i():
    x = HAM_Q.one() + HAM_Q.i()
    inv = x.inverse()
    assert inv == HAM_Q.element([Fraction(1, 2), Fraction(-1, 2)])
    assert x * inv == HAM_Q.one()


def test_zero_norm_inverse_raises():
    x = SPLIT_Q.one() + SPLIT_Q.i()  # Nrd = 1 - 1 = 0
    assert x.reduced_norm().is_zero()
    with pytest.raises(ZeroNormError):
        x.inverse()


def test_norm_formula_and_identity():
    assert reduced_norm(HAM_Q.one()) == Q.one()
    x = HAM_Q.element([1, 2, 3, 4])
    assert reduced_norm(x) == Q.scalar(1 + 4 + 9 + 16)


def matrix_embedding_norm(x):
    """Independent determinant route to the reduced norm.

    Works in the quadratic algebra h[y]/(y^2 - a): the element maps to the
    2x2 matrix [[x0 + x1 y, b (x2 + x3 y)], [x2 - x3 y, x0 - x1 y]] and the
    determinant must land back in h.
    """
    alg = x.alg
    a, b = alg.a, alg.b
    x0, x1, x2, x3 = x.coords

    def qmul(u, v):
        # (u0 + u1 y)(v0 + v1 y) with y^2 = a
        return (u[0] * v[0] + a * (u[1] * v[1]), u[0] * v[1] + u[1] * v[0])

    p = qmul((x0, x1), (x0, -x1))
    q = qmul((b * x2, b * x3), (x2, -x3))
    assert p[1] == q[1], "determinant left the center"
    return p[0] - q[0]


def test_norm_against_matrix_embedding():
    rng = random.Random(42)
    for alg in (HAM_Q, SPLIT_Q, HAM_SQRT2, QuaternionAlgebra(Q, 2, 3)):
        for _ in range(60):
            x = rnd_elem(rng, alg)
            assert matrix_embedding_norm(x) == x.reduced_norm()


def test_norm_multiplicative_on_500_pairs():
    rng = random.Random(2024)
    for _ in range(500):
        alg = rng.choice((HAM_Q, HAM_SQRT2, SPLIT_Q))
        x, y = rnd_elem(rng, alg), rnd_elem(rng, alg)
        assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()


def test_conjugation_identities():
    rng = random.Random(5)
    for _ in range(80):
        x = rnd_elem(rng, HAM_SQRT2)
        assert x.conj().reduced_norm() == x.reduced_norm()
        assert x * x.conj() == HAM_SQRT2.scalar(x.reduced_norm())


# ---------------------------------------------------------------------------
# norm form and anisotropy
# ---------------------------------------------------------------------------

def test_norm_form_coefficients():
    f = norm_form(HAM_Q, Q)
    assert [c.coords[0] for c in f.coefficients] == [1, 1, 1, 1]
    f2 = norm_form(QuaternionAlgebra(Q, 2, 3), Q_SQRT2, embed_q(Q_SQRT2))
    assert [c.coords[0] for c in f2.coefficients] == [1, -2, -3, 6]
    assert all(c.coords[1] == 0 for c in f2.coefficients)


def test_anisotropy_over_gaussian_field_isotropic():
    f = norm_form(HAM_Q, Q_I, embed_q(Q_I))
    verdict = anisotropy(f, 3)
    assert verdict.kind == 'isotropic'
    assert f.evaluate(verdict.witness).is_zero()
    assert any(not w.is_zero() for w in verdict.witness)


def test_anisotropy_over_sqrt2_certified():
    f = norm_form(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    verdict = anisotropy(f, 3)
    assert verdict.kind == 'anisotropic'
    assert verdict.place is not None


def test_anisotropy_over_sqrt_minus2_isotropic():
    f = norm_form(HAM_Q, Q_SQRTM2, embed_q(Q_SQRTM2))
    verdict = anisotropy(f, 3)
    assert verdict.kind == 'isotropic'


def test_rational_form_with_level_unknown_search():
    # <1,1,1,1> over Q is definite at the one real place
    verdict = anisotropy(norm_form(HAM_Q, Q), 3)
    assert verdict.kind == 'anisotropic'


# ---------------------------------------------------------------------------
# scalar extension and zero divisors
# ---------------------------------------------------------------------------

def test_scalar_extension_division_flag():
    ext = scalar_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    assert ext.division_certified is True
    assert ext.a == Q_SQRT2.scalar(-1)

    ext2 = scalar_extension(HAM_Q, Q_I, embed_q(Q_I))
    assert ext2.division_certified is False


def test_scalar_extension_identity_returns_same_algebra():
    assert scalar_extension(HAM_Q, Q, Q.identity_morphism()) == HAM_Q


def test_isotropy_witness_gives_zero_divisor():
    # every isotropy witness must exhibit an explicit zero divisor
    for fld in (Q_I, Q_SQRTM2):
        emb = embed_q(fld)
        ext = scalar_extension(HAM_Q, fld, emb)
        verdict = anisotropy(norm_form(HAM_Q, fld, emb), 3)
        assert verdict.kind == 'isotropic'
        z = ext.element(list(verdict.witness))
        assert not z.is_zero()
        assert z.reduced_norm().is_zero()
        assert (z * z.conj()).is_zero()  # genuine zero divisor pair
        with pytest.raises(ZeroNormError):
            z.inverse()


def test_anisotropy_verdict_constructor_guards():
    from skewfield.qalg import AnisotropyVerdict
    f = norm_form(HAM_Q, Q_I, embed_q(Q_I))
    zero4 = [Q_I.zero()] * 4
    with pytest.raises(ValueError):
        AnisotropyVerdict('isotropic', f, witness=zero4)
    with pytest.raises(ValueError):
        AnisotropyVerdict('isotropic', f,
                          witness=[Q_I.one(), Q_I.one(), Q_I.zero(),
                                   Q_I.zero()])  # evaluates to 2, not 0
    # no real place can certify a form over the gaussian field
    f2 = norm_form(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    place = Q_SQRT2.real_places()[0]
    indefinite = norm_form(QuaternionAlgebra(Q, 2, -3), Q_SQRT2,
                           embed_q(Q_SQRT2))
    with pytest.raises(ValueError):
        AnisotropyVerdict('anisotropic', indefinite, place=place)
    assert AnisotropyVerdict('anisotropic', f2, place=place).kind == \
        'anisotropic'


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_inner_automorphism_by_i():
    sigma = inner_automorphism(HAM_Q.i())
    assert sigma(HAM_Q.i()) == HAM_Q.i()
    assert sigma(HAM_Q.j()) == -HAM_Q.j()
    assert sigma(HAM_Q.k()) == -HAM_Q.k()
    assert sigma.order() == 2
    assert inner_order(sigma) == 1


def test_inner_automorphism_identity():
    assert inner_automorphism(HAM_Q.one()).is_identity()


def test_inner_automorphism_one_plus_i_order_4():
    sigma = inner_automorphism(HAM_Q.one() + HAM_Q.i())
    assert sigma.order() == 4
    # (1+i)^2 = 2i is i up to a central factor, so the squares agree as maps
    assert sigma.compose(sigma) == inner_automorphism(HAM_Q.i())


def test_an_order_past_the_cap_raises_order_cap_exceeded():
    # conjugation by 1 + 2i turns by an angle that is no rational multiple
    # of pi, so no power of it is the identity
    sigma = inner_automorphism(HAM_Q.element([1, 2]))
    with pytest.raises(OrderCapExceeded, match='order exceeds cap %d'
                       % ORDER_CAP):
        sigma.order()
    assert issubclass(OrderCapExceeded, ValueError)
    assert len(cyclic_powers(inner_automorphism(HAM_Q.element([1, 1])))) == 4


def test_inner_automorphism_scaling_invariance():
    y = HAM_Q.element([1, 2, 0, 1])
    assert inner_automorphism(y) == inner_automorphism(y * 3)


def test_tensor_twist_inner_order():
    conj = next(g for g in automorphism_group(Q_SQRT2) if not g.is_identity())
    sigma = AlgebraAutomorphism(HAM_SQRT2, HAM_SQRT2.i(), HAM_SQRT2.j(), conj)
    assert sigma.order() == 2
    assert inner_order(sigma) == 2


def test_automorphism_respects_norm():
    rng = random.Random(11)
    conj = next(g for g in automorphism_group(Q_SQRT2) if not g.is_identity())
    sigma = AlgebraAutomorphism(HAM_SQRT2, HAM_SQRT2.i(), HAM_SQRT2.j(), conj)
    tau = inner_automorphism(HAM_SQRT2.element([1, 1, 0, 0]))
    for auto in (sigma, tau, sigma.compose(tau)):
        for _ in range(40):
            x = rnd_elem(rng, HAM_SQRT2)
            assert auto(x).reduced_norm() == auto.center_action(x.reduced_norm())


def test_automorphism_powers_and_inverse():
    conj = next(g for g in automorphism_group(Q_SQRT2) if not g.is_identity())
    sigma = AlgebraAutomorphism(HAM_SQRT2, HAM_SQRT2.i(), HAM_SQRT2.j(), conj)
    tau = inner_automorphism(HAM_SQRT2.i()).compose(sigma)
    assert tau.power(0).is_identity()
    assert tau.power(3) == tau.compose(tau).compose(tau)
    assert tau.power(-1).compose(tau).is_identity()


def twist_by_formula(auto, x):
    """ca(x0) + ca(x1) i' + ca(x2) j' + ca(x3) k', ca the central action."""
    alg, ca = auto.owner, auto.center_action
    images = (alg.one(), auto.image_i, auto.image_j,
              auto.image_i * auto.image_j)
    out = alg.zero()
    for c, image in zip(x.coords, images):
        out = out + image * alg.scalar(ca(c))
    return out


def test_cached_twist_matrix_agrees_with_the_unit_formula():
    rng = random.Random(9)
    for field in (Q, Q_SQRT2, CYCLIC_QUARTIC):
        alg = QuaternionAlgebra(field, -1, -1)
        inner = inner_automorphism(alg.element([1, 1, 1, 1]))
        autos = [alg.identity_automorphism(), inner, inner.power(-1)]
        outer_gens = [a for a in field.automorphisms() if not a.is_identity()]
        if outer_gens:
            outer = AlgebraAutomorphism(alg, alg.i(), alg.j(),
                                        max(outer_gens, key=lambda a: a.order()))
            autos += [outer, outer.compose(inner), outer.compose(inner).power(-1)]
        for auto in autos:
            for _ in range(15):
                x = rnd_sparse_elem(rng, alg)
                assert auto(x) == twist_by_formula(auto, x)


def test_relation_guards_refuse_each_broken_relation():
    # i and j fixed: the center action must fix a and b
    sqrt2 = Q_SQRT2.gen()
    conj = next(g for g in Q_SQRT2.automorphisms() if not g.is_identity())
    moved_a = QuaternionAlgebra(Q_SQRT2, sqrt2, -1)
    with pytest.raises(ValueError, match=r"image of i violates i\^2 = a"):
        AlgebraAutomorphism(moved_a, moved_a.i(), moved_a.j(), conj)
    moved_b = QuaternionAlgebra(Q_SQRT2, -1, sqrt2)
    with pytest.raises(ValueError, match=r"image of j violates j\^2 = b"):
        AlgebraAutomorphism(moved_b, moved_b.i(), moved_b.j(), conj)
    # general images keep the quaternion product checks
    identity = Q.identity_morphism()
    alg = QuaternionAlgebra(Q, -1, -2)
    with pytest.raises(ValueError, match=r"image of i violates i\^2 = a"):
        AlgebraAutomorphism(alg, alg.j(), alg.i(), identity)
    with pytest.raises(ValueError, match=r"image of j violates j\^2 = b"):
        AlgebraAutomorphism(alg, alg.i(), alg.j() * 2, identity)
    with pytest.raises(ValueError, match="images violate anticommutation"):
        AlgebraAutomorphism(HAM_Q, HAM_Q.i(), HAM_Q.i(), identity)


def _oracle_automorphisms():
    """Galois group elements of (-1,-1/Q) over three fields, and on seeded
    algebras with non-unit a and b the center actions fixing them, with
    inner twists, composites and the refused center actions."""
    rng = random.Random(24)
    for field in (Q_SQRT2, CYCLIC_QUARTIC, BIQUAD):
        group = build_galois_extension(HAM_Q, field, embed_q(field)).group
        inner = inner_automorphism(group[0].owner.element([1, 1, 0, 1]))
        yield from group
        yield from (inner, group[-1].compose(inner), inner.compose(group[1]),
                    group[1].compose(group[-1]))
        for s in field.automorphisms():
            # orbit sums over the powers of s, which s fixes
            powers = cyclic_powers(s)
            a, b = [sum((g(x) for g in powers), field.zero())
                    for x in (rnd_field_elem(rng, field),
                              rnd_field_elem(rng, field))]
            if a.is_zero() or b.is_zero():
                continue
            alg = QuaternionAlgebra(field, a, b)
            inner = inner_automorphism(rnd_sparse_elem(rng, alg) + 1)
            for t in field.automorphisms():
                message = product_oracle.relation_failure(alg, alg.i(),
                                                          alg.j(), t)
                if message is not None:
                    with pytest.raises(ValueError) as refused:
                        AlgebraAutomorphism(alg, alg.i(), alg.j(), t)
                    assert str(refused.value) == message
                    continue
                outer = AlgebraAutomorphism(alg, alg.i(), alg.j(), t)
                yield from (outer, outer.compose(inner), inner.compose(outer))


def test_automorphisms_match_the_product_oracle():
    rng = random.Random(25)
    autos = list(_oracle_automorphisms())
    assert sum(a._fixes_ij and not a.center_action.is_identity()
               for a in autos) >= 20
    assert sum(not a._fixes_ij for a in autos) >= 20
    for auto in autos:
        assert auto.int_matrix() == product_oracle.int_matrix(auto), auto
        for _ in range(3):
            x = rnd_sparse_elem(rng, auto.owner)
            assert auto(x) == product_oracle.apply(auto, x), auto
        inverse = auto.inverse()
        assert (inverse.image_i, inverse.image_j) == \
            product_oracle.inverse_images(auto)
        assert inverse.center_action == auto.center_action.inverse()
        assert product_oracle.relation_failure(
            auto.owner, auto.image_i, auto.image_j, auto.center_action) is None


def test_inverse_through_the_center_action_equals_the_matrix_inverse(
        monkeypatch):
    """A twist fixing i and j is inverted with no matrix inversion, to the
    automorphism the inverted matrix gives; an inner twist still inverts
    its matrix."""
    inverted = []
    real = qalg.invert
    monkeypatch.setattr(qalg, 'invert', lambda rows: (
        inverted.append(None) or real(rows)))
    alg = QuaternionAlgebra(Q_SQRT2, -1, -1)
    autos = [inner_automorphism(alg.element([1, 1, 0, 1]))]
    for field in (Q_SQRT2, CYCLIC_QUARTIC, BIQUAD):
        alg = QuaternionAlgebra(field, -1, -1)
        autos += [AlgebraAutomorphism(alg, alg.i(), alg.j(), s)
                  for s in field.automorphisms()]
    for auto in autos:
        inverse = auto.inverse()
        by_matrix = AlgebraAutomorphism(
            auto.owner, *product_oracle.inverse_images(auto),
            auto.center_action.inverse())
        assert inverse == by_matrix, auto
        assert inverse.int_matrix() == by_matrix.int_matrix(), auto
        assert inverse.compose(auto).is_identity(), auto
    assert len(autos) == 11 and len(inverted) == 1


def test_extend_quaternion_is_the_coordinatewise_embedding():
    rng = random.Random(10)
    sqrt2 = FieldMorphism(Q_SQRT2, CYCLIC_QUARTIC,
                          CYCLIC_QUARTIC.element([-2, 0, 1]))
    # sqrt2 is half the generator of Q(sqrt8): columns over denominator 2
    q_sqrt8 = NumberField([-8, 0, 1])
    half = FieldMorphism(Q_SQRT2, q_sqrt8, q_sqrt8.element([0, Fraction(1, 2)]))
    for emb in (embed_q(Q_SQRT2), sqrt2, half):
        g = emb.source.gen() if emb.source.degree > 1 else emb.source.one()
        alg = QuaternionAlgebra(emb.source, Fraction(1, 2), g * Fraction(-3, 5))
        big = QuaternionAlgebra(emb.target, emb(alg.a), emb(alg.b))
        for _ in range(30):
            x = rnd_sparse_elem(rng, alg)
            assert extend_quaternion(x, big, emb) == \
                big.element([emb(c) for c in x.coords])


def test_quaternion_elements_keep_only_their_integer_vector():
    # bench/run.py keeps every item output of every pass, so its
    # peak_rss_mb follows element size times the passes a run completes;
    # caching the FieldElement coordinates on the element would grow the
    # kept memory exactly when a faster core runs more passes
    assert QuatElement.__slots__ == ('alg', 'num', 'den')


def test_q_vector_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        x = rnd_elem(rng, HAM_SQRT2)
        assert quat_from_q_vector(HAM_SQRT2, x.q_vector()) == x


# ---------------------------------------------------------------------------
# centers and centralizers from the multiplication matrices
# ---------------------------------------------------------------------------

def centralizer(alg, gens):
    """q-vectors spanning the elements that commute with every generator."""
    return kernel_basis([row for g in gens for row in difference_rows(
        mul_matrix(g, 'L'), mul_matrix(g, 'R'))], alg.q_dim())


def test_center_of_hamilton_quaternions():
    assert centralizer(HAM_Q, HAM_Q.q_basis()) == [HAM_Q.one().q_vector()]


def test_center_of_split_algebra_is_scalars():
    # (1,1/Q) is the 2x2 matrix algebra; its center is the scalars
    assert centralizer(SPLIT_Q, SPLIT_Q.q_basis()) == \
        [SPLIT_Q.one().q_vector()]


def test_centralizer_of_i():
    cent = centralizer(HAM_Q, [HAM_Q.i()])
    # centralizer of i in the quaternions is Q(i): span{1, i}
    assert len(cent) == 2
    assert same_span(cent, [HAM_Q.one().q_vector(), HAM_Q.i().q_vector()])


def test_multiplication_matrices_apply_as_products():
    rng = random.Random(12)
    for alg in (HAM_SQRT2, SPLIT_Q):
        c, x = rnd_elem(rng, alg), rnd_elem(rng, alg)
        for side, want in (('L', c * x), ('R', x * c)):
            rows, den = mul_matrix(c, side)
            assert [Fraction(sum(a * b for a, b in zip(row, x.q_vector())),
                             den) for row in rows] == want.q_vector()
