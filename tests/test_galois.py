from fractions import Fraction

import pytest

from skewfield.galois import (
    CommExtension, GaloisExtension, NotAnisotropic, NotGalois,
    ProductConditionFailed, RestrictionWitness, TwistedExtension,
    WitnessInvalid, build_comm_extension,
    build_galois_extension, build_special_case_3, build_twisted_extension,
    check_product_conditions, converse_check, eq_produit,
    restriction_between, restriction_map)
from skewfield.numfield import (FieldMorphism, NumberField,
                                automorphism_group, fixed_field)
from skewfield.ore import HypothesisFailed, SkewPoly, t_poly
from skewfield.qalg import (AlgebraAutomorphism, QuaternionAlgebra,
                            extend_quaternion, inner_automorphism,
                            inner_order)
from skewfield.linalg import rank
from galois_compose_oracle import is_outer

Q = NumberField([0, 1], label='Q')
Q_SQRT2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
Q_I = NumberField([1, 0, 1], label='Q(i)')
Q_CBRT2 = NumberField([-2, 0, 0, 1], label='Q(cbrt2)')
C4_FIELD = NumberField([2, 0, -4, 0, 1], label='Q(sqrt(2+sqrt2))')
BIQUAD = NumberField([1, 0, -10, 0, 1], label='Q(sqrt2,sqrt3)')
ZETA8 = NumberField([1, 0, 0, 0, 1], label='Q(zeta8)')

HAM_Q = QuaternionAlgebra(Q, -1, -1, label='(-1,-1/Q)')
H2 = QuaternionAlgebra(Q_SQRT2, -1, -1, label='(-1,-1/Q(sqrt2))')

SQRT2_IN_C4 = C4_FIELD.element([-2, 0, 1])
SQRT2_IN_BIQUAD = BIQUAD.element([0, Fraction(-9, 2), 0, Fraction(1, 2)])
SQRT3_IN_BIQUAD = BIQUAD.gen() - SQRT2_IN_BIQUAD


def embed_q(field):
    return FieldMorphism(Q, field, field.zero())


def ext_over(field):
    return build_galois_extension(HAM_Q, field, embed_q(field))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_quadratic_extension():
    ext = ext_over(Q_SQRT2)
    assert len(ext.group) == 2
    assert ext.artin_verified and ext.outer_verified
    assert ext.L.division_certified


def test_build_quartic_extension():
    ext = ext_over(C4_FIELD)
    assert len(ext.group) == 4
    orders = sorted(a.order() for a in ext.group)
    assert orders == [1, 2, 4, 4]


def test_galois_group_elements_multiply_no_quaternions(monkeypatch):
    # each element fixes i and j: its relations are checked in the center
    # and its matrix is four blocks of the center action's columns (the
    # earlier general route made 67 quaternion products here)
    products = []
    product = QuaternionAlgebra._product
    monkeypatch.setattr(QuaternionAlgebra, '_product',
                        lambda *args: products.append(1) or product(*args))
    ext = ext_over(C4_FIELD)
    L = ext.L
    images = [g(x) for g in ext.group for x in L.q_basis()]
    assert products == []
    # gen^k e_u goes to center_action(gen^k) e_u
    assert images == [L.element([g.center_action(power) if v == u else 0
                                 for v in range(4)])
                      for g in ext.group for u in range(4)
                      for power in L.base.basis()]


def test_build_refuses_isotropic_center():
    with pytest.raises(NotAnisotropic) as err:
        ext_over(Q_I)
    assert err.value.verdict.kind == 'isotropic'


def test_build_refuses_non_galois():
    with pytest.raises(NotGalois):
        ext_over(Q_CBRT2)


def test_trivial_extension_is_outer():
    ext = build_galois_extension(HAM_Q, Q, Q.identity_morphism())
    assert len(ext.group) == 1
    assert ext.outer_verified


def test_res_tilde_is_bijective():
    ext = ext_over(C4_FIELD)
    actions = {a.center_action for a in ext.group}
    assert len(actions) == 4
    for a in ext.group:
        assert ext.from_center(a.center_action) == a


def test_group_lists_refused_at_construction():
    group = list(build_comm_extension(BIQUAD, embed_q(BIQUAD)).group)
    for bad, reason in ((group[:-1], 'not closed'),
                        (group[::-1], 'lead with identity'),
                        (group + group[1:2], 'share a center action')):
        with pytest.raises(AssertionError, match=reason):
            CommExtension(BIQUAD, embed_q(BIQUAD), bad)
    ext = ext_over(Q_SQRT2)
    inner = inner_automorphism(ext.L.i())
    with pytest.raises(AssertionError, match='moves i or j'):
        GaloisExtension(HAM_Q, Q_SQRT2, ext.emb, ext.L,
                        [ext.group[0], inner], ext.verdict)


def test_galois_extension_refuses_what_its_theorems_need():
    # the Artin and outer-ness flags are theorems on these hypotheses
    ext = ext_over(BIQUAD)
    L, group = ext.L, list(ext.group)

    def refuse(reason, H, emb, alg, elements):
        with pytest.raises(AssertionError, match=reason):
            GaloisExtension(H, BIQUAD, emb, alg, elements, ext.verdict)

    # every proper subgroup of Gal(biquad/Q) fails the degree count
    for sub in ([group[0]], [group[0], group[1]], [group[0], group[2]],
                [group[0], group[3]]):
        assert all(a.compose(b) in sub for a in sub for b in sub)
        refuse(r'\[h:Q\] is not \[ell:Q\]', HAM_Q, ext.emb, L, sub)
    refuse('moves i or j', HAM_Q, ext.emb, L,
           [group[0], inner_automorphism(L.i())])
    refuse('not closed', HAM_Q, ext.emb, L, group[:-1])
    refuse('share a center action', HAM_Q, ext.emb, L, group + group[1:2])
    # over Q(sqrt2), the element fixing sqrt3 and moving sqrt2 passes the
    # degree count and moves the base center
    to_biquad = FieldMorphism(Q_SQRT2, BIQUAD, SQRT2_IN_BIQUAD)
    L2 = QuaternionAlgebra(BIQUAD, -1, -1)
    moves_sqrt2 = [AlgebraAutomorphism(L2, L2.i(), L2.j(), s)
                   for s in ext.center_group()
                   if s(SQRT3_IN_BIQUAD) == SQRT3_IN_BIQUAD]
    assert len(moves_sqrt2) == 2
    assert moves_sqrt2[1].center_action(SQRT2_IN_BIQUAD) == -SQRT2_IN_BIQUAD
    refuse('moves the base center', H2, to_biquad, L2, moves_sqrt2)
    # an L that is not H tensored with the field along emb
    wrong = QuaternionAlgebra(BIQUAD, -1, -3)
    refuse('not H tensored', HAM_Q, ext.emb, wrong,
           [AlgebraAutomorphism(wrong, wrong.i(), wrong.j(), s)
            for s in ext.center_group()])


def test_index_of_takes_an_element_or_its_center_action():
    ext = ext_over(C4_FIELD)
    for n, a in enumerate(ext.group):
        assert ext.index_of(a) == ext.index_of(a.center_action) == n
    with pytest.raises(ValueError):
        ext.index_of(inner_automorphism(ext.L.i()))
    with pytest.raises(ValueError):
        ext.index_of(Q_SQRT2.identity_morphism())


def test_res_tilde_is_group_isomorphism():
    # the central-action map respects the full multiplication table
    for ext in (ext_over(Q_SQRT2), ext_over(C4_FIELD)):
        for a in ext.group:
            for b in ext.group:
                assert (a.compose(b)).center_action == \
                    a.center_action.compose(b.center_action)


def test_rebuilds_are_deterministic():
    # transports depend on fresh constructions listing the same group in
    # the same order
    a = ext_over(C4_FIELD)
    b = ext_over(C4_FIELD)
    assert [g.center_action for g in a.group] == \
        [g.center_action for g in b.group]
    assert a.L == b.L


def test_outer_for_intermediate_extension():
    # H inside F = H (x) Q(sqrt2) inside L = H (x) quartic field
    emb = FieldMorphism(Q_SQRT2, C4_FIELD, SQRT2_IN_C4)
    big = ext_over(C4_FIELD)
    f_alg = QuaternionAlgebra(Q_SQRT2, -1, -1)
    mid = build_galois_extension(f_alg, C4_FIELD, emb)
    assert is_outer(big)
    assert is_outer(mid)


# ---------------------------------------------------------------------------
# restriction maps
# ---------------------------------------------------------------------------

def comm_q(field):
    return build_comm_extension(field, embed_q(field))


def test_restriction_commutative_case():
    big = comm_q(BIQUAD)
    small = comm_q(Q_SQRT2)
    emb = FieldMorphism(Q_SQRT2, BIQUAD, SQRT2_IN_BIQUAD)
    witness = RestrictionWitness(
        ell0=Q_SQRT2, k0_emb=embed_q(Q_SQRT2),
        emb_l0_big=emb, emb_l0_small=Q_SQRT2.identity_morphism(),
        emb_k0_big=Q.identity_morphism(), emb_k0_small=Q.identity_morphism())
    hom = restriction_map(big, small, witness, small_to_big=lambda x: emb(x))
    images = {hom(g) for g in big.group}
    assert len(images) == 2  # ordinary Galois restriction, onto


def test_restriction_application_two_equals_center_map():
    big = ext_over(Q_SQRT2)
    small = comm_q(Q_SQRT2)
    witness = RestrictionWitness(
        ell0=Q_SQRT2, k0_emb=embed_q(Q_SQRT2),
        emb_l0_big=Q_SQRT2.identity_morphism(),
        emb_l0_small=Q_SQRT2.identity_morphism(),
        emb_k0_big=Q.identity_morphism(), emb_k0_small=Q.identity_morphism())
    hom = restriction_map(big, small, witness,
                          small_to_big=lambda x: big.L.scalar(x))
    for g in big.group:
        assert hom(g) == g.center_action


def test_restriction_application_three_tower():
    emb = FieldMorphism(Q_SQRT2, C4_FIELD, SQRT2_IN_C4)
    big = ext_over(C4_FIELD)
    small = ext_over(Q_SQRT2)
    hom = restriction_between(big, small, emb)
    hit = {}
    for g in big.group:
        hit.setdefault(hom(g), 0)
        hit[hom(g)] += 1
    assert set(hit.values()) == {2}  # onto with fibers of size [f : ell]
    gen4 = next(g for g in big.group if g.order() == 4)
    assert not hom(gen4).is_identity()


def test_restriction_refuses_a_non_unique_match(monkeypatch):
    # l0 = k0 = Q: every small element restricts to the identity
    witness = RestrictionWitness(
        ell0=Q, k0_emb=Q.identity_morphism(),
        emb_l0_big=embed_q(BIQUAD), emb_l0_small=embed_q(Q_SQRT2),
        emb_k0_big=Q.identity_morphism(), emb_k0_small=Q.identity_morphism())
    monkeypatch.setattr(RestrictionWitness, 'validate',
                        lambda self, big, small: None)
    with pytest.raises(WitnessInvalid) as err:
        restriction_map(comm_q(BIQUAD), comm_q(Q_SQRT2), witness)
    assert err.value.condition == 'uniqueness'


def test_restriction_refuses_a_broken_small_table():
    small = comm_q(Q_SQRT2)
    rows = [list(row) for row in small.table]
    rows[1][0], rows[1][1] = rows[1][1], rows[1][0]
    object.__setattr__(small, 'table', tuple(map(tuple, rows)))
    emb = FieldMorphism(Q_SQRT2, BIQUAD, SQRT2_IN_BIQUAD)
    with pytest.raises(WitnessInvalid) as err:
        restriction_between(comm_q(BIQUAD), small, emb)
    assert err.value.condition == 'homomorphism'


# ---------------------------------------------------------------------------
# twisted extensions and the product conditions
# ---------------------------------------------------------------------------

def trivial_twist_instance():
    ext = ext_over(Q_SQRT2)
    return TwistedExtension(ext, HAM_Q.identity_automorphism(),
                            ext.L.identity_automorphism())


def bruno_instance():
    ext = ext_over(Q_SQRT2)
    L = ext.L
    tau_prime = next(a for a in ext.group if not a.is_identity())
    sigma = inner_automorphism(HAM_Q.i())
    tau = inner_automorphism(L.i()).compose(tau_prime)
    return TwistedExtension(ext, sigma, tau)


def test_trivial_twist_all_conditions_hold():
    X = trivial_twist_instance()
    report = check_product_conditions(X)
    assert report.triv1_i and report.triv1_ii and report.triv1_iii
    assert report.triv2_i and report.triv2_ii
    assert report.eq_produit
    assert report.triv1_consistent() and report.triv2_consistent()


def test_bruno_counterexample_conditions():
    X = bruno_instance()
    report = check_product_conditions(X)
    assert report.sigma_order == 2 and report.tau_order == 2
    assert report.sigma_tilde_order == 1 and report.tau_tilde_order == 2
    assert report.inner_order_sigma == 1
    assert report.inner_order_tau == 2
    assert not report.star_holds()
    assert not report.eq_produit
    # orders of sigma and tau agree, so the algebra-level conditions hold
    assert report.triv1_i and report.triv1_ii and report.triv1_iii
    assert report.triv1_consistent() and report.triv2_consistent()


def test_bruno_tau_details():
    X = bruno_instance()
    L = X.ext.L
    assert X.tau(L.i()) == L.i()
    assert X.tau(L.j()) == -L.j()
    assert not X.tau_tilde.is_identity()
    assert X.sigma_tilde.is_identity()


def test_linear_disjointness_of_fixed_fields():
    # commutative shadow: ell = biquadratic over h = Q(sqrt2), twist moving
    # sqrt2 and fixing sqrt3
    tau_tilde = next(g for g in automorphism_group(BIQUAD)
                     if g(SQRT2_IN_BIQUAD) == -SQRT2_IN_BIQUAD
                     and g(SQRT3_IN_BIQUAD) == SQRT3_IN_BIQUAD)
    e_field, e_emb = fixed_field(BIQUAD, [tau_tilde])
    assert e_field.degree == 2
    h_emb = FieldMorphism(Q_SQRT2, BIQUAD, SQRT2_IN_BIQUAD)
    # [ell^tau : h^sigma] = [ell : h] and the compositum is everything
    assert e_field.degree * 1 == BIQUAD.degree // Q_SQRT2.degree * 1 * 2 // 2
    products = []
    for v in e_emb.image_basis():
        for w in h_emb.image_basis():
            ve = BIQUAD.element(v)
            we = BIQUAD.element(w)
            products.append(list((ve * we).coords))
    assert rank(products) == BIQUAD.degree


# ---------------------------------------------------------------------------
# special case 3 and converse
# ---------------------------------------------------------------------------

def test_special_case_3_biquadratic():
    X = build_special_case_3(HAM_Q, BIQUAD, embed_q(BIQUAD), 2)
    assert X.ext.H.base.degree == 2        # new base center is quadratic
    assert X.ext.L.base == BIQUAD
    assert len(X.ext.group) == 2
    assert eq_produit(X)
    report = check_product_conditions(X)
    assert report.eq_produit and report.triv1_consistent()


def test_special_case_3_rejects_trivial_complement():
    with pytest.raises(ValueError):
        build_special_case_3(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2), 2)


def test_special_case_3_isotropic_tower_refused():
    with pytest.raises(NotAnisotropic):
        build_special_case_3(HAM_Q, ZETA8, embed_q(ZETA8), 2)


def test_converse_check_trivial():
    X = trivial_twist_instance()
    report = converse_check(X)
    assert report.eq_produit and report.consistent
    assert report.lift_group_order == 2


def test_negative_degree_bound_is_refused():
    X = trivial_twist_instance()
    with pytest.raises(ValueError, match='degree bound'):
        build_twisted_extension(X, -1)
    with pytest.raises(ValueError, match='degree bound'):
        converse_check(X, -1)


def test_converse_check_tensor_twist():
    emb = FieldMorphism(Q_SQRT2, BIQUAD, SQRT2_IN_BIQUAD)
    ext = build_galois_extension(H2, BIQUAD, emb)
    conj = next(g for g in automorphism_group(Q_SQRT2) if not g.is_identity())
    sigma = AlgebraAutomorphism(H2, H2.i(), H2.j(), conj)
    tau_tilde = next(g for g in automorphism_group(BIQUAD)
                     if g(SQRT2_IN_BIQUAD) == -SQRT2_IN_BIQUAD
                     and g(SQRT3_IN_BIQUAD) == SQRT3_IN_BIQUAD)
    tau = AlgebraAutomorphism(ext.L, ext.L.i(), ext.L.j(), tau_tilde)
    X = TwistedExtension(ext, sigma, tau)
    assert inner_order(sigma) == sigma.order() == 2
    assert inner_order(tau) == tau.order() == 2
    report = converse_check(X)
    assert report.eq_produit and report.consistent


def test_converse_check_bruno_hypothesis_fails():
    with pytest.raises(HypothesisFailed):
        converse_check(bruno_instance())


# ---------------------------------------------------------------------------
# twisted function-field lifts
# ---------------------------------------------------------------------------

def test_lifts_for_trivial_twist():
    X = trivial_twist_instance()
    fn_ext = build_twisted_extension(X, 4)
    assert fn_ext.group_order() == 2
    lift = fn_ext.lift_of(next(a for a in X.ext.group if not a.is_identity()))
    t = t_poly(X.tau)
    s2 = X.ext.L.scalar(Q_SQRT2.gen())
    p = SkewPoly(X.tau, [s2]) * t + SkewPoly(X.tau, [1])
    img = lift(p)
    assert img.coefficient(1) == -s2
    assert img.coefficient(0) == X.ext.L.one()


def test_lifts_for_special_case_3():
    X = build_special_case_3(HAM_Q, BIQUAD, embed_q(BIQUAD), 2)
    fn_ext = build_twisted_extension(X, 4)
    assert fn_ext.group_order() == 2
    for lift in fn_ext.lifts:
        assert fn_ext.restriction(lift) in X.ext.group


def test_lifts_refused_without_product_condition():
    with pytest.raises(ProductConditionFailed):
        build_twisted_extension(bruno_instance(), 4)
