"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS/FAIL line so a plain run reads as a
checklist.  Everything here is exact rational arithmetic; there are no
numeric tolerances anywhere, only equality and stated time budgets.
"""

import random
import time
from contextlib import contextmanager

import pytest

import galois_compose_oracle as oracle
from regressions import (DL2_MATRIX, biquadratic, conjugation_twist,
                         counterexample, cyclic_quartic, hamilton,
                         matching_tower, q8_scenario, quartic_solution,
                         sqrt2_field)
from skewfield.fep import (EmbeddingProblem, SolutionMap, cyclic_group,
                           fiber_reduction, geometric_problem, is_split,
                           quaternion_group, sol_down, sol_up,
                           solutions_agree, transport_down, transport_up,
                           problems_agree, verify_solution)
from skewfield.galois import (NotAnisotropic, RestrictionWitness,
                              TwistedExtension, build_comm_extension,
                              build_galois_extension, build_special_case_3,
                              check_product_conditions, eq_produit,
                              restriction_between, restriction_map)
from skewfield.numfield import FieldMorphism, NumberField, field_level
from skewfield.ore import (HypothesisFailed, SkewFraction, SkewLaurent,
                           SkewPoly, center_bounded, constant_poly,
                           detect_recurrence, is_central, series_expand,
                           t_poly, tensor_decomposition_check)
from skewfield.qalg import (QuaternionAlgebra, anisotropy,
                            inner_automorphism, inner_order, norm_form)

HAM_Q = hamilton()
Q = HAM_Q.base
Q_SQRT2 = sqrt2_field()
C4_EMB = cyclic_quartic(Q_SQRT2)
C4_FIELD = C4_EMB.target
BIQUAD_EMB = biquadratic(Q_SQRT2)
BIQUAD = BIQUAD_EMB.target

H2 = QuaternionAlgebra(Q_SQRT2, -1, -1, label='(-1,-1/Q(sqrt2))')


def embed_q(field):
    return FieldMorphism(Q, field, field.zero())


@contextmanager
def criterion(number, label, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print('ACCEPTANCE %d: FAIL - %s' % (number, label))
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print('ACCEPTANCE %d: FAIL - %s (%.1fs over the %ds budget)'
              % (number, label, elapsed, budget_seconds))
        raise AssertionError('criterion %d exceeded its %ds budget: %.1fs'
                             % (number, budget_seconds, elapsed))
    print('ACCEPTANCE %d: PASS - %s (%.1fs)' % (number, label, elapsed))


def test_criterion_1_quaternion_group_regression():
    with criterion(1, "quaternion-group problem: non-split, weak solution, "
                      "split fiber reduction", budget_seconds=10):
        report = q8_scenario()
        assert report.split is False
        assert report.quartic_group_cyclic
        assert report.quartic_contains_conjugation
        assert report.quartic_level == 'infinite'
        assert report.weak_report.passed()
        assert report.kernel_order == 4
        kernel = report.problem.alpha.kernel()
        assert max(report.problem.G.element_order(a) for a in kernel) == 4
        red = report.reduction
        assert report.reduced_split
        assert report.reduced_kernel_order == 4 == len(red.kernel_iso)
        # the fiber product has order |ker alpha| * |Gal(L'/H)|
        assert red.problem.G.order == 4 * red.weak.gal_big.group.order == 16
        red_kernel = red.problem.alpha.kernel()
        assert max(red.problem.G.element_order(a) for a in red_kernel) == 4


def test_criterion_2_counterexample_regression():
    with criterion(2, "equal twist orders, unequal central restrictions, "
                      "product condition fails", budget_seconds=5):
        ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
        X = counterexample(ext)
        sigma = X.sigma
        report = check_product_conditions(X)
        assert report.sigma_order == 2
        assert report.tau_order == 2
        assert X.sigma_tilde.is_identity()
        assert not X.tau_tilde.is_identity()
        assert inner_order(sigma) == 1
        assert not report.star_holds()
        assert not report.eq_produit
        assert report.triv1_consistent() and report.triv2_consistent()


def test_criterion_3_extension_instance_matrix():
    with criterion(3, "anisotropy verdicts and extension constructions "
                      "over five fields", budget_seconds=30):
        matrix = [(NumberField(poly, label=name), want_verdict, want_order)
                  for name, poly, want_verdict, want_order in DL2_MATRIX]
        for fld, want_verdict, want_order in matrix:
            verdict = anisotropy(norm_form(HAM_Q, fld, embed_q(fld)), 8)
            assert verdict.kind == want_verdict, fld.label
            if want_order is None:
                with pytest.raises(NotAnisotropic):
                    build_galois_extension(HAM_Q, fld, embed_q(fld))
            else:
                ext = build_galois_extension(HAM_Q, fld, embed_q(fld))
                assert len(ext.group) == want_order
                assert ext.artin_verified
                assert ext.outer_verified


def test_criterion_4_twisted_center_regression():
    with criterion(4, "bounded center of the conjugation-twisted ring is "
                      "the rational span of even powers", budget_seconds=60):
        twist = conjugation_twist(Q_SQRT2)
        report = center_bounded(H2, twist, 6)
        assert report.hypothesis_holds
        assert report.closed_form_matches
        basis = report.raw_basis
        assert len(basis) == 4
        # exactly 1, t^2, t^4, t^6 up to rational scaling
        degrees = sorted(b.degree() for b in basis)
        assert degrees == [0, 2, 4, 6]
        for b in basis:
            nonzero = [k for k, c in enumerate(b.coeffs) if not c.is_zero()]
            assert nonzero == [b.degree()]
            lead = b.coeffs[b.degree()]
            assert lead.coords[1].is_zero() and lead.coords[2].is_zero() \
                and lead.coords[3].is_zero()
            assert lead.coords[0].coords[1] == 0  # rational coefficient
        t = t_poly(twist)
        assert is_central(t * t)
        assert not is_central(constant_poly(twist, H2.scalar(Q_SQRT2.gen())))
        assert not is_central(constant_poly(twist, H2.i()) * t)


def test_criterion_5_ore_property_suite():
    with criterion(5, "randomized twisted-arithmetic suite, 1000 cases per "
                      "property, zero failures"):
        twist = conjugation_twist(Q_SQRT2)
        id_twist = HAM_Q.identity_automorphism()
        rng = random.Random(20260808)

        def rnd_poly(tw, max_deg, nonzero=False):
            alg = tw.owner
            while True:
                deg = rng.randint(0, max_deg)
                coeffs = [alg.element([alg.base.element(
                    [rng.randint(-2, 2) for _ in range(alg.base.degree)])
                    for _ in range(4)]) for _ in range(deg + 1)]
                p = SkewPoly(tw, coeffs)
                if not nonzero or not p.is_zero():
                    return p

        # arithmetic axioms and degree additivity
        for k in range(1000):
            tw = twist if k % 2 else id_twist
            p = rnd_poly(tw, 3)
            q = rnd_poly(tw, 3)
            r = rnd_poly(tw, 2)
            assert (p + q) + r == p + (q + r)
            assert p * (q + r) == p * q + p * r
            assert (p * q) * r == p * (q * r)
            if not p.is_zero() and not q.is_zero():
                assert (p * q).degree() == p.degree() + q.degree()

        # division re-multiplication identity
        for k in range(1000):
            tw = twist if k % 2 else id_twist
            a = rnd_poly(tw, 3)
            b = rnd_poly(tw, 2, nonzero=True)
            from skewfield.ore import right_divide
            qq, rr = right_divide(a, b)
            assert qq * b + rr == a
            assert rr.is_zero() or rr.degree() < b.degree()

        # fraction-equality transitivity
        for k in range(1000):
            tw = twist if k % 2 else id_twist
            a = rnd_poly(tw, 1, nonzero=True)
            b = rnd_poly(tw, 1, nonzero=True)
            c1 = rnd_poly(tw, 1, nonzero=True)
            c2 = rnd_poly(tw, 1, nonzero=True)
            f = SkewFraction(a, b)
            g = SkewFraction(a * c1, b * c1)
            h = SkewFraction(a * c2, b * c2)
            assert f == g and g == h and f == h

        # fraction equality agrees with series expansion to precision 20
        for k in range(1000):
            tw = twist if k % 2 else id_twist
            a = rnd_poly(tw, 1, nonzero=True)
            b = rnd_poly(tw, 1, nonzero=True)
            c = rnd_poly(tw, 1, nonzero=True)
            f = SkewFraction(a, b)
            if k % 3 == 0:
                g = SkewFraction(a * c, b * c)
            else:
                g = SkewFraction(a + constant_poly(tw, 1), b)
            eq = (f == g)
            sf = series_expand(f, 20)
            sg = series_expand(g, 20)
            assert eq == sf.agrees_with(sg)


def test_criterion_6_recurrence_detection():
    with criterion(6, "order-1 recurrence certificates for geometric "
                      "series; none for the square indicator"):
        id_twist = HAM_Q.identity_automorphism()
        twist = conjugation_twist(Q_SQRT2)
        one_q = constant_poly(id_twist, 1)
        s1 = series_expand(SkewFraction(one_q, one_q - t_poly(id_twist)), 30)
        cert1 = detect_recurrence(s1, 3)
        assert cert1 is not None and cert1.order == 1
        assert cert1.ys[0] == HAM_Q.one()
        assert cert1.verify(s1)

        one_t = constant_poly(twist, 1)
        i_const = constant_poly(twist, H2.i())
        s2 = series_expand(
            SkewFraction(one_t, one_t - i_const * t_poly(twist)), 30)
        cert2 = detect_recurrence(s2, 3)
        assert cert2 is not None and cert2.order == 1
        assert cert2.ys[0] == H2.i()
        assert cert2.verify(s2)

        squares = SkewLaurent(twist, 0,
                              [H2.one() if n in (0, 1, 4, 9, 16) else
                               H2.zero() for n in range(20)])
        assert detect_recurrence(squares, 3) is None


def test_criterion_7_transport_round_trips():
    with criterion(7, "problem and solution transports are mutually "
                      "inverse on exact tables; lifted solutions verify"):
        ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
        cases = [
            (cyclic_group(2), [0, 1]),
            (cyclic_group(4), [0, 1, 0, 1]),
            (quaternion_group(), [0, 0, 1, 1, 0, 0, 1, 1]),
        ]
        for G, images in cases:
            problem = EmbeddingProblem(G, ext, images)
            down = transport_down(problem)
            up = transport_up(down, HAM_Q)
            assert problems_agree(problem, up)
            assert problems_agree(down, transport_down(up))

        # full solutions for the order-2 and order-4 problems
        p2 = EmbeddingProblem(cyclic_group(2), ext, [0, 1])
        s2 = SolutionMap(ext, Q_SQRT2.identity_morphism(), [0, 1], 'full',
                         p2.G)
        assert verify_solution(p2, s2).passed()
        lifted2 = sol_up(sol_down(s2), HAM_Q)
        assert solutions_agree(s2, lifted2)
        assert verify_solution(p2, lifted2).passed()
        assert lifted2.kind == 'full'

        p4 = EmbeddingProblem(cyclic_group(4), ext, [0, 1, 0, 1])
        weak4 = quartic_solution(p4)
        full4 = SolutionMap(weak4.ext_big, weak4.center_emb,
                            list(weak4.beta.images), 'full', p4.G,
                            weak4.gal_big)
        assert verify_solution(p4, full4).passed()
        lifted4 = sol_up(sol_down(full4), HAM_Q)
        assert solutions_agree(full4, lifted4)
        assert verify_solution(p4, lifted4).passed()
        assert lifted4.kind == 'full'

        # the quaternion-group problem round-trips its weak solution;
        # powers of i sit at indices 1, i, -1, -i of the group table
        p8 = EmbeddingProblem(quaternion_group(), ext,
                              [0, 0, 1, 1, 0, 0, 1, 1])
        weak8 = quartic_solution(
            p8, lambda p: {0: 0, 1: 2, 2: 1, 3: 3}[p % 4])
        assert verify_solution(p8, weak8).passed()
        lifted8 = sol_up(sol_down(weak8), HAM_Q)
        assert solutions_agree(weak8, lifted8)
        assert verify_solution(p8, lifted8).passed()


def corpus_twisted_extensions():
    ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    trivial = TwistedExtension(ext, HAM_Q.identity_automorphism(),
                               ext.L.identity_automorphism())
    bruno = counterexample(ext)
    inner_pair = TwistedExtension(ext, inner_automorphism(HAM_Q.i()),
                                  inner_automorphism(ext.L.i()))
    ext2 = build_galois_extension(H2, BIQUAD, BIQUAD_EMB)
    tower = TwistedExtension(ext2, *matching_tower(BIQUAD_EMB))
    sc3 = build_special_case_3(HAM_Q, BIQUAD, embed_q(BIQUAD), 2)
    return [trivial, bruno, inner_pair, tower, sc3]


def test_criterion_8_restriction_and_product_suite():
    with criterion(8, "restriction maps verify pointwise; the product "
                      "conditions agree pairwise; the function-field link "
                      "identity holds"):
        # application to commutative towers
        big_c = build_comm_extension(BIQUAD, embed_q(BIQUAD))
        small_c = build_comm_extension(Q_SQRT2, embed_q(Q_SQRT2))
        emb = BIQUAD_EMB
        witness = RestrictionWitness(
            ell0=Q_SQRT2, k0_emb=embed_q(Q_SQRT2),
            emb_l0_big=emb, emb_l0_small=Q_SQRT2.identity_morphism(),
            emb_k0_big=Q.identity_morphism(),
            emb_k0_small=Q.identity_morphism())
        hom = restriction_map(big_c, small_c, witness)
        pointwise = oracle.restriction_map(big_c, small_c, witness,
                                           small_to_big=emb)
        assert all(hom(g) == pointwise[g] for g in big_c.group)
        assert len({hom(g) for g in big_c.group}) == 2

        # restriction onto the center equals the central action
        ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
        witness2 = RestrictionWitness(
            ell0=Q_SQRT2, k0_emb=embed_q(Q_SQRT2),
            emb_l0_big=Q_SQRT2.identity_morphism(),
            emb_l0_small=Q_SQRT2.identity_morphism(),
            emb_k0_big=Q.identity_morphism(),
            emb_k0_small=Q.identity_morphism())
        hom2 = restriction_map(ext, small_c, witness2)
        pointwise2 = oracle.restriction_map(
            ext, small_c, witness2, small_to_big=lambda x: ext.L.scalar(x))
        assert all(hom2(g) == pointwise2[g] for g in ext.group)
        assert all(hom2(g) == g.center_action for g in ext.group)

        # nested division-ring tower
        big = build_galois_extension(HAM_Q, C4_FIELD, embed_q(C4_FIELD))
        hom3 = restriction_between(big, ext, C4_EMB)
        assert len({hom3(g) for g in big.group}) == len(ext.group)

        # the three algebra-level conditions agree on the whole corpus
        for X in corpus_twisted_extensions():
            report = check_product_conditions(X)
            assert report.triv1_consistent(), X
            assert report.triv2_consistent(), X

        # function-field link identity on every geometric instance
        trivial = corpus_twisted_extensions()[0]
        p2 = EmbeddingProblem(cyclic_group(2), trivial.ext, [0, 1])
        geo = geometric_problem(p2, trivial)
        assert geo.link_identity
        sc3 = corpus_twisted_extensions()[4]
        p_sc3 = EmbeddingProblem(cyclic_group(2), sc3.ext, [0, 1])
        geo2 = geometric_problem(p_sc3, sc3)
        assert geo2.link_identity


def test_criterion_9_tensor_decomposition_checks():
    with criterion(9, "bounded tensor-decomposition verification passes on "
                      "the trivial and direct-factor instances and refuses "
                      "the counterexample"):
        # trivial twist instance at degree bound 4
        L = QuaternionAlgebra(Q_SQRT2, -1, -1)
        report = tensor_decomposition_check(
            HAM_Q, HAM_Q.identity_automorphism(), L,
            L.identity_automorphism(), embed_q(Q_SQRT2), 4)
        assert report.injective and report.surjective \
            and report.multiplicative

        # direct-factor tower built from the biquadratic field
        X = build_special_case_3(HAM_Q, BIQUAD, embed_q(BIQUAD), 2)
        emb = X.ext.emb
        report2 = tensor_decomposition_check(X.ext.H, X.sigma, X.ext.L,
                                             X.tau, emb, 4)
        assert report2.injective and report2.surjective \
            and report2.multiplicative

        # the counterexample violates the order hypothesis
        ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
        bruno = counterexample(ext)
        sigma, tau = bruno.sigma, bruno.tau
        with pytest.raises(HypothesisFailed):
            tensor_decomposition_check(HAM_Q, sigma, ext.L, tau,
                                       embed_q(Q_SQRT2), 4)
