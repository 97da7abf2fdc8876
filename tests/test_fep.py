from fractions import Fraction

import pytest

from api_oracle import is_abelian, is_cyclic
from regressions import (biquadratic, counterexample, cyclic_quartic, hamilton,
                         q8_scenario, quartic_solution, sqrt2_field)
from skewfield import fep
from skewfield.fep import (
    EmbeddingProblem, FiniteGroup, GalData, GroupHom, NotWeakSolution, SolutionMap,
    cyclic_group, dihedral_group, direct_product, fiber_reduction,
    geometric_problem, hypothesis_report, is_split, quaternion_group,
    sol_down, sol_up, solutions_agree, transport_down, transport_up,
    problems_agree, verify_solution)
from skewfield.galois import (NotAnisotropic, ProductConditionFailed,
                              TwistedExtension, build_galois_extension,
                              build_special_case_3, restriction_between)
from skewfield.numfield import FieldMorphism, NumberField, automorphism_group

HAM_Q = hamilton()
Q = HAM_Q.base
Q_SQRT2 = sqrt2_field()
Q_I = NumberField([1, 0, 1], label='Q(i)')
C4_EMB = cyclic_quartic(Q_SQRT2)
C4_FIELD = C4_EMB.target
BIQUAD = biquadratic(Q_SQRT2).target

SQRT2_IN_C4 = C4_EMB.gen_image


def embed_q(field):
    return FieldMorphism(Q, field, field.zero())


def sqrt2_problem(G, images):
    ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    return EmbeddingProblem(G, ext, images)


# ---------------------------------------------------------------------------
# finite groups and homomorphisms
# ---------------------------------------------------------------------------

def test_cyclic_group_structure():
    g = cyclic_group(6)
    assert g.order == 6 and is_abelian(g) and is_cyclic(g)
    assert g.element_order(1) == 6
    assert len(g.subgroups()) == 4  # one per divisor


def test_dihedral_group_structure():
    g = dihedral_group(8)
    assert g.order == 16
    assert not is_abelian(g)
    assert g.element_order(2) == 8  # a rotation


def test_quaternion_group_presentation():
    g = quaternion_group()
    i, j = 2, 4
    assert g.element_order(i) == 4
    assert g.op(i, i) == g.op(j, j) == 1           # both equal -1
    assert g.op(g.op(j, i), g.inv(j)) == g.inv(i)
    # exactly one element of order 2
    assert sum(1 for a in range(8) if g.element_order(a) == 2) == 1
    assert len(g.subgroups()) == 6


def test_direct_product_and_subgroups():
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert v4.order == 4 and is_abelian(v4) and not is_cyclic(v4)
    assert len(v4.subgroups()) == 5


def test_group_hom_validation():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    hom = GroupHom(c4, c2, [0, 1, 0, 1])
    assert hom.kernel() == [0, 2]
    assert hom.is_surjective() and not hom.is_injective()
    with pytest.raises(ValueError):
        GroupHom(c4, c2, [0, 1, 1, 0])


def test_group_order_cap():
    with pytest.raises(ValueError):
        FiniteGroup([[(i + j) % 65 for j in range(65)] for i in range(65)])


def test_galois_data_of_another_extension_is_refused():
    ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    twin = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    shadow = transport_down(EmbeddingProblem(cyclic_group(2), ext, [0, 1]))
    for other in (twin, shadow.ext):
        with pytest.raises(ValueError, match='another extension'):
            EmbeddingProblem(cyclic_group(2), ext, [0, 1], GalData(other))
        with pytest.raises(ValueError, match='another extension'):
            SolutionMap(ext, Q_SQRT2.identity_morphism(), [0, 1], 'full',
                        cyclic_group(2), GalData(other))


# ---------------------------------------------------------------------------
# splitness
# ---------------------------------------------------------------------------

def test_q8_problem_not_split():
    g = quaternion_group()
    problem = sqrt2_problem(g, [0, 0, 1, 1, 0, 0, 1, 1])
    split, section = is_split(problem)
    assert not split and section is None


def test_klein_projection_splits():
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    # first coordinate onto the Galois group of order 2
    problem = sqrt2_problem(v4, [0, 0, 1, 1])
    split, section = is_split(problem)
    assert split
    assert problem.alpha(section(1)) == 1


def test_z4_onto_z2_not_split():
    problem = sqrt2_problem(cyclic_group(4), [0, 1, 0, 1])
    split, _ = is_split(problem)
    assert not split


def test_dihedral_problem_splits():
    # rotations to the conjugation, the rest determined; reflections give
    # an order-2 complement mapping onto the Galois group
    d4 = dihedral_group(4)
    images = [1 if (a >> 1) % 2 else 0 for a in range(8)]
    images = [(images[a] if a % 2 == 0 else images[a]) for a in range(8)]
    # element 2k is r^k (maps to conj^k), 2k+1 is r^k s (same image as r^k)
    problem = sqrt2_problem(d4, images)
    split, section = is_split(problem)
    assert split
    assert problem.alpha(section(1)) == 1
    assert len(problem.alpha.kernel()) == 4


# ---------------------------------------------------------------------------
# solution verification
# ---------------------------------------------------------------------------

def test_weak_solution_verifies():
    problem = sqrt2_problem(cyclic_group(4), [0, 1, 0, 1])
    weak = quartic_solution(problem)
    report = verify_solution(problem, weak)
    assert report.passed()


def test_full_solution_on_identity_problem():
    ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    problem = EmbeddingProblem(cyclic_group(2), ext, [0, 1])
    sol = SolutionMap(ext, Q_SQRT2.identity_morphism(), [0, 1], 'full',
                      problem.G)
    report = verify_solution(problem, sol)
    assert report.passed()


def test_broken_solution_reports_offender():
    problem = sqrt2_problem(cyclic_group(4), [0, 1, 0, 1])
    ext_big = build_galois_extension(HAM_Q, C4_FIELD, embed_q(C4_FIELD))
    center_emb = FieldMorphism(Q_SQRT2, C4_FIELD, SQRT2_IN_C4)
    good = quartic_solution(problem)
    # twist the images so compatibility must fail somewhere
    twisted = list(good.beta.images)
    twisted = [(v + 2) % 4 for v in twisted]
    try:
        bad = SolutionMap(ext_big, center_emb, twisted, 'weak', problem.G)
    except ValueError:
        return  # already not a homomorphism: acceptable negative control
    report = verify_solution(problem, bad)
    assert not report.passed()
    assert 'disagrees' in report.details


def test_report_keeps_the_restriction_it_read():
    problem = sqrt2_problem(cyclic_group(4), [0, 1, 0, 1])
    weak = quartic_solution(problem)
    report = verify_solution(problem, weak)
    assert report.restriction == restriction_between(
        weak.ext_big, problem.ext, weak.center_emb).images == (0, 1, 0, 1)
    # a center embedding that does not start at the small center
    bad = SolutionMap(weak.ext_big, C4_FIELD.identity_morphism(),
                      list(weak.beta.images), 'weak', problem.G)
    report = verify_solution(problem, bad)
    assert report.details.startswith('restriction failed')
    assert report.restriction is None


def test_verify_solution_lets_a_failed_assertion_through(monkeypatch):
    # only the restriction's refusals become a failed report
    problem = sqrt2_problem(cyclic_group(4), [0, 1, 0, 1])
    weak = quartic_solution(problem)

    def restriction_between(big, small, center_emb):
        raise AssertionError("restriction left the group")
    monkeypatch.setattr(fep, 'restriction_between', restriction_between)
    with pytest.raises(AssertionError, match='restriction left the group'):
        verify_solution(problem, weak)


# ---------------------------------------------------------------------------
# transports and round trips
# ---------------------------------------------------------------------------

def test_problem_round_trips():
    for G, images in ((cyclic_group(2), [0, 1]),
                      (cyclic_group(4), [0, 1, 0, 1]),
                      (quaternion_group(), [0, 0, 1, 1, 0, 0, 1, 1])):
        problem = sqrt2_problem(G, images)
        down = transport_down(problem)
        assert down.is_commutative()
        up = transport_up(down, HAM_Q)
        assert problems_agree(problem, up)
        down2 = transport_down(up)
        assert problems_agree(down, down2)


def test_transport_up_guard():
    ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    problem = EmbeddingProblem(cyclic_group(2), ext, [0, 1])
    down = transport_down(problem)
    # rebuild the same commutative problem over the gaussian field
    from skewfield.galois import build_comm_extension
    comm = build_comm_extension(Q_I, embed_q(Q_I))
    bad = EmbeddingProblem(cyclic_group(2), comm, [0, 1])
    with pytest.raises(NotAnisotropic):
        transport_up(bad, HAM_Q)


def test_solution_round_trips_and_full_lift():
    problem = sqrt2_problem(cyclic_group(4), [0, 1, 0, 1])
    weak = quartic_solution(problem)
    down = sol_down(weak)
    up = sol_up(down, HAM_Q)
    assert solutions_agree(weak, up)
    # the cyclic quartic solution is in fact full for the order-4 problem
    full = SolutionMap(weak.ext_big, weak.center_emb,
                       list(weak.beta.images), 'full', problem.G,
                       weak.gal_big)
    report = verify_solution(problem, full)
    assert report.passed()
    lifted = sol_up(sol_down(full), HAM_Q)
    assert solutions_agree(full, lifted)
    assert verify_solution(problem, lifted).passed()
    assert lifted.kind == 'full'


# ---------------------------------------------------------------------------
# geometric problems
# ---------------------------------------------------------------------------

def test_geometric_problem_trivial_twist():
    ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    problem = EmbeddingProblem(cyclic_group(2), ext, [0, 1])
    X = TwistedExtension(ext, HAM_Q.identity_automorphism(),
                         ext.L.identity_automorphism())
    report = geometric_problem(problem, X)
    assert report.link_identity
    assert len(report.alpha_geo) == 2
    assert report.fixed_field_ext.ell.degree == 2  # whole center is fixed


def test_geometric_problem_special_case_3():
    X = build_special_case_3(HAM_Q, BIQUAD, embed_q(BIQUAD), 2)
    gal_order = len(X.ext.group)
    assert gal_order == 2
    problem = EmbeddingProblem(cyclic_group(2), X.ext, [0, 1])
    report = geometric_problem(problem, X)
    assert report.link_identity
    assert report.fixed_field_ext.ell.degree == 2


def test_geometric_problem_guarded():
    ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    problem = EmbeddingProblem(cyclic_group(2), ext, [0, 1])
    X = counterexample(ext)
    with pytest.raises(ProductConditionFailed):
        geometric_problem(problem, X)


# ---------------------------------------------------------------------------
# fiber reduction
# ---------------------------------------------------------------------------

def test_fiber_reduction_z4():
    problem = sqrt2_problem(cyclic_group(4), [0, 1, 0, 1])
    weak = quartic_solution(problem)
    red = fiber_reduction(problem, weak)
    assert red.problem.G.order == 8
    split, _ = is_split(red.problem)
    assert split
    assert len(red.kernel_iso) == 2  # kernel Z/2
    assert red.problem.G.order == \
        len(problem.alpha.kernel()) * weak.gal_big.group.order


def test_fiber_reduction_restricts_once(monkeypatch):
    problem = sqrt2_problem(cyclic_group(4), [0, 1, 0, 1])
    weak = quartic_solution(problem)
    calls = []

    def counted(*args):
        calls.append(args)
        return restriction_between(*args)

    monkeypatch.setattr(fep, 'restriction_between', counted)
    red = fiber_reduction(problem, weak)
    assert len(calls) == 1  # the one verify_solution made
    assert red.res_table == verify_solution(problem, weak).restriction


def test_fiber_reduction_rejects_non_solution():
    problem = sqrt2_problem(cyclic_group(4), [0, 1, 0, 1])
    ext_big = build_galois_extension(HAM_Q, C4_FIELD, embed_q(C4_FIELD))
    center_emb = FieldMorphism(Q_SQRT2, C4_FIELD, SQRT2_IN_C4)
    good = quartic_solution(problem)
    twisted = [(v + 2) % 4 for v in good.beta.images]
    try:
        bad = SolutionMap(ext_big, center_emb, twisted, 'weak', problem.G)
    except ValueError:
        return
    with pytest.raises(NotWeakSolution):
        fiber_reduction(problem, bad)


def test_fiber_reduction_commutative_problem():
    # the same reduction runs on the commutative shadow directly
    problem = sqrt2_problem(cyclic_group(4), [0, 1, 0, 1])
    down = transport_down(problem)
    weak = sol_down(quartic_solution(problem))
    red = fiber_reduction(down, weak)
    assert red.problem.G.order == 8
    split, _ = is_split(red.problem)
    assert split
    assert len(red.kernel_iso) == 2


def test_fiber_reduction_degenerate_full_solution():
    # an already split problem with a full solution over L itself
    ext = build_galois_extension(HAM_Q, Q_SQRT2, embed_q(Q_SQRT2))
    problem = EmbeddingProblem(cyclic_group(2), ext, [0, 1])
    gamma = SolutionMap(ext, Q_SQRT2.identity_morphism(), [0, 1], 'full',
                        problem.G)
    red = fiber_reduction(problem, gamma)
    assert red.problem.G.order == 2       # the graph of gamma
    assert len(red.kernel_iso) == 1
    # transport a tautological full solution of the reduced problem
    section_images = red.section.images
    big = SolutionMap(ext, Q_SQRT2.identity_morphism(),
                      list(section_images), 'full', red.problem.G)
    out = red.transport(big)
    assert out.kind == 'full'
    assert verify_solution(problem, out).passed()


def test_fiber_transport_through_octic_field():
    # the reduced order-8 problem is solved over the compositum of the
    # cyclic quartic field with sqrt3, and the transport shrinks back to a
    # quartic extension solving the original order-4 problem
    E = NumberField([1, 0, -76, 0, 98, 0, -20, 0, 1], label='octic')
    c4gen_in_E = E.element([0, Fraction(911, 56), 0, Fraction(-179, 8),
                            0, Fraction(37, 8), 0, Fraction(-13, 56)])
    sqrt3_in_E = E.element([0, Fraction(-855, 56), 0, Fraction(179, 8),
                            0, Fraction(-37, 8), 0, Fraction(13, 56)])
    sqrt2_in_E = c4gen_in_E * c4gen_in_E - 2
    assert sqrt2_in_E * sqrt2_in_E == E.scalar(2)
    assert sqrt3_in_E * sqrt3_in_E == E.scalar(3)
    assert (c4gen_in_E ** 2) == sqrt2_in_E + 2

    problem = sqrt2_problem(cyclic_group(4), [0, 1, 0, 1])
    weak = quartic_solution(problem)
    red = fiber_reduction(problem, weak)
    assert red.problem.G.order == 8

    ext_E = build_galois_extension(HAM_Q, E, embed_q(E))
    from skewfield.fep import GalData, _center_action
    gal_E = GalData(ext_E)
    sigma4 = next(e for e in gal_E.elements
                  if _center_action(e).order() == 4
                  and e(ext_E.L.scalar(sqrt3_in_E)) ==
                  ext_E.L.scalar(sqrt3_in_E))
    s3 = next(e for e in gal_E.elements
              if _center_action(e).order() == 2
              and e(ext_E.L.scalar(c4gen_in_E)) ==
              ext_E.L.scalar(c4gen_in_E))
    # restriction to the cyclic quartic level
    from skewfield.galois import restriction_between
    emb_c4_E = FieldMorphism(C4_FIELD, E, c4gen_in_E)
    hom = restriction_between(ext_E, weak.ext_big, emb_c4_E)
    pair_index = {p: n for n, p in enumerate(red.pairs)}
    images = []
    for t, elem in enumerate(gal_E.elements):
        found = None
        for a in range(4):
            for b in range(2):
                if sigma4.power(a).compose(s3.power(b)) == elem:
                    found = (a, b)
        assert found is not None
        a, b = found
        r = weak.ext_big.index_of(hom(elem))
        images.append(pair_index[((a + 2 * b) % 4, r)])
    big = SolutionMap(ext_E, emb_c4_E, images, 'full', red.problem.G, gal_E)
    assert verify_solution(red.problem, big).passed()

    out = red.transport(big)
    assert out.kind == 'full'
    assert out.ext_big.center_field.degree == 4
    assert verify_solution(problem, out).passed()


# ---------------------------------------------------------------------------
# hypothesis report and the full quaternion-group scenario
# ---------------------------------------------------------------------------

def test_hypothesis_report_fields():
    problem = sqrt2_problem(quaternion_group(), [0, 0, 1, 1, 0, 0, 1, 1])
    ext = problem.ext
    X = TwistedExtension(ext, HAM_Q.identity_automorphism(),
                         ext.L.identity_automorphism())
    report = hypothesis_report(problem, X, ample_assertion=True)
    assert report['condition_split'] is False
    assert report['condition_product'] is True
    assert report['ampleness_asserted'] is True
    assert report['conclusion_verified'] is False
    assert report['weak_to_split_reduction_suggested'] is True


def test_hypothesis_report_all_boxes_tick():
    # a split problem with the trivial twist and an asserted-ample base
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    problem = sqrt2_problem(v4, [0, 0, 1, 1])
    ext = problem.ext
    X = TwistedExtension(ext, HAM_Q.identity_automorphism(),
                         ext.L.identity_automorphism())
    report = hypothesis_report(problem, X, ample_assertion=True)
    assert report['condition_split'] is True
    assert report['condition_product'] is True
    assert report['ampleness_asserted'] is True
    assert report['conclusion_verified'] is False  # never decided here
    assert report['weak_to_split_reduction_suggested'] is False


def test_q8_scenario_full_report():
    report = q8_scenario()
    assert report.passed()
    assert not report.split
    assert report.kernel_order == 4
    assert report.quartic_level == 'infinite'
    assert report.reduced_order == 16
    assert report.reduced_kernel_order == 4
    # the kernel of the reduced problem is cyclic of order 4
    G2 = report.reduction.problem.G
    kernel = report.reduction.problem.alpha.kernel()
    assert sorted(kernel) == sorted(
        v for _, v in report.reduction.kernel_iso)
    assert max(G2.element_order(a) for a in kernel) == 4
