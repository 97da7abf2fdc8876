"""The index tables of Galois groups against the composing oracle.

Every extension builds its group table once from center actions; the
tables, restriction images and generating subsets must equal what
composing the automorphisms themselves gives (``galois_compose_oracle``).
A guard test makes composition of quaternion automorphisms raise and runs
the table consumers, so no second representation of the group grows back.
"""

import galois_compose_oracle as oracle
from regressions import (DL2_MATRIX, biquadratic, cyclic_quartic, hamilton,
                         hamilton_over, q_embedding, quartic_solution,
                         sqrt2_field)
from skewfield.fep import (EmbeddingProblem, GalData, SolutionMap,
                           _comm_shadow, cyclic_group, fiber_reduction,
                           problems_agree, sol_down, sol_up, solutions_agree,
                           transport_down, transport_up, verify_solution)
from skewfield.galois import (GaloisExtension, RestrictionWitness,
                              _generating_subset, build_comm_extension,
                              build_galois_extension, build_special_case_3,
                              restriction_between)
from skewfield.numfield import FieldMorphism, NumberField
from skewfield.qalg import AlgebraAutomorphism

HAM_Q = hamilton()
Q_SQRT2 = sqrt2_field()
C4_EMB = cyclic_quartic(Q_SQRT2)
BIQUAD_EMB = biquadratic(Q_SQRT2)


def _comm(field):
    return build_comm_extension(field, q_embedding(HAM_Q, field))


def _witness(big, small, center_emb):
    """The witness restriction_between builds: the small tower itself."""
    return RestrictionWitness(
        ell0=small.center_field, k0_emb=small.center_emb,
        emb_l0_big=center_emb,
        emb_l0_small=small.center_field.identity_morphism(),
        emb_k0_big=big.center_emb.source.identity_morphism(),
        emb_k0_small=small.center_emb.source.identity_morphism())


def _assert_table_agrees(ext):
    assert ext.table == tuple(map(tuple, oracle.group_table(ext))), ext
    assert GalData(ext).group.table == ext.table
    gens = [ext.group[n] for n in _generating_subset(ext.table)]
    assert gens == oracle.generating_subset(ext.group), ext


def _assert_restriction_agrees(big, small, center_emb):
    hom = restriction_between(big, small, center_emb)
    composed = oracle.restriction_map(
        big, small, _witness(big, small, center_emb),
        oracle.small_to_big(big, small, center_emb))
    assert hom.images == tuple(small.group.index(composed[g])
                               for g in big.group), (big, small)
    assert all(hom(g) == composed[g] for g in big.group)


def test_tables_agree_with_the_composing_oracle():
    exts = []
    # the dl2 fields, commutative and (where anisotropic) quaternionic
    for name, coeffs, _, order in DL2_MATRIX:
        field = NumberField(coeffs, label=name)
        exts.append(_comm(field))
        if order is not None:
            exts.append(hamilton_over(HAM_Q, field))
    # the biquadratic and cyclic-quartic towers over Q(sqrt2)
    q2, q2_comm = hamilton_over(HAM_Q, Q_SQRT2), _comm(Q_SQRT2)
    towers = [(q2, q2_comm, Q_SQRT2.identity_morphism())]
    for emb in (BIQUAD_EMB, C4_EMB):
        big, big_comm = hamilton_over(HAM_Q, emb.target), _comm(emb.target)
        towers += [(big, q2, emb), (big, q2_comm, emb),
                   (big_comm, q2_comm, emb)]
        exts += [big, big_comm]
    # the special_case_3 fields: the fixed field over Q, the biquadratic
    # field over it
    X = build_special_case_3(HAM_Q, BIQUAD_EMB.target,
                             q_embedding(HAM_Q, BIQUAD_EMB.target), 2)
    k_in_e = X.ext.H.extension_of[1]
    exts += [build_galois_extension(HAM_Q, k_in_e.target, k_in_e), X.ext]
    # a non-abelian group: the splitting field of x^3 - 2, generated by
    # cbrt2 sqrt-3, over Q and onto Q(sqrt-3)
    s3 = NumberField([108, 0, 0, 0, 0, 0, 1], label='S3 sextic')
    sqrt_m3 = NumberField([3, 0, 1], label='Q(sqrt-3)')
    exts.append(_comm(s3))
    towers.append((exts[-1], _comm(sqrt_m3),
                   FieldMorphism(sqrt_m3, s3, s3.gen() ** 3 / -6)))
    # the commutative shadows of every quaternionic extension
    exts += [_comm_shadow(e) for e in exts if isinstance(e, GaloisExtension)]
    for ext in exts:
        _assert_table_agrees(ext)
    for big, small, emb in towers:
        _assert_restriction_agrees(big, small, emb)


def test_table_consumers_never_compose_automorphisms(monkeypatch):
    def refuse(self, other):
        raise AssertionError("an automorphism was composed")

    monkeypatch.setattr(AlgebraAutomorphism, 'compose', refuse)
    q2_ext = hamilton_over(HAM_Q, Q_SQRT2)
    quartic_ext = hamilton_over(HAM_Q, C4_EMB.target)
    big_c = _comm(BIQUAD_EMB.target)
    small_c = _comm(Q_SQRT2)
    for ext in (q2_ext, quartic_ext, big_c, small_c):
        GalData(ext)
    # the three towers of the restriction regression
    restriction_between(big_c, small_c, BIQUAD_EMB)
    restriction_between(q2_ext, small_c, Q_SQRT2.identity_morphism())
    restriction_between(quartic_ext, q2_ext, C4_EMB)
    # transports of problems and solutions
    problem = EmbeddingProblem(cyclic_group(4), q2_ext, [0, 1, 0, 1])
    assert problems_agree(transport_up(transport_down(problem), HAM_Q),
                          problem)
    weak = quartic_solution(problem)
    assert solutions_agree(sol_up(sol_down(weak), HAM_Q), weak)
    # the fiber reduction and its transport back
    assert fiber_reduction(problem, weak).problem.G.order == 8
    identity = EmbeddingProblem(cyclic_group(2), q2_ext, [0, 1])
    gamma = SolutionMap(q2_ext, Q_SQRT2.identity_morphism(), [0, 1], 'full',
                        identity.G)
    red = fiber_reduction(identity, gamma)
    big = SolutionMap(q2_ext, Q_SQRT2.identity_morphism(),
                      list(red.section.images), 'full', red.problem.G)
    assert verify_solution(identity, red.transport(big)).passed()
