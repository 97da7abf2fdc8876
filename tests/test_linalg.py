"""Exact dense linear algebra: kernels, spans, solves and inverses."""

from fractions import Fraction

from skewfield.linalg import (common_kernel, coordinates_in_span, in_span,
                              invert, kernel_basis, same_span, solve)
from skewfield.numfield import NumberField
from skewfield.qalg import QuatElement, QuaternionAlgebra

Q0, Q1 = Fraction(0), Fraction(1)


def vec(*xs):
    return [Fraction(x) for x in xs]


def test_kernel_basis_without_rows_is_the_identity_basis():
    assert kernel_basis([], 3, Q0, Q1) == [vec(1, 0, 0), vec(0, 1, 0),
                                           vec(0, 0, 1)]


def test_common_kernel_is_the_fixed_space_of_conjugation():
    field = NumberField([-2, 0, 1])
    conj = next(a for a in field.automorphisms() if not a.is_identity())
    fixed = common_kernel([lambda x: conj(x) - x], field.basis(),
                          lambda x: x.coords, Q0, Q1)
    assert same_span(fixed, [vec(1, 0)])
    assert common_kernel([], field.basis(), lambda x: x.coords, Q0, Q1) == \
        [vec(1, 0), vec(0, 1)]


def test_common_kernel_is_the_centralizer_of_i():
    alg = QuaternionAlgebra(NumberField([0, 1]), -1, -1)
    i = alg.i()
    cent = common_kernel([lambda x: i * x - x * i], alg.q_basis(),
                         QuatElement.q_vector, Q0, Q1)
    assert len(cent) == 2
    assert same_span(cent, [alg.one().q_vector(), i.q_vector()])


def test_same_span():
    plane = [vec(1, 0, 0), vec(0, 1, 0)]
    assert same_span(plane, [vec(1, 1, 0), vec(1, -1, 0)])
    assert not same_span(plane, [vec(1, 0, 0), vec(0, 0, 1)])
    assert same_span([vec(1, 2), vec(2, 4), vec(1, 2)], [vec(3, 6)])
    assert not same_span([vec(1, 2), vec(2, 4)], [vec(1, 2), vec(0, 1)])
    assert same_span([], [])
    assert same_span([], [vec(0, 0)])
    assert not same_span([], [vec(1, 0)])


def test_in_span_agrees_with_coordinates_in_span():
    vectors = [vec(1, 0, 1), vec(0, 1, 1), vec(1, 1, 2)]
    for target in (vec(2, 3, 5), vec(0, 0, 0), vec(0, 0, 1), vec(1, 0, 0)):
        coords = coordinates_in_span(vectors, target, Q0)
        assert in_span(vectors, target, Q0) == (coords is not None)
        if coords is not None:
            assert [sum(c * v[k] for c, v in zip(coords, vectors))
                    for k in range(3)] == target
    assert in_span([], vec(0, 0), Q0) and coordinates_in_span(
        [], vec(0, 0), Q0) == []
    assert not in_span([], vec(1, 0), Q0)
    assert coordinates_in_span([], vec(1, 0), Q0) is None


def test_solve_and_invert_detect_singular_systems():
    assert solve([vec(1, 1), vec(1, 1)], vec(1, 2), 2, Q0) is None
    assert solve([vec(1, 1), vec(1, -1)], vec(2, 0), 2, Q0) == vec(1, 1)
    assert invert([vec(1, 2), vec(2, 4)], Q0, Q1) is None
    assert invert([vec(2, 0), vec(0, 4)], Q0, Q1) == [
        [Fraction(1, 2), Q0], [Q0, Fraction(1, 4)]]
