"""Exact dense linear algebra: kernels, spans, solves and inverses."""

import random
from fractions import Fraction

import fraction_linalg_oracle as oracle
from callable_kernel_oracle import common_kernel
from skewfield.linalg import (coordinates_in_span, difference_rows,
                              eliminate, identity, in_span, invert,
                              kernel_basis, rank, same_span, solve)
from skewfield.numfield import NumberField
from skewfield.qalg import QuatElement, QuaternionAlgebra, mul_matrix

Q0 = Fraction(0)


def vec(*xs):
    return [Fraction(x) for x in xs]


def test_kernel_basis_without_rows_is_the_identity_basis():
    assert kernel_basis([], 3) == [vec(1, 0, 0), vec(0, 1, 0),
                                   vec(0, 0, 1)]


def test_identity_and_difference_rows():
    assert identity(2) == (((1, 0), (0, 1)), 1)
    # A = [[1, 1/2]], B = [[1/3, 0]]: 6 (A - B) = [[4, 3]]
    assert difference_rows((((2, 1),), 2), (((1, 0),), 3)) == [[4, 3]]


# The matrix route against the callable oracle that it replaced: the
# kernels must be equal, not only span the same space.

def test_common_kernel_is_the_fixed_space_of_conjugation():
    field = NumberField([-2, 0, 1])
    conj = next(a for a in field.automorphisms() if not a.is_identity())
    fixed = kernel_basis(difference_rows(conj.int_matrix(), identity(2)), 2)
    assert same_span(fixed, [vec(1, 0)])
    assert fixed == common_kernel([lambda x: conj(x) - x], field.basis(),
                                  lambda x: x.coords)
    assert kernel_basis([], 2) == [vec(1, 0), vec(0, 1)] == \
        common_kernel([], field.basis(), lambda x: x.coords)


def test_common_kernel_is_the_centralizer_of_i():
    alg = QuaternionAlgebra(NumberField([0, 1]), -1, -1)
    i = alg.i()
    cent = kernel_basis(difference_rows(mul_matrix(i, 'L'),
                                        mul_matrix(i, 'R')), 4)
    assert len(cent) == 2
    assert same_span(cent, [alg.one().q_vector(), i.q_vector()])
    assert cent == common_kernel([lambda x: i * x - x * i], alg.q_basis(),
                                 QuatElement.q_vector)


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
        coords = coordinates_in_span(vectors, target)
        assert in_span(vectors, target) == (coords is not None)
        if coords is not None:
            assert [sum(c * v[k] for c, v in zip(coords, vectors))
                    for k in range(3)] == target
    assert in_span([], vec(0, 0)) and coordinates_in_span([], vec(0, 0)) == []
    assert not in_span([], vec(1, 0))
    assert coordinates_in_span([], vec(1, 0)) is None


def test_solve_and_invert_detect_singular_systems():
    assert solve([vec(1, 1), vec(1, 1)], vec(1, 2), 2) is None
    assert solve([vec(1, 1), vec(1, -1)], vec(2, 0), 2) == vec(1, 1)
    assert invert([vec(1, 2), vec(2, 4)]) is None
    assert invert([vec(2, 0), vec(0, 4)]) == [
        [Fraction(1, 2), Q0], [Q0, Fraction(1, 4)]]


# ---------------------------------------------------------------------------
# the integer echelon against the Fraction oracle
# ---------------------------------------------------------------------------

def _entry(rng, big, frac):
    x = rng.randint(-10 ** 12, 10 ** 12) if big else rng.randint(-5, 5)
    if frac and rng.random() < 0.5:
        return Fraction(x, rng.randint(1, 12))
    return x


def _random_matrix(rng, largest=False):
    """A seeded rational matrix: its shape, rank, zero rows and columns,
    entry size and integrality all vary.  Most are small, a few up to 40x33;
    entries up to 10^12 only in the small ones, to keep the oracle quick."""
    large = largest or rng.random() < 0.05
    if largest:
        m, n = 40, 33
    elif large:
        m, n = rng.randint(13, 40), rng.randint(11, 33)
    else:
        m, n = rng.randint(0, 12), rng.randint(1, 10)
    big, frac = not large and rng.random() < 0.25, rng.random() < 0.5
    if m and rng.random() < 0.4:
        # rank-deficient: a product through a thin inner dimension
        inner = rng.randint(0, min(m, n))
        left = [[_entry(rng, False, frac) for _ in range(inner)] for _ in range(m)]
        right = [[_entry(rng, big, frac) for _ in range(n)] for _ in range(inner)]
        rows = [[sum((a * b for a, b in zip(lr, col)), 0) for col in zip(*right)]
                for lr in left] if inner else [[0] * n for _ in range(m)]
    else:
        rows = [[_entry(rng, big, frac) for _ in range(n)] for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        if rows and rng.random() < 0.5:
            rows[rng.randrange(m)] = [0] * n
        else:
            c = rng.randrange(n)
            for row in rows:
                row[c] = 0
    return rows, n, big, frac


def _combination(rng, vectors, n):
    coeffs = [rng.randint(-3, 3) for _ in vectors]
    return [sum((c * v[i] for c, v in zip(coeffs, vectors)), 0) for i in range(n)]


def test_echelon_agrees_with_the_fraction_oracle():
    rng = random.Random(20)
    seen = set()
    for k in range(300):
        rows, n, big, frac = _random_matrix(rng, largest=k == 0)
        m = len(rows)

        work = [list(row) for row in rows]
        pivots = eliminate(work, n)
        want = [list(row) for row in rows]
        assert pivots == oracle.eliminate(want, n)
        assert all(type(x) is int for row in work for x in row)
        for r, c in enumerate(pivots):
            assert [Fraction(x, work[r][c]) for x in work[r]] == want[r]
        assert not any(x for row in work[len(pivots):] for x in row)

        assert rank(rows, n) == oracle.rank(rows, n) == len(pivots)
        assert kernel_basis(rows, n) == oracle.kernel_basis(rows, n)
        consistent = _combination(rng, [list(c) for c in zip(*rows)], m)
        for rhs in (consistent, [_entry(rng, big, frac) for _ in range(m)]):
            sol = solve(rows, rhs, n)
            assert sol == oracle.solve(rows, rhs, n)
            seen.add('inconsistent' if sol is None else 'consistent')
        square = rows[:n] + [[_entry(rng, big, frac) for _ in range(n)]
                             for _ in range(n - m)]
        inverse = invert(square)
        assert inverse == oracle.invert(square)
        seen.add('singular' if inverse is None else 'invertible')

        inside = _combination(rng, rows, n)
        for target in (inside, [_entry(rng, big, frac) for _ in range(n)]):
            assert coordinates_in_span(rows, target) == \
                oracle.coordinates_in_span(rows, target)
        others = [_combination(rng, rows, n) for _ in range(rng.randint(0, 4))]
        for ws in (others, others + [[_entry(rng, big, frac) for _ in range(n)]]):
            assert same_span(rows, ws) == oracle.same_span(rows, ws)
        seen.add('overdetermined' if m > n else 'square' if m == n
                 else 'underdetermined')
        if len(pivots) < min(m, n):
            seen.add('rank-deficient')
    assert seen == {'consistent', 'inconsistent', 'singular', 'invertible',
                    'overdetermined', 'square', 'underdetermined',
                    'rank-deficient'}
