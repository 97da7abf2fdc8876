"""Gauss-Jordan elimination over Fraction: a slow, independent oracle.

This is plain textbook elimination, one Fraction division per pivot row and
one Fraction multiply-subtract per entry, with no integer scaling at all.
The kernel, solve, inverse, rank and span routines are written on top of it
exactly as the library states its results: kernel vectors carry a 1 in
their free column, solutions set the free variables to 0.  The tests
compare the library's integer echelon against it.
"""

from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)


def eliminate(rows, ncols):
    """Row-reduce ``rows`` in place to reduced echelon form; pivot columns."""
    rows[:] = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(rows, ncols=None):
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    return len(eliminate([list(row) for row in rows], ncols))


def kernel_basis(rows, ncols):
    work = [list(row) for row in rows]
    pivots = eliminate(work, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Q0] * ncols
        vec[f] = Q1
        for r, c in enumerate(pivots):
            vec[c] = -work[r][f]
        basis.append(vec)
    return basis


def solve(rows, rhs, ncols):
    work = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = eliminate(work, ncols)
    if any(row[ncols] != 0 for row in work[len(pivots):]):
        return None
    sol = [Q0] * ncols
    for r, c in enumerate(pivots):
        sol[c] = work[r][ncols]
    return sol


def invert(rows):
    n = len(rows)
    work = [list(row) + [Q1 if j == i else Q0 for j in range(n)]
            for i, row in enumerate(rows)]
    if len(eliminate(work, n)) != n:
        return None
    return [row[n:] for row in work]


def coordinates_in_span(vectors, target):
    if not vectors:
        return [] if all(x == 0 for x in target) else None
    rows = [[v[i] for v in vectors] for i in range(len(target))]
    return solve(rows, list(target), len(vectors))


def same_span(vs, ws):
    return rank(vs) == rank(ws) == rank(vs + ws)
