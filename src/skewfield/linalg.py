"""Exact dense linear algebra over the rationals, eliminated in integers.

Entries are ``int`` or ``fractions.Fraction``.  Every routine runs on one
fraction-free Gauss-Jordan echelon (Bareiss): each row is scaled to
integers once, by the lcm of its denominators, and every later entry is an
integer minor of the scaled matrix, so each division is exact.  Rationals
are made only at the end, as entry over pivot, so results are exact values
of the reduced echelon form: kernel vectors carry a 1 in their free column,
and solutions set the free variables to 0.  A linear map is a (rows, den)
integer matrix over one denominator; ``difference_rows`` stacks the rows
whose kernel is where two such maps agree.
"""

from fractions import Fraction
from math import lcm

_Q0 = Fraction(0)
_Q1 = Fraction(1)


def eliminate(rows, ncols):
    """Bring ``rows`` in place to fraction-free reduced echelon form.

    Returns the list of pivot column indices.  Afterwards every entry is an
    int, all pivots equal one integer d, and pivot row r divided by d is row
    r of the reduced echelon form; the rows past the rank vanish in the
    first ``ncols`` columns.  ``rows`` may have more or fewer rows than
    ``ncols``; trailing columns beyond ``ncols`` (for an augmented system)
    are carried along but never pivoted on.  Each row is replaced by a new
    list, so the row objects passed in are left as they were.
    """
    for i, row in enumerate(rows):
        den = lcm(*[x.denominator for x in row])
        rows[i] = [x.numerator * (den // x.denominator) for x in row]
    pivots = []
    prev = 1
    m = len(rows)
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot_row = rows[r]
        piv = pivot_row[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(piv * x - f * y) // prev
                           for x, y in zip(row, pivot_row)]
            elif piv != prev and any(row):
                rows[i] = [piv * x // prev for x in row]
        prev = piv
        pivots.append(c)
    return pivots


def rank(rows, ncols=None):
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(eliminate(list(rows), ncols))


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix given by ``rows``."""
    work = list(rows)
    pivots = eliminate(work, ncols)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [_Q0] * ncols
        vec[f] = _Q1
        for r, c in enumerate(pivots):
            vec[c] = Fraction(-work[r][f], work[r][c])
        basis.append(vec)
    return basis


def solve(rows, rhs, ncols):
    """One solution of ``rows * x = rhs``, free variables 0, or None."""
    work = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = eliminate(work, ncols)
    if any(row[ncols] for row in work[len(pivots):]):
        return None
    sol = [_Q0] * ncols
    for r, c in enumerate(pivots):
        sol[c] = Fraction(work[r][ncols], work[r][c])
    return sol


def invert(rows):
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    work = [list(row) + [int(j == i) for j in range(n)]
            for i, row in enumerate(rows)]
    if len(eliminate(work, n)) != n:
        return None
    return [[Fraction(x, row[r]) for x in row[n:]]
            for r, row in enumerate(work)]


def in_span(vectors, target):
    """Whether ``target`` lies in the span of ``vectors`` (all same length)."""
    return coordinates_in_span(vectors, target) is not None


def coordinates_in_span(vectors, target):
    """Coefficients expressing ``target`` over ``vectors``, or None."""
    if not vectors:
        return [] if all(x == 0 for x in target) else None
    return solve(list(zip(*vectors)), target, len(vectors))


def same_span(vs, ws):
    """Whether the two lists of vectors span the same space."""
    return rank(vs) == rank(ws) == rank(vs + ws)


def identity(n):
    """The n x n identity as a (rows, den) integer matrix."""
    return tuple(tuple(int(c == r) for c in range(n)) for r in range(n)), 1


def difference_rows(a, b):
    """Integer rows of da*db*(A - B), for A = a[0]/da and B = b[0]/db.

    a and b are (rows, den) matrices of one shape; the rows have the kernel
    of A - B and go straight to ``kernel_basis``.
    """
    (a, da), (b, db) = a, b
    return [[x * db - y * da for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
