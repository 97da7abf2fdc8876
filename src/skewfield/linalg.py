"""Exact dense linear algebra over any field-like coefficient type.

Entries must support +, -, *, /, unary minus and == against 0.  Both
``fractions.Fraction`` and the number-field elements of this package
qualify.  Everything works on small matrices; no pivoting strategy beyond
"first nonzero" is needed because the arithmetic is exact.
"""


def eliminate(rows, ncols):
    """Row-reduce ``rows`` in place to reduced echelon form.

    Returns the list of pivot column indices.  ``rows`` may have more or
    fewer rows than ``ncols``; trailing columns beyond ``ncols`` (for an
    augmented system) are carried along but never pivoted on.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c] == 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c] == 0:
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
    work = [list(row) for row in rows]
    return len(eliminate(work, ncols))


def kernel_basis(rows, ncols, zero, one):
    """Basis of the right kernel of the matrix given by ``rows``."""
    work = [list(row) for row in rows]
    pivots = eliminate(work, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, c in enumerate(pivots):
            vec[c] = -work[r][f]
        basis.append(vec)
    return basis


def solve(rows, rhs, ncols, zero):
    """One solution of ``rows * x = rhs`` or None if inconsistent.

    Free variables are set to zero.
    """
    work = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = eliminate(work, ncols)
    for row in work[len(pivots):]:
        if not row[ncols] == 0:
            return None
    sol = [zero] * ncols
    for r, c in enumerate(pivots):
        sol[c] = work[r][ncols]
    return sol


def invert(rows, zero, one):
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    work = []
    for i, row in enumerate(rows):
        aug = [one if j == i else zero for j in range(n)]
        work.append(list(row) + aug)
    pivots = eliminate(work, n)
    if len(pivots) != n:
        return None
    return [row[n:] for row in work]


def in_span(vectors, target, zero):
    """Whether ``target`` lies in the span of ``vectors`` (all same length)."""
    return coordinates_in_span(vectors, target, zero) is not None


def coordinates_in_span(vectors, target, zero):
    """Coefficients expressing ``target`` over ``vectors``, or None."""
    if not vectors:
        return [] if all(x == 0 for x in target) else None
    cols = len(vectors)
    dim = len(target)
    rows = [[vectors[j][i] for j in range(cols)] for i in range(dim)]
    return solve(rows, list(target), cols, zero)


def same_span(vs, ws):
    """Whether the two lists of vectors span the same space."""
    return rank(vs) == rank(ws) == rank(vs + ws)


def common_kernel(maps, basis, vector_of, zero, one):
    """Coordinates over ``basis`` of the elements every linear map sends to 0.

    Each map takes an element to an element; ``vector_of`` gives the
    coordinate vector of an image.  With no maps this is the identity basis.
    """
    rows = []
    for f in maps:
        rows.extend(zip(*[vector_of(f(e)) for e in basis]))
    return kernel_basis(rows, len(basis), zero, one)
