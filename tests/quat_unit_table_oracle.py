"""Quaternion product from a table of unit products: an independent oracle.

The units e = (1, i, j, k) multiply as e_p e_q = sign * c * e_r with c one
of the constants (1, a, b, ab), written out below as a literal table.  A
product sums those terms over the nonzero coordinates, one ``FieldElement``
product per term, with no integer packing at all.  The tests compare the
library's packed product against it.
"""

# entry [p][q] is (r, sign, c) with c an index into (1, a, b, ab)
UNITS = (
    ((0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)),
    ((1, 1, 0), (0, 1, 1), (3, 1, 0), (2, 1, 1)),
    ((2, 1, 0), (3, -1, 0), (0, 1, 2), (1, -1, 2)),
    ((3, 1, 0), (2, -1, 1), (1, 1, 2), (0, -1, 3)),
)


def product_coords(alg, x, y):
    """Coordinates of x y as a tuple of four center elements."""
    consts = (alg.base.one(), alg.a, alg.b, alg.a * alg.b)
    out = [alg.base.zero()] * 4
    for p, xp in enumerate(x.coords):
        if xp.is_zero():
            continue
        for q, yq in enumerate(y.coords):
            if yq.is_zero():
                continue
            r, sign, c = UNITS[p][q]
            t = consts[c] * (xp * yq)
            out[r] = out[r] + t if sign > 0 else out[r] - t
    return tuple(out)
