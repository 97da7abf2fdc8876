"""Kernels of linear maps given as callables: a slow, independent oracle.

This is how kernels ran before every linear map carried an integer
matrix: each map is applied to every basis element and the image is read
back as a rational coordinate vector, one column per basis element.  The
tests compare the fixed fields, Artin fixed spaces and centralizers of the
library's matrix route against it.
"""

from skewfield.linalg import kernel_basis


def common_kernel(maps, basis, vector_of):
    """Coordinates over ``basis`` of the elements every linear map sends to 0.

    Each map takes an element to an element; ``vector_of`` gives the
    rational coordinate vector of an image.  With no maps this is the
    identity basis.
    """
    rows = []
    for f in maps:
        rows.extend(zip(*[vector_of(f(e)) for e in basis]))
    return kernel_basis(rows, len(basis))
