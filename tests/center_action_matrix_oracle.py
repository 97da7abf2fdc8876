"""Quaternion automorphisms through quaternion products: a slow oracle.

``relation_failure``, ``int_matrix``, ``apply`` and ``inverse_images`` are
the construction check, the matrix, the application and the inverse of
``AlgebraAutomorphism`` as they ran before automorphisms that fix i and j
were built from their center action alone: the three defining relations
are always checked by quaternion products, and column u * deg + i of the
matrix is always the product of the image of e_u with
center_action(gen^i), whatever the images of i and j are.  The tests
compare the library's automorphisms against it.
"""

from skewfield.linalg import invert
from skewfield.qalg import q_matrix, quat_from_q_vector


def relation_failure(owner, image_i, image_j, center_action):
    """The message the relation check raises, or None when all hold."""
    ca, cb = center_action(owner.a), center_action(owner.b)
    if image_i * image_i != owner.scalar(ca):
        return "image of i violates i^2 = a"
    if image_j * image_j != owner.scalar(cb):
        return "image of j violates j^2 = b"
    if image_i * image_j != -(image_j * image_i):
        return "images violate anticommutation"
    return None


def int_matrix(auto):
    """(rows, den) of the map on q-vectors, from quaternion products."""
    owner = auto.owner
    return q_matrix([
        unit.scale(auto.center_action(power))
        for unit in (owner.one(), auto.image_i, auto.image_j,
                     auto.image_i * auto.image_j)
        for power in owner.base.basis()])


def apply(auto, x):
    """x through every entry of the oracle matrix."""
    rows, den = int_matrix(auto)
    return quat_from_q_vector(auto.owner, [
        sum(v * c for v, c in zip(row, x.q_vector())) / den for row in rows])


def inverse_images(auto):
    """The images of i and j under the inverse, from the inverted matrix."""
    rows, den = int_matrix(auto)
    m, n = invert(rows), auto.owner.base.degree
    return tuple(quat_from_q_vector(auto.owner,
                                    [den * row[u * n] for row in m])
                 for u in (1, 2))
