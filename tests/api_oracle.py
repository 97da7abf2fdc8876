"""Library routines that no library code calls, kept as plain functions.

``is_abelian`` and ``is_cyclic`` were ``fep.FiniteGroup`` methods,
``from_center`` was ``galois.Extension.from_center``, ``same_subfield``
was ``numfield.same_subfield`` and ``from_left`` was
``ore.SkewFraction.from_left``.  The tests use them to state facts about
what the library builds.
"""

from itertools import combinations

from skewfield.linalg import same_span
from skewfield.ore import SkewFraction, SkewPoly, constant_poly, ore_right_lcm


def is_abelian(G):
    """Commuting generators make the whole group commute."""
    return all(G.op(a, b) == G.op(b, a)
               for a, b in combinations(G.generators, 2))


def is_cyclic(G):
    return any(G.element_order(a) == G.order for a in range(G.order))


def from_center(ext, fm):
    """The element of ext's group with center action fm."""
    return ext.group[ext.index_of(fm)]


def same_subfield(emb1, emb2):
    """Whether two embeddings into the same field have equal images."""
    if emb1.target != emb2.target:
        return False
    return same_span(emb1.image_basis(), emb2.image_basis())


def from_left(den, num):
    """A left fraction den^{-1} * num as a right fraction.

    A common right multiple num*u = den*v rewrites den^{-1} num as
    v * u^{-1}.
    """
    if den.is_zero():
        raise ZeroDivisionError("fraction with zero denominator")
    if num.is_zero():
        return SkewFraction(SkewPoly(den.twist, []),
                            constant_poly(den.twist, 1))
    _, u, v = ore_right_lcm(num, den)
    return SkewFraction(v, u)
