"""Galois groups by composing automorphisms: a slow, independent oracle.

The group table, the restriction map and the generating subset as they
ran before extensions carried their own index table: every product is an
``AlgebraAutomorphism.compose`` (or ``FieldMorphism.compose``) and every
lookup is a dictionary on, or a scan over, the composed objects.  The
restriction map returns its dictionary from big-side elements to
small-side elements; the homomorphism check runs on the full table of
composites.
"""

from skewfield.galois import GaloisExtension, WitnessInvalid, _center_action
from skewfield.numfield import restrict_morphism


def group_table(ext):
    """The multiplication table of ext.group, by composing elements."""
    elements = list(ext.group)
    if not elements[0].is_identity():
        raise AssertionError("extension group does not lead with identity")
    idx = {}
    for n, e in enumerate(elements):
        idx[e] = n
    return [[idx[a.compose(b)] for b in elements] for a in elements]


def restriction_map(big, small, witness, small_to_big=None):
    """The composite restriction as a dict big element -> small element."""
    witness.validate(big, small)
    small_group = small.center_group()
    table = {}
    for g in big.group:
        try:
            rho0 = restrict_morphism(_center_action(g), witness.emb_l0_big)
        except ValueError as exc:
            raise WitnessInvalid('restriction', str(exc))
        matches = [s for s in small_group
                   if restrict_morphism(s, witness.emb_l0_small) == rho0]
        if len(matches) != 1:
            raise WitnessInvalid('uniqueness',
                                 "%d matches on the small side" % len(matches))
        table[g] = next(a for a in small.group
                        if _center_action(a) == matches[0])
    # homomorphism property on the full multiplication table
    for g1 in big.group:
        for g2 in big.group:
            if table[g1.compose(g2)] != table[g1].compose(table[g2]):
                raise WitnessInvalid('homomorphism', "table not multiplicative")
    if small_to_big is not None:
        basis = (small.L.q_basis() if isinstance(small, GaloisExtension)
                 else small.ell.basis())
        for g in big.group:
            for x in basis:
                if small_to_big(table[g](x)) != g(small_to_big(x)):
                    raise WitnessInvalid('pointwise',
                                         "restriction disagrees on an element")
    return table


def generating_subset(group):
    """A small subset generating the (finite) group, greedily."""
    identity = next(g for g in group if g.is_identity())
    gens = []
    closure = {identity}
    for g in group:
        if g in closure:
            continue
        gens.append(g)
        frontier = [g]
        while frontier:
            nxt = []
            for f in frontier:
                for x in gens:
                    for h in (x.compose(f), f.compose(x)):
                        if h not in closure:
                            closure.add(h)
                            nxt.append(h)
            frontier = nxt
        if len(closure) == len(group):
            break
    return gens
