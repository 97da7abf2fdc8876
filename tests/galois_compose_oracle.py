"""Galois groups by composing automorphisms: a slow, independent oracle.

The group table, the restriction map and the generating subset as they
ran before extensions carried their own index table: every product is an
``AlgebraAutomorphism.compose`` (or ``FieldMorphism.compose``) and every
lookup is a dictionary on, or a scan over, the composed objects.  The
restriction map returns its dictionary from big-side elements to
small-side elements; the homomorphism check runs on the full table of
composites.

The product conditions, the direct-product test and the lift builder as
they ran before composites were trusted: normality conjugates by
c^(order - 1), the central twist is compared with each group element as
composed maps, and the lifts re-check every base polynomial up to the
degree bound and rho against every twist power.

The Artin fixed set, outer-ness and the normality of Gal in <Gal, tau> as
they ran before they were certified by theorem: the fixed set of a
generating subset and the centralizer of the embedded base generators as
integer kernels of width 4 [ell:Q], and normality as tau Gal = Gal tau.
"""

from skewfield.galois import (GaloisExtension, PolyLift,
                              ProductConditionFailed, ProductReport,
                              TwistedFunctionExtension, WitnessInvalid,
                              _center_action, _generating_subset,
                              fixed_center_tower)
from skewfield.linalg import difference_rows, identity, kernel_basis, same_span
from skewfield.numfield import cyclic_powers, is_galois, restrict_morphism
from skewfield.ore import SkewPoly, _algebra_generators
from skewfield.qalg import inner_order, mul_matrix


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


def eq_produit(X):
    """Whether the central twist generates a direct factor next to the group."""
    tau_t = X.tau_tilde
    gal = X.ext.center_group()
    powers = cyclic_powers(tau_t)
    commutes = all(tau_t.compose(r) == r.compose(tau_t) for r in gal)
    overlap = [p for p in powers if p in gal]
    return commutes and len(overlap) == 1


def check_product_conditions(X):
    """Exact evaluation of the product conditions on the finite groups."""
    sigma, tau = X.sigma, X.tau
    gal = list(X.ext.group)
    ord_sigma, ord_tau = sigma.order(), tau.order()
    tau_powers = cyclic_powers(tau)
    # closure of gal and tau
    closure = set(gal)
    frontier = list(closure)
    gens = gal + [tau]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = g.compose(f)
                if h not in closure:
                    closure.add(h)
                    nxt.append(h)
        frontier = nxt
        if len(closure) > 4 * len(gal) * ord_tau:
            raise AssertionError("closure exploded; inputs are inconsistent")
    product_set = {g.compose(p) for g in gal for p in tau_powers}
    gal_normal = all(
        c.compose(g).compose(c.power(c.order() - 1)) in set(gal)
        for c in closure for g in gal)
    triv1_i = (closure == product_set
               and len(closure) == len(gal) * len(tau_powers)
               and gal_normal)
    overlap = [p for p in tau_powers if p in gal]
    triv1_ii = (len(overlap) == 1)
    triv1_iii = (ord_tau == ord_sigma)

    sig_t, tau_t = X.sigma_tilde, X.tau_tilde
    triv2_i = eq_produit(X)
    tower = fixed_center_tower(X)
    fixed_tower_galois = (tower is not None
                          and is_galois(tower[1].target, tower[1]))
    triv2_ii = (tau_t.order() == sig_t.order()) and fixed_tower_galois

    return ProductReport(
        triv1_i=triv1_i, triv1_ii=triv1_ii, triv1_iii=triv1_iii,
        triv2_i=triv2_i, triv2_ii=triv2_ii, eq_produit=triv2_i,
        sigma_order=ord_sigma, tau_order=ord_tau,
        sigma_tilde_order=sig_t.order(), tau_tilde_order=tau_t.order(),
        inner_order_sigma=inner_order(sigma), inner_order_tau=inner_order(tau))


def build_twisted_extension(X, degree_bound=4):
    """Lift the Galois group coefficientwise and verify it to a degree bound.

    Requires the direct-product condition; each group element must commute
    with the twist, fix the base polynomials, and act multiplicatively on
    spanning monomial pairs up to the bound.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    if not eq_produit(X):
        raise ProductConditionFailed("central twists do not form a direct product")
    tau = X.tau
    L = X.ext.L
    basis = L.q_basis()
    lifts = []
    for rho in X.ext.group:
        if rho.compose(tau) != tau.compose(rho):
            raise ProductConditionFailed(
                "group element does not commute with the twist")
        lift = PolyLift(rho, tau)
        # fixes the base polynomials
        for x in X.ext.H.q_basis():
            for j in range(degree_bound + 1):
                mono = SkewPoly(tau, [L.zero()] * j + [X.ext.embed_base(x)])
                if lift(mono) != mono:
                    raise AssertionError("lift moves a base polynomial")
        # multiplicativity on monomial pairs x t^i * y t^j reduces to the
        # commutation of rho with every twist power, since rho is already
        # multiplicative on the algebra
        for i in range(degree_bound + 1):
            tw = tau.power(i)
            for y in basis:
                if rho(tw(y)) != tw(rho(y)):
                    raise AssertionError("lift is not multiplicative")
        # and literally on a sample of full products
        for x in basis[:3]:
            for y in basis[:3]:
                for i in range(min(degree_bound, 2) + 1):
                    px = SkewPoly(tau, [L.zero()] * i + [x])
                    py = SkewPoly(tau, [y, y])
                    if lift(px * py) != lift(px) * lift(py):
                        raise AssertionError("lift is not multiplicative")
        # restriction to constants is the group element itself
        for x in basis:
            if lift(SkewPoly(tau, [x])).coefficient(0) != rho(x):
                raise AssertionError("lift does not restrict to the element")
        lifts.append(lift)
    return TwistedFunctionExtension(X, lifts, degree_bound)


def check_artin(ext):
    """Fixed set of the group compared with the embedded base."""
    dim = ext.L.q_dim()
    fixed = kernel_basis([
        row for n in _generating_subset(ext.table)
        for row in difference_rows(ext.group[n].int_matrix(),
                                   identity(dim))], dim)
    base_img = [ext.embed_base(x).q_vector() for x in ext.H.q_basis()]
    return same_span(fixed, base_img)


def is_outer(ext):
    """Centralizer of the base inside L compared with the center of L."""
    L = ext.L
    gens = [ext.embed_base(g) for g in _algebra_generators(ext.H)]
    cent = kernel_basis([row for g in gens for row in difference_rows(
        mul_matrix(g, 'L'), mul_matrix(g, 'R'))], L.q_dim())
    center_vecs = [L.scalar(b).q_vector() for b in L.base.basis()]
    return same_span(cent, center_vecs)


def gal_normal(X):
    """Whether tau Gal = Gal tau, tau being of finite order."""
    tau = X.tau
    gal = list(X.ext.group)
    return {tau.compose(g) for g in gal} == {g.compose(tau) for g in gal}
