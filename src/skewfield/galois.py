"""Galois extensions of quaternion division rings and their twists.

A finite Galois extension of a division ring finite-dimensional over its
center is a scalar extension by a Galois extension of the center on which
the reduced-norm form stays anisotropic.  Its automorphisms fix the
quaternion units and act on the center, which determines them, so each
extension keeps its group as one verified index table on center actions.
Construction refuses anything without an anisotropy certificate; the
Artin fixed-set property and outer-ness follow by theorem from hypotheses
checked there.

Restriction maps between such extensions are composed out of commutative
restrictions through an auxiliary tower witness, checked on the two group
tables and post-verified pointwise.  The direct-product condition on the
central twists governs when the twisted function fields form a Galois
extension with the same group; the lifts acting coefficientwise are built
and checked to a degree bound.
"""

from .numfield import (FieldMorphism, Immutable, automorphism_group,
                       cyclic_powers, fixed_field, is_galois,
                       restrict_morphism, subfield_preimage)
from .ore import HypothesisFailed, SkewPoly
from .qalg import (AlgebraAutomorphism, QuaternionAlgebra, anisotropy,
                   extend_quaternion, inner_order, norm_form)


class NotGalois(Exception):
    """The commutative extension offered is not Galois."""


class NotAnisotropic(Exception):
    """Construction refused: no anisotropy certificate for the norm form."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__("norm form verdict is %s, not anisotropic"
                         % verdict.kind)


class WitnessInvalid(Exception):
    """A restriction witness condition failed."""

    def __init__(self, condition, detail=''):
        self.condition = condition
        super().__init__("witness condition %s failed%s"
                         % (condition, ': ' + detail if detail else ''))


class ProductConditionFailed(Exception):
    """The direct-product condition on the central twists does not hold."""


class NoDirectDecomposition(ValueError):
    """The Galois group is no direct product of the requested shape."""


# ---------------------------------------------------------------------------
# commutative and quaternionic extensions under one interface
# ---------------------------------------------------------------------------

def _center_action(g):
    """The action on the center: itself for a field automorphism."""
    return g.center_action if isinstance(g, AlgebraAutomorphism) else g


class Extension(Immutable):
    """Base of the extensions: the group with its verified index table.

    An element is keyed by its center generator image; table[a][b] is the
    index of center(a)(center(b).gen_image), the key of a after b.  Each
    subclass keeps its center field as ``ell`` and the embedding of the
    base center into it as ``emb``.
    """

    __slots__ = ('group', 'table', '_index')

    @property
    def center_field(self):
        return self.ell

    @property
    def center_emb(self):
        return self.emb

    def _set_group(self, group):
        group = tuple(group)
        if not group[0].is_identity():
            raise AssertionError("extension group does not lead with identity")
        actions = [_center_action(g) for g in group]
        index = {fm.gen_image: n for n, fm in enumerate(actions)}
        if len(index) != len(group):
            raise AssertionError("two group elements share a center action")
        table = tuple(tuple(index.get(a(b.gen_image), -1) for b in actions)
                      for a in actions)
        if any(-1 in row for row in table):
            raise AssertionError("extension group is not closed")
        object.__setattr__(self, 'group', group)
        object.__setattr__(self, 'table', table)
        object.__setattr__(self, '_index', index)

    def center_group(self):
        return [_center_action(g) for g in self.group]

    def index_of(self, elem):
        """Index of a group element, or of the one with that center action."""
        n = self._index.get(_center_action(elem).gen_image)
        if n is None or elem not in (self.group[n],
                                     _center_action(self.group[n])):
            raise ValueError("not in the Galois group")
        return n


class CommExtension(Extension):
    """Finite Galois extension of number fields with its full group."""

    __slots__ = ('ell', 'emb')

    def __init__(self, ell, emb, group):
        super().__init__(ell, emb)
        self._set_group(group)

    def degree(self):
        return self.ell.degree // self.emb.source.degree

    def __repr__(self):
        return 'CommExtension(%s / %s, order %d)' % (
            self.ell.label, self.emb.source.label, len(self.group))


def build_comm_extension(ell, k_emb):
    group = automorphism_group(ell, k_emb)
    if len(group) * k_emb.source.degree != ell.degree:
        raise NotGalois("%s over %s is not Galois"
                        % (ell.label, k_emb.source.label))
    return CommExtension(ell, k_emb, group)


class GaloisExtension(Extension):
    """L = H tensored with ell over the center h, with its Galois group.

    Group elements fix i and j and act on the center, which determines
    them.  The flags are theorems on hypotheses checked here (a failure
    raises AssertionError).  Artin: the center actions are |G| distinct
    automorphisms of ell fixing emb(h) and |G| [h:Q] = [ell:Q], so
    ell^G = emb(h) by Artin's theorem, and G acts coordinatewise on
    ell + ell i + ell j + ell ij, so L^G is the embedded H.  Outer: L has
    the parameters emb(a), emb(b), so it is H tensored with ell, where the
    centralizer of H is ell by the double centralizer theorem (Voight,
    Quaternion Algebras, ch. 7).
    """

    __slots__ = ('H', 'ell', 'emb', 'L', 'verdict',
                 'artin_verified', 'outer_verified')

    def __init__(self, H, ell, emb, L, group, verdict):
        if any(a.image_i != L.i() or a.image_j != L.j() for a in group):
            raise AssertionError("a group element moves i or j")
        if (L.base != ell or emb.target != ell
                or L.a != emb(H.a) or L.b != emb(H.b)):
            raise AssertionError("L is not H tensored with ell along emb")
        self._set_group(group)
        if len(self.group) * H.base.degree != ell.degree:
            raise AssertionError("group order times [h:Q] is not [ell:Q]")
        h_gen = emb(H.base.gen())
        if any(s(h_gen) != h_gen for s in self.center_group()):
            raise AssertionError("a group element moves the base center")
        super().__init__(H, ell, emb, L, verdict, True, True)

    def __repr__(self):
        return 'GaloisExtension(%s / %s, order %d)' % (
            self.L.label, self.H.label, len(self.group))

    def degree(self):
        return len(self.group)

    def embed_base(self, x):
        return extend_quaternion(x, self.L, self.emb)


def build_galois_extension(H, ell, emb, height_bound=8):
    """Construct the Galois extension of H along ell, or refuse loudly.

    Raises NotGalois when ell is not Galois over the embedded center, and
    NotAnisotropic when the norm form over ell lacks an anisotropy
    certificate (an isotropy witness means the extension has zero
    divisors; unknown means it stays undecided at this height bound).
    """
    if emb.source != H.base or emb.target != ell:
        raise ValueError("embedding must map the center of H into ell")
    center_group = build_comm_extension(ell, emb).group
    verdict = anisotropy(norm_form(H, ell, emb), height_bound)
    if verdict.kind != 'anisotropic':
        raise NotAnisotropic(verdict)
    L = QuaternionAlgebra(ell, emb(H.a), emb(H.b),
                          label='%s(x)%s' % (H.label, ell.label),
                          division_certified=True, extension_of=(H, emb))
    group = [AlgebraAutomorphism(L, L.i(), L.j(), s) for s in center_group]
    return GaloisExtension(H, ell, emb, L, group, verdict)


def _generating_subset(table):
    """Indices of a small subset generating the table group, greedily.

    Every element is reached from a chosen one by multiplying with chosen
    ones on either side, so the subset generates the table under products
    even before the table is known to be associative.
    """
    gens = []
    closure = {0}
    for g in range(len(table)):
        if g in closure:
            continue
        gens.append(g)
        frontier = [g]
        while frontier:
            nxt = []
            for f in frontier:
                for x in gens:
                    for h in (table[x][f], table[f][x]):
                        if h not in closure:
                            closure.add(h)
                            nxt.append(h)
            frontier = nxt
        if len(closure) == len(table):
            break
    return gens


# ---------------------------------------------------------------------------
# general restriction maps through an auxiliary tower
# ---------------------------------------------------------------------------

class RestrictionWitness(Immutable):
    """Auxiliary tower l0/k0 with the embeddings tying two extensions.

    Conditions checked by validate(): the embedding squares commute, the
    larger small-side field is Galois over k0 with matching degree, and the
    two fixing subgroups intersect trivially.
    """

    __slots__ = ('ell0', 'k0_emb', 'emb_l0_big', 'emb_l0_small',
                 'emb_k0_big', 'emb_k0_small')

    def validate(self, big, small):
        k0 = self.k0_emb.source
        if self.ell0.degree % k0.degree:
            raise WitnessInvalid('2b', "l0 degree not divisible by k0 degree")
        # 2a: squares k0 -> l0 -> l_X equal k0 -> k_X -> l_X
        via_l0_big = self.emb_l0_big.compose(self.k0_emb)
        via_k_big = big.center_emb.compose(self.emb_k0_big)
        if via_l0_big != via_k_big:
            raise WitnessInvalid('2a', "big-side square does not commute")
        via_l0_small = self.emb_l0_small.compose(self.k0_emb)
        via_k_small = small.center_emb.compose(self.emb_k0_small)
        if via_l0_small != via_k_small:
            raise WitnessInvalid('2a', "small-side square does not commute")
        # 2b: l_small Galois over k0 and [l0:k0] = [l_small:k_small]
        if not is_galois(small.center_field, via_l0_small):
            raise WitnessInvalid('2b', "small field not Galois over k0")
        deg_l0 = self.ell0.degree // k0.degree
        if deg_l0 != small.degree():
            raise WitnessInvalid('2b', "degree of l0/k0 does not match")
        # 2c: Gal(l_small/l0) meets Gal(l_small/k_small) trivially
        fix_l0 = automorphism_group(small.center_field, self.emb_l0_small)
        fix_k = automorphism_group(small.center_field, small.center_emb)
        overlap = [g for g in fix_l0 if g in fix_k]
        if len(overlap) != 1:
            raise WitnessInvalid('2c', "fixing subgroups overlap")


class RestrictionHom(Immutable):
    """Verified homomorphism big.group -> small.group, by small indices."""

    __slots__ = ('big', 'small', 'images')

    def __call__(self, g):
        return self.small.group[self.images[self.big.index_of(g)]]


def restriction_map(big, small, witness, small_to_big=None):
    """The composite restriction Gal(big) -> Gal(small) via the witness.

    When small_to_big is given (an embedding of small's large object into
    big's), the result is post-verified pointwise on every generator and
    basis element; a failure raises WitnessInvalid.
    """
    witness.validate(big, small)
    small_res = [restrict_morphism(s, witness.emb_l0_small)
                 for s in small.center_group()]
    images = []
    for fm in big.center_group():
        try:
            rho0 = restrict_morphism(fm, witness.emb_l0_big)
        except ValueError as exc:
            raise WitnessInvalid('restriction', str(exc))
        matches = [n for n, rho in enumerate(small_res) if rho == rho0]
        if len(matches) != 1:
            raise WitnessInvalid('uniqueness',
                                 "%d matches on the small side" % len(matches))
        images.append(matches[0])
    # homomorphism property on the two multiplication tables
    for a, row in enumerate(big.table):
        for b, ab in enumerate(row):
            if images[ab] != small.table[images[a]][images[b]]:
                raise WitnessInvalid('homomorphism', "table not multiplicative")
    if small_to_big is not None:
        basis = (small.L.q_basis() if isinstance(small, GaloisExtension)
                 else small.ell.basis())
        for g, t in zip(big.group, images):
            for x in basis:
                if small_to_big(small.group[t](x)) != g(small_to_big(x)):
                    raise WitnessInvalid('pointwise',
                                         "restriction disagrees on an element")
    return RestrictionHom(big, small, tuple(images))


def restriction_between(big_ext, small_ext, center_emb):
    """Restriction Gal(F/H) -> Gal(L/H) for nested scalar extensions.

    center_emb is the inclusion of the small center into the big center.
    The witness tower is the small extension itself.  A commutative small
    extension under a quaternionic big one is its center.
    """
    witness = RestrictionWitness(
        ell0=small_ext.center_field,
        k0_emb=small_ext.center_emb,
        emb_l0_big=center_emb,
        emb_l0_small=small_ext.center_field.identity_morphism(),
        emb_k0_big=big_ext.center_emb.source.identity_morphism(),
        emb_k0_small=small_ext.center_emb.source.identity_morphism(),
    )
    if isinstance(small_ext, GaloisExtension):
        def small_to_big(x):
            return extend_quaternion(x, big_ext.L, center_emb)
    elif isinstance(big_ext, GaloisExtension):
        def small_to_big(x):
            return big_ext.L.scalar(center_emb(x))
    else:
        def small_to_big(x):
            return center_emb(x)
    return restriction_map(big_ext, small_ext, witness, small_to_big)


# ---------------------------------------------------------------------------
# twisted extensions and product conditions
# ---------------------------------------------------------------------------

class TwistedExtension(Immutable):
    """A Galois extension L/H with compatible twists on both levels."""

    __slots__ = ('ext', 'sigma', 'tau')

    def __init__(self, ext, sigma, tau):
        if sigma.owner != ext.H:
            raise ValueError("sigma must act on the base algebra")
        if tau.owner != ext.L:
            raise ValueError("tau must act on the extension algebra")
        for x in ext.H.q_basis():
            if tau(ext.embed_base(x)) != ext.embed_base(sigma(x)):
                raise ValueError("tau does not extend sigma")
        super().__init__(ext, sigma, tau)

    @property
    def sigma_tilde(self):
        return self.sigma.center_action

    @property
    def tau_tilde(self):
        return self.tau.center_action

    def __repr__(self):
        return 'TwistedExtension(%r)' % (self.ext,)


def eq_produit(X):
    """Whether the central twist generates a direct factor next to the group."""
    tau_t = X.tau_tilde
    gal = X.ext.center_group()
    commutes = all(tau_t(r.gen_image) == r(tau_t.gen_image) for r in gal)
    return commutes and sum(p in gal for p in cyclic_powers(tau_t)) == 1


class ProductReport(Immutable):

    __slots__ = ('triv1_i', 'triv1_ii', 'triv1_iii', 'triv2_i', 'triv2_ii',
                 'eq_produit', 'sigma_order', 'tau_order',
                 'sigma_tilde_order', 'tau_tilde_order',
                 'inner_order_sigma', 'inner_order_tau')

    def triv1_consistent(self):
        return self.triv1_i == self.triv1_ii == self.triv1_iii

    def triv2_consistent(self):
        return self.triv2_i == self.triv2_ii

    def star_holds(self):
        return self.tau_tilde_order == self.sigma_tilde_order


def fixed_center_tower(X):
    """The fixed field of sigma~ inside the fixed field of tau~.

    Returns (e_emb, k_in_e): the fixed field of tau~ embedded in the
    center of L, and the fixed field of sigma~ embedded in it; None when
    the image of the latter escapes the former.
    """
    e_field, e_emb = fixed_field(X.ext.ell, [X.tau_tilde])
    f_field, f_emb = fixed_field(X.ext.H.base, [X.sigma_tilde])
    # h^<sigma~> sits inside ell^<tau~> when tau extends sigma
    pre = subfield_preimage(e_emb, X.ext.emb(f_emb(f_field.gen())))
    if pre is None:
        return None
    return e_emb, FieldMorphism(f_field, e_field, pre)


def check_product_conditions(X):
    """Exact evaluation of the product conditions on the finite groups.

    Gal is normal in <Gal, tau> by Skolem-Noether: tau extends sigma, so
    it maps the embedded H onto itself, tau g tau^-1 fixes that pointwise,
    and Gal is every such automorphism of L (see GaloisExtension).
    """
    sigma, tau = X.sigma, X.tau
    gal = list(X.ext.group)
    gal_set = set(gal)
    ord_sigma, ord_tau = sigma.order(), tau.order()
    tau_powers = cyclic_powers(tau)
    # Gal is normal, so <Gal, tau> is the product set Gal <tau>
    product_set = {g.compose(p) for g in gal for p in tau_powers}
    triv1_i = len(product_set) == len(gal) * len(tau_powers)
    triv1_ii = sum(p in gal_set for p in tau_powers) == 1
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


# ---------------------------------------------------------------------------
# coefficientwise lifts to the twisted polynomial level
# ---------------------------------------------------------------------------

class PolyLift(Immutable):
    """Coefficientwise action of a group element on twisted polynomials."""

    __slots__ = ('rho', 'twist')

    def __call__(self, p):
        if p.twist != self.twist:
            raise ValueError("polynomial has a different twist")
        return p.map_coefficients(self.rho)


class TwistedFunctionExtension(Immutable):
    """Verified group of lifts on L[t,tau] fixing H[t,sigma] pointwise."""

    __slots__ = ('twisted', 'lifts', 'degree_bound')

    def __init__(self, twisted, lifts, degree_bound):
        super().__init__(twisted, tuple(lifts), degree_bound)

    def restriction(self, lift):
        return lift.rho

    def lift_of(self, rho):
        """The lift of rho; the lifts follow the order of the group."""
        return self.lifts[self.twisted.ext.index_of(rho)]

    def group_order(self):
        return len(self.lifts)


def build_twisted_extension(X, degree_bound=4):
    """Lift the Galois group coefficientwise and verify it to a degree bound.

    Requires the direct-product condition; each group element must commute
    with the twist, which makes its lift multiplicative on monomials x t^i
    of every degree, and fix the base quaternions, which makes its lift fix
    every base polynomial.  A sample of full products is checked literally.
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
        # the lift acts coefficientwise: x t^j is fixed exactly when x is
        for x in X.ext.H.q_basis():
            mono = SkewPoly(tau, [X.ext.embed_base(x)])
            if lift(mono) != mono:
                raise AssertionError("lift moves a base polynomial")
        # multiplicative literally on a sample of full products
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


# ---------------------------------------------------------------------------
# converse check
# ---------------------------------------------------------------------------

class ConverseReport(Immutable):

    __slots__ = ('eq_produit', 'lift_group_order', 'consistent')


def converse_check(X, degree_bound=4):
    """Inner-order hypotheses, then the product conclusion on the instance.

    Raises HypothesisFailed unless the inner order of each twist equals its
    order; then evaluates the product condition, builds the lift group when
    it holds, and reports.
    """
    io_s, o_s = inner_order(X.sigma), X.sigma.order()
    io_t, o_t = inner_order(X.tau), X.tau.order()
    if io_s != o_s:
        raise HypothesisFailed(
            "inner order of the base twist is %d but its order is %d"
            % (io_s, o_s))
    if io_t != o_t:
        raise HypothesisFailed(
            "inner order of the extension twist is %d but its order is %d"
            % (io_t, o_t))
    ep = eq_produit(X)
    order = None
    if ep:
        order = build_twisted_extension(X, degree_bound).group_order()
    consistent = (order is None) or (order == len(X.ext.group) and ep)
    return ConverseReport(ep, order, consistent)


# ---------------------------------------------------------------------------
# the direct-factor builder
# ---------------------------------------------------------------------------

def build_special_case_3(K, ell, k_emb, n, height_bound=8):
    """Direct-factor construction of a twisted extension with the product
    condition holding by design.

    The Galois group of ell over the center of K must decompose as a direct
    product of a cyclic factor of order n and a nontrivial complement; the
    intermediate fixed field of the complement becomes the new base.
    """
    from .fep import GalData

    if n < 2:
        raise ValueError("cyclic factor must have order at least 2")
    if k_emb.source != K.base or k_emb.target != ell:
        raise ValueError("embedding must map the center of K into ell")
    comm = build_comm_extension(ell, k_emb)
    gamma = comm.group
    G = GalData(comm).group
    # by size, then by generator images: this order fixes which
    # decomposition is found first, and so the new base field
    subgroups = sorted(G.subgroups(), key=lambda sub: (
        len(sub), sorted(tuple(gamma[s].gen_image.coords) for s in sub)))
    decomposition = None
    for a in range(G.order):
        if G.element_order(a) != n:
            continue
        a_powers = G.closure([a])
        for sub in subgroups:
            if len(sub) * n != G.order or len(sub) == 1:
                continue
            if a_powers & sub != {0}:
                continue
            if not all(G.op(a, b) == G.op(b, a) for b in sub):
                continue
            decomposition = (gamma[a], [gamma[b] for b in sub])
            break
        if decomposition:
            break
    if decomposition is None:
        raise NoDirectDecomposition(
            "no direct decomposition of the Galois group as a cyclic factor "
            "of order %d times a nontrivial complement" % n)
    a_gen, complement = decomposition
    e_field, e_emb = fixed_field(ell, complement)
    # base field of K inside the fixed field
    k_img = k_emb(K.base.gen())
    pre = subfield_preimage(e_emb, k_img)
    if pre is None:
        raise AssertionError("center image escaped the fixed field")
    k_in_e = FieldMorphism(K.base, e_field, pre)
    ext_HK = build_galois_extension(K, e_field, k_in_e, height_bound)
    H_alg = ext_HK.L
    ext_LH = build_galois_extension(H_alg, ell, e_emb, height_bound)
    sigma_tilde = restrict_morphism(a_gen, e_emb)
    sigma = AlgebraAutomorphism(H_alg, H_alg.i(), H_alg.j(), sigma_tilde)
    L_alg = ext_LH.L
    tau = AlgebraAutomorphism(L_alg, L_alg.i(), L_alg.j(), a_gen)
    X = TwistedExtension(ext_LH, sigma, tau)
    if not eq_produit(X):
        raise AssertionError("constructed extension lost the product condition")
    return X
