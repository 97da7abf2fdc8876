"""Finite embedding problems over division rings and their transports.

A problem is a surjection from a finite group onto the Galois group of an
extension; it is split when a subgroup maps bijectively, and a weak
solution embeds the group of a larger extension compatibly with
restriction.  Because the Galois group of such an extension is the Galois
group of its center, every problem transports down to a commutative one
and (under an anisotropy certificate) back up, and the two transports are
mutually inverse on the nose; the same goes for solutions.

The weak-to-split reduction realizes the classical fiber product: pairs of
a group element and a big Galois element agreeing downstairs, with the
weak solution furnishing the section.  A full solution of the reduced
problem pushes back to a full solution of the original through the fixed
field of the projection kernel; everything is re-verified on full tables.
"""

from .galois import (CommExtension, _center_action, build_comm_extension,
                     build_galois_extension, build_twisted_extension,
                     eq_produit, fixed_center_tower, restriction_between)
from .numfield import (FieldMorphism, Immutable, automorphism_group,
                       fixed_field, restrict_morphism, subfield_preimage)

MAX_GROUP_ORDER = 64


class NotWeakSolution(Exception):
    """The offered map fails the weak-solution conditions."""


# ---------------------------------------------------------------------------
# finite groups as multiplication tables
# ---------------------------------------------------------------------------

class FiniteGroup(Immutable):
    """Multiplication table with identity at index 0, order at most 64."""

    __slots__ = ('table', 'labels', 'order', '_inverse', '_subgroups')

    def __init__(self, table, labels=None):
        order = len(table)
        if order > MAX_GROUP_ORDER:
            raise ValueError("group order above %d" % MAX_GROUP_ORDER)
        if any(len(row) != order for row in table):
            raise ValueError("multiplication table is not square")
        if labels is None:
            labels = ['g%d' % k for k in range(order)]
        for j in range(order):
            if table[0][j] != j or table[j][0] != j:
                raise ValueError("index 0 is not an identity")
        inverse = [None] * order
        for i in range(order):
            for j in range(order):
                if table[i][j] == 0:
                    inverse[i] = j
        if any(v is None for v in inverse):
            raise ValueError("some element has no inverse")
        for i in range(order):
            for j in range(order):
                for k in range(order):
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise ValueError("table is not associative")
        object.__setattr__(self, 'table', tuple(tuple(r) for r in table))
        object.__setattr__(self, 'labels', tuple(labels))
        object.__setattr__(self, 'order', order)
        object.__setattr__(self, '_inverse', tuple(inverse))
        object.__setattr__(self, '_subgroups', None)

    def __repr__(self):
        return 'FiniteGroup(order %d)' % self.order

    def op(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inverse[a]

    def element_order(self, a):
        n, x = 1, a
        while x != 0:
            x = self.op(x, a)
            n += 1
        return n

    def is_abelian(self):
        return all(self.op(a, b) == self.op(b, a)
                   for a in range(self.order) for b in range(self.order))

    def closure(self, gens):
        out = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for f in frontier:
                for g in gens:
                    h = self.op(g, f)
                    if h not in out:
                        out.add(h)
                        nxt.append(h)
            frontier = nxt
        return frozenset(out)

    def subgroups(self):
        """All subgroups, each grown from a smaller one by one new generator.

        A subgroup H is extended by one element g of each coset gH outside
        it, since <H, g> = <H, gh> for h in H, and the closure starts from
        the generators H was found with, plus g.
        """
        if self._subgroups is None:
            trivial = frozenset([0])
            gens = {trivial: ()}
            frontier = [trivial]
            while frontier:
                nxt = []
                for sub in frontier:
                    covered = set(sub)
                    for g in range(self.order):
                        if g in covered:
                            continue
                        covered.update(self.op(g, h) for h in sub)
                        gen = gens[sub] + (g,)
                        bigger = self.closure(gen)
                        if bigger not in gens:
                            gens[bigger] = gen
                            nxt.append(bigger)
                frontier = nxt
            object.__setattr__(self, '_subgroups',
                               sorted(gens, key=lambda s: (len(s), sorted(s))))
        return list(self._subgroups)

    def is_cyclic(self):
        return any(self.element_order(a) == self.order
                   for a in range(self.order))


def cyclic_group(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, ['c%d' % k for k in range(n)])


def dihedral_group(n):
    """Symmetries of the n-gon, order 2n, with n at most 8."""
    if n > 8:
        raise ValueError("dihedral groups only up to order 16")
    # element 2k is rotation by k, 2k+1 is reflection r^k s
    def mul(a, b):
        ra, sa = a >> 1, a & 1
        rb, sb = b >> 1, b & 1
        if sa == 0:
            return ((ra + rb) % n) << 1 | sb
        return ((ra - rb) % n) << 1 | (1 ^ sb)
    order = 2 * n
    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    return FiniteGroup(table)


_Q8_UNIT = [[(0, 0), (0, 1), (0, 2), (0, 3)],
            [(0, 1), (1, 0), (0, 3), (1, 2)],
            [(0, 2), (1, 3), (1, 0), (0, 1)],
            [(0, 3), (0, 2), (1, 1), (1, 0)]]


def quaternion_group():
    """The order-eight group with i^4 = 1, i^2 = j^2 and jij^{-1} = i^{-1}.

    Index 2k is the unit (1, i, j, k in turn); 2k + 1 its negative.
    """
    def mul(a, b):
        sa, ua = a & 1, a >> 1
        sb, ub = b & 1, b >> 1
        sc, uc = _Q8_UNIT[ua][ub]
        return (uc << 1) | (sa ^ sb ^ sc)
    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    labels = ['1', '-1', 'i', '-i', 'j', '-j', 'k', '-k']
    g = FiniteGroup(table, labels)
    i, j = 2, 4
    assert g.element_order(i) == 4
    assert g.op(i, i) == g.op(j, j)
    assert g.op(g.op(j, i), g.inv(j)) == g.inv(i)
    return g


def direct_product(a, b):
    def pack(i, j):
        return i * b.order + j

    table = []
    for i1 in range(a.order):
        for j1 in range(b.order):
            row = []
            for i2 in range(a.order):
                for j2 in range(b.order):
                    row.append(pack(a.op(i1, i2), b.op(j1, j2)))
            table.append(row)
    labels = ['(%s,%s)' % (a.labels[i], b.labels[j])
              for i in range(a.order) for j in range(b.order)]
    return FiniteGroup(table, labels)


class GroupHom(Immutable):
    """Homomorphism between table groups, verified on the full table."""

    __slots__ = ('source', 'target', 'images')

    def __init__(self, source, target, images):
        if len(images) != source.order:
            raise ValueError("one image per source element required")
        if any(not 0 <= v < target.order for v in images):
            raise ValueError("image out of range")
        for i in range(source.order):
            for j in range(source.order):
                if images[source.op(i, j)] != target.op(images[i], images[j]):
                    raise ValueError("not a homomorphism at (%d, %d)" % (i, j))
        object.__setattr__(self, 'source', source)
        object.__setattr__(self, 'target', target)
        object.__setattr__(self, 'images', tuple(images))

    def __call__(self, a):
        return self.images[a]

    def __eq__(self, other):
        return (isinstance(other, GroupHom)
                and self.source is other.source
                and self.target is other.target
                and self.images == other.images)

    def kernel(self):
        return [a for a in range(self.source.order) if self.images[a] == 0]

    def image(self):
        return sorted(set(self.images))

    def is_injective(self):
        return len(self.kernel()) == 1

    def is_surjective(self):
        return len(set(self.images)) == self.target.order

    def is_bijective(self):
        return self.is_injective() and self.is_surjective()

    def compose(self, other):
        """self after other."""
        return GroupHom(other.source, self.target,
                        [self.images[v] for v in other.images])


# ---------------------------------------------------------------------------
# Galois groups as table groups
# ---------------------------------------------------------------------------

class GalData(Immutable):
    """The group of an extension as a table group, elements in index order."""

    __slots__ = ('ext', 'elements', 'group')

    def __init__(self, ext):
        object.__setattr__(self, 'ext', ext)
        object.__setattr__(self, 'elements', ext.group)
        object.__setattr__(self, 'group', FiniteGroup(
            ext.table, ['s%d' % n for n in range(len(ext.table))]))


def images_by_powers(gal, image_of_power):
    """Images of a cyclic Galois group, listed by index.

    The generator is the first element of full order; its k-th power is
    sent to image_of_power(k), for k = 1 .. order.
    """
    G = gal.group
    gen = next((n for n in range(G.order) if G.element_order(n) == G.order),
               None)
    if gen is None:
        raise ValueError("the Galois group is not cyclic")
    images = [None] * G.order
    cur = gen
    for power in range(1, G.order + 1):
        images[cur] = image_of_power(power)
        cur = G.op(gen, cur)
    return images


# ---------------------------------------------------------------------------
# problems and solutions
# ---------------------------------------------------------------------------

class EmbeddingProblem(Immutable):
    """Surjection alpha from a finite group onto a Galois group.

    The extension may be a division-ring one or a commutative one; the
    commutative case is what the transports produce.
    """

    __slots__ = ('G', 'ext', 'gal', 'alpha')

    def __init__(self, G, ext, alpha_images, gal=None):
        gal = gal if gal is not None else GalData(ext)
        if gal.ext is not ext:  # alpha indices are positions in ext.group
            raise ValueError("the Galois data belong to another extension")
        alpha = GroupHom(G, gal.group, alpha_images)
        if not alpha.is_surjective():
            raise ValueError("the problem map must be onto the Galois group")
        object.__setattr__(self, 'G', G)
        object.__setattr__(self, 'ext', ext)
        object.__setattr__(self, 'gal', gal)
        object.__setattr__(self, 'alpha', alpha)

    def is_commutative(self):
        return isinstance(self.ext, CommExtension)

    def __repr__(self):
        return 'EmbeddingProblem(|G|=%d onto order %d)' % (
            self.G.order, self.gal.group.order)


class SolutionMap(Immutable):
    """A (weak) solution: the group of a bigger extension embedded in G."""

    __slots__ = ('ext_big', 'gal_big', 'center_emb', 'beta', 'kind')

    def __init__(self, ext_big, center_emb, beta_images, kind, G,
                 gal_big=None):
        if kind not in ('weak', 'full'):
            raise ValueError("kind must be weak or full")
        gal_big = gal_big if gal_big is not None else GalData(ext_big)
        if gal_big.ext is not ext_big:
            raise ValueError("the Galois data belong to another extension")
        beta = GroupHom(gal_big.group, G, beta_images)
        object.__setattr__(self, 'ext_big', ext_big)
        object.__setattr__(self, 'gal_big', gal_big)
        object.__setattr__(self, 'center_emb', center_emb)
        object.__setattr__(self, 'beta', beta)
        object.__setattr__(self, 'kind', kind)

    def __repr__(self):
        return 'SolutionMap(%s, order %d into |G|=%d)' % (
            self.kind, self.gal_big.group.order, self.beta.target.order)


class SolutionReport(Immutable):
    """The verified conditions, with the restriction images they were read
    against (None when the restriction failed)."""

    __slots__ = ('injective_ok', 'kind_ok', 'compatible_ok', 'details',
                 'restriction')

    def __init__(self, injective_ok, kind_ok, compatible_ok, details='',
                 restriction=None):
        object.__setattr__(self, 'injective_ok', injective_ok)
        object.__setattr__(self, 'kind_ok', kind_ok)
        object.__setattr__(self, 'compatible_ok', compatible_ok)
        object.__setattr__(self, 'details', details)
        object.__setattr__(self, 'restriction', restriction)

    def passed(self):
        return self.injective_ok and self.kind_ok and self.compatible_ok


def verify_solution(problem, sol):
    """Re-verify every condition of a (weak) solution, reporting each."""
    injective_ok = sol.beta.is_injective()
    if sol.kind == 'full':
        kind_ok = sol.beta.is_bijective()
    else:
        kind_ok = True
    try:
        res = restriction_between(sol.ext_big, problem.ext,
                                  sol.center_emb).images
    except Exception as exc:  # restriction not even well-defined
        return SolutionReport(injective_ok, kind_ok, False,
                              "restriction failed: %s" % exc)
    bad = [t for t in range(sol.gal_big.group.order)
           if problem.alpha(sol.beta(t)) != res[t]]
    compatible_ok = not bad
    details = '' if compatible_ok else (
        "composite disagrees with restriction at big element(s) %s" % bad)
    return SolutionReport(injective_ok, kind_ok, compatible_ok, details, res)


def is_split(problem):
    """Brute force over subgroups; returns (split?, section images or None).

    The section, when found, maps each Galois index to the group element
    of the bijective subgroup above it.
    """
    G = problem.G
    gal_order = problem.gal.group.order
    for sub in G.subgroups():
        if len(sub) != gal_order:
            continue
        members = sorted(sub)
        images = [problem.alpha(a) for a in members]
        if len(set(images)) != gal_order:
            continue
        section = [None] * gal_order
        for a, v in zip(members, images):
            section[v] = a
        sec_hom = GroupHom(problem.gal.group, G, section)
        return True, sec_hom
    return False, None


# ---------------------------------------------------------------------------
# transports between the division-ring and commutative levels
# ---------------------------------------------------------------------------

def _comm_shadow(ext):
    """The commutative extension under a division-ring one, index-aligned."""
    return CommExtension(ext.center_field, ext.center_emb, ext.center_group())


def transport_down(problem):
    """The commutative problem with the same group data, via the center."""
    if problem.is_commutative():
        raise ValueError("problem is already commutative")
    comm = _comm_shadow(problem.ext)
    return EmbeddingProblem(problem.G, comm, list(problem.alpha.images))


def transport_up(problem, H, height_bound=8):
    """The division-ring problem over H above a commutative problem.

    Requires an anisotropy certificate for the norm form of H over the
    commutative extension; raises NotAnisotropic otherwise.
    """
    if not problem.is_commutative():
        raise ValueError("transport_up expects a commutative problem")
    emb = problem.ext.center_emb
    if emb.source != H.base:
        raise ValueError("problem base field is not the center of H")
    ext = build_galois_extension(H, problem.ext.center_field, emb,
                                 height_bound)
    images = [ext.index_of(problem.ext.group[problem.alpha(g)])
              for g in range(problem.G.order)]
    return EmbeddingProblem(problem.G, ext, images)


def sol_down(sol):
    """The commutative shadow of a solution, same tables."""
    comm = _comm_shadow(sol.ext_big)
    return SolutionMap(comm, sol.center_emb, list(sol.beta.images),
                       sol.kind, sol.beta.target)


def sol_up(sol, H, height_bound=8):
    """Lift a commutative solution to the division ring over H."""
    emb = sol.ext_big.center_emb
    if emb.source != H.base:
        raise ValueError("solution base field is not the center of H")
    ext = build_galois_extension(H, sol.ext_big.center_field, emb,
                                 height_bound)
    images = [None] * len(ext.group)
    for t, fm in enumerate(sol.ext_big.group):
        images[ext.index_of(fm)] = sol.beta(t)
    return SolutionMap(ext, sol.center_emb, images, sol.kind,
                       sol.beta.target)


def problems_agree(p1, p2):
    """Exact identity of two problems: same group, extension data, tables."""
    if p1.G is not p2.G and p1.G.table != p2.G.table:
        return False
    if p1.ext.center_field != p2.ext.center_field:
        return False
    if p1.ext.center_emb != p2.ext.center_emb:
        return False
    if p1.ext.center_group() != p2.ext.center_group():
        return False
    return p1.alpha.images == p2.alpha.images


def solutions_agree(s1, s2):
    if s1.ext_big.center_field != s2.ext_big.center_field:
        return False
    if s1.ext_big.center_group() != s2.ext_big.center_group():
        return False
    return s1.beta.images == s2.beta.images and s1.kind == s2.kind


# ---------------------------------------------------------------------------
# geometric problems over the twisted function field
# ---------------------------------------------------------------------------

class GeometricReport(Immutable):
    """The function-field problem next to its fixed-center shadow.

    link_identity records that composing the shadow with the inverse of
    the restriction from the lift group reproduces the function-field
    problem, as a table identity.
    """

    __slots__ = ('fn_ext', 'alpha_geo', 'fixed_field_ext', 'alpha_bar',
                 'link_identity')

    def __init__(self, fn_ext, alpha_geo, fixed_field_ext, alpha_bar,
                 link_identity):
        object.__setattr__(self, 'fn_ext', fn_ext)
        object.__setattr__(self, 'alpha_geo', tuple(alpha_geo))
        object.__setattr__(self, 'fixed_field_ext', fixed_field_ext)
        object.__setattr__(self, 'alpha_bar', tuple(alpha_bar))
        object.__setattr__(self, 'link_identity', link_identity)


def geometric_problem(problem, X, degree_bound=4):
    """Build the function-field problem and the fixed-center shadow.

    Requires the direct-product condition (ProductConditionFailed
    otherwise, raised by the lift construction).  Verifies that the two
    routes to the function-field problem agree on the full table.
    """
    if X.ext.L != problem.ext.L:
        raise ValueError("twisted extension does not match the problem")
    fn_ext = build_twisted_extension(X, degree_bound)
    alpha_geo = [fn_ext.lift_of(problem.gal.elements[problem.alpha(g)])
                 for g in range(problem.G.order)]
    tower = fixed_center_tower(X)
    if tower is None:
        raise AssertionError("fixed base field escaped the fixed extension field")
    e_emb, k_in_e = tower
    gal_e = automorphism_group(k_in_e.target, k_in_e)
    # restriction of the center group to the fixed field is a bijection
    restricted = []
    for g in problem.ext.center_group():
        fm = restrict_morphism(g, e_emb)
        if fm not in gal_e:
            raise AssertionError("restriction left the fixed-field group")
        restricted.append(fm)
    if len(set(restricted)) != len(gal_e):
        raise AssertionError("restriction to the fixed field is not bijective")
    alpha_bar = [restricted[problem.alpha(g)] for g in range(problem.G.order)]
    # link identity: the lift's central restriction equals the shadow
    link = True
    for g in range(problem.G.order):
        lift = alpha_geo[g]
        via_lift = restrict_morphism(_center_action(lift.rho), e_emb)
        if via_lift != alpha_bar[g]:
            link = False
    fixed_ext = CommExtension(k_in_e.target, k_in_e, gal_e)
    return GeometricReport(fn_ext, alpha_geo, fixed_ext, alpha_bar, link)


# ---------------------------------------------------------------------------
# weak -> split fiber reduction
# ---------------------------------------------------------------------------

class FiberReduction(Immutable):
    """The split problem built from a weak solution, with its transport."""

    __slots__ = ('problem', 'original', 'weak', 'section', 'pairs',
                 'kernel_iso', 'res_table')

    def __init__(self, problem, original, weak, section, pairs, kernel_iso,
                 res_table):
        object.__setattr__(self, 'problem', problem)
        object.__setattr__(self, 'original', original)
        object.__setattr__(self, 'weak', weak)
        object.__setattr__(self, 'section', section)
        object.__setattr__(self, 'pairs', tuple(pairs))
        object.__setattr__(self, 'kernel_iso', tuple(kernel_iso))
        object.__setattr__(self, 'res_table', tuple(res_table))

    def transport(self, big_solution, height_bound=8):
        """Turn a full solution of the reduced problem into one of the
        original, through the fixed field of the projection kernel."""
        report = verify_solution(self.problem, big_solution)
        if not (report.passed() and big_solution.kind == 'full'):
            raise ValueError("transport needs a verified full solution")
        orig = self.original
        G = orig.G
        # project the solution to the original group
        pi = [self.pairs[big_solution.beta(t)][0]
              for t in range(big_solution.gal_big.group.order)]
        kernel = [t for t, v in enumerate(pi) if v == 0]
        kt = [_center_action(big_solution.ext_big.group[t]) for t in kernel]
        f_big = big_solution.ext_big.center_field
        f_field, f_emb = fixed_field(f_big, kt)
        # base field of the original problem inside the fixed field
        h_emb_big = big_solution.ext_big.center_emb
        pre = subfield_preimage(f_emb, h_emb_big(h_emb_big.source.gen()))
        if pre is None:
            raise AssertionError("base center escaped the fixed field")
        h_in_f = FieldMorphism(h_emb_big.source, f_field, pre)
        if orig.is_commutative():
            ext_F = build_comm_extension(f_field, h_in_f)
        else:
            ext_F = build_galois_extension(orig.ext.H, f_field, h_in_f,
                                           height_bound)
        # restriction from the big extension down to the new one
        res_idx = restriction_between(big_solution.ext_big, ext_F,
                                      f_emb).images
        if sorted(t for t, v in enumerate(res_idx) if v == 0) != \
                sorted(kernel):
            raise AssertionError("projection kernel does not cut the fixed field")
        beta = [None] * len(ext_F.group)
        for t, v in enumerate(res_idx):
            if beta[v] is None:
                beta[v] = pi[t]
            elif beta[v] != pi[t]:
                raise AssertionError("projected solution is not well-defined")
        # center of the original extension inside the fixed field
        chain = self.weak.center_emb
        ell_img = big_solution.center_emb(chain(chain.source.gen())) \
            if chain.target == big_solution.center_emb.source else None
        if ell_img is None:
            raise AssertionError("center embeddings do not chain")
        pre_ell = subfield_preimage(f_emb, ell_img)
        if pre_ell is None:
            raise AssertionError("small center escaped the fixed field")
        ell_in_f = FieldMorphism(chain.source, f_field, pre_ell)
        out = SolutionMap(ext_F, ell_in_f, beta, 'full', G)
        final = verify_solution(orig, out)
        if not final.passed():
            raise AssertionError("transported solution failed verification: %s"
                                 % final.details)
        return out


def fiber_reduction(problem, weak):
    """The split reduction of a problem along a verified weak solution.

    Builds the fiber product of the group with the bigger Galois group
    over the smaller one, the projection, and the section coming from the
    weak solution; the kernel of the new problem is identified with the
    kernel of the original by an explicit isomorphism.
    """
    report = verify_solution(problem, weak)
    if not report.passed():
        raise NotWeakSolution(report.details or "weak solution failed")
    G = problem.G
    galp = weak.gal_big.group
    res_idx = report.restriction
    pairs = [(a, r) for r in range(galp.order) for a in range(G.order)
             if problem.alpha(a) == res_idx[r]]
    pairs.sort(key=lambda p: (p != (0, 0), p[1], p[0]))
    index = {p: n for n, p in enumerate(pairs)}
    table = []
    for (a1, r1) in pairs:
        row = []
        for (a2, r2) in pairs:
            row.append(index[(G.op(a1, a2), galp.op(r1, r2))])
        table.append(row)
    G_prime = FiniteGroup(table, ['(%s,%s)' % (G.labels[a], galp.labels[r])
                                  for a, r in pairs])
    alpha_prime = [r for (_, r) in pairs]
    reduced = EmbeddingProblem(G_prime, weak.ext_big, alpha_prime,
                               weak.gal_big)
    # section from the weak solution
    section_images = [index[(weak.beta(r), r)] for r in range(galp.order)]
    section = GroupHom(galp, G_prime, section_images)
    for r in range(galp.order):
        if reduced.alpha(section(r)) != r:
            raise AssertionError("section does not split the reduction")
    # kernel isomorphism ker(alpha) -> ker(alpha')
    ker_orig = problem.alpha.kernel()
    kernel_iso = [(a, index[(a, 0)]) for a in ker_orig]
    ker_new = reduced.alpha.kernel()
    if sorted(v for _, v in kernel_iso) != sorted(ker_new):
        raise AssertionError("kernel isomorphism is not onto")
    iso_map = dict(kernel_iso)
    for a in ker_orig:
        for b in ker_orig:
            if iso_map[G.op(a, b)] != G_prime.op(iso_map[a], iso_map[b]):
                raise AssertionError("kernel isomorphism is not multiplicative")
    return FiberReduction(reduced, problem, weak, section, pairs, kernel_iso,
                          res_idx)


# ---------------------------------------------------------------------------
# hypothesis reporting for the geometric existence statement
# ---------------------------------------------------------------------------

def hypothesis_report(problem, X=None, ample_assertion=None):
    """Evaluate the checkable hypotheses of the geometric existence result.

    Splitness and the product condition are computed; ampleness of the
    fixed center is never computed and enters only as a caller assertion.
    The conclusion itself (existence of a function-field solution) is
    outside what this package verifies, and the report says so.
    """
    split, section = is_split(problem)
    product_ok = eq_produit(X) if X is not None else None
    return {
        'condition_split': split,
        'condition_product': product_ok,
        'ampleness_asserted': ample_assertion,
        'conclusion_verified': False,
        'note': ("the geometric existence conclusion is not decided here; "
                 "hypotheses only"),
        'weak_to_split_reduction_suggested': not split,
    }
