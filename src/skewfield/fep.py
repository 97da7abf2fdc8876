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
field of the projection kernel.

Everything is re-verified, each check on a certificate that suffices: a
group table by its identity, an inverse in every row and Light's
associativity test on one generating set; a homomorphism on the source
generators; solutions and their restrictions on the full tables.
"""

from itertools import combinations

from .galois import (CommExtension, WitnessInvalid, _center_action,
                     _generating_subset, build_comm_extension,
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

def _check_order(order):
    if order < 1:
        raise ValueError("empty multiplication table")
    if order > MAX_GROUP_ORDER:
        raise ValueError("group order above %d" % MAX_GROUP_ORDER)


def _indices(rows, order, what):
    """The non-empty rows as bytes, each value an int in range(order)."""
    try:  # 1.0 == 1 would pass every later check, then fail as an index
        out = tuple(map(bytes, rows))
    except (TypeError, ValueError):
        out = None
    if out is None or max(map(max, out)) >= order:
        raise ValueError("%s must be integers in range(%d)" % (what, order))
    return out


class FiniteGroup(Immutable):
    """Multiplication table with identity at index 0, order 1 to 64.

    The table is certified a group at construction: index 0 is a two-sided
    identity, every row holds 0, and associativity holds by Light's test,
    (x*g)*y = x*(g*y) for all x, y and each g of ``generators``, a
    generating set.  The elements g passing that test are closed under
    products, so passing on generators proves the whole table associative.
    An associative table with an identity and a right inverse for each
    element is a group, so every row and column is a permutation.

    A member list is ``bytes``, one byte per element, since the order is at
    most 64.  ``_left`` is the rows of the table one after another, then
    256 - n zero bytes for n the order, and ``_right`` the columns the same
    way.  So the window ``_right[x*n:x*n + 256]`` is a translation table
    sending each element h to h*x, and ``members.translate`` of it is the
    right coset H*x; bytes past the column are never looked up.  ``_left``
    gives x*h and the left coset xH the same way, and Light's test reads
    x*(g*y) for all y as row g translated by x.  One blob per side keeps
    the tables of a group of order 64 at 8 KB rather than 32 KB.
    """

    __slots__ = ('table', 'labels', 'order', 'generators', '_inverse',
                 '_left', '_right', '_subgroups')

    def __init__(self, table, labels=None):
        order = len(table)
        _check_order(order)
        table = tuple(tuple(row) for row in table)
        if any(len(row) != order for row in table):
            raise ValueError("multiplication table is not square")
        rows = _indices(table, order, "table entries")
        table = tuple(map(tuple, rows))
        if labels is None:
            labels = ['g%d' % k for k in range(order)]
        elif len(labels) != order:
            raise ValueError("%d labels for a group of order %d"
                             % (len(labels), order))
        if any(table[0][j] != j or table[j][0] != j for j in range(order)):
            raise ValueError("index 0 is not an identity")
        if any(0 not in row for row in table):
            raise ValueError("some element has no inverse")
        pad = bytes(256 - order)
        left = b''.join(rows) + pad
        generators = tuple(_generating_subset(table))
        for g in generators:
            row_g = rows[g]
            for x, row_x in enumerate(table):
                if rows[row_x[g]] != row_g.translate(
                        left[x * order:x * order + 256]):
                    raise ValueError("table is not associative")
        super().__init__(table, tuple(labels), order, generators,
                         tuple(row.index(0) for row in table), left,
                         b''.join(map(bytes, zip(*table))) + pad, None)

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
        """Commuting generators make the whole group commute."""
        return all(self.op(a, b) == self.op(b, a)
                   for a, b in combinations(self.generators, 2))

    def extend(self, members, gens, g, limit=MAX_GROUP_ORDER):
        """<H, g> for the subgroup H generated by gens, g outside it.

        H is given by its member bytes.  The result grows as a union of
        right cosets H*r (Dimino's algorithm): a coset is added whenever r*s
        falls outside, for a coset representative r and s in gens or g.  Its
        member bytes begin with those of H and go on with H*g, so the
        elements of <H, g> outside H are exactly those past H's length.
        Returns them, or None once they pass limit elements.
        """
        n, table, right = self.order, self.table, self._right
        gens += (g,)
        out = members
        reps = [0]
        for r in reps:
            row = table[r]
            for s in gens:
                x = row[s]
                if x in out:
                    continue
                out += members.translate(right[x * n:x * n + 256])
                if len(out) > limit:
                    return None
                reps.append(x)
        return out

    def closure(self, gens):
        """The subgroup generated by gens, extended by one at a time."""
        members, used = b'\0', ()
        for g in gens:
            if g not in members:
                members = self.extend(members, used, g)
                used += (g,)
        return frozenset(members)

    def subgroups(self):
        """All subgroups, each built once, from its canonical parent.

        A subgroup K has one greedy generating sequence g1 < g2 < ..., each
        g(i+1) the least element of K outside <g1 .. gi>, and each prefix of
        it is the greedy sequence of the subgroup it generates.  So every
        subgroup but the trivial one has exactly one parent, the subgroup of
        its sequence without the last element, and a depth-first walk from
        the trivial group down these parent links builds each subgroup once.
        <H, g> is kept exactly when g is its least element outside H.  Both
        gH and Hg lie outside H in <H, g>, so g is closed over only when it
        is the least element of both.  That test only gets harder up the
        walk, since K containing H gives gK containing gH and Kg containing
        Hg, so each subgroup tests only the candidates its parent kept past
        its own last generator; the trivial group tests 1 .. n-1.  The list
        is sorted by size, then by sorted members.
        """
        if self._subgroups is None:
            n = self.order
            left, right = ([blob[x:x + 256] for x in range(0, n * n, n)]
                           for blob in (self._left, self._right))
            found = []
            stack = [(b'\0', (), range(1, n))]
            while stack:
                members, gens, candidates = stack.pop()
                found.append(members)
                size = len(members)
                kept = [g for g in candidates
                        if min(members.translate(left[g])) == g
                        and min(members.translate(right[g])) == g]
                for k, g in enumerate(kept):
                    bigger = self.extend(members, gens, g)
                    if min(bigger[size:]) == g:
                        stack.append((bigger, gens + (g,), kept[k + 1:]))
            found.sort(key=lambda members: (len(members),
                                            bytes(sorted(members))))
            object.__setattr__(self, '_subgroups',
                               [frozenset(members) for members in found])
        return list(self._subgroups)

    def is_cyclic(self):
        return any(self.element_order(a) == self.order
                   for a in range(self.order))


def cyclic_group(n):
    _check_order(n)
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
    """Pairs (i, j) at index i * b.order + j, multiplied componentwise."""
    nb = b.order
    _check_order(a.order * nb)
    table = [[x * nb + y for x in row_a for y in row_b]
             for row_a in a.table for row_b in b.table]
    labels = ['(%s,%s)' % (a.labels[i], b.labels[j])
              for i in range(a.order) for j in range(b.order)]
    return FiniteGroup(table, labels)


class GroupHom(Immutable):
    """Homomorphism between table groups.

    Verified at construction on the source generators: images[g*x] =
    images[g]*images[x] for each generator g and every x, and the identity
    goes to the identity.  The elements g satisfying the first for all x
    are closed under products, so passing on generators proves it for
    every pair.
    """

    __slots__ = ('source', 'target', 'images')

    def __init__(self, source, target, images):
        if len(images) != source.order:
            raise ValueError("one image per source element required")
        (images,) = _indices((images,), target.order, "images")
        if images[0] != 0:
            raise ValueError("not a homomorphism at (0, 0)")
        for g in source.generators:
            row_g, image_row = source.table[g], target.table[images[g]]
            for x in range(source.order):
                if images[row_g[x]] != image_row[images[x]]:
                    raise ValueError("not a homomorphism at (%d, %d)" % (g, x))
        super().__init__(source, target, tuple(images))

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
        super().__init__(ext, ext.group, FiniteGroup(
            ext.table, ['s%d' % n for n in range(len(ext.table))]))


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
        super().__init__(G, ext, gal, alpha)

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
        super().__init__(ext_big, gal_big, center_emb,
                         GroupHom(gal_big.group, G, beta_images), kind)

    def __repr__(self):
        return 'SolutionMap(%s, order %d into |G|=%d)' % (
            self.kind, self.gal_big.group.order, self.beta.target.order)


class SolutionReport(Immutable):
    """The verified conditions, with the restriction images they were read
    against (None when the restriction failed)."""

    __slots__ = ('injective_ok', 'kind_ok', 'compatible_ok', 'details',
                 'restriction')

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
    except (WitnessInvalid, ValueError) as exc:  # refused by the restriction
        return SolutionReport(injective_ok, kind_ok, False,
                              "restriction failed: %s" % exc, None)
    bad = [t for t in range(sol.gal_big.group.order)
           if problem.alpha(sol.beta(t)) != res[t]]
    compatible_ok = not bad
    details = '' if compatible_ok else (
        "composite disagrees with restriction at big element(s) %s" % bad)
    return SolutionReport(injective_ok, kind_ok, compatible_ok, details, res)


def is_split(problem):
    """Search for a complement of ker alpha; returns (split?, section or None).

    A complement maps bijectively onto the Galois group, so one preimage of
    each Galois generator generates it.  Conversely, preimages generating a
    subgroup of the Galois order give a complement, since its image holds
    every Galois generator.  The search picks preimages generator by
    generator, grows the subgroup by coset extension and drops a choice
    once the subgroup passes the Galois order.  When the subgroup already
    meets a generator's fibre, that element is the only possible preimage.
    The complement with the least sorted member list is returned, the first
    one in the sorted subgroup list; the section maps each Galois index to
    the complement's element above it.
    """
    G, gal = problem.G, problem.gal.group
    fibres = [[a for a in range(G.order) if problem.alpha(a) == v]
              for v in gal.generators]
    complements = []
    stack = [(b'\0', (), 0)]
    while stack:
        members, gens, k = stack.pop()
        if k == len(fibres):
            if len(members) == gal.order:
                complements.append(sorted(members))
        elif any(a in members for a in fibres[k]):
            stack.append((members, gens, k + 1))
        else:
            for a in fibres[k]:
                grown = G.extend(members, gens, a, gal.order)
                if grown is not None:
                    stack.append((grown, gens + (a,), k + 1))
    if not complements:
        return False, None
    section = [None] * gal.order
    for a in min(complements):
        section[problem.alpha(a)] = a
    return True, GroupHom(gal, G, section)


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
    return GeometricReport(fn_ext, tuple(alpha_geo), fixed_ext,
                           tuple(alpha_bar), link)


# ---------------------------------------------------------------------------
# weak -> split fiber reduction
# ---------------------------------------------------------------------------

class FiberReduction(Immutable):
    """The split problem built from a weak solution, with its transport."""

    __slots__ = ('problem', 'original', 'weak', 'section', 'pairs',
                 'kernel_iso', 'res_table')

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
    return FiberReduction(reduced, problem, weak, section, tuple(pairs),
                          tuple(kernel_iso), tuple(res_idx))


# ---------------------------------------------------------------------------
# hypothesis reporting for the geometric existence statement
# ---------------------------------------------------------------------------

def hypothesis_report(problem, X, ample_assertion=None):
    """Evaluate the checkable hypotheses of the geometric existence result.

    Splitness and the product condition are computed; ampleness of the
    fixed center is never computed and enters only as a caller assertion.
    The conclusion itself (existence of a function-field solution) is
    outside what this package verifies, and the report says so.
    """
    split, section = is_split(problem)
    return {
        'condition_split': split,
        'condition_product': eq_produit(X),
        'ampleness_asserted': ample_assertion,
        'conclusion_verified': False,
        'note': ("the geometric existence conclusion is not decided here; "
                 "hypotheses only"),
        'weak_to_split_reduction_suggested': not split,
    }
