"""Exact quaternion algebras over number fields.

(a,b/h) is the four-dimensional algebra with basis 1, i, j, k = ij and
relations i^2 = a, j^2 = b, ji = -ij over the center h, written once as a
table of unit products e_p e_q = +-c e_r with c in {1, a, b, ab}; a
product sums those terms over the nonzero coordinates only.  The reduced norm
is the diagonal quadratic form <1, -a, -b, ab> in that basis; whether it
has a nontrivial zero over an extension field decides whether the scalar
extension stays a division ring.  Anisotropy is answered three-valued with
certificates: a definite real place, an explicit isotropy witness, or an
honest unknown after a bounded search.

Automorphisms are stored by the images of i and j together with their
action on the center.  The inner order of an automorphism equals the order
of that central action; conjugations are exactly the automorphisms whose
central action is trivial.
"""

from fractions import Fraction

from .linalg import common_kernel
from .numfield import (FieldElement, Immutable, RingElement,
                       _integer_elements, cyclic_powers)


class ZeroNormError(ArithmeticError):
    """Raised when inverting an element of reduced norm zero."""


# The units e = (1, i, j, k) multiply as e_p e_q = sign * c * e_r, where c
# is one of the constants (1, a, b, ab); entry [p][q] is (r, sign, c).
_UNITS = (
    ((0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)),
    ((1, 1, 0), (0, 1, 1), (3, 1, 0), (2, 1, 1)),
    ((2, 1, 0), (3, -1, 0), (0, 1, 2), (1, -1, 2)),
    ((3, 1, 0), (2, -1, 1), (1, 1, 2), (0, -1, 3)),
)


class QuaternionAlgebra(Immutable):
    """(a,b/h): i^2 = a, j^2 = b, ij = k = -ji over the number field h."""

    __slots__ = ('base', 'a', 'b', 'ab', 'label', 'division_certified',
                 'extension_of', '_units')

    def __init__(self, base, a, b, label=None, division_certified=None,
                 extension_of=None):
        a = base.scalar(a) if isinstance(a, (int, Fraction)) else a
        b = base.scalar(b) if isinstance(b, (int, Fraction)) else b
        if a.field != base or b.field != base:
            raise ValueError("parameters must lie in the base field")
        if a.is_zero() or b.is_zero():
            raise ValueError("parameters must be nonzero")
        object.__setattr__(self, 'base', base)
        object.__setattr__(self, 'a', a)
        object.__setattr__(self, 'b', b)
        object.__setattr__(self, 'ab', a * b)
        object.__setattr__(self, 'label', label or 'H')
        object.__setattr__(self, 'division_certified', division_certified)
        object.__setattr__(self, 'extension_of', extension_of)
        object.__setattr__(self, '_units', self._resolve_units())
        self._check_structure_constants()

    def _resolve_units(self):
        """_UNITS as (r, negate, factor): factor is sign * c, or None when
        that is 1 or -1 and negate carries the sign."""
        consts = (self.base.one(), self.a, self.b, self.ab)
        out = []
        for row in _UNITS:
            out_row = []
            for r, sign, c in row:
                v = consts[c] if sign > 0 else -consts[c]
                out_row.append((r, v == -1, None) if v == 1 or v == -1
                               else (r, False, v))
            out.append(tuple(out_row))
        return tuple(out)

    def _check_structure_constants(self):
        # associativity of the unit products on all basis triples
        basis = [self._basis_coords(p) for p in range(4)]
        mul = self._mul_coords
        for x in basis:
            for y in basis:
                xy = mul(x, y)
                for z in basis:
                    if mul(xy, z) != mul(x, mul(y, z)):
                        raise AssertionError("structure constants not associative")

    def _basis_coords(self, k):
        return tuple(self.base.one() if i == k else self.base.zero()
                     for i in range(4))

    def _mul_coords(self, x, y):
        """Coordinates of x y, summing unit products of nonzero coordinates."""
        ys = [(q, yq) for q, yq in enumerate(y) if any(yq.num)]
        out = [None] * 4
        for xp, row in zip(x, self._units):
            if not any(xp.num):
                continue
            for q, yq in ys:
                r, negate, factor = row[q]
                t = xp * yq
                if factor is not None:
                    t = factor * t
                acc = out[r]
                if acc is None:
                    out[r] = -t if negate else t
                else:
                    out[r] = acc - t if negate else acc + t
        zero = self.base.zero()
        return tuple([zero if v is None else v for v in out])

    def __eq__(self, other):
        return (isinstance(other, QuaternionAlgebra)
                and self.base == other.base
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.base, self.a, self.b))

    def __repr__(self):
        return 'QuaternionAlgebra(%s, %s / %s)' % (
            [str(c) for c in self.a.coords], [str(c) for c in self.b.coords],
            self.base.label)

    def element(self, coords):
        out = []
        for c in coords:
            if isinstance(c, FieldElement):
                if c.field != self.base:
                    raise ValueError("coordinate in the wrong field")
                out.append(c)
            else:
                out.append(self.base.scalar(c))
        if len(out) > 4:
            raise ValueError("too many coordinates")
        out += [self.base.zero()] * (4 - len(out))
        return QuatElement(self, tuple(out))

    def scalar(self, c):
        return self.element([c])

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def i(self):
        return self.element([0, 1])

    def j(self):
        return self.element([0, 0, 1])

    def k(self):
        return self.element([0, 0, 0, 1])

    def q_basis(self):
        """Basis over Q: quaternion units times the center's power basis."""
        out = []
        for unit in range(4):
            for fb in self.base.basis():
                coords = [self.base.zero()] * 4
                coords[unit] = fb
                out.append(QuatElement(self, tuple(coords)))
        return out

    def q_dim(self):
        return 4 * self.base.degree

    def identity_automorphism(self):
        return AlgebraAutomorphism(self, self.i(), self.j(),
                                   self.base.identity_morphism())

    def structure_algebra(self):
        """The same algebra as generic structure constants over the center."""
        basis = [self._basis_coords(p) for p in range(4)]
        return StructureAlgebra(self.base, ['1', 'i', 'j', 'k'],
                                [[list(self._mul_coords(x, y)) for y in basis]
                                 for x in basis])


class QuatElement(RingElement):

    __slots__ = ('alg', 'coords')

    def __init__(self, alg, coords):
        object.__setattr__(self, 'alg', alg)
        object.__setattr__(self, 'coords', tuple(coords))

    def _coerce(self, other):
        if isinstance(other, QuatElement):
            if other.alg != self.alg:
                raise ValueError("elements of different algebras")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.alg.scalar(other)
        return None

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        return hash((self.alg.base, self.coords))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuatElement(self.alg, tuple(a + b for a, b in
                                           zip(self.coords, o.coords)))

    def __neg__(self):
        return QuatElement(self.alg, tuple(-a for a in self.coords))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuatElement(self.alg, self.alg._mul_coords(self.coords, o.coords))

    def scale(self, c):
        """Coordinatewise multiplication by a central element."""
        return QuatElement(self.alg, tuple(c * x for x in self.coords))

    def conj(self):
        x0, x1, x2, x3 = self.coords
        return QuatElement(self.alg, (x0, -x1, -x2, -x3))

    def reduced_norm(self):
        x0, x1, x2, x3 = self.coords
        alg = self.alg
        return x0 * x0 - alg.a * (x1 * x1) - alg.b * (x2 * x2) + alg.ab * (x3 * x3)

    def inverse(self):
        n = self.reduced_norm()
        if n.is_zero():
            raise ZeroNormError("element has reduced norm zero")
        ninv = n.inverse()
        return QuatElement(self.alg,
                           tuple(c * ninv for c in self.conj().coords))

    def __repr__(self):
        return 'QuatElement(%s @ %s)' % (
            ['[' + ','.join(str(q) for q in c.coords) + ']'
             for c in self.coords], self.alg.label)

    def q_vector(self):
        """Rational coordinate vector over Q, basis as in q_basis()."""
        out = []
        for c in self.coords:
            out.extend(c.coords)
        return out


def quat_from_q_vector(alg, vec):
    d = alg.base.degree
    return alg.element([alg.base.element(vec[u * d:(u + 1) * d])
                        for u in range(4)])


def extend_quaternion(x, big, emb):
    """Push a quaternion across a scalar extension of its center."""
    return big.element([emb(c) for c in x.coords])


def reduced_norm(x):
    return x.reduced_norm()


def matrix_embedding_norm(x):
    """Independent determinant route to the reduced norm.

    Works in the quadratic algebra h[y]/(y^2 - a): the element maps to the
    2x2 matrix [[x0 + x1 y, b (x2 + x3 y)], [x2 - x3 y, x0 - x1 y]] and the
    determinant must land back in h.
    """
    alg = x.alg
    a, b = alg.a, alg.b
    x0, x1, x2, x3 = x.coords

    def qmul(u, v):
        # (u0 + u1 y)(v0 + v1 y) with y^2 = a
        return (u[0] * v[0] + a * (u[1] * v[1]), u[0] * v[1] + u[1] * v[0])

    m00 = (x0, x1)
    m01 = (b * x2, b * x3)
    m10 = (x2, -x3)
    m11 = (x0, -x1)
    p = qmul(m00, m11)
    q = qmul(m01, m10)
    det = (p[0] - q[0], p[1] - q[1])
    if not det[1].is_zero():
        raise AssertionError("determinant left the center")
    return det[0]


# ---------------------------------------------------------------------------
# norm form and anisotropy
# ---------------------------------------------------------------------------

class NormForm(Immutable):
    """Diagonal form <1, -a, -b, ab> of an algebra, over a target field."""

    __slots__ = ('algebra', 'target', 'embedding', 'coefficients')

    def __init__(self, algebra, target, embedding):
        if embedding.source != algebra.base or embedding.target != target:
            raise ValueError("embedding must map the center into the target")
        a = embedding(algebra.a)
        b = embedding(algebra.b)
        coeffs = (target.one(), -a, -b, a * b)
        object.__setattr__(self, 'algebra', algebra)
        object.__setattr__(self, 'target', target)
        object.__setattr__(self, 'embedding', embedding)
        object.__setattr__(self, 'coefficients', coeffs)

    def __repr__(self):
        return 'NormForm(<%s> over %s)' % (
            ', '.join('[' + ','.join(str(q) for q in c.coords) + ']'
                      for c in self.coefficients), self.target.label)

    def evaluate(self, vec):
        if len(vec) != 4:
            raise ValueError("norm form takes four coordinates")
        out = self.target.zero()
        for c, x in zip(self.coefficients, vec):
            out = out + c * x * x
        return out


def norm_form(algebra, target, embedding=None):
    if embedding is None:
        if target != algebra.base:
            raise ValueError("an embedding is required for a proper extension")
        embedding = algebra.base.identity_morphism()
    return NormForm(algebra, target, embedding)


class AnisotropyVerdict(Immutable):
    """Certified three-valued answer for a diagonal quadratic form.

    anisotropic: some real place makes every coefficient strictly one sign,
    so the form is definite there and only the trivial zero exists.
    isotropic: an explicit nonzero vector with form value zero, verified
    exactly.  unknown: the bounded witness search was exhausted.
    """

    __slots__ = ('kind', 'form', 'place', 'witness', 'bound')

    def __init__(self, kind, form, place=None, witness=None, bound=None):
        if kind not in ('anisotropic', 'isotropic', 'unknown'):
            raise ValueError("bad verdict kind")
        if kind == 'anisotropic':
            signs = {place.sign(c) for c in form.coefficients}
            if signs not in ({1}, {-1}):
                raise ValueError("real place does not make the form definite")
        if kind == 'isotropic':
            if witness is None or all(x.is_zero() for x in witness):
                raise ValueError("isotropy witness must be nonzero")
            if not form.evaluate(witness).is_zero():
                raise ValueError("witness does not evaluate to zero")
        object.__setattr__(self, 'kind', kind)
        object.__setattr__(self, 'form', form)
        object.__setattr__(self, 'place', place)
        object.__setattr__(self, 'witness', tuple(witness) if witness else None)
        object.__setattr__(self, 'bound', bound)

    def __repr__(self):
        return 'AnisotropyVerdict(%s)' % self.kind


def anisotropy(form, height_bound, pair_cap=2_000_000):
    """Decide the form with certificates, or report unknown.

    Search order: real-place definiteness first, then a staged exhaustive
    hunt for a nontrivial zero with integer power-basis coordinates of
    height up to the bound, meeting in the middle over coordinate pairs.
    """
    if height_bound < 1:
        raise ValueError("height bound must be positive")
    target = form.target
    for place in target.real_places():
        signs = {place.sign(c) for c in form.coefficients}
        if signs == {1} or signs == {-1}:
            return AnisotropyVerdict('anisotropic', form, place=place)
    c = form.coefficients
    heights = sorted({min(h, height_bound) for h in (1, 2, 3, 5, 8, 13, height_bound)})
    searched = 0
    for h in heights:
        count = (2 * h + 1) ** target.degree
        if count * count > pair_cap:
            break
        searched = h
        scaled = [[(x, ci * x * x) for x in _integer_elements(target, h)]
                  for ci in c]
        halves = {}
        for x1, v1 in scaled[0]:
            for x2, v2 in scaled[1]:
                halves.setdefault(v1 + v2, (x1, x2))
        for x3, v3 in scaled[2]:
            for x4, v4 in scaled[3]:
                other = halves.get(-(v3 + v4))
                if other is None:
                    continue
                witness = (other[0], other[1], x3, x4)
                if all(w.is_zero() for w in witness):
                    continue
                return AnisotropyVerdict('isotropic', form, witness=witness,
                                         bound=h)
    return AnisotropyVerdict('unknown', form, bound=searched)


def scalar_extension(algebra, ell, embedding, height_bound=8):
    """The algebra (emb(a), emb(b) / ell), with a division-ness flag.

    The flag is True when the norm form over ell carries an anisotropy
    certificate, False on an isotropy witness, None when undecided.
    """
    if embedding.source != algebra.base or embedding.target != ell:
        raise ValueError("embedding must map the center into ell")
    if ell == algebra.base and embedding.is_identity():
        return algebra
    verdict = anisotropy(norm_form(algebra, ell, embedding), height_bound)
    flag = {'anisotropic': True, 'isotropic': False, 'unknown': None}[verdict.kind]
    return QuaternionAlgebra(ell, embedding(algebra.a), embedding(algebra.b),
                             label='%s(x)%s' % (algebra.label, ell.label),
                             division_certified=flag,
                             extension_of=(algebra, embedding))


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

class AlgebraAutomorphism(Immutable):
    """Automorphism of a quaternion algebra: images of i, j plus the center map.

    The defining relations are re-verified at construction; multiplicativity
    on the whole algebra then follows from linear extension.
    """

    __slots__ = ('owner', 'image_i', 'image_j', 'center_action', '_powers',
                 '_image_k', '_trivial')

    def __init__(self, owner, image_i, image_j, center_action):
        if image_i.alg != owner or image_j.alg != owner:
            raise ValueError("images must lie in the algebra")
        if (center_action.source != owner.base
                or center_action.target != owner.base):
            raise ValueError("center action must be an endomorphism of the center")
        ca, cb = center_action(owner.a), center_action(owner.b)
        if image_i * image_i != owner.scalar(ca):
            raise ValueError("image of i violates i^2 = a")
        if image_j * image_j != owner.scalar(cb):
            raise ValueError("image of j violates j^2 = b")
        if image_i * image_j != -(image_j * image_i):
            raise ValueError("images violate anticommutation")
        object.__setattr__(self, 'owner', owner)
        object.__setattr__(self, 'image_i', image_i)
        object.__setattr__(self, 'image_j', image_j)
        object.__setattr__(self, 'center_action', center_action)
        object.__setattr__(self, '_powers', {})
        object.__setattr__(self, '_image_k', image_i * image_j)
        object.__setattr__(self, '_trivial',
                           image_i == owner.i() and image_j == owner.j()
                           and center_action.is_identity())

    def __call__(self, x):
        if x.alg != self.owner:
            raise ValueError("element of a different algebra")
        if self._trivial:
            return x
        ca = self.center_action
        x0, x1, x2, x3 = x.coords
        out = self.owner.scalar(ca(x0))
        if not x1.is_zero():
            out = out + self.image_i.scale(ca(x1))
        if not x2.is_zero():
            out = out + self.image_j.scale(ca(x2))
        if not x3.is_zero():
            out = out + self._image_k.scale(ca(x3))
        return out

    def __eq__(self, other):
        return (isinstance(other, AlgebraAutomorphism)
                and self.owner == other.owner
                and self.image_i == other.image_i
                and self.image_j == other.image_j
                and self.center_action == other.center_action)

    def __hash__(self):
        return hash((self.owner, self.image_i, self.image_j,
                     self.center_action))

    def __repr__(self):
        return 'AlgebraAutomorphism(%s: i->%r, j->%r, center gen->%s)' % (
            self.owner.label, self.image_i.coords, self.image_j.coords,
            [str(c) for c in self.center_action.gen_image.coords])

    def is_identity(self):
        return self._trivial

    def compose(self, other):
        """self after other."""
        if other.owner != self.owner:
            raise ValueError("automorphisms of different algebras")
        return AlgebraAutomorphism(self.owner, self(other.image_i),
                                   self(other.image_j),
                                   self.center_action.compose(other.center_action))

    def order(self, cap=96):
        return len(cyclic_powers(self, cap))

    def inverse(self):
        return self.power(self.order() - 1)

    def power(self, k):
        """k-th compositional power, negative k through the inverse."""
        if k in self._powers:
            return self._powers[k]
        if k < 0:
            out = self.inverse().power(-k)
        elif k == 0:
            out = self.owner.identity_automorphism()
        else:
            out = self.compose(self.power(k - 1))
        self._powers[k] = out
        return out


def inner_automorphism(y):
    """Conjugation x -> y x y^{-1}; requires invertible y."""
    if y.is_zero():
        raise ZeroNormError("conjugation by zero")
    yinv = y.inverse()
    return AlgebraAutomorphism(y.alg, y * y.alg.i() * yinv,
                               y * y.alg.j() * yinv,
                               y.alg.base.identity_morphism())


def inner_order(auto):
    """Smallest n with auto^n inner: the order of the central action."""
    return auto.center_action.order()


# ---------------------------------------------------------------------------
# generic structure-constant algebras: centers and centralizers
# ---------------------------------------------------------------------------

class StructureAlgebra(Immutable):
    """Finite-dimensional algebra over Q via structure constants.

    table[p][q] is the coordinate vector of e_p * e_q.  The field must have
    degree 1: the centers and centralizers are solved in rational linear
    algebra.
    """

    __slots__ = ('field', 'labels', 'table', 'dim')

    def __init__(self, field, labels, table):
        if field.degree != 1:
            raise ValueError("structure constants must lie in a field of degree 1")
        dim = len(labels)
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("structure constant table has the wrong shape")
        norm = []
        for row in table:
            out_row = []
            for vec in row:
                if len(vec) != dim:
                    raise ValueError("structure constant vector of wrong length")
                out_row.append(tuple(
                    c if isinstance(c, FieldElement) else field.scalar(c)
                    for c in vec))
            norm.append(tuple(out_row))
        object.__setattr__(self, 'field', field)
        object.__setattr__(self, 'labels', tuple(labels))
        object.__setattr__(self, 'table', tuple(norm))
        object.__setattr__(self, 'dim', dim)

    def mul(self, x, y):
        zero = self.field.zero()
        out = [zero] * self.dim
        for p in range(self.dim):
            if x[p].is_zero():
                continue
            for q in range(self.dim):
                if y[q].is_zero():
                    continue
                c = x[p] * y[q]
                for r, s in enumerate(self.table[p][q]):
                    if not s.is_zero():
                        out[r] = out[r] + c * s
        return out

    def basis_vector(self, p):
        return [self.field.one() if r == p else self.field.zero()
                for r in range(self.dim)]


def centralizer_in_algebra(alg, generators):
    """Basis of elements commuting with every given coordinate vector.

    The kernel is solved over Q and its vectors mapped back to elements.
    """
    def commutator(g):
        return lambda x: [u - v for u, v in zip(alg.mul(g, x), alg.mul(x, g))]

    basis = common_kernel([commutator(g) for g in generators],
                          [alg.basis_vector(p) for p in range(alg.dim)],
                          lambda v: [c.coords[0] for c in v])
    return [[alg.field.scalar(c) for c in vec] for vec in basis]


def center_of_algebra(alg):
    """Basis of the center: commutants of all basis elements at once."""
    gens = [alg.basis_vector(p) for p in range(alg.dim)]
    return centralizer_in_algebra(alg, gens)
