"""Exact quaternion algebras over number fields.

(a,b/h) is the four-dimensional algebra with basis 1, i, j, k = ij and
relations i^2 = a, j^2 = b, ji = -ij over the center h.  An element is one
integer vector, like a ``FieldElement``: the numerators of its coordinates
on the units times the power basis of h, over one denominator.  A product
packs each coordinate polynomial into one integer at 2^shift (Kronecker
substitution), sums the big-integer products of the unit pairs e_p e_q =
+-c e_(p xor q), c in {1, a, b, ab}, for each unit, reduces each sum once
modulo m(2^shift), m the minimal polynomial, and unpacks the digits.  The
reduced norm is the diagonal quadratic form <1, -a, -b, ab>; whether it
has a nontrivial zero over an extension field decides whether the scalar
extension stays a division ring.  Anisotropy is answered three-valued with
certificates: a definite real place, an explicit isotropy witness, or an
honest unknown after a bounded search.

Automorphisms are stored by the images of i and j together with their
action on the center, and applied through the nonzero entries of one cached
integer matrix.  When i and j are fixed, as by every element of a Galois
group, that matrix is four diagonal blocks of the center action's matrix,
at most deg h entries per row, and building or checking the automorphism
multiplies no quaternions.  The inner order of an automorphism equals the
order of that central action; conjugations are exactly the automorphisms
whose central action is trivial.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg, sub
from struct import unpack

from .linalg import invert
from .numfield import (ANISOTROPY_PAIRS, FieldElement, Immutable,
                       RingElement, _integer_elements, _packed, cyclic_powers)


class ZeroNormError(ArithmeticError):
    """Raised when inverting an element of reduced norm zero."""


# e_p e_q = (-1)^(p1 q0) c_(p and q) e_(p xor q), p = p0 + 2 p1, c in
# (1, a, b, ab): entry [p][q] is (p1 q0, p and q)
_UNITS = tuple(tuple(((p >> 1) & q & 1, p & q) for q in range(4))
               for p in range(4))

# 2^63 in each of k 64-bit digits, for up to four units over degree 8
_HALVES = tuple(int.from_bytes((bytes(7) + b'\x80') * k, 'little')
                for k in range(33))


def _pack(num, n, shift):
    """Each run of n coefficients in num as its polynomial at 2^shift."""
    out = []
    for u in range(0, len(num), n):
        v = 0
        for c in reversed(num[u:u + n]):
            v = (v << shift) + c
        out.append(v)
    return out


def _unpack(v, shift, count):
    """The count balanced base-2^shift digits of v, shift a multiple of 64.

    Adding 2^(shift-1) to every digit and flipping each digit's top bit
    leaves the digits' two's complement bytes.
    """
    width = shift >> 3
    off = _HALVES[count] if width == 8 else int.from_bytes(
        (bytes(width - 1) + b'\x80') * count, 'little')
    try:
        buf = ((v + off) ^ off).to_bytes(width * count, 'little')
    except OverflowError:
        raise AssertionError("packed value overflowed its digits") from None
    if width == 8:
        return unpack('<%dq' % count, buf)
    return [int.from_bytes(buf[i:i + width], 'little', signed=True)
            for i in range(0, width * count, width)]


class QuaternionAlgebra(Immutable):
    """(a,b/h): i^2 = a, j^2 = b, ij = k = -ji over the number field h.

    Construction precomputes the integer data of a product: for each unit
    r, the pairs (p, q) with p xor q = r, with their signs, grouped by their
    constant in (1, a, b, ab) as integer numerators over one denominator;
    and a bit bound on a reduced product coefficient.
    """

    __slots__ = ('base', 'a', 'b', 'ab', 'label', 'division_certified',
                 'extension_of', '_terms', '_cden', '_cbits', '_moduli')

    def __init__(self, base, a, b, label=None, division_certified=None,
                 extension_of=None):
        a = base.scalar(a) if isinstance(a, (int, Fraction)) else a
        b = base.scalar(b) if isinstance(b, (int, Fraction)) else b
        if a.field != base or b.field != base:
            raise ValueError("parameters must lie in the base field")
        if a.is_zero() or b.is_zero():
            raise ValueError("parameters must be nonzero")
        ab = a * b
        n, den = base.degree, lcm(a.den, b.den, ab.den)
        nums = []
        for c in (base.one(), a, b, ab):
            nums.append([x * (den // c.den) for x in c.num])
            while len(nums[-1]) > 1 and not nums[-1][-1]:
                nums[-1].pop()
        # constants equal up to sign share one product, and 1 (None) needs none
        terms = []
        for r in range(4):
            groups = {}
            for p in range(4):
                negate, t = _UNITS[p][p ^ r]
                c = tuple(nums[t])
                if c not in groups and tuple([-x for x in c]) in groups:
                    c, negate = tuple([-x for x in c]), 1 - negate
                groups.setdefault(c, []).append((p, p ^ r, negate))
            terms.append(tuple((None if c == (1,) else c, tuple(pairs))
                               for c, pairs in groups.items()))
        # A coefficient of one unit's sum of c x_p y_q sums at most 4 n^2
        # terms c_l x_i y_j; reducing it multiplies that by at most the
        # largest column sum of |gen^m| (m < 3n - 2) on the power basis.
        # Two spare bits keep each reduced sum within half of m(2^shift).
        rows = [(1,) + (0,) * (n - 1)]
        while len(rows) < 2 * n - 2 + max(map(len, nums)):
            rows.append(tuple([s + rows[-1][-1] * r for s, r in
                               zip((0,) + rows[-1][:-1], base._red_rows[0])]))
        grow = max(map(sum, zip(*[map(abs, row) for row in rows])))
        cbits = (max(abs(x) for c in nums for x in c).bit_length()
                 + (4 * n * n).bit_length() + grow.bit_length() + 2)
        # associativity of the terms on all unit triples, in the center;
        # the product is bilinear over the commutative center, so these
        # decide it.  unit[p, q] = (sign, t): the terms make e_p e_q =
        # +-consts[t] e_(p xor q), and a side is a signed product of two.
        index = {}
        for t, c in enumerate(nums):
            index.setdefault(tuple(c), (0, t))
            index.setdefault(tuple([-x for x in c]), (1, t))
        unit = {(p, q): (sign ^ negate, t) for groups in terms
                for c, pairs in groups for sign, t in [index[c or (1,)]]
                for p, q, negate in pairs}
        consts = (base.one(), a, b, ab)
        table = [[(v, -v) for v in [x * y for y in consts]] for x in consts]

        def side(x, y):
            return table[x[1]][y[1]][x[0] ^ y[0]]
        if any(side(unit[p, q], unit[p ^ q, s])
               != side(unit[q, s], unit[p, q ^ s])
               for p in range(4) for q in range(4) for s in range(4)):
            raise AssertionError("structure constants not associative")
        super().__init__(base, a, b, ab, label or 'H', division_certified,
                         extension_of, tuple(terms), den, cbits, {})

    def _product(self, xn, yn, terms):
        """Numerators of the product over x.den * y.den * _cden.

        ``terms`` lists the units to compute (``_terms`` or a prefix).  Over
        a center of degree n > 1 the coordinate polynomials are packed at
        2^shift, shift a multiple of 64 above the bound on a reduced
        coefficient, and each unit's sum is taken modulo m(2^shift) into
        the symmetric range: the reduced polynomial at 2^shift.
        """
        n = self.base.degree
        if n > 1:
            shift = (max(map(abs, xn)).bit_length()
                     + max(map(abs, yn)).bit_length() + self._cbits + 63) & -64
            xn, yn = _pack(xn, n, shift), _pack(yn, n, shift)
            mod = self._moduli.get(shift) or self._moduli.setdefault(
                shift, (1 << shift * n)
                - _pack(self.base._red_rows[0], n, shift)[0])
            half = mod >> 1
        out = []
        for groups in terms:
            acc = 0
            for c, pairs in groups:
                s = 0
                for p, q, negate in pairs:
                    xp, yq = xn[p], yn[q]
                    if xp and yq:
                        s = s - xp * yq if negate else s + xp * yq
                if s and c is not None:
                    s *= c[0] if len(c) == 1 else _pack(c, len(c), shift)[0]
                acc += s
            out.append(acc if n == 1 else (acc + half) % mod - half)
        return out if n == 1 else _unpack(_pack(out, len(out), shift * n)[0],
                                          shift, n * len(out))

    def __eq__(self, other):
        return self is other or (isinstance(other, QuaternionAlgebra)
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
        den = lcm(*[c.den for c in out])
        return QuatElement(self, tuple([x * (den // c.den)
                                        for c in out for x in c.num]), den)

    def scalar(self, c):
        return self.element([c])

    def zero(self):
        return QuatElement(self, (0,) * (4 * self.base.degree))

    def one(self):
        return self._unit(0)

    def i(self):
        return self._unit(1)

    def j(self):
        return self._unit(2)

    def k(self):
        return self._unit(3)

    def _unit(self, u, power=0):
        """gen^power e_u."""
        num = [0] * (4 * self.base.degree)
        num[u * self.base.degree + power] = 1
        return QuatElement(self, tuple(num))

    def q_basis(self):
        """Basis over Q: quaternion units times the center's power basis."""
        return [self._unit(u, i) for u in range(4)
                for i in range(self.base.degree)]

    def q_dim(self):
        return 4 * self.base.degree

    def identity_automorphism(self):
        return AlgebraAutomorphism(self, self.i(), self.j(),
                                   self.base.identity_morphism())


class QuatElement(RingElement):
    """Element of a quaternion algebra: integer numerators over one denominator.

    ``num[u * deg + i] / den`` is the coordinate of gen^i e_u, with
    e = (1, i, j, k); the form is canonical as for ``FieldElement``.
    ``coords`` builds the four center coordinates on request.
    """

    __slots__ = ('alg', 'num', 'den')

    def __init__(self, alg, num, den=1):
        # num is a tuple of ints and den a positive int
        g = gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
        object.__setattr__(self, 'alg', alg)
        object.__setattr__(self, 'num', num)
        object.__setattr__(self, 'den', den)

    @property
    def coords(self):
        base, n = self.alg.base, self.alg.base.degree
        return tuple([FieldElement(base, self.num[u:u + n], self.den)
                      for u in range(0, 4 * n, n)])

    def _coerce(self, other):
        if isinstance(other, QuatElement):
            if other.alg is not self.alg and other.alg != self.alg:
                raise ValueError("elements of different algebras")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.alg.scalar(other)
        return None

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((self.alg.base, self.num, self.den))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def _combine(self, other, op):
        """self + other (op add) or self - other (op sub)."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(o.num):
            return self
        if not any(self.num):
            return o if op is add else -o
        da, db = self.den, o.den
        if da == db:
            return QuatElement(self.alg, tuple(map(op, self.num, o.num)), da)
        return QuatElement(self.alg, tuple(map(op, [x * db for x in self.num],
                                               [y * da for y in o.num])),
                           da * db)

    def __neg__(self):
        return QuatElement(self.alg, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        if type(other) is QuatElement and other.alg is self.alg:
            return self._times(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._times(o)

    def _times(self, o):
        alg = self.alg
        return QuatElement(alg, tuple(alg._product(self.num, o.num, alg._terms)),
                           self.den * o.den * alg._cden)

    def scale(self, c):
        """Multiplication by a central element."""
        return self._times(self.alg.scalar(c))

    def conj(self):
        n, num = self.alg.base.degree, self.num
        return QuatElement(self.alg, num[:n] + tuple(map(neg, num[n:])),
                           self.den)

    def reduced_norm(self):
        """The coordinate of 1 in x * conj(x)."""
        alg = self.alg
        num = alg._product(self.num, self.conj().num, alg._terms[:1])
        return FieldElement(alg.base, tuple(num),
                            self.den * self.den * alg._cden)

    def inverse(self):
        n = self.reduced_norm()
        if n.is_zero():
            raise ZeroNormError("element has reduced norm zero")
        return self.conj().scale(n.inverse())

    def __repr__(self):
        return 'QuatElement(%s @ %s)' % (
            ['[' + ','.join(str(q) for q in c.coords) + ']'
             for c in self.coords], self.alg.label)

    def q_vector(self):
        """Rational coordinate vector over Q, basis as in q_basis()."""
        return [Fraction(x, self.den) for x in self.num]


def quat_from_q_vector(alg, vec):
    vec = [Fraction(x) for x in vec]
    den = lcm(*[x.denominator for x in vec])
    return QuatElement(alg, tuple([x.numerator * (den // x.denominator)
                                   for x in vec]), den)


def extend_quaternion(x, big, emb):
    """Push a quaternion across a scalar extension of its center."""
    rows, den = emb.int_matrix()
    n = x.alg.base.degree
    return QuatElement(big, tuple([sum(map(mul, x.num[u:u + n], row))
                                   for u in range(0, 4 * n, n)
                                   for row in rows]), den * x.den)


def q_matrix(images):
    """(rows, den): an integer matrix over one denominator whose columns are
    the q-vectors of the given quaternions."""
    den = lcm(*[q.den for q in images])
    return (tuple(zip(*[[x * (den // q.den) for x in q.num] for q in images])),
            den)


def mul_matrix(c, side):
    """q_matrix of left ('L') or right ('R') multiplication by c."""
    return q_matrix([c * e if side == 'L' else e * c
                     for e in c.alg.q_basis()])


def reduced_norm(x):
    return x.reduced_norm()


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
        super().__init__(algebra, target, embedding,
                         (target.one(), -a, -b, a * b))

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
        super().__init__(kind, form, place,
                         tuple(witness) if witness else None, bound)

    def __repr__(self):
        return 'AnisotropyVerdict(%s)' % self.kind


def anisotropy(form, height_bound):
    """Decide the form with certificates, or report unknown.

    Search order: real-place definiteness first, then a staged exhaustive
    hunt for a nontrivial zero with integer power-basis coordinates of
    height up to the bound, meeting in the middle over coordinate pairs of
    the values c_i x^2 packed into ints, one per distinct square.  It stops
    before a height with more than ANISOTROPY_PAIRS pairs; ``bound`` is the
    last height searched.  The verdict re-checks the witness on field
    elements.
    """
    if height_bound < 1:
        raise ValueError("height bound must be positive")
    target = form.target
    for place in target.real_places():
        signs = {place.sign(c) for c in form.coefficients}
        if signs == {1} or signs == {-1}:
            return AnisotropyVerdict('anisotropic', form, place=place)
    heights = sorted({min(h, height_bound) for h in (1, 2, 3, 5, 8, 13, height_bound)})
    searched = 0
    for h in heights:
        count = (2 * h + 1) ** target.degree
        if count * count > ANISOTROPY_PAIRS:
            break
        searched = h
        # c_i x^2 = c_i y^2 exactly when x^2 = y^2, and only x = 0 gives 0:
        # the first pair with a given sum is made of first occurrences
        first = {}
        for x in _integer_elements(target, h):
            first.setdefault(x * x, x)
        keys = _packed([ci * sq for sq in first for ci in form.coefficients], 4)
        col1, col2, col3, col4 = [list(zip(first.values(), keys[i::4]))
                                  for i in range(4)]
        halves = {}
        for x1, v1 in col1:
            for x2, v2 in col2:
                halves.setdefault(v1 + v2, (x1, x2))
        for x3, v3 in col3:
            for x4, v4 in col4:
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
    on the whole algebra then follows from linear extension.  When i and j
    are their own images the relations hold in the product table, which the
    algebra verified, so only center_action(a) = a and center_action(b) = b
    are checked.  A composite of verified automorphisms is an automorphism,
    so ``compose`` skips the check.
    """

    __slots__ = ('owner', 'image_i', 'image_j', 'center_action', '_powers',
                 '_matrix', '_entries', '_fixes_ij', '_trivial', '_order')

    def __init__(self, owner, image_i, image_j, center_action):
        if image_i.alg != owner or image_j.alg != owner:
            raise ValueError("images must lie in the algebra")
        if (center_action.source != owner.base
                or center_action.target != owner.base):
            raise ValueError("center action must be an endomorphism of the center")
        fixed = self._fill(owner, image_i, image_j, center_action)._fixes_ij
        ca, cb = center_action(owner.a), center_action(owner.b)
        if ca != owner.a if fixed else image_i * image_i != owner.scalar(ca):
            raise ValueError("image of i violates i^2 = a")
        if cb != owner.b if fixed else image_j * image_j != owner.scalar(cb):
            raise ValueError("image of j violates j^2 = b")
        if not fixed and image_i * image_j != -(image_j * image_i):
            raise ValueError("images violate anticommutation")

    def _fill(self, owner, image_i, image_j, center_action):
        fixes_ij = image_i == owner.i() and image_j == owner.j()
        object.__setattr__(self, 'owner', owner)
        object.__setattr__(self, 'image_i', image_i)
        object.__setattr__(self, 'image_j', image_j)
        object.__setattr__(self, 'center_action', center_action)
        object.__setattr__(self, '_powers', {})
        object.__setattr__(self, '_matrix', None)
        object.__setattr__(self, '_entries', None)
        object.__setattr__(self, '_fixes_ij', fixes_ij)
        object.__setattr__(self, '_trivial',
                           fixes_ij and center_action.is_identity())
        object.__setattr__(self, '_order', None)
        return self

    def int_matrix(self):
        """(rows, den) of the map on q-vectors, built on first use: column
        u * deg + i is the image of gen^i e_u, center_action(gen^i) times
        the image of e_u.  When i and j are fixed, that is four diagonal
        blocks of the center action's power-basis columns."""
        if self._matrix is None:
            owner = self.owner
            if self._fixes_ij:
                cols, den = self.center_action._columns()
                pad = (0,) * owner.base.degree
                matrix = (tuple(zip(*[pad * u + col + pad * (3 - u)
                                      for u in range(4) for col in cols])),
                          den)
            else:
                matrix = q_matrix([
                    unit.scale(self.center_action(power))
                    for unit in (owner.one(), self.image_i, self.image_j,
                                 self.image_i * self.image_j)
                    for power in owner.base.basis()])
            object.__setattr__(self, '_matrix', matrix)
        return self._matrix

    def __call__(self, x):
        """x through the nonzero (row, column, value) of int_matrix()."""
        if x.alg is not self.owner and x.alg != self.owner:
            raise ValueError("element of a different algebra")
        if self._trivial:
            return x
        if self._entries is None:
            rows, den = self.int_matrix()
            object.__setattr__(self, '_entries', (tuple([
                (r, c, v) for r, row in enumerate(rows)
                for c, v in enumerate(row) if v]), den))
        entries, den = self._entries
        num = x.num
        out = [0] * len(num)
        for r, c, v in entries:
            out[r] += v * num[c]
        return QuatElement(self.owner, tuple(out), den * x.den)

    def __eq__(self, other):
        return self is other or (isinstance(other, AlgebraAutomorphism)
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
        return object.__new__(AlgebraAutomorphism)._fill(
            self.owner, self(other.image_i), self(other.image_j),
            self.center_action.compose(other.center_action))

    def order(self):
        if self._order is None:
            object.__setattr__(self, '_order', len(cyclic_powers(self)))
        return self._order

    def inverse(self):
        """Inverse automorphism from the inverted integer matrix, so a twist
        of infinite order has one too: column u * deg is the image of e_u.
        A twist fixing i and j is inverted through its center action."""
        if self._fixes_ij:
            return AlgebraAutomorphism(self.owner, self.image_i, self.image_j,
                                       self.center_action.inverse())
        rows, den = self.int_matrix()
        m, n = invert(rows), self.owner.base.degree
        image_i, image_j = [quat_from_q_vector(
            self.owner, [den * row[u * n] for row in m]) for u in (1, 2)]
        return AlgebraAutomorphism(self.owner, image_i, image_j,
                                   self.center_action.inverse())

    def power(self, k):
        """k-th compositional power, negative k through the inverse."""
        if k in self._powers:
            return self._powers[k]
        if k == -1:
            out = self.inverse()
        elif k < 0:
            out = self.power(-1).compose(self.power(k + 1))
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
