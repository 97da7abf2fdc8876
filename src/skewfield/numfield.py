"""Exact arithmetic in small-degree number fields.

A field is presented absolutely over the rationals by a monic irreducible
integer polynomial, whose irreducibility ``zfactor`` certifies on
construction: Eisenstein's criterion, then the degree sieve of
distinct-degree factorizations modulo a few primes, then Hensel lifting and
exhaustive recombination of the factors modulo one prime.  An element is
stored in one canonical integer form, in the style of FLINT's
``fmpq_poly``: a tuple of integer numerators over one positive integer
denominator, coprime to them, for the coordinates in the power basis of the
generator.  Sums, products and inverses run on those integers; products
reduce modulo the minimal polynomial with an integer table, which is exact
because the polynomial is monic with integer coefficients.  Field morphisms
apply one cached integer matrix.  Rational coordinates are only made on
request, for reports and linear algebra.

Subfields are explicit embeddings, towers are flattened through primitive
elements, and automorphism groups are found by enumerating the roots of the
defining polynomial inside the field itself.  Real embeddings are certified
with Sturm sequences over exact rationals, built with ``poly``; each call
builds the chain of a polynomial once, and root isolation bisects and a
real place refines its interval on that chain.  No floating point is used
anywhere.

The degree is capped at 8: every check stays cheap and fully exact at that
scale, and the constructions this package verifies never need more.
"""

from fractions import Fraction
from itertools import count, product as _iproduct, takewhile
from math import gcd, lcm
from operator import mul

from . import poly
from .linalg import (coordinates_in_span, difference_rows, eliminate,
                     identity, invert, kernel_basis)
from .zfactor import (MAX_DEGREE, PRIME_CAP, is_irreducible_over_q,
                      linear_part, lift_root, odd_primes, roots_mod)

_Q0 = Fraction(0)
_Q1 = Fraction(1)
LEVEL_ELEMENTS = 100_000  # elements field_level enumerates at one height
ANISOTROPY_PAIRS = 2_000_000  # coordinate pairs anisotropy matches per height
ORDER_CAP = 96  # largest order cyclic_powers follows


# ---------------------------------------------------------------------------
# Sturm sequences and real root isolation
# ---------------------------------------------------------------------------

def sturm_chain(p):
    p = poly.reduce(p)
    chain = [p, poly.deriv(p)]
    while chain[-1]:
        chain.append([-c for c in poly.quo_rem(chain[-2], chain[-1])[1]])
    return [c for c in chain if c]


def _variations(values):
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _variations_at_inf(chain, positive):
    vals = []
    for c in chain:
        lead = c[-1]
        if positive:
            vals.append(lead)
        else:
            vals.append(lead if (len(c) - 1) % 2 == 0 else -lead)
    return _variations(vals)


def cauchy_bound(p):
    p = poly.reduce(p)
    lead = abs(p[-1])
    m = max((abs(c) for c in p[:-1]), default=_Q0)
    return _Q1 + Fraction(m) / lead


def count_real_roots(p, lo=None, hi=None, chain=None):
    """Number of distinct real roots of p, in (lo, hi] when bounds given;
    ``chain`` is the Sturm chain of p when the caller has it."""
    chain = chain or sturm_chain(p)
    if not chain:
        raise ValueError("zero polynomial")
    va = _variations([poly.evaluate(c, lo) for c in chain]) if lo is not None \
        else _variations_at_inf(chain, positive=False)
    vb = _variations([poly.evaluate(c, hi) for c in chain]) if hi is not None \
        else _variations_at_inf(chain, positive=True)
    return va - vb


def isolate_real_roots(p):
    """Disjoint rational intervals (lo, hi], one distinct real root each."""
    p = poly.reduce(p)
    chain = sturm_chain(p)
    total = count_real_roots(p, chain=chain)
    if total == 0:
        return []
    bound = cauchy_bound(p)
    out = []
    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        while poly.evaluate(p, mid) == 0:
            # nudge the cut off a root; p has finitely many
            mid = (lo + mid) / 2
        left = count_real_roots(p, lo, mid, chain)
        stack.append((lo, mid, left))
        stack.append((mid, hi, n - left))
    out.sort()
    return out


def refine_root_interval(p, lo, hi, chain=None):
    """Halve an isolating interval of p, keeping exactly one root inside."""
    mid = (lo + hi) / 2
    if poly.evaluate(p, mid) == 0:
        mid = (lo + mid) / 2
    if count_real_roots(p, lo, mid, chain) == 1:
        return lo, mid
    return mid, hi


# ---------------------------------------------------------------------------
# fields, elements, morphisms
# ---------------------------------------------------------------------------

class Immutable:
    """Base of the value classes: attributes are set once, at construction.

    The one constructor fills the class's own __slots__ in declaration
    order, first from the positional values and then by name; every slot
    takes exactly one value.  The element classes, trusted composites and
    lazy caches write through object.__setattr__; any other assignment
    raises.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        slots = type(self).__slots__
        if len(values) > len(slots):
            raise TypeError("%s takes %d values, got %d"
                            % (type(self).__name__, len(slots), len(values)))
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)
        for name in slots[len(values):]:
            if name not in named:
                raise TypeError("%s needs a value for %s"
                                % (type(self).__name__, name))
            object.__setattr__(self, name, named.pop(name))
        if named:
            raise TypeError("%s got unknown or repeated values %s"
                            % (type(self).__name__, ', '.join(sorted(named))))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


class RingElement(Immutable):
    """Base of the ring element classes: the derived operators, once.

    A subclass defines +, unary -, * and _coerce, which returns the other
    operand as an element of the same ring or None; ** with a negative
    exponent also needs inverse().
    """

    __slots__ = ()

    def __radd__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + self

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self._coerce(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


class NumberField(Immutable):
    """Q[x]/(min_poly) with min_poly monic, integer, irreducible, deg <= 8."""

    __slots__ = ('min_poly', 'degree', 'label', '_autos', '_places',
                 '_red_rows', '_zero', '_one', '_hash')

    def __init__(self, min_poly, label=None):
        coeffs = poly.reduce([Fraction(c) for c in min_poly])
        if len(coeffs) < 2:
            raise ValueError("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError("minimal polynomial must have integer coefficients")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise ValueError("degree above %d not supported" % MAX_DEGREE)
        if not is_irreducible_over_q(coeffs):
            raise ValueError("minimal polynomial is reducible over Q")
        # integer coordinates of gen^k for k = degree .. 2*degree - 2
        n = len(coeffs) - 1
        rows = []
        prev = [-int(c) for c in coeffs[:-1]]
        rows.append(tuple(prev))
        for _ in range(n - 2):
            shifted = [0] + prev[:-1]
            top = prev[-1]
            prev = [shifted[i] + top * rows[0][i] for i in range(n)]
            rows.append(tuple(prev))
        min_poly = tuple(coeffs)
        super().__init__(min_poly, n, label or 'K', None, None, tuple(rows),
                         FieldElement(self, (0,) * n),
                         FieldElement(self, (1,) + (0,) * (n - 1)),
                         hash(min_poly))

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return 'NumberField(%s, %r)' % ([str(c) for c in self.min_poly], self.label)

    def element(self, coords):
        coords = [c if isinstance(c, int) else Fraction(c) for c in coords]
        if len(coords) > self.degree:
            raise ValueError("too many coordinates")
        den = lcm(*[c.denominator for c in coords])
        num = [c.numerator * (den // c.denominator) for c in coords]
        return FieldElement(self, tuple(num + [0] * (self.degree - len(num))), den)

    def scalar(self, q):
        return self.element([Fraction(q)])

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def gen(self):
        if self.degree == 1:
            return self.element([-self.min_poly[0]])
        return self.element([0, 1])

    def basis(self):
        return [self.element([0] * i + [1]) for i in range(self.degree)]

    def identity_morphism(self):
        return FieldMorphism._trusted(self, self, self.gen())

    def automorphisms(self):
        """All field automorphisms (over Q), via roots of min_poly in self."""
        if self._autos is None:
            roots = roots_in_field(self.min_poly, self)
            autos = [FieldMorphism._trusted(self, self, r) for r in roots]
            autos.sort(key=lambda m: (m.gen_image != self.gen(), m.gen_image.coords))
            object.__setattr__(self, '_autos', tuple(autos))
        return list(self._autos)

    def real_places(self):
        """Real embeddings as isolating intervals for roots of min_poly."""
        if self._places is None:
            ivs = isolate_real_roots(list(self.min_poly))
            object.__setattr__(self, '_places',
                               tuple(RealPlace(self, i, lo, hi)
                                     for i, (lo, hi) in enumerate(ivs)))
        return list(self._places)


class FieldElement(RingElement):
    """Element of a NumberField: integer numerators over one denominator.

    ``num[i] / den`` is the coordinate of gen^i in the power basis.  The
    form is canonical: ``den`` is a positive integer and
    gcd(den, *num) == 1, so zero is ((0, ..., 0), 1), and equality and
    hashing compare the integers.  ``coords`` returns the coordinates as a
    tuple of Fractions.
    """

    __slots__ = ('field', 'num', 'den')

    def __init__(self, field, num, den=1):
        # num is a tuple of ints and den a positive int
        g = gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
        object.__setattr__(self, 'field', field)
        object.__setattr__(self, 'num', num)
        object.__setattr__(self, 'den', den)

    @property
    def coords(self):
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.num))
        return tuple([Fraction(x, den) for x in self.num])

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
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
        return hash((self.field._hash, self.num, self.den))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return FieldElement(self.field,
                                tuple([x + y for x, y in zip(self.num, o.num)]), da)
        return FieldElement(self.field, tuple([x * db + y * da for x, y
                                               in zip(self.num, o.num)]), da * db)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return FieldElement(self.field,
                                tuple([x - y for x, y in zip(self.num, o.num)]), da)
        return FieldElement(self.field, tuple([x * db - y * da for x, y
                                               in zip(self.num, o.num)]), da * db)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        a, b = self.num, o.num
        n = len(a)
        if n == 1:
            return FieldElement(field, (a[0] * b[0],), self.den * o.den)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    prod[k] += x * y
        # gen^(n+k) reduces to the integer row _red_rows[k]
        out = prod[:n]
        for c, row in zip(prod[n:], field._red_rows):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return FieldElement(field, tuple(out), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """Inverse by solving M z = e_0 in the shared integer echelon.

        M is the integer matrix of multiplication by ``num``; every pivot
        of the echelon equals det M, and the last column holds det M * z.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        n = len(self.num)
        col = list(self.num)
        cols = [col]
        for _ in range(n - 1):
            top = col[-1]
            col = [0] + col[:-1]
            if top:
                col = [c + top * r for c, r in zip(col, field._red_rows[0])]
            cols.append(col)
        rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(n)]
        eliminate(rows, n)
        det = rows[0][0]
        sign = 1 if det > 0 else -1
        return FieldElement(field, tuple([sign * self.den * row[n] for row in rows]),
                            sign * det)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __repr__(self):
        return 'FieldElement(%s @ %s)' % ([str(c) for c in self.coords],
                                          self.field.label)


class FieldMorphism(Immutable):
    """Ring morphism between number fields, pinned by the generator image.

    Construction verifies the morphism certificate: the source minimal
    polynomial vanishes at gen_image.  ``_trusted`` skips it where it holds:
    composites, the identity and the roots ``roots_in_field`` has verified.
    """

    __slots__ = ('source', 'target', 'gen_image', '_trivial', '_matrix',
                 '_order')

    def __init__(self, source, target, gen_image):
        if gen_image.field != target:
            raise ValueError("generator image lies in the wrong field")
        val = poly.evaluate(source.min_poly, gen_image)
        if not val.is_zero():
            raise ValueError("not a morphism: minimal polynomial does not vanish")
        self._fill(source, target, gen_image)

    @classmethod
    def _trusted(cls, source, target, gen_image):
        return object.__new__(cls)._fill(source, target, gen_image)

    def _fill(self, source, target, gen_image):
        object.__setattr__(self, 'source', source)
        object.__setattr__(self, 'target', target)
        object.__setattr__(self, 'gen_image', gen_image)
        object.__setattr__(self, '_trivial',
                           source == target and gen_image == source.gen())
        object.__setattr__(self, '_matrix', None)
        object.__setattr__(self, '_order', None)
        return self

    def _columns(self):
        """Integer columns of image_basis() and their one denominator.

        Column k holds the numerators of gen_image^k over the common
        denominator; built on first use and cached.
        """
        if self._matrix is None:
            powers = []
            power = self.target.one()
            for _ in range(self.source.degree):
                powers.append(power)
                power = power * self.gen_image
            den = lcm(*[p.den for p in powers])
            cols = tuple(tuple([x * (den // p.den) for x in p.num]) for p in powers)
            object.__setattr__(self, '_matrix', (cols, den))
        return self._matrix

    def __call__(self, elem):
        if elem.field is not self.source and elem.field != self.source:
            raise ValueError("element not in the source field")
        if self._trivial:
            return elem
        cols, den = self._columns()
        out = [0] * self.target.degree
        for c, col in zip(elem.num, cols):
            if c:
                for i, x in enumerate(col):
                    out[i] += c * x
        return FieldElement(self.target, tuple(out), den * elem.den)

    def __eq__(self, other):
        return (isinstance(other, FieldMorphism)
                and self.source == other.source
                and self.target == other.target
                and self.gen_image == other.gen_image)

    def __hash__(self):
        return hash((self.source, self.target, self.gen_image))

    def __repr__(self):
        return 'FieldMorphism(%s -> %s : gen -> %s)' % (
            self.source.label, self.target.label,
            [str(c) for c in self.gen_image.coords])

    def is_identity(self):
        return self._trivial

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise ValueError("morphisms do not compose")
        return self._trusted(other.source, self.target, self(other.gen_image))

    def int_matrix(self):
        """(rows, den) of the map on power-basis coordinates, the shape of
        ``AlgebraAutomorphism.int_matrix``: column k is gen_image^k."""
        cols, den = self._columns()
        return tuple(zip(*cols)), den

    def order(self):
        if self.source != self.target:
            raise ValueError("order of a non-endomorphism")
        if self._order is None:
            object.__setattr__(self, '_order', len(cyclic_powers(self)))
        return self._order

    def inverse(self):
        """Inverse automorphism, from the integer columns of the map."""
        if self.source != self.target:
            raise ValueError("inverse of a non-automorphism")
        cols, den = self._columns()
        m = invert(list(zip(*cols)))
        if m is None:
            raise ValueError("morphism not invertible")
        gen = self.source.gen().coords
        img = [den * sum((x * g for x, g in zip(row, gen)), _Q0) for row in m]
        return FieldMorphism(self.source, self.source, self.source.element(img))

    def image_basis(self):
        """Q-spanning vectors of the image subfield inside the target."""
        cols, den = self._columns()
        return [[Fraction(x, den) for x in col] for col in cols]


class OrderCapExceeded(ValueError):
    """A map's order is above ORDER_CAP, or infinite."""


def cyclic_powers(g):
    """[id, g, g^2, ..., g^(n-1)] for the order n of g, at most ORDER_CAP.

    g is a map with compose() and is_identity(); an order above the cap
    raises OrderCapExceeded.
    """
    powers = [g]
    while not powers[-1].is_identity():
        if len(powers) == ORDER_CAP:
            raise OrderCapExceeded("order exceeds cap %d" % ORDER_CAP)
        powers.append(g.compose(powers[-1]))
    return powers[-1:] + powers[:-1]


class RealPlace(Immutable):
    """A real embedding, certified by an isolating interval of min_poly."""

    __slots__ = ('field', 'index', 'lo', 'hi')

    def __repr__(self):
        return 'RealPlace(#%d of %s in (%s, %s])' % (
            self.index, self.field.label, self.lo, self.hi)

    def sign(self, elem):
        """Exact sign of a nonzero element under this real embedding.

        The coordinate polynomial g has degree below deg(min_poly), so a
        nonzero element never vanishes at the root; the isolating interval
        is narrowed until g has no root inside and a definite endpoint sign.
        """
        if elem.field != self.field:
            raise ValueError("element of a different field")
        if elem.is_zero():
            return 0
        g = poly.reduce(elem.coords)
        p = list(self.field.min_poly)
        lo, hi = self.lo, self.hi
        g_chain, p_chain = sturm_chain(g), None
        while True:
            if (count_real_roots(g, lo, hi, g_chain) == 0
                    and poly.evaluate(g, lo) != 0 and poly.evaluate(g, hi) != 0):
                return 1 if poly.evaluate(g, lo) > 0 else -1
            p_chain = p_chain or sturm_chain(p)
            lo, hi = refine_root_interval(p, lo, hi, p_chain)


# ---------------------------------------------------------------------------
# root enumeration inside a field
# ---------------------------------------------------------------------------

def roots_in_field(coeffs, field):
    """All roots in ``field`` of a nonzero rational polynomial f, sorted.

    The search works at the first odd prime where m has a root and f and m
    stay squarefree of their degree, and hands the rest of that scan on.
    The list is complete by the count certificate (every root of f mod p
    gave a verified root), by the count at a later prime, or by the bound
    certificate of ``_roots_at_prime`` (there a failing candidate proves no
    root above).
    """
    cs = poly.reduce([Fraction(c) for c in coeffs])
    if len(cs) < 2:
        return []
    cs = poly.quo_rem(cs, poly.gcd(cs, poly.deriv(cs)))[0]
    den = lcm(*[c.denominator for c in cs]) * (1 if cs[-1] > 0 else -1)
    f = [c.numerator * (den // c.denominator) for c in cs]
    m = [int(c) for c in field.min_poly]
    scan = _good_primes(f, m)
    _, p, parts = next(scan)
    return _roots_at_prime(f, field, p, parts, scan)[0]


def _good_primes(f, m):
    """(1 + roots of f mod p, p, linear parts of m and f mod p) for each odd
    prime p where m has a root and f and m stay squarefree of their degree;
    one ``zfactor.linear_part`` when f = m."""
    for p in odd_primes():
        lm = linear_part(m, p)
        if lm is not None and len(lm) > 1:
            lf = lm if f == m else linear_part(f, p)
            if lf is not None:
                yield len(lf), p, (lm, lf)


def _roots_at_prime(f, field, p, parts=None, later=()):
    """The sorted roots in K of f (integer, leading coefficient c > 0) at p,
    and the roots b of f mod p that lie below none.

    alpha -> A, the root of m above a, embeds K in Q_p.  For a root beta,
    w = m'(alpha) c beta lies in Z[alpha] (Euler), and t = (m'(A) c B, 0,
    ..., 0), B the root of f above b, in w + L for the lattice L of u with
    u(A) = 0 mod p^k.  Babai's nearest plane on an LLL basis rounds t to
    the candidate, at most 2^(n/2) times as long as the shortest in t + L.
    With Cauchy bounds R, R_f for m and f, w has conjugates below S =
    (2R)^(n-1) c R_f, so coordinates below H = n^(n/2) R^(n(n-1)/2) S by
    Cramer and Hadamard (the Vandermonde matrix of alpha has |det| >= 1).
    A nonzero u in L has p^k <= |N(u(alpha))| <= (|u| sqrt(n) R^(n-1))^n:
    past p^k = (n (2^(n/2) + 1) H R^(n-1))^n the candidate is w if w
    exists.  A first try assumes |w| <= S, lambda_1(L) near p^(k/n).  If it
    leaves candidates open, a prime q < PRIME_CAP from ``later`` may close
    the list first: K embeds in Q_q, where f has as many roots as mod q.
    ``parts`` and ``later`` are as ``_good_primes`` yields them.
    """
    def cauchy(g):  # the least power of two above the roots of g
        return next(R for R in (2 ** e for e in count()) if abs(g[-1]) * R ** (
            len(g) - 1) > sum(abs(x) * R ** i for i, x in enumerate(g[:-1])))
    n, c = field.degree, f[-1]
    m = [int(x) for x in field.min_poly]
    lm, lf = parts or (linear_part(m, p), linear_part(f, p))
    left, roots = roots_mod(f, p, lf), []
    if not left:
        return roots, left
    a = left[0] if f == m else roots_mod(m, p, lm)[0]
    delta = field.element(poly.deriv(field.min_poly)) * c
    inverse = delta.inverse()
    R, babai = cauchy(m), 2 ** ((n + 1) // 2)
    S = (2 * R) ** (n - 1) * c * cauchy(f)
    bound = (n * (babai + 1) * n ** ((n + 1) // 2)
             * R ** ((n + 2) * (n - 1) // 2) * S) ** n
    cheap = min((2 * babai * S) ** n, bound)
    for limit in sorted({cheap, bound}):
        if not left or limit > cheap and len(roots) + 1 in (
                size for size, _, _ in takewhile(
                    lambda entry: entry[1] < PRIME_CAP, later)):
            break
        k = next(k for k in count(1) if p ** k > limit)
        q = p ** k
        A = lift_root(m, a, p, k)
        powers = [pow(A, i, q) for i in range(n)]
        _, nearest = _lll([[-powers[i] if i else q]
                           + [int(j == i) for j in range(1, n)] for i in range(n)])
        scale, unresolved = sum(map(mul, delta.num, powers)), []
        for b in left:
            target = scale * lift_root(f, b, p, k) % q
            u = nearest([target] + [0] * (n - 1))
            if sum(map(mul, u, powers)) % q != target:
                raise AssertionError("rounded candidate left its residue class")
            beta = FieldElement(field, tuple(u)) * inverse
            if poly.evaluate(f, beta).is_zero():
                roots.append(beta)
            else:
                unresolved.append(b)
        left = unresolved
    roots.sort(key=lambda r: r.coords)
    return roots, left


def _lll(basis):
    """LLL-reduce (delta = 3/4) independent integer rows; return them and
    Babai's nearest plane on them.  Cohen, *A Course in Computational
    Algebraic Number Theory*, Algorithm 2.6.7: d[i] is the Gram determinant
    of the first i rows and lam[k][j] = d[j + 1] mu_kj, all integers."""
    b, n = [list(row) for row in basis], len(basis)
    d = [1, sum(map(mul, b[0], b[0]))] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def coefficients(v, out, count):
        # out is lam[k] itself when v is b[k]
        for j in range(count):
            u = sum(map(mul, v, b[j]))
            for i in range(j):
                u = (d[i + 1] * u - out[i] * lam[j][i]) // d[i]
            out[j] = u
        return out

    def reduce(v, out, l):
        q = (2 * out[l] + d[l + 1]) // (2 * d[l + 1])
        if q:
            v = [x - q * y for x, y in zip(v, b[l])]
            out[l] -= q * d[l + 1]
            for i in range(l):
                out[i] -= q * lam[l][i]
        return v

    def nearest(t):
        out = coefficients(t, [0] * n, n)
        for i in range(n - 1, -1, -1):
            t = reduce(t, out, i)
        return t

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            d[k + 1] = coefficients(b[k], lam[k], k + 1)[k]
        b[k] = reduce(b[k], lam[k], k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lk * lk:
            b[k], b[k - 1] = b[k - 1], b[k]
            lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
            B = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (B * t + lk * lam[i][k]) // d[k + 1]
            d[k] = B
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                b[k] = reduce(b[k], lam[k], l)
            k += 1
    return b, nearest


# ---------------------------------------------------------------------------
# automorphism groups, fixed fields, Galois test
# ---------------------------------------------------------------------------

def automorphism_group(ell, h_embedding=None):
    """All automorphisms of ell fixing the embedded subfield pointwise.

    The result is verified closed under composition and inversion.
    """
    autos = ell.automorphisms()
    if h_embedding is not None:
        if h_embedding.target != ell:
            raise ValueError("embedding does not land in the field")
        fixed = h_embedding.gen_image
        autos = [a for a in autos if a(fixed) == fixed]
    group = list(autos)
    images = {a.gen_image for a in group}  # a(b.gen_image) is a.b on gen
    if any(a(b.gen_image) not in images for a in group for b in group):
        raise AssertionError("automorphism set not closed")
    return group


def fixed_field(ell, autos):
    """Subfield fixed pointwise by the given automorphisms.

    Returns (field, embedding into ell).  The subfield generator is scaled
    to an algebraic integer so its minimal polynomial has integer entries.
    """
    n = ell.degree
    basis = kernel_basis([row for s in autos for row in
                          difference_rows(s.int_matrix(), identity(n))], n)
    k = len(basis)
    if k == 0:
        raise AssertionError("fixed set lost the rationals")
    for combo in _primitive_combos(k):
        cand = ell.element([sum((Fraction(c) * v[i] for c, v in zip(combo, basis)),
                                _Q0) for i in range(n)])
        mp = minimal_polynomial(cand)
        if len(mp) != k + 1:
            continue
        scale = 1
        for c in mp:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        gamma = cand * Fraction(scale)
        scaled = [mp[i] * Fraction(scale) ** (k - i) for i in range(k)] + [_Q1]
        sub = NumberField(scaled, label='%s^fix' % ell.label)
        return sub, FieldMorphism(sub, ell, gamma)
    raise AssertionError("no primitive element found for the fixed field")


def _primitive_combos(k):
    if k == 1:
        yield (1,)
        return
    for i in range(k):
        yield tuple(1 if j == i else 0 for j in range(k))
    for height in range(1, 6):
        for combo in _iproduct(range(-height, height + 1), repeat=k):
            if max((abs(c) for c in combo), default=0) == height:
                yield combo


def minimal_polynomial(elem):
    """Monic minimal polynomial over Q of a field element."""
    n = elem.field.degree
    powers = [elem.field.one()]
    for _ in range(n):
        powers.append(powers[-1] * elem)
    for d in range(1, n + 1):
        # sum s_i num_i = num_d gives p_d = sum (s_i den_i / den_d) p_i
        sol = coordinates_in_span([p.num for p in powers[:d]], powers[d].num)
        if sol is not None:
            return poly.reduce([-s * Fraction(p.den, powers[d].den)
                              for s, p in zip(sol, powers)] + [_Q1])
    raise AssertionError("element has no minimal polynomial")


def subfield_preimage(emb, elem):
    """Coordinates of elem as an element of emb.source, or None."""
    vecs = emb.image_basis()
    sol = coordinates_in_span(vecs, list(elem.coords))
    if sol is None:
        return None
    return emb.source.element(sol)


def restrict_morphism(sigma, emb):
    """Restriction of an automorphism to an embedded subfield.

    Raises ValueError when the subfield is not stable under sigma.
    """
    img = sigma(emb(emb.source.gen()))
    pre = subfield_preimage(emb, img)
    if pre is None:
        raise ValueError("subfield is not stable under the automorphism")
    return FieldMorphism(emb.source, emb.source, pre)


def is_galois(ell, h_embedding=None):
    sub_degree = 1 if h_embedding is None else h_embedding.source.degree
    if ell.degree % sub_degree:
        raise ValueError("embedded subfield degree does not divide the degree")
    return len(automorphism_group(ell, h_embedding)) == ell.degree // sub_degree


# ---------------------------------------------------------------------------
# field level
# ---------------------------------------------------------------------------

class LevelVerdict(Immutable):
    """Level of a field: Finite(s) with witness, InfiniteCertified, or Unknown.

    Finite verdicts carry nonzero elements x_1..x_s with -1 = sum x_i^2,
    verified exactly at construction.  Infinite verdicts carry a real place
    (a real embedding forces every sum of squares to stay nonnegative).
    """

    __slots__ = ('kind', 's', 'witness', 'place', 'bound')

    def __init__(self, kind, s=None, witness=None, place=None, bound=None):
        if kind not in ('finite', 'infinite', 'unknown'):
            raise ValueError("bad verdict kind")
        if kind == 'finite':
            if not witness or len(witness) != s:
                raise ValueError("finite level verdict needs s witnesses")
            if any(w.is_zero() for w in witness):
                raise ValueError("witness entries must be nonzero")
            total = witness[0].field.zero()
            for w in witness:
                total = total + w * w
            if total != witness[0].field.scalar(-1):
                raise ValueError("witness does not sum to -1")
        if kind == 'infinite' and place is None:
            raise ValueError("infinite verdict needs a real place")
        super().__init__(kind, s, tuple(witness) if witness else None, place,
                         bound)

    def __repr__(self):
        if self.kind == 'finite':
            return 'LevelVerdict(finite, s=%d)' % self.s
        if self.kind == 'infinite':
            return 'LevelVerdict(infinite, %r)' % self.place
        return 'LevelVerdict(unknown, bound=%s)' % self.bound


def _integer_elements(field, height):
    n = field.degree
    for combo in _iproduct(range(-height, height + 1), repeat=n):
        yield FieldElement(field, combo)


def _packed(values, terms):
    """FieldElements of one field as ints, injective on sums of up to terms.

    Over the common denominator, numerator i is the digit at 2^(shift * i).
    A signed sum of up to ``terms`` values has digits of size at most
    terms * max|numerator| < 2^shift, so it packs to 0 only when it is 0.
    """
    den = lcm(*[v.den for v in values])
    rows = [[x * (den // v.den) for x in v.num] for v in values]
    shift = (terms * max(max(map(abs, r)) for r in rows)).bit_length()
    return [sum([x << (shift * i) for i, x in enumerate(r)]) for r in rows]


def field_level(ell, height_bound):
    """Three-valued level verdict with exact certificates.

    A real place certifies infinite level.  Otherwise -1 is searched as a
    sum of 1, 2 or 4 nonzero squares with integer coordinates up to the
    height bound, on squares packed into ints; levels are powers of two, so
    s = 3 is never reported.  It stops before a height with more than
    LEVEL_ELEMENTS elements and skips the four-square stage past 4_000_000
    pairs of squares; ``bound`` is the last height all three stages ran.
    """
    if height_bound < 1:
        raise ValueError("height bound must be positive")
    places = ell.real_places()
    if places:
        return LevelVerdict('infinite', place=places[0])
    heights = sorted({min(h, height_bound) for h in (1, 2, 4, 8, 16, height_bound)})
    searched = 0
    for h in heights:
        if (2 * h + 1) ** ell.degree > LEVEL_ELEMENTS:
            break
        xs = [x for x in _integer_elements(ell, h) if not x.is_zero()]
        # four squares and -1 meet in one comparison
        minus_one, *keys = _packed([ell.scalar(-1)] + [x * x for x in xs], 5)
        squares = {}
        for x, sq in zip(xs, keys):
            if sq == minus_one:
                return LevelVerdict('finite', s=1, witness=[x], bound=h)
            squares.setdefault(sq, x)
        for sq, x in squares.items():
            need = minus_one - sq
            if need in squares:
                return LevelVerdict('finite', s=2, witness=[x, squares[need]],
                                    bound=h)
        if len(squares) ** 2 <= 4_000_000:
            pair_sums = {}
            # pairs i <= j: the first pair found for each sum has i <= j
            items = list(squares.items())
            for i, (s1, x1) in enumerate(items):
                for s2, x2 in items[i:]:
                    pair_sums.setdefault(s1 + s2, (x1, x2))
            for val, (x1, x2) in pair_sums.items():
                need = minus_one - val
                if need in pair_sums:
                    x3, x4 = pair_sums[need]
                    return LevelVerdict('finite', s=4,
                                        witness=[x1, x2, x3, x4], bound=h)
            searched = h
    return LevelVerdict('unknown', bound=searched)
