"""Twisted polynomials, Ore fractions and truncated twisted Laurent series.

H[t,sigma] multiplies by the rule t*a = sigma(a)*t.  Over a division ring
the degree of a product is the sum of the degrees, both one-sided divisions
are exact, and any two nonzero polynomials have a common right multiple of
minimal degree; fractions num*den^{-1} are compared through that relation
rather than a normal form.  A division updates its remainder in place.
Truncated Laurent series carry their precision explicitly, and a linear
recurrence with twisted coefficients certifies that a series comes from a
fraction.  Each recurrence order is solved on its leading square block of
equations; the whole stacked system is eliminated only when that block is
rank-deficient, and the certificate is verified on every stored
coefficient either way.

The bounded-degree center computation and the tensor-decomposition check
reduce everything to exact rational linear algebra: twists and one-sided
multiplications are rational-linear on coordinates, so commutation
constraints vectorize over Q.  Their matrices are cached as integer
matrices over one denominator and multiplied in integers, and the assembled
systems go to the integer echelon of ``linalg`` as integer rows, each row
block scaled by one lcm; rationals appear only in the solutions.  Both
systems split by the power of t, so each is solved one degree at a time.
"""

from fractions import Fraction
from math import lcm
from operator import add, mul, sub

from .linalg import (difference_rows, identity, kernel_basis, rank,
                     same_span, solve)
from .numfield import Immutable, RingElement, fixed_field
from .qalg import (QuatElement, extend_quaternion, inner_order, mul_matrix,
                   quat_from_q_vector)


class InsufficientPrecision(ValueError):
    """Stored series is too short for the requested recurrence order."""


class HypothesisFailed(Exception):
    """A stated hypothesis of the check does not hold for the input."""


# ---------------------------------------------------------------------------
# skew polynomials
# ---------------------------------------------------------------------------

def _quaternions(alg, coeffs):
    """The coefficients as elements of alg; scalars are mapped into it."""
    out = []
    for c in coeffs:
        if isinstance(c, QuatElement):
            if c.alg != alg:
                raise ValueError("coefficient in the wrong algebra")
            out.append(c)
        else:
            out.append(alg.scalar(c))
    return out


def _twisted_convolution(twist, a, a_start, b, size):
    """Entries 0 .. size-1 of the twisted product of two coefficient lists.

    Entry n is the sum over i + j = n of a_i sigma^(a_start+i)(b_j): the
    coefficient of t^(a_start+n) in (sum a_i t^(a_start+i)) (sum b_j t^j).
    Zero coefficients are skipped.
    """
    out = [twist.owner.zero()] * max(0, size)
    for i, x in enumerate(a[:size]):
        if x.is_zero():
            continue
        tw = twist.power(a_start + i)
        for n, y in enumerate(b[:size - i], i):
            if not y.is_zero():
                out[n] = out[n] + x * tw(y)
    return out


class SkewPoly(RingElement):
    """Polynomial over a quaternion algebra with twisted multiplication."""

    __slots__ = ('twist', 'coeffs')

    def __init__(self, twist, coeffs):
        norm = _quaternions(twist.owner, coeffs)
        while norm and norm[-1].is_zero():
            norm.pop()
        object.__setattr__(self, 'twist', twist)
        object.__setattr__(self, 'coeffs', tuple(norm))

    @property
    def alg(self):
        return self.twist.owner

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return not self.is_zero()

    def valuation(self):
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        raise ValueError("valuation of zero")

    def leading(self):
        if self.is_zero():
            raise ValueError("leading coefficient of zero")
        return self.coeffs[-1]

    def coefficient(self, n):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return self.alg.zero()

    def _coerce(self, other):
        if isinstance(other, SkewPoly):
            if other.twist != self.twist:
                raise ValueError("polynomials with different twists")
            return other
        if isinstance(other, (int, Fraction, QuatElement)):
            return SkewPoly(self.twist, [other])
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.twist, self.coeffs))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        return SkewPoly(self.twist, list(map(add, a, b)) + list(
            a[len(b):] or b[len(a):]))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        return SkewPoly(self.twist, list(map(sub, a, b)) + list(a[len(b):])
                        + [-c for c in b[len(a):]])

    def __neg__(self):
        return SkewPoly(self.twist, [-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        return SkewPoly(self.twist, _twisted_convolution(
            self.twist, a, 0, b, len(a) + len(b) - 1))

    def map_coefficients(self, fn):
        return SkewPoly(self.twist, [fn(c) for c in self.coeffs])

    def q_vector(self, degree_bound):
        """Rational coordinates on the basis (quaternion basis) x t^j."""
        if self.degree() > degree_bound:
            raise ValueError("degree above the bound")
        out = []
        for j in range(degree_bound + 1):
            out.extend(self.coefficient(j).q_vector())
        return out

    def __repr__(self):
        return 'SkewPoly(deg %d over %s)' % (self.degree(), self.alg.label)


def t_poly(twist):
    return SkewPoly(twist, [0, 1])


def constant_poly(twist, c):
    return SkewPoly(twist, [c])


def _divide(a, b, right):
    """Quotient and remainder of a by b, on the right or on the left; each
    quotient term c t^d cancels remainder entry d + deg b, so only the
    deg b entries below it are updated, in place."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    twist, bs, db = a.twist, b.coeffs, b.degree()
    blead_inv = b.leading().inverse()
    r = list(a.coeffs)
    q = [twist.owner.zero()] * max(0, len(r) - db)
    for d in reversed(range(len(q))):
        c = r[d + db]
        if c.is_zero():
            continue
        if right:
            tw = twist.power(d)
            q[d] = c = c * tw(blead_inv)
            r[d:d + db] = [x - c * tw(y) for x, y in zip(r[d:d + db], bs)]
        else:
            q[d] = c = twist.power(-db)(blead_inv * c)
            r[d:d + db] = [x - y * twist.power(j)(c)
                           for j, x, y in zip(range(db), r[d:], bs)]
    return SkewPoly(twist, q), SkewPoly(twist, r[:db])


def right_divide(a, b):
    """Quotient and remainder with a = q*b + r and deg r < deg b."""
    return _divide(a, b, True)


def left_divide(a, b):
    """Quotient and remainder with a = b*q + r and deg r < deg b."""
    return _divide(a, b, False)


def ore_right_lcm(a, b):
    """Minimal common right multiple: (m, u, v) with a*u = b*v = m != 0.

    Extended Euclidean scheme on left division, cofactors accumulating on
    the right; the construction identities are re-verified before return.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroDivisionError("common multiple with zero")
    twist = a.twist
    one = constant_poly(twist, 1)
    zero = SkewPoly(twist, [])
    r0, r1 = a, b
    u0, u1 = one, zero
    v0, v1 = zero, one
    while not r1.is_zero():
        q, r = left_divide(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - u1 * q
        v0, v1 = v1, v0 - v1 * q
    u, v = u1, -v1
    m = a * u
    if m.is_zero() or m != b * v:
        raise AssertionError("common right multiple construction failed")
    return m, u, v


# ---------------------------------------------------------------------------
# Ore fractions num * den^{-1}
# ---------------------------------------------------------------------------

class SkewFraction(RingElement):
    """Right fraction num * den^{-1}; equality is the Ore cross relation.

    No reduction to lowest terms is attempted: representatives are kept as
    built and compared through common right multiples.
    """

    __slots__ = ('num', 'den')

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        if num.twist != den.twist:
            raise ValueError("numerator and denominator twists differ")
        object.__setattr__(self, 'num', num)
        object.__setattr__(self, 'den', den)

    @property
    def twist(self):
        return self.num.twist

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, SkewFraction):
            if other.twist != self.twist:
                raise ValueError("fractions with different twists")
            return other
        if isinstance(other, SkewPoly):
            return SkewFraction(other, constant_poly(other.twist, 1))
        if isinstance(other, (int, Fraction, QuatElement)):
            return SkewFraction(constant_poly(self.twist, other),
                                constant_poly(self.twist, 1))
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return self.is_zero() and o.is_zero()
        _, u, v = ore_right_lcm(self.den, o.den)
        return self.num * u == o.num * v

    def __hash__(self):
        raise TypeError("fractions have no canonical form; do not hash")

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        m, u, v = ore_right_lcm(self.den, o.den)
        return SkewFraction(self.num * u + o.num * v, m)

    def __neg__(self):
        return SkewFraction(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return SkewFraction(SkewPoly(self.twist, []),
                                constant_poly(self.twist, 1))
        # den^{-1} * num' = v * u^{-1} from num' * u = den * v
        _, u, v = ore_right_lcm(o.num, self.den)
        return SkewFraction(self.num * v, o.den * u)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero fraction")
        return SkewFraction(self.den, self.num)

    def __repr__(self):
        return 'SkewFraction(deg %s / deg %s over %s)' % (
            self.num.degree(), self.den.degree(), self.twist.owner.label)


# ---------------------------------------------------------------------------
# truncated twisted Laurent series
# ---------------------------------------------------------------------------

class SkewLaurent(Immutable):
    """Series sum a_n t^n known for ord <= n < limit, zero below ord."""

    __slots__ = ('twist', 'ord', 'coeffs', 'limit')

    def __init__(self, twist, ord_, coeffs):
        norm = _quaternions(twist.owner, coeffs)
        limit = ord_ + len(norm)
        while norm and norm[0].is_zero():
            norm.pop(0)
            ord_ += 1
        if not norm:
            ord_ = limit
        object.__setattr__(self, 'twist', twist)
        object.__setattr__(self, 'ord', ord_)
        object.__setattr__(self, 'coeffs', tuple(norm))
        object.__setattr__(self, 'limit', limit)

    @property
    def alg(self):
        return self.twist.owner

    def precision(self):
        return len(self.coeffs)

    def is_zero_to_precision(self):
        return not self.coeffs

    def coefficient(self, n):
        if n >= self.limit:
            raise InsufficientPrecision("coefficient %d beyond precision" % n)
        if n < self.ord:
            return self.alg.zero()
        return self.coeffs[n - self.ord]

    def agrees_with(self, other):
        """Equality on the common known window."""
        if other.twist != self.twist:
            raise ValueError("series with different twists")
        limit = min(self.limit, other.limit)
        start = min(self.ord, other.ord)
        return all(self.coefficient(n) == other.coefficient(n)
                   for n in range(start, limit))

    def __add__(self, other):
        if not isinstance(other, SkewLaurent) or other.twist != self.twist:
            raise ValueError("can only add matching series")
        start = min(self.ord, other.ord)
        limit = min(self.limit, other.limit)
        return SkewLaurent(self.twist, start,
                           [self.coefficient(n) + other.coefficient(n)
                            for n in range(start, limit)])

    def __neg__(self):
        return SkewLaurent(self.twist, self.ord, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SkewLaurent) or other.twist != self.twist:
            raise ValueError("can only multiply matching series")
        a, b = self.coeffs, other.coeffs
        out = _twisted_convolution(self.twist, a, self.ord, b,
                                   min(len(a), len(b)))
        return SkewLaurent(self.twist, self.ord + other.ord, out)

    def shifted(self, k):
        """Multiplication by t^k on the right: exponent shift only."""
        return SkewLaurent(self.twist, self.ord + k, list(self.coeffs))

    def __repr__(self):
        return 'SkewLaurent(ord %d, %d terms over %s)' % (
            self.ord, len(self.coeffs), self.alg.label)


def _poly_times_series(poly, series):
    """Exact polynomial times truncated series; tighter precision window."""
    twist = series.twist
    if poly.is_zero() or series.is_zero_to_precision():
        return SkewLaurent(twist, series.ord, [])
    val = poly.valuation()
    return SkewLaurent(twist, val + series.ord, _twisted_convolution(
        twist, poly.coeffs[val:], val, series.coeffs, len(series.coeffs)))


def series_expand(fraction, precision):
    """Image of a fraction in the Laurent field, to the given precision.

    The denominator is written t^v * u with u of invertible constant term;
    u is inverted by the twisted geometric recursion and the t^{-v} shift
    is applied last.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    num, den = fraction.num, fraction.den
    twist = fraction.twist
    if num.is_zero():
        return SkewLaurent(twist, 0, [twist.owner.zero()] * precision)
    v = den.valuation()
    shift_back = twist.power(-v)
    u = [shift_back(den.coefficient(v + i)) for i in range(den.degree() - v + 1)]
    u0_inv = u[0].inverse()
    minus_inv = None if u0_inv == twist.owner.one() else -u0_inv
    n_terms = precision + num.valuation() + 1
    w = [u0_inv]
    for n in range(1, n_terms):
        acc = twist.owner.zero()
        for i in range(1, min(n, len(u) - 1) + 1):
            acc = acc + u[i] * twist.power(i)(w[n - i])
        w.append(-acc if minus_inv is None else minus_inv * acc)
    w_series = SkewLaurent(twist, 0, w)
    prod = _poly_times_series(num, w_series)
    result = prod.shifted(-v)
    if len(result.coeffs) > precision:
        result = SkewLaurent(twist, result.ord, list(result.coeffs[:precision]))
    return result


# ---------------------------------------------------------------------------
# rationality certificates
# ---------------------------------------------------------------------------

class RecurrenceCertificate(Immutable):
    """Twisted linear recurrence a_n = sum a_{n-i} sigma^{n-i}(y_i).

    verify(series) checks it on every stored coefficient from index start.
    """

    __slots__ = ('twist', 'order', 'ys', 'start')

    def __init__(self, twist, order, ys, start):
        if len(ys) != order:
            raise ValueError("order does not match the number of y's")
        super().__init__(twist, order, tuple(ys), start)

    def predicted(self, series, n):
        acc = self.twist.owner.zero()
        for i, y in enumerate(self.ys, start=1):
            a = series.coefficient(n - i)
            acc = acc + a * self.twist.power(n - i)(y)
        return acc

    def verify(self, series):
        return all(series.coefficient(n) == self.predicted(series, n)
                   for n in range(self.start, series.limit))

    def __repr__(self):
        return 'RecurrenceCertificate(order %d from %d)' % (self.order, self.start)


def _mul_matrix(c, side, cache):
    """mul_matrix(c, side), kept in the caller's cache."""
    if (side, c) not in cache:
        cache[side, c] = mul_matrix(c, side)
    return cache[side, c]


def _mat_mul(a, b):
    """Product of two (rows, den) integer matrices, in integers."""
    (a, da), (b, db) = a, b
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a], da * db


def detect_recurrence(series, max_order):
    """Smallest-order recurrence certificate for the series, if any.

    Written on a rational basis of the algebra, the recurrence of order k
    is a linear system over Q: one block of dim equations for each stored
    index n >= ord + k, in the unknowns y_1 .. y_k.  The coefficient of y_i
    in block n is L(a_m) M(sigma^m) with m = n - i, built once per m and
    shared by all orders.  Each order is solved first on its leading k
    blocks, a square system of k*dim equations.  When that has full rank
    its unique solution is the only candidate, and the certificate's
    verification over every stored coefficient decides it.  Only a
    rank-deficient leading block (zero leading coefficients, a split
    algebra) sends the whole stacked system to elimination; its reduced
    echelon form is unique, so either way the answer is the one the whole
    system gives.
    """
    if max_order < 1:
        raise ValueError("max_order must be positive")
    if series.precision() < 2 * max_order + 4:
        raise InsufficientPrecision(
            "need at least %d stored coefficients for order %d"
            % (2 * max_order + 4, max_order))
    twist = series.twist
    alg = twist.owner
    dim = alg.q_dim()
    cache = {}
    blocks = {}
    zero = [0] * dim

    def block(m):
        if m not in blocks:
            a = series.coefficient(m)
            blocks[m] = None if a.is_zero() else _mat_mul(
                _mul_matrix(a, 'L', cache), twist.power(m).int_matrix())
        return blocks[m]

    def system(k, stop):
        rows, rhs = [], []
        for n in range(series.ord + k, stop):
            row_blocks = [block(n - i) for i in range(1, k + 1)]
            target = series.coefficient(n)
            # one lcm per row block scales all its rows to integers
            den = lcm(target.den, *[blk[1] for blk in row_blocks if blk])
            for r in range(dim):
                row = []
                for blk in row_blocks:
                    row.extend([x * (den // blk[1]) for x in blk[0][r]]
                               if blk else zero)
                rows.append(row)
                rhs.append(target.num[r] * (den // target.den))
        return rows, rhs

    for k in range(1, max_order + 1):
        start = series.ord + k
        sol = solve(*system(k, start + k), k * dim, unique=True)
        if sol is None:
            sol = solve(*system(k, series.limit), k * dim)
            if sol is None:
                continue
        ys = [quat_from_q_vector(alg, sol[i * dim:(i + 1) * dim])
              for i in range(k)]
        cert = RecurrenceCertificate(twist, k, ys, start)
        if cert.verify(series):
            return cert
    return None


# ---------------------------------------------------------------------------
# centrality
# ---------------------------------------------------------------------------

def _algebra_generators(alg):
    gens = [alg.i(), alg.j()]
    if alg.base.degree > 1:
        gens.append(alg.scalar(alg.base.gen()))
    return gens


def is_central(x):
    """Whether x commutes with t and with the generators of the algebra."""
    if not isinstance(x, (SkewPoly, SkewFraction)):
        raise TypeError("is_central expects a skew polynomial or fraction")
    gens = [constant_poly(x.twist, g)
            for g in _algebra_generators(x.twist.owner)]
    return all(x * g == g * x for g in gens + [t_poly(x.twist)])


class CenterReport(Immutable):
    """Bounded-degree central elements, with the closed-form comparison.

    raw_basis spans the degree-bounded center of the twisted polynomial
    ring.  When the inner order of the twist equals its order, the span is
    compared against fixed-center coefficients on powers of t^m.
    """

    __slots__ = ('degree_bound', 'raw_basis', 'hypothesis_holds',
                 'closed_form_matches', 'twist_order', 'inner_order')


def _center_basis(algebra, twist, degree_bound):
    """The raw basis of center_bounded, one degree at a time: the equations
    on x_j involve x_j alone, and the unique reduced echelon form makes the
    kernels joined in degree order those of the whole system."""
    dim = algebra.q_dim()
    zero = algebra.zero()
    cache = {}
    fixed = difference_rows(twist.int_matrix(), identity(dim))
    gens = _algebra_generators(algebra)
    raw_basis = []
    for j in range(degree_bound + 1):
        # x_j fixed by the twist (commutation with t), and
        # g x_j = x_j sigma^j(g) for each generator
        rows = fixed + [row for g in gens for row in difference_rows(
            _mul_matrix(g, 'L', cache),
            _mul_matrix(twist.power(j)(g), 'R', cache))]
        raw_basis.extend(
            SkewPoly(twist, [zero] * j + [quat_from_q_vector(algebra, vec)])
            for vec in kernel_basis(rows, dim))
    return tuple(raw_basis)


def center_bounded(algebra, twist, degree_bound):
    """Basis of central elements of t-degree at most the bound.

    Solves the rational commutator system against t and the algebra
    generators on the coefficient space, one degree block at a time.
    """
    if twist.owner != algebra:
        raise ValueError("twist does not act on the algebra")
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    raw_basis = _center_basis(algebra, twist, degree_bound)
    m = twist.order()
    io = inner_order(twist)
    hypothesis = (io == m)
    closed_form_matches = None
    if hypothesis:
        sub, emb = fixed_field(algebra.base, [twist.center_action])
        expected = [SkewPoly(twist, [algebra.zero()] * (m * p)
                             + [algebra.scalar(emb(c))])
                    for p in range(0, degree_bound // m + 1)
                    for c in sub.basis()]
        got_vecs = [b.q_vector(degree_bound) for b in raw_basis]
        want_vecs = [e.q_vector(degree_bound) for e in expected]
        closed_form_matches = same_span(got_vecs, want_vecs)
    return CenterReport(degree_bound, raw_basis, hypothesis,
                        closed_form_matches, m, io)


# ---------------------------------------------------------------------------
# bounded tensor-decomposition verification
# ---------------------------------------------------------------------------

class TensorReport(Immutable):

    __slots__ = ('injective', 'surjective', 'multiplicative', 'rank',
                 'spanning_count', 'ambient_dim', 'twist_order',
                 'fixed_degree_ratio')

    def passed(self):
        return self.injective and self.surjective and self.multiplicative


def tensor_decomposition_check(H, sigma, L, tau, emb, degree_bound):
    """Bounded-degree verification that the function field of the extension
    is the scalar extension of the function field of the base.

    The multiplication map from the tensor product is checked on a spanning
    family up to the degree bound: multiplicative on spanning pairs,
    injective by exact rank, surjective by dimension count.  Each spanning
    product (e t^j)(f t^(mp)) is a monomial, so the rank is the sum over
    degrees of the rank of that degree's coefficients; a product with other
    than one nonzero coefficient raises AssertionError.  Requires the
    central restrictions of the two twists to have equal orders; raises
    HypothesisFailed otherwise.
    """
    if sigma.owner != H or tau.owner != L:
        raise ValueError("twists act on the wrong algebras")
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    if L.a != emb(H.a) or L.b != emb(H.b):
        raise ValueError("L is not the scalar extension of H along emb")
    for x in H.q_basis():
        if tau(extend_quaternion(x, L, emb)) != extend_quaternion(sigma(x), L, emb):
            raise ValueError("tau does not extend sigma")
    sig_t = sigma.center_action
    tau_t = tau.center_action
    if tau_t.order() != sig_t.order():
        raise HypothesisFailed(
            "central restriction orders differ: %d for the base twist, "
            "%d for the extension twist" % (sig_t.order(), tau_t.order()))
    m = tau.order()
    h = H.base
    ell = L.base
    h_fix, h_fix_emb = fixed_field(h, [sig_t])
    ell_fix, ell_fix_emb = fixed_field(ell, [tau_t])
    if ell_fix.degree % h_fix.degree:
        raise AssertionError("fixed field degrees incompatible")
    r = ell_fix.degree // h_fix.degree
    # the quaternion Q-basis of H already spans the base-side directions;
    # only an extension-side fixed-field basis is needed on the right
    ellfix_in_ell = [ell_fix_emb(f) for f in ell_fix.basis()[:r]]
    left_factors = [SkewPoly(tau, [L.zero()] * j + [extend_quaternion(e, L, emb)])
                    for j in range(min(m, degree_bound + 1))
                    for e in H.q_basis()]
    right_factors = [SkewPoly(tau, [L.zero()] * (m * p) + [L.scalar(f)])
                     for p in range(degree_bound // m + 1)
                     for f in ellfix_in_ell]
    spanning = [prod for prod in (y * z for y in left_factors
                                  for z in right_factors)
                if prod.degree() <= degree_bound]
    by_degree = {}
    for prod in spanning:
        if sum(not c.is_zero() for c in prod.coeffs) != 1:
            raise AssertionError("a spanning product is not a monomial")
        by_degree.setdefault(prod.degree(), []).append(
            prod.leading().q_vector())
    rk = sum(rank(vecs) for vecs in by_degree.values())
    ambient = (degree_bound + 1) * L.q_dim()
    injective = (rk == len(spanning))
    surjective = (rk == ambient)

    multiplicative = True
    for z in right_factors:
        for y in left_factors:
            if (z * y) != (y * z):
                multiplicative = False
    # spot products through the map: psi(y y' (x) z z') = psi(y(x)z) psi(y'(x)z')
    for y1 in left_factors[:3]:
        for y2 in left_factors[:3]:
            for z1 in right_factors[:2]:
                for z2 in right_factors[:2]:
                    lhs = (y1 * y2) * (z1 * z2)
                    rhs = (y1 * z1) * (y2 * z2)
                    if lhs != rhs:
                        multiplicative = False
    return TensorReport(injective, surjective, multiplicative, rk,
                        len(spanning), ambient, m, r)
