"""The three benchmark workloads: seeded inputs, items and known answers.

A workload builds its fixed inputs once (set-up), then exposes ``units``:
zero-argument callables that each run one piece of library work.  The
harness times a unit and turns its output into item records through
``split``; an item is the sample behind the item percentiles.  After the
first pass every item is checked against a known answer taken from a source
other than the code under test (``verify``), and every item of every pass is
rendered to a canonical text (``canon``) that the output digest covers.

Why each workload exists is written on its class.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

from skewfield import cli, fep, galois, numfield, ore, qalg
from skewfield.fep import (EmbeddingProblem, GalData, cyclic_group,
                           dihedral_group, direct_product, quaternion_group)
from skewfield.numfield import FieldMorphism, NumberField
from skewfield.ore import (SkewFraction, SkewLaurent, SkewPoly,
                           constant_poly, t_poly)
from skewfield.qalg import (AlgebraAutomorphism, QuaternionAlgebra,
                            inner_automorphism, norm_form)


class Refused:
    """An exception the item expects as a possible answer (a refusal)."""

    def __init__(self, exc):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def __str__(self):
        return 'refused %s: %s' % (self.kind, self.message)


class Item:
    """One timed call with its canonical rendering and known answer.

    ``verify(result)`` returns (agrees, decided): ``agrees`` is whether the
    result matches the known answer, ``decided`` is None for items that are
    not bounded searches, else whether the search returned a certified
    verdict.
    """

    __slots__ = ('key', 'run', 'canon', 'verify')

    def __init__(self, key, run, canon, verify):
        self.key, self.run, self.canon, self.verify = key, run, canon, verify


def _elem(e):
    return ','.join(str(c) for c in e.coords)


def _quat(q):
    return '|'.join(_elem(c) for c in q.coords)


def _poly(p):
    return '[' + '; '.join(_quat(c) for c in p.coeffs) + ']'


def _series(s):
    return 'ord %d: %s' % (s.ord, '; '.join(_quat(c) for c in s.coeffs))


def _refusing(fn, *kinds):
    def run():
        try:
            return fn()
        except kinds as exc:
            return Refused(exc)
    return run


def _first_sympy_use():
    """Import sympy and factor once, so a pass never pays its cold start."""
    NumberField([1, 0, 1]).automorphisms()


class _ItemWorkload:
    """Workloads whose units are single items timed by the harness."""

    KNOWN_DEFECTS = {}

    def units(self):
        return [(item.key, item.run) for item in self.items]

    def split(self, key, output, seconds):
        return [(key, seconds, output)]

    def canon(self, key, output):
        return self._by_key[key].canon(output)

    def verify(self, key, output):
        return self._by_key[key].verify(output)

    def _index(self):
        self._by_key = {item.key: item for item in self.items}
        if len(self._by_key) != len(self.items):
            raise ValueError('duplicate item keys')


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

SCENARIO_FILES = ('bruno_counterexample.scn', 'dl2_matrix.scn',
                  'ore_center.scn', 'q8.scn')

# The defaults of ``skewfield run``.
CLI_FLAGS = {'parallel': 1, 'height_bound': 20, 'degree_bound': 4,
             'precision': 30}

# (check, expect key) -> (report detail, rendering of 'true'/'false')
EXPECTED_DETAIL = {
    ('anisotropy', 'expect'): ('actual', None),
    ('field_level', 'expect'): ('actual', None),
    ('is_split', 'expect'): ('actual', None),
    ('is_central', 'expect'): ('actual', None),
    ('build_extension', 'expect_order'): ('group_order', None),
    ('build_extension', 'expect_error'): ('actual', None),
    ('recurrence_geometric', 'expect_order'): ('order', None),
    ('center_bounded', 'expect_dim'): ('dimension', None),
    ('center_bounded', 'expect_closed_form'): ('closed_form_span',
                                               ('match', 'mismatch')),
    ('product_conditions', 'expect_star'): ('star', ('holds', 'fails')),
    ('product_conditions', 'expect_eq_produit'): ('direct_product',
                                                  ('holds', 'fails')),
    ('hypothesis_report', 'expect_split'): ('condition_split', None),
    ('hypothesis_report', 'expect_product'): ('condition_product', None),
}


class Scenarios:
    """The four shipped scenario files plus ``builtin:all``, as users run them.

    Each pass parses every source and runs it with the CLI defaults through
    ``cli.run_scenario``, which builds a fresh ``Workspace``, so the
    per-object caches start cold each time.  Time goes to field
    construction, sympy automorphisms, ``galois`` construction, restriction
    and product checks, ``fep`` transports and ``cli`` dispatch; twisted
    arithmetic is a small share.  An item is one check, timed by the
    report's own ``time_ms`` (1 ms resolution).  The seed only orders the
    sources within a pass, so the digest is the same for every seed.
    """

    name = 'scenarios'
    KNOWN_DEFECTS = {}

    def __init__(self, seed, root):
        _first_sympy_use()
        sources = [(name, (Path(root) / 'scenarios' / name).read_text())
                   for name in SCENARIO_FILES]
        # builtin:all is a list of bundled regressions and nothing else, so
        # it runs as one source per regression: the same work, in units
        # short enough for the calibration probes around them.
        for check in cli.parse_scenario(cli.BUILTIN_SCENARIOS['all']).checks:
            sources.append(('builtin:all#' + check[1],
                            '[checks]\n%s\n' % check[1]))
        random.Random(seed).shuffle(sources)
        self.sources = sources

    def units(self):
        return [(name, self._runner(text)) for name, text in self.sources]

    @staticmethod
    def _runner(text):
        def run():
            scenario = cli.parse_scenario(text)
            return scenario.checks, cli.run_scenario(scenario,
                                                     dict(CLI_FLAGS))
        return run

    def split(self, key, output, seconds):
        if not isinstance(output, tuple):
            return [(key, seconds, output)]
        checks, results = output
        return [('%s#%d:%s' % (key, n, op), elapsed / 1000.0,
                 (key, params, (op, result)))
                for n, ((_, op, params), (_, result, elapsed))
                in enumerate(zip(checks, results), start=1)]

    def canon(self, key, output):
        source, _, (op, result) = output
        report = cli.format_report(source, CLI_FLAGS, [(op, result, 0)])
        return '\n'.join(line for line in report.splitlines()
                         if not line.lstrip().startswith('time_ms:'))

    def verify(self, key, output):
        _, params, (op, result) = output
        details = result.details
        agrees = result.status == 'pass'
        for param, want in params.items():
            if (op, param) not in EXPECTED_DETAIL:
                continue
            detail, rendering = EXPECTED_DETAIL[(op, param)]
            if rendering is not None:
                want = rendering[0] if want == 'true' else rendering[1]
            agrees = agrees and details.get(detail) == want
        verdict = details.get('verdict', details.get('kind'))
        decided = None if verdict is None else verdict != 'unknown'
        return agrees, decided


# ---------------------------------------------------------------------------
# ore_arith
# ---------------------------------------------------------------------------

# (label, min_poly) of the centers: Q, Q(sqrt2), the real cyclic quartic.
ORE_CENTERS = (('Q', [0, 1]), ('Q2', [-2, 0, 1]), ('C4', [2, 0, -4, 0, 1]))
# (degree, coefficient height) of the operands.
ORE_SHAPES = ((2, 2), (3, 9))
ORE_PRECISION = 8
ORE_MAX_ORDER = 2


class OreArith(_ItemWorkload):
    """Seeded twisted-polynomial traffic over fixed fields and twists.

    Products, both one-sided divisions, minimal common right multiples,
    fraction equality, series expansion and recurrence detection, over the
    centers Q, Q(sqrt2) and the cyclic quartic, with the identity twist, an
    outer twist (the center's Galois generator, i and j fixed; Q has none)
    and an inner one (conjugation by 1+i+j+k, order 3), at two operand
    shapes.  Fields and twists are built in set-up, so a pass is almost all
    ``ore`` work, ``qalg`` multiplication, twist application and
    ``numfield`` element arithmetic: the path an integer-vector core would
    speed up.  Field construction and sympy show only in set-up.
    """

    name = 'ore_arith'

    def __init__(self, seed, root):
        rng = random.Random(seed)
        self.items = []
        for label, poly in ORE_CENTERS:
            K = NumberField(poly, label=label)
            H = QuaternionAlgebra(K, -1, -1, label='(-1,-1/%s)' % label)
            twists = [('id', H.identity_automorphism())]
            autos = [a for a in K.automorphisms() if not a.is_identity()]
            if autos:
                gen = max(autos, key=lambda a: a.order())
                twists.append(('outer', AlgebraAutomorphism(H, H.i(), H.j(),
                                                            gen)))
            twists.append(('inner', inner_automorphism(H.element([1, 1, 1,
                                                                  1]))))
            for tname, twist in twists:
                for deg, height in ORE_SHAPES:
                    tag = '%s/%s/d%dh%d' % (label, tname, deg, height)
                    self._add_items(rng, twist, tag, deg, height)
                self._add_squares(twist, '%s/%s' % (label, tname),
                                  K.degree <= 2)
        self._index()

    @staticmethod
    def _poly(rng, twist, deg, height):
        alg = twist.owner
        n = alg.base.degree

        def quat():
            while True:
                q = alg.element([alg.base.element(
                    [rng.randint(-height, height) for _ in range(n)])
                    for _ in range(4)])
                if not q.is_zero():
                    return q
        return SkewPoly(twist, [quat() for _ in range(deg + 1)])

    def _add_items(self, rng, twist, tag, deg, height):
        P = lambda d: self._poly(rng, twist, d, height)
        one = constant_poly(twist, 1)
        a, b = P(deg), P(deg)
        self.items.append(Item('mul/' + tag, lambda: a * b, _poly,
                               lambda p: (_divides_exactly(p, b, a), None)))
        num, den = P(2 * deg), P(deg)
        self.items.append(Item(
            'rdiv/' + tag, lambda: ore.right_divide(num, den), _pair,
            lambda qr: (_division_ok(num, den, qr, right=True), None)))
        num2, den2 = P(2 * deg), P(deg)
        self.items.append(Item(
            'ldiv/' + tag, lambda: ore.left_divide(num2, den2), _pair,
            lambda qr: (_division_ok(num2, den2, qr, right=False), None)))
        la, lb = P(deg - 1), P(deg)
        self.items.append(Item(
            'lcm/' + tag, lambda: ore.ore_right_lcm(la, lb),
            lambda muv: '; '.join(_poly(p) for p in muv),
            lambda muv: (_lcm_ok(la, lb, muv), None)))
        fa, fb, fc = P(deg - 1), P(deg - 1), P(1)
        self.items.append(Item(
            'frac_eq/' + tag,
            lambda: SkewFraction(fa, fb) == SkewFraction(fa * fc, fb * fc),
            str, lambda eq: (eq is True, None)))
        self.items.append(Item(
            'frac_ne/' + tag,
            lambda: SkewFraction(fa, fb) == SkewFraction(fa + one, fb),
            str, lambda eq: (eq is False, None)))
        sa, sb = P(1), P(1)
        frac = SkewFraction(sa, sb)
        self.items.append(Item(
            'series/' + tag,
            lambda: ore.series_expand(frac, ORE_PRECISION), _series,
            lambda s: (_series_ok(s, sa, sb), None)))
        c0, c1 = P(0), P(0)
        geometric = SkewFraction(c0, one - c1 * t_poly(twist))
        self.items.append(Item(
            'recurrence/' + tag,
            lambda: _series_and_recurrence(geometric),
            _recurrence_canon, _recurrence_found))

    def _add_squares(self, twist, tag, cheap):
        # A series from no fraction: the search must come back empty.  Only
        # over the small centers, where the exhausted search stays cheap.
        if not cheap:
            return
        alg = twist.owner
        squares = SkewLaurent(twist, 0, [
            alg.one() if math.isqrt(n) ** 2 == n else alg.zero()
            for n in range(ORE_PRECISION)])
        self.items.append(Item(
            'squares/' + tag,
            lambda: (squares, ore.detect_recurrence(squares, ORE_MAX_ORDER)),
            _recurrence_canon,
            lambda out: (out[1] is None, False)))


def _pair(qr):
    return '%s; %s' % (_poly(qr[0]), _poly(qr[1]))


def _divides_exactly(product, right, left):
    q, r = ore.right_divide(product, right)
    return q == left and r.is_zero()


def _division_ok(a, b, qr, right):
    q, r = qr
    recombined = q * b + r if right else b * q + r
    return recombined == a and (r.is_zero() or r.degree() < b.degree())


def _lcm_ok(a, b, muv):
    m, u, v = muv
    return (not m.is_zero() and a * u == m and b * v == m
            and m.degree() <= a.degree() + b.degree())


def _series_ok(series, num, den):
    # (num * den^-1) * den = num on the series' window
    twist = series.twist
    zero = twist.owner.zero()
    pad = [zero] * (series.limit + 2)
    den_s = SkewLaurent(twist, 0, list(den.coeffs) + pad)
    num_s = SkewLaurent(twist, 0, list(num.coeffs) + pad)
    return (len(series.coeffs) == ORE_PRECISION
            and (series * den_s).agrees_with(num_s))


def _series_and_recurrence(fraction):
    series = ore.series_expand(fraction, ORE_PRECISION)
    return series, ore.detect_recurrence(series, ORE_MAX_ORDER)


def _recurrence_canon(out):
    series, cert = out
    if cert is None:
        return 'none'
    return 'order %d from %d: %s' % (cert.order, cert.start,
                                     '; '.join(_quat(y) for y in cert.ys))


def _recurrence_found(out):
    # a_n = c0 (sigma-twisted powers of c1): a certified order-1 recurrence
    series, cert = out
    found = cert is not None
    return found and cert.order == 1 and cert.verify(series), found


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

X8_PLUS_2 = [2, 0, 0, 0, 0, 0, 0, 0, 1]
# Kronecker trial-count band of the seeded irreducible polynomials, by degree
KRONECKER_BANDS = {2: (0, 10 ** 6), 3: (0, 10 ** 6), 4: (40, 60),
                   5: (40, 60), 6: (44, 60), 7: (44, 60)}
ANISOTROPY_HEIGHT = 8
LEVEL_HEIGHT = 20

DL2_FIELDS = {'gauss': [1, 0, 1], 'sqrtm2': [2, 0, 1], 'q2': [-2, 0, 1],
              'q3': [-3, 0, 1], 'quartic': [2, 0, -4, 0, 1]}
BIQUAD = [1, 0, -10, 0, 1]

# Level of Q(sqrt-d), d squarefree: 1 for d = 1, 4 for d = 7 mod 8, else 2;
# any field with a real place has infinite level (Lam, ch. XI).
LEVELS = (
    ([1, 0, 1], 'finite:1'), ([9, 0, 1], 'finite:1'),
    ([3, 0, 1], 'finite:2'), ([2, 0, 1], 'finite:2'),
    ([5, 0, 1], 'finite:2'), ([7, 0, 1], 'finite:4'),
    ([15, 0, 1], 'finite:4'), ([1, 0, 0, 0, 1], 'finite:1'),
    ([-2, 0, 1], 'infinite'), ([2, 0, -4, 0, 1], 'infinite'),
    (BIQUAD, 'infinite'),
)

# Automorphism counts: quadratic fields are Galois; Q(2^(1/3)) has 1;
# x^3-3x+1 is the cyclic cubic; Q(zeta8) and Q(zeta9) are cyclotomic; the
# real quartic Q(2^(1/4)) has the two automorphisms fixing Q(sqrt2).
AUTOMORPHISMS = (
    ([1, 0, 1], 2), ([9, 0, 1], 2), ([3, 0, 1], 2), ([-2, 0, 1], 2),
    ([7, 0, 1], 2), ([-2, 0, 0, 1], 1), ([1, -3, 0, 1], 3),
    ([1, 0, 0, 0, 1], 4), ([-2, 0, 0, 0, 1], 2), ([2, 0, -4, 0, 1], 4),
    (BIQUAD, 4), ([1, 0, 0, 1, 0, 0, 1], 6),
)

# (-1,-1) stays a division algebra over K exactly when K has level 4 or a
# real place; Q(sqrt-7) has level 4, so its bounded search is undecided.
ANISOTROPY = (
    ('gauss', [1, 0, 1], 'isotropic'), ('sqrtm2', [2, 0, 1], 'isotropic'),
    ('m3', [3, 0, 1], 'isotropic'), ('m5', [5, 0, 1], 'isotropic'),
    ('q2', [-2, 0, 1], 'anisotropic'), ('q3', [-3, 0, 1], 'anisotropic'),
    ('quartic', [2, 0, -4, 0, 1], 'anisotropic'),
    ('biquad', BIQUAD, 'anisotropic'), ('m7', [7, 0, 1], 'anisotropic'),
)

def _z2_power(k):
    group = cyclic_group(2)
    for _ in range(k - 1):
        group = direct_product(cyclic_group(2), group)
    return group


# (label, constructor, order, subgroup count).  Counts: 2-rank-k elementary
# abelian groups by Gaussian binomials, Z_m x Z_n as the sum of gcd(a, b)
# over a | m, b | n, cyclic groups by divisors, the dihedral group of order
# 2n as tau(n) + sigma(n), Q8 by hand.
GROUPS = (
    ('Z2^6', lambda: _z2_power(6), 64, 2825),
    ('Z2^5', lambda: _z2_power(5), 32, 374),
    ('Z2^4', lambda: _z2_power(4), 16, 67),
    ('Z8xZ8', lambda: direct_product(cyclic_group(8), cyclic_group(8)),
     64, 37),
    ('Z4xZ16', lambda: direct_product(cyclic_group(4), cyclic_group(16)),
     64, 29),
    ('Z4xZ4', lambda: direct_product(cyclic_group(4), cyclic_group(4)),
     16, 15),
    ('D16', lambda: dihedral_group(8), 16, 19),
    ('D8', lambda: dihedral_group(4), 8, 10),
    ('Q8', quaternion_group, 8, 6),
    ('Z8', lambda: cyclic_group(8), 8, 4),
)


def _eisenstein(rng, degree):
    """Seeded Eisenstein polynomial: irreducible without any test."""
    p = rng.choice((2, 3, 5))
    coeffs = [p * rng.choice((1, -1))] + [p * rng.randint(-1, 1)
                                          for _ in range(degree - 1)]
    return coeffs + [1]


def _random_monic(rng, degree):
    height = 3 if degree <= 4 else 2 if degree == 5 else 1
    coeffs = [rng.randint(-height, height) for _ in range(degree)]
    if coeffs[0] == 0:
        coeffs[0] = rng.choice((1, -1))
    return coeffs + [1]


def _kronecker_work(coeffs):
    """Trial count of Kronecker's factor search on a monic polynomial.

    For each factor degree d, the product over d+1 small integer points of
    the number of signed divisors of the polynomial's value there.
    """
    n, total = len(coeffs) - 1, 0
    for d in range(1, n // 2 + 1):
        trials = 1
        for k in [0] + [s * i for i in range(1, d + 1) for s in (1, -1)][:d]:
            value = abs(sum(c * k ** i for i, c in enumerate(coeffs)))
            if value == 0:
                return 0
            trials *= 2 * sum(2 - (q * q == value)
                              for q in range(1, math.isqrt(value) + 1)
                              if value % q == 0)
        total += trials
    return total


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class Search(_ItemWorkload):
    """Field construction and the bounded searches, on seeded and fixed inputs.

    ``NumberField`` over seeded monic polynomials of degree 2-7, irreducible
    and reducible, plus x^8+2 on the slow Kronecker path (the 79 s octic of
    the roadmap is left out for run length); automorphism groups;
    ``field_level``, also over seeded real cubics; ``anisotropy`` with all
    three verdict kinds, including the undecided (-1,-1) over Q(sqrt-7) at
    height 8, the default of extension construction, and seeded split and
    definite algebras; ``build_galois_extension`` over the dl2 fields;
    group tables, subgroup lattices and ``is_split`` up to order 64,
    including Z2^6 with 2825 subgroups.  Here ``numfield`` does
    construction and factoring, ``qalg`` its quadratic-form search and
    ``fep`` its subgroup search, while ``ore`` does almost nothing.  Every
    item builds its own fields and groups, so no cache carries over.
    """

    name = 'search'
    # Seed defects of field_level (roadmap item 2): the witness search only
    # tries integer coordinates, so these levels come out as 4.
    KNOWN_DEFECTS = {'level/9,0,1': 'level of Q(i) = Q[x]/(x^2+9) is 1',
                     'level/3,0,1': 'level of Q(sqrt-3) is 2'}

    def __init__(self, seed, root):
        _first_sympy_use()
        rng = random.Random(seed)
        Q = NumberField([0, 1], label='Q')
        self.H = QuaternionAlgebra(Q, -1, -1, label='(-1,-1/Q)')
        self.exts = {}
        for label, poly in (('q2', DL2_FIELDS['q2']),
                            ('quartic', DL2_FIELDS['quartic']),
                            ('biquad', BIQUAD)):
            K = NumberField(poly, label=label)
            ext = galois.build_galois_extension(self.H, K, _embed_q(K))
            self.exts[label] = (ext, GalData(ext))
        self.items = []
        self._construction_items(rng)
        self._automorphism_items()
        self._level_items(rng)
        self._anisotropy_items(rng)
        self._extension_items()
        self._group_items()
        self._split_items()
        self._index()

    # -- numfield ------------------------------------------------------------

    def _construction_items(self, rng):
        # Per degree three irreducible polynomials, drawn until Kronecker's
        # trial count lies in the degree's band, and three reducible ones
        # with the root 0 or 1, which the trial search rejects at once.
        # Costs then stay alike across seeds, so the percentiles do not
        # hang on the seed; x^8+2 is the slow case.
        polys = []
        for degree in range(2, 8):
            low, high = KRONECKER_BANDS[degree]
            for _ in range(3):
                while True:
                    coeffs = _random_monic(rng, degree)
                    if (low <= _kronecker_work(coeffs) <= high
                            and _sympy_irreducible(coeffs)):
                        break
                polys.append((coeffs, True))
            for _ in range(3):
                root = rng.choice((0, 1))
                polys.append((_poly_mul([-root, 1],
                                        _random_monic(rng, degree - 1)),
                              False))
        polys.append((X8_PLUS_2, True))
        for n, (coeffs, irreducible) in enumerate(polys):
            self.items.append(Item(
                'construct/%02d/%s' % (n, _key(coeffs)),
                _refusing(lambda c=coeffs: NumberField(c), ValueError),
                lambda out: 'refused' if isinstance(out, Refused) else
                'field %s' % (list(out.min_poly),),
                lambda out, want=irreducible: (
                    (not isinstance(out, Refused)) == want, None)))

    def _automorphism_items(self):
        for coeffs, count in AUTOMORPHISMS:
            self.items.append(Item(
                'autos/' + _key(coeffs),
                lambda c=coeffs: NumberField(c).automorphisms(),
                lambda autos: '; '.join(_elem(a.gen_image) for a in autos),
                lambda autos, n=count: (len(autos) == n, None)))

    def _level_items(self, rng):
        table = [(_key(c), c, w) for c, w in LEVELS]
        for k in range(4):
            cubic = _eisenstein(rng, 3)
            table.append(('seed%d/%s' % (k, _key(cubic)), cubic, 'infinite'))
        for key, coeffs, want in table:
            self.items.append(Item(
                'level/' + key,
                lambda c=coeffs: numfield.field_level(NumberField(c),
                                                      LEVEL_HEIGHT),
                _level_canon,
                lambda v, w=want: (_level_answer(v) in (w, 'unknown'),
                                   v.kind != 'unknown')))

    def _anisotropy_items(self, rng):
        table = [(label, poly, None, want) for label, poly, want in ANISOTROPY]
        for k in range(4):
            # (a, 1-a) and (a, -a) split (Steinberg); negative a, b are
            # definite at every real place of a real cubic.
            a = Fraction(1)
            while a == 1:
                a = Fraction(rng.choice((-1, 1)) * rng.randint(2, 9),
                             rng.randint(1, 4))
            table.append(('steinberg%d' % k, [0, 1], (a, 1 - a), 'isotropic'))
            table.append(('opposite%d' % k, _eisenstein(rng, 2), (a, -a),
                          'isotropic'))
            table.append(('definite%d' % k, _eisenstein(rng, 3),
                          (-rng.randint(1, 9), -rng.randint(1, 9)),
                          'anisotropic'))
        for label, poly, ab, want in table:
            key = 'anisotropy/%s/%s' % (label, _key(poly))
            if ab is not None:
                key += '/(%s,%s)' % ab
            self.items.append(Item(
                key, self._anisotropy_run(poly, ab), _anisotropy_canon,
                lambda v, w=want: (v.kind in (w, 'unknown'),
                                   v.kind != 'unknown')))

    def _anisotropy_run(self, poly, ab):
        def run():
            K = NumberField(poly)
            if ab is None:
                alg = self.H
            else:
                alg = QuaternionAlgebra(self.H.base, ab[0], ab[1])
            return qalg.anisotropy(norm_form(alg, K, _embed_q(K)),
                                   ANISOTROPY_HEIGHT)
        return run

    # -- galois --------------------------------------------------------------

    def _extension_items(self):
        expected = {'gauss': 'NotAnisotropic', 'sqrtm2': 'NotAnisotropic',
                    'q2': 2, 'q3': 2, 'quartic': 4}
        for label, poly in DL2_FIELDS.items():
            def run(p=poly, label=label):
                K = NumberField(p, label=label)
                return galois.build_galois_extension(self.H, K, _embed_q(K))
            self.items.append(Item(
                'extension/' + label,
                _refusing(run, galois.NotAnisotropic),
                _extension_canon,
                lambda out, w=expected[label]: (_extension_answer(out) == w,
                                                None)))

    # -- fep -----------------------------------------------------------------

    def _group_items(self):
        for label, make, order, count in GROUPS:
            self.items.append(Item(
                'group/' + label, make, lambda G: 'order %d' % G.order,
                lambda G, n=order: (G.order == n, None)))
            self.items.append(Item(
                'subgroups/' + label, lambda m=make: len(m().subgroups()),
                str, lambda n, c=count: (n == c, None)))

    def _split_items(self):
        _, gal2 = self.exts['q2']
        _, gal4 = self.exts['quartic']
        _, galv = self.exts['biquad']
        g4 = _cyclic_powers(gal4)
        k1, k2 = 1, 2
        k3 = galv.group.op(k1, k2)
        q8_to_z2 = lambda a: 1 if (a >> 1) in (1, 3) else 0
        q8_to_v4 = lambda a: (0, k1, k2, k3)[a >> 1]
        problems = (
            ('Z4->Z2', lambda: cyclic_group(4), 'q2', lambda a: a % 2, False),
            ('Z2xZ2->Z2', lambda: direct_product(cyclic_group(2),
                                                 cyclic_group(2)),
             'q2', lambda a: a // 2, True),
            ('Q8->Z2', quaternion_group, 'q2', q8_to_z2, False),
            ('D8->Z2', lambda: dihedral_group(4), 'q2', lambda a: a & 1, True),
            ('D16->Z2', lambda: dihedral_group(8), 'q2', lambda a: a & 1,
             True),
            ('Z2^5->Z2', lambda: _z2_power(5), 'q2', lambda a: a // 16, True),
            ('Z8->Z4', lambda: cyclic_group(8), 'quartic',
             lambda a: g4[a % 4], False),
            ('Z4xZ4->Z4', lambda: direct_product(cyclic_group(4),
                                                 cyclic_group(4)),
             'quartic', lambda a: g4[a // 4], True),
            ('Z8xZ8->Z4', lambda: direct_product(cyclic_group(8),
                                                 cyclic_group(8)),
             'quartic', lambda a: g4[(a // 8) % 4], False),
            ('Q8->V4', quaternion_group, 'biquad', q8_to_v4, False),
        )
        for label, make, ext_label, alpha, want in problems:
            ext, gal = self.exts[ext_label]

            def run(make=make, ext=ext, gal=gal, alpha=alpha):
                G = make()
                problem = EmbeddingProblem(G, ext,
                                           [alpha(a) for a in range(G.order)],
                                           gal)
                return fep.is_split(problem)

            self.items.append(Item(
                'is_split/' + label, run,
                lambda out: 'split %s' % (
                    out[1].images if out[0] else None,),
                lambda out, w=want: (out[0] is w, None)))


def _key(coeffs):
    return ','.join(map(str, coeffs))


def _embed_q(K):
    Q = NumberField([0, 1], label='Q')
    return FieldMorphism(Q, K, K.zero())


def _cyclic_powers(gal):
    """Galois indices of g^0..g^3 for a generator g of a cyclic quartic."""
    gen = next(n for n, e in enumerate(gal.elements)
               if e.center_action.order() == 4)
    powers = [0]
    for _ in range(3):
        powers.append(gal.group.op(gen, powers[-1]))
    return powers


def _sympy_irreducible(coeffs):
    import sympy
    x = sympy.Symbol('x')
    return sympy.Poly(list(reversed(coeffs)), x).is_irreducible


def _level_answer(verdict):
    if verdict.kind == 'finite':
        return 'finite:%d' % verdict.s
    return verdict.kind


def _level_canon(verdict):
    out = _level_answer(verdict)
    if verdict.kind == 'finite':
        out += ' witness ' + '; '.join(_elem(w) for w in verdict.witness)
    if verdict.kind == 'infinite':
        out += ' place (%s, %s]' % (verdict.place.lo, verdict.place.hi)
    return out + ' bound %s' % verdict.bound


def _anisotropy_canon(verdict):
    out = verdict.kind
    if verdict.kind == 'isotropic':
        out += ' witness ' + '; '.join(_elem(w) for w in verdict.witness)
    if verdict.kind == 'anisotropic':
        out += ' place (%s, %s]' % (verdict.place.lo, verdict.place.hi)
    return out + ' bound %s' % verdict.bound


def _extension_answer(out):
    if isinstance(out, Refused):
        return out.kind
    if not (out.artin_verified and out.outer_verified):
        return 'unverified'
    return len(out.group)


def _extension_canon(out):
    if isinstance(out, Refused):
        return str(out)
    return 'order %d artin %s outer %s autos %s' % (
        len(out.group), out.artin_verified, out.outer_verified,
        '; '.join(_elem(g.center_action.gen_image) for g in out.group))


WORKLOADS = {w.name: w for w in (Scenarios, OreArith, Search)}
