"""Batch driver: scenario files in, deterministic verification reports out.

A scenario is a line-oriented text file with named sections declaring
fields, field morphisms, quaternion algebras, twists and embedding
problems, followed by a list of named checks.  All numbers are exact
integers or rationals written as decimal strings; reports echo witnesses
and certificates and never contain floating point.

A check's keyword parameters are the keys its line takes (check_keys), and
KEYS says how each value is read.  Check lines are validated at parse time
like declarations: an unknown check, an unknown, missing or repeated key.

Exit codes: 0 when every check passes (unknown verdicts do not fail a
run on their own), 1 when any check fails, hits an unexpected failed
hypothesis or ends in an error (an internal certificate that did not hold,
reported with its reason), 2 on usage or parse errors (a height bound or
precision flag below 1 and a degree bound below 0 among them), on a
declaration that cannot be built, and on a check parameter that is
malformed, out of range, names nothing declared or does not fit (an emb=
map off the algebra's center, ill-fitting twists), with the check's line.
A guard that rejects a well-formed input is a failed check with its reason;
_run_one alone reads what a check raised.
"""

import argparse
import sys
import time
from fractions import Fraction

from .fep import (EmbeddingProblem, GalData, NotWeakSolution, cyclic_group,
                  direct_product, dihedral_group, fiber_reduction,
                  geometric_problem, hypothesis_report, is_split,
                  problems_agree, quaternion_group, sol_down, sol_up,
                  solutions_agree, transport_down, transport_up,
                  verify_solution)
from .galois import (NoDirectDecomposition, NotAnisotropic, NotGalois,
                     ProductConditionFailed, TwistedExtension, WitnessInvalid,
                     build_comm_extension, build_galois_extension,
                     build_special_case_3, build_twisted_extension,
                     converse_check, eq_produit, restriction_between)
from .galois import check_product_conditions as product_conditions_report
from .numfield import (FieldMorphism, NumberField, OrderCapExceeded,
                       field_level)
from .ore import (HypothesisFailed, InsufficientPrecision, SkewFraction,
                  SkewLaurent, SkewPoly, center_bounded, constant_poly,
                  detect_recurrence, is_central, series_expand, t_poly,
                  tensor_decomposition_check)
from .qalg import (AlgebraAutomorphism, QuaternionAlgebra, ZeroNormError,
                   anisotropy, inner_automorphism, norm_form)
from .regressions import (biquadratic, cyclic_quartic, hamilton,
                          hamilton_over, matching_tower, q8_scenario,
                          q_embedding, quartic_solution, sqrt2_field)


class ScenarioParseError(Exception):

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__("line %d: %s" % (lineno, message))


class UnresolvedReference(Exception):
    pass


SECTIONS = ('fields', 'maps', 'algebras', 'twists', 'problems', 'checks')


class Scenario:

    def __init__(self):
        self.fields = {}     # name -> coeff list
        self.maps = {}       # name -> (source, target, coords)
        self.algebras = {}   # name -> (base, a coords, b coords)
        self.twists = {}     # name -> params dict
        self.problems = {}   # name -> params dict
        self.checks = []     # list of (lineno, op, params dict)


def _parse_rational(tok, lineno):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ScenarioParseError(lineno, "bad rational %r" % tok)


def _parse_felem(tok, lineno):
    return [_parse_rational(t, lineno) for t in tok.split(',')]


def _parse_kv(tokens, lineno, keys):
    """key=value tokens as a dict, checked against keys, {key: default} as
    check_keys gives: a repeated key, a key outside keys or a missing
    REQUIRED key is a parse error."""
    params = {}
    for tok in tokens:
        if '=' not in tok:
            raise ScenarioParseError(lineno, "expected key=value, got %r" % tok)
        key, val = tok.split('=', 1)
        if key in params:
            raise ScenarioParseError(lineno, "key %s= given twice" % key)
        if key not in keys:
            raise ScenarioParseError(lineno, "unknown key %s= (takes %s)" % (
                key, ', '.join(k + '=' for k in keys) or 'no keys'))
        params[key] = val
    for key, default in keys.items():
        if default is REQUIRED and key not in params:
            raise ScenarioParseError(lineno, "missing parameter %s=" % key)
    return params


def parse_scenario(text):
    scenario = Scenario()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        if line.startswith('[') and line.endswith(']'):
            section = line[1:-1].strip()
            if section not in SECTIONS:
                raise ScenarioParseError(lineno, "unknown section %r" % section)
            continue
        if section is None:
            raise ScenarioParseError(lineno, "content before any section")
        tokens = line.split()
        name = tokens[0]
        if section == 'fields':
            coeffs = [_parse_rational(t, lineno) for t in tokens[1:]]
            if not coeffs:
                raise ScenarioParseError(lineno, "field needs coefficients")
            scenario.fields[name] = coeffs
        elif section == 'maps':
            if len(tokens) < 4:
                raise ScenarioParseError(
                    lineno, "map needs source, target and image coordinates")
            coords = [_parse_rational(t, lineno) for t in tokens[3:]]
            scenario.maps[name] = (tokens[1], tokens[2], coords)
        elif section == 'algebras':
            if len(tokens) < 2 or '=' in tokens[1]:
                raise ScenarioParseError(lineno, "algebra needs a base field")
            rest = _parse_kv(tokens[2:], lineno, dict(a=REQUIRED, b=REQUIRED))
            scenario.algebras[name] = (tokens[1],
                                       _parse_felem(rest['a'], lineno),
                                       _parse_felem(rest['b'], lineno))
        elif section == 'twists':
            scenario.twists[name] = _parse_kv(tokens[1:], lineno, dict(
                algebra=REQUIRED, center=None, inner=None))
        elif section == 'problems':
            scenario.problems[name] = _parse_kv(tokens[1:], lineno, dict(
                group=REQUIRED, algebra=REQUIRED, field=REQUIRED, emb=None,
                alpha=None))
        elif section == 'checks':
            if name not in CHECKS:
                raise ScenarioParseError(lineno, "unknown check %r" % name)
            scenario.checks.append((lineno, name, _parse_kv(
                tokens[1:], lineno, check_keys(CHECKS[name]))))
    return scenario


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

GROUP_CATALOG = {
    'z2': (lambda: cyclic_group(2), {'c': 1}),
    'z3': (lambda: cyclic_group(3), {'c': 1}),
    'z4': (lambda: cyclic_group(4), {'c': 1}),
    'z6': (lambda: cyclic_group(6), {'c': 1}),
    'z8': (lambda: cyclic_group(8), {'c': 1}),
    'z2xz2': (lambda: direct_product(cyclic_group(2), cyclic_group(2)),
              {'a': 2, 'b': 1}),
    'd4': (lambda: dihedral_group(4), {'r': 2, 's': 1}),
    'd8': (lambda: dihedral_group(8), {'r': 2, 's': 1}),
    'q8': (quaternion_group, {'i': 2, 'j': 4}),
}

FLAG = object()  # a check key defaulting to the run flag of its name
REQUIRED = object()  # a key without a default
TWIST_KEYS = ('sigma_center', 'sigma_inner', 'tau_center', 'tau_inner')


def _int_at_least(low):
    """Reader for KEYS: an integer of at least low."""
    def convert(text):
        value = int(text)
        if value < low:
            raise ValueError("must be an integer >= %d" % low)
        return value
    return convert


# key -> the kind of declared object its value names, or its integer reader;
# any other key is read as text
KEYS = {
    'field': 'field', 'algebra': 'algebra', 'twist': 'twist',
    'problem': 'problem', 'emb': 'map', 'group': 'group',
    'height_bound': _int_at_least(1), 'precision': _int_at_least(1),
    'max_order': _int_at_least(1), 'degree_bound': _int_at_least(0),
    'n': _int_at_least(2), 'expect_dim': _int_at_least(0),
    'expect_order': _int_at_least(1),
}


def check_keys(check):
    """{key: default} for a check: its parameters after ws, read off the code
    of the function under any functools.wraps span (importing inspect costs
    more than parsing), with **twists standing for the TWIST_KEYS."""
    while hasattr(check, '__wrapped__'):
        check = check.__wrapped__
    code, defaults = check.__code__, check.__defaults__ or ()
    names = code.co_varnames[1:code.co_argcount]
    keys = dict.fromkeys(names, REQUIRED)
    keys.update(zip(names[len(names) - len(defaults):], defaults))
    if code.co_flags & 0x08:  # CO_VARKEYWORDS: the check takes **twists
        keys.update(dict.fromkeys(TWIST_KEYS))
    return keys


def _quaternion(alg, tok):
    """The element of alg written as up to four ';'-joined field elements."""
    parts = tok.split(';')
    try:
        if len(parts) > 4:
            raise ValueError("at most 4 coordinates")
        return alg.element([alg.base.element([Fraction(c)
                                              for c in part.split(',')])
                            for part in parts])
    except (ValueError, ZeroDivisionError) as exc:
        raise UnresolvedReference("quaternion %s: %s" % (tok, exc))


class Workspace:
    """Resolved scenario objects plus the run flags."""

    def __init__(self, scenario, flags):
        self.flags = flags
        self.named = {'group': GROUP_CATALOG}
        for kind, build in (
                ('field', lambda name, poly: NumberField(poly, label=name)),
                ('map', self._build_map),
                ('algebra', self._build_algebra),
                ('twist', lambda name, params: self.twist(
                    self.read(params, 'algebra'), params)),
                ('problem', self._build_problem)):
            table = self.named[kind] = {}
            for name, decl in getattr(scenario, kind + 's').items():
                try:
                    table[name] = build(name, decl)
                except (UnresolvedReference, ValueError, NotAnisotropic,
                        NotGalois) as exc:
                    raise UnresolvedReference("%s %s: %s" % (kind, name, exc))

    def lookup(self, kind, name):
        table = self.named[kind]
        if name not in table:
            raise UnresolvedReference("unknown %s %r" % (kind, name))
        return table[name]

    def read(self, params, key):
        """The value of key= in params read as KEYS says: the declared
        object it names, an integer or the text; None when it is absent."""
        if key not in params:
            return None
        reader = KEYS.get(key, str)
        if isinstance(reader, str):
            return self.lookup(reader, params[key])
        try:
            return reader(params[key])
        except ValueError as exc:
            raise UnresolvedReference("parameter %s=%s: %s"
                                      % (key, params[key], exc))

    def twist(self, alg, params, prefix=''):
        """The twist of alg by the declared map prefix+center= on its center
        (absent or id: the identity), then conjugation by the quaternion
        prefix+inner=."""
        auto = alg.identity_automorphism()
        key = prefix + 'center'
        try:
            if params.get(key, 'id') != 'id':
                auto = AlgebraAutomorphism(alg, alg.i(), alg.j(),
                                           self.lookup('map', params[key]))
            key = prefix + 'inner'
            if key in params:
                auto = inner_automorphism(
                    _quaternion(alg, params[key])).compose(auto)
        except (ValueError, ZeroNormError) as exc:
            raise UnresolvedReference("parameter %s=%s: %s"
                                      % (key, params[key], exc))
        return auto

    def twisted(self, ext, params):
        """ext with the twists sigma_*= on its base and tau_*= above."""
        return TwistedExtension(ext, self.twist(ext.H, params, 'sigma_'),
                                self.twist(ext.L, params, 'tau_'))

    def _build_map(self, name, decl):
        source, target, coords = decl
        target = self.lookup('field', target)
        return FieldMorphism(self.lookup('field', source), target,
                             target.element(coords))

    def _build_algebra(self, name, decl):
        base, a, b = decl
        fld = self.lookup('field', base)
        return QuaternionAlgebra(fld, fld.element(a), fld.element(b),
                                 label=name)

    def _build_problem(self, name, params):
        make, gens = self.read(params, 'group')
        G = make()
        ext = build_galois_extension(
            *tower(self.read(params, 'algebra'), self.read(params, 'field'),
                   self.read(params, 'emb')),
            self.flags['height_bound'])
        gal = GalData(ext)
        assignments = {}
        if 'alpha' in params:
            for piece in params['alpha'].split(','):
                gen_label, colon, map_name = piece.partition(':')
                if not colon:
                    raise UnresolvedReference(
                        "alpha piece %r is not generator:map" % piece)
                if gen_label not in gens:
                    raise UnresolvedReference(
                        "group has no generator %r" % gen_label)
                if map_name == 'id':  # the identity leads the Galois group
                    assignments[gens[gen_label]] = 0
                else:
                    fm = self.lookup('map', map_name)
                    assignments[gens[gen_label]] = ext.index_of(fm)
        images = _extend_hom(G, assignments, gal.group)
        return EmbeddingProblem(G, ext, images, gal)


def tower(algebra, field, emb=None):
    """The algebra, the field and the center embedding: emb or, over a
    rational center, the zero embedding."""
    if emb is None and algebra.base.degree > 1:
        raise UnresolvedReference(
            "an emb= map is required when the center is not the rationals")
    return algebra, field, q_embedding(algebra, field) if emb is None else emb


def _extend_hom(G, gen_images, target):
    """Extend generator images along words; GroupHom later re-verifies."""
    images = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g, img in gen_images.items():
                b = G.op(g, a)
                if b not in images:
                    images[b] = target.op(img, images[a])
                    nxt.append(b)
        frontier = nxt
    if len(images) != G.order:
        raise UnresolvedReference("generator images do not span the group")
    return [images[a] for a in range(G.order)]


# ---------------------------------------------------------------------------
# check results
# ---------------------------------------------------------------------------

class CheckResult:

    def __init__(self, status, claim, details=None):
        if status not in ('pass', 'fail', 'hypothesis-failed', 'unknown',
                          'error'):
            raise ValueError("bad status %r" % status)
        self.status = status
        self.claim = claim
        self.details = details or {}

    @classmethod
    def from_expectation(cls, claim, expected, actual, details=None):
        details = dict(details or {})
        details['actual'] = actual
        if expected is None:
            status = 'unknown' if actual == 'unknown' else 'pass'
        else:
            details['expected'] = expected
            status = 'pass' if str(actual) == str(expected) else 'fail'
        return cls(status, claim, details)


def _refused(exc, expected, claim, unexpected_claim=None):
    """A refused input: NotAnisotropic is compared with expected, the
    expect_error= text; a failed hypothesis passes when expect= names it."""
    if isinstance(exc, NotAnisotropic):
        return CheckResult.from_expectation(
            claim, expected, 'not_anisotropic', {'verdict': exc.verdict.kind})
    details = {'reason': str(exc)}
    if expected == 'hypothesis_failed':
        return CheckResult('pass', claim, details)
    return CheckResult('hypothesis-failed', unexpected_claim, details)


def _certificate(verdict):
    """The witness or real place of a level or anisotropy verdict."""
    out = {}
    if verdict.witness:
        out['witness'] = ' | '.join(
            ','.join(str(q) for q in w.coords) for w in verdict.witness)
    if verdict.place is not None:
        out['real_place'] = '(%s, %s]' % (verdict.place.lo, verdict.place.hi)
    return out


# ---------------------------------------------------------------------------
# primitive checks
# ---------------------------------------------------------------------------

def check_field_level(ws, field, height_bound=FLAG, expect=None):
    verdict = field_level(field, height_bound)
    details = {'kind': verdict.kind}
    if verdict.kind == 'finite':
        details['s'] = str(verdict.s)
    details.update(_certificate(verdict))
    if verdict.kind == 'unknown':
        details['height_searched'] = str(verdict.bound)
    actual = verdict.kind if verdict.kind != 'finite' \
        else 'finite:%d' % verdict.s
    return CheckResult.from_expectation(
        "level of the field: least count of squares summing to -1",
        expect, actual, details)


def check_anisotropy(ws, algebra, field, emb=None, height_bound=FLAG,
                     expect=None):
    verdict = anisotropy(norm_form(*tower(algebra, field, emb)), height_bound)
    details = dict(verdict=verdict.kind, **_certificate(verdict))
    if verdict.kind == 'unknown':
        details['height_searched'] = str(verdict.bound)
    return CheckResult.from_expectation(
        "norm form of the algebra over the extension field: "
        "definite place, isotropy witness, or unknown",
        expect, verdict.kind, details)


def check_build_extension(ws, algebra, field, emb=None, height_bound=FLAG,
                          expect_order=None, expect_error=None):
    try:
        ext = build_galois_extension(*tower(algebra, field, emb),
                                     height_bound)
    except NotAnisotropic as exc:
        return _refused(exc, expect_error, "tensor extension refused "
                                           "without an anisotropy certificate")
    except NotGalois:
        return CheckResult.from_expectation(
            "tensor extension refused for a non-Galois center extension",
            expect_error, 'not_galois')
    # GaloisExtension raises rather than return without both certificates
    details = {'group_order': str(len(ext.group)),
               'artin_fixed_set': 'verified', 'outer': 'verified'}
    claim = ("division-ring extension constructed; automorphisms fix the "
             "base exactly and no inner automorphism survives")
    if expect_error:
        return CheckResult('fail', claim, details)
    return CheckResult.from_expectation(claim, expect_order,
                                        details['group_order'], details)


def check_center_bounded(ws, twist, degree_bound=FLAG, expect_dim=None,
                         expect_closed_form=None):
    report = center_bounded(twist.owner, twist, degree_bound)
    details = {
        'dimension': str(len(report.raw_basis)),
        'twist_order': str(report.twist_order),
        'inner_order': str(report.inner_order),
        'hypothesis_inner_order_equals_order':
            'yes' if report.hypothesis_holds else 'no',
    }
    if report.closed_form_matches is not None:
        details['closed_form_span'] = \
            'match' if report.closed_form_matches else 'mismatch'
    claim = ("center of the twisted polynomial ring at bounded degree, "
             "compared against fixed-center coefficients on twist-order "
             "powers")
    ok = ((expect_dim is None or len(report.raw_basis) == expect_dim)
          and (expect_closed_form is None or report.closed_form_matches
               is (expect_closed_form == 'true'))
          and not (report.hypothesis_holds
                   and report.closed_form_matches is False))
    return CheckResult('pass' if ok else 'fail', claim, details)


def check_is_central(ws, twist, element, expect=None):
    poly = SkewPoly(twist, [_quaternion(twist.owner, tok)
                            for tok in element.split('|')])
    central = is_central(poly)
    return CheckResult.from_expectation(
        "commutation of the element with the variable and with the "
        "algebra generators",
        expect, 'true' if central else 'false',
        {'degree': str(poly.degree())})


def check_recurrence_geometric(ws, twist, coefficient='0;1', max_order=3,
                               expect_order=1, precision=FLAG):
    """``detect_recurrence`` returns only a certificate that reproduces
    every stored coefficient, so the ``verified`` line always reads yes."""
    c = _quaternion(twist.owner, coefficient)
    one = constant_poly(twist, 1)
    frac = SkewFraction(one, one - constant_poly(twist, c) * t_poly(twist))
    series = series_expand(frac, precision)
    cert = detect_recurrence(series, max_order)
    details = {'precision': str(precision)}
    if cert is None:
        return CheckResult('fail',
                           "twisted geometric series satisfies an order-1 "
                           "recurrence", details)
    details['order'] = str(cert.order)
    details['start'] = str(cert.start)
    details['verified'] = 'yes'
    return CheckResult('pass' if cert.order == expect_order else 'fail',
                       "twisted geometric series satisfies an order-1 "
                       "recurrence reproducing every stored coefficient",
                       details)


def check_recurrence_squares(ws, twist, precision=FLAG, max_order=3):
    alg = twist.owner
    coeffs = [alg.one() if k in (0, 1, 4, 9, 16) else alg.zero()
              for k in range(precision)]
    series = SkewLaurent(twist, 0, coeffs)
    cert = detect_recurrence(series, max_order)
    status = 'pass' if cert is None else 'fail'
    return CheckResult(status,
                       "the square-indicator truncation admits no bounded "
                       "recurrence", {'max_order': str(max_order)})


def check_is_split(ws, problem, expect=None):
    split, _ = is_split(problem)
    return CheckResult.from_expectation(
        "splitness of the embedding problem by subgroup search",
        expect, 'true' if split else 'false',
        {'group_order': str(problem.G.order),
         'kernel_order': str(len(problem.alpha.kernel()))})


def check_product_conditions(ws, algebra, field, emb=None, expect_star=None,
                             expect_eq_produit=None, **twists):
    ext = build_galois_extension(*tower(algebra, field, emb),
                                 ws.flags['height_bound'])
    report = product_conditions_report(ws.twisted(ext, twists))
    details = {
        'sigma_order': str(report.sigma_order),
        'tau_order': str(report.tau_order),
        'sigma_center_order': str(report.sigma_tilde_order),
        'tau_center_order': str(report.tau_tilde_order),
        'inner_order_sigma': str(report.inner_order_sigma),
        'star': 'holds' if report.star_holds() else 'fails',
        'direct_product': 'holds' if report.eq_produit else 'fails',
        'conditions_consistent':
            'yes' if report.triv1_consistent() and report.triv2_consistent()
            else 'no',
    }
    ok = report.triv1_consistent() and report.triv2_consistent()
    for expected, holds in ((expect_star, report.star_holds()),
                            (expect_eq_produit, report.eq_produit)):
        ok = ok and expected in (None, 'true' if holds else 'false')
    claim = ("twist orders, central restrictions and the direct-product "
             "condition, with the paired equivalences cross-checked")
    return CheckResult('pass' if ok else 'fail', claim, details)


def check_special_case_3(ws, algebra, field, emb=None, n=2,
                         expect_error=None):
    try:
        X = build_special_case_3(*tower(algebra, field, emb), n,
                                 ws.flags['height_bound'])
    except NotAnisotropic as exc:
        return _refused(exc, expect_error, "direct-factor construction "
                                           "refused without certificates")
    ok = eq_produit(X)
    fn_ext = build_twisted_extension(X, ws.flags['degree_bound'])
    details = {
        'new_base_center_degree': str(X.ext.H.base.degree),
        'galois_group_order': str(len(X.ext.group)),
        'direct_product': 'holds' if ok else 'fails',
        'lift_group_order': str(fn_ext.group_order()),
    }
    return CheckResult('pass' if ok else 'fail',
                       "direct-factor tower yields the product condition "
                       "and verified function-field lifts", details)


def check_converse(ws, algebra, field, emb=None, expect='consistent',
                   **twists):
    ext = build_galois_extension(*tower(algebra, field, emb),
                                 ws.flags['height_bound'])
    X = ws.twisted(ext, twists)
    try:
        report = converse_check(X, ws.flags['degree_bound'])
    except HypothesisFailed as exc:
        return _refused(exc, expect, "inner-order hypothesis correctly "
                                     "rejected", "inner-order hypothesis")
    details = {
        'direct_product': 'holds' if report.eq_produit else 'fails',
        'lift_group_order': str(report.lift_group_order),
        'consistent': 'yes' if report.consistent else 'no',
    }
    ok = report.consistent and expect == 'consistent'
    return CheckResult('pass' if ok else 'fail',
                       "when the inner orders match the orders and the "
                       "lifts verify, the product condition holds", details)


def check_hypothesis_report(ws, problem, ample=None, expect_split=None,
                            expect_product=None, **twists):
    X = ws.twisted(problem.ext, twists)
    rep = hypothesis_report(problem, X,
                            None if ample is None else ample == 'true')
    details = {
        'condition_split': str(rep['condition_split']).lower(),
        'condition_product': str(rep['condition_product']).lower(),
        'ampleness_asserted': str(rep['ampleness_asserted']).lower(),
        'conclusion_verified': 'false',
        'note': rep['note'],
        'weak_to_split_reduction_suggested':
            str(rep['weak_to_split_reduction_suggested']).lower(),
    }
    ok = all(expected in (None, details[detail])
             for expected, detail in ((expect_split, 'condition_split'),
                                      (expect_product, 'condition_product')))
    return CheckResult('pass' if ok else 'fail',
                       "checkable hypotheses of the geometric existence "
                       "statement; the conclusion itself is out of scope",
                       details)


def check_tensor(ws, algebra, field, emb=None, expect='pass', **twists):
    alg, fld, emb = tower(algebra, field, emb)
    L = QuaternionAlgebra(fld, emb(alg.a), emb(alg.b))
    sigma = ws.twist(alg, twists, 'sigma_')
    tau = ws.twist(L, twists, 'tau_')
    try:
        report = tensor_decomposition_check(alg, sigma, L, tau, emb,
                                            ws.flags['degree_bound'])
    except HypothesisFailed as exc:
        return _refused(exc, expect, "tensor decomposition correctly "
                                     "refused: central restriction orders "
                                     "differ",
                        "tensor decomposition hypothesis failed")
    details = {
        'rank': str(report.rank),
        'ambient_dimension': str(report.ambient_dim),
        'spanning_count': str(report.spanning_count),
        'injective': 'yes' if report.injective else 'no',
        'surjective': 'yes' if report.surjective else 'no',
        'multiplicative': 'yes' if report.multiplicative else 'no',
    }
    ok = report.passed() and expect == 'pass'
    return CheckResult('pass' if ok else 'fail',
                       "bounded-degree verification that the twisted "
                       "function field is a scalar extension of the base "
                       "one", details)


# ---------------------------------------------------------------------------
# bundled regressions
# ---------------------------------------------------------------------------

def regression_q8(ws):
    report = q8_scenario(ws.flags['height_bound'])
    details = {
        'is_split': 'false' if not report.split else 'true',
        'kernel_order': str(report.kernel_order),
        'quartic_group': 'cyclic of order 4'
            if report.quartic_group_cyclic else 'unexpected',
        'quartic_contains_sqrt2_conjugation':
            'yes' if report.quartic_contains_conjugation else 'no',
        'quartic_level': report.quartic_level,
        'weak_solution': 'verified' if report.weak_report.passed()
            else 'failed',
        'reduced_group_order': str(report.reduced_order),
        'reduced_split': 'true' if report.reduced_split else 'false',
        'reduced_kernel_order': str(report.reduced_kernel_order),
        'base_field': report.base_note,
    }
    return CheckResult(
        'pass' if report.passed() else 'fail',
        "quaternion-group problem: non-split, bounded weak solution "
        "through the real cyclic quartic, and a split fiber reduction "
        "with the same kernel", details)


def regression_roundtrip(ws):
    H = hamilton()
    ext = hamilton_over(H, sqrt2_field(), ws.flags['height_bound'])
    cases = [
        (cyclic_group(2), [0, 1]),
        (cyclic_group(4), [0, 1, 0, 1]),
        (quaternion_group(), [0, 0, 1, 1, 0, 0, 1, 1]),
    ]
    ok = True
    details = {}
    for G, images in cases:
        problem = EmbeddingProblem(G, ext, images)
        down = transport_down(problem)
        up = transport_up(down, H, ws.flags['height_bound'])
        agree = problems_agree(problem, up)
        details['problem_order_%d_roundtrip' % G.order] = \
            'exact' if agree else 'broken'
        ok = ok and agree
    # solution round trip through the real quartic
    problem = EmbeddingProblem(cyclic_group(4), ext, [0, 1, 0, 1])
    sol = quartic_solution(problem, kind='full',
                           height_bound=ws.flags['height_bound'])
    ok = ok and verify_solution(problem, sol).passed()
    lifted = sol_up(sol_down(sol), H, ws.flags['height_bound'])
    agree = solutions_agree(sol, lifted)
    lifted_ok = (verify_solution(problem, lifted).passed()
                 and lifted.kind == 'full')
    ok = ok and agree and lifted_ok
    details['solution_roundtrip'] = 'exact' if agree else 'broken'
    details['lifted_solution'] = 'verified full' if lifted_ok else 'failed'
    return CheckResult('pass' if ok else 'fail',
                       "problems and solutions transport to the center and "
                       "back without change; lifted solutions re-verify",
                       details)


def regression_fiber(ws):
    ext = hamilton_over(hamilton(), sqrt2_field(), ws.flags['height_bound'])
    problem = EmbeddingProblem(cyclic_group(4), ext, [0, 1, 0, 1])
    weak = quartic_solution(problem, height_bound=ws.flags['height_bound'])
    red = fiber_reduction(problem, weak)
    split, _ = is_split(red.problem)
    expected_order = len(problem.alpha.kernel()) * weak.gal_big.group.order
    ok = (split and red.problem.G.order == 8
          and red.problem.G.order == expected_order
          and len(red.kernel_iso) == 2)
    details = {
        'reduced_order': str(red.problem.G.order),
        'product_identity': 'holds'
            if red.problem.G.order == expected_order else 'fails',
        'reduced_split': 'true' if split else 'false',
        'kernel_order': str(len(red.kernel_iso)),
    }
    return CheckResult('pass' if ok else 'fail',
                       "weak-to-split reduction: fiber product order, "
                       "section, and kernel isomorphism", details)


def regression_special_cases(ws):
    H = hamilton()
    q2 = sqrt2_field()
    biquad_emb = biquadratic(q2)
    details = {}
    ok = True
    # conjugation by the same unit on both levels
    ext = hamilton_over(H, q2, ws.flags['height_bound'])
    X1 = TwistedExtension(ext, inner_automorphism(H.i()),
                          inner_automorphism(ext.L.i()))
    ok1 = eq_produit(X1)
    lifts1 = build_twisted_extension(X1, ws.flags['degree_bound'])
    details['inner_pair'] = ('product condition holds, %d lifts verified'
                             % lifts1.group_order()) if ok1 else 'failed'
    ok = ok and ok1
    # quadratic tower with matching central twists
    sigma2, tau2 = matching_tower(biquad_emb)
    report = tensor_decomposition_check(sigma2.owner, sigma2, tau2.owner,
                                        tau2, biquad_emb,
                                        ws.flags['degree_bound'])
    ok2 = report.passed()
    details['matching_tower'] = 'tensor decomposition verified' if ok2 \
        else 'failed'
    ok = ok and ok2
    # direct factor construction over the biquadratic field
    biquad = biquad_emb.target
    X3 = build_special_case_3(H, biquad, q_embedding(H, biquad), 2,
                              ws.flags['height_bound'])
    ok3 = eq_produit(X3)
    lifts3 = build_twisted_extension(X3, ws.flags['degree_bound'])
    details['direct_factor'] = ('product condition holds, %d lifts verified'
                                % lifts3.group_order()) if ok3 else 'failed'
    ok = ok and ok3
    return CheckResult('pass' if ok else 'fail',
                       "three constructions where the product condition "
                       "holds by design: inner pairs, matching quadratic "
                       "towers, and direct factors", details)


def regression_restriction(ws):
    H = hamilton()
    q2 = sqrt2_field()
    quartic_emb = cyclic_quartic(q2)
    biquad_emb = biquadratic(q2)
    biquad = biquad_emb.target
    # commutative towers; a restriction that does not verify raises
    small_c = build_comm_extension(q2, q_embedding(H, q2))
    restriction_between(build_comm_extension(biquad, q_embedding(H, biquad)),
                        small_c, biquad_emb)
    details = {'commutative_tower': 'pointwise verified'}
    # restriction onto the center
    ext = hamilton_over(H, q2, ws.flags['height_bound'])
    hom = restriction_between(ext, small_c, q2.identity_morphism())
    agree = all(hom(g) == g.center_action for g in ext.group)
    details['center_restriction'] = 'equals the central action' \
        if agree else 'mismatch'
    # nested division-ring tower
    big = hamilton_over(H, quartic_emb.target, ws.flags['height_bound'])
    hom = restriction_between(big, ext, quartic_emb)
    onto = len({hom(g) for g in big.group}) == len(ext.group)
    details['tower_restriction'] = 'pointwise verified, onto' \
        if onto else 'not onto'
    # geometric link identity on the trivial twist
    problem = EmbeddingProblem(cyclic_group(2), ext, [0, 1])
    X = TwistedExtension(ext, H.identity_automorphism(),
                         ext.L.identity_automorphism())
    geo = geometric_problem(problem, X, ws.flags['degree_bound'])
    details['function_field_link'] = 'table identity holds' \
        if geo.link_identity else 'broken'
    ok = agree and onto and geo.link_identity
    return CheckResult('pass' if ok else 'fail',
                       "restriction maps through auxiliary towers verify "
                       "pointwise; the function-field problem matches its "
                       "fixed-center shadow", details)


CHECKS = {
    'field_level': check_field_level,
    'anisotropy': check_anisotropy,
    'build_extension': check_build_extension,
    'center_bounded': check_center_bounded,
    'is_central': check_is_central,
    'recurrence_geometric': check_recurrence_geometric,
    'recurrence_squares': check_recurrence_squares,
    'is_split': check_is_split,
    'product_conditions': check_product_conditions,
    'special_case_3': check_special_case_3,
    'converse_check': check_converse,
    'hypothesis_report': check_hypothesis_report,
    'tensor_check': check_tensor,
    'q8_regression': regression_q8,
    'roundtrip_regression': regression_roundtrip,
    'fiber_regression': regression_fiber,
    'restriction_regression': regression_restriction,
    'special_cases_regression': regression_special_cases,
}

# builtin name -> scenario text: the declarations and checks of the shipped
# file of that name, or for center_lemma the first four of ore_center.scn
BUILTIN_SCENARIOS = {
    'dl2_matrix': """
        [fields]
        q        0 1
        gauss    1 0 1
        sqrtm2   2 0 1
        q2       -2 0 1
        q3       -3 0 1
        quartic  2 0 -4 0 1
        [algebras]
        H q a=-1 b=-1
        [checks]
        anisotropy algebra=H field=gauss expect=isotropic
        anisotropy algebra=H field=sqrtm2 expect=isotropic
        anisotropy algebra=H field=q2 expect=anisotropic
        anisotropy algebra=H field=q3 expect=anisotropic
        anisotropy algebra=H field=quartic expect=anisotropic
        build_extension algebra=H field=gauss expect_error=not_anisotropic
        build_extension algebra=H field=sqrtm2 expect_error=not_anisotropic
        build_extension algebra=H field=q2 expect_order=2
        build_extension algebra=H field=q3 expect_order=2
        build_extension algebra=H field=quartic expect_order=4
        """,
    'bruno_counterexample': """
        [fields]
        q   0 1
        q2  -2 0 1
        [maps]
        conj2  q2 q2 0 -1
        [algebras]
        H q a=-1 b=-1
        [checks]
        product_conditions algebra=H field=q2 sigma_inner=0;1;0;0 \
            tau_inner=0;1;0;0 tau_center=conj2 expect_star=false expect_eq_produit=false
        tensor_check algebra=H field=q2 sigma_inner=0;1;0;0 \
            tau_inner=0;1;0;0 tau_center=conj2 expect=hypothesis_failed
        converse_check algebra=H field=q2 sigma_inner=0;1;0;0 \
            tau_inner=0;1;0;0 tau_center=conj2 expect=hypothesis_failed
        """,
    'center_lemma': """
        [fields]
        q2  -2 0 1
        [maps]
        conj2  q2 q2 0 -1
        [algebras]
        H2 q2 a=-1 b=-1
        [twists]
        sigma algebra=H2 center=conj2
        [checks]
        center_bounded twist=sigma degree_bound=6 expect_dim=4 expect_closed_form=true
        is_central twist=sigma element=0|0|1 expect=true
        is_central twist=sigma element=0,1 expect=false
        is_central twist=sigma element=0|0;1 expect=false
        """,
}
# builtin name -> the one regression it runs.  builtin:all lists them all
# by bare name, no declaration or key: bench/workloads.py splits it by name.
_BUILTIN_CHECKS = {
    'q8': 'q8_regression',
    'special_cases': 'special_cases_regression',
    'roundtrips': 'roundtrip_regression',
    'fiber': 'fiber_regression',
    'restrictions': 'restriction_regression',
}
BUILTIN_SCENARIOS.update((name, "[checks]\n%s\n" % check)
                         for name, check in _BUILTIN_CHECKS.items())
BUILTIN_SCENARIOS['all'] = "[checks]\n%s\n" % '\n'.join(
    _BUILTIN_CHECKS.values())


# ---------------------------------------------------------------------------
# execution and report
# ---------------------------------------------------------------------------

# guards reject a well-formed input; three are ValueErrors, so tried first
GUARDS = (NotAnisotropic, NotGalois, ProductConditionFailed, WitnessInvalid,
          NoDirectDecomposition, InsufficientPrecision, OrderCapExceeded,
          NotWeakSolution)


def _run_one(ws, lineno, op, params):
    """The outcome of a check line, read from what the check raised."""
    start = time.monotonic()
    check = CHECKS[op]
    try:
        args = {key: ws.flags[key] for key, default in
                check_keys(check).items() if default is FLAG}
        args.update((key, ws.read(params, key)) for key in params)
        result = check(ws, **args)
    except HypothesisFailed as exc:
        result = CheckResult('hypothesis-failed', "operation hypothesis",
                             {'reason': str(exc)})
    except GUARDS as exc:
        result = CheckResult('fail', "operation guard rejected the input",
                             {'reason': str(exc)})
    except AssertionError as exc:
        result = CheckResult('error', "an internal certificate failed",
                             {'reason': str(exc)})
    except (UnresolvedReference, ValueError, ZeroNormError) as exc:
        # in the library a ValueError is an argument that does not fit
        raise UnresolvedReference("line %d: %s" % (lineno, exc))
    elapsed = int((time.monotonic() - start) * 1000)
    return op, result, elapsed


def run_scenario(scenario, flags):
    ws = Workspace(scenario, flags)
    return [_run_one(ws, *job) for job in scenario.checks]


def format_report(source, flags, results):
    lines = []
    lines.append('skewfield-report 1')
    lines.append('scenario: %s' % source)
    lines.append('flags: height_bound=%d degree_bound=%d precision=%d'
                 % (flags['height_bound'], flags['degree_bound'],
                    flags['precision']))
    counts = {'pass': 0, 'fail': 0, 'hypothesis-failed': 0, 'unknown': 0,
              'error': 0}
    for idx, (op, result, elapsed) in enumerate(results, start=1):
        counts[result.status] += 1
        lines.append('check %d: %s' % (idx, op))
        lines.append('  status: %s' % result.status)
        lines.append('  claim: %s' % result.claim)
        for key in result.details:
            lines.append('  %s: %s' % (key, result.details[key]))
        lines.append('  time_ms: %d' % elapsed)
    summary = ('summary: total=%d pass=%d fail=%d hypothesis-failed=%d '
               'unknown=%d' % (len(results), counts['pass'], counts['fail'],
                               counts['hypothesis-failed'], counts['unknown']))
    if counts['error']:
        summary += ' error=%d' % counts['error']
    lines.append(summary)
    return '\n'.join(lines) + '\n'


def exit_code(results):
    bad = sum(1 for _, r, _ in results
              if r.status in ('fail', 'hypothesis-failed', 'error'))
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog='skewfield',
        description="exact verification scenarios for division-ring "
                    "Galois theory")
    sub = parser.add_subparsers(dest='command')
    runp = sub.add_parser('run', help="run a scenario file or builtin:NAME")
    runp.add_argument('scenario', nargs='?',
                      help="path to a scenario file, or builtin:NAME")
    runp.add_argument('--list-builtin', action='store_true',
                      help="list the built-in scenarios")
    runp.add_argument('--height-bound', type=int, default=20, metavar='B')
    runp.add_argument('--degree-bound', type=int, default=4, metavar='D')
    runp.add_argument('--precision', type=int, default=30, metavar='P')
    runp.add_argument('--report', metavar='PATH',
                      help="also write the report to this file")
    args = parser.parse_args(argv)
    if args.command != 'run':
        parser.print_help()
        return 2
    if args.list_builtin:
        for name in sorted(BUILTIN_SCENARIOS):
            print('builtin:%s' % name)
        return 0
    if not args.scenario:
        print('error: a scenario path or builtin:NAME is required',
              file=sys.stderr)
        return 2
    flags = {
        'height_bound': args.height_bound,
        'degree_bound': args.degree_bound,
        'precision': args.precision,
    }
    for flag, low, kind in (('height_bound', 1, 'positive'),
                            ('degree_bound', 0, 'non-negative'),
                            ('precision', 1, 'positive')):
        if flags[flag] < low:
            print('error: --%s must be a %s integer'
                  % (flag.replace('_', '-'), kind), file=sys.stderr)
            return 2
    try:
        if args.scenario.startswith('builtin:'):
            name = args.scenario.split(':', 1)[1]
            if name not in BUILTIN_SCENARIOS:
                raise UnresolvedReference('no builtin scenario %r' % name)
            text = BUILTIN_SCENARIOS[name]
        else:
            with open(args.scenario) as handle:
                text = handle.read()
        results = run_scenario(parse_scenario(text), flags)
    except (OSError, ScenarioParseError, UnresolvedReference) as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 2
    report = format_report(args.scenario, flags, results)
    sys.stdout.write(report)
    if args.report:
        with open(args.report, 'w') as handle:
            handle.write(report)
    return exit_code(results)


if __name__ == '__main__':
    sys.exit(main())
