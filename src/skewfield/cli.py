"""Batch driver: scenario files in, deterministic verification reports out.

A scenario is a line-oriented text file with named sections declaring
fields, field morphisms, quaternion algebras, twists and embedding
problems, followed by a list of named checks.  All numbers are exact
integers or rationals written as decimal strings; reports echo witnesses
and certificates and never contain floating point.

Exit codes: 0 when every check passes (unknown verdicts do not fail a
run on their own), 1 when any check fails or hits an unexpected failed
hypothesis, 2 on usage or parse errors and on a field, map or algebra
declaration that cannot be built.
"""

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from .fep import (EmbeddingProblem, GalData, SolutionMap, cyclic_group,
                  direct_product, dihedral_group, fiber_reduction,
                  geometric_problem, hypothesis_report, images_by_powers,
                  is_split, q8_scenario, quaternion_group, sol_down, sol_up,
                  solutions_agree, transport_down, transport_up,
                  problems_agree, verify_solution)
from .galois import (NotAnisotropic, NotGalois, ProductConditionFailed,
                     RestrictionWitness, TwistedExtension,
                     build_comm_extension, build_galois_extension,
                     build_special_case_3, build_twisted_extension,
                     converse_check, eq_produit, restriction_between,
                     restriction_map)
from .galois import check_product_conditions as product_conditions_report
from .numfield import (FieldMorphism, NumberField, automorphism_group,
                       field_level)
from .ore import (HypothesisFailed, InsufficientPrecision, SkewFraction,
                  SkewLaurent, SkewPoly, center_bounded, constant_poly,
                  detect_recurrence, is_central, series_expand, t_poly,
                  tensor_decomposition_check)
from .qalg import (AlgebraAutomorphism, QuaternionAlgebra, anisotropy,
                   inner_automorphism, norm_form)


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


def _parse_quat(tok, lineno):
    parts = tok.split(';')
    if len(parts) > 4:
        raise ScenarioParseError(lineno, "quaternion needs at most 4 coordinates")
    return [_parse_felem(p, lineno) for p in parts]


def _parse_kv(tokens, lineno):
    params = {}
    for tok in tokens:
        if '=' not in tok:
            raise ScenarioParseError(lineno, "expected key=value, got %r" % tok)
        key, val = tok.split('=', 1)
        params[key] = val
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
            rest = _parse_kv(tokens[2:], lineno)
            if len(tokens) < 2 or 'a' not in rest or 'b' not in rest:
                raise ScenarioParseError(
                    lineno, "algebra needs a base and a=..., b=...")
            scenario.algebras[name] = (tokens[1],
                                       _parse_felem(rest['a'], lineno),
                                       _parse_felem(rest['b'], lineno))
        elif section == 'twists':
            params = _parse_kv(tokens[1:], lineno)
            if 'algebra' not in params:
                raise ScenarioParseError(lineno, "twist needs algebra=")
            scenario.twists[name] = params
        elif section == 'problems':
            params = _parse_kv(tokens[1:], lineno)
            for needed in ('group', 'algebra', 'field'):
                if needed not in params:
                    raise ScenarioParseError(lineno,
                                             "problem needs %s=" % needed)
            scenario.problems[name] = params
        elif section == 'checks':
            params = _parse_kv(tokens[1:], lineno)
            scenario.checks.append((lineno, name, params))
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


class Workspace:
    """Resolved scenario objects plus the run flags."""

    def __init__(self, scenario, flags):
        self.flags = flags
        self.fields = {}
        self.maps = {}
        self.algebras = {}
        self.twists = {}
        self.problems = {}
        for name, coeffs in scenario.fields.items():
            try:
                self.fields[name] = NumberField(coeffs, label=name)
            except ValueError as exc:
                raise UnresolvedReference("field %s: %s" % (name, exc))
        for name, (src, tgt, coords) in scenario.maps.items():
            source = self._field(src)
            target = self._field(tgt)
            try:
                self.maps[name] = FieldMorphism(source, target,
                                                target.element(coords))
            except ValueError as exc:
                raise UnresolvedReference("map %s: %s" % (name, exc))
        for name, (base, a, b) in scenario.algebras.items():
            fld = self._field(base)
            try:
                self.algebras[name] = QuaternionAlgebra(
                    fld, fld.element(a), fld.element(b), label=name)
            except ValueError as exc:
                raise UnresolvedReference("algebra %s: %s" % (name, exc))
        for name, params in scenario.twists.items():
            self.twists[name] = self._build_twist(name, params)
        for name, params in scenario.problems.items():
            self.problems[name] = self._build_problem(name, params)

    def _field(self, name):
        if name not in self.fields:
            raise UnresolvedReference("unknown field %r" % name)
        return self.fields[name]

    def _map(self, name):
        if name not in self.maps:
            raise UnresolvedReference("unknown map %r" % name)
        return self.maps[name]

    def _algebra(self, name):
        if name not in self.algebras:
            raise UnresolvedReference("unknown algebra %r" % name)
        return self.algebras[name]

    def _twist(self, name):
        if name not in self.twists:
            raise UnresolvedReference("unknown twist %r" % name)
        return self.twists[name]

    def _problem(self, name):
        if name not in self.problems:
            raise UnresolvedReference("unknown problem %r" % name)
        return self.problems[name]

    def embedding_into(self, algebra, field, emb_name=None):
        if emb_name:
            return self._map(emb_name)
        if algebra.base.degree == 1:
            return FieldMorphism(algebra.base, field, field.zero())
        raise UnresolvedReference(
            "an emb= map is required when the center is not the rationals")

    def _build_twist(self, name, params):
        alg = self._algebra(params['algebra'])
        auto = alg.identity_automorphism()
        if 'center' in params and params['center'] != 'id':
            fm = self._map(params['center'])
            if fm.source != alg.base or fm.target != alg.base:
                raise UnresolvedReference(
                    "twist %s: center map must be an automorphism of the base"
                    % name)
            auto = AlgebraAutomorphism(alg, alg.i(), alg.j(), fm)
        if 'inner' in params:
            coords = _parse_quat(params['inner'], 0)
            y = alg.element([alg.base.element(c) for c in coords])
            auto = inner_automorphism(y).compose(auto)
        return auto

    def _build_problem(self, name, params):
        if params['group'] not in GROUP_CATALOG:
            raise UnresolvedReference("unknown group %r" % params['group'])
        make, gens = GROUP_CATALOG[params['group']]
        G = make()
        alg = self._algebra(params['algebra'])
        fld = self._field(params['field'])
        emb = self.embedding_into(alg, fld, params.get('emb'))
        ext = build_galois_extension(alg, fld, emb,
                                     self.flags['height_bound'])
        gal = GalData(ext)
        assignments = {}
        if 'alpha' in params:
            for piece in params['alpha'].split(','):
                gen_label, map_name = piece.split(':', 1)
                if gen_label not in gens:
                    raise UnresolvedReference(
                        "problem %s: group has no generator %r"
                        % (name, gen_label))
                if map_name == 'id':
                    target = next(e for e in gal.elements if e.is_identity())
                else:
                    fm = self._map(map_name)
                    target = ext.from_center(fm)
                assignments[gens[gen_label]] = gal.index_of(target)
        images = _extend_hom(G, assignments, gal.group)
        return EmbeddingProblem(G, ext, images, gal)


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
        if status not in ('pass', 'fail', 'hypothesis-failed', 'unknown'):
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


def _verdict_details(verdict):
    out = {'verdict': verdict.kind}
    if verdict.kind == 'isotropic':
        out['witness'] = ' | '.join(
            ','.join(str(q) for q in w.coords) for w in verdict.witness)
    if verdict.kind == 'anisotropic':
        out['real_place'] = '(%s, %s]' % (verdict.place.lo, verdict.place.hi)
    if verdict.kind == 'unknown':
        out['height_searched'] = str(verdict.bound)
    return out


# ---------------------------------------------------------------------------
# primitive checks
# ---------------------------------------------------------------------------

def _height(ws, params):
    return int(params.get('height_bound', ws.flags['height_bound']))


def check_field_level(ws, params):
    fld = ws._field(params['field'])
    verdict = field_level(fld, _height(ws, params))
    details = {'kind': verdict.kind}
    if verdict.kind == 'finite':
        details['s'] = str(verdict.s)
        details['witness'] = ' | '.join(
            ','.join(str(q) for q in w.coords) for w in verdict.witness)
    if verdict.kind == 'infinite':
        details['real_place'] = '(%s, %s]' % (verdict.place.lo,
                                              verdict.place.hi)
    actual = verdict.kind if verdict.kind != 'finite' \
        else 'finite:%d' % verdict.s
    return CheckResult.from_expectation(
        "level of the field: least count of squares summing to -1",
        params.get('expect'), actual, details)


def check_anisotropy(ws, params):
    alg = ws._algebra(params['algebra'])
    fld = ws._field(params['field'])
    emb = ws.embedding_into(alg, fld, params.get('emb'))
    verdict = anisotropy(norm_form(alg, fld, emb), _height(ws, params))
    return CheckResult.from_expectation(
        "norm form of the algebra over the extension field: "
        "definite place, isotropy witness, or unknown",
        params.get('expect'), verdict.kind, _verdict_details(verdict))


def check_build_extension(ws, params):
    alg = ws._algebra(params['algebra'])
    fld = ws._field(params['field'])
    emb = ws.embedding_into(alg, fld, params.get('emb'))
    try:
        ext = build_galois_extension(alg, fld, emb, _height(ws, params))
    except NotAnisotropic as exc:
        return CheckResult.from_expectation(
            "tensor extension refused without an anisotropy certificate",
            params.get('expect_error'), 'not_anisotropic',
            {'verdict': exc.verdict.kind})
    except NotGalois:
        return CheckResult.from_expectation(
            "tensor extension refused for a non-Galois center extension",
            params.get('expect_error'), 'not_galois')
    details = {
        'group_order': str(len(ext.group)),
        'artin_fixed_set': 'verified' if ext.artin_verified else 'failed',
        'outer': 'verified' if ext.outer_verified else 'failed',
    }
    status_actual = str(len(ext.group))
    claim = ("division-ring extension constructed; automorphisms fix the "
             "base exactly and no inner automorphism survives")
    if params.get('expect_error'):
        return CheckResult('fail', claim, details)
    if not (ext.artin_verified and ext.outer_verified):
        return CheckResult('fail', claim, details)
    return CheckResult.from_expectation(claim, params.get('expect_order'),
                                        status_actual, details)


def check_center_bounded(ws, params):
    twist = ws._twist(params['twist'])
    bound = int(params.get('degree_bound', ws.flags['degree_bound']))
    report = center_bounded(twist.owner, twist, bound)
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
    ok = True
    if 'expect_dim' in params:
        ok = ok and len(report.raw_basis) == int(params['expect_dim'])
    if 'expect_closed_form' in params:
        want = params['expect_closed_form'] == 'true'
        ok = ok and report.closed_form_matches is want
    if report.hypothesis_holds and report.closed_form_matches is False:
        ok = False
    return CheckResult('pass' if ok else 'fail', claim, details)


def _parse_poly_param(tok, twist, lineno=0):
    alg = twist.owner
    coeffs = []
    for coeff_tok in tok.split('|'):
        quat = _parse_quat(coeff_tok, lineno)
        coeffs.append(alg.element([alg.base.element(v) for v in quat]))
    return SkewPoly(twist, coeffs)


def check_is_central(ws, params):
    twist = ws._twist(params['twist'])
    poly = _parse_poly_param(params['element'], twist)
    central = is_central(poly)
    return CheckResult.from_expectation(
        "commutation of the element with the variable and with the "
        "algebra generators",
        params.get('expect'), 'true' if central else 'false',
        {'degree': str(poly.degree())})


def check_recurrence_geometric(ws, params):
    twist = ws._twist(params['twist'])
    alg = twist.owner
    coords = _parse_quat(params.get('coefficient', '0;1'), 0)
    c = alg.element([alg.base.element(v) for v in coords])
    one = constant_poly(twist, 1)
    frac = SkewFraction(one, one - constant_poly(twist, c) * t_poly(twist))
    series = series_expand(frac, ws.flags['precision'])
    cert = detect_recurrence(series, int(params.get('max_order', 3)))
    details = {'precision': str(ws.flags['precision'])}
    if cert is None:
        return CheckResult('fail',
                           "twisted geometric series satisfies an order-1 "
                           "recurrence", details)
    details['order'] = str(cert.order)
    details['start'] = str(cert.start)
    details['verified'] = 'yes' if cert.verify(series) else 'no'
    ok = cert.order == int(params.get('expect_order', 1)) \
        and cert.verify(series)
    return CheckResult('pass' if ok else 'fail',
                       "twisted geometric series satisfies an order-1 "
                       "recurrence reproducing every stored coefficient",
                       details)


def check_recurrence_squares(ws, params):
    twist = ws._twist(params['twist'])
    alg = twist.owner
    n = int(params.get('precision', 20))
    coeffs = [alg.one() if k in (0, 1, 4, 9, 16) else alg.zero()
              for k in range(n)]
    series = SkewLaurent(twist, 0, coeffs)
    cert = detect_recurrence(series, int(params.get('max_order', 3)))
    status = 'pass' if cert is None else 'fail'
    return CheckResult(status,
                       "the square-indicator truncation admits no bounded "
                       "recurrence", {'max_order':
                                      params.get('max_order', '3')})


def check_is_split(ws, params):
    problem = ws._problem(params['problem'])
    split, _ = is_split(problem)
    return CheckResult.from_expectation(
        "splitness of the embedding problem by subgroup search",
        params.get('expect'), 'true' if split else 'false',
        {'group_order': str(problem.G.order),
         'kernel_order': str(len(problem.alpha.kernel()))})


def check_product_conditions(ws, params):
    alg = ws._algebra(params['algebra'])
    fld = ws._field(params['field'])
    emb = ws.embedding_into(alg, fld, params.get('emb'))
    ext = build_galois_extension(alg, fld, emb, ws.flags['height_bound'])
    sigma = _twist_on(ws, alg, params, 'sigma')
    tau = _twist_on(ws, ext.L, params, 'tau')
    X = TwistedExtension(ext, sigma, tau)
    report = product_conditions_report(X)
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
    for key, attr in (('expect_star', report.star_holds()),
                      ('expect_eq_produit', report.eq_produit)):
        if key in params:
            ok = ok and (params[key] == ('true' if attr else 'false'))
    claim = ("twist orders, central restrictions and the direct-product "
             "condition, with the paired equivalences cross-checked")
    return CheckResult('pass' if ok else 'fail', claim, details)


def _twist_on(ws, alg, params, prefix):
    auto = alg.identity_automorphism()
    center_key = params.get(prefix + '_center')
    if center_key and center_key != 'id':
        fm = ws._map(center_key)
        auto = AlgebraAutomorphism(alg, alg.i(), alg.j(), fm)
    inner_key = params.get(prefix + '_inner')
    if inner_key:
        coords = _parse_quat(inner_key, 0)
        y = alg.element([alg.base.element(v) for v in coords])
        auto = inner_automorphism(y).compose(auto)
    return auto


def check_special_case_3(ws, params):
    alg = ws._algebra(params['algebra'])
    fld = ws._field(params['field'])
    emb = ws.embedding_into(alg, fld, params.get('emb'))
    n = int(params.get('n', 2))
    try:
        X = build_special_case_3(alg, fld, emb, n, ws.flags['height_bound'])
    except NotAnisotropic as exc:
        return CheckResult.from_expectation(
            "direct-factor construction refused without certificates",
            params.get('expect_error'), 'not_anisotropic',
            {'verdict': exc.verdict.kind})
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


def check_converse(ws, params):
    alg = ws._algebra(params['algebra'])
    fld = ws._field(params['field'])
    emb = ws.embedding_into(alg, fld, params.get('emb'))
    ext = build_galois_extension(alg, fld, emb, ws.flags['height_bound'])
    sigma = _twist_on(ws, alg, params, 'sigma')
    tau = _twist_on(ws, ext.L, params, 'tau')
    X = TwistedExtension(ext, sigma, tau)
    try:
        report = converse_check(X, ws.flags['degree_bound'])
    except HypothesisFailed as exc:
        if params.get('expect') == 'hypothesis_failed':
            return CheckResult('pass',
                               "inner-order hypothesis correctly rejected",
                               {'reason': str(exc)})
        return CheckResult('hypothesis-failed', "inner-order hypothesis",
                           {'reason': str(exc)})
    details = {
        'direct_product': 'holds' if report.eq_produit else 'fails',
        'lift_group_order': str(report.lift_group_order),
        'consistent': 'yes' if report.consistent else 'no',
    }
    ok = report.consistent and params.get('expect', 'consistent') == 'consistent'
    return CheckResult('pass' if ok else 'fail',
                       "when the inner orders match the orders and the "
                       "lifts verify, the product condition holds", details)


def check_hypothesis_report(ws, params):
    problem = ws._problem(params['problem'])
    ext = problem.ext
    sigma = _twist_on(ws, ext.H, params, 'sigma')
    tau = _twist_on(ws, ext.L, params, 'tau')
    X = TwistedExtension(ext, sigma, tau)
    ample = None
    if 'ample' in params:
        ample = params['ample'] == 'true'
    rep = hypothesis_report(problem, X, ample)
    details = {
        'condition_split': str(rep['condition_split']).lower(),
        'condition_product': str(rep['condition_product']).lower(),
        'ampleness_asserted': str(rep['ampleness_asserted']).lower(),
        'conclusion_verified': 'false',
        'note': rep['note'],
        'weak_to_split_reduction_suggested':
            str(rep['weak_to_split_reduction_suggested']).lower(),
    }
    ok = True
    for key, field in (('expect_split', 'condition_split'),
                       ('expect_product', 'condition_product')):
        if key in params:
            ok = ok and details[field] == params[key]
    return CheckResult('pass' if ok else 'fail',
                       "checkable hypotheses of the geometric existence "
                       "statement; the conclusion itself is out of scope",
                       details)


def check_tensor(ws, params):
    alg = ws._algebra(params['algebra'])
    fld = ws._field(params['field'])
    emb = ws.embedding_into(alg, fld, params.get('emb'))
    L = QuaternionAlgebra(fld, emb(alg.a), emb(alg.b))
    sigma = _twist_on(ws, alg, params, 'sigma')
    tau = _twist_on(ws, L, params, 'tau')
    try:
        report = tensor_decomposition_check(alg, sigma, L, tau, emb,
                                            ws.flags['degree_bound'])
    except HypothesisFailed as exc:
        if params.get('expect') == 'hypothesis_failed':
            return CheckResult('pass',
                               "tensor decomposition correctly refused: "
                               "central restriction orders differ",
                               {'reason': str(exc)})
        return CheckResult('hypothesis-failed',
                           "tensor decomposition hypothesis failed",
                           {'reason': str(exc)})
    details = {
        'rank': str(report.rank),
        'ambient_dimension': str(report.ambient_dim),
        'spanning_count': str(report.spanning_count),
        'injective': 'yes' if report.injective else 'no',
        'surjective': 'yes' if report.surjective else 'no',
        'multiplicative': 'yes' if report.multiplicative else 'no',
    }
    ok = report.passed() and params.get('expect', 'pass') == 'pass'
    return CheckResult('pass' if ok else 'fail',
                       "bounded-degree verification that the twisted "
                       "function field is a scalar extension of the base "
                       "one", details)


# ---------------------------------------------------------------------------
# bundled regressions
# ---------------------------------------------------------------------------

def regression_q8(ws, params):
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


def regression_bruno(ws, params):
    q = NumberField([0, 1], label='Q')
    q2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
    H = QuaternionAlgebra(q, -1, -1, label='(-1,-1/Q)')
    emb = FieldMorphism(q, q2, q2.zero())
    ext = build_galois_extension(H, q2, emb, ws.flags['height_bound'])
    tau_prime = next(a for a in ext.group if not a.is_identity())
    sigma = inner_automorphism(H.i())
    tau = inner_automorphism(ext.L.i()).compose(tau_prime)
    X = TwistedExtension(ext, sigma, tau)
    report = product_conditions_report(X)
    ok = (report.sigma_order == 2 and report.tau_order == 2
          and report.sigma_tilde_order == 1 and report.tau_tilde_order == 2
          and report.inner_order_sigma == 1
          and not report.star_holds() and not report.eq_produit
          and report.triv1_consistent() and report.triv2_consistent())
    details = {
        'sigma_order': str(report.sigma_order),
        'tau_order': str(report.tau_order),
        'sigma_central_restriction': 'identity'
            if report.sigma_tilde_order == 1 else 'nontrivial',
        'tau_central_restriction': 'identity'
            if report.tau_tilde_order == 1 else 'nontrivial',
        'inner_order_sigma': str(report.inner_order_sigma),
        'star': 'fails' if not report.star_holds() else 'holds',
        'direct_product': 'fails' if not report.eq_produit else 'holds',
    }
    return CheckResult('pass' if ok else 'fail',
                       "equal twist orders with unequal central "
                       "restrictions: the inner-twisted counterexample",
                       details)


DL2_MATRIX = (
    ('gaussian', [1, 0, 1], 'isotropic', None),
    ('sqrt-2', [2, 0, 1], 'isotropic', None),
    ('sqrt2', [-2, 0, 1], 'anisotropic', 2),
    ('sqrt3', [-3, 0, 1], 'anisotropic', 2),
    ('quartic', [2, 0, -4, 0, 1], 'anisotropic', 4),
)


def regression_dl2_matrix(ws, params):
    q = NumberField([0, 1], label='Q')
    H = QuaternionAlgebra(q, -1, -1, label='(-1,-1/Q)')
    details = {}
    ok = True
    for name, poly, want_verdict, want_order in DL2_MATRIX:
        fld = NumberField(poly, label=name)
        emb = FieldMorphism(q, fld, fld.zero())
        verdict = anisotropy(norm_form(H, fld, emb), ws.flags['height_bound'])
        details['%s_verdict' % name] = verdict.kind
        ok = ok and verdict.kind == want_verdict
        try:
            ext = build_galois_extension(H, fld, emb,
                                         ws.flags['height_bound'])
            details['%s_group_order' % name] = str(len(ext.group))
            details['%s_checks' % name] = (
                'artin+outer verified'
                if ext.artin_verified and ext.outer_verified else 'failed')
            ok = ok and want_order == len(ext.group) \
                and ext.artin_verified and ext.outer_verified
        except NotAnisotropic:
            details['%s_group_order' % name] = 'refused'
            ok = ok and want_order is None
    return CheckResult('pass' if ok else 'fail',
                       "instance matrix: isotropy verdicts and extension "
                       "constructions over five quadratic and quartic "
                       "fields", details)


def regression_center(ws, params):
    q2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
    H2 = QuaternionAlgebra(q2, -1, -1, label='(-1,-1/Q(sqrt2))')
    conj = next(g for g in automorphism_group(q2) if not g.is_identity())
    twist = AlgebraAutomorphism(H2, H2.i(), H2.j(), conj)
    report = center_bounded(H2, twist, 6)
    t = t_poly(twist)
    s2 = constant_poly(twist, H2.scalar(q2.gen()))
    it = constant_poly(twist, H2.i()) * t
    ok = (report.hypothesis_holds and report.closed_form_matches
          and len(report.raw_basis) == 4
          and is_central(t * t) and not is_central(s2)
          and not is_central(it))
    details = {
        'dimension': str(len(report.raw_basis)),
        'closed_form_span': 'match' if report.closed_form_matches
            else 'mismatch',
        't^2_central': 'yes' if is_central(t * t) else 'no',
        'sqrt2_central': 'no' if not is_central(s2) else 'yes',
        'i*t_central': 'no' if not is_central(it) else 'yes',
    }
    return CheckResult('pass' if ok else 'fail',
                       "bounded center of the conjugation-twisted "
                       "polynomial ring equals rational spans of even "
                       "powers", details)


def regression_roundtrip(ws, params):
    q = NumberField([0, 1], label='Q')
    q2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
    quartic = NumberField([2, 0, -4, 0, 1], label='quartic')
    H = QuaternionAlgebra(q, -1, -1, label='(-1,-1/Q)')
    emb = FieldMorphism(q, q2, q2.zero())
    ext = build_galois_extension(H, q2, emb, ws.flags['height_bound'])
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
    ext_big = build_galois_extension(H, quartic, FieldMorphism(
        q, quartic, quartic.zero()), ws.flags['height_bound'])
    gal_big = GalData(ext_big)
    beta = images_by_powers(gal_big, lambda power: power % 4)
    center_emb = FieldMorphism(q2, quartic, quartic.element([-2, 0, 1]))
    sol = SolutionMap(ext_big, center_emb, beta, 'full', problem.G, gal_big)
    ok = ok and verify_solution(problem, sol).passed()
    lifted = sol_up(sol_down(sol), H, ws.flags['height_bound'])
    agree = solutions_agree(sol, lifted)
    ok = ok and agree and verify_solution(problem, lifted).passed() \
        and lifted.kind == 'full'
    details['solution_roundtrip'] = 'exact' if agree else 'broken'
    details['lifted_solution'] = 'verified full'
    return CheckResult('pass' if ok else 'fail',
                       "problems and solutions transport to the center and "
                       "back without change; lifted solutions re-verify",
                       details)


def regression_fiber(ws, params):
    q = NumberField([0, 1], label='Q')
    q2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
    quartic = NumberField([2, 0, -4, 0, 1], label='quartic')
    H = QuaternionAlgebra(q, -1, -1, label='(-1,-1/Q)')
    ext = build_galois_extension(H, q2, FieldMorphism(q, q2, q2.zero()),
                                 ws.flags['height_bound'])
    problem = EmbeddingProblem(cyclic_group(4), ext, [0, 1, 0, 1])
    ext_big = build_galois_extension(
        H, quartic, FieldMorphism(q, quartic, quartic.zero()),
        ws.flags['height_bound'])
    gal_big = GalData(ext_big)
    beta = images_by_powers(gal_big, lambda power: power % 4)
    center_emb = FieldMorphism(q2, quartic, quartic.element([-2, 0, 1]))
    weak = SolutionMap(ext_big, center_emb, beta, 'weak', problem.G, gal_big)
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


def regression_special_cases(ws, params):
    q = NumberField([0, 1], label='Q')
    q2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
    biquad = NumberField([1, 0, -10, 0, 1], label='biquad')
    H = QuaternionAlgebra(q, -1, -1, label='(-1,-1/Q)')
    details = {}
    ok = True
    # conjugation by the same unit on both levels
    ext = build_galois_extension(H, q2, FieldMorphism(q, q2, q2.zero()),
                                 ws.flags['height_bound'])
    X1 = TwistedExtension(ext, inner_automorphism(H.i()),
                          inner_automorphism(ext.L.i()))
    ok1 = eq_produit(X1)
    lifts1 = build_twisted_extension(X1, ws.flags['degree_bound'])
    details['inner_pair'] = ('product condition holds, %d lifts verified'
                             % lifts1.group_order()) if ok1 else 'failed'
    ok = ok and ok1
    # quadratic tower with matching central twists
    q2conj = next(g for g in automorphism_group(q2) if not g.is_identity())
    H2 = QuaternionAlgebra(q2, -1, -1)
    sqrt2_in = biquad.element([0, Fraction(-9, 2), 0, Fraction(1, 2)])
    emb = FieldMorphism(q2, biquad, sqrt2_in)
    L2 = QuaternionAlgebra(biquad, -1, -1)
    sqrt3_in = biquad.gen() - sqrt2_in
    tau_tilde = next(g for g in automorphism_group(biquad)
                     if g(sqrt2_in) == -sqrt2_in and g(sqrt3_in) == sqrt3_in)
    sigma2 = AlgebraAutomorphism(H2, H2.i(), H2.j(), q2conj)
    tau2 = AlgebraAutomorphism(L2, L2.i(), L2.j(), tau_tilde)
    report = tensor_decomposition_check(H2, sigma2, L2, tau2, emb,
                                        ws.flags['degree_bound'])
    ok2 = report.passed()
    details['matching_tower'] = 'tensor decomposition verified' if ok2 \
        else 'failed'
    ok = ok and ok2
    # direct factor construction over the biquadratic field
    X3 = build_special_case_3(H, biquad, FieldMorphism(q, biquad,
                                                       biquad.zero()), 2,
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


def regression_restriction(ws, params):
    q = NumberField([0, 1], label='Q')
    q2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
    quartic = NumberField([2, 0, -4, 0, 1], label='quartic')
    biquad = NumberField([1, 0, -10, 0, 1], label='biquad')
    H = QuaternionAlgebra(q, -1, -1, label='(-1,-1/Q)')
    ok = True
    details = {}
    # commutative towers
    sqrt2_in_biq = biquad.element([0, Fraction(-9, 2), 0, Fraction(1, 2)])
    big_c = build_comm_extension(biquad, FieldMorphism(q, biquad,
                                                       biquad.zero()))
    small_c = build_comm_extension(q2, FieldMorphism(q, q2, q2.zero()))
    emb = FieldMorphism(q2, biquad, sqrt2_in_biq)
    witness = RestrictionWitness(
        ell0=q2, k0_emb=FieldMorphism(q, q2, q2.zero()),
        emb_l0_big=emb, emb_l0_small=q2.identity_morphism(),
        emb_k0_big=q.identity_morphism(), emb_k0_small=q.identity_morphism())
    try:
        restriction_map(big_c, small_c, witness, small_to_big=emb)
        details['commutative_tower'] = 'pointwise verified'
    except Exception as exc:
        details['commutative_tower'] = 'failed: %s' % exc
        ok = False
    # restriction onto the center
    ext = build_galois_extension(H, q2, FieldMorphism(q, q2, q2.zero()),
                                 ws.flags['height_bound'])
    witness2 = RestrictionWitness(
        ell0=q2, k0_emb=FieldMorphism(q, q2, q2.zero()),
        emb_l0_big=q2.identity_morphism(),
        emb_l0_small=q2.identity_morphism(),
        emb_k0_big=q.identity_morphism(), emb_k0_small=q.identity_morphism())
    try:
        hom = restriction_map(ext, small_c, witness2,
                              small_to_big=lambda x: ext.L.scalar(x))
        agree = all(hom(g) == g.center_action for g in ext.group)
        details['center_restriction'] = 'equals the central action' \
            if agree else 'mismatch'
        ok = ok and agree
    except Exception as exc:
        details['center_restriction'] = 'failed: %s' % exc
        ok = False
    # nested division-ring tower
    big = build_galois_extension(H, quartic,
                                 FieldMorphism(q, quartic, quartic.zero()),
                                 ws.flags['height_bound'])
    try:
        hom = restriction_between(big, ext,
                                  FieldMorphism(q2, quartic,
                                                quartic.element([-2, 0, 1])))
        onto = len({hom(g) for g in big.group}) == len(ext.group)
        details['tower_restriction'] = 'pointwise verified, onto' \
            if onto else 'not onto'
        ok = ok and onto
    except Exception as exc:
        details['tower_restriction'] = 'failed: %s' % exc
        ok = False
    # geometric link identity on the trivial twist
    problem = EmbeddingProblem(cyclic_group(2), ext, [0, 1])
    X = TwistedExtension(ext, H.identity_automorphism(),
                         ext.L.identity_automorphism())
    geo = geometric_problem(problem, X, ws.flags['degree_bound'])
    details['function_field_link'] = 'table identity holds' \
        if geo.link_identity else 'broken'
    ok = ok and geo.link_identity
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
    'bruno_regression': regression_bruno,
    'dl2_matrix_regression': regression_dl2_matrix,
    'center_regression': regression_center,
    'roundtrip_regression': regression_roundtrip,
    'fiber_regression': regression_fiber,
    'restriction_regression': regression_restriction,
    'special_cases_regression': regression_special_cases,
}

BUILTIN_SCENARIOS = {
    'q8': "[checks]\nq8_regression\n",
    'bruno_counterexample': "[checks]\nbruno_regression\n",
    'dl2_matrix': "[checks]\ndl2_matrix_regression\n",
    'center_lemma': "[checks]\ncenter_regression\n",
    'special_cases': "[checks]\nspecial_cases_regression\n",
    'roundtrips': "[checks]\nroundtrip_regression\n",
    'fiber': "[checks]\nfiber_regression\n",
    'restrictions': "[checks]\nrestriction_regression\n",
    'all': ("[checks]\nq8_regression\nbruno_regression\n"
            "dl2_matrix_regression\ncenter_regression\n"
            "special_cases_regression\nroundtrip_regression\n"
            "fiber_regression\nrestriction_regression\n"),
}


def builtin_examples():
    return dict(BUILTIN_SCENARIOS)


# ---------------------------------------------------------------------------
# execution and report
# ---------------------------------------------------------------------------

def _run_one(ws, lineno, op, params):
    start = time.monotonic()
    if op not in CHECKS:
        raise UnresolvedReference("line %d: unknown check %r" % (lineno, op))
    try:
        result = CHECKS[op](ws, params)
    except HypothesisFailed as exc:
        result = CheckResult('hypothesis-failed', "operation hypothesis",
                             {'reason': str(exc)})
    except (NotAnisotropic, NotGalois, ProductConditionFailed,
            InsufficientPrecision) as exc:
        result = CheckResult('fail', "operation guard rejected the input",
                             {'reason': str(exc)})
    elapsed = int((time.monotonic() - start) * 1000)
    return op, result, elapsed


def run_scenario(scenario, flags):
    ws = Workspace(scenario, flags)
    jobs = scenario.checks
    if flags.get('parallel', 1) > 1:
        with ThreadPoolExecutor(max_workers=flags['parallel']) as pool:
            results = list(pool.map(
                lambda job: _run_one(ws, *job), jobs))
    else:
        results = [_run_one(ws, *job) for job in jobs]
    return results


def format_report(source, flags, results):
    lines = []
    lines.append('skewfield-report 1')
    lines.append('scenario: %s' % source)
    lines.append('flags: height_bound=%d degree_bound=%d precision=%d '
                 'parallel=%d' % (flags['height_bound'],
                                  flags['degree_bound'],
                                  flags['precision'], flags['parallel']))
    counts = {'pass': 0, 'fail': 0, 'hypothesis-failed': 0, 'unknown': 0}
    for idx, (op, result, elapsed) in enumerate(results, start=1):
        counts[result.status] += 1
        lines.append('check %d: %s' % (idx, op))
        lines.append('  status: %s' % result.status)
        lines.append('  claim: %s' % result.claim)
        for key in result.details:
            lines.append('  %s: %s' % (key, result.details[key]))
        lines.append('  time_ms: %d' % elapsed)
    lines.append('summary: total=%d pass=%d fail=%d hypothesis-failed=%d '
                 'unknown=%d' % (len(results), counts['pass'],
                                 counts['fail'], counts['hypothesis-failed'],
                                 counts['unknown']))
    return '\n'.join(lines) + '\n'


def exit_code(results):
    bad = sum(1 for _, r, _ in results
              if r.status in ('fail', 'hypothesis-failed'))
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
                      help="list the built-in regression scenarios")
    runp.add_argument('--parallel', type=int, default=1, metavar='N')
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
        'parallel': max(1, args.parallel),
        'height_bound': args.height_bound,
        'degree_bound': args.degree_bound,
        'precision': args.precision,
    }
    try:
        if args.scenario.startswith('builtin:'):
            name = args.scenario.split(':', 1)[1]
            if name not in BUILTIN_SCENARIOS:
                print('error: no builtin scenario %r' % name,
                      file=sys.stderr)
                return 2
            text = BUILTIN_SCENARIOS[name]
            source = args.scenario
        else:
            with open(args.scenario) as handle:
                text = handle.read()
            source = args.scenario
        scenario = parse_scenario(text)
    except OSError as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 2
    except ScenarioParseError as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 2
    try:
        results = run_scenario(scenario, flags)
    except UnresolvedReference as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 2
    report = format_report(source, flags, results)
    sys.stdout.write(report)
    if args.report:
        with open(args.report, 'w') as handle:
            handle.write(report)
    return exit_code(results)


if __name__ == '__main__':
    sys.exit(main())
