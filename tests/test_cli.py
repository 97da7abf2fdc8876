import ast
import inspect
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from regressions import q8_scenario
from skewfield import cli, fep, ore
from skewfield.cli import (BUILTIN_SCENARIOS, CHECKS, FLAG, KEYS, REQUIRED,
                           TWIST_KEYS, ScenarioParseError, check_keys,
                           exit_code, format_report, main, parse_scenario,
                           run_scenario)
from skewfield.fep import SolutionMap, sol_up
from skewfield.galois import WitnessInvalid
from skewfield.ore import SkewFraction, constant_poly, t_poly

FLAGS = {'height_bound': 8, 'degree_bound': 4, 'precision': 20}

SCN_DIR = os.path.join(os.path.dirname(__file__), '..', 'scenarios')
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), 'golden')
SRC = Path(__file__).resolve().parent.parent / 'src' / 'skewfield'


def run_text(text, flags=None):
    scenario = parse_scenario(text)
    return run_scenario(scenario, flags or dict(FLAGS))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_sections_and_checks():
    text = """
# comment
[fields]
q 0 1
q2 -2 0 1
[checks]
field_level field=q2 expect=infinite
"""
    scenario = parse_scenario(text)
    assert set(scenario.fields) == {'q', 'q2'}
    assert scenario.checks[0][1] == 'field_level'


def test_parse_rejects_unknown_section():
    with pytest.raises(ScenarioParseError):
        parse_scenario("[nonsense]\n")


def test_parse_rejects_content_before_section():
    with pytest.raises(ScenarioParseError):
        parse_scenario("field_level field=q\n")


def test_parse_rejects_bad_rational():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("[fields]\nq 0 x\n")
    assert err.value.lineno == 2


# ---------------------------------------------------------------------------
# running checks
# ---------------------------------------------------------------------------

def test_field_level_check_passes():
    results = run_text("[fields]\nq2 -2 0 1\n[checks]\n"
                       "field_level field=q2 expect=infinite\n")
    assert results[0][1].status == 'pass'
    assert exit_code(results) == 0


def test_expectation_mismatch_fails():
    results = run_text("[fields]\nq 0 1\nq2 -2 0 1\n"
                       "[algebras]\nH q a=-1 b=-1\n[checks]\n"
                       "anisotropy algebra=H field=q2 expect=isotropic\n")
    assert results[0][1].status == 'fail'
    assert exit_code(results) == 1


def test_problem_declaration_and_split_check():
    text = """
[fields]
q 0 1
q2 -2 0 1
[maps]
conj2 q2 q2 0 -1
[algebras]
H q a=-1 b=-1
[problems]
p group=z4 algebra=H field=q2 alpha=c:conj2
[checks]
is_split problem=p expect=false
"""
    results = run_text(text)
    assert results[0][1].status == 'pass'


def test_problem_with_embedded_center():
    # a problem over an algebra whose center is itself quadratic
    text = """
[fields]
q2     -2 0 1
biquad 1 0 -10 0 1
[maps]
sq2_up  q2 biquad 0 -9/2 0 1/2
conj3   biquad biquad 0 -10 0 1
[algebras]
H2 q2 a=-1 b=-1
[problems]
p group=z2 algebra=H2 field=biquad emb=sq2_up alpha=c:conj3
[checks]
is_split problem=p expect=true
"""
    results = run_text(text)
    assert results[0][1].status == 'pass'


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_main_list_builtin(capsys):
    assert main(['run', '--list-builtin']) == 0
    out = capsys.readouterr().out
    assert out.split() == ['builtin:' + name for name in (
        'all', 'bruno_counterexample', 'dl2_matrix', 'ore_center', 'q8')]


def test_main_requires_scenario(capsys):
    assert main(['run']) == 2


def test_main_unknown_builtin(capsys):
    assert main(['run', 'builtin:nope']) == 2


def test_main_missing_file(capsys):
    assert main(['run', '/nonexistent/path.scn']) == 2


def test_main_refuses_a_scenario_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / 'latin1.scn'
    path.write_bytes(b'\xff[fields]\nq 0 1\n[checks]\nfield_level field=q\n')
    assert main(['run', str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith('error: ') and 'utf-8' in captured.err


def test_main_refuses_a_report_path_it_cannot_write(tmp_path, capsys):
    path = tmp_path / 'level.scn'
    path.write_text("[fields]\nq 0 1\n[checks]\nfield_level field=q\n")
    assert main(['run', str(path), '--report', str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith('skewfield-report 1')
    assert captured.err.startswith('error: ')


def test_main_rejects_bad_algebra(tmp_path, capsys):
    path = tmp_path / 'bad_algebra.scn'
    path.write_text("[fields]\nq 0 1\n[algebras]\nH q a=0 b=-1\n"
                    "[checks]\nfield_level field=q\n")
    assert main(['run', str(path)]) == 2
    assert 'algebra H: parameters must be nonzero' in capsys.readouterr().err


DECLARED = ("[fields]\nq 0 1\nq2 -2 0 1\n[maps]\nconj2 q2 q2 0 -1\n"
            "[algebras]\nH q a=-1 b=-1\n")   # seven lines
AT_LINE_11 = DECLARED + "[twists]\ns algebra=H\n[checks]\n"
# the quaternion-group problem over Q(sqrt2) and the real cyclic quartic
# with its generator rho, then a solution line: beta=, kind=
Q8_PROBLEM = ("[fields]\nq 0 1\nq2 -2 0 1\nquartic 2 0 -4 0 1\n[maps]\n"
              "conj2 q2 q2 0 -1\nq2_up q2 quartic -2 0 1\n"
              "rho quartic quartic 0 -3 0 1\n[algebras]\nH q a=-1 b=-1\n"
              "[problems]\np group=q8 algebra=H field=q2 alpha=i:conj2,j:id\n")
Q8_SOLUTION = (Q8_PROBLEM + "[solutions]\n"
               "s problem=p field=quartic emb=q2_up beta=%s kind=%s\n")
SPLIT_CHECK = "[checks]\nis_split problem=p\n"

# check lines whose arguments the library refuses with a ValueError, and the
# reason printed after their line: conj2 does not start at the rational
# center of H, and sigma_inner= alone leaves tau the identity
LIBRARY_ARGUMENT_ERRORS = [
    ("anisotropy algebra=H field=q2 emb=conj2",
     "embedding must map the center into the target"),
    ("build_extension algebra=H field=q2 emb=conj2",
     "embedding must map the center of H into ell"),
    ("product_conditions algebra=H field=q2 emb=conj2",
     "embedding must map the center of H into ell"),
    ("converse_check algebra=H field=q2 emb=conj2",
     "embedding must map the center of H into ell"),
    ("special_case_3 algebra=H field=q2 emb=conj2",
     "embedding must map the center of K into ell"),
    ("tensor_check algebra=H field=q2 emb=conj2",
     "element not in the source field"),
    ("tensor_check algebra=H field=q2 sigma_inner=0;1;0;0",
     "tau does not extend sigma"),
]


@pytest.mark.parametrize('text, error', [
    (DECLARED + "[twists]\ns algebra=H inner=0;0;0;0\n"
                "[checks]\nfield_level field=q\n",
     "error: twist s: parameter inner=0;0;0;0: conjugation by zero"),
    (DECLARED + "[checks]\n"
                "tensor_check algebra=H field=q2 sigma_inner=0;0;0;0\n",
     "error: line 9: parameter sigma_inner=0;0;0;0: conjugation by zero"),
    (DECLARED + "[checks]\n"
                "tensor_check algebra=H field=q2 sigma_center=conj2\n",
     "error: line 9: parameter sigma_center=conj2: center action must be "
     "an endomorphism of the center"),
    (DECLARED + "[problems]\np group=z4 algebra=H field=q2 alpha=c\n"
                "[checks]\nis_split problem=p\n",
     "error: problem p: alpha piece 'c' is not generator:map"),
    (DECLARED + "[checks]\nfield_level expect=infinite\n",
     "error: line 9: missing parameter field="),
    (DECLARED + "[checks]\nfield_level field=q height_bound=abc\n",
     "error: line 9: parameter height_bound=abc: "),
    ("[fields]\nq 0 1\ngauss 1 0 1\n[algebras]\nH q a=-1 b=-1\n"
     "[problems]\np group=z2 algebra=H field=gauss alpha=c:id\n"
     "[checks]\nis_split problem=p\n",
     "error: problem p: norm form verdict is isotropic"),
    (DECLARED + "[twists]\ns algebra=H\n"
                "[checks]\nis_central twist=s element=x\n",
     "error: line 11: quaternion x: "),
    (DECLARED + "[checks]\n"
                "product_conditions algebra=H field=q2 sigma_inner=0;1;0;0\n",
     "error: line 9: tau does not extend sigma"),
    (DECLARED + "[twists]\ns algebra=H centre=conj2\n"
                "[checks]\nfield_level field=q\n",
     "error: line 9: unknown key centre= (takes algebra=, center=, inner=)"),
    (DECLARED + "[checks]\n"
                "field_level field=q height_bound=1 height_bound=2\n",
     "error: line 9: key height_bound= given twice"),
    ("[fields]\nq 0 1\n[checks]\n"
     "field_level field=q hieght_bound=1 expect=infinite\n",
     "error: line 4: unknown key hieght_bound= (takes field=, height_bound=, "
     "expect=)"),
    (Q8_SOLUTION % ('rho', 'weak') + SPLIT_CHECK,
     "error: solution s: beta piece 'rho' is not map:generator"),
    (Q8_SOLUTION % ('rho:k', 'weak') + SPLIT_CHECK,
     "error: solution s: group has no generator 'k'"),
    (Q8_SOLUTION % ('conj2:i', 'weak') + SPLIT_CHECK,
     "error: solution s: not in the Galois group"),
    # neg2 and neg3 have order 2 in Gal(Q(sqrt2, sqrt3)/Q); c has order 4
    ("[fields]\nq 0 1\nq2 -2 0 1\nbiquad 1 0 -10 0 1\n[maps]\n"
     "conj2 q2 q2 0 -1\nsq2_up q2 biquad 0 -9/2 0 1/2\n"
     "neg2 biquad biquad 0 10 0 -1\nneg3 biquad biquad 0 -10 0 1\n"
     "[algebras]\nH q a=-1 b=-1\n"
     "[problems]\np group=z4 algebra=H field=q2 alpha=c:conj2\n"
     "[solutions]\n"
     "s problem=p field=biquad emb=sq2_up beta=neg2:c,neg3:c kind=weak\n"
     + SPLIT_CHECK,
     "error: solution s: not a homomorphism"),
    (Q8_SOLUTION % ('rho:i', 'half') + SPLIT_CHECK,
     "error: solution s: kind must be weak or full"),
    (Q8_PROBLEM + "[solutions]\n"
                  "s problem=p field=quartic emb=rho beta=rho:i kind=weak\n"
     + SPLIT_CHECK,
     "error: solution s: emb= must start at the field of problem p"),
    # (-1,-1) splits over Q(zeta8), which holds i
    (Q8_PROBLEM + "[fields]\nzeta8 1 0 0 0 1\n[maps]\n"
                  "q2_z q2 zeta8 0 1 0 -1\nz zeta8 zeta8 0 0 0 -1\n"
                  "[solutions]\n"
                  "s problem=p field=zeta8 emb=q2_z beta=z:i kind=weak\n"
     + SPLIT_CHECK,
     "error: solution s: norm form verdict is isotropic"),
    (Q8_SOLUTION % ('rho:i', 'weak')
     + "[checks]\ntransport problem=p solution=s\n",
     "error: line 16: transport takes one of problem= and solution="),
    (Q8_SOLUTION % ('rho:i', 'weak') + "[checks]\ntransport\n",
     "error: line 16: transport takes one of problem= and solution="),
] + [(AT_LINE_11 + check + "\n", "error: line 11: " + reason)
      for check, reason in LIBRARY_ARGUMENT_ERRORS],
    ids=['twist_inner_zero', 'check_inner_zero', 'check_center_not_auto',
         'alpha_without_map', 'missing_field', 'height_not_int',
         'problem_isotropic', 'bad_quaternion', 'tau_not_extending_sigma',
         'twist_unknown_key', 'repeated_key', 'check_unknown_key',
         'beta_without_generator', 'beta_unknown_generator',
         'beta_map_off_the_group', 'beta_not_a_homomorphism',
         'solution_kind_half', 'solution_emb_off_the_problem_field',
         'solution_isotropic', 'transport_problem_and_solution',
         'transport_neither',
         'anisotropy_emb_off_center', 'build_extension_emb_off_center',
         'product_conditions_emb_off_center', 'converse_emb_off_center',
         'special_case_3_emb_off_center', 'tensor_emb_off_center',
         'tensor_tau_not_extending_sigma'])
def test_main_rejects_bad_declaration_or_parameter(tmp_path, capsys, text,
                                                   error):
    path = tmp_path / 'bad.scn'
    path.write_text(text)
    assert main(['run', str(path)]) == 2
    err = capsys.readouterr().err
    assert error in err and 'Traceback' not in err


# inner twists by units with irrational coordinates: conjugation by
# sqrt2*i is conjugation by i, and (1+sqrt2)(1+i) by 1+i, so tau extends
# sigma and every Galois element commutes with it; the lift the product
# condition promises is then built, and the verdicts stay those of the
# twists' rational parts
IRRATIONAL_TWISTS = ["sigma_inner=0;1;0;0 tau_inner=0;0,1;0;0",
                     "sigma_inner=1;1;0;0 tau_inner=1,1;1,1;0;0"]


@pytest.mark.parametrize('twists', IRRATIONAL_TWISTS)
def test_an_irrational_inner_twist_keeps_the_product_verdicts(twists):
    (_, product, _), (_, report, _) = run_text(
        DECLARED + "[problems]\np group=z2 algebra=H field=q2 "
                   "alpha=c:conj2\n[checks]\n"
                   "product_conditions algebra=H field=q2 %s "
                   "expect_star=true expect_eq_produit=true\n"
                   "hypothesis_report problem=p %s expect_split=true "
                   "expect_product=true\n" % (twists, twists))
    assert product.status == report.status == 'pass'
    assert product.details['lift_group_order'] == '2'
    assert report.details['function_field_link'] == 'table identity holds'


BIQUAD_H = "[fields]\nq 0 1\nbiquad 1 0 -10 0 1\n[algebras]\nH q a=-1 b=-1\n"


@pytest.mark.parametrize('text, error', [
    (DECLARED + "[checks]\nfield_level field=q height_bound=0\n",
     "error: line 9: parameter height_bound=0: must be an integer >= 1"),
    (DECLARED + "[checks]\nanisotropy algebra=H field=q2 height_bound=0\n",
     "error: line 9: parameter height_bound=0: must be an integer >= 1"),
    (DECLARED + "[checks]\n"
                "build_extension algebra=H field=q2 height_bound=-3\n",
     "error: line 9: parameter height_bound=-3: must be an integer >= 1"),
    (BIQUAD_H + "[checks]\nspecial_case_3 algebra=H field=biquad n=1\n",
     "error: line 7: parameter n=1: must be an integer >= 2"),
    (DECLARED + "[twists]\ns algebra=H\n[checks]\n"
                "recurrence_geometric twist=s max_order=0\n",
     "error: line 11: parameter max_order=0: must be an integer >= 1"),
    (DECLARED + "[twists]\ns algebra=H\n[checks]\n"
                "recurrence_squares twist=s precision=0\n",
     "error: line 11: parameter precision=0: must be an integer >= 1"),
    (DECLARED + "[twists]\ns algebra=H\n[checks]\n"
                "recurrence_squares twist=s precision=-5\n",
     "error: line 11: parameter precision=-5: must be an integer >= 1"),
], ids=['field_level_height_zero', 'anisotropy_height_zero',
        'build_extension_height_negative', 'special_case_3_n_one',
        'recurrence_max_order_zero', 'squares_precision_zero',
        'squares_precision_negative'])
def test_main_rejects_out_of_range_parameter(tmp_path, capsys, text, error):
    path = tmp_path / 'bad.scn'
    path.write_text(text)
    assert main(['run', str(path)]) == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize('flag', ['--height-bound', '--precision'])
def test_main_rejects_non_positive_flag(capsys, flag):
    path = os.path.join(SCN_DIR, 'ore_center.scn')
    assert main(['run', path, flag, '0']) == 2
    captured = capsys.readouterr()
    assert 'error: %s must be a positive integer' % flag in captured.err
    assert captured.out == ''


CENTER_SCN = (DECLARED + "[twists]\ns algebra=H2\n[checks]\n"
              "center_bounded twist=s degree_bound=%s\n").replace(
    "H q a=-1 b=-1\n", "H q a=-1 b=-1\nH2 q2 a=-1 b=-1\n")


def test_main_rejects_negative_degree_bound_parameter(tmp_path, capsys):
    path = tmp_path / 'negative.scn'
    path.write_text(CENTER_SCN % '-1')
    assert main(['run', str(path)]) == 2
    captured = capsys.readouterr()
    assert ('error: line 12: parameter degree_bound=-1: must be an integer '
            '>= 0') in captured.err
    assert 'Traceback' not in captured.err and captured.out == ''


def test_main_accepts_zero_degree_bound_parameter(tmp_path, capsys):
    path = tmp_path / 'zero.scn'
    path.write_text(CENTER_SCN % '0')
    assert main(['run', str(path)]) == 0
    assert 'status: pass' in capsys.readouterr().out


def test_main_rejects_negative_degree_bound_flag(capsys):
    assert main(['run', 'builtin:ore_center', '--degree-bound', '-1']) == 2
    captured = capsys.readouterr()
    assert ('error: --degree-bound must be a non-negative integer'
            in captured.err)
    assert captured.out == ''


def test_main_reports_missing_decomposition_as_fail(tmp_path, capsys):
    # Gal(biquad/Q) is Z2 x Z2: no cyclic factor of order 3
    path = tmp_path / 'no_decomposition.scn'
    path.write_text(BIQUAD_H + "[checks]\n"
                               "special_case_3 algebra=H field=biquad n=3\n")
    assert main(['run', str(path)]) == 1
    out = capsys.readouterr().out
    assert 'status: fail' in out
    assert ('reason: no direct decomposition of the Galois group as a cyclic '
            'factor of order 3 times a nontrivial complement') in out


@pytest.mark.parametrize('text', [
    DECLARED + "[twists]\nc algebra=H inner=1;2\n[checks]\n"
               "center_bounded twist=c degree_bound=2\n",
    DECLARED + "[checks]\nproduct_conditions algebra=H field=q2 "
               "sigma_inner=1;2 tau_inner=1;2\n",
], ids=['center_bounded', 'product_conditions'])
def test_main_reports_a_twist_of_infinite_order_as_fail(tmp_path, capsys,
                                                        text):
    # conjugation by 1 + 2i has infinite order: no power of it is the identity
    path = tmp_path / 'infinite_order.scn'
    path.write_text(text)
    assert main(['run', str(path)]) == 1
    captured = capsys.readouterr()
    assert 'status: fail' in captured.out
    assert 'reason: order exceeds cap 96' in captured.out
    assert 'Traceback' not in captured.err


def test_main_reports_a_failed_internal_certificate_as_error(
        tmp_path, capsys, monkeypatch):
    # no shipped check forms an Ore fraction, so a probe check compares two;
    # a wrong quotient makes the lcm's own certificate assertion fail
    def check_fraction_eq(ws, twist):
        t, one = t_poly(twist), constant_poly(twist, 1)
        SkewFraction(t, t) == SkewFraction(one, one)
    divide = ore.left_divide

    def wrong(a, b):
        q, r = divide(a, b)
        return q + constant_poly(a.twist, 1), r
    monkeypatch.setitem(CHECKS, 'fraction_eq', check_fraction_eq)
    monkeypatch.setattr(ore, 'left_divide', wrong)
    path = tmp_path / 'lcm.scn'
    path.write_text(DECLARED + "[twists]\ns algebra=H\n[checks]\n"
                               "fraction_eq twist=s\n"
                               "is_central twist=s element=1\n")
    assert main(['run', str(path)]) == 1
    captured = capsys.readouterr()
    assert ('check 1: fraction_eq\n  status: error\n'
            '  claim: an internal certificate failed\n'
            '  reason: common right multiple construction failed\n'
            in captured.out)
    assert 'check 2: is_central\n  status: pass\n' in captured.out
    assert captured.out.endswith('\nsummary: total=2 pass=1 fail=0 '
                                 'hypothesis-failed=0 unknown=0 error=1\n')
    assert 'Traceback' not in captured.err


# the declarations of q8.scn, then the solution check of a test
Q8_DECLARATIONS = Path(SCN_DIR, 'q8.scn').read_text().split('[checks]')[0]


def _run_q8_check(tmp_path, check):
    path = tmp_path / 'q8_check.scn'
    path.write_text(Q8_DECLARATIONS + '[checks]\n' + check + '\n')
    return main(['run', str(path)])


@pytest.mark.parametrize('raised, status, line', [
    (AssertionError("restriction left the group"), 'error',
     'reason: restriction left the group'),
    (WitnessInvalid('pointwise', "restriction disagrees on an element"),
     'fail', 'reason: restriction failed: witness condition pointwise '
             'failed: restriction disagrees on an element'),
], ids=['assertion', 'witness_invalid'])
def test_restriction_regression_reports_what_the_restriction_raised(
        tmp_path, capsys, monkeypatch, raised, status, line):
    # the restriction of the quartic tower onto Q(sqrt2), as weak_solution
    # reads it for the full solution of the order-4 problem
    def restriction_between(big, small, center_emb):
        raise raised
    monkeypatch.setattr(fep, 'restriction_between', restriction_between)
    assert _run_q8_check(tmp_path, 'weak_solution solution=s_c4') == 1
    captured = capsys.readouterr()
    assert 'check 1: weak_solution\n  status: %s\n' % status in captured.out
    assert '\n  %s\n' % line in captured.out
    assert 'Traceback' not in captured.err


def test_roundtrip_regression_reports_a_lifted_solution_that_fails(
        tmp_path, capsys, monkeypatch):
    lift = cli.sol_up

    def weak_lift(sol, H, height_bound):
        full = lift(sol, H, height_bound)
        return SolutionMap(full.ext_big, full.center_emb, full.beta.images,
                           'weak', full.beta.target, gal_big=full.gal_big)
    monkeypatch.setattr(cli, 'sol_up', weak_lift)
    assert _run_q8_check(tmp_path, 'transport solution=s_c4') == 1
    captured = capsys.readouterr()
    assert 'check 1: transport\n  status: fail\n' in captured.out
    assert '\n  lifted_solution: failed\n' in captured.out
    assert 'verified full' not in captured.out


def _broad_handlers(tree):
    """Line numbers of the bare, Exception and BaseException handlers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(c is None or ast.unparse(c) in ('Exception',
                                                   'BaseException')
                   for c in caught):
                yield node.lineno


def test_library_catches_no_exception_wholesale():
    # a check's outcome is read from what it raised in cli._run_one alone
    broad = ['%s:%d' % (path.name, lineno)
             for path in sorted(SRC.glob('*.py'))
             for lineno in _broad_handlers(ast.parse(path.read_text()))]
    assert broad == []


def test_main_declares_a_field_with_a_30_digit_coefficient(tmp_path, capsys):
    path = tmp_path / 'big.scn'
    path.write_text("[fields]\nbig %d 0 0 0 1\n[checks]\n"
                    "field_level field=big height_bound=1\n" % (10 ** 30 + 1))
    assert main(['run', str(path)]) == 0
    assert 'status: unknown' in capsys.readouterr().out


def test_main_reports_the_height_an_unknown_level_searched(tmp_path, capsys):
    # x^8 + x^2 + 3 is totally imaginary; its height-1 elements already pass
    # the four-square stage's pair cap, and height 2 the element cap
    path = tmp_path / 'octic.scn'
    path.write_text("[fields]\noct 3 0 1 0 0 0 0 0 1\n[checks]\n"
                    "field_level field=oct\n")
    assert main(['run', str(path)]) == 0
    out = capsys.readouterr().out
    assert 'kind: unknown' in out and 'height_searched: 0' in out


@pytest.mark.parametrize('name', sorted(set(BUILTIN_SCENARIOS) - {'all'}))
def test_main_runs_each_builtin(capsys, name):
    code = main(['run', 'builtin:' + name, '--height-bound', '8'])
    out = capsys.readouterr().out
    assert code == 0
    total = len(parse_scenario(BUILTIN_SCENARIOS[name]).checks)
    assert 'summary: total=%d pass=%d fail=0' % (total, total) in out


def test_main_runs_builtin_bruno(capsys):
    code = main(['run', 'builtin:bruno_counterexample',
                 '--height-bound', '8'])
    out = capsys.readouterr().out
    assert code == 0
    assert 'status: pass' in out
    assert 'summary: total=3 pass=3' in out


def test_main_writes_report_file(tmp_path, capsys):
    path = tmp_path / 'report.txt'
    code = main(['run', 'builtin:ore_center', '--report', str(path)])
    capsys.readouterr()
    assert code == 0
    content = path.read_text()
    assert content.startswith('skewfield-report 1')
    assert 'status: pass' in content


def _misspelt(key, taken, rng):
    """key with one character replaced, and no key of taken."""
    while True:
        at = rng.randrange(len(key))
        typo = key[:at] + rng.choice('abcdefghijklmnopqrstuvwxyz_') \
            + key[at + 1:]
        if typo != key and typo not in taken:
            return typo


def test_every_misspelt_check_key_of_the_shipped_scenarios_exits_2(
        tmp_path, capsys):
    rng = random.Random(18)
    path = tmp_path / 'typo.scn'
    swept = 0
    for name in sorted(os.listdir(SCN_DIR)):
        with open(os.path.join(SCN_DIR, name)) as handle:
            text = handle.read()
        lines = text.splitlines()
        for lineno, op, params in parse_scenario(text).checks:
            for key in params:
                typo = _misspelt(key, check_keys(CHECKS[op]), rng)
                bad = lines[:]
                bad[lineno - 1] = bad[lineno - 1].replace(
                    ' %s=' % key, ' %s=' % typo)
                path.write_text('\n'.join(bad) + '\n')
                assert main(['run', str(path)]) == 2, (name, key, typo)
                captured = capsys.readouterr()
                assert captured.out == ''
                assert ('error: line %d: unknown key %s= (takes '
                        % (lineno, typo)) in captured.err, (name, key, typo)
                swept += 1
    assert swept > 50


def test_an_unknown_check_is_refused_at_parse_time(tmp_path, capsys):
    text = "[fields]\nq 0 1\n[checks]\nfield_level field=q\nfield_levle\n"
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert err.value.lineno == 5
    path = tmp_path / 'unknown_check.scn'
    path.write_text(text)
    assert main(['run', str(path)]) == 2
    captured = capsys.readouterr()
    assert "error: line 5: unknown check 'field_levle'" in captured.err
    assert captured.out == ''


def _signature_keys(check):
    """[required, optional, run-flag] keys of a check by inspect.signature,
    which follows functools.wraps as check_keys does."""
    columns = [[], [], []]
    for param in list(inspect.signature(check).parameters.values())[1:]:
        if param.kind is param.VAR_KEYWORD:
            columns[1] += TWIST_KEYS
        elif param.default is param.empty:
            columns[0].append(param.name)
        else:
            columns[2 if param.default is FLAG else 1].append(param.name)
    return columns


def test_readme_key_table_lists_the_keys_of_every_check():
    with open(os.path.join(SCN_DIR, '..', 'README.md')) as handle:
        rows = [line for line in handle.read().splitlines()
                if line.startswith('| `')]
    table = {}
    for row in rows:
        op, *cells = [re.findall(r'`(\w+)`', cell)
                      for cell in row.strip('|').split('|')]
        table[op[0]] = cells
    by_signature = {op: _signature_keys(check)
                    for op, check in CHECKS.items()}
    by_check_keys = {}
    for op, check in CHECKS.items():
        keys = check_keys(check)
        by_check_keys[op] = [
            [key for key, default in keys.items() if pick(default)]
            for pick in (lambda d: d is REQUIRED,
                         lambda d: d is not REQUIRED and d is not FLAG,
                         lambda d: d is FLAG)]
    assert table == by_signature == by_check_keys


def test_shipped_scenario_parses():
    with open(os.path.join(SCN_DIR, 'bruno_counterexample.scn')) as handle:
        scenario = parse_scenario(handle.read())
    assert len(scenario.checks) == 3


def _golden_sources():
    for name in sorted(os.listdir(SCN_DIR)):
        if name.endswith('.scn'):
            with open(os.path.join(SCN_DIR, name)) as handle:
                yield name, name[:-len('.scn')], handle.read()
    yield 'builtin:all', 'builtin_all', BUILTIN_SCENARIOS['all']


def _report_lines(source, text):
    """The report of a passing run of text, time_ms lines aside."""
    results = run_scenario(parse_scenario(text), dict(FLAGS))
    assert exit_code(results) == 0, source
    report = format_report(source, FLAGS, results)
    return [line for line in report.splitlines()
            if not line.startswith('  time_ms')]


def _golden_lines(golden):
    with open(os.path.join(GOLDEN_DIR, golden + '.txt')) as handle:
        return handle.read().splitlines()


def test_shipped_scenarios_all_pass():
    # every report must match its golden text, time_ms lines aside
    sources = list(_golden_sources())
    assert len(sources) == 5
    for source, golden, text in sources:
        assert _report_lines(source, text) == _golden_lines(golden), source


@pytest.mark.parametrize('name, golden, total', [
    ('dl2_matrix', 'dl2_matrix', 10),
    ('bruno_counterexample', 'bruno_counterexample', 3),
    ('ore_center', 'ore_center', 9),
    ('q8', 'q8', 13),
])
def test_builtin_scenarios_report_their_golden_checks(name, golden, total):
    # builtin:NAME runs every check of scenarios/NAME.scn, so it reports the
    # shipped golden text, the scenario: and time_ms lines aside
    lines = _report_lines('builtin:' + name, BUILTIN_SCENARIOS[name])
    want = _golden_lines(golden)
    assert lines[1] == 'scenario: builtin:' + name
    assert lines[:1] + lines[2:] == want[:1] + want[2:]
    assert lines[-1] == ('summary: total=%d pass=%d fail=0 '
                         'hypothesis-failed=0 unknown=0' % (total, total))


def test_each_builtin_is_its_shipped_file():
    # builtin:NAME is read from scenarios/NAME.scn through the package's
    # scenarios link, so no second copy of a scenario can drift
    root = Path(SCN_DIR).resolve()
    assert (Path(cli.__file__).parent / 'scenarios').resolve() == root
    files = {path.stem: path for path in root.glob('*.scn')}
    assert set(BUILTIN_SCENARIOS) == set(files) | {'all'}
    for name, path in files.items():
        assert BUILTIN_SCENARIOS[name].encode('utf-8') == path.read_bytes()


def test_builtins_run_from_a_build_outside_the_source_tree(tmp_path):
    # build_py copies the package with the files behind its scenarios link;
    # the copy alone then runs builtin:q8 from an unrelated directory
    source = tmp_path / 'source'
    shutil.copytree(SRC.parent, source / 'src', symlinks=True,
                    ignore=shutil.ignore_patterns('__pycache__', '*.egg-info'))
    shutil.copytree(SCN_DIR, source / 'scenarios')
    shutil.copy(SRC.parents[1] / 'pyproject.toml', source)
    lib = tmp_path / 'lib'
    subprocess.run([sys.executable, '-c', 'import setuptools; '
                    'setuptools.setup()', 'build_py', '--build-lib', str(lib)],
                   cwd=source, check=True, capture_output=True)
    assert not (lib / 'skewfield' / 'scenarios').is_symlink()
    elsewhere = tmp_path / 'elsewhere'
    elsewhere.mkdir()
    env = dict(os.environ, PYTHONPATH=str(lib))

    def run(*args):
        return subprocess.run(
            [sys.executable, '-m', 'skewfield.cli', 'run', *args],
            cwd=elsewhere, env=env, capture_output=True, text=True,
            timeout=120)

    listed = run('--list-builtin')
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout.split() == ['builtin:' + name for name in (
        'all', 'bruno_counterexample', 'dl2_matrix', 'ore_center', 'q8')]
    q8 = run('builtin:q8', '--height-bound', '8', '--degree-bound', '4',
             '--precision', '20')
    assert q8.returncode == 0, q8.stderr
    lines = [line for line in q8.stdout.splitlines()
             if not line.startswith('  time_ms')]
    want = _golden_lines('q8')
    assert lines[1] == 'scenario: builtin:q8'
    assert lines[:1] + lines[2:] == want[:1] + want[2:]


def test_q8_lines_report_the_facts_of_the_bundled_q8_scenario():
    # tests/regressions.py builds the same instance from library calls
    reference = q8_scenario()
    scenario = parse_scenario(BUILTIN_SCENARIOS['q8'])
    results = run_scenario(scenario, dict(FLAGS))
    lines = {(op, tuple(params.items())): result
             for (_, op, params), (_, result, _)
             in zip(scenario.checks, results)}
    split = lines[('is_split', (('problem', 'p_q8'), ('expect', 'false')))]
    assert split.details['actual'] == str(reference.split).lower()
    assert split.details['kernel_order'] == str(reference.kernel_order)
    level = lines[('field_level', (('field', 'quartic'),
                                   ('expect', 'infinite')))]
    assert level.details['actual'] == reference.quartic_level
    weak = lines[('weak_solution', (('solution', 's_q8'),))]
    assert reference.weak_report.passed() and weak.status == 'pass'
    # fiber_reduction passes only once the solution's section splits it
    fiber = lines[('fiber_reduction', (('solution', 's_q8'),))]
    assert reference.reduced_split and fiber.status == 'pass'
    assert fiber.details == {
        'reduced_order': str(reference.reduced_order),
        'kernel_order': str(reference.reduced_kernel_order)}


def test_every_check_names_a_declared_object():
    # a check that declares nothing would be a bundled regression again
    declared = {key for key, kind in KEYS.items() if isinstance(kind, str)}
    for op, check in CHECKS.items():
        assert declared & set(check_keys(check)), op


def test_the_package_ships_no_regression_module():
    code = ("import importlib.util, skewfield, skewfield.cli; "
            "print(importlib.util.find_spec('skewfield.regressions'), "
            "hasattr(skewfield, 'q8_scenario'))")
    done = subprocess.run([sys.executable, '-c', code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert done.stdout.split() == ['None', 'False']


# each new check on a passing line, then on a failing one with the library
# calls named patched in cli; a details line printed by both is a constant
# that says nothing about the outcome
BAD_SOLUTION = ("s_bad problem=p_q8 field=quartic emb=q2_up beta=rho:j "
                "kind=full\n")


def _weak_lift(sol, H, height_bound):
    full = sol_up(sol, H, height_bound)
    return SolutionMap(full.ext_big, full.center_emb, full.beta.images,
                       'weak', full.beta.target, gal_big=full.gal_big)


@pytest.mark.parametrize('passing, failing, patches', [
    ('weak_solution solution=s_c4', 'weak_solution solution=s_bad', {}),
    ('fiber_reduction solution=s_q8', 'fiber_reduction solution=s_bad', {}),
    ('transport problem=p_q8', 'transport problem=p_q8',
     {'problems_agree': lambda p1, p2: False,
      'restriction_between': lambda big, small, emb: lambda g: None}),
    ('transport solution=s_c4', 'transport solution=s_bad',
     {'sol_up': _weak_lift}),
], ids=['weak_solution', 'fiber_reduction', 'transport_problem',
        'transport_solution'])
def test_new_check_details_depend_on_the_outcome(monkeypatch, passing,
                                                 failing, patches):
    def run(check):
        (_, result, _), = run_text(Q8_DECLARATIONS + BAD_SOLUTION
                                   + '[checks]\n' + check + '\n')
        return result
    good = run(passing)
    for name, patched in patches.items():
        monkeypatch.setattr(cli, name, patched)
    bad = run(failing)
    assert (good.status, bad.status) == ('pass', 'fail')
    assert good.details and bad.details
    assert not set(good.details.items()) & set(bad.details.items())
