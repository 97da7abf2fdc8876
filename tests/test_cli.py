import ast
import inspect
import os
import random
import re
from pathlib import Path

import pytest

from skewfield import cli, ore
from skewfield.cli import (BUILTIN_SCENARIOS, CHECKS, FLAG, REQUIRED,
                           TWIST_KEYS, ScenarioParseError, check_keys,
                           exit_code, format_report, main, parse_scenario,
                           run_scenario)
from skewfield.fep import SolutionMap
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
    assert 'builtin:q8' in out
    assert 'builtin:bruno_counterexample' in out


def test_main_requires_scenario(capsys):
    assert main(['run']) == 2


def test_main_unknown_builtin(capsys):
    assert main(['run', 'builtin:nope']) == 2


def test_main_missing_file(capsys):
    assert main(['run', '/nonexistent/path.scn']) == 2


def test_main_rejects_bad_algebra(tmp_path, capsys):
    path = tmp_path / 'bad_algebra.scn'
    path.write_text("[fields]\nq 0 1\n[algebras]\nH q a=0 b=-1\n"
                    "[checks]\nfield_level field=q\n")
    assert main(['run', str(path)]) == 2
    assert 'algebra H: parameters must be nonzero' in capsys.readouterr().err


DECLARED = ("[fields]\nq 0 1\nq2 -2 0 1\n[maps]\nconj2 q2 q2 0 -1\n"
            "[algebras]\nH q a=-1 b=-1\n")   # seven lines
AT_LINE_11 = DECLARED + "[twists]\ns algebra=H\n[checks]\n"

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
] + [(AT_LINE_11 + check + "\n", "error: line 11: " + reason)
      for check, reason in LIBRARY_ARGUMENT_ERRORS],
    ids=['twist_inner_zero', 'check_inner_zero', 'check_center_not_auto',
         'alpha_without_map', 'missing_field', 'height_not_int',
         'problem_isotropic', 'bad_quaternion', 'tau_not_extending_sigma',
         'twist_unknown_key', 'repeated_key', 'check_unknown_key',
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
    assert main(['run', 'builtin:special_cases', '--degree-bound', '-1']) == 2
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


@pytest.mark.parametrize('raised, status, line', [
    (AssertionError("restriction left the group"), 'error',
     'reason: restriction left the group'),
    (WitnessInvalid('pointwise', "restriction disagrees on an element"),
     'fail', 'reason: witness condition pointwise failed: restriction '
             'disagrees on an element'),
], ids=['assertion', 'witness_invalid'])
def test_restriction_regression_reports_what_the_restriction_raised(
        capsys, monkeypatch, raised, status, line):
    def restriction_between(big, small, center_emb):
        raise raised
    monkeypatch.setattr(cli, 'restriction_between', restriction_between)
    assert main(['run', 'builtin:restrictions']) == 1
    captured = capsys.readouterr()
    assert ('check 1: restriction_regression\n  status: %s\n' % status
            in captured.out)
    assert '\n  %s\n' % line in captured.out
    assert 'Traceback' not in captured.err


def test_roundtrip_regression_reports_a_lifted_solution_that_fails(
        capsys, monkeypatch):
    lift = cli.sol_up

    def weak_lift(sol, H, height_bound):
        full = lift(sol, H, height_bound)
        return SolutionMap(full.ext_big, full.center_emb, full.beta.images,
                           'weak', full.beta.target, gal_big=full.gal_big)
    monkeypatch.setattr(cli, 'sol_up', weak_lift)
    assert main(['run', 'builtin:roundtrips']) == 1
    captured = capsys.readouterr()
    assert 'check 1: roundtrip_regression\n  status: fail\n' in captured.out
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
    code = main(['run', 'builtin:center_lemma', '--report', str(path)])
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
    ('center_lemma', 'ore_center', 4),
])
def test_builtin_scenarios_report_their_golden_checks(name, golden, total):
    # a built-in copy of shipped check lines reports the first total check
    # blocks of the golden text, the scenario: and time_ms lines aside
    lines = _report_lines('builtin:' + name, BUILTIN_SCENARIOS[name])
    want = _golden_lines(golden)
    end = next((at for at, line in enumerate(want)
                if line.startswith('check %d: ' % (total + 1))), -1)
    assert lines[1] == 'scenario: builtin:' + name
    assert lines[:1] + lines[2:-1] == want[:1] + want[2:end]
    assert lines[-1] == ('summary: total=%d pass=%d fail=0 '
                         'hypothesis-failed=0 unknown=0' % (total, total))
