"""Every function the traced benchmark run wraps still exists by name.

bench/spans.py wraps library functions by module attribute, by a class's
own ``__dict__`` entry or by the ``cli.CHECKS`` registry.  A refactor that
moves or deletes one of them passes the library tests and only fails when
``bench/run.py --trace 1`` installs the wrappers; this test fails instead.
A traced scenario run checks that parsing and running still read each
check's keys through the wrapped ``cli.CHECKS``.
"""

import importlib
import importlib.util
from pathlib import Path

from skewfield import cli, linalg, numfield, ore

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / 'bench' / 'spans.py'


def _load_spans():
    spec = importlib.util.spec_from_file_location('bench_spans', SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    for name, modname, path in _load_spans().TARGETS:
        module = importlib.import_module(modname)
        if path == 'CHECKS[*]':
            target = module.CHECKS
            assert target and all(map(callable, target.values())), name
        elif '.' in path:
            clsname, attr = path.split('.')
            assert callable(getattr(module, clsname).__dict__.get(attr)), \
                (name, path)
        else:
            assert callable(getattr(module, path, None)), (name, path)


def test_importers_share_the_wrapped_functions():
    # the fixed-field and center kernels are timed as linalg.elim only
    # while their modules call linalg's own kernel_basis
    for module in (numfield, ore):
        assert module.kernel_basis is linalg.kernel_basis, module


def test_a_traced_scenario_reads_check_keys_through_the_wrappers():
    # the tracer swaps every cli.CHECKS value for a functools.wraps span, so
    # parsing and running take each check's keys from its __wrapped__
    originals = dict(cli.CHECKS)
    keys = {op: cli.check_keys(fn) for op, fn in originals.items()}
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert all(cli.CHECKS[op] is not fn for op, fn in originals.items())
        assert {op: cli.check_keys(fn) for op, fn in cli.CHECKS.items()} \
            == keys
        scenario = cli.parse_scenario(
            (ROOT / 'scenarios' / 'bruno_counterexample.scn').read_text())
        results = cli.run_scenario(scenario, {'height_bound': 8,
                                              'degree_bound': 4,
                                              'precision': 20})
    finally:
        tracer.uninstall()
    assert cli.CHECKS == originals
    assert cli.exit_code(results) == 0
    assert tracer.calls['cli.parse'] == 1
    assert tracer.calls['cli.check'] == len(scenario.checks) == 3


def test_builtin_all_stays_a_list_of_bare_checks():
    # the scenarios workload splits builtin:all into one-check sources by
    # check name, so it may declare nothing and give no check a key
    scenario = cli.parse_scenario(cli.BUILTIN_SCENARIOS['all'])
    assert not any(getattr(scenario, kind + 's') for kind in
                   ('field', 'map', 'algebra', 'twist', 'problem'))
    assert scenario.checks
    for _, op, params in scenario.checks:
        assert params == {} and cli.check_keys(cli.CHECKS[op]) == {}, op
