"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Checks the span arithmetic on a fake clock, that installing the wrappers
patches every importing module and that uninstalling restores them, that
inputs follow the seed, that BENCHMARK.json names exactly the metrics the
runs print, that a short run prints the result line, and that the script
fails without a result when the library is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

import spans  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((run.ROOT / 'BENCHMARK.json').read_text())


class FakeClock:

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, 'perf_counter', clock)
    tracer = spans.Tracer()

    def child():
        clock.now += 2.0

    def parent():
        clock.now += 1.0
        wrapped_child()
        wrapped_child()
        clock.now += 3.0

    def failing():
        clock.now += 0.5
        raise ValueError('refused')

    wrapped_child = tracer._wrap('qalg.mul', child)
    wrapped_parent = tracer._wrap('ore.mul', parent)
    wrapped_failing = tracer._wrap('numfield.construct', failing)
    tracer.run_item('item-1', wrapped_parent)
    with pytest.raises(ValueError):
        tracer.run_item('item-2', wrapped_failing)
    values = tracer.take()
    assert values['ore.mul_calls'] == 1 and values['ore.mul_s'] == 4.0
    assert values['qalg.mul_calls'] == 2 and values['qalg.mul_s'] == 4.0
    assert values['numfield.construct_s'] == 0.5
    assert values['numfield.errors'] == 1 and values['ore.errors'] == 0
    assert [k for k, _, _, _ in tracer.item_spans] == ['item-1', 'item-2']
    assert tracer.take()['ore.mul_calls'] == 0


def test_reentrant_calls_fold_into_the_open_span():
    tracer = spans.Tracer()
    inner = tracer._wrap('linalg.elim', lambda: None)
    outer = tracer._wrap('linalg.elim', lambda: inner())
    outer()
    assert tracer.take()['linalg.elim_calls'] == 1


def test_install_patches_importers_and_uninstall_restores():
    from skewfield import cli, linalg, numfield, ore
    before = (linalg.kernel_basis, ore.kernel_basis,
              numfield.FieldElement.__dict__['__mul__'],
              dict(cli.CHECKS))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ore.kernel_basis is not before[1]
        assert ore.kernel_basis is linalg.kernel_basis
        assert numfield.FieldElement.__rmul__ is numfield.FieldElement.__mul__
        assert all(cli.CHECKS[op] is not fn for op, fn in before[3].items())
    finally:
        tracer.uninstall()
    after = (linalg.kernel_basis, ore.kernel_basis,
             numfield.FieldElement.__dict__['__mul__'], dict(cli.CHECKS))
    assert after == before


def test_inputs_follow_the_seed():
    keys = lambda seed: [item.key for item in workloads.Search(seed,
                                                               run.ROOT).items]
    assert keys(5) == keys(5)
    assert keys(5) != keys(6)


def test_manifest_names_the_printed_metrics():
    for section, units in (('end_to_end', run.END_TO_END),
                           ('per_layer', spans.metric_units())):
        assert {m['name']: m['unit'] for m in MANIFEST[section]} == units
    assert [w['name'] for w in MANIFEST['workloads']] == list(
        run.WORKLOAD_NAMES)


def test_short_run_prints_the_result_line():
    done = subprocess.run(
        [sys.executable, 'bench/run.py', '--workload', 'ore_arith',
         '--seed', '3', '--seconds', '0', '--trace', '0'],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    assert result['correct'] and result['failed'] == 0
    assert result['attempted'] >= run.MIN_ITEMS
    assert set(result['metrics']) == set(run.END_TO_END)
    assert all(m['value'] > 0 for m in result['metrics'].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / 'BENCHMARK.json', tmp_path)
    shutil.copytree(run.BENCH, tmp_path / 'bench',
                    ignore=shutil.ignore_patterns('results', '__pycache__'))
    done = subprocess.run(
        [sys.executable, 'bench/run.py', '--workload', 'search',
         '--seed', '1', '--seconds', '1', '--trace', '0'],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not Path(tmp_path / 'bench' / 'results').exists()
