"""skewfield benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload ore_arith --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A run sets up the workload (imports, first sympy use, fixed and seeded
inputs), then runs passes over the workload's items until ``--seconds`` is
spent, and at least two passes and 100 items, so the 90th percentile has
ten samples above it.  Times are scaled by ``calibrate.py``.  It checks
the first pass against the known answers, requires every later pass to
render identically, and prints one line per metric followed by a JSON
result as the last line.  ``--trace 1`` installs the span wrappers of
``spans.py``, reports per-layer metrics and runs one more pass untraced to
measure the tracing overhead.  ``--workload all`` runs every workload in
its own process and prints all their metrics.

See README.md in this directory for the metrics and the workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / 'src'
RESULTS = BENCH / 'results'
WORKLOAD_NAMES = ('scenarios', 'ore_arith', 'search')
MIN_ITEMS = 100
MIN_PASSES = 2
SETUP_REPEATS = 5
# A run, traced or not, must end well inside three minutes.
HARD_STOP_S = 90.0

END_TO_END = {
    'setup_s': 's', 'pass_s': 's', 'pass_cpu_s': 's', 'item_p50_ms': 'ms',
    'item_p90_ms': 'ms', 'known_answer_ratio': 'ratio',
    'decided_ratio': 'ratio', 'peak_rss_mb': 'MB',
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True,
                        choices=WORKLOAD_NAMES + ('all',))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--setup-only', action='store_true',
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import skewfield from this checkout's src/, or exit 2."""
    if not (SRC / 'skewfield' / '__init__.py').is_file():
        sys.exit('error: no skewfield sources under %s' % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import skewfield
    if Path(skewfield.__file__).resolve().parent != SRC / 'skewfield':
        sys.exit('error: skewfield imported from %s, not from %s'
                 % (skewfield.__file__, SRC))


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_revision():
    head = ROOT / '.git' / 'HEAD'
    if not head.is_file():
        return 'unknown'
    ref = head.read_text().strip()
    if not ref.startswith('ref: '):
        return ref
    name = ref[5:]
    loose = ROOT / '.git' / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / '.git' / 'packed-refs'
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(' ' + name):
                return line.split()[0]
    return 'unknown'


def files_digest(files):
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b'\0')
        h.update(path.read_bytes() + b'\0')
    return h.hexdigest()


def environment(args):
    import sympy
    return {'git_revision': git_revision(),
            'source_sha256': files_digest(
                sorted(SRC.rglob('*.py'))
                + sorted((ROOT / 'scenarios').glob('*'))),
            'bench_sha256': files_digest(sorted(BENCH.glob('*.py'))),
            'python': platform.python_version(), 'sympy': sympy.__version__,
            'nproc': os.cpu_count(), 'workload': args.workload,
            'seed': args.seed, 'seconds': args.seconds, 'trace': args.trace}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Raised:
    """An item that raised where no exception is a valid answer."""

    def __init__(self, exc):
        self.text = 'raised %s: %s' % (type(exc).__name__, exc)


def run_pass(workload, calibrator, tracer=None):
    """One pass: (scaled wall s, scaled CPU s, raw wall s, item records)."""
    records = []
    wall = cpu = raw = 0.0
    calibrator.mark()
    for key, fn in workload.units():
        run = (lambda: tracer.run_item(key, fn)) if tracer else fn
        output, seconds, cpu_seconds, scale = calibrator.timed(run)
        if isinstance(output, Exception):
            output = Raised(output)
        wall += seconds * scale
        cpu += cpu_seconds * scale
        raw += seconds
        records.extend((k, s * scale, out) for k, s, out
                       in workload.split(key, output, seconds))
    return wall, cpu, raw, records


def measure(workload, seconds, calibrator, tracer=None):
    """Passes until the time is spent and MIN_ITEMS items were timed."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, calibrator, tracer))
        if tracer is not None:
            passes[-1] += (tracer.take(),)
        elapsed = time.perf_counter() - start
        items = sum(len(p[3]) for p in passes)
        next_end = elapsed + statistics.median(p[2] for p in passes)
        if next_end > HARD_STOP_S or (
                items >= MIN_ITEMS and len(passes) >= MIN_PASSES
                and next_end > seconds):
            return passes


def judge(workload, passes):
    """Known answers on the first pass; later passes must render the same."""
    first = passes[0][3]
    canon, verdicts = {}, {}
    for key, _, output in first:
        if isinstance(output, Raised):
            canon[key], verdicts[key] = output.text, (False, None)
        else:
            canon[key] = workload.canon(key, output)
            verdicts[key] = workload.verify(key, output)
    attempted = failed = 0
    mismatched = set()
    for records in (p[3] for p in passes):
        keys = [key for key, _, _ in records]
        if keys != [key for key, _, _ in first]:
            mismatched.add('item list')
        for key, _, output in records:
            attempted += 1
            text = output.text if isinstance(output, Raised) else \
                workload.canon(key, output)
            agrees, _ = verdicts.get(key, (False, None))
            if text != canon.get(key):
                mismatched.add(key)
                failed += 1
            elif not agrees and key not in workload.KNOWN_DEFECTS:
                failed += 1
    digest = hashlib.sha256('\n'.join(
        '%s\t%s' % (key, canon[key]) for key in sorted(canon)).encode())
    return {'canon': canon, 'verdicts': verdicts, 'attempted': attempted,
            'failed': failed, 'mismatched': sorted(mismatched),
            'digest': digest.hexdigest()}


def check_digest(env, digest):
    """All runs of one library and benchmark revision and seed agree."""
    RESULTS.mkdir(exist_ok=True)
    store = RESULTS / 'digests.json'
    known = json.loads(store.read_text()) if store.is_file() else {}
    slot = '%s/%s/%s/%d' % (env['source_sha256'], env['bench_sha256'],
                            env['workload'], env['seed'])
    previous = known.setdefault(slot, digest)
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + '\n')
    return previous == digest


def setup_times(args, own):
    """Median set-up over this process and fresh set-up-only processes."""
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), '--setup-only',
             '--workload', args.workload, '--seed', str(args.seed),
             '--seconds', '0'],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(passes, judged, setup_s):
    ms = sorted(seconds * 1000.0 for p in passes
                for _, seconds, _ in p[3])
    deciles = statistics.quantiles(ms, n=10, method='inclusive')
    verdicts = judged['verdicts'].values()
    searches = [decided for _, decided in verdicts if decided is not None]
    agreeing = sum(1 for agrees, _ in verdicts if agrees)
    return {
        'setup_s': setup_s,
        'pass_s': statistics.median(p[0] for p in passes),
        'pass_cpu_s': statistics.median(p[1] for p in passes),
        'item_p50_ms': statistics.median(ms),
        'item_p90_ms': deciles[8],
        'known_answer_ratio': agreeing / len(judged['verdicts']),
        'decided_ratio': (sum(searches) / len(searches)) if searches else 1.0,
        'peak_rss_mb': resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, len(ms)


def per_layer(passes, untraced_pass_s):
    import spans
    values = {}
    for name in spans.metric_units():
        if name.startswith('trace.'):
            continue
        values[name] = statistics.median(p[4][name] for p in passes)
    traced = statistics.median(p[0] for p in passes)
    values['trace.overhead_s'] = traced - untraced_pass_s
    values['trace.overhead_ratio'] = (traced - untraced_pass_s) / \
        untraced_pass_s
    return values


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def set_up(args, calibrator):
    """The workload and its scaled set-up time: imports and inputs."""
    calibrator.mark()

    def build():
        import_library()
        import workloads
        return workloads.WORKLOADS[args.workload](args.seed, ROOT)

    workload, seconds, _, scale = calibrator.timed(build)
    if isinstance(workload, Exception):
        raise workload
    return workload, seconds * scale


def run_one(args):
    calibrator = Calibrator()
    calibrator.start()
    try:
        return measure_and_report(args, calibrator)
    finally:
        calibrator.stop()


def measure_and_report(args, calibrator):
    workload, own_setup = set_up(args, calibrator)
    if args.setup_only:
        print('%.6f' % own_setup)
        return 0
    import spans
    env = environment(args)
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes = measure(workload, args.seconds, calibrator, tracer)
        finally:
            tracer.uninstall()
        untraced = run_pass(workload, calibrator)
        judged = judge(workload, passes + [untraced])
        metrics = per_layer(passes, untraced[0])
        units = spans.metric_units()
        samples = sum(len(p[3]) for p in passes)
        trace_dump = tracer.dump()
    else:
        passes = measure(workload, args.seconds, calibrator)
        judged = judge(workload, passes)
        setup_s = setup_times(args, own_setup)
        metrics, samples = end_to_end(passes, judged, setup_s)
        units = END_TO_END
        trace_dump = None
    digest_stable = check_digest(env, judged['digest'])
    correct = (judged['failed'] == 0 and not judged['mismatched']
               and digest_stable)
    defects = sorted(key for key, (agrees, _) in judged['verdicts'].items()
                     if not agrees and key in workload.KNOWN_DEFECTS)
    wrong = sorted(key for key, (agrees, _) in judged['verdicts'].items()
                   if not agrees and key not in workload.KNOWN_DEFECTS)

    for name in sorted(metrics):
        print('%-34s %14.6f %s' % (name, metrics[name], units[name]))
    print('passes %d, item samples %d, output digest %s'
          % (len(passes), samples, judged['digest']))
    for key in defects:
        print('known answer contradicted (seed defect: %s): %s'
              % (workload.KNOWN_DEFECTS[key], key))
    for key in wrong:
        print('known answer contradicted: %s -> %s'
              % (key, judged['canon'][key][:200]))
    for key in judged['mismatched']:
        print('output differs between passes: %s' % key)
    if not digest_stable:
        print('output digest differs from an earlier run of these sources')

    result = {'correct': correct, 'attempted': judged['attempted'],
              'failed': judged['failed'],
              'metrics': {name: {'value': value, 'unit': units[name]}
                          for name, value in sorted(metrics.items())}}
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, environment=env, passes=len(passes),
                  item_samples=samples, digest=judged['digest'],
                  known_defects=defects, contradicted=wrong,
                  pass_s=[p[0] for p in passes],
                  raw_pass_s=[p[2] for p in passes],
                  probe_s=statistics.quantiles(calibrator.probes, n=10),
                  item_ms={key: round(seconds * 1000.0, 4)
                           for key, seconds, _ in passes[0][3]})
    if trace_dump is not None:
        record['trace'] = trace_dump
    out = RESULTS / ('%s-seed%d-trace%d.json'
                     % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1) + '\n')
    print(json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process; prints each one's metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), '--workload',
             name, '--seed', str(args.seed), '--seconds', str(args.seconds),
             '--trace', str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        print('== %s' % name)
        sys.stdout.write(''.join(done.stdout.splitlines(True)[:-2]))
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r['correct'] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == 'all':
        return run_all(args)
    return run_one(args)


if __name__ == '__main__':
    sys.exit(main())
