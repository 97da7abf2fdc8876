"""Span wrappers installed around the public calls of each skewfield layer.

The wrappers live here, in the benchmark, so the library is measured
unchanged, and only a traced run installs them.  A span is named
``<layer>.<op>``; several library functions can share one span name
(``ore.divide`` covers both one-sided divisions).  Every skewfield module
that imported a wrapped function under its own name is patched too, so
``ore.kernel_basis`` is timed as well as ``linalg.kernel_basis``.

Self time is a span's duration minus the time covered by its child spans.
A call to an op from inside an open span of the same op (``same_span``
calling ``rank`` calling ``eliminate``) is folded into the outer span, so
``_calls`` counts entries into the op.  An exception that leaves a span
whose parent span belongs to another layer, or that has no parent, counts
once as an error of the span's layer.

Spans are kept in memory: per-op totals, which ``take`` hands out and
resets once per pass, and per (parent, child) edge totals plus one root
span per benchmark item, which ``dump`` returns at the end of the run.
"""

import functools
import importlib
import sys
import time
from collections import Counter

LAYERS = ('numfield', 'qalg', 'ore', 'linalg', 'galois', 'fep', 'cli')

# (span name, module, attribute path); 'CHECKS[*]' is every registry entry.
TARGETS = (
    ('numfield.elem_mul', 'skewfield.numfield', 'FieldElement.__mul__'),
    ('numfield.elem_inv', 'skewfield.numfield', 'FieldElement.inverse'),
    ('numfield.construct', 'skewfield.numfield', 'NumberField.__init__'),
    ('numfield.roots', 'skewfield.numfield', 'roots_in_field'),
    ('numfield.sympy', 'sympy', 'Poly.factor_list'),
    ('numfield.level', 'skewfield.numfield', 'field_level'),
    ('numfield.fixed_field', 'skewfield.numfield', 'fixed_field'),
    ('qalg.mul', 'skewfield.qalg', 'QuatElement.__mul__'),
    ('qalg.inv', 'skewfield.qalg', 'QuatElement.inverse'),
    ('qalg.twist_apply', 'skewfield.qalg', 'AlgebraAutomorphism.__call__'),
    ('qalg.algebra_construct', 'skewfield.qalg', 'QuaternionAlgebra.__init__'),
    ('qalg.anisotropy', 'skewfield.qalg', 'anisotropy'),
    ('ore.mul', 'skewfield.ore', 'SkewPoly.__mul__'),
    ('ore.divide', 'skewfield.ore', 'right_divide'),
    ('ore.divide', 'skewfield.ore', 'left_divide'),
    ('ore.lcm', 'skewfield.ore', 'ore_right_lcm'),
    ('ore.frac_eq', 'skewfield.ore', 'SkewFraction.__eq__'),
    ('ore.series', 'skewfield.ore', 'series_expand'),
    ('ore.recurrence', 'skewfield.ore', 'detect_recurrence'),
    ('ore.center', 'skewfield.ore', 'center_bounded'),
    ('ore.tensor', 'skewfield.ore', 'tensor_decomposition_check'),
    ('linalg.elim', 'skewfield.linalg', 'eliminate'),
    ('linalg.elim', 'skewfield.linalg', 'rank'),
    ('linalg.elim', 'skewfield.linalg', 'kernel_basis'),
    ('linalg.elim', 'skewfield.linalg', 'solve'),
    ('linalg.elim', 'skewfield.linalg', 'invert'),
    ('linalg.elim', 'skewfield.linalg', 'in_span'),
    ('linalg.elim', 'skewfield.linalg', 'coordinates_in_span'),
    ('linalg.elim', 'skewfield.linalg', 'same_span'),
    ('galois.build_extension', 'skewfield.galois', 'build_galois_extension'),
    ('galois.build_extension', 'skewfield.galois', 'build_comm_extension'),
    ('galois.restriction', 'skewfield.galois', 'restriction_map'),
    ('galois.restriction', 'skewfield.galois', 'restriction_between'),
    ('galois.product_conditions', 'skewfield.galois',
     'check_product_conditions'),
    ('galois.twisted', 'skewfield.galois', 'build_twisted_extension'),
    ('fep.group_construct', 'skewfield.fep', 'FiniteGroup.__init__'),
    ('fep.subgroups', 'skewfield.fep', 'FiniteGroup.subgroups'),
    ('fep.is_split', 'skewfield.fep', 'is_split'),
    ('fep.verify_solution', 'skewfield.fep', 'verify_solution'),
    ('fep.transport', 'skewfield.fep', 'transport_down'),
    ('fep.transport', 'skewfield.fep', 'transport_up'),
    ('fep.transport', 'skewfield.fep', 'sol_down'),
    ('fep.transport', 'skewfield.fep', 'sol_up'),
    ('fep.fiber', 'skewfield.fep', 'fiber_reduction'),
    ('fep.fiber', 'skewfield.fep', 'FiberReduction.transport'),
    ('fep.geometric', 'skewfield.fep', 'geometric_problem'),
    ('cli.parse', 'skewfield.cli', 'parse_scenario'),
    ('cli.check', 'skewfield.cli', 'CHECKS[*]'),
)

OPS = tuple(sorted({name for name, _, _ in TARGETS}))

# Counters read off results, beside the span counts.
EXTRA = (
    ('qalg.anisotropy_unknown', 'count'),
    ('qalg.anisotropy_max_height', 'count'),
    ('ore.recurrence_found_ratio', 'ratio'),
)


def metric_units():
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for op in OPS:
        units[op + '_calls'] = 'count'
        units[op + '_s'] = 's'
    units.update(EXTRA)
    for layer in LAYERS:
        units[layer + '.errors'] = 'count'
    units['trace.overhead_s'] = 's'
    units['trace.overhead_ratio'] = 'ratio'
    return units


def _skewfield_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == 'skewfield'
                                  or name.startswith('skewfield.'))]


class Tracer:

    def __init__(self):
        self._stack = []
        self._patches = []
        self._t0 = time.perf_counter()
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()
        self.counters = Counter()
        self.edge_calls = Counter()
        self.edge_s = Counter()
        self.item_spans = []

    # -- installation -----------------------------------------------------

    def install(self):
        for name, modname, path in TARGETS:
            module = importlib.import_module(modname)
            if path == 'CHECKS[*]':
                table = module.CHECKS
                for op in sorted(table):
                    self._patch(table, op, self._wrap(name, table[op]),
                                mapping=True)
                continue
            if '.' in path:
                clsname, attr = path.split('.')
                owner = getattr(module, clsname)
                fn = owner.__dict__[attr]
                wrapper = self._wrap(name, fn)
                # aliases such as FieldElement.__rmul__ = __mul__
                for key, value in list(owner.__dict__.items()):
                    if value is fn:
                        self._patch(owner, key, wrapper)
                continue
            fn = getattr(module, path)
            wrapper = self._wrap(name, fn)
            for mod in _skewfield_modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original, mapping = self._patches.pop()
            if mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _patch(self, owner, key, wrapper, mapping=False):
        if mapping:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = wrapper
        else:
            self._patches.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, wrapper)

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn):
        layer = name.split('.', 1)[0]
        stack = self._stack
        calls, self_s, errors = self.calls, self.self_s, self.errors
        edge_calls, edge_s = self.edge_calls, self.edge_s
        observe = _OBSERVERS.get(name)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or not stack[-2][0].startswith(layer + '.'):
                    errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1][0] if stack else 'root'
                if stack:
                    stack[-1][1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                edge = (parent, name)
                edge_calls[edge] += 1
                edge_s[edge] += elapsed
            if observe is not None:
                observe(counters, result)
            return result

        return span

    def run_item(self, key, fn):
        """Run one benchmark item as a root span sharing the item's key."""
        frame = ['item', 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.item_spans.append((key, round(start - self._t0, 6),
                                    round(end - self._t0, 6),
                                    round(end - start - frame[1], 6)))

    # -- results ------------------------------------------------------------

    def take(self):
        """Per-layer values accumulated since the last call, then reset."""
        out = {}
        for op in OPS:
            out[op + '_calls'] = self.calls[op]
            out[op + '_s'] = self.self_s[op]
        tried = self.calls['ore.recurrence']
        out['qalg.anisotropy_unknown'] = self.counters['anisotropy_unknown']
        out['qalg.anisotropy_max_height'] = self.counters['anisotropy_height']
        out['ore.recurrence_found_ratio'] = (
            self.counters['recurrence_found'] / tried if tried else 0.0)
        for layer in LAYERS:
            out[layer + '.errors'] = self.errors[layer]
        for counter in (self.calls, self.self_s, self.errors, self.counters):
            counter.clear()
        return out

    def dump(self):
        edges = [{'parent': p, 'span': c, 'calls': self.edge_calls[(p, c)],
                  'total_s': round(self.edge_s[(p, c)], 6)}
                 for p, c in sorted(self.edge_calls)]
        return {'edges': edges,
                'items': [{'key': k, 'start_s': s, 'end_s': e, 'self_s': o}
                          for k, s, e, o in self.item_spans]}


def _observe_anisotropy(counters, verdict):
    if verdict.kind == 'unknown':
        counters['anisotropy_unknown'] += 1
    if verdict.bound is not None:
        counters['anisotropy_height'] = max(counters['anisotropy_height'],
                                            verdict.bound)


def _observe_recurrence(counters, cert):
    if cert is not None:
        counters['recurrence_found'] += 1


_OBSERVERS = {
    'qalg.anisotropy': _observe_anisotropy,
    'ore.recurrence': _observe_recurrence,
}
