"""Value objects refuse attribute assignment; lazy caches stay stable;
records fill their slots through the one base constructor."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from skewfield.fep import SolutionReport, cyclic_group
from skewfield.galois import PolyLift, ProductReport, RestrictionWitness
from skewfield.numfield import NumberField, field_level
from skewfield.ore import SkewPoly, center_bounded
from skewfield.qalg import QuaternionAlgebra, norm_form

Q = NumberField([0, 1], label='Q')
Q_SQRT2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
HAM_Q = QuaternionAlgebra(Q, -1, -1, label='(-1,-1/Q)')


CASES = [
    ('FieldElement', Q_SQRT2.gen(), 'coords'),
    ('NumberField', NumberField([-3, 0, 1]), 'label'),
    ('QuatElement', HAM_Q.i(), 'coords'),
    ('SkewPoly', SkewPoly(HAM_Q.identity_automorphism(), [HAM_Q.i()]),
     'coeffs'),
    ('FiniteGroup', cyclic_group(4), 'table'),
    ('LevelVerdict', field_level(Q_SQRT2, 2), 'kind'),
    ('RealPlace', Q_SQRT2.real_places()[0], 'lo'),
    ('NormForm', norm_form(HAM_Q, Q), 'coefficients'),
    ('CenterReport', center_bounded(HAM_Q, HAM_Q.identity_automorphism(), 1),
     'raw_basis'),
    ('RestrictionWitness', RestrictionWitness(
        Q, *[Q.identity_morphism()] * 5), 'ell0'),
    ('ProductReport', ProductReport(
        **dict.fromkeys(ProductReport.__slots__, True)), 'eq_produit'),
    ('SolutionReport', SolutionReport(True, True, True, '', None),
     'details'),
]


@pytest.mark.parametrize('clsname, obj, attr', CASES,
                         ids=[case[0] for case in CASES])
def test_assignment_raises(clsname, obj, attr):
    assert type(obj).__name__ == clsname
    with pytest.raises(AttributeError, match='%s is immutable' % clsname):
        setattr(obj, attr, None)


def test_lazy_caches_are_stable():
    field = NumberField([1, 0, -10, 0, 1])
    assert field.automorphisms() == field.automorphisms()
    assert field.real_places() == field.real_places()
    group = cyclic_group(6)
    assert group.subgroups() == group.subgroups()


@pytest.mark.parametrize('attr', ['num', 'den', 'coords'])
def test_field_element_integer_form_is_immutable(attr):
    x = Q_SQRT2.element([Fraction(1, 2), 3])
    with pytest.raises(AttributeError, match='FieldElement is immutable'):
        setattr(x, attr, None)
    assert (x.num, x.den) == ((1, 6), 2)


def test_record_fills_slots_in_order_then_by_name():
    lift = PolyLift('rho', twist='tau')
    assert (lift.rho, lift.twist) == ('rho', 'tau')


@pytest.mark.parametrize('values, named', [
    (('rho',), {}),
    (('rho', 'tau', 'extra'), {}),
    (('rho',), {'twist': 'tau', 'sign': 1}),
    (('rho', 'tau'), {'rho': 'again'}),
], ids=['missing', 'extra', 'unknown', 'repeated'])
def test_record_needs_one_value_per_slot(values, named):
    with pytest.raises(TypeError, match='PolyLift'):
        PolyLift(*values, **named)


SRC = Path(__file__).resolve().parent.parent / 'src' / 'skewfield'

# The writers of their own slots: the base constructor, the element
# classes built on every arithmetic operation, the trusted composites
# and the group table.  Lazy caches write private slots outside __init__.
SLOT_WRITERS = {('Immutable', '__init__'), ('FieldElement', '__init__'),
                ('QuatElement', '__init__'), ('SkewPoly', '__init__'),
                ('SkewFraction', '__init__'), ('SkewLaurent', '__init__'),
                ('FieldMorphism', '_fill'), ('AlgebraAutomorphism', '_fill'),
                ('Extension', '_set_group')}


def _slot_writes(tree):
    """(class, function, slot name or None) of each object.__setattr__."""
    for top in tree.body:
        funcs = [(top.name, f) for f in top.body
                 if isinstance(f, ast.FunctionDef)] \
            if isinstance(top, ast.ClassDef) else [(None, top)]
        for cls, func in funcs:
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and ast.unparse(node.func) == 'object.__setattr__'):
                    slot = node.args[1] if len(node.args) > 1 else None
                    yield (cls, getattr(func, 'name', None),
                           getattr(slot, 'value', None))


def test_constructors_fill_slots_through_the_base():
    stray = []
    for path in sorted(SRC.glob('*.py')):
        for cls, func, slot in _slot_writes(ast.parse(path.read_text())):
            lazy_cache = (cls is not None and func != '__init__'
                          and isinstance(slot, str) and slot.startswith('_'))
            if (cls, func) not in SLOT_WRITERS and not lazy_cache:
                stray.append('%s %s.%s writes %s' % (path.name, cls, func, slot))
    assert stray == []
