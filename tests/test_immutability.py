"""Value objects refuse attribute assignment; lazy caches stay stable."""

from fractions import Fraction

import pytest

from skewfield.fep import cyclic_group
from skewfield.numfield import NumberField, field_level
from skewfield.ore import SkewPoly
from skewfield.qalg import QuaternionAlgebra

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
