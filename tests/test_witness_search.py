"""The packed-integer witness searches against the field-element oracle."""

import random
from fractions import Fraction

import fieldelement_search_oracle as oracle
from skewfield.numfield import NumberField, _packed, field_level
from skewfield.qalg import QuaternionAlgebra, anisotropy, norm_form

# centers by degree, with the heights each one is searched to; the oracle
# pays about 10 microseconds per field addition, so the larger degrees
# stay at the small heights
CENTERS = (
    ([0, 1], (1, 3, 5)),
    ([1, 0, 1], (1, 3, 5)), ([7, 0, 1], (1, 3)), ([2, 0, 1], (1, 3)),
    ([-2, 0, 1], (1, 3)), ([-5, 0, 1], (1, 3)), ([3, 0, 1], (1, 3)),
    ([-2, 0, 0, 1], (1,)), ([1, -3, 0, 1], (1,)),
    ([1, 0, 0, 0, 1], (1,)), ([2, 0, 4, 0, 1], (1,)),
)
# over Q(sqrt-7) at height 2 some four-term sums of this form reach the
# digit bound: one bit less of shift and the packed search matches sums
# that differ
EDGE = ([7, 0, 1], [Fraction(-1, 3), Fraction(-1, 3)], Fraction(-3, 2), 2)
# the bench's level fields
LEVELS = ([1, 0, 1], [9, 0, 1], [3, 0, 1], [2, 0, 1], [5, 0, 1], [7, 0, 1],
          [15, 0, 1], [1, 0, 0, 0, 1], [-2, 0, 1], [2, 0, -4, 0, 1],
          [1, 0, -10, 0, 1])


def _parameter(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))


def _forms(rng):
    """Six forms per center: (-1, -1), then random (a, b) and Steinberg
    (a, 1 - a) pairs in turn, each with the center's heights."""
    for coeffs, heights in CENTERS:
        field = NumberField(coeffs)
        pairs = [(-1, -1)]
        while len(pairs) < 6:
            a, b = _parameter(rng), _parameter(rng)
            if a != 1:
                pairs.append((a, b) if len(pairs) % 2 else (a, 1 - a))
        for a, b in pairs:
            yield norm_form(QuaternionAlgebra(field, a, b), field), heights


def _same(got, want):
    assert got.kind == want.kind
    assert got.bound == want.bound
    assert getattr(got, 's', None) == getattr(want, 's', None)
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert [w.num for w in got.witness] == [w.num for w in want.witness]
        assert [w.den for w in got.witness] == [w.den for w in want.witness]


def test_packed_searches_agree_with_the_field_element_oracle():
    rng = random.Random(1010)
    forms = list(_forms(rng))
    kinds = set()
    for form, heights in forms:
        for h in heights:
            got = anisotropy(form, h)
            _same(got, oracle.anisotropy(form, h))
            kinds.add(got.kind)
    assert len(forms) >= 60 and kinds == {'anisotropic', 'isotropic', 'unknown'}
    coeffs, a, b, h = EDGE
    field = NumberField(coeffs)
    form = norm_form(QuaternionAlgebra(field, field.element(a), b), field)
    _same(anisotropy(form, h), oracle.anisotropy(form, h))
    m7 = NumberField([7, 0, 1])
    form = norm_form(QuaternionAlgebra(m7, -1, -1), m7)
    _same(anisotropy(form, 8), oracle.anisotropy(form, 8))
    unknown = anisotropy(form, 20)  # the pair cap stops it after height 13
    assert unknown.kind == 'unknown' and unknown.bound == 13
    for coeffs in LEVELS:
        field = NumberField(coeffs)
        _same(field_level(field, 20), oracle.field_level(field, 20))


def test_packing_separates_sums_at_the_digit_bound():
    # 3u + w = (32, -1) is nonzero, and 32 = 4 * max|numerator|
    field = NumberField([1, 0, 1])
    ku, kw = _packed([field.element([8, 0]), field.element([8, -1])], 4)
    assert 3 * ku + kw != 0


def test_level_search_is_capped_on_an_octic():
    # the element cap stops the search at height 1, where the four-square
    # stage is already past its pair cap: no height was searched in full
    verdict = field_level(NumberField([3, 0, 1, 0, 0, 0, 0, 0, 1]), 20)
    assert verdict.kind == 'unknown' and verdict.bound == 0


def test_unknown_level_reports_the_last_full_height():
    # heights 1 and 2 run all three stages; at height 4 the 3280 squares
    # are past the four-square stage's pair cap
    verdict = field_level(NumberField([10 ** 6 + 1, 0, 0, 0, 1]), 4)
    assert verdict.kind == 'unknown' and verdict.bound == 2
