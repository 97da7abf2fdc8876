"""The bounded witness searches on field elements: a slow, independent oracle.

``anisotropy`` and ``field_level`` as they ran before the library moved
both searches to packed integers: every value is a ``FieldElement`` and
every sum and dictionary key is field arithmetic.  Same stages, same
iteration order, same verdict classes, so the tests can ask for identical
kind, level, witness and bound.  ``field_level`` here has no element cap
and reports the full height bound when undecided; keep it to small fields.
"""

from skewfield.numfield import LevelVerdict, _integer_elements
from skewfield.qalg import AnisotropyVerdict


def anisotropy(form, height_bound, pair_cap=2_000_000):
    if height_bound < 1:
        raise ValueError("height bound must be positive")
    target = form.target
    for place in target.real_places():
        signs = {place.sign(c) for c in form.coefficients}
        if signs == {1} or signs == {-1}:
            return AnisotropyVerdict('anisotropic', form, place=place)
    c = form.coefficients
    heights = sorted({min(h, height_bound) for h in (1, 2, 3, 5, 8, 13, height_bound)})
    searched = 0
    for h in heights:
        count = (2 * h + 1) ** target.degree
        if count * count > pair_cap:
            break
        searched = h
        scaled = [[(x, ci * x * x) for x in _integer_elements(target, h)]
                  for ci in c]
        halves = {}
        for x1, v1 in scaled[0]:
            for x2, v2 in scaled[1]:
                halves.setdefault(v1 + v2, (x1, x2))
        for x3, v3 in scaled[2]:
            for x4, v4 in scaled[3]:
                other = halves.get(-(v3 + v4))
                if other is None:
                    continue
                witness = (other[0], other[1], x3, x4)
                if all(w.is_zero() for w in witness):
                    continue
                return AnisotropyVerdict('isotropic', form, witness=witness,
                                         bound=h)
    return AnisotropyVerdict('unknown', form, bound=searched)


def field_level(ell, height_bound):
    if height_bound < 1:
        raise ValueError("height bound must be positive")
    places = ell.real_places()
    if places:
        return LevelVerdict('infinite', place=places[0])
    minus_one = ell.scalar(-1)
    heights = sorted({min(h, height_bound) for h in (1, 2, 4, 8, 16, height_bound)})
    for h in heights:
        squares = {}
        for x in _integer_elements(ell, h):
            if x.is_zero():
                continue
            sq = x * x
            if sq == minus_one:
                return LevelVerdict('finite', s=1, witness=[x], bound=h)
            squares.setdefault(sq, x)
        for sq, x in squares.items():
            need = minus_one - sq
            if need in squares:
                return LevelVerdict('finite', s=2, witness=[x, squares[need]],
                                    bound=h)
        if len(squares) ** 2 <= 4_000_000:
            pair_sums = {}
            for s1, x1 in squares.items():
                for s2, x2 in squares.items():
                    pair_sums.setdefault(s1 + s2, (x1, x2))
            for val, (x1, x2) in pair_sums.items():
                need = minus_one - val
                if need in pair_sums:
                    x3, x4 = pair_sums[need]
                    return LevelVerdict('finite', s=4,
                                        witness=[x1, x2, x3, x4], bound=h)
    return LevelVerdict('unknown', bound=height_bound)
