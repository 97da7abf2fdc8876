"""The matrix kernels against the callable oracle they replaced.

``fixed_field`` builds its kernels from the integer matrices of the maps
(``linalg.difference_rows``).  Each kernel basis must equal, entry for
entry, what applying the maps to every basis element gives
(``callable_kernel_oracle``).  A kernel basis is read from the reduced
echelon form, so it depends only on the kernel: the oracle may run over
the whole group where the library uses a generating subset.  The library's
kernels are caught where it hands its rows to ``kernel_basis``.

A Galois extension computes no kernel: its Artin and outer-ness flags are
theorems on checked hypotheses.  The oracle's fixed set of the group must
span the embedded base, and its centralizer of the base the center of L,
which is what the two flags claim.
"""

import random
from fractions import Fraction
from itertools import combinations

import callable_kernel_oracle as oracle
from regressions import (DL2_MATRIX, biquadratic, cyclic_quartic, hamilton,
                         q_embedding, sqrt2_field)
from skewfield import numfield
from skewfield.galois import (NotAnisotropic, _generating_subset,
                              build_galois_extension)
from skewfield.linalg import kernel_basis, same_span
from skewfield.numfield import (FieldMorphism, NumberField,
                                automorphism_group, fixed_field)
from skewfield.ore import _algebra_generators
from skewfield.qalg import QuatElement, QuaternionAlgebra

HAM_Q = hamilton()
Q_SQRT2 = sqrt2_field()
# Q(sqrt2 + 2 sqrt3): its automorphisms and sqrt2 = (a^3 - 18a)/20 are no
# integer polynomials in a, so their matrices have a denominator above 1
WIDE = NumberField([100, 0, -28, 0, 1], label='Q(sqrt2+2sqrt3)')
TOWERS = (cyclic_quartic(Q_SQRT2), biquadratic(Q_SQRT2),
          FieldMorphism(Q_SQRT2, WIDE, WIDE.element(
              [0, Fraction(-9, 10), 0, Fraction(1, 20)])))
FIELDS = [Q_SQRT2] + [emb.target for emb in TOWERS] + [
    NumberField(coeffs, label=name) for name, coeffs, _, _ in DL2_MATRIX]


def _record_kernels(monkeypatch, module):
    """The kernel bases module computes from now on, in call order."""
    seen = []

    def record(rows, ncols):
        seen.append(kernel_basis(rows, ncols))
        return seen[-1]

    monkeypatch.setattr(module, 'kernel_basis', record)
    return seen


def _extensions():
    """The extensions of (-1,-1) to every field over Q, and from
    (-1,-1/Q(sqrt2)) up both towers."""
    for field in FIELDS:
        yield HAM_Q, field, q_embedding(HAM_Q, field)
    h2 = QuaternionAlgebra(Q_SQRT2, -1, -1, label='(-1,-1/Q(sqrt2))')
    for emb in TOWERS:
        yield h2, emb.target, emb


def test_fixed_fields_equal_the_callable_oracle(monkeypatch):
    rng = random.Random(12)
    seen = _record_kernels(monkeypatch, numfield)
    checked = 0
    for field in FIELDS:
        autos = automorphism_group(field)
        rng.shuffle(autos)
        for k in range(len(autos) + 1):
            for subset in combinations(autos, k):
                seen.clear()
                sub, _ = fixed_field(field, list(subset))
                want = oracle.common_kernel(
                    [lambda x, s=s: s(x) - x for s in subset],
                    field.basis(), lambda x: x.coords)
                assert seen == [want], (field, subset)
                assert sub.degree == len(want)
                checked += 1
    assert checked == 4 + 3 * 16 + 4 * 4 + 16


def test_artin_and_outer_kernels_equal_the_callable_oracle():
    rng = random.Random(12)
    built = refused = 0
    for H, field, emb in _extensions():
        try:
            ext = build_galois_extension(H, field, emb)
        except NotAnisotropic:  # the Gaussian field and Q(sqrt-2)
            refused += 1
            continue
        assert ext.artin_verified and ext.outer_verified
        L = ext.L
        group = list(ext.group)
        rng.shuffle(group)
        fixed = oracle.common_kernel([lambda x, a=a: a(x) - x for a in group],
                                     L.q_basis(), QuatElement.q_vector)
        gens = [ext.embed_base(g) for g in _algebra_generators(H)]
        cent = oracle.common_kernel([lambda x, g=g: g * x - x * g
                                     for g in gens],
                                    L.q_basis(), QuatElement.q_vector)
        base = [ext.embed_base(x).q_vector() for x in H.q_basis()]
        center = [L.scalar(b).q_vector() for b in L.base.basis()]
        assert same_span(fixed, base), ext
        assert same_span(cent, center), ext
        assert len(_generating_subset(ext.table)) < len(group)
        built += 1
    assert (built, refused) == (10, 2)
