"""The bundled regression instances of the test suite, each defined once.

The rational Hamilton quaternions over Q(sqrt2), the real cyclic quartic
and the biquadratic field, the twists and solutions built on them, and
the quaternion-group scenario, built from library calls alone.  The
command line states the same instances as scenario text
(scenarios/q8.scn, scenarios/ore_center.scn); tests/test_cli.py compares
the two.  Every builder returns fresh objects; a field to extend is passed
in, so callers can share one.
"""

from fractions import Fraction

from skewfield.fep import (EmbeddingProblem, GalData, SolutionMap,
                           fiber_reduction, is_split, quaternion_group,
                           verify_solution)
from skewfield.galois import TwistedExtension, build_galois_extension
from skewfield.numfield import (FieldMorphism, Immutable, NumberField,
                                automorphism_group, field_level)
from skewfield.qalg import (AlgebraAutomorphism, QuaternionAlgebra,
                            inner_automorphism)

# name, minimal polynomial, norm-form verdict of (-1,-1/Q) over the field,
# order of the extension group (None: the construction is refused)
DL2_MATRIX = (
    ('gaussian', [1, 0, 1], 'isotropic', None),
    ('sqrt-2', [2, 0, 1], 'isotropic', None),
    ('sqrt2', [-2, 0, 1], 'anisotropic', 2),
    ('sqrt3', [-3, 0, 1], 'anisotropic', 2),
    ('quartic', [2, 0, -4, 0, 1], 'anisotropic', 4),
)


def hamilton():
    """The rational Hamilton quaternions; the center Q is its base."""
    return QuaternionAlgebra(NumberField([0, 1], label='Q'), -1, -1,
                             label='(-1,-1/Q)')


def sqrt2_field():
    return NumberField([-2, 0, 1], label='Q(sqrt2)')


def cyclic_quartic(q2):
    """Q(sqrt(2+sqrt2)), real with cyclic group of order 4, holding q2."""
    quartic = NumberField([2, 0, -4, 0, 1], label='Q(sqrt(2+sqrt2))')
    return FieldMorphism(q2, quartic, quartic.element([-2, 0, 1]))


def biquadratic(q2):
    """Q(sqrt2, sqrt3), generated by sqrt2 + sqrt3, holding q2."""
    biquad = NumberField([1, 0, -10, 0, 1], label='Q(sqrt2,sqrt3)')
    sqrt2 = biquad.element([0, Fraction(-9, 2), 0, Fraction(1, 2)])
    return FieldMorphism(q2, biquad, sqrt2)


def q_embedding(H, field):
    """The zero embedding of the rational center of H into field."""
    return FieldMorphism(H.base, field, field.zero())


def hamilton_over(H, field, height_bound=8):
    """The Galois extension of H to field along q_embedding."""
    return build_galois_extension(H, field, q_embedding(H, field),
                                  height_bound)


def counterexample(ext):
    """Twists of equal order over ext whose central restrictions differ:
    conjugation by i, and above it by i after the Galois involution."""
    tau_prime = next(a for a in ext.group if not a.is_identity())
    return TwistedExtension(ext, inner_automorphism(ext.H.i()),
                            inner_automorphism(ext.L.i()).compose(tau_prime))


def conjugation_twist(q2):
    """The twist of (-1,-1/Q(sqrt2)) fixing i, j and negating sqrt2."""
    H2 = QuaternionAlgebra(q2, -1, -1, label='(-1,-1/Q(sqrt2))')
    conj = next(g for g in automorphism_group(q2) if not g.is_identity())
    return AlgebraAutomorphism(H2, H2.i(), H2.j(), conj)


def matching_tower(emb):
    """(sigma, tau) on (-1,-1) over both ends of emb: Q(sqrt2) into
    Q(sqrt2, sqrt3); both negate sqrt2, the upper one fixes sqrt3."""
    biquad, sqrt2 = emb.target, emb.gen_image
    sqrt3 = biquad.gen() - sqrt2
    tau_tilde = next(g for g in automorphism_group(biquad)
                     if g(sqrt2) == -sqrt2 and g(sqrt3) == sqrt3)
    L = QuaternionAlgebra(biquad, -1, -1)
    return (conjugation_twist(emb.source),
            AlgebraAutomorphism(L, L.i(), L.j(), tau_tilde))


def images_by_powers(gal, image_of_power):
    """Images of a cyclic Galois group, listed by index.

    The generator is the first element of full order; its k-th power is
    sent to image_of_power(k), for k = 1 .. order.
    """
    G = gal.group
    gen = next((n for n in range(G.order) if G.element_order(n) == G.order),
               None)
    if gen is None:
        raise ValueError("the Galois group is not cyclic")
    images = [None] * G.order
    cur = gen
    for power in range(1, G.order + 1):
        images[cur] = image_of_power(power)
        cur = G.op(gen, cur)
    return images


def quartic_solution(problem, image_of_power=lambda power: power % 4,
                     kind='weak', height_bound=8):
    """The solution of problem, over (-1,-1/Q) extended to Q(sqrt2),
    through the cyclic quartic: generator^k goes to image_of_power(k)."""
    center_emb = cyclic_quartic(problem.ext.center_field)
    ext_big = hamilton_over(problem.ext.H, center_emb.target, height_bound)
    gal_big = GalData(ext_big)
    beta = images_by_powers(gal_big, image_of_power)
    return SolutionMap(ext_big, center_emb, beta, kind, problem.G, gal_big)


# ---------------------------------------------------------------------------
# the quaternion-group scenario
# ---------------------------------------------------------------------------

class Q8Report(Immutable):

    __slots__ = ('problem', 'split', 'weak', 'weak_report', 'reduction',
                 'quartic_group_cyclic', 'quartic_contains_conjugation',
                 'quartic_level', 'kernel_order', 'reduced_order',
                 'reduced_split', 'reduced_kernel_order', 'base_note')

    def passed(self):
        return (not self.split and self.weak_report.passed()
                and self.quartic_group_cyclic
                and self.quartic_contains_conjugation
                and self.quartic_level == 'infinite'
                and self.kernel_order == 4
                and self.reduced_split
                and self.reduced_kernel_order == 4)


def q8_scenario(height_bound=8):
    """The non-split problem for the quaternion group with its bounded
    weak solution and fiber reduction, everything re-verified.

    The base is the rational Hamilton quaternions; the extension adjoins
    the square root of two and the weak solution comes from the real
    cyclic quartic field above it.
    """
    ext = hamilton_over(hamilton(), sqrt2_field(), height_bound)
    # i and k act by the conjugation (Galois index 1), j trivially
    problem = EmbeddingProblem(quaternion_group(), ext,
                               [0, 0, 1, 1, 0, 0, 1, 1])
    split, _ = is_split(problem)

    # send the generator of the cyclic quartic group to i
    weak = quartic_solution(problem, _q8_power_of_i, 'weak', height_bound)
    quartic = weak.ext_big.center_field
    qgroup = automorphism_group(quartic)
    cyclic4 = len(qgroup) == 4 and sorted(g.order() for g in qgroup) == \
        [1, 2, 4, 4]
    sqrt2_up = weak.center_emb.gen_image
    gen4 = next(g for g in qgroup if g.order() == 4)
    contains_conj = gen4(sqrt2_up) == -sqrt2_up
    level = field_level(quartic, height_bound)

    weak_report = verify_solution(problem, weak)
    reduction = fiber_reduction(problem, weak)
    red_split, _ = is_split(reduction.problem)
    return Q8Report(
        problem=problem, split=split, weak=weak, weak_report=weak_report,
        reduction=reduction, quartic_group_cyclic=cyclic4,
        quartic_contains_conjugation=contains_conj,
        quartic_level=level.kind,
        kernel_order=len(problem.alpha.kernel()),
        reduced_order=reduction.problem.G.order,
        reduced_split=red_split,
        reduced_kernel_order=len(reduction.problem.alpha.kernel()),
        base_note=("rational base standing in for a complete ample one; "
                   "none of the verified facts use ampleness"))


def _q8_power_of_i(power):
    # indices in quaternion_group(): 1, -1, i, -i
    return {0: 0, 1: 2, 2: 1, 3: 3}[power % 4]
