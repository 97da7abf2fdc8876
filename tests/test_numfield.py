import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import prime_scan_roots_oracle
import sturm_rebuild_oracle
import sympy_roots_oracle
from poly_oracle import poly_divmod, poly_mul, poly_trim
from skewfield import numfield, poly, regressions, zfactor
from skewfield.linalg import rank, solve
from skewfield.numfield import (
    FieldMorphism, LevelVerdict, NumberField, automorphism_group,
    count_real_roots, field_level, fixed_field, is_galois,
    is_irreducible_over_q, isolate_real_roots, minimal_polynomial,
    restrict_morphism, roots_in_field, same_subfield, subfield_preimage)

Q = NumberField([0, 1], label='Q')
Q_SQRT2 = NumberField([-2, 0, 1], label='Q(sqrt2)')
Q_SQRT3 = NumberField([-3, 0, 1], label='Q(sqrt3)')
Q_I = NumberField([1, 0, 1], label='Q(i)')
Q_SQRTM2 = NumberField([2, 0, 1], label='Q(sqrt-2)')
Q_CBRT2 = NumberField([-2, 0, 0, 1], label='Q(cbrt2)')
# generator sqrt(2 + sqrt 2); x^4 - 4x^2 + 2
C4_FIELD = NumberField([2, 0, -4, 0, 1], label='Q(sqrt(2+sqrt2))')
# generator sqrt2 + sqrt3; x^4 - 10x^2 + 1
BIQUAD = NumberField([1, 0, -10, 0, 1], label='Q(sqrt2,sqrt3)')
# the minimal polynomial of sqrt2 + sqrt3 + sqrt5, group C2^3
C2_CUBED_OCTIC = [576, 0, -960, 0, 352, 0, -40, 0, 1]
X8_PLUS_2 = [2, 0, 0, 0, 0, 0, 0, 0, 1]
# x^8 + 9x^7 + 2x^5 - 7x^4 + 5x^2 - 3x + 1, no automorphism but the identity
NON_GALOIS_OCTIC = [1, -3, 5, 0, -7, 2, 0, 9, 1]
_ONE = Fraction(1)
ROOT = Path(__file__).resolve().parents[1]


def embed_q(field):
    return FieldMorphism(Q, field, field.zero())


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------

def test_construction_rejects_reducible():
    with pytest.raises(ValueError):
        NumberField([-1, 0, 1])  # x^2 - 1
    with pytest.raises(ValueError):
        NumberField([-4, 0, 1])  # x^2 - 4
    with pytest.raises(ValueError):
        NumberField([2, 3, 1])   # (x+1)(x+2)
    with pytest.raises(ValueError):
        NumberField([1, 0, 2, 0, 1])  # (x^2+1)^2 not squarefree


def test_construction_rejects_nonmonic_and_big():
    with pytest.raises(ValueError):
        NumberField([1, 0, 2])
    with pytest.raises(ValueError):
        NumberField([1] + [0] * 8 + [1])  # degree 9


def test_irreducibility_oracle_small_cases():
    assert is_irreducible_over_q([-2, 0, 1])
    assert is_irreducible_over_q([2, 0, -4, 0, 1])
    assert not is_irreducible_over_q([-1, 0, 0, 0, 1])  # x^4 - 1
    assert not is_irreducible_over_q([-4, 0, 1])        # (x-2)(x+2)
    assert not is_irreducible_over_q([0, 1, 1])         # x(x+1)


def test_irreducibility_x4_minus_10x2_plus_1():
    # min poly of sqrt2 + sqrt3 is irreducible even though it splits mod
    # every prime; trial factorization must still see it
    assert is_irreducible_over_q([1, 0, -10, 0, 1])


# ---------------------------------------------------------------------------
# field axioms on randomized triples
# ---------------------------------------------------------------------------

def test_field_axioms_randomized():
    rng = random.Random(20240811)
    fields = [Q_SQRT2, Q_I, C4_FIELD, BIQUAD]
    cases = 0
    while cases < 1000:
        fld = rng.choice(fields)
        def rnd():
            return fld.element([Fraction(rng.randint(-4, 4),
                                         rng.randint(1, 3))
                                for _ in range(fld.degree)])
        x, y, z = rnd(), rnd(), rnd()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == fld.one()
        cases += 1


def test_morphisms_preserve_ring_ops():
    rng = random.Random(7)
    for fld in (Q_SQRT2, Q_I, C4_FIELD):
        for sigma in fld.automorphisms():
            for _ in range(40):
                x = fld.element([rng.randint(-5, 5) for _ in range(fld.degree)])
                y = fld.element([rng.randint(-5, 5) for _ in range(fld.degree)])
                assert sigma(x + y) == sigma(x) + sigma(y)
                assert sigma(x * y) == sigma(x) * sigma(y)


def test_embeddings_preserve_ring_ops():
    rng = random.Random(8)
    emb = FieldMorphism(Q_SQRT2, C4_FIELD, C4_FIELD.element([-2, 0, 1]))
    for _ in range(60):
        x = Q_SQRT2.element([rng.randint(-5, 5), rng.randint(-5, 5)])
        y = Q_SQRT2.element([rng.randint(-5, 5), rng.randint(-5, 5)])
        assert emb(x + y) == emb(x) + emb(y)
        assert emb(x * y) == emb(x) * emb(y)
    assert emb(Q_SQRT2.one()) == C4_FIELD.one()


def test_level_verdict_constructor_guards():
    with pytest.raises(ValueError):
        LevelVerdict('finite', s=1, witness=[Q_I.zero()])  # zero entry
    with pytest.raises(ValueError):
        LevelVerdict('finite', s=1, witness=[Q_I.one()])   # sums to 1
    with pytest.raises(ValueError):
        LevelVerdict('infinite')                           # missing place
    good = LevelVerdict('finite', s=1, witness=[Q_I.gen()])
    assert good.s == 1


# ---------------------------------------------------------------------------
# automorphism groups
# ---------------------------------------------------------------------------

def test_quadratic_automorphisms():
    group = automorphism_group(Q_SQRT2, embed_q(Q_SQRT2))
    assert len(group) == 2
    images = {g.gen_image for g in group}
    assert Q_SQRT2.gen() in images
    assert -Q_SQRT2.gen() in images


def test_c4_field_group_is_cyclic_of_order_4():
    group = automorphism_group(C4_FIELD, embed_q(C4_FIELD))
    assert len(group) == 4
    orders = sorted(g.order() for g in group)
    assert orders == [1, 2, 4, 4]
    # the order-4 generator restricts to conjugation on the Q(sqrt2) inside:
    # sqrt2 = gen^2 - 2
    sqrt2 = C4_FIELD.element([-2, 0, 1])
    gen4 = next(g for g in group if g.order() == 4)
    assert gen4(sqrt2) == -sqrt2


def test_cubic_field_has_no_extra_automorphism():
    # independent oracle: x^3 - 2 has exactly one real root, and the field
    # has a real place, so at most one root can live inside it
    assert count_real_roots([-2, 0, 0, 1]) == 1
    assert len(Q_CBRT2.real_places()) >= 1
    group = automorphism_group(Q_CBRT2, embed_q(Q_CBRT2))
    assert len(group) == 1
    assert group[0].is_identity()


def test_group_size_divides_degree_and_closure():
    for fld in (Q_SQRT2, Q_I, Q_CBRT2, C4_FIELD, BIQUAD):
        group = automorphism_group(fld, embed_q(fld))
        assert fld.degree % len(group) == 0
        for a in group:
            assert a.inverse() in group
            for b in group:
                assert a.compose(b) in group


def test_automorphism_group_rejects_a_set_that_is_not_closed(monkeypatch):
    zeta8 = NumberField([1, 0, 0, 0, 1], label='Q(zeta8)')
    autos = zeta8.automorphisms()
    assert len(autos) == 4
    monkeypatch.setattr(NumberField, 'automorphisms',
                        lambda self: autos[:-1])
    with pytest.raises(AssertionError):
        automorphism_group(zeta8)


def test_automorphisms_evaluate_m_only_inside_roots_in_field(monkeypatch):
    # roots_in_field evaluates m exactly at every root it returns, and gen is
    # a root by definition: building the morphisms evaluates m again nowhere
    calls = []
    evaluate = poly.evaluate

    def counted(coeffs, elem):
        calls.append(elem)
        return evaluate(coeffs, elem)
    monkeypatch.setattr(poly, 'evaluate', counted)
    quartic = [2, 0, -4, 0, 1]
    roots = roots_in_field(quartic, NumberField(quartic))
    searched = len(calls)
    calls.clear()
    field = NumberField(quartic)
    autos = field.automorphisms()
    assert len(calls) == searched > 0
    assert [a.gen_image.coords for a in autos][1:] == sorted(
        r.coords for r in roots if r.coords != field.gen().coords)
    calls.clear()
    assert field.identity_morphism().is_identity()
    assert calls == []


def test_relative_automorphism_group():
    # Gal(biquad / Q(sqrt2)) has order 2
    sqrt2_in = BIQUAD.element([0, Fraction(-9, 2), 0, Fraction(1, 2)])
    assert sqrt2_in * sqrt2_in == BIQUAD.scalar(2)
    emb = FieldMorphism(Q_SQRT2, BIQUAD, sqrt2_in)
    group = automorphism_group(BIQUAD, emb)
    assert len(group) == 2


def test_roots_in_field_counts():
    assert len(roots_in_field([-2, 0, 1], Q_SQRT2)) == 2
    assert len(roots_in_field([-2, 0, 1], Q_I)) == 0
    assert len(roots_in_field([1, 0, 1], Q_I)) == 2
    assert len(roots_in_field([-2, 0, 1], C4_FIELD)) == 2
    assert len(roots_in_field([2, 0, -4, 0, 1], C4_FIELD)) == 4


def _oracle_cases():
    """(polynomial, field) pairs for the comparison with sympy."""
    q2 = regressions.sqrt2_field()
    fields = [regressions.hamilton().base, q2,
              regressions.cyclic_quartic(q2).target,
              regressions.biquadratic(q2).target]
    fields += [NumberField(poly, label=name)
               for name, poly, _, _ in regressions.DL2_MATRIX]
    rng = random.Random(9)
    for degree in range(2, 7):
        drawn = 0
        while drawn < 3:
            coeffs = [rng.randint(-5, 5) for _ in range(degree)] + [1]
            if is_irreducible_over_q(coeffs):
                fields.append(NumberField(coeffs))
                drawn += 1
    fields += [NumberField(C2_CUBED_OCTIC), NumberField(X8_PLUS_2)]
    cases = [(field.min_poly, field) for field in fields]
    cases += [([-2, 0, 1], C4_FIELD), ([-2, 0, 1], Q_I),
              ([Fraction(-1, 3), 0, Fraction(2, 3)], Q_SQRT2),
              ([Fraction(-3, 2), Fraction(1, 4), 3], Q),
              ([4, 0, -4, 0, 1], Q_SQRT2)]
    return cases


def test_roots_match_the_sympy_oracle():
    for coeffs, field in _oracle_cases():
        got = [r.coords for r in roots_in_field(coeffs, field)]
        want = [r.coords for r in sympy_roots_oracle.roots_in_field(coeffs, field)]
        assert got == want, (coeffs, field)


def test_bound_certificate_refutes_residues(monkeypatch):
    # x^3 - 2 splits modulo 31 (roots 4, 7, 20) while Q(cbrt2) holds one
    # root; the first try leaves 7 and 20, and only the bound refutes them.
    lattices = []
    reduce_lattice = numfield._lll
    monkeypatch.setattr(numfield, '_lll',
                        lambda basis: lattices.append(basis[0][0])
                        or reduce_lattice(basis))
    roots, refuted = numfield._roots_at_prime([-2, 0, 0, 1], Q_CBRT2, 31)
    assert roots == [Q_CBRT2.gen()]
    assert refuted == [7, 20]
    assert len(lattices) == 2 and lattices[0] < lattices[1]
    # at the prime the search picks, the count certificate closes the list
    lattices.clear()
    assert roots_in_field([-2, 0, 0, 1], Q_CBRT2) == [Q_CBRT2.gen()]
    assert len(lattices) == 1


def test_corrupted_candidate_raises(monkeypatch):
    reduce_lattice = numfield._lll

    def corrupted(basis):
        rows, nearest = reduce_lattice(basis)

        def off_by_one(t):
            u = nearest(t)
            return [u[0] + 1] + u[1:]
        return rows, off_by_one

    monkeypatch.setattr(numfield, '_lll', corrupted)
    with pytest.raises(AssertionError):
        roots_in_field([2, 0, -4, 0, 1], C4_FIELD)


def test_lll_reduces_and_keeps_the_lattice():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 6)
        basis = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
                 for _ in range(n)]
        if rank(basis) < n:
            continue
        reduced, nearest = numfield._lll(basis)
        # the same lattice: each basis writes the other with integer coordinates
        for old, new in ((basis, reduced), (reduced, basis)):
            for row in old:
                coords = solve([list(col) for col in zip(*new)], row, n)
                assert all(c.denominator == 1 for c in coords)
        star, mu = [], {}
        for i, row in enumerate(reduced):
            v = [Fraction(x) for x in row]
            for j, w in enumerate(star):
                mu[i, j] = _dot(row, w) / _dot(w, w)
                v = [x - mu[i, j] * y for x, y in zip(v, w)]
            star.append(v)
        assert all(abs(m) <= Fraction(1, 2) for m in mu.values())
        for k in range(1, n):
            assert _dot(star[k], star[k]) >= (Fraction(3, 4) - mu[k, k - 1] ** 2) \
                * _dot(star[k - 1], star[k - 1])
        # nearest plane: the same coset, Gram-Schmidt coordinates at most 1/2
        t = [rng.randint(-10 ** 8, 10 ** 8) for _ in range(n)]
        u = nearest(t)
        shift = solve([list(col) for col in zip(*reduced)],
                      [x - y for x, y in zip(t, u)], n)
        assert all(c.denominator == 1 for c in shift)
        assert all(abs(_dot(u, w) / _dot(w, w)) <= Fraction(1, 2) for w in star)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def test_roots_in_field_imports_no_sympy():
    script = (
        "import sys\n"
        "import skewfield\n"
        "from skewfield import cli\n"
        "assert len(skewfield.NumberField([1, 0, 0, 0, 1]).automorphisms()) == 4\n"
        "assert cli.main(['run', 'scenarios/q8.scn']) == 0\n"
        "assert 'sympy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / 'src')] + sys.path))
    done = subprocess.run([sys.executable, '-c', script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _prime_scan_cases():
    """(polynomial, field) pairs for the comparison with the prime-scan
    oracle: fields of degree 1 to 8, Galois or not, each with f = m, the
    minimal polynomial of an element, a product with a rational root and a
    random polynomial, which mostly has no root."""
    fixed = [[0, 1], [-2, 0, 1], [1, 0, 1], [-2, 0, 0, 1], [1, -3, 0, 1],
             [-2, 0, 0, 0, 1], [2, 0, -4, 0, 1], [1, 0, -10, 0, 1],
             [1, 1, 1, 1, 1], [1, 0, 0, 1, 0, 0, 1], [-2, 0, 0, 0, 0, 0, 0, 1],
             C2_CUBED_OCTIC, NON_GALOIS_OCTIC]
    fields = [NumberField(m) for m in fixed]
    rng = random.Random(22)
    for degree in range(1, 8):
        drawn = 0
        while drawn < 2:
            m = [rng.randint(-4, 4) for _ in range(degree)] + [1]
            if is_irreducible_over_q(m):
                fields.append(NumberField(m))
                drawn += 1
    rng = random.Random(23)
    for field in fields:
        yield list(field.min_poly), field
        for _ in range(7):
            kind = rng.randrange(3)
            if kind == 0 and field.degree <= 4:
                f = minimal_polynomial(field.element(
                    [rng.randint(-2, 2) for _ in range(field.degree)]))
            elif kind == 1:
                f = poly_mul([Fraction(rng.randint(-3, 3)),
                              Fraction(rng.choice([1, 2]))],
                             [Fraction(rng.randint(-5, 5))
                              for _ in range(rng.randint(1, 3))] + [_ONE])
            else:
                f = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] \
                    + [rng.randint(1, 3)]
            yield f, field


def test_roots_match_the_prime_scan_oracle():
    cases = list(_prime_scan_cases())
    assert len(cases) >= 200
    empty = 0
    for coeffs, field in cases:
        got = [r.coords for r in roots_in_field(coeffs, field)]
        want = [r.coords for r in prime_scan_roots_oracle.roots_in_field(
            coeffs, field)]
        assert got == want, (coeffs, field)
        empty += not got
    assert empty >= 20


def test_roots_at_a_given_prime_match_the_oracle():
    # at a prime it is handed, the search keeps both lattice tries
    for coeffs, field, p in (([-2, 0, 0, 1], Q_CBRT2, 31),
                             ([2, 0, -4, 0, 1], C4_FIELD, 17),
                             ([-2, 0, 1], C4_FIELD, 17),
                             ([1, 0, 1], Q_I, 5),
                             (NON_GALOIS_OCTIC, NumberField(NON_GALOIS_OCTIC), 5)):
        roots, refuted = numfield._roots_at_prime(coeffs, field, p)
        want, want_refuted = prime_scan_roots_oracle._roots_at_prime(
            coeffs, field, p)
        assert [r.coords for r in roots] == [r.coords for r in want]
        assert refuted == want_refuted


def test_count_at_a_second_prime_closes_the_octic(monkeypatch):
    # the octic has one automorphism; modulo 5 it has more roots, so the
    # first lattice leaves candidates open, and modulo 13 it has one root,
    # so that count closes the list without the full-bound lattice
    field = NumberField(NON_GALOIS_OCTIC)
    want = [r.coords for r in prime_scan_roots_oracle.roots_in_field(
        NON_GALOIS_OCTIC, field)]
    lattices = []
    reduce_lattice = numfield._lll
    monkeypatch.setattr(numfield, '_lll',
                        lambda basis: lattices.append(basis[0][0])
                        or reduce_lattice(basis))
    assert [r.coords for r in roots_in_field(NON_GALOIS_OCTIC, field)] == want
    assert want == [field.gen().coords]
    assert len(lattices) == 1


def test_one_split_per_prime_when_f_is_m(monkeypatch):
    primes, splits = [], []
    part, roots_mod = zfactor.linear_part, zfactor.roots_mod

    def counted_part(f, p):
        primes.append(p)
        return part(f, p)

    def counted_roots(f, p, g=None):
        splits.append(p)
        return roots_mod(f, p, g)
    monkeypatch.setattr(zfactor, 'linear_part', counted_part)
    monkeypatch.setattr(numfield, 'linear_part', counted_part)
    monkeypatch.setattr(numfield, 'roots_mod', counted_roots)
    for poly in ([-2, 0, 1], [2, 0, -4, 0, 1], [1, 0, -10, 0, 1],
                 C2_CUBED_OCTIC, X8_PLUS_2, [-2, 0, 0, 1], NON_GALOIS_OCTIC):
        field = NumberField(poly)
        primes.clear()
        splits.clear()
        roots_in_field(poly, field)
        assert len(primes) == len(set(primes)), poly
        assert len(splits) == 1, poly
    # x^3 - 2 is not squarefree modulo 3 and has one root modulo 5: the scan
    # stops there, as no prime can show fewer roots of m
    primes.clear()
    assert roots_in_field([-2, 0, 0, 1], Q_CBRT2) == [Q_CBRT2.gen()]
    assert primes == [3, 5]


def test_a_fully_split_first_prime_ends_the_scan_for_m(monkeypatch):
    # x^4 - 4x^2 + 2 is Galois, so its first good prime, 17, shows all four
    # roots and no later prime can show fewer; the scan used to split m at
    # the second good prime, 31, as well
    primes = []
    part = zfactor.linear_part
    monkeypatch.setattr(numfield, 'linear_part',
                        lambda f, p: primes.append(p) or part(f, p))
    quartic = [2, 0, -4, 0, 1]
    roots = roots_in_field(quartic, NumberField(quartic))
    assert len(roots) == 4
    assert primes == [3, 5, 7, 11, 13, 17]


# ---------------------------------------------------------------------------
# fixed fields
# ---------------------------------------------------------------------------

def test_fixed_field_of_conjugation_is_q():
    group = automorphism_group(Q_SQRT2, embed_q(Q_SQRT2))
    conj = next(g for g in group if not g.is_identity())
    sub, emb = fixed_field(Q_SQRT2, [conj])
    assert sub.degree == 1
    assert same_subfield(emb, embed_q(Q_SQRT2))


def test_fixed_field_of_c4_square_is_q_sqrt2():
    group = automorphism_group(C4_FIELD, embed_q(C4_FIELD))
    gen4 = next(g for g in group if g.order() == 4)
    sq = gen4.compose(gen4)
    sub, emb = fixed_field(C4_FIELD, [sq])
    assert sub.degree == 2
    sqrt2 = C4_FIELD.element([-2, 0, 1])
    emb2 = FieldMorphism(Q_SQRT2, C4_FIELD, sqrt2)
    assert same_subfield(emb, emb2)


def test_fixed_field_of_identity_is_whole_field():
    sub, emb = fixed_field(Q_SQRT2, [Q_SQRT2.identity_morphism()])
    assert sub.degree == 2
    assert same_subfield(emb, Q_SQRT2.identity_morphism())


def test_artin_property_on_galois_corpus():
    for fld in (Q_SQRT2, Q_I, C4_FIELD, BIQUAD):
        group = automorphism_group(fld, embed_q(fld))
        assert len(group) == fld.degree  # all Galois over Q
        sub, emb = fixed_field(fld, group)
        assert sub.degree == 1
        assert same_subfield(emb, embed_q(fld))


def test_subfield_preimage_and_restriction():
    sqrt2 = C4_FIELD.element([-2, 0, 1])
    emb = FieldMorphism(Q_SQRT2, C4_FIELD, sqrt2)
    pre = subfield_preimage(emb, sqrt2 * sqrt2 + 3)
    assert pre == Q_SQRT2.scalar(5)
    gen4 = next(g for g in automorphism_group(C4_FIELD) if g.order() == 4)
    res = restrict_morphism(gen4, emb)
    assert res.gen_image == -Q_SQRT2.gen()


# ---------------------------------------------------------------------------
# Galois predicate
# ---------------------------------------------------------------------------

def test_is_galois():
    assert is_galois(Q_SQRT2, embed_q(Q_SQRT2))
    assert not is_galois(Q_CBRT2, embed_q(Q_CBRT2))
    assert is_galois(C4_FIELD, embed_q(C4_FIELD))
    assert is_galois(BIQUAD, embed_q(BIQUAD))


# ---------------------------------------------------------------------------
# Sturm machinery and level
# ---------------------------------------------------------------------------

def test_real_root_counts():
    assert count_real_roots([-2, 0, 1]) == 2
    assert count_real_roots([1, 0, 1]) == 0
    assert count_real_roots([2, 0, -4, 0, 1]) == 4
    assert count_real_roots([2, 0, 1]) == 0


def test_isolation_separates_roots():
    ivs = isolate_real_roots([2, 0, -4, 0, 1])
    assert len(ivs) == 4
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        assert b1 <= a2


def test_intervals_and_signs_match_the_sturm_oracle():
    rng = random.Random(31)
    polys = []
    while len(polys) < 100:
        poly = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                for _ in range(rng.randint(1, 8))] + [Fraction(rng.randint(1, 4))]
        polys.append(poly)
        assert isolate_real_roots(poly) == sturm_rebuild_oracle.isolate_real_roots(poly)
    places = [place for m in ([-2, 0, 1], [-2, 0, 0, 1], [2, 0, -4, 0, 1],
                              [1, 0, -10, 0, 1], [1, -3, 0, 1], C2_CUBED_OCTIC,
                              NON_GALOIS_OCTIC)
              for place in NumberField(m).real_places()]
    signs = 0
    for place in places:
        field = place.field
        for _ in range(15):
            elem = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                  for _ in range(field.degree)])
            assert place.sign(elem) == sturm_rebuild_oracle.sign(place, elem)
            signs += 1
        lo, hi = place.lo, place.hi
        for _ in range(5):
            want = sturm_rebuild_oracle.refine_root_interval(
                list(field.min_poly), lo, hi)
            lo, hi = numfield.refine_root_interval(list(field.min_poly), lo, hi)
            assert (lo, hi) == want
    assert signs >= 100


def test_one_sturm_chain_per_call(monkeypatch):
    chains = []
    build = numfield.sturm_chain
    monkeypatch.setattr(numfield, 'sturm_chain',
                        lambda p: chains.append(p) or build(p))
    assert len(isolate_real_roots(C2_CUBED_OCTIC)) == 8
    assert len(chains) == 1
    place = NumberField(C2_CUBED_OCTIC).real_places()[0]
    chains.clear()
    # the first place sends the generator to -(sqrt2 + sqrt3 + sqrt5), about
    # -5.3823, so telling the sign of gen + 5.38 takes refinement steps
    elem = place.field.gen() + Fraction(538, 100)
    assert place.sign(elem) == sturm_rebuild_oracle.sign(place, elem)
    assert len(chains) == 2


def test_level_gaussian_rationals():
    verdict = field_level(Q_I, 5)
    assert verdict.kind == 'finite' and verdict.s == 1
    assert verdict.witness[0] * verdict.witness[0] == Q_I.scalar(-1)


def test_level_q_sqrt_minus2_is_two():
    verdict = field_level(Q_SQRTM2, 5)
    assert verdict.kind == 'finite' and verdict.s == 2
    total = sum((w * w for w in verdict.witness), Q_SQRTM2.zero())
    assert total == Q_SQRTM2.scalar(-1)


def test_level_real_fields_infinite():
    for fld in (Q, Q_SQRT2, C4_FIELD, Q_CBRT2):
        verdict = field_level(fld, 3)
        assert verdict.kind == 'infinite'
        assert verdict.place is not None


def test_finite_levels_are_powers_of_two():
    for fld, bound in ((Q_I, 4), (Q_SQRTM2, 4)):
        verdict = field_level(fld, bound)
        if verdict.kind == 'finite':
            assert verdict.s in (1, 2, 4)


def test_minimal_polynomial_of_generator():
    assert minimal_polynomial(C4_FIELD.gen()) == list(map(Fraction, [2, 0, -4, 0, 1]))
    assert minimal_polynomial(Q_SQRT2.scalar(3)) == [Fraction(-3), Fraction(1)]


# ---------------------------------------------------------------------------
# integer element core against a plain-Fraction reference
# ---------------------------------------------------------------------------

Q_8RT2 = NumberField([-2, 0, 0, 0, 0, 0, 0, 0, 1], label='Q(2^(1/8))')
Q_4RT2 = NumberField([-2, 0, 0, 0, 1], label='Q(2^(1/4))')


def _ref_reduce(fld, poly):
    rem = poly_divmod(poly_trim(poly), list(fld.min_poly))[1]
    return tuple(rem) + (Fraction(0),) * (fld.degree - len(rem))


def _ref_mul(fld, x, y):
    return _ref_reduce(fld, poly_mul(list(x), list(y)))


def _ref_apply(mor, coords):
    # Horner in the target: sum of c_i * gen_image^i
    g = mor.gen_image.coords
    acc = (Fraction(0),) * mor.target.degree
    for c in reversed(coords):
        acc = _ref_mul(mor.target, acc, g)
        acc = (acc[0] + c,) + acc[1:]
    return acc


def _random_coords(rng, n):
    # non-integral rationals, zeros and integers mixed
    return [rng.choice([Fraction(0), Fraction(rng.randint(-9, 9)),
                        Fraction(rng.randint(-40, 40), rng.randint(1, 12))])
            for _ in range(n)]


def _assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int for c in x.num)
    assert len(x.num) == x.field.degree
    assert gcd(x.den, *x.num) == 1


DIFFERENTIAL_FIELDS = [Q, Q_SQRT2, C4_FIELD, BIQUAD, Q_8RT2]


@pytest.mark.parametrize('fld', DIFFERENTIAL_FIELDS,
                         ids=[f.label for f in DIFFERENTIAL_FIELDS])
def test_integer_arithmetic_matches_fraction_reference(fld):
    rng = random.Random(4000 + fld.degree)
    n = fld.degree
    for _ in range(60):
        xs, ys = _random_coords(rng, n), _random_coords(rng, n)
        x, y = fld.element(xs), fld.element(ys)
        assert x.coords == tuple(xs)
        assert (x + y).coords == tuple(a + b for a, b in zip(xs, ys))
        assert (x - y).coords == tuple(a - b for a, b in zip(xs, ys))
        assert (-x).coords == tuple(-a for a in xs)
        assert (x * y).coords == _ref_mul(fld, xs, ys)
        for z in (x + y, x - y, x * y):
            _assert_canonical(z)
        if any(xs):
            inv = x.inverse()
            _assert_canonical(inv)
            assert _ref_mul(fld, xs, inv.coords) == _ref_reduce(fld, [Fraction(1)])


MORPHISMS = [
    ('c4_generator', next(g for g in automorphism_group(C4_FIELD)
                          if g.order() == 4)),
    ('biquad_auto', next(g for g in automorphism_group(BIQUAD)
                         if not g.is_identity())),
    ('q_into_c4', embed_q(C4_FIELD)),
    ('sqrt2_into_biquad', FieldMorphism(
        Q_SQRT2, BIQUAD, BIQUAD.element([0, Fraction(-9, 2), 0,
                                         Fraction(1, 2)]))),
    ('4rt2_into_8rt2', FieldMorphism(Q_4RT2, Q_8RT2, Q_8RT2.element([0, 0, 1]))),
    ('8rt2_negation', FieldMorphism(Q_8RT2, Q_8RT2, -Q_8RT2.gen())),
]


@pytest.mark.parametrize('name, mor', MORPHISMS,
                         ids=[name for name, _ in MORPHISMS])
def test_morphism_application_matches_fraction_reference(name, mor):
    rng = random.Random(name)
    for _ in range(40):
        xs = _random_coords(rng, mor.source.degree)
        image = mor(mor.source.element(xs))
        _assert_canonical(image)
        assert image.coords == _ref_apply(mor, xs)
    rows, den = mor.int_matrix()
    cols = [[Fraction(x, den) for x in c] for c in zip(*rows)]
    assert cols == mor.image_basis()
    assert cols[0] == list(mor.target.one().coords)


def test_canonical_form_and_hash_agree_across_constructions():
    for fld in DIFFERENTIAL_FIELDS:
        zero = fld.zero()
        assert zero.num == (0,) * fld.degree and zero.den == 1
        x = fld.element([Fraction(3, 4)] * fld.degree)
        assert (x - x).num == zero.num and (x - x).den == 1
        assert fld.element([Fraction(0, 5)]).den == 1
    half = Q_SQRT2.element([Fraction(2, 4), Fraction(6, 2)])
    same = [Q_SQRT2.element([Fraction(1, 2), 3]),
            Q_SQRT2.element(['1/2', '3']),
            Q_SQRT2.element([1, 6]) * Fraction(1, 2),
            Q_SQRT2.element([1, 6]) * Q_SQRT2.scalar(2).inverse(),
            Q_SQRT2.scalar(Fraction(1, 2)) + 3 * Q_SQRT2.gen()]
    assert half.num == (1, 6) and half.den == 2
    for y in same:
        _assert_canonical(y)
        assert y == half and hash(y) == hash(half)
        assert (y.num, y.den) == (half.num, half.den)
    assert len({half, *same}) == 1
    three = Q.scalar(3)
    assert three == Q.element([Fraction(6, 2)]) == 3
    assert hash(three) == hash(Q.scalar(Fraction(9, 3)))
    assert all(type(c) is Fraction for c in half.coords)
    assert half.coords == (Fraction(1, 2), Fraction(3))
