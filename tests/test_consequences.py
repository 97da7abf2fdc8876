"""Consequences of checked hypotheses, proved by tests instead of per call.

The library checks a hypothesis once and takes what follows from it by a
one-line argument in the docstring of the routine that relies on it:

- ``build_twisted_extension``: a lift acts coefficientwise and its element
  commutes with the twist, so the lift is multiplicative, fixes the base
  polynomials and restricts to its element on constants;
- ``restriction_map``: every group element fixes i and j and the matched
  center actions agree on the small center, so the restriction agrees
  pointwise on the embedded small object;
- ``restrict_morphism``: the preimage of a root under an injective
  morphism is a root, so the restriction is a morphism.

These tests prove each consequence literally on every object the shipped
scenarios build, guard that the library no longer proves it on every
call, and keep every ``raise AssertionError`` left in ``src/`` classified.
"""

import ast
from pathlib import Path

import galois_compose_oracle as oracle
from skewfield import cli, fep, galois, numfield, ore, poly, qalg
from skewfield.galois import build_twisted_extension, restriction_between
from skewfield.numfield import (FieldMorphism, NumberField,
                                automorphism_group, cyclic_powers,
                                fixed_field, restrict_morphism)
from skewfield.ore import SkewPoly

FLAGS = {'height_bound': 8, 'degree_bound': 4, 'precision': 20}
SRC = Path(__file__).resolve().parent.parent / 'src' / 'skewfield'


def shipped_calls(monkeypatch, module, name):
    """(args, result) of each call of module.name while every shipped
    scenario runs, seen wherever the library binds that function; the
    test's patches are undone before it returns."""
    real = getattr(module, name)
    calls = []

    def record(*args):
        result = real(*args)
        calls.append((args, result))
        return result
    for mod in (cli, fep, galois, numfield):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, record)
    for scenario, text in sorted(cli.BUILTIN_SCENARIOS.items()):
        results = cli.run_scenario(cli.parse_scenario(text), dict(FLAGS))
        assert cli.exit_code(results) == 0, scenario
    monkeypatch.undo()
    return calls


def shipped_twisted(monkeypatch):
    """Each (twisted extension, degree bound) the shipped scenarios lift."""
    return [args for args, _ in
            shipped_calls(monkeypatch, galois, 'build_twisted_extension')]


# ---------------------------------------------------------------------------
# the lifts to L[t,tau]
# ---------------------------------------------------------------------------

def test_shipped_lifts_are_multiplicative_on_monomials_to_the_degree_bound(
        monkeypatch):
    """Both sides of lift(a b) = lift(a) lift(b) are bilinear over Q, so
    the Q-basis monomials x t^i, i up to the degree bound, prove it on
    every product of polynomials of that degree."""
    instances = shipped_twisted(monkeypatch)
    assert len(instances) == 3
    for X, degree_bound in instances:
        L, tau = X.ext.L, X.tau
        fn_ext = build_twisted_extension(X, degree_bound)
        monomials = [SkewPoly(tau, [L.zero()] * i + [x])
                     for i in range(degree_bound + 1) for x in L.q_basis()]
        base = [SkewPoly(tau, [L.zero()] * i + [X.ext.embed_base(x)])
                for i in range(degree_bound + 1) for x in X.ext.H.q_basis()]
        for rho, lift in zip(X.ext.group, fn_ext.lifts):
            assert fn_ext.restriction(lift) == rho
            images = [lift(m) for m in monomials]
            for a, lift_a in zip(monomials, images):
                for b, lift_b in zip(monomials, images):
                    assert lift(a * b) == lift_a * lift_b, (X, rho)
            assert all(lift(p) == p for p in base), (X, rho)
            assert all(lift(SkewPoly(tau, [x])).coefficient(0) == rho(x)
                       for x in L.q_basis()), (X, rho)


def test_lifting_multiplies_no_skew_polynomials(monkeypatch):
    instances = shipped_twisted(monkeypatch)
    products = []
    real = ore._twisted_convolution
    monkeypatch.setattr(ore, '_twisted_convolution',
                        lambda *args: products.append(args) or real(*args))
    for X, degree_bound in instances:
        assert build_twisted_extension(X, degree_bound).group_order() == 2
    assert len(instances) == 3 and products == []


# ---------------------------------------------------------------------------
# restriction maps
# ---------------------------------------------------------------------------

def test_shipped_restrictions_agree_pointwise(monkeypatch):
    """The pointwise check restriction_map dropped, run by the composing
    oracle on every restriction the shipped scenarios make."""
    calls = shipped_calls(monkeypatch, galois, 'restriction_map')
    kinds = set()
    for (big, small, witness), hom in calls:
        pointwise = oracle.restriction_map(
            big, small, witness,
            oracle.small_to_big(big, small, witness.emb_l0_big))
        assert all(hom(g) == pointwise[g] for g in big.group), (big, small)
        kinds.add((type(big).__name__, type(small).__name__))
    # the three embeddings of the small object restriction_between made
    assert kinds == {('GaloisExtension', 'GaloisExtension'),
                     ('GaloisExtension', 'CommExtension'),
                     ('CommExtension', 'CommExtension')}


def test_restriction_between_extends_no_quaternion_and_checks_no_morphism(
        monkeypatch):
    towers = [args for args, _ in
              shipped_calls(monkeypatch, galois, 'restriction_between')]
    assert towers
    extended, evaluated = [], []
    real_extend, real_evaluate = qalg.extend_quaternion, poly.evaluate
    for mod in (galois, qalg):
        monkeypatch.setattr(mod, 'extend_quaternion', lambda *args: (
            extended.append(args) or real_extend(*args)))
    monkeypatch.setattr(poly, 'evaluate', lambda p, x: (
        evaluated.append(p) or real_evaluate(p, x)))
    for big, small, center_emb in towers:
        restriction_between(big, small, center_emb)
        fields = (big.center_field, small.center_field, center_emb.source,
                  big.center_emb.source, small.center_emb.source)
        assert not [p for p in evaluated
                    if any(p == f.min_poly for f in fields)], (big, small)
    assert extended == []


# ---------------------------------------------------------------------------
# restricted morphisms
# ---------------------------------------------------------------------------

def test_restricted_morphisms_pass_the_morphism_certificate(monkeypatch):
    """Every restriction of the shipped scenarios, and every restriction of
    an automorphism to the fixed field of another on four Galois fields,
    equals its rebuild through the checking constructor.  A restriction
    is refused exactly when the conjugate of the fixing element generates
    another subgroup: the non-normal cubic subfields of the S3 sextic."""
    made = [(sigma, emb, r) for (sigma, emb), r in
            shipped_calls(monkeypatch, numfield, 'restrict_morphism')]
    assert made
    refused = 0
    for coeffs in ([-2, 0, 1], [2, 0, -4, 0, 1], [1, 0, -10, 0, 1],
                   [108, 0, 0, 0, 0, 0, 1]):
        field = NumberField(coeffs)
        autos = automorphism_group(field)
        for s in autos:
            _, emb = fixed_field(field, [s])
            powers = cyclic_powers(s)
            for sigma in autos:
                conjugate = sigma.compose(s).compose(sigma.inverse())
                if conjugate in powers:
                    made.append((sigma, emb, restrict_morphism(sigma, emb)))
                else:
                    refused += 1
                    try:
                        restrict_morphism(sigma, emb)
                    except ValueError:
                        continue
                    raise AssertionError("an unstable subfield restricted")
    assert refused == 12  # 3 transpositions, each moved by 4 elements
    for sigma, emb, r in made:
        assert r == FieldMorphism(r.source, r.target, r.gen_image)
        assert emb(r.gen_image) == sigma(emb(emb.source.gen()))


# ---------------------------------------------------------------------------
# the self-checks left in src/
# ---------------------------------------------------------------------------

# Every raise AssertionError in src/skewfield, by module and message, with
# its kind: 'certificate' (a printed verdict rests on it), 'consequence'
# (it follows from a check that stays; CHANGES.md gives the argument) or
# 'fault-injected' (a named test reaches it by breaking the library).
SELF_CHECKS = {
    ('fep', "fixed base field escaped the fixed extension field"):
        'consequence',
    ('fep', "restriction left the fixed-field group"): 'consequence',
    ('fep', "restriction to the fixed field is not bijective"): 'certificate',
    ('fep', "base center escaped the fixed field"): 'consequence',
    ('fep', "projection kernel does not cut the fixed field"): 'consequence',
    ('fep', "projected solution is not well-defined"): 'consequence',
    ('fep', "center embeddings do not chain"): 'consequence',
    ('fep', "small center escaped the fixed field"): 'consequence',
    ('fep', "transported solution failed verification: %s"): 'certificate',
    ('fep', "section does not split the reduction"): 'consequence',
    ('fep', "kernel isomorphism is not onto"): 'consequence',
    ('fep', "kernel isomorphism is not multiplicative"): 'consequence',
    ('galois', "extension group does not lead with identity"): 'certificate',
    ('galois', "two group elements share a center action"): 'certificate',
    ('galois', "extension group is not closed"): 'certificate',
    ('galois', "a group element moves i or j"): 'certificate',
    ('galois', "L is not H tensored with ell along emb"): 'certificate',
    ('galois', "group order times [h:Q] is not [ell:Q]"): 'certificate',
    ('galois', "a group element moves the base center"): 'certificate',
    ('galois', "center image escaped the fixed field"): 'consequence',
    ('galois', "constructed extension lost the product condition"):
        'consequence',
    ('numfield', "rounded candidate left its residue class"): 'consequence',
    ('numfield', "automorphism set not closed"): 'certificate',
    ('numfield', "fixed set lost the rationals"): 'consequence',
    ('numfield', "no primitive element found for the fixed field"):
        'consequence',
    ('numfield', "element has no minimal polynomial"): 'consequence',
    ('ore', "common right multiple construction failed"): 'fault-injected',
    ('ore', "fixed field degrees incompatible"): 'consequence',
    ('ore', "a spanning product is not a monomial"): 'fault-injected',
    ('qalg', "packed value overflowed its digits"): 'consequence',
    ('qalg', "structure constants not associative"): 'fault-injected',
}


def _raised_assertions(path):
    """(module, message) of each raise AssertionError(...) in the file; a
    %-formatted message is given by its format string."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, 'id', None) == 'AssertionError'):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.BinOp):
            message = message.left
        assert isinstance(message, ast.Constant), (path.name, node.lineno)
        yield path.stem, message.value


def test_every_self_check_in_src_is_classified():
    found = [check for path in sorted(SRC.glob('*.py'))
             for check in _raised_assertions(path)]
    assert len(found) == len(set(found))
    assert set(found) == set(SELF_CHECKS)
    assert set(SELF_CHECKS.values()) == {'certificate', 'consequence',
                                         'fault-injected'}
