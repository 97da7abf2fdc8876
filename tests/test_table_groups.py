"""Table groups on cheap certificates against the exhaustive oracle.

``FiniteGroup`` tests associativity by Light's test on one generating set,
``GroupHom`` checks its images on the source generators, ``subgroups``
builds each subgroup once from its canonical parent by Dimino's coset
extension, ``direct_product`` builds its table row by row and
``is_split`` closes choices of preimages of the Galois generators.  Each
must agree with the n^3 table check, the full n^2 homomorphism check, the
breadth-first lattice, the coset lattice with duplicates, the walk that
skips seen cosets, the entry-by-entry product table and the lattice walk
of ``table_group_oracle``: on every bench
and catalog group, direct products, fiber-reduction tables and seeded
corruptions of them, on seeded relabellings of the bench and catalog
groups and three non-abelian groups of order 64, and on every bench,
catalog, shipped and bundled embedding problem.
"""

import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from api_oracle import is_abelian
from regressions import (hamilton, hamilton_over, q8_scenario,
                         quartic_solution, sqrt2_field)
import table_group_oracle as oracle
from skewfield import cli, fep, galois
from skewfield.fep import (EmbeddingProblem, FiniteGroup, GalData, GroupHom,
                           cyclic_group, dihedral_group, direct_product,
                           fiber_reduction, quaternion_group)
from skewfield.galois import _generating_subset
from skewfield.numfield import NumberField

WORKLOADS = Path(__file__).resolve().parents[1] / 'bench' / 'workloads.py'


def _load_workloads():
    spec = importlib.util.spec_from_file_location('bench_workloads',
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _load_workloads()
BENCH_GROUPS = {label: make() for label, make, _, _ in BENCH.GROUPS}
CATALOG = {name: make() for name, (make, _) in cli.GROUP_CATALOG.items()}
FACTORS = {
    'D16xZ2': (dihedral_group(8), cyclic_group(2)),
    'Q8xZ2^2': (quaternion_group(), CATALOG['z2xz2']),
    'Z4^3': (cyclic_group(4), BENCH_GROUPS['Z4xZ4']),
    'Q8xQ8': (quaternion_group(), quaternion_group()),
    'D8xZ8': (dihedral_group(4), cyclic_group(8)),
    'Z3xD8': (cyclic_group(3), dihedral_group(4)),
}
PRODUCTS = {label: direct_product(a, b) for label, (a, b) in FACTORS.items()}
TRIVIAL = FiniteGroup([[0]])


def _accepts(check, *args):
    try:
        check(*args)
    except ValueError:
        return False
    return True


def _rejection(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# splitness problems: bench, catalog, shipped and bundled
# ---------------------------------------------------------------------------

def _bench_split_problems(monkeypatch):
    """The problems of the bench's is_split items, caught as they are posed."""
    H = hamilton()
    exts = {}
    for label, poly in (('q2', BENCH.DL2_FIELDS['q2']),
                        ('quartic', BENCH.DL2_FIELDS['quartic']),
                        ('biquad', BENCH.BIQUAD)):
        K = NumberField(poly, label=label)
        ext = galois.build_galois_extension(H, K, BENCH._embed_q(K))
        exts[label] = (ext, GalData(ext))
    stub = SimpleNamespace(exts=exts, items=[])
    BENCH.Search._split_items(stub)
    posed = []
    real = fep.is_split
    monkeypatch.setattr(fep, 'is_split',
                        lambda problem: posed.append(problem) or real(problem))
    for item in stub.items:
        item.run()
    assert len(posed) == len(stub.items) == 10
    return posed, exts


def _catalog_problems(exts):
    """Every assignment of Galois elements to a catalog group's generators,
    posed as a problem; those that are no surjective homomorphism are
    returned apart, with their images."""
    problems, refused = [], []
    for name, (_, gens) in sorted(cli.GROUP_CATALOG.items()):
        G = CATALOG[name]
        for ext, gal in exts.values():
            n = gal.group.order
            for choice in range(n ** len(gens)):
                assignment = {g: choice // n ** k % n
                              for k, g in enumerate(gens.values())}
                images = cli._extend_hom(G, assignment, gal.group)
                try:
                    problems.append(EmbeddingProblem(G, ext, images, gal))
                except ValueError:
                    refused.append((G, gal.group, images))
    return problems, refused


def _bundled_problems():
    """The problems of the q8 scenario, the fiber regression and the round
    trips, with their fiber reductions, and the solutions met on the way."""
    report = q8_scenario()
    ext = hamilton_over(hamilton(), sqrt2_field())
    c4 = EmbeddingProblem(cyclic_group(4), ext, [0, 1, 0, 1])
    c4_solution = quartic_solution(c4)
    problems = [report.problem, report.reduction.problem, c4,
                fiber_reduction(c4, c4_solution).problem,
                EmbeddingProblem(cyclic_group(2), ext, [0, 1])]
    with open(Path(__file__).resolve().parents[1] / 'scenarios'
              / 'q8.scn') as handle:
        ws = cli.Workspace(cli.parse_scenario(handle.read()),
                           {'height_bound': 20, 'degree_bound': 4,
                            'precision': 30})
    problems += ws.named['problem'].values()
    solutions = [report.weak, c4_solution,
                 *(sol for _, sol in ws.named['solution'].values())]
    return problems, solutions


@pytest.fixture(scope='module')
def split_problems():
    with pytest.MonkeyPatch.context() as monkeypatch:
        bench, exts = _bench_split_problems(monkeypatch)
    catalog, refused = _catalog_problems(exts)
    bundled, solutions = _bundled_problems()
    return SimpleNamespace(bench=bench, catalog=catalog, refused=refused,
                           bundled=bundled, solutions=solutions, exts=exts)


# ---------------------------------------------------------------------------
# table check
# ---------------------------------------------------------------------------

def _valid_groups(split_problems):
    groups = [TRIVIAL, *BENCH_GROUPS.values(), *CATALOG.values(),
              *PRODUCTS.values()]
    groups += [p.G for p in split_problems.bundled]
    return groups


def test_table_check_agrees_on_valid_tables(split_problems):
    for G in _valid_groups(split_problems):
        oracle.check_table(G.table)
        rebuilt = FiniteGroup(G.table)
        assert rebuilt.generators == tuple(_generating_subset(G.table))
        assert all(G.op(a, G.inv(a)) == 0 for a in range(G.order))
        assert is_abelian(G) == all(
            G.op(a, b) == G.op(b, a)
            for a in range(G.order) for b in range(G.order))


def _relabel(table, perm):
    """The same group with element a renamed perm[a]."""
    out = [[None] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[perm[a]][perm[b]] = perm[c]
    return out


def _corruptions(G, rng):
    """(kind, table) pairs: one swapped entry, a missing inverse, the
    identity moved off index 0, and an intercalate swap, which keeps the
    Latin square and the identity."""
    n = G.order
    table = [list(row) for row in G.table]
    (i, j), (k, m) = [(rng.randrange(1, n), rng.randrange(1, n))
                      for _ in range(2)]
    swapped = [row[:] for row in table]
    swapped[i][j], swapped[k][m] = swapped[k][m], swapped[i][j]
    yield 'swap', swapped
    a = rng.randrange(1, n)
    missing = [row[:] for row in table]
    missing[a][G.inv(a)] = G.op(a, a) if G.op(a, a) else a
    yield 'inverse', missing
    perm = list(range(n))
    rng.shuffle(perm)
    if perm[0] == 0:
        perm[0], perm[1] = perm[1], perm[0]
    yield 'identity', _relabel(table, perm)
    # rows a, b and columns c, d with a*c = b*d and a*d = b*c, sought
    # among a hundred seeded triples
    for _ in range(100):
        a, b, c = (rng.randrange(1, n) for _ in range(3))
        d = table[G.inv(b)][table[a][c]]
        if a != b and d not in (0, c) and table[a][d] == table[b][c]:
            latin = [row[:] for row in table]
            latin[a][c], latin[a][d] = latin[a][d], latin[a][c]
            latin[b][c], latin[b][d] = latin[b][d], latin[b][c]
            yield 'latin', latin
            break


def test_table_check_rejects_what_the_oracle_rejects(split_problems):
    rng = random.Random(7)
    seen = {}
    for G in _valid_groups(split_problems)[1:]:
        for _ in range(3):
            for kind, table in _corruptions(G, rng):
                new = _rejection(FiniteGroup, table)
                old = _rejection(oracle.check_table, table)
                assert (new is None) == (old is None), (G, kind, new, old)
                if kind in ('inverse', 'identity'):
                    assert new == old, (G, kind)
                seen.setdefault(kind, set()).add(old)
    # every kind was met, and some intercalate swaps leave a non-group
    assert set(seen) == {'swap', 'inverse', 'identity', 'latin'}
    assert "table is not associative" in seen['latin']
    assert "table is not associative" in seen['swap']


def _is_latin(table):
    """Every row and every column a permutation of range(len(table))."""
    elements = list(range(len(table)))
    return all(sorted(line) == elements for line in [*table, *zip(*table)])


def test_every_accepted_table_is_a_latin_square(split_problems):
    """FiniteGroup checks no Latin square: an identity, an inverse in every
    row and associativity make a group, whose rows and columns are
    permutations.  So no table it accepts may break the Latin square, while
    some tables it refuses do."""
    rng = random.Random(7)
    accepted, refused = {}, []
    for G in _valid_groups(split_problems)[1:]:
        for _ in range(3):
            for kind, table in _corruptions(G, rng):
                if _accepts(FiniteGroup, table):
                    accepted.setdefault(kind, []).append(table)
                else:
                    refused.append(table)
    assert 'latin' in accepted
    assert any(not _is_latin(table) for table in refused)
    groups = [*_valid_groups(split_problems),
              *_relabelled_and_non_abelian(random.Random(17)).values()]
    problems = (split_problems.bench + split_problems.catalog
                + split_problems.bundled)
    gals = [gal for _, gal in split_problems.exts.values()]
    gals += [p.gal for p in problems]
    gals += [sol.gal_big for sol in split_problems.solutions]
    tables = [table for tables in accepted.values() for table in tables]
    tables += [G.table for G in groups]
    tables += [gal.group.table for gal in gals]
    for table in tables:
        assert _is_latin(table)


def test_orders_past_the_cap_are_refused_before_a_table_is_built(
        monkeypatch):
    z16, z8 = cyclic_group(16), cyclic_group(8)
    reached = []
    real = fep.FiniteGroup
    monkeypatch.setattr(fep, 'FiniteGroup', lambda *args, **kw: (
        reached.append(None) or real(*args, **kw)))
    for build in (lambda: cyclic_group(65), lambda: direct_product(z16, z8),
                  lambda: direct_product(z8, z16)):
        with pytest.raises(ValueError, match='group order above 64'):
            build()
    for n in (0, -1):
        with pytest.raises(ValueError, match='empty multiplication table'):
            cyclic_group(n)
    assert reached == []
    assert direct_product(z8, z8).order == 64 and len(reached) == 1


def test_direct_product_agrees_with_the_entry_by_entry_table():
    for label, (a, b) in FACTORS.items():
        assert list(map(list, PRODUCTS[label].table)) == \
            oracle.direct_product_table(a, b), label
    c2 = cyclic_group(2)
    group = c2
    for _ in range(5):
        product = direct_product(c2, group)
        assert list(map(list, product.table)) == \
            oracle.direct_product_table(c2, group), product
        group = product
    assert group.table == BENCH._z2_power(6).table


def test_table_entries_that_are_no_element_indices_are_refused():
    cyclic = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    for a, b, value in ((2, 2, 1.0), (1, 1, 2.0), (0, 0, 0.0), (1, 2, -3),
                        (2, 2, 3), (2, 1, 300), (1, 1, '2'), (2, 2, None)):
        table = [row[:] for row in cyclic]
        table[a][b] = value
        with pytest.raises(ValueError, match=r'integers in range\(3\)'):
            FiniteGroup(table)
    assert FiniteGroup(cyclic).table == cyclic_group(3).table


def test_empty_tables_and_wrong_label_counts_are_refused():
    with pytest.raises(ValueError, match='empty'):
        FiniteGroup([])
    with pytest.raises(ValueError, match='labels'):
        FiniteGroup([[0, 1], [1, 0]], labels=['a'])
    with pytest.raises(ValueError, match='labels'):
        FiniteGroup([[0]], labels=['a', 'b'])


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

def test_group_hom_rejects_exactly_what_the_full_check_rejects(
        split_problems):
    rng = random.Random(11)
    cases = list(split_problems.refused)
    for p in split_problems.catalog + split_problems.bench:
        source, target, images = p.G, p.gal.group, list(p.alpha.images)
        cases.append((source, target, images))
        for _ in range(2):
            bent = images[:]
            bent[rng.randrange(source.order)] = rng.randrange(target.order)
            cases.append((source, target, bent))
        cases.append((source, target,
                      [rng.randrange(target.order) for _ in images]))
    groups = [TRIVIAL, CATALOG['z2'], CATALOG['q8'], CATALOG['d4']]
    for source in groups:
        for target in groups:
            for _ in range(4):
                cases.append((source, target, [rng.randrange(target.order)
                                               for _ in range(source.order)]))
    cases.append((TRIVIAL, CATALOG['z2'], [1]))
    verdicts = [_accepts(GroupHom, *case) for case in cases]
    assert verdicts == [_accepts(oracle.check_hom, *case) for case in cases]
    assert 0 < sum(verdicts) < len(verdicts)


def test_homomorphism_images_that_are_no_element_indices_are_refused():
    z2 = CATALOG['z2']
    for value in (1.0, '1', None, 2, -1, 300):
        with pytest.raises(ValueError, match=r'images must be integers in '
                                             r'range\(2\)'):
            GroupHom(z2, z2, [0, value])
    assert GroupHom(z2, z2, [False, True]).images == (0, 1)


# ---------------------------------------------------------------------------
# subgroups and splitness
# ---------------------------------------------------------------------------

def test_subgroup_lattice_agrees_on_every_bench_group():
    for label, make, _, count in BENCH.GROUPS:
        G = make()
        lattice = G.subgroups()
        assert len(lattice) == count, label
        assert lattice == oracle.subgroups(G), label
        assert lattice == oracle.subgroups_by_cosets(G), label


def _counting_extends(monkeypatch):
    """Count the closures FiniteGroup.extend makes."""
    calls = []
    real = FiniteGroup.extend
    monkeypatch.setattr(FiniteGroup, 'extend', lambda *args, **kw: (
        calls.append(None) or real(*args, **kw)))
    return calls


def test_subgroups_close_each_subgroup_once_under_xor_labels(monkeypatch):
    """On Z2^k, labelled by XOR, the least element of <H, g> outside H is
    the least of gH, so every closure the search makes is kept."""
    G = BENCH._z2_power(6)
    calls = _counting_extends(monkeypatch)
    assert len(G.subgroups()) == 2825
    assert len(calls) == 2824


def test_subgroups_agree_with_the_seen_coset_walk(monkeypatch):
    """The inherited candidates make the same closures as the walk that
    looks at every g past the last generator: 2824 on Z2^6."""
    calls = _counting_extends(monkeypatch)
    groups = {**BENCH_GROUPS, **CATALOG, **PRODUCTS,
              **_relabelled_and_non_abelian(random.Random(17))}
    for label, G in groups.items():
        fresh = FiniteGroup(G.table)
        del calls[:]
        lattice = fresh.subgroups()
        closed = len(calls)
        del calls[:]
        assert lattice == oracle.subgroups_by_seen_cosets(fresh), label
        assert closed == len(calls), label
        if label == 'Z2^6':
            assert closed == 2824


def _relabelled_and_non_abelian(rng):
    """Each bench and catalog group relabelled with 0 kept as the identity,
    and three non-abelian groups of order 64."""
    groups = {}
    for label, G in [*BENCH_GROUPS.items(), *CATALOG.items()]:
        perm = [0] + rng.sample(range(1, G.order), G.order - 1)
        groups['relabelled ' + label] = FiniteGroup(_relabel(G.table, perm))
    z2_cubed = BENCH._z2_power(3)
    groups['D8xZ2^3'] = direct_product(dihedral_group(4), z2_cubed)
    groups['Q8xZ2^3'] = direct_product(quaternion_group(), z2_cubed)
    groups['D16xZ4'] = direct_product(dihedral_group(8), cyclic_group(4))
    return groups


def _problems_on(G, exts, rng, tries=8):
    """Problems from G onto each Galois group, its generators sent to
    seeded images; those that are no surjective homomorphism are dropped."""
    problems = []
    for ext, gal in exts.values():
        n = gal.group.order
        for _ in range(tries):
            assignment = {g: rng.randrange(n) for g in G.generators}
            images = cli._extend_hom(G, assignment, gal.group)
            try:
                problems.append(EmbeddingProblem(G, ext, images, gal))
            except ValueError:
                pass
    return problems


def test_relabelled_and_non_abelian_groups_agree_with_the_oracles(
        split_problems, monkeypatch):
    """The canonical parent depends on the labels: on relabelled tables
    the search closes over some g and drops <H, g>, since a smaller
    element of it lies outside H."""
    rng = random.Random(17)
    calls = _counting_extends(monkeypatch)
    built = closed = 0
    verdicts = set()
    for label, G in _relabelled_and_non_abelian(rng).items():
        del calls[:]
        lattice = G.subgroups()
        built, closed = built + len(lattice) - 1, closed + len(calls)
        old_lattice = oracle.subgroups(G)
        assert lattice == old_lattice, label
        assert lattice == oracle.subgroups_by_cosets(G), label
        for size in (1, 2, 3):
            gens = [rng.randrange(G.order) for _ in range(size)]
            assert G.closure(gens) == oracle.closure(G, gens), (label, gens)
        for problem in _problems_on(G, split_problems.exts, rng):
            split, section = fep.is_split(problem)
            old_split, old_section = oracle.is_split(problem, old_lattice)
            assert split == old_split, (label, problem.alpha.images)
            assert (section and section.images) == \
                (old_section and old_section.images), label
            verdicts.add(split)
    assert verdicts == {True, False}
    assert closed > built


def test_closure_agrees_with_the_breadth_first_closure():
    rng = random.Random(5)
    for G in [*BENCH_GROUPS.values(), *PRODUCTS.values()]:
        for size in (1, 2, 3):
            gens = [rng.randrange(G.order) for _ in range(size)]
            assert G.closure(gens) == oracle.closure(G, gens), (G, gens)


def test_is_split_agrees_with_the_lattice_walk(split_problems):
    problems = (split_problems.bench + split_problems.catalog
                + split_problems.bundled)
    verdicts = set()
    for problem in problems:
        split, section = fep.is_split(problem)
        old_split, old_section = oracle.is_split(problem)
        assert split == old_split, problem
        assert (section and section.images) == \
            (old_section and old_section.images), problem
        verdicts.add(split)
    assert verdicts == {True, False}
