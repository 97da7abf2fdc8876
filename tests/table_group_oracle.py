"""Table groups by exhaustive checks: a slow, independent oracle.

The table check, the subgroup lattice and the splitness search as they ran
before groups carried a generating set: associativity is tested on all n^3
triples, each subgroup extension is closed by a breadth-first walk over
all elements times all generators, and ``is_split`` walks the whole sorted
lattice for the first subgroup mapping bijectively onto the Galois group.
A homomorphism is checked on the full n^2 table.
"""

from skewfield.fep import GroupHom


def check_table(table):
    """Raise ValueError unless table is a group table with identity 0."""
    order = len(table)
    if any(len(row) != order for row in table):
        raise ValueError("multiplication table is not square")
    for j in range(order):
        if table[0][j] != j or table[j][0] != j:
            raise ValueError("index 0 is not an identity")
    inverse = [None] * order
    for i in range(order):
        for j in range(order):
            if table[i][j] == 0:
                inverse[i] = j
    if any(v is None for v in inverse):
        raise ValueError("some element has no inverse")
    for i in range(order):
        for j in range(order):
            for k in range(order):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise ValueError("table is not associative")


def check_hom(source, target, images):
    """Raise ValueError unless images is a homomorphism, pair by pair."""
    for i in range(source.order):
        for j in range(source.order):
            if images[source.op(i, j)] != target.op(images[i], images[j]):
                raise ValueError("not a homomorphism at (%d, %d)" % (i, j))


def closure(G, gens):
    out = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = G.op(g, f)
                if h not in out:
                    out.add(h)
                    nxt.append(h)
        frontier = nxt
    return frozenset(out)


def subgroups(G):
    """All subgroups, each grown from a smaller one by one new generator."""
    trivial = frozenset([0])
    gens = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            covered = set(sub)
            for g in range(G.order):
                if g in covered:
                    continue
                covered.update(G.op(g, h) for h in sub)
                gen = gens[sub] + (g,)
                bigger = closure(G, gen)
                if bigger not in gens:
                    gens[bigger] = gen
                    nxt.append(bigger)
        frontier = nxt
    return sorted(gens, key=lambda s: (len(s), sorted(s)))


def is_split(problem):
    """Brute force over subgroups; returns (split?, section images or None)."""
    G = problem.G
    gal_order = problem.gal.group.order
    for sub in subgroups(G):
        if len(sub) != gal_order:
            continue
        members = sorted(sub)
        images = [problem.alpha(a) for a in members]
        if len(set(images)) != gal_order:
            continue
        section = [None] * gal_order
        for a, v in zip(members, images):
            section[v] = a
        sec_hom = GroupHom(problem.gal.group, G, section)
        return True, sec_hom
    return False, None
