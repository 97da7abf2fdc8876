"""Table groups by exhaustive checks: a slow, independent oracle.

The table check, the subgroup lattice and the splitness search as they ran
before groups carried a generating set: associativity is tested on all n^3
triples, each subgroup extension is closed by a breadth-first walk over
all elements times all generators, and ``is_split`` walks the whole sorted
lattice for the first subgroup mapping bijectively onto the Galois group.
A homomorphism is checked on the full n^2 table.

``subgroups_by_cosets`` is the lattice as it ran before each subgroup was
built from one canonical parent: Dimino's coset extension on member lists
and int bitmasks (``extend_by_mask``) from every subgroup and coset that
reaches a subgroup, duplicates dropped by their mask.

``subgroups_by_seen_cosets`` is the canonical-parent walk as it ran before
each subgroup inherited its candidates from its parent: every g past the
last generator is looked at, left cosets already met are skipped through a
``seen`` set, and the list is sorted by member lists.  ``direct_product_table``
is the product table as it was built entry by entry.
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


def is_split(problem, lattice=None):
    """Brute force over subgroups; returns (split?, section images or None).

    lattice is subgroups(problem.G) when the caller has it already.
    """
    G = problem.G
    gal_order = problem.gal.group.order
    for sub in lattice or subgroups(G):
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


def extend_by_mask(G, members, mask, gens, g, limit=64):
    """<H, g> for the subgroup H generated by gens, g outside it.

    H is given as its member list and as the int whose bit h is set for
    each member h.  The result grows as a union of right cosets H*r
    (Dimino's algorithm): a coset is added whenever r*s falls outside, for
    a coset representative r and s in gens or g.  Returns the same pair for
    <H, g>, or None once it holds more than limit elements.
    """
    table = G.table
    gens = gens + (g,)
    out = list(members)
    reps = [0]
    for r in reps:
        row = table[r]
        for s in gens:
            x = row[s]
            if mask >> x & 1:
                continue
            for h in members:
                y = table[h][x]
                out.append(y)
                mask |= 1 << y
            if len(out) > limit:
                return None
            reps.append(x)
    return out, mask


def subgroups_by_cosets(G):
    """All subgroups, each grown from a smaller one by one new generator.

    A subgroup H is extended by one element g of each coset gH outside
    it, since <H, g> = <H, gh> for h in H, starting from the generators
    H was found with.  Subgroups are keyed by their member bitmask; the
    list is sorted by size, then by sorted members.
    """
    found = {1: ([0], ())}
    frontier = [1]
    while frontier:
        nxt = []
        for mask in frontier:
            members, gens = found[mask]
            covered = mask
            for g in range(G.order):
                if covered >> g & 1:
                    continue
                row = G.table[g]
                for h in members:
                    covered |= 1 << row[h]
                bigger, big_mask = extend_by_mask(G, members, mask, gens, g)
                if big_mask not in found:
                    found[big_mask] = (bigger, gens + (g,))
                    nxt.append(big_mask)
        frontier = nxt
    return sorted((frozenset(members) for members, _ in found.values()),
                  key=lambda s: (len(s), sorted(s)))


def subgroups_by_seen_cosets(G):
    """All subgroups, each built once by G.extend from its canonical parent.

    A subgroup H whose greedy generating sequence ends at last is extended
    by each g > last outside H that is the least element of both gH and
    Hg, and <H, g> is kept when g is its least element outside H.
    """
    n = G.order
    left, right = ([blob[x:x + 256] for x in range(0, n * n, n)]
                   for blob in (G._left, G._right))
    found = []
    stack = [(b'\0', ())]
    while stack:
        members, gens = stack.pop()
        found.append(members)
        size = len(members)
        seen = set(members)
        for g in range(gens[-1] + 1 if gens else 1, n):
            if g in seen:
                continue
            coset = members.translate(left[g])
            seen.update(coset)
            if min(coset) < g or min(members.translate(right[g])) < g:
                continue
            bigger = G.extend(members, gens, g)
            if min(bigger[size:]) == g:
                stack.append((bigger, gens + (g,)))
    found.sort(key=lambda members: (len(members), sorted(members)))
    return [frozenset(members) for members in found]


def direct_product_table(a, b):
    """The table of a x b, pair (i, j) at index i * b.order + j."""
    def pack(i, j):
        return i * b.order + j

    table = []
    for i1 in range(a.order):
        for j1 in range(b.order):
            row = []
            for i2 in range(a.order):
                for j2 in range(b.order):
                    row.append(pack(a.op(i1, i2), b.op(j1, j2)))
            table.append(row)
    return table
