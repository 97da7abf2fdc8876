"""The center and tensor-rank systems as one dense elimination each.

``center_bounded`` and ``tensor_decomposition_check`` as they ran before
they were split by degree: the commutator system of every coefficient
x_0 .. x_D is one matrix of width (D + 1) dim, and the tensor rank is the
rank of all spanning products' coordinate vectors of that width.  The
raw basis of the one system is ``center_basis``.
"""

from skewfield.linalg import (difference_rows, identity, kernel_basis, rank,
                              same_span)
from skewfield.numfield import fixed_field
from skewfield.ore import (CenterReport, HypothesisFailed, SkewPoly,
                           TensorReport, _algebra_generators, _mul_matrix)
from skewfield.qalg import extend_quaternion, inner_order, quat_from_q_vector


def center_basis(algebra, twist, degree_bound):
    """The raw basis of center_bounded, from the one system."""
    dim = algebra.q_dim()
    nvars = (degree_bound + 1) * dim
    cache = {}
    rows = []
    fixed = difference_rows(twist.int_matrix(), identity(dim))
    gens = _algebra_generators(algebra)
    for j in range(degree_bound + 1):
        pad, rest = [0] * (j * dim), [0] * (nvars - (j + 1) * dim)
        # x_j fixed by the twist (commutation with t), and
        # g x_j = x_j sigma^j(g) for each generator
        blocks = [fixed] + [difference_rows(
            _mul_matrix(g, 'L', cache),
            _mul_matrix(twist.power(j)(g), 'R', cache)) for g in gens]
        rows.extend(pad + row + rest for block in blocks for row in block)
    return tuple(SkewPoly(twist, [
        quat_from_q_vector(algebra, vec[j * dim:(j + 1) * dim])
        for j in range(degree_bound + 1)]) for vec in kernel_basis(rows, nvars))


def center_bounded(algebra, twist, degree_bound):
    """Basis of central elements of t-degree at most the bound.

    Solves the rational commutator system against t and the algebra
    generators on the coefficient space.
    """
    if twist.owner != algebra:
        raise ValueError("twist does not act on the algebra")
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    raw_basis = center_basis(algebra, twist, degree_bound)
    m = twist.order()
    io = inner_order(twist)
    hypothesis = (io == m)
    closed_form_matches = None
    if hypothesis:
        sub, emb = fixed_field(algebra.base,
                               [twist.center_action])
        expected = [SkewPoly(twist, [algebra.zero()] * (m * p)
                             + [algebra.scalar(emb(c))])
                    for p in range(0, degree_bound // m + 1)
                    for c in sub.basis()]
        got_vecs = [b.q_vector(degree_bound) for b in raw_basis]
        want_vecs = [e.q_vector(degree_bound) for e in expected]
        closed_form_matches = same_span(got_vecs, want_vecs)
    return CenterReport(degree_bound, raw_basis, hypothesis,
                        closed_form_matches, m, io)


def tensor_decomposition_check(H, sigma, L, tau, emb, degree_bound):
    """Bounded-degree verification that the function field of the extension
    is the scalar extension of the function field of the base.

    The multiplication map from the tensor product is checked on a spanning
    family up to the degree bound: multiplicative on spanning pairs,
    injective by exact rank, surjective by dimension count.  Requires the
    central restrictions of the two twists to have equal orders; raises
    HypothesisFailed otherwise.
    """
    if sigma.owner != H or tau.owner != L:
        raise ValueError("twists act on the wrong algebras")
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    if L.a != emb(H.a) or L.b != emb(H.b):
        raise ValueError("L is not the scalar extension of H along emb")
    for x in H.q_basis():
        if tau(extend_quaternion(x, L, emb)) != extend_quaternion(sigma(x), L, emb):
            raise ValueError("tau does not extend sigma")
    sig_t = sigma.center_action
    tau_t = tau.center_action
    if tau_t.order() != sig_t.order():
        raise HypothesisFailed(
            "central restriction orders differ: %d for the base twist, "
            "%d for the extension twist" % (sig_t.order(), tau_t.order()))
    m = tau.order()
    h = H.base
    ell = L.base
    h_fix, h_fix_emb = fixed_field(h, [sig_t])
    ell_fix, ell_fix_emb = fixed_field(ell, [tau_t])
    if ell_fix.degree % h_fix.degree:
        raise AssertionError("fixed field degrees incompatible")
    r = ell_fix.degree // h_fix.degree
    # the quaternion Q-basis of H already spans the base-side directions;
    # only an extension-side fixed-field basis is needed on the right
    ellfix_in_ell = [ell_fix_emb(f) for f in ell_fix.basis()[:r]]
    left_factors = [SkewPoly(tau, [L.zero()] * j + [extend_quaternion(e, L, emb)])
                    for j in range(min(m, degree_bound + 1))
                    for e in H.q_basis()]
    right_factors = [SkewPoly(tau, [L.zero()] * (m * p) + [L.scalar(f)])
                     for p in range(degree_bound // m + 1)
                     for f in ellfix_in_ell]
    spanning = [prod for prod in (y * z for y in left_factors
                                  for z in right_factors)
                if prod.degree() <= degree_bound]
    vecs = [s.q_vector(degree_bound) for s in spanning]
    rk = rank(vecs)
    ambient = (degree_bound + 1) * L.q_dim()
    injective = (rk == len(spanning))
    surjective = (rk == ambient)

    multiplicative = True
    for z in right_factors:
        for y in left_factors:
            if (z * y) != (y * z):
                multiplicative = False
    # spot products through the map: psi(y y' (x) z z') = psi(y(x)z) psi(y'(x)z')
    for y1 in left_factors[:3]:
        for y2 in left_factors[:3]:
            for z1 in right_factors[:2]:
                for z2 in right_factors[:2]:
                    lhs = (y1 * y2) * (z1 * z2)
                    rhs = (y1 * z1) * (y2 * z2)
                    if lhs != rhs:
                        multiplicative = False
    return TensorReport(injective, surjective, multiplicative, rk,
                        len(spanning), ambient, m, r)
