"""Real root isolation and real-place signs, one Sturm chain per step.

``isolate_real_roots``, ``refine_root_interval`` and ``sign`` here are the
routines as they ran before each call built its Sturm chains once: every
bisection and every refinement step goes through ``count_real_roots``,
which builds the chain of its polynomial afresh.  The tests compare the
library's intervals and signs against them.
"""

from poly_oracle import poly_eval, poly_trim
from skewfield.numfield import (_variations, _variations_at_inf, cauchy_bound,
                                sturm_chain)


def count_real_roots(p, lo=None, hi=None):
    """Number of distinct real roots of p, in (lo, hi] when bounds given."""
    chain = sturm_chain(p)
    if not chain:
        raise ValueError("zero polynomial")
    va = _variations([poly_eval(c, lo) for c in chain]) if lo is not None \
        else _variations_at_inf(chain, positive=False)
    vb = _variations([poly_eval(c, hi) for c in chain]) if hi is not None \
        else _variations_at_inf(chain, positive=True)
    return va - vb


def isolate_real_roots(p):
    """Disjoint rational intervals (lo, hi], one distinct real root each."""
    p = poly_trim(p)
    total = count_real_roots(p)
    if total == 0:
        return []
    bound = cauchy_bound(p)
    out = []
    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        while poly_eval(p, mid) == 0:
            mid = (lo + mid) / 2
        left = count_real_roots(p, lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, n - left))
    out.sort()
    return out


def refine_root_interval(p, lo, hi):
    """Halve an isolating interval of p, keeping exactly one root inside."""
    mid = (lo + hi) / 2
    if poly_eval(p, mid) == 0:
        mid = (lo + mid) / 2
    if count_real_roots(p, lo, mid) == 1:
        return lo, mid
    return mid, hi


def sign(place, elem):
    """Exact sign of an element under the real place."""
    if elem.is_zero():
        return 0
    g = poly_trim(list(elem.coords))
    p = list(place.field.min_poly)
    lo, hi = place.lo, place.hi
    while True:
        if (count_real_roots(g, lo, hi) == 0
                and poly_eval(g, lo) != 0 and poly_eval(g, hi) != 0):
            return 1 if poly_eval(g, lo) > 0 else -1
        lo, hi = refine_root_interval(p, lo, hi)
