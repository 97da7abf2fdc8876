"""Recurrence detection as one tall system per order: a slow oracle.

``detect_recurrence`` as it ran before each order was solved on its
leading block over the algebra: for every order k it rebuilds every block
L(a_{n-i}) M(sigma^{n-i}) and eliminates the equations of every stored
index n >= ord + k at once, then re-verifies the candidate.  The tests
compare the library's leading-block solve over the algebra against it.
"""

from math import lcm

from skewfield.linalg import solve
from skewfield.ore import (InsufficientPrecision, RecurrenceCertificate,
                           _mat_mul, _mul_matrix)
from skewfield.qalg import quat_from_q_vector


def detect_recurrence(series, max_order):
    """Smallest-order recurrence certificate for the series, if any."""
    if max_order < 1:
        raise ValueError("max_order must be positive")
    if series.precision() < 2 * max_order + 4:
        raise InsufficientPrecision(
            "need at least %d stored coefficients for order %d"
            % (2 * max_order + 4, max_order))
    twist = series.twist
    alg = twist.owner
    dim = alg.q_dim()
    cache = {}
    zero = [0] * dim
    for k in range(1, max_order + 1):
        rows = []
        rhs = []
        for n in range(series.ord + k, series.limit):
            blocks = []
            for i in range(1, k + 1):
                a = series.coefficient(n - i)
                blocks.append(None if a.is_zero() else _mat_mul(
                    _mul_matrix(a, 'L', cache),
                    twist.power(n - i).int_matrix()))
            target = series.coefficient(n)
            den = lcm(target.den, *[blk[1] for blk in blocks if blk])
            for r in range(dim):
                row = []
                for blk in blocks:
                    row.extend([x * (den // blk[1]) for x in blk[0][r]]
                               if blk else zero)
                rows.append(row)
                rhs.append(target.num[r] * (den // target.den))
        sol = solve(rows, rhs, k * dim)
        if sol is None:
            continue
        ys = [quat_from_q_vector(alg, sol[i * dim:(i + 1) * dim])
              for i in range(k)]
        cert = RecurrenceCertificate(twist, k, ys, series.ord + k)
        if cert.verify(series):
            return cert
    return None
