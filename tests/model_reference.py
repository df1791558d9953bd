"""The model-group builders as they were written before they filled an
identity array: nested rows of ``Fraction(0)``/``Fraction(1)`` or
``0.0``/``1.0``, with the exact-or-float switch made in each builder.  Kept
apart from the program as the tests' reference; inputs are taken as valid."""

import math
from fractions import Fraction

from cuspbend.projlin import ProjMap, ProjPoint, is_exact


def _log_value(x):
    if is_exact(x) and x == 1:
        return Fraction(0)
    return math.log(float(x))


def ref_h_matrix(psi, d, v, log_d=None) -> ProjMap:
    """The group element's matrix, from its parameter tuple, d and v."""
    n = len(psi)
    t = max((i + 1 for i, x in enumerate(psi) if x > 0), default=0)
    d, v = tuple(d), tuple(v)
    logs = tuple(_log_value(x) for x in d) if log_d is None else tuple(log_d)
    sigma = sum((x * x for x in v), Fraction(0)) / 2
    for coeff, l in zip(psi, logs):
        sigma = sigma - coeff * l
    size = n + 1
    exact = all(is_exact(x) for x in d + v + logs + tuple(psi)) and is_exact(sigma)
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    rows = [[zero] * size for _ in range(size)]
    rows[0][0] = one
    for j, x in enumerate(v):
        rows[0][t + 1 + j] = x
    rows[0][size - 1] = sigma
    for k, x in enumerate(d):
        rows[1 + k][1 + k] = x
    for j, x in enumerate(v):
        rows[t + 1 + j][t + 1 + j] = one
        rows[t + 1 + j][size - 1] = x
    rows[size - 1][size - 1] = one
    return ProjMap(rows)


def ref_inverse_d(d) -> tuple:
    return tuple(1 / x if isinstance(x, Fraction) else 1.0 / x for x in d)


def ref_leaf_point(psi, c, xs) -> ProjPoint:
    """The point of the leaf at height c with coordinates xs = (x_2, ..., x_n)."""
    t = max((i + 1 for i, x in enumerate(psi) if x > 0), default=0)
    xs = list(xs)
    first = c
    for k in range(t):
        first = first - psi[k] * _log_value(xs[k])
    for y in xs[t:]:
        first = first + y * y / 2
    one = Fraction(1) if (is_exact(first) and all(is_exact(y) for y in xs)) else 1.0
    return ProjPoint([first] + xs + [one])


def ref_form(n: int) -> ProjMap:
    size = n + 1
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(1, size - 1):
        rows[i][i] = Fraction(1)
    rows[0][size - 1] = Fraction(-1)
    rows[size - 1][0] = Fraction(-1)
    return ProjMap(rows)


def ref_hyperplane_centralizer(i: int, entry, n: int) -> ProjMap:
    one = Fraction(1) if is_exact(entry) else 1.0
    diag = [one] * (n + 1)
    diag[i - 1] = entry
    return ProjMap.diagonal(diag)


def ref_zprime(lam, k, n: int) -> ProjMap:
    exact = is_exact(lam) and is_exact(k)
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    size = n + 1
    rows = [[zero] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = one
    rows[0][0] = lam if exact else float(lam)
    rows[size - 1][0] = k * (lam - one)
    return ProjMap(rows)
