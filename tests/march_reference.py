"""The chord-end march as it was written before the fixed-count bisection:
bracket doubling, then bisection masked row by row until the float fixed
point, with the model domains' ray test built one chart column at a time.
Kept apart from the program as the tests' reference."""

import numpy as np

from cuspbend.hilbert import U_CAP

MAX_BISECT = 200


def ref_leaf_value(cols, psi, t):
    """Leaf coordinate from a list of chart coordinate columns."""
    c = cols[0]
    for k in range(t):
        c = c + psi[k] * np.log(cols[1 + k])
    for x in cols[1 + t:]:
        c = c - 0.5 * x * x
    return c


def ref_model_value(P, psi, t):
    """Negated leaf coordinate of the rows of P, inf off the chart."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        v = -ref_leaf_value(P.T, psi, t)
    v[np.isnan(v)] = np.inf
    return v


def ref_model_inside(P, E, psi, t):
    """Which rays P + u E are inside the model domain, column by column."""
    cols = [(P[:, j].copy(), E[:, j].copy()) for j in range(P.shape[1])]
    return lambda u: ref_leaf_value([p + u * e for p, e in cols], psi, t) > 0.0


def ref_march(inside, unbounded):
    """End parameter u >= 1 of every ray, nan where it is unbounded, and the
    width of its final bracket."""
    lo = np.ones(unbounded.shape[0])
    hi = np.full(unbounded.shape[0], 2.0)
    unbounded = unbounded.copy()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while True:
            step = inside(hi) & ~unbounded
            if not step.any():
                break
            lo[step] = hi[step]
            hi[step] *= 2.0
            unbounded |= hi > U_CAP
        hi[unbounded] = lo[unbounded]
        for _ in range(MAX_BISECT):
            mid = 0.5 * (lo + hi)
            step = (mid != lo) & (mid != hi)
            if not step.any():
                break
            ins = inside(mid)
            np.copyto(lo, mid, where=step & ins)
            np.copyto(hi, mid, where=step & ~ins)
    u = 0.5 * (lo + hi)
    u[unbounded] = np.nan
    return u, hi - lo


def ref_value_march(value_fn, X, Y):
    """Both rays of every chord, from x along y - x and from y back, marched
    on a value function that is negative inside."""
    D = Y - X
    P, E = np.vstack([X, Y]), np.vstack([D, -D])
    return ref_march(lambda u: value_fn(P + u[:, None] * E) < 0.0,
                     np.zeros(P.shape[0], dtype=bool))
