"""Row-vectorized chord kernels for batch Hilbert distances in the built-in
domains.

For interior x != y with d = y - x, the chord meets the boundary at
z1 = x - v_x d and z2 = y + v_y d with v_x, v_y > 0, and the Hilbert distance
is 1/2 (log1p(1/v_y) + log1p(1/v_x)).  An end that never leaves the chart
lies at the chord's point at infinity (v = inf) and drops its factor.  When
both ends do, they are that same point, the cross ratio is 1 and the
distance 0: the chord lies in the domain, or x and y are closer than the
march resolves.

* The unit ball and the model domain of type t = 0 are quadrics, so each
  end solves A v^2 + 2 B v - C = 0 with C > 0 (the point is interior) and
  is that equation's positive root, in closed form (Klein model;
  Papadopoulos-Troyanov, *Handbook of Hilbert Geometry*, EMS 2014).
* Every other domain, the model domains of type t >= 1 and any oracle's
  ``value`` function among them, takes its ends from one bracket-then-bisect
  march over all rays at once.  Double the line parameter outward until the
  domain is exited (past ``U_CAP`` the chord never leaves the chart), up
  to about 60 doubling tests, then halve the bracket exactly ``HALVINGS``
  = 52 times on every row, with no mask.  The bracket [2^j, 2^(j+1)] is
  one binade, so its first 52 midpoints are exact and the 52nd halving
  leaves it one ulp wide, at the float fixed point.  A bisection that
  stops each row there evaluates the same midpoints and makes the same
  choices, so the ends and distances keep their bits.  On the model
  domains a ray whose direction cannot make the leaf value fall is marked
  unbounded before the march.
* A projectively moved domain takes neither route on its own chart: its
  points are pulled back through g^-1 (``hilbert.transformed_oracle``) and
  run the base domain's kernel here, or the march on the base's ``value``.

The march needs nothing but a value function that is negative inside, so
it is also the reference route for the closed forms: ``verify``'s
``hilbert.klein-agreement`` compares the Klein formula against the march
on the ball, and ``hilbert.projective-naturality`` against the march on a
moved ball's own ``value``.
"""

from __future__ import annotations

import numpy as np

U_CAP = 1e18
# float64 significand bits: halvings that take a binade to one ulp
HALVINGS = 52


def _ball_value_np(P):
    return np.sum(P * P, axis=1) - 1.0


def _model_value_np(P, psi, t):
    """Negated leaf coordinate of the rows of P: negative inside the model
    domain, inf where a log coordinate is nonpositive."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        v = -_leaf_value(P.T, psi, t)
    v[np.isnan(v)] = np.inf
    return v


def _leaf_value(cols, psi, t):
    """Leaf coordinate from the (n, rows) array of chart coordinate columns:
    positive inside the model domain; a nonpositive log coordinate makes it
    -inf or nan.  One log over the t log rows and one product for the free
    squares, (0.5 x) x as 0.5 * x * x evaluates, summed in column order."""
    c = cols[0]
    logs = np.log(cols[1:1 + t])
    for k in range(t):
        c = c + psi[k] * logs[k]
    free = cols[1 + t:]
    for sq in (0.5 * free) * free:
        c = c - sq
    return c


# ---------------------------------------------------------------------------
# closed form on the quadrics


def _dot(P, Q):
    return np.einsum("ij,ij->i", P, Q)


def _quadric_root(A, B, C):
    """Positive root of A v^2 + 2 B v - C = 0 for C > 0, cancellation-free;
    inf when A = 0 and B < 0 (the ray never leaves the domain)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.sqrt(B * B + A * C)
        return np.where(B > 0.0, C / (B + r), (r - B) / A)


def _quadric_distances(end, X, Y):
    """Distances from ``end(P, E)``, the end parameter w of the ray P + w E.

    E is d scaled to largest entry 1, so no scale of d under- or overflows
    the quadric's coefficients; the end parameter along d is v = w / m."""
    D = Y - X
    m = np.max(np.abs(D), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        E = D / m[:, None]
        out = 0.5 * (np.log1p(m / end(Y, E)) + np.log1p(m / end(X, -E)))
    out[m == 0.0] = 0.0
    return out


def _ball_end(P, E):
    # |P + w E|^2 = 1
    return _quadric_root(_dot(E, E), _dot(P, E), -_ball_value_np(P))


def _model0_end(P, E):
    # leaf value P_0 + w E_0 - 1/2 |P' + w E'|^2 = 0, doubled
    Pf, Ef = P[:, 1:], E[:, 1:]
    return _quadric_root(_dot(Ef, Ef), _dot(Pf, Ef) - E[:, 0], 2.0 * _leaf_value(P.T, (), 0))


# ---------------------------------------------------------------------------
# the march


def _march_np(inside, unbounded):
    """End parameter u >= 1 of every ray, nan where it is unbounded, and the
    width of its final bracket.

    ``inside(u)`` tells which rays are inside the domain at parameter u; its
    floating-point warnings (rows off the domain or the chart) are silenced.
    Up to about 60 doubling tests leave each bounded ray the bracket
    [2^j, 2^(j+1)] and each unbounded one the width 0.  Then every row is
    halved ``HALVINGS`` times with no mask: ``lo + w`` is the exact
    midpoint 0.5 (lo + hi), so the march evaluates the midpoints that a
    bisection stopping each row at the float fixed point evaluates, and
    ends with its u and widths, one ulp of u each."""
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
        w = np.where(unbounded, 0.0, hi - lo)
        for _ in range(HALVINGS):
            w *= 0.5
            mid = lo + w
            np.copyto(lo, mid, where=inside(mid))
    hi = lo + w
    u = 0.5 * (lo + hi)
    u[unbounded] = np.nan
    return u, hi - lo


def _rays(X, Y):
    """Both rays of every chord, stacked: from x along d, then from y along -d."""
    D = Y - X
    return np.vstack([X, Y]), np.vstack([D, -D])


def _march_distances(ends):
    """Distances from the end parameters of the rays of :func:`_rays`."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        u, s = np.split(ends, 2)
        out = 0.5 * np.log(s * u / ((s - 1.0) * (u - 1.0)))
        out = np.where(np.isnan(u), 0.5 * np.log(s / (s - 1.0)), out)
        out = np.where(np.isnan(s), 0.5 * np.log(u / (u - 1.0)), out)
    # both ends at the chord's one point at infinity (x = y among them): cross ratio 1
    out[np.isnan(u) & np.isnan(s)] = 0.0
    return out


def _model_inside(P, E, psi, t):
    """Which rays P + u E are inside the model domain: all chart columns as
    one contiguous (n, rows) array u E^T + P^T per test, each entry the
    p + u e of its column."""
    PT, ET = np.ascontiguousarray(P.T), np.ascontiguousarray(E.T)
    return lambda u: _leaf_value(u * ET + PT, psi, t) > 0.0


def _model_ray_stays(E, t):
    """Rays along which the leaf value cannot fall, psi_k > 0 for k < t: log
    coordinates nondecreasing, free coordinates fixed, first one nondecreasing."""
    return (np.all(E[:, 1:1 + t] >= 0.0, axis=1) & np.all(E[:, 1 + t:] == 0.0, axis=1)
            & (E[:, 0] >= 0.0))


# ---------------------------------------------------------------------------
# public entry points


def interior(value_fn, P):
    """Rows of P that are finite points strictly inside the domain of a value
    function."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return np.all(np.isfinite(P), axis=1) & (value_fn(P) < 0.0)


def value_march(value_fn, X, Y):
    """End parameters and final bracket widths of both rays of every chord
    (see :func:`_rays`), by the march on a value function of chart rows that
    is negative inside."""
    P, E = _rays(X, Y)
    return _march_np(lambda u: value_fn(P + u[:, None] * E) < 0.0,
                     np.zeros(P.shape[0], dtype=bool))


def value_distances(value_fn, X, Y) -> np.ndarray:
    """Hilbert distances by the march on a value function that is negative
    inside."""
    return _march_distances(value_march(value_fn, X, Y)[0])


def ball_distances(X, Y) -> np.ndarray:
    """Hilbert distances between row-paired interior points of the unit ball."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    return _quadric_distances(_ball_end, X, Y)


def model_distances(X, Y, psi, t: int) -> np.ndarray:
    """Hilbert distances between row-paired interior points of the model
    cusp domain with parameter psi (type t)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    if t == 0:
        return _quadric_distances(_model0_end, X, Y)
    psi = np.ascontiguousarray(psi, dtype=np.float64)
    P, E = _rays(X, Y)
    return _march_distances(_march_np(_model_inside(P, E, psi, t), _model_ray_stays(E, t))[0])
