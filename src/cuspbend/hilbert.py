"""Hilbert metric on properly convex domains presented by oracles.

The distance between two interior points is half the log of the cross ratio
of the four collinear points (boundary, x, y, boundary) on their chord.  For
x != y and d = y - x, the chord meets the boundary at z1 = x - v_x d and
z2 = y + v_y d with v_x, v_y > 0, and the distance is
1/2 (log1p(1/v_y) + log1p(1/v_x)).

A domain is its ``value``, a function of chart rows of shape (m, n) that is
negative exactly on the rows inside, and an optional ``distances`` kernel.
The built-in oracles supply both, vectorized over rows:

* The unit ball and the model domain of type t = 0 are quadrics, so each
  end solves A v^2 + 2 B v - C = 0 with C > 0 (the point is interior) and
  is that equation's positive root, in a cancellation-free closed form
  (Klein model; Papadopoulos-Troyanov, *Handbook of Hilbert Geometry*, EMS
  2014).
* The model domains of type t >= 1 march with their own ray test on the
  chart columns.  A ray whose direction cannot make the leaf value fall is
  marked unbounded before the march.

A domain with no kernel takes its chord ends from one march on ``value``
over all rays at once; a single pair is a batch of one row.  The march
tests the rays through an ``inside`` function of an (m, rows) array of line
parameters, m per ray.  It doubles the parameter outward until the domain
is exited (past ``U_CAP`` the chord never leaves the chart), up to about 60
doubling tests of one parameter per ray, then halves the bracket exactly
``HALVINGS`` = 52 times on every row, with no mask, k levels of the
bisection tree per test.  A test takes the 2^k - 1 points lo + i w/2^k of
every row, and each row keeps the point that k one-level halvings keep:
its count of leading Trues when its column is monotone, else the levels
walked one by one.  k follows from the row count alone: the largest with
(2^k - 1) rows <= ``LEVEL_POINTS`` = 256, at least 1 (5 at 8 rays, 7 at 2,
1 from 86 rays on, where a test is one midpoint per ray), and a shorter
last step takes the rest of the 52.  The bracket [2^j, 2^(j+1)] is one
binade, so its first 52 midpoints are exact and the 52nd halving leaves it
one ulp wide, at the float fixed point.  A bisection that stops each row
there evaluates the same midpoints and makes the same choices, so the ends
and distances keep their bits.  The march needs nothing but a value
function that is negative inside, so it is also the reference route for
the closed forms:
``verify``'s ``hilbert.klein-agreement`` compares the Klein formula against
the march on the ball, and ``hilbert.projective-naturality`` against the
march on a moved ball's own ``value``.

A domain moved by ``transformed_oracle`` answers every question on its
base, since projective maps are Hilbert isometries.  Its points are pulled
back through g^-1 (a domain moved twice, through the composite), divided by
the last homogeneous coordinate whatever its sign, and run through the
base's kernel or march.  A distance or chord call pulls back three times:
X and Y stacked for the interiority check on the moved domain's own
``value``, then X and Y each for the base's route.  Chord ends are pushed
forward through g as homogeneous points.  A row on the pulled-back
hyperplane at infinity is outside.

Everything here is float; the identities tested are metric, not algebraic.
An end of a chord that never leaves the affine chart (the model cusp
domains are unbounded in their chart) lies at the chord's point at
infinity (v = inf) and drops its factor, so the distance stays finite;
``chord_boundary`` tags such an end as unbounded.  When both ends do, they
are that same point, the cross ratio is 1 and the distance 0: the chord
lies in the domain, or x and y are closer than the march resolves.  Single
pairs and batches share one input contract: a point is a chart n-vector, a
row of a batch, and anything else (a homogeneous vector or a
:class:`ProjPoint` among them) is the ``ValueError`` "expected ... shape";
a point that is not finite and strictly interior is a ``ValueError`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cusp_models import CuspParameter, ModelDomain
from .projlin import DEFAULT_TOL, ProjMap, ProjPoint, act, compose, inverse

U_CAP = 1e18
# float64 significand bits: halvings that take a binade to one ulp
HALVINGS = 52
# most points, over all rays, that one test of the march's halvings takes
LEVEL_POINTS = 256
# points tested along a chord by convexity_scan
CONVEXITY_SAMPLES = 64


class ConvexityViolation(RuntimeError):
    """A tested chord met the interior in more than one interval."""


@dataclass(frozen=True)
class ConvexDomainOracle:
    """Properly convex domain known through oracles.

    ``value(P)`` maps chart rows of shape (m, n) to m floats, negative inside
    and positive or ``inf`` elsewhere (``inf`` off the chart); it may leave
    floating-point warnings to its caller.  Convexity is an assumed contract.
    ``distances(X, Y)`` is the domain's own batch distance kernel for
    row-paired interior chart points: the built-in constructors set it.  A
    domain without one has its chord ends marched on ``value``.
    ``classify`` is read by no route.  It stays, None by default and set by
    keyword only, because it is the slot that the benchmark's layer tracer
    fills with :func:`dataclasses.replace` to count oracle calls; it can go
    once the benchmark no longer binds it.
    """

    n: int
    value: Callable[[np.ndarray], np.ndarray]
    distances: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    classify: Optional[Callable] = field(default=None, kw_only=True)

    def on_base(self, X: np.ndarray, Y: np.ndarray):
        """The domain that answers for this one, and the chart rows X and Y
        in its chart: here the domain itself and the rows as given."""
        return self, X, Y

    def push(self, z: np.ndarray) -> ProjPoint:
        """The point of this domain's space at base chart coordinates z."""
        return ProjPoint(np.append(z, 1.0))


@dataclass(frozen=True)
class MovedOracle(ConvexDomainOracle):
    """The image g(base) of a domain under a float projective map, with its
    rows pulled back to ``base`` through ``inverse(g)``, which g keeps (see
    :func:`transformed_oracle`).  Its distances are its base's, so
    ``distances`` is None and cannot be set, not even by
    :func:`dataclasses.replace`."""

    distances: None = field(default=None, init=False)
    base: ConvexDomainOracle = field(kw_only=True)
    g: ProjMap = field(kw_only=True)

    def on_base(self, X: np.ndarray, Y: np.ndarray):
        g_inv = inverse(self.g)
        return self.base, _pull(g_inv, X)[0], _pull(g_inv, Y)[0]

    def push(self, z: np.ndarray) -> ProjPoint:
        return act(self.g, ProjPoint(np.append(z, 1.0)))


def _pull(g_inv: ProjMap, P: np.ndarray):
    """Base chart rows of the chart rows P pulled back through g_inv, divided
    by their last homogeneous coordinate whatever its sign, and the rows
    where that is 0."""
    M = g_inv.entries
    H = P @ M.T[:-1] + M.T[-1]
    return H[:, :-1] / H[:, -1:], H[:, -1] == 0.0


def ball_oracle(n: int) -> ConvexDomainOracle:
    """The open unit ball in the chart x_{n+1} = 1 (Klein model)."""
    return ConvexDomainOracle(n, _ball_value, _ball_distances)


def model_domain_oracle(psi: CuspParameter) -> ConvexDomainOracle:
    """Oracle for the model cusp domain of a type t < n parameter."""
    t = ModelDomain(psi).psi.type
    psi_t = np.array([float(x) for x in psi.psi[:t]], dtype=np.float64)
    return ConvexDomainOracle(psi.n, lambda P: _model_value(P, psi_t, t),
                              lambda X, Y: _model_distances(X, Y, psi_t, t))


def transformed_oracle(dom: ConvexDomainOracle, g: ProjMap) -> MovedOracle:
    """Oracle for the image g(domain), answered on the domain.

    Every route (:func:`hilbert_distances`, :func:`chord_boundary`,
    :func:`convexity_scan`) pulls its points back through g^-1 and runs on
    the base domain, and so does the image's own ``value``.  Moving a moved
    domain moves its base by the composite map, so each pull-back is one
    matmul.  g^-1 is computed here, once, and kept on the float g.
    """
    g = g.to_float()
    if isinstance(dom, MovedOracle):
        dom, g = dom.base, compose(g, dom.g)
    g_inv = inverse(g)

    def value(P: np.ndarray) -> np.ndarray:
        B, at_infinity = _pull(g_inv, P)
        return np.where(at_infinity, np.inf, dom.value(B))

    return MovedOracle(dom.n, value, base=dom, g=g)


@dataclass(frozen=True)
class ChordIntersection:
    """Boundary crossings of the chord through x and y, ordered z1, x, y, z2.

    ``unbounded`` names the ends ("z1", "z2", "both") whose march left the
    chart without exiting the domain (the base domain's chart, for a moved
    one); those crossings are None.  Such an end meets the boundary at the
    chord's point at infinity in that chart; when both ends are unbounded
    they meet it at the same point.
    """

    z1: Optional[ProjPoint]
    z2: Optional[ProjPoint]
    residual: float
    unbounded: Optional[str] = None


def _float_array(p, expected: str) -> np.ndarray:
    """p as a float64 array; anything that does not read as numbers (a
    :class:`ProjPoint` among them) is the ValueError ``expected``."""
    try:
        return np.asarray(p, dtype=np.float64)
    except TypeError:
        raise ValueError(expected) from None


def _as_chart(p, n: int) -> np.ndarray:
    """One point as a chart n-vector, the form of a row of a batch."""
    expected = f"expected a point of shape ({n},)"
    arr = _float_array(p, expected)
    if arr.shape != (n,):
        raise ValueError(expected)
    return arr


def _require_interior_rows(dom: ConvexDomainOracle, X: np.ndarray, Y: np.ndarray,
                           batch: bool) -> None:
    """The input contract: every point finite and strictly interior.  A
    batch names the first offending row, a single pair only the point.  One
    ``value`` call tests X and Y stacked (one pull-back on a moved domain)."""
    bad_x, bad_y = np.split(~_interior(dom.value, np.vstack([X, Y])), 2)
    rows = np.flatnonzero(bad_x | bad_y)
    if rows.size:
        i = int(rows[0])
        msg = f"point {'x' if bad_x[i] else 'y'} is not interior to the domain"
        raise ValueError(f"row {i}: {msg}" if batch else msg)


def chord_boundary(dom: ConvexDomainOracle, x, y) -> ChordIntersection:
    """Locate the two boundary points of the chord through interior x, y,
    two chart n-vectors.

    The march runs on the base domain's ``value`` at the pulled-back points.
    The bounded ends are pushed forward to homogeneous
    points, which on a moved domain may lie on its chart's hyperplane at
    infinity.  ``residual`` is the wider final bracket of the two bounded
    ends in base chart units, one ulp of u times |d|.
    """
    xc = _as_chart(x, dom.n)
    yc = _as_chart(y, dom.n)
    if np.array_equal(xc, yc):
        raise ValueError("chord needs two distinct points")
    _require_interior_rows(dom, xc[None], yc[None], batch=False)
    base, X, Y = dom.on_base(xc[None], yc[None])
    # ray from x along d ends at z2 = x + u d, ray from y along -d at z1 = y - s d
    (u, s), widths = value_march(base.value, X, Y)
    xb, yb = X[0], Y[0]
    d = yb - xb
    bounded = ~np.isnan([u, s])
    residual = (float(np.max(widths[bounded])) * float(np.linalg.norm(d))
                if bounded.any() else math.nan)
    unbounded = {(True, True): None, (False, False): "both",
                 (False, True): "z2", (True, False): "z1"}[tuple(bounded)]
    z1 = dom.push(yb - s * d) if bounded[1] else None
    z2 = dom.push(xb + u * d) if bounded[0] else None
    return ChordIntersection(z1, z2, residual, unbounded)


def cross_ratio(z1, x, y, z2) -> float:
    """Cross ratio |z1-y||x-z2| / (|z1-x||y-z2|) of four collinear points,
    computed in an arbitrary affine chart of their common line."""
    pts = []
    for p in (z1, x, y, z2):
        v = np.asarray(p.coords if isinstance(p, ProjPoint) else p,
                       dtype=np.float64)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero vector is not a projective point")
        pts.append(v / norm)
    P = np.stack(pts)
    _, svals, vt = np.linalg.svd(P)
    if len(svals) > 2 and svals[2] > DEFAULT_TOL * svals[0]:
        raise ValueError(f"points are not collinear (planarity residual {svals[2] / svals[0]:.2e})")
    ab = P @ vt[:2].T
    def two_det(i: int, j: int) -> float:
        return ab[i, 0] * ab[j, 1] - ab[j, 0] * ab[i, 1]
    num = two_det(0, 2) * two_det(1, 3)
    den = two_det(0, 1) * two_det(2, 3)
    if den == 0:
        raise ValueError("cross ratio undefined: z1 = x or y = z2")
    return abs(num / den)


def hilbert_distance(dom: ConvexDomainOracle, x, y) -> float:
    """Hilbert distance between interior points x, y, two chart
    n-vectors: :func:`hilbert_distances` on one row, with the bad-input
    message naming only the point.

    When both ends of the chord lie at its point at infinity, the distance
    is 0 (use chord_boundary directly for the diagnostic).
    """
    X = _as_chart(x, dom.n)[None]
    Y = _as_chart(y, dom.n)[None]
    _require_interior_rows(dom, X, Y, batch=False)
    return float(_distances(dom, X, Y)[0])


def hilbert_distances(dom: ConvexDomainOracle, X, Y) -> np.ndarray:
    """Batch distances for row-paired chart points: the domain's own
    ``distances`` kernel, else the march on its ``value``; a moved domain
    runs its base's route on the points pulled back through g^-1.
    Interiority is checked on the domain's own ``value`` first, so bad input
    raises the ValueError of :func:`hilbert_distance`, prefixed with the
    first offending row.
    """
    expected = f"expected paired arrays of shape (m, {dom.n})"
    X, Y = (np.atleast_2d(_float_array(P, expected)) for P in (X, Y))
    if X.shape != Y.shape or X.shape[1] != dom.n:
        raise ValueError(expected)
    _require_interior_rows(dom, X, Y, batch=True)
    return _distances(dom, X, Y)


def _distances(dom: ConvexDomainOracle, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The body of both distance functions, on rows already checked: the
    base domain's kernel or march at the pulled-back rows."""
    base, X, Y = dom.on_base(X, Y)
    if base.distances is not None:
        return base.distances(X, Y)
    return value_distances(base.value, X, Y)


def klein_distance(x, y):
    """Closed-form hyperbolic distance between interior points of the unit
    ball, arccosh((1 - x.y) / sqrt((1-|x|^2)(1-|y|^2))), evaluated as
    arcsinh(sqrt(|d|^2 (1-|x|^2) + (x.d)^2) / sqrt((1-|x|^2)(1-|y|^2))) with
    d = y - x: a sum of nonnegative terms, accurate for nearby points too.
    Two points give a float; two arrays of row-paired points, one per row."""
    xv, yv = (np.asarray(p, dtype=np.float64) for p in (x, y))
    dot = lambda a, b: np.einsum("...i,...i->...", a, b)
    nx, ny = dot(xv, xv), dot(yv, yv)
    if np.any(nx >= 1.0) or np.any(ny >= 1.0):
        raise ValueError("arguments must lie strictly inside the unit ball")
    d = yv - xv
    xd = dot(xv, d)
    num = dot(d, d) * (1.0 - nx) + xd * xd
    out = np.arcsinh(np.sqrt(num / ((1.0 - nx) * (1.0 - ny))))
    return float(out) if out.ndim == 0 else out


def convexity_scan(dom: ConvexDomainOracle, x, y) -> None:
    """Diagnostic: the open chord between two interior points, tested at
    ``CONVEXITY_SAMPLES`` points, must meet the interior in a single
    interval; on a moved domain, the chord between the pulled-back points
    in the base chart.  Raises ConvexityViolation otherwise."""
    base, X, Y = dom.on_base(_as_chart(x, dom.n)[None], _as_chart(y, dom.n)[None])
    ts = np.linspace(0.0, 1.0, CONVEXITY_SAMPLES)[:, None]
    inside = _interior(base.value, X + ts * (Y - X))
    runs = int(inside[0]) + int(np.count_nonzero(inside[1:] & ~inside[:-1]))
    if runs > 1:
        raise ConvexityViolation(f"interior met in {runs} intervals along tested chord")


# ---------------------------------------------------------------------------
# value functions


def _ball_value(P):
    return np.sum(P * P, axis=1) - 1.0


def _model_value(P, psi, t):
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
    return _quadric_root(_dot(E, E), _dot(P, E), -_ball_value(P))


def _model0_end(P, E):
    # leaf value P_0 + w E_0 - 1/2 |P' + w E'|^2 = 0, doubled
    Pf, Ef = P[:, 1:], E[:, 1:]
    return _quadric_root(_dot(Ef, Ef), _dot(Pf, Ef) - E[:, 0], 2.0 * _leaf_value(P.T, (), 0))


# ---------------------------------------------------------------------------
# the march


def _march(inside, unbounded):
    """End parameter u >= 1 of every ray, nan where it is unbounded, and the
    width of its final bracket.

    ``inside(U)`` tells which rays are inside the domain at the parameters
    U, an (m, rows) array with one column per ray; its floating-point
    warnings (rows off the domain or the chart) are silenced.  Up to about
    60 doubling tests leave each bounded ray the bracket [2^j, 2^(j+1)] and
    each unbounded one the width 0.  Then every row is halved ``HALVINGS``
    times with no mask, k levels per ``inside`` call (see
    :func:`_halving_steps`): with w the bracket width divided by 2^k, one
    call tests the 2^k - 1 points lo + i w, and :func:`_bisection_path`
    takes the point that k one-level halvings keep (at k = 1, the midpoint
    lo + w or lo itself).  Within the binade every such point is exact, so
    the march evaluates the midpoints that a bisection stopping each row at
    the float fixed point evaluates, and ends with its u and widths, one ulp
    of u each."""
    lo = np.ones(unbounded.shape[0])
    hi = np.full(unbounded.shape[0], 2.0)
    unbounded = unbounded.copy()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while True:
            step = inside(hi[None])[0] & ~unbounded
            if not step.any():
                break
            lo[step] = hi[step]
            hi[step] *= 2.0
            unbounded |= hi > U_CAP
        w = np.where(unbounded, 0.0, hi - lo)
        steps = _halving_steps(unbounded.shape[0])
        offsets = {k: np.arange(1.0, 2 ** k)[:, None] for k in set(steps)}
        for k in steps:
            w *= 0.5 ** k
            lo += _bisection_path(inside(lo + offsets[k] * w)) * w
    hi = lo + w
    u = 0.5 * (lo + hi)
    u[unbounded] = np.nan
    return u, hi - lo


def _halving_steps(rows):
    """Levels per ``inside`` call of the march's ``HALVINGS`` halvings on
    ``rows`` rays: k, the largest with (2^k - 1) rows <= ``LEVEL_POINTS``
    (at least 1), and a shorter last step for the remainder."""
    k = max(1, (LEVEL_POINTS // max(rows, 1) + 1).bit_length() - 1)
    return [k] * (HALVINGS // k) + [HALVINGS % k] * (HALVINGS % k > 0)


def _bisection_path(B):
    """Offsets i in 0 .. m of the points that k one-level halvings keep,
    from B[i - 1] = inside at lo + i w, an (m, rows) array, m = 2^k - 1.
    A monotone column (no False before a True) keeps its count of Trues;
    any other is walked level by level, testing offset i + 2^(k-1-level)."""
    kept = B.sum(axis=0)
    rises = B[1:] > B[:-1]
    if np.count_nonzero(rises):
        odd = np.flatnonzero(rises.any(axis=0))
        kept[odd] = 0
        s = (B.shape[0] + 1) // 2
        while s:
            kept[odd] += s * B[kept[odd] + s - 1, odd]
            s //= 2
    return kept


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
    """Which rays P + u E are inside the model domain, at the (m, rows)
    parameters U: all chart columns as one contiguous (n, m, rows) array
    U E^T + P^T per test, each entry the p + u e of its column."""
    PT, ET = np.ascontiguousarray(P.T)[:, None], np.ascontiguousarray(E.T)[:, None]
    return lambda U: _leaf_value(U * ET + PT, psi, t) > 0.0


def _model_ray_stays(E, t):
    """Rays along which the leaf value cannot fall, psi_k > 0 for k < t: log
    coordinates nondecreasing, free coordinates fixed, first one nondecreasing."""
    return (np.all(E[:, 1:1 + t] >= 0.0, axis=1) & np.all(E[:, 1 + t:] == 0.0, axis=1)
            & (E[:, 0] >= 0.0))


# ---------------------------------------------------------------------------
# interiority, the march on a value function, the built-in kernels


def _interior(value_fn, P):
    """Rows of P that are finite points strictly inside the domain of a value
    function."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return np.all(np.isfinite(P), axis=1) & (value_fn(P) < 0.0)


def value_march(value_fn, X, Y):
    """End parameters and final bracket widths of both rays of every chord
    (see :func:`_rays`), by the march on a value function of chart rows that
    is negative inside: the (m, rows) parameters U of one test are m stacked
    copies of the rays, one ``value_fn`` call on m * rows chart rows."""
    P, E = _rays(X, Y)

    def inside(U):
        return (value_fn((P + U[:, :, None] * E).reshape(-1, P.shape[1])) < 0.0).reshape(U.shape)

    return _march(inside, np.zeros(P.shape[0], dtype=bool))


def value_distances(value_fn, X, Y) -> np.ndarray:
    """Hilbert distances by the march on a value function that is negative
    inside."""
    return _march_distances(value_march(value_fn, X, Y)[0])


def _ball_distances(X, Y) -> np.ndarray:
    """Hilbert distances between row-paired interior points of the unit ball."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    return _quadric_distances(_ball_end, X, Y)


def _model_distances(X, Y, psi, t: int) -> np.ndarray:
    """Hilbert distances between row-paired interior points of the model
    cusp domain with parameter psi (type t)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    if t == 0:
        return _quadric_distances(_model0_end, X, Y)
    psi = np.ascontiguousarray(psi, dtype=np.float64)
    P, E = _rays(X, Y)
    return _march_distances(_march(_model_inside(P, E, psi, t), _model_ray_stays(E, t))[0])
