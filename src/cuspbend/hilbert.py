"""Hilbert metric on properly convex domains presented by oracles.

The distance between two interior points is half the log of the cross ratio
of the four collinear points (boundary, x, y, boundary) on their chord.

A domain is its ``value``, a function of chart rows of shape (m, n) that is
negative exactly on the rows inside, and an optional ``distances`` kernel.
The built-in oracles supply both in numpy: the unit ball's quadric and the
model domain's negated leaf coordinate, with their own kernels (closed
forms on the quadrics, a column march on the other model domains).  A
domain with no kernel takes its chord ends from one vectorized march on
``value`` (exponential bracketing, then 52 exact halvings;
:mod:`cuspbend._hilbert_kernels`) for every pair at once.  A single pair
is a batch of one row.

A domain moved by ``transformed_oracle`` answers every question on its
base, since projective maps are Hilbert isometries: distances, chord ends
and the convexity scan pull the points back through g^-1 with one matmul
(a domain moved twice pulls back through the composite), divide by the
last homogeneous coordinate whatever its sign, and run the base's kernel or
march.  Chord ends are pushed forward through g as homogeneous points.  The
moved domain's own ``value`` does the same pull-back, and a row on the
pulled-back hyperplane at infinity is outside.

Everything here is float; the identities tested are metric, not algebraic.
A chord that never leaves the affine chart at one end (the model cusp
domains are unbounded in their chart) meets the boundary there at the
chord's point at infinity, so its distance stays finite; ``chord_boundary``
tags such an end as unbounded.  Single pairs and batches share one input
contract: a point that is not finite and strictly interior is a
``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _hilbert_kernels as _kernels
from .cusp_models import CuspParameter, ModelDomain
from .projlin import DEFAULT_TOL, ProjMap, ProjPoint, act, compose, inverse


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
    ``classify`` is read by no route; it is kept, None by default and set
    by keyword only, as a slot that outside tracers replace.
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
    return ConvexDomainOracle(n, _kernels._ball_value_np, _kernels.ball_distances)


def model_domain_oracle(psi: CuspParameter) -> ConvexDomainOracle:
    """Oracle for the model cusp domain of a type t < n parameter."""
    t = ModelDomain(psi).psi.type
    psi_t = np.array([float(x) for x in psi.psi[:t]], dtype=np.float64)
    return ConvexDomainOracle(psi.n, lambda P: _kernels._model_value_np(P, psi_t, t),
                              lambda X, Y: _kernels.model_distances(X, Y, psi_t, t))


def transformed_oracle(dom: ConvexDomainOracle, g: ProjMap) -> MovedOracle:
    """Oracle for the image g(domain), answered on the domain.

    A projective map is an isometry of the Hilbert metric, so every route
    (:func:`hilbert_distances`, :func:`chord_boundary`,
    :func:`convexity_scan`) pulls its points back through g^-1 and runs on
    the base domain: its kernel, or the march on its ``value``.  The image's
    own ``value`` pulls back the same way.  Moving a moved domain moves its
    base by the composite map, so every pull-back is one matmul.  g^-1 is
    computed here, once, and kept on the float g.
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


def _as_chart(p, n: int) -> np.ndarray:
    if isinstance(p, ProjPoint):
        arr = np.asarray(p.to_float().chart(), dtype=np.float64)
    else:
        arr = np.asarray(p, dtype=np.float64)
        if arr.shape == (n + 1,):
            if arr[-1] == 0:
                raise ValueError("point is outside the affine chart")
            arr = arr[:-1] / arr[-1]
    if arr.shape != (n,):
        raise ValueError(f"expected a point of dimension {n}, got shape {arr.shape}")
    return arr


def _require_interior_rows(dom: ConvexDomainOracle, X: np.ndarray, Y: np.ndarray,
                           batch: bool) -> None:
    """The input contract: every point finite and strictly interior.  A
    batch names the first offending row, a single pair only the point.  One
    ``value`` call tests X and Y stacked (one pull-back on a moved domain)."""
    bad_x, bad_y = np.split(~_kernels.interior(dom.value, np.vstack([X, Y])), 2)
    rows = np.flatnonzero(bad_x | bad_y)
    if rows.size:
        i = int(rows[0])
        msg = f"point {'x' if bad_x[i] else 'y'} is not interior to the domain"
        raise ValueError(f"row {i}: {msg}" if batch else msg)


def chord_boundary(dom: ConvexDomainOracle, x, y) -> ChordIntersection:
    """Locate the two boundary points of the chord through interior x, y.

    The march runs on the base domain's ``value`` at the pulled-back points:
    up to about 60 doubling tests, then 52 exact halvings to the float fixed
    point of bisection.  The bounded ends are pushed forward to homogeneous
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
    (u, s), widths = _kernels.value_march(base.value, X, Y)
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


def cross_ratio(z1, x, y, z2, tol: float = DEFAULT_TOL) -> float:
    """Cross ratio |z1-y||x-z2| / (|z1-x||y-z2|) of four collinear points,
    computed in an arbitrary affine chart of their common line."""
    pts = []
    for p in (z1, x, y, z2):
        v = np.asarray(p.to_float().coords if isinstance(p, ProjPoint) else p,
                       dtype=np.float64)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero vector is not a projective point")
        pts.append(v / norm)
    P = np.stack(pts)
    _, svals, vt = np.linalg.svd(P)
    if len(svals) > 2 and svals[2] > tol * svals[0]:
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
    """Hilbert distance between interior points: :func:`hilbert_distances`
    on one row, with the bad-input message naming only the point.

    An end of the chord that never leaves the chart meets the boundary at
    the chord's point at infinity.  When both ends do, they meet it at the
    same point, so the cross ratio is 1 and the distance 0 (use
    chord_boundary directly for the diagnostic).
    """
    X = _as_chart(x, dom.n)[None]
    Y = _as_chart(y, dom.n)[None]
    _require_interior_rows(dom, X, Y, batch=False)
    return float(_distances(dom, X, Y)[0])


def hilbert_distances(dom: ConvexDomainOracle, X, Y) -> np.ndarray:
    """Batch distances for row-paired chart points.

    A domain with its own ``distances`` kernel runs it: the unit ball and
    the type-0 model domain are quadrics and take their chord ends in closed
    form; model domains of type t >= 1 march every row at once with their
    own ray test (:mod:`cuspbend._hilbert_kernels`).  Every other domain
    runs the march on its ``value`` function, and a moved domain runs its
    base's route on the points pulled back through g^-1.  The march is also
    the independent route to the closed forms: ``verify`` checks the Klein
    formula against it on the ball, and on a moved ball's own ``value``.
    Interiority is checked on the domain's own ``value`` first, so bad input
    raises the ValueError of :func:`hilbert_distance`, prefixed with the
    first offending row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if X.shape != Y.shape or X.shape[1] != dom.n:
        raise ValueError(f"expected paired arrays of shape (m, {dom.n})")
    _require_interior_rows(dom, X, Y, batch=True)
    return _distances(dom, X, Y)


def _distances(dom: ConvexDomainOracle, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The body of both distance functions, on rows already checked: the
    base domain's kernel or march at the pulled-back rows."""
    base, X, Y = dom.on_base(X, Y)
    if base.distances is not None:
        return base.distances(X, Y)
    return _kernels.value_distances(base.value, X, Y)


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


def convexity_scan(dom: ConvexDomainOracle, x, y, samples: int = 64) -> None:
    """Diagnostic: the open chord between two interior points must meet the
    interior in a single interval; on a moved domain, the chord between the
    pulled-back points in the base chart.  Raises ConvexityViolation
    otherwise."""
    base, X, Y = dom.on_base(_as_chart(x, dom.n)[None], _as_chart(y, dom.n)[None])
    ts = np.linspace(0.0, 1.0, samples)[:, None]
    inside = _kernels.interior(base.value, X + ts * (Y - X))
    runs = int(inside[0]) + int(np.count_nonzero(inside[1:] & ~inside[:-1]))
    if runs > 1:
        raise ConvexityViolation(f"interior met in {runs} intervals along tested chord")
