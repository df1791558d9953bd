"""Hilbert metric on properly convex domains presented by membership oracles.

The distance between two interior points is half the log of the cross ratio
of the four collinear points (boundary, x, y, boundary) on their chord.
Boundary crossings are located by an exponential march followed by bisection:
oracle-only access forbids closed-form intersection.

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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _hilbert_kernels as _kernels
from .cusp_models import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    OUTSIDE_CHART,
    CuspParameter,
    ModelDomain,
    leaf_coordinate,
)
from .projlin import DEFAULT_TOL, ProjMap, ProjPoint, act, inverse

MAX_BISECT = _kernels.MAX_BISECT
U_CAP = _kernels.U_CAP


class ConvexityViolation(RuntimeError):
    """A tested chord met the interior in more than one interval."""


@dataclass(frozen=True)
class ConvexDomainOracle:
    """Properly convex domain known only through a classification oracle.

    ``classify(point, tol)`` returns one of interior / boundary / exterior /
    outside-chart; convexity is an assumed contract.  ``kind`` and ``params``
    let the batch routines route built-in domains to the fast kernels.
    """

    n: int
    classify: Callable[..., str]
    kind: str = "custom"
    params: tuple = ()


def ball_oracle(n: int) -> ConvexDomainOracle:
    """The open unit ball in the chart x_{n+1} = 1 (Klein model)."""

    def classify(p: ProjPoint, tol: float = DEFAULT_TOL) -> str:
        coords = np.asarray(p.to_float().coords, dtype=np.float64)
        if abs(coords[-1]) <= tol * np.max(np.abs(coords)):
            return OUTSIDE_CHART
        x = coords[:-1] / coords[-1]
        val = float(np.dot(x, x)) - 1.0
        if abs(val) <= tol:
            return BOUNDARY
        return INTERIOR if val < 0 else EXTERIOR

    return ConvexDomainOracle(n, classify, kind="ball")


def model_domain_oracle(psi: CuspParameter) -> ConvexDomainOracle:
    """Oracle for the model cusp domain of a type t < n parameter."""
    dom = ModelDomain(psi)

    def classify(p: ProjPoint, tol: float = DEFAULT_TOL) -> str:
        try:
            _, tag = leaf_coordinate(dom, p, tol)
        except ValueError:
            # nonpositive log-coordinate: outside the in-chart closure
            return EXTERIOR
        return tag

    t = psi.type
    params = (tuple(float(x) for x in psi.psi[:t]), t)
    return ConvexDomainOracle(psi.n, classify, kind="model", params=params)


def transformed_oracle(dom: ConvexDomainOracle, g: ProjMap) -> ConvexDomainOracle:
    """Oracle for the image g(domain); classification pulls back through g."""
    g_inv = inverse(g.to_float())

    def classify(p: ProjPoint, tol: float = DEFAULT_TOL) -> str:
        return dom.classify(act(g_inv, p.to_float()), tol)

    return ConvexDomainOracle(dom.n, classify)


@dataclass(frozen=True)
class ChordIntersection:
    """Boundary crossings of the chord through x and y, ordered z1, x, y, z2.

    ``unbounded`` names the ends ("z1", "z2", "both") whose march left the
    chart without exiting the domain; those crossings are None.  Such an end
    meets the boundary at the chord's point at infinity; when both ends are
    unbounded they meet it at the same point.
    """

    z1: Optional[ProjPoint]
    z2: Optional[ProjPoint]
    residual: float
    unbounded: Optional[str] = None
    u_params: tuple = ()


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


def _chart_point(x: np.ndarray) -> ProjPoint:
    return ProjPoint(np.append(x, 1.0))


def _require_interior(dom: ConvexDomainOracle, name: str, pt: np.ndarray) -> None:
    if not (np.all(np.isfinite(pt)) and dom.classify(_chart_point(pt), 0.0) == INTERIOR):
        raise ValueError(f"point {name} is not interior to the domain")


def _require_interior_rows(X: np.ndarray, Y: np.ndarray, interior) -> None:
    """The batch form of the contract: name the first bad row and point."""
    bad_x, bad_y = ~interior(X), ~interior(Y)
    rows = np.flatnonzero(bad_x | bad_y)
    if rows.size:
        i = int(rows[0])
        raise ValueError(
            f"row {i}: point {'x' if bad_x[i] else 'y'} is not interior to the domain")


def _march(dom: ConvexDomainOracle, base: np.ndarray, direction: np.ndarray,
           max_bisect: int):
    """Bracket and bisect the boundary along base + u*direction, u >= 1.

    Classification runs at tol 0 so bisection converges to the sign change
    itself, not the edge of a tolerance band.  Returns (u, residual) or
    (None, None) when the march hits the cap without leaving the domain.
    """

    def interior(u: float) -> bool:
        return dom.classify(_chart_point(base + u * direction), 0.0) == INTERIOR

    lo, hi = 1.0, 2.0
    while interior(hi):
        lo = hi
        hi *= 2.0
        if hi > U_CAP:
            return None, None
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if interior(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (hi - lo) * float(np.linalg.norm(direction))


def chord_boundary(dom: ConvexDomainOracle, x, y,
                   max_bisect: int = MAX_BISECT) -> ChordIntersection:
    """Locate the two boundary points of the chord through interior x, y."""
    xc = _as_chart(x, dom.n)
    yc = _as_chart(y, dom.n)
    if np.array_equal(xc, yc):
        raise ValueError("chord needs two distinct points")
    for name, pt in (("x", xc), ("y", yc)):
        _require_interior(dom, name, pt)
    d = yc - xc
    u2, res2 = _march(dom, xc, d, max_bisect)
    s1, res1 = _march(dom, yc, -d, max_bisect)
    unbounded = None
    if u2 is None and s1 is None:
        unbounded = "both"
    elif u2 is None:
        unbounded = "z2"
    elif s1 is None:
        unbounded = "z1"
    z1 = None if s1 is None else _chart_point(yc - s1 * d)
    z2 = None if u2 is None else _chart_point(xc + u2 * d)
    residual = max([r for r in (res1, res2) if r is not None], default=math.nan)
    # line parameter of each crossing in p(u) = x + u(y-x): z1 at 1-s, z2 at u
    u_params = (None if s1 is None else 1.0 - s1, u2)
    return ChordIntersection(z1, z2, residual, unbounded, u_params)


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
    svals = np.linalg.svd(P, compute_uv=False)
    if len(svals) > 2 and svals[2] > tol * svals[0]:
        raise ValueError(f"points are not collinear (planarity residual {svals[2] / svals[0]:.2e})")
    _, _, vt = np.linalg.svd(P)
    ab = P @ vt[:2].T
    def two_det(i: int, j: int) -> float:
        return ab[i, 0] * ab[j, 1] - ab[j, 0] * ab[i, 1]
    num = two_det(0, 2) * two_det(1, 3)
    den = two_det(0, 1) * two_det(2, 3)
    if den == 0:
        raise ValueError("cross ratio undefined: z1 = x or y = z2")
    return abs(num / den)


def hilbert_distance(dom: ConvexDomainOracle, x, y,
                     max_bisect: int = MAX_BISECT) -> float:
    """Hilbert distance between interior points.

    An end of the chord that never leaves the chart meets the boundary at
    the chord's point at infinity.  When both ends do, they meet it at the
    same point, so the cross ratio is 1 and the distance 0 (use
    chord_boundary directly for the diagnostic).
    """
    xc = _as_chart(x, dom.n)
    yc = _as_chart(y, dom.n)
    if np.array_equal(xc, yc):
        _require_interior(dom, "x", xc)
        return 0.0
    chord = chord_boundary(dom, xc, yc, max_bisect)
    if chord.unbounded == "both":
        return 0.0
    z1, z2 = chord.z1, chord.z2
    if chord.unbounded is not None:
        at_infinity = ProjPoint(np.append(yc - xc, 0.0))
        z1 = at_infinity if z1 is None else z1
        z2 = at_infinity if z2 is None else z2
    return 0.5 * math.log(cross_ratio(z1, _chart_point(xc), _chart_point(yc), z2))


def hilbert_distances(dom: ConvexDomainOracle, X, Y) -> np.ndarray:
    """Batch distances for row-paired chart points.

    Built-in domains run through the vectorized kernels of
    :mod:`cuspbend._hilbert_kernels`: the unit ball and the type-0 model
    domain are quadrics and take their chord ends in closed form; model
    domains of type t >= 1 have none and march every row at once.  Custom
    oracles fall back to :func:`hilbert_distance` per pair.  The marches stay
    as reference routes, since they need only a membership test: ``verify``
    checks the Klein formula against the batch march, and the tests check
    every batch row against the per-pair route.  Bad input raises the
    ValueError of :func:`hilbert_distance`, prefixed with the first
    offending row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if X.shape != Y.shape or X.shape[1] != dom.n:
        raise ValueError(f"expected paired arrays of shape (m, {dom.n})")
    if dom.kind == "ball":
        _require_interior_rows(X, Y, _kernels.ball_interior)
        return _kernels.ball_distances(X, Y)
    if dom.kind == "model":
        psi, t = dom.params
        psi = np.asarray(psi, dtype=np.float64)
        _require_interior_rows(X, Y, lambda P: _kernels.model_interior(P, psi, t))
        return _kernels.model_distances(X, Y, psi, t)
    out = np.empty(X.shape[0])
    for i, (x, y) in enumerate(zip(X, Y)):
        try:
            out[i] = hilbert_distance(dom, x, y)
        except ValueError as exc:
            raise ValueError(f"row {i}: {exc}") from exc
    return out


def klein_distance(x, y) -> float:
    """Closed-form hyperbolic distance between interior points of the unit
    ball: arccosh((1 - x.y) / sqrt((1-|x|^2)(1-|y|^2)))."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    nx = float(np.dot(xv, xv))
    ny = float(np.dot(yv, yv))
    if nx >= 1.0 or ny >= 1.0:
        raise ValueError("arguments must lie strictly inside the unit ball")
    arg = (1.0 - float(np.dot(xv, yv))) / math.sqrt((1.0 - nx) * (1.0 - ny))
    return math.acosh(max(arg, 1.0))


def convexity_scan(dom: ConvexDomainOracle, x, y, samples: int = 64) -> None:
    """Diagnostic: the open chord between two interior points must meet the
    interior in a single interval.  Raises ConvexityViolation otherwise."""
    xc = _as_chart(x, dom.n)
    yc = _as_chart(y, dom.n)
    tags = [dom.classify(_chart_point(xc + t * (yc - xc)), 0.0)
            for t in np.linspace(0.0, 1.0, samples)]
    runs = [tag for i, tag in enumerate(tags) if i == 0 or tag != tags[i - 1]]
    if runs.count(INTERIOR) > 1:
        raise ConvexityViolation(
            f"interior met in {runs.count(INTERIOR)} intervals along tested chord")
