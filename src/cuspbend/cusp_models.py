"""Model cusp parameters, groups, domains, and the bending centralizers.

A cusp parameter is a non-increasing vector of n nonnegative reals; its type
is the number of positive entries.  For type t < n the model domain lives in
the affine chart with last coordinate 1 and is foliated by level sets of the
leaf coordinate

    c = x_1 + sum_{k=1..t} psi_k log(x_{k+1}) - 1/2 sum_{j=t+2..n} x_j^2 .

The translation group preserving the domain leaf-wise consists of block
upper-triangular matrices with a positive t x t diagonal block and a
translation vector on the remaining coordinates; the corner entry is the
quantity sigma = 1/2 |v|^2 - sum_j psi_j log(d_j).

Index convention: the coefficient psi_k multiplies the log of coordinate
x_{k+1} (a type-t parameter has exactly t log terms, on coordinates
2..t+1).  See README for why this pairing is a documented choice.

Each matrix is written into an identity array, of exact scalars when every
input is exact and ``float64`` otherwise; :class:`ProjMap` keeps an exact
one as integers over one denominator, so no ``Fraction`` matrix is built.
Points are ``float64``, so a leaf coordinate is a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .projlin import DEFAULT_TOL, ProjMap, ProjPoint, is_exact

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"
OUTSIDE_CHART = "outside-chart"


@dataclass(frozen=True)
class CuspParameter:
    """Point of the positive closed dual Weyl chamber: psi_1 >= ... >= psi_n >= 0."""

    psi: tuple

    def __init__(self, psi):
        vals = tuple(psi)
        if not vals:
            raise ValueError("cusp parameter must have positive dimension")
        for i, x in enumerate(vals):
            if not (is_exact(x) or math.isfinite(x)):
                raise ValueError(f"psi_{i+1} = {x} is not finite")
            if x < 0:
                raise ValueError(f"psi_{i+1} = {x} < 0")
            if i > 0 and x > vals[i - 1]:
                raise ValueError(f"psi must be non-increasing, got {vals}")
        object.__setattr__(self, "psi", vals)

    @property
    def n(self) -> int:
        return len(self.psi)

    @property
    def type(self) -> int:
        return cusp_type(self)

    def scaled(self, r) -> "CuspParameter":
        if r <= 0:
            raise ValueError("scale factor must be positive")
        return CuspParameter([r * x for x in self.psi])


def cusp_type(psi: CuspParameter) -> int:
    """Greatest index with a positive entry (0 when psi = 0)."""
    t = 0
    for i, x in enumerate(psi.psi):
        if x > 0:
            t = i + 1
    return t


def _log_value(x):
    """log of a scalar: exact 1 -> exact 0, else math.log."""
    if is_exact(x) and x == 1:
        return Fraction(0)
    return math.log(float(x))


@dataclass(frozen=True)
class CuspGroupElement:
    """Element of the type-t translation group: parameters (d, v) with the
    derived corner sigma and the assembled matrix."""

    psi: CuspParameter
    d: tuple
    v: tuple
    log_d: tuple
    sigma: object
    matrix: ProjMap


def h_element(psi: CuspParameter, d, v, log_d=None, sigma=None) -> CuspGroupElement:
    """Build the group element with diagonal block d (length t, positive) and
    translation vector v (length n-1-t).

    Exact scalars keep sigma exact only when every log is exact: d_i = 1, or
    the caller supplies log_d (e.g. d = (e,) with log_d = (1,)).  Otherwise
    logs fall back to floats.
    """
    n, t = psi.n, psi.type
    if t >= n:
        raise ValueError(
            f"the block translation group is modeled for type < n; type {t} in "
            f"dimension {n} is the diagonal group instead")
    d = tuple(d)
    v = tuple(v)
    if len(d) != t:
        raise ValueError(f"need {t} diagonal entries for a type-{t} parameter, got {len(d)}")
    if len(v) != n - 1 - t:
        raise ValueError(f"need {n - 1 - t} translation entries, got {len(v)}")
    if any(x <= 0 for x in d):
        raise ValueError("diagonal entries must be positive")
    if log_d is None:
        if any(is_exact(x) and x != 1 for x in d):
            raise ValueError(
                "exact diagonal entries other than 1 need an explicit log_d; "
                "pass floats for a numeric corner instead")
        logs = tuple(_log_value(x) for x in d)
    else:
        logs = tuple(log_d)
        if len(logs) != t:
            raise ValueError("log_d length must match d")
    if sigma is None:
        sigma = sum((x * x for x in v), Fraction(0)) / 2
        for coeff, l in zip(psi.psi, logs):
            sigma = sigma - coeff * l

    exact = all(map(is_exact, d + v + logs + tuple(psi.psi) + (sigma,)))
    m = np.eye(n + 1, dtype=object if exact else np.float64)
    m[range(1, t + 1), range(1, t + 1)] = d
    m[0, t + 1:n] = m[t + 1:n, n] = v
    m[0, n] = sigma
    return CuspGroupElement(psi, d, v, logs, sigma, ProjMap(m))


def h_product(a: CuspGroupElement, b: CuspGroupElement) -> CuspGroupElement:
    """Group law on parameters: (d, v)(d', v') = (dd', v + v') with
    sigma'' = sigma + sigma' + v.v'; the matrix equals the matrix product."""
    if a.psi != b.psi:
        raise ValueError("elements belong to different cusp groups")
    d = tuple(x * y for x, y in zip(a.d, b.d))
    v = tuple(x + y for x, y in zip(a.v, b.v))
    logs = tuple(x + y for x, y in zip(a.log_d, b.log_d))
    dot = sum((x * y for x, y in zip(a.v, b.v)), Fraction(0))
    return h_element(a.psi, d, v, log_d=logs, sigma=a.sigma + b.sigma + dot)


class LeafLocation(NamedTuple):
    value: object               # leaf coordinate c, None when outside the chart
    tag: str


@dataclass(frozen=True)
class ModelDomain:
    """Model cusp domain for a parameter of type t < n, in the chart x_{n+1} = 1."""

    psi: CuspParameter

    def __post_init__(self):
        if self.psi.type >= self.psi.n:
            raise ValueError(
                f"model domain needs type < n, got type {self.psi.type} in dimension {self.psi.n}")

    @property
    def n(self) -> int:
        return self.psi.n


def leaf_coordinate(dom: ModelDomain, p: ProjPoint,
                    tol: float = DEFAULT_TOL) -> LeafLocation:
    """Leaf coordinate of a point, with its location tag.

    Points on the hyperplane at infinity of the chart, to within ``tol``
    times their largest coordinate, are tagged outside-chart (value None).
    Nonpositive log-coordinates are a domain error: such points lie outside
    the closure within this chart.
    """
    if p.n != dom.n:
        raise ValueError(f"point dimension {p.n} != domain dimension {dom.n}")
    t = dom.psi.type
    last = p.coords[-1]
    if abs(last) <= tol * np.max(np.abs(p.coords)):
        return LeafLocation(None, OUTSIDE_CHART)
    xs = p.coords[:-1] / last
    c = xs[0]
    for k in range(t):
        x = xs[1 + k]
        if x <= 0:
            raise ValueError(
                f"nonpositive log-coordinate x_{k+2} = {x}; point is outside the chart's closure")
        c = c + dom.psi.psi[k] * _log_value(x)
    for x in xs[1 + t:]:
        c = c - x * x / 2
    c = float(c)
    tag = BOUNDARY if abs(c) <= tol else (INTERIOR if c > 0 else EXTERIOR)
    return LeafLocation(c, tag)


def leaf_point(dom: ModelDomain, c, x) -> ProjPoint:
    """Point of the leaf at height c with coordinates x = (x_2, ..., x_n)."""
    t = dom.psi.type
    xs = list(x)
    if len(xs) != dom.n - 1:
        raise ValueError(f"need {dom.n - 1} coordinates, got {len(xs)}")
    if c < 0:
        raise ValueError("leaf parameter must be nonnegative")
    first = c
    for k in range(t):
        if xs[k] <= 0:
            raise ValueError(f"log-coordinate x_{k+2} must be positive, got {xs[k]}")
        first = first - dom.psi.psi[k] * _log_value(xs[k])
    for y in xs[t:]:
        first = first + y * y / 2
    return ProjPoint([first] + xs + [1])


@dataclass(frozen=True)
class ParaboloidModel:
    """Hyperbolic n-space as the negative cone of a signature (n,1) form that
    places a boundary point at the first basis vector."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("paraboloid model needs dimension >= 2")

    @property
    def form(self) -> ProjMap:
        q = np.eye(self.n + 1, dtype=object)
        q[0, 0] = q[self.n, self.n] = 0
        q[0, self.n] = q[self.n, 0] = -1
        return ProjMap(q)


def parabolic_element(m: ParaboloidModel, v) -> ProjMap:
    """Unipotent upper-triangular stabilizer of the boundary basis point:
    the type-0 group element with translation vector v."""
    psi0 = CuspParameter([Fraction(0)] * m.n)
    return h_element(psi0, (), v).matrix


def hyperplane_centralizer_element(i: int, mu, *, n: int) -> ProjMap:
    """One-parameter centralizer of the stabilizer of the i-th coordinate
    hyperplane: diagonal with mu = exp(t) > 0 in position i, ones
    elsewhere; an exact mu gives an exact map."""
    if not 2 <= i <= n:
        raise ValueError(f"hyperplane index must satisfy 2 <= i <= n, got {i}")
    if mu <= 0:
        raise ValueError("diagonal entry must be positive")
    diag = [1] * (n + 1)
    diag[i - 1] = mu
    return ProjMap.diagonal(diag)


def zprime_element(lam, k, n: int) -> ProjMap:
    """Diagonalizable centralizer element fixing every point of the first
    coordinate hyperplane and the point e_1 + k e_{n+1}."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    exact = is_exact(lam) and is_exact(k)
    m = np.eye(n + 1, dtype=object if exact else np.float64)
    m[0, 0] = lam
    m[n, 0] = k * (lam - 1) if exact else k * (lam - 1.0)
    return ProjMap(m)
