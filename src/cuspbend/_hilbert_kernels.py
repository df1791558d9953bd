"""Hot chord-marching kernels for Hilbert distances in the built-in domains.

Two interchangeable implementations of the same bracket-then-bisect march:
numba ``@njit`` kernels and a vectorized pure-numpy fallback.  The active
path is chosen at import time: set ``CUSPBEND_NO_NUMBA=1`` (or install
without numba) to force the fallback.  ``benchmarks/bench_hilbert.py``
times both.

The march is identical to the generic oracle path in :mod:`cuspbend.hilbert`:
double the line parameter outward from the second point until the domain is
exited (cap ``U_CAP`` means the chord never leaves the chart), then bisect
at most ``MAX_BISECT`` times, stopping early at the float fixed point.  An
end that never leaves the chart lies at infinity and drops its factor
u/(u-1) from the cross ratio; past ``U_CAP`` that factor is exactly 1 in
floats anyway.  Only a chord unbounded at both ends has infinite length.
"""

from __future__ import annotations

import os

import numpy as np

U_CAP = 1e18
MAX_BISECT = 200

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False

NUMBA_DISABLED = os.environ.get("CUSPBEND_NO_NUMBA", "") not in ("", "0")
JIT_ENABLED = _HAVE_NUMBA and not NUMBA_DISABLED


# ---------------------------------------------------------------------------
# numba kernels

if _HAVE_NUMBA:

    @njit(cache=True)
    def _ball_value_at(x, d, u):
        # |x + u d|^2 - 1, computed without temporaries
        s = 0.0
        for i in range(x.shape[0]):
            p = x[i] + u * d[i]
            s += p * p
        return s - 1.0

    @njit(cache=True)
    def _model_value_at(x, d, u, psi, t):
        # leaf coordinate negated: negative inside, +1 past the in-chart closure
        c = x[0] + u * d[0]
        for k in range(t):
            p = x[1 + k] + u * d[1 + k]
            if p <= 0.0:
                return 1.0
            c += psi[k] * np.log(p)
        for j in range(1 + t, x.shape[0]):
            p = x[j] + u * d[j]
            c -= 0.5 * p * p
        return -c

    @njit(cache=True)
    def _march_ball(x, d):
        lo = 1.0
        hi = 2.0
        while _ball_value_at(x, d, hi) < 0.0:
            lo = hi
            hi *= 2.0
            if hi > U_CAP:
                return np.nan
        for _ in range(MAX_BISECT):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if _ball_value_at(x, d, mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @njit(cache=True)
    def _march_model(x, d, psi, t):
        lo = 1.0
        hi = 2.0
        while _model_value_at(x, d, hi, psi, t) < 0.0:
            lo = hi
            hi *= 2.0
            if hi > U_CAP:
                return np.nan
        for _ in range(MAX_BISECT):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if _model_value_at(x, d, mid, psi, t) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @njit(cache=True)
    def _distance_from_ends(u, s):
        if np.isnan(u) and np.isnan(s):
            return np.inf
        if np.isnan(u):
            return 0.5 * np.log(s / (s - 1.0))
        if np.isnan(s):
            return 0.5 * np.log(u / (u - 1.0))
        return 0.5 * np.log(s * u / ((s - 1.0) * (u - 1.0)))

    @njit(cache=True)
    def _ball_distances_jit(X, Y):
        m = X.shape[0]
        out = np.empty(m)
        for r in range(m):
            x = X[r]
            y = Y[r]
            d = y - x
            dn = 0.0
            for i in range(d.shape[0]):
                dn += d[i] * d[i]
            if dn == 0.0:
                out[r] = 0.0
                continue
            u = _march_ball(x, d)
            s = _march_ball(y, -d)
            out[r] = _distance_from_ends(u, s)
        return out

    @njit(cache=True)
    def _model_distances_jit(X, Y, psi, t):
        m = X.shape[0]
        out = np.empty(m)
        for r in range(m):
            x = X[r]
            y = Y[r]
            d = y - x
            dn = 0.0
            for i in range(d.shape[0]):
                dn += d[i] * d[i]
            if dn == 0.0:
                out[r] = 0.0
                continue
            u = _march_model(x, d, psi, t)
            s = _march_model(y, -d, psi, t)
            out[r] = _distance_from_ends(u, s)
        return out


# ---------------------------------------------------------------------------
# pure-numpy fallback: the same march vectorized across pairs

def _ball_value_np(P):
    return np.sum(P * P, axis=1) - 1.0


def _model_value_np(P, psi, t):
    n = P.shape[1]
    c = P[:, 0].copy()
    bad = np.zeros(P.shape[0], dtype=bool)
    for k in range(t):
        x = P[:, 1 + k]
        bad |= x <= 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            c += psi[k] * np.log(np.where(x > 0.0, x, 1.0))
    for j in range(1 + t, n):
        c -= 0.5 * P[:, j] * P[:, j]
    out = -c
    out[bad] = 1.0
    return out


def _march_np(value_fn, X, D):
    m = X.shape[0]
    lo = np.ones(m)
    hi = np.full(m, 2.0)
    unbounded = np.zeros(m, dtype=bool)
    while True:
        inside = value_fn(X + hi[:, None] * D) < 0.0
        inside &= ~unbounded
        if not inside.any():
            break
        lo[inside] = hi[inside]
        hi[inside] *= 2.0
        unbounded |= hi > U_CAP
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi) | unbounded
        if done.all():
            break
        inside = value_fn(X + mid[:, None] * D) < 0.0
        step = ~done
        lo = np.where(step & inside, mid, lo)
        hi = np.where(step & ~inside, mid, hi)
    u = 0.5 * (lo + hi)
    u[unbounded] = np.nan
    return u


def _distances_np(value_fn, X, Y):
    D = Y - X
    u = _march_np(value_fn, X, D)
    s = _march_np(value_fn, Y, -D)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = 0.5 * np.log(s * u / ((s - 1.0) * (u - 1.0)))
        out = np.where(np.isnan(u), 0.5 * np.log(s / (s - 1.0)), out)
        out = np.where(np.isnan(s), 0.5 * np.log(u / (u - 1.0)), out)
    out[np.isnan(u) & np.isnan(s)] = np.inf
    out[np.all(D == 0.0, axis=1)] = 0.0
    return out


def _ball_distances_np(X, Y):
    return _distances_np(_ball_value_np, X, Y)


def _model_distances_np(X, Y, psi, t):
    return _distances_np(lambda P: _model_value_np(P, psi, t), X, Y)


def ball_interior(P):
    """Rows of P that are finite points strictly inside the unit ball."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.all(np.isfinite(P), axis=1) & (_ball_value_np(P) < 0.0)


def model_interior(P, psi, t: int):
    """Rows of P that are finite points strictly inside the model domain."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.all(np.isfinite(P), axis=1) & (_model_value_np(P, psi, t) < 0.0)


# ---------------------------------------------------------------------------
# dispatch

def ball_distances(X, Y, jit: bool | None = None) -> np.ndarray:
    """Hilbert distances between row-paired chart points of the unit ball."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    use_jit = JIT_ENABLED if jit is None else (jit and _HAVE_NUMBA)
    if use_jit:
        return _ball_distances_jit(X, Y)
    return _ball_distances_np(X, Y)


def model_distances(X, Y, psi, t: int, jit: bool | None = None) -> np.ndarray:
    """Hilbert distances in the model cusp domain with parameter psi (type t)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    psi = np.ascontiguousarray(psi, dtype=np.float64)
    use_jit = JIT_ENABLED if jit is None else (jit and _HAVE_NUMBA)
    if use_jit:
        return _model_distances_jit(X, Y, psi, t)
    return _model_distances_np(X, Y, psi, t)
