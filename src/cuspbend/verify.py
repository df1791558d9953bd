"""Randomized property suites behind the ``verify`` subcommand.

A property is a function of one ``numpy`` Generator returning a
:class:`PropertyResult`; a suite is the ordered list of its properties, run
on one Generator seeded per suite, so (suite, seed) fixes the outcome.  The
CLI turns any failure into a nonzero exit code.  Residuals are folded with
``np.maximum``, which keeps a NaN (``max(0.0, nan)`` is ``0.0``).

Routes: trial by trial, except as follows.  ``hilbert.klein-agreement``
checks the row-wise :func:`hilbert.klein_distance` against the march on
the ball's value function, and ``hilbert.projective-naturality`` the ball's
closed form against the march on the moved ball's value; the metric-axiom
and geodesy properties score batches of :func:`hilbert.hilbert_distances`,
the model points built in one ``hilbert._leaf_value`` pass.
``classify.type-law`` scores one :func:`cusp_classify.conjugation_residuals`
grid per n, ``inverted-parameter-blowup`` one array of
:func:`cusp_classify.cusp_parameter_entry`, and
``exact-normal-form-identity`` runs ``conjugate_and_match`` on the integer
route.  Exact properties compare maps by their reduced ``(den, num)``, the
only form an exact map has.

Three properties read float linear algebra that no other route needs, so
it lives here, private: ``projlin.eigen-residuals`` scores ||A v - lambda
v|| over the pairs of ``np.linalg.eig``, ``classify.model-bend-diagonalizable``
finds a simultaneous eigenbasis from random linear combinations, and
``classify.bent-generators-triangularizable`` runs a greedy common-flag
upper-triangularization.  ``eigen-residuals`` checks numpy's ``eig``, not
two cuspbend routes against each other; retargeting it would change
``verify --seed 0`` output, which the fixture ``verify_seed0.json`` holds
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from . import bending, cusp_classify, cusp_models, hilbert
from .cusp_classify import RectangularCuspData
from .cusp_models import CuspParameter, ModelDomain, leaf_coordinate, leaf_point
from .projlin import DEFAULT_TOL, ProjMap, ProjPoint, act, compose, inverse, proj_equiv


@dataclass(frozen=True)
class PropertyResult:
    suite: str
    name: str
    trials: int
    max_residual: float
    tol: float
    passed: bool
    note: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def _result(suite, name, trials, max_residual, tol, note="") -> PropertyResult:
    return PropertyResult(suite, name, trials, float(max_residual), tol,
                          float(max_residual) <= tol, note)


def _random_map(rng, size, max_cond=100.0) -> np.ndarray:
    while True:
        m = rng.uniform(-1.0, 1.0, (size, size))
        if abs(np.linalg.det(m)) > 1e-3 and np.linalg.cond(m) <= max_cond:
            return m


def _random_fraction(rng, lo=-9, hi=9) -> Fraction:
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, 8)))


def _same(a: ProjMap, b: ProjMap) -> bool:
    """Equality of two exact maps by their reduced ``(den, num)``; a float
    map raises, so that its ``None`` parts never compare equal."""
    if not (a.exact and b.exact):
        raise ValueError("exact equality needs two exact maps")
    return a.den == b.den and bool(np.array_equal(a.num, b.num))


def _norm_diff(a: ProjMap, b: ProjMap) -> float:
    fa, fb = (np.asarray(m.to_float().entries) for m in (a, b))
    fa, fb = (f / np.max(np.abs(f)) for f in (fa, fb))
    if np.sign(fa.ravel()[np.argmax(np.abs(fa))]) != np.sign(fb.ravel()[np.argmax(np.abs(fb))]):
        fb = -fb
    return float(np.max(np.abs(fa - fb)))


# ---------------------------------------------------------------------------
# eigenpairs, common flags and simultaneous eigenbases: float linear algebra
# that only eigen-residuals, bent-generators-triangularizable and
# model-bend-diagonalizable read

# random linear combinations tried by _diagonalize
DIAGONALIZE_TRIES = 10


def _eigen_residuals(mat: np.ndarray) -> list[float]:
    """||A v - lambda v||_2 for each pair (lambda, v) of ``np.linalg.eig(A)``,
    with v scaled to unit length."""
    values, vectors = np.linalg.eig(mat)
    out = []
    for lam, v in zip(values, vectors.T):
        v = v / np.linalg.norm(v)
        out.append(float(np.linalg.norm(mat @ v - lam * v)))
    return out


def _real_eigenspaces(mat: np.ndarray, tol: float):
    """Clustered real eigenvalues with orthonormal null-space bases.

    Returns (spaces, borderline): borderline marks shaky rank or cluster
    decisions so callers can report ambiguity instead of guessing.
    """
    m = mat.shape[0]
    vals = np.linalg.eigvals(mat)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    ctol = max(tol, 1e-12) * scale * 100
    borderline = False
    real_vals = []
    for lam in vals:
        if abs(lam.imag) > ctol:
            if abs(lam.imag) < 10 * ctol:
                borderline = True
            continue
        real_vals.append(lam.real)
    clusters = []
    for lam in sorted(real_vals):
        if clusters and abs(lam - clusters[-1][-1]) <= ctol:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    spaces = []
    for cluster in clusters:
        lam = float(np.mean(cluster))
        shifted = mat - lam * np.eye(m)
        _, svals, vt = np.linalg.svd(shifted)
        null_tol = max(tol, 1e-10) * max(svals[0], 1.0)
        dim = int(np.sum(svals <= null_tol))
        if dim == 0:
            borderline = True
            continue
        dropped = svals[m - dim - 1] if m - dim - 1 >= 0 else None
        if dropped is not None and dropped < 10 * null_tol:
            borderline = True
        spaces.append(vt[m - dim:].T)
    return spaces, borderline


def _intersect(basis_a: np.ndarray, basis_b: np.ndarray, tol: float):
    stacked = np.hstack([basis_a, -basis_b])
    _, svals, vt = np.linalg.svd(stacked)
    null_tol = max(tol, 1e-10) * max(svals[0], 1.0)
    dim = int(np.sum(svals <= null_tol))
    if stacked.shape[1] > len(svals):
        dim += stacked.shape[1] - len(svals)
    if dim == 0:
        return None
    coeffs = vt[-dim:].T
    vecs = basis_a @ coeffs[:basis_a.shape[1]]
    q, _ = np.linalg.qr(vecs)
    return q[:, :dim]


def _common_eigenvector(mats: list[np.ndarray], tol: float):
    spaces, borderline = _real_eigenspaces(mats[0], tol)
    candidates = spaces
    for mat in mats[1:]:
        spaces, bl = _real_eigenspaces(mat, tol)
        borderline |= bl
        merged = []
        for basis in candidates:
            for other in spaces:
                common = _intersect(basis, other, tol)
                if common is not None:
                    merged.append(common)
        candidates = merged
        if not candidates:
            return None, borderline
    # prefer the axis-aligned choice (ties broken toward the lowest axis) so
    # already-triangular input keeps its own flag
    best = None                            # (-score, axis, vec)
    for basis in candidates:
        scores = np.linalg.norm(basis, axis=1)
        for axis in np.argsort(-scores):
            axis = int(axis)
            vec = basis @ basis[axis, :]
            norm = np.linalg.norm(vec)
            if norm == 0:
                continue
            key = (-round(float(scores[axis]), 9), axis)
            if best is None or key < best[0]:
                best = (key, vec / norm)
            break
    return (None if best is None else best[1]), borderline


def _triangularize(gens: list[ProjMap]) -> tuple:
    """Greedy common-flag search: find a common eigenvector, quotient,
    recurse.  Returns (status, residual, conjugator), status "true",
    "false" or "ambiguous" (shaky numerical rank decisions, or a conjugator
    that verifies only loosely), never a guess.  The conjugator is the
    float array C with every C g C^{-1} upper triangular, and the residual
    the largest lower-triangle entry of those over their largest entry;
    both are None when some flag level has no common eigenvector."""
    mats = [mat / np.max(np.abs(mat)) for mat in (g.to_float().entries for g in gens)]
    m = mats[0].shape[0]
    basis_total = np.eye(m)
    current = mats
    borderline_any = False
    for level in range(m - 1):
        size = m - level
        vec, borderline = _common_eigenvector(current, DEFAULT_TOL)
        borderline_any |= borderline
        if vec is None:
            return ("ambiguous" if borderline else "false"), None, None
        stacked = np.hstack([vec.reshape(-1, 1), np.eye(size)])
        q, _ = np.linalg.qr(stacked)
        q = q[:, :size]
        if np.dot(q[:, 0], vec) < 0:
            q[:, 0] = -q[:, 0]
        block = np.eye(m)
        block[level:, level:] = q
        basis_total = basis_total @ block
        current = [(q.T @ mat @ q)[1:, 1:] for mat in current]
    conj = basis_total.T                  # rows: conj . g . conj^{-1} is triangular
    residual = 0.0
    for mat in mats:
        tri = conj @ mat @ basis_total
        lower = np.tril(tri, -1)
        residual = max(residual, float(np.max(np.abs(lower)) / np.max(np.abs(tri))))
    if residual <= DEFAULT_TOL:
        status = "true"
    elif residual <= math.sqrt(DEFAULT_TOL) or borderline_any:
        status = "ambiguous"
    else:
        status = "false"
    return status, residual, conj


def _diagonalize(gens: list[ProjMap], rng: np.random.Generator) -> Optional[float]:
    """Residual of a simultaneous eigenbasis of pairwise commuting
    generators, found from a random linear combination and verified by
    explicit conjugation: the largest off-diagonal entry of each V^{-1} g V
    over its largest entry.  None when none of ``DIAGONALIZE_TRIES``
    combinations gives a basis within ``DEFAULT_TOL``.  Before any draw
    from rng, the first pair i < j in lexicographic order whose products
    g_i g_j and g_j g_i are not :func:`proj_equiv` in floats raises
    ``ValueError``."""
    floats = [g.to_float() for g in gens]
    for (i, a), (j, b) in combinations(enumerate(floats), 2):
        if not proj_equiv(compose(a, b), compose(b, a)):
            raise ValueError(f"generators {i} and {j} do not commute")
    mats = [mat / np.max(np.abs(mat)) for mat in (g.entries for g in floats)]
    for _ in range(DIAGONALIZE_TRIES):
        coeffs = rng.normal(size=len(mats))
        combo = sum(c * mat for c, mat in zip(coeffs, mats))
        _, vecs = np.linalg.eig(combo)
        if not np.all(np.isfinite(vecs)):
            continue
        if np.linalg.cond(vecs) > 1e12:
            continue
        vinv = np.linalg.inv(vecs)
        residual = 0.0
        for mat in mats:
            w = vinv @ mat @ vecs
            off = w - np.diag(np.diag(w))
            residual = max(residual, float(np.max(np.abs(off)) / np.max(np.abs(w))))
        if residual <= DEFAULT_TOL:
            return residual
    return None


# ---------------------------------------------------------------------------
# projlin


def compose_associative_float(rng) -> PropertyResult:
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a, b, c = (ProjMap(_random_map(rng, n + 1)) for _ in range(3))
        worst = np.maximum(worst, _norm_diff(compose(compose(a, b), c),
                                            compose(a, compose(b, c))))
    return _result("projlin", "compose-associative-float", 200, worst, 1e-12)


def compose_associative_exact(rng) -> PropertyResult:
    ok = True
    for _ in range(50):
        size = int(rng.integers(2, 5)) + 1
        a, b, c = (ProjMap([[_random_fraction(rng) for _ in range(size)] for _ in range(size)])
                   for _ in range(3))
        ok &= _same(compose(compose(a, b), c), compose(a, compose(b, c)))
    return _result("projlin", "compose-associative-exact", 50, 0.0 if ok else 1.0, 0.5)


def act_composition(rng) -> PropertyResult:
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a, b = (ProjMap(_random_map(rng, n + 1)) for _ in range(2))
        p = ProjPoint(rng.uniform(-1, 1, n + 1) + 2.0)
        lhs = act(compose(a, b), p).coords
        rhs = act(a, act(b, p)).coords
        worst = np.maximum(worst, float(np.max(np.abs(
            lhs / lhs[np.argmax(np.abs(lhs))] - rhs / rhs[np.argmax(np.abs(rhs))]))))
    return _result("projlin", "act-composition", 200, worst, 1e-12)


def proj_equiv_equivalence(rng) -> PropertyResult:
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = ProjMap(_random_map(rng, n + 1))
        b = ProjMap(np.asarray(a.entries) * rng.uniform(0.1, 5.0) * rng.choice([-1, 1]))
        c = ProjMap(np.asarray(b.entries) * rng.uniform(0.1, 5.0))
        ok &= proj_equiv(a, a)                      # reflexive
        ok &= proj_equiv(a, b) and proj_equiv(b, a)  # symmetric
        ok &= proj_equiv(a, c)                      # transitive chain
        ok &= not proj_equiv(a, ProjMap(np.asarray(a.entries) + np.eye(n + 1)), 1e-6)
    return _result("projlin", "proj-equiv-equivalence", 100, 0.0 if ok else 1.0, 0.5)


def eigen_residuals(rng) -> PropertyResult:
    worst = 0.0
    for _ in range(100):
        mat = _random_map(rng, int(rng.integers(4, 9)), max_cond=1e3)
        worst = np.maximum(worst, np.max(_eigen_residuals(mat)))
    return _result("projlin", "eigen-residuals", 100, worst, 1e-9)


def inverse_roundtrip(rng) -> PropertyResult:
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = ProjMap(_random_map(rng, n + 1))
        worst = np.maximum(worst, _norm_diff(compose(a, inverse(a)),
                                            ProjMap.identity(n, exact=False)))
    return _result("projlin", "inverse-roundtrip", 100, worst, 1e-10)


# ---------------------------------------------------------------------------
# cusp_models


def _random_psi(rng, n: int, max_type: Optional[int] = None) -> CuspParameter:
    t = int(rng.integers(0, (n if max_type is None else max_type) + 1))
    vals = sorted(rng.uniform(0.2, 3.0, t), reverse=True)
    return CuspParameter(list(vals) + [0.0] * (n - t))


def _random_h_element(rng, psi: CuspParameter):
    return cusp_models.h_element(psi, list(np.exp(rng.uniform(-1.0, 1.0, psi.type))),
                                 list(rng.uniform(-2.0, 2.0, psi.n - 1 - psi.type)))


def closure_exact_unit_diagonal(rng) -> PropertyResult:
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(0, n))
        vals = sorted((_random_fraction(rng, 1, 9) + Fraction(1, 3) for _ in range(t)),
                      reverse=True)
        psi = CuspParameter(vals + [Fraction(0)] * (n - t))
        ones = [Fraction(1)] * psi.type
        a, b = (cusp_models.h_element(psi, ones, [_random_fraction(rng)
                                                  for _ in range(n - 1 - psi.type)])
                for _ in range(2))
        ok &= _same(cusp_models.h_product(a, b).matrix, compose(a.matrix, b.matrix))
    return _result("cusp_models", "closure-exact-unit-diagonal", 100, 0.0 if ok else 1.0, 0.5)


def closure_float(rng) -> PropertyResult:
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        psi = _random_psi(rng, n, max_type=n - 1)
        a = _random_h_element(rng, psi)
        b = _random_h_element(rng, psi)
        worst = np.maximum(worst, _norm_diff(cusp_models.h_product(a, b).matrix,
                                            compose(a.matrix, b.matrix)))
    return _result("cusp_models", "closure-float", 1000, worst, 1e-12)


def leaf_invariance(rng, perturb: float) -> PropertyResult:
    """Leaf-coordinate drift under group elements; ``perturb`` adds that much
    Gaussian noise to each element (the negative control)."""
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        psi = _random_psi(rng, n, max_type=n - 1)
        dom = ModelDomain(psi)
        t = psi.type
        g = _random_h_element(rng, psi).matrix
        if perturb:
            g = ProjMap(np.asarray(g.to_float().entries)
                        + perturb * rng.standard_normal((n + 1, n + 1)))
        c = float(rng.uniform(0.0, 3.0))
        coords = list(rng.uniform(0.2, 3.0, t)) + list(rng.uniform(-2.0, 2.0, n - 1 - t))
        c2, _tag = leaf_coordinate(dom, act(g, leaf_point(dom, c, coords)))
        worst = np.maximum(worst, abs(float(c2) - c))
    note = f"perturb={perturb}" if perturb else ""
    return _result("cusp_models", "leaf-invariance", 1000, worst, 1e-9, note)


def form_preservation_exact(rng) -> PropertyResult:
    ok = True
    for _ in range(100):
        m = cusp_models.ParaboloidModel(int(rng.integers(2, 7)))
        h = cusp_models.parabolic_element(m, [_random_fraction(rng) for _ in range(m.n - 1)])
        q = m.form.num
        ok &= bool(np.array_equal(h.num.T @ q @ h.num, h.den ** 2 * q))
    return _result("cusp_models", "form-preservation-exact", 100, 0.0 if ok else 1.0, 0.5)


def zprime_one_parameter(rng) -> PropertyResult:
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        k = _random_fraction(rng)
        lam1 = _random_fraction(rng, 1, 9)
        lam2 = _random_fraction(rng, 1, 9)
        z1, z2, z12 = (cusp_models.zprime_element(lam, k, n) for lam in (lam1, lam2, lam1 * lam2))
        ok &= _same(compose(z1, z2), z12)
    return _result("cusp_models", "zprime-one-parameter", 100, 0.0 if ok else 1.0, 0.5)


def scaling_type_invariance(rng) -> PropertyResult:
    ok = True
    for _ in range(100):
        psi = _random_psi(rng, int(rng.integers(2, 7)))
        scaled = psi.scaled(float(rng.uniform(0.1, 10.0)))
        ok &= cusp_models.cusp_type(psi) == cusp_models.cusp_type(scaled)
        ok &= cusp_classify.equivalent_parameters(psi, scaled)
    return _result("cusp_models", "scaling-type-invariance", 100, 0.0 if ok else 1.0, 0.5)


# ---------------------------------------------------------------------------
# hilbert


def _ball_points(rng, count: int, n: int, radius: float = 0.85) -> np.ndarray:
    pts = rng.uniform(-1.0, 1.0, (count, n))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / n)
    return pts / np.maximum(norms, 1e-12) * radii


def klein_agreement(rng) -> PropertyResult:
    """The Klein formula against the march on the ball's value function, not
    against the batch route's own closed form."""
    worst = 0.0
    for n in (2, 3):
        x, y = (_ball_points(rng, 1000, n) for _ in range(2))
        dh = hilbert.value_distances(hilbert._ball_value, x, y)
        worst = np.maximum(worst, float(np.max(np.abs(dh - hilbert.klein_distance(x, y)))))
    return _result("hilbert", "klein-agreement", 2000, worst, 1e-9)


def metric_axioms_ball(rng) -> PropertyResult:
    worst = 0.0
    for n in (2, 3):
        dom = hilbert.ball_oracle(n)
        x, y, z = (_ball_points(rng, 1000, n) for _ in range(3))
        worst = np.maximum(worst, _metric_axioms_residual(dom, x, y, z))
        worst = np.maximum(worst, float(np.max(np.abs(hilbert.hilbert_distances(dom, x, x)))))
    return _result("hilbert", "metric-axioms-ball", 2000, worst, 1e-9)


def _metric_axioms_residual(dom, x, y, z) -> float:
    """Worst asymmetry |d(x, y) - d(y, x)| and triangle excess
    d(x, y) - d(x, z) - d(z, y) over the rows."""
    dxy, dyx, dxz, dzy = (hilbert.hilbert_distances(dom, p, q)
                          for p, q in ((x, y), (y, x), (x, z), (z, y)))
    return np.maximum(float(np.max(np.abs(dxy - dyx))), float(np.max(dxy - (dxz + dzy))))


def metric_axioms_model(rng) -> PropertyResult:
    """Model domains of types 0, 1 and 2 in dimension 3.  A trial draws the
    leaf height c and the coordinates x of one point; its first coordinate,
    c - sum psi_k log x_k + |x'|^2 / 2, is minus the leaf value at (-c, x)."""
    worst = 0.0
    for t in (0, 1, 2):
        psi = CuspParameter([1.0] * t + [0.0] * (3 - t))
        lo = np.array([0.05] + [0.3] * t + [-1.5] * (2 - t))
        hi = np.array([2.5] * (1 + t) + [1.5] * (2 - t))
        pts = lo + (hi - lo) * rng.random((3000, 3))
        pts[:, 0] = -hilbert._leaf_value(np.vstack([-pts[:, 0], pts.T[1:]]), psi.psi, t)
        worst = np.maximum(worst, _metric_axioms_residual(
            hilbert.model_domain_oracle(psi), pts[:1000], pts[1000:2000], pts[2000:]))
    return _result("hilbert", "metric-axioms-model", 3000, worst, 1e-9)


def projective_naturality(rng) -> PropertyResult:
    """The closed form at x, y against the march on the moved domain's
    value at gx, gy, not against the moved oracle's distances, which pull
    gx, gy back to the same closed form."""
    worst = 0.0
    dom = hilbert.ball_oracle(2)
    for _ in range(50):
        g = ProjMap(np.eye(3) + 0.05 * rng.uniform(-1, 1, (3, 3)))
        moved = hilbert.transformed_oracle(dom, g)
        x, y = (_ball_points(rng, 1, 2)[0] for _ in range(2))
        d0 = hilbert.hilbert_distance(dom, x, y)
        gx, gy = (act(g, ProjPoint(list(p) + [1.0])).chart()[None] for p in (x, y))
        d1 = hilbert.value_distances(moved.value, gx, gy)[0]
        worst = np.maximum(worst, abs(d0 - d1))
    return _result("hilbert", "projective-naturality", 50, worst, 1e-9)


def cross_ratio_invariance(rng) -> PropertyResult:
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        base = rng.uniform(-1, 1, n + 1) + np.array([2.0] + [0.0] * n)
        direction = rng.uniform(-1, 1, n + 1)
        us = np.sort(rng.uniform(-3, 3, 4))
        if np.min(np.diff(us)) < 1e-2:
            continue
        pts = [ProjPoint(base + u * direction) for u in us]
        cr0 = hilbert.cross_ratio(*pts)
        g = ProjMap(_random_map(rng, n + 1, max_cond=50))
        cr1 = hilbert.cross_ratio(*[act(g, p) for p in pts])
        worst = np.maximum(worst, abs(cr0 - cr1) / max(abs(cr0), 1.0))
    return _result("hilbert", "cross-ratio-invariance", 1000, worst, 1e-10)


def straight_segment_geodesy(rng) -> PropertyResult:
    worst = 0.0
    for n in (2, 3):
        dom = hilbert.ball_oracle(n)
        x, y = (_ball_points(rng, 200, n) for _ in range(2))
        z = x + rng.uniform(0.1, 0.9, (200, 1)) * (y - x)
        total = hilbert.hilbert_distances(dom, x, z) + hilbert.hilbert_distances(dom, z, y)
        direct = hilbert.hilbert_distances(dom, x, y)
        worst = np.maximum(worst, float(np.max(np.abs(total - direct))))
    return _result("hilbert", "straight-segment-geodesy", 400, worst, 1e-9)


def chord_convexity_scan(rng) -> PropertyResult:
    violations = 0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        x, y = (_ball_points(rng, 1, n)[0] for _ in range(2))
        try:
            hilbert.convexity_scan(hilbert.ball_oracle(n), x, y)
        except hilbert.ConvexityViolation:
            violations += 1
    return _result("hilbert", "chord-convexity-scan", 50, violations, 0.5)


# ---------------------------------------------------------------------------
# bending


def cusp_fixture_rep(data: RectangularCuspData) -> bending.MarkedRep:
    """Standard cusp generators as a marked representation with all
    pairwise commutator relators supplied."""
    gens = cusp_classify.standard_cusp_generators(data)
    names = [f"g{i}" for i in range(2, data.n + 1)]
    rels = [[a, b, f"{a}^-1", f"{b}^-1"] for i, a in enumerate(names) for b in names[i + 1:]]
    return bending.MarkedRep(data.n, dict(zip(names, [g.to_float() for g in gens])), rels)


def cusp_bending_moves(data: RectangularCuspData) -> list[bending.BendingMove]:
    """One move per bent slot: within the cusp group, bending along the slot's
    hyperplane is the stable-letter rule with the other generators as base."""
    names = [f"g{i}" for i in range(2, data.n + 1)]
    moves = []
    for k in data.bent_slots():
        base = [nm for j, nm in enumerate(names) if j != k]
        dec = bending.Decomposition("hnn", base=base, stable=names[k],
                                    edge_words=[[nm] for nm in base])
        c = cusp_models.hyperplane_centralizer_element(k + 2, math.exp(float(data.s[k])),
                                                       n=data.n)
        moves.append(bending.BendingMove(dec, c.to_float()))
    return moves


def relators_preserved(rng) -> PropertyResult:
    failures = 0
    for _ in range(50):
        n = int(rng.integers(3, 6))
        s = rng.uniform(0.05, 1.5, n - 1) * (rng.uniform(0, 1, n - 1) > 0.4)
        data = RectangularCuspData(n, b=list(rng.uniform(0.4, 2.0, n - 1)), s=list(s))
        current = cusp_fixture_rep(data)
        try:
            for move in cusp_bending_moves(data):
                current = bending.bend(current, move)  # checks relators before and after
        except (bending.RelatorViolation, bending.CentralizerCheckFailed):
            failures += 1
    return _result("bending", "relators-preserved", 50, failures, 0.5)


def order_independence(rng) -> PropertyResult:
    worst = 0.0
    n = 4
    rep = cusp_fixture_rep(RectangularCuspData(n, b=[1.0, 0.8, 1.2], s=[0.0] * 3))
    names = rep.names()
    for _ in range(100):
        moves = []
        for k in (int(k) for k in rng.choice(3, size=2, replace=False)):
            base = [nm for j, nm in enumerate(names) if j != k]
            dec = bending.Decomposition("hnn", base=base, stable=names[k],
                                        edge_words=[[nm] for nm in base])
            scale = float(rng.uniform(0.5, 2.0))
            diag = [scale] * (n + 1)
            diag[k + 1] = scale * math.exp(float(rng.uniform(0.05, 1.5)))
            moves.append(bending.BendingMove(dec, ProjMap.diagonal(diag)))
        fwd = bending.iterated_bend(rep, moves)
        rev = bending.iterated_bend(rep, moves[::-1])
        for nm in names:
            worst = np.maximum(worst, _norm_diff(fwd.generators[nm], rev.generators[nm]))
    return _result("bending", "order-independence", 100, worst, 1e-12)


def composition_in_parameter_exact(rng) -> PropertyResult:
    ok = True
    data = RectangularCuspData(3, b=[Fraction(1), Fraction(2)], s=[0.0, 0.0])
    rep = bending.MarkedRep(3, dict(zip(["g2", "g3"],
                                        cusp_classify.standard_cusp_generators(data))))
    dec = bending.Decomposition("amalgam", side1=["g2"], side2=["g3"], edge_words=[])
    for _ in range(50):
        c1, c2 = (ProjMap.diagonal([Fraction(1), _random_fraction(rng, 1, 9), Fraction(1),
                                    Fraction(1)]) for _ in range(2))
        once = bending.bend(bending.bend(rep, bending.BendingMove(dec, c1)),
                            bending.BendingMove(dec, c2))
        combined = bending.bend(rep, bending.BendingMove(dec, compose(c2, c1)))
        for nm in rep.names():
            ok &= _same(once.generators[nm], combined.generators[nm])
    return _result("bending", "composition-in-parameter-exact", 50, 0.0 if ok else 1.0, 0.5)


def identity_path(rng) -> PropertyResult:
    rep = cusp_fixture_rep(RectangularCuspData(4, b=[1.0, 1.0, 1.0], s=[0.0] * 3))
    dec = bending.Decomposition("hnn", base=["g3", "g4"], stable="g2",
                                edge_words=[["g3"], ["g4"]])
    bent = bending.bend(rep, bending.BendingMove(dec, ProjMap.identity(4, exact=False)))
    ok = all(proj_equiv(bent.generators[nm], rep.generators[nm], 1e-14) for nm in rep.names())
    return _result("bending", "identity-path", 1, 0.0 if ok else 1.0, 0.5)


# ---------------------------------------------------------------------------
# cusp_classify


def random_rect_data(rng, n: int) -> RectangularCuspData:
    b = rng.uniform(0.3, 2.5, n - 1).tolist()
    k = int(rng.integers(0, n))
    s = np.zeros(n - 1)
    if k:
        slots = rng.choice(n - 1, size=k, replace=False)
        s[slots] = rng.uniform(0.05, 2.0, k)
    return RectangularCuspData(n, b=b, s=s.tolist())


def exact_normal_form_identity(rng) -> PropertyResult:
    """Exact normal-form identity over all (n, t), 3 <= n <= 6, with the
    rational test values cycled through every slot; the first case with a
    nonzero residual or the wrong type fails the property and is named."""
    b_vals = [Fraction(1, 2), Fraction(1), Fraction(3)]
    mu_vals = [Fraction(2), Fraction(3, 2), Fraction(5)]
    cases = [(n, t, i, j) for n in range(3, 7) for t in range(1, n)
             for i in range(3) for j in range(3)]
    for n, t, i, j in cases:
        data = RectangularCuspData(n, b=[b_vals[(k + i) % 3] for k in range(n - 1)],
                                   mu=[mu_vals[(k + j) % 3] if k < t else Fraction(1)
                                       for k in range(n - 1)])
        cls = cusp_classify.conjugate_and_match(data)
        if cls.residual != 0 or cls.type != t:
            return _result("classify", "exact-normal-form-identity", 0, 1.0, 0.5,
                           f"residual {cls.residual}, type {cls.type} at n={n}, t={t}")
    return _result("classify", "exact-normal-form-identity", len(cases), 0.0, 0.5)


def type_law(rng) -> PropertyResult:
    """500 draws per n = 2..6, scored as one float grid per n.  A row is bad
    when it misses the normal form within the default tolerance, or its
    count of bent slots or of positive parameter entries is not its count of
    nonzero bending parameters."""
    bad = 0
    for n in range(2, 7):
        rows = [random_rect_data(rng, n) for _ in range(500)]
        b, s, mu = (np.array([getattr(d, f) for d in rows], dtype=np.float64)
                    for f in ("b", "s", "mu"))
        residuals = cusp_classify.conjugation_residuals(b, s, mu)
        bent = mu != 1
        entries = np.where(bent, cusp_classify.cusp_parameter_entry(b, mu, s), 0.0)
        expected = np.count_nonzero(s, axis=1)
        bad += int(np.count_nonzero(~(residuals <= DEFAULT_TOL)
                                    | (np.count_nonzero(bent, axis=1) != expected)
                                    | (np.count_nonzero(entries > 0, axis=1) != expected)))
    return _result("classify", "type-law", 2500, bad, 0.5)


def inverted_parameter_blowup(rng) -> PropertyResult:
    cls = cusp_classify.conjugate_and_match(RectangularCuspData(2, b=[1.0], s=[1e-6]))
    a_inv = 1.0 / float(cls.psi.psi[0])
    grid = np.linspace(0.02, 2.0, 100)
    inverted = 1.0 / cusp_classify.cusp_parameter_entry(1.0, np.exp(grid), grid)
    monotone = bool(np.all(np.diff(inverted, prepend=-math.inf) > 0))
    return _result("classify", "inverted-parameter-blowup", 101,
                   a_inv if monotone else 1.0, 1e-11,
                   f"a_inv(1e-6)={a_inv:.3e}, monotone={monotone}")


def scaling_equivalence(rng) -> PropertyResult:
    ok = True
    for _ in range(100):
        psi = _random_psi(rng, int(rng.integers(2, 7)))
        ok &= cusp_classify.equivalent_parameters(psi, psi.scaled(float(rng.uniform(0.01, 10.0))))
    done = 0
    while done < 100:
        n = int(rng.integers(2, 7))
        p1 = _random_psi(rng, n)
        p2 = _random_psi(rng, n)
        fa, fb = (np.array([float(x) for x in p.psi]) for p in (p1, p2))
        if fa.max() == 0 and fb.max() == 0:
            continue
        if fa.max() > 0 and fb.max() > 0 and np.max(np.abs(fa / fa.max() - fb / fb.max())) < 1e-6:
            continue
        ok &= not cusp_classify.equivalent_parameters(p1, p2)
        done += 1
    return _result("classify", "scaling-equivalence", 200, 0.0 if ok else 1.0, 0.5)


def pipeline_equivalence(rng) -> PropertyResult:
    worst = 0.0
    for _ in range(100):
        data = random_rect_data(rng, int(rng.integers(3, 6)))
        rep = cusp_fixture_rep(data)
        bent_rep = bending.iterated_bend(rep, cusp_bending_moves(data))
        for nm, g in zip(rep.names(), cusp_classify.bent_cusp_generators(data)):
            worst = np.maximum(worst, _norm_diff(bent_rep.generators[nm], g.to_float()))
    return _result("classify", "pipeline-equivalence", 100, worst, 1e-12)


def model_bend_diagonalizable(rng) -> PropertyResult:
    worst = 0.0
    fails = 0
    for _ in range(50):
        n = int(rng.integers(3, 6))
        gens = {nm: ProjMap.diagonal([1.0] + list(np.exp(rng.uniform(-1, 1, n - 1))) + [1.0])
                for nm in ("a", "b", "h")}
        lam = float(np.exp(rng.uniform(-1.5, 1.5)))
        if abs(lam - 1.0) < 0.05:
            lam += 0.1
        k = float(rng.uniform(-2.0, 2.0))
        dec = bending.Decomposition("hnn", base=["a", "b"], stable="h",
                                    edge_words=[["a"], ["b"]])
        move = bending.BendingMove(dec, cusp_models.zprime_element(lam, k, n).to_float())
        bent_rep = bending.bend(bending.MarkedRep(n, gens), move)
        res = _diagonalize(list(bent_rep.generators.values()), rng)
        if res is None:
            fails += 1
        else:
            worst = np.maximum(worst, res)
    return _result("classify", "model-bend-diagonalizable", 50,
                   worst if fails == 0 else 1.0, 1e-9, f"failures={fails}")


def bent_generators_triangularizable(rng) -> PropertyResult:
    status, residual, _ = _triangularize(cusp_classify.bent_cusp_generators(
        RectangularCuspData(4, b=[1.0, 0.7, 1.3], s=[0.4, 0.0, 0.9])))
    return _result("classify", "bent-generators-triangularizable", 1,
                   residual if status == "true" else 1.0, 1e-9, f"status={status}")


# ---------------------------------------------------------------------------
# suites: each the ordered list of its properties

SUITES: dict[str, tuple[Callable[..., PropertyResult], ...]] = {
    "projlin": (compose_associative_float, compose_associative_exact, act_composition,
                proj_equiv_equivalence, eigen_residuals, inverse_roundtrip),
    "cusp_models": (closure_exact_unit_diagonal, closure_float, leaf_invariance,
                    form_preservation_exact, zprime_one_parameter, scaling_type_invariance),
    "hilbert": (klein_agreement, metric_axioms_ball, metric_axioms_model, projective_naturality,
                cross_ratio_invariance, straight_segment_geodesy, chord_convexity_scan),
    "bending": (relators_preserved, order_independence, composition_in_parameter_exact,
                identity_path),
    "classify": (exact_normal_form_identity, type_law, inverted_parameter_blowup,
                 scaling_equivalence, pipeline_equivalence, model_bend_diagonalizable,
                 bent_generators_triangularizable),
}


def run_suites(names=None, seed: int = 0, perturb: float = 0.0) -> list[PropertyResult]:
    """The named suites (all by default), each on its own Generator seeded
    with ``seed``; ``perturb`` goes to leaf-invariance."""
    results = []
    for name in (names or SUITES):
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        rng = np.random.default_rng(seed)
        results += [prop(rng, perturb) if prop is leaf_invariance else prop(rng)
                    for prop in SUITES[name]]
    return results
