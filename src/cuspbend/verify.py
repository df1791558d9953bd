"""Randomized property suites behind the ``verify`` subcommand.

Each suite re-checks the invariants its module promises, with seeded
randomness so a (config, seed) pair fully determines the outcome.  Suites
return :class:`PropertyResult` rows; the CLI renders them and turns any
failure into a nonzero exit code.  Residuals are folded with ``np.maximum``,
which keeps a NaN (Python's ``max(0.0, nan)`` is ``0.0``), so a NaN residual
fails its property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import _hilbert_kernels, bending, cusp_classify, cusp_models, hilbert, projlin
from .cusp_classify import RectangularCuspData
from .cusp_models import CuspParameter, ModelDomain, leaf_coordinate, leaf_point
from .projlin import ProjMap, ProjPoint, act, compose, inverse, proj_equiv


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
        return {
            "suite": self.suite, "name": self.name, "trials": self.trials,
            "max_residual": self.max_residual, "tol": self.tol,
            "passed": self.passed, "note": self.note,
        }


def _result(suite, name, trials, max_residual, tol, note="") -> PropertyResult:
    return PropertyResult(suite, name, trials, float(max_residual), tol,
                          float(max_residual) <= tol, note)


def _random_map(rng, size, spread=1.0, max_cond=100.0) -> np.ndarray:
    while True:
        m = rng.uniform(-spread, spread, (size, size))
        if abs(np.linalg.det(m)) > 1e-3 and np.linalg.cond(m) <= max_cond:
            return m


def _random_fraction(rng, lo=-9, hi=9) -> Fraction:
    num = int(rng.integers(lo, hi + 1))
    den = int(rng.integers(1, 8))
    return Fraction(num, den)


def _norm_diff(a: ProjMap, b: ProjMap) -> float:
    fa = np.asarray(a.to_float().entries)
    fb = np.asarray(b.to_float().entries)
    fa = fa / np.max(np.abs(fa))
    fb = fb / np.max(np.abs(fb))
    if np.sign(fa.ravel()[np.argmax(np.abs(fa))]) != np.sign(fb.ravel()[np.argmax(np.abs(fb))]):
        fb = -fb
    return float(np.max(np.abs(fa - fb)))


# ---------------------------------------------------------------------------
# projlin


def suite_projlin(seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a, b, c = (ProjMap(_random_map(rng, n + 1)) for _ in range(3))
        worst = np.maximum(worst, _norm_diff(compose(compose(a, b), c),
                                            compose(a, compose(b, c))))
    out.append(_result("projlin", "compose-associative-float", 200, worst, 1e-12))

    exact_ok = True
    for _ in range(50):
        size = int(rng.integers(2, 5)) + 1
        mats = []
        for _ in range(3):
            mats.append(ProjMap([[_random_fraction(rng) for _ in range(size)]
                                 for _ in range(size)]))
        a, b, c = mats
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        exact_ok &= bool(np.array_equal(lhs.entries, rhs.entries))
    out.append(_result("projlin", "compose-associative-exact", 50,
                       0.0 if exact_ok else 1.0, 0.5))

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a = ProjMap(_random_map(rng, n + 1))
        b = ProjMap(_random_map(rng, n + 1))
        p = ProjPoint(rng.uniform(-1, 1, n + 1) + 2.0)
        lhs = act(compose(a, b), p).coords
        rhs = act(a, act(b, p)).coords
        worst = np.maximum(worst, float(np.max(np.abs(
            lhs / lhs[np.argmax(np.abs(lhs))] - rhs / rhs[np.argmax(np.abs(rhs))]))))
    out.append(_result("projlin", "act-composition", 200, worst, 1e-12))

    equiv_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = ProjMap(_random_map(rng, n + 1))
        b = ProjMap(np.asarray(a.entries) * rng.uniform(0.1, 5.0) * rng.choice([-1, 1]))
        c = ProjMap(np.asarray(b.entries) * rng.uniform(0.1, 5.0))
        equiv_ok &= proj_equiv(a, a)                      # reflexive
        equiv_ok &= proj_equiv(a, b) and proj_equiv(b, a)  # symmetric
        equiv_ok &= proj_equiv(a, c)                      # transitive chain
        equiv_ok &= not proj_equiv(a, ProjMap(np.asarray(a.entries) + np.eye(n + 1)), 1e-6)
    out.append(_result("projlin", "proj-equiv-equivalence", 100,
                       0.0 if equiv_ok else 1.0, 0.5))

    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(4, 9))
        m = ProjMap(_random_map(rng, size, max_cond=1e3))
        for pair in projlin.eigen(m):
            worst = np.maximum(worst, pair.residual)
    out.append(_result("projlin", "eigen-residuals", 100, worst, 1e-9))

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = ProjMap(_random_map(rng, n + 1))
        worst = np.maximum(worst, _norm_diff(compose(a, inverse(a)),
                                            ProjMap.identity(n, exact=False)))
    out.append(_result("projlin", "inverse-roundtrip", 100, worst, 1e-10))
    return out


# ---------------------------------------------------------------------------
# cusp_models


def _random_psi(rng, n: int, max_type: Optional[int] = None) -> CuspParameter:
    t_max = n if max_type is None else max_type
    t = int(rng.integers(0, t_max + 1))
    vals = sorted(rng.uniform(0.2, 3.0, t), reverse=True)
    return CuspParameter(list(vals) + [0.0] * (n - t))


def _random_h_element(rng, psi: CuspParameter):
    t = psi.type
    d = list(np.exp(rng.uniform(-1.0, 1.0, t)))
    v = list(rng.uniform(-2.0, 2.0, psi.n - 1 - t))
    return cusp_models.h_element(psi, d, v)


def suite_cusp_models(seed: int = 0, perturb: float = 0.0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    exact_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(0, n))
        vals = sorted((_random_fraction(rng, 1, 9) + Fraction(1, 3) for _ in range(t)),
                      reverse=True)
        psi = CuspParameter(vals + [Fraction(0)] * (n - t))
        ones = [Fraction(1)] * psi.type
        a = cusp_models.h_element(psi, ones, [_random_fraction(rng) for _ in range(n - 1 - psi.type)])
        b = cusp_models.h_element(psi, ones, [_random_fraction(rng) for _ in range(n - 1 - psi.type)])
        prod = cusp_models.h_product(a, b)
        exact_ok &= bool(np.array_equal(prod.matrix.entries,
                                        compose(a.matrix, b.matrix).entries))
    out.append(_result("cusp_models", "closure-exact-unit-diagonal", 100,
                       0.0 if exact_ok else 1.0, 0.5))

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        psi = _random_psi(rng, n, max_type=n - 1)
        a = _random_h_element(rng, psi)
        b = _random_h_element(rng, psi)
        worst = np.maximum(worst, _norm_diff(cusp_models.h_product(a, b).matrix,
                                            compose(a.matrix, b.matrix)))
    out.append(_result("cusp_models", "closure-float", 1000, worst, 1e-12))

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        psi = _random_psi(rng, n, max_type=n - 1)
        dom = ModelDomain(psi)
        t = psi.type
        g = _random_h_element(rng, psi).matrix
        if perturb:
            noisy = np.asarray(g.to_float().entries) + perturb * rng.standard_normal((n + 1, n + 1))
            g = ProjMap(noisy)
        c = float(rng.uniform(0.0, 3.0))
        coords = list(rng.uniform(0.2, 3.0, t)) + list(rng.uniform(-2.0, 2.0, n - 1 - t))
        p = leaf_point(dom, c, coords)
        c2, _tag = leaf_coordinate(dom, act(g, p))
        worst = np.maximum(worst, abs(float(c2) - c))
    note = f"perturb={perturb}" if perturb else ""
    out.append(_result("cusp_models", "leaf-invariance", 1000, worst, 1e-9, note))

    exact_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = cusp_models.ParaboloidModel(n)
        v = [_random_fraction(rng) for _ in range(n - 1)]
        h = cusp_models.parabolic_element(m, v)
        q = m.form.entries
        lhs = h.entries.T @ q @ h.entries
        exact_ok &= bool(np.array_equal(lhs, q))
    out.append(_result("cusp_models", "form-preservation-exact", 100,
                       0.0 if exact_ok else 1.0, 0.5))

    exact_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        k = _random_fraction(rng)
        lam1 = _random_fraction(rng, 1, 9)
        lam2 = _random_fraction(rng, 1, 9)
        z1 = cusp_models.zprime_element(lam1, k, n)
        z2 = cusp_models.zprime_element(lam2, k, n)
        z12 = cusp_models.zprime_element(lam1 * lam2, k, n)
        exact_ok &= bool(np.array_equal(compose(z1, z2).entries, z12.entries))
    out.append(_result("cusp_models", "zprime-one-parameter", 100,
                       0.0 if exact_ok else 1.0, 0.5))

    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        psi = _random_psi(rng, n)
        r = float(rng.uniform(0.1, 10.0))
        scaled = psi.scaled(r)
        ok &= cusp_models.cusp_type(psi) == cusp_models.cusp_type(scaled)
        ok &= cusp_classify.equivalent_parameters(psi, scaled)
    out.append(_result("cusp_models", "scaling-type-invariance", 100,
                       0.0 if ok else 1.0, 0.5))
    return out


# ---------------------------------------------------------------------------
# hilbert


def _ball_points(rng, count: int, n: int, radius: float = 0.85) -> np.ndarray:
    pts = rng.uniform(-1.0, 1.0, (count, n))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / n)
    return pts / np.maximum(norms, 1e-12) * radii


def suite_hilbert(seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    # the Klein formula against the march on the ball's value function, not
    # against the batch route's own closed form
    worst = 0.0
    for n in (2, 3):
        x = _ball_points(rng, 1000, n)
        y = _ball_points(rng, 1000, n)
        dh = _hilbert_kernels.value_distances(_hilbert_kernels._ball_value_np, x, y)
        dk = np.array([hilbert.klein_distance(a, b) for a, b in zip(x, y)])
        worst = np.maximum(worst, float(np.max(np.abs(dh - dk))))
    out.append(_result("hilbert", "klein-agreement", 2000, worst, 1e-9))

    worst = 0.0
    for n in (2, 3):
        dom = hilbert.ball_oracle(n)
        x = _ball_points(rng, 1000, n)
        y = _ball_points(rng, 1000, n)
        z = _ball_points(rng, 1000, n)
        dxy = hilbert.hilbert_distances(dom, x, y)
        dyx = hilbert.hilbert_distances(dom, y, x)
        dxz = hilbert.hilbert_distances(dom, x, z)
        dzy = hilbert.hilbert_distances(dom, z, y)
        worst = np.maximum(worst, float(np.max(np.abs(dxy - dyx))))
        worst = np.maximum(worst, float(np.max(dxy - (dxz + dzy))))
        worst = np.maximum(worst, float(np.max(np.abs(hilbert.hilbert_distances(dom, x, x)))))
    out.append(_result("hilbert", "metric-axioms-ball", 2000, worst, 1e-9))

    worst = 0.0
    for psi_vals in ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]):
        psi = CuspParameter(psi_vals)
        dom = hilbert.model_domain_oracle(psi)
        md = ModelDomain(psi)
        t = psi.type
        pts = []
        for _ in range(3 * 1000):
            c = float(rng.uniform(0.05, 2.5))
            coords = list(rng.uniform(0.3, 2.5, t)) + list(rng.uniform(-1.5, 1.5, psi.n - 1 - t))
            pts.append(np.asarray(leaf_point(md, c, coords).chart(), dtype=float))
        pts = np.array(pts)
        x, y, z = pts[:1000], pts[1000:2000], pts[2000:]
        dxy = hilbert.hilbert_distances(dom, x, y)
        dyx = hilbert.hilbert_distances(dom, y, x)
        dxz = hilbert.hilbert_distances(dom, x, z)
        dzy = hilbert.hilbert_distances(dom, z, y)
        worst = np.maximum(worst, float(np.max(np.abs(dxy - dyx))))
        worst = np.maximum(worst, float(np.max(dxy - (dxz + dzy))))
    out.append(_result("hilbert", "metric-axioms-model", 3000, worst, 1e-9))

    worst = 0.0
    dom = hilbert.ball_oracle(2)
    for _ in range(50):
        g = ProjMap(np.eye(3) + 0.05 * rng.uniform(-1, 1, (3, 3)))
        moved = hilbert.transformed_oracle(dom, g)
        x = _ball_points(rng, 1, 2)[0]
        y = _ball_points(rng, 1, 2)[0]
        d0 = hilbert.hilbert_distance(dom, x, y)
        gx = act(g, ProjPoint(list(x) + [1.0]))
        gy = act(g, ProjPoint(list(y) + [1.0]))
        d1 = hilbert.hilbert_distance(moved, gx, gy)
        worst = np.maximum(worst, abs(d0 - d1))
    out.append(_result("hilbert", "projective-naturality", 50, worst, 1e-9))

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
    out.append(_result("hilbert", "cross-ratio-invariance", 1000, worst, 1e-10))

    worst = 0.0
    for n in (2, 3):
        dom = hilbert.ball_oracle(n)
        x = _ball_points(rng, 200, n)
        y = _ball_points(rng, 200, n)
        theta = rng.uniform(0.1, 0.9, (200, 1))
        z = x + theta * (y - x)
        total = hilbert.hilbert_distances(dom, x, z) + hilbert.hilbert_distances(dom, z, y)
        direct = hilbert.hilbert_distances(dom, x, y)
        worst = np.maximum(worst, float(np.max(np.abs(total - direct))))
    out.append(_result("hilbert", "straight-segment-geodesy", 400, worst, 1e-9))

    violations = 0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        dom = hilbert.ball_oracle(n)
        x = _ball_points(rng, 1, n)[0]
        y = _ball_points(rng, 1, n)[0]
        try:
            hilbert.convexity_scan(dom, x, y)
        except hilbert.ConvexityViolation:
            violations += 1
    out.append(_result("hilbert", "chord-convexity-scan", 50, violations, 0.5))
    return out


# ---------------------------------------------------------------------------
# bending


def cusp_fixture_rep(data: RectangularCuspData) -> bending.MarkedRep:
    """Standard cusp generators as a marked representation with all
    pairwise commutator relators supplied."""
    unbent = RectangularCuspData(data.n, b=data.b, s=[0.0] * (data.n - 1))
    gens = cusp_classify.standard_cusp_generators(unbent)
    names = [f"g{i}" for i in range(2, data.n + 1)]
    rels = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            rels.append([names[i], names[j], f"{names[i]}^-1", f"{names[j]}^-1"])
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
        c = cusp_models.hyperplane_centralizer_element(k + 2, tparam=float(data.s[k]),
                                                       n=data.n)
        moves.append(bending.BendingMove(dec, c.to_float()))
    return moves


def suite_bending(seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    failures = 0
    for _ in range(50):
        n = int(rng.integers(3, 6))
        s = rng.uniform(0.05, 1.5, n - 1) * (rng.uniform(0, 1, n - 1) > 0.4)
        data = RectangularCuspData(n, b=list(rng.uniform(0.4, 2.0, n - 1)), s=list(s))
        rep = cusp_fixture_rep(data)
        try:
            current = rep
            for move in cusp_bending_moves(data):
                current = bending.bend(current, move)  # re-checks relators
                current.check_relators()
        except (bending.RelatorViolation, bending.CentralizerCheckFailed):
            failures += 1
    out.append(_result("bending", "relators-preserved", 50, failures, 0.5))

    worst = 0.0
    n = 4
    base_data = RectangularCuspData(n, b=[1.0, 0.8, 1.2], s=[0.0] * 3)
    rep = cusp_fixture_rep(base_data)
    names = rep.names()
    for _ in range(100):
        k1, k2 = rng.choice(3, size=2, replace=False)
        moves = []
        for k in (int(k1), int(k2)):
            dec = bending.Decomposition(
                "hnn", base=[nm for j, nm in enumerate(names) if j != k],
                stable=names[k],
                edge_words=[[nm] for j, nm in enumerate(names) if j != k])
            scale = float(rng.uniform(0.5, 2.0))
            diag = [scale] * (n + 1)
            diag[k + 1] = scale * math.exp(float(rng.uniform(0.05, 1.5)))
            moves.append(bending.BendingMove(dec, ProjMap.diagonal(diag)))
        fwd = bending.iterated_bend(rep, moves)
        rev = bending.iterated_bend(rep, moves[::-1])
        for nm in names:
            worst = np.maximum(worst, _norm_diff(fwd.generators[nm], rev.generators[nm]))
    out.append(_result("bending", "order-independence", 100, worst, 1e-12))

    exact_ok = True
    data = RectangularCuspData(3, b=[Fraction(1), Fraction(2)], s=[0.0, 0.0])
    gens = cusp_classify.standard_cusp_generators(data)
    names = ["g2", "g3"]
    rep_exact = bending.MarkedRep(3, dict(zip(names, gens)))
    dec = bending.Decomposition("amalgam", side1=["g2"], side2=["g3"], edge_words=[])
    for _ in range(50):
        c1 = ProjMap.diagonal([Fraction(1), _random_fraction(rng, 1, 9), Fraction(1), Fraction(1)])
        c2 = ProjMap.diagonal([Fraction(1), _random_fraction(rng, 1, 9), Fraction(1), Fraction(1)])
        once = bending.bend(bending.bend(rep_exact, bending.BendingMove(dec, c1)),
                            bending.BendingMove(dec, c2))
        combined = bending.bend(rep_exact, bending.BendingMove(dec, compose(c2, c1)))
        for nm in names:
            exact_ok &= bool(np.array_equal(once.generators[nm].entries,
                                            combined.generators[nm].entries))
    out.append(_result("bending", "composition-in-parameter-exact", 50,
                       0.0 if exact_ok else 1.0, 0.5))

    ident_ok = True
    rep_f = cusp_fixture_rep(RectangularCuspData(4, b=[1.0, 1.0, 1.0], s=[0.0] * 3))
    dec = bending.Decomposition("hnn", base=["g3", "g4"], stable="g2",
                                edge_words=[["g3"], ["g4"]])
    bent1 = bending.bend(rep_f, bending.BendingMove(dec, ProjMap.identity(4, exact=False)))
    for nm in rep_f.names():
        ident_ok &= proj_equiv(bent1.generators[nm], rep_f.generators[nm], 1e-14)
    out.append(_result("bending", "identity-path", 1, 0.0 if ident_ok else 1.0, 0.5))
    return out


# ---------------------------------------------------------------------------
# cusp_classify


def random_rect_data(rng, n: int, min_s: float = 0.05) -> RectangularCuspData:
    b = list(rng.uniform(0.3, 2.5, n - 1))
    k = int(rng.integers(0, n))
    s = np.zeros(n - 1)
    if k:
        slots = rng.choice(n - 1, size=k, replace=False)
        s[slots] = rng.uniform(min_s, 2.0, k)
    return RectangularCuspData(n, b=b, s=list(s))


def exact_lemma_identity_cases() -> int:
    """Exact normal-form identity over all (n, t), 3 <= n <= 6, with the
    rational test values cycled through every slot.  Raises on any nonzero
    residual; returns the number of cases checked."""
    b_vals = [Fraction(1, 2), Fraction(1), Fraction(3)]
    mu_vals = [Fraction(2), Fraction(3, 2), Fraction(5)]
    count = 0
    for n in range(3, 7):
        for t in range(1, n):
            for b_shift in range(3):
                for mu_shift in range(3):
                    b = [b_vals[(k + b_shift) % 3] for k in range(n - 1)]
                    mu = [mu_vals[(k + mu_shift) % 3] if k < t else Fraction(1)
                          for k in range(n - 1)]
                    data = RectangularCuspData(n, b=b, mu=mu)
                    cls = cusp_classify.conjugate_and_match(data)
                    if cls.residual != 0:
                        raise AssertionError(
                            f"nonzero exact residual {cls.residual} at n={n}, t={t}")
                    if cls.type != t:
                        raise AssertionError(f"type {cls.type} != {t} at n={n}")
                    count += 1
    return count


def suite_classify(seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    try:
        cases = exact_lemma_identity_cases()
        out.append(_result("classify", "exact-normal-form-identity", cases, 0.0, 0.5))
    except AssertionError as exc:
        out.append(_result("classify", "exact-normal-form-identity", 0, 1.0, 0.5, str(exc)))

    bad = 0
    trials = 0
    for n in range(2, 7):
        for _ in range(500):
            data = random_rect_data(rng, n)
            cls = cusp_classify.conjugate_and_match(data)
            expected = sum(1 for x in data.s if x != 0)
            if cls.type != expected or cls.psi.type != expected:
                bad += 1
            trials += 1
    out.append(_result("classify", "type-law", trials, bad, 0.5))

    data = RectangularCuspData(2, b=[1.0], s=[1e-6])
    cls = cusp_classify.conjugate_and_match(data)
    a_inv = 1.0 / float(cls.psi.psi[0])
    worst = a_inv
    grid = np.linspace(0.02, 2.0, 100)
    prev = -math.inf
    monotone = True
    for s in grid:
        val = 1.0 / cusp_classify.cusp_parameter_entry(1.0, math.exp(s), s)
        monotone &= val > prev
        prev = val
    out.append(_result("classify", "inverted-parameter-blowup", 101,
                       worst if monotone else 1.0, 1e-11,
                       f"a_inv(1e-6)={a_inv:.3e}, monotone={monotone}"))

    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        psi = _random_psi(rng, n)
        r = float(rng.uniform(0.01, 10.0))
        ok &= cusp_classify.equivalent_parameters(psi, psi.scaled(r))
    done = 0
    while done < 100:
        n = int(rng.integers(2, 7))
        p1 = _random_psi(rng, n)
        p2 = _random_psi(rng, n)
        fa = np.array([float(x) for x in p1.psi])
        fb = np.array([float(x) for x in p2.psi])
        if fa.max() == 0 and fb.max() == 0:
            continue
        if fa.max() > 0 and fb.max() > 0 and np.max(np.abs(fa / fa.max() - fb / fb.max())) < 1e-6:
            continue
        ok &= not cusp_classify.equivalent_parameters(p1, p2)
        done += 1
    out.append(_result("classify", "scaling-equivalence", 200, 0.0 if ok else 1.0, 0.5))

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 6))
        data = random_rect_data(rng, n)
        rep = cusp_fixture_rep(data)
        bent_rep = bending.iterated_bend(rep, cusp_bending_moves(data))
        direct = cusp_classify.bent_cusp_generators(data)
        for nm, g in zip(rep.names(), direct):
            worst = np.maximum(worst, _norm_diff(bent_rep.generators[nm], g.to_float()))
    out.append(_result("classify", "pipeline-equivalence", 100, worst, 1e-12))

    worst = 0.0
    fails = 0
    for _ in range(50):
        n = int(rng.integers(3, 6))
        names = ["a", "b", "h"]
        gens = {nm: ProjMap.diagonal([1.0] + list(np.exp(rng.uniform(-1, 1, n - 1))) + [1.0])
                for nm in names}
        rep = bending.MarkedRep(n, gens)
        lam = float(np.exp(rng.uniform(-1.5, 1.5)))
        if abs(lam - 1.0) < 0.05:
            lam += 0.1
        k = float(rng.uniform(-2.0, 2.0))
        dec = bending.Decomposition("hnn", base=["a", "b"], stable="h",
                                    edge_words=[["a"], ["b"]])
        move = bending.BendingMove(dec, cusp_models.zprime_element(lam, k, n).to_float())
        bent_rep = bending.bend(rep, move)
        conj, res = cusp_classify.diagonalize_commuting(
            list(bent_rep.generators.values()), rng=rng)
        if conj is None:
            fails += 1
        else:
            worst = np.maximum(worst, res)
    out.append(_result("classify", "model-bend-diagonalizable", 50,
                       worst if fails == 0 else 1.0, 1e-9, f"failures={fails}"))

    tri = cusp_classify.upper_triangular_check(
        [g.to_float() for g in cusp_classify.bent_cusp_generators(
            RectangularCuspData(4, b=[1.0, 0.7, 1.3], s=[0.4, 0.0, 0.9]))])
    out.append(_result("classify", "bent-generators-triangularizable", 1,
                       tri.residual if tri.status == "true" else 1.0, 1e-9,
                       f"status={tri.status}"))
    return out


SUITES: dict[str, Callable] = {
    "projlin": suite_projlin,
    "cusp_models": suite_cusp_models,
    "hilbert": suite_hilbert,
    "bending": suite_bending,
    "classify": suite_classify,
}


def run_suites(names=None, seed: int = 0, perturb: float = 0.0) -> list[PropertyResult]:
    results = []
    for name in (names or SUITES):
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        fn = SUITES[name]
        if name == "cusp_models":
            results.extend(fn(seed, perturb=perturb))
        else:
            results.extend(fn(seed))
    return results
