"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantity at its pinned tolerance."""

import math
import time

import numpy as np

import cuspbend.verify as verify
from cuspbend.bending import BendingMove, Decomposition, bend, iterated_bend
from cuspbend.cli import main
from cuspbend.cusp_classify import RectangularCuspData, conjugate_and_match
from cuspbend.cusp_models import zprime_element
from cuspbend.hilbert import ball_oracle, cross_ratio, hilbert_distances, klein_distance
from cuspbend.projlin import ProjMap, ProjPoint, act, compose
from cuspbend.verify import (
    _diagonalize,
    _norm_diff,
    _random_map,
    cusp_bending_moves,
    cusp_fixture_rep,
    random_rect_data,
)

SEED = 20260809


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_exact_normal_form_identity():
    t0 = time.perf_counter()
    r = verify.exact_normal_form_identity(np.random.default_rng(SEED))
    elapsed = time.perf_counter() - t0
    _report(1, "exact normal-form identity", r.passed and elapsed < 5.0,
            f"{r.trials} exact cases, zero residual, {elapsed:.2f}s < 5s {r.note}")


def test_criterion_2_type_law():
    r = verify.type_law(np.random.default_rng(SEED))
    _report(2, "type law", r.passed, f"{r.trials} draws, {r.max_residual:.0f} bad rows")


def test_criterion_3_closure_and_leaf_invariance():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    closure = verify.closure_float(rng)
    drift = verify.leaf_invariance(rng, 0.0)
    elapsed = time.perf_counter() - t0
    ok = closure.passed and drift.passed and elapsed < 10.0
    _report(3, "group closure and leaf invariance", ok,
            f"closure {closure.max_residual:.2e} <= 1e-12, drift {drift.max_residual:.2e} "
            f"<= 1e-9, {elapsed:.2f}s < 10s")


def test_criterion_4_hilbert_klein_and_cross_ratio():
    rng = np.random.default_rng(SEED)
    sup = 0.0
    for n in (2, 3):
        x = verify._ball_points(rng, 1000, n)
        y = verify._ball_points(rng, 1000, n)
        sup = np.maximum(sup, np.max(np.abs(hilbert_distances(ball_oracle(n), x, y)
                                            - klein_distance(x, y))))
    worst_cr = 0.0
    maps_used = 0
    while maps_used < 1000:
        n = int(rng.integers(1, 4))
        base = rng.uniform(-1, 1, n + 1) + np.array([2.0] + [0.0] * n)
        direction = rng.uniform(-1, 1, n + 1)
        us = np.sort(rng.uniform(-3, 3, 4))
        if np.min(np.diff(us)) < 1e-2:
            continue
        pts = [ProjPoint(base + u * direction) for u in us]
        cr0 = cross_ratio(*pts)
        g = ProjMap(_random_map(rng, n + 1, max_cond=50))
        cr1 = cross_ratio(*[act(g, p) for p in pts])
        worst_cr = np.maximum(worst_cr, abs(cr0 - cr1) / max(abs(cr0), 1.0))
        maps_used += 1
    ok = sup <= 1e-9 and worst_cr <= 1e-10
    _report(4, "Hilbert/Klein agreement and cross-ratio invariance", ok,
            f"sup |d_H - d_K| = {sup:.2e} <= 1e-9 over 2000 pairs, "
            f"cross-ratio drift {worst_cr:.2e} <= 1e-10 over {maps_used} maps")


def test_criterion_5_bending_well_defined_and_commutative():
    rng = np.random.default_rng(SEED)
    relators_ok = True
    for _ in range(20):
        n = int(rng.integers(3, 6))
        data = random_rect_data(rng, n)
        rep = cusp_fixture_rep(data)            # relators supplied and checked
        current = rep
        for move in cusp_bending_moves(data):
            current = bend(current, move, tol=1e-9)   # raises if a relator breaks
        current.check_relators()
    worst = 0.0
    n = 4
    rep = cusp_fixture_rep(RectangularCuspData(n, b=[1.0, 0.8, 1.2], s=[0.0] * 3))
    names = rep.names()
    for _ in range(100):
        k1, k2 = (int(k) for k in rng.choice(3, size=2, replace=False))
        moves = []
        for k in (k1, k2):
            dec = Decomposition(
                "hnn", base=[nm for j, nm in enumerate(names) if j != k],
                stable=names[k],
                edge_words=[[nm] for j, nm in enumerate(names) if j != k])
            scale = float(rng.uniform(0.5, 2.0))
            diag = [scale] * (n + 1)
            diag[k + 1] = scale * math.exp(float(rng.uniform(0.05, 1.5)))
            moves.append(BendingMove(dec, ProjMap.diagonal(diag)))
        fwd = iterated_bend(rep, moves)
        rev = iterated_bend(rep, moves[::-1])
        for nm in names:
            worst = np.maximum(worst, _norm_diff(fwd.generators[nm], rev.generators[nm]))
    ok = relators_ok and worst <= 1e-12
    _report(5, "bending well-definedness and commutativity", ok,
            f"relators hold after every bend at 1e-9; order-swap residual "
            f"{worst:.2e} <= 1e-12 over 100 move pairs")


def test_criterion_6_pipeline_equivalence():
    r = verify.pipeline_equivalence(np.random.default_rng(SEED))
    _report(6, "pipeline equivalence", r.passed,
            f"bending route vs direct generators, residual {r.max_residual:.2e} <= 1e-12 "
            f"over {r.trials} data sets")


def test_criterion_7_model_bend_diagonalizable():
    rng = np.random.default_rng(SEED)
    failures = 0
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 6))
        gens = [ProjMap.diagonal([1.0] + list(np.exp(rng.uniform(-1, 1, n - 1))) + [1.0])
                for _ in range(3)]
        lam = float(np.exp(rng.uniform(-1.5, 1.5)))
        if abs(lam - 1.0) < 0.05:
            lam += 0.1
        k = float(rng.uniform(-2.0, 2.0))
        bent = [gens[0], gens[1], compose(zprime_element(lam, k, n).to_float(), gens[2])]
        res = _diagonalize(bent, rng)
        if res is None:
            failures += 1
        else:
            worst = np.maximum(worst, res)
    ok = failures == 0 and worst <= 1e-9
    _report(7, "model bend produces a diagonalizable group", ok,
            f"50 random (lambda, k), failures={failures}, "
            f"worst conjugation residual {worst:.2e} <= 1e-9")


def test_criterion_8_inverted_parameter(tmp_path):
    cls = conjugate_and_match(RectangularCuspData(2, b=[1.0], s=[1e-6]))
    a_inv = 1.0 / float(cls.psi.psi[0])
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "2", "--b", "1", "--grid", "0.02:2:60",
                 "--out", str(csv_path)])
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    col = header.index("ainv_2")
    ainv = [float(line.split(",")[col]) for line in lines[1:]]
    monotone = all(b > a for a, b in zip(ainv, ainv[1:]))
    ok = a_inv <= 1e-11 and code == 0 and monotone
    _report(8, "inverted parameter limit and monotonicity", ok,
            f"1/a at s=1e-6 is {a_inv:.2e} <= 1e-11; sweep on (0, 2] monotone={monotone}")


def test_criterion_9_scaling_equivalence():
    r = verify.scaling_equivalence(np.random.default_rng(SEED))
    _report(9, "scaling equivalence of parameters", r.passed,
            "100 scaled pairs all equivalent, 100 non-proportional pairs all rejected")
