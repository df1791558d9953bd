import json
import math

import numpy as np
import pytest

from cuspbend.cusp_models import CuspParameter, INTERIOR, BOUNDARY, EXTERIOR
from cuspbend.hilbert import (
    ConvexDomainOracle,
    ConvexityViolation,
    ball_oracle,
    chord_boundary,
    convexity_scan,
    cross_ratio,
    hilbert_distance,
    hilbert_distances,
    klein_distance,
    model_domain_oracle,
    transformed_oracle,
)
from cuspbend.projlin import ProjMap, ProjPoint, act

HALF_LOG_3 = 0.5 * math.log(3.0)          # = artanh(1/2)


def interval_oracle():
    """The open interval (-1, 1) on the projective line."""

    def classify(p: ProjPoint, tol: float = 1e-9) -> str:
        coords = np.asarray(p.to_float().coords)
        if abs(coords[-1]) <= tol * np.max(np.abs(coords)):
            return "outside-chart"
        x = coords[0] / coords[-1]
        val = x * x - 1.0
        if abs(val) <= tol:
            return BOUNDARY
        return INTERIOR if val < 0 else EXTERIOR

    return ConvexDomainOracle(1, classify)


def test_chord_boundary_interval():
    chord = chord_boundary(interval_oracle(), [0.0], [0.5])
    assert abs(chord.z1.chart()[0] - (-1.0)) <= 1e-12
    assert abs(chord.z2.chart()[0] - 1.0) <= 1e-12
    assert chord.residual <= 1e-12
    assert chord.unbounded is None


def test_chord_boundary_disk_symmetry():
    chord = chord_boundary(ball_oracle(2), [0.0, 0.0], [0.5, 0.0])
    assert np.allclose(chord.z1.chart(), [-1.0, 0.0], atol=1e-12)
    assert np.allclose(chord.z2.chart(), [1.0, 0.0], atol=1e-12)


def test_chord_boundary_model_domain_leaf_root():
    psi = CuspParameter([0.0, 0.0, 0.0])
    dom = model_domain_oracle(psi)
    x = [1.0, 0.2, -0.3]
    y = [2.0, 0.5, 0.4]
    chord = chord_boundary(dom, x, y)
    assert chord.residual <= 1e-12
    # both crossings sit on the zero set of the leaf coordinate
    from cuspbend.cusp_models import ModelDomain, leaf_coordinate
    md = ModelDomain(psi)
    for z in (chord.z1, chord.z2):
        c, _ = leaf_coordinate(md, z)
        assert abs(c) <= 1e-10


def test_chord_boundary_rejects_bad_input():
    dom = ball_oracle(2)
    with pytest.raises(ValueError):
        chord_boundary(dom, [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        chord_boundary(dom, [0.0, 0.0], [2.0, 0.0])


def test_unbounded_chord_end_at_infinity_gives_finite_distance():
    psi = CuspParameter([0.0, 0.0])
    dom = model_domain_oracle(psi)
    # vertical chord: never exits upward, hits the boundary leaf downward
    chord = chord_boundary(dom, [1.0, 0.0], [2.0, 0.0])
    assert chord.unbounded == "z2"
    assert chord.z1 is not None
    from cuspbend.cusp_models import ModelDomain, leaf_coordinate
    c, _ = leaf_coordinate(ModelDomain(psi), chord.z1)
    assert abs(c) <= 1e-10
    assert chord.residual <= 1e-12
    # ends z1 = (0, 0) and the point at infinity: cross ratio |z1 y| / |z1 x| = 2
    half_log_2 = 0.5 * math.log(2.0)
    for x, y in (([1.0, 0.0], [2.0, 0.0]), ([2.0, 0.0], [1.0, 0.0])):
        assert abs(hilbert_distance(dom, x, y) - half_log_2) <= 1e-12
        assert abs(hilbert_distances(dom, [x], [y])[0] - half_log_2) <= 1e-12


@pytest.mark.parametrize("y", [[2.0, 0.0], [1.0, 0.0], [math.nan, 0.0]],
                         ids=["exterior", "boundary", "nan"])
def test_bad_points_rejected_by_single_batch_and_cli(tmp_path, capsys, y):
    from cuspbend.cli import main
    dom, x = ball_oracle(2), [0.0, 0.0]
    with pytest.raises(ValueError, match="point y is not interior"):
        hilbert_distance(dom, x, y)
    with pytest.raises(ValueError, match="row 1: point y is not interior"):
        hilbert_distances(dom, [x, x], [[0.5, 0.0], y])
    src = tmp_path / "pairs.json"
    src.write_text(json.dumps({"domain": {"kind": "ball", "n": 2}, "pairs": [[x, y]]}))
    assert main(["hilbert", "--in", str(src), "--out", str(tmp_path / "d.csv")]) == 2
    assert "row 0: point y is not interior" in capsys.readouterr().err
    # the x == y shortcut does not skip the check
    with pytest.raises(ValueError, match="point x is not interior"):
        hilbert_distance(dom, y, y)


def test_cross_ratio_real_line():
    pts = [ProjPoint([t, 1.0]) for t in (0.0, 1.0, 2.0, 3.0)]
    assert abs(cross_ratio(*pts) - 4.0) <= 1e-12


def test_cross_ratio_equal_middle_points():
    pts = [ProjPoint([t, 1.0]) for t in (0.0, 1.0, 1.0, 3.0)]
    assert abs(cross_ratio(*pts) - 1.0) <= 1e-12


def test_cross_ratio_invariance():
    rng = np.random.default_rng(2)
    base = np.array([2.0, 0.3, -0.4])
    direction = np.array([0.5, 1.0, 0.2])
    pts = [ProjPoint(base + u * direction) for u in (-1.0, 0.0, 0.7, 2.0)]
    cr0 = cross_ratio(*pts)
    for _ in range(50):
        g = ProjMap(rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3))
        cr1 = cross_ratio(*[act(g, p) for p in pts])
        assert abs(cr0 - cr1) <= 1e-10 * max(1.0, cr0)


def test_cross_ratio_rejects_non_collinear():
    pts = [ProjPoint(v) for v in ([1, 0, 1], [0, 1, 1], [1, 1, 1], [2, 1, 1])]
    with pytest.raises(ValueError):
        cross_ratio(*pts)


def test_cross_ratio_rejects_coincident_ends():
    pts = [ProjPoint([0.0, 1.0]), ProjPoint([0.0, 1.0]),
           ProjPoint([2.0, 1.0]), ProjPoint([3.0, 1.0])]
    with pytest.raises(ValueError):
        cross_ratio(*pts)


def test_hilbert_distance_interval_frozen_value():
    assert hilbert_distance(interval_oracle(), [0.0], [0.5]) == pytest.approx(
        HALF_LOG_3, abs=1e-12)


def test_hilbert_distance_identity_and_symmetry():
    dom = ball_oracle(2)
    assert hilbert_distance(dom, [0.1, 0.2], [0.1, 0.2]) == 0.0
    d1 = hilbert_distance(dom, [0.1, 0.2], [-0.3, 0.4])
    d2 = hilbert_distance(dom, [-0.3, 0.4], [0.1, 0.2])
    assert abs(d1 - d2) <= 1e-10


def test_klein_distance_values():
    assert klein_distance([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert klein_distance([0.0, 0.0], [0.5, 0.0]) == pytest.approx(HALF_LOG_3, abs=1e-14)
    with pytest.raises(ValueError):
        klein_distance([1.0, 0.0], [0.0, 0.0])


def test_klein_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(200):
        x, y, z = (rng.uniform(-0.6, 0.6, 3) for _ in range(3))
        slack = klein_distance(x, z) + klein_distance(z, y) - klein_distance(x, y)
        assert slack >= -1e-10


def test_hilbert_matches_klein_in_ball():
    rng = np.random.default_rng(6)
    dom = ball_oracle(3)
    for _ in range(25):
        x = rng.uniform(-0.5, 0.5, 3)
        y = rng.uniform(-0.5, 0.5, 3)
        assert abs(hilbert_distance(dom, x, y) - klein_distance(x, y)) <= 1e-9


def test_batch_routes_agree():
    rng = np.random.default_rng(8)
    dom = ball_oracle(2)
    X = rng.uniform(-0.6, 0.6, (50, 2))
    Y = rng.uniform(-0.6, 0.6, (50, 2))
    jit = hilbert_distances(dom, X, Y, jit=True)
    plain = hilbert_distances(dom, X, Y, jit=False)
    single = np.array([hilbert_distance(dom, x, y) for x, y in zip(X, Y)])
    assert np.max(np.abs(jit - plain)) <= 1e-12
    assert np.max(np.abs(jit - single)) <= 1e-12
    same = hilbert_distances(dom, X, X)
    assert np.all(same == 0.0)


def test_batch_model_domain_routes_agree():
    rng = np.random.default_rng(9)
    psi = CuspParameter([1.0, 0.0, 0.0])
    dom = model_domain_oracle(psi)
    from cuspbend.cusp_models import ModelDomain, leaf_point
    md = ModelDomain(psi)
    pts = []
    for _ in range(40):
        c = rng.uniform(0.1, 2.0)
        xs = [rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0)]
        pts.append(np.asarray(leaf_point(md, c, xs).chart(), dtype=float))
    X, Y = np.array(pts[:20]), np.array(pts[20:])
    jit = hilbert_distances(dom, X, Y, jit=True)
    plain = hilbert_distances(dom, X, Y, jit=False)
    finite = np.isfinite(jit)
    assert np.array_equal(finite, np.isfinite(plain))
    assert np.max(np.abs(jit[finite] - plain[finite])) <= 1e-12
    for k in range(0, 20, 5):
        got = hilbert_distance(dom, X[k], Y[k])
        if math.isfinite(got):
            assert abs(got - jit[k]) <= 1e-11


def test_transformed_oracle_naturality():
    dom = ball_oracle(2)
    g = ProjMap(np.eye(3) + 0.08 * np.array([[0.0, 1.0, -0.5],
                                             [0.3, 0.0, 0.2],
                                             [-0.2, 0.4, 0.0]]))
    moved = transformed_oracle(dom, g)
    x, y = np.array([0.2, -0.1]), np.array([-0.4, 0.3])
    gx = act(g, ProjPoint([*x, 1.0]))
    gy = act(g, ProjPoint([*y, 1.0]))
    assert abs(hilbert_distance(dom, x, y)
               - hilbert_distance(moved, gx, gy)) <= 1e-9


def test_geodesy_on_segments():
    dom = ball_oracle(2)
    rng = np.random.default_rng(10)
    for _ in range(25):
        x = rng.uniform(-0.6, 0.6, 2)
        y = rng.uniform(-0.6, 0.6, 2)
        z = x + rng.uniform(0.2, 0.8) * (y - x)
        total = hilbert_distance(dom, x, z) + hilbert_distance(dom, z, y)
        assert abs(total - hilbert_distance(dom, x, y)) <= 1e-9


def test_convexity_scan():
    convexity_scan(ball_oracle(2), [0.0, 0.0], [0.5, 0.3])

    def two_balls(p: ProjPoint, tol: float = 1e-9) -> str:
        x = np.asarray(p.to_float().chart())
        inside = min(np.dot(x - c, x - c) for c in
                     (np.array([-2.0, 0.0]), np.array([2.0, 0.0]))) - 1.0
        if abs(inside) <= tol:
            return BOUNDARY
        return INTERIOR if inside < 0 else EXTERIOR

    broken = ConvexDomainOracle(2, two_balls)
    with pytest.raises(ConvexityViolation):
        convexity_scan(broken, [-2.0, 0.0], [2.0, 0.0])
