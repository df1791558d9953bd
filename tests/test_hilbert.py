import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from cuspbend import hilbert, verify
from cuspbend.cusp_models import CuspParameter, INTERIOR, ModelDomain, leaf_coordinate
from cuspbend.hilbert import (
    ConvexDomainOracle,
    ConvexityViolation,
    MovedOracle,
    ball_oracle,
    chord_boundary,
    convexity_scan,
    cross_ratio,
    hilbert_distance,
    hilbert_distances,
    klein_distance,
    model_domain_oracle,
    transformed_oracle,
    value_distances,
)
from cuspbend.projlin import ProjMap, ProjPoint, act, inverse
from march_reference import (ref_march, ref_model_inside, ref_model_value,
                             ref_value_march)

HALF_LOG_3 = 0.5 * math.log(3.0)          # = artanh(1/2)


def interval_oracle():
    """The open interval (-1, 1) on the projective line, by its value x^2 - 1
    alone."""
    return ConvexDomainOracle(1, lambda P: P[:, 0] * P[:, 0] - 1.0)


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


@pytest.mark.parametrize("point", [[0.0, 0.0, 1.0], ProjPoint([0.0, 0.0, 1.0])],
                         ids=["homogeneous", "ProjPoint"])
def test_points_are_chart_vectors_on_every_route(point):
    """A point is a chart n-vector on every route, as a row of a batch is:
    a homogeneous 3-vector or a ProjPoint on the 2-ball, as either point of
    the pair, is the ValueError that names the expected shape, from the
    single-pair routes and from hilbert_distances alike."""
    dom, x = ball_oracle(2), [0.1, 0.2]
    for pair in ((point, x), (x, point)):
        for route in (hilbert_distance, chord_boundary, convexity_scan):
            with pytest.raises(ValueError, match=r"^expected a point of shape \(2,\)$"):
                route(dom, *pair)
        with pytest.raises(ValueError, match=r"^expected paired arrays of shape \(m, 2\)$"):
            hilbert_distances(dom, [pair[0]], [pair[1]])


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
    # nearby points: arccosh of a rounded cosine would read 0 here
    assert klein_distance([0.0, 1e-12], [1e-12, 0.0]) == pytest.approx(
        math.sqrt(2.0) * 1e-12, rel=1e-12)
    with pytest.raises(ValueError):
        klein_distance([1.0, 0.0], [0.0, 0.0])


def test_klein_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(200):
        x, y, z = (rng.uniform(-0.6, 0.6, 3) for _ in range(3))
        slack = klein_distance(x, z) + klein_distance(z, y) - klein_distance(x, y)
        assert slack >= -1e-10


def test_klein_distance_rows_match_pairs():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        X, Y = (rng.uniform(-0.5, 0.5, (40, n)) for _ in range(2))
        rows = klein_distance(X, Y)
        assert rows.shape == (40,)
        assert rows.tobytes() == np.array([klein_distance(x, y) for x, y in zip(X, Y)]).tobytes()
    with pytest.raises(ValueError):
        klein_distance([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])


def test_single_pair_checks_interiority_once():
    """hilbert_distance evaluates the domain's value once per point, in one
    call on both points stacked: its own check, then the shared body, with
    no second check by hilbert_distances."""
    ball = ball_oracle(2)
    rows = []
    dom = dataclasses.replace(ball, value=lambda P: rows.append(len(P)) or ball.value(P))
    assert hilbert_distance(dom, [0.0, 0.0], [0.5, 0.0]) == pytest.approx(HALF_LOG_3, abs=1e-14)
    assert rows == [2]
    rows.clear()
    hilbert_distances(dom, np.zeros((3, 2)), np.full((3, 2), 0.5))
    assert rows == [6]


def test_hilbert_matches_klein_in_ball():
    rng = np.random.default_rng(6)
    dom = ball_oracle(3)
    for _ in range(25):
        x = rng.uniform(-0.5, 0.5, 3)
        y = rng.uniform(-0.5, 0.5, 3)
        assert abs(hilbert_distance(dom, x, y) - klein_distance(x, y)) <= 1e-9


def _ball_point(draw, n):
    raw = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    norm = np.linalg.norm(raw)
    radius = draw(st.floats(0.0, 0.999))
    return raw * (radius / norm) if norm > 0.0 else raw


def _model_point(draw, psi, t, n=3):
    c = draw(st.floats(0.01, 2.0))
    logs = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=t, max_size=t)))
    free = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n - 1 - t,
                                  max_size=n - 1 - t)))
    first = c - float(np.dot(psi[:t], np.log(logs))) + 0.5 * float(np.dot(free, free))
    return np.concatenate([[first], logs, free])


def _bad_point(kind, dom_kind, n, t):
    if kind == "nan":
        return np.full(n, math.nan)
    if dom_kind == "ball":
        return np.eye(n)[0] * (1.0 if kind == "boundary" else 2.0)
    # leaf height 0 (boundary) or -1 (exterior): log coordinates 1, free ones 0
    first = 0.0 if kind == "boundary" else -1.0
    return np.array([first] + [1.0] * t + [0.0] * (n - 1 - t))


def _leaf(psi, t, p):
    """Leaf coordinate of a chart point in Python floats; None where a log
    coordinate is nonpositive."""
    c = p[0]
    for k in range(t):
        if p[1 + k] <= 0.0:
            return None
        c += psi[k] * math.log(p[1 + k])
    for v in p[1 + t:]:
        c -= 0.5 * v * v
    return c


def _ray_end(psi, t, p, e):
    """End parameter u > 1 of the ray p + u e from an interior p + e of the
    type-t model domain (psi_k > 0 for k < t), by scalar bisection; inf at
    the chord's point at infinity.  The leaf value falls without bound along
    the ray unless the free coordinates are fixed and the first and the log
    coordinates do not decrease."""
    if e[0] >= 0.0 and all(v >= 0.0 for v in e[1:1 + t]) and all(v == 0.0 for v in e[1 + t:]):
        return math.inf

    def inside(u):
        c = _leaf(psi, t, [a + u * b for a, b in zip(p, e)])
        return c is not None and c > 0.0

    lo, hi = 1.0, 2.0
    while inside(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 2.0 ** 60:
            return math.inf     # its factor log1p(1/(u-1)) is below 1e-18
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def _model_reference(psi, t, x, y):
    """Hilbert distance in the model domain from scalar chord ends: the ray
    from x through y ends at x + u d, the one from y through x at y - s d."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    d = [b - a for a, b in zip(x, y)]
    u = _ray_end(psi, t, x, d)
    s = _ray_end(psi, t, y, [-v for v in d])
    return 0.5 * (math.log1p(1.0 / (u - 1.0)) + math.log1p(1.0 / (s - 1.0)))


@pytest.mark.parametrize("kind,n,t", [("ball", 2, 0), ("ball", 3, 0), ("model", 3, 0),
                                      ("model", 3, 1), ("model", 3, 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_rows_equal_single_pair(kind, n, t, data):
    """Each row of hilbert_distances equals hilbert_distance on that row
    alone and an independent reference: the Klein formula on the ball, the
    test's scalar bisection on the leaf value for the model domains.  Rows
    cover chords with an end at infinity, x = y and bad points."""
    if kind == "ball":
        dom = ball_oracle(n)
        point = lambda: _ball_point(data.draw, n)
        reference = lambda x, y: 0.0 if np.array_equal(x, y) else klein_distance(x, y)
    else:
        a = data.draw(st.floats(0.3, 2.0))
        psi = np.array([a, data.draw(st.floats(0.1, a)), 0.0][:t] + [0.0] * (n - t))
        dom = model_domain_oracle(CuspParameter(psi.tolist()))
        point = lambda: _model_point(data.draw, psi, t, n)
        reference = lambda x, y: _model_reference(psi.tolist(), t, x, y)
    row_kinds = ["pair", "same"] + (["infinity"] if kind == "model" else [])
    X, Y = [], []
    for row in data.draw(st.lists(st.sampled_from(row_kinds), min_size=1, max_size=6)):
        x = point()
        if row == "pair":
            y = point()
        elif row == "same":
            y = x.copy()
        else:
            # a ray along which the leaf value cannot fall: the chord has an end at infinity
            d = np.array([data.draw(st.floats(0.1, 2.0))]
                         + data.draw(st.lists(st.floats(0.0, 2.0), min_size=t, max_size=t))
                         + [0.0] * (n - 1 - t))
            y = x + d
            if data.draw(st.booleans()):
                x, y = y, x
        X.append(x)
        Y.append(y)
    X, Y = np.array(X), np.array(Y)

    batch = hilbert_distances(dom, X, Y)
    for i, (x, y) in enumerate(zip(X, Y)):
        for want in (hilbert_distance(dom, x, y), reference(x, y)):
            assert abs(batch[i] - want) <= 1e-12 * max(1.0, want), (i, batch[i], want)

    bad_row = data.draw(st.integers(0, len(X) - 1))
    bad = _bad_point(data.draw(st.sampled_from(["exterior", "boundary", "nan"])), kind, n, t)
    (X if data.draw(st.booleans()) else Y)[bad_row] = bad
    with pytest.raises(ValueError) as single:
        hilbert_distance(dom, X[bad_row], Y[bad_row])
    with pytest.raises(ValueError) as batched:
        hilbert_distances(dom, X, Y)
    assert not str(single.value).startswith("row")
    assert str(batched.value) == f"row {bad_row}: {single.value}"


def test_transformed_oracle_naturality():
    dom = ball_oracle(2)
    g = ProjMap(np.eye(3) + 0.08 * np.array([[0.0, 1.0, -0.5],
                                             [0.3, 0.0, 0.2],
                                             [-0.2, 0.4, 0.0]]))
    moved = transformed_oracle(dom, g)
    x, y = np.array([0.2, -0.1]), np.array([-0.4, 0.3])
    gx, gy = (act(g, ProjPoint([*p, 1.0])).chart() for p in (x, y))
    assert abs(hilbert_distance(dom, x, y)
               - hilbert_distance(moved, gx, gy)) <= 1e-9
    # the march on the moved value, which the pull-back kernel no longer runs
    march = value_distances(moved.value, gx[None], gy[None])
    assert abs(hilbert_distance(dom, x, y) - march[0]) <= 1e-9


def _moved(G, P):
    """Chart coordinates of the images of chart rows P under the matrix G."""
    H = np.hstack([P, np.ones((len(P), 1))]) @ G.T
    return H[:, :-1] / H[:, -1:]


def _projective(rng, last_row):
    G = np.eye(4)
    G[:3, :] += rng.uniform(-0.2, 0.2, (3, 4))
    G[3, :3] = last_row
    return G


def _leaf_point(rng, psi, t, n=3):
    c = rng.uniform(0.05, 2.0)
    logs = rng.uniform(0.3, 2.5, t)
    free = rng.uniform(-1.5, 1.5, n - 1 - t)
    first = c - float(np.dot(psi[:t], np.log(logs))) + 0.5 * float(np.dot(free, free))
    return np.concatenate([[first], logs, free])


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["G", "-G"])
def test_moved_domains_match_closed_forms(sign):
    """The march on a moved domain's value equals an independent route at
    the pulled-back points: the Klein formula on the ball, the scalar
    bisection on a type-1 model domain.  -G is the same projective map
    with every pulled-back row's last coordinate negative."""
    rng = np.random.default_rng(12)
    G = _projective(rng, rng.uniform(-0.25, 0.25, 3))
    X = rng.uniform(-0.55, 0.55, (40, 3))
    Y = rng.uniform(-0.55, 0.55, (40, 3))
    moved = transformed_oracle(ball_oracle(3), ProjMap(sign * G))
    got = hilbert_distances(moved, _moved(G, X), _moved(G, Y))
    want = [klein_distance(x, y) for x, y in zip(X, Y)]
    assert np.max(np.abs(got - want)) <= 1e-9
    march = value_distances(moved.value, _moved(G, X), _moved(G, Y))
    assert np.max(np.abs(march - want)) <= 1e-9

    # c1 x1 + c2 x2 + 1 > 0 on the model domain when c2 >= c1 psi_1
    a, c1 = 1.3, 0.2
    G = _projective(rng, [c1, 1.5 * c1 * a, 0.0])
    psi = [a, 0.0, 0.0]
    pts = [_leaf_point(rng, psi, 1) for _ in range(60)]
    X, Y = np.array(pts[:30]), np.array(pts[30:])
    # chords with an end at infinity: y - x along the first and log coordinates
    Y[:5] = X[:5] + np.array([[0.5, 0.3, 0.0]])
    moved = transformed_oracle(model_domain_oracle(CuspParameter(psi)), ProjMap(sign * G))
    got = hilbert_distances(moved, _moved(G, X), _moved(G, Y))
    want = np.array([_model_reference(psi, 1, x, y) for x, y in zip(X, Y)])
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, want))
    march = value_distances(moved.value, _moved(G, X), _moved(G, Y))
    assert np.all(np.abs(march - want) <= 1e-9 * np.maximum(1.0, want))


def _in_chart_map(draw, kind, n, psi):
    """A map G = I + a small perturbation whose image of the domain stays in
    the affine chart: its last row is positive on the domain.  On the ball
    that is 1 + c.x with |c| < 1; on a model domain 1 + a x_0 + sum b_k x_k
    over the log coordinates with a >= 0 and b_k >= a psi_k, since x_0 is
    above -sum psi_k log x_k and b x - a psi log x >= a psi (1 - log(a psi / b))."""
    small = st.floats(-0.2, 0.2)
    G = np.eye(n + 1)
    G[:n] += np.array(draw(st.lists(small, min_size=n * (n + 1), max_size=n * (n + 1)))
                      ).reshape(n, n + 1)
    if kind == "ball":
        G[n, :n] = draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    else:
        G[n, :n] = 0.0
        G[n, 0] = draw(st.floats(0.0, 0.5))
        G[n, 1:n] = [draw(st.floats(1.0, 2.0)) * G[n, 0] * p for p in psi[:n - 1]]
    return G


@pytest.mark.parametrize("kind,n,t", [("ball", 2, 0), ("ball", 3, 0), ("model", 3, 0),
                                      ("model", 3, 1), ("model", 3, 2)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_moved_kernel_matches_moved_march(kind, n, t, data):
    """A moved built-in's distances, its base kernel at the pulled-back
    points, equal the march on its own value within 1e-9 relative, for G
    and -G (pulled-back rows with negative last coordinate) and for a
    domain moved twice, when the image stays in the chart."""
    if kind == "ball":
        dom = ball_oracle(n)
        point = lambda: _ball_point(data.draw, n)
    else:
        psi = np.array([2.0, 1.0, 0.0][:t] + [0.0] * (n - t))
        dom = model_domain_oracle(CuspParameter(psi.tolist()))
        point = lambda: _model_point(data.draw, psi, t, n)
    m = data.draw(st.integers(1, 5))
    X = np.array([point() for _ in range(m)])
    Y = np.array([point() for _ in range(m)])
    G = _in_chart_map(data.draw, kind, n, None if kind == "ball" else psi)
    sign = data.draw(st.sampled_from([1.0, -1.0]))
    moved = transformed_oracle(dom, ProjMap(sign * G))
    # the second map moves the image again; its last row is positive on the first image
    H = np.eye(n + 1) + 0.05 * np.array(data.draw(st.lists(
        st.floats(-1.0, 1.0), min_size=(n + 1) ** 2, max_size=(n + 1) ** 2))).reshape(n + 1, n + 1)
    H[n] = np.eye(n + 1)[n]
    twice = transformed_oracle(moved, ProjMap(H))
    for oracle, M in ((moved, G), (twice, H @ G)):
        P, Q = _moved(M, X), _moved(M, Y)
        got = hilbert_distances(oracle, P, Q)
        want = value_distances(oracle.value, P, Q)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, want)), (got, want)


def _cut_chart_map():
    """The seed-14 map whose last row 0.8 x_0 - 0.3 changes sign on the unit
    ball, so the moved chart's hyperplane at infinity cuts g(ball); and the
    generator after drawing it."""
    rng = np.random.default_rng(14)
    G = np.eye(4) + rng.uniform(-0.2, 0.2, (4, 4))
    G[3] = [0.8, 0.0, 0.0, -0.3]
    return G, rng


def _value_only_ball(n):
    """The unit ball known by its value alone, with no kernel."""
    return ConvexDomainOracle(n, ball_oracle(n).value)


def test_cut_chart_distances_are_projective():
    """When the moved chart's hyperplane at infinity cuts g(ball), the chord
    through two image points may pass through infinity; the distance is
    still the Klein distance of the preimages on every row, which the
    affine march misses, for the ball's kernel and for the march on a
    value-only ball."""
    G, rng = _cut_chart_map()
    B = rng.uniform(-1.0, 1.0, (6000, 3))
    last = np.hstack([B, np.ones((len(B), 1))]) @ G[3]
    keep = (np.sum(B * B, axis=1) < 0.95) & (np.abs(last) > 0.05)
    B, last, h = B[keep], last[keep], np.count_nonzero(keep) // 2
    X, Y = B[:h], B[h:2 * h]
    want = klein_distance(X, Y)
    for base in (ball_oracle(3), _value_only_ball(3)):
        got = hilbert_distances(transformed_oracle(base, ProjMap(G)), _moved(G, X), _moved(G, Y))
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, want))
    # pairs on both sides of the cut, whose affine chord leaves the domain
    assert np.any(last[:h] * last[h:2 * h] < 0.0)


def test_cut_chart_routes_answer_on_the_base():
    """The preimages (0, 0.1, 0) and (0.6, 0, 0.1) lie on both sides of the
    cut, so the chord through their images passes through the moved chart's
    hyperplane at infinity.  On g(ball) and on H(g(ball)), for the ball and
    a value-only ball: the cross ratio of the chord ends gives the Klein
    distance of the preimages, the convexity scan passes, and so do the
    distances."""
    G, _ = _cut_chart_map()
    p, q = np.array([[0.0, 0.1, 0.0]]), np.array([[0.6, 0.0, 0.1]])
    assert (G[3] @ [*p[0], 1.0]) * (G[3] @ [*q[0], 1.0]) < 0.0
    want = klein_distance(p[0], q[0])
    assert abs(want - 0.714407) <= 1e-6
    H = np.eye(4) + 0.1 * np.array([[0.0, 1.0, -0.5, 0.3], [0.4, 0.0, 0.2, -0.2],
                                    [-0.3, 0.5, 0.0, 0.1], [0.0, 0.0, 0.0, 0.0]])
    for base in (ball_oracle(3), _value_only_ball(3)):
        moved = transformed_oracle(base, ProjMap(G))
        for dom, M in ((moved, G), (transformed_oracle(moved, ProjMap(H)), H @ G)):
            x, y = _moved(M, p)[0], _moved(M, q)[0]
            chord = chord_boundary(dom, x, y)
            assert chord.unbounded is None
            ratio = cross_ratio(chord.z1, [*x, 1.0], [*y, 1.0], chord.z2)
            assert abs(0.5 * math.log(ratio) - want) <= 1e-9
            convexity_scan(dom, x, y)
            assert abs(hilbert_distance(dom, x, y) - want) <= 1e-9
            assert abs(hilbert_distances(dom, [x], [y])[0] - want) <= 1e-9


def _counting(dom):
    calls = []
    return dataclasses.replace(dom, value=lambda P: calls.append(len(P)) or dom.value(P)), calls


def test_moved_builtin_calls_value_only_to_check_interiority():
    """A moved built-in batch calls the moved value once, on both sides of
    the interiority check stacked; its distances run on the pulled-back
    points.  A moved value-only oracle has no kernel: after the same one
    check it marches on its base's value at the pulled-back points."""
    G = np.eye(3) + 0.08 * np.array([[0.0, 1.0, -0.5], [0.3, 0.0, 0.2], [-0.2, 0.4, 0.0]])
    X, Y = np.array([[0.2, -0.1], [0.0, 0.3]]), np.array([[-0.4, 0.3], [0.5, 0.1]])
    # the type-1 model domain x_0 + log x_1 > 0 holds X and Y shifted by (1.5, 1)
    for base, shift in ((ball_oracle(2), 0.0), (model_domain_oracle(CuspParameter([1.0, 0.0])),
                                                 np.array([1.5, 1.0]))):
        moved, calls = _counting(transformed_oracle(base, ProjMap(G)))
        hilbert_distances(moved, _moved(G, X + shift), _moved(G, Y + shift))
        assert calls == [4]
    base, base_calls = _counting(interval_oracle())
    moved, calls = _counting(transformed_oracle(base, ProjMap(np.array([[1.2, 0.3], [0.2, 1.0]]))))
    hilbert_distances(moved, [[0.3]], [[0.5]])
    assert calls == [2]
    # the check's call reaches the base, then every march test is a base call
    assert base_calls[0] == 2 and len(base_calls) > 10


def test_projective_naturality_compares_two_routes(monkeypatch):
    """verify's projective-naturality scores the march on the moved value:
    corrupting that march fails it, and corrupting the moved oracle's
    pull-back kernel leaves its residual as it was."""
    base = verify.projective_naturality(np.random.default_rng(0))
    assert base.passed
    real = transformed_oracle

    def corrupt_kernel(dom, g):
        return real(dataclasses.replace(dom, distances=lambda X, Y: dom.distances(X, Y) + 1.0), g)

    # the corrupted kernel is the one a moved ball's distances run
    corrupted = corrupt_kernel(ball_oracle(2), ProjMap(np.eye(3)))
    assert hilbert_distance(corrupted, [0.0, 0.0], [0.5, 0.0]) == pytest.approx(
        HALF_LOG_3 + 1.0, abs=1e-12)
    monkeypatch.setattr(verify.hilbert, "transformed_oracle", corrupt_kernel)
    assert verify.projective_naturality(np.random.default_rng(0)).max_residual == base.max_residual

    def corrupt_march(dom, g):
        moved = real(dom, g)
        return dataclasses.replace(moved, value=lambda P: moved.value(P) + 1e-3)

    monkeypatch.setattr(verify.hilbert, "transformed_oracle", corrupt_march)
    assert not verify.projective_naturality(np.random.default_rng(0)).passed


def test_moved_oracle_refuses_a_kernel_it_would_not_read():
    """A moved domain's distances are its base's, so setting its own
    ``distances`` is refused rather than ignored, by keyword or as the third
    positional argument (which was once stored as ``classify``); replacing
    ``classify``, the keyword-only tracing hook, still works, and so does
    every other field."""
    moved = transformed_oracle(ball_oracle(2), ProjMap(np.diag([1.0, 2.0, 1.0])))
    assert moved.distances is None
    with pytest.raises(ValueError, match="distances"):
        dataclasses.replace(moved, distances=lambda X, Y: np.zeros(len(X)))
    with pytest.raises(TypeError, match="distances"):
        MovedOracle(2, moved.value, distances=lambda X, Y: X, base=moved.base, g=moved.g)
    with pytest.raises(TypeError, match="positional"):
        MovedOracle(2, moved.value, lambda X, Y: X, base=moved.base, g=moved.g)
    with pytest.raises(TypeError, match="positional"):
        ConvexDomainOracle(2, moved.value, None, abs)
    hook = dataclasses.replace(moved, classify=abs)
    assert hook.classify is abs and hook.g is moved.g and hook.base is moved.base
    assert hilbert_distance(hook, [0.0, 0.0], [0.0, 0.5]) == hilbert_distance(
        ball_oracle(2), [0.0, 0.0], [0.0, 0.25])



@pytest.mark.parametrize("base", ["ball", "model"])
def test_moved_value_agrees_with_pointwise_route(base):
    """A moved domain's value is negative exactly where a per-point route
    that shares no code with it puts the point inside: ``act`` of g^-1 on
    the homogeneous point, then |x|^2 < 1 on the ball or a positive
    ``leaf_coordinate`` on the model domain.  The moved chart's hyperplane
    at infinity cuts the base domain, so interior rows pull back with either
    sign of last coordinate."""
    rng = np.random.default_rng(14)
    if base == "ball":
        dom, B = ball_oracle(3), rng.uniform(-1.2, 1.2, (400, 3))
        inside_at = lambda q: float(np.dot(q.chart(), q.chart())) - 1.0 < 0.0
    else:
        psi = CuspParameter([1.1, 0.0, 0.0])
        dom = model_domain_oracle(psi)
        B = rng.uniform([-1.0, -0.5, -2.0], [3.0, 3.0, 2.0], (400, 3))

        def inside_at(q):
            try:
                return leaf_coordinate(ModelDomain(psi), q, 0.0)[1] == INTERIOR
            except ValueError:      # a nonpositive log coordinate
                return False
    G = np.eye(4) + rng.uniform(-0.2, 0.2, (4, 4))
    G[3] = [0.8, 0.0, 0.0, -0.3]
    moved = transformed_oracle(dom, ProjMap(G))
    P = _moved(G, B)
    # the pull-back of P is (B, 1) / last
    last = np.hstack([B, np.ones((len(B), 1))]) @ G[3]
    inside = moved.value(P) < 0.0
    g_inv = inverse(ProjMap(G))
    pointwise = np.array([inside_at(act(g_inv, ProjPoint([*p, 1.0]))) for p in P])
    assert np.array_equal(inside, pointwise)
    assert inside[last < 0].any() and inside[last > 0].any()
    # the built-in value against the same per-point route on the base
    assert np.array_equal(dom.value(B) < 0.0,
                          [inside_at(ProjPoint([*b, 1.0])) for b in B])


def test_value_only_oracles_keep_working():
    """An oracle known by its value alone, and a moved one, give the same
    distance, chord ends and bad-input errors through the march."""
    g = ProjMap(np.array([[1.2, 0.3], [0.2, 1.0]]))
    gmap = lambda t: (1.2 * t + 0.3) / (0.2 * t + 1.0)
    for dom, f in ((interval_oracle(), lambda t: t),
                   (transformed_oracle(interval_oracle(), g), gmap)):
        x, y = [f(0.0)], [f(0.5)]
        assert hilbert_distance(dom, x, y) == pytest.approx(HALF_LOG_3, abs=1e-12)
        assert hilbert_distances(dom, [x, y], [y, x]) == pytest.approx([HALF_LOG_3] * 2, abs=1e-12)
        chord = chord_boundary(dom, x, y)
        assert chord.z1.chart()[0] == pytest.approx(f(-1.0), abs=1e-12)
        assert chord.z2.chart()[0] == pytest.approx(f(1.0), abs=1e-12)
        assert chord.unbounded is None and chord.residual <= 1e-12
        with pytest.raises(ValueError, match="^point y is not interior to the domain$"):
            hilbert_distance(dom, x, [f(2.0)])
        with pytest.raises(ValueError, match="^row 1: point x is not interior to the domain$"):
            hilbert_distances(dom, [x, [f(-3.0)]], [y, y])


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

    def two_balls(P):
        """min over the centers c = (-2, 0), (2, 0) of |x - c|^2 - 1"""
        return np.minimum(*(np.sum((P - c) ** 2, axis=1) for c in ([-2.0, 0.0], [2.0, 0.0]))) - 1.0

    broken = ConvexDomainOracle(2, two_balls)
    with pytest.raises(ConvexityViolation):
        convexity_scan(broken, [-2.0, 0.0], [2.0, 0.0])


# ---------------------------------------------------------------------------
# the fixed-count march against the masked bisection it replaced

MARCH_KINDS = [("model", 3, 1), ("model", 3, 2), ("model", 4, 1), ("model", 4, 2),
               ("model", 4, 3), ("model-value", 3, 1), ("model-value", 4, 2),
               ("ball-value", 2, 0), ("ball-value", 3, 0),
               ("moved-ball-value", 2, 0), ("moved-ball-value", 3, 0)]


@st.composite
def _march_case(draw, kind, n, t):
    """Row-paired points (X, Y) of one domain, with the domain's psi and map.
    Rows: two interior points; a near-coincident pair, |y - x| from 1e-4
    down to 1e-15; x = y; on the model domains a chord along which the leaf
    value cannot fall, and one whose end lies at a drawn parameter 2^e,
    e in [40, 62], on both sides of ``U_CAP``; on the ball a step of 2^-e."""
    psi = np.sort(np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=t, max_size=t))))[::-1]
    ball = kind.endswith("ball-value")
    point = (lambda: _ball_point(draw, n)) if ball else (lambda: _model_point(draw, psi, t, n))
    unit = lambda: np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    kinds = ["pair", "near", "same", "far"] + ([] if ball else ["stays"])
    X, Y = [], []
    for row in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6)):
        x = point()
        if row == "pair":
            y = point()
        elif row == "near":
            y = x + 10.0 ** -draw(st.floats(4.0, 15.0)) * unit()
        elif row == "same":
            y = x.copy()
        elif row == "stays":
            y = x + np.array([draw(st.floats(0.0, 2.0))]
                             + draw(st.lists(st.floats(0.0, 2.0), min_size=t, max_size=t))
                             + [0.0] * (n - 1 - t))
        elif ball:
            x = 0.5 * x
            y = x + 2.0 ** -draw(st.floats(40.0, 62.0)) * unit()
        else:
            # x_0 = 0 and leaf value c at x, so c - u delta at x + u d, d = -delta e_0,
            # which ends at u = c / delta = 2^e
            c = draw(st.floats(0.01, 2.0))
            x = np.array([0.0, math.exp(c / psi[0])] + [1.0] * (t - 1) + [0.0] * (n - 1 - t))
            y = x.copy()
            y[0] = -c * 2.0 ** -draw(st.one_of(st.floats(40.0, 62.0),
                                               st.integers(58, 61).map(float)))
        X.append(x)
        Y.append(y)
    X, Y = np.array(X), np.array(Y)
    G = _in_chart_map(draw, "ball", n, None) if kind == "moved-ball-value" else None
    if G is not None:
        X, Y = _moved(G, X), _moved(G, Y)
    return kind, psi, t, G, X, Y


def _both_marches(case):
    """(u, widths) of the program's march and of the masked reference."""
    kind, psi, t, G, X, Y = case
    if kind == "model":
        P, E = hilbert._rays(X, Y)
        stays = hilbert._model_ray_stays(E, t)
        return (hilbert._march(hilbert._model_inside(P, E, psi, t), stays),
                ref_march(ref_model_inside(P, E, psi, t), stays))
    if kind == "model-value":
        return (hilbert.value_march(lambda P: hilbert._model_value(P, psi, t), X, Y),
                ref_value_march(lambda P: ref_model_value(P, psi, t), X, Y))
    value = hilbert._ball_value
    if G is not None:
        value = transformed_oracle(ball_oracle(X.shape[1]), ProjMap(G)).value
    return hilbert.value_march(value, X, Y), ref_value_march(value, X, Y)


def _same_bytes(marches):
    (u, w), (ref_u, ref_w) = marches
    return u.tobytes() == ref_u.tobytes() and w.tobytes() == ref_w.tobytes()


@pytest.mark.parametrize("kind,n,t", MARCH_KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fixed_halvings_match_masked_bisection(kind, n, t, data):
    """``HALVINGS`` unmasked halvings give the bytes of the masked bisection
    to the float fixed point: the same end parameters (nan where unbounded)
    and final bracket widths, on the model domains' column ray test and on
    value functions (model, ball and moved ball)."""
    assert _same_bytes(_both_marches(data.draw(_march_case(kind, n, t))))


def test_51_halvings_fail_the_march_reference(monkeypatch):
    """Negative control: one halving short of the float fixed point, the
    property finds a differing case for every kind of ray."""
    monkeypatch.setattr(hilbert, "HALVINGS", 51)
    for kind, n, t in MARCH_KINDS:
        find(_march_case(kind, n, t), lambda case: not _same_bytes(_both_marches(case)),
             settings=settings(max_examples=50, database=None, phases=[Phase.generate]))


# ---------------------------------------------------------------------------
# k bisection levels per inside call


def _levels(monkeypatch, rows, k):
    """Make a march over ``rows`` rays test k levels per ``inside`` call."""
    monkeypatch.setattr(hilbert, "LEVEL_POINTS", (2 ** k - 1) * rows)
    assert hilbert._halving_steps(rows) == [k] * (52 // k) + [52 % k] * (52 % k > 0)


def _scrambled_inside(U):
    """Inside below u = 2^5 where a hash of the bits of u and of the ray's
    column has a zero bit: along a ray, True and False alternate with no
    order, so the columns of a k-level test are seldom monotone."""
    bits = np.ascontiguousarray(U).view(np.uint64) ^ np.arange(U.shape[-1], dtype=np.uint64)
    return (U < 32.0) & ((bits * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(61) < 4)


_SCRAMBLED_STAYS = np.array([False, True, False, False, False, False])


@pytest.mark.parametrize("k", range(1, 9))
def test_march_follows_the_one_level_path(monkeypatch, k):
    """On an ``inside`` that is not monotone along its rays, a march of k
    levels per call keeps the point that one-level halvings keep: the bytes
    of the masked reference bisection, at every level count."""
    _levels(monkeypatch, 6, k)
    got = hilbert._march(_scrambled_inside, _SCRAMBLED_STAYS)
    assert _same_bytes((got, ref_march(_scrambled_inside, _SCRAMBLED_STAYS)))


@pytest.mark.parametrize("k", range(2, 9))
def test_leading_trues_alone_fail_the_path(monkeypatch, k):
    """Negative control: a march that keeps each column's count of leading
    Trues, with no walk of the columns that are not monotone, leaves the
    reference at every level count above 1."""
    _levels(monkeypatch, 6, k)
    monkeypatch.setattr(hilbert, "_bisection_path",
                        lambda B: np.logical_and.accumulate(B).sum(axis=0))
    got = hilbert._march(_scrambled_inside, _SCRAMBLED_STAYS)
    assert not _same_bytes((got, ref_march(_scrambled_inside, _SCRAMBLED_STAYS)))


@pytest.mark.parametrize("pairs,halvings", [(4, [(31, 8)] * 10 + [(3, 8)]),
                                            (1000, [(1, 2000)] * 52)], ids=["8-rays", "2000-rays"])
def test_march_inside_calls(pairs, halvings):
    """The mechanism as a count: after its doublings, a type-1 march over 8
    rays makes ceil(52 / 5) = 11 ``inside`` calls of 31 points per ray (the
    last of 3), and one over 2000 rays makes 52 calls of one point per ray."""
    rng = np.random.default_rng(20)
    psi = np.array([1.3])
    X, Y = (np.column_stack([rng.uniform(0.1, 2.0, pairs), rng.uniform(0.5, 3.0, pairs),
                             rng.uniform(-1.0, 1.0, pairs)]) for _ in range(2))
    for P in (X, Y):
        P[:, 0] += 0.5 * P[:, 2] ** 2 - psi[0] * np.log(P[:, 1])
    P, E = hilbert._rays(X, Y)
    inside, shapes = hilbert._model_inside(P, E, psi, 1), []
    u, _ = hilbert._march(lambda U: shapes.append(U.shape) or inside(U),
                          hilbert._model_ray_stays(E, 1))
    doublings = int(np.max(np.floor(np.log2(u)))) + 1
    assert shapes == [(1, 2 * pairs)] * doublings + halvings


def test_chord_end_below_the_cap_is_bounded():
    """From x = 0 along d = 2e-18, the chord of the interval (-1, 1) ends at
    u = 5e17, under the cap of 1e18 past which a chord is taken to never
    leave the chart: the march reads that finite end, where a cap of 1e17
    would read it as unbounded (nan)."""
    (u, s), widths = hilbert.value_march(interval_oracle().value, np.array([[0.0]]),
                                         np.array([[2e-18]]))
    assert u == pytest.approx(5e17, rel=1e-15)
    assert s == pytest.approx(5e17 + 1.0, rel=1e-15)
    assert np.all(widths <= 1e-15 * 5e17)


def test_empty_batches_give_empty_results():
    """Rows of shape (0, n) give an empty float array on every route: the
    ball, the model domains of type 0 and 1, the march on a value function
    and a moved domain."""
    none = np.zeros((0, 3))
    model1 = model_domain_oracle(CuspParameter([1.0, 0.0, 0.0]))
    for dom in (ball_oracle(3), model_domain_oracle(CuspParameter([0.0, 0.0, 0.0])), model1,
                _value_only_ball(3), transformed_oracle(model1, ProjMap(np.diag([1.0, 2.0, 1.0, 1.0])))):
        out = hilbert_distances(dom, none, none)
        assert out.shape == (0,) and out.dtype == np.float64
    for out in hilbert.value_march(hilbert._ball_value, none, none):
        assert out.shape == (0,) and out.dtype == np.float64
