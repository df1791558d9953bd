import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspbend.cusp_classify import (
    MIN_BEND_FLOAT,
    PatternMismatch,
    RectangularCuspData,
    _cusp_arrays,
    _intertwining_residuals,
    _row_maps,
    bent_cusp_generators,
    classify_h_form,
    conjugate_and_match,
    conjugation_residuals,
    cusp_parameter_entry,
    diagonalize_commuting,
    equivalent_parameters,
    expected_corner,
    require_normal_form,
    standard_cusp_generators,
    upper_triangular_check,
)
from cuspbend.cusp_models import (
    CuspParameter,
    ModelDomain,
    h_element,
    leaf_coordinate,
    leaf_point,
    parabolic_element,
    ParaboloidModel,
    zprime_element,
)
from cuspbend.projlin import ProjMap, ProjPoint, act, compose, eigen, inverse, proj_equiv
from equiv_reference import fraction_matrix


def test_rectangular_data_validation():
    with pytest.raises(ValueError):
        RectangularCuspData(3, b=[0, 1], s=[0.0, 0.0])       # b must be positive
    with pytest.raises(ValueError):
        RectangularCuspData(3, b=[1, 1], s=[-0.1, 0.0])
    with pytest.raises(ValueError):
        RectangularCuspData(3, b=[1, 1], s=[1.0, 0.0], mu=[2.0, 1.0])  # mu != e^s
    data = RectangularCuspData(3, b=[1, 1], s=[math.log(2.0), 0.0], mu=[2.0, 1.0])
    assert data.bent_slots() == [0]


@pytest.mark.parametrize("kwargs", [
    {"b": [math.nan, 1.0], "s": [0.5, 0.0]},
    {"b": [1.0, math.inf], "s": [0.5, 0.0]},
    {"b": [1.0, 1.0], "s": [math.nan, 0.0]},
    {"b": [1.0, 1.0], "s": [math.inf, 0.0]},
    {"b": [1.0, 1.0], "mu": [math.nan, 1.0]},
    {"b": [1.0, 1.0], "mu": [math.inf, 1.0]},
    {"b": [1.0, 1.0], "s": [0.5, math.nan], "mu": [math.exp(0.5), 1.0]},
    {"b": [1.0, 1.0], "s": [710.0, 0.0]},
    {"b": [1.0, 1.0], "s": [F(10 ** 400), 0.0]},
    {"b": [1.0, 1.0], "s": [800.0, 0.0], "mu": [1e300, 1.0]},
])
def test_rectangular_data_rejects_non_finite_and_overflow(kwargs):
    with pytest.raises(ValueError):
        RectangularCuspData(3, **kwargs)


def test_float_guard_tests_every_nonzero_bending():
    # exp(1e-17) rounds to 1.0, so the multiplier alone shows no bending
    data = RectangularCuspData(3, b=[1.0, 1.0], s=[1e-17, 0.0])
    assert data.mu[0] == 1.0
    with pytest.raises(ValueError, match="below"):
        conjugate_and_match(data)
    with pytest.raises(ValueError, match="row 1: bending parameter s_3"):
        conjugation_residuals([1.0, 1.0], [[0.5, 0.5], [0.5, 1e-17]], [[1.5, 1.5], [1.5, 1.0]])


def test_residual_check_fails_closed():
    require_normal_form(np.array([0.0, 1e-9]), 1e-9)
    with pytest.raises(PatternMismatch, match="row 1:"):
        require_normal_form(np.array([0.0, math.nan, 1.0]), 1e-9)
    with pytest.raises(PatternMismatch) as info:
        require_normal_form(np.array([math.nan]), 1e-9)
    assert math.isnan(info.value.residual)
    # a NaN shape constant reaching the kernel yields a NaN residual, not 0
    res = conjugation_residuals([math.nan, 1.0], [[0.5, 0.0]], [[math.exp(0.5), 1.0]])
    assert math.isnan(res[0])


def _independent_residual(data: RectangularCuspData) -> float:
    """A g = W A slot by slot in ProjMap products, with the generators g, the
    normalizing matrix A and the normal forms W built here from the formulas
    of the ``_cusp_arrays`` docstring."""
    n = data.n
    a = np.eye(n + 1)
    for k in data.bent_slots():
        b, mu = data.b[k], data.mu[k]
        a[0, k + 1] = -b / (mu - 1)
        a[k + 1, n] = mu * b / (mu - 1)
    a_map = ProjMap(a)
    worst = 0.0
    for k, (b, mu) in enumerate(zip(data.b, data.mu)):
        g = np.eye(n + 1)
        g[0, k + 1] = g[k + 1, n] = b
        g[0, n] = b * b / 2
        g[k + 1] *= mu
        w = g.copy()
        if mu != 1:
            w[0, k + 1] = w[k + 1, n] = 0.0
            w[0, n] = -b * b * (mu + 1) / (2 * (mu - 1))
        err = np.abs(compose(a_map, ProjMap(g)).entries - compose(ProjMap(w), a_map).entries)
        bound = np.abs(a) @ np.abs(g) + np.abs(w) @ np.abs(a)
        worst = max(worst, float(np.max(err / np.where(bound == 0, 1.0, bound))))
    return worst


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_per_slot_projmap_route(data):
    n = data.draw(st.integers(3, 6), label="n")
    finite = st.floats(0.3, 2.5, allow_nan=False)
    b = data.draw(st.lists(finite, min_size=n - 1, max_size=n - 1), label="b")
    slots = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1), label="slots")
    steps = data.draw(st.integers(1, 21), label="steps")
    grid = np.linspace(0.0, data.draw(st.floats(0.1, 3.0), label="stop"), steps)
    cusps = [RectangularCuspData(n, b=b, s=[float(s) if bent else 0.0 for bent in slots])
             for s in grid]
    residuals = conjugation_residuals(b, [c.s for c in cusps], [c.mu for c in cusps])
    assert residuals.shape == (steps,)
    for cusp, residual in zip(cusps, residuals):
        assert residual == _independent_residual(cusp)
        cls = conjugate_and_match(cusp)
        assert cls.residual == residual
        assert cls.type == sum(1 for s in cusp.s if s != 0)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_float_and_exact_classification_pass_down_to_min_bend(data):
    """Every s >= MIN_BEND_FLOAT and every subset of bent slots classifies in
    floats at the default tolerance, and the same floats read as dyadic
    rationals conjugate exactly: two routes, no shared arithmetic."""
    n = data.draw(st.integers(2, 6), label="n")
    b = data.draw(st.lists(st.floats(0.2, 5.0), min_size=n - 1, max_size=n - 1), label="b")
    slots = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1), label="slots")
    exps = data.draw(st.lists(st.floats(-8.0, 0.5), min_size=n - 1, max_size=n - 1),
                     label="log10 s")
    s = [max(10.0 ** e, MIN_BEND_FLOAT) if bent else 0.0 for e, bent in zip(exps, slots)]
    cusp = RectangularCuspData(n, b=b, s=s)
    cls = conjugate_and_match(cusp)
    assert 0.0 <= cls.residual <= 1e-9
    assert cls.type == sum(slots)
    exact = RectangularCuspData(n, b=[F(x) for x in cusp.b], mu=[F(x) for x in cusp.mu])
    exact_cls = conjugate_and_match(exact)
    assert exact_cls.residual == 0 and isinstance(exact_cls.residual, F)
    assert exact_cls.type == cls.type


@pytest.mark.parametrize("s", [1e-8, 1e-5, 1e-2, 0.5, 3.0])
@pytest.mark.parametrize("entry", ["mu", "b"])
@pytest.mark.parametrize("slot", [0, 1])
def test_perturbed_generator_misses_normal_form(s, entry, slot):
    """Negative control: one generator built from its mu or b changed by a
    relative 1e-6, against the A and W of the true data, fails the check on
    a bent slot (0) and an unbent slot (1) alike."""
    b, mu = [1.3, 0.7, 2.0], [math.exp(s), 1.0, math.exp(2 * s)]
    svec = [[s, 0.0, 2 * s]]
    gens, a_mat, normal = _cusp_arrays(b, svec, [mu])
    assert _intertwining_residuals(gens, a_mat, normal)[0] <= 1e-15
    s_new = list(svec[0])
    if entry == "mu":
        mu[slot] *= 1 + 1e-6
        s_new[slot] = math.log(mu[slot])
    else:
        b[slot] *= 1 + 1e-6
    perturbed, _, _ = _cusp_arrays(b, [s_new], [mu])
    gens[:, slot] = perturbed[:, slot]
    assert _intertwining_residuals(gens, a_mat, normal)[0] > 1e-9


def test_exact_mismatch_reports_max_intertwining_error(monkeypatch):
    """Negative control for the exact check: ``_cusp_arrays`` output with one
    W corner moved by 1/7 and one g entry by 2/11 misses the normal form, and
    the residual is max |A g - W A| over slots and entries, here summed out
    entry by entry in Fractions."""
    import cuspbend.cusp_classify as cc
    data = RectangularCuspData(4, b=[F(3, 2), F(1), F(2)], mu=[F(3), F(1), F(5, 4)])
    (g_num, e), (a_num, d), (w_num, _) = _cusp_arrays(data.b, [data.s], [data.mu])
    # g and W over 77 e, so that both moves are integer numerators
    g_num, w_num, e = g_num * 77, w_num * 77, e * 77
    w_num[0, 2, 0, 4] += e // 7
    g_num[0, 1, 2, 4] += 2 * e // 11
    monkeypatch.setattr(cc, "_cusp_arrays",
                        lambda b, s, mu: ((g_num, e), (a_num, d), (w_num, e)))
    with pytest.raises(PatternMismatch, match="exact conjugation failed") as info:
        conjugate_and_match(data)

    def fractions(num, den):
        return np.vectorize(lambda x: F(x, den), otypes=[object])(num)

    gens, a_mat, normal = fractions(g_num, e), fractions(a_num, d), fractions(w_num, e)
    a, size = a_mat[0], data.n + 1
    want = max(abs(sum(a[i, k] * g[k, j] - w[i, k] * a[k, j] for k in range(size)))
               for g, w in zip(gens[0], normal[0])
               for i in range(size) for j in range(size))
    assert want == F(2, 11)
    assert info.value.residual == want and isinstance(info.value.residual, F)


def _fraction_cusp_matrices(data: RectangularCuspData):
    """g_k and A in Fractions, entry by entry from the formulas of the
    ``_cusp_arrays`` docstring."""
    n = data.n
    a = [[F(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
    gens = []
    for k, (b, mu) in enumerate(zip(data.b, data.mu)):
        g = [[F(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
        g[0][k + 1] = g[k + 1][n] = F(b)
        g[0][n] = F(b) * b / 2
        g[k + 1] = [mu * x for x in g[k + 1]]
        gens.append(g)
        if mu != 1:
            a[0][k + 1] = -F(b) / (mu - 1)
            a[k + 1][n] = mu * F(b) / (mu - 1)
    return gens, a


positive_rational = st.fractions(min_value=F(1, 50), max_value=50, max_denominator=60)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_exact_route_matches_fraction_formulas(data):
    """The integer exact route against Fractions built here: the residual is
    exactly 0, the conjugator is the Fraction A with its rows in the order of
    psi, and the generator and normalizing-matrix slices are g and A."""
    n = data.draw(st.integers(2, 6), label="n")
    b = data.draw(st.lists(positive_rational, min_size=n - 1, max_size=n - 1), label="b")
    bent = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1), label="bent")
    mu = [1 + data.draw(positive_rational, label="mu - 1") if k else F(1) for k in bent]
    cusp = RectangularCuspData(n, b=b, mu=mu)
    gens, a = _fraction_cusp_matrices(cusp)

    # psi entries in floats: b^2 (mu + 1) / (2 (mu - 1) log mu) per bent slot
    avals = {k: float(b[k]) ** 2 * float(mu[k] + 1) / (2 * float(mu[k] - 1)) / math.log(mu[k])
             for k in range(n - 1) if bent[k]}
    distinct = sorted(set(avals.values()))
    assume(all(y - x > 1e-9 * y for x, y in zip(distinct, distinct[1:])))
    order = sorted(avals, key=lambda k: -avals[k]) + [k for k in range(n - 1) if not bent[k]]

    cls = conjugate_and_match(cusp)
    assert cls.residual == 0 and isinstance(cls.residual, F)
    assert cls.type == sum(bent)
    assert cls.psi.psi == pytest.approx([avals[k] for k in order if bent[k]]
                                        + [0.0] * (n - sum(bent)), rel=1e-12)
    rows = [0] + [k + 1 for k in order] + [n]
    assert fraction_matrix(cls.conjugator).tolist() == [a[i] for i in rows]
    assert fraction_matrix(_normalizing_matrix(cusp)).tolist() == a
    assert [fraction_matrix(g).tolist() for g in bent_cusp_generators(cusp)] == gens


def test_standard_generators_explicit_matrix():
    g2, g3 = standard_cusp_generators(RectangularCuspData(3, b=[F(1), F(1)], s=[0.0, 0.0]))
    want = [[F(1), F(1), F(0), F(1, 2)],
            [F(0), F(1), F(0), F(1)],
            [F(0), F(0), F(1), F(0)],
            [F(0), F(0), F(0), F(1)]]
    assert np.array_equal(fraction_matrix(g2), fraction_matrix(ProjMap(want)))
    assert np.array_equal(fraction_matrix(compose(g2, g3)), fraction_matrix(compose(g3, g2)))


def test_standard_generators_pairwise_commute_exactly():
    data = RectangularCuspData(6, b=[F(1, 2), F(3), F(2), F(1), F(5, 3)], s=[0.0] * 5)
    gens = standard_cusp_generators(data)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            assert np.array_equal(fraction_matrix(compose(gens[i], gens[j])),
                                  fraction_matrix(compose(gens[j], gens[i])))


def test_bent_generators_reduce_to_standard():
    data = RectangularCuspData(4, b=[1.0, 2.0, 0.5], s=[0.0] * 3)
    for bent, std in zip(bent_cusp_generators(data), standard_cusp_generators(data)):
        assert np.array_equal(bent.entries, std.entries)


def test_bent_generator_eigenvalues():
    s = 0.9
    data = RectangularCuspData(4, b=[1.0, 1.0, 1.0], s=[0.0, s, 0.0])
    g = bent_cusp_generators(data)[1]
    values = sorted(p.value.real for p in eigen(g.to_float()))
    assert abs(values[-1] - math.exp(s)) <= 1e-9
    assert all(abs(v - 1.0) <= 1e-9 for v in values[:-1])


def _normalizing_matrix(data: RectangularCuspData) -> ProjMap:
    """The normalizing matrix A that ``conjugate_and_match`` checks and
    permutes into its conjugator: the A slice of ``_cusp_arrays``."""
    return _row_maps(_cusp_arrays(data.b, [data.s], [data.mu])[1])[0]


def test_normalizing_matrix_trivial_and_entry():
    data = RectangularCuspData(3, b=[1.0, 1.0], s=[0.0, 0.0])
    assert np.array_equal(_normalizing_matrix(data).to_float().entries, np.eye(4))
    data = RectangularCuspData(3, b=[F(1), F(1)], mu=[F(2), F(1)])
    a = _normalizing_matrix(data)
    assert fraction_matrix(a)[0][1] == F(-1)          # -b/(mu-1) with b=1, mu=2
    assert fraction_matrix(a)[1][3] == F(2)           # mu*b/(mu-1)


def test_normalizing_matrix_sends_new_eigenvector_to_slot():
    data = RectangularCuspData(4, b=[1.3, 1.0, 0.7], s=[0.8, 0.0, 0.5])
    gens = bent_cusp_generators(data)
    a = _normalizing_matrix(data).to_float()
    for k in data.bent_slots():
        mu = float(data.mu[k])
        pairs = [p for p in eigen(gens[k].to_float()) if abs(p.value - mu) <= 1e-9]
        assert len(pairs) == 1
        vec = np.real(pairs[0].vector)
        target = np.zeros(5)
        target[k + 1] = 1.0
        image = act(a, ProjPoint(vec))
        assert proj_equiv(image, ProjPoint(target), 1e-9)


def test_float_guard_rejects_tiny_bending():
    data = RectangularCuspData(3, b=[1.0, 1.0], s=[1e-9, 0.0])
    with pytest.raises(ValueError):
        _normalizing_matrix(data)


def test_conjugate_and_match_unbent():
    cls = conjugate_and_match(RectangularCuspData(4, b=[1.0, 1.0, 1.0], s=[0.0] * 3))
    assert cls.type == 0
    assert all(x == 0 for x in cls.psi.psi)
    assert np.allclose(np.asarray(cls.conjugator.to_float().entries), np.eye(5))


def test_conjugate_and_match_frozen_example():
    # b = 1, mu = 2: corner -3/2 exactly, parameter 3 / (2 ln 2)
    data = RectangularCuspData(3, b=[F(1), F(1)], mu=[F(2), F(1)])
    assert expected_corner(F(1), F(2)) == F(-3, 2)
    cls = conjugate_and_match(data)
    assert cls.residual == 0
    assert cls.type == 1
    assert cls.psi.psi[0] == pytest.approx(2.1640425613334453, abs=1e-12)
    assert cls.psi.psi[1:] == (0.0, 0.0)


def test_conjugate_and_match_type_count():
    data = RectangularCuspData(3, b=[1.0, 1.0], s=[math.log(2.0), 0.0])
    cls = conjugate_and_match(data)
    assert cls.type == 1


def test_conjugate_and_match_sorts_parameter():
    data = RectangularCuspData(4, b=[1.0, 1.0, 1.0], s=[2.0, 0.0, 0.3])
    cls = conjugate_and_match(data)
    # smaller s gives the larger parameter entry; order must be non-increasing
    assert cls.psi.psi[0] >= cls.psi.psi[1] > 0
    assert cls.psi.psi[2] == 0
    a_small = cusp_parameter_entry(1.0, math.exp(0.3), 0.3)
    assert cls.psi.psi[0] == pytest.approx(a_small, rel=1e-12)


def test_conjugated_generators_form_model_group_elements():
    data = RectangularCuspData(4, b=[1.1, 0.9, 1.4], s=[0.6, 0.0, 1.2])
    cls = conjugate_and_match(data)
    conj = cls.conjugator.to_float()
    conj_inv = inverse(conj)
    psi = cls.psi
    t = cls.type
    for k, g in enumerate(bent_cusp_generators(data)):
        moved = compose(compose(conj, g.to_float()), conj_inv).entries
        m = np.asarray(moved, dtype=float)
        # block pattern of the model translation group at parameter psi
        assert abs(m[0, 0] - 1.0) <= 1e-12 and abs(m[4, 4] - 1.0) <= 1e-12
        assert np.max(np.abs(m[0, 1:1 + t])) <= 1e-12
        d = np.diag(m)[1:1 + t]
        v_row = m[0, 1 + t:4]
        v_col = m[1 + t:4, 4]
        assert np.max(np.abs(v_row - v_col)) <= 1e-12
        sigma = 0.5 * float(np.dot(v_col, v_col)) - float(
            np.dot([float(x) for x in psi.psi[:t]], np.log(d)))
        assert abs(m[0, 4] - sigma) <= 1e-9


def test_exact_identity_small_grid():
    for n in (3, 4):
        for t in range(1, n):
            b = [F(1, 2) if k % 2 else F(3) for k in range(n - 1)]
            mu = [F(2) if k % 2 else F(5) for k in range(t)] + [F(1)] * (n - 1 - t)
            cls = conjugate_and_match(RectangularCuspData(n, b=b, mu=mu))
            assert cls.residual == 0
            assert cls.type == t


def test_blowup_and_inversion():
    data = RectangularCuspData(2, b=[1.0], s=[1e-6])
    cls = conjugate_and_match(data)
    assert 1.0 / cls.psi.psi[0] <= 1e-11
    data_b2 = RectangularCuspData(2, b=[2.0], s=[1e-6])
    cls_b2 = conjugate_and_match(data_b2)
    assert 1.0 / cls_b2.psi.psi[0] <= 1e-11 / 4 * 1.01


def test_leaf_action_moves_coordinates_as_predicted():
    # bent slot scales its coordinate by mu; unbent slot translates by b
    data = RectangularCuspData(3, b=[1.0, 0.8], s=[0.5, 0.0])
    cls = conjugate_and_match(data)
    conj = cls.conjugator.to_float()
    conj_inv = inverse(conj)
    gens = [compose(compose(conj, g.to_float()), conj_inv)
            for g in bent_cusp_generators(data)]
    dom = ModelDomain(CuspParameter([float(x) for x in cls.psi.psi]))
    p = leaf_point(dom, 1.2, [0.9, 0.4])
    moved_bent = act(gens[0], p)
    chart = np.asarray(moved_bent.chart(), dtype=float)
    assert chart[1] == pytest.approx(0.9 * math.exp(0.5), rel=1e-12)
    c2, _ = leaf_coordinate(dom, moved_bent)
    assert c2 == pytest.approx(1.2, abs=1e-12)
    moved_unbent = act(gens[1], p)
    chart = np.asarray(moved_unbent.chart(), dtype=float)
    assert chart[2] == pytest.approx(0.4 + 0.8, rel=1e-12)
    c3, _ = leaf_coordinate(dom, moved_unbent)
    assert c3 == pytest.approx(1.2, abs=1e-12)


def test_equivalent_parameters():
    assert equivalent_parameters(CuspParameter([2, 1, 0]), CuspParameter([4, 2, 0]))
    psi = CuspParameter([1.5, 0.2, 0.0])
    assert equivalent_parameters(psi, psi)
    assert not equivalent_parameters(CuspParameter([2, 1, 0]), CuspParameter([2, 2, 0]))
    assert equivalent_parameters(CuspParameter([F(3), F(1), F(0)]),
                                 CuspParameter([F(9, 2), F(3, 2), F(0)]))
    assert equivalent_parameters(CuspParameter([0, 0]), CuspParameter([0, 0]))
    assert not equivalent_parameters(CuspParameter([1, 0]), CuspParameter([0, 0]))
    with pytest.raises(ValueError):
        equivalent_parameters(CuspParameter([1, 0]), CuspParameter([1, 0, 0]))


def test_upper_triangular_check_on_model_group():
    psi = CuspParameter([1.0, 0.0, 0.0])
    gens = [h_element(psi, [1.5], [0.7]).matrix,
            h_element(psi, [0.8], [-0.4]).matrix]
    res = upper_triangular_check(gens)
    assert res.status == "true"
    assert res.residual <= 1e-12
    conj = np.abs(np.asarray(res.conjugator.entries, dtype=float))
    assert np.allclose(conj, np.eye(4), atol=1e-9)


def test_upper_triangular_check_on_bent_generators():
    data = RectangularCuspData(4, b=[1.0, 0.7, 1.3], s=[0.4, 0.0, 0.9])
    res = upper_triangular_check([g.to_float() for g in bent_cusp_generators(data)])
    assert res.status == "true"
    assert res.residual <= 1e-9


def test_upper_triangular_check_rotations():
    c, s = math.cos(1.0), math.sin(1.0)
    rot_xy = ProjMap([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    c2, s2 = math.cos(math.sqrt(2)), math.sin(math.sqrt(2))
    rot_yz = ProjMap([[1.0, 0.0, 0.0], [0.0, c2, -s2], [0.0, s2, c2]])
    res = upper_triangular_check([rot_xy, rot_yz])
    assert res.status == "false"
    assert res.conjugator is None


def test_diagonalizable_check():
    diag = [ProjMap.diagonal([1.0, 2.0, 3.0]), ProjMap.diagonal([2.0, 5.0, 1.0])]
    assert diagonalize_commuting(diag)[0] is not None
    par = parabolic_element(ParaboloidModel(2), [1.0]).to_float()
    assert diagonalize_commuting([par])[0] is None
    swap = ProjMap([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="^generators 0 and 1 do not commute$"):
        diagonalize_commuting([ProjMap.diagonal([1.0, 2.0, 1.0]), swap])
    # the first pair in lexicographic order that fails is the one reported
    with pytest.raises(ValueError, match="^generators 0 and 2 do not commute$"):
        diagonalize_commuting([ProjMap.diagonal([1.0, 2.0, 1.0]),
                               ProjMap.diagonal([3.0, 1.0, 1.0]), swap])


def test_model_bend_produces_diagonalizable_group():
    rng = np.random.default_rng(17)
    n = 4
    base = [ProjMap.diagonal([1.0] + list(np.exp(rng.uniform(-1, 1, n - 1))) + [1.0])
            for _ in range(2)]
    stable = ProjMap.diagonal([1.0] + list(np.exp(rng.uniform(-1, 1, n - 1))) + [1.0])
    z = zprime_element(1.6, 0.7, n).to_float()
    gens = base + [compose(z, stable)]
    conj, residual = diagonalize_commuting(gens, rng=rng)
    assert conj is not None
    assert residual <= 1e-9


def test_classify_h_form_recovers_parameter():
    psi = CuspParameter([2.0, 0.5, 0.0, 0.0])
    gens = []
    rng = np.random.default_rng(21)
    for _ in range(4):
        d = list(np.exp(rng.uniform(-1, 1, 2)))
        v = list(rng.uniform(-1.5, 1.5, 1))
        gens.append(h_element(psi, d, v).matrix)
    cls = classify_h_form(gens)
    assert cls.type == 2
    assert np.allclose([float(x) for x in cls.psi.psi], [2.0, 0.5, 0.0, 0.0], atol=1e-9)
    assert cls.residual <= 1e-9


def test_classify_h_form_rejects_off_pattern_input():
    bad = ProjMap(np.eye(4) + 0.2 * np.tril(np.ones((4, 4)), -1))
    with pytest.raises((PatternMismatch, ValueError)):
        classify_h_form([bad])
    nan_entry = np.eye(4)
    nan_entry[0, 2] = math.nan
    with pytest.raises(ValueError, match="finite"):
        classify_h_form([ProjMap(nan_entry)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_classify_h_form_recovers_the_building_parameter(data):
    """The psi that classify_h_form solves from matrix entries alone matches
    the psi whose corner formula built the generators in h_element."""
    n = data.draw(st.integers(2, 6), label="n")
    t = data.draw(st.integers(0, n - 1), label="t")
    vals = data.draw(st.lists(st.floats(0.1, 4.0), min_size=t, max_size=t), label="psi")
    psi = CuspParameter(sorted(vals, reverse=True) + [0.0] * (n - t))
    count = data.draw(st.integers(max(t, 1), t + 3), label="generators")
    log_d = st.one_of(st.floats(-1.0, -0.05), st.floats(0.05, 1.0))
    rows = st.lists(log_d, min_size=t, max_size=t)
    logs = data.draw(st.lists(rows, min_size=count, max_size=count), label="log d")
    assume(t == 0 or np.linalg.cond(np.array(logs)) < 100)
    shifts = st.lists(st.floats(-2.0, 2.0), min_size=n - 1 - t, max_size=n - 1 - t)
    gens = [h_element(psi, [math.exp(x) for x in row], data.draw(shifts, label="v")).matrix
            for row in logs]
    cls = classify_h_form(gens)
    assert cls.type == t
    assert 0.0 <= cls.residual <= 1e-12
    scale = max(psi.psi)
    assert all(abs(x - y) <= 1e-10 * scale for x, y in zip(cls.psi.psi, psi.psi))


def test_classify_h_form_builds_no_fraction(monkeypatch):
    """Exact generators are scored in floats, and the conjugator is an
    integer permutation: no Fraction is made."""
    import fractions
    psi = CuspParameter([1.5, 0.5, 0.0])
    gens = [ProjMap([[F(x) for x in row] for row in h_element(psi, d, []).matrix.entries])
            for d in ([0.5, 2.0], [3.0, 0.25], [1.5, 1.5])]
    made = []
    new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    cls = classify_h_form(gens)
    monkeypatch.undo()
    assert made == []
    assert cls.type == 2 and cls.conjugator.exact


@pytest.mark.parametrize("gens,message", [
    ([], "need at least one generator"),
    ([np.eye(3), np.eye(4)], "generators must share one dimension"),
    ([np.eye(3), np.diag([1.0, math.inf, 1.0])], "generator entries must be finite"),
    ([np.diag([1.0, 1.0, 0.0])], "generator has no usable normalization entry"),
    ([np.diag([1.0, 1.0, 2.0, 1.0])], r"diagonal slots \[3\] are not the leading block"),
    ([np.diag([1.0, -2.0, 1.0])], "nonpositive diagonal entry at slot 2"),
    ([np.array([[1.0, 0.0, math.log(2.0)], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])],
     "solved parameter has a negative entry"),
])
def test_classify_h_form_refusals_keep_their_messages(gens, message):
    with pytest.raises(ValueError, match=message) as info:
        classify_h_form([ProjMap(g) for g in gens])
    assert not isinstance(info.value, PatternMismatch)


def test_classify_h_form_refuses_a_negative_entry_beyond_rounding():
    """Generators diag(1, d, 1) whose corners solve psi = -1e-5 are refused,
    since every d moved: the entry is half the scale of each corner equation.
    A zero entry on a moved slot, solved to a rounding-level sign, is a
    pattern mismatch instead: the set is in model form for no type, so its
    type is not read off that sign."""
    gens = []
    for d in (2.0, 0.5, 3.0):
        m = np.eye(3)
        m[1, 1], m[0, 2] = d, 1e-5 * math.log(d)
        gens.append(ProjMap(m))
    with pytest.raises(ValueError, match="solved parameter has a negative entry") as info:
        classify_h_form(gens)
    assert not isinstance(info.value, PatternMismatch)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, gens = rng.uniform(0.1, 3.0), []
        for _ in range(int(rng.integers(2, 6))):
            m = np.eye(4)
            m[1, 1], m[2, 2] = np.exp(rng.uniform(-1.0, 1.0, 2))
            m[0, 3] = -a * math.log(m[1, 1])
            gens.append(ProjMap(m))
        with pytest.raises(PatternMismatch, match="moved slot 3 solves to no positive") as info:
            classify_h_form(gens)
        assert abs(info.value.residual) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_classify_h_form_type_is_the_number_of_moved_slots(data):
    """Generators from h_element with t positive psi entries, where each of
    the t slots moves on some generator but may stay at d = 1 on others,
    classify as type t with the building psi."""
    n = data.draw(st.integers(2, 6), label="n")
    t = data.draw(st.integers(1, n - 1), label="t")
    vals = data.draw(st.lists(st.floats(0.1, 4.0), min_size=t, max_size=t), label="psi")
    psi = CuspParameter(sorted(vals, reverse=True) + [0.0] * (n - t))
    count = data.draw(st.integers(t, t + 3), label="generators")
    log_d = st.one_of(st.just(0.0), st.floats(-1.0, -0.05), st.floats(0.05, 1.0))
    rows = st.lists(log_d, min_size=t, max_size=t)
    logs = data.draw(st.lists(rows, min_size=count, max_size=count), label="log d")
    assume(np.linalg.cond(np.array(logs)) < 100)
    shifts = st.lists(st.floats(-2.0, 2.0), min_size=n - 1 - t, max_size=n - 1 - t)
    gens = [h_element(psi, [math.exp(x) for x in row], data.draw(shifts, label="v")).matrix
            for row in logs]
    cls = classify_h_form(gens)
    assert cls.type == cls.psi.type == t
    assert all(abs(x - y) <= 1e-10 * max(psi.psi) for x, y in zip(cls.psi.psi, psi.psi))


def _conjugated_generators(data: RectangularCuspData):
    """``conjugate_and_match`` of data, and the bent generators conjugated by
    its float conjugator and normalized by their last entry: model-form
    generators whose entries off the block pattern are rounding noise."""
    cls = conjugate_and_match(data)
    conj = cls.conjugator.to_float()
    conj_inv = inverse(conj)
    gens = []
    for g in bent_cusp_generators(data):
        m = compose(compose(conj, g.to_float()), conj_inv).entries
        gens.append(ProjMap(m / m[-1, -1]))
    return cls, gens


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generators_route_matches_the_bending_route(data):
    """Two independent routes to the cusp of type t: the closed-form corner
    of ``conjugate_and_match`` on the bending data, and the least-squares
    fit of ``classify_h_form`` to the matrix entries of the same group
    conjugated in floats.  They agree on the type, and on psi within 1e-12
    of its largest entry.  Scored against 0 off the block pattern, the
    rounding noise there failed about half of these sets."""
    n = data.draw(st.integers(2, 6), label="n")
    t = data.draw(st.integers(0, n - 1), label="t")
    b = data.draw(st.lists(st.floats(0.3, 2.5), min_size=n - 1, max_size=n - 1), label="b")
    s = [0.0] * (n - 1)
    for k in data.draw(st.permutations(range(n - 1)), label="slots")[:t]:
        s[k] = data.draw(st.floats(0.05, 2.0), label="s")
    cls, gens = _conjugated_generators(RectangularCuspData(n, b=b, s=s))
    got = classify_h_form(gens)
    assert got.type == cls.type == t
    scale = max(cls.psi.psi)
    assert all(abs(x - y) <= 1e-12 * scale for x, y in zip(got.psi.psi, cls.psi.psi))


def test_classified_cusp_json():
    cls = conjugate_and_match(RectangularCuspData(3, b=[F(1), F(1)], mu=[F(2), F(1)]))
    data = cls.to_json()
    assert data["type"] == 1
    assert data["residual"] == "0"
    assert len(data["psi"]) == 3
    assert len(data["conjugator"]) == 4
