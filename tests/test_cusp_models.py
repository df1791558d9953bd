import fractions
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspbend.cusp_models import (
    BOUNDARY,
    INTERIOR,
    OUTSIDE_CHART,
    CuspParameter,
    ModelDomain,
    ParaboloidModel,
    cusp_type,
    h_element,
    h_product,
    hyperplane_centralizer_element,
    leaf_coordinate,
    leaf_point,
    parabolic_element,
    zprime_element,
)
from cuspbend.projlin import (ProjMap, ProjPoint, act, compose, is_exact, matrix_to_json,
                              proj_equiv)
from cuspbend.verify import run_suites
from equiv_reference import fraction_matrix
from model_reference import (ref_form, ref_h_matrix, ref_hyperplane_centralizer, ref_inverse_d,
                             ref_leaf_point, ref_zprime)


def test_cusp_type():
    assert cusp_type(CuspParameter([0, 0, 0])) == 0
    assert cusp_type(CuspParameter([2, 1, 0])) == 2
    assert cusp_type(CuspParameter([1, 1, 1])) == 3


def test_cusp_parameter_validation():
    with pytest.raises(ValueError):
        CuspParameter([1, 2, 0])          # increasing
    with pytest.raises(ValueError):
        CuspParameter([1, -1, 0])


@pytest.mark.parametrize("psi", [[math.nan, 0, 0], [math.inf, 0, 0], [1.0, math.nan, 0],
                                 [2.0, 1.0, math.inf], [1.0, 0.0, -math.inf]])
def test_cusp_parameter_rejects_non_finite(psi):
    with pytest.raises(ValueError, match="not finite"):
        CuspParameter(psi)


def test_h_element_identity():
    psi = CuspParameter([F(1), F(0), F(0)])
    e = h_element(psi, [F(1)], [F(0)])
    assert np.array_equal(fraction_matrix(e.matrix), fraction_matrix(ProjMap.identity(3)))
    assert e.sigma == 0


def test_h_element_sigma_parabolic():
    # sigma = (9 + 16) / 2 with no diagonal part
    psi = CuspParameter([0, 0, 0])
    e = h_element(psi, [], [F(3), F(4)])
    assert e.sigma == F(25, 2)
    assert fraction_matrix(e.matrix)[0][3] == F(25, 2)


def test_h_element_sigma_with_log():
    psi = CuspParameter([1.0, 0.0, 0.0])
    e = h_element(psi, [math.e], [0.0])
    assert abs(e.sigma - (-1.0)) <= 1e-15


def test_h_element_exact_log_supplied():
    psi = CuspParameter([F(2), F(0), F(0)])
    e = h_element(psi, [F(3)], [F(1)], log_d=[F(1, 7)])   # stand-in exact log
    assert e.sigma == F(1, 2) - F(2) * F(1, 7)


def test_h_element_errors():
    psi = CuspParameter([F(1), F(0), F(0)])
    with pytest.raises(ValueError):
        h_element(psi, [], [F(0)])                        # wrong d length
    with pytest.raises(ValueError):
        h_element(psi, [F(-1)], [F(0)])                   # nonpositive diagonal
    with pytest.raises(ValueError):
        h_element(psi, [F(2)], [F(0)])                    # exact d != 1, no log
    with pytest.raises(ValueError):
        h_element(CuspParameter([1, 1]), [1.0, 1.0], [])  # type n has no block model


def test_h_product_matches_matrix_multiply():
    psi = CuspParameter([0.0, 0.0, 0.0])
    a = h_element(psi, [], [1.0, 0.0])
    b = h_element(psi, [], [2.0, 0.0])
    prod = h_product(a, b)
    assert abs(prod.sigma - 4.5) <= 1e-15
    assert np.allclose(np.asarray(prod.matrix.entries, dtype=float),
                       np.asarray(compose(a.matrix, b.matrix).entries, dtype=float))


def test_h_product_identity_and_inverse():
    psi = CuspParameter([F(1), F(0), F(0)])
    a = h_element(psi, [F(1)], [F(3, 2)])
    ident = h_element(psi, [F(1)], [F(0)])
    assert np.array_equal(fraction_matrix(h_product(a, ident).matrix), fraction_matrix(a.matrix))
    a_inv = h_element(psi, [F(1)], [F(-3, 2)])
    assert np.array_equal(fraction_matrix(h_product(a, a_inv).matrix),
                          fraction_matrix(ProjMap.identity(3)))


def test_h_product_psi_mismatch():
    a = h_element(CuspParameter([0.0, 0.0]), [], [1.0])
    b = h_element(CuspParameter([1.0, 0.0]), [1.0], [])
    with pytest.raises(ValueError):
        h_product(a, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                min_size=2, max_size=2),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                min_size=2, max_size=2))
def test_h_product_closure_exact(v1, v2):
    psi = CuspParameter([F(1), F(0), F(0), F(0)])
    a = h_element(psi, [F(1)], v1)
    b = h_element(psi, [F(1)], v2)
    assert np.array_equal(fraction_matrix(h_product(a, b).matrix),
                          fraction_matrix(compose(a.matrix, b.matrix)))


def test_leaf_coordinate_examples():
    dom = ModelDomain(CuspParameter([1.0, 0.0, 0.0]))
    c, tag = leaf_coordinate(dom, ProjPoint([0.5, 1.0, 1.0, 1.0]))
    assert abs(c) <= 1e-15 and tag == BOUNDARY

    dom0 = ModelDomain(CuspParameter([0.0, 0.0, 0.0]))
    xs = [0.3, -1.2]
    first = 1.0 + 0.5 * sum(x * x for x in xs)
    c, tag = leaf_coordinate(dom0, ProjPoint([first] + xs + [1.0]))
    assert abs(c - 1.0) <= 1e-12 and tag == INTERIOR


def test_leaf_coordinate_domain_errors():
    dom = ModelDomain(CuspParameter([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        leaf_coordinate(dom, ProjPoint([0.5, 0.0, 1.0, 1.0]))
    c, tag = leaf_coordinate(dom, ProjPoint([1.0, 2.0, 0.0, 0.0]))
    assert c is None and tag == OUTSIDE_CHART


def test_leaf_point_examples():
    dom = ModelDomain(CuspParameter([F(2), F(1), F(0), F(0)]))
    p = leaf_point(dom, F(0), [F(1), F(1), F(0)])
    assert p.coords[0] == 0

    dom0 = ModelDomain(CuspParameter([0.0] * 3))
    xs = [0.7, -0.4]
    p = leaf_point(dom0, 1.0, xs)
    assert abs(p.coords[0] - (1.0 + 0.5 * sum(x * x for x in xs))) <= 1e-15


def test_leaf_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(0, n))
        psi = CuspParameter(sorted(rng.uniform(0.2, 3.0, t), reverse=True)
                            + [0.0] * (n - t))
        dom = ModelDomain(psi)
        c = float(rng.uniform(0.0, 4.0))
        xs = list(rng.uniform(0.2, 3.0, t)) + list(rng.uniform(-2.0, 2.0, n - 1 - t))
        c2, tag = leaf_coordinate(dom, leaf_point(dom, c, xs))
        assert abs(c2 - c) <= 1e-12
        assert tag == (INTERIOR if c > 1e-9 else BOUNDARY)


def test_model_domain_requires_type_below_n():
    with pytest.raises(ValueError):
        ModelDomain(CuspParameter([1.0, 1.0]))


def test_paraboloid_signature():
    # n positive and one negative eigenvalue
    for n in range(2, 7):
        q = np.asarray(ParaboloidModel(n).form.to_float().entries)
        vals = np.linalg.eigvalsh(q)
        assert int(np.sum(vals > 0)) == n
        assert int(np.sum(vals < 0)) == 1


def test_parabolic_element_matches_type0_and_preserves_form():
    m = ParaboloidModel(3)
    assert np.array_equal(fraction_matrix(parabolic_element(m, [F(0), F(0)])),
                          fraction_matrix(ProjMap.identity(3)))
    rng = np.random.default_rng(3)
    q = fraction_matrix(m.form)
    for _ in range(25):
        v = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(2)]
        h = fraction_matrix(parabolic_element(m, v))
        assert np.array_equal(h.T @ q @ h, q)


def test_hyperplane_centralizer():
    assert np.array_equal(hyperplane_centralizer_element(2, mu=math.exp(0.0), n=3).entries,
                          np.asarray(ProjMap.identity(3, exact=False).entries))
    c = hyperplane_centralizer_element(2, mu=math.exp(0.5), n=4)
    par_fixed = parabolic_element(ParaboloidModel(4), [0.0, 1.0, 2.0])   # slot 2 empty
    assert proj_equiv(compose(c, par_fixed), compose(par_fixed, c), 1e-12)
    par_moving = parabolic_element(ParaboloidModel(4), [1.0, 0.0, 0.0])
    assert not proj_equiv(compose(c, par_moving), compose(par_moving, c), 1e-9)
    d = hyperplane_centralizer_element(3, mu=math.exp(0.8), n=4)
    assert proj_equiv(compose(c, d), compose(d, c), 1e-15)
    with pytest.raises(ValueError):
        hyperplane_centralizer_element(1, mu=math.exp(1.0), n=3)
    with pytest.raises(ValueError):
        hyperplane_centralizer_element(5, mu=math.exp(1.0), n=3)
    for mu in (0.0, F(0), -1.0):
        with pytest.raises(ValueError, match="^diagonal entry must be positive$"):
            hyperplane_centralizer_element(2, mu=mu, n=3)
    exact = hyperplane_centralizer_element(2, mu=F(2), n=3)
    assert fraction_matrix(exact)[1][1] == F(2)


def test_zprime_element():
    n = 4
    assert np.array_equal(fraction_matrix(zprime_element(F(1), F(3), n)),
                          fraction_matrix(ProjMap.identity(n)))
    z = zprime_element(F(2), F(3), n)
    e2 = ProjPoint([0, 1, 0, 0, 0])
    assert proj_equiv(act(z, e2), e2)
    fixed = ProjPoint([F(1), F(0), F(0), F(0), F(3)])       # e1 + k e_{n+1}
    assert proj_equiv(act(z, fixed), fixed)
    diag = ProjMap.diagonal([F(1), F(2), F(5), F(7), F(1)])
    assert np.array_equal(fraction_matrix(compose(z, diag)), fraction_matrix(compose(diag, z)))
    z2 = zprime_element(F(3), F(3), n)
    assert np.array_equal(fraction_matrix(compose(z, z2)),
                          fraction_matrix(zprime_element(F(6), F(3), n)))
    with pytest.raises(ValueError):
        zprime_element(0, F(1), n)


def test_leafwise_invariance_sample():
    rng = np.random.default_rng(23)
    psi = CuspParameter([1.5, 0.7, 0.0, 0.0])
    dom = ModelDomain(psi)
    for _ in range(100):
        g = h_element(psi, list(np.exp(rng.uniform(-1, 1, 2))),
                      list(rng.uniform(-2, 2, 1)))
        c = float(rng.uniform(0.0, 3.0))
        xs = list(rng.uniform(0.2, 3.0, 2)) + list(rng.uniform(-2.0, 2.0, 1))
        p = leaf_point(dom, c, xs)
        c2, _ = leaf_coordinate(dom, act(g.matrix, p))
        assert abs(c2 - c) <= 1e-9


# ---------------------------------------------------------------------------
# the array builders against the nested-row reference (tests/model_reference.py)


def _scalar(draw, exact: bool, positive: bool = False):
    if exact:
        lo = F(1, 9) if positive else -5
        return draw(st.one_of(st.integers(1 if positive else -5, 5),
                              st.fractions(min_value=lo, max_value=5, max_denominator=9),
                              st.fractions(min_value=lo, max_value=5, max_denominator=10 ** 20)))
    return draw(st.floats(0.1 if positive else -5.0, 5.0))


def _same_build(got, want):
    assert got.exact == want.exact
    assert json.dumps(matrix_to_json(got)) == json.dumps(matrix_to_json(want))


@st.composite
def model_inputs(draw):
    """n, psi, d, v, log_d, a leaf point (c, x), a centralizer entry and Z'
    parameters.  Every scalar is exact (int or Fraction) or every one is
    float, or each input is exact, float or mixed scalar by scalar."""
    mode = draw(st.sampled_from(["exact", "float", "mixed"]))

    def scalars(count, positive=False):
        role = draw(st.sampled_from(["exact", "float", "mixed"])) if mode == "mixed" else mode
        return [_scalar(draw, role == "exact" or (role == "mixed" and draw(st.booleans())),
                        positive) for _ in range(count)]

    n = draw(st.integers(2, 6))
    t = draw(st.integers(0, n - 1))
    psi = sorted(scalars(t, True), reverse=True) + [0 * x for x in scalars(n - t)]
    d = [draw(st.sampled_from([1, F(1), x])) for x in scalars(t, True)]
    log_d = None
    if draw(st.booleans()) or any(is_exact(x) and x != 1 for x in d):
        log_d = scalars(t)
    v = scalars(n - 1 - t)
    leaf = (abs(scalars(1)[0]), scalars(t, True) + scalars(n - 1 - t))
    lam, k = scalars(1, True)[0] * draw(st.sampled_from([1, -1])), scalars(1)[0]
    return n, psi, d, v, log_d, leaf, lam, k


@settings(max_examples=150, deadline=None)
@given(model_inputs())
# float zeros in psi make exact v a float map; 1 + 1/(3e17) - 1.0 reads 0.0 in floats
@example((2, [0.0, 0.0], [], [F(1, 2)], None, (F(1), [F(1, 3)]), 1 + F(1, 3 * 10 ** 17), 0.5))
def test_builders_match_the_row_reference(inputs):
    """Every model builder gives the exactness and the JSON bytes of the
    nested-row builders it replaced, on exact, float and mixed inputs; the
    leaf point, a float point, its coordinate bytes."""
    n, psi, d, v, log_d, (c, xs), lam, k = inputs
    el = h_element(CuspParameter(psi), d, v, log_d=log_d)
    _same_build(el.matrix, ref_h_matrix(psi, d, v, log_d))
    inv = h_element(CuspParameter(psi), [1 / x for x in d], [-x for x in v],
                    log_d=[-x for x in el.log_d])
    _same_build(inv.matrix, ref_h_matrix(psi, ref_inverse_d(d), [-x for x in v],
                                         [-x for x in el.log_d]))
    got, want = leaf_point(ModelDomain(CuspParameter(psi)), c, xs), ref_leaf_point(psi, c, xs)
    assert got.coords.tobytes() == want.coords.tobytes()
    model = ParaboloidModel(n)
    _same_build(model.form, ref_form(n))
    _same_build(parabolic_element(model, v + d), ref_h_matrix([F(0)] * n, [], v + d))
    for i in range(2, n + 1):
        _same_build(hyperplane_centralizer_element(i, mu=abs(lam), n=n),
                    ref_hyperplane_centralizer(i, abs(lam), n))
    _same_build(zprime_element(lam, k, n), ref_zprime(lam, k, n))


def test_cusp_models_suite_builds_few_fractions(monkeypatch):
    """The seed-0 ``cusp_models`` verify suite built 88,695 ``Fraction``s
    when the model matrices were ``Fraction`` rows read back through
    ``entries``; integer maps leave about 11,000, in exact scalars."""
    made = []
    new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(None)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    results = run_suites(["cusp_models"], 0)
    monkeypatch.undo()
    assert all(r.passed for r in results)
    assert len(made) < 20_000
