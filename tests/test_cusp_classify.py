import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuspbend.cusp_classify import (
    MIN_BEND_FLOAT,
    ClassifiedCusp,
    PatternMismatch,
    RectangularCuspData,
    _cusp_arrays,
    _exact_cusp_table,
    _exact_residual,
    _intertwining_residuals,
    _slot_entry,
    bent_cusp_generators,
    classify_h_form,
    conjugate_and_match,
    conjugation_residuals,
    cusp_parameter_entry,
    equivalent_parameters,
    expected_corner,
    require_normal_form,
    standard_cusp_generators,
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
from cuspbend.projlin import (
    DEFAULT_TOL,
    ProjMap,
    ProjPoint,
    act,
    compose,
    inverse,
    matrix_to_json,
    proj_equiv,
)
from cuspbend.verify import _diagonalize, _triangularize
import exact_reference
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
    of the ``_slot_entries`` docstring."""
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
    """Negative control for the exact check: the entry table with one W
    corner moved by 1/7 and one g entry by 2/11 misses the normal form, and
    the residual is max |A g - W A| over slots and entries, here summed out
    entry by entry in Fractions."""
    import cuspbend.cusp_classify as cc
    data = RectangularCuspData(4, b=[F(3, 2), F(1), F(2)], mu=[F(3), F(1), F(5, 4)])
    g, a, w, e, d = _exact_cusp_table(data.b, data.mu)
    # g and W over 77 e, so that both moves are integer numerators
    g, w = ({at: 77 * x for at, x in t.items()} for t in (g, w))
    e *= 77
    w[2, 0, 4] += e // 7
    g[1, 2, 4] += 2 * e // 11
    monkeypatch.setattr(cc, "_exact_cusp_table", lambda b, mu: (g, a, w, e, d))
    with pytest.raises(PatternMismatch, match="exact conjugation failed") as info:
        conjugate_and_match(data)

    def fractions(entries, den, shape):
        return np.vectorize(lambda x: F(x, den), otypes=[object])(
            exact_reference.dense(entries, den, shape))

    size = data.n + 1
    shape = (data.n - 1, size, size)
    gens, a, normal = fractions(g, e, shape), fractions(a, d, shape[1:]), fractions(w, e, shape)
    want = max(abs(sum(a[i, k] * g[k, j] - w[i, k] * a[k, j] for k in range(size)))
               for g, w in zip(gens, normal)
               for i in range(size) for j in range(size))
    assert want == F(2, 11)
    assert info.value.residual == want and isinstance(info.value.residual, F)


def _fraction_cusp_matrices(data: RectangularCuspData):
    """g_k and A in Fractions, entry by entry from the formulas of the
    ``_slot_entries`` docstring."""
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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_exact_check_matches_dense_reference(data):
    """The sparse exact check against the dense stacked products of
    ``exact_reference`` on one entry table: the same residual, exactly 0,
    and the same conjugator bytes; and with one entry of one g_k, W_k or A
    moved anywhere, the same residual from both, nonzero when g_k or W_k
    moved (A is invertible)."""
    n = data.draw(st.integers(2, 12), label="n")
    b = data.draw(st.lists(positive_rational, min_size=n - 1, max_size=n - 1), label="b")
    bent = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1), label="bent")
    mu = [1 + data.draw(positive_rational, label="mu - 1") if k else F(1) for k in bent]
    cusp = RectangularCuspData(n, b=b, mu=mu)
    table = _exact_cusp_table(cusp.b, cusp.mu)
    want = exact_reference.residual(table, n)
    cls = conjugate_and_match(cusp)
    assert want == 0 and cls.residual == want and isinstance(cls.residual, F)
    assert matrix_to_json(cls.conjugator) == matrix_to_json(exact_reference.conjugator(cusp, table))

    which = data.draw(st.sampled_from([0, 1, 2]), label="g, A or W")
    at = tuple(data.draw(st.integers(0, n), label="i, j") for _ in range(2))
    if which != 1:
        at = (data.draw(st.integers(0, n - 2), label="slot"),) + at
    den = table[3 + (which == 1)]
    moved = list(table)
    moved[which] = dict(table[which])
    moved[which][at] = (moved[which].get(at, den * (at[-1] == at[-2]))
                        + data.draw(st.integers(1, 99), label="step"))
    bad = exact_reference.residual(moved, n)
    assert _exact_residual(*moved) == bad and isinstance(bad, F)
    assert bad != 0 or which == 1


def test_exact_check_builds_no_stacked_product(monkeypatch):
    """Exact ``conjugate_and_match`` at n = 24 calls ``np.matmul`` not once,
    and writes the dense reference's residual and conjugator bytes; the
    counter sees the float route's stacked products."""
    n = 24
    b = [F(k % 7 + 1, k % 5 + 2) for k in range(n - 1)]
    mu = [F(1) if k % 2 else 1 + F(k + 1, 3 * k + 4) for k in range(n - 1)]
    cusp = RectangularCuspData(n, b=b, mu=mu)
    table = _exact_cusp_table(cusp.b, cusp.mu)
    want = {"residual": exact_reference.residual(table, n),
            "conjugator": exact_reference.conjugator(cusp, table)}
    calls = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    cls = conjugate_and_match(cusp)
    assert calls == []
    assert cls.residual == 0 and isinstance(cls.residual, F)
    assert json.dumps(cls.to_json()) == json.dumps(ClassifiedCusp(cls.psi, cls.type, **want).to_json())
    conjugate_and_match(RectangularCuspData(n, b=[float(x) for x in b], mu=[float(x) for x in mu]))
    assert calls


def _classified(classify, data):
    """What a classification route gives one row: the refusal's class and
    message, or the psi bits, type, conjugator numbers or float bytes, and
    the JSON of the result."""
    try:
        cls = classify(data)
    except ValueError as exc:  # PatternMismatch among them
        return type(exc), str(exc)
    conj = cls.conjugator
    return ([float(x).hex() for x in cls.psi.psi], cls.type,
            (conj.den, conj.num.tolist()) if conj.exact else conj.entries.tobytes(),
            json.dumps(cls.to_json()))


# shape constants whose float square underflows to 0 or to a subnormal, or
# overflows; a multiplier whose float is 1.0 on a bent slot
EDGE_B = [F(1, 10 ** 170), F(1, 10 ** 160), F(10 ** 200)]
EDGE_MU = [1 + F(1, 10 ** 30)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_row_tail_matches_the_grid_route(data):
    """``conjugate_and_match`` on one row of exact or float bending data,
    n = 2..8, against the grid route of ``exact_reference.grid_classify``
    (numpy psi entries, ``require_normal_parameters``, the dense exact
    conjugator): the same psi bits, type, conjugator numbers or bytes and
    JSON, or the same refusal.  Edge values of b and mu are drawn too."""
    n = data.draw(st.integers(2, 8), label="n")
    if data.draw(st.booleans(), label="exact"):
        b_kind = positive_rational | st.sampled_from(EDGE_B)
        mu_kind = positive_rational.map(lambda x: 1 + x) | st.sampled_from(EDGE_MU + [F(1)])
        key = "mu"
    else:
        b_kind = st.floats(1e-3, 1e3) | st.sampled_from([float(x) for x in EDGE_B])
        mu_kind = st.floats(MIN_BEND_FLOAT, 5.0) | st.just(0.0)
        key = "s"
    b = data.draw(st.lists(b_kind, min_size=n - 1, max_size=n - 1), label="b")
    slots = data.draw(st.lists(mu_kind, min_size=n - 1, max_size=n - 1), label=key)
    row = RectangularCuspData(n, b=b, **{key: slots})
    assert _classified(conjugate_and_match, row) == _classified(exact_reference.grid_classify, row)


@pytest.mark.parametrize("n,b,slots,refused", [
    (3, [F(1), F(1)], {"mu": [EDGE_MU[0], F(1)]}, True),
    (3, [EDGE_B[0], F(1)], {"mu": [F(2), F(1)]}, True),
    (3, [F(1), EDGE_B[1]], {"mu": [F(1), F(3)]}, True),
    (4, [EDGE_B[2], F(1), F(1)], {"mu": [F(2), F(3), F(1)]}, True),
    (3, [1e-170, 1.0], {"s": [0.5, 0.0]}, True),
    (3, [1.0, 1e-160], {"s": [0.0, 0.5]}, True),
    (3, [1e200, 1.0], {"s": [0.5, 0.0]}, True),
    (4, [F(2), F(1), F(4)], {"mu": [F(3), F(1), F(5)]}, False),
    (4, [1.5, 0.5, 2.0], {"s": [0.3, 0.0, 1.1]}, False),
], ids=["exact-mu-float-is-1", "exact-b-square-is-0", "exact-b-square-subnormal",
        "exact-b-square-overflows", "float-b-square-is-0", "float-b-square-subnormal",
        "float-b-overflows", "exact-conjugator-reduces", "float-two-bent"])
def test_one_row_tail_matches_the_grid_route_on_chosen_rows(n, b, slots, refused):
    """The edge rows are refused, with the grid route's message; an exact
    row whose A reduces (numerators -4, 12, -4, 20 over d = 4, so the
    conjugator is over 1) and a float row classify as on the grid route."""
    row = RectangularCuspData(n, b=b, **slots)
    got = _classified(conjugate_and_match, row)
    assert got == _classified(exact_reference.grid_classify, row)
    assert (got[0] in (ValueError, PatternMismatch)) == refused


@settings(max_examples=300, deadline=None)
@given(st.floats(), st.floats(), st.floats())
@example(1.0, 1.0, 0.0)          # mu - 1 = 0 and s = 0: -inf / -0.0 = inf
@example(0.0, 1.0, 0.0)          # 0 / 0 = NaN
@example(1.0, 1.0, -0.0)         # -inf / 0.0 = -inf
@example(1e-200, 2.0, 0.5)       # b * b underflows to 0
@example(1e200, 2.0, 0.5)        # b * b overflows
@example(1e10, 1.7e308, 709.0)   # -inf / inf = NaN
@example(math.nan, 1.0, 0.0)     # NaN / 0 = NaN
def test_slot_entry_has_the_bits_of_the_grid_entry(b, mu, s):
    """The one-row entry in Python floats against ``cusp_parameter_entry``
    in numpy on any three floats, zeros of both signs, inf and NaN among
    them: the same bits, or NaN on both."""
    got = _slot_entry(b, mu, s)
    want = float(cusp_parameter_entry(b, mu, s))
    assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))


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


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_float_generators_equal_exact_generators_of_the_same_floats(data):
    """The float generators of the float builder equal, entry for entry, the
    exact generators of the entry table for the same floats read as
    rationals, rounded back: every entry of g_k is one correctly rounded
    operation on b and mu (b^2 / 2 a product and an exact halving), so the
    float formulas and the integer pairs agree to the bit."""
    n = data.draw(st.integers(2, 7), label="n")
    b = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1), label="b")
    bent = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
    s = data.draw(st.lists(bent, min_size=n - 1, max_size=n - 1), label="s")
    cusp = RectangularCuspData(n, b=b, s=s)
    exact = RectangularCuspData(n, b=[F(x) for x in cusp.b], mu=[F(x) for x in cusp.mu])
    for generators in (bent_cusp_generators, standard_cusp_generators):
        pairs = list(zip(generators(cusp), generators(exact), strict=True))
        assert len(pairs) == n - 1
        for got, want in pairs:
            assert not got.exact and want.exact
            assert np.array_equal(got.entries, want.to_float().entries)


def test_bent_generator_eigenvalues():
    s = 0.9
    data = RectangularCuspData(4, b=[1.0, 1.0, 1.0], s=[0.0, s, 0.0])
    g = bent_cusp_generators(data)[1]
    values = sorted(np.linalg.eigvals(g.to_float().entries).real)
    assert abs(values[-1] - math.exp(s)) <= 1e-9
    assert all(abs(v - 1.0) <= 1e-9 for v in values[:-1])


def _normalizing_matrix(data: RectangularCuspData) -> ProjMap:
    """The normalizing matrix A that ``conjugate_and_match`` checks and
    permutes into its conjugator: on exact data written from
    ``_exact_cusp_table``, else the A slice of ``_cusp_arrays``."""
    if data.exact:
        _, a, _, _, d = _exact_cusp_table(data.b, data.mu)
        return ProjMap._from_exact(exact_reference.dense(a, d, (data.n + 1,) * 2), d)
    return ProjMap(_cusp_arrays(data.b, [data.s], [data.mu])[1][0])


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
        values, vectors = np.linalg.eig(gens[k].to_float().entries)
        hits = np.flatnonzero(np.abs(values - mu) <= 1e-9)
        assert len(hits) == 1
        vec = np.real(vectors[:, hits[0]])
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


def _ref_equivalent(a, b) -> bool:
    """Reference for :func:`equivalent_parameters`: exact rows are equivalent
    when they share their zero pattern and one ``Fraction`` ratio; other
    rows when, normalized by entry 0 in floats, they agree within
    ``DEFAULT_TOL`` (a zero entry 0 makes a row zero)."""
    if all(isinstance(x, F) for x in a + b):
        if [x == 0 for x in a] != [y == 0 for y in b]:
            return False
        return len({y / x for x, y in zip(a, b) if x != 0}) <= 1
    fa, fb = [float(x) for x in a], [float(y) for y in b]
    if fa[0] == 0 or fb[0] == 0:
        return fa[0] == fb[0]
    return max(abs(x / fa[0] - y / fb[0]) for x, y in zip(fa, fb)) <= DEFAULT_TOL


@st.composite
def _parameter_pair(draw):
    """Two parameters of one dimension: a non-increasing rational vector and
    a copy, kept, nudged by a relative 10^-k, with its last nonzero entry
    zeroed, or drawn afresh; each scaled by p/q 10^e with |e| <= 300 and
    written exact, float or mixed (floats, some read back as Fractions)."""
    n = draw(st.integers(1, 5))

    def vector():
        entry = st.one_of(st.just(0), st.integers(1, 50))
        return sorted((F(draw(entry), draw(st.integers(1, 50))) for _ in range(n)), reverse=True)

    v = vector()
    change = draw(st.sampled_from(["same", "nudge", "zero", "fresh"]))
    w = list(v)
    if change == "nudge":
        k = draw(st.integers(0, n - 1))
        w[k] *= 1 + F(1, 10 ** draw(st.sampled_from([3, 9, 12, 15])))
        w.sort(reverse=True)
    elif change == "zero" and any(w):
        w[max(i for i, x in enumerate(w) if x)] = F(0)
    elif change == "fresh":
        w = vector()

    def written(vec):
        scale = F(draw(st.integers(1, 9)), draw(st.integers(1, 9))) * F(10) ** draw(
            st.integers(-300, 300))
        kind = draw(st.sampled_from(["exact", "float", "mixed"]))
        if kind == "exact":
            return [x * scale for x in vec]
        floats = [float(x * scale) for x in vec]
        return floats if kind == "float" else [F(x) if draw(st.booleans()) else x for x in floats]

    return written(v), written(w)


@settings(max_examples=300, deadline=None)
@given(_parameter_pair())
def test_equivalent_parameters_matches_the_reference(pair):
    a, b = pair
    assert equivalent_parameters(CuspParameter(a), CuspParameter(b)) == _ref_equivalent(a, b)
    assert equivalent_parameters(CuspParameter(b), CuspParameter(a)) == _ref_equivalent(b, a)


def test_equivalent_parameters_exact_and_float_routes_differ():
    """A relative 10^-12 difference is a different exact parameter, and the
    same parameter in floats, within ``DEFAULT_TOL``."""
    one, near = F(1), 1 + F(1, 10 ** 12)
    assert not equivalent_parameters(CuspParameter([near, one]), CuspParameter([one, one]))
    assert equivalent_parameters(CuspParameter([float(near), 1.0]), CuspParameter([1.0, 1.0]))
    assert equivalent_parameters(CuspParameter([near, one]), CuspParameter([1.0, 1.0]))


def test_equivalent_parameters_refuses_an_exact_entry_off_the_float_range():
    """Against a float parameter the entries are read as floats: an exact
    entry whose float overflows, or rounds a nonzero value to 0, is refused
    by name, not compared (10^-400 would read as a zero parameter)."""
    floats = CuspParameter([1.0, 0.0])
    for x, how in ((F(10) ** 400, "overflows"), (F(1, 10 ** 400), "rounds to 0")):
        for a, b in ((CuspParameter([x, 0]), floats), (floats, CuspParameter([x, 0]))):
            with pytest.raises(ValueError, match=f"^psi_1 does not fit a float: it {how}$"):
                equivalent_parameters(a, b)
    assert equivalent_parameters(CuspParameter([F(1, 10 ** 400), 0]), CuspParameter([F(1), 0]))


def test_upper_triangular_check_on_model_group():
    psi = CuspParameter([1.0, 0.0, 0.0])
    gens = [h_element(psi, [1.5], [0.7]).matrix,
            h_element(psi, [0.8], [-0.4]).matrix]
    status, residual, conj = _triangularize(gens)
    assert status == "true"
    assert residual <= 1e-12
    assert np.allclose(np.abs(conj), np.eye(4), atol=1e-9)


def test_upper_triangular_check_on_bent_generators():
    data = RectangularCuspData(4, b=[1.0, 0.7, 1.3], s=[0.4, 0.0, 0.9])
    status, residual, _ = _triangularize([g.to_float() for g in bent_cusp_generators(data)])
    assert status == "true"
    assert residual <= 1e-9


def test_upper_triangular_check_rotations():
    c, s = math.cos(1.0), math.sin(1.0)
    rot_xy = ProjMap([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    c2, s2 = math.cos(math.sqrt(2)), math.sin(math.sqrt(2))
    rot_yz = ProjMap([[1.0, 0.0, 0.0], [0.0, c2, -s2], [0.0, s2, c2]])
    status, _, conj = _triangularize([rot_xy, rot_yz])
    assert status == "false"
    assert conj is None


def test_diagonalizable_check():
    diag = [ProjMap.diagonal([1.0, 2.0, 3.0]), ProjMap.diagonal([2.0, 5.0, 1.0])]
    assert _diagonalize(diag, np.random.default_rng(0)) is not None
    par = parabolic_element(ParaboloidModel(2), [1.0]).to_float()
    assert _diagonalize([par], np.random.default_rng(0)) is None
    swap = ProjMap([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="^generators 0 and 1 do not commute$"):
        _diagonalize([ProjMap.diagonal([1.0, 2.0, 1.0]), swap], np.random.default_rng(0))
    # the first pair in lexicographic order that fails is the one reported
    with pytest.raises(ValueError, match="^generators 0 and 2 do not commute$"):
        _diagonalize([ProjMap.diagonal([1.0, 2.0, 1.0]),
                      ProjMap.diagonal([3.0, 1.0, 1.0]), swap], np.random.default_rng(0))


def test_model_bend_produces_diagonalizable_group():
    rng = np.random.default_rng(17)
    n = 4
    base = [ProjMap.diagonal([1.0] + list(np.exp(rng.uniform(-1, 1, n - 1))) + [1.0])
            for _ in range(2)]
    stable = ProjMap.diagonal([1.0] + list(np.exp(rng.uniform(-1, 1, n - 1))) + [1.0])
    z = zprime_element(1.6, 0.7, n).to_float()
    gens = base + [compose(z, stable)]
    residual = _diagonalize(gens, rng)
    assert residual is not None
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
    ([np.zeros((4, 4))], "generator has no usable normalization entry"),
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
