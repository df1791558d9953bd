import copy
import math
import pickle
import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspbend.projlin import (
    DimensionMismatch,
    ProjMap,
    ProjPoint,
    SingularMatrix,
    act,
    compose,
    inverse,
    matrix_from_json,
    matrix_to_json,
    parse_scalar,
    proj_equiv,
    proj_equiv_rows,
    require_float,
    scalar_to_json,
)
from cuspbend.verify import _eigen_residuals

from equiv_reference import fraction_matrix, ref_equiv_vectors


def test_compose_identity():
    m = ProjMap([[1, 2], [3, 5]])
    assert np.array_equal(fraction_matrix(compose(ProjMap.identity(1), m)), fraction_matrix(m))


def test_compose_inverse_is_identity_up_to_scale():
    m = ProjMap([[F(1), F(2)], [F(3), F(5)]])
    assert proj_equiv(compose(m, inverse(m)), ProjMap.identity(1))


def test_compose_diagonals():
    got = compose(ProjMap.diagonal([1, 2, 1]), ProjMap.diagonal([1, 3, 1]))
    assert np.array_equal(fraction_matrix(got), fraction_matrix(ProjMap.diagonal([F(1), F(6), F(1)])))


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(ProjMap.identity(2), ProjMap.identity(3))


def test_inverse_identity_and_diagonal():
    assert np.array_equal(fraction_matrix(inverse(ProjMap.identity(2))),
                          fraction_matrix(ProjMap.identity(2)))
    inv = inverse(ProjMap.diagonal([F(1), F(2), F(4)]))
    assert proj_equiv(inv, ProjMap.diagonal([F(1), F(1, 2), F(1, 4)]))


def test_inverse_singular_exact():
    with pytest.raises(SingularMatrix):
        inverse(ProjMap([[F(1), F(2)], [F(2), F(4)]]))


def test_inverse_of_bent_generator_multiplies_back_exactly():
    from cuspbend.cusp_classify import RectangularCuspData, bent_cusp_generators
    data = RectangularCuspData(3, b=[F(1), F(2)], mu=[F(2), F(1)])
    for g in bent_cusp_generators(data):
        assert np.array_equal(fraction_matrix(compose(inverse(g), g)),
                              fraction_matrix(ProjMap.identity(3)))


def test_inverse_singular_float_condition():
    with pytest.raises(SingularMatrix):
        inverse(ProjMap([[1.0, 1.0], [1.0, 1.0 + 1e-16]]))


@pytest.mark.parametrize("exact", [False, True])
def test_inverse_is_kept_on_its_map(exact):
    """A map computes its inverse once and keeps it.  The inverse keeps no
    link back, so inverting it again computes: a float map's double inverse
    has the bytes of two fresh inversions.  An equal map of its own computes
    its own, and a singular map keeps nothing and raises every time."""
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    m = ProjMap([[F(x) for x in row] for row in rows] if exact else np.array(rows, float))
    value = fraction_matrix if exact else (lambda a: a.entries)
    inv = inverse(m)
    assert inverse(m) is inv
    twice = inverse(inv)
    assert twice is not m and inverse(inv) is twice
    if exact:
        assert twice.den == m.den and np.array_equal(twice.num, m.num)
    else:
        fresh = np.linalg.inv(np.linalg.inv(np.array(rows, float)))
        assert twice.entries.tobytes() == fresh.tobytes()
    equal = ProjMap(value(m))
    assert inverse(equal) is not inv
    assert np.array_equal(value(inverse(equal)), value(inv))
    singular = ProjMap([[F(1), F(2)], [F(2), F(4)]] if exact else [[1.0, 2.0], [2.0, 4.0]])
    for _ in range(2):
        with pytest.raises(SingularMatrix):
            inverse(singular)


def test_act_identity_and_diagonal():
    p = ProjPoint([1, 1])
    assert proj_equiv(act(ProjMap.identity(1), p), p)
    assert proj_equiv(act(ProjMap.diagonal([2.0, 1.0]), p), ProjPoint([2, 1]))


def test_act_parabolic_fixes_distinguished_point():
    from cuspbend.cusp_models import ParaboloidModel, parabolic_element
    h = parabolic_element(ParaboloidModel(3), [F(2), F(-1)])
    e1 = ProjPoint([1, 0, 0, 0])
    assert proj_equiv(act(h, e1), e1)


def test_proj_equiv_scale_and_negation():
    m = ProjMap([[1.0, 2.0], [3.0, 4.0]])
    assert proj_equiv(m, ProjMap(3.0 * np.asarray(m.entries)))
    assert proj_equiv(m, ProjMap(-2.0 * np.asarray(m.entries)))
    assert not proj_equiv(ProjMap.identity(2, exact=False),
                          ProjMap.diagonal([1.0, 1.0, 2.0]))


def test_proj_equiv_exact():
    m = ProjMap([[F(1), F(2)], [F(0), F(1)]])
    assert proj_equiv(m, ProjMap([[F(3), F(6)], [F(0), F(3)]]))
    assert not proj_equiv(m, ProjMap([[F(1), F(2)], [F(1), F(1)]]))


def test_proj_equiv_zero_map_is_false_without_warning():
    zero = ProjMap(np.zeros((3, 3)))
    ident = ProjMap.identity(2, exact=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not proj_equiv(zero, ident)
        assert not proj_equiv(ident, zero)
        assert proj_equiv(zero, zero)


def test_point_from_float_array_is_a_frozen_copy():
    arr = np.array([0.5, -2.0, 1.0])
    p = ProjPoint(arr)
    arr[0] = 7.0
    assert p.coords.tolist() == [0.5, -2.0, 1.0]
    assert not p.coords.flags.writeable and p.coords.dtype == np.float64
    # the array fast path and the list path build the same point
    assert ProjPoint([0.5, -2.0, 1.0]).coords.tolist() == p.coords.tolist()
    assert np.isnan(ProjPoint(np.array([math.nan, 1.0])).coords[0])
    with pytest.raises(ValueError, match="zero vector"):
        ProjPoint(np.zeros(3))
    with pytest.raises(ValueError, match="zero vector"):
        ProjPoint(np.array([-0.0, 0.0]))
    with pytest.raises(ValueError, match="at least 2"):
        ProjPoint(np.array([1.0]))
    assert ProjPoint([F(1, 2), 1]).coords.tolist() == [0.5, 1.0]


def test_eigen_diagonal():
    residuals = _eigen_residuals(np.diag([1.0, 2.0, 3.0]))
    assert len(residuals) == 3
    assert all(r <= 1e-12 for r in residuals)


def test_eigen_unipotent_generator():
    """A unipotent generator is defective: numpy's eigenvectors of its one
    eigenvalue are near-parallel, and each pair still has a small residual."""
    from cuspbend.cusp_classify import RectangularCuspData, standard_cusp_generators
    g = standard_cusp_generators(RectangularCuspData(3, b=[1.0, 1.0], s=[0.0, 0.0]))[0]
    mat = g.to_float().entries
    assert all(abs(v - 1.0) <= 1e-9 for v in np.linalg.eigvals(mat))
    residuals = _eigen_residuals(mat)
    assert len(residuals) == 4
    assert all(r <= 1e-9 for r in residuals)


def test_eigen_bent_generator_has_multiplier():
    from cuspbend.cusp_classify import RectangularCuspData, bent_cusp_generators
    s = 0.7
    g = bent_cusp_generators(RectangularCuspData(3, b=[1.0, 1.0], s=[s, 0.0]))[0]
    mat = g.to_float().entries
    hits = [v for v in np.linalg.eigvals(mat) if abs(v - math.exp(s)) <= 1e-9]
    assert len(hits) == 1
    assert all(r <= 1e-9 for r in _eigen_residuals(mat))


def test_values_beyond_float_range_are_named():
    """An exact value whose float overflows, or a nonzero one whose float is
    0, is a ValueError naming it; an exact map whose entry overflows is
    refused where it meets floats (a matrix mixing it with floats is
    refused on construction: the ``bend`` case of the CLI exit contract)."""
    big = F(10) ** 400
    assert require_float(F(10) ** 308, "x") == 1e308
    assert require_float(0, "x") == 0.0 and require_float(-2.5, "x") == -2.5
    with pytest.raises(ValueError, match="^mu_2 does not fit a float: it overflows$"):
        require_float(-big, "mu_2")
    with pytest.raises(ValueError, match="^b_3 does not fit a float: it rounds to 0$"):
        require_float(1 / big, "b_3")
    exact = ProjMap([[F(1), F(0)], [F(0), big]])
    assert exact.exact
    with pytest.raises(ValueError, match=r"^matrix entry \(1, 1\) does not fit a float"):
        exact.to_float()
    with pytest.raises(ValueError, match=r"^matrix entry \(1, 1\) does not fit a float"):
        compose(exact, ProjMap.identity(1, exact=False))


def test_matrix_json_roundtrip():
    m = ProjMap([[F(1, 2), F(3)], [F(0), F(1)]])
    data = matrix_to_json(m)
    assert data == [["1/2", "3"], ["0", "1"]]
    back = matrix_from_json(data)
    assert np.array_equal(fraction_matrix(back), fraction_matrix(m))
    mf = ProjMap([[0.5, 3.0], [0.0, 1.0]])
    assert matrix_from_json(matrix_to_json(mf)).entries.dtype == np.float64


# (input, exception type, message) as the entry-by-entry parser reports them
BAD_JSON_MATRICES = [
    ([[1.0, 2.0], [3.0]], ValueError, "projective map must be square, got shape (2,)"),
    ([[1.0, 2.0], [3.0, [4.0]]], ValueError, "not a scalar: [4.0]"),
    ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], ValueError,
     "projective map must be square, got shape (2, 3)"),
    ([[1.0]], ValueError, "projective map must be at least 2x2"),
    ([], ValueError, "projective map must be square, got shape (0,)"),
    ([[]], ValueError, "projective map must be square, got shape (1, 0)"),
    ([1.0, 2.0], ValueError, "matrix row 0 must be a JSON list, not 1.0"),
    ([[1.0, True], [0.0, 1.0]], ValueError, "not a scalar: True"),
    ([[1.0, "x"], [0.0, 1.0]], ValueError, "Invalid literal for Fraction: 'x'"),
    ([[1.0, {"a": 1}], [0.0, 1.0]], ValueError, "not a scalar: {'a': 1}"),
    ([[1.0, [2.0]], [0.0, 1.0]], ValueError, "not a scalar: [2.0]"),
    ([[1.0, None], [0.0, 1.0]], ValueError, "not a scalar: None"),
    # a string or dict is refused before it is read character by character or
    # key by key, whether or not its characters or keys parse
    ({"a": 1}, ValueError, "matrix must be a JSON list, not {'a': 1}"),
    (["ab", "cd"], ValueError, "matrix row 0 must be a JSON list, not 'ab'"),
    ("1234", ValueError, "matrix must be a JSON list, not '1234'"),
    (["12", "34"], ValueError, "matrix row 0 must be a JSON list, not '12'"),
    ([[1, 0], "01"], ValueError, "matrix row 1 must be a JSON list, not '01'"),
    ({"12": 0, "34": 1}, ValueError, "matrix must be a JSON list, not {'12': 0, '34': 1}"),
    ([{"1": 0, "2": 0}, [0, 1]], ValueError,
     "matrix row 0 must be a JSON list, not {'1': 0, '2': 0}"),
]


@pytest.mark.parametrize("rows,exc,message", BAD_JSON_MATRICES)
def test_matrix_from_json_bad_input_messages(rows, exc, message):
    with pytest.raises(exc) as info:
        matrix_from_json(rows)
    assert type(info.value) is exc and str(info.value) == message


json_float = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda size: st.lists(
    st.lists(json_float, min_size=size, max_size=size), min_size=size, max_size=size)))
def test_matrix_from_json_float_rows_match_entrywise_parse(rows):
    got = matrix_from_json(rows)
    want = ProjMap([[parse_scalar(x) for x in row] for row in rows])
    assert not got.exact and got.entries.dtype == np.float64
    assert got.entries.tobytes() == want.entries.tobytes()


def test_matrix_from_json_ints_and_strings_stay_exact():
    assert matrix_from_json([[1, 0], [0, 2]]).exact
    assert matrix_to_json(matrix_from_json([["1/2", 0], [0, 1]])) == [["1/2", "0"], ["0", "1"]]
    mixed = matrix_from_json([[1, 0.5], [0.0, 1.0]])
    assert not mixed.exact and mixed.entries.tolist() == [[1.0, 0.5], [0.0, 1.0]]


big_fraction = st.one_of(
    st.just(F(0)),
    st.integers(-2 ** 70, 2 ** 70).map(F),
    st.builds(F, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 66)),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5).flatmap(lambda size: st.lists(
    st.lists(big_fraction, min_size=size, max_size=size), min_size=size, max_size=size)))
def test_matrix_to_json_exact_matches_fraction_strings(rows):
    m = ProjMap(rows)
    want = [[str(F(x)) for x in row] for row in rows]
    assert matrix_to_json(m) == want
    assert matrix_to_json(m) == [[str(F(x)) for x in row] for row in fraction_matrix(m)]


def test_matrix_to_json_exact_edge_entries():
    big = 2 ** 64 + 1
    m = ProjMap([[F(-big, 3), F(0)], [F(6, 4), F(-7)]])
    assert matrix_to_json(m) == [[f"-{big}/3", "0"], ["3/2", "-7"]]
    assert matrix_to_json(ProjMap([[F(4), F(-2)], [F(0), F(2)]])) == [["4", "-2"], ["0", "2"]]


def test_scalar_json():
    assert scalar_to_json(F(3, 2)) == "3/2"
    assert parse_scalar("3/2") == F(3, 2)
    assert parse_scalar(7) == F(7)
    assert parse_scalar(0.25) == 0.25


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
def test_parse_scalar_zero_denominator_is_value_error(text):
    with pytest.raises(ValueError, match=re.escape(f"zero denominator in scalar {text!r}")):
        parse_scalar(text)


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def exact_matrix(size):
    return st.lists(st.lists(small_fraction, min_size=size, max_size=size),
                    min_size=size, max_size=size).map(ProjMap)


@settings(max_examples=50, deadline=None)
@given(exact_matrix(3), exact_matrix(3), exact_matrix(3))
def test_compose_associative_exact(a, b, c):
    lhs = compose(compose(a, b), c)
    rhs = compose(a, compose(b, c))
    assert np.array_equal(fraction_matrix(lhs), fraction_matrix(rhs))


@settings(max_examples=50, deadline=None)
@given(exact_matrix(3), small_fraction.filter(lambda x: x != 0))
def test_proj_equiv_scale_invariance_exact(m, scale):
    scaled = ProjMap([[x * scale for x in row] for row in fraction_matrix(m)])
    assert proj_equiv(m, scaled)


def test_act_composition_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        a = ProjMap(rng.uniform(-1, 1, (n + 1, n + 1)))
        b = ProjMap(rng.uniform(-1, 1, (n + 1, n + 1)))
        p = ProjPoint(rng.uniform(0.5, 1.5, n + 1))
        assert proj_equiv(act(compose(a, b), p), act(a, act(b, p)), 1e-10)


def _rational_map(rng, size):
    """A map of small rationals with mixed denominators."""
    return ProjMap([[F(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in range(size)]
                    for _ in range(size)])


def _exact_and_float_maps(rng, count):
    """(exact map, float map, float point) triples of one size each."""
    for _ in range(count):
        size = int(rng.integers(2, 6))
        yield (_rational_map(rng, size), ProjMap(rng.uniform(-2, 2, (size, size))),
               ProjPoint(rng.uniform(0.5, 1.5, size)))


def test_exact_meets_float_in_floats():
    """An exact map that meets a float operand is read through to_float():
    compose (on either side) and act give the bytes of the float route, and
    proj_equiv the verdict of the float comparison."""
    rng = np.random.default_rng(11)
    for e, f, p in _exact_and_float_maps(rng, 300):
        ef = e.to_float()
        for got, want in [(compose(e, f), compose(ef, f)), (compose(f, e), compose(f, ef))]:
            assert not got.exact and got.entries.tobytes() == want.entries.tobytes()
        assert act(e, p).coords.tobytes() == act(ef, p).coords.tobytes()
        for other in (f, ProjMap(3.0 * ef.entries)):
            assert proj_equiv(e, other) == proj_equiv(ef, other) == proj_equiv(other, e)
        assert proj_equiv(e, ProjMap(-2.0 * ef.entries))


def test_exact_compose_stays_exact():
    rng = np.random.default_rng(12)
    for _ in range(50):
        size = int(rng.integers(2, 6))
        e1, e2 = _rational_map(rng, size), _rational_map(rng, size)
        got = compose(e1, e2)
        assert got.exact and got.entries is None
        assert fraction_matrix(got).tolist() == (fraction_matrix(e1) @ fraction_matrix(e2)).tolist()


def test_point_of_exact_scalars_is_float():
    p = ProjPoint([F(1, 3), 1])
    assert p.coords.dtype == np.float64 and not p.coords.flags.writeable
    assert p.coords.tolist() == [1 / 3, 1.0]
    assert p.chart().tolist() == [1 / 3]


def test_maps_survive_pickle_and_deepcopy():
    exact = ProjMap([[F(1, 2), F(-3)], [F(0), F(5, 4)]])
    flt = ProjMap([[0.5, -3.0], [0.0, 1.25]])
    for m in (exact, flt):
        inverse(m)              # the kept inverse is not part of the stored form
    for copy_of in (lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy):
        e, f = copy_of(exact), copy_of(flt)
        assert e.exact and e.entries is None and e.den == exact.den == 4
        assert np.array_equal(e.num, exact.num) and not e.num.flags.writeable
        assert not f.exact and f.num is None and f.den is None
        assert f.entries.tobytes() == flt.entries.tobytes() and not f.entries.flags.writeable
        assert fraction_matrix(inverse(e)).tolist() == fraction_matrix(inverse(exact)).tolist()


# ---------------------------------------------------------------------------
# exact maps against a plain-Fraction reference written here


def ref_matmul(a, b):
    size = len(a)
    out = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            for k in range(size):
                out[i][j] += a[i][k] * b[k][j]
    return out


def ref_inverse(a):
    """Gauss-Jordan on [a | I]: the inverse, or None when a is singular."""
    size = len(a)
    m = [list(row) + [F(int(i == j)) for j in range(size)] for i, row in enumerate(a)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(size):
            if r != col:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[size:] for row in m]


def ref_proportional(a, b):
    fa = [x for row in a for x in row]
    fb = [x for row in b for x in row]
    if [x == 0 for x in fa] != [x == 0 for x in fb]:
        return False
    ratios = {x / y for x, y in zip(fa, fb) if y != 0}
    return len(ratios) <= 1


@st.composite
def rational_matrix_pair(draw):
    """Two same-size matrices of small rationals: negative entries, zeros,
    mixed denominators; sometimes singular, sometimes proportional."""
    size = draw(st.integers(2, 5))
    entry = st.one_of(st.just(F(0)), st.fractions(min_value=-20, max_value=20,
                                                   max_denominator=12))
    square = st.lists(st.lists(entry, min_size=size, max_size=size),
                      min_size=size, max_size=size)
    a = draw(square)
    shape = draw(st.sampled_from(["free", "repeated_row", "zero_column", "scaled"]))
    if shape == "repeated_row":
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        c = draw(small_fraction)
        a[i] = [c * x for x in a[j]]
    elif shape == "zero_column":
        j = draw(st.integers(0, size - 1))
        for row in a:
            row[j] = F(0)
    if shape == "scaled":
        c = draw(small_fraction.filter(lambda x: x != 0))
        b = [[c * x for x in row] for row in a]
    else:
        b = draw(square)
    return a, b


@settings(max_examples=120, deadline=None)
@given(rational_matrix_pair())
def test_exact_ops_match_fraction_reference(pair):
    a_rows, b_rows = pair
    a, b = ProjMap(a_rows), ProjMap(b_rows)
    # the stored integer form: one positive denominator, nothing left to cancel
    assert a.den > 0 and math.gcd(a.den, *a.num.ravel().tolist()) == 1
    assert not a.num.flags.writeable and a.entries is None
    assert fraction_matrix(a).tolist() == a_rows
    assert fraction_matrix(compose(a, b)).tolist() == ref_matmul(a_rows, b_rows)
    inv = ref_inverse(a_rows)
    if inv is None:
        with pytest.raises(SingularMatrix):
            inverse(a)
    else:
        assert fraction_matrix(inverse(a)).tolist() == inv
    assert proj_equiv(a, b) == ref_proportional(a_rows, b_rows)
    assert a.to_float().entries.tolist() == [[float(x) for x in row] for row in a_rows]


@st.composite
def equiv_rows(draw):
    """Row pairs for proj_equiv_rows: exact, float, or exact against float;
    b is a scaled copy of a (negative scales too), a perturbed or unrelated
    row, a zero row, or a scaled copy whose entry at the argmax of |a| is
    made small."""
    size = draw(st.integers(2, 9))
    mode = draw(st.sampled_from(["exact", "float", "mixed"]))
    exact_entry = st.one_of(st.just(F(0)), st.fractions(-20, 20, max_denominator=12))
    float_entry = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False),
                            st.floats(-1e-6, 1e-6))
    a_rows, b_rows = [], []
    for _ in range(draw(st.integers(1, 6))):
        entry = float_entry if mode == "float" else exact_entry
        a = draw(st.lists(entry, min_size=size, max_size=size))
        shape = draw(st.sampled_from(["scaled", "perturbed", "free", "zero", "small_pivot"]))
        if shape == "zero":
            b = [0 * x for x in a]
        elif shape == "free":
            b = draw(st.lists(entry, min_size=size, max_size=size))
        else:
            scale = draw(st.sampled_from([1, -1, 3, F(-2, 7), F(1, 1000)]))
            b = [x * scale for x in a]
            if shape == "perturbed":
                j = draw(st.integers(0, size - 1))
                b[j] += draw(st.sampled_from([F(1, 10 ** 12), F(1, 10 ** 9), F(1, 10 ** 6)]))
            elif shape == "small_pivot":
                k = max(range(size), key=lambda i: abs(a[i]))
                small = draw(st.sampled_from([0, F(1, 10 ** 12), F(1, 10 ** 9), F(1, 10 ** 8)]))
                b[k] = small * max([abs(x) for x in b] + [1])
        if draw(st.booleans()):
            a, b = b, a
        a_rows.append(a)
        b_rows.append(b)
    exact = np.array(a_rows, dtype=object), np.array(b_rows, dtype=object)
    floats = (np.array([[float(x) for x in r] for r in a_rows]),
              np.array([[float(x) for x in r] for r in b_rows]))
    if mode == "exact":
        return exact
    if mode == "float":
        return floats
    return (exact[0], floats[1]) if draw(st.booleans()) else (floats[0], exact[1])


@settings(max_examples=120, deadline=None)
@given(equiv_rows(), st.sampled_from([1e-9, 1e-6, 0.0]), st.booleans())
# a subnormal pivot once overflowed the division (a RuntimeWarning)
@example(pair=(np.array([[5e-324, 0.0]]), np.array([[5e-324, 1e-12]])), tol=1e-9,
         per_row_tol=False)
# a zero row of a against a subnormal pivot of b once overflowed the reference's division
@example(pair=(np.zeros((3, 7)), np.vstack([[2.22507386e-313] + [0.0] * 5 + [1.0],
                                            np.zeros((2, 7))])), tol=0.0, per_row_tol=False)
def test_proj_equiv_rows_matches_reference_rule(pair, tol, per_row_tol):
    a, b = pair
    tols = np.full(len(a), tol) if per_row_tol else tol
    got = proj_equiv_rows(a, b, tols)
    assert got.dtype == bool and got.shape == (len(a),)
    assert got.tolist() == [ref_equiv_vectors(x, y, tol) for x, y in zip(a, b)]
