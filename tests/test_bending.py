import gc
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspbend.bending import (
    BendingMove,
    CentralizerCheckFailed,
    Decomposition,
    MarkedRep,
    NonCommutingMoves,
    RelatorViolation,
    _Checks,
    bend,
    iterated_bend,
    parse_word,
)
from cuspbend.cli import main
from cuspbend.cusp_classify import RectangularCuspData, bent_cusp_generators, standard_cusp_generators
from cuspbend.cusp_models import hyperplane_centralizer_element
from cuspbend import projlin
from cuspbend.projlin import ProjMap, SingularMatrix, compose, inverse, proj_equiv
from cuspbend.verify import cusp_bending_moves, cusp_fixture_rep

from equiv_reference import fraction_matrix, ref_equiv_maps
import word_reference
from word_reference import evaluate


def test_parse_word():
    assert parse_word(["a", "b^-1", ("c", 1)]) == (("a", 1), ("b", -1), ("c", 1))


def test_word_exponent_bound_is_1000():
    """The bound on a word exponent, by its value: 1000 either way is read
    and 1001 is refused, in pair and in string form."""
    for exp in (1000, -1000):
        assert parse_word([["g", exp], f"g^{exp}"]) == (("g", exp), ("g", exp))
    for tok, exp in ((["g", 1001], 1001), (["g", -1001], -1001), ("g^1001", 1001),
                     ("g^-1001", -1001)):
        with pytest.raises(ValueError, match=r"^w\[0\] exponent must be at most 1000 in "
                                             f"absolute value, not {exp}$"):
            parse_word([tok], "w")


def fixture_rep(n=4, b=(1.0, 0.8, 1.3)):
    return cusp_fixture_rep(RectangularCuspData(n, b=list(b), s=[0.0] * (n - 1)))


def test_marked_rep_checks_relators():
    rep = fixture_rep()
    assert rep.relators
    bad_gens = dict(rep.generators)
    # break commutativity: add an off-pattern entry to one generator
    broken = np.asarray(bad_gens["g2"].entries).copy()
    broken[2, 1] = 0.3
    bad_gens["g2"] = ProjMap(broken)
    with pytest.raises(RelatorViolation):
        MarkedRep(4, bad_gens, list(rep.relators))


def test_marked_rep_evaluate_word():
    rep = fixture_rep()
    g2 = rep.generators["g2"]
    word_val = evaluate(rep, ["g2", "g2", "g2^-1"])
    assert proj_equiv(word_val, g2, 1e-12)


@pytest.mark.parametrize("exact", [False, True])
def test_evaluate_starts_from_first_letter(exact, monkeypatch):
    b = [F(1), F(2)] if exact else [1.0, 2.0]
    gens = dict(zip(["g2", "g3"], standard_cusp_generators(
        RectangularCuspData(3, b=b, s=[0.0, 0.0]))))
    rep = MarkedRep(3, gens)
    value = fraction_matrix if exact else (lambda m: m.entries)
    calls = []

    def counting_compose(a, c):
        calls.append((a, c))
        return compose(a, c)

    monkeypatch.setattr(word_reference, "compose", counting_compose)
    empty = evaluate(rep, [])
    assert empty.exact == exact
    assert np.array_equal(value(empty), value(ProjMap.identity(3, exact=exact)))
    assert evaluate(rep, ["g2"]) is gens["g2"]
    assert calls == []
    g3_inv = inverse(gens["g3"])
    want = compose(compose(g3_inv, g3_inv), gens["g2"])
    got = evaluate(rep, ["g3^-2", "g2"])
    assert len(calls) == 2
    if exact:
        assert np.array_equal(value(got), value(want))
    else:
        assert proj_equiv(got, want, 1e-12)


@pytest.mark.parametrize("exact", [False, True])
def test_failing_relator_still_raises(exact):
    b = [F(1), F(2)] if exact else [1.0, 2.0]
    gens = dict(zip(["g2", "g3"], standard_cusp_generators(
        RectangularCuspData(3, b=b, s=[0.0, 0.0]))))
    MarkedRep(3, gens, [["g2", "g3", "g2^-1", "g3^-1"]])
    for relator in (["g2"], ["g2", "g3^-1"], ["g3^-2", "g2^2"]):
        with pytest.raises(RelatorViolation):
            MarkedRep(3, gens, [relator])


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("relators, g2_holds, want", [
    ([["g2"], ["g3^-1", "g3"]], False, "relator"),
    ([["g2"], ["g3^-1", "g3"]], True, "singular"),
    ([["g3^-1", "g3"], ["g2"]], False, "singular"),
])
def test_singular_inverse_raises_where_first_needed(exact, relators, g2_holds, want):
    """g3 is singular and only the relator g3^-1 g3 needs its inverse: a
    relator queued before that need and failing is reported, else g3's
    SingularMatrix, whatever fails after the need.  The same through the
    construction check and through iterated_bend with an identity move."""
    one = 1 if exact else 1.0
    gens = {"g2": ProjMap.diagonal([one, one if g2_holds else 2 * one, one]),
            "g3": ProjMap.diagonal([one, one, 0 * one])}
    move = BendingMove(Decomposition("hnn", base=["g3"], stable="g2"), ProjMap.identity(2))
    message = ("matrix is singular (exact determinant zero)" if exact
               else "matrix is numerically singular (condition estimate inf)")
    exc, match = ((RelatorViolation, r"^relator \['g2'\] does not map to the identity$")
                  if want == "relator" else (SingularMatrix, f"^{re.escape(message)}$"))
    with pytest.raises(exc, match=match):
        MarkedRep(2, gens, relators)
    with pytest.raises(exc, match=match):
        iterated_bend(MarkedRep(2, gens, relators, check=False), [move])


def test_iterated_bend_checks_input_relators_without_moves():
    """The relators of the input rep are the first checks of the pass, also
    with no moves: a rep read by ``from_json`` is checked there, at tol."""
    rep = fixture_rep()
    data = rep.to_json()
    data["relators"].append(["g2"])
    unchecked = MarkedRep.from_json(data)
    with pytest.raises(RelatorViolation, match=r"^relator \['g2'\] does not map"):
        iterated_bend(unchecked, [])
    assert iterated_bend(rep, []) is rep


def _computed_inversions(monkeypatch) -> list:
    """The maps whose inverse is computed from now on, in order, one at a
    time (exact) or in a stack (float); an inverse a map already keeps is not
    computed again."""
    computed = []
    invert_exact, invert_floats = projlin._invert_exact, projlin._invert_floats

    def counting_exact(a):
        computed.append(a)
        return invert_exact(a)

    def counting_floats(maps):
        computed.extend(maps)
        return invert_floats(maps)

    monkeypatch.setattr(projlin, "_invert_exact", counting_exact)
    monkeypatch.setattr(projlin, "_invert_floats", counting_floats)
    return computed


def test_marked_rep_inverts_each_generator_once(monkeypatch):
    computed = _computed_inversions(monkeypatch)
    rep = fixture_rep()                   # checks three commutator relators
    assert len(computed) == 3
    got = evaluate(rep, ["g2^-1", "g4^-2"])
    assert len(computed) == 3
    assert {id(g) for g in computed} == {id(rep.generators[name]) for name in ("g2", "g3", "g4")}
    assert proj_equiv(got, inverse(compose(rep.generators["g4"],
                                           compose(rep.generators["g4"], rep.generators["g2"]))),
                      1e-12)


@pytest.mark.parametrize("name", ["n4-amalgam-exact-seed1", "n6-amalgam-float-seed2",
                                  "n6-hnn-exact-seed1", "n5-hnn-float-seed2"])
def test_cli_shaped_bend_inverts_each_value_once(name, monkeypatch):
    """Reading a rep, bending it with ``verify_order`` and evaluating words
    in the result inverts each distinct map value once: every map keeps its
    inverse, and the checks invert, and the bent rep keeps, the first map of
    each value.  The n4 exact case bends g4 by the identity, which builds a
    new map of g4's value."""
    import cuspbend.bending as bending_mod
    fixture = Path(__file__).parent / "fixtures" / "bend.json"
    case = next(c for c in json.loads(fixture.read_text())["cases"] if c["name"] == name)
    computed = _computed_inversions(monkeypatch)
    rep = MarkedRep.from_json(case["input"]["rep"])
    moves = [BendingMove.from_json(m) for m in case["input"]["moves"]]
    bent = iterated_bend(rep, moves, verify_order=True, seed=int(case["argv"][1]))
    words = [[f"{g}^-1"] for g in bent.names()] + [[f"{g}^-2" for g in rep.names()]]
    for word in words + words:
        evaluate(bent, word)
    for word in rep.relators:
        evaluate(rep, word)
    keys = [bending_mod._key(g) for g in computed]
    assert keys and len(keys) == len(set(keys))
    assert {bending_mod._key(g) for g in (*rep.generators.values(),
                                          *bent.generators.values())} <= set(keys)


def test_inverse_caches_stay_bounded_under_repeated_bending(monkeypatch):
    """One long-lived rep bent 200 times with fresh moves: the memory still
    held after each round, the root rep with its generators and the
    inverses they keep, does not grow with the number of bends, whatever
    the checks inverted on the way; and the root's inverses are computed
    once."""
    rng = np.random.default_rng(7)
    b = [1.0, 0.8, 1.3, 0.6, 1.1]
    root = cusp_fixture_rep(RectangularCuspData(6, b=b, s=[0.0] * 5))

    def bend_root():
        s = [0.0] * 5
        for k in rng.choice(5, size=2, replace=False):
            s[k] = float(rng.uniform(0.05, 1.5))
        moves = cusp_bending_moves(RectangularCuspData(6, b=b, s=s))
        bent = iterated_bend(root, moves, verify_order=True, seed=int(rng.integers(2**32)))
        again = bend(bent, moves[0])
        for rep in (root, bent, again):
            evaluate(rep, [f"{name}^-1" for name in rep.names()])

    held = []
    tracemalloc.start()
    try:
        for k in range(200):
            bend_root()
            if k in (19, 199):
                gc.collect()
                held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # one 7x7 float map and its inverse take about 1 KB: 180 bends that each
    # kept their maps' inverses alive would hold hundreds of KB more
    assert held[1] - held[0] < 32_000
    computed = _computed_inversions(monkeypatch)
    evaluate(root, [f"{name}^-1" for name in root.names()])
    assert computed == []


def test_bend_identity_fixes_everything():
    rep = fixture_rep()
    dec = Decomposition("amalgam", side1=["g2"], side2=["g3", "g4"],
                        edge_words=[["g2", "g3", "g2^-1", "g3^-1"]])
    out = bend(rep, BendingMove(dec, ProjMap.identity(4, exact=False)))
    for name in rep.names():
        assert proj_equiv(out.generators[name], rep.generators[name], 1e-14)


def test_bend_amalgam_conjugates_side2():
    rep = fixture_rep()
    # centralizer of the slot-2 hyperplane commutes with the edge group <g3, g4>
    c = hyperplane_centralizer_element(2, mu=math.exp(0.6), n=4).to_float()
    dec = Decomposition("amalgam", side1=["g2"], side2=["g3", "g4"],
                        edge_words=[["g3"], ["g4"]])
    out = bend(rep, BendingMove(dec, c))
    c_inv = inverse(c)
    for name in ("g3", "g4"):
        want = compose(compose(c, rep.generators[name]), c_inv)
        assert proj_equiv(out.generators[name], want, 1e-13)
    assert proj_equiv(out.generators["g2"], rep.generators["g2"], 1e-14)


def test_bend_hnn_multiplies_stable_letter():
    rep = fixture_rep()
    c = hyperplane_centralizer_element(3, mu=math.exp(0.9), n=4).to_float()
    dec = Decomposition("hnn", base=["g2", "g4"], stable="g3",
                        edge_words=[["g2"], ["g4"]])
    out = bend(rep, BendingMove(dec, c))
    assert proj_equiv(out.generators["g3"], compose(c, rep.generators["g3"]), 1e-13)
    assert proj_equiv(out.generators["g2"], rep.generators["g2"], 1e-14)


def test_bend_matches_bent_cusp_generators():
    data = RectangularCuspData(4, b=[1.0, 0.8, 1.3], s=[0.5, 0.0, 1.1])
    rep = cusp_fixture_rep(data)
    out = iterated_bend(rep, cusp_bending_moves(data))
    for name, want in zip(rep.names(), bent_cusp_generators(data)):
        assert proj_equiv(out.generators[name], want.to_float(), 1e-12)


def test_bend_rejects_non_centralizing_element():
    rep = fixture_rep()
    with pytest.raises(ValueError):
        Decomposition("hnn", base=["g2"], stable="g2", edge_words=[])
    # the slot-2 centralizer does not commute with g2 itself
    c = hyperplane_centralizer_element(2, mu=math.exp(1.0), n=4).to_float()
    dec = Decomposition("hnn", base=["g2", "g4"], stable="g3",
                        edge_words=[["g2"]])
    with pytest.raises(CentralizerCheckFailed):
        bend(rep, BendingMove(dec, c))


def test_bend_validates_partition():
    rep = fixture_rep()
    dec = Decomposition("amalgam", side1=["g2"], side2=["g3"], edge_words=[])
    with pytest.raises(ValueError):
        bend(rep, BendingMove(dec, ProjMap.identity(4, exact=False)))
    with pytest.raises(ValueError):
        Decomposition("amalgam", side1=["g2", "g3"], side2=["g3"], edge_words=[])


def test_iterated_bend_empty():
    rep = fixture_rep()
    assert iterated_bend(rep, []) is rep


def test_iterated_bend_order_swap():
    data = RectangularCuspData(4, b=[1.0, 0.8, 1.3], s=[0.7, 0.3, 0.0])
    rep = cusp_fixture_rep(data)
    moves = cusp_bending_moves(data)
    fwd = iterated_bend(rep, moves, verify_order=True, seed=0)
    rev = iterated_bend(rep, moves[::-1])
    for name in rep.names():
        assert proj_equiv(fwd.generators[name], rev.generators[name], 1e-12)


@pytest.mark.parametrize("n", [4, 5])
def test_verify_order_reruns_in_the_seeded_order(monkeypatch, n):
    """With ``verify_order``, the moves run forward and then in the order
    ``random.Random(seed).sample`` draws; some seed draws an order other
    than the forward one."""
    import cuspbend.bending as bending_mod
    data = RectangularCuspData(n, b=[1.0, 0.8, 1.3, 0.6][:n - 1],
                               s=[0.7, 0.3, 0.5, 0.9][:n - 1])
    rep = cusp_fixture_rep(data)
    moves = cusp_bending_moves(data)
    assert len(moves) == n - 1
    applied = []
    real = bending_mod._bend_step

    def record(checks, rep, gens, move, tol):
        applied.append(next(k for k, m in enumerate(moves) if m is move))
        return real(checks, rep, gens, move, tol)

    monkeypatch.setattr(bending_mod, "_bend_step", record)
    forward = list(range(len(moves)))
    reruns = []
    for seed in range(6):
        applied.clear()
        iterated_bend(rep, moves, verify_order=True, seed=seed)
        want = random.Random(seed).sample(forward, len(moves))
        assert applied == forward + want, seed
        reruns.append(applied[len(moves):])
    assert any(order != forward for order in reruns)


def test_iterated_bend_rejects_non_commuting_centralizers():
    rep = fixture_rep()
    swap_block = np.eye(5)
    swap_block[[1, 2]] = swap_block[[2, 1]]
    dec1 = Decomposition("hnn", base=["g3", "g4"], stable="g2", edge_words=[])
    dec2 = Decomposition("hnn", base=["g2", "g4"], stable="g3", edge_words=[])
    m1 = BendingMove(dec1, ProjMap.diagonal([1.0, 2.0, 1.0, 1.0, 1.0]))
    m2 = BendingMove(dec2, ProjMap(swap_block))
    with pytest.raises(NonCommutingMoves):
        iterated_bend(rep, [m1, m2])


def _off_centralizer_case():
    """n = 3, g2 (b = 1) and g3 (b = 0.8) with their commutator relator, and
    one HNN move on g2 whose centralizer diag(1, e^0.5, 1, 1) is off by 1e-6
    at entry [2][3]: it fails to commute with g3, and the bent relator fails,
    by about 1e-6, far above the default tol and far below 1e-3."""
    rep = cusp_fixture_rep(RectangularCuspData(3, b=[1.0, 0.8], s=[0.0, 0.0]))
    c = np.diag([1.0, np.exp(0.5), 1.0, 1.0])
    c[2, 3] += 1e-6
    dec = Decomposition("hnn", base=["g3"], stable="g2", edge_words=[["g3"]])
    return rep, BendingMove(dec, ProjMap(c))


def test_bend_checks_relators_at_its_tol():
    """A bend's tol governs its relator checks too, not only the centralizer
    check: the move passes at 1e-3, and fails on its centralizer at the
    default tol."""
    rep, move = _off_centralizer_case()
    assert rep.relators == ((("g2", 1), ("g3", 1), ("g2", -1), ("g3", -1)),)
    out = iterated_bend(rep, [move], tol=1e-3)
    assert proj_equiv(out.generators["g2"], compose(move.centralizer, rep.generators["g2"]),
                      1e-14)
    bend(rep, move, tol=1e-3)
    with pytest.raises(CentralizerCheckFailed, match="move 0: centralizer does not commute"):
        iterated_bend(rep, [move])


def test_bend_tol_option_reaches_the_relators(tmp_path, capsys):
    rep, move = _off_centralizer_case()
    move_json = {"kind": "hnn", "base": ["g3"], "stable": "g2", "edge_words": [["g3"]],
                 "centralizer": move.centralizer.entries.tolist()}
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({"rep": rep.to_json(), "moves": [move_json]}))
    out = tmp_path / "bent.json"
    assert main(["bend", "--in", str(bundle), "--out", str(out), "--tol", "1e-3"]) == 0
    # the output's relators hold to 1e-3 only, so it is read without MarkedRep's check
    assert sorted(json.loads(out.read_text())["generators"]) == ["g2", "g3"]
    # fed back with no moves, the output is read with its relators checked at --tol
    again = tmp_path / "again.json"
    again.write_text(json.dumps({"rep": json.loads(out.read_text()), "moves": []}))
    assert main(["bend", "--in", str(again), "--out", str(tmp_path / "same.json"),
                 "--tol", "1e-3"]) == 0
    assert (tmp_path / "same.json").read_text() == out.read_text()
    assert main(["bend", "--in", str(again), "--out", str(tmp_path / "same.json")]) == 2
    assert "does not map to the identity" in capsys.readouterr().err
    assert main(["bend", "--in", str(bundle), "--out", str(out)]) == 2
    assert "move 0: centralizer does not commute" in capsys.readouterr().err


def test_wrong_dimension_centralizer_names_both_dimensions():
    rep = fixture_rep()                                # n = 4
    c = ProjMap.identity(3, exact=False)
    dec = Decomposition("hnn", base=["g3", "g4"], stable="g2", edge_words=[["g3"]])
    with pytest.raises(ValueError, match="3 vs 4"):
        iterated_bend(rep, [BendingMove(dec, c)])
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 4"):
        bend(rep, BendingMove(dec, c))


def test_bend_checks_the_relators_it_is_given():
    """bend is iterated_bend with one move, so it checks the input
    relators first: a relator that fails as given is refused although the
    bend would make it hold (g2 bent by g2^-1 is the identity)."""
    fixture = fixture_rep()
    g2 = fixture.generators["g2"]
    rep = MarkedRep(4, fixture.generators, relators=[["g2"]], check=False)
    dec = Decomposition("hnn", base=["g3", "g4"], stable="g2", edge_words=[])
    move = BendingMove(dec, inverse(g2))
    assert proj_equiv(compose(move.centralizer, g2), ProjMap.identity(4, exact=False), 1e-12)
    with pytest.raises(RelatorViolation, match=re.escape("relator ['g2'] does not map")):
        bend(rep, move)


def test_relators_survive_bending():
    data = RectangularCuspData(5, b=[1.0, 0.8, 1.3, 0.6], s=[0.7, 0.0, 0.3, 1.2])
    rep = cusp_fixture_rep(data)
    current = rep
    for move in cusp_bending_moves(data):
        current = bend(current, move)
    current.check_relators()


def test_composition_in_parameter_exact():
    data = RectangularCuspData(3, b=[F(1), F(2)], s=[0.0, 0.0])
    gens = standard_cusp_generators(data)
    rep = MarkedRep(3, {"g2": gens[0], "g3": gens[1]})
    dec = Decomposition("amalgam", side1=["g2"], side2=["g3"], edge_words=[])
    c1 = ProjMap.diagonal([F(1), F(3), F(1), F(1)])
    c2 = ProjMap.diagonal([F(1), F(5, 2), F(1), F(1)])
    twice = bend(bend(rep, BendingMove(dec, c1)), BendingMove(dec, c2))
    once = bend(rep, BendingMove(dec, compose(c2, c1)))
    for name in rep.names():
        assert np.array_equal(fraction_matrix(twice.generators[name]),
                              fraction_matrix(once.generators[name]))


def test_rep_and_move_json_roundtrip():
    data = RectangularCuspData(3, b=[1.0, 1.0], s=[0.4, 0.0])
    rep = cusp_fixture_rep(data)
    back = MarkedRep.from_json(rep.to_json())
    for name in rep.names():
        assert np.array_equal(back.generators[name].entries,
                              rep.generators[name].entries)
    assert back.relators == rep.relators
    # moves are input only: the move is read from its JSON form as written
    move = cusp_bending_moves(data)[0]
    move_back = BendingMove.from_json({"kind": "hnn", "base": ["g3"], "stable": "g2",
                                       "edge_words": [["g3"]],
                                       "centralizer": move.centralizer.entries.tolist()})
    assert move_back.decomposition == move.decomposition
    assert np.array_equal(move_back.centralizer.entries, move.centralizer.entries)


def _rotation(size, i, j, cos, sin):
    rows = [[F(int(r == c)) for c in range(size)] for r in range(size)]
    rows[i][i], rows[i][j], rows[j][i], rows[j][j] = cos, -sin, sin, cos
    return ProjMap(rows)


@st.composite
def rational_orthogonal(draw, size):
    """A scalar times a signed permutation times a rotation by (3/5, 4/5):
    every product of a few of them has entries with small powers of 5 as
    denominators, so two such products are equal or differ by far more than
    the tolerance."""
    perm = draw(st.permutations(range(size)))
    signs = draw(st.lists(st.sampled_from([F(1), F(-1)]), min_size=size, max_size=size))
    m = ProjMap([[signs[r] if c == perm[r] else F(0) for c in range(size)] for r in range(size)])
    i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
    cos, sin = draw(st.sampled_from([(F(3, 5), F(4, 5)), (F(4, 5), F(-3, 5)), (F(1), F(0))]))
    scale = draw(st.sampled_from([F(1), F(-1), F(2), F(-1, 2), F(3)]))
    return compose(ProjMap.diagonal([scale] * size), compose(m, _rotation(size, i, j, cos, sin)))


def _inverse_word(word):
    return [(name, -exp) for name, exp in reversed(word)]


@pytest.mark.parametrize("mode", ["exact", "float", "mixed"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_verdicts_match_per_word_evaluation(mode, data):
    """Relator, centralizer and comparison checks decided in one stacked pass
    agree with evaluating each word on its own with the reference ``evaluate``
    and comparing by the reference rule, for exact, float and mixed
    representations.  A perturbation letter p = I + delta E (delta 0 or at
    least 1e-6) keeps every case away from the tolerance."""
    draw = data.draw
    size = draw(st.integers(3, 5))
    n = size - 1
    names = ["a", "b", "c"]
    gens = {name: draw(rational_orthogonal(size)) for name in names}
    delta = draw(st.sampled_from([F(0), F(1, 10 ** 6), F(1, 1000)]))
    e = draw(st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=size, max_size=size),
                      min_size=size, max_size=size).filter(lambda rows: any(map(any, rows))))
    gens["p"] = ProjMap([[int(r == c) + delta * e[r][c] for c in range(size)]
                         for r in range(size)])
    if mode == "float":
        gens = {name: g.to_float() for name, g in gens.items()}
    elif mode == "mixed":
        gens["p"] = gens["p"].to_float()
    rep = MarkedRep(n, gens, check=False)
    letter = st.tuples(st.sampled_from(names), st.sampled_from([1, -1, 2, -2, 3, -3]))
    word = st.lists(letter, max_size=3)
    tol = 1e-9

    checks = _Checks(n, rep.generators)
    state = checks.state(rep.generators)
    ident = ProjMap.identity(n, exact=mode == "exact")
    cases = []                         # (key, reference verdict)

    def add(lhs, rhs, want):
        key = (lhs, rhs, tol)
        checks.require(*key, len(cases))
        cases.append((key, want))

    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["relator", "conjugated_p", "centralizer", "compare",
                                     "evaluated"]))
        x = tuple(draw(word))
        if kind == "relator":
            rel = x + tuple(draw(word))
        elif kind == "conjugated_p":
            rel = x + (("p", draw(st.sampled_from([1, -1, 2]))),) + tuple(_inverse_word(x))
        if kind in ("relator", "conjugated_p"):
            add(checks.word(state, rel), checks.word(state, ()),
                ref_equiv_maps(evaluate(rep, rel), ident, tol))
        elif kind == "centralizer":
            c = draw(st.sampled_from([gens["a"], gens["p"], ProjMap.diagonal([-2] * size),
                                      compose(gens["b"], gens["p"])]))
            img = evaluate(rep, x)
            w, lc = checks.word(state, x), checks.letter(c)
            add((lc, *w), (*w, lc), ref_equiv_maps(compose(c, img), compose(img, c), tol))
        elif kind == "evaluated":
            # the word against its own image as one letter: fails if the
            # stacked product runs in any other order
            img = evaluate(rep, x + (("p", 1),))
            add(checks.word(state, x + (("p", 1),)), (checks.letter(img),),
                ref_equiv_maps(img, img, tol))
        else:
            g = gens[draw(st.sampled_from(names))]
            h = draw(st.sampled_from([g, compose(g, gens["p"]), gens["c"]]))
            add((checks.letter(g),), (checks.letter(h),), ref_equiv_maps(g, h, tol))

    verdicts = dict(zip(checks._checks.values(), checks._verdicts()[0].tolist()))
    for key, want in cases:
        assert verdicts[checks._checks[key]] == want
