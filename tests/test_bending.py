from fractions import Fraction as F

import numpy as np
import pytest

from cuspbend.bending import (
    BendingMove,
    CentralizerCheckFailed,
    Decomposition,
    MarkedRep,
    NonCommutingMoves,
    RelatorViolation,
    bend,
    centralizes_check,
    commute_check,
    iterated_bend,
    parse_word,
)
from cuspbend.cusp_classify import RectangularCuspData, bent_cusp_generators, standard_cusp_generators
from cuspbend.cusp_models import hyperplane_centralizer_element
from cuspbend.projlin import ProjMap, compose, inverse, proj_equiv
from cuspbend.verify import cusp_bending_moves, cusp_fixture_rep


def test_parse_word():
    assert parse_word(["a", "b^-1", ("c", 1)]) == (("a", 1), ("b", -1), ("c", 1))


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
    word_val = rep.evaluate(["g2", "g2", "g2^-1"])
    assert proj_equiv(word_val, g2, 1e-12)


def test_marked_rep_inverts_each_generator_once(monkeypatch):
    import cuspbend.bending as bending_mod
    calls = []

    def counting_inverse(g):
        calls.append(g)
        return inverse(g)

    monkeypatch.setattr(bending_mod, "inverse", counting_inverse)
    rep = fixture_rep()                   # checks three commutator relators
    assert len(calls) == 3
    assert proj_equiv(rep.evaluate(["g2^-1", "g4^-2"]),
                      inverse(compose(rep.generators["g4"],
                                      compose(rep.generators["g4"], rep.generators["g2"]))),
                      1e-12)
    assert len(calls) == 3
    assert {id(g) for g in calls} == {id(rep.generators[name]) for name in ("g2", "g3", "g4")}


def test_centralizes_check_examples():
    rep = fixture_rep()
    ident = ProjMap.identity(4, exact=False)
    assert centralizes_check(ident, [["g2"], ["g3"]], rep)
    c = hyperplane_centralizer_element(2, tparam=1.0, n=4).to_float()
    assert centralizes_check(c, [["g3"], ["g4"], ["g3", "g4"]], rep)
    assert not centralizes_check(c, [["g2"]], rep)


def test_commute_check_examples():
    ident = ProjMap.identity(2, exact=False)
    anything = ProjMap([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    assert commute_check(anything, ProjMap.identity(2, exact=False))
    d1 = ProjMap.diagonal([1.0, 2.0, 3.0])
    d2 = ProjMap.diagonal([5.0, 1.0, 2.0])
    assert commute_check(d1, d2)
    swap = ProjMap([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert not commute_check(ProjMap.diagonal([1.0, 2.0, 1.0]), swap)


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
    c = hyperplane_centralizer_element(2, tparam=0.6, n=4).to_float()
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
    c = hyperplane_centralizer_element(3, tparam=0.9, n=4).to_float()
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
    c = hyperplane_centralizer_element(2, tparam=1.0, n=4).to_float()
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
    fwd = iterated_bend(rep, moves, verify_order=True,
                        rng=np.random.default_rng(0))
    rev = iterated_bend(rep, moves[::-1])
    for name in rep.names():
        assert proj_equiv(fwd.generators[name], rev.generators[name], 1e-12)


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
        assert np.array_equal(twice.generators[name].entries,
                              once.generators[name].entries)


def test_rep_and_move_json_roundtrip():
    data = RectangularCuspData(3, b=[1.0, 1.0], s=[0.4, 0.0])
    rep = cusp_fixture_rep(data)
    back = MarkedRep.from_json(rep.to_json())
    for name in rep.names():
        assert np.array_equal(back.generators[name].entries,
                              rep.generators[name].entries)
    assert back.relators == rep.relators
    move = cusp_bending_moves(data)[0]
    move_back = BendingMove.from_json(move.to_json())
    assert move_back.decomposition == move.decomposition
    assert np.array_equal(move_back.centralizer.entries, move.centralizer.entries)
