import ast
import copy
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cuspbend.bending import MAX_WORD_EXPONENT
from cuspbend.cli import main
from cuspbend.cusp_classify import RectangularCuspData, bent_cusp_generators
from cuspbend.hilbert import klein_distance
from cuspbend.projlin import matrix_from_json, proj_equiv
from cuspbend.verify import cusp_bending_moves, cusp_fixture_rep


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_sweep_single_point(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "2", "--b", "1",
                 "--grid", f"{math.log(2)}:{math.log(2)}:1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["s_2", "a_2", "ainv_2", "type"]
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(2.1640425613334453, rel=1e-15)
    assert rows[0][3] == "1"


def test_sweep_zero_rows_and_monotone_inverse(tmp_path):
    out = tmp_path / "sweep.csv"
    svg = tmp_path / "chart.svg"
    code = main(["sweep", "--n", "3", "--b", "1", "--grid", "0:2:41",
                 "--slots", "2", "--out", str(out), "--svg", str(svg)])
    assert code == 0
    header, rows = read_csv(out)
    assert rows[0][header.index("a_2")] == "inf"
    assert float(rows[0][header.index("ainv_2")]) == 0.0
    assert rows[0][header.index("type")] == "0"
    ainv = [float(r[header.index("ainv_2")]) for r in rows]
    assert all(b > a for a, b in zip(ainv, ainv[1:]))
    assert all(r[header.index("type")] == "1" for r in rows[1:])
    assert svg.read_text().startswith("<svg")


def test_sweep_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--n", "4", "--b", "1,0.5,2", "--grid", "0.1:1.5:7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_output_matches_fixture(tmp_path):
    """Byte-identical ``sweep`` CSV and SVG for n = 2..6, all slots and
    subsets, grids from 0 and one-point grids, against outputs recorded with
    the per-row ``conjugate_and_match`` implementation."""
    fixture = Path(__file__).parent / "fixtures" / "sweep.json"
    cases = json.loads(fixture.read_text())["cases"]
    assert {case["argv"][1] for case in cases} == {"2", "3", "4", "5", "6"}
    csv, svg = tmp_path / "sweep.csv", tmp_path / "chart.svg"
    for case in cases:
        extra = ["--svg", str(svg)] if "svg" in case else []
        assert main(["sweep"] + case["argv"] + ["--out", str(csv)] + extra) == 0, case["name"]
        assert csv.read_text() == case["csv"], case["name"]
        if "svg" in case:
            assert svg.read_text() == case["svg"], case["name"]


def test_verify_subcommand_report(tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--suite", "projlin", "--seed", "7",
                 "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["all_pass"] is True
    assert report["seed"] == 7
    assert {p["suite"] for p in report["properties"]} == {"projlin"}


def test_verify_negative_control():
    code = main(["verify", "--suite", "cusp_models", "--perturb-h", "1e-3"])
    assert code == 1


def test_verify_fails_on_nan_distance(monkeypatch, capsys):
    from cuspbend import hilbert
    real = hilbert.hilbert_distances

    def one_nan_row(dom, x, y):
        d = np.array(real(dom, x, y))
        d[0] = math.nan
        return d

    monkeypatch.setattr(hilbert, "hilbert_distances", one_nan_row)
    assert main(["verify", "--suite", "hilbert"]) == 1
    assert "FAIL hilbert.metric-axioms-ball" in capsys.readouterr().out


def test_verify_report_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "projlin", "--seed", "3", "--out", str(a)]) == 0
    assert main(["verify", "--suite", "projlin", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_unknown_suite_is_usage_error():
    assert main(["verify", "--suite", "nope"]) == 2


def test_bend_subcommand(tmp_path):
    data = RectangularCuspData(3, b=[1.0, 1.0], s=[0.5, 0.0])
    rep = cusp_fixture_rep(data)
    moves = cusp_bending_moves(data)
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(
        {"rep": rep.to_json(), "moves": [m.to_json() for m in moves]}))
    out = tmp_path / "bent.json"
    code = main(["bend", "--in", str(bundle), "--out", str(out), "--verify-order"])
    assert code == 0
    result = json.loads(out.read_text())
    got = matrix_from_json(result["generators"]["g2"])
    want = bent_cusp_generators(data)[0].to_float()
    assert proj_equiv(got, want, 1e-12)


def test_classify_subcommand_exact(tmp_path):
    src = tmp_path / "data.json"
    src.write_text(json.dumps({"n": 3, "b": ["1", "1"], "mu": ["2", "1"]}))
    out = tmp_path / "cls.json"
    assert main(["classify", "--in", str(src), "--exact", "--out", str(out)]) == 0
    cls = json.loads(out.read_text())
    assert cls["type"] == 1
    assert cls["residual"] == "0"
    assert cls["psi"][0] == pytest.approx(2.1640425613334453, rel=1e-15)


def test_classify_exact_builds_no_fraction_matrix(tmp_path, monkeypatch):
    """From the parsed b and mu to the written JSON, ``classify --exact``
    stays on integer arrays: no Fraction-matrix split, every exact map it
    meets holds no ``entries``, and a number of Fractions linear in n (the
    parsed input, the residual and its string), far below the (n+1)^2
    entries of one matrix."""
    import fractions

    import cuspbend.cusp_classify as cusp_classify
    import cuspbend.projlin as projlin

    def refuse(*args):
        raise AssertionError("Fraction matrix built on the exact route")

    for module in (projlin, cusp_classify):
        monkeypatch.setattr(module, "_exact_parts", refuse, raising=False)
    met = _record_maps(monkeypatch)
    made = []
    new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    n = 9
    src, out = tmp_path / "data.json", tmp_path / "cls.json"
    src.write_text(json.dumps({"n": n, "b": [f"{k + 2}/{k + 3}" for k in range(n - 1)],
                               "mu": [f"{k + 5}/3" if k % 3 else "1" for k in range(n - 1)]}))
    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    assert main(["classify", "--in", str(src), "--exact", "--out", str(out)]) == 0
    monkeypatch.undo()
    cls = json.loads(out.read_text())
    assert cls["residual"] == "0" and cls["type"] == 5
    assert len(cls["conjugator"]) == n + 1
    assert len(made) <= 2 * (n - 1) + 4 < (n + 1) ** 2
    exact = [m for m in met if m.exact]
    assert exact and all(m.entries is None for m in exact)


def _record_maps(monkeypatch) -> list:
    """Every ``ProjMap`` built from here on, in the list returned."""
    from cuspbend.projlin import ProjMap
    met, set_ = [], ProjMap._set

    def recording_set(self, num, den, entries):
        set_(self, num, den, entries)
        met.append(self)

    monkeypatch.setattr(ProjMap, "_set", recording_set)
    return met


def test_classify_subcommand_generators(tmp_path):
    from cuspbend.cusp_models import CuspParameter, h_element
    from cuspbend.projlin import matrix_to_json
    psi = CuspParameter([1.5, 0.0, 0.0])
    gens = [h_element(psi, [2.0], [0.3]).matrix,
            h_element(psi, [0.5], [-1.0]).matrix]
    src = tmp_path / "gens.json"
    src.write_text(json.dumps({"generators": [matrix_to_json(g) for g in gens]}))
    out = tmp_path / "cls.json"
    assert main(["classify", "--in", str(src), "--out", str(out)]) == 0
    cls = json.loads(out.read_text())
    assert cls["type"] == 1
    assert cls["psi"][0] == pytest.approx(1.5, abs=1e-9)


def test_classify_exact_output_matches_fixture(tmp_path):
    """Byte-identical ``classify --exact`` output for n = 3..6 and every type,
    against outputs recorded with the Fraction-matrix implementation."""
    fixture = Path(__file__).parent / "fixtures" / "classify_exact.json"
    cases = json.loads(fixture.read_text())["cases"]
    assert {case["input"]["n"] for case in cases} == {3, 4, 5, 6}
    src, out = tmp_path / "data.json", tmp_path / "cls.json"
    for case in cases:
        src.write_text(json.dumps(case["input"]))
        assert main(["classify", "--in", str(src), "--exact", "--out", str(out)]) == 0
        assert out.read_text() == case["output"], case["name"]


def test_classify_float_output_matches_fixture(tmp_path):
    """Byte-identical float ``classify`` output for n = 2..6 and every type,
    with s, mu or both given, against outputs recorded with the per-slot
    ``ProjMap`` conjugation."""
    fixture = Path(__file__).parent / "fixtures" / "classify_float.json"
    cases = json.loads(fixture.read_text())["cases"]
    assert {case["input"]["n"] for case in cases} == {2, 3, 4, 5, 6}
    src, out = tmp_path / "data.json", tmp_path / "cls.json"
    for case in cases:
        src.write_text(json.dumps(case["input"]))
        assert main(["classify", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_text() == case["output"], case["name"]


def _without_residual(text):
    return re.sub(r'\n  "residual": [^\n]*\n', "\n", text)


def test_classify_generators_output_matches_fixture(tmp_path):
    """``classify --in`` on model-form generators from ``h_element`` (n =
    2..6, every type t < n, with a product, a rescaled generator, a permuted
    diagonal block and exact "p/q" copies of the same floats) keeps the
    bytes of psi, type and conjugator recorded before the generators route
    was scored by the relative normal-form residual; only the residual may
    move, and it stays at rounding level."""
    fixture = Path(__file__).parent / "fixtures" / "classify_generators.json"
    cases = json.loads(fixture.read_text())["cases"]
    assert {len(case["input"]["generators"][0]) - 1 for case in cases} == {2, 3, 4, 5, 6}
    src, out = tmp_path / "gens.json", tmp_path / "cls.json"
    for case in cases:
        src.write_text(json.dumps(case["input"]))
        assert main(["classify", "--in", str(src), "--out", str(out)]) == 0, case["name"]
        text = out.read_text()
        assert _without_residual(text) == _without_residual(case["output"]), case["name"]
        assert 0.0 <= json.loads(text)["residual"] <= 1e-14, case["name"]


def test_classify_generators_conjugated_in_floats(tmp_path):
    """The bent generator of n = 2, b = 1, s = 1.9, conjugated by the float
    conjugator of the bending route and normalized: its entry [0, 1] is
    rounding noise, -5.55e-17 against a largest entry of 6.69, and it exited
    1 as a miss of the normal form by 1.0.  It exits 0 with the bending
    route's type and psi."""
    from cuspbend.cusp_classify import conjugate_and_match
    from cuspbend.projlin import compose, inverse
    data = RectangularCuspData(2, b=[1.0], s=[1.9])
    cls = conjugate_and_match(data)
    conj = cls.conjugator.to_float()
    m = compose(compose(conj, bent_cusp_generators(data)[0].to_float()), inverse(conj)).entries
    m = m / m[-1, -1]
    assert 0.0 < abs(m[0, 1]) <= 1e-16 and np.max(np.abs(m)) > 6.0
    src, out = tmp_path / "gens.json", tmp_path / "cls.json"
    src.write_text(json.dumps({"generators": [m.tolist()]}))
    assert main(["classify", "--in", str(src), "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert got["type"] == cls.type == 1
    assert got["psi"] == pytest.approx(list(cls.psi.psi), rel=1e-12)
    assert 0.0 <= got["residual"] <= 1e-15


def test_generators_in_model_form_for_no_type_exit_1(tmp_path, capsys):
    """Three n = 3 generators diag(1, d1, d2, 1) with corner -a log d1 move
    both slots but solve psi = (a, 0): 400 such sets read type 1 or type 2
    by the rounding sign of the zero entry, with exit 0, until the type was
    the number of moved slots.  Every set now exits 1."""
    rng = np.random.default_rng(17)
    src, out = tmp_path / "gens.json", tmp_path / "cls.json"
    for _ in range(400):
        a, gens = rng.uniform(0.1, 3.0), []
        for _ in range(3):
            m = np.eye(4)
            m[1, 1], m[2, 2] = np.exp(rng.uniform(-1.0, 1.0, 2))
            m[0, 3] = -a * math.log(m[1, 1])
            gens.append(m.tolist())
        src.write_text(json.dumps({"generators": gens}))
        assert main(["classify", "--in", str(src), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("cuspbend: moved slot 3 solves to no positive parameter")
        assert abs(float(lines[1].removeprefix("residual: "))) <= 1e-12
    assert not out.exists()


def _model_generators():
    """Three type-1 generators in dimension 3 (the third is the product of the
    first two), as float matrices."""
    from cuspbend.cusp_models import CuspParameter, h_element, h_product
    psi = CuspParameter([1.5, 0.0, 0.0])
    a, b = h_element(psi, [2.0], [0.3]), h_element(psi, [0.5], [-1.0])
    return [g.matrix.entries.tolist() for g in (a, b, h_product(a, b))]


@pytest.mark.parametrize("count,which,at,change", [
    (3, 0, (1, 2), lambda x: 2e-5),              # off the pattern, 2e-5
    (3, 2, (1, 1), lambda x: x * (1 + 1e-6)),    # d
    (3, 2, (2, 3), lambda x: x * (1 + 1e-6)),    # v in the last column
    (3, 2, (0, 2), lambda x: x * (1 + 1e-6)),    # v in row 0
    (3, 2, (0, 3), lambda x: x * (1 + 1e-6)),    # corner
    (2, 1, (0, 3), lambda x: x + 0.01),          # corner of a two-generator set
    (2, 1, (0, 3), lambda x: x + 0.5),
])
def test_classify_generators_off_normal_form_is_property_failure(tmp_path, capsys, count,
                                                                 which, at, change):
    """Negative controls: an entry off the model block pattern, a relative 1e-6
    change to one d, v or corner entry, or a shifted corner misses the normal
    form at the default tol, and exits 1 with the residual."""
    gens = _model_generators()[:count]
    gens[which][at[0]][at[1]] = change(gens[which][at[0]][at[1]])
    src, out = tmp_path / "gens.json", tmp_path / "cls.json"
    src.write_text(json.dumps({"generators": gens}))
    assert main(["classify", "--in", str(src), "--out", str(out)]) == 1
    assert not out.exists()
    first, second = capsys.readouterr().err.splitlines()
    assert first.startswith("cuspbend: conjugated generators miss the normal form by ")
    assert float(second.removeprefix("residual: ")) > 1e-9


@pytest.mark.parametrize("at,entry", [((2, 2), "1"), ((2, 3), "1/2"), ((0, 2), "1/2")])
def test_exact_generators_meet_the_pattern_on_integers(tmp_path, capsys, at, entry):
    """An exact type-0 generator whose unit entry or one copy of v is moved
    by 10^-30 reads as the unmoved one in floats, and exited 0 with type 0.
    It now exits 1 with that exact deviation as the residual."""
    gen = [["1", "0", "1/2", "1/8"], ["0", "1", "0", "0"], ["0", "0", "1", "1/2"],
           ["0", "0", "0", "1"]]
    src, out = tmp_path / "gens.json", tmp_path / "cls.json"
    src.write_text(json.dumps({"generators": [gen]}))
    assert main(["classify", "--in", str(src), "--out", str(out)]) == 0
    gen[at[0]][at[1]] = str(Fraction(entry) + Fraction(1, 10 ** 30))
    src.write_text(json.dumps({"generators": [gen]}))
    out.unlink()
    assert main(["classify", "--in", str(src), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "cuspbend: exact generator 0 misses the model pattern by 1.000e-30\n"
        f"residual: 1/{10 ** 30}\n")


def test_classify_exact_flag_on_generators_is_usage_error(tmp_path, capsys):
    src, out = tmp_path / "gens.json", tmp_path / "cls.json"
    src.write_text(json.dumps({"generators": _model_generators()}))
    assert main(["classify", "--in", str(src), "--exact", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "cuspbend: --exact needs bending data (n, b, mu), not generators\n")


@pytest.mark.parametrize("data", [
    {"n": 3, "b": [1.0, 1.0], "s": [math.nan, 0.0]},
    {"n": 3, "b": [math.nan, 1.0], "s": [0.5, 0.0]},
    {"n": 3, "b": [1.0, math.inf], "s": [0.5, 0.0]},
    {"n": 3, "b": [1.0, 1.0], "mu": [math.inf, 1.0]},
    {"n": 3, "b": [1.0, 1.0], "mu": [math.nan, 1.0]},
    {"n": 3, "b": [1.0, 1.0], "s": [1e-17, 0.0]},
    {"n": 3, "b": [1.0, 1.0], "s": [710.0, 0.0]},
    {"n": 3, "b": [1.0, 1.0], "s": [1e300, 0.0]},
])
def test_classify_bad_bending_data_is_usage_error(tmp_path, capsys, data):
    src, out = tmp_path / "data.json", tmp_path / "cls.json"
    src.write_text(json.dumps(data))
    assert main(["classify", "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


SMALL_S = ("bending parameter s_{} = {} is below 1e-08; float classification is "
           "ill-conditioned there, supply exact mu instead")


@pytest.mark.parametrize("args", [
    (["--n", "3", "--b", "nan", "--grid", "0:1:3"], "shape constants must be finite"),
    (["--n", "3", "--b", "1,inf", "--grid", "0:1:3"], "shape constants must be finite"),
    (["--n", "3", "--grid", "0:inf:2"], "grid bounds must be finite"),
    (["--n", "3", "--grid", "nan:1:2"], "grid bounds must be finite"),
    (["--n", "3", "--grid", "0:1e-17:2"], "row 1: " + SMALL_S.format(2, "1e-17")),
    (["--n", "3", "--grid", "1e-9:1:3", "--slots", "3"], "row 0: " + SMALL_S.format(3, "1e-09")),
    (["--n", "3", "--grid", "0:710:2"], "bending parameter 710.0 is too large: exp(s) overflows"),
    # argparse reads -1:1:3 as an option, so this one stops before the data
    (["--n", "3", "--grid", "-1:1:3"], "argument --grid: expected one argument"),
    (["--n", "3", "--grid=-1:1:3"], "bending parameters must be nonnegative"),
    (["--n", "3", "--b", "1,,2", "--grid", "0:1:3"], "--b has an empty entry: '1,,2'"),
    (["--n", "3", "--b", "1,2,", "--grid", "0:1:3"], "--b has an empty entry: '1,2,'"),
    # the first row refused decides the message
    (["--n", "3", "--grid=710:-1:2"], "bending parameter 710.0 is too large: exp(s) overflows"),
    (["--n", "3", "--grid=-1:710:2"], "bending parameters must be nonnegative"),
    # stop - start overflows: the first row is nan
    (["--n", "3", "--grid=-1.7e308:1.7e308:3"], "bending parameters must be finite"),
])
def test_sweep_bad_bending_data_is_usage_error(tmp_path, capsys, args):
    argv, message = args
    out = tmp_path / "sweep.csv"
    assert main(["sweep"] + argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] in (f"cuspbend: {message}", f"cuspbend sweep: error: {message}")


def test_sweep_small_bending_beside_unbent_slots_matches(tmp_path):
    # at n = 6 with b = 2, s = 1e-5 on two slots once missed the default
    # tolerance on the three unbent slots, through the rounding of A^{-1}
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "6", "--b", "2", "--grid", "0.5:1e-5:2",
                 "--slots", "2,6", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["2", "2"]


def test_sweep_pattern_mismatch_names_first_bad_row(tmp_path, capsys, monkeypatch):
    # no valid grid misses the normal form, so a residual is injected
    import cuspbend.cli as cli_mod
    real = cli_mod.conjugation_residuals

    def second_row_off(b, s, mu):
        residuals = real(b, s, mu)
        residuals[1:] = 1e-6
        return residuals

    monkeypatch.setattr(cli_mod, "conjugation_residuals", second_row_off)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "6", "--b", "2", "--grid", "0.5:1e-5:3",
                 "--slots", "2,6", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "row 1:" in err
    assert float(err.rsplit("residual: ", 1)[1]) == 1e-6


def test_classify_pattern_mismatch_is_property_failure(tmp_path, capsys):
    src = tmp_path / "data.json"
    src.write_text(json.dumps({"n": 3, "b": [1.0, 1.0], "s": [0.5, 0.0]}))
    assert main(["classify", "--in", str(src), "--tol", "0"]) == 1
    residual = float(capsys.readouterr().err.rsplit("residual: ", 1)[1])
    assert 0.0 < residual <= 1e-12
    assert main(["classify", "--in", str(src)]) == 0


def test_classify_exact_flag_rejects_floats(tmp_path):
    src = tmp_path / "data.json"
    src.write_text(json.dumps({"n": 3, "b": [1.0, 1.0], "s": [0.5, 0.0]}))
    assert main(["classify", "--in", str(src), "--exact"]) == 2


def test_hilbert_subcommand(tmp_path):
    src = tmp_path / "pairs.json"
    pairs = [[[0.0, 0.0], [0.5, 0.0]], [[0.1, -0.2], [0.3, 0.3]]]
    src.write_text(json.dumps({"domain": {"kind": "ball", "n": 2}, "pairs": pairs}))
    out = tmp_path / "dist.csv"
    assert main(["hilbert", "--in", str(src), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "d"]
    for row, (x, y) in zip(rows, pairs):
        assert float(row[-1]) == pytest.approx(klein_distance(x, y), abs=1e-9)


def test_hilbert_csv_matches_per_value_format(tmp_path):
    from cuspbend.cli import _fmt
    for v in (0.1, -0.0, 1e-310, 1.0 / 3.0, 1e22, math.inf, -math.inf):
        assert "%.17g" % v == _fmt(v)
    # model domain psi = (0, 0, 0): a generic pair, x = y, and a chord whose
    # upper end is at infinity
    pairs = [[[1.0, 0.2, -0.3], [2.0, 0.5, 0.4]],
             [[1.0, 0.2, -0.3], [1.0, 0.2, -0.3]],
             [[1.0, 0.2, -0.3], [3.0, 0.2, -0.3]]]
    src = tmp_path / "pairs.json"
    src.write_text(json.dumps({"domain": {"kind": "model", "psi": [0.0, 0.0, 0.0]},
                               "pairs": pairs}))
    out = tmp_path / "dist.csv"
    assert main(["hilbert", "--in", str(src), "--out", str(out)]) == 0
    dists = [float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()[1:]]
    assert dists[1] == 0.0 and 0.0 < dists[2] < math.inf
    lines = ["x,y,d"] + [
        '"{}","{}",{}'.format(" ".join(map(_fmt, x)), " ".join(map(_fmt, y)), _fmt(d))
        for (x, y), d in zip(pairs, dists)]
    assert out.read_text() == "\n".join(lines) + "\n"


def test_hilbert_output_matches_fixture(tmp_path):
    """Byte-identical ``hilbert`` CSV for the ball in n = 2, 3 and the model
    domains psi = (0, 0, 0), (a, 0, 0), (a, b, 0) and (a, b, 0, 0), about 40
    seeded pairs each: generic and near-coincident pairs (|y - x| down to
    1e-15), x = y, and on the model domains chords with one or both ends at
    infinity.  Recorded with the masked bisection march."""
    fixture = Path(__file__).parent / "fixtures" / "hilbert_csv.json"
    cases = json.loads(fixture.read_text())["cases"]
    assert len(cases) == 6 and all(len(case["input"]["pairs"]) >= 40 for case in cases)
    src, out = tmp_path / "pairs.json", tmp_path / "dist.csv"
    for case in cases:
        src.write_text(json.dumps(case["input"]))
        assert main(["hilbert", "--in", str(src), "--out", str(out)]) == 0, case["name"]
        assert out.read_text() == case["csv"], case["name"]


@pytest.mark.parametrize("psi", [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0]])
def test_hilbert_non_finite_psi_is_usage_error(tmp_path, capsys, psi):
    src, out = tmp_path / "pairs.json", tmp_path / "dist.csv"
    src.write_text(json.dumps({"domain": {"kind": "model", "psi": psi},
                               "pairs": [[[1.0, 0.2, -0.3], [2.0, 0.5, 0.4]]]}))
    assert main(["hilbert", "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "psi_1" in err and "not finite" in err and "Traceback" not in err


def test_hilbert_reads_coordinate_strings_like_psi(tmp_path, capsys):
    """A "p/q" coordinate reads as parse_scalar reads psi, a decimal string
    as before, and both give the bytes of the same pairs written as numbers;
    a string neither reads keeps numpy's message."""
    src, out = tmp_path / "pairs.json", tmp_path / "dist.csv"
    outputs = []
    for pairs in ([[[0.5, 0], [0, -0.25]], [[0.1, 0.2], [-0.3, 0.4]]],
                  [[["1/2", "0"], [0, "-1/4"]], [["0.1", 0.2], ["-3/10", "0.4"]]]):
        src.write_text(json.dumps({"domain": {"kind": "ball", "n": 2}, "pairs": pairs}))
        assert main(["hilbert", "--in", str(src), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    out.unlink()
    for bad in ("abc", "1/0"):
        src.write_text(json.dumps({"domain": {"kind": "ball", "n": 2},
                                   "pairs": [[[0, 0], [0.5, 0]], [[bad, 0], [0, 0]]]}))
        assert main(["hilbert", "--in", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"cuspbend: could not convert string to float: '{bad}'\n"
        assert not out.exists()


def test_main_keeps_no_state_between_calls(tmp_path):
    """The parser is built once per process; no parsed value may carry over."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["verify", "--suite", "projlin", "--suite", "cusp_models", "--seed", "5",
                 "--perturb-h", "1e-3", "--out", str(first)]) == 1
    src = tmp_path / "pairs.json"
    src.write_text(json.dumps({"domain": {"kind": "ball", "n": 2},
                               "pairs": [[[0.0, 0.0], [0.5, 0.0]]]}))
    assert main(["hilbert", "--in", str(src), "--out", str(tmp_path / "d.csv")]) == 0
    assert main(["verify", "--suite", "projlin", "--out", str(second)]) == 0
    report = json.loads(first.read_text())
    assert (report["suites"], report["seed"], report["all_pass"]) == (
        ["cusp_models", "projlin"], 5, False)
    report = json.loads(second.read_text())
    assert (report["suites"], report["seed"], report["all_pass"]) == (["projlin"], 0, True)
    assert main(["verify", "--suite", "nope"]) == 2
    assert main(["hilbert", "--in", str(src), "--out", str(tmp_path / "e.csv")]) == 0
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "e.csv").read_bytes()


def test_missing_input_is_io_error(tmp_path):
    assert main(["classify", "--in", str(tmp_path / "absent.json")]) == 2


def test_bad_grid_is_usage_error():
    assert main(["sweep", "--n", "2", "--grid", "nonsense"]) == 2


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "cuspbend.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout


def test_bend_output_matches_fixture(tmp_path):
    """Byte-identical ``bend`` output, with and without ``--verify-order``,
    for n = 3..6, HNN and amalgam moves, exact and float, two seeds, against
    outputs recorded with the per-word relator and centralizer checks."""
    fixture = Path(__file__).parent / "fixtures" / "bend.json"
    cases = json.loads(fixture.read_text())["cases"]
    assert {case["input"]["rep"]["n"] for case in cases} == {3, 4, 5, 6}
    kinds = {move["kind"] for case in cases for move in case["input"]["moves"]}
    assert kinds == {"hnn", "amalgam"}
    src, out = tmp_path / "bundle.json", tmp_path / "bent.json"
    for case in cases:
        src.write_text(json.dumps(case["input"]))
        for extra in ([], ["--verify-order"]):
            argv = ["bend", "--in", str(src), "--out", str(out)] + case["argv"] + extra
            assert main(argv) == 0, case["name"]
            assert out.read_text() == case["output"], (case["name"], extra)


def test_bend_failure_contract(tmp_path, capsys):
    """Each failing ``bend`` input raises the recorded exception type and
    message through the API, and the CLI exits with the recorded code and
    standard error, writing nothing.  Several inputs hold two faults, so the
    order of the checks decides which one is reported."""
    from cuspbend.bending import BendingMove, MarkedRep, iterated_bend
    fixture = Path(__file__).parent / "fixtures" / "bend_failures.json"
    cases = json.loads(fixture.read_text())["cases"]
    src = tmp_path / "bundle.json"
    for case in cases:
        bundle = case["input"]
        with pytest.raises(Exception) as info:
            rep = MarkedRep.from_json(bundle["rep"])
            moves = [BendingMove.from_json(m) for m in bundle["moves"]]
            iterated_bend(rep, moves, verify_order="--verify-order" in case["argv"],
                          rng=np.random.default_rng(int(case["argv"][1])))
        assert type(info.value).__name__ == case["exception"], case["name"]
        assert str(info.value) == case["message"], case["name"]
        out = tmp_path / f"{case['name']}.json"
        src.write_text(json.dumps(bundle))
        capsys.readouterr()
        code = main(["bend", "--in", str(src), "--out", str(out)] + case["argv"])
        assert code == case["exit"], case["name"]
        assert capsys.readouterr().err == case["stderr"], case["name"]
        assert not out.exists(), case["name"]


@pytest.mark.parametrize("relator_holds", [False, True])
def test_bend_input_relator_is_decided_before_a_bad_move(tmp_path, capsys, relator_holds):
    """A failing relator of the input rep is reported before a move that
    cannot be read, as when the rep was checked on reading; a rep whose
    relators hold reports the move."""
    rep = cusp_fixture_rep(RectangularCuspData(3, b=[1.0, 2.0], s=[0.0, 0.0])).to_json()
    rep["relators"] = [["g2", "g3", "g2^-1", "g3^-1"]] + ([] if relator_holds else [["g2"]])
    src, out = tmp_path / "bundle.json", tmp_path / "bent.json"
    src.write_text(json.dumps({"rep": rep, "moves": [{"kind": "hnn"}]}))
    assert main(["bend", "--in", str(src), "--out", str(out)]) == 2
    want = ("hnn decomposition needs a stable letter" if relator_holds
            else "relator ['g2'] does not map to the identity")
    assert capsys.readouterr().err == f"cuspbend: {want}\n"
    assert not out.exists()


def test_verify_output_matches_fixture(tmp_path, monkeypatch):
    """``verify --seed 0 --out`` is byte-identical to the report recorded when
    every suite scored its trials one at a time: same properties, trials,
    tolerances, notes and residuals.  It reads every exact map by its
    integers: every exact map it meets holds no ``entries`` (702
    ``Fraction`` views were built when the exact properties compared
    ``entries``)."""
    met = _record_maps(monkeypatch)
    fixture = Path(__file__).parent / "fixtures" / "verify_seed0.json"
    out = tmp_path / "report.json"
    assert main(["verify", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == fixture.read_bytes()
    exact = [m for m in met if m.exact]
    assert exact and all(m.entries is None for m in exact)


def test_exact_equality_refuses_a_float_map():
    """``verify``'s exact equality compares ``(den, num)``, which are
    ``None`` on a float map: two float maps must raise, not compare equal."""
    from cuspbend.projlin import ProjMap
    from cuspbend.verify import _same
    exact, half = ProjMap.identity(2), ProjMap([[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])
    assert _same(exact, ProjMap([[2, 0, 0], [0, 2, 0], [0, 0, 2]])) is False
    assert _same(half, ProjMap([[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])) is True
    assert _same(exact, half) is False
    for a, b in [(exact.to_float(), exact.to_float()), (exact, exact.to_float()),
                 (exact.to_float(), exact)]:
        with pytest.raises(ValueError, match="two exact maps"):
            _same(a, b)


def test_verify_type_law_fails_on_nan_residual(monkeypatch, capsys):
    from cuspbend import cusp_classify
    real = cusp_classify.conjugation_residuals

    def one_nan_row(b, s, mu):
        residuals = real(b, s, mu)
        residuals[3] = math.nan
        return residuals

    monkeypatch.setattr(cusp_classify, "conjugation_residuals", one_nan_row)
    assert main(["verify", "--suite", "classify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL classify.type-law  trials=2500  max_residual=5.000e+00" in out
    assert sum(line.startswith("FAIL ") for line in out.splitlines()) == 1


@pytest.mark.parametrize("pairs,message", [
    ([[[0, 0]]], "pairs[0] must be two points, got 1"),
    ([[]], "pairs[0] must be two points, got 0"),
    ([[[0, 0], [0, 0], [0, 0]]], "pairs[0] must be two points, got 3"),
    ([[[0, 0], [0.1, 0]], [[0, 0]]], "pairs[1] must be two points, got 1"),
    # as many pairs of numbers as the dimension passed the shape check as one row
    ([[0, 0.1], [0.2, 0.3]], "pairs[0] must be two points of dimension 2"),
])
def test_hilbert_pair_not_two_points_is_usage_error(tmp_path, capsys, pairs, message):
    src, out = tmp_path / "pairs.json", tmp_path / "dist.csv"
    src.write_text(json.dumps({"domain": {"kind": "ball", "n": 2}, "pairs": pairs}))
    assert main(["hilbert", "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"cuspbend: {message}\n"


@pytest.mark.parametrize("command,data,message", [
    ("classify", {"n": 3, "b": "12", "s": [0.5, 0.0]}, "b must be a JSON list, not '12'"),
    ("classify", {"n": 3, "b": {"1": 0, "2": 0}, "s": [0.5, 0.0]},
     "b must be a JSON list, not {'1': 0, '2': 0}"),
    ("classify", {"n": 3, "b": [1, 1], "mu": "21"}, "mu must be a JSON list, not '21'"),
    ("classify", {"generators": [["12", "34"]]}, "matrix row 0 must be a JSON list, not '12'"),
    ("hilbert", {"domain": {"kind": "model", "psi": "10"}, "pairs": [[[1.0, 0.2], [2.0, 0.5]]]},
     "psi must be a JSON list, not '10'"),
    ("hilbert", {"domain": {"kind": "model", "psi": {"1": 0, "0": 1}}, "pairs": []},
     "psi must be a JSON list, not {'1': 0, '0': 1}"),
    ("hilbert", {"domain": {"kind": "ball", "n": 1}, "pairs": [["0", "0"]]},
     "pairs[0] must be two points of dimension 1"),
    ("hilbert", {"domain": {"kind": "ball", "n": 1}, "pairs": {"00": 1}},
     "pairs must be a JSON list, not {'00': 1}"),
    ("hilbert", {"domain": "ball", "pairs": []}, "domain must be a JSON object, not 'ball'"),
    ("hilbert", {"domain": [{"kind": "ball", "n": 2}], "pairs": []},
     "domain must be a JSON object, not [{'kind': 'ball', 'n': 2}]"),
    ("hilbert", {"domain": None, "pairs": []}, "domain must be a JSON object, not None"),
    ("bend", {"rep": {"n": 2, "generators": [[[1.0, 0.0], [0.0, 1.0]]]}},
     "rep.generators must be a JSON object, not [[[1.0, 0.0], [0.0, 1.0]]]"),
    ("bend", {"rep": {"n": 2, "generators": 7}}, "rep.generators must be a JSON object, not 7"),
])
def test_string_or_dict_for_a_list_is_usage_error(tmp_path, capsys, command, data, message):
    """A string or object where a list belongs was read digit by digit or key
    by key, and often accepted; a ``domain`` or ``rep.generators`` that is
    not an object died with an ``AttributeError`` traceback."""
    src, out = tmp_path / "data.json", tmp_path / "out"
    src.write_text(json.dumps(data))
    assert main([command, "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"cuspbend: {message}\n"


def test_refused_input_keeps_its_message(tmp_path, capsys):
    """Input that ``classify`` and ``hilbert`` refused before strings and
    objects were refused as lists still gets the recorded message."""
    fixture = Path(__file__).parent / "fixtures" / "refused_input.json"
    src, out = tmp_path / "data.json", tmp_path / "out"
    for case in json.loads(fixture.read_text())["cases"]:
        src.write_text(json.dumps(case["input"]))
        assert main([case["command"], "--in", str(src), "--out", str(out)]) == 2, case
        assert capsys.readouterr().err == case["stderr"], case
        assert not out.exists()


def _integer_field_docs():
    """For each integer field, the command and a valid document with the
    field set to a given value."""
    data = RectangularCuspData(3, b=[1.0, 1.0], s=[0.5, 0.0])
    bend = {"rep": cusp_fixture_rep(data).to_json(),
            "moves": [m.to_json() for m in cusp_bending_moves(data)]}
    return {
        "classify": lambda n: ("classify", {"n": n, "b": [1.0, 1.0], "s": [0.5, 0.0]}),
        "ball": lambda n: ("hilbert", {"domain": {"kind": "ball", "n": n},
                                       "pairs": [[[0.1, 0.2], [-0.3, 0.4]]]}),
        "bend": lambda n: ("bend", {**bend, "rep": {**bend["rep"], "n": n}}),
    }


@pytest.mark.parametrize("field,value,message", [
    ("classify", 3.7, "n must be a JSON integer, not 3.7"),
    ("classify", "3", "n must be a JSON integer, not '3'"),
    ("classify", True, "n must be a JSON integer, not True"),
    ("classify", math.inf, "n must be a JSON integer, not inf"),
    ("classify", math.nan, "n must be a JSON integer, not nan"),
    ("ball", 2.5, "n must be a JSON integer, not 2.5"),
    ("ball", True, "n must be a JSON integer, not True"),
    ("ball", "2", "n must be a JSON integer, not '2'"),
    ("ball", -math.inf, "n must be a JSON integer, not -inf"),
    ("ball", 0, "n must be at least 1, got 0"),
    ("ball", -1, "n must be at least 1, got -1"),
    ("bend", 3.5, "rep.n must be a JSON integer, not 3.5"),
    ("bend", "3", "rep.n must be a JSON integer, not '3'"),
])
def test_loose_integer_field_is_usage_error(tmp_path, capsys, field, value, message):
    """``classify`` n, ``hilbert`` ball n and ``bend`` rep.n were read with
    a bare ``int``: 3.7 read as 3, "3" and true were accepted, an infinity
    died with an ``OverflowError`` traceback, nan met ``int``'s message and
    a ball n below 1 a shape or numpy error.  Each is refused by the
    field's name."""
    command, doc = _integer_field_docs()[field](value)
    src, out = tmp_path / "data.json", tmp_path / "out"
    src.write_text(json.dumps(doc))
    assert main([command, "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"cuspbend: {message}\n"


@pytest.mark.parametrize("field,value", [("classify", 3), ("ball", 2), ("bend", 3)])
def test_integral_float_reads_as_its_integer(tmp_path, field, value):
    """A whole float, 3.0 for 3, gives the bytes of the integer."""
    src, out = tmp_path / "data.json", tmp_path / "out"
    outputs = []
    for n in (value, float(value)):
        command, doc = _integer_field_docs()[field](n)
        src.write_text(json.dumps(doc))
        assert main([command, "--in", str(src), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _mutants(doc):
    """Every structural mutant of a JSON document: each object member
    dropped, and each member or list element replaced by a string, a number,
    an object, null, itself nested in a list, or (a nonempty list) itself
    without its last element; then the same inside each value."""
    def inside(node, put):
        if isinstance(node, dict):
            for key, value in node.items():
                yield put({k: v for k, v in node.items() if k != key})
                yield from replaced(value, lambda new, key=key: put({**node, key: new}))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                yield from replaced(value, lambda new, i=i: put(node[:i] + [new] + node[i + 1:]))

    def replaced(value, put):
        shorter = [value[:-1]] if isinstance(value, list) and value else []
        for new in ["x", 7, {"k": 1}, None, [value]] + shorter:
            yield put(new)
        yield from inside(value, put)

    yield from inside(doc, lambda new: new)


def _contract_inputs():
    from cuspbend.cusp_models import CuspParameter, h_element
    from cuspbend.projlin import matrix_to_json
    psi = CuspParameter([1.5, 0.0])
    data = RectangularCuspData(2, b=[1.0], s=[0.5])
    return {
        "classify-exact": ("classify", {"n": 3, "b": ["1", "3/2"], "mu": ["2", "1"]}),
        "classify-float": ("classify", {"n": 3, "b": [1.2, 0.7], "s": [0.5, 0.0]}),
        "classify-generators": ("classify", {"generators": [
            matrix_to_json(h_element(psi, [d], []).matrix) for d in (2.0, 0.5)]}),
        "hilbert-ball": ("hilbert", {"domain": {"kind": "ball", "n": 2},
                                     "pairs": [[[0.1, 0.2], [-0.3, 0.4]]]}),
        "hilbert-model": ("hilbert", {"domain": {"kind": "model", "psi": [1.0, 0.0, 0.0]},
                                      "pairs": [[[1.0, 2.0, -0.3], [2.0, 0.5, 0.4]]]}),
        "bend": ("bend", _with_words({"rep": cusp_fixture_rep(data).to_json(),
                                      "moves": [m.to_json() for m in cusp_bending_moves(data)]})),
    }


def _with_words(bend):
    """A bend document with the relator and the edge word g2 g2^-1, which
    map to the identity."""
    bend["rep"]["relators"] = [["g2", "g2^-1"]]
    bend["moves"][0]["edge_words"] = [["g2", "g2^-1"]]
    return bend


def _exponent_mutants(doc):
    """The texts of a bend document with one letter of a relator or an edge
    word in pair form whose exponent is a float, a bool, a string or 1e400
    (read as inf), or one past the bound in pair or string form; each with
    the words its one error line must hold."""
    past = MAX_WORD_EXPONENT + 1
    bound = f"at most {MAX_WORD_EXPONENT} in absolute value, not "
    for key, words in (("relators", lambda d: d["rep"]["relators"]),
                       ("edge_words", lambda d: d["moves"][0]["edge_words"])):
        for w, word in enumerate(words(doc)):
            for i, letter in enumerate(word):
                name = letter.partition("^")[0]
                cases = [([name, exp], "a JSON integer, not ") for exp in (1.5, True, "1", math.inf)]
                cases += [([name, past], f"{bound}{past}"), (f"{name}^-{past}", f"{bound}-{past}")]
                for new, why in cases:
                    mutant = copy.deepcopy(doc)
                    words(mutant)[w][i] = new
                    yield (json.dumps(mutant).replace("Infinity", "1e400"),
                           f"{key}[{w}][{i}] exponent must be {why}")


@pytest.mark.parametrize("name", ["classify-exact", "classify-float", "classify-generators",
                                  "hilbert-ball", "hilbert-model", "bend"])
def test_input_mutants_keep_the_exit_contract(tmp_path, capsys, name):
    """The CLI input contract over every structural mutant of a valid input:
    exit 0, or exit 2 with one ``cuspbend:`` line, or exit 1 with the
    ``cuspbend:`` line and the ``residual:`` line; never a traceback.  A
    word exponent that is not a JSON integer exits 2."""
    command, doc = _contract_inputs()[name]
    src, out = tmp_path / "data.json", tmp_path / "out"
    src.write_text(json.dumps(doc))
    assert main([command, "--in", str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    mutants = list(_mutants(doc))
    assert len(mutants) >= 40
    for mutant in mutants:
        src.write_text(json.dumps(mutant))
        code = main([command, "--in", str(src), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code in (0, 1, 2), mutant
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("cuspbend: "), (mutant, lines)
        elif code == 1:
            assert len(lines) == 2 and lines[0].startswith("cuspbend: "), (mutant, lines)
            assert lines[1].startswith("residual: "), (mutant, lines)
    texts = list(_exponent_mutants(doc)) if command == "bend" else []
    assert len(texts) == (24 if command == "bend" else 0)
    for text, why in texts:
        src.write_text(text)
        assert main([command, "--in", str(src), "--out", str(out)]) == 2, text
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cuspbend: "), (text, lines)
        assert why in lines[0], (text, lines)


@pytest.mark.parametrize("command,data,message", [
    ("classify", {"n": 3, "b": ["1/0", "1"], "mu": ["2", "1"]},
     "zero denominator in scalar '1/0'"),
    ("classify", {"n": 3, "b": ["1", "1"], "mu": ["2", "3/0"]},
     "zero denominator in scalar '3/0'"),
    ("hilbert", {"domain": {"kind": "model", "psi": ["1/0"]}, "pairs": []},
     "zero denominator in scalar '1/0'"),
])
def test_zero_denominator_is_usage_error(tmp_path, capsys, command, data, message):
    """A "p/0" scalar died with a ``ZeroDivisionError`` traceback and exit 1."""
    src, out = tmp_path / "data.json", tmp_path / "out"
    src.write_text(json.dumps(data))
    assert main([command, "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"cuspbend: {message}\n"


# ---------------------------------------------------------------------------
# the write path: every output goes through cli._write_text


def _writers(tmp_path):
    """For each way the CLI writes a file, the argv that writes it to a given
    path.  ``sweep-svg`` sends the CSV to a side file and the chart to the
    path."""
    data = RectangularCuspData(3, b=[1.0, 1.0], s=[0.5, 0.0])
    inputs = {
        "classify": {"n": 3, "b": ["1", "3/2"], "mu": ["2", "1"]},
        "bend": {"rep": cusp_fixture_rep(data).to_json(),
                 "moves": [m.to_json() for m in cusp_bending_moves(data)]},
        "hilbert": {"domain": {"kind": "ball", "n": 2},
                    "pairs": [[[0.1, 0.2], [-0.3, 0.4]], [[0.0, 0.0], [0.5, 0.0]]]},
    }
    argv = {}
    for command, doc in inputs.items():
        src = tmp_path / f"{command}-in.json"
        src.write_text(json.dumps(doc))
        argv[command] = lambda out, command=command, src=src: [
            command, "--in", str(src), "--out", str(out)]
    sweep = ["sweep", "--n", "3", "--grid", "0:1.5:4"]
    argv["sweep"] = lambda out: sweep + ["--out", str(out), "--svg", str(tmp_path / "side.svg")]
    argv["sweep-svg"] = lambda out: sweep + ["--out", str(tmp_path / "side.csv"), "--svg", str(out)]
    argv["verify"] = lambda out: ["verify", "--suite", "projlin", "--out", str(out)]
    return argv


WRITERS = ["classify", "bend", "sweep", "sweep-svg", "hilbert", "verify"]


def _written(tmp_path, name):
    """The argv maker of ``name`` and the bytes it writes to a new file."""
    argv = _writers(tmp_path)[name]
    fresh = tmp_path / "fresh.out"
    assert main(argv(fresh)) == 0
    return argv, fresh.read_bytes()


@pytest.mark.parametrize("name", WRITERS)
def test_output_replaces_longer_and_shorter_files(tmp_path, name):
    argv, want = _written(tmp_path, name)
    out = tmp_path / "out"
    for old in (want + b"#" * 4096, b"#\n", want[::-1]):
        out.write_bytes(old)
        assert main(argv(out)) == 0
        assert out.read_bytes() == want


@pytest.mark.parametrize("name", WRITERS)
def test_output_to_dev_null(tmp_path, name):
    assert main(_writers(tmp_path)[name](os.devnull)) == 0


@pytest.mark.parametrize("name", WRITERS)
def test_output_to_fifo_is_read_whole(tmp_path, name):
    argv, want = _written(tmp_path, name)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(argv(fifo)) == 0
    finally:
        reader.join(timeout=30)
        if reader.is_alive():  # the CLI never opened the FIFO: release the reader
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
    assert not reader.is_alive() and got == [want]


@pytest.mark.parametrize("name", WRITERS)
def test_output_file_modes(tmp_path, name):
    """An existing file keeps its mode; a new one gets 0o666 less the umask."""
    argv, want = _written(tmp_path, name)
    old = tmp_path / "old"
    old.write_bytes(want + b"\n" * 100)
    old.chmod(0o604)
    assert main(argv(old)) == 0
    assert stat.S_IMODE(old.stat().st_mode) == 0o604
    assert old.read_bytes() == want
    mask = os.umask(0o037)
    try:
        assert main(argv(tmp_path / "new")) == 0
    finally:
        os.umask(mask)
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == 0o640


@pytest.mark.parametrize("name", WRITERS)
def test_output_through_symlink(tmp_path, name):
    argv, want = _written(tmp_path, name)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"#" * (len(want) + 10))
    link.symlink_to(target)
    assert main(argv(link)) == 0
    assert link.is_symlink() and target.read_bytes() == want
    dangling, absent = tmp_path / "dangling", tmp_path / "absent"
    dangling.symlink_to(absent)
    assert main(argv(dangling)) == 0
    assert absent.read_bytes() == want


@pytest.mark.parametrize("name", WRITERS)
def test_output_path_errors_keep_their_message(tmp_path, capsys, name):
    """A directory or a missing parent exits 2 with the ``OSError`` text that
    ``open(path, "w")`` gives."""
    argv = _writers(tmp_path)[name]
    capsys.readouterr()
    for path in (tmp_path, tmp_path / "missing" / "out"):
        with pytest.raises(OSError) as exc:
            open(path, "w")
        assert main(argv(path)) == 2
        assert capsys.readouterr().err == f"cuspbend: i/o error: {exc.value}\n"


_WRITE_FUNCS = {"write_text", "write_bytes", "savetxt", "fdopen"}
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _write_calls(source, filename):
    """(line, what) of each call in ``source`` that can write a file, other
    than in ``cli._write_text``: ``open`` with a mode that is not a constant
    read mode, ``os.open`` with a write flag, ``write_text``/``write_bytes``,
    ``savetxt`` and ``fdopen``."""
    found = []

    def visit(node, allowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = filename == "cli.py" and node.name == "_write_text"
        if isinstance(node, ast.Call) and not allowed:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
            if name == "open" and owner == "os":
                flags = {n.attr for arg in node.args[1:2] for n in ast.walk(arg)
                         if isinstance(n, ast.Attribute)}
                if flags & _WRITE_FLAGS or not node.args[1:2]:
                    found.append((node.lineno, "os.open"))
            elif name == "open":
                at = 0 if owner not in (None, "io", "builtins") else 1  # Path.open(mode)
                mode = node.args[at] if len(node.args) > at else next(
                    (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    found.append((node.lineno, "open"))
            elif name in _WRITE_FUNCS:
                found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(ast.parse(source), False)
    return found


def test_every_output_goes_through_write_text():
    """No module writes a file but ``cli._write_text``, so every output takes
    its in-place route."""
    sources = sorted((Path(__file__).parent.parent / "src" / "cuspbend").glob("*.py"))
    assert any(path.name == "cli.py" for path in sources)
    found = {path.name: _write_calls(path.read_text(), path.name) for path in sources}
    assert {name: calls for name, calls in found.items() if calls} == {}


@pytest.mark.parametrize("source,filename", [
    ("def f(p):\n    open(p, 'w')\n", "cli.py"),
    ("def f(p):\n    open(p, mode='a')\n", "projlin.py"),
    ("def f(p, m):\n    open(p, m)\n", "cli.py"),
    ("def f(p):\n    p.open('r+')\n", "cli.py"),
    ("def f(p):\n    io.open(p, 'wb')\n", "cli.py"),
    ("def f(p):\n    os.open(p, os.O_WRONLY | os.O_CREAT)\n", "cli.py"),
    ("def f(p):\n    p.write_text('x')\n", "cli.py"),
    ("def f(p):\n    Path(p).write_bytes(b'x')\n", "hilbert.py"),
    ("def f(p, a):\n    np.savetxt(p, a)\n", "cli.py"),
    ("def f(fd):\n    os.fdopen(fd, 'w')\n", "cli.py"),
    ("def _write_text(p):\n    open(p, 'w')\n", "projlin.py"),
])
def test_write_call_guard_sees_writes(source, filename):
    assert _write_calls(source, filename)


def test_write_call_guard_passes_reads_and_write_text():
    source = ("def f(p):\n    open(p)\n    open(p, 'r')\n    open(p, mode='rb')\n    p.open()\n"
              "    os.open(p, os.O_RDONLY)\n"
              "def _write_text(p):\n    os.open(p, os.O_WRONLY | os.O_CREAT)\n    open(p, 'w')\n")
    assert _write_calls(source, "cli.py") == []
