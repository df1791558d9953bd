import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("args", [
    ["--n", "3", "--b", "nan", "--grid", "0:1:3"],
    ["--n", "3", "--b", "1,inf", "--grid", "0:1:3"],
    ["--n", "3", "--grid", "0:inf:2"],
    ["--n", "3", "--grid", "nan:1:2"],
    ["--n", "3", "--grid", "0:1e-17:2"],
    ["--n", "3", "--grid", "1e-9:1:3", "--slots", "3"],
    ["--n", "3", "--grid", "0:710:2"],
    ["--n", "3", "--grid", "-1:1:3"],
])
def test_sweep_bad_bending_data_is_usage_error(tmp_path, capsys, args):
    out = tmp_path / "sweep.csv"
    assert main(["sweep"] + args + ["--out", str(out)]) == 2
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


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
