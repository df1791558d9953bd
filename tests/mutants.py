"""Named textual mutants of ``src/cuspbend``, run by hand:

    python tests/mutants.py [--list] [NAME ...]

Each mutant is one edit of one source file: its old text, which must occur
there exactly once, the new text, and the tests expected to kill it.  For
each mutant (every one, or those named) the script copies ``src``,
``tests``, ``perfbench`` and ``pyproject.toml`` to a temporary directory
and applies the edit there.  It runs the named tests, and when they all
pass it runs tier-1; both runs stop at the first failure (``-x``), which
spares hypothesis the shrinking of further failing examples.  It prints
each mutant as killed, with the first test that failed, or survived, with
the time taken, and exits 1 when a mutant survived or its old text is
stale.

A kill by the named tests takes seconds; only a survivor costs a full
tier-1 run.  Tier-1 does not collect this file, and it imports only the
standard library: the tests run in child processes of this interpreter.
A change that edits code at a mutant's site updates the mutant with it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
HILBERT = "src/cuspbend/hilbert.py"
CLI = "src/cuspbend/cli.py"
CLASSIFY = "src/cuspbend/cusp_classify.py"
BENDING = "src/cuspbend/bending.py"
VERIFY = "src/cuspbend/verify.py"
PROJLIN = "src/cuspbend/projlin.py"
T_HILBERT = "tests/test_hilbert.py::"
T_CLI = "tests/test_cli.py::"
T_CLASSIFY = "tests/test_cusp_classify.py::"
T_BENDING = "tests/test_bending.py::"
T_PROJLIN = "tests/test_projlin.py::"

# the input relators, queued first in iterated_bend's pass
_RELATORS_FIRST = """\
    _require_relators(checks, rep, rep.generators, tol)
    centralizers = [m.centralizer for m in moves]
    _require_dimension(centralizers, rep.n)
    _require_commuting(checks, centralizers, tol, non_commuting)
    base = checks.state(rep.generators)
    for k, move in enumerate(moves):
        _require_centralizes(checks, move.centralizer, move.decomposition.edge_words, base, tol,
                             lambda k=k: CentralizerCheckFailed(
                                 f"move {k}: centralizer does not commute "
                                 "with its edge subgroup image"))
"""
_RELATORS_LAST = _RELATORS_FIRST.split("\n", 1)[1] + _RELATORS_FIRST.split("\n", 1)[0] + "\n"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killers: tuple


MUTANTS = [
    # the march's doubling, chunked 2^k - 1 exponents per test
    Mutant("doubling-counts-all-trues", HILBERT,
           "np.where(B, top + 1, e).min(axis=0)",
           "np.where(B.all(axis=0), top + 1, first + B.sum(axis=0))",
           (T_HILBERT + "test_march_follows_the_one_level_path",)),
    Mutant("doubling-cap-exponent-60", HILBERT,
           "top = math.frexp(U_CAP)[1] - 1", "top = math.frexp(U_CAP)[1]",
           (T_HILBERT + "test_fixed_halvings_match_masked_bisection",
            T_HILBERT + "test_doubling_chunks_keep_the_reference_bytes")),
    # a moved domain pulls back through g^-1 scaled to largest entry in [1, 2)
    Mutant("pull-back-unscaled", HILBERT,
           "g_inv = ProjMap._from_float(np.ldexp(M, 1 - math.frexp(np.max(np.abs(M)))[1]))",
           "g_inv = ProjMap._from_float(M)",
           (T_HILBERT + "test_moved_domain_depends_on_its_map_only_up_to_scale",)),
    Mutant("on-base-pulls-the-inverse-as-given", HILBERT,
           "return (self.base, *_pull(self.g_inv, P))",
           "return (self.base, *_pull(inverse(self.g), P))",
           (T_HILBERT + "test_moved_domain_depends_on_its_map_only_up_to_scale",)),
    # one pull-back and one interiority check per call
    Mutant("at-infinity-mask-dropped", HILBERT,
           "np.all(np.isfinite(P), axis=1) & ~at_infinity & (base.value(B) < 0.0)",
           "np.all(np.isfinite(P), axis=1) & (base.value(B) < 0.0)",
           (T_HILBERT + "test_a_row_at_infinity_is_outside_where_the_base_value_is_negative",)),
    # one quadric-root pass over both rays of every chord
    Mutant("quadric-rays-wrong-directions", HILBERT,
           "end(np.vstack([Y, X]), np.vstack([E, -E]))",
           "end(np.vstack([Y, X]), np.vstack([-E, E]))",
           (T_HILBERT + "test_hilbert_matches_klein_in_ball",
            T_CLI + "test_hilbert_output_matches_fixture")),
    Mutant("nan-early-return-always", HILBERT,
           "        if not unbounded.any():\n            return out",
           "        if True:\n            return out",
           (T_HILBERT + "test_unbounded_chord_end_at_infinity_gives_finite_distance",
            T_CLI + "test_hilbert_output_matches_fixture")),
    # the halvings, k levels per test
    Mutant("walk-skips-top-level", HILBERT,
           "s = (B.shape[0] + 1) // 2", "s = (B.shape[0] + 1) // 4",
           (T_HILBERT + "test_march_follows_the_one_level_path",
            T_HILBERT + "test_fixed_halvings_match_masked_bisection")),
    Mutant("halvings-51", HILBERT, "HALVINGS = 52", "HALVINGS = 51",
           (T_HILBERT + "test_fixed_halvings_match_masked_bisection",
            T_CLI + "test_hilbert_output_matches_fixture")),
    Mutant("path-of-leading-trues-only", HILBERT,
           "    kept = B.sum(axis=0)\n",
           "    return np.logical_and.accumulate(B).sum(axis=0)\n",
           (T_HILBERT + "test_march_follows_the_one_level_path",)),
    # the hilbert CSV's "%.17g" fields, built from arrays
    Mutant("csv-digits-without-error-term", CLI,
           "return p.astype(np.int64) + np.rint(err).astype(np.int64)",
           "return p.astype(np.int64)",
           (T_CLI + "test_csv_writer_matches_stdlib_digits",)),
    Mutant("csv-fixed-range-to-17", CLI,
           "gone = off[(X[off] < -4) | (X[off] > 16)]", "gone = off[(X[off] < -4) | (X[off] > 17)]",
           (T_CLI + "test_csv_writer_matches_stdlib_digits",)),
    Mutant("csv-no-exponent-correction", CLI, "    while off.size:\n", "    while False:\n",
           (T_CLI + "test_csv_writer_matches_stdlib_digits",)),
    Mutant("csv-integer-zeros-dropped", CLI,
           "keep = np.maximum(17 - (last == 0) * (1 + zeros), X + 1)",
           "keep = 17 - (last == 0) * (1 + zeros)",
           (T_CLI + "test_csv_writer_matches_stdlib_digits",)),
    # the one JSON writer: json.dumps(o, sort_keys=True, indent=2), byte for byte
    Mutant("json-writer-unsorted-keys", CLI, "for k in sorted(o)]", "for k in o]",
           (T_CLI + "test_json_writer_round_trips_the_fixtures",)),
    Mutant("json-flat-encoder-unsorted", CLI,
           '": ", sep,\n                          True, False, True)',
           '": ", sep,\n                          False, False, True)',
           (T_CLI + "test_json_writer_round_trips_the_fixtures",)),
    Mutant("json-leaf-separator-without-pad", CLI,
           '_flat_encoder("," + inner)', '_flat_encoder(",\\n")',
           (T_CLI + "test_json_writer_round_trips_the_fixtures",)),
    # dispatch: one parser pass, the full parser for leftovers
    Mutant("dispatch-ignores-leftovers", CLI,
           "        if not rest:\n            return args\n", "        return args\n",
           (T_CLI + "test_dispatch_parses_as_the_full_parser",)),
    # the read path reads as open(path) does
    Mutant("read-without-newline-translation", CLI,
           '    if "\\r" in text:\n', "    if False:\n",
           (T_CLI + "test_read_path_fails_and_reads_as_open",)),
    Mutant("text-encoding-always-utf8", CLI,
           "    if sys.flags.utf8_mode:\n        return \"utf-8\"", "    if True:\n        return \"utf-8\"",
           (T_CLI + "test_read_path_decodes_as_open_in_and_out_of_utf8_mode",)),
    # FileIO refuses a directory in open()'s words; one opened from a bare
    # descriptor names the descriptor instead of the path
    Mutant("read-directory-by-descriptor", CLI,
           'with open(path, "rb", buffering=0) as fh:',
           'with os.fdopen(os.open(path, os.O_RDONLY), "rb", buffering=0) as fh:',
           (T_CLI + "test_read_path_fails_and_reads_as_open",)),
    # the write path cuts only a regular file
    Mutant("ftruncate-any-file", CLI,
           "        if stat.S_ISREG(os.fstat(fd).st_mode):\n            os.ftruncate",
           "        if True:\n            os.ftruncate",
           (T_CLI + "test_output_to_dev_null", T_CLI + "test_output_to_fifo_is_read_whole")),
    # hilbert refuses a string or object for pairs before reading it
    Mutant("pairs-list-unchecked", CLI,
           'pairs = require_json(spec["pairs"], "pairs", list)', 'pairs = spec["pairs"]',
           (T_CLI + "test_hilbert_pair_not_two_points_is_usage_error",
            T_CLI + "test_refused_input_keeps_its_message")),
    Mutant("pair-kind-unchecked", CLI,
           '            require_json(p, f"pairs[{i}]", list)\n', "",
           (T_CLI + "test_refused_input_keeps_its_message",)),
    # the exact check, a sparse product of the entry table
    # the slot-entry table, read by the float and the exact builder
    Mutant("slot-entries-swap-right-and-corner", CLASSIFY,
           "return (k, 0, i), (k, i, n), (k, i, i), (k, 0, n)",
           "return (k, 0, i), (k, 0, n), (k, i, i), (k, i, n)",
           (T_CLASSIFY + "test_standard_generators_explicit_matrix",)),
    Mutant("float-alpha-sign-flipped", CLASSIFY,
           "np.where(bent, -b / (mu - 1), 0.0)", "np.where(bent, b / (mu - 1), 0.0)",
           (T_CLASSIFY + "test_normalizing_matrix_sends_new_eigenvector_to_slot",)),
    Mutant("float-w-choice-inverted", CLASSIFY,
           "w_vals = [np.where(bent, w, g) for w, g in zip(w_bent, g_vals)]",
           "w_vals = [np.where(bent, g, w) for w, g in zip(w_bent, g_vals)]",
           (T_CLASSIFY + "test_conjugate_and_match_type_count",)),
    Mutant("exact-corner-u-minus-v", CLASSIFY,
           "(-sign * p * p * (u + v), 2 * q * q * t)", "(-sign * p * p * (u - v), 2 * q * q * t)",
           (T_CLASSIFY + "test_conjugate_and_match_frozen_example",)),
    Mutant("sparse-product-drops-an-a-entry", CLASSIFY,
           "    for (i, j), x in a.items():\n        x -= d * (i == j)\n",
           "    for (i, j), x in list(a.items())[1:]:\n        x -= d * (i == j)\n",
           (T_CLASSIFY + "test_exact_check_builds_no_stacked_product",
            T_CLASSIFY + "test_sparse_exact_check_matches_dense_reference")),
    Mutant("sparse-product-drops-d-term", CLASSIFY,
           "diff = {at: d * (gk.get(at, 0) - vk.get(at, 0)) for at in gk.keys() | vk.keys()}",
           "diff = {at: 0 for at in gk.keys() | vk.keys()}",
           (T_CLASSIFY + "test_exact_check_builds_no_stacked_product",
            T_CLASSIFY + "test_sparse_exact_check_matches_dense_reference")),
    # a JSON field's kind, checked before the field is read
    Mutant("generators-read-first", CLI,
           'for rows in require_json(data["generators"], "generators", list)]',
           'for rows in data["generators"]]',
           (T_CLI + "test_refused_input_keeps_its_message",)),
    Mutant("b-read-first", CLI,
           'for x in require_json(data["b"], "b", list)]', 'for x in data["b"]]',
           (T_CLI + "test_refused_input_keeps_its_message",)),
    Mutant("s-and-mu-read-first", CLI,
           "for x in require_json(data[key], key, list)]", "for x in data[key]]",
           (T_CLI + "test_refused_input_keeps_its_message",)),
    Mutant("psi-read-first", CLI,
           'enumerate(require_json(dspec["psi"], "psi", list))', 'enumerate(dspec["psi"])',
           (T_CLI + "test_refused_input_keeps_its_message",)),
    Mutant("matrix-read-first", PROJLIN,
           'for i, row in enumerate(require_json(rows, "matrix", list)):',
           "for i, row in enumerate(rows):",
           (T_PROJLIN + "test_matrix_from_json_bad_input_messages",)),
    Mutant("matrix-rows-read-first", PROJLIN,
           '        require_json(row, f"matrix row {i}", list)\n', "        pass\n",
           (T_PROJLIN + "test_matrix_from_json_bad_input_messages",)),
    # every kind but the one asked for is refused, numbers and null too
    Mutant("require-json-refuses-only-str-and-dict", PROJLIN,
           "    if not isinstance(value, kind):\n",
           "    if (not isinstance(value, dict)) if kind is dict else isinstance(value, (str, dict)):\n",
           (T_CLI + "test_refused_input_keeps_its_message",
            T_PROJLIN + "test_matrix_from_json_bad_input_messages")),
    # a bent slot whose cusp parameter underflows
    Mutant("underflow-refused-only-at-zero", CLASSIFY,
           "small = a < sys.float_info.min", "small = a == 0",
           (T_CLI + "test_overflowing_construction_keeps_the_exit_contract",)),
    # one slot validator for b, mu and s
    Mutant("slot-positive-allows-zero", CLASSIFY,
           "if any(x <= 0 if positive else x < 0 for x in values):",
           "if any(x < 0 if positive else x < 0 for x in values):",
           (T_CLASSIFY + "test_rectangular_data_validation",)),
    # equivalence through one proj_equiv_rows, exact when every entry is
    Mutant("equivalence-always-float", CLASSIFY,
           "np.array(rows, dtype=object if exact else np.float64)",
           "np.array(rows, dtype=np.float64)",
           (T_CLASSIFY + "test_equivalent_parameters_exact_and_float_routes_differ",)),
    Mutant("equivalence-reads-bare-floats", CLASSIFY,
           'rows = [require_float(x, f"psi_{i % psi.n + 1}") for i, x in enumerate(rows)]',
           "rows = [float(x) for x in rows]",
           (T_CLASSIFY + "test_equivalent_parameters_refuses_an_exact_entry_off_the_float_range",)),
    Mutant("proj-equiv-rows-any-entry", PROJLIN,
           "cross = (a[rows, ia][:, None] * b == b[rows, ia][:, None] * a).all(axis=1)",
           "cross = (a[rows, ia][:, None] * b == b[rows, ia][:, None] * a).any(axis=1)",
           (T_PROJLIN + "test_proj_equiv_exact",
            T_CLASSIFY + "test_equivalent_parameters_matches_the_reference")),
    # the centralizer's one parameter
    Mutant("centralizer-allows-zero-mu", "src/cuspbend/cusp_models.py",
           "    if mu <= 0:\n", "    if mu < 0:\n",
           ("tests/test_cusp_models.py::test_hyperplane_centralizer",)),
    # _diagonalize's own commutation check, then its eigenbasis
    Mutant("commutation-skips-first-pair", VERIFY,
           "for (i, a), (j, b) in combinations(enumerate(floats), 2):",
           "for (i, a), (j, b) in list(combinations(enumerate(floats), 2))[1:]:",
           (T_CLASSIFY + "test_diagonalizable_check",)),
    Mutant("diagonalize-keeps-ill-conditioned-bases", VERIFY,
           "        if np.linalg.cond(vecs) > 1e12:\n            continue\n", "",
           (T_CLASSIFY + "test_diagonalizable_check",)),
    Mutant("triangularize-counts-the-diagonal", VERIFY,
           "lower = np.tril(tri, -1)", "lower = np.tril(tri)",
           (T_CLASSIFY + "test_upper_triangular_check_on_model_group",
            T_CLI + "test_verify_output_matches_fixture")),
    # the stacked checks of a bend
    Mutant("refused-inverse-decides-every-check", BENDING,
           "count, size, refusal = queued, inv_idx, inv", "refusal = inv",
           (T_BENDING + "test_singular_inverse_raises_where_first_needed",)),
    Mutant("relators-queued-after-centralizers", BENDING, _RELATORS_FIRST, _RELATORS_LAST,
           (T_CLI + "test_bend_failure_contract",)),
    Mutant("verify-order-reruns-forward", BENDING,
           "for idx in random.Random(seed).sample(range(len(moves)), len(moves)):",
           "for idx in range(len(moves)):",
           (T_BENDING + "test_verify_order_reruns_in_the_seeded_order",)),
    # bend and check_relators are iterated_bend with one move and with none
    Mutant("centralizer-dimension-unchecked", BENDING,
           "    _require_dimension(centralizers, rep.n)\n", "",
           (T_BENDING + "test_wrong_dimension_centralizer_names_both_dimensions",)),
    Mutant("input-relators-unchecked", BENDING,
           "    _require_relators(checks, rep, rep.generators, tol)\n", "",
           (T_BENDING + "test_bend_checks_the_relators_it_is_given",
            T_BENDING + "test_iterated_bend_checks_input_relators_without_moves")),
    Mutant("check-relators-checks-nothing", BENDING,
           "        iterated_bend(self, [], DEFAULT_TOL)\n", "",
           (T_BENDING + "test_marked_rep_checks_relators",)),
    Mutant("decomposition-cover-unchecked", BENDING, "    dec.validate_names(rep)\n", "",
           (T_BENDING + "test_bend_validates_partition",)),
    Mutant("negative-seed-accepted", BENDING,
           "    if seed < 0:\n        raise ValueError(\"expected non-negative integer\")\n", "",
           (T_CLI + "test_negative_seed_is_usage_error",)),
    # sweep's mu by math.exp, as classify reads it
    Mutant("sweep-mu-by-np-exp", CLI,
           "[[_exp_or_inf(s)] for s in grid.tolist()]", "np.exp(grid)[:, None]",
           (T_CLI + "test_sweep_bad_bending_data_is_usage_error",
            T_CLI + "test_sweep_output_matches_fixture")),
]


def _pytest(tree: Path, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
                          cwd=tree, env=env, capture_output=True, text=True)


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 2)[1]
    return "no FAILED line; see pytest output"


def run(mutant: Mutant) -> str:
    """Apply one mutant to a copy of the tree and return its verdict line."""
    start = time.perf_counter()
    source = (ROOT / mutant.file).read_text()
    if source.count(mutant.old) != 1:
        return f"STALE    {mutant.name}: its old text occurs {source.count(mutant.old)} times"
    with tempfile.TemporaryDirectory(prefix="cuspbend-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "out"))
            else:
                shutil.copy2(src, tree / name)
        (tree / mutant.file).write_text(source.replace(mutant.old, mutant.new))
        named = _pytest(tree, ["-x", *mutant.killers])
        if named.returncode != 0:
            verdict = f"killed   {mutant.name} by named {_first_failure(named.stdout)}"
        else:
            tier1 = _pytest(tree, ["-x", "--continue-on-collection-errors"])
            verdict = (f"killed   {mutant.name} by tier-1: {_first_failure(tier1.stdout)}"
                       if tier1.returncode != 0 else f"SURVIVED {mutant.name}")
    return f"{verdict}  [{time.perf_counter() - start:.1f} s]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or MUTANTS
    if args.list:
        for m in chosen:
            print(f"{m.name}  ({m.file})")
        return 0
    bad = 0
    for m in chosen:
        line = run(m)
        bad += not line.startswith("killed")
        print(line, flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
