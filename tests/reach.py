"""Statement reach of ``src/cuspbend``, per function, run by hand:

    python tests/reach.py [--skip-tier1] [MODULE ...]

For each function (and method) of the named modules, or of every module,
prints its number of statements, how many of them the entry points reach,
how many tier-1 reaches, and the lines of the statements that no entry
point reaches.  The entry points are the CLI fixture tests, ``verify
--seed 0``, and one round of each benchmark workload, built and bound by
``perfbench/workloads.py`` as it stands; tier-1 is the whole test suite.

Reach is measured with a ``sys.settrace`` line trace (the standard library
only), one child process per phase.  A statement counts as reached when
any line of it (of its header, for a compound statement) runs.  Tier-1's
figure is a lower bound: hypothesis may run some examples untraced.
"""

from __future__ import annotations

import argparse
import ast
import json
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "cuspbend"
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("exact", "float", "hilbert-batch", "hilbert-oracle")
FIXTURE_TESTS = [
    "tests/test_cli.py::" + name for name in (
        "test_sweep_output_matches_fixture",
        "test_classify_exact_output_matches_fixture",
        "test_classify_float_output_matches_fixture",
        "test_classify_generators_output_matches_fixture",
        "test_hilbert_output_matches_fixture",
        "test_bend_output_matches_fixture",
        "test_bend_failure_contract",
        "test_refused_input_keeps_its_message",
        "test_verify_output_matches_fixture",
    )]


def statements(source: str) -> dict:
    """``{qualified function name: [(first line, last line), ...]}``: the
    line span of each statement in the function's own body (a nested
    function or class counts by its header only), docstrings left out."""
    out = {}

    def span(stmt):
        body = getattr(stmt, "body", None)
        if isinstance(body, list) and body and not isinstance(stmt, ast.ClassDef):
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            return first, max(stmt.lineno, body[0].lineno - 1)
        return stmt.lineno, stmt.end_lineno

    def own(body, into):
        for i, stmt in enumerate(body):
            docstring = (i == 0 and isinstance(stmt, ast.Expr)
                         and isinstance(stmt.value, ast.Constant)
                         and isinstance(stmt.value.value, str))
            if not docstring:
                into.append(span(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for field in ("body", "orelse", "finalbody"):
                own(getattr(stmt, field, []) or [], into)
            for handler in getattr(stmt, "handlers", []) or []:
                into.append(span(handler))
                own(handler.body, into)
            for case in getattr(stmt, "cases", []) or []:
                own(case.body, into)

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                own(child.body, out.setdefault(name, []))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")

    visit(ast.parse(source), "")
    return out


def collect(phase: str, out_path: str) -> None:
    """Run one phase under the line trace and write the lines hit, as
    ``{module: [line, ...]}``, to out_path."""
    prefix = str(PACKAGE) + "/"
    hits = set()

    def local(frame, event, _arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, _event, _arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.path[:0] = [str(SRC), str(ROOT)]
    import pytest

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        if phase == "entry":
            pytest.main(["-q", "-p", "no:cacheprovider", *FIXTURE_TESTS])
            _entry_calls()
        else:
            pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_module = {}
    for filename, line in hits:
        if filename.startswith(prefix):
            by_module.setdefault(Path(filename).stem, []).append(line)
    Path(out_path).write_text(json.dumps(by_module))


def _entry_calls() -> None:
    """``verify --seed 0`` and one round of each workload."""
    from types import SimpleNamespace

    import cuspbend.cli

    with tempfile.TemporaryDirectory() as tmp:
        cuspbend.cli.main(["verify", "--seed", "0", "--out", str(Path(tmp) / "verify.json")])
        sys.path.insert(0, str(PERFBENCH))
        import workloads
        cb = SimpleNamespace(cli=cuspbend.cli, hilbert=cuspbend.hilbert,
                             projlin=cuspbend.projlin, cusp_models=cuspbend.cusp_models)
        for name in WORKLOADS:
            workdir = Path(tmp) / name
            workdir.mkdir()
            ops = workloads.make_ops(name, 0, workdir)
            workloads.bind(ops, cb)
            for op in ops:
                op.call()


def _run_phase(phase: str) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json") as f:
        subprocess.run([sys.executable, __file__, "--collect", phase, f.name],
                       cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        return {module: set(lines) for module, lines in json.loads(Path(f.name).read_text()).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", help="module names (default: all)")
    parser.add_argument("--skip-tier1", action="store_true", help="trace the entry points only")
    parser.add_argument("--collect", nargs=2, metavar=("PHASE", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        collect(*args.collect)
        return 0
    entry = _run_phase("entry")
    tier1 = {} if args.skip_tier1 else _run_phase("tier1")
    modules = args.modules or sorted(p.stem for p in PACKAGE.glob("*.py"))
    totals = [0, 0, 0]
    for module in modules:
        funcs = statements((PACKAGE / f"{module}.py").read_text())
        print(f"== {module}: function  statements  entry  tier1  lines no entry point reaches")
        for name, spans in funcs.items():
            def reached(hit):
                return [s for s in spans if any(line in hit for line in range(s[0], s[1] + 1))]
            by_entry = reached(entry.get(module, set()))
            by_tier1 = reached(tier1.get(module, set()))
            missed = [s[0] for s in spans if s not in by_entry]
            totals = [totals[0] + len(spans), totals[1] + len(by_entry), totals[2] + len(by_tier1)]
            tier1_text = "-" if args.skip_tier1 else len(by_tier1)
            print(f"{name:40s} {len(spans):4d} {len(by_entry):5d} {tier1_text:>5}  "
                  + ",".join(map(str, missed)))
    tier1_text = "-" if args.skip_tier1 else totals[2]
    print(f"== total: {totals[0]} statements, entry {totals[1]}, tier1 {tier1_text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
