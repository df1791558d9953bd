"""The package's import layout: every import of one ``cuspbend`` module by
another sits at module level, and the module import graph has no cycle; and
the CLI commands other than ``verify`` do not load ``numpy.random``."""

import ast
import graphlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cuspbend"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _imports(tree: ast.Module):
    """(package module or name imported, node) for each import from the
    package in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "cuspbend":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                yield parts[0], node
            else:
                for alias in node.names:
                    yield alias.name, node
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cuspbend":
                    yield (parts[1] if len(parts) > 1 else "__init__"), node


def layout_faults(sources: dict) -> list:
    """The faults of a package given as {module name: source}: imports of
    package modules inside a function, and an import cycle."""
    faults, graph = [], {}
    for name, source in sources.items():
        tree = ast.parse(source)
        in_functions = {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                        for node in ast.walk(fn)}
        graph[name] = set()
        for target, node in _imports(tree):
            if id(node) in in_functions:
                faults.append(f"{name}:{node.lineno} imports {target} inside a function")
            if target in sources and target != name:
                graph[name].add(target)
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        faults.append(f"import cycle {exc.args[1]}")
    return faults


def test_package_imports_at_module_level_without_cycles():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert {"__init__", "projlin", "bending", "cusp_classify", "cli"} <= set(sources)
    assert layout_faults(sources) == []


def test_cusp_classify_imports_only_models_and_linear_algebra():
    """``cusp_classify`` builds on ``cusp_models`` and ``projlin`` alone; the
    float linear algebra that only ``verify`` reads lives in ``verify``."""
    tree = ast.parse((PACKAGE / "cusp_classify.py").read_text())
    assert {target for target, _ in _imports(tree)} == {"cusp_models", "projlin"}


@pytest.mark.parametrize("sources,fault", [
    ({"a": "def f():\n    from .b import g\n", "b": ""}, "a:2 imports b inside a function"),
    ({"a": "def f():\n    import cuspbend.b\n", "b": ""}, "a:2 imports b inside a function"),
    ({"a": "from . import b\n", "b": "from .a import f\n"}, "import cycle"),
    ({"a": "from .b import g\n", "b": "from .c import h\n", "c": "import cuspbend.a\n"},
     "import cycle"),
])
def test_layout_faults_are_found(sources, fault):
    """The check itself: an import inside a function and a cycle are found."""
    faults = layout_faults(sources)
    assert len(faults) == 1 and faults[0].startswith(fault), faults


COLD_START = """
import json, sys
from cuspbend.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    assert "numpy.random" not in sys.modules, f"{argv[0]} loaded numpy.random"
"""


def test_commands_but_verify_leave_numpy_random_unloaded(tmp_path):
    """In a fresh process, ``sweep``, ``bend --verify-order`` on two or more
    moves, ``classify`` on exact bending data and on generators, and
    ``hilbert`` never import ``numpy.random``: its first import costs more
    than a bend.  A fresh process, because other tests load it here."""
    def first(name, pick=lambda case: True):
        case = next(c for c in json.loads((FIXTURES / f"{name}.json").read_text())["cases"]
                    if pick(c))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(case["input"]))
        return str(path)

    out = str(tmp_path / "out")
    calls = [
        ["sweep", "--n", "4", "--grid", "0:1:3", "--out", out],
        ["bend", "--in", first("bend", lambda c: len(c["input"]["moves"]) > 1),
         "--seed", "3", "--verify-order", "--out", out],
        ["classify", "--exact", "--in", first("classify_exact"), "--out", out],
        ["classify", "--in", first("classify_generators"), "--out", out],
        ["hilbert", "--in", first("hilbert_csv"), "--out", out],
    ]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(calls)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
