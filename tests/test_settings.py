"""The package's settings: each defaulted parameter of a public function or
method, and of every ``__init__``, is listed below.  A new setting then shows
up as a one-line diff to review, and none is added silently; a parameter
that has one value in use belongs in a constant or a required argument."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cuspbend"

SETTINGS = """
bending.MarkedRep.__init__.relators
bending.MarkedRep.__init__.check
bending.parse_word.where
bending.bend.tol
bending.iterated_bend.tol
bending.iterated_bend.verify_order
bending.iterated_bend.seed
cli.main.argv
cusp_classify.RectangularCuspData.__init__.s
cusp_classify.RectangularCuspData.__init__.mu
cusp_classify.conjugate_and_match.tol
cusp_classify.classify_h_form.tol
cusp_models.h_element.log_d
cusp_models.h_element.sigma
cusp_models.leaf_coordinate.tol
projlin.require_int.least
projlin.ProjMap.identity.exact
projlin.proj_equiv.tol
projlin.proj_equiv_rows.tol
verify.run_suites.names
verify.run_suites.seed
verify.run_suites.perturb
""".split()


def settings(module: str, source: str) -> list:
    """``module.[Class.]function.parameter`` for each defaulted parameter of
    a function in source whose name has no leading underscore, or is
    ``__init__``, in source order."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_") or child.name == "__init__":
                    a = child.args
                    positional = a.posonlyargs + a.args
                    defaulted = positional[len(positional) - len(a.defaults):]
                    defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                                  if d is not None]
                    out.extend(f"{prefix}{child.name}.{arg.arg}" for arg in defaulted)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), f"{module}.")
    return out


def test_settings_are_the_listed_ones():
    found = [s for path in sorted(PACKAGE.glob("*.py"))
             for s in settings(path.stem, path.read_text())]
    assert sorted(found) == sorted(SETTINGS)
    assert len(SETTINGS) == len(set(SETTINGS)) == 22


@pytest.mark.parametrize("source,found", [
    ("def f(a, b=1, *, c, d=2):\n    pass\n", ["m.f.b", "m.f.d"]),
    ("def _f(a=1):\n    pass\n", []),
    ("class C:\n    def __init__(self, a=1):\n        pass\n"
     "    def g(self, *, b=None):\n        pass\n", ["m.C.__init__.a", "m.C.g.b"]),
    ("def f(x):\n    def g(y=0):\n        pass\n", ["m.f.g.y"]),
], ids=["defaults", "private", "methods", "nested"])
def test_settings_are_found(source, found):
    """The scan itself: positional and keyword-only defaults, methods and
    nested functions are found; private functions and required keywords
    are not."""
    assert settings("m", source) == found
