"""The package's public API: each name that ``cuspbend/__init__.py`` exports
is listed below, as ``module.name`` for the module it comes from.  A new
public name then shows up as a one-line diff to review, and a name that no
entry point reaches is not exported silently."""

import ast
import importlib
from pathlib import Path

import cuspbend

INIT = Path(__file__).resolve().parents[1] / "src" / "cuspbend" / "__init__.py"

EXPORTS = """
projlin.DEFAULT_TOL
projlin.EigenPair
projlin.ProjMap
projlin.ProjPoint
projlin.act
projlin.compose
projlin.eigen
projlin.inverse
projlin.proj_equiv
cusp_models.CuspGroupElement
cusp_models.CuspParameter
cusp_models.ModelDomain
cusp_models.ParaboloidModel
cusp_models.cusp_type
cusp_models.h_element
cusp_models.h_product
cusp_models.hyperplane_centralizer_element
cusp_models.leaf_coordinate
cusp_models.leaf_point
cusp_models.parabolic_element
cusp_models.zprime_element
hilbert.ConvexDomainOracle
hilbert.ball_oracle
hilbert.chord_boundary
hilbert.cross_ratio
hilbert.hilbert_distance
hilbert.hilbert_distances
hilbert.klein_distance
hilbert.model_domain_oracle
hilbert.transformed_oracle
bending.BendingMove
bending.Decomposition
bending.MarkedRep
bending.bend
bending.iterated_bend
cusp_classify.ClassifiedCusp
cusp_classify.RectangularCuspData
cusp_classify.bent_cusp_generators
cusp_classify.conjugate_and_match
cusp_classify.equivalent_parameters
cusp_classify.standard_cusp_generators
cusp_classify.upper_triangular_check
__init__.__version__
""".split()


def exports(source: str) -> list:
    """``module.name`` for each name that a package ``__init__`` source binds
    at module level: a relative import as its module, an assignment as
    ``__init__``."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.extend(f"{node.module}.{alias.asname or alias.name}" for alias in node.names)
        elif isinstance(node, ast.Assign):
            out.extend(f"__init__.{t.id}" for t in node.targets if isinstance(t, ast.Name))
    return out


def test_exports_are_the_listed_ones():
    found = exports(INIT.read_text())
    assert sorted(found) == sorted(EXPORTS)
    assert len(EXPORTS) == len(set(EXPORTS)) == 43


def test_each_export_is_its_module_name():
    for entry in EXPORTS:
        module, name = entry.split(".")
        source = cuspbend if module == "__init__" else importlib.import_module(f"cuspbend.{module}")
        assert getattr(cuspbend, name) is getattr(source, name), entry


def test_exports_are_found():
    """The scan itself: relative imports and assignments are found; a
    function's names and an absolute import are not."""
    source = ("import math\nfrom .a import (b, c as d)\nfrom numpy import pi\n"
              "v = 1\ndef f():\n    from .e import g\n")
    assert exports(source) == ["a.b", "a.d", "__init__.v"]
