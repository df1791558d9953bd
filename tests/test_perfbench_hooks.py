"""The benchmark's hooks into the program: what ``perfbench/layer_trace.py``
names in ``cuspbend`` must exist, and its traced oracle domains must give
the bytes of the untraced ones.  The module is loaded by path; ``install``
is not called, since it patches the modules for the rest of the process."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cuspbend.cusp_models import CuspParameter
from cuspbend.hilbert import (ball_oracle, hilbert_distances, model_domain_oracle,
                              transformed_oracle)
from cuspbend.projlin import ProjMap

LAYER_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layer_trace.py"


def _layer_trace():
    spec = importlib.util.spec_from_file_location("perfbench_layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for mod, attr in _layer_trace().TRACED:
        assert callable(getattr(importlib.import_module(f"cuspbend.{mod}"), attr)), (mod, attr)


def _moved(G, P):
    H = np.hstack([P, np.ones((len(P), 1))]) @ G.T
    return H[:, :-1] / H[:, -1:]


@pytest.mark.parametrize("kind", ["ball", "model", "moved-ball", "moved-model"])
def test_traced_domain_gives_the_same_bytes(kind):
    rng = np.random.default_rng(5)
    if kind.endswith("ball"):
        dom = ball_oracle(3)
        X, Y = (rng.uniform(-0.5, 0.5, (8, 3)) for _ in range(2))
    else:
        dom = model_domain_oracle(CuspParameter([1.5, 0.0, 0.0]))
        # leaf value x_0 + 1.5 log x_1 - x_2^2 / 2 >= 0.6 - 0.5 > 0
        X, Y = (np.column_stack([rng.uniform(0.6, 2.0, 8), rng.uniform(1.0, 2.0, 8),
                                 rng.uniform(-1.0, 1.0, 8)]) for _ in range(2))
    if kind.startswith("moved"):
        # last row positive on both domains: the image stays in the chart
        G = np.eye(4) + 0.05 * np.arange(16.0).reshape(4, 4) / 16.0
        G[3] = [0.1, 0.05, 0.0, 1.0]
        dom = transformed_oracle(dom, ProjMap(G))
        X, Y = _moved(G, X), _moved(G, Y)
    traced = _layer_trace().Tracer().wrap_domain(dom)
    assert hilbert_distances(traced, X, Y).tobytes() == hilbert_distances(dom, X, Y).tobytes()
