"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function at every place a
cuspbend module binds it (the modules import names directly, as in
``from .projlin import compose``), and wraps ``ProjMap``/``ProjPoint``
construction through their ``__init__``.  ``Tracer.wrap_domain`` wraps the
``classify`` callable of one oracle domain.  Each call becomes a span; a
function's self time is its span minus the spans of traced calls made inside
it.  Counts and self times are kept for every call; full spans only while
``recording`` is set, so memory stays bounded on long runs.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

# (module, attribute): the traced public functions; a class name means its
# construction (``__init__``)
TRACED = [
    ("cli", "main"),
    ("cusp_classify", "conjugate_and_match"),
    ("projlin", "compose"),
    ("projlin", "inverse"),
    ("projlin", "act"),
    ("projlin", "proj_equiv"),
    ("projlin", "ProjMap"),
    ("projlin", "ProjPoint"),
    ("cusp_models", "leaf_coordinate"),
    ("bending", "iterated_bend"),
    ("bending", "bend"),
    ("hilbert", "hilbert_distances"),
    ("hilbert", "hilbert_distance"),
    ("hilbert", "chord_boundary"),
    ("hilbert", "cross_ratio"),
]
ORACLE = "hilbert.oracle_classify"
NAMES = [f"{mod}.{attr}" for mod, attr in TRACED] + [ORACLE]


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.spans = []             # (id, parent id or -1, name, start, end)
        self.recording = False
        self._stack = []            # [span id, time covered by child spans]
        self._next_id = 0

    def wrap(self, name: str, fn):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if self.recording:
                    self.spans.append((span_id, stack[-1][0] if stack else -1, name, start, end))

        return traced

    def install(self) -> None:
        """Wrap every traced function at each binding site in cuspbend."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "cuspbend" or key.startswith("cuspbend.")]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            target = getattr(sys.modules[f"cuspbend.{mod_name}"], attr)
            if isinstance(target, type):
                target.__init__ = self.wrap(name, target.__init__)
                continue
            wrapped = self.wrap(name, target)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapped)

    def wrap_domain(self, dom):
        """The same oracle domain with its ``classify`` callable traced."""
        return dataclasses.replace(dom, classify=self.wrap(ORACLE, dom.classify))

    def per_op(self, ops: int, pairs: int) -> dict:
        """Per-layer metrics: calls and self time per operation, and oracle
        calls per Hilbert pair."""
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = {"value": self.calls[name] / ops, "unit": "calls/op"}
            out[f"{name}.self_ms"] = {"value": 1e3 * self.self_s[name] / ops, "unit": "ms/op"}
        out[f"{ORACLE}.calls_per_pair"] = {
            "value": self.calls[ORACLE] / pairs if pairs else 0.0, "unit": "calls/pair"}
        return out
