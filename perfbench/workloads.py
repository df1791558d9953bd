"""The four workloads: seeded inputs, the operations that run them through
cuspbend, and the check of each operation's output.

``make_ops(name, seed, workdir)`` writes the inputs (the benchmark's own
work, never timed) and returns the operations of one round, in order.
``bind(ops, cb)`` turns them into calls on the program: CLI
operations call ``cuspbend.cli.main`` in-process; ``hilbert-oracle`` builds
its domains here, which counts as the program's set-up.  Every operation is
a fixed unit of work, and one round covers the whole mix once.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

# exact: four instances for every dimension n and type t
EXACT_DIMS = range(3, 7)
EXACT_REPS = 4
# numerators and denominators: distinct primes, so no two inputs share a factor
EXACT_PRIMES = [p for p in range(101, 1000) if all(p % d for d in range(2, 32))]

# float: sweeps and bends for every n, all slots bent and a smaller subset
FLOAT_DIMS = range(3, 7)
SWEEP_STEPS = 21

# hilbert-batch: pair files per domain
BATCH_PAIRS = 1000

# hilbert-oracle: pairs per operation and operations per domain in a round
ORACLE_PAIRS = 4
ORACLE_OPS = 6


@dataclass
class Op:
    kind: str                                   # warm-up runs the first op of each kind
    check: Callable[[object], list]             # output of the last call -> failures
    argv: Optional[list] = None                 # a cuspbend CLI call ...
    oracle: Optional[tuple] = None              # ... or (domain spec, X, Y) for the oracle route
    pairs: int = 0                              # Hilbert pairs per call
    note: str = ""                              # what the check lets pass, if anything
    call: Optional[Callable[[], object]] = field(default=None, repr=False)
    domain: object = field(default=None, repr=False)
    last: object = field(default=None, repr=False)     # result of the last call


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _cli_check(out_path: Path, parse, check):
    """Check of a CLI operation: parse its output file, then compare."""
    def check_file(_exit_code):
        try:
            return check(parse(out_path.read_text()))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{out_path.name}: unreadable output ({exc!r})"]
    return check_file


# ---------------------------------------------------------------------------
# exact


def _exact_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n in EXACT_DIMS:
        for t in range(1, n):
            for rep in range(EXACT_REPS):
                bent = rng.sample(range(n - 1), t)
                primes = iter(rng.sample(EXACT_PRIMES, 4 * (n - 1)))
                b = [Fraction(next(primes), next(primes)) for _ in range(n - 1)]
                mu = [Fraction(max(p, q), min(p, q)) if k in bent else Fraction(1)
                      for k, p, q in zip(range(n - 1), primes, primes)]
                tag = f"exact-n{n}-t{t}-{rep}"
                src = _write_json(workdir / f"{tag}.json",
                                  {"n": n, "b": [str(x) for x in b], "mu": [str(x) for x in mu]})
                out = workdir / f"{tag}.out.json"
                ops.append(Op("classify", _cli_check(
                    out, json.loads, lambda o, n=n, b=b, mu=mu: ref.check_exact(o, n, b, mu)),
                    argv=["classify", "--in", src, "--exact", "--out", str(out)]))
    return ops


# ---------------------------------------------------------------------------
# float


def _float_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)

    def uniform(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    ops = []
    for n in FLOAT_DIMS:
        for variant, count in enumerate((n - 1, max(1, (n - 1) // 2))):
            slots = sorted(rng.sample(range(2, n + 1), count))
            b = [uniform(0.5, 2.0) for _ in range(n - 1)]
            lo, hi = uniform(0.05, 0.3), uniform(1.0, 2.5)
            out = workdir / f"sweep-n{n}-{variant}.csv"
            grid = ref.sweep_grid(lo, hi, SWEEP_STEPS)
            ops.append(Op("sweep", _cli_check(
                out, str, lambda text, n=n, b=b, slots=slots, grid=grid:
                ref.check_sweep(text, n, b, slots, grid)),
                argv=["sweep", "--n", str(n), "--b", ",".join(map(repr, b)),
                      "--grid", f"{lo!r}:{hi!r}:{SWEEP_STEPS}",
                      "--slots", ",".join(map(str, slots)), "--out", str(out)]))
    for n in FLOAT_DIMS:
        for variant, count in enumerate((n - 1, 2)):
            bent = rng.sample(range(n - 1), count)
            b = [uniform(0.5, 2.0) for _ in range(n - 1)]
            s = [uniform(0.1, 1.5) if k in bent else 0.0 for k in range(n - 1)]
            tag = f"bend-n{n}-{variant}"
            src = _write_json(workdir / f"{tag}.json", _bend_bundle(n, b, s, bent))
            out = workdir / f"{tag}.out.json"
            ops.append(Op("bend", _cli_check(
                out, json.loads, lambda o, n=n, b=b, s=s: ref.check_bend(o, n, b, s)),
                argv=["bend", "--in", src, "--out", str(out), "--verify-order",
                      "--seed", str(seed)]))
    return ops


def _bend_bundle(n: int, b: list, s: list, bent: list) -> dict:
    """Rectangular cusp fixture: the standard generators g2..gn with all
    commutator relators, and one HNN move per bent slot whose centralizer is
    diag(exp(s_k)) in position k + 1."""
    names = [f"g{i}" for i in range(2, n + 1)]
    rels = [[p, q, f"{p}^-1", f"{q}^-1"]
            for i, p in enumerate(names) for q in names[i + 1:]]
    moves = []
    for k in bent:
        base = [nm for nm in names if nm != names[k]]
        centralizer = np.eye(n + 1)
        centralizer[k + 1, k + 1] = math.exp(s[k])
        moves.append({"kind": "hnn", "base": base, "stable": names[k],
                      "edge_words": [[nm] for nm in base],
                      "centralizer": centralizer.tolist()})
    gens = {nm: ref.unipotent(n, k, b[k]) for k, nm in enumerate(names)}
    return {"rep": {"n": n, "generators": gens, "relators": rels}, "moves": moves}


# ---------------------------------------------------------------------------
# Hilbert inputs


def ball_points(rng, m: int, n: int, radius: float = 0.9) -> np.ndarray:
    """m points uniform in the ball of the given radius."""
    v = rng.normal(size=(m, n))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * radius * rng.uniform(0.0, 1.0, (m, 1)) ** (1.0 / n)


def model_points(rng, m: int, psi: list, t: int, n: int = 3) -> np.ndarray:
    """m interior points of the model domain: leaf height in [0.1, 2], log
    coordinates in [0.4, 2], free coordinates in [-1, 1]."""
    c = rng.uniform(0.1, 2.0, m)
    logs = rng.uniform(0.4, 2.0, (m, t))
    free = rng.uniform(-1.0, 1.0, (m, n - 1 - t))
    first = c - np.log(logs) @ np.asarray(psi[:t]) + 0.5 * np.sum(free * free, axis=1)
    return np.column_stack([first, logs, free])


def hilbert_refs(psi, t, X, Y):
    """Reference distances (Klein formula for the ball, psi None) and which
    chords have an end at infinity."""
    if psi is None:
        return [ref.klein_distance(x, y) for x, y in zip(X, Y)], [False] * len(X)
    out = [ref.model_distance(psi, t, x, y) for x, y in zip(X, Y)]
    return [d for d, _ in out], [inf for _, inf in out]


def _batch_check(op: Op, psi, t, X, Y):
    def check(text: str) -> list:
        refs, at_inf = hilbert_refs(psi, t, X, Y)
        errors, read_inf = ref.check_hilbert_csv(text, refs, at_inf)
        if any(at_inf):
            op.note = (f"{Path(op.argv[2]).name}: {sum(at_inf)} of {len(refs)} chords end at "
                       f"infinity, {read_inf} of them read inf")
        return errors
    return check


def _batch_ops(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.5, 2.0))
    b = float(rng.uniform(0.3, a))
    cases = [("ball", 2, None, 0), ("ball", 3, None, 0),
             ("model", 3, [0.0, 0.0, 0.0], 0), ("model", 3, [a, 0.0, 0.0], 1),
             ("model", 3, [a, b, 0.0], 2)]
    ops = []
    for kind, n, psi, t in cases:
        if kind == "ball":
            X, Y = ball_points(rng, BATCH_PAIRS, n), ball_points(rng, BATCH_PAIRS, n)
            domain = {"kind": "ball", "n": n}
        else:
            X, Y = model_points(rng, BATCH_PAIRS, psi, t), model_points(rng, BATCH_PAIRS, psi, t)
            domain = {"kind": "model", "psi": psi}
        tag = f"hilbert-{kind}-n{n}-t{t}"
        src = _write_json(workdir / f"{tag}.json", {
            "domain": domain, "pairs": [[x.tolist(), y.tolist()] for x, y in zip(X, Y)]})
        out = workdir / f"{tag}.csv"
        op = Op(f"hilbert {kind}", None, argv=["hilbert", "--in", src, "--out", str(out)],
                pairs=BATCH_PAIRS)
        op.check = _cli_check(out, str, _batch_check(op, psi, t, X, Y))
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# hilbert-oracle


def _moved(G: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Chart coordinates of the images of chart points under the matrix G."""
    H = np.hstack([P, np.ones((len(P), 1))]) @ G.T
    return H[:, :-1] / H[:, -1:]


def _oracle_ops(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.5, 2.0))
    m = ORACLE_PAIRS * ORACLE_OPS

    def projective(last_row):
        G = np.eye(4)
        G[:3, :] += rng.uniform(-0.2, 0.2, (3, 4))
        G[3, :3] = last_row
        return G

    # The last rows keep each image inside the chart: |c| < 1 on the unit
    # ball, and c1 x1 + c2 x2 + 1 > 0 on the model domain when c2 >= c1 psi_1.
    c1 = float(rng.uniform(0.05, 0.3))
    cases = [
        ("ball", projective(rng.uniform(-0.25, 0.25, 3)),
         ball_points(rng, m, 3), ball_points(rng, m, 3)),
        ("model", projective([c1, c1 * a * float(rng.uniform(1.0, 2.0)), 0.0]),
         model_points(rng, m, [a, 0.0, 0.0], 1), model_points(rng, m, [a, 0.0, 0.0], 1)),
    ]
    ops = []
    for kind, G, X, Y in cases:
        psi = None if kind == "ball" else [a]
        gX, gY = _moved(G, X), _moved(G, Y)
        for i in range(0, m, ORACLE_PAIRS):
            sl = slice(i, i + ORACLE_PAIRS)
            ops.append(Op(f"oracle {kind}",
                          lambda got, psi=psi, X=X[sl], Y=Y[sl]:
                          ref.check_distances(got, hilbert_refs(psi, 1, X, Y)[0]),
                          oracle=((kind, a, G), gX[sl], gY[sl]), pairs=ORACLE_PAIRS))
    return ops


_MAKERS = {"exact": _exact_ops, "float": _float_ops,
           "hilbert-batch": _batch_ops, "hilbert-oracle": _oracle_ops}


def make_ops(name: str, seed: int, workdir: Path) -> list[Op]:
    return _MAKERS[name](seed, workdir)


def bind(ops: list[Op], cb) -> None:
    """Attach the program calls.  ``cb`` holds the cuspbend modules; every
    call looks its function up on the module, so installed tracing sees it."""
    domains = {}
    for op in ops:
        if op.argv is not None:
            op.call = lambda argv=op.argv: cb.cli.main(argv)
            continue
        (kind, a, G), X, Y = op.oracle
        if kind not in domains:
            base = (cb.hilbert.ball_oracle(3) if kind == "ball" else
                    cb.hilbert.model_domain_oracle(cb.cusp_models.CuspParameter([a, 0.0, 0.0])))
            domains[kind] = cb.hilbert.transformed_oracle(base, cb.projlin.ProjMap(G))
        op.domain = domains[kind]
        op.call = lambda op=op, X=X, Y=Y: cb.hilbert.hilbert_distances(op.domain, X, Y)


def trace_domains(ops: list[Op], tracer) -> None:
    """Route every oracle operation through a traced copy of its domain."""
    traced = {}
    for op in ops:
        if op.domain is not None:
            key = id(op.domain)
            if key not in traced:
                traced[key] = tracer.wrap_domain(op.domain)
            op.domain = traced[key]
