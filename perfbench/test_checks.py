"""Negative controls for the benchmark's checks.

Each workload's operations run once through cuspbend; their outputs must
pass the checks, and each corrupted output must be counted as a failure.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run
import workloads


@pytest.fixture(scope="module")
def cb():
    program = run.import_program()
    assert program is not None
    return program


def run_once(cb, name, seed, workdir, count=None):
    ops = workloads.make_ops(name, seed, workdir)
    if count is not None:
        ops = ops[:count]
    workloads.bind(ops, cb)
    for op in ops:
        assert run.run_op(op), op.last
    assert run.check_outputs(ops) == []
    return ops


def out_path(op) -> Path:
    return Path(op.argv[op.argv.index("--out") + 1])


def rewrite_json(op, edit):
    path = out_path(op)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def failures(op) -> int:
    return len(run.check_outputs([op]))


@pytest.mark.parametrize("edit", [
    lambda o: o.update(residual="1/1000000"),
    lambda o: o.update(type=o["type"] + 1),
    lambda o: o["psi"].__setitem__(0, o["psi"][0] * (1 + 1e-9)),
    lambda o: o["conjugator"][1].__setitem__(0, "1/3"),
])
def test_exact_corruption_counts(cb, tmp_path, edit):
    op = run_once(cb, "exact", 3, tmp_path)[-1]          # n = 6, type 5
    rewrite_json(op, edit)
    assert failures(op) >= 1


def test_sweep_corruption_counts(cb, tmp_path):
    ops = [op for op in run_once(cb, "float", 3, tmp_path) if op.argv[0] == "sweep"]
    path = out_path(ops[0])
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    n = len(cells) // 3 + 1
    cells[n - 1] = repr(float(cells[n - 1]) * (1 + 1e-8))   # a_2 of one row
    path.write_text("\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n")
    assert failures(ops[0]) >= 1
    # rows out of order: 1/a no longer increases in s
    path = out_path(ops[1])
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0]] + lines[1:][::-1]) + "\n")
    assert failures(ops[1]) >= 1


def test_bend_corruption_counts(cb, tmp_path):
    op = next(op for op in run_once(cb, "float", 3, tmp_path) if op.argv[0] == "bend")
    rewrite_json(op, lambda o: o["generators"]["g2"][1].__setitem__(1, 1.5))
    assert failures(op) >= 1


def test_hilbert_batch_corruption_counts(cb, tmp_path):
    ops = run_once(cb, "hilbert-batch", 3, tmp_path)
    for op, value in ((ops[0], lambda d: d + 1e-7), (ops[3], lambda d: math.inf)):
        path = out_path(op)
        lines = path.read_text().splitlines()
        head, d = lines[7].rsplit(",", 1)
        lines[7] = f"{head},{value(float(d))!r}"
        path.write_text("\n".join(lines) + "\n")
        assert failures(op) == 1


def test_hilbert_batch_counts_chords_at_infinity(cb, tmp_path):
    op = run_once(cb, "hilbert-batch", 3, tmp_path)[4]       # psi = (a, b, 0)
    assert "chords end at infinity" in op.note


def test_hilbert_oracle_corruption_counts(cb, tmp_path):
    ops = run_once(cb, "hilbert-oracle", 3, tmp_path)
    for op in (ops[0], ops[-1]):                               # ball, then model
        op.last = np.array(op.last) * (1 + 1e-8)
        assert failures(op) == len(op.last)


def test_failed_operation_is_counted_not_checked():
    def boom():
        raise ValueError("program fault")

    op = workloads.Op("probe", lambda _: ["never checked"], argv=None)
    op.call = boom
    rounds, failed = run.timed_rounds([op] * 4, 0.0)
    assert len(rounds) == run.MIN_ROUNDS and failed == 4 * run.MIN_ROUNDS
    assert run.check_outputs([op]) == []
