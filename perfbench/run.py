"""End-to-end and per-layer benchmark of cuspbend.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Workloads: exact, float, hilbert-batch, hilbert-oracle (see README.md).  The
program is imported from ``src/`` of the checkout and called in-process.  A
run repeats whole rounds of the workload's operation mix until ``--seconds``
have passed (and at least MIN_ROUNDS rounds ran), then checks the outputs of
the last round against references computed apart from the program.

Each operation's time is its best over the rounds: other load on the machine
only ever slows an operation down, so the best of many repeats is the
steadiest estimate of what the operation itself costs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A summary goes to
standard error.  The exit code is 0 when every output checked correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

MIN_ROUNDS = 10             # repeats behind each operation's best time
SETUP_PROBES = 4            # extra set-ups in child processes; setup_s is the median
PROBE_TIMEOUT_S = 120
WORKLOADS = ("exact", "float", "hilbert-batch", "hilbert-oracle")


def import_program():
    """Import cuspbend from the checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cuspbend.cli
    except ImportError as exc:
        print(f"perfbench: cannot import cuspbend from {src}: {exc}", file=sys.stderr)
        return None
    if Path(cuspbend.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: cuspbend resolved to {cuspbend.__file__}, not {src}", file=sys.stderr)
        return None
    return SimpleNamespace(cli=cuspbend.cli, hilbert=cuspbend.hilbert,
                           projlin=cuspbend.projlin, cusp_models=cuspbend.cusp_models)


def run_op(op) -> bool:
    """One call through the program; False if it raised or exited nonzero."""
    try:
        result = op.call()
    except Exception as exc:  # an operation that fails is counted, not fatal
        op.last = exc
        return False
    op.last = result
    return not (op.argv is not None and result != 0)


def set_up(args, workdir: Path):
    """Import, inputs and warm-up.  Returns (ops, seconds of program set-up):
    the import, domain construction and the first call of each kind of
    operation; writing the inputs is the benchmark's own work and excluded."""
    t0 = time.perf_counter()
    cb = import_program()
    t_import = time.perf_counter() - t0
    if cb is None:
        return None, None
    import workloads                        # the benchmark's own code, after the timed import
    ops = workloads.make_ops(args.workload, args.seed, workdir)
    t1 = time.perf_counter()
    workloads.bind(ops, cb)
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            if not run_op(op):
                print(f"perfbench: warm-up {op.kind} failed: {op.last!r}", file=sys.stderr)
    return ops, t_import + time.perf_counter() - t1


def probe_setup(args) -> list[float]:
    """Set-up times of fresh child processes (imports are cached per process)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def timed_rounds(ops, seconds: float, tracer=None):
    """Whole rounds of the mix until ``seconds`` and MIN_ROUNDS are both
    reached.  Returns (seconds of each operation per round, failed count)."""
    rounds, failed = [], 0
    clock = time.perf_counter
    start = clock()
    while True:
        if tracer is not None:
            tracer.recording = not rounds           # keep full spans of round one
        gc.collect()                                # every round starts from the same heap state
        times = []
        for op in ops:
            t0 = clock()
            ok = run_op(op)
            times.append(clock() - t0)
            failed += not ok
        rounds.append(times)
        if clock() - start >= seconds and len(rounds) >= MIN_ROUNDS:
            break
    if tracer is not None:
        tracer.recording = False
    return rounds, failed


def best_times(rounds) -> list[float]:
    """Each operation's best time over the rounds."""
    return [min(column) for column in zip(*rounds)]


def check_outputs(ops) -> list[str]:
    failures = []
    for i, op in enumerate(ops):
        if isinstance(op.last, Exception):
            continue                          # counted in failed, not checked
        failures += [f"op {i} ({op.kind}): {msg}" for msg in op.check(op.last)]
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {\"setup_s\": ...} and exit (used for the set-up median)")
    args = ap.parse_args(argv)

    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, setup = set_up(args, workdir)
        if ops is None:
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        setups = [setup] + probe_setup(args)

        tracer = None
        if args.trace:
            import layer_trace
            import workloads
            tracer = layer_trace.Tracer()
            tracer.install()
            workloads.trace_domains(ops, tracer)
        rounds, failed = timed_rounds(ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = check_outputs(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(rounds) * len(ops)
    best = best_times(rounds)
    if args.trace:
        pairs = len(rounds) * sum(op.pairs for op in ops)
        metrics = tracer.per_op(attempted, pairs)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "ops": attempted,
            "round_one_spans": [list(span) for span in tracer.spans],
            "columns": ["id", "parent", "name", "start_s", "end_s"]}))
    else:
        metrics = {
            "ops_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(best), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for note in sorted({op.note for op in ops if op.note}):
        print(f"perfbench: note: {note}", file=sys.stderr)
    for i, op in enumerate(ops):
        if isinstance(op.last, Exception):
            print(f"perfbench: op {i} ({op.kind}) FAILED: {op.last!r}", file=sys.stderr)
    for msg in failures[:20]:
        print(f"perfbench: CHECK FAILED {msg}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} ops={attempted} failed={failed} "
          f"check_failures={len(failures)} best-time ops/s={len(best) / sum(best):.3f} "
          f"p50={1e3 * statistics.median(best):.4f}ms "
          f"setups={[round(s, 4) for s in setups]}", file=sys.stderr)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
