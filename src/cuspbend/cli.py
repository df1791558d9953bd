"""Command-line front end.

Subcommands: ``verify`` (run the randomized property suites), ``sweep``
(classified cusp parameters over a grid of bending values, CSV plus an
optional SVG chart), ``bend`` (apply bending moves to a representation from
JSON), ``classify`` (cusp parameter from bending data or from generators in
model form), and ``hilbert`` (distances for point pairs in a domain).

Exit codes: 0 success / all properties pass, 1 property failure (a failed
``verify`` property, or ``classify`` or ``sweep`` generators whose one
relative residual misses the normal form: it goes to standard error, and
``sweep`` names the first such grid row), 2 usage or I/O error.  Usage
errors include Hilbert points that are not finite and strictly interior, a
Hilbert pair that is not two points, a JSON string or object where a list
belongs, a ``domain`` or ``rep.generators`` that is not an object,
``classify --exact`` on generators, an integer field (``classify`` n,
``hilbert`` ball n, ``bend`` rep.n, a ``bend`` word exponent in pair form)
that is a bool, a string or not a whole number, a ball n below 1, an
empty ``sweep --b`` entry, and bending data that
:class:`RectangularCuspData` or the float guard refuses (not finite,
exp(s) overflowing, or a nonzero s below ``MIN_BEND_FLOAT``).

``sweep`` builds the s and mu rows of its whole grid as arrays, checks n
and b once and refuses the first row :class:`RectangularCuspData` would
refuse with that class's message, then classifies every row with one call
to the float kernel :func:`conjugation_residuals`.

Every output file goes through :func:`_write_text`, which rewrites an
existing file in place and cuts it to length after the write rather than
truncating it to zero first; ``/dev/null``, FIFOs and ``-`` (standard output)
are written but not cut.  Nothing calls ``fsync``: after a crash soon after a
rewrite, a file may hold its old bytes or a mix of old and new.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import verify as verify_mod
from .bending import BendingMove, MarkedRep, iterated_bend
from .cusp_classify import (
    PatternMismatch,
    RectangularCuspData,
    classify_h_form,
    conjugate_and_match,
    conjugation_residuals,
    cusp_parameter_entry,
    require_normal_form,
)
from .cusp_models import CuspParameter
from .hilbert import ball_oracle, hilbert_distances, model_domain_oracle
from .projlin import (DEFAULT_TOL, is_exact, matrix_from_json, parse_scalar, require_int,
                      require_json, scalar_to_json)


def _fmt(x) -> str:
    """Floats at 17 significant digits (round-trip safe); inf prints as inf."""
    return f"{float(x):.17g}"


def _write_text(path, text: str) -> None:
    """The one way the CLI writes an output (see the module docstring).  Not
    truncating to zero first matters on ext4: a close after truncate-to-zero
    starts writeback, and the next truncate of the same path waits for it."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _load_json(path) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    results = verify_mod.run_suites(args.suite or None, seed=args.seed,
                                    perturb=args.perturb_h)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        note = f"  [{r.note}]" if r.note else ""
        print(f"{status} {r.suite}.{r.name}  trials={r.trials}  "
              f"max_residual={r.max_residual:.3e}  tol={r.tol:.1e}{note}")
    all_pass = all(r.passed for r in results)
    report = {
        "seed": args.seed,
        "suites": sorted(args.suite) if args.suite else sorted(verify_mod.SUITES),
        "properties": [r.to_json() for r in results],
        "all_pass": all_pass,
    }
    if args.out:
        _write_text(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    print("ALL PASS" if all_pass else "FAILURES PRESENT")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# sweep


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:steps")
    start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("grid bounds must be finite")
    if steps < 1:
        raise ValueError("grid needs at least one step")
    # stop - start may overflow; the rows that are not finite are refused later
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(start, stop, steps)


def _exp_or_inf(s: float) -> float:
    """math.exp (np.exp differs in the last bit), inf where it overflows."""
    try:
        return math.exp(s)
    except OverflowError:
        return math.inf


def _cmd_sweep(args) -> int:
    n = args.n
    grid = _parse_grid(args.grid)
    b_raw = args.b.split(",")
    if "" in b_raw:
        raise ValueError(f"--b has an empty entry: {args.b!r}")
    if len(b_raw) == 1:
        b_vals = [float(b_raw[0])] * (n - 1)
    elif len(b_raw) == n - 1:
        b_vals = [float(x) for x in b_raw]
    else:
        raise ValueError(f"--b needs 1 or {n - 1} comma-separated values")
    if args.slots:
        slots = sorted({int(x) for x in args.slots.split(",")})
        if any(i < 2 or i > n for i in slots):
            raise ValueError(f"slots must lie in 2..{n}")
    else:
        slots = list(range(2, n + 1))

    RectangularCuspData(n, b=b_vals, s=[0.0] * (n - 1))  # n and b, checked once
    s_rows = np.where(np.isin(np.arange(2, n + 1), slots) & (grid[:, None] != 0),
                      grid[:, None], 0.0)
    mu_rows = np.where(s_rows != 0, [[_exp_or_inf(s)] for s in grid.tolist()], 1.0)
    bad = np.flatnonzero(~(np.isfinite(mu_rows) & (s_rows >= 0)).all(axis=1))
    if bad.size:  # the first row RectangularCuspData refuses, with its message
        RectangularCuspData(n, b=b_vals, s=s_rows[bad[0]].tolist())
    residuals = conjugation_residuals(b_vals, s_rows, mu_rows)
    require_normal_form(residuals, DEFAULT_TOL)
    bent = s_rows != 0
    a_vals = np.full(bent.shape, math.inf)
    a_vals[bent] = cusp_parameter_entry(np.broadcast_to(b_vals, bent.shape)[bent],
                                        mu_rows[bent], s_rows[bent])
    ainv = 1.0 / a_vals
    header = [f"{col}_{i}" for col in ("s", "a", "ainv") for i in range(2, n + 1)] + ["type"]
    types = np.count_nonzero(mu_rows != 1, axis=1).tolist()
    table = np.hstack([s_rows, a_vals, ainv]).tolist()
    # one % per row: "%.17g" prints exactly what _fmt prints, inf included
    row_fmt = ",".join(["%.17g"] * (len(header) - 1)) + ",%d"
    lines = [",".join(header)] + [row_fmt % (*row, t) for row, t in zip(table, types)]
    _write_text(args.out, "\n".join(lines) + "\n")

    if args.svg:
        series = {f"ainv_{i}": ainv[:, i - 2].tolist() for i in slots}
        _write_svg(args.svg, grid.tolist(), series, "inverted cusp parameter vs bending",
                   "s", "1/a")
    return 0


_SVG_COLORS = ["#1f6fb2", "#c03028", "#2e8b57", "#8a2be2", "#b8860b", "#555555"]


def _write_svg(path, xs, series, title, xlabel, ylabel) -> None:
    """Minimal hand-rolled polyline chart; no plotting dependency."""
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 36, 48
    plot_w, plot_h = width - ml - mr, height - mt - mb
    finite_vals = [v for ys in series.values() for v in ys if math.isfinite(v)]
    if not xs or not finite_vals:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite_vals), max(finite_vals)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return mt + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" y2="{mt + plot_h}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" stroke="black"/>',
        f'<text x="{ml + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{mt + plot_h / 2:.1f}" font-size="12" '
        f'transform="rotate(-90 18 {mt + plot_h / 2:.1f})" text-anchor="middle">{ylabel}</text>',
        f'<text x="{ml}" y="{height - 28}" text-anchor="middle" font-size="10">{_fmt(x_lo)}</text>',
        f'<text x="{ml + plot_w}" y="{height - 28}" text-anchor="middle" font-size="10">{_fmt(x_hi)}</text>',
        f'<text x="{ml - 6}" y="{mt + plot_h}" text-anchor="end" font-size="10">{_fmt(y_lo)}</text>',
        f'<text x="{ml - 6}" y="{mt + 10}" text-anchor="end" font-size="10">{_fmt(y_hi)}</text>',
    ]
    for idx, (label, ys) in enumerate(series.items()):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                       for x, y in zip(xs, ys) if math.isfinite(y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + plot_w - 4}" y="{mt + 14 + 14 * idx}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# bend / classify / hilbert


def _cmd_bend(args) -> int:
    bundle = _load_json(args.input)
    rep = MarkedRep.from_json(bundle["rep"])
    try:
        moves = [BendingMove.from_json(m) for m in bundle.get("moves", [])]
    except (ValueError, KeyError, TypeError):
        iterated_bend(rep, [], tol=args.tol)  # a failing input relator is reported first
        raise
    result = iterated_bend(rep, moves, tol=args.tol,
                           verify_order=args.verify_order,
                           rng=np.random.default_rng(args.seed))
    _write_text(args.out, json.dumps(result.to_json(), sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_classify(args) -> int:
    data = _load_json(args.input)
    if "generators" in data:
        if args.exact:
            raise ValueError("--exact needs bending data (n, b, mu), not generators")
        gens = [matrix_from_json(rows) for rows in data["generators"]]
        cls = classify_h_form(gens, tol=args.tol)
    else:
        n = require_int(data["n"], "n")
        b = [parse_scalar(x) for x in data["b"]]
        s = [parse_scalar(x) for x in data["s"]] if "s" in data else None
        mu = [parse_scalar(x) for x in data["mu"]] if "mu" in data else None
        if args.exact and (mu is None or not all(map(is_exact, b + mu))):
            raise ValueError("--exact needs rational b and mu values in the input")
        rect = RectangularCuspData(n, b=b, s=s, mu=mu)
        for key in ("b", "s", "mu"):
            require_json(data.get(key, []), key, list)
        cls = conjugate_and_match(rect, tol=args.tol)
    _write_text(args.out, json.dumps(cls.to_json(), sort_keys=True, indent=2) + "\n")
    return 0


def _points(points) -> np.ndarray:
    """Float rows of a list of points.  Numbers take numpy's conversion; only
    when that fails are string coordinates read by ``parse_scalar``, as psi
    is, so "1/2" reads like "0.5".  A string neither reads keeps numpy's
    message."""
    try:
        return np.asarray(points, dtype=np.float64)
    except ValueError:
        return np.asarray(_read_strings(points), dtype=np.float64)


def _read_strings(node):
    if isinstance(node, list):
        return [_read_strings(x) for x in node]
    if isinstance(node, str):
        try:
            return float(parse_scalar(node))
        except ValueError:
            pass
    return node


def _cmd_hilbert(args) -> int:
    spec = _load_json(args.input)
    dspec = require_json(spec["domain"], "domain", dict)
    kind = dspec.get("kind")
    if kind == "ball":
        dom = ball_oracle(require_int(dspec["n"], "n", least=1))
    elif kind == "model":
        psi = CuspParameter([float(parse_scalar(x)) for x in dspec["psi"]])
        dom = model_domain_oracle(psi)
        require_json(dspec["psi"], "psi", list)
    else:
        raise ValueError(f"unknown domain kind {kind!r} (expected ball or model)")
    pairs = spec["pairs"]
    for i, p in enumerate(pairs):
        if type(p) is list and len(p) != 2:
            raise ValueError(f"pairs[{i}] must be two points, got {len(p)}")
    X, Y = (_points([p[side] for p in pairs]) for side in (0, 1))
    dists = hilbert_distances(dom, X, Y)
    if X.ndim == 1:  # pairs of scalars, not of points (a string point parses as one)
        require_json(pairs, "pairs", list)
        raise ValueError(f"pairs[0] must be two points of dimension {dom.n}")
    # one % over every value: "%.17g" prints exactly what _fmt prints
    point = " ".join(["%.17g"] * X.shape[1])
    row = f'"{point}","{point}",%.17g'
    values = np.column_stack([X, Y, dists]).ravel().tolist()
    _write_text(args.out, "x,y,d\n" + "\n".join([row] * len(dists)) % tuple(values) + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspbend",
        description="Model cusp domains, Hilbert metrics, bending, and cusp classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run randomized property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", action="append",
                   help=f"restrict to a suite ({', '.join(sorted(verify_mod.SUITES))}); repeatable")
    p.add_argument("--out", help="write a JSON report here")
    p.add_argument("--perturb-h", type=float, default=0.0,
                   help="test hook: inject this much noise into the cusp-group "
                        "elements of the leaf-invariance property")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="classified parameters over a bending grid (CSV/SVG)")
    p.add_argument("--n", type=int, required=True, help="cusp dimension")
    p.add_argument("--grid", required=True, help="bending values start:stop:steps")
    p.add_argument("--b", default="1", help="shape constants (single value or comma list)")
    p.add_argument("--slots", help="comma list of bent slots in 2..n (default: all)")
    p.add_argument("--out", default="-", help="CSV path (default stdout)")
    p.add_argument("--svg", help="also write an SVG chart of 1/a vs s")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bend", help="apply bending moves to a representation (JSON in/out)")
    p.add_argument("--in", dest="input", required=True, help='JSON {"rep":…, "moves":[…]}')
    p.add_argument("--out", default="-")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify-order", action="store_true",
                   help="re-run the moves in a random order and compare")
    p.set_defaults(func=_cmd_bend)

    p = sub.add_parser("classify", help="cusp parameter from bending data or model-form generators")
    p.add_argument("--in", dest="input", required=True,
                   help='JSON {"n":…, "b":…, "s"/"mu":…} or {"generators": [[…]]}')
    p.add_argument("--out", default="-")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--exact", action="store_true",
                   help="require exact rational data (zero-residual matching)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("hilbert", help="Hilbert distances for point pairs (CSV out)")
    p.add_argument("--in", dest="input", required=True,
                   help='JSON {"domain": {"kind": "ball"|"model", …}, "pairs": [[x, y], …]}')
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_hilbert)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cuspbend: i/o error: {exc}", file=sys.stderr)
        return 2
    except PatternMismatch as exc:
        print(f"cuspbend: {exc}\nresidual: {scalar_to_json(exc.residual)}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as exc:
        print(f"cuspbend: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
