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
Hilbert pair that is not two points (or whose points differ in length
from those of other pairs), any other JSON kind where a list belongs, an
input document, ``domain`` or ``rep.generators`` that is not an object,
``classify --exact`` on generators, an integer field (``classify`` n,
``hilbert`` ball n, ``bend`` rep.n, a ``bend`` word exponent in pair form)
that is a bool, a string or not a whole number, a ball n below 1, a
``sweep`` ``--b``, ``--grid`` or ``--slots`` entry that is empty or not a
number (an integer for ``--slots`` and the grid steps), bending data that
:class:`RectangularCuspData` or the float guard refuses (not finite,
exp(s) overflowing, or a nonzero s below ``MIN_BEND_FLOAT``), and an exact
value that does not fit a float where it is read in floats (a b, mu or
psi, or a matrix entry), with a message naming it.

``sweep`` builds the s and mu rows of its whole grid as arrays, checks n
and b once and refuses the first row :class:`RectangularCuspData` would
refuse with that class's message, then classifies every row with one call
to the float kernel :func:`conjugation_residuals`.

Every float in a CSV or SVG output prints as ``"%.17g"`` prints it.
``sweep`` and the SVG labels call Python's formatting once a value; the
``hilbert`` CSV is built by :func:`_hilbert_csv` from numpy arrays, a block
of rows at a time: a value in ``"%.17g"``'s fixed-notation range gets its 17
digits from an exact product by a power of ten and its text from digit
tables, and every other value (0, -0.0, inf, nan, subnormals, exponent
notation) goes through ``"%.17g" % x``.  The bytes are those of one ``%``
over every value.

An argv that starts with a subcommand is read by that subcommand's parser
in one pass; anything it leaves unread, and every other argv, goes to the
full parser, so usage errors and help read as from the full parser.

An input file is read by :func:`_load_json` through an unbuffered FileIO
(``open(path, "rb", buffering=0)``), which refuses a directory as ``open``
does and reads to EOF, and decoded as ``open(path)`` decodes it (the
locale's preferred encoding, strict errors, universal newlines), so its
decode and JSON error messages are those of ``json.load(open(path))``;
``--in -`` reads standard input.

The JSON outputs (``bend``, ``classify``, ``verify --out``) are written by
:func:`_json_text`, byte for byte ``json.dumps(o, sort_keys=True,
indent=2)``, without the pure-Python encoder that ``indent`` runs: a list or
dict of scalars goes through one C encoder, cached per indent, whose item
separator carries the newline and the indent.

Every output file goes through :func:`_write_text`, which encodes the text
once and writes it with ``os.write`` into an existing file in place, then
cuts the file to length, rather than truncating it to zero first;
``/dev/null``, FIFOs and ``-`` (standard output) are written but not cut.
Nothing calls ``fsync``: after a crash soon after a rewrite, a file may hold
its old bytes or a mix of old and new.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii

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
    require_normal_parameters,
)
from .cusp_models import CuspParameter
from .hilbert import ball_oracle, hilbert_distances, model_domain_oracle
from .projlin import (DEFAULT_TOL, is_exact, matrix_from_json, parse_scalar, require_float,
                      require_int, require_json, scalar_to_json)


def _fmt(x) -> str:
    """Floats at 17 significant digits (round-trip safe); inf prints as inf."""
    return f"{float(x):.17g}"


def _text_encoding() -> str:
    """The encoding ``open(path)`` reads and writes text in: UTF-8 in UTF-8
    mode, else the locale's.  ``locale`` is imported only in that case: it
    adds about 1 ms and 0.25 MB to a process."""
    if sys.flags.utf8_mode:
        return "utf-8"
    import locale
    return locale.getpreferredencoding(False)


def _write_text(path, text: str) -> None:
    """The one way the CLI writes an output (see the module docstring): the
    text encoded once, written by ``os.write`` until it is all out (a FIFO
    may take part of it), then the file cut to that length if it is a
    regular file.  Not truncating to zero first matters on ext4: a close
    after truncate-to-zero starts writeback, and the next truncate of the
    same path waits for it."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    data = text.encode(_text_encoding())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _load_json(path) -> dict:
    """The JSON document at ``path`` (``-``: standard input), read as
    ``json.load(open(path))`` reads it; a document that is not a JSON object
    is refused by :func:`require_json` as the ``input``."""
    doc = json.load(sys.stdin) if path == "-" else json.loads(_read_text(path))
    return require_json(doc, "input", dict)


def _read_text(path) -> str:
    """The text of the file at ``path`` as ``open(path).read()`` gives it:
    the bytes read to EOF by an unbuffered FileIO, which refuses a directory
    with ``open``'s own message, decoded by :func:`_text_encoding` with
    strict errors, and ``\\r\\n`` and ``\\r`` read as ``\\n``, so decode errors
    and JSON error offsets are those of ``open``.  The bytes are freed before
    the text is parsed."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode(_text_encoding())
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


# The JSON outputs: the text of json.dumps(o, sort_keys=True, indent=2),
# whose indent runs json's pure-Python encoder.  A container of scalars only
# goes through one C encoder whose item separator is the newline and pad of
# its items, cached per pad; deeper containers are joined here.

_SCALARS = frozenset({str, int, float, bool, type(None)})


def _unserializable(o):
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


@functools.cache
def _flat_encoder(sep: str):
    """The C encoder of a list or dict of scalars with items joined by
    ``sep``; its text is ``[a<sep>b]`` or ``{"k": v<sep>...}``, keys sorted."""
    return c_make_encoder(None, _unserializable, encode_basestring_ascii, None, ": ", sep,
                          True, False, True)


def _json(o, pad: str) -> str:
    """The text of ``o`` as json.dumps(o, sort_keys=True, indent=2) writes it
    where ``pad`` (a newline and the indent) starts the line of ``o``."""
    if isinstance(o, (dict, list, tuple)):
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        inner = pad + "  "
        is_dict = isinstance(o, dict)
        if _SCALARS.issuperset(map(type, o.values() if is_dict else o)):
            text = "".join(_flat_encoder("," + inner)(o, 0))
            return text[0] + inner + text[1:-1] + pad + text[-1]
        if is_dict:
            items = [encode_basestring_ascii(k) + ": " + _json(o[k], inner) for k in sorted(o)]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        return "[" + inner + ("," + inner).join([_json(x, inner) for x in o]) + pad + "]"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        return "Infinity" if o == math.inf else "-Infinity" if o == -math.inf else float.__repr__(o)
    _unserializable(o)


def _json_text(o) -> str:
    """The one JSON writer of ``bend``, ``classify`` and ``verify --out``:
    json.dumps(o, sort_keys=True, indent=2), byte for byte, for str keys."""
    return _json(o, "\n")


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
        _write_text(args.out, _json_text(report) + "\n")
    print("ALL PASS" if all_pass else "FAILURES PRESENT")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# sweep


def _flag_number(flag: str, text: str, entry: str, kind):
    """One entry of the value ``text`` of ``flag``, read by ``kind`` (float
    or int); a ``ValueError`` naming the flag when it is empty or not a
    number of that kind."""
    if not entry:
        raise ValueError(f"{flag} has an empty entry: {text!r}")
    try:
        return kind(entry)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{flag} has an entry that is not {noun}: {entry!r} in {text!r}") from None


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:steps")
    start, stop, steps = (_flag_number("--grid", spec, x, kind)
                          for x, kind in zip(parts, (float, float, int)))
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
    b_vals = [_flag_number("--b", args.b, x, float) for x in args.b.split(",")]
    if len(b_vals) == 1:
        b_vals *= n - 1
    elif len(b_vals) != n - 1:
        raise ValueError(f"--b needs 1 or {n - 1} comma-separated values")
    if args.slots:
        slots = sorted({_flag_number("--slots", args.slots, x, int) for x in args.slots.split(",")})
        if any(i < 2 or i > n for i in slots):
            raise ValueError(f"slots must lie in 2..{n}")
    else:
        slots = list(range(2, n + 1))

    RectangularCuspData(n, b=b_vals, s=[0.0] * (n - 1))  # n and b, checked once
    bent = np.isin(np.arange(2, n + 1), slots) & (grid[:, None] != 0)
    s_rows = np.where(bent, grid[:, None], 0.0)
    mu_rows = np.where(bent, [[_exp_or_inf(s)] for s in grid.tolist()], 1.0)
    bad = np.flatnonzero(~(np.isfinite(mu_rows) & (s_rows >= 0)).all(axis=1))
    if bad.size:  # the first row RectangularCuspData refuses, with its message
        RectangularCuspData(n, b=b_vals, s=s_rows[bad[0]].tolist())
    residuals = conjugation_residuals(b_vals, s_rows, mu_rows)
    require_normal_form(residuals, DEFAULT_TOL)
    a_vals = np.where(bent, cusp_parameter_entry(b_vals, mu_rows, s_rows), math.inf)
    require_normal_parameters(a_vals, range(n - 1))
    ainv = 1.0 / a_vals
    header = [f"{col}_{i}" for col in ("s", "a", "ainv") for i in range(2, n + 1)] + ["type"]
    types = np.count_nonzero(bent, axis=1).tolist()
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
                           verify_order=args.verify_order, seed=args.seed)
    _write_text(args.out, _json_text(result.to_json()) + "\n")
    return 0


def _cmd_classify(args) -> int:
    data = _load_json(args.input)
    if "generators" in data:
        if args.exact:
            raise ValueError("--exact needs bending data (n, b, mu), not generators")
        gens = [matrix_from_json(rows)
                for rows in require_json(data["generators"], "generators", list)]
        cls = classify_h_form(gens, tol=args.tol)
    else:
        n = require_int(data["n"], "n")
        b = [parse_scalar(x) for x in require_json(data["b"], "b", list)]
        s, mu = ([parse_scalar(x) for x in require_json(data[key], key, list)]
                 if key in data else None for key in ("s", "mu"))
        if args.exact and (mu is None or not all(map(is_exact, b + mu))):
            raise ValueError("--exact needs rational b and mu values in the input")
        rect = RectangularCuspData(n, b=b, s=s, mu=mu)
        cls = conjugate_and_match(rect, tol=args.tol)
    _write_text(args.out, _json_text(cls.to_json()) + "\n")
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


def _require_even_points(pairs, n: int) -> None:
    """On a batch that numpy could not read: when its points differ in
    length, refuse the first pair with a point that is not a list of n
    coordinates, as a batch of scalars is refused.  Points of one length
    keep numpy's message (a coordinate that is not a number).  A valid
    batch never comes here, so it pays for no check per pair."""
    lengths = [len(x) if type(x) is list else None for p in pairs for x in p]
    if len(set(lengths)) > 1:
        i = next(k for k, m in enumerate(lengths) if m != n) // 2
        raise ValueError(f"pairs[{i}] must be two points of dimension {n}")


def _cmd_hilbert(args) -> int:
    spec = _load_json(args.input)
    dspec = require_json(spec["domain"], "domain", dict)
    kind = dspec.get("kind")
    if kind == "ball":
        dom = ball_oracle(require_int(dspec["n"], "n", least=1))
    elif kind == "model":
        psi = CuspParameter([require_float(parse_scalar(x), f"psi_{i + 1}")
                             for i, x in enumerate(require_json(dspec["psi"], "psi", list))])
        dom = model_domain_oracle(psi)
    else:
        raise ValueError(f"unknown domain kind {kind!r} (expected ball or model)")
    pairs = require_json(spec["pairs"], "pairs", list)
    for i, p in enumerate(pairs):
        # the field name is built for a failing pair only: for every pair it
        # cost about 4% of a 1000-pair call
        if type(p) is not list or len(p) != 2:
            require_json(p, f"pairs[{i}]", list)
            raise ValueError(f"pairs[{i}] must be two points, got {len(p)}")
    try:
        X, Y = (_points([p[side] for p in pairs]) for side in (0, 1))
    except ValueError:
        _require_even_points(pairs, dom.n)
        raise
    if pairs == []:  # an empty batch, which the library takes as 0 rows of n
        X = Y = np.zeros((0, dom.n))
    dists = hilbert_distances(dom, X, Y)
    if X.ndim == 1:  # pairs of scalars, not of points (a string point parses as one)
        raise ValueError(f"pairs[0] must be two points of dimension {dom.n}")
    # the bytes of "%.17g" over every value, built from the arrays
    _write_text(args.out, _hilbert_csv(X, Y, dists))
    return 0


# The hilbert CSV: the bytes "%.17g" prints, built from arrays.  "%.17g"
# prints a value in fixed notation when the decimal exponent X of its 17
# significant digits lies in -4..16.  CPython finds 17 digits on dtoa's
# bignum path, about 0.45 us a value; here D, the 17 digits as an integer,
# comes from one product by an exact power of ten and that product's exact
# error, and its text from tables of four ASCII digits.

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for float64
_POW10 = np.array([float(10 ** k) for k in range(21)])  # exact: 10^k is a double for k <= 22
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_CSV_BLOCK_ROWS = 256  # rows formatted per pass: keeps the temporaries small


def _digit_tables():
    """Four ASCII digits of each g < 10^4 as one little-endian uint32 (the
    first digit in the lowest byte), and the count of g's trailing zeros (4
    for g = 0).  Built by broadcast assignment over g's four digits."""
    digits = np.arange(48, 58, dtype=np.uint8)  # b"0123456789"
    text = np.empty((10, 10, 10, 10, 4), np.uint8)
    text[..., 0] = digits[:, None, None, None]
    text[..., 1] = digits[:, None, None]
    text[..., 2] = digits[:, None]
    text[..., 3] = digits
    zeros = np.zeros((10, 10, 10, 10), np.int8)
    zeros[..., 0] = 1
    zeros[..., 0, 0] = 2
    zeros[..., 0, 0, 0] = 3
    zeros[0, 0, 0, 0] = 4
    return text.view("<u4").ravel(), zeros.ravel()


_DIGITS4, _TRAILING_ZEROS = _digit_tables()
# _LOW[:, q]: the three words of a 24-byte little-endian number that keep its
# low q bytes, q = 0..17
_LOW = np.array([[(1 << 8 * min(max(q - 8 * w, 0), 8)) - 1 for q in range(18)]
                 for w in range(3)], dtype="<u8")
# Indexed by X + 4 for X = -4..16: the mask of the integer digits (none for
# X < 0), the bits by which the digits after them move up, and the bytes
# that move makes room for: "0." and -X - 1 zeros in front for X < 0, the
# point after the X + 1 integer digits for X = 0..15.  _INSERT's column 20
# (X = 16) adds nothing, and serves any field without a fraction.
_INTEGER_LOW = _LOW[:, [max(x + 1, 0) for x in range(-4, 17)]]
_SHIFT = np.array([8 * max(1 - x, 1) for x in range(-4, 17)], dtype=np.uint64)
_INSERT = np.frombuffer(b"".join(
    (b"0.000"[:1 - x] if x < 0 else bytes(x + 1) + b".").ljust(24, b"\0")
    for x in range(-4, 16)) + bytes(24), "<u8").reshape(21, 3).T.copy()


def _digits17(a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """D = a * 10^(16 - X) rounded half-even to an integer, exactly: p is the
    float product and err its exact error (Dekker's two-product; 10^(16 - X)
    is exact for X in -4..16).  For p >= 10^16 > 2^53, p is an even integer,
    so D = p + rint(err)."""
    k = 16 - X
    p = a * _POW10[k]
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _csv_rows(V: np.ndarray, lead: np.ndarray) -> bytes:
    """The CSV bytes of the value rows V, (rows, k).  Each value fills four
    little-endian words: the separator before it, and the sign of a negative
    fixed-notation value, right-aligned in the first; the field's text in
    the other three.  Dropping the NUL padding leaves the CSV.

    X starts as floor(log10 |x|) and is corrected while D lies outside
    [10^16, 10^17).  That is sound next to a power of ten: a wrong X could
    survive only by D rounding onto 10^16 from an |x| below 10^X within a
    relative 5e-17.  No double lies there: for X >= 0, 10^X is a double and
    the one below it is 1.1e-16 away; for X = -1..-4 the nearest doubles
    below 10^X lie 8.3e-17 to 2e-16 away."""
    v = V.ravel()
    a = np.abs(v)
    fast = (a >= 1e-5) & (a < 1e18)  # may have X in -4..16; not 0, nan, inf or subnormal
    a[~fast] = 1.0
    X = np.floor(np.log10(a)).astype(np.intp).clip(-4, 16)  # intp: indices index fastest
    D = _digits17(a, X)
    off = np.flatnonzero((D < 10 ** 16) | (D >= 10 ** 17))
    while off.size:
        X[off] += np.where(D[off] < 10 ** 16, -1, 1)
        gone = off[(X[off] < -4) | (X[off] > 16)]
        fast[gone] = False
        a[gone], X[gone] = 1.0, 0  # printed by "%" below; D = 10^16 is in range
        D[off] = _digits17(a[off], X[off])
        off = off[(D[off] < 10 ** 16) | (D[off] >= 10 ** 17)]

    # the digits: four groups of four, then the last
    Q = D // 10
    last = D - 10 * Q
    hi = Q // 10 ** 8
    halves = np.column_stack([hi, Q - hi * 10 ** 8])
    G = np.empty((len(v), 2, 2), np.intp)
    np.floor_divide(halves, 10 ** 4, out=G[:, :, 0])
    np.subtract(halves, G[:, :, 0] * 10 ** 4, out=G[:, :, 1])
    G = G.reshape(-1, 4)
    T = _TRAILING_ZEROS[G]
    zeros = T[:, 0]
    for j in (1, 2, 3):
        zeros = T[:, j] + (G[:, j] == 0) * zeros
    # digits printed: "%g" drops the trailing zeros of the fraction only
    keep = np.maximum(17 - (last == 0) * (1 + zeros), X + 1)
    W = np.empty((3, len(v)), "<u8")  # bytes 0..16 of a 24-byte number
    W[:2] = _DIGITS4[G].view("<u8").T
    W[2] = last + 48
    W &= np.take(_LOW, keep, axis=1)
    # move the digits after the integer part up, one byte for the point or
    # 1 - X bytes for "0." and the zeros, and write those bytes in
    e = X + 4
    low = W & np.take(_INTEGER_LOW, e, axis=1)
    W ^= low
    shift = _SHIFT[e]
    carry = W[:2] >> (64 - shift)
    W <<= shift
    W[1:] |= carry
    W |= low
    W |= np.take(_INSERT, np.where(keep > X + 1, e, 20), axis=1)

    words = np.empty((*V.shape, 4), "<u8")
    words[:, :, 0] = np.where(((v < 0) & fast).reshape(V.shape), lead[1], lead[0])
    words = words.reshape(-1, 4)
    words[:, 1:] = W.T
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join([("%.17g" % x).ljust(24, "\0") for x in v[slow].tolist()])
        words[slow, 1:] = np.frombuffer(text.encode("ascii"), "<u8").reshape(-1, 3)
    b = words.view(np.uint8).ravel()
    return b[b != 0].tobytes()


def _hilbert_csv(X: np.ndarray, Y: np.ndarray, dists: np.ndarray) -> str:
    """The ``hilbert`` CSV: header x,y,d, then per pair the quoted
    space-separated points and the distance, each value as "%.17g" prints
    it.  A row starts with its newline, which ends the line before."""
    seps = [b'\n"'] + [b" "] * (X.shape[1] - 1) + [b'","'] + [b" "] * (X.shape[1] - 1) + [b'",']
    lead = np.frombuffer(b"".join([s.rjust(8, b"\0") for s in seps] +
                                  [(s + b"-").rjust(8, b"\0") for s in seps]), "<u8").reshape(2, -1)
    V = np.column_stack([X, Y, dists])
    rows = [_csv_rows(V[i:i + _CSV_BLOCK_ROWS], lead) for i in range(0, len(V), _CSV_BLOCK_ROWS)]
    return "x,y,d" + b"".join(rows).decode("ascii") + "\n"


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers():
    """The full parser and its subcommands' parsers by name."""
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
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the --verify-order re-run's move order, non-negative")
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
    return parser, sub.choices


_parsers = functools.cache(_build_parsers)  # built once per process: parsing keeps no state


def _parse_args(argv):
    """``build_parser().parse_args(argv)``, in one argparse pass where argv
    starts with a subcommand: its parser reads the rest.  Anything it leaves
    unread, and every other argv, goes to the full parser, whose messages
    are then those of the one route."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
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
