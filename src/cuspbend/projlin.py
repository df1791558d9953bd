"""Projective linear algebra over a dual exact/float scalar.

Scalars are plain Python numbers: ``fractions.Fraction`` (or ``int``) in
exact mode, ``float`` in float mode.  The mode tag is the type itself.

An exact :class:`ProjMap` stores its exact value as an integer numerator
matrix ``num`` (a numpy ``object`` array of Python ints) over one positive
int denominator ``den``, with ``gcd(den, *num) == 1``, so every rational
matrix has exactly one stored form, and no other.  Composition is an
integer matmul plus one gcd reduction; inversion uses fraction-free Bareiss
elimination (Bareiss 1968, *Math. Comp.* 22), and :func:`matrix_to_json`
prints each entry from ``num`` and ``den``, with one gcd unless it is 0
or den.  ``Fraction`` appears only where scalars are parsed
(:func:`parse_scalar`) or printed; a square JSON list of float rows is
read straight into ``float64``.  Float maps store ``entries`` as a frozen
``float64`` array, and points are ``float64`` only.  An exact operand that
meets a float one is read through :meth:`ProjMap.to_float`, so mixed
products and actions run in floats.  An exact value beyond float range is
refused with a ``ValueError`` where it meets floats: a matrix entry whose
float overflows, and a scalar that :func:`require_float` reads.

Everything here is a value: construction copies, arrays are frozen, and
operations return new values.  A map computes its inverse once per instance
and keeps it (:func:`inverse`); two threads that ask at once compute equal
values, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_TOL = 1e-9

# condition-number ceiling before float inversion is refused
COND_LIMIT = 1e13


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


def is_exact(x) -> bool:
    """True for scalars that support +,-,*,/ without rounding (floats skip an ABC check)."""
    return type(x) is not float and isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _is_exact_type(cls) -> bool:
    """:func:`is_exact` for every instance of the type."""
    return issubclass(cls, (int, Fraction)) and not issubclass(cls, bool)


def parse_scalar(s):
    """JSON scalar decoding: strings "p/q" are exact, ints exact, floats float.
    A string with a zero denominator is a ``ValueError``, as any other string
    that is not a number is.  A string "p" or "p/q" of ASCII digits only is
    read by ``int``, without ``Fraction``'s regular expression; every other
    string by ``Fraction(s)``, which gives such a string the same value."""
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        try:
            if num.isdigit() and num.isascii() and (not slash or den.isdigit() and den.isascii()):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {s!r}") from None
    if isinstance(s, bool):
        raise ValueError(f"not a scalar: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        return s
    raise ValueError(f"not a scalar: {s!r}")


def require_json(value, what: str, kind: type):
    """``value`` if it is a ``kind`` (list or dict), else a ``ValueError``
    naming ``what``: iterating a string would read it by character and a
    dict by key, and reading a number or null would fail in Python's own
    words, naming no field."""
    if not isinstance(value, kind):
        noun = "object" if kind is dict else "list"
        raise ValueError(f"{what} must be a JSON {noun}, not {value!r}")
    return value


def require_int(value, what: str, least: int | None = None) -> int:
    """``int(value)`` for a JSON integer field.  A bool, a string, or a float
    that is not a whole number (inf and nan among them) is a ``ValueError``
    naming the field, and so is a value below ``least``; any other value
    keeps ``int``'s own error, as a string that is no integer does."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} must be a JSON integer, not {value!r}")
    n = int(value)
    if isinstance(value, (bool, str)):
        raise ValueError(f"{what} must be a JSON integer, not {value!r}")
    if least is not None and n < least:
        raise ValueError(f"{what} must be at least {least}, got {n}")
    return n


def require_float(x, what: str) -> float:
    """``float(x)`` for a parsed scalar, or a ``ValueError`` naming ``what``
    when x does not fit a float: its float overflows, or it is nonzero and
    its float is 0."""
    try:
        f = float(x)
    except OverflowError:
        raise ValueError(f"{what} does not fit a float: it overflows") from None
    if f == 0 and x != 0:
        raise ValueError(f"{what} does not fit a float: it rounds to 0")
    return f


def _overflow(values: np.ndarray) -> ValueError:
    """The refusal of a matrix of scalars whose float conversion overflowed:
    it names the first entry whose float overflows."""
    for idx, x in np.ndenumerate(values):
        try:
            float(x)
        except OverflowError:
            return ValueError(f"matrix entry {idx} does not fit a float: it overflows")


def scalar_to_json(x):
    """JSON scalar encoding: exact as "p/q" strings, floats as numbers."""
    if is_exact(x):
        return str(Fraction(x))
    return float(x)


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """Point of projective n-space: n+1 homogeneous ``float64`` coordinates,
    not all zero (exact scalars are rounded to float).

    Two points are equal iff their coordinate vectors are proportional by a
    nonzero scalar; use :func:`proj_equiv`, not ``==``.
    """

    coords: np.ndarray

    def __init__(self, coords):
        vec = np.array(coords, dtype=np.float64)
        if vec.ndim != 1 or vec.shape[0] < 2:
            raise ValueError("projective point needs at least 2 coordinates")
        if not vec.any():
            raise ValueError("projective point cannot be the zero vector")
        vec.setflags(write=False)
        object.__setattr__(self, "coords", vec)

    @property
    def n(self) -> int:
        return self.coords.shape[0] - 1

    def chart(self) -> np.ndarray:
        """Affine-chart coordinates (divide by last entry), length n.

        Raises if the point lies on the hyperplane at infinity of the chart.
        """
        last = self.coords[-1]
        if last == 0:
            raise ValueError("point is outside the affine chart (last coordinate zero)")
        return self.coords[:-1] / last

    def __repr__(self):
        return f"ProjPoint({list(self.coords)})"


def _exact_parts(mat: np.ndarray):
    """Object array of exact scalars -> (numerator ints, denominator).

    The denominator is the lcm of the entries' denominators; the result is
    already reduced, since each prime of that lcm divides some entry's own
    denominator to the full power, and that entry's numerator is prime to it.
    """
    pairs = [x.as_integer_ratio() for x in mat.flat]
    den = math.lcm(*[q for _, q in pairs])
    num = np.array([p * (den // q) for p, q in pairs], dtype=object)
    return num.reshape(mat.shape), den


class ProjMap:
    """Invertible (n+1)x(n+1) matrix regarded up to nonzero global scale.

    An exact map holds its value as ``num / den`` (see the module notes) and
    has ``entries = None``; a float map holds ``entries`` as ``float64`` and
    has ``num = den = None``.  Instances are immutable, but for the inverse
    that :func:`inverse` keeps on one.
    """

    __slots__ = ("n", "num", "den", "entries", "_inverse")

    def __init__(self, entries):
        if isinstance(entries, np.ndarray) and entries.dtype == np.float64:
            mat = entries
        else:
            mat = np.array(entries, dtype=object)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"projective map must be square, got shape {mat.shape}")
        if mat.shape[0] < 2:
            raise ValueError("projective map must be at least 2x2")
        if mat.dtype == object and all(map(_is_exact_type, set(map(type, mat.flat)))):
            self._set(*_exact_parts(mat), None)
            return
        try:
            self._set(None, None, np.array(entries, dtype=np.float64))
        except OverflowError:
            raise _overflow(mat) from None

    def _set(self, num, den, entries) -> None:
        """Freeze and store the owned array of one form: num (with den) or entries."""
        held = entries if num is None else num
        held.setflags(write=False)
        setattr_ = object.__setattr__
        setattr_(self, "n", held.shape[0] - 1)
        setattr_(self, "num", num)
        setattr_(self, "den", den)
        setattr_(self, "entries", entries)
        setattr_(self, "_inverse", None)

    @classmethod
    def _from_exact(cls, num: np.ndarray, den: int) -> "ProjMap":
        """Exact map from an owned integer array, reduced here; den != 0."""
        if den < 0:
            num, den = -num, -den
        g = math.gcd(den, *num.flat)
        if g != 1:
            num, den = num // g, den // g
        return cls._from_reduced(num, den)

    @classmethod
    def _from_reduced(cls, num: np.ndarray, den: int) -> "ProjMap":
        """Exact map from an owned integer array already in the stored form:
        den > 0 and gcd(den, *num) == 1."""
        out = object.__new__(cls)
        out._set(num, den, None)
        return out

    @classmethod
    def _from_float(cls, arr: np.ndarray) -> "ProjMap":
        """Float map from an owned, already valid float64 array."""
        out = object.__new__(cls)
        out._set(None, None, arr)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"ProjMap is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"ProjMap is immutable (cannot delete {name!r})")

    def __reduce__(self):
        if self.exact:
            return ProjMap._from_exact, (self.num, self.den)
        return ProjMap, (self.entries,)

    @classmethod
    def identity(cls, n: int, exact: bool = True) -> "ProjMap":
        if exact:
            num = np.zeros((n + 1, n + 1), dtype=object)
            num[np.diag_indices(n + 1)] = 1
            return cls._from_exact(num, 1)
        return cls._from_float(np.eye(n + 1))

    @classmethod
    def diagonal(cls, diag) -> "ProjMap":
        d = list(diag)
        rows = [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
        return cls(rows)

    @property
    def exact(self) -> bool:
        return self.num is not None

    def to_float(self) -> "ProjMap":
        """The map in floats (itself if already float).  int / int division
        rounds each entry correctly, so this equals ``float(Fraction)``
        entrywise; an entry whose float overflows is a ``ValueError``."""
        if self.num is None:
            return self
        try:
            return ProjMap._from_float((self.num / self.den).astype(np.float64))
        except OverflowError:
            raise _overflow(self.num / Fraction(self.den)) from None

    def __repr__(self):
        return f"ProjMap(n={self.n}, exact={self.exact})"


def _ratio_to_json(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for q > 0, with no Fraction: "0" and "1" for
    p = 0 and p = q (most of a conjugator's entries) without a gcd, and
    otherwise with one gcd."""
    if not p:
        return "0"
    if p == q:
        return "1"
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def matrix_to_json(m: ProjMap) -> list:
    """Row-major nested lists; floats as numbers, exact entries as the strings
    of ``scalar_to_json`` ("p", or "p/q" in lowest terms), written from
    ``num`` and ``den``."""
    if not m.exact:
        return m.entries.tolist()
    den = m.den
    return [[_ratio_to_json(p, den) for p in row] for row in m.num.tolist()]


def matrix_from_json(rows) -> ProjMap:
    """A map from row-major nested lists of JSON scalars (see
    :func:`parse_scalar`).  A square list of lists of floats goes straight
    to ``float64``; any other input is refused if the matrix or a row is
    not a list (:func:`require_json`), then parsed entry by entry."""
    if (type(rows) is list and all(type(row) is list and len(row) == len(rows) for row in rows)
            and all(type(x) is float for row in rows for x in row)):
        return ProjMap(np.array(rows, dtype=np.float64))
    for i, row in enumerate(require_json(rows, "matrix", list)):
        require_json(row, f"matrix row {i}", list)
    return ProjMap([[parse_scalar(x) for x in row] for row in rows])


def compose(a: ProjMap, b: ProjMap) -> ProjMap:
    """Matrix product a.b; acts as 'apply b, then a'.  Exact when both are,
    else in floats."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot compose maps of dimension {a.n} and {b.n}")
    if a.exact and b.exact:
        return ProjMap._from_exact(a.num @ b.num, a.den * b.den)
    return ProjMap._from_float(a.to_float().entries @ b.to_float().entries)


def _bareiss(rows: list, size: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) in place on
    integer rows whose first ``size`` columns are square.

    Every division is exact.  On return that block is ``pivot * I`` with
    ``pivot = +-det(block)``; the pivot returned is 0 when the block is
    singular.
    """
    prev = 1
    for k in range(size):
        pivot_row = next((r for r in range(k, size) if rows[r][k] != 0), None)
        if pivot_row is None:
            return 0
        rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
        row_k = rows[k]
        p = row_k[k]
        for i in range(size):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], row_k)]
        prev = p
    return prev


def inverse(a: ProjMap) -> ProjMap:
    """The inverse map, computed on the first call for this instance and
    kept on it; the inverse keeps no link back, so inverting it again
    computes.  The one-map case of :func:`keep_inverses`."""
    (inv,) = keep_inverses([a])
    if not isinstance(inv, ProjMap):
        raise inv
    return inv


def keep_inverses(maps) -> list:
    """Per map, its inverse, kept on it as :func:`inverse` keeps it, or the
    error that refuses it (a SingularMatrix).  Exact maps are inverted one
    at a time; the float maps that keep no inverse yet, all of one
    dimension, together by :func:`_invert_floats`."""
    floats = [a for a in maps if a._inverse is None and not a.exact]
    found = dict(zip(map(id, floats), _invert_floats(floats) if floats else ()))
    out = []
    for a in maps:
        inv = a._inverse
        if inv is None:
            inv = found[id(a)] if id(a) in found else _invert_exact(a)
            if isinstance(inv, ProjMap):
                object.__setattr__(a, "_inverse", inv)
        out.append(inv)
    return out


def _invert_exact(a: ProjMap):
    """The inverse of an exact map, or its SingularMatrix."""
    # (N/d)^-1 = d adj(N) / det(N); elimination of [N | I] leaves
    # [D I | D N^-1] with D = +-det(N)
    size = a.n + 1
    rows = [row + [int(i == j) for j in range(size)]
            for i, row in enumerate(a.num.tolist())]
    pivot = _bareiss(rows, size)
    if pivot == 0:
        return SingularMatrix("matrix is singular (exact determinant zero)")
    adj = np.array([row[size:] for row in rows], dtype=object)
    return ProjMap._from_exact(adj * a.den, pivot)


def _invert_floats(maps: list) -> list:
    """Per float map, its inverse or the SingularMatrix refusing it, from
    one stacked ``np.linalg.cond`` and one stacked ``np.linalg.inv``: each
    matrix of a stack gets the same bits as alone.  A condition estimate
    that is not finite or above ``COND_LIMIT`` refuses a map."""
    stack = np.array([a.entries for a in maps])
    try:
        cond = np.linalg.cond(stack)
        ok = np.isfinite(cond) & (cond <= COND_LIMIT)
        inv = iter(np.linalg.inv(stack[ok]))
    except np.linalg.LinAlgError as exc:
        # numpy refuses the whole stack (nan entries): one map at a time
        return [exc] if len(maps) == 1 else [x for a in maps for x in _invert_floats([a])]
    return [ProjMap._from_float(next(inv).copy()) if good else SingularMatrix(
        f"matrix is numerically singular (condition estimate {c:.3e})")
        for c, good in zip(cond, ok)]


def act(a: ProjMap, p: ProjPoint) -> ProjPoint:
    """Apply the map, in floats, to a point; the result is renormalized by
    its largest-magnitude entry for stability."""
    if a.n != p.n:
        raise DimensionMismatch(f"map dimension {a.n} != point dimension {p.n}")
    vec = a.to_float().entries @ p.coords
    scale = np.max(np.abs(vec))
    if scale == 0 or not np.isfinite(scale):
        raise SingularMatrix("map sent a point to zero or overflowed")
    return ProjPoint(vec / scale)


def proj_equiv(a, b, tol: float = DEFAULT_TOL) -> bool:
    """True iff a and b are proportional by a nonzero scalar.

    The one-row case of :func:`proj_equiv_rows`: two exact maps are
    compared exactly by their integer numerators, anything else by float
    values.
    """
    if type(a) is not type(b) or not isinstance(a, (ProjMap, ProjPoint)):
        raise TypeError("proj_equiv compares two maps or two points")
    if isinstance(a, ProjPoint):
        va, vb = a.coords, b.coords
    elif a.exact and b.exact:
        va, vb = a.num.ravel(), b.num.ravel()
    else:
        va, vb = a.to_float().entries.ravel(), b.to_float().entries.ravel()
    if va.shape != vb.shape:
        raise DimensionMismatch("shapes differ")
    return bool(proj_equiv_rows(va[None], vb[None], tol)[0])


def proj_equiv_rows(a: np.ndarray, b: np.ndarray, tol=DEFAULT_TOL) -> np.ndarray:
    """Row-wise :func:`proj_equiv` of two (R, K) arrays: row r is True iff
    a[r] and b[r] are proportional by a nonzero scalar.  ``tol`` is a scalar
    or one value per row.

    Two ``object`` arrays of exact scalars are compared by
    cross-multiplication at the first nonzero entry of a (both rows zero
    counts as proportional).  Otherwise both are read as floats, normalized
    by the entry at the argmax of |a| and compared within tol; a zero row is
    proportional only to a zero row, and a row whose b entry at that index is
    below tol times max |b| is not proportional.
    """
    rows = np.arange(a.shape[0])
    if a.dtype == object and b.dtype == object:
        nz_a, nz_b = a != 0, b != 0
        ia, ib = nz_a.argmax(axis=1), nz_b.argmax(axis=1)
        any_a = nz_a.any(axis=1)
        cross = (a[rows, ia][:, None] * b == b[rows, ia][:, None] * a).all(axis=1)
        return (any_a == nz_b.any(axis=1)) & (ia == ib) & (cross | ~any_a)
    fa = np.asarray(a, dtype=np.float64)
    fb = np.asarray(b, dtype=np.float64)
    idx = np.abs(fa).argmax(axis=1)
    pa, pb = fa[rows, idx], fb[rows, idx]
    max_b = np.abs(fb).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a zero or subnormal pivot gives inf or nan here, on rows that read False below
        diff = np.abs(fa / pa[:, None] - fb / pb[:, None]).max(axis=1)
    return np.where(max_b == 0, pa == 0,
                    (pa != 0) & (np.abs(pb) >= tol * max_b) & (diff <= tol))
