"""Classification of bent rectangular cusp groups.

Starting data is a rectangular cusp shape: one positive constant b_i per
generator (i = 2..n) and a nonnegative bending parameter s_i per slot.  The
standard generators are commuting unipotent translations; bending multiplies
generator i by the diagonal one-parameter centralizer with mu_i = exp(s_i)
in position i.

A bent generator acquires the eigenvalue mu_i, with new eigenvector in the
plane of coordinates {1, i}.  The normalizing change of basis fixes the
first coordinate, sends that eigenvector to the i-th basis vector, and acts
dually on the corresponding covectors; conjugating by it reduces each bent
generator to a sparse normal form whose corner entry is the exact rational

    -b_i^2 (mu_i + 1) / (2 (mu_i - 1))

while unbent generators are untouched.  Dividing the corner by -s_i gives
the cusp-parameter entry for that slot,

    a_i = b_i^2 (mu_i + 1) / (2 (mu_i - 1) s_i),

so the bent group sits inside the model translation group for the parameter
collecting the a_i (sorted non-increasing); its type equals the number of
nonzero bending parameters.  Note a_i blows up as s_i -> 0+: the inverted
parameters 1/a_i extend continuously by 0 across type changes, which is why
sweeps report both.

:func:`_slot_entries` writes the construction down once: the four
positions of each slot and the entries there of the bent generators g_k,
the normalizing matrix A and the normal forms W_k.  Two builders read it:
:func:`_cusp_arrays` writes float arrays for any number of rows of
bending data, and :func:`_exact_cusp_table` lists one row of exact data as
integer numerators over one denominator d for A and one e shared by every
g_k and W_k; the public generator functions are written from one or the
other.  Each generator is checked in the inverse-free form A g_k = W_k A,
which is equivalent to A g_k A^{-1} = W_k since det A = 1, so no route
forms A^{-1}.  Exact data stays in integers from the parsed b and mu to
the written JSON: the check multiplies the table's entries sparsely
(:func:`_exact_residual`), in O(n) integer operations per slot, and must
match with residual exactly 0; the conjugator is the one dense A, a
reduced integer :class:`ProjMap` that ``matrix_to_json`` prints from its
numerators.  ``Fraction`` appears only where the input is parsed and in
the residual.
Float data goes through :func:`conjugation_residuals`, which checks the
generators of G grid rows in stacked matmuls and scales each entry of
|A g - W A| by its componentwise rounding bound |A||g| + |W||A|;
:func:`conjugate_and_match` runs that check on one row and the ``sweep``
command on its whole grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cusp_models import CuspParameter
from .projlin import (
    DEFAULT_TOL,
    ProjMap,
    is_exact,
    matrix_to_json,
    proj_equiv_rows,
    require_float,
    scalar_to_json,
)

# smallest nonzero bending parameter classified in float mode; below this the
# new eigenvector degenerates and callers should supply exact mu instead
MIN_BEND_FLOAT = 1e-8


def _slot_values(values, n: int, noun: str, positive: bool) -> tuple:
    """``values`` as a tuple of n - 1 finite scalars, each > 0 if
    ``positive``, else >= 0; a ``ValueError`` naming ``noun`` otherwise."""
    values = tuple(values)
    if len(values) != n - 1:
        raise ValueError(f"need {n - 1} {noun}, got {len(values)}")
    if not all(is_exact(x) or math.isfinite(x) for x in values):
        raise ValueError(f"{noun} must be finite")
    if any(x <= 0 if positive else x < 0 for x in values):
        raise ValueError(f"{noun} must be {'positive' if positive else 'nonnegative'}")
    return values


def _exp(s) -> float:
    """exp(s) in floats, refusing an s whose exponential overflows."""
    try:
        return math.exp(float(s))
    except OverflowError:
        raise ValueError(f"bending parameter {s} is too large: exp(s) overflows") from None


class PatternMismatch(ValueError):
    """Conjugated generators failed to match the expected normal form."""

    def __init__(self, message: str, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class RectangularCuspData:
    """Cusp-shape constants b_2..b_n (> 0) and bending parameters s_2..s_n
    (>= 0), with optional exact multipliers mu_i = exp(s_i).  Each b and mu
    must fit a float (:func:`projlin.require_float`): s and the cusp
    parameter are read in floats."""

    n: int
    b: tuple
    s: tuple
    mu: tuple

    def __init__(self, n: int, b, s=None, mu=None):
        if n < 2:
            raise ValueError("need dimension n >= 2")
        b = _slot_values(b, n, "shape constants", positive=True)
        for k, x in enumerate(b):
            require_float(x, f"b_{k+2}")
        if s is None and mu is None:
            raise ValueError("supply bending parameters s, multipliers mu, or both")
        if mu is not None:
            mu = _slot_values(mu, n, "multipliers", positive=True)
        if s is None:
            s = tuple(math.log(require_float(m, f"mu_{k+2}")) for k, m in enumerate(mu))
        s = _slot_values(s, n, "bending parameters", positive=False)
        exp_s = tuple(_exp(x) for x in s)
        if mu is None:
            mu = tuple(1 if x == 0 else e for x, e in zip(s, exp_s))
        else:
            for k, (m, e) in enumerate(zip(mu, exp_s)):
                f = require_float(m, f"mu_{k+2}")
                if abs(f - e) > 1e-12 * max(1.0, f):
                    raise ValueError(f"mu_{k+2} = {m} inconsistent with exp(s_{k+2}) = {e}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "mu", mu)

    @property
    def exact(self) -> bool:
        return all(is_exact(x) for x in self.b + self.mu)

    def bent_slots(self) -> list[int]:
        """0-based slots with nonzero bending (generator index = slot + 2)."""
        return [k for k in range(self.n - 1) if self.mu[k] != 1]


@dataclass(frozen=True)
class ClassifiedCusp:
    """Cusp parameter, type and conjugator of a classified group.

    ``residual`` is how far the conjugated generators miss their normal
    form: ``Fraction(0)`` from exact bending data, and otherwise the largest
    |A g - W A|_ij / (|A||g| + |W||A|)_ij over all generators (0/0 read as
    0, NaN kept), about eps on valid data.  Model-form generators
    (:func:`classify_h_form`) are scored against their own form, an entry
    off the block pattern against the generator's largest entry, with the
    relative misfit of their corner equations folded in."""

    psi: CuspParameter
    type: int
    conjugator: ProjMap
    residual: object

    def to_json(self) -> dict:
        return {
            "psi": [scalar_to_json(x) for x in self.psi.psi],
            "type": self.type,
            "residual": scalar_to_json(self.residual),
            "conjugator": matrix_to_json(self.conjugator),
        }


def _guard_small_bending(s: np.ndarray, mu: np.ndarray) -> None:
    """Refuse float classification of any slot with a nonzero bending
    parameter, or a multiplier other than 1, below MIN_BEND_FLOAT.  Testing s
    as well as mu matters: exp(s) rounds to 1.0 for s below about 1e-16."""
    small = ((s != 0) | (mu != 1)) & (np.abs(s) < MIN_BEND_FLOAT)
    if small.any():
        row, k = np.argwhere(small)[0]
        where = f"row {row}: " if s.shape[0] > 1 else ""
        raise ValueError(
            f"{where}bending parameter s_{k+2} = {s[row, k]} is below {MIN_BEND_FLOAT}; "
            "float classification is ill-conditioned there, supply exact mu instead")


def expected_corner(b, mu):
    """Corner entry of the normal form of a bent generator."""
    return -b * b * (mu + 1) / (2 * (mu - 1))


def cusp_parameter_entry(b, mu, s):
    """Cusp-parameter values contributed by bent slots, -corner / s, in
    floats: elementwise over arrays (broadcast), or one slot's value.  A
    value that overflows, or a mu that rounds to 1, reads inf or NaN without
    a warning: callers refuse values that are not finite."""
    b, mu, s = (np.asarray(x, dtype=np.float64) for x in (b, mu, s))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return expected_corner(b, mu) / -s


def require_normal_parameters(a: np.ndarray, slots) -> None:
    """Refuse a bent slot whose cusp-parameter entry underflows: below the
    smallest normal float, b_k^2 has lost its digits, and at 0 the slot
    would read as unbent against its type.  ``a`` has one row per grid row
    and one column per slot of ``slots`` (0-based); more than one row names
    the row."""
    small = a < sys.float_info.min
    if small.any():
        row, col = np.argwhere(small)[0]
        where = f"row {row}: " if a.shape[0] > 1 else ""
        raise ValueError(f"{where}b_{slots[col] + 2} is too small for a bent slot: "
                         "its cusp parameter underflows")


def _slot_entries(k, n: int) -> tuple:
    """The four entries of slot k (an int, or an array of slots) in the
    construction of dimension n, as indices (k, i, j) of entry (i, j) of the
    k-th matrix, with i = k + 1:

        (k, 0, i), (k, i, n), (k, i, i), (k, 0, n).

    This is the one place the construction is written down.  Each of g_k, A
    and W_k is the identity but for its entries at these (i, j):

    - g_k, the bent generator, has b_k, mu_k b_k, mu_k and b_k^2 / 2: the
      unipotent U(b_k) with row i scaled by mu_k;
    - W_k, its normal form, is g_k on an unbent slot (mu_k = 1), and on a
      bent one has 0, 0, mu_k and :func:`expected_corner`;
    - A, the normalizing matrix, one for all slots, has alpha_k =
      -b_k / (mu_k - 1) and delta_k = mu_k b_k / (mu_k - 1) at the first
      two (i, j) of each bent slot.

    So A = I + C, where C^2 has only the corner entry and C^3 = 0, and
    det A = 1."""
    i = k + 1
    return (k, 0, i), (k, i, n), (k, i, i), (k, 0, n)


def _cusp_arrays(b, s, mu):
    """The float g, A and W of G rows of bending data, written from the
    table of :func:`_slot_entries`.

    ``s`` and ``mu`` have shape (G, m), m = n - 1, with mu = 1 on unbent
    slots; ``b`` has shape (m,), shared by the rows, or (G, m).  g and W
    have shape (G, m, n+1, n+1) and A has shape (G, n+1, n+1), all
    ``float64``; the data must pass the ``MIN_BEND_FLOAT`` guard.
    """
    s, mu = (np.asarray(x, dtype=np.float64) for x in (s, mu))
    _guard_small_bending(s, mu)
    b = np.broadcast_to(np.asarray(b, dtype=np.float64), mu.shape)
    rows, m = mu.shape
    n = m + 1
    bent = mu != 1
    # entries that overflow read inf, and the residual of their row NaN; the
    # values that divide by mu - 1 = 0 on unbent slots are not kept
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g_vals = (b, mu * b, mu, b * b / 2)
        w_bent = (0.0, 0.0, mu, expected_corner(b, mu))
        w_vals = [np.where(bent, w, g) for w, g in zip(w_bent, g_vals)]
        # alpha and delta, 0 on unbent slots
        a_vals = (np.where(bent, -b / (mu - 1), 0.0), np.where(bent, mu * b / (mu - 1), 0.0))
    eye = np.eye(n + 1)
    gens, normal = np.tile(eye, (2, rows, m, 1, 1))
    a_mat = np.tile(eye, (rows, 1, 1))
    spots = _slot_entries(np.arange(m), n)
    for (k, i, j), g_val, w_val in zip(spots, g_vals, w_vals):
        gens[:, k, i, j] = g_val
        normal[:, k, i, j] = w_val
    for (_, i, j), a_val in zip(spots, a_vals):
        a_mat[:, i, j] = a_val
    return gens, a_mat, normal


def _exact_cusp_table(b, mu):
    """The entries of :func:`_slot_entries` for one row of exact bending
    data, as integer numerators: each of g_k, A and W_k is its denominator
    times the identity but for the entries listed.

    Returns (g, a, w, e, d).  ``g`` and ``w`` map (k, i, j) to the numerator
    over e of entry (i, j) of g_k and of W_k, and ``a`` maps (i, j) to a
    numerator of A over d.  ``w`` lists a bent slot's mu_k and corner but
    not its two zeros, and ``a`` only the entries of bent slots.  Only the
    O(m) slot scalars -- b, b^2 / 2, mu, mu b, alpha, delta and the corner
    -- are computed, each first an int pair (numerator, denominator > 0)
    from the ``as_integer_ratio`` of b and mu, not necessarily in lowest
    terms; the numerators are then scaled to e, the lcm of the denominators
    of g and W, and d, that of A."""
    n = len(b) + 1
    g, a, w = {}, {}, {}
    for k, (b_k, mu_k) in enumerate(zip(b, mu)):
        (p, q), (u, v) = b_k.as_integer_ratio(), mu_k.as_integer_ratio()
        top, right, diag, corner = _slot_entries(k, n)
        g_k = {top: (p, q), right: (u * p, v * q), diag: (u, v), corner: (p * p, 2 * q * q)}
        g.update(g_k)
        if u == v:
            w.update(g_k)
            continue
        # 1 / (mu - 1) = v / (u - v), with its sign moved to the numerator
        sign, t = (1, u - v) if u > v else (-1, v - u)
        a[top[1:]], a[right[1:]] = (-sign * p * v, q * t), (sign * u * p, q * t)
        w[diag], w[corner] = (u, v), (-sign * p * p * (u + v), 2 * q * q * t)
    e = math.lcm(*(den for _, den in (*g.values(), *w.values())))
    d = math.lcm(*(den for _, den in a.values()))

    def scaled(entries, den):
        return {at: num * (den // q) for at, (num, q) in entries.items()}

    return scaled(g, e), scaled(a, d), scaled(w, e), e, d


def _exact_dense(entries: dict, den: int, shape: tuple) -> np.ndarray:
    """The integer numerators of entry-table matrices as one ``object``
    array of ``shape``: den on every diagonal, 0 elsewhere, then the listed
    entries (whose keys index the array)."""
    out = np.zeros(shape, dtype=object)
    diag = np.arange(shape[-1])
    out[..., diag, diag] = den
    if entries:
        out[tuple(zip(*entries))] = np.array(list(entries.values()), dtype=object)
    return out


def _exact_residual(g: dict, a: dict, w: dict, e: int, d: int) -> Fraction:
    """max |A g_k - W_k A| over every slot and entry of an exact entry table
    (:func:`_exact_cusp_table`), as a ``Fraction``, from a sparse product of
    the listed entries.

    With A = (d I + C) / d and g_k = (e I + G_k) / e, W_k = (e I + V_k) / e,
    where C, G_k and V_k hold the listed entries less the identity part,

        d e (A g_k - W_k A) = d (G_k - V_k) + C G_k - V_k C,

    so each slot costs a few products of its own entries with those of C in
    the same row or column, and no dense matrix is formed."""
    by_col, by_row = {}, {}
    for (i, j), x in a.items():
        x -= d * (i == j)
        by_col.setdefault(j, []).append((i, x))
        by_row.setdefault(i, []).append((j, x))
    deltas = ({}, {})
    for entries, delta in zip((g, w), deltas):
        for (k, i, j), x in entries.items():
            delta.setdefault(k, {})[i, j] = x - e * (i == j)
    worst = 0
    for k, gk in deltas[0].items():
        vk = deltas[1].get(k, {})
        diff = {at: d * (gk.get(at, 0) - vk.get(at, 0)) for at in gk.keys() | vk.keys()}
        for (mid, j), x in gk.items():
            for i, c in by_col.get(mid, ()):
                diff[i, j] = diff.get((i, j), 0) + c * x
        for (i, mid), x in vk.items():
            for j, c in by_row.get(mid, ()):
                diff[i, j] = diff.get((i, j), 0) - x * c
        worst = max(worst, max(map(abs, diff.values()), default=0))
    return Fraction(worst, d * e)


def _generators(b, s, mu) -> list[ProjMap]:
    """The generators g_k of one row of bending data: integer maps written
    from :func:`_exact_cusp_table` when every b and mu is exact, else the
    float maps of :func:`_cusp_arrays`."""
    if all(map(is_exact, (*b, *mu))):
        g, _, _, e, _ = _exact_cusp_table(b, mu)
        size = len(b) + 2
        return [ProjMap._from_exact(x.copy(), e)
                for x in _exact_dense(g, e, (len(b), size, size))]
    return [ProjMap(x) for x in _cusp_arrays(b, [s], [mu])[0][0]]


def standard_cusp_generators(data: RectangularCuspData) -> list[ProjMap]:
    """Unbent generators: unipotent, pairwise commuting, generator i
    translating by b_i along coordinate i."""
    m = data.n - 1
    return _generators(data.b, [0] * m, [1] * m)


def bent_cusp_generators(data: RectangularCuspData) -> list[ProjMap]:
    """Generators after bending: the diagonal factor with mu_i in position i
    times the standard generator."""
    return _generators(data.b, data.s, data.mu)


def _intertwining_residuals(gens: np.ndarray, a_mat: np.ndarray,
                            normal: np.ndarray) -> np.ndarray:
    """Scaled residual of A g = W A for every row of float :func:`_cusp_arrays`
    output: the maximum over slots and entries of

        |A g - W A|_ij / (|A| |g| + |W| |A|)_ij,

    the error over the componentwise rounding bound of the two products
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3).  An
    entry whose bound is 0 has error 0 and reads 0; a NaN anywhere in a row
    makes its residual NaN."""
    a = a_mat[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.abs(np.matmul(a, gens) - np.matmul(normal, a))
        abs_a = np.abs(a)
        bound = np.matmul(abs_a, np.abs(gens)) + np.matmul(np.abs(normal), abs_a)
        return np.max(err / np.where(bound == 0, 1.0, bound), axis=(1, 2, 3))


def conjugation_residuals(b, s, mu) -> np.ndarray:
    """Float kernel: pattern residual of every row of a bending grid.

    ``s`` and ``mu`` have shape (G, m) with m = n - 1, one row per grid
    value, with mu = 1 on unbent slots; ``b`` has shape (m,), shared by the
    rows, or (G, m), one per row.  :func:`_cusp_arrays`
    builds the generators g, normalizing matrices A and normal forms W of all
    G rows, and each slot is checked in the inverse-free form A g = W A
    (equivalent to A g A^{-1} = W, as A is invertible) in stacked matmuls.
    The residual of a slot is max_ij |A g - W A|_ij / (|A||g| + |W||A|)_ij,
    with 0/0 read as 0: a relative error against the rounding bound of the
    two products, so it stays near eps whatever the size of the entries,
    which grow like 1/s.  A row's residual is the maximum over its slots,
    and NaN if any slot's is.
    """
    return _intertwining_residuals(*_cusp_arrays(b, s, mu))


def require_normal_form(residuals: np.ndarray, tol: float) -> None:
    """Raise :class:`PatternMismatch` on the first row whose residual is not
    within tol; NaN fails."""
    bad = np.flatnonzero(~(residuals <= tol))
    if bad.size:
        row = int(bad[0])
        residual = float(residuals[row])
        where = f"row {row}: " if residuals.shape[0] > 1 else ""
        raise PatternMismatch(
            f"{where}conjugated generators miss the normal form by {residual:.3e} > {tol:.1e}",
            residual)


def _sorted_parameter(values: dict, n: int):
    """The parameter of the slot values {k: a_k} (coordinate k + 1), sorted
    non-increasing with unlisted slots 0, and the conjugator's row order
    [0, 1 + k for the listed slots so sorted, then the others, n]."""
    ordered = sorted(values, key=lambda k: -values[k])
    rest = [k for k in range(n - 1) if k not in values]
    psi = CuspParameter([values[k] for k in ordered] + [0.0] * (n - len(values)))
    return psi, [0] + [1 + k for k in ordered + rest] + [n]


def conjugate_and_match(data: RectangularCuspData,
                        tol: float = DEFAULT_TOL) -> ClassifiedCusp:
    """Conjugate the bent generators into normal form, verify the pattern,
    and read off the cusp parameter.

    The check is A g_k = W_k A for the generators g_k, the normalizing
    matrix A and the normal forms W_k.  Exact data must match exactly (zero
    residual): :func:`_exact_cusp_table` lists the integer entries of A over
    d and of every g_k, W_k over e, and :func:`_exact_residual` multiplies
    those entries sparsely into ``Fraction(max|N M_g - M_W N|, d e)`` =
    max|A g - W A|, where N, M_g and M_W are the numerator matrices; only
    N is written densely, once, for the conjugator.  Float data comes from
    :func:`_cusp_arrays` and must match within tol, through the scaled
    residual of :func:`conjugation_residuals`.  The conjugator is A with its
    rows permuted so that the parameter is sorted non-increasing; exact, it
    is the integer rows of N over d, reduced by ``ProjMap._from_exact``.
    """
    if data.exact:
        table = _exact_cusp_table(data.b, data.mu)
        residual = _exact_residual(*table)
        if residual != 0:
            raise PatternMismatch(
                f"exact conjugation failed to reach the normal form (residual {residual})",
                residual)
    else:
        gens, a_mat, normal = _cusp_arrays(data.b, [data.s], [data.mu])
        residuals = _intertwining_residuals(gens, a_mat, normal)
        require_normal_form(residuals, tol)
        residual = float(residuals[0])

    bent = data.bent_slots()
    slots = ([v[k] for k in bent] for v in (data.b, data.mu, data.s))
    entries = cusp_parameter_entry(*slots)
    require_normal_parameters(entries[None], bent)
    psi, perm = _sorted_parameter(dict(zip(bent, entries.tolist())), data.n)
    # P A is A with its rows reordered; + 0.0 turns a -0.0 entry into 0.0
    if data.exact:
        _, a, _, _, d = table
        conjugator = ProjMap._from_exact(_exact_dense(a, d, (data.n + 1,) * 2)[perm], d)
    else:
        conjugator = ProjMap._from_float(a_mat[0][perm] + 0.0)
    return ClassifiedCusp(psi, len(bent), conjugator, residual)


def equivalent_parameters(psi: CuspParameter, psi2: CuspParameter) -> bool:
    """True iff the parameters differ by a positive scalar: the
    :func:`proj_equiv_rows` of the two rows, exact when every entry is,
    else in floats within ``DEFAULT_TOL``, each entry read by
    :func:`require_float` as ``psi_i``.  Both rows are nonnegative and
    non-increasing, so entry 0 is the pivot and the scalar is positive."""
    if psi.n != psi2.n:
        raise ValueError(f"dimension mismatch: {psi.n} vs {psi2.n}")
    rows = psi.psi + psi2.psi
    exact = all(map(is_exact, rows))
    if not exact:
        rows = [require_float(x, f"psi_{i % psi.n + 1}") for i, x in enumerate(rows)]
    a, b = np.array(rows, dtype=object if exact else np.float64).reshape(2, 1, psi.n)
    return bool(proj_equiv_rows(a, b)[0])


def classify_h_form(gens: Sequence[ProjMap], tol: float = DEFAULT_TOL) -> ClassifiedCusp:
    """Read the cusp parameter off generators already presented in the model
    block form (leading diagonal block, trailing translation block).

    A generator whose last entry is below tol times its largest entry, or
    that does not stay finite when divided by it (a zero or subnormal last
    entry), is refused (``ValueError``).  Each generator m, normalized by
    its last entry, is scored against the
    form W built from its own slots (d on the leading t diagonal entries, v
    in the last column and row 0, the corner; the identity elsewhere): an
    entry of the pattern (a slot, the copy of v in row 0, the unit
    diagonal) by |m - W| / (|m| + |W|), and an entry off it, where W is 0,
    by |m_ij| / max|m|, against the generator's scale.  Rounding noise left
    off the pattern by a float conjugation then reads at rounding level
    instead of 1.  Least squares solves the
    corner equations sum_k psi_k log d_k = |v|^2 / 2 - corner for psi; each
    misfit over |log d| |psi| + |v|^2 / 2 + |corner| joins the residual.
    The pattern, then the fit, must be within tol.  The type is t, the
    number of moved slots, so each psi_k must be positive: its share
    |log d_k| psi_k of the same scale must not fall below -tol on any
    generator (a negative entry, ``ValueError``), and must exceed tol on
    some generator (else :class:`PatternMismatch`, with that share as the
    residual).  When every generator is exact, the pattern must then hold
    on the integer numerators: each entry that W sets to 0 or 1 equals 0 or
    num[n, n], and the two copies of v are equal (else
    :class:`PatternMismatch`, the exact deviation as the residual).
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    mats = [g.to_float().entries for g in gens]
    if any(m.shape != (n + 1, n + 1) for m in mats):
        raise ValueError("generators must share one dimension")
    block = np.stack(mats)
    if not np.all(np.isfinite(block)):
        raise ValueError("generator entries must be finite")
    last = block[:, n, n]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = block / last[:, None, None]
    if (not np.all(np.isfinite(m))
            or np.any(np.abs(last) < tol * np.max(np.abs(block), axis=(1, 2)))):
        raise ValueError("generator has no usable normalization entry")
    moved = [i for i in range(1, n) if np.any(np.abs(m[:, i, i] - 1.0) > tol)]
    t = len(moved)
    if moved != list(range(1, t + 1)):
        raise ValueError(
            f"diagonal slots {[(i + 1) for i in moved]} are not the leading block; "
            "conjugate the group into model coordinate order first")
    lead, tail = np.arange(1, t + 1), np.arange(t + 1, n)
    d, v, corner = m[:, lead, lead], np.ascontiguousarray(m[:, tail, n]), m[:, 0, n]
    bad = np.argwhere(d <= 0)
    if bad.size:
        raise ValueError(f"nonpositive diagonal entry at slot {bad[0, 1] + 2}")
    own = np.zeros((n + 1, n + 1), dtype=bool)
    own[lead, lead] = own[tail, n] = own[0, n] = True
    normal = np.where(own, m, np.eye(n + 1))
    normal[:, 0, tail] = v
    on = own | np.eye(n + 1, dtype=bool)
    on[0, tail] = True
    largest = np.max(np.abs(m), axis=(1, 2), keepdims=True)
    bound = np.where(on, np.abs(m) + np.abs(normal), largest)
    pattern = np.max(np.abs(m - normal) / np.where(bound == 0, 1.0, bound)).reshape(1)
    require_normal_form(pattern, tol)
    if all(g.exact for g in gens):
        for i, g in enumerate(gens):
            want = np.where(own, g.num, g.num[n, n] * np.eye(n + 1, dtype=object))
            want[0, tail] = g.num[tail, n]
            dev = max(np.abs(g.num - want).flat)
            if dev:
                dev = Fraction(dev, abs(g.num[n, n]))
                raise PatternMismatch(f"exact generator {i} misses the model pattern by "
                                      f"{float(dev):.3e}", dev)

    # math.log per entry and a dot per contiguous row round like a per-generator solve
    logs = np.array([math.log(x) for x in d.ravel().tolist()]).reshape(d.shape)
    half_sq = 0.5 * np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]
    rhs = half_sq - corner
    sol = np.linalg.lstsq(logs, rhs, rcond=None)[0] if t else np.zeros(0)
    scale = np.abs(logs) @ np.abs(sol) + half_sq + np.abs(corner)
    scale = np.where(scale == 0, 1.0, scale)
    misfit = np.abs(logs @ sol - rhs) / scale
    residuals = np.maximum(pattern, np.max(misfit))
    require_normal_form(residuals, tol)
    share = np.abs(logs) * sol / scale[:, None]
    if np.max(-share, initial=0.0) > tol:
        raise ValueError(f"solved parameter has a negative entry: {sol}")
    best = np.max(share, axis=0)
    low = np.flatnonzero(~(best > tol))
    if low.size:
        k = int(low[0])
        raise PatternMismatch(f"moved slot {k + 2} solves to no positive parameter entry "
                              f"({sol[k]:.3e}, share {best[k]:.3e} <= {tol:.1e})", float(best[k]))
    psi, perm = _sorted_parameter(dict(enumerate(sol.tolist())), n)
    conjugator = ProjMap._from_exact(np.eye(n + 1, dtype=np.int64)[perm].astype(object), 1)
    return ClassifiedCusp(psi, t, conjugator, float(residuals[0]))
