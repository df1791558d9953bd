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

One private builder, :func:`_cusp_arrays`, writes down the bent generators
g_k, the normalizing matrix A and the normal forms W_k for any number of
rows of bending data, exact or float; the public generator and conjugator
functions are slices of its output.  Each generator is checked in the
inverse-free form A g_k = W_k A, which is equivalent to A g_k A^{-1} = W_k
since det A = 1, so no route forms A^{-1}.  Exact data stays in integers
from the parsed b and mu to the written JSON: the builder writes A as
integer numerators over one denominator d and every g_k and W_k over one
shared e, the check runs every slot at once as stacked object-integer
matmuls and must match with residual exactly 0, and the conjugator is a
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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bending import require_pairwise_commuting
from .cusp_models import CuspParameter
from .projlin import (
    DEFAULT_TOL,
    ProjMap,
    is_exact,
    matrix_to_json,
    scalar_to_json,
)

# smallest nonzero bending parameter classified in float mode; below this the
# new eigenvector degenerates and callers should supply exact mu instead
MIN_BEND_FLOAT = 1e-8
# random linear combinations tried by diagonalize_commuting
DIAGONALIZE_TRIES = 10


def _finite(x) -> bool:
    return is_exact(x) or math.isfinite(x)


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
    (>= 0), with optional exact multipliers mu_i = exp(s_i)."""

    n: int
    b: tuple
    s: tuple
    mu: tuple

    def __init__(self, n: int, b, s=None, mu=None):
        if n < 2:
            raise ValueError("need dimension n >= 2")
        b = tuple(b)
        if len(b) != n - 1:
            raise ValueError(f"need {n - 1} shape constants, got {len(b)}")
        if not all(map(_finite, b)):
            raise ValueError("shape constants must be finite")
        if any(x <= 0 for x in b):
            raise ValueError("shape constants must be positive")
        if s is None and mu is None:
            raise ValueError("supply bending parameters s, multipliers mu, or both")
        if mu is not None:
            mu = tuple(mu)
            if len(mu) != n - 1:
                raise ValueError(f"need {n - 1} multipliers, got {len(mu)}")
            if not all(map(_finite, mu)):
                raise ValueError("multipliers must be finite")
            if any(m <= 0 for m in mu):
                raise ValueError("multipliers must be positive")
        if s is None:
            s = tuple(math.log(float(m)) for m in mu)
        else:
            s = tuple(s)
        if len(s) != n - 1:
            raise ValueError(f"need {n - 1} bending parameters, got {len(s)}")
        if not all(map(_finite, s)):
            raise ValueError("bending parameters must be finite")
        if any(x < 0 for x in s):
            raise ValueError("bending parameters must be nonnegative")
        exp_s = tuple(_exp(x) for x in s)
        if mu is None:
            mu = tuple(1 if x == 0 else e for x, e in zip(s, exp_s))
        else:
            for k, (m, e) in enumerate(zip(mu, exp_s)):
                if abs(float(m) - e) > 1e-12 * max(1.0, float(m)):
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
    floats: elementwise over arrays (broadcast), or one slot's value."""
    b, mu, s = (np.asarray(x, dtype=np.float64) for x in (b, mu, s))
    return expected_corner(b, mu) / -s


def _cusp_arrays(b, s, mu):
    """Bent generators g, normalizing matrices A and normal forms W of G rows
    of bending data: the one place the construction is written down.

    ``s`` and ``mu`` have shape (G, m), m = n - 1, with mu = 1 on unbent
    slots; ``b`` has length m, or in floats shape (G, m), one per row.  g
    and W have shape (G, m, n+1, n+1) and A has shape (G, n+1, n+1), where
    for slot k (coordinate i = k + 2, matrix index k + 1):

    - g[r, k] is the unipotent U(b_k) -- b_k at (0, k+1) and (k+1, n),
      b_k^2 / 2 at (0, n) -- with row k+1 scaled by mu_k;
    - A[r] = I + C, where each bent slot k puts alpha = -b_k / (mu_k - 1) at
      (0, k+1) and delta = mu_k b_k / (mu_k - 1) at (k+1, n) of C;
    - W[r, k] is g[r, k] on an unbent slot, and on a bent one the identity
      with mu_k at (k+1, k+1) and :func:`expected_corner` at (0, n).

    C^2 has only the corner entry and C^3 = 0, so det A = 1.  Float data
    (any b or mu not exact) returns the ``float64`` arrays (g, A, W) and
    must pass the ``MIN_BEND_FLOAT`` guard.  Exact data returns the pairs
    ((g, e), (A, d), (W, e)): integer numerator arrays (``object`` dtype of
    Python ints) over positive int denominators, one d for A and one e shared
    by every g and W.  Only the O(G m) slot scalars -- b, b^2 / 2, mu, mu b,
    alpha, delta and the corner -- are computed, each as an int pair from
    the ``as_integer_ratio`` of b and mu, and written straight into the
    integer arrays; no ``Fraction`` and no matrix of them is made.
    """
    if all(map(is_exact, b)) and all(is_exact(x) for row in mu for x in row):
        return _exact_cusp_arrays(b, mu)
    s, mu = (np.asarray(x, dtype=np.float64) for x in (s, mu))
    _guard_small_bending(s, mu)
    b = np.broadcast_to(np.asarray(b, dtype=np.float64), mu.shape)
    rows, m = mu.shape
    n = m + 1
    eye = np.eye(n + 1)
    slot = np.arange(m)
    coord = slot + 1
    r_bent, k_bent = np.nonzero(mu != 1)

    gens = np.tile(eye, (rows, m, 1, 1))
    gens[:, slot, 0, coord] = b
    gens[:, slot, coord, n] = b
    gens[:, slot, 0, n] = b * b / 2
    gens[:, slot, coord, :] *= mu[:, :, None]

    b_bent, mu_bent = b[r_bent, k_bent], mu[r_bent, k_bent]
    denom = mu_bent - 1
    a_mat = np.repeat(eye[None], rows, axis=0)
    a_mat[r_bent, 0, k_bent + 1] = -b_bent / denom
    a_mat[r_bent, k_bent + 1, n] = mu_bent * b_bent / denom

    normal = gens.copy()
    normal[r_bent, k_bent, 0, k_bent + 1] = 0
    normal[r_bent, k_bent, k_bent + 1, n] = 0
    normal[r_bent, k_bent, 0, n] = expected_corner(b_bent, mu_bent)
    return gens, a_mat, normal


def _exact_cusp_arrays(b, mu):
    """The exact branch of :func:`_cusp_arrays`.  Each slot scalar is an int
    pair (numerator, denominator > 0), not necessarily in lowest terms; the
    numerators are scaled to the lcm of their array kind's denominators."""
    b = [x.as_integer_ratio() for x in b]
    rows, m = len(mu), len(b)
    n, size = m + 1, m + 2
    g_at, g_val, a_at, a_val, w_at, w_val = [], [], [], [], [], []
    for r, row in enumerate(mu):
        for k, ((p, q), x) in enumerate(zip(b, row)):
            u, v = x.as_integer_ratio()
            i = k + 1
            half_sq = (p * p, 2 * q * q)
            g_at += [(r, k, 0, i), (r, k, i, n), (r, k, i, i), (r, k, 0, n)]
            g_val += [(p, q), (u * p, v * q), (u, v), half_sq]
            if u == v:
                continue
            # 1 / (mu - 1) = v / (u - v), with its sign moved to the numerator
            sign, w = (1, u - v) if u > v else (-1, v - u)
            a_at += [(r, 0, i), (r, i, n)]
            a_val += [(-sign * p * v, q * w), (sign * u * p, q * w)]
            w_at += [(r, k, 0, i), (r, k, i, n), (r, k, 0, n)]
            w_val += [(0, 1), (0, 1), (-sign * p * p * (u + v), 2 * q * q * w)]
    e = math.lcm(*(den for _, den in g_val + w_val))
    d = math.lcm(*(den for _, den in a_val))

    def put(arr, at, values, den):
        if at:
            arr[tuple(zip(*at))] = np.array([num * (den // q) for num, q in values], dtype=object)

    diag = np.arange(size)
    gens = np.zeros((rows, m, size, size), dtype=object)
    gens[..., diag, diag] = e
    put(gens, g_at, g_val, e)
    normal = gens.copy()
    put(normal, w_at, w_val, e)
    a_mat = np.zeros((rows, size, size), dtype=object)
    a_mat[..., diag, diag] = d
    put(a_mat, a_at, a_val, d)
    return (gens, e), (a_mat, d), (normal, e)


def _row_maps(part) -> list[ProjMap]:
    """The maps of grid row 0 of one :func:`_cusp_arrays` output (a float
    array or an exact (numerators, denominator) pair): one per slot for g or
    W, a list of one for A."""
    if isinstance(part, tuple):
        num, den = part
        return [ProjMap._from_exact(x.copy(), den) for x in num[0].reshape(-1, *num.shape[-2:])]
    return [ProjMap(x) for x in part[0].reshape(-1, *part.shape[-2:])]


def standard_cusp_generators(data: RectangularCuspData) -> list[ProjMap]:
    """Unbent generators: unipotent, pairwise commuting, generator i
    translating by b_i along coordinate i."""
    m = data.n - 1
    gens, _, _ = _cusp_arrays(data.b, [[0] * m], [[1] * m])
    return _row_maps(gens)


def bent_cusp_generators(data: RectangularCuspData) -> list[ProjMap]:
    """Generators after bending: the diagonal factor with mu_i in position i
    times the standard generator."""
    gens, _, _ = _cusp_arrays(data.b, [data.s], [data.mu])
    return _row_maps(gens)


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
    arrays = _cusp_arrays(*(np.asarray(x, dtype=np.float64) for x in (b, s, mu)))
    return _intertwining_residuals(*arrays)


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

    The generators g_k, the normalizing matrix A and the normal forms W_k
    come from :func:`_cusp_arrays`, and the check is A g_k = W_k A.  Exact
    data must match exactly (zero residual): the builder gives A = N/d and
    every g_k, W_k over one denominator e as integer arrays, and the stacked
    integer products N M_g - M_W N of all slots give the residual
    ``Fraction(max|N M_g - M_W N|, d e)`` = max|A g - W A|.  Float data must
    match within tol, through the scaled residual of
    :func:`conjugation_residuals`.  The conjugator is A with its rows
    permuted so that the parameter is sorted non-increasing; exact, it is
    the integer rows of N over d, reduced by ``ProjMap._from_exact``.
    """
    gens, a_mat, normal = _cusp_arrays(data.b, [data.s], [data.mu])
    if data.exact:
        (g_num, gw_den), (a_num, a_den), (w_num, _) = gens, a_mat, normal
        a_num = a_num[0]
        diff = np.matmul(a_num, g_num[0]) - np.matmul(w_num[0], a_num)
        residual = Fraction(np.max(np.abs(diff)), a_den * gw_den)
        if residual != 0:
            raise PatternMismatch(
                f"exact conjugation failed to reach the normal form (residual {residual})",
                residual)
    else:
        residuals = _intertwining_residuals(gens, a_mat, normal)
        require_normal_form(residuals, tol)
        residual = float(residuals[0])

    bent = data.bent_slots()
    slots = ([v[k] for k in bent] for v in (data.b, data.mu, data.s))
    psi, perm = _sorted_parameter(dict(zip(bent, cusp_parameter_entry(*slots).tolist())), data.n)
    # P A is A with its rows reordered; + 0.0 turns a -0.0 entry into 0.0
    if data.exact:
        conjugator = ProjMap._from_exact(a_num[perm], a_den)
    else:
        conjugator = ProjMap._from_float(a_mat[0][perm] + 0.0)
    return ClassifiedCusp(psi, len(bent), conjugator, residual)


def equivalent_parameters(psi: CuspParameter, psi2: CuspParameter) -> bool:
    """True iff the parameters differ by a positive scalar: exactly when all
    entries are exact, else in floats within ``DEFAULT_TOL``."""
    if psi.n != psi2.n:
        raise ValueError(f"dimension mismatch: {psi.n} vs {psi2.n}")
    a, b = psi.psi, psi2.psi
    if all(is_exact(x) for x in a + b):
        if any((x == 0) != (y == 0) for x, y in zip(a, b)):
            return False
        pairs = [(x, y) for x, y in zip(a, b) if x != 0]
        if not pairs:
            return True
        x0, y0 = pairs[0]
        return all(x * y0 == y * x0 for x, y in pairs)
    fa = np.asarray([float(x) for x in a])
    fb = np.asarray([float(x) for x in b])
    na, nb = fa.max(initial=0.0), fb.max(initial=0.0)
    if na == 0.0 or nb == 0.0:
        return bool(na == nb)
    return bool(np.max(np.abs(fa / na - fb / nb)) <= DEFAULT_TOL)


def classify_h_form(gens: Sequence[ProjMap], tol: float = DEFAULT_TOL) -> ClassifiedCusp:
    """Read the cusp parameter off generators already presented in the model
    block form (leading diagonal block, trailing translation block).

    Each generator m, normalized by its last entry, is scored against the
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
    if np.any(np.abs(block[:, n, n]) < tol * np.max(np.abs(block), axis=(1, 2))):
        raise ValueError("generator has no usable normalization entry")
    m = block / block[:, n, n, None, None]
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


# ---------------------------------------------------------------------------
# common-flag triangularization and simultaneous diagonalization


@dataclass(frozen=True)
class TriangularizationResult:
    status: str                       # "true" | "false" | "ambiguous"
    conjugator: Optional[ProjMap]
    residual: Optional[float]
    note: str = ""


def _real_eigenspaces(mat: np.ndarray, tol: float):
    """Clustered real eigenvalues with orthonormal null-space bases.

    Returns (spaces, borderline): borderline marks shaky rank or cluster
    decisions so callers can report ambiguity instead of guessing.
    """
    m = mat.shape[0]
    vals = np.linalg.eigvals(mat)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    ctol = max(tol, 1e-12) * scale * 100
    borderline = False
    real_vals = []
    for lam in vals:
        if abs(lam.imag) > ctol:
            if abs(lam.imag) < 10 * ctol:
                borderline = True
            continue
        real_vals.append(lam.real)
    clusters = []
    for lam in sorted(real_vals):
        if clusters and abs(lam - clusters[-1][-1]) <= ctol:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    spaces = []
    for cluster in clusters:
        lam = float(np.mean(cluster))
        shifted = mat - lam * np.eye(m)
        _, svals, vt = np.linalg.svd(shifted)
        null_tol = max(tol, 1e-10) * max(svals[0], 1.0)
        dim = int(np.sum(svals <= null_tol))
        if dim == 0:
            borderline = True
            continue
        dropped = svals[m - dim - 1] if m - dim - 1 >= 0 else None
        if dropped is not None and dropped < 10 * null_tol:
            borderline = True
        spaces.append(vt[m - dim:].T)
    return spaces, borderline


def _intersect(basis_a: np.ndarray, basis_b: np.ndarray, tol: float):
    stacked = np.hstack([basis_a, -basis_b])
    _, svals, vt = np.linalg.svd(stacked)
    null_tol = max(tol, 1e-10) * max(svals[0], 1.0)
    dim = int(np.sum(svals <= null_tol))
    if stacked.shape[1] > len(svals):
        dim += stacked.shape[1] - len(svals)
    if dim == 0:
        return None
    coeffs = vt[-dim:].T
    vecs = basis_a @ coeffs[:basis_a.shape[1]]
    q, _ = np.linalg.qr(vecs)
    return q[:, :dim]


def _common_eigenvector(mats: list[np.ndarray], tol: float):
    spaces, borderline = _real_eigenspaces(mats[0], tol)
    candidates = spaces
    for mat in mats[1:]:
        spaces, bl = _real_eigenspaces(mat, tol)
        borderline |= bl
        merged = []
        for basis in candidates:
            for other in spaces:
                common = _intersect(basis, other, tol)
                if common is not None:
                    merged.append(common)
        candidates = merged
        if not candidates:
            return None, borderline
    # prefer the axis-aligned choice (ties broken toward the lowest axis) so
    # already-triangular input keeps its own flag
    best = None                            # (-score, axis, vec)
    for basis in candidates:
        scores = np.linalg.norm(basis, axis=1)
        for axis in np.argsort(-scores):
            axis = int(axis)
            vec = basis @ basis[axis, :]
            norm = np.linalg.norm(vec)
            if norm == 0:
                continue
            key = (-round(float(scores[axis]), 9), axis)
            if best is None or key < best[0]:
                best = (key, vec / norm)
            break
    return (None if best is None else best[1]), borderline


def upper_triangular_check(gens: Sequence[ProjMap]) -> TriangularizationResult:
    """Greedy common-flag search: find a common eigenvector, quotient,
    recurse.  Ambiguity (shaky numerical rank decisions, or a conjugator
    that verifies only loosely) is a first-class result, never a guess."""
    mats = [np.asarray(g.to_float().entries, dtype=np.float64) for g in gens]
    if not mats:
        raise ValueError("need at least one generator")
    m = mats[0].shape[0]
    mats = [mat / np.max(np.abs(mat)) for mat in mats]
    basis_total = np.eye(m)
    current = [mat.copy() for mat in mats]
    borderline_any = False
    for level in range(m - 1):
        size = m - level
        vec, borderline = _common_eigenvector(current, DEFAULT_TOL)
        borderline_any |= borderline
        if vec is None:
            status = "ambiguous" if borderline else "false"
            return TriangularizationResult(
                status, None, None,
                f"no common eigenvector at flag level {level}")
        stacked = np.hstack([vec.reshape(-1, 1), np.eye(size)])
        q, _ = np.linalg.qr(stacked)
        q = q[:, :size]
        if np.dot(q[:, 0], vec) < 0:
            q[:, 0] = -q[:, 0]
        block = np.eye(m)
        block[level:, level:] = q
        basis_total = basis_total @ block
        current = [q.T @ mat @ q for mat in current]
        current = [mat[1:, 1:] for mat in current]
    conj = basis_total.T                  # rows: conj . g . conj^{-1} is triangular
    residual = 0.0
    for mat in mats:
        tri = conj @ mat @ basis_total
        lower = np.tril(tri, -1)
        residual = max(residual, float(np.max(np.abs(lower)) / np.max(np.abs(tri))))
    if residual <= DEFAULT_TOL:
        status = "true"
    elif residual <= math.sqrt(DEFAULT_TOL) or borderline_any:
        status = "ambiguous"
    else:
        status = "false"
    return TriangularizationResult(status, ProjMap(conj), residual,
                                   "verified by explicit conjugation")


def diagonalize_commuting(gens: Sequence[ProjMap],
                          rng: Optional[np.random.Generator] = None):
    """Simultaneous eigenbasis of pairwise commuting generators via a random
    linear combination, verified by explicit conjugation.

    Returns (conjugator, residual) or (None, best_residual) when no basis
    was found after ``DIAGONALIZE_TRIES`` combinations.
    """
    if not gens:
        raise ValueError("need at least one generator")
    require_pairwise_commuting([g.to_float() for g in gens], DEFAULT_TOL,
                               lambda i, j: ValueError(f"generators {i} and {j} do not commute"))
    rng = rng or np.random.default_rng(0)
    mats = [np.asarray(g.to_float().entries, dtype=np.float64) for g in gens]
    mats = [mat / np.max(np.abs(mat)) for mat in mats]
    m = mats[0].shape[0]
    best = math.inf
    for _ in range(DIAGONALIZE_TRIES):
        coeffs = rng.normal(size=len(mats))
        combo = sum(c * mat for c, mat in zip(coeffs, mats))
        vals, vecs = np.linalg.eig(combo)
        if not np.all(np.isfinite(vecs)):
            continue
        cond = np.linalg.cond(vecs)
        if cond > 1e12:
            continue
        vinv = np.linalg.inv(vecs)
        residual = 0.0
        for mat in mats:
            w = vinv @ mat @ vecs
            off = w - np.diag(np.diag(w))
            residual = max(residual, float(np.max(np.abs(off)) / np.max(np.abs(w))))
        best = min(best, residual)
        if residual <= DEFAULT_TOL:
            if np.max(np.abs(vecs.imag)) <= DEFAULT_TOL * np.max(np.abs(vecs.real)):
                vecs = vecs.real
            return ProjMap(np.linalg.inv(vecs)), residual
    return None, best
