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
since det A = 1, so no route forms A^{-1}.  Exact data goes through integer
:class:`ProjMap` products and must match with residual exactly 0.  Float
data goes through :func:`conjugation_residuals`, which checks the
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

from .cusp_models import CuspParameter, ModelDomain, leaf_coordinate, leaf_point
from .projlin import (
    DEFAULT_TOL,
    ProjMap,
    act,
    compose,
    inverse,
    is_exact,
    matrix_to_json,
    scalar_to_json,
)

# smallest nonzero bending parameter classified in float mode; below this the
# new eigenvector degenerates and callers should supply exact mu instead
MIN_BEND_FLOAT = 1e-8


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
    form.  From bending data it is ``Fraction(0)`` on the exact route, and on
    the float route the largest |A g - W A|_ij / (|A||g| + |W||A|)_ij over
    all generators (0/0 read as 0, NaN kept), about eps on valid data; from
    model-form generators (:func:`classify_h_form`) it is that function's
    block-pattern and fit misfit."""

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


def cusp_parameter_entry(b, mu, s) -> float:
    """Cusp-parameter value contributed by a bent slot: -corner / s."""
    return float(expected_corner(float(b), float(mu))) / -float(s)


def _cusp_arrays(b, s, mu):
    """Bent generators g, normalizing matrices A and normal forms W of G rows
    of bending data: the one place the construction is written down.

    ``b`` has length m = n - 1; ``s`` and ``mu`` have shape (G, m), with
    mu = 1 on unbent slots.  Returns g and W of shape (G, m, n+1, n+1) and A
    of shape (G, n+1, n+1), where for slot k (coordinate i = k + 2, matrix
    index k + 1):

    - g[r, k] is the unipotent U(b_k) -- b_k at (0, k+1) and (k+1, n),
      b_k^2 / 2 at (0, n) -- with row k+1 scaled by mu_k;
    - A[r] = I + C, where each bent slot k puts alpha = -b_k / (mu_k - 1) at
      (0, k+1) and delta = mu_k b_k / (mu_k - 1) at (k+1, n) of C;
    - W[r, k] is g[r, k] on an unbent slot, and on a bent one the identity
      with mu_k at (k+1, k+1) and :func:`expected_corner` at (0, n).

    C^2 has only the corner entry and C^3 = 0, so det A = 1.  The arrays are
    ``object`` (exact scalars) when every b and mu is exact and ``float64``
    otherwise; float data must pass the ``MIN_BEND_FLOAT`` guard.
    """
    if all(map(is_exact, b)) and all(is_exact(x) for row in mu for x in row):
        b = np.array([Fraction(x) for x in b], dtype=object)
        mu = np.array([[Fraction(x) for x in row] for row in mu], dtype=object)
        dtype = object
    else:
        b, s, mu = (np.asarray(x, dtype=np.float64) for x in (b, s, mu))
        _guard_small_bending(s, mu)
        dtype = np.float64
    rows, m = mu.shape
    n = m + 1
    eye = np.eye(n + 1, dtype=dtype)
    slot = np.arange(m)
    coord = slot + 1
    r_bent, k_bent = np.nonzero(mu != 1)

    unipotent = np.repeat(eye[None], m, axis=0)
    unipotent[slot, 0, coord] = b
    unipotent[slot, coord, n] = b
    unipotent[slot, 0, n] = b * b / 2
    gens = np.repeat(unipotent[None], rows, axis=0)
    gens[:, slot, coord, :] *= mu[:, :, None]

    b_bent, mu_bent = b[k_bent], mu[r_bent, k_bent]
    denom = mu_bent - 1
    a_mat = np.repeat(eye[None], rows, axis=0)
    a_mat[r_bent, 0, k_bent + 1] = -b_bent / denom
    a_mat[r_bent, k_bent + 1, n] = mu_bent * b_bent / denom

    normal = gens.copy()
    normal[r_bent, k_bent, 0, k_bent + 1] = 0
    normal[r_bent, k_bent, k_bent + 1, n] = 0
    normal[r_bent, k_bent, 0, n] = expected_corner(b_bent, mu_bent)
    return gens, a_mat, normal


def standard_cusp_generators(data: RectangularCuspData) -> list[ProjMap]:
    """Unbent generators: unipotent, pairwise commuting, generator i
    translating by b_i along coordinate i."""
    m = data.n - 1
    gens, _, _ = _cusp_arrays(data.b, [[0] * m], [[1] * m])
    return [ProjMap(g) for g in gens[0]]


def bent_cusp_generators(data: RectangularCuspData) -> list[ProjMap]:
    """Generators after bending: the diagonal factor with mu_i in position i
    times the standard generator."""
    gens, _, _ = _cusp_arrays(data.b, [data.s], [data.mu])
    return [ProjMap(g) for g in gens[0]]


def normalizing_matrix(data: RectangularCuspData) -> ProjMap:
    """Change of basis fixing e_1 that carries each bent generator's new
    eigenvector to its own basis vector (and dually); identity on unbent
    coordinates."""
    _, a_mat, _ = _cusp_arrays(data.b, [data.s], [data.mu])
    return ProjMap(a_mat[0])


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

    ``b`` has shape (m,) with m = n - 1; ``s`` and ``mu`` have shape (G, m),
    one row per grid value, with mu = 1 on unbent slots.  :func:`_cusp_arrays`
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


def conjugate_and_match(data: RectangularCuspData,
                        tol: float = DEFAULT_TOL) -> ClassifiedCusp:
    """Conjugate the bent generators into normal form, verify the pattern,
    and read off the cusp parameter.

    The generators g_k, the normalizing matrix A and the normal forms W_k
    come from :func:`_cusp_arrays`, and the check is A g_k = W_k A.  Exact
    data must match exactly (zero residual), through integer
    :class:`ProjMap` products; float data must match within tol, through
    the scaled residual of :func:`conjugation_residuals`.  The conjugator is
    A with its rows permuted so that the parameter is sorted non-increasing.
    """
    n = data.n
    gens, a_mat, normal = _cusp_arrays(data.b, [data.s], [data.mu])
    if data.exact:
        a_map = ProjMap(a_mat[0])
        residual = Fraction(0)
        for g, w in zip(gens[0], normal[0]):
            got, want = compose(a_map, ProjMap(g)), compose(ProjMap(w), a_map)
            # |N/d - M/e| = |N e - M d| / (d e), entrywise on the integer forms
            diff = np.max(np.abs(got.num * want.den - want.num * got.den))
            residual = max(residual, Fraction(diff, got.den * want.den))
        if residual != 0:
            raise PatternMismatch(
                f"exact conjugation failed to reach the normal form (residual {residual})",
                residual)
    else:
        residuals = _intertwining_residuals(gens, a_mat, normal)
        require_normal_form(residuals, tol)
        residual = float(residuals[0])

    bent = data.bent_slots()
    avals = {k: cusp_parameter_entry(data.b[k], data.mu[k], data.s[k]) for k in bent}
    sorted_bent = sorted(bent, key=lambda k: -avals[k])
    order = sorted_bent + [k for k in range(n - 1) if k not in bent]
    psi = CuspParameter([avals[k] for k in sorted_bent] + [0.0] * (n - len(bent)))

    # P A is A with its rows reordered; + 0.0 turns a -0.0 entry into 0.0
    perm = [0] + [1 + k for k in order] + [n]
    if data.exact:
        conjugator = ProjMap._from_exact(a_map.num[perm], a_map.den)
    else:
        conjugator = ProjMap._from_float(a_mat[0][perm] + 0.0)
    return ClassifiedCusp(psi, len(bent), conjugator, residual)


@dataclass(frozen=True)
class LeafInvarianceReport:
    trials: int
    max_drift: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_drift <= self.tol


def leaf_invariance_check(data: RectangularCuspData, trials: int = 200,
                          tol: float = DEFAULT_TOL,
                          rng: Optional[np.random.Generator] = None) -> LeafInvarianceReport:
    """Random leaf points stay on their leaf under every conjugated
    generator; reports the maximum leaf-coordinate drift."""
    rng = rng or np.random.default_rng(0)
    classified = conjugate_and_match(data, tol=max(tol, 1e-9))
    psi = CuspParameter([float(x) for x in classified.psi.psi])
    dom = ModelDomain(psi)
    t = psi.type
    conj = classified.conjugator.to_float()
    conj_inv = inverse(conj)
    gens = [compose(compose(conj, g.to_float()), conj_inv)
            for g in bent_cusp_generators(data)]
    drifts = []
    for _ in range(trials):
        c = float(rng.uniform(0.0, 3.0))
        coords = [float(rng.uniform(0.2, 3.0)) for _ in range(t)] + \
                 [float(rng.uniform(-2.0, 2.0)) for _ in range(psi.n - 1 - t)]
        p = leaf_point(dom, c, coords)
        g = gens[rng.integers(len(gens))]
        c2, _ = leaf_coordinate(dom, act(g, p))
        drifts.append(abs(float(c2) - c))
    # np.max keeps a NaN drift, which then fails the report
    return LeafInvarianceReport(trials, float(np.max(drifts, initial=0.0)), tol)


def equivalent_parameters(psi: CuspParameter, psi2: CuspParameter,
                          tol: float = DEFAULT_TOL) -> bool:
    """True iff the parameters differ by a positive scalar."""
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
    return bool(np.max(np.abs(fa / na - fb / nb)) <= tol)


def classify_h_form(gens: Sequence[ProjMap], tol: float = DEFAULT_TOL) -> ClassifiedCusp:
    """Read the cusp parameter off generators already presented in the model
    block form (leading diagonal block, trailing translation block).

    The diagonal slots and corner entries of the generators give one linear
    equation per generator for the parameter; a least-squares solve recovers
    it.  The reported residual combines the block-pattern deviation and the
    equation misfit.  This is deliberately narrow: it classifies groups in
    (or numerically near) the model form, not arbitrary matrix groups.
    """
    if not gens:
        raise ValueError("need at least one generator")
    size = gens[0].entries.shape[0]
    n = size - 1
    mats = []
    for g in gens:
        m = np.asarray(g.to_float().entries, dtype=np.float64)
        if m.shape != (size, size):
            raise ValueError("generators must share one dimension")
        if not np.all(np.isfinite(m)):
            raise ValueError("generator entries must be finite")
        if abs(m[n, n]) < tol * np.max(np.abs(m)):
            raise ValueError("generator has no usable normalization entry")
        mats.append(m / m[n, n])
    log_slots = sorted({i for m in mats for i in range(1, n)
                        if abs(m[i, i] - 1.0) > tol})
    t = len(log_slots)
    if log_slots != list(range(1, t + 1)):
        raise ValueError(
            f"diagonal slots {[(i + 1) for i in log_slots]} are not the leading block; "
            "conjugate the group into model coordinate order first")
    residual = 0.0
    rows_log, rhs = [], []
    for m in mats:
        expected = np.eye(size)
        for i in log_slots:
            expected[i, i] = m[i, i]
            if m[i, i] <= 0:
                raise ValueError(f"nonpositive diagonal entry at slot {i + 1}")
        v = m[t + 1:n, n].copy()
        expected[t + 1:n, n] = v
        expected[0, t + 1:n] = v
        expected[0, n] = m[0, n]
        residual = max(residual, float(np.max(np.abs(m - expected))))
        rows_log.append([math.log(m[i, i]) for i in log_slots])
        rhs.append(0.5 * float(np.dot(v, v)) - m[0, n])
    if not residual <= math.sqrt(tol):
        raise PatternMismatch(
            f"generators deviate from the model block form by {residual:.3e}", residual)
    if t == 0:
        psi_vals = []
    else:
        sol, res2, _, _ = np.linalg.lstsq(np.asarray(rows_log), np.asarray(rhs), rcond=None)
        if res2.size:
            residual = max(residual, float(math.sqrt(res2[0])))
        if np.min(sol) < -math.sqrt(tol):
            raise ValueError(f"solved parameter has a negative entry: {sol}")
        psi_vals = [max(float(x), 0.0) for x in sol]
    order = sorted(range(t), key=lambda k: -psi_vals[k]) + list(range(t, n - 1))
    perm = [[Fraction(0)] * size for _ in range(size)]
    perm[0][0] = Fraction(1)
    perm[n][n] = Fraction(1)
    for new, old in enumerate(order):
        perm[1 + new][1 + old] = Fraction(1)
    psi = CuspParameter(sorted(psi_vals, reverse=True) + [0.0] * (n - t))
    return ClassifiedCusp(psi, psi.type, ProjMap(perm), residual)


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


def upper_triangular_check(gens: Sequence[ProjMap],
                           tol: float = DEFAULT_TOL) -> TriangularizationResult:
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
        vec, borderline = _common_eigenvector(current, tol)
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
    if residual <= tol:
        status = "true"
    elif residual <= math.sqrt(tol) or borderline_any:
        status = "ambiguous"
    else:
        status = "false"
    return TriangularizationResult(status, ProjMap(conj), residual,
                                   "verified by explicit conjugation")


def diagonalize_commuting(gens: Sequence[ProjMap], tol: float = DEFAULT_TOL,
                          rng: Optional[np.random.Generator] = None,
                          max_tries: int = 10):
    """Simultaneous eigenbasis of pairwise commuting generators via a random
    linear combination, verified by explicit conjugation.

    Returns (conjugator, residual) or (None, best_residual) when no basis
    was found after the retries.
    """
    from .bending import commute_check  # local import to avoid a cycle

    if not gens:
        raise ValueError("need at least one generator")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not commute_check(gens[i].to_float(), gens[j].to_float(),
                                 max(tol, 1e-9)):
                raise ValueError(f"generators {i} and {j} do not commute")
    rng = rng or np.random.default_rng(0)
    mats = [np.asarray(g.to_float().entries, dtype=np.float64) for g in gens]
    mats = [mat / np.max(np.abs(mat)) for mat in mats]
    m = mats[0].shape[0]
    best = math.inf
    for _ in range(max_tries):
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
        if residual <= tol:
            if np.max(np.abs(vecs.imag)) <= tol * np.max(np.abs(vecs.real)):
                vecs = vecs.real
            return ProjMap(np.linalg.inv(vecs)), residual
    return None, best


def diagonalizable_check(gens: Sequence[ProjMap], tol: float = DEFAULT_TOL,
                         rng: Optional[np.random.Generator] = None) -> bool:
    """True iff a simultaneous eigenbasis makes every generator diagonal to
    tol (generators must pairwise commute)."""
    conj, _ = diagonalize_commuting(gens, tol, rng)
    return conj is not None
