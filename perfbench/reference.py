"""Reference values computed apart from cuspbend, and the output checks.

Nothing here imports the program.  Exact work uses the module's own
``Fraction`` matrix product and Gauss-Jordan inverse; the ball distance uses
a cancellation-free form of the Klein arccosh formula; model-domain chords
are solved with ``scipy.optimize.brentq`` after an analytic test for an end
at infinity.

Each ``check_*`` function takes the parsed output of one operation plus the
inputs the benchmark generated, and returns a list of failure messages: an
empty list means the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

HILBERT_TOL = 1e-9          # absolute agreement of distances (and relative above 1)
FLOAT_REL_TOL = 1e-10       # closed-form a_i against the sweep CSV
BEND_TOL = 1e-9             # bent generators, compared up to scale


# ---------------------------------------------------------------------------
# exact rational matrices


def frac_identity(size: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def frac_matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def frac_inverse(a):
    """Gauss-Jordan over Fraction; raises ZeroDivisionError if singular."""
    size = len(a)
    m = [list(row) + ident for row, ident in zip(a, frac_identity(size))]
    for col in range(size):
        pivot = next(r for r in range(col, size) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[size:] for row in m]


def unipotent(n: int, k: int, b):
    """Standard cusp generator for slot k (coordinate k + 2): identity plus
    b at (0, k+1) and (k+1, n), b^2/2 at the corner.  Works for Fraction or
    float b."""
    one = type(b)(1)
    m = [[one * int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    m[0][k + 1] = b
    m[k + 1][n] = b
    m[0][n] = b * b / 2
    return m


def bent_generator(n: int, k: int, b, mu):
    """diag(1, .., mu at k+1, .., 1) times the standard generator."""
    m = unipotent(n, k, b)
    m[k + 1] = [x * mu for x in m[k + 1]]
    return m


def exact_corner(b: Fraction, mu: Fraction) -> Fraction:
    return -b * b * (mu + 1) / (2 * (mu - 1))


def exact_psi(b: Fraction, mu: Fraction) -> float:
    """psi entry b^2 (mu+1) / (2 (mu-1) log mu)."""
    log_mu = math.log(mu.numerator) - math.log(mu.denominator)
    return float(-exact_corner(b, mu)) / log_mu


def check_exact(out: dict, n: int, b: list, mu: list) -> list[str]:
    """``classify --exact`` output against the rational reference."""
    errors = []
    bent = [k for k in range(n - 1) if mu[k] != 1]
    if Fraction(out.get("residual", "nan")) != 0:
        errors.append(f"residual {out.get('residual')!r} is not exactly 0")
    if out.get("type") != len(bent):
        errors.append(f"type {out.get('type')} != {len(bent)} slots with mu != 1")
    ref = {k: exact_psi(b[k], mu[k]) for k in bent}
    want = sorted(ref.values(), reverse=True) + [0.0] * (n - len(bent))
    got = [float(x) for x in out.get("psi", [])]
    if len(got) != n or any(abs(g - w) > 1e-12 * max(1.0, abs(w)) for g, w in zip(got, want)):
        errors.append(f"psi {got} != reference {want}")
    # the conjugator sends coordinate k+2 to position 1 + order.index(k):
    # bent slots by decreasing psi, then unbent slots in index order
    order = sorted(bent, key=lambda k: (-ref[k], k)) + [k for k in range(n - 1) if k not in bent]
    try:
        conj = [[Fraction(x) for x in row] for row in out["conjugator"]]
        conj_inv = frac_inverse(conj)
    except (KeyError, ValueError, TypeError, ZeroDivisionError, StopIteration) as exc:
        return errors + [f"conjugator unusable: {exc!r}"]
    for k in range(n - 1):
        g = bent_generator(n, k, b[k], mu[k])
        got_nf = frac_matmul(frac_matmul(conj, g), conj_inv)
        j = 1 + order.index(k)
        want_nf = frac_identity(n + 1)
        if mu[k] != 1:
            want_nf[j][j] = mu[k]
            want_nf[0][n] = exact_corner(b[k], mu[k])
        else:
            want_nf[0][j] = want_nf[j][n] = b[k]
            want_nf[0][n] = b[k] * b[k] / 2
        if got_nf != want_nf:
            errors.append(f"generator {k + 2} conjugates to {got_nf}, not the normal form")
    return errors


# ---------------------------------------------------------------------------
# float sweep and bending


def sweep_grid(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * j / (steps - 1) for j in range(steps)]


def closed_form_a(b: float, s: float) -> float:
    """a = b^2 (e^s + 1) / (2 (e^s - 1) s) = b^2 / (2 s tanh(s/2))."""
    return b * b / (2.0 * s * math.tanh(0.5 * s))


def check_sweep(csv_text: str, n: int, b: list, slots: list, grid: list) -> list[str]:
    lines = csv_text.strip().splitlines()
    header = [f"s_{i}" for i in range(2, n + 1)] + [f"a_{i}" for i in range(2, n + 1)] \
        + [f"ainv_{i}" for i in range(2, n + 1)] + ["type"]
    if not lines or lines[0].split(",") != header:
        return [f"sweep header {lines[:1]} != {header}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(grid):
        return [f"sweep has {len(rows)} rows, expected {len(grid)}"]
    errors = []
    m = n - 1
    for s, row in zip(grid, rows):
        vals = [float(x) for x in row[:3 * m]]
        for k in range(m):
            bent = (k + 2) in slots
            sk, ak, inv = vals[k], vals[m + k], vals[2 * m + k]
            if not bent:
                ok = sk == 0.0 and ak == math.inf and inv == 0.0
            else:
                a_ref = closed_form_a(b[k], s)
                ok = (abs(sk - s) <= 1e-12 * max(1.0, s)
                      and abs(ak - a_ref) <= FLOAT_REL_TOL * a_ref
                      and abs(inv - 1.0 / a_ref) <= FLOAT_REL_TOL / a_ref)
            if not ok:
                errors.append(f"s={s!r} slot {k + 2}: got s={sk!r} a={ak!r} 1/a={inv!r}")
        if row[-1] != str(len(slots)):
            errors.append(f"s={s!r}: type {row[-1]} != {len(slots)}")
    for k in range(m):
        if (k + 2) in slots:
            inv = [float(row[2 * m + k]) for row in rows]
            if any(q <= p for p, q in zip(inv, inv[1:])):
                errors.append(f"ainv_{k + 2} does not increase in s")
    return errors


def proj_close(a, b, tol: float) -> bool:
    """Equal up to a nonzero scale, each normalized by its largest entry."""
    fa = np.asarray(a, dtype=np.float64)
    fb = np.asarray(b, dtype=np.float64)
    if fa.shape != fb.shape:
        return False
    ia = np.unravel_index(np.argmax(np.abs(fa)), fa.shape)
    if fb[ia] == 0:
        return False
    return bool(np.max(np.abs(fa / fa[ia] - fb / fb[ia])) <= tol)


def check_bend(out: dict, n: int, b: list, s: list) -> list[str]:
    """Bent generators against diag(exp(s_k)) times the standard unipotent."""
    gens = out.get("generators", {})
    errors = []
    for k in range(n - 1):
        name = f"g{k + 2}"
        want = bent_generator(n, k, b[k], math.exp(s[k])) if s[k] else unipotent(n, k, b[k])
        if name not in gens or not proj_close(gens[name], want, BEND_TOL):
            errors.append(f"bent generator {name} differs from the reference")
    return errors


# ---------------------------------------------------------------------------
# Hilbert distances


def klein_distance(x, y) -> float:
    """Hilbert distance in the unit ball, arccosh((1 - x.y) / sqrt(P)) with
    P = (1-|x|^2)(1-|y|^2), evaluated as 2 asinh(sqrt((cosh d - 1)/2)).
    cosh d - 1 = N / (sqrt(P) (1 - x.y + sqrt(P))) with the cancellation-free
    numerator N = |d|^2 (1-|x|^2) + (x.d)^2, d = y - x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = y - x
    xx = float(x @ x)
    sp = math.sqrt((1.0 - xx) * (1.0 - float(y @ y)))
    num = float(d @ d) * (1.0 - xx) + float(x @ d) ** 2
    return 2.0 * math.asinh(math.sqrt(num / (2.0 * sp * (1.0 - float(x @ y) + sp))))


def leaf_value(psi, t: int, p) -> float:
    """c = x_1 + sum_k psi_k log x_{k+2} - 1/2 sum_j x_j^2 over the rest; -inf
    where a log coordinate is not positive."""
    c = p[0]
    for k in range(t):
        if p[1 + k] <= 0.0:
            return -math.inf
        c += psi[k] * math.log(p[1 + k])
    return c - 0.5 * float(np.dot(p[1 + t:], p[1 + t:]))


def ray_exit(psi, t: int, p, d) -> float:
    """Smallest w > 0 where p + w d leaves the model domain; inf when it never
    does.  The leaf value is concave along the ray, so the exit is the unique
    root of the leaf value before the first log coordinate reaches 0."""
    log_d = d[1:1 + t]
    quad = float(np.dot(d[1 + t:], d[1 + t:]))
    if np.all(log_d >= 0.0) and quad == 0.0 and d[0] >= 0.0:
        return math.inf          # the chord runs to the hyperplane at infinity
    walls = [-p[1 + k] / d[1 + k] for k in range(t) if d[1 + k] < 0.0]
    wall = min(walls, default=math.inf)

    def f(w):
        return leaf_value(psi, t, p + w * d)

    lo, hi = 0.0, min(1.0, 0.5 * wall)
    while f(hi) > 0.0:
        lo = hi
        hi = 2.0 * hi if 2.0 * hi < wall else 0.5 * (hi + wall)
        if hi == lo:
            # the exit, where x_k ~ exp(-c / psi_k), is within rounding of the wall
            return hi
    while f(hi) == -math.inf:
        # rounded onto the wall: bisect back to a finite negative value
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    from scipy.optimize import brentq     # loaded at check time, after the memory reading
    return brentq(f, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


def model_distance(psi, t: int, x, y) -> tuple[float, bool]:
    """Hilbert distance in the model domain of (psi, t) and whether one end
    of the chord lies at infinity.  z2 = y + W d and z1 = x - V d, so the
    cross ratio is (1 + W)(1 + V) / (W V); an end at infinity drops its
    factor."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = y - x
    w = ray_exit(psi, t, y, d)
    v = ray_exit(psi, t, x, -d)
    cr = 1.0
    for e in (w, v):
        if math.isfinite(e):
            cr *= (1.0 + e) / e
    return 0.5 * math.log(cr), not (math.isfinite(w) and math.isfinite(v))


def distances_agree(got: float, want: float) -> bool:
    return abs(got - want) <= HILBERT_TOL * max(1.0, abs(want))


def check_hilbert_csv(csv_text: str, refs: list, at_infinity: list) -> tuple[list[str], int]:
    """CLI ``hilbert`` rows against reference distances.  A row whose chord
    ends at infinity may read ``inf`` (a known fault of the batch kernels);
    returns the failures and the number of such rows that read inf."""
    lines = csv_text.strip().splitlines()
    if not lines or lines[0] != "x,y,d":
        return [f"hilbert header {lines[:1]}"], 0
    rows = lines[1:]
    if len(rows) != len(refs):
        return [f"hilbert has {len(rows)} rows, expected {len(refs)}"], 0
    errors, known_inf = [], 0
    for i, (line, want, inf_ok) in enumerate(zip(rows, refs, at_infinity)):
        got = float(line.rsplit(",", 1)[1])
        if inf_ok and got == math.inf:
            known_inf += 1
        elif not distances_agree(got, want):
            errors.append(f"row {i}: d = {got!r}, reference {want!r}")
    return errors, known_inf


def check_distances(got, refs) -> list[str]:
    if len(got) != len(refs):
        return [f"{len(got)} distances for {len(refs)} pairs"]
    return [f"pair {i}: d = {g!r}, reference {w!r}"
            for i, (g, w) in enumerate(zip(got, refs)) if not distances_agree(float(g), w)]
