"""The projective-equality rule of ``proj_equiv`` as it was written before the
row-wise form, and the ``Fraction`` matrix of an exact map, kept apart from
the program as the tests' reference."""

from fractions import Fraction

import numpy as np

from cuspbend.projlin import ProjMap


def fraction_matrix(m: ProjMap) -> np.ndarray:
    """The matrix of an exact map as an ``object`` array of ``Fraction``s,
    read from its integer numerators over its denominator."""
    assert m.exact, "fraction_matrix() reads exact maps only"
    return np.array([[Fraction(x, m.den) for x in row] for row in m.num.tolist()], dtype=object)


def ref_equiv_vectors(va: np.ndarray, vb: np.ndarray, tol: float) -> bool:
    """True iff two flat vectors are proportional: exact (``object``) pairs by
    cross-multiplication at the first nonzero entry, anything else in floats
    normalized by the entry at the argmax of |a|."""
    if va.dtype == object and vb.dtype == object:
        ia = next((i for i, x in enumerate(va) if x != 0), None)
        ib = next((i for i, x in enumerate(vb) if x != 0), None)
        if ia != ib:
            return False
        if ia is None:
            return True
        return all(va[ia] * vb[j] == vb[ia] * va[j] for j in range(len(va)))
    fa = np.asarray(va, dtype=np.float64)
    fb = np.asarray(vb, dtype=np.float64)
    idx = int(np.argmax(np.abs(fa)))
    max_b = np.max(np.abs(fb))
    if max_b == 0:
        return bool(np.max(np.abs(fa)) == 0)
    if abs(fb[idx]) < tol * max_b:
        return False
    # a zero a against a nonzero b divides 0 by 0 here, and a subnormal pivot
    # of b overflows; both read False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return bool(np.max(np.abs(fa / fa[idx] - fb / fb[idx])) <= tol)


def ref_equiv_maps(a: ProjMap, b: ProjMap, tol: float) -> bool:
    """Two maps by their integer numerators when both are exact, else by
    their float values."""
    if a.exact and b.exact:
        return ref_equiv_vectors(a.num.ravel(), b.num.ravel(), tol)
    return ref_equiv_vectors(a.to_float().entries.ravel(), b.to_float().entries.ravel(), tol)
