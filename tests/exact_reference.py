"""The exact normal-form check as dense stacked integer products: the
reference for the sparse product of ``cusp_classify._exact_residual``, kept
apart from the program (it was the exact branch of ``conjugate_and_match``).
Every matrix of an entry table is written out in full, entry by entry, and
all slots are checked at once in ``object``-integer matmuls, at a cost of
about n^4 integer operations.

:func:`grid_classify` is the rest of that old route, the reference for the
one-row tail of ``conjugate_and_match``: psi from the grid functions
``cusp_parameter_entry`` and ``require_normal_parameters`` on a one-row
grid, and the exact conjugator from :func:`conjugator`."""

from fractions import Fraction

import numpy as np

from cuspbend.cusp_classify import (
    ClassifiedCusp,
    _cusp_arrays,
    _exact_cusp_table,
    _intertwining_residuals,
    _sorted_parameter,
    cusp_parameter_entry,
    require_normal_form,
    require_normal_parameters,
)
from cuspbend.projlin import DEFAULT_TOL, ProjMap


def dense(entries: dict, den: int, shape: tuple) -> np.ndarray:
    """den on the diagonal of every trailing square of ``shape``, 0 off it,
    then each listed entry written over it in turn."""
    out = np.zeros(shape, dtype=object)
    for i in range(shape[-1]):
        out[..., i, i] = den
    for at, x in entries.items():
        out[at] = x
    return out


def residual(table, n: int) -> Fraction:
    """max |A g_k - W_k A| over every slot and entry of the entry table
    (g, a, w, e, d) of dimension n, from the stacked products N M_g and
    M_W N of the numerator matrices."""
    g, a, w, e, d = table
    shape = (n - 1, n + 1, n + 1)
    a_num = dense(a, d, shape[1:])
    diff = np.matmul(a_num, dense(g, e, shape)) - np.matmul(dense(w, e, shape), a_num)
    return Fraction(np.max(np.abs(diff)), d * e)


def conjugator(data, table) -> ProjMap:
    """A of the entry table with its rows in the order of psi: row 0, the
    bent slots by non-increasing cusp-parameter entry (ties in slot order),
    the unbent slots, row n."""
    _, a, _, _, d = table
    bent = data.bent_slots()
    values = cusp_parameter_entry(*([v[k] for k in bent] for v in (data.b, data.mu, data.s)))
    order = sorted(range(len(bent)), key=lambda i: -values[i])
    rows = ([0] + [1 + bent[i] for i in order]
            + [1 + k for k in range(data.n - 1) if k not in bent] + [data.n])
    return ProjMap._from_exact(dense(a, d, (data.n + 1,) * 2)[rows], d)


def grid_classify(data, tol=DEFAULT_TOL) -> ClassifiedCusp:
    """``conjugate_and_match`` by the grid route: the exact check by the
    dense product above (float data: the program's stacked check), psi
    entries as a one-row grid of ``cusp_parameter_entry`` in numpy, refused
    by ``require_normal_parameters``, and the conjugator as the dense A with
    its rows in the order of psi (float data: the A slice of
    ``_cusp_arrays``)."""
    if data.exact:
        table = _exact_cusp_table(data.b, data.mu)
        residual_ = residual(table, data.n)
        assert residual_ == 0, residual_
    else:
        gens, a_mat, normal = _cusp_arrays(data.b, [data.s], [data.mu])
        residuals = _intertwining_residuals(gens, a_mat, normal)
        require_normal_form(residuals, tol)
        residual_ = float(residuals[0])
    bent = data.bent_slots()
    entries = cusp_parameter_entry(*([v[k] for k in bent] for v in (data.b, data.mu, data.s)))
    require_normal_parameters(entries[None], bent)
    psi, rows = _sorted_parameter(dict(zip(bent, entries.tolist())), data.n)
    if data.exact:
        conj = conjugator(data, table)
    else:
        conj = ProjMap._from_float(a_mat[0][rows] + 0.0)
    return ClassifiedCusp(psi, len(bent), conj, residual_)
