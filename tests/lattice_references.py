"""Reference walks that the lattice tests check live code against.

``box_slabs`` walks every point of a coefficient box, one slab at a time,
with no line intervals: the whole-box walk that ``test_strip_count.py``
and ``test_enumeration_properties.py`` compare the library's exact walks
with.
"""

from latheights.lattice import _check_budget, _free_axis, _prefix_grid


def box_slabs(caps, mat, dtype="int64"):
    """Walk the coefficient box |m_j| <= caps[j] one slab at a time.

    ``mat`` is a lattice given as L columns of n entries, read as an n x L
    array of ``dtype``.  The walk yields ``(vals, coeffs)`` per slab:
    ``coeffs`` holds every m of the slab, one row each, and ``vals`` holds
    ``mat @ m`` for the same rows.  The slabs fix the first longest axis,
    outermost and ascending; inside a slab the other axes run
    lexicographically.  Coefficients are int64, or Python ints when
    ``dtype`` is object.  ``coeffs`` is one array that each slab rewrites
    in place, so a caller copies what it keeps before the next slab.  The
    budget is checked on the call, before any array is built.
    """
    _check_budget(caps)
    return _slabs(caps, mat, dtype)


def _slabs(caps, mat, dtype):
    import numpy as np

    axis, rest_axes, rest_caps, lines = _free_axis(caps)
    rest = _prefix_grid(rest_caps, 0, lines, object if dtype is object else np.int64)
    a = np.array(mat, dtype=dtype).T
    rest_vals, axis_col = rest @ a[:, rest_axes].T, a[:, axis]  # (#rest, n)
    coeffs = np.insert(rest, axis, 0, axis=1)
    for m0 in range(-caps[axis], caps[axis] + 1):
        coeffs[:, axis] = m0
        yield rest_vals + m0 * axis_col, coeffs
