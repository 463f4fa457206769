"""Lattices in R^n: exact cube enumeration and sup-norm counting bounds.

A lattice is held by a basis matrix with exact (rational or quadratic
irrational) or certified-interval entries.  Membership of a point in a
closed cube is decided exactly; undecidable boundary ties raise rather than
mis-count.  The enumeration is the ground-truth oracle that every counting
bound in this library is checked against.

Every rational lattice is enumerated on its integer columns A = den B by
exact line intervals (``_enumerate_rational``): every axis but the first
longest is fixed on a prefix grid (``_free_axis``, ``_prefix_grid``), each
coordinate of A m is affine in the free coefficient t on a line, and the
exact test bd |r_c + t s_c| <= bn cuts one integer interval from it, a
floor division (the Fincke-Pohst step, exact here).  The count is the sum
of the interval lengths; the points are built only when a caller reads
them (``CubePoints``).

The one slab kernel ``_box_slabs`` walks a whole coefficient box: it checks
the box against ENUM_BUDGET, fixes the first longest axis slab by slab, and
hands each slab's values B m and coefficient array m to the caller's test.
It serves the first strict minimum of the sup-norms in ``supnorm_min`` for
rational lattices, and the float screen of ``enumerate_cube`` for all
others.  When all entries lie in one Q(sqrt m), the float screen's safety
band is decided as one integer array test per slab on the scaled columns
(``_quad_within``); only balls take the certified per-point re-check
``_certified_in_cube``.  The one other walk, ``strip_candidates``, serves
the totally real module count ``bounds._fast_count_totally_real``: it
keeps only the integer intervals that the dyadic strips of the height
region cut from each line, yields the integer coordinates of their points
only (never the coefficients), and shares the budget check
(``_check_budget``, on ``_box_size``), the free axis and the prefix grid
with the other walks.

Whenever the Gram matrix is rational it is held as an integer matrix over a
squared denominator (``RealLattice.int_gram``): the determinant, and the
module discriminant, are Bareiss elimination on it, and the box caps -- the radius times the l1 row norms of
G^{-1} B^T -- come from one fraction-free integer solve on it per lattice
(``intmat.solve``, cached).  Other lattices (balls, irrational Gram
matrices) solve in the entries' own type.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import List, Sequence

from . import intmat, linalg
from .errors import BudgetExceeded, PrecisionExhausted, ValidationError
from .reals import (
    QuadReal,
    Real,
    abs_real,
    cmp_real,
    endpoints,
    min_real,
    max_real,
    quad_sign,
    real_to_float,
    scaled_quad,
    sqrt_real,
    to_real,
)

ENUM_BUDGET = 30_000_000  # max candidate coefficient vectors per enumeration
PREFIX_CHUNK = 256  # prefix lines per interval pass of strip_candidates
SCREEN_BATCH = 2048  # candidates per screened batch of strip_candidates


def _rat_upper(x: Real) -> Fraction:
    """An exact rational upper bound for a Real."""
    x = to_real(x)
    if isinstance(x, QuadReal) and x.is_rational:
        return x.as_fraction()
    return endpoints(x)[1]


class RealLattice:
    """Rank-L lattice in R^N given by basis columns."""

    def __init__(self, columns: Sequence[Sequence]):
        cols = [[to_real(e) for e in col] for col in columns]
        if not cols:
            raise ValidationError("lattice needs at least one basis vector")
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValidationError("ragged basis columns")
        self.ambient_dim = n
        self.rank = len(cols)
        self.columns = cols
        self._gram = None
        self._int_gram = False  # not computed yet; None means not rational
        self._supnorm_min = None
        self._box_norms = None
        self._scaled = False  # not computed yet; None means no export

    @classmethod
    def from_rows(cls, rows) -> "RealLattice":
        return cls(list(map(list, zip(*rows))))

    def gram(self):
        """B^T B in the entries' own type.  Only lattices without a rational
        Gram matrix need it (balls, irrational Gram matrices); a rational one
        is read as integers from ``int_gram``."""
        if self._gram is None:
            cols, n = self.columns, self.ambient_dim
            self._gram = [[sum((u[t] * v[t] for t in range(1, n)), u[0] * v[0]) for v in cols]
                          for u in cols]
        return self._gram

    def int_gram(self):
        """(G, den): the Gram matrix B^T B is G / den**2 with integer G, from
        the scaled columns (A + A' sqrt r) / den.  None when B^T B is not
        rational: a ball entry, or a sqrt r part of A^T A' + A'^T A."""
        if self._int_gram is False:
            self._int_gram, scaled = None, self.scaled_columns()
            if scaled is not None:
                root, den, a_cols, b_cols = scaled
                pairs = list(zip(a_cols, b_cols))
                if all(_dot(a, y) == -_dot(x, b)
                       for i, (a, b) in enumerate(pairs) for x, y in pairs[: i + 1]):
                    g = [[_dot(a, x) + root * _dot(b, y) for x, y in pairs] for a, b in pairs]
                    self._int_gram = g, den
        return self._int_gram

    def det_value(self) -> Real:
        """det(Lambda) = sqrt(det(B^T B)), exact when the Gram det is rational."""
        int_gram = self.int_gram()
        if int_gram is None:
            return sqrt_real(linalg.det(self.gram()))
        g, den = int_gram
        return sqrt_real(Fraction(intmat.det(g), den ** (2 * self.rank)))

    def point(self, coeffs: Sequence[int]) -> List[Real]:
        return [
            sum(
                (self.columns[j][i] * coeffs[j] for j in range(1, self.rank)),
                self.columns[0][i] * coeffs[0],
            )
            for i in range(self.ambient_dim)
        ]

    def scaled_columns(self):
        """(m, den, A, B): every entry is (A[j][i] + B[j][i] sqrt(m)) / den with
        integers A, B and one radicand m (0 when all entries are rational).
        None if an entry is a ball or two radicands differ."""
        if self._scaled is False:
            self._scaled = None
            ents = [e for col in self.columns for e in col]
            roots = {e.m for e in ents if isinstance(e, QuadReal)} - {0}
            if len(roots) > 1 or not all(isinstance(e, QuadReal) for e in ents):
                return None
            den = math.lcm(*(e.d for e in ents))
            self._scaled = (max(roots, default=0), den,
                            [[e.p * (den // e.d) for e in col] for col in self.columns],
                            [[e.q * (den // e.d) for e in col] for col in self.columns])
        return self._scaled

    def __repr__(self):
        return "RealLattice(N=%d, L=%d)" % (self.ambient_dim, self.rank)


def _dot(x, y):
    return sum(map(operator.mul, x, y))


def _coefficient_box(lat: RealLattice, radius: Fraction) -> List[int]:
    """Per-coordinate caps M_i with |m_i| <= M_i for all points in the cube."""
    if lat._box_norms is None:
        lat._box_norms = _pinv_row_norms(lat)
    return [max(0, math.floor(_rat_upper(s * radius))) for s in lat._box_norms]


def _pinv_row_norms(lat: RealLattice) -> List[Real]:
    """l1 norms of the rows of the pseudo-inverse G^{-1} B^T (m = pinv @ x).

    One solve G X = B^T.  When the Gram matrix is rational (always for
    rational entries), B is (A + A' sqrt r) / den with integers A, A' and
    G = G_int / den^2 (``int_gram``), so the solve is fraction-free on G_int
    with right-hand side [A^T | A'^T]: G_int X = d [A^T | A'^T] with d > 0,
    and the pseudo-inverse is den X / d.
    """
    int_gram = lat.int_gram()
    if int_gram is None:
        rows = linalg.solve(lat.gram(), lat.columns)
    else:
        root, den, a_cols, b_cols = lat.scaled_columns()
        rows = intmat.solve(int_gram[0], [a + b for a, b in zip(a_cols, b_cols)])
    if rows is None:
        raise ValidationError("basis columns are linearly dependent")
    if int_gram is None:
        return [sum(map(abs_real, row[1:]), abs_real(row[0])) for row in rows]
    rows, d = rows
    out, n = [], lat.ambient_dim
    for xs, ys in ((row[:n], row[n:]) for row in rows):
        signs = [quad_sign(x, y, root) for x, y in zip(xs, ys)]
        out.append(scaled_quad(den * sum(map(operator.mul, signs, xs)),
                               den * sum(map(operator.mul, signs, ys)), d, root))
    return out


class CubePoints:
    """The points of ``enumerate_cube``.  ``len()`` is their count, known
    without building them; ``rows`` is their (P, L) int64 coefficient array,
    built on first read and kept.  Iteration yields tuples of Python ints,
    and ``==`` against a list or tuple compares those tuples."""

    def __init__(self, count: int, build):
        self._count, self._build, self._rows = count, build, None

    def __len__(self):
        return self._count

    @property
    def rows(self):
        if self._rows is None:
            self._rows, self._build = self._build(), None
        return self._rows

    def __iter__(self):
        return map(tuple, self.rows.tolist())

    def __eq__(self, other):
        if isinstance(other, (list, tuple, CubePoints)):
            return list(self) == list(other)
        return NotImplemented


def enumerate_cube(lat: RealLattice, radius) -> CubePoints:
    """All integer coefficient vectors m with |B m|_inf <= radius (closed).

    Exact boundary decisions; raises BudgetExceeded when the candidate box
    is larger than ENUM_BUDGET, before any array is built.  Points come slab
    by slab: the first longest coefficient axis is outermost, and every axis
    ascends.  On a rational lattice the count needs no points: the rows are
    built only when a caller reads them.
    """
    radius = Fraction(radius)
    if radius < 0:
        return CubePoints(0, lambda: _prefix_grid([0] * lat.rank, 0, 0))
    caps = _coefficient_box(lat, radius)
    scaled = lat.scaled_columns()
    if scaled is not None and scaled[0] == 0:
        return _enumerate_rational(scaled, radius, caps)
    return _enumerate_generic(lat, radius, caps)


def _box_slabs(caps: Sequence[int], mats, dtype="int64"):
    """Walk the coefficient box |m_j| <= caps[j] one slab at a time.

    Each of ``mats`` is a lattice given as L columns of n entries, read as
    an n x L array of ``dtype``.  The walk yields ``(vals, coeffs)`` per
    slab: ``coeffs`` holds every m of the slab, one row each, and
    ``vals[k]`` holds ``mats[k] @ m`` for the same rows.  The slabs fix the
    first longest axis, outermost and ascending; inside a slab the other
    axes run lexicographically.  Coefficients are int64, or Python ints when
    ``dtype`` is object; ``coeffs[i].tolist()`` gives Python ints either
    way.  ``coeffs`` is one array that each slab rewrites in place, so a
    caller copies what it keeps before the next slab.  The budget is
    checked on the call, before any array is built.  numpy is imported on
    first use, so that importing the package stays cheap.
    """
    _check_budget(caps)
    return _slabs(caps, mats, dtype)


def _box_size(caps: Sequence[int]) -> int:
    """The number of points of the box |m_j| <= caps[j]."""
    return math.prod(2 * c + 1 for c in caps)


def _check_budget(caps: Sequence[int]) -> None:
    """Raise BudgetExceeded when the box |m_j| <= caps[j] has more than
    ENUM_BUDGET points."""
    total = _box_size(caps)
    if total > ENUM_BUDGET:
        raise BudgetExceeded(
            "enumeration box has %d candidates (budget %d)" % (total, ENUM_BUDGET)
        )


def _prefix_grid(caps: Sequence[int], start: int, stop: int, coeff="int64"):
    """Rows start, ..., stop - 1 of the grid |m_j| <= caps[j] in
    lexicographic order (the last axis fastest), one point per row.  With
    ``coeff`` object the entries are Python ints."""
    import numpy as np

    idx = np.arange(start, stop, dtype=np.int64)
    grid = np.empty((stop - start, len(caps)), dtype=coeff)
    for j in reversed(range(len(caps))):
        idx, digit = np.divmod(idx, 2 * caps[j] + 1)
        grid[:, j] = digit - caps[j]
    return grid


def _free_axis(caps: Sequence[int]):
    """(axis, rest_axes, rest_caps, lines): the first longest axis, which a
    walk leaves free, and the other axes, fixed on the prefix grid of its
    ``lines`` points."""
    axis = max(range(len(caps)), key=lambda j: caps[j])
    rest_axes = [j for j in range(len(caps)) if j != axis]
    rest_caps = [caps[j] for j in rest_axes]
    return axis, rest_axes, rest_caps, _box_size(rest_caps)


def _slabs(caps, mats, dtype):
    import numpy as np

    axis, rest_axes, rest_caps, lines = _free_axis(caps)
    rest = _prefix_grid(rest_caps, 0, lines, object if dtype is object else np.int64)
    arrays = [np.array(m, dtype=dtype).T for m in mats]
    rest_vals = [rest @ a[:, rest_axes].T for a in arrays]  # (#rest, n) each
    axis_cols = [a[:, axis] for a in arrays]
    coeffs = np.insert(rest, axis, 0, axis=1)
    for m0 in range(-caps[axis], caps[axis] + 1):
        coeffs[:, axis] = m0
        yield [rv + m0 * c for rv, c in zip(rest_vals, axis_cols)], coeffs


def strip_candidates(caps, a_int, b_int, sq, strips):
    """Batches (va, vb) of the integer coordinates of the points m of the
    box |m_j| <= caps[j] that can lie in one of ``strips``.

    The L columns ``a_int``, ``b_int`` of n integers give the coordinates
    va + vb sqrt(r) of m, with va = A m and vb = B m; ``sq`` is fl(sqrt r).
    A strip is a float vector U, and m lies in it when |va_c + vb_c sqrt r|
    <= U_c for every coordinate c.  All of A m and B m on the box must be
    below 2**52 in size, so their floats are exact.

    Every axis but the first longest is fixed, on the prefix grid of
    ``_slabs``.  Along one prefix line each coordinate is r_c + t s_c,
    affine in the free coefficient t, so each strip cuts one integer
    interval from the line.  The walk merges the intervals of all strips
    and yields their union PREFIX_CHUNK lines at a time, in batches of at
    most SCREEN_BATCH points.  The walk yields integers only: a caller
    decides each point on its coordinates va, vb, never on m.

    The intervals enclose every lattice point of every strip.  With
    u = 2**-53, fl(va + vb sq) is within 4u (|va| + |vb| sqrt r) of
    va + vb sqrt r.  So on a line the float offset and slope carry an error
    of at most 2**-51 mag_c for |t| <= cap, where mag_c = sum_j (|A_cj| +
    |B_cj| sqrt r)(caps_j + 1), and every t of the strip meets
    |fl(r_c) + t fl(s_c)| <= U'_c = U_c + 2**-49 (mag_c + U_c), which leaves
    room for the rounding of mag_c and U'_c.  The float ends
    (+-U'_c - fl(r_c)) / fl(s_c) lie within 2**-51.9 of their size of the
    exact quotients; each end is clipped to the box widened by one, moved
    outwards by 2**-50 of its size and rounded outwards to an integer.  A
    zero float slope keeps the whole line when |fl(r_c)| <= U'_c, and none
    of it otherwise.

    The budget is checked on the whole box on the call, before any array
    is built, as in ``_box_slabs``.
    """
    _check_budget(caps)
    return _strip_walk(caps, a_int, b_int, sq, strips)


def _strip_walk(caps, a_int, b_int, sq, strips):
    import numpy as np

    a_mat, b_mat = np.array(a_int, dtype=np.int64).T, np.array(b_int, dtype=np.int64).T
    axis, rest_axes, rest_caps, n_lines = _free_axis(caps)
    cap = caps[axis]
    a_rest, b_rest = a_mat[:, rest_axes], b_mat[:, rest_axes]
    a_axis, b_axis = a_mat[:, axis], b_mat[:, axis]
    slope = a_axis.astype(np.float64) + b_axis.astype(np.float64) * sq
    flat = slope == 0
    box = np.array([c + 1 for c in caps], dtype=np.float64)
    mags = np.abs(a_mat).astype(np.float64) @ box + np.abs(b_mat).astype(np.float64) @ box * sq
    limits = np.array([u + 2.0 ** -49 * (mags + u) for u in strips])  # strip x coordinate
    for first in range(0, n_lines, PREFIX_CHUNK):
        rest = _prefix_grid(rest_caps, first, min(first + PREFIX_CHUNK, n_lines))
        ra, rb = rest @ a_rest.T, rest @ b_rest.T
        offset = (ra.astype(np.float64) + rb.astype(np.float64) * sq)[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            e1, e2 = (-limits - offset) / slope, (limits - offset) / slope
        lo, hi = np.minimum(e1, e2), np.maximum(e1, e2)  # line x strip x coordinate
        if flat.any():
            keep = np.abs(offset[:, :, flat]) <= limits[:, flat]
            lo[:, :, flat] = np.where(keep, -np.inf, np.inf)
            hi[:, :, flat] = np.where(keep, np.inf, -np.inf)
        lo = np.clip(lo.max(axis=2), -cap - 1, cap + 1)
        hi = np.clip(hi.min(axis=2), -cap - 1, cap + 1)
        lo = np.clip(np.ceil(lo - np.abs(lo) * 2.0 ** -50), -cap, cap + 1).astype(np.int64)
        hi = np.clip(np.floor(hi + np.abs(hi) * 2.0 ** -50), -cap - 1, cap).astype(np.int64)
        # union per line: sort by start, then take what reaches past the
        # running end of the earlier intervals
        order = np.argsort(lo, axis=1)
        lo, hi = np.take_along_axis(lo, order, 1), np.take_along_axis(hi, order, 1)
        reach = np.maximum.accumulate(hi, axis=1)
        lo[:, 1:] = np.maximum(lo[:, 1:], reach[:, :-1] + 1)
        sizes = np.maximum(hi - lo + 1, 0).ravel()
        runs = np.flatnonzero(sizes)
        starts, sizes = lo.ravel()[runs], sizes[runs]
        lines = runs // len(strips)
        ends = np.cumsum(sizes)
        total = int(ends[-1]) if ends.size else 0
        for b0 in range(0, total, SCREEN_BATCH):
            k = np.arange(b0, min(b0 + SCREEN_BATCH, total), dtype=np.int64)
            run = np.searchsorted(ends, k, side="right")
            t = starts[run] + k - (ends[run] - sizes[run])
            line = lines[run]
            yield ra[line] + t[:, None] * a_axis, rb[line] + t[:, None] * b_axis


def _int_dtype(cols, caps, scale=1, offset=0, root=0):
    """int64 when offset + scale * |A m| on the box of the integer columns
    A, squared and times root when root > 0, stays below 2**62, so no test
    on it can overflow; object (Python ints) otherwise."""
    maxentry = max(abs(x) for col in cols for x in col) or 1
    top = offset + scale * maxentry * (max(caps) + 1) * len(cols)
    return "int64" if (top * top * root if root else top) < 2**62 else object


def _enumerate_rational(scaled, radius, caps):
    """enumerate_cube on the integer columns A = den B, by exact line
    intervals.  On a line of the prefix grid, coordinate c of A m is
    r_c + t s_c in the free coefficient t, and bd |r_c + t s_c| <= bn holds
    for t in one integer interval: with s_c > 0 (negate both otherwise),
    ceil((-bn - bd r_c) / (bd s_c)) <= t <= floor((bn - bd r_c) / (bd s_c)),
    and with s_c = 0 the whole line or none of it.  The count is the sum of
    the lengths of the intervals' intersections with [-cap, cap]."""
    import numpy as np

    _, den, cols, _ = scaled
    bound = radius * den  # |sum m_j c_j| <= bound, integer lhs vs rational rhs
    bn, bd = bound.numerator, bound.denominator
    dtype = _int_dtype(cols, caps, bd, bn)
    _check_budget(caps)
    axis, rest_axes, rest_caps, lines = _free_axis(caps)
    cap = caps[axis]
    mat = np.array(cols, dtype=dtype).T * bd  # n x L
    rest = _prefix_grid(rest_caps, 0, lines)
    offset, slope = rest.astype(dtype) @ mat[:, rest_axes].T, mat[:, axis]
    sign = np.where(slope < 0, -1, 1)
    offset, slope = offset * sign, slope * sign
    flat = slope == 0
    o, s = offset[:, ~flat], slope[~flat]
    lo = (-((bn + o) // s)).max(axis=1, initial=-cap)
    hi = ((bn - o) // s).min(axis=1, initial=cap)
    on = (np.abs(offset[:, flat]) <= bn).all(axis=1)
    sizes = (np.maximum(hi - lo + 1, 0) * on).astype(np.int64)
    live = np.flatnonzero(sizes)
    rest, lo, sizes = rest[live], lo[live].astype(np.int64), sizes[live]
    count = int(sizes.sum())

    def build():  # slab order: by t, stably, so line order inside
        line = np.repeat(np.arange(live.size), sizes)
        t = np.arange(count) - np.repeat(np.cumsum(sizes) - sizes - lo, sizes)
        order = np.lexsort((line, t))
        return np.insert(rest[line[order]], axis, t[order], axis=1)

    return CubePoints(count, build)


def _certified_in_cube(lat, m, radius) -> bool:
    for v in lat.point(m):
        if cmp_real(abs_real(v), radius, context="cube boundary") > 0:
            return False
    return True


def _quad_float(a, b, m) -> float:
    """a + b sqrt(m) for integers a, b as a float, without cancellation:
    real_to_float turns 1 + (sqrt2 - 1)^60, with a and b near 5e22, into -4096."""
    s = b * math.sqrt(m)
    return a + s if (a >= 0) == (b >= 0) else (a * a - b * b * m) / (a - s)


def _quad_within(va, vb, root, p, q):
    """q |va + vb sqrt(root)| <= p, elementwise on integer arrays va, vb,
    decided on squares: both a = p -+ q va with b = -+q vb give
    a + b sqrt(root) >= 0, which holds iff a >= 0 and (b >= 0 or
    a^2 >= b^2 root), or a < 0, b > 0 and b^2 root >= a^2."""
    import numpy as np

    qa, qb = q * va, q * vb
    ok = True
    for a, b in ((p - qa, -qb), (p + qa, qb)):
        a2, b2r = a * a, b * b * root
        ok = ok & np.where(a >= 0, (b >= 0) | (a2 >= b2r), (b > 0) & (b2r >= a2))
    return ok


def _enumerate_generic(lat, radius, caps):
    import numpy as np

    scaled = lat.scaled_columns()
    if scaled is None:
        floats = [[real_to_float(e) for e in col] for col in lat.columns]
    else:  # one field Q(sqrt r): floats, and the band decided on the integers
        root, den, a_cols, b_cols = scaled
        p, q = (radius * den).numerator, (radius * den).denominator
        dtype = _int_dtype([a + b for a, b in zip(a_cols, b_cols)], caps, q, p, root)
        a_mat, b_mat = np.array(a_cols, dtype=dtype), np.array(b_cols, dtype=dtype)
        floats = [[_quad_float(a, b, root) / den for a, b in zip(*c)] for c in zip(a_cols, b_cols)]

    def band_test(m):  # exact decision of the band's rows m
        if scaled is None:
            return [_certified_in_cube(lat, tuple(row), radius) for row in m.tolist()]
        m = m.astype(dtype)
        return _quad_within(m @ a_mat, m @ b_mat, root, p, q).all(axis=1)

    cols = np.array(floats, dtype=np.float64)
    # float screen: exact decision only inside a safety band around the
    # boundary, wide enough to absorb all rounding error
    mags = np.abs(cols.T) @ np.array([c + 1 for c in caps], dtype=np.float64)
    tol = max(1.0, float(mags.max())) * 1e-9
    rad = float(radius)
    lo, hi = rad - tol, rad + tol
    kept = []
    for (vals,), coeffs in _box_slabs(caps, [cols], "float64"):
        mx = np.abs(vals).max(axis=1)
        keep = mx <= lo
        band = np.flatnonzero((mx > lo) & (mx <= hi))
        if band.size:
            keep[band] = band_test(coeffs[band])
        kept.append(coeffs[keep])
    rows = np.concatenate(kept)
    return CubePoints(len(rows), lambda: rows)


def supnorm_min(lat: RealLattice):
    """(c, witness coefficients): minimal sup-norm over nonzero vectors.

    Certified: every nonzero lattice vector outside the searched cube has
    sup-norm exceeding the returned minimum.  The searched cube has as
    radius the smallest basis-vector sup-norm (a valid upper bound), and
    the witness is its first minimal vector in slab order.
    """
    if lat._supnorm_min is None:
        scaled = lat.scaled_columns()
        if scaled is not None and scaled[0] == 0:
            lat._supnorm_min = _supnorm_min_rational(lat, scaled)
        else:
            lat._supnorm_min = _supnorm_min_real(lat)
    return lat._supnorm_min


def _supnorm_min_rational(lat, scaled):
    """supnorm_min on the integer columns A = den B: the first strict
    minimum of max |A m| over the nonzero rows of the box.  Vectors of the
    box outside the cube are longer than the basis vector that set the
    radius, so they never hold the minimum."""
    import numpy as np

    _, den, cols, _ = scaled
    caps = _coefficient_box(lat, Fraction(min(max(map(abs, col)) for col in cols), den))
    best = best_m = None
    for (vals,), coeffs in _box_slabs(caps, [cols], _int_dtype(cols, caps)):
        norms = np.abs(vals).max(axis=1)
        rows = np.flatnonzero((coeffs != 0).any(axis=1))
        if rows.size:
            i = rows[np.argmin(norms[rows])]
            if best is None or norms[i] < best:
                best, best_m = int(norms[i]), tuple(coeffs[i].tolist())
    if best is None:
        raise ValidationError("no nonzero vector in the initial search cube")
    return scaled_quad(best, 0, den, 0), best_m


def _supnorm_min_real(lat):
    r0 = None
    for j in range(lat.rank):
        s = max_real(*[abs_real(lat.columns[j][i]) for i in range(lat.ambient_dim)])
        r0 = s if r0 is None else min_real(r0, s)
    radius = _rat_upper(r0)
    pts = enumerate_cube(lat, radius)
    best = None
    best_m = None
    seen = set()
    for m in pts:
        seen.add(m)
        # |B(-m)| = |Bm|: skip m = 0 and every -m of a visited m
        if tuple(-x for x in m) in seen:
            continue
        s = max_real(*[abs_real(v) for v in lat.point(m)])
        if best is None:
            best, best_m = s, m
            continue
        try:
            smaller = cmp_real(s, best, context="supnorm min") < 0
        except PrecisionExhausted:
            # a tie between distinct vectors: keep the incumbent
            smaller = False
        if smaller:
            best, best_m = s, m
    if best is None:
        raise ValidationError("no nonzero vector in the initial search cube")
    return best, best_m


# ---------------------------------------------------------------------------
# counting bounds


def bound_upper(n: int, big_l: int, det_val, c, radius, integral: bool = False) -> Real:
    """Upper bound for |Lambda cap C_n(R)|; min over applicable branches."""
    det_val, c, radius = to_real(det_val), to_real(c), to_real(Fraction(radius))
    branches = []
    if big_l == n:
        branches.append(
            (2 * radius * c ** (n - 1) / det_val + 1) * (2 * radius / c + 1) ** (n - 1)
        )
    else:
        branches.append((2 * radius / c + 1) ** (n - 1))
    if integral:
        root = sqrt_real(math.comb(n, big_l))
        branches.append(
            (2 * root * radius / det_val + 1) * (2 * radius + 1) ** (big_l - 1)
        )
    return min_real(*branches)


def lower_bound_threshold(big_l: int, det_val, c) -> Real:
    """Smallest R for which the lower bound applies: (L/2) max{det/c^{L-1}, c}."""
    det_val, c = to_real(det_val), to_real(c)
    return Fraction(big_l, 2) * max_real(det_val / c ** (big_l - 1), c)


def bound_lower(big_l: int, det_val, c, radius) -> Real:
    """Lower bound for |Lambda cap C_N(R)|; errors if R misses the threshold."""
    det_val, c = to_real(det_val), to_real(c)
    radius = to_real(Fraction(radius))
    # R >= (L/2) max{det/c^{L-1}, c} exactly when neither factor is negative
    main = 2 * radius * c ** (big_l - 1) / (big_l * det_val) - 1
    growth = 2 * radius / (big_l * c) - 1
    for factor in (main, growth):
        if cmp_real(factor, 0, context="lower bound threshold") < 0:
            raise ValidationError("lower bound not applicable: R below threshold")
    return main * growth ** (big_l - 1)


def max_grassmann_sublattice(lat: RealLattice):
    """(Omega, det Omega): full-rank projection onto the maximizing L rows."""
    big_l = lat.rank
    best = None
    best_rows = None
    scaled = lat.scaled_columns()

    def minor(rows):
        if scaled is not None and scaled[0] == 0:  # integer minors of A = den B
            _, den, cols, _ = scaled
            d = intmat.det([[col[i] for col in cols] for i in rows])
            return scaled_quad(abs(d), 0, den ** big_l, 0)
        return abs_real(linalg.det([[col[i] for col in lat.columns] for i in rows]))

    for rows in itertools.combinations(range(lat.ambient_dim), big_l):
        d = minor(rows)
        if best is None or cmp_real(d, best, context="grassmann max") > 0:
            best, best_rows = d, rows
    if best is None or cmp_real(best, 0) == 0:
        raise ValidationError("lattice basis is rank deficient")
    omega = RealLattice(
        [[lat.columns[j][i] for i in best_rows] for j in range(big_l)]
    )
    return omega, best
