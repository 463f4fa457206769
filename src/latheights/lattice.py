"""Lattices in R^n: exact cube enumeration and sup-norm counting bounds.

A lattice is held by a basis matrix with exact (rational or quadratic
irrational) or certified-interval entries.  Membership of a point in a
closed cube is decided exactly; undecidable boundary ties raise rather than
mis-count.  The enumeration is the ground-truth oracle that every counting
bound in this library is checked against.

Every lattice whose entries lie in one field Q(sqrt r) (r = 0 for Q) is
walked line by line on its integer columns A + B sqrt r = den times the
basis (``RealLattice.scaled_columns``).  Every axis but the first longest
is fixed on a prefix grid (``_free_axis``, ``_prefix_grid``); on a line,
each coordinate is R + t S in the free coefficient t with R, S in
Z[sqrt r], and a bound |R + t S| <= U keeps the integers t between
(+-U - R) / S.  Times the conjugate of S, each end is (P + Q sqrt r) / N
with integers P, Q and N = N(S) > 0, and its floor is
floor((P + floor(Q sqrt r)) / N), with floor(Q sqrt r) from the integer
square root of Q^2 r (``_floor_quad``): the Fincke-Pohst step, exact on
integers.  So no float decides a point.  Two walks take these floors, by
the box's number of prefix lines: up to SCALAR_LINES of them, a one-line
box (every cap 0 but one) among them, are walked on Python ints
(``_scalar_runs``), where a tiny box costs little; more go to the numpy
kernel ``line_runs``, which maps ``_floor_quad`` on integer arrays
(``_floor_div``) and pays a fixed set-up per call.  ``enumerate_cube``
counts the points as the sum of the interval lengths and builds them from
the runs only when a caller reads them (``CubePoints``, ``_slab_rows``).
The totally real module count of ``bounds`` cuts the union of its dyadic
strips by the kernel (``box_points``).  Lattices with a ball entry, or two
radicands, are screened in floats slab by slab (``_box_slabs``, whose one
caller is that screen), and the points in a safety band around the
boundary are re-decided by the certified ``_certified_in_cube``.  The
sup-norm minimum of every lattice reads the first half of
``enumerate_cube``'s points, in slab order: m -> -m reverses that order,
so the first minimal vector lies there (``supnorm_min``).  Every walk
checks ENUM_BUDGET on the whole box before it builds anything
(``_check_budget``).

Whenever the Gram matrix is rational it is held as an integer matrix over a
squared denominator (``RealLattice.int_gram``): the determinant, and the
module discriminant, are Bareiss elimination on it, and the box caps -- the
radius times the l1 row norms of G^{-1} B^T -- come from one fraction-free
integer solve on it per lattice (``intmat.solve``, cached); a rational row
norm is kept as an integer pair, so each cap is one floor division.  Other
lattices (balls, irrational Gram matrices) solve in the entries' own type.
The counting-lemma bounds on exact inputs are closed forms on integers.
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
PREFIX_CHUNK = 1 << 13  # line x box x moving-coordinate entries per pass of line_runs
SCALAR_LINES = 49  # most prefix lines that _cube_points walks on Python ints
SCREEN_BATCH = 2048  # points per batch of box_points


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
    """Per-coordinate caps M_i with |m_i| <= M_i for all points in the cube
    of a rational radius R.  A rational row norm is cached as an integer
    pair (num, den) and gives its cap by one floor division; an irrational
    one gives the floor of the rational upper bound of s R."""
    if lat._box_norms is None:
        lat._box_norms = [(s.p, s.d) if isinstance(s, QuadReal) and not s.q else s
                          for s in _pinv_row_norms(lat)]
    rn, rd = radius.numerator, radius.denominator
    return [max(0, s[0] * rn // (s[1] * rd)) if isinstance(s, tuple)
            else max(0, math.floor(_rat_upper(s * radius))) for s in lat._box_norms]


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
    ascends.  On a lattice with scaled columns the count needs no points:
    the rows are built only when a caller reads them.  There a box of at
    most SCALAR_LINES prefix lines, a one-line box (every cap 0 but one)
    among them, is walked on Python ints (``_scalar_runs``); any other box
    by ``line_runs``.
    """
    radius = Fraction(radius)
    if radius < 0:
        return CubePoints(0, lambda: _prefix_grid([0] * lat.rank, 0, 0))
    caps = _coefficient_box(lat, radius)
    scaled = lat.scaled_columns()
    if scaled is None:
        return _enumerate_generic(lat, radius, caps)
    return _cube_points(scaled, caps, radius)


def _cube_points(scaled, caps, radius):
    """enumerate_cube on a lattice with scaled columns, given its caps: a
    box of at most SCALAR_LINES prefix lines is walked on Python ints
    (``_scalar_runs``), any other by ``line_runs``.  Either way the count
    is the sum of the run sizes, and the rows are built from the runs only
    when read (``_slab_rows``)."""
    bound = radius * scaled[1]  # |A m + B m sqrt r| <= radius den, A, B integer
    u, q = bound.numerator, bound.denominator
    axis = caps.index(max(caps))
    if _box_size(caps) // (2 * caps[axis] + 1) <= SCALAR_LINES:
        runs = _scalar_runs(scaled, caps, u, q)
        count = sum(size for _, _, size in runs)

        def build():  # the line through 0 always has a run
            import numpy as np

            return _slab_rows(axis, *(np.array(c, dtype=np.int64) for c in zip(*runs)))
    else:
        box = [u] * len(scaled[2][0])
        chunks = [(rest[line], start, size) for rest, _, _, line, start, size
                  in line_runs(scaled, caps, [box], q)]
        count = sum(int(size.sum()) for *_, size in chunks)

        def build():
            import numpy as np

            rest, lo, size = (np.concatenate(c) for c in zip(*chunks))
            return _slab_rows(axis, np.insert(rest, axis, 0, axis=1), lo, size)

    return CubePoints(count, build)


def _slab_rows(axis, m0, lo, size):
    """The (P, L) int64 rows of runs in slab order: run k holds the points
    m0[k] + t e_axis for t = lo[k], ..., lo[k] + size[k] - 1, and the runs
    come in line order, so a stable sort of the points by t gives line
    order inside each slab."""
    import numpy as np

    t = np.arange(size.sum()) + np.repeat(lo + size - np.cumsum(size), size)
    rows = np.repeat(m0, size, axis=0)
    rows[:, axis] = t
    return rows[np.lexsort((t,))]


def _scalar_runs(scaled, caps, u, q):
    """The runs of the cube q |A m + B m sqrt r| <= u on the box |m_j| <=
    caps[j], walked on Python ints: (m0, lo, size) for each nonempty
    interval t = lo, ..., lo + size - 1 of the free coefficient a on the
    line m0 + t e_a (m0_a = 0), the lines in ``_prefix_grid``'s order.

    The ends are those of ``line_runs``: coordinate c is R_c + t S_c, and
    with g, C_c and N_c of ``_slope``, q R_c C_c = X + Y sqrt r is linear
    in m0, so the line keeps t <= floor((g u C_c - X - Y sqrt r) / (q N_c)),
    one ``_floor_quad``, over Q one floor division.  Each moving coordinate
    gives that end on every line at once; the least of them and the cap is
    ``hi``.  m -> -m maps the cube to itself and reverses the line order,
    so the lower end on a line is -hi of the reversed line.  A flat
    coordinate, S_c = 0 with R_c not always 0, is tested only on lines
    whose interval is nonempty, by an exact integer sign.  A one-line box
    is the case of the one line m0 = 0.  The budget is checked on the whole
    box first."""
    root, _, a_cols, b_cols = scaled
    _check_budget(caps)
    axis = caps.index(max(caps))
    ranges = [range(-k, k + 1) if j != axis else range(1) for j, k in enumerate(caps)]
    steps = [(j, ks) for j, ks in enumerate(ranges) if len(ks) > 1]

    def at(w):  # m0 . w on every line, in line order
        vals = [0]
        for j, ks in steps:
            vals = [v + m * w[j] for v in vals for m in ks]
        return vals

    tops, flat = [[caps[axis]] * math.prod(map(len, ranges))], []
    for x, y, xc, yc in zip(a_cols[axis], b_cols[axis], zip(*a_cols), zip(*b_cols)):
        if x or y:
            g, ca, cb, qn = _slope(x, y, root, q)
            p, f, ka, kb = g * u * ca, g * u * cb, q * ca, q * cb
            if root:  # R_c = ra + rb sqrt r on each line
                tops.append([_floor_quad(p - ka * ra - root * kb * rb, f - kb * ra - ka * rb,
                                         qn, root) for ra, rb in zip(at(xc), at(yc))])
            else:
                tops.append([(p - ka * ra) // qn for ra in at(xc)])
        elif any(xc) or any(yc):
            flat.append((xc, yc))
    hi = list(map(min, zip(*tops)))
    lines = zip(itertools.product(*ranges), hi, reversed(hi))
    runs = [(m0, -bot, top + bot + 1) for m0, top, bot in lines if top + bot >= 0]
    if flat:
        runs = [run for run in runs if all(
            quad_sign(u - x, -y, root) >= 0 and quad_sign(u + x, y, root) >= 0
            for x, y in ((q * _dot(run[0], xc), q * _dot(run[0], yc)) for xc, yc in flat))]
    return runs


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


def _int_dtype(cols, caps, scale=1, offset=0, root=0):
    """int64 when offset + scale * |A m| on the box of the integer columns
    A, squared and times root when root > 0, stays below 2**62, so no test
    on it can overflow; object (Python ints) otherwise."""
    maxentry = max(map(abs, itertools.chain.from_iterable(cols))) or 1
    top = offset + scale * maxentry * (max(caps) + 1) * len(cols)
    return "int64" if (top * top * root if root else top) < 2**62 else object


def _floor_quad(e, f, n, root):
    """floor((e + f sqrt(root)) / n) on Python ints, n > 0.  floor(y / n) =
    floor(floor(y) / n) for every real y, and with s = isqrt(f^2 root),
    floor(f sqrt(root)) is s for f >= 0, and -s - 1 for f < 0 unless
    s^2 = f^2 root."""
    x = f * f * root
    s = math.isqrt(x)
    return (e + (s if f >= 0 else -s - (s * s != x))) // n


def _floor_div(xa, xb, ca, cb, n, root):
    """floor((xa + xb sqrt(root)) (ca + cb sqrt(root)) / n), elementwise on
    integer arrays, n > 0: the product is e + f sqrt(root) with integers
    e, f, floored by ``_floor_quad``, which Python ints map.  Below 2**62,
    isqrt(f^2 root) is the float square root with one integer correction
    each way."""
    import numpy as np

    if not root:
        return xa * ca // n
    e, f = xa * ca + root * xb * cb, xa * cb + xb * ca
    if e.dtype == object:
        return np.frompyfunc(_floor_quad, 4, 1)(e, f, n, root)
    x = f * f * root
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return (e + np.where(f >= 0, s, -s - (s * s != x))) // n


def _slope(x, y, root, q):
    """(g, C_a, C_b, q N) of a slope S = x + y sqrt(root) != 0: g the sign
    of S, and C = C_a + C_b sqrt(root) with S C = N > 0 (``line_runs``)."""
    norm, conj = (x * x - root * y * y, (x, -y)) if y else (x, (1, 0))
    s = 1 if norm > 0 else -1
    return ((x > 0) - (x < 0) if s > 0 or not y else (y > 0) - (y < 0),
            s * conj[0], s * conj[1], s * q * norm)


def line_runs(scaled, caps, limits, q=1):
    """The exact line-interval kernel over Z[sqrt r], r = 0 for Q.

    ``scaled`` is (r, den, A, B) of ``RealLattice.scaled_columns``: the
    point with coefficients m has coordinates (A m + B m sqrt r) / den.
    Each of ``limits`` is a box, n integers U, and m lies in it when
    q |(A m)_c + (B m)_c sqrt r| <= U_c for every coordinate c.

    Every axis but the first longest is fixed on the prefix grid
    (``_free_axis``, ``_prefix_grid``).  On one prefix line, coordinate c
    is R_c + t S_c in the free coefficient t, with R_c and S_c = x + y sqrt r
    in Z[sqrt r].  For S_c != 0 take C_c = x - y sqrt r and N_c = x^2 - r y^2
    (C_c = 1 and N_c = x when y = 0), both negated when N_c < 0, so that
    S_c C_c = N_c > 0.  S_c has the sign g of x when y = 0 or x^2 > r y^2
    (|x| > |y| sqrt r), of y otherwise (``_slope``).  The box keeps the
    integers t with (-g U_c - q R_c) / (q S_c) <= t <= (g U_c - q R_c) /
    (q S_c), and each end is (g U_c -+ q R_c) C_c / (q N_c), whose floor
    ``_floor_div`` takes exactly on integers.  A coordinate with S_c = 0
    keeps the whole line or none of it (``_quad_within``).  The intervals of
    all boxes on a line are merged and clipped to |t| <= cap of the free
    axis.

    Per chunk of PREFIX_CHUNK / (boxes x coordinates with S_c != 0) lines,
    which bounds the size of the interval arrays, the walk yields (rest, ra,
    rb, line, start, size): the chunk's prefix rows, their offsets A m and
    B m at t = 0, and the runs of the merged intervals, run k holding
    t = start[k], ..., start[k] + size[k] - 1 on line[k], ascending on each
    line.  ``ra`` and ``rb`` are int64 or, past the overflow guard of
    ``_int_dtype``, Python ints.  The budget is checked on the whole box
    before any array is built.
    """
    import numpy as np

    root, _, a_cols, b_cols = scaled
    _check_budget(caps)
    axis, rest_axes, rest_caps, n_lines = _free_axis(caps)
    cap, n = caps[axis], len(a_cols[0])
    moving, flat, ends = [], [], []  # ends: ``_slope`` of each moving coordinate
    for c, (x, y) in enumerate(zip(a_cols[axis], b_cols[axis])):
        if x or y:
            moving.append(c)
            ends.append(_slope(x, y, root, q))
        elif any(col[c] for col in a_cols + b_cols):
            flat.append(c)
    # 2 (1 + r) times a bound on the conjugates' parts, for the overflow guard
    k = 2 * (1 + root) * max(map(abs, itertools.chain(a_cols[axis], b_cols[axis], [1])))
    cols = [a + b for a, b in zip(a_cols, b_cols)]  # [A; B]
    dtype = _int_dtype(cols, caps, k * q, k * max(map(max, limits)), root)
    rest_ab = np.array([cols[j] for j in rest_axes], dtype=dtype).reshape(-1, 2 * n)
    _, ca, cb, qn = np.array(ends, dtype=dtype).T
    gu = np.array([[e[0] * u[c] for c, e in zip(moving, ends)] for u in limits], dtype=dtype)
    flat_u = np.array([[u[c] for c in flat] for u in limits], dtype=dtype) if flat else None
    sign = np.array([q, -q], dtype=dtype).reshape(2, 1, 1, 1)  # hi end, lo end
    chunk = max(1, PREFIX_CHUNK // (len(limits) * len(moving)))
    for first in range(0, n_lines, chunk):
        rest = _prefix_grid(rest_caps, first, min(first + chunk, n_lines))
        rab = rest.astype(dtype) @ rest_ab
        ra, rb = rab[:, :n], rab[:, n:]
        xa = sign * ra[:, None, moving]  # end x line x box x coordinate
        xb = sign * rb[:, None, moving] if root else 0
        floors = _floor_div(gu - xa, -xb, ca, cb, qn, root).min(axis=3, initial=cap)
        hi, lo = floors[0], -floors[1]
        if flat:
            on = _quad_within(ra[:, None, flat], rb[:, None, flat], root, flat_u, q)
            hi = np.where(on.all(axis=2), hi, -cap - 1)
        if dtype is object:
            lo = np.minimum(lo, cap + 1).astype(np.int64)
            hi = np.maximum(hi, -cap - 1).astype(np.int64)
        if len(limits) > 1:
            # the union on each line: sort by start, then take what reaches
            # past the running end of the earlier intervals
            order = np.argsort(lo, axis=1)
            lo, hi = np.take_along_axis(lo, order, 1), np.take_along_axis(hi, order, 1)
            lo[:, 1:] = np.maximum(lo[:, 1:], np.maximum.accumulate(hi, axis=1)[:, :-1] + 1)
        size = np.maximum(hi - lo + 1, 0).ravel()
        runs = np.flatnonzero(size)
        yield rest, ra, rb, runs // len(limits), lo.ravel()[runs], size[runs]


def box_points(scaled, caps, limits):
    """Batches (va, vb) of the integer coordinates A m, B m of the points m
    of the box |m_j| <= caps[j] that lie in one of the boxes ``limits``
    (``line_runs`` with q = 1), at most SCREEN_BATCH points a batch."""
    import numpy as np

    _, _, a_cols, b_cols = scaled
    axis = _free_axis(caps)[0]
    for _, ra, rb, line, start, size in line_runs(scaled, caps, limits):
        sa, sb = (np.array(c[axis], dtype=ra.dtype) for c in (a_cols, b_cols))
        ends = np.cumsum(size)
        total = int(ends[-1]) if ends.size else 0
        for b0 in range(0, total, SCREEN_BATCH):
            k = np.arange(b0, min(b0 + SCREEN_BATCH, total), dtype=np.int64)
            run = np.searchsorted(ends, k, side="right")
            t = (start[run] + k - (ends[run] - size[run])).astype(ra.dtype)[:, None]
            yield ra[line[run]] + t * sa, rb[line[run]] + t * sb


def _quad_within(va, vb, root, p, q):
    """q |va + vb sqrt(root)| <= p, elementwise on integer arrays va, vb,
    decided on squares: both a = p -+ q va with b = -+q vb give
    a + b sqrt(root) >= 0, which holds iff a >= 0 and (b >= 0 or
    a^2 >= b^2 root), or a < 0, b > 0 and b^2 root >= a^2.  With root = 0
    it is q |va| <= p."""
    import numpy as np

    if not root:
        return q * abs(va) <= p
    qa, qb = q * va, q * vb
    ok = True
    for a, b in ((p - qa, -qb), (p + qa, qb)):
        a2, b2r = a * a, b * b * root
        ok = ok & np.where(a >= 0, (b >= 0) | (a2 >= b2r), (b > 0) & (b2r >= a2))
    return ok


def _box_slabs(caps: Sequence[int], mat, dtype="int64"):
    """Walk the coefficient box |m_j| <= caps[j] one slab at a time.

    ``mat`` is a lattice given as L columns of n entries, read as an n x L
    array of ``dtype``.  The walk yields ``(vals, coeffs)`` per slab:
    ``coeffs`` holds every m of the slab, one row each, and ``vals`` holds
    ``mat @ m`` for the same rows.  The slabs fix the first longest axis,
    outermost and ascending; inside a slab the other axes run
    lexicographically.  Coefficients are int64, or Python ints when
    ``dtype`` is object; ``coeffs[i].tolist()`` gives Python ints either
    way.  ``coeffs`` is one array that each slab rewrites in place, so a
    caller copies what it keeps before the next slab.  The budget is
    checked on the call, before any array is built.  numpy is imported on
    first use, so that importing the package stays cheap.  Its one caller
    is the float screen ``_enumerate_generic``; every exact walk is
    ``line_runs``.
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


def _certified_in_cube(lat, m, radius) -> bool:
    for v in lat.point(m):
        if cmp_real(abs_real(v), radius, context="cube boundary") > 0:
            return False
    return True


def _enumerate_generic(lat, radius, caps):
    """enumerate_cube on a lattice without scaled columns (a ball entry, or
    two radicands): a float screen slab by slab, and the points in a safety
    band around the boundary, wide enough to absorb all rounding error,
    decided by ``_certified_in_cube``."""
    import numpy as np

    cols = np.array([[real_to_float(e) for e in col] for col in lat.columns], dtype=np.float64)
    mags = np.abs(cols.T) @ np.array([c + 1 for c in caps], dtype=np.float64)
    tol = max(1.0, float(mags.max())) * 1e-9
    lo, hi = float(radius) - tol, float(radius) + tol
    kept = []
    for vals, coeffs in _box_slabs(caps, cols, "float64"):
        mx = np.abs(vals).max(axis=1)
        keep = mx <= lo
        for i in np.flatnonzero((mx > lo) & (mx <= hi)):
            keep[i] = _certified_in_cube(lat, tuple(coeffs[i].tolist()), radius)
        kept.append(coeffs[keep])
    rows = np.concatenate(kept)
    return CubePoints(len(rows), lambda: rows)


def supnorm_min(lat: RealLattice):
    """(c, witness coefficients): minimal sup-norm over nonzero vectors.

    Certified: every nonzero lattice vector outside the searched cube has
    sup-norm exceeding the returned minimum.  The searched cube has as
    radius r0 the smallest basis-vector sup-norm (a valid upper bound), and
    the witness is its first minimal vector in slab order.  m -> -m
    reverses the slab order of ``enumerate_cube`` and leaves 0 in the
    middle, so that vector lies in the first half of the points, which
    holds one of each pair +-m: only it is searched.  A rational lattice
    takes the first argmin of max |A m| on its integer columns A = den B;
    any other compares exactly by ``cmp_real``, and an exhausted
    comparison, a tie between distinct vectors, keeps the incumbent.
    """
    if lat._supnorm_min is None:
        scaled = lat.scaled_columns()
        rational = scaled is not None and scaled[0] == 0
        if rational:
            _, den, cols, _ = scaled
            r0 = Fraction(min(max(map(abs, col)) for col in cols), den)
        else:
            r0 = _rat_upper(min_real(*[max_real(*map(abs_real, col)) for col in lat.columns]))
        pts = enumerate_cube(lat, r0)
        half = len(pts) // 2
        if not half:
            raise ValidationError("no nonzero vector in the initial search cube")
        if rational:
            import numpy as np

            rows = pts.rows[:half]
            dtype = _int_dtype(cols, [int(np.abs(rows).max())])
            norms = np.abs(rows.astype(dtype) @ np.array(cols, dtype=dtype)).max(axis=1)
            i = int(np.argmin(norms))
            lat._supnorm_min = scaled_quad(int(norms[i]), 0, den, 0), tuple(rows[i].tolist())
        else:
            best = best_m = None
            for m in itertools.islice(pts, half):
                s = max_real(*map(abs_real, lat.point(m)))
                try:
                    if best is None or cmp_real(s, best, context="supnorm min") < 0:
                        best, best_m = s, m
                except PrecisionExhausted:  # a tie between distinct vectors
                    pass
            lat._supnorm_min = best, best_m
    return lat._supnorm_min


# ---------------------------------------------------------------------------
# counting bounds
#
# For an exact det whose square is rational and a rational c, each bound is
# one closed form on integers: with R = rn / rd, c = cn / cd and X = 1 / det,
# every branch is beta (1 + gamma Y) with rational beta, gamma and Y = X or
# sqrt(C(n, L)) X (``_affine``), and each threshold test is one exact sign.
# A ball det or c (the S-unit regulator and H_SK) takes the operator formulas.


def _exact_inputs(det_val, c):
    """((p, q, d, m), cn, cd): det = (p + q sqrt m) / d with p = 0 or q = 0,
    and c = cn / cd with cd > 0, when both are exact and nonzero and c is
    rational; None otherwise."""
    parts = [(x.p, x.q, x.d, x.m) if isinstance(x, QuadReal)
             else (x.numerator, 0, x.denominator, 0) if isinstance(x, (int, Fraction))
             else None for x in (det_val, c)]
    if None in parts:
        return None
    (p, q, d, m), (cn, cq, cd, _) = parts
    if (p and q) or not (p or q) or cq or not cn:
        return None
    return (p, q, d, m), cn, cd


def _inverse(det):
    """1 / det for det = (p, q, d, m): d (p - q sqrt m) / (p^2 - q^2 m)."""
    p, q, d, m = det
    return scaled_quad(d * p, -d * q, p * p - q * q * m, m)


def _affine(bn, bd, gn, gd, y):
    """beta (1 + gamma y) for beta = bn / bd, gamma = gn / gd and a QuadReal
    y, by one ``scaled_quad``."""
    return scaled_quad(bn * (gd * y.d + gn * y.p), bn * gn * y.q, bd * gd * y.d, y.m)


def bound_upper(n: int, big_l: int, det_val, c, radius, integral: bool = False) -> Real:
    """Upper bound for |Lambda cap C_n(R)|; min over applicable branches."""
    radius = Fraction(radius)
    exact = _exact_inputs(det_val, c)
    if exact is None:
        det_val, c, radius = to_real(det_val), to_real(c), to_real(radius)
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
    det, cn, cd = exact
    rn, rd = radius.numerator, radius.denominator
    x = _inverse(det)
    gn, gd = 2 * rn * cd + rd * cn, rd * cn  # 2R/c + 1
    if big_l == n:  # (2R/c + 1)^{n-1} (1 + 2 R c^{n-1} X)
        best = _affine(gn ** (n - 1), gd ** (n - 1), 2 * rn * cn ** (n - 1), rd * cd ** (n - 1), x)
    else:
        best = scaled_quad(gn ** (n - 1), 0, gd ** (n - 1), 0)
    if integral:  # (2R + 1)^{L-1} (1 + 2R sqrt(C(n, L)) X)
        alt = _affine((2 * rn + rd) ** (big_l - 1), rd ** (big_l - 1), 2 * rn, rd,
                      sqrt_real(math.comb(n, big_l)) * x)
        if cmp_real(alt, best) < 0:
            best = alt
    return best


def lower_bound_threshold(big_l: int, det_val, c) -> Real:
    """Smallest R for which the lower bound applies: (L/2) max{det/c^{L-1}, c}."""
    exact = _exact_inputs(det_val, c)
    if exact is None:
        det_val, c = to_real(det_val), to_real(c)
        return Fraction(big_l, 2) * max_real(det_val / c ** (big_l - 1), c)
    (p, q, d, m), cn, cd = exact
    e = big_l * cd ** (big_l - 1)  # t = (L/2) det / c^{L-1}
    t = scaled_quad(p * e, q * e, 2 * d * cn ** (big_l - 1), m)
    # t >= (L/2) c = L cn / (2 cd), on integers with t.d, cd > 0
    if quad_sign(2 * cd * t.p - big_l * cn * t.d, 2 * cd * t.q, t.m) >= 0:
        return t
    return scaled_quad(big_l * cn, 0, 2 * cd, 0)


def bound_lower(big_l: int, det_val, c, radius) -> Real:
    """Lower bound for |Lambda cap C_N(R)|; errors if R misses the threshold."""
    radius = Fraction(radius)
    exact = _exact_inputs(det_val, c)
    if exact is None:
        det_val, c, radius = to_real(det_val), to_real(c), to_real(radius)
        # R >= (L/2) max{det/c^{L-1}, c} exactly when neither factor is negative
        main = 2 * radius * c ** (big_l - 1) / (big_l * det_val) - 1
        growth = 2 * radius / (big_l * c) - 1
        for factor in (main, growth):
            if cmp_real(factor, 0, context="lower bound threshold") < 0:
                raise ValidationError("lower bound not applicable: R below threshold")
        return main * growth ** (big_l - 1)
    det, cn, cd = exact
    rn, rd = radius.numerator, radius.denominator
    x = _inverse(det)
    # main = 2 R c^{L-1} X / L - 1 = (mp + mq sqrt m) / md with md > 0
    kn, kd = 2 * rn * cn ** (big_l - 1), big_l * rd * cd ** (big_l - 1)
    mp, mq, md = kn * x.p - kd * x.d, kn * x.q, kd * x.d
    gn, gd = 2 * rn * cd - big_l * rd * cn, big_l * rd * cn  # growth = 2R / (L c) - 1
    if quad_sign(mp, mq, x.m) < 0 or gn * gd < 0:
        raise ValidationError("lower bound not applicable: R below threshold")
    power = big_l - 1
    return scaled_quad(mp * gn ** power, mq * gn ** power, md * gd ** power, x.m)


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
