"""Lattices in R^n: exact cube enumeration and sup-norm counting bounds.

A lattice is held by a basis matrix with exact (rational or quadratic
irrational) or certified-interval entries.  Membership of a point in a
closed cube is decided exactly; undecidable boundary ties raise rather than
mis-count.  The enumeration is the ground-truth oracle that every counting
bound in this library is checked against.

Every walk of a coefficient box goes through one kernel, ``_box_slabs``: it
checks the box against ENUM_BUDGET, fixes the first longest axis slab by
slab, and hands each slab's values B m to the caller's test.  The callers
keep only that test: the exact integer test for rational lattices, a float
screen for all others, and the per-channel height product in
``bounds._fast_count_totally_real``.  The float screen's safety band is
decided on the scaled integer columns when all entries lie in one Q(sqrt m),
and by the certified re-check ``_certified_in_cube`` only for balls.

The box caps are the radius times the l1 row norms of G^{-1} B^T, from one
Gauss-Jordan solve per lattice (cached): over Q on the integer Gram matrix
of the scaled columns when that Gram matrix is rational, over the entries'
own type (quadratic irrationals or balls) otherwise.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import List, Sequence, Tuple

from mpmath import mpf

from . import linalg
from .errors import BudgetExceeded, PrecisionExhausted, ValidationError
from .reals import (
    PRECISION,
    QuadReal,
    Real,
    abs_real,
    cmp_real,
    min_real,
    max_real,
    quad_sign,
    real_to_float,
    sqrt_real,
    to_real,
)

ENUM_BUDGET = 30_000_000  # max candidate coefficient vectors per enumeration


def _frac_from_mpf(x) -> Fraction:
    """Exact rational value of a finite mpmath float or interval endpoint."""
    if hasattr(x, "_mpi_"):
        # interval endpoint: take the exact upper bound, not a rounded midpoint
        data = x._mpi_[1]
    else:
        data = mpf(x)._mpf_
    sign, man, exp, _ = data
    if not isinstance(exp, int):
        raise ValidationError("non-finite value in rational conversion")
    val = Fraction(int(man)) * Fraction(2) ** exp
    return -val if sign else val


def _rat_upper(x: Real) -> Fraction:
    """An exact rational upper bound for a Real."""
    x = to_real(x)
    if isinstance(x, QuadReal) and x.is_rational:
        return x.as_fraction()
    return _frac_from_mpf(x.interval(PRECISION.start).b)


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
        self._supnorm_min = None
        self._box_norms = None
        self._scaled = False  # not computed yet; None means no export

    @classmethod
    def from_rows(cls, rows) -> "RealLattice":
        return cls(list(map(list, zip(*rows))))

    def gram(self):
        if self._gram is None:
            big_l = self.rank
            self._gram = [
                [
                    sum(
                        (self.columns[i][t] * self.columns[j][t] for t in range(1, self.ambient_dim)),
                        self.columns[i][0] * self.columns[j][0],
                    )
                    for j in range(big_l)
                ]
                for i in range(big_l)
            ]
        return self._gram

    def det_value(self) -> Real:
        """det(Lambda) = sqrt(det(B^T B)), exact when the Gram det is rational."""
        g = linalg.det(self.gram())
        return sqrt_real(g)

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
            den = math.lcm(*(d for e in ents for d in (e.a.denominator, e.b.denominator)))
            self._scaled = (max(roots, default=0), den,
                            [[int(e.a * den) for e in col] for col in self.columns],
                            [[int(e.b * den) for e in col] for col in self.columns])
        return self._scaled

    def __repr__(self):
        return "RealLattice(N=%d, L=%d)" % (self.ambient_dim, self.rank)


def _coefficient_box(lat: RealLattice, radius: Fraction) -> List[int]:
    """Per-coordinate caps M_i with |m_i| <= M_i for all points in the cube."""
    if lat._box_norms is None:
        lat._box_norms = _pinv_row_norms(lat)
    return [max(0, math.floor(_rat_upper(s * radius))) for s in lat._box_norms]


def _pinv_row_norms(lat: RealLattice) -> List[Real]:
    """l1 norms of the rows of the pseudo-inverse G^{-1} B^T (m = pinv @ x).

    One Gauss-Jordan solve G X = B^T.  When all entries lie in one Q(sqrt r)
    and the Gram matrix is rational (always for rational entries), B is
    (A + B' sqrt r) / den with integers A, B' and G = G_int / den^2, so the
    solve runs over Q on G_int with right-hand side [A^T | B'^T] and the
    pseudo-inverse is den X.
    """
    gram, rhs, scaled = None, lat.columns, lat.scaled_columns()
    if scaled is not None:
        root, den, a_cols, b_cols = scaled

        def dot(x, y):
            return sum(map(operator.mul, x, y))

        pairs = list(zip(a_cols, b_cols))
        if all(dot(a, y) == -dot(x, b) for i, (a, b) in enumerate(pairs) for x, y in pairs[: i + 1]):
            gram = [[Fraction(dot(a, x) + root * dot(b, y)) for x, y in pairs] for a, b in pairs]
            rhs = [a + b for a, b in pairs]
    rows = linalg.solve(lat.gram() if gram is None else gram, rhs)
    if rows is None:
        raise ValidationError("basis columns are linearly dependent")
    if gram is None:
        return [sum(map(abs_real, row[1:]), abs_real(row[0])) for row in rows]
    out, n = [], lat.ambient_dim
    for xs, ys in ((row[:n], row[n:]) for row in rows):
        signs = [quad_sign(x, y, root) for x, y in zip(xs, ys)]
        out.append(QuadReal(den * sum(map(operator.mul, signs, xs)),
                            den * sum(map(operator.mul, signs, ys)), root))
    return out


def enumerate_cube(lat: RealLattice, radius) -> List[Tuple[int, ...]]:
    """All integer coefficient vectors m with |B m|_inf <= radius (closed).

    Exact boundary decisions; raises BudgetExceeded when the candidate box
    is larger than ENUM_BUDGET.  Points come slab by slab: the first longest
    coefficient axis is outermost, and every axis ascends.
    """
    radius = Fraction(radius)
    if radius < 0:
        return []
    caps = _coefficient_box(lat, radius)
    scaled = lat.scaled_columns()
    if scaled is not None and scaled[0] == 0:
        return _enumerate_rational(scaled, radius, caps)
    return _enumerate_generic(lat, radius, caps)


def _box_slabs(caps: Sequence[int], mats, dtype="int64"):
    """Walk the coefficient box |m_j| <= caps[j] one slab at a time.

    Each of ``mats`` is a lattice given as L columns of n entries, read as
    an n x L array of ``dtype``.  The walk yields ``(vals, point)`` per
    slab: ``vals[k]`` holds ``mats[k] @ m`` for every m of the slab, one row
    each, and ``point(i)`` is the m of row i as a tuple.  The slabs fix the
    first longest axis, outermost and ascending; inside a slab the other
    axes run lexicographically.  Coefficients are int64, or Python ints when
    ``dtype`` is object.  The budget is checked on the call, before any
    array is built.  numpy is imported on first use, so that importing the
    package stays cheap.
    """
    total = math.prod(2 * c + 1 for c in caps)
    if total > ENUM_BUDGET:
        raise BudgetExceeded(
            "enumeration box has %d candidates (budget %d)" % (total, ENUM_BUDGET)
        )
    return _slabs(caps, mats, dtype)


def _slabs(caps, mats, dtype):
    import numpy as np

    coeff = object if dtype is object else np.int64
    big_l = len(caps)
    axis = max(range(big_l), key=lambda j: caps[j])
    rest_axes = [j for j in range(big_l) if j != axis]
    ranges = [np.arange(-caps[j], caps[j] + 1, dtype=coeff) for j in rest_axes]
    if ranges:
        grids = np.meshgrid(*ranges, indexing="ij")
        rest = np.stack([g.ravel() for g in grids], axis=1)
    else:
        rest = np.zeros((1, 0), dtype=coeff)
    arrays = [np.array(m, dtype=dtype).T for m in mats]
    rest_vals = [rest @ a[:, rest_axes].T for a in arrays]  # (#rest, n) each
    axis_cols = [a[:, axis] for a in arrays]
    for m0 in range(-caps[axis], caps[axis] + 1):

        def point(i, m0=m0):
            m = rest[i].tolist()
            m.insert(axis, m0)
            return tuple(m)

        yield [rv + m0 * c for rv, c in zip(rest_vals, axis_cols)], point


def _enumerate_rational(scaled, radius, caps):
    import numpy as np

    _, den, cols, _ = scaled
    bound = radius * den  # |sum m_j c_j| <= bound, integer lhs vs rational rhs
    bn, bd = bound.numerator, bound.denominator
    maxentry = max(abs(x) for col in cols for x in col) or 1
    # int64 overflow guard for the matrix product and boundary test
    fits = maxentry * (max(caps) + 1) * len(cols) * bd < 2**62 and bn < 2**62
    out = []
    for (vals,), point in _box_slabs(caps, [cols], "int64" if fits else object):
        keep = (np.abs(vals) * bd <= bn).all(axis=1)
        out.extend(point(i) for i in np.nonzero(keep)[0])
    return out


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


def _quad_abs_le(x, y, m, p, q) -> bool:
    """|x + y sqrt(m)| * q <= p for integers x, y, p, q, decided exactly."""
    return quad_sign(p - q * x, -q * y, m) >= 0 and quad_sign(p + q * x, q * y, m) >= 0


def _enumerate_generic(lat, radius, caps):
    import numpy as np

    scaled = lat.scaled_columns()
    if scaled is None:
        floats = [[real_to_float(e) for e in col] for col in lat.columns]
    else:  # one field Q(sqrt r): floats and the exact band test from the integers
        root, den, a_cols, b_cols = scaled
        p, q = (radius * den).numerator, (radius * den).denominator
        rows = list(zip(zip(*a_cols), zip(*b_cols)))
        floats = [[_quad_float(a, b, root) / den for a, b in zip(*c)] for c in zip(a_cols, b_cols)]

    def in_band(m):
        if scaled is None:
            return _certified_in_cube(lat, m, radius)
        return all(
            _quad_abs_le(sum(map(operator.mul, m, a)), sum(map(operator.mul, m, b)), root, p, q)
            for a, b in rows
        )

    cols = np.array(floats, dtype=np.float64)
    # float screen: exact decision only inside a safety band around the
    # boundary, wide enough to absorb all rounding error
    mags = np.abs(cols.T) @ np.array([c + 1 for c in caps], dtype=np.float64)
    tol = max(1.0, float(mags.max())) * 1e-9
    rad = float(radius)
    lo, hi = rad - tol, rad + tol
    out = []
    for (vals,), point in _box_slabs(caps, [cols], "float64"):
        mx = np.abs(vals).max(axis=1)
        for i in np.nonzero(mx <= hi)[0]:
            m = point(i)
            if mx[i] <= lo or in_band(m):
                out.append(m)
    return out


def supnorm_min(lat: RealLattice):
    """(c, witness coefficients): minimal sup-norm over nonzero vectors.

    Certified: every nonzero lattice vector outside the searched cube has
    sup-norm exceeding the returned minimum.
    """
    if lat._supnorm_min is not None:
        return lat._supnorm_min
    # initial radius: the smallest basis-vector sup-norm (a valid upper bound)
    r0 = None
    for j in range(lat.rank):
        s = max_real(*[abs_real(lat.columns[j][i]) for i in range(lat.ambient_dim)])
        r0 = s if r0 is None else min_real(r0, s)
    radius = _rat_upper(r0)
    pts = enumerate_cube(lat, radius)
    best = None
    best_m = None
    for m in pts:
        if all(x == 0 for x in m):
            continue
        s = max_real(*[abs_real(v) for v in lat.point(m)])
        if best is None:
            best, best_m = s, m
            continue
        try:
            smaller = cmp_real(s, best, context="supnorm min") < 0
        except PrecisionExhausted:
            # undecidable means equal to within the cap: keep the incumbent
            smaller = False
        if smaller:
            best, best_m = s, m
    if best is None:
        raise ValidationError("no nonzero vector in the initial search cube")
    lat._supnorm_min = (best, best_m)
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
    thresh = lower_bound_threshold(big_l, det_val, c)
    if cmp_real(radius, thresh, context="lower bound threshold") < 0:
        raise ValidationError("lower bound not applicable: R below threshold")
    return (2 * radius * c ** (big_l - 1) / (big_l * det_val) - 1) * (
        2 * radius / (big_l * c) - 1
    ) ** (big_l - 1)


def max_grassmann_sublattice(lat: RealLattice):
    """(Omega, det Omega): full-rank projection onto the maximizing L rows."""
    big_l = lat.rank
    best = None
    best_rows = None
    for rows in itertools.combinations(range(lat.ambient_dim), big_l):
        sub = [[lat.columns[j][i] for j in range(big_l)] for i in rows]
        d = abs_real(linalg.det(sub))
        if best is None or cmp_real(d, best, context="grassmann max") > 0:
            best, best_rows = d, rows
    if best is None or cmp_real(best, 0) == 0:
        raise ValidationError("lattice basis is rank deficient")
    omega = RealLattice(
        [[lat.columns[j][i] for i in best_rows] for j in range(big_l)]
    )
    return omega, best
