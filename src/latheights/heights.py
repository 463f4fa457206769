"""Height functions on vectors, matrices, and subspaces over a number field.

All heights are carried internally in k-th-power form: an exact rational
finite part together with an archimedean part that is exact (quadratic
fields) or a certified interval.  Sup-norm heights use k = d (the field
degree); Euclidean-at-infinity heights use k = 2d so that the channel sums
of squares stay exact.  Roots are taken only for display.

Finite parts are lattice indices on integers: the norm of the content ideal
of an integral vector is the index in Z^d of the rows omega_i * x_l, read
off the field's cached multiplication table (Cohen, GTM 138, 4.7), so no
ideal or field product is formed per point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence

from . import linalg
from .errors import ValidationError
from .intmat import image_index
from .nf import FracIdeal, NfElement, NumberField
from .reals import (
    ONE,
    Real,
    Rooted,
    cmp_real,
    max_real,
    to_real,
)


class HeightValue:
    """A height h carried as (h**power) = finite_pow * arch_pow."""

    __slots__ = ("power", "finite_pow", "arch_pow")

    def __init__(self, power: int, finite_pow: Fraction, arch_pow: Real):
        self.power = power
        self.finite_pow = Fraction(finite_pow)
        self.arch_pow = to_real(arch_pow)

    def value_pow(self) -> Real:
        return self.arch_pow * self.finite_pow

    def as_rooted(self) -> Rooted:
        return Rooted(self.value_pow(), self.power)

    def cmp(self, threshold, context="height threshold") -> int:
        """Exact-or-certified three-way comparison against a rational."""
        t = Fraction(threshold)
        if t < 0:
            return 1
        return cmp_real(self.value_pow(), t**self.power, context)

    def cmp_height(self, other: "HeightValue", context="height compare") -> int:
        return self.as_rooted().cmp(other.as_rooted(), context)

    def __float__(self):
        return float(self.as_rooted())

    def __repr__(self):
        return "HeightValue(%r^(1/%d))" % (self.value_pow(), self.power)


# ---------------------------------------------------------------------------
# helpers


def clear_denominators(x: Sequence[NfElement]) -> List[NfElement]:
    """Scale a K-vector to an integral vector by the lcm of denominators."""
    m = math.lcm(*[xi.denominator() for xi in x])
    return [xi * m for xi in x]


def content_ideal(field: NumberField, x: Sequence[NfElement]) -> FracIdeal:
    """The O_K-ideal generated by the coordinates."""
    gens = [xi for xi in x if not xi.is_zero()]
    if not gens:
        raise ValidationError("content ideal of the zero vector")
    return FracIdeal.from_generators(field, gens)


def _int_coords(field: NumberField, xi: NfElement, what="coordinate") -> List[int]:
    """Integral-basis coordinates of an integral xi."""
    c, m = field.scaled_coords(xi)
    if m != 1:
        raise ValidationError("%s is not integral" % what)
    return c


def _arch_abs_table(field: NumberField, x: Sequence[NfElement]):
    """per-place list of (abs values of coordinates, local degree d_v)."""
    per_elem = [field.arch_places(xi) for xi in x]
    nplaces = len(per_elem[0])
    table = []
    for v in range(nplaces):
        vals = [per_elem[i][v][0] for i in range(len(x))]
        dv = per_elem[0][v][1]
        table.append((vals, dv))
    return table


def _prod(vals) -> Real:
    acc = None
    for v in vals:
        acc = v if acc is None else acc * v
    return ONE if acc is None else acc


# ---------------------------------------------------------------------------
# heights


def height_H(field: NumberField, x: Sequence[NfElement]) -> HeightValue:
    """Projective sup-norm height, in d-th-power form."""
    if all(xi.is_zero() for xi in x):
        raise ValidationError("height of the zero vector")
    y = clear_denominators(x)
    d = field.degree
    # a coordinate 1 generates O_K: the finite part of h(x) = H(1, x) is 1
    # for integral x, with no index to compute
    fin = Fraction(1) if y[0] == field.one() else hfin_integral(field, y)
    arch = _prod(
        max_real(*vals) ** dv for vals, dv in _arch_abs_table(field, y)
    )
    return HeightValue(d, fin, arch)


def height_h(field: NumberField, x: Sequence[NfElement]) -> HeightValue:
    """Inhomogeneous height h(x) = H(1, x); h(0) = 1."""
    return height_H(field, [field.one()] + list(x))


def height_H2(field: NumberField, x: Sequence[NfElement]) -> HeightValue:
    """Euclidean-at-infinity height, in 2d-th-power form."""
    if all(xi.is_zero() for xi in x):
        raise ValidationError("height of the zero vector")
    y = clear_denominators(x)
    d = field.degree
    fin = hfin_integral(field, y) ** 2
    arch = _prod(
        sum((v * v for v in vals[1:]), vals[0] * vals[0]) ** dv
        for vals, dv in _arch_abs_table(field, y)
    )
    return HeightValue(2 * d, fin, arch)


def grassmann(field: NumberField, cols: Sequence[Sequence[NfElement]]) -> List[NfElement]:
    """All maximal minors of the N x L matrix with the given columns.

    Ordered by lexicographic row index sets; length binom(N, L).
    """
    big_l = len(cols)
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValidationError("ragged columns")
    out = []
    for rows in itertools.combinations(range(n), big_l):
        sub = [[cols[j][i] for j in range(big_l)] for i in rows]
        out.append(linalg.det(sub))
    if all(g.is_zero() for g in out):
        raise ValidationError("matrix is rank deficient")
    return out


def subspace_height(field: NumberField, cols: Sequence[Sequence[NfElement]]) -> HeightValue:
    """Height of the column span; basis-independent."""
    return height_H2(field, grassmann(field, cols))


def hfin_integral(field: NumberField, x: Sequence[NfElement]) -> Fraction:
    """Exact d-th power of the finite height of an integral vector.

    That is 1 / N(content ideal) = 1 / [O_K : sum O_K x_l], the index of
    the image of x as a 1 x N matrix.
    """
    coords = [_int_coords(field, xi) for xi in x if not xi.is_zero()]
    if not coords:
        raise ValidationError("content ideal of the zero vector")
    return Fraction(1, image_index(field.mult_table, [coords]))


def hfin_matrix(field: NumberField, rows: Sequence[Sequence[NfElement]]) -> Fraction:
    """Exact d-th power of the finite height of an integral matrix map.

    The matrix (M rows, N columns, integral entries) is viewed as a
    surjection O_K^N -> O_K^M; returns the inverse of the index of its
    image.
    """
    coords = [[_int_coords(field, e, "matrix entry") for e in row] for row in rows]
    idx = image_index(field.mult_table, coords)
    if idx is None:
        raise ValidationError("matrix map is rank deficient")
    return Fraction(1, idx)


def form_height(field: NumberField, b: Sequence[Sequence[NfElement]]) -> HeightValue:
    """Height of a symmetric matrix, flattened as a vector of length N^2."""
    n = len(b)
    for i in range(n):
        if len(b[i]) != n:
            raise ValidationError("matrix is not square")
        for j in range(n):
            if not (b[i][j] - b[j][i]).is_zero():
                raise ValidationError("matrix is not symmetric")
    flat = [b[i][j] for i in range(n) for j in range(n)]
    return height_H(field, flat)


# ---------------------------------------------------------------------------
# integral scaling realizing H(x) = h(ax)


def principal_generator(ideal: FracIdeal, box: int = 8) -> Optional[NfElement]:
    """Search for a generator of a fractional ideal; None if not found.

    Tries integral-basis coordinate combinations of the Z-basis with
    coefficients in [-box, box] and accepts the first g in the ideal with
    |N(g)| equal to the ideal norm.
    """
    field = ideal.field
    d = field.degree
    target = ideal.norm()
    for coords in itertools.product(range(-box, box + 1), repeat=d):
        if all(c == 0 for c in coords):
            continue
        g = None
        for c, b in zip(coords, ideal.z_basis):
            if c:
                term = b * c
                g = term if g is None else g + term
        if abs(g.norm()) == target:
            for c in field.int_coords(g):
                if c:
                    return g if c > 0 else -g
    return None


def find_unit(field: NumberField, box: int = 200) -> Optional[NfElement]:
    """A unit u > 1 (both real channels nontrivial) of a real quadratic field.

    Minimal-coefficient search; returns None for fields with no such unit
    (Q, imaginary quadratic) or when the search box is exhausted.
    """
    if field.degree != 2 or field.signature != (2, 0):
        return None
    for t in range(1, box + 1):
        hits = []
        for a in range(-t, t + 1):
            for b in range(-t, t + 1):
                if max(abs(a), abs(b)) != t:
                    continue
                u = field.from_int_coords([a, b])
                if abs(u.norm()) == 1 and not u.is_rational():
                    hits.append(u)
        best = None
        for u in hits:
            v0 = field.channel_values(u)[0]
            if cmp_real(v0, 1) > 0:
                if best is None or cmp_real(v0, field.channel_values(best)[0]) < 0:
                    best = u
        if best is not None:
            return best
    return None


def find_integral_scaling(field: NumberField, x: Sequence[NfElement]):
    """Scalar a with ax integral, trivial content, and H(x) = h(ax).

    Returns (a, ax).  Requires the content ideal to be principal; searches
    unit adjustments u^e for e in [-16, 16] so that every archimedean
    sup-norm of ax is at least 1.
    """
    if all(xi.is_zero() for xi in x):
        raise ValidationError("cannot scale the zero vector")
    ideal = content_ideal(field, x)
    g = principal_generator(ideal)
    if g is None:
        raise ValidationError(
            "content ideal has no principal generator in the search box "
            "(unsupported ideal class)"
        )
    a0 = g.inv()
    unit = find_unit(field)
    candidates = [field.one()]
    if unit is not None:
        pw = field.one()
        pows = []
        for _ in range(16):
            pw = pw * unit
            pows.append(pw)
        candidates = pows[::-1] + [field.one()] + [p.inv() for p in pows]
    for u in candidates:
        a = a0 * u
        y = [a * xi for xi in x]
        ok = True
        for vals, _dv in _arch_abs_table(field, y):
            if cmp_real(max_real(*vals), 1) < 0:
                ok = False
                break
        if ok:
            hx = height_H(field, x)
            hy = height_h(field, y)
            if hx.cmp_height(hy) != 0:
                raise ValidationError("scaling verification failed")
            return a, y
    raise ValidationError("unit-adjustment search exhausted without success")
