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

A ``HeightValue`` compares only as a ``Rooted`` value (``as_rooted``),
against a rational or another height.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Sequence

from . import linalg
from .errors import ValidationError
from .intmat import image_index
from .nf import FracIdeal, NfElement, NumberField
from .reals import (
    ONE,
    Real,
    Rooted,
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
