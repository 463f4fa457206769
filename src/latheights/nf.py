"""Number fields: exact element arithmetic, integral bases, fractional ideals.

A field is specified by a monic irreducible integer minimal polynomial and a
caller-supplied integral basis (validated for ring closure, not computed).
Elements live in the power basis with rational coefficients.  The integral
basis and every ideal are held as an ``intmat.ZSpan``: integral-basis
coordinates are one integer matrix product with the basis inverse, and
ideal membership and equality reduce to Hermite Normal Form on those
coordinates, so no prime ideal factorization is ever required.

Archimedean embeddings are exposed as real coordinate channels: one channel
per real embedding, a (Re, Im) pair per complex-conjugate pair.  Fields of
degree <= 2 get exact quadratic-irrational channels in closed form,
c0 + c1*theta at the root theta; higher-degree totally real fields get
certified interval channels.  The integer multiplication table of the
integral basis, built at construction, is the regular representation: the
discriminant (``intmat.trace_det``) and every element's norm, trace and
inverse (``NfElement.mult_rows``) are read from it, as are the ideal norms
of heights and the S-unit valuations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from mpmath import iv

from .algreal import isolate_real_roots, poly_eval
from .errors import ValidationError
from .intmat import ZSpan, det, lattice_intersection, solve, table_rows, trace_det
from .reals import BallReal, QuadReal, Real, _quad, abs_real, sqrt_real, to_real


def _rational_roots(p: Sequence[int]) -> List[Fraction]:
    """All rational roots of an integer polynomial (rational root theorem)."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    low = 0
    while low < len(p) and p[low] == 0:
        low += 1
    roots = [Fraction(0)] if low > 0 else []
    p = p[low:]
    if len(p) <= 1:
        return roots
    a0, an = abs(p[0]), abs(p[-1])
    for num in _divisors(a0):
        for den in _divisors(an):
            for s in (1, -1):
                q = Fraction(s * num, den)
                if q not in roots and poly_eval(p, q) == 0:
                    roots.append(q)
    return roots


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
        k += 1
    return sorted(out)


def _check_irreducible(p: Sequence[int]) -> None:
    d = len(p) - 1
    if d == 1:
        return
    if _rational_roots(p):
        raise ValidationError("minimal polynomial has a rational root: %r" % (list(p),))
    if d == 4:
        # search for a monic quadratic factor x^2 + u x + v with small entries
        bound = 2**d * (1 + max(abs(c) for c in p))
        for v in _divisors(p[0]) + [-t for t in _divisors(p[0])]:
            if v == 0:
                continue
            for u in range(-bound, bound + 1):
                # synthetic reduction of p by x^2 + u x + v
                coeffs = [Fraction(c) for c in p]
                while len(coeffs) > 2:
                    lead = coeffs.pop()
                    coeffs[-1] -= lead * u
                    coeffs[-2] -= lead * v
                r0, r1 = coeffs[0], coeffs[1] if len(coeffs) > 1 else Fraction(0)
                if r0 == 0 and r1 == 0:
                    raise ValidationError(
                        "minimal polynomial is divisible by x^2 + %dx + %d" % (u, v)
                    )


class NumberField:
    """Number field Q[x]/(minpoly) with a validated integral basis."""

    def __init__(self, minpoly: Sequence[int], integral_basis: Sequence[Sequence]):
        minpoly = [int(c) for c in minpoly]
        if not minpoly or minpoly[-1] != 1:
            raise ValidationError("minimal polynomial must be monic with integer entries")
        d = len(minpoly) - 1
        if d < 1:
            raise ValidationError("degree must be at least 1")
        _check_irreducible(minpoly)
        self.minpoly: Tuple[int, ...] = tuple(minpoly)
        self.degree = d

        basis = [[Fraction(x) for x in row] for row in integral_basis]
        if len(basis) != d or any(len(row) != d for row in basis):
            raise ValidationError("integral basis must be a %dx%d rational matrix" % (d, d))
        self._span = ZSpan(basis, d)
        if self._span.rank != d:
            raise ValidationError("integral basis rows are linearly dependent")
        self.basis = basis

        # reduction table: power coordinates of theta^k for k = 0 .. 2d-2
        pw = [[Fraction(1 if i == k else 0) for i in range(d)] for k in range(d)]
        for k in range(d, 2 * d - 1):
            prev = pw[-1]
            shifted = [Fraction(0)] + list(prev)
            overflow = shifted.pop()
            row = [shifted[i] - overflow * minpoly[i] for i in range(d)]
            pw.append(row)
        self._powers = pw

        real_roots = isolate_real_roots(list(minpoly))
        r1 = len(real_roots)
        if (d - r1) % 2 != 0:
            raise ValidationError("inconsistent signature")
        self.signature = (r1, (d - r1) // 2)
        # descending root order so the positive root channel comes first
        self._real_roots = list(reversed(real_roots))
        self._real_channel_vals = None  # lazy
        self._complex_channel = None

        # table[k][i]: integral-basis coordinates of omega_k * omega_i
        els = self._elements = [NfElement(self, row) for row in basis]
        self.one_coords, m = self.scaled_coords(self.one())
        if m != 1:
            raise ValidationError("integral basis does not contain 1 in its Z-span")
        products = [[self.scaled_coords(wk * wi) for wi in els] for wk in els]
        if any(m != 1 for row in products for _, m in row):
            raise ValidationError("integral basis is not multiplicatively closed")
        self.mult_table = [[c for c, _ in row] for row in products]
        self.discriminant = trace_det(self.mult_table)
        if self.discriminant == 0:
            raise ValidationError("trace pairing determinant is zero")

    # -- element constructors ---------------------------------------------

    def element(self, coeffs) -> "NfElement":
        return NfElement(self, coeffs)

    def rational(self, q) -> "NfElement":
        return NfElement(self, [Fraction(q)] + [0] * (self.degree - 1))

    def gen(self) -> "NfElement":
        if self.degree == 1:
            return self.rational(Fraction(-self.minpoly[0]))
        return NfElement(self, [0, 1] + [0] * (self.degree - 2))

    def zero(self) -> "NfElement":
        return self.rational(0)

    def one(self) -> "NfElement":
        return self.rational(1)

    def basis_elements(self) -> List["NfElement"]:
        return list(self._elements)

    def from_int_coords(self, coords) -> "NfElement":
        coords = [Fraction(c) for c in coords]
        power = [
            sum((coords[j] * self.basis[j][i] for j in range(self.degree)), Fraction(0))
            for i in range(self.degree)
        ]
        return NfElement(self, power)

    # -- coordinates ------------------------------------------------------

    def int_coords(self, a: "NfElement") -> List[Fraction]:
        """Coordinates of a in the integral basis (rational in general)."""
        return self._span.coords(a.coeffs)

    def scaled_coords(self, a: "NfElement") -> Tuple[List[int], int]:
        """(c, m): m the least positive integer with m * a integral, and c
        the integral-basis coordinates of m * a."""
        return self._span.scaled_coords(a.coeffs)

    # -- embeddings -------------------------------------------------------

    def _channels(self):
        """(real channel values, complex channel or None)."""
        if self._real_channel_vals is None:
            d = self.degree
            vals = []
            for root in self._real_roots:
                if d <= 2:
                    vals.append(root.to_quad())
                else:
                    ball = root.to_ball()
                    vals.append(ball)
            self._real_channel_vals = vals
            r1, r2 = self.signature
            if r2 > 0:
                if d != 2:
                    raise ValidationError(
                        "complex embeddings are supported only for quadratic fields"
                    )
                c, b = Fraction(self.minpoly[0]), Fraction(self.minpoly[1])
                disc = b * b - 4 * c
                re = -b / 2
                im = sqrt_real(-disc) / 2
                self._complex_channel = (re, im)
        return self._real_channel_vals, self._complex_channel

    def channel_values(self, a: "NfElement") -> List[Real]:
        """d real coordinates: real embeddings first, then (Re, Im) pairs."""
        reals, cplx = self._channels()
        out: List[Real] = []
        for root_val in reals:
            out.append(_eval_at(a.coeffs, root_val))
        if cplx is not None:
            re0, im0 = cplx
            c0, c1 = a.coeffs[0], a.coeffs[1]
            out.append(to_real(c0 + c1 * re0))
            out.append(c1 * im0)
        return out

    def arch_places(self, a: "NfElement") -> List[Tuple[Real, int]]:
        """[(|a|_v, local degree d_v)] over the archimedean places."""
        reals, cplx = self._channels()
        out = []
        for root_val in reals:
            out.append((abs_real(_eval_at(a.coeffs, root_val)), 1))
        if cplx is not None:
            re0, im0 = cplx
            c0, c1 = a.coeffs[0], a.coeffs[1]
            re = to_real(c0 + c1 * re0)
            im = c1 * im0
            out.append((sqrt_real(re * re + im * im), 2))
        return out

    def __repr__(self):
        return "NumberField(minpoly=%r, signature=%r, disc=%d)" % (
            list(self.minpoly),
            self.signature,
            self.discriminant,
        )


def _eval_at(coeffs, val):
    """Rational power-basis coefficients at a root: exact (degree <= 2) or a ball."""
    if isinstance(val, QuadReal):
        c1 = coeffs[1] if len(coeffs) > 1 else 0
        return _quad(coeffs[0] + c1 * val.a, c1 * val.b, val.m)

    def fn(prec, coeffs=tuple(coeffs), val=val):
        old = iv.prec
        try:
            iv.prec = prec
            x = val.interval(prec)
            acc = iv.mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + iv.mpf(c.numerator) / c.denominator
            return acc
        finally:
            iv.prec = old

    return BallReal(fn)


class NfElement:
    """Element of a number field, coefficients in the power basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        self.field = field
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != field.degree:
            raise ValidationError(
                "expected %d coefficients, got %d" % (field.degree, len(cs))
            )
        self.coeffs = tuple(cs)

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "NfElement":
        if isinstance(other, NfElement):
            if other.field is not self.field:
                raise ValidationError("elements belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        raise TypeError("cannot coerce %r into the field" % (other,))

    def __add__(self, other):
        o = self._coerce(other)
        return NfElement(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NfElement(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return NfElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return NfElement(self.field, [q * a for a in self.coeffs])
        o = self._coerce(other)
        d = self.field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        out = [Fraction(0)] * d
        for k, c in enumerate(conv):
            if c:
                row = self.field._powers[k]
                for i in range(d):
                    out[i] += c * row[i]
        return NfElement(self.field, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return NfElement(self.field, [a / q for a in self.coeffs])
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, n: int) -> "NfElement":
        if n < 0:
            return self.inv() ** (-n)
        acc = self.field.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def mult_rows(self) -> Tuple[List[List[int]], int]:
        """(R, m) with (c, m) the field's ``scaled_coords`` of a: row i of R
        holds the integral-basis coordinates of m a omega_i."""
        c, m = self.field.scaled_coords(self)
        return table_rows(self.field.mult_table, c), m

    def inv(self) -> "NfElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        rows, m = self.mult_rows()
        # x = 1 / (m a) has coordinates with sum_i x_i R[i] = coordinates of 1
        x, q = solve([list(col) for col in zip(*rows)],
                     [[e] for e in self.field.one_coords])
        return self.field.from_int_coords([Fraction(m * v, q) for (v,) in x])

    def norm(self) -> Fraction:
        rows, m = self.mult_rows()
        return Fraction(det(rows), m ** self.field.degree)

    def trace(self) -> Fraction:
        rows, m = self.mult_rows()
        return Fraction(sum(row[i] for i, row in enumerate(rows)), m)

    def denominator(self) -> int:
        """Least positive integer m with m * a integral."""
        return self.field.scaled_coords(self)[1]

    def is_integral(self) -> bool:
        return self.field._span.contains(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if isinstance(other, NfElement):
            return self.field.minpoly == other.field.minpoly and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field.minpoly, self.coeffs))

    def __repr__(self):
        return "NfElement(%s)" % (list(self.coeffs),)


# ---------------------------------------------------------------------------
# fractional ideals


def zspan_basis(field: NumberField, elements: Sequence[NfElement]) -> List[NfElement]:
    """Reduce a Z-generating set of field elements to an independent basis."""
    span = ZSpan([field.int_coords(e) for e in elements], field.degree)
    return [field.from_int_coords(v) for v in span.basis()]


class FracIdeal:
    """Fractional ideal given by a Z-basis of d field elements."""

    def __init__(self, field: NumberField, z_basis: Sequence[NfElement], _validated=False):
        self.field = field
        basis = list(z_basis)
        if len(basis) != field.degree:
            raise ValidationError(
                "ideal Z-basis must have %d elements" % (field.degree,)
            )
        self.z_basis = basis
        span = self._span = ZSpan([field.int_coords(b) for b in basis], field.degree)
        if span.rank != field.degree:
            raise ValidationError("ideal Z-basis is rank deficient")
        # |det| of the basis: the HNF diagonal over den^d
        self._norm = Fraction(math.prod(row[c] for row, c in zip(span.hnf, span.pivots)),
                              span.den ** field.degree)
        if not _validated:
            for w in field.basis_elements():
                for b in basis:
                    if not self.contains(w * b):
                        raise ValidationError(
                            "Z-span is not closed under multiplication by the "
                            "integral basis; not a fractional ideal"
                        )

    @classmethod
    def unit(cls, field: NumberField) -> "FracIdeal":
        return cls(field, field.basis_elements(), _validated=True)

    @classmethod
    def principal(cls, field: NumberField, a: NfElement) -> "FracIdeal":
        if a.is_zero():
            raise ValidationError("principal ideal of zero")
        return cls(field, [a * w for w in field.basis_elements()], _validated=True)

    @classmethod
    def from_generators(cls, field: NumberField, gens: Sequence[NfElement]) -> "FracIdeal":
        """Ideal generated over O_K by the given elements."""
        elems = [g * w for g in gens for w in field.basis_elements()]
        basis = zspan_basis(field, elems)
        if len(basis) != field.degree:
            raise ValidationError("generators span a rank-deficient ideal")
        return cls(field, basis, _validated=True)

    def norm(self) -> Fraction:
        return self._norm

    def contains(self, a: NfElement) -> bool:
        return self._span.contains(self.field.int_coords(a))

    def __mul__(self, other: "FracIdeal") -> "FracIdeal":
        products = [b * c for b in self.z_basis for c in other.z_basis]
        basis = zspan_basis(self.field, products)
        return FracIdeal(self.field, basis, _validated=True)

    def intersect(self, other: "FracIdeal") -> "FracIdeal":
        inter = lattice_intersection(self._span.basis(), other._span.basis())
        basis = [self.field.from_int_coords(v) for v in inter]
        return FracIdeal(self.field, basis, _validated=True)

    def scale(self, a: NfElement) -> "FracIdeal":
        return FracIdeal(self.field, [a * b for b in self.z_basis], _validated=True)

    def _canonical(self):
        return self._span.den, tuple(map(tuple, self._span.hnf))

    def __eq__(self, other):
        return (
            isinstance(other, FracIdeal)
            and self.field.minpoly == other.field.minpoly
            and self._canonical() == other._canonical()
        )

    def __hash__(self):
        return hash((self.field.minpoly, self._canonical()))

    def __repr__(self):
        return "FracIdeal(norm=%s)" % (self._norm,)


def nf_new(minpoly, integral_basis) -> NumberField:
    return NumberField(minpoly, integral_basis)
