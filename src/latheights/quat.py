"""Positive-definite quaternion algebras over totally real number fields.

D = (alpha, beta / K) with alpha, beta integral and totally negative.
Provides exact element arithmetic, orders with Z-bases, the archimedean
and finite heights, right D-subspaces with both basis and constraint
matrices, and the hermitian-to-quadratic trace form.  Reduced norms of
matrices over D, det rho(A) = Nrd(A) for the splitting map rho, are
computed by the one elimination loop ``linalg.row_echelon``, whose left
row operations work over D as over a field: the product of the pivots'
reduced norms (``nrd``).  Right kernels of matrices over D, with unknowns
multiplied from the right, come from ``linalg.kernel_basis``.

An order holds its Z-basis as an ``intmat.ZSpan`` of the elements'
flattened power-basis coordinates.  A quaternion reaches it as the integer
numerators of its four components over their common denominator
(``modules._flatten_power_coords``), so membership reduces those integers
against the HNF, and coordinates (``scaled_coords``) are one integer
product with the basis inverse, with no Fraction formed.  Its integer
multiplication tables are built at construction.  The finite heights read
each element's integer coordinates once (``scaled_coords``) and form every
product with a basis element from those tables, and N(Delta_O) is read
from the determinant of their regular trace pairing (``intmat.trace_det``).
One helper, ``finite_factor``, gives the finite factor of h(y/m) from the
order coordinates of y, for ``height_h_order`` and for the count oracle
``bounds.exact_count_d``, which sweeps y on O^N's own Z-basis
(``order_module``).

Heights are carried in 2d-th or 4d-th power form so that threshold
comparisons stay exact for quadratic base fields.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import ValidationError
from .intmat import ZSpan, _scale_to_ints, image_index, kernel, rational_to_scaled, trace_det
from .modules import OkModule, _flatten_power_coords, minima_ck_zk, z_combination
from .nf import NfElement, NumberField
from .reals import Real, Rooted, abs_real, cmp_real, max_real, min_real


class QuatAlgebra:
    """D = (alpha, beta / K), positive definite."""

    def __init__(self, field: NumberField, alpha: NfElement, beta: NfElement):
        if field.signature[1] != 0:
            raise ValidationError("base field must be totally real")
        for name, val in (("alpha", alpha), ("beta", beta)):
            if not val.is_integral():
                raise ValidationError("%s must be integral" % name)
            for ch in field.channel_values(val):
                if cmp_real(ch, 0, context="total negativity") >= 0:
                    raise ValidationError("%s must be totally negative" % name)
        self.field = field
        self.alpha = alpha
        self.beta = beta

    def element(self, c0, c1=None, c2=None, c3=None) -> "QuatElement":
        zero = self.field.zero()
        comps = [c0, c1 or zero, c2 or zero, c3 or zero]
        comps = [
            self.field.rational(c) if isinstance(c, (int, Fraction)) else c
            for c in comps
        ]
        return QuatElement(self, comps)

    def zero(self) -> "QuatElement":
        return self.element(0)

    def one(self) -> "QuatElement":
        return self.element(1)

    def i(self) -> "QuatElement":
        return self.element(0, self.field.one())

    def j(self) -> "QuatElement":
        return self.element(0, None, self.field.one())

    def k(self) -> "QuatElement":
        return self.element(0, None, None, self.field.one())

    def from_bracket(self, coords: Sequence[NfElement]) -> "QuatElement":
        return QuatElement(self, list(coords))

    def __repr__(self):
        return "QuatAlgebra(alpha=%r, beta=%r)" % (
            list(self.alpha.coeffs),
            list(self.beta.coeffs),
        )


class QuatElement:
    """x = x(0) + x(1) i + x(2) j + x(3) k with components in K."""

    __slots__ = ("algebra", "c")

    def __init__(self, algebra: QuatAlgebra, comps: Sequence[NfElement]):
        if len(comps) != 4:
            raise ValidationError("quaternion needs 4 components")
        self.algebra = algebra
        self.c = tuple(comps)

    def _coerce(self, other) -> "QuatElement":
        if isinstance(other, QuatElement):
            return other
        if isinstance(other, NfElement):
            return self.algebra.element(other)
        if isinstance(other, (int, Fraction)):
            return self.algebra.element(other)
        raise TypeError("cannot coerce %r" % (other,))

    def __add__(self, other):
        o = self._coerce(other)
        return QuatElement(self.algebra, [a + b for a, b in zip(self.c, o.c)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return QuatElement(self.algebra, [a - b for a, b in zip(self.c, o.c)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return QuatElement(self.algebra, [-a for a in self.c])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, NfElement)):
            return QuatElement(self.algebra, [a * other for a in self.c])
        o = self._coerce(other)
        al, be = self.algebra.alpha, self.algebra.beta
        x0, x1, x2, x3 = self.c
        y0, y1, y2, y3 = o.c
        return QuatElement(
            self.algebra,
            [
                x0 * y0 + al * (x1 * y1) + be * (x2 * y2) - al * be * (x3 * y3),
                x0 * y1 + x1 * y0 - be * (x2 * y3) + be * (x3 * y2),
                x0 * y2 + x2 * y0 + al * (x1 * y3) - al * (x3 * y1),
                x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
            ],
        )

    def __rmul__(self, other):
        # scalars are central; quaternion-quaternion handled by __mul__
        if isinstance(other, (int, Fraction, NfElement)):
            return self * other
        return self._coerce(other) * self

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, NfElement)):
            return QuatElement(self.algebra, [a / other for a in self.c])
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        # other is a scalar, hence central
        return self.inv() * other

    def conj(self) -> "QuatElement":
        return QuatElement(self.algebra, [self.c[0], -self.c[1], -self.c[2], -self.c[3]])

    def trace(self) -> NfElement:
        return self.c[0] * 2

    def nrm(self) -> NfElement:
        al, be = self.algebra.alpha, self.algebra.beta
        x0, x1, x2, x3 = self.c
        return x0 * x0 - al * (x1 * x1) - be * (x2 * x2) + al * be * (x3 * x3)

    def inv(self) -> "QuatElement":
        n = self.nrm()
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero quaternion")
        n_inv = n.inv()
        return QuatElement(self.algebra, [x * n_inv for x in self.conj().c])

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, NfElement)):
            return self.c[0] == other and all(x.is_zero() for x in self.c[1:])
        if isinstance(other, QuatElement):
            return all((a - b).is_zero() for a, b in zip(self.c, other.c))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.c))

    def __repr__(self):
        return "QuatElement(%r)" % (list(self.c),)


# ---------------------------------------------------------------------------
# archimedean absolute values and the s/t constants


def s_t_constants(algebra: QuatAlgebra):
    """(s, t, per-channel s_v^2 list, per-channel t_v^2 list).

    s and t are Rooted square roots of exact channel products.
    """
    field = algebra.field
    a_ch = field.channel_values(algebra.alpha)
    b_ch = field.channel_values(algebra.beta)
    s_sq_list, t_sq_list = [], []
    for av, bv in zip(a_ch, b_ch):
        aa, bb = abs_real(av), abs_real(bv)
        ab = abs_real(av * bv)
        s_sq_list.append(max_real(1, aa, bb, ab))
        t_sq_list.append(min_real(1, aa, bb, ab))
    s_sq = s_sq_list[0]
    t_sq = t_sq_list[0]
    for v in s_sq_list[1:]:
        s_sq = s_sq * v
    for v in t_sq_list[1:]:
        t_sq = t_sq * v
    return Rooted(s_sq, 2), Rooted(t_sq, 2), s_sq_list, t_sq_list


# ---------------------------------------------------------------------------
# bracket coordinates


def bracket(xs: Sequence[QuatElement]) -> List[NfElement]:
    out: List[NfElement] = []
    for x in xs:
        out.extend(x.c)
    return out


def bracket_inv(algebra: QuatAlgebra, coords: Sequence[NfElement]) -> List[QuatElement]:
    if len(coords) % 4 != 0:
        raise ValidationError("coordinate vector length must be a multiple of 4")
    return [
        algebra.from_bracket(coords[4 * i : 4 * i + 4]) for i in range(len(coords) // 4)
    ]


# ---------------------------------------------------------------------------
# orders


class QuatOrder:
    """Order in D given by a Z-basis e_0, ..., e_{4d-1}, containing O_K.

    ``left_table[k][i]`` and ``right_table[k][i]`` hold the integer
    coordinates of e_i e_k and e_k e_i: for x with coordinates c, the rows
    of sum_k c_k table[k] are those of e_i x and of x e_i.
    """

    def __init__(self, algebra: QuatAlgebra, z_basis: Sequence[QuatElement]):
        self.algebra = algebra
        field = algebra.field
        d = field.degree
        basis = list(z_basis)
        if len(basis) != 4 * d:
            raise ValidationError("order Z-basis must have 4d elements")
        self.z_basis = basis
        self._span = ZSpan.from_scaled([self._flatten(x) for x in basis], 4 * d)
        if self._span.rank != 4 * d:
            raise ValidationError("order Z-basis is rank deficient")
        m, (self.one_coords,) = self.scaled_coords([algebra.one()])
        if m != 1:
            raise ValidationError("order does not contain 1")
        if not all(self.contains(algebra.element(w)) for w in field.basis_elements()):
            raise ValidationError("order does not contain O_K")
        products = [self.scaled_coords([ei * ek for ei in basis]) for ek in basis]
        if any(m != 1 for m, _ in products):
            raise ValidationError("order Z-basis is not closed under products")
        self.left_table = [rows for _, rows in products]
        self.right_table = [list(rows) for rows in zip(*self.left_table)]
        # the regular trace is 2 Tr_{K/Q} trd, and disc_Z(O) = N(Delta_O) D_K^4
        self._disc_norm = abs(trace_det(self.left_table)) // (
            2 ** (4 * d) * field.discriminant ** 4)

    def _flatten(self, x: QuatElement) -> Tuple[List[int], int]:
        return _flatten_power_coords(self.algebra.field, x.c)

    def contains(self, x: QuatElement) -> bool:
        return self._span.contains_int(*self._flatten(x))

    def scaled_coords(self, xs: Sequence[QuatElement]) -> Tuple[int, List[List[int]]]:
        """(m, rows): m the least positive integer with every m x in the
        order, and the integer coordinates of each m x."""
        scaled = [self._span.scaled_coords_int(*self._flatten(x)) for x in xs]
        m = math.lcm(*[e for _, e in scaled])
        return m, [cs if e == m else [c * (m // e) for c in cs] for cs, e in scaled]

    @classmethod
    def ok_span(cls, algebra: QuatAlgebra, gens: Sequence[QuatElement]) -> "QuatOrder":
        """The order O_K q_0 + ... + O_K q_3 spanned over O_K by four quaternions."""
        return cls(algebra, [q * w for q in gens for w in algebra.field.basis_elements()])

    @classmethod
    def special(cls, algebra: QuatAlgebra) -> "QuatOrder":
        """O_K + O_K i + O_K j + O_K k."""
        return cls.ok_span(algebra, [algebra.one(), algebra.i(), algebra.j(), algebra.k()])

    def discriminant_norm(self) -> int:
        """N(Delta_O): norm of the discriminant ideal of the order."""
        return self._disc_norm

    def __repr__(self):
        return "QuatOrder(4d=%d)" % (len(self.z_basis),)


def order_constants(order: QuatOrder):
    """(N(Delta_O), M(O)) with M(O) = max{N(Delta)^{1/2}/N(4ab), N(4ab)/N(Delta)^{1/2}}."""
    alg = order.algebra
    nd = order.discriminant_norm()
    n4ab = abs((alg.alpha * alg.beta * 4).norm())
    m_sq = max(nd / n4ab**2, Fraction(n4ab**2) / nd)
    return nd, Rooted(m_sq, 2)


# ---------------------------------------------------------------------------
# heights on D^N


def _arch_sq_prod(field: NumberField, nrms: Sequence[NfElement]) -> Real:
    """prod over channels n of max_l N^{(n)}(x_l), the 2d-th power of H_inf,
    from the reduced norms N(x_l)."""
    norms = [field.channel_values(v) for v in nrms]
    acc = None
    for n in range(field.degree):
        ch = max_real(*[vals[n] for vals in norms])
        acc = ch if acc is None else acc * ch
    return acc


def height_Hinf(xs: Sequence[QuatElement]) -> Rooted:
    """Homogeneous archimedean height, exact in 2d-th power form."""
    field = xs[0].algebra.field
    return Rooted(_arch_sq_prod(field, [x.nrm() for x in xs]), 2 * field.degree)


def height_hinf(xs: Sequence[QuatElement]) -> Rooted:
    alg = xs[0].algebra
    return height_Hinf([alg.one()] + list(xs))


def _hfin(order: QuatOrder, rows: Sequence[Sequence[int]]) -> Fraction:
    """1 / [O : sum_l O x_l] from the integer coordinates of the x_l."""
    idx = image_index(order.left_table, [rows])
    if idx is None:
        raise ValidationError("left module has infinite index in the order")
    return Fraction(1, idx)


def height_HfinO(order: QuatOrder, xs: Sequence[QuatElement]) -> Fraction:
    """Exact 4d-th power of the finite height: 1 / [O : O x_1 + ... + O x_N]."""
    m, rows = order.scaled_coords(xs)
    if m != 1:
        raise ValidationError("coordinate outside the order")
    if all(x.is_zero() for x in xs):
        raise ValidationError("finite height of the zero vector")
    return _hfin(order, rows)


def height_HO(order: QuatOrder, xs: Sequence[QuatElement]) -> Rooted:
    """Global homogeneous height H^O in 4d-th power form, on y = m x for the
    least positive integer m with every m x_l in the order."""
    if all(x.is_zero() for x in xs):
        raise ValidationError("height of the zero vector")
    m, rows = order.scaled_coords(xs)
    d = order.algebra.field.degree
    arch = _arch_sq_prod(order.algebra.field, [(x * m).nrm() for x in xs])
    return Rooted(arch ** 2 * _hfin(order, rows), 4 * d)


def height_h(xs: Sequence[QuatElement]) -> Rooted:
    """Inhomogeneous height on D^N: h = h_inf (finite factor 1)."""
    return height_hinf(xs)


def finite_factor(order: QuatOrder, m: int, rows: Sequence[Sequence[int]]) -> Fraction:
    """m^{4d} / [O : Om + sum_l O y_l], the 4d-th power of the finite factor
    of h(x) for x = y/m, from the integer order coordinates of the y_l in O.

    It is at least m / gcd(m, coordinates of y): the y_l have that joint
    additive order in O/mO."""
    d = order.algebra.field.degree
    ideal = [[m * c for c in order.one_coords]] + list(rows)
    return _hfin(order, ideal) * Fraction(m) ** (4 * d)


def height_h_order(order: QuatOrder, xs: Sequence[QuatElement]) -> Rooted:
    """Inhomogeneous height on all of D^N, finite part included.

    In 4d-th power form: h^{4d} = h_inf^{4d} * ``finite_factor`` of y = m x
    for any integer m with every m x_l in the order; the value is
    independent of the choice of m.  For x with coordinates in the order
    this reduces to h_inf(x).
    """
    d = xs[0].algebra.field.degree
    m, rows = order.scaled_coords(xs)
    return height_hinf(xs) * Rooted(finite_factor(order, m, rows), 4 * d)


# ---------------------------------------------------------------------------
# right D-subspaces


def nrd(rows: Sequence[Sequence[QuatElement]]) -> NfElement:
    """Reduced norm Nrd(A) = det rho(A) of a square matrix A over D, in K:
    row swaps and left row additions have Nrd 1, so it is the product of
    the pivots' reduced norms (0 when a column has no pivot).  D is definite,
    hence a division algebra: every nonzero pivot is invertible."""
    field = rows[0][0].algebra.field
    _, _, pivots, _ = linalg.row_echelon(rows)
    if len(pivots) < len(rows):
        return field.zero()
    return math.prod((p.nrm() for p in pivots), start=field.one())


class DSubspace:
    """Right D-subspace of D^N with a basis matrix and/or constraint matrix."""

    def __init__(
        self,
        algebra: QuatAlgebra,
        ambient: int,
        basis_cols: Optional[Sequence[Sequence[QuatElement]]] = None,
        constraint_rows: Optional[Sequence[Sequence[QuatElement]]] = None,
    ):
        if basis_cols is None and constraint_rows is None:
            raise ValidationError("subspace needs a basis or a constraint matrix")
        self.algebra = algebra
        self.ambient = ambient
        self._basis = [list(c) for c in basis_cols] if basis_cols else None
        self._constraint = (
            [list(r) for r in constraint_rows] if constraint_rows else None
        )
        self._modules = {}  # order -> intersection_module(self, order)
        if self._basis is not None:
            self.dim = len(self._basis)
        else:
            self.dim = ambient - len(self._constraint)
        if self._basis is not None and self._constraint is not None:
            for row in self._constraint:
                for col in self._basis:
                    acc = None
                    for ri, ci in zip(row, col):
                        term = ri * ci
                        acc = term if acc is None else acc + term
                    if not acc.is_zero():
                        raise ValidationError("constraint does not annihilate basis")

    def basis_cols(self) -> List[List[QuatElement]]:
        if self._basis is None:
            # solve C x = 0
            self._basis = linalg.kernel_basis(self._constraint)
            if len(self._basis) != self.dim:
                raise ValidationError("constraint matrix rank is inconsistent")
        return self._basis

    def constraint_rows(self) -> List[List[QuatElement]]:
        if self._constraint is None:
            # rows are conjugates of a basis of the orthogonal complement
            perp = self.perp_basis()
            self._constraint = [[y.conj() for y in col] for col in perp]
            if len(self._constraint) != self.ambient - self.dim:
                raise ValidationError("basis matrix rank is inconsistent")
        return self._constraint

    def perp_basis(self) -> List[List[QuatElement]]:
        """Basis of Z-perp = {y : x* y = 0 for all x in Z}."""
        cols = self.basis_cols()
        star_rows = [[x.conj() for x in col] for col in cols]  # X*, L x N
        return linalg.kernel_basis(star_rows)

    def perp(self) -> "DSubspace":
        return DSubspace(self.algebra, self.ambient, basis_cols=self.perp_basis())


def _scaled_matrix(order: QuatOrder, rows):
    """(m A, coordinates) for the least positive integer m with m A over the
    order: the M x N matrix m A and the integer coordinates of its entries."""
    n = len(rows[0])
    m, coords = order.scaled_coords([x for row in rows for x in row])
    return ([[x * m for x in row] for row in rows],
            [coords[i:i + n] for i in range(0, len(coords), n)])


def _image_index(order: QuatOrder, coords) -> int:
    """[O^M : A(O^N)] for an M x N matrix A over the order, from the integer
    coordinates of its entries: column j sends e_w to the column of A_ij e_w."""
    idx = image_index(order.right_table, coords)
    if idx is None:
        raise ValidationError("matrix map is rank deficient")
    return idx


def _hermitian_square_det_channels(rows: Sequence[Sequence[QuatElement]]):
    """Channel values of det rho(A A*) for an M x N matrix A over D.

    det rho(A A*) = Nrd(A A*) is computed by elimination over D (``nrd``),
    so it lies in K by construction.
    """
    alg = rows[0][0].algebra
    big_m = len(rows)
    n = len(rows[0])
    prod = [
        [
            sum((rows[i][t] * rows[j][t].conj() for t in range(n)), alg.zero())
            for j in range(big_m)
        ]
        for i in range(big_m)
    ]
    return alg.field.channel_values(nrd(prod))


def _hermitian_square_det_abs(rows: Sequence[Sequence[QuatElement]]) -> Real:
    """prod over channels of |det rho(A A*)|, from _hermitian_square_det_channels."""
    arch = None
    for ch in _hermitian_square_det_channels(rows):
        a = abs_real(ch)
        arch = a if arch is None else arch * a
    return arch


def subspace_height_HO(z: DSubspace, order: QuatOrder) -> Rooted:
    """H^O(Z) in 4d-th power form, via the constraint matrix when proper:
    ([O^M : C(O^N)]^{-1} prod |det rho(CC*)|)^{1/4d}, with det rho(CC*) =
    Nrd(CC*) computed by elimination over D.

    For L = N the basis form is used (the constraint matrix is empty).
    """
    if z.dim == z.ambient:
        return subspace_height_HO_basis(z, order)
    rows, coords = _scaled_matrix(order, z.constraint_rows())
    fin = Fraction(1, _image_index(order, coords))
    return Rooted(_hermitian_square_det_abs(rows) * fin, 4 * order.algebra.field.degree)


def subspace_height_HO_basis(z: DSubspace, order: QuatOrder) -> Rooted:
    """H^O(X) from a basis matrix X: ([O^L : X^t(O^N)]^{-1} prod |det rho(X*X)|)^{1/4d},
    with det rho(X*X) = Nrd(X*X) computed by elimination over D."""
    xt_rows, coords = _scaled_matrix(order, z.basis_cols())  # X^t is L x N
    fin = Fraction(1, _image_index(order, coords))
    # X*X = (X^t conj) (X^t)^t: rows of X^t are the basis vectors
    star_rows = [[x.conj() for x in col] for col in xt_rows]
    return Rooted(_hermitian_square_det_abs(star_rows) * fin, 4 * order.algebra.field.degree)


# ---------------------------------------------------------------------------
# hermitian forms and the trace form


def validate_hermitian(f: Sequence[Sequence[QuatElement]]):
    n = len(f)
    for row in f:
        if len(row) != n:
            raise ValidationError("form matrix must be square")
    for m in range(n):
        for l in range(n):
            if not (f[m][l] - f[l][m].conj()).is_zero():
                raise ValidationError("form matrix is not hermitian")


def trace_form_block(f: QuatElement) -> List[List[NfElement]]:
    alg = f.algebra
    al, be = alg.alpha, alg.beta
    ab = al * be
    f0, f1, f2, f3 = f.c
    two = 2
    return [
        [f0 * two, al * f1 * two, be * f2 * two, -(ab * f3) * two],
        [-(al * f1) * two, -(al * f0) * two, -(ab * f3) * two, ab * f2 * two],
        [-(be * f2) * two, ab * f3 * two, -(be * f0) * two, -(ab * f1) * two],
        [ab * f3 * two, -(ab * f2) * two, ab * f1 * two, ab * f0 * two],
    ]


def trace_form(f: Sequence[Sequence[QuatElement]]) -> List[List[NfElement]]:
    """4N x 4N symmetric matrix B over K with Q([x]) = 2 F(x)."""
    validate_hermitian(f)
    n = len(f)
    blocks = [[trace_form_block(f[m][l]) for l in range(n)] for m in range(n)]
    out = []
    for m in range(n):
        for r in range(4):
            row: List[NfElement] = []
            for l in range(n):
                row.extend(blocks[m][l][r])
            out.append(row)
    return out


def eval_hermitian(f: Sequence[Sequence[QuatElement]], xs: Sequence[QuatElement]) -> NfElement:
    """F(x) = x^t F x with the hermitian convention; lands in K."""
    alg = xs[0].algebra
    n = len(f)
    acc = None
    for m in range(n):
        for l in range(n):
            term = xs[m].conj() * f[m][l] * xs[l]
            acc = term if acc is None else acc + term
    if not (acc.c[1].is_zero() and acc.c[2].is_zero() and acc.c[3].is_zero()):
        raise ValidationError("hermitian evaluation escaped K")
    return acc.c[0]


def module_gram(module: OkModule, f) -> Tuple[List[List[List[int]]], int]:
    """F on the integer coordinates of a bracket module: (grams, den).

    For x = sum_i m_i z_i over the module's Z-basis, trace_form B gives
    F(x) = (1/2) m^t (Z^t B Z) m; power-basis coordinate l of F(x) is
    m^t grams[l] m / den.
    """
    zero = module.field.zero()

    def dot(xs, ys):  # B and the Z-basis are mostly zeros
        return sum((x * y for x, y in zip(xs, ys) if not (x.is_zero() or y.is_zero())), zero)

    zs, b = module.z_basis, trace_form(f)
    bz = [[dot(row, z) for row in b] for z in zs]
    vals = [dot(zi, v) for zi in zs for v in bz]
    den = math.lcm(*[v.den for v in vals])
    n = len(zs)
    grams = [[[vals[i * n + j].num[l] * (den // vals[i * n + j].den) for j in range(n)]
              for i in range(n)] for l in range(module.field.degree)]
    return grams, 2 * den


def norm_grams(module: OkModule, algebra: QuatAlgebra):
    """[module_gram of N(x_l)] for each quaternionic coordinate l of x."""
    one, zero, n = algebra.one(), algebra.zero(), module.ambient // 4
    return [module_gram(module, [[one if a == b == l else zero for b in range(n)]
                                 for a in range(n)]) for l in range(n)]


# ---------------------------------------------------------------------------
# Z cap O^N as an O_K-module; c_O and z_O


def order_module(order: QuatOrder, n: int) -> OkModule:
    """[O^N] as an O_K-module on the order's own Z-basis, the bracket
    coordinates of w e_l for l < n and w in the order's Z-basis: Z-coordinate
    4d l + i of y is coordinate i of y_l in the order."""
    zero = order.algebra.zero()
    return OkModule(order.algebra.field, 4 * n, [
        bracket([w if k == l else zero for k in range(n)])
        for l in range(n) for w in order.z_basis])


def intersection_module(z: DSubspace, order: QuatOrder) -> OkModule:
    """[Z cap O^N] as an O_K-module in K^{4N}, built once per (Z, O) and
    cached on Z, so its lattice and coefficient-box norms are computed once."""
    if order in z._modules:
        return z._modules[order]
    alg = z.algebra
    field = alg.field
    d = field.degree
    n = z.ambient
    lat_vecs = order_module(order, n).z_basis
    lat_coords = [_flatten_power_coords(field, v) for v in lat_vecs]
    # Q-basis of [Z]: x_col * theta^s * q for q in {1,i,j,k}
    span_vecs = []
    units = [alg.one(), alg.i(), alg.j(), alg.k()]
    theta_pows = [field.one()]
    for _ in range(d - 1):
        theta_pows.append(theta_pows[-1] * field.gen())
    for col in z.basis_cols():
        for t in theta_pows:
            for q in units:
                scaled = [(x * t) * q for x in col]
                span_vecs.append(bracket(scaled))
    span_coords = [[Fraction(c, e) for c in w]
                   for w, e in (_flatten_power_coords(field, v) for v in span_vecs)]
    # linear forms vanishing on the span
    forms = [_scale_to_ints(f) for f in linalg.kernel_basis(span_coords)]
    gens = lat_vecs  # no forms: [Z] is everything
    if forms:
        # integer kernel of (forms . lat_coords^T) z = 0, each entry a
        # product of integer vectors over the two denominators
        ints, _ = rational_to_scaled([[Fraction(sum(map(operator.mul, a, w)), da * e)
                                       for w, e in lat_coords] for a, da in forms])
        gens = []
        for m in kernel(ints):
            vec = z_combination(lat_vecs, m)
            if vec is not None:
                gens.append(vec)
    module = z._modules[order] = OkModule.from_z_generators(field, 4 * n, gens)
    return module


def minima_cz_order(z: DSubspace, order: QuatOrder):
    """(c_O(Z), witness, z_O(Z), witness) via the intersection module."""
    module = intersection_module(z, order)
    return minima_ck_zk(module)
