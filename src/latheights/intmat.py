"""Exact integer matrices: HNF, SNF, determinants, linear solves, indices,
kernels, and the Z-span of rational vectors.

A matrix is a list of integer rows.  Everything here uses fraction-free
integer pivoting; matrices are tiny at desk scale, so simplicity wins over
asymptotics.  One elimination loop, ``_bareiss`` (fraction-free
Gauss-Jordan), serves both ``det`` and ``solve``.

``ZSpan`` holds the Z-span of a list of rational vectors once, in integers:
the vectors scaled by one common denominator and the row Hermite Normal
Form of the result.  Membership reduces the scaled vector against the HNF
pivots (Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
2.4).  A basis of the whole space also keeps its inverse, formed on first
use by the fraction-free ``solve`` as an integer matrix over one
denominator, so the coordinates of a vector in that basis are one integer
matrix product and one division.  Number fields, ideals, O_K-modules,
quaternion orders and divisor lattices all answer membership and
coordinates through it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def _bareiss(a, b=()):
    """Fraction-free Gauss-Jordan elimination on [a | b] for a square integer
    a and integer rows b (Bareiss, Math. Comp. 22 (1968)): (rows, p, sign),
    or None when a is singular.  Step k swaps up the first row with a
    nonzero entry in column k, flipping ``sign``, and replaces every other
    row by (p_k row - a_ik row_k) / p_{k-1}, an exact division.  Every
    diagonal entry of the a block ends as the last pivot p, so det a =
    sign p, and the b block as p a^{-1} b."""
    n = len(a)
    m = [list(row) + list(rhs) for row, rhs in zip(a, b)] if b else [list(row) for row in a]
    prev, sign = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return None
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        rk, p = m[k], m[k][k]
        for i in range(n):
            if i != k:
                row, f = m[i], m[i][k]
                # columns left of k are zero off the diagonal; column i < k of
                # row i is the pivot p_{k-1}, and becomes p_k
                if i < k:
                    row[i] = p
                row[k:] = [(p * x - f * y) // prev for x, y in zip(row[k:], rk[k:])]
        prev = p
    return m, prev, sign


def det(rows):
    """Determinant of a square integer matrix, from ``_bareiss``."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant of non-square matrix")
    done = _bareiss(rows)
    return 0 if done is None else done[2] * done[1]


def solve(a, b):
    """(X, d) with integer X, d = |det a| and a X = d b, for a square
    integer a and an integer matrix b given as rows, from the b block of
    ``_bareiss``; None when a is singular."""
    done = _bareiss(a, b)
    if done is None:
        return None
    m, p, _ = done
    s = 1 if p > 0 else -1
    return [[s * x for x in row[len(a):]] for row in m], s * p


def _row_hnf(rows, ncols, transform=False):
    """Row-style HNF (row span preserved).  Returns (hnf_rows, U or None,
    pivot columns); the rows past the pivots are zero."""
    a = [list(row) for row in rows]
    nrows = len(a)
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)] if transform else None
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        # find a nonzero entry in this column at or below pivot_row
        nz = [i for i in range(pivot_row, nrows) if a[i][col]]
        if not nz:
            continue
        # euclidean reduction among the rows
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(a[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = a[i][col] // a[i0][col]
                a[i] = [x - q * y for x, y in zip(a[i], a[i0])]
                if transform:
                    u[i] = [x - q * y for x, y in zip(u[i], u[i0])]
            nz = [i for i in nz if a[i][col]]
        i0 = nz[0]
        a[pivot_row], a[i0] = a[i0], a[pivot_row]
        if transform:
            u[pivot_row], u[i0] = u[i0], u[pivot_row]
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
            if transform:
                u[pivot_row] = [-x for x in u[pivot_row]]
        # reduce the rows above
        p = a[pivot_row][col]
        for i in range(pivot_row):
            q = a[i][col] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[pivot_row])]
                if transform:
                    u[i] = [x - q * y for x, y in zip(u[i], u[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    return a, u, pivots


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def hnf(rows):
    """Column-style Hermite Normal Form; integer column span is preserved."""
    rows_h, _, _ = _row_hnf(_transpose(rows), len(rows))
    return _transpose(rows_h)


def rank(rows):
    return len(_row_hnf(rows, len(rows[0]))[2]) if rows else 0


def lattice_index(generators, k=None):
    """Index in Z^k of the subgroup generated by integer vectors.

    Returns a positive int, or None if the subgroup has rank < k.
    """
    if not generators:
        return None
    k = k if k is not None else len(generators[0])
    rows_h, _, pivots = _row_hnf(generators, k)
    if len(pivots) < k:
        return None
    idx = 1
    for r, c in enumerate(pivots):
        idx *= rows_h[r][c]
    return abs(idx)


def table_rows(table, c):
    """Rows of sum_k c[k] * table[k], for integer matrices table[k]."""
    out = [[0] * len(table[0][0]) for _ in table[0]]
    for ck, t in zip(c, table):
        if ck:
            for o, row in zip(out, t):
                for j, v in enumerate(row):
                    o[j] += ck * v
    return out


def trace_det(table):
    """det [Tr(e_i e_k)] for a ring with Z-basis e_0, ..., e_{n-1} and integer
    multiplication table ``table`` (as for ``table_rows``), with the regular
    trace t_l = sum_i table[l][i][i] of e_l: the discriminant of the ring
    (Cohen, GTM 138, 4.4)."""
    t = [sum(row[i] for i, row in enumerate(rows)) for rows in table]
    return det([[sum(map(operator.mul, row, t)) for row in rows] for rows in table])


def image_index(table, coords):
    """Index in Z^{Mk} of the image of an M x N matrix over a ring with
    Z-basis e_0, ..., e_{k-1} and integer multiplication table ``table``
    (as for ``table_rows``); coords[i][j] holds the integer coordinates of
    entry (i, j).  Column j and e_w give one generator, whose block i is
    row w of ``table_rows(table, coords[i][j])``.  Returns None if the image
    has rank < Mk.
    """
    gens = []
    for j in range(len(coords[0])):
        blocks = [table_rows(table, row[j]) for row in coords]
        gens.extend(sum(rs, []) for rs in zip(*blocks))
    return lattice_index(gens, len(coords) * len(table))


def kernel(rows):
    """Z-basis of the integer kernel {x : m @ x = 0} of the matrix m with
    the given rows, as a list of vectors."""
    # row-reduce the transpose while tracking the transform: U * (m^T) = H.
    _, u, pivots = _row_hnf(_transpose(rows), len(rows), transform=True)
    return u[len(pivots):]


def matmul_vec(rows, v):
    return [sum(map(operator.mul, row, v)) for row in rows]


def snf_diagonal(rows):
    """Diagonal of the Smith Normal Form (nonnegative invariant factors)."""
    a = [list(row) for row in rows]
    r, c = len(a), len(a[0]) if a else 0
    diag = []
    s = 0
    while s < min(r, c):
        # find smallest nonzero entry in the remaining block
        best = None
        for i in range(s, r):
            for j in range(s, c):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[s], a[bi] = a[bi], a[s]
        for row in a:
            row[s], row[bj] = row[bj], row[s]
        dirty = True
        while dirty:
            dirty = False
            for i in range(s + 1, r):
                if a[i][s]:
                    q = a[i][s] // a[s][s]
                    a[i] = [x - q * y for x, y in zip(a[i], a[s])]
                    if a[i][s]:
                        a[s], a[i] = a[i], a[s]
                        dirty = True
            for j in range(s + 1, c):
                if a[s][j]:
                    q = a[s][j] // a[s][s]
                    for row in a:
                        row[j] -= q * row[s]
                    if a[s][j]:
                        for row in a:
                            row[s], row[j] = row[j], row[s]
                        dirty = True
        diag.append(abs(a[s][s]))
        s += 1
    # enforce divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            l = diag[i] * diag[j] // g if g else 0
            diag[i], diag[j] = g, l
    return diag


# ---------------------------------------------------------------------------
# rational lattices (integer lattices with a common denominator)


def rational_to_scaled(vectors):
    """Clear denominators of Fraction vectors: returns (int_vectors, den)."""
    den = 1
    for v in vectors:
        for x in v:
            den = math.lcm(den, Fraction(x).denominator)
    ints = [[int(Fraction(x) * den) for x in v] for v in vectors]
    return ints, den


def _scale_to_ints(v):
    """(w, e): e the least positive integer with e v integral, w = e v."""
    e = math.lcm(*[x.denominator for x in v])
    return [x.numerator * (e // x.denominator) for x in v], e


class ZSpan:
    """The Z-span of rational vectors in Q^ncols, held once in integers.

    ``den`` is the least positive integer that makes every vector integral,
    and ``rows`` holds den times the vectors; ``hnf`` holds the nonzero rows
    of their row HNF, with pivot columns ``pivots``; ``rank`` is their
    number.  When the vectors form a basis of Q^ncols, the inverse
    B^{-1} = M / q is formed in integers the first time coordinates are
    asked for.  A vector can also be given as integers w over a positive
    denominator e (the ``_int`` methods), as number-field elements hold it.
    """

    __slots__ = ("den", "rows", "hnf", "pivots", "rank", "_is_basis", "_inv")

    def __init__(self, vectors, ncols):
        ints, den = rational_to_scaled(vectors)
        self._build(ints, den, ncols)

    @classmethod
    def from_scaled(cls, pairs, ncols):
        """The span of the vectors w / e for the pairs (w, e), each in lowest
        terms (gcd(w, e) = 1, e > 0)."""
        den = math.lcm(*[e for _, e in pairs])
        span = cls.__new__(cls)
        span._build([[x * (den // e) for x in w] for w, e in pairs], den, ncols)
        return span

    def _build(self, ints, den, ncols):
        self.den, self.rows = den, ints
        rows_h, _, self.pivots = _row_hnf(ints, ncols)
        self.rank = len(self.pivots)
        self.hnf = rows_h[: self.rank]
        self._is_basis = self.rank == ncols == len(ints)
        self._inv = None

    def _inverse(self):
        """(cols, q): B^{-1} = M / q for the integer columns cols of M, with
        cols None for the identity basis."""
        if self._inv is None:
            if not self._is_basis:
                raise ValueError("coordinates need a basis of the whole space")
            # B = A / den, so B^{-1} = den A^{-1} = den X / q with A X = q I
            n = len(self.rows)
            x, q = solve(self.rows, [[int(i == j) for j in range(n)] for i in range(n)])
            t = math.gcd(q, *(v for row in x for v in row))  # q / t: least denominator
            q, g = q // t, math.gcd(self.den, q // t)
            cols = [[v // t * (self.den // g) for v in col] for col in zip(*x)]
            identity = q == g and all(
                v == (i == j) for i, col in enumerate(cols) for j, v in enumerate(col))
            self._inv = (None if identity else cols, q // g)
        return self._inv

    def contains(self, v) -> bool:
        """Does the span contain the rational vector v?"""
        return self.contains_int(*_scale_to_ints(v))

    def contains_int(self, w, e) -> bool:
        """Does the span contain w / e, for integers w and e > 0?"""
        w = [x * self.den for x in w]
        if e != 1:
            if any(x % e for x in w):
                return False
            w = [x // e for x in w]
        for row, c in zip(self.hnf, self.pivots):
            q = w[c] // row[c]  # leaves 0 <= w[c] < row[c], nonzero unless divisible
            if q:
                for j in range(c, len(w)):
                    w[j] -= q * row[j]
        return not any(w)

    def scaled_coords(self, v):
        """(c, m): m the least positive integer with m times the coordinates
        of v in the basis integral, and c those integer coordinates."""
        return self.scaled_coords_int(*_scale_to_ints(v))

    def scaled_coords_int(self, w, e):
        """``scaled_coords`` of w / e, for integers w and e > 0."""
        cols, q = self._inverse()
        if cols is not None:
            w = [sum(map(operator.mul, w, col)) for col in cols]
            e *= q
        g = math.gcd(e, *w)
        return ([x // g for x in w], e // g) if g != 1 else (list(w), e)

    def basis(self):
        """A Z-basis of the span: the HNF rows over the denominator."""
        return [[Fraction(x, self.den) for x in row] for row in self.hnf]


def lattice_intersection(gens_a, gens_b):
    """Z-basis of (Z-span of gens_a) intersect (Z-span of gens_b).

    Vectors may have Fraction entries; all live in the same Q^n.
    """
    ia, den = rational_to_scaled(list(gens_a) + list(gens_b))
    na = len(gens_a)
    n = len(ia[0])
    # solve A x = B y  <=>  [A | -B] (x, y)^T = 0
    stacked = ia[:na] + [[-t for t in v] for v in ia[na:]]
    combos = [
        [sum(kv[i] * ia[i][j] for i in range(na)) for j in range(n)]
        for kv in kernel(_transpose(stacked))
    ]
    if not combos:
        return []
    # the combinations are den times the intersection: reduce to a basis
    return [[Fraction(x, den) for x in row] for row in ZSpan(combos, n).hnf]


def lattice_contains(gens, vec):
    """Does the Z-span of gens contain vec?  All entries rational."""
    return ZSpan(gens, len(vec)).contains(vec)
