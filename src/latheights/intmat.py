"""Exact integer matrices: HNF, SNF, determinants, indices, kernels.

Everything here uses fraction-free integer pivoting; matrices are tiny at
desk scale, so simplicity wins over asymptotics.  The column-style Hermite
Normal Form preserves the integer column span, which is the only property
the index computations rely on.
"""

from __future__ import annotations

import math
from fractions import Fraction


class IntMat:
    """Dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        data = [int(x) for x in data]
        if len(data) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self.rows, self.cols, self.data = rows, cols, data

    @classmethod
    def from_rows(cls, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def from_cols(cls, cols):
        return cls.from_rows(cols).transpose() if cols else cls(0, 0, [])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return self.data[j :: self.cols]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def transpose(self):
        return IntMat(
            self.cols,
            self.rows,
            [self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def __eq__(self, other):
        return (
            isinstance(other, IntMat)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.data)))

    def __repr__(self):
        return "IntMat(%r)" % (self.to_rows(),)


def det(m):
    """Determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [row[:] for row in m.to_rows()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _row_hnf(rows, ncols, transform=False):
    """Row-style HNF (row span preserved).  Returns (hnf_rows, U or None)."""
    a = [row[:] for row in rows]
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


def hnf(m):
    """Column-style Hermite Normal Form; integer column span is preserved."""
    rows_h, _, _ = _row_hnf(m.transpose().to_rows(), m.rows)
    return IntMat.from_rows(rows_h).transpose()


def rank(m):
    _, _, pivots = _row_hnf(m.to_rows(), m.cols)
    return len(pivots)


def lattice_index(generators, k=None):
    """Index in Z^k of the subgroup generated by integer vectors.

    Returns a positive int, or None if the subgroup has rank < k.
    """
    if not generators:
        return None
    k = k if k is not None else len(generators[0])
    rows_h, _, pivots = _row_hnf([list(g) for g in generators], k)
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


def kernel(m):
    """Z-basis of the integer kernel {x : m @ x = 0}, as a list of vectors."""
    # row-reduce the transpose while tracking the transform: U * (m^T) = H.
    rows_h, u, pivots = _row_hnf(m.transpose().to_rows(), m.rows, transform=True)
    nker = m.cols - len(pivots)
    return [u[len(pivots) + i] for i in range(nker)]


def matmul_vec(m, v):
    return [
        sum(m.data[i * m.cols + j] * v[j] for j in range(m.cols))
        for i in range(m.rows)
    ]


def snf_diagonal(m):
    """Diagonal of the Smith Normal Form (nonnegative invariant factors)."""
    a = [row[:] for row in m.to_rows()]
    r, c = m.rows, m.cols
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


def lattice_intersection(gens_a, gens_b):
    """Z-basis of (Z-span of gens_a) intersect (Z-span of gens_b).

    Vectors may have Fraction entries; all live in the same Q^n.
    """
    (ia, den) = rational_to_scaled(list(gens_a) + list(gens_b))
    na = len(gens_a)
    n = len(ia[0])
    # solve A x = B y  <=>  [A | -B] (x, y)^T = 0
    stacked = IntMat.from_cols(ia[:na] + [[-t for t in v] for v in ia[na:]])
    ker = kernel(stacked)
    out = []
    for kv in ker:
        vec = [
            Fraction(sum(kv[i] * ia[i][j] for i in range(na)), den) for j in range(n)
        ]
        out.append(vec)
    # reduce to a basis (drop dependent rows) via scaled HNF
    if not out:
        return []
    ints, d2 = rational_to_scaled(out)
    rows_h, _, pivots = _row_hnf(ints, n)
    return [[Fraction(x, d2) for x in rows_h[i]] for i in range(len(pivots))]


def lattice_contains(gens, vec):
    """Does the Z-span of gens contain vec?  All entries rational."""
    ints, den = rational_to_scaled(list(gens) + [vec])
    rows_h, _, pivots = _row_hnf(ints[:-1], len(vec))
    return hnf_contains(rows_h, pivots, ints[-1])


def hnf_contains(rows_h, pivots, vec):
    """Does the row span of a row HNF (``_row_hnf``'s rows and pivots)
    contain the integer vector vec?"""
    v = list(vec)
    for r, c in enumerate(pivots):
        if v[c] % rows_h[r][c] != 0:
            return False
        q = v[c] // rows_h[r][c]
        v = [x - q * y for x, y in zip(v, rows_h[r])]
    return all(x == 0 for x in v)
