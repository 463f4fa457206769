"""Dense linear algebra over fields and the definite quaternion algebra D.

Entries may be Fractions, QuadReals, BallReals, number field elements or
quaternions: anything with +, -, *, /, 1/x and equality against 0.
Matrices are small everywhere in this library.

One elimination loop, ``row_echelon``, serves fields and D alike, by left
row operations: row i -= (a_ic / p) * row r, the pivot row r unscaled.
Left operations keep the right-linear relations among the columns, so over
D the pivots give the right rank and the right kernel, with unknowns
multiplied from the right (Aslaksen, Math. Intelligencer 18 (1996); Voight,
GTM 288, ch. 7).  Readers needing 1/p multiply from the left, and only on
the entries they read.

Ball operation order: a BallReal's enclosure depends on the order of its
operations, and a BallReal never equals 0.  Each multiplier is the quotient
a_ic / p, never a_ic * (1/p), and ``det`` multiplies the pivots left to
right: a 2 x 2 determinant is g00 * (g11 - (g10 / g00) * g01).
"""

from __future__ import annotations

import math
from fractions import Fraction


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(1, k)), a[i][0] * b[0][j]) for j in range(m)]
        for i in range(n)
    ]


def mat_vec(a, v):
    return [sum((row[t] * v[t] for t in range(1, len(v))), row[0] * v[0]) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def row_echelon(a, ncols=None):
    """Gauss-Jordan elimination: (rows, pivot columns, pivots, swaps).

    Pivots are sought only in the first ``ncols`` columns (all of them by
    default); each pivot column is cleared in every other row.  Pivot rows
    are not scaled, so ``pivots[r]`` is ``rows[r][cols[r]]``; ``swaps``
    counts the row exchanges.
    """
    m = [list(row) for row in a]
    nrows = len(m)
    if ncols is None:
        ncols = len(m[0]) if nrows else 0
    zero = m[0][0] - m[0][0] if nrows and ncols else None
    cols, pivots, swaps = [], [], 0
    for c in range(ncols):
        r = len(pivots)
        for i in range(r, nrows):
            if not m[i][c] == 0:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            swaps += 1
        prow = m[r]
        p, rest = prow[c], prow[c + 1:]
        # row r is zero left of c: earlier pivot columns are cleared, and
        # earlier columns without a pivot are zero from row r down.  Column
        # c is set to zero, not formed: exact entries cancel there, and no
        # reader looks at what a ball would leave
        for row in m:
            if row is not prow and not row[c] == 0:
                f = row[c] / p
                row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:], rest)]
                row[c] = zero
        cols.append(c)
        pivots.append(p)
    return m, cols, pivots, swaps


def det(a):
    """Determinant: the signed product of the pivots, left to right; a zero
    of the entry type when a is singular."""
    if not a:
        return Fraction(1)
    _, _, pivots, swaps = row_echelon(a)
    if len(pivots) < len(a):
        return a[0][0] - a[0][0]
    result = math.prod(pivots[1:], start=pivots[0])
    return -result if swaps % 2 else result


def solve(a, b):
    """Solve a x = b for square a; returns None if singular.

    b is a vector, or a matrix given as a list of rows; x has its shape.
    One elimination on [a | b], then each row's right-hand side is
    multiplied from the left by 1/p.
    """
    n = len(a)
    vec = not isinstance(b[0], list)
    m, _, pivots, _ = row_echelon(
        [list(row) + ([bv] if vec else list(bv)) for row, bv in zip(a, b)], n)
    if len(pivots) < n:
        return None
    x = [[inv * v for v in row[n:]] for row, inv in zip(m, [1 / p for p in pivots])]
    return [row[0] for row in x] if vec else x


def inverse(a):
    """a^{-1} as solve(a, I); None if singular."""
    zero = a[0][0] - a[0][0]
    return solve(a, [[zero + int(i == j) for j in range(len(a))] for i in range(len(a))])


def rank(a):
    return len(row_echelon(a)[2])


def kernel_basis(a):
    """Basis of the right kernel {v : a v = 0}, one vector per column
    without a pivot; over D the unknowns are multiplied from the right."""
    if not a:
        return []
    m, cols, pivots, _ = row_echelon(a)
    zero = a[0][0] - a[0][0]
    invs = [1 / p for p in pivots]
    out = []
    for fc in (c for c in range(len(a[0])) if c not in cols):
        v = [zero] * len(a[0])
        v[fc] = zero + 1
        for row, pc, inv in zip(m, cols, invs):
            v[pc] = -(inv * row[fc])
        out.append(v)
    return out
