"""Generic dense linear algebra over an exact field.

Entries may be Fractions, QuadReals, number field elements, or anything
supporting +, -, *, / and equality against 0.  Used for multiplication
matrices, Grassmann minors, pseudo-inverses, and solving over quadratic
extensions; matrices are small everywhere in this library.
"""

from __future__ import annotations

from fractions import Fraction


def _is_zero(x):
    return x == 0


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


def det(a):
    """Determinant by Gaussian elimination with exact division."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [row[:] for row in a]
    sign = 1
    result = None
    for k in range(n):
        piv = None
        for i in range(k, n):
            if not _is_zero(m[i][k]):
                piv = i
                break
        if piv is None:
            return m[0][0] - m[0][0]  # zero of the right type
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            m[i] = [x - factor * y for x, y in zip(m[i], m[k])]
        result = m[k][k] if result is None else result * m[k][k]
    return result if sign == 1 else -result


def solve(a, b):
    """Solve a x = b for square a; returns None if singular.

    b is a vector, or a matrix given as a list of rows; x has its shape.
    One Gauss-Jordan pass on [a | b]: each column of b sees exactly the row
    operations it would see alone.
    """
    n = len(a)
    vec = not isinstance(b[0], list)
    m = [list(row) + ([bv] if vec else list(bv)) for row, bv in zip(a, b)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if not _is_zero(m[i][k]):
                piv = i
                break
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        inv = m[k][k]
        # columns left of k are eliminated and never read again
        m[k][k:] = [x / inv for x in m[k][k:]]
        for i in range(n):
            if i != k and not _is_zero(m[i][k]):
                factor = m[i][k]
                m[i][k:] = [x - factor * y for x, y in zip(m[i][k:], m[k][k:])]
    return [m[i][n] for i in range(n)] if vec else [m[i][n:] for i in range(n)]


def inverse(a):
    """a^{-1} as solve(a, I); None if singular."""
    n = len(a)
    zero = a[0][0] - a[0][0]
    # 1 of the right type: x/x for the first nonzero entry
    one = next((x / x for row in a for x in row if not _is_zero(x)), None)
    if one is None:
        return None
    return solve(a, [[one if i == j else zero for j in range(n)] for i in range(n)])


def row_echelon(a):
    """(echelon form, pivot column list); rows are combinations of inputs."""
    m = [row[:] for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not _is_zero(m[i][c]):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and not _is_zero(m[i][c]):
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a):
    return len(row_echelon(a)[1])


def kernel_basis(a):
    """Right kernel basis of the matrix a over its field."""
    m, pivots = row_echelon(a)
    ncols = len(a[0]) if a else 0
    free = [c for c in range(ncols) if c not in pivots]
    if not a:
        return []
    zero = a[0][0] - a[0][0]
    # 1 of the right type; for the zero matrix (kernel is everything) a Fraction
    one = next((x / x for row in a for x in row if not _is_zero(x)), Fraction(1))
    out = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = zero - m[r][fc]
        out.append(v)
    return out
