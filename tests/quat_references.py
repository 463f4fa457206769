"""Reference computations that the quaternion tests check live code against.

``hinf_constraint_minors`` computes H_inf(C) of a constraint matrix by the
Cauchy-Binet sum over its maximal minors, against the one Gram determinant
det rho(CC*) of ``quat._hermitian_square_det_abs``; ``eval_quadratic``
evaluates a K-matrix as a quadratic form, against ``quat.trace_form``.
"""

import itertools

from latheights.quat import nrd
from latheights.reals import Rooted


def hinf_constraint_minors(z):
    """H_inf(C) by the Cauchy-Binet minor sum, in 2d-th power form.

    Each M x M minor's det rho = Nrd is computed by elimination over D; it
    lies in K and is nonnegative at every channel.
    """
    rows = z.constraint_rows()
    field = z.algebra.field
    minors = [field.channel_values(nrd([[row[c] for c in cols] for row in rows]))
              for cols in itertools.combinations(range(len(rows[0])), len(rows))]
    acc = None
    for vals in zip(*minors):  # one channel, every minor
        total = sum(vals[1:], vals[0])
        acc = total if acc is None else acc * total
    return Rooted(acc, 2 * field.degree)


def eval_quadratic(b, z):
    """z^t B z for a K-matrix B and a K-vector z."""
    acc = None
    for i, row in enumerate(b):
        for j, e in enumerate(row):
            term = z[i] * e * z[j]
            acc = term if acc is None else acc + term
    return acc
