"""Reference computations that the quaternion tests check live code against.

``hinf_constraint_minors`` computes H_inf(C) of a constraint matrix by the
Cauchy-Binet sum over its maximal minors, against the one Gram determinant
det rho(CC*) of ``quat._hermitian_square_det_abs``; ``eval_quadratic``
evaluates a K-matrix as a quadratic form, against ``quat.trace_form``;
``intersection_module_reference`` builds [Z cap O^N] from a Q-basis of [Z]
and a Fraction kernel, against the integer kernel of
``quat.intersection_module``.
"""

import itertools
import operator
from fractions import Fraction

from latheights import linalg
from latheights.intmat import _scale_to_ints, kernel, rational_to_scaled
from latheights.modules import OkModule, _flatten_power_coords, z_combination
from latheights.quat import bracket, nrd, order_module
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


def intersection_module_reference(z, order):
    """[Z cap O^N] from a Q-basis of [Z]: the bracket coordinates of
    x theta^s q for each basis column x, power theta^s < d and q in
    {1, i, j, k}; the linear forms vanishing on it (a Fraction kernel);
    and the integer kernel of those forms on O^N's Z-basis."""
    alg, n = z.algebra, z.ambient
    field = alg.field
    lat_vecs = order_module(order, n).z_basis
    lat_coords = [_flatten_power_coords(field, v) for v in lat_vecs]
    theta_pows = [field.one()]
    for _ in range(field.degree - 1):
        theta_pows.append(theta_pows[-1] * field.gen())
    span_vecs = [bracket([(x * t) * q for x in col]) for col in z.basis_cols()
                 for t in theta_pows for q in (alg.one(), alg.i(), alg.j(), alg.k())]
    span_coords = [[Fraction(c, e) for c in w]
                   for w, e in (_flatten_power_coords(field, v) for v in span_vecs)]
    forms = [_scale_to_ints(f) for f in linalg.kernel_basis(span_coords)]
    gens = lat_vecs  # no forms: [Z] is everything
    if forms:
        ints, _ = rational_to_scaled([[Fraction(sum(map(operator.mul, a, w)), da * e)
                                       for w, e in lat_coords] for a, da in forms])
        gens = [z_combination(lat_vecs, m) for m in kernel(ints)]
    return OkModule.from_z_generators(field, 4 * n, gens)
