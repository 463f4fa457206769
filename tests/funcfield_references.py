"""Reference computations that the function-field tests check live code against.

``divisor_lattice_reference`` builds L_P by a direct search, with no
relation kernel: on P^1 the root lattice A_{n-1} by its hand-written basis;
on an elliptic curve the image J_{X,P} by orbit closure, then the order of
each class c_i = [P_i - P_0] and every exponent vector in range(|J|)^{n-1}
summed by the group law, |J|^{n-1} group sums.
"""

import itertools

from latheights import intmat
from latheights.funcfield import GENUS0, INF


def divisor_lattice_reference(ctx):
    """(|J_{X,P}|, basis of L_P as sum-zero vectors of Z^n)."""
    n = ctx.n
    if ctx.model == GENUS0:
        # principal iff degree zero: L_P is all of A_{n-1}
        basis = []
        for i in range(n - 1):
            v = [0] * n
            v[i], v[i + 1] = 1, -1
            basis.append(v)
        return 1, basis
    base = ctx.points[0]
    classes = [ctx.ec_add(p, ctx.ec_neg(base)) for p in ctx.points[1:]]
    # image subgroup by orbit closure
    group = {INF}
    frontier = [INF]
    while frontier:
        g = frontier.pop()
        for c in classes:
            h = ctx.ec_add(g, c)
            if h not in group:
                group.add(h)
                frontier.append(h)
    j = len(group)
    # kernel of Z^{n-1} -> group on the classes c_i, as a sublattice
    gens = []
    for i, c in enumerate(classes):
        # order of c_i gives o_i e_i in the kernel
        o = 1
        acc = c
        while acc != INF:
            acc = ctx.ec_add(acc, c)
            o += 1
        v = [0] * (n - 1)
        v[i] = o
        gens.append(v)
    # every small combination completes a generating set
    for es in itertools.product(range(j), repeat=n - 1):
        acc = INF
        for e, c in zip(es, classes):
            acc = ctx.ec_add(acc, ctx.ec_mul(e, c))
        if acc == INF and any(es):
            gens.append(list(es))
    kernel = intmat.ZSpan(gens, n - 1)
    # lift to sum-zero vectors in Z^n: e_1 = -(e_2 + ... + e_n)
    return j, [[-sum(r)] + r for r in kernel.hnf]
