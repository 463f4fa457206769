"""Evaluators for the explicit counting constants and bounds, exact
enumeration oracles for the counted sets, and verification drivers.

Every bound is compared against an independently enumerated exact count;
verdicts are only VIOLATED when exact arithmetic strictly separates the
two sides, and INCONCLUSIVE when the precision cap is hit first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import lattice, linalg
from .errors import BudgetExceeded, PrecisionExhausted, ValidationError
from .heights import height_h as height_h_nf
from .lattice import _coefficient_box, _rat_upper, enumerate_cube
from .modules import OkModule, minima_ck_zk, z_combination
from .nf import NumberField
from .quat import (
    DSubspace,
    QuatAlgebra,
    QuatElement,
    QuatOrder,
    _arch_sq_prod,
    bracket_inv,
    finite_factor,
    height_Hinf,
    intersection_module,
    minima_cz_order,
    module_gram,
    norm_grams,
    order_constants,
    order_module,
    s_t_constants,
    subspace_height_HO,
)
from .reals import (
    QuadReal,
    Rooted,
    abs_real,
    cmp_real,
    log_real,
    pi_real,
    pow_real,
    real_to_float,
    to_real,
)

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"
INCONCLUSIVE = "INCONCLUSIVE"
LOWER = "LOWER"
UPPER = "UPPER"


@dataclass
class BoundReport:
    instance: str
    radius: object
    exact_count: Optional[int]
    bound_value: object
    kind: str
    applicable: bool
    verdict: str
    note: str = ""


def as_rooted(x) -> Rooted:
    if isinstance(x, Rooted):
        return x
    return Rooted(to_real(x), 1)


def _pow2_half(n: int) -> Rooted:
    """2^{n/2} exactly, n any integer."""
    base = Fraction(2) ** n
    return Rooted(base, 2)


def _verdict(kind: str, exact: int, bound_real, context: str) -> str:
    """HOLDS/VIOLATED/INCONCLUSIVE for a bound against an exact count."""
    try:
        c = cmp_real(bound_real, exact, context=context)
    except PrecisionExhausted:
        return INCONCLUSIVE
    if kind == LOWER:
        return HOLDS if c <= 0 else VIOLATED
    return HOLDS if c >= 0 else VIOLATED


def lemma_reports(instance: str, radius, exact: int, n: int, big_l: int, det_val, c,
                  scale=1, integral: bool = False) -> Tuple[BoundReport, BoundReport]:
    """(LOWER, UPPER) reports of the counting lemma for an exact count: scale
    times ``lattice.bound_lower``/``bound_upper`` of a rank-L lattice in R^n
    with determinant det_val and sup-norm minimum c at the cube radius."""
    radius = Fraction(radius)
    up = scale * lattice.bound_upper(n, big_l, det_val, c, radius, integral)
    upper = BoundReport(instance, radius, exact, up, UPPER, True,
                        _verdict(UPPER, exact, up, "lemma upper"))
    try:
        low = scale * lattice.bound_lower(big_l, det_val, c, radius)
    except (ValidationError, PrecisionExhausted):  # R misses the threshold
        return BoundReport(instance, radius, exact, None, LOWER, False, INCONCLUSIVE,
                           note="below threshold"), upper
    return BoundReport(instance, radius, exact, low, LOWER, True,
                       _verdict(LOWER, exact, low, "lemma lower")), upper


def _lower_report(instance: str, r: Rooted, constants, power: int, count,
                  context: str) -> BoundReport:
    """LOWER report of (R/thresh - 1)(growth R - 1)^power against count(),
    the exact count, applicable from R >= thresh, with (thresh, growth) =
    constants().  A count over the budget gives an INCONCLUSIVE report that
    says so, and so does a comparison that the precision cap leaves
    undecided, in the constants or in the count: its note names the
    comparison's context."""
    applicable = False  # until R >= thresh is decided
    try:
        thresh, growth = constants()
        applicable = r.cmp(thresh, context=context + " threshold") >= 0
        try:
            exact = count()
        except BudgetExceeded:
            return BoundReport(instance, r, None, None, LOWER, applicable, INCONCLUSIVE,
                               note="enumeration budget exceeded")
    except PrecisionExhausted as e:
        return BoundReport(instance, r, None, None, LOWER, applicable, INCONCLUSIVE,
                           note="precision cap reached: %s" % e)
    if not applicable:
        return BoundReport(instance, r, exact, None, LOWER, False, INCONCLUSIVE,
                           note="below threshold")
    main = (r * thresh.inverse()).as_real() - to_real(1)
    factor = (growth * r).as_real() - to_real(1)
    bound = main * factor ** power
    return BoundReport(instance, r, exact, bound, LOWER, True,
                       _verdict(LOWER, exact, bound, context + " verdict"))


# ---------------------------------------------------------------------------
# module counting: constants, oracle, lower bound


def const_E1_E2(module: OkModule, minima=None) -> Tuple[Rooted, Rooted]:
    """Threshold and growth constants for the module point-count lower bound."""
    field = module.field
    d = field.degree
    r1 = field.signature[0]
    big_l = module.rank
    if minima is None:
        minima = minima_ck_zk(module)
    c, _, z, _ = minima
    ld = big_l * d
    e1 = _pow2_half(big_l * r1 - 3) * ld * z * c ** (ld - 1)
    e2 = _pow2_half(3) * c * (z * ld).inverse()
    return e1, e2


def _fast_count_totally_real(module: OkModule, rd_frac: Fraction) -> Optional[int]:
    """Count of {x in M : h(x)^d <= T}, T = rd >= 1, for integral modules
    over totally real fields of degree <= 2, on integers only.

    Every coordinate of x is y / den with y = va + vb sqrt r in Z[sqrt r]
    (``RealLattice.scaled_columns``).  For d = 1, h(x) den = max(den,
    max_i |y_i|), so the count is that of the lattice points of the cube of
    radius T, counted as ``lattice.enumerate_cube`` counts them, with no rows
    built.
    For d = 2, h(x)^2 den^2 = max(den, Y) max(den, Y'), with Y and Y' the
    largest |y_i| and |y'_j| of the two embeddings.  It is at most T den^2
    exactly when |y_i| <= T den, |y'_j| <= T den and |y_i y'_j| <= T den^2
    for every pair (i, j); y_i y'_j lies in Z[sqrt r], so each pair is one
    ``lattice._quad_within`` test, and no number-field element or height
    is formed.  Only the dyadic strips of that hyperbolic region are walked
    (``lattice.box_points``): S_0 = {Y <= den, Y' <= T den} and
    S_k = {Y <= 2^k den, Y' <= T den / 2^(k-1)} for k = 1, ...,
    ceil(log2 T) cover it, since 2^(k-1) < a <= 2^k for a = max(1, Y/den)
    gives max(1, Y'/den) <= T/a < T/2^(k-1).  The strip bounds are rounded
    up to integers, which keeps them a cover.  The budget is still checked
    on the whole coefficient box of the cube of radius T.
    """
    import numpy as np

    field = module.field
    d = field.degree
    if d > 2 or field.signature[0] != d:
        return None
    if any(xi.denominator() != 1 for v in module.z_basis for xi in v):
        return None
    lat = module.module_lattice()
    scaled = lat.scaled_columns()
    if scaled is None:
        return None
    root, den, _, _ = scaled
    caps = _coefficient_box(lat, rd_frac)
    if d == 1:
        return len(lattice._cube_points(scaled, caps, rd_frac))
    tn, td = rd_frac.numerator, rd_frac.denominator
    big_n = lat.ambient_dim // 2  # module coordinates per embedding
    strips, k = [[den] * big_n + [-(-tn * den // td)] * big_n], 1
    while 2 ** (k - 1) < rd_frac:
        strips.append([2 ** k * den] * big_n + [-(-tn * den // (td * 2 ** (k - 1)))] * big_n)
        k += 1
    count = 0
    for va, vb in lattice.box_points(scaled, caps, strips):
        v = int(max(np.abs(va).max(), np.abs(vb).max()))
        top = tn * den * den + 2 * td * (1 + root) * v * v  # bounds every pair test
        if top * top * (1 + root) >= 2 ** 62:
            va, vb = va.astype(object), vb.astype(object)
        ya, yb = va[:, :big_n, None], vb[:, :big_n, None]
        za, zb = va[:, None, big_n:], vb[:, None, big_n:]
        ok = lattice._quad_within(va, vb, root, tn * den, td).all(axis=1)
        pairs = lattice._quad_within(ya * za + root * yb * zb, ya * zb + yb * za, root,
                                     tn * den * den, td)
        count += int((ok & pairs.all(axis=(1, 2))).sum())
    return count


def exact_count_module(module: OkModule, radius) -> int:
    """|{x in M : h(x) <= R}| by exhaustive certified enumeration.

    Every embedded coordinate of x is bounded by h(x)^d, so a cube of
    radius R^d contains all candidates; membership is decided exactly.
    """
    r = as_rooted(radius)
    if r.cmp(1, context="count radius") < 0:
        raise ValidationError("count radius must be at least 1")
    field = module.field
    d = field.degree
    rd = r ** d
    if rd.k == 1:
        base = rd.base
        if isinstance(base, QuadReal) and base.is_rational:
            fast = _fast_count_totally_real(module, base.as_fraction())
            if fast is not None:
                return fast
    cube = _rat_upper((r ** d).as_real())
    count = 1  # the zero vector has height 1
    for m in enumerate_cube(module.module_lattice(), cube):
        if all(c == 0 for c in m):
            continue
        x = z_combination(module.z_basis, m)
        h_pow = height_h_nf(field, x).as_rooted()  # value h(x)
        if (h_pow ** d).cmp(rd, context="module height filter") <= 0:
            count += 1
    return count


def thm1_threshold(module: OkModule, minima=None) -> Tuple[Rooted, Rooted]:
    """(E1 |D|^{L/2}, E2): the threshold and growth constant of thm1_lower."""
    e1, e2 = const_E1_E2(module, minima=minima)
    disc = abs(module.module_discriminant())
    return e1 * Rooted(disc ** module.rank, 2), e2


def thm1_lower(module: OkModule, radius, instance: str = "module", minima=None) -> BoundReport:
    """Lower bound on |{x in M : h(x) <= R}| versus the enumeration oracle."""
    r = as_rooted(radius)
    return _lower_report(instance, r, lambda: thm1_threshold(module, minima),
                         module.rank * module.field.degree - 1,
                         lambda: exact_count_module(module, r), "thm1")


# ---------------------------------------------------------------------------
# quaternion counting: constants, oracles, bounds


def const_E3_E4(order: QuatOrder, z: DSubspace, minima=None):
    """(E3, E4, E3') for the subspace point-count lower bound."""
    alg = order.algebra
    d = alg.field.degree
    big_l = z.dim
    if minima is None:
        minima = minima_cz_order(z, order)
    c_o, _, z_o, _ = minima
    s, _, _, _ = s_t_constants(alg)
    nd = Fraction(order.discriminant_norm())
    ld = big_l * d
    e3 = (
        _pow2_half(4 * big_l * (d - 2) + 3)
        * ld
        * s
        * z_o
        * c_o ** (4 * ld - 1)
        * Rooted(nd ** big_l, 2)
    )
    e4 = c_o * (_pow2_half(3) * ld * s * z_o).inverse()
    e3p = (
        Rooted(Fraction(2) ** (4 * big_l * (2 * d - 1)))
        * (s * z_o * ld) ** (4 * ld)
        * Rooted(nd ** big_l, 2)
    ).inverse()
    return e3, e4, e3p


def exact_count_zo(z: DSubspace, order: QuatOrder, radius) -> int:
    """|{x in Z cap O^N : h(x) <= R}| by enumeration of the bracket module,
    h(x) <= R decided on the integer reduced norms N(x_l) (``_shell_heights``)."""
    import numpy as np

    r = as_rooted(radius)
    alg = z.algebra
    _, t, _, _ = s_t_constants(alg)
    module = intersection_module(z, order)
    cube = _rat_upper(((r * t.inverse()) ** alg.field.degree).as_real())
    arr = enumerate_cube(module.module_lattice(), cube).rows
    arr = arr[arr.any(axis=1)]
    inside = _shell_heights(alg.field, norm_grams(module, alg), arr, {},
                            lambda h: h.cmp(r, context="zo height filter") <= 0)
    return (r.cmp(1, context="zo zero") >= 0) + sum(inside)  # zero has h = 1


def main1_threshold(z: DSubspace, order: QuatOrder, minima=None) -> Tuple[Rooted, Rooted]:
    """(E3 H^O(Z)^{4d}, E4): the threshold and growth constant of thm_main1_lower."""
    e3, e4, _ = const_E3_E4(order, z, minima=minima)
    return e3 * subspace_height_HO(z, order) ** (4 * z.algebra.field.degree), e4


def thm_main1_lower(z: DSubspace, order: QuatOrder, radius,
                    instance: str = "subspace", minima=None) -> BoundReport:
    """Lower bound on |{x in Z cap O^N : h(x) <= R}| versus enumeration."""
    r = as_rooted(radius)
    return _lower_report(instance, r, lambda: main1_threshold(z, order, minima),
                         4 * z.dim * order.algebra.field.degree - 1,
                         lambda: exact_count_zo(z, order, r), "main1")


def weighted_module_det_sq(alg: QuatAlgebra, module: OkModule):
    """Squared covolume of a bracket module under the norm-weighted embedding.

    Channel weights (1, |alpha|^{1/2}, |beta|^{1/2}, |alpha beta|^{1/2}) per
    quaternionic coordinate make the quaternion norm the Euclidean norm.  On
    the module lattice's channel-major columns B, row r belongs to channel
    r // 4N and quaternion component r mod 4, so the squared covolume is
    det(B^T W B) with W the diagonal of squared weights.
    """
    field = alg.field
    cols = module.module_lattice().columns
    weights = []
    for a, b in zip(field.channel_values(alg.alpha), field.channel_values(alg.beta)):
        a, b = abs_real(a), abs_real(b)
        weights += [to_real(1), a, b, a * b] * (module.ambient // 4)
    wcols = [[w * x for w, x in zip(weights, col)] for col in cols]
    n = len(cols)
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = sum(map(operator.mul, wcols[i][1:], cols[j][1:]),
                                          wcols[i][0] * cols[j][0])
    return linalg.det(gram)


def det_mz_check(z: DSubspace, order: QuatOrder) -> bool:
    """Certify det_w(M_Z) = (sqrt(N(Delta_O)) |D_K|^2 / 4^d)^L H^O(Z)^{4d}.

    det_w is the covolume under the norm-weighted embedding; the identity
    ties the bracket-module lattice to the subspace height and the order
    discriminant.
    """
    alg = z.algebra
    field = alg.field
    d = field.degree
    big_l = z.dim
    module = intersection_module(z, order)
    det_sq = weighted_module_det_sq(alg, module)
    ho = subspace_height_HO(z, order)
    nd = Fraction(order.discriminant_norm())
    dk = Fraction(abs(field.discriminant))
    coef_sq = (nd * dk ** 4 / Fraction(4) ** (2 * d)) ** big_l
    rhs = Rooted(coef_sq, 2) * ho ** (4 * d)
    return Rooted(det_sq, 2).cmp(rhs, context="det consistency") == 0


def loher_masser_upper(d: int, n: int, radius):
    """(1088 d log d)^n R^{(n+1)d} as a refinable enclosure."""
    if d < 2:
        raise ValidationError("the counting upper bound requires degree >= 2")
    r = as_rooted(radius)
    base = to_real(1088 * d) * log_real(d)
    # successive products, not base ** n: square-and-multiply gives a
    # different enclosure, and the reported midpoint and radius with it
    head = to_real(1)
    for _ in range(n):
        head = head * base
    return head * (r ** ((n + 1) * d)).as_real()


def exact_count_d(algebra: QuatAlgebra, order: QuatOrder, n: int, radius) -> int:
    """|{x in D^N : h(x) <= R}| with the order-finite-part height.

    Every x is y/M for one y in O^N and the least positive integer M with
    M x in O^N.  The sweep runs over y on the lattice of O^N's own Z-basis
    (``quat.order_module``) and skips (M, y) when M shares a factor with
    every order coordinate of y, so each x is counted once.  The finite
    factor M^{4d}/[O : OM + sum O y_l] (``quat.finite_factor``) is at least
    M and h_inf >= 1, so M <= R^{4d}; it is also at least 1, so h_inf(x) <= R
    bounds every embedded coordinate of x by (R/t)^d.  N(x_l) = N(y_l)/M^2
    comes from the integer norm forms of O^N, and the finite factor is
    computed only when h_inf(x)^{4d} M <= R^{4d}.
    """
    import numpy as np

    r = as_rooted(radius)
    field = algebra.field
    d = field.degree
    _, t, _, _ = s_t_constants(algebra)
    cap = _rat_upper(((r * t.inverse()) ** d).as_real())  # h_K([x]) <= R/t
    m_max = math.floor(_rat_upper((r ** (4 * d)).as_real()))
    module = order_module(order, n)
    lat = module.module_lattice()
    # fail fast: the whole denominator sweep must fit the budget
    total = 0
    for m in range(1, m_max + 1):
        total += lattice._box_size(_coefficient_box(lat, cap * m))
        if total > lattice.ENUM_BUDGET:
            raise BudgetExceeded("denominator sweep passes %d candidates at M = %d "
                                 "(budget %d)" % (total, m, lattice.ENUM_BUDGET))
    norms = norm_grams(module, algebra)
    w4 = 4 * d
    count = int(r.cmp(1, context="zero height") >= 0)  # zero has h = 1
    for m in range(1, m_max + 1):
        arr = enumerate_cube(lat, cap * m).rows
        arr = arr[arr.any(axis=1) & (np.gcd(np.gcd.reduce(arr, axis=1), m) == 1)]
        # h_inf(y/m) where h_inf^{4d} m <= R^{4d}, as h^{4d} >= h_inf^{4d} m
        m_root = Rooted(m, w4)
        hinf = _shell_heights(field, [(g, den * m * m) for g, den in norms], arr, {},
                              lambda h: h if (h * m_root).cmp(r, context="d height filter") <= 0
                              else None)
        for c, h in zip(arr.tolist(), hinf):
            if h is None:
                continue
            if m > 1:
                fin = finite_factor(order, m, [c[i:i + w4] for i in range(0, len(c), w4)])
                if (h * Rooted(fin, w4)).cmp(r, context="d height filter") > 0:
                    continue
            count += 1
    return count


def thm_main2_upper(algebra: QuatAlgebra, order: QuatOrder, n: int, radius,
                    instance: str = "quaternion") -> BoundReport:
    """Upper bound on |{x in D^N : h(x) <= R}| versus enumeration."""
    d = algebra.field.degree
    if d < 2:
        raise ValidationError("the counting upper bound requires degree >= 2")
    r = as_rooted(radius)
    _, t, _, _ = s_t_constants(algebra)
    bound = loher_masser_upper(d, 4 * n, r * t.inverse())
    try:
        exact = exact_count_d(algebra, order, n, r)
    except BudgetExceeded:
        return BoundReport(instance, r, None, bound, UPPER, True, INCONCLUSIVE,
                           note="enumeration budget exceeded")
    verdict = _verdict(UPPER, exact, bound, "main2 verdict")
    return BoundReport(instance, r, exact, bound, UPPER, True, verdict)


# ---------------------------------------------------------------------------
# field constants for the search bounds


def _gamma_half(num2: int):
    """Gamma(num2/2) exactly: rational for even num2, rational * sqrt(pi) else.

    Returns (rational, pi_half_power) with value = rational * pi^{pi_half/2}.
    """
    if num2 <= 0:
        raise ValidationError("gamma argument must be positive")
    if num2 % 2 == 0:
        return Fraction(math.factorial(num2 // 2 - 1)), 0
    # Gamma(k + 1/2) = (2k)! / (4^k k!) sqrt(pi)
    k = (num2 - 1) // 2
    return Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k)), 1


def const_rv(is_real: bool, j: int):
    """Per-place ellipsoid constant as a refinable enclosure."""
    if j == 0:
        # boundary convention: empty product value 1
        return to_real(1)
    if j < 0:
        raise ValidationError("rv argument must be nonnegative")
    pi = pi_real()
    if is_real:
        rat, pih = _gamma_half(j + 2)  # Gamma(j/2 + 1)
        # (rat * pi^{pih/2})^{1/j} * pi^{-1/2}
        val = pow_real(rat, Fraction(1, j)) * pow_real(pi, Fraction(pih, 2 * j))
        return val * pow_real(pi, Fraction(-1, 2))
    rat = Fraction(math.factorial(j))  # Gamma(j + 1)
    val = pow_real(rat, Fraction(1, 2 * j))
    return val * pow_real(2 * pi, Fraction(-1, 2))


def const_TK(field: NumberField, ell: int, j: int):
    """Dimensional field constant used in the small-zero search bounds."""
    if ell < 1 or j < 1:
        raise ValidationError("T_K arguments must be positive")
    d = field.degree
    r1, r2 = field.signature
    mx = max(ell, 9)
    dk = Fraction(abs(field.discriminant))
    val = to_real(27)
    val = val * pow_real(pi_real(), Fraction(-(r2 * ell * (9 * ell + 14)), 2 * d))
    exp2 = Fraction(r2 * ell * (9 * ell + 14) + (21 * ell - 21) * d + 5 * r1 + 4, 2 * d)
    val = val * pow_real(2, exp2 + mx)
    val = val * pow_real(ell, Fraction(27 * ell + 51, 2))
    val = val * pow_real(j, Fraction(2, d)) * pow_real(j + 2, Fraction(3, d))
    val = val * pow_real(dk, Fraction(ell * (9 * ell + 14) + 14, 2 * d) + mx)
    rv_prod = to_real(1)
    for _ in range(r1):
        rv_prod = rv_prod * pow_real(const_rv(True, ell - 1), Fraction(1, d))
    for _ in range(r2):
        rv_prod = rv_prod * pow_real(const_rv(False, ell - 1), Fraction(2, d))
    return val * rv_prod ** mx


def const_A(order: QuatOrder, n: int, big_l: int, big_m: int, big_j: int):
    """Search-bound constant combining s, t, the order defect, and T_K."""
    alg = order.algebra
    field = alg.field
    s, t, _, _ = s_t_constants(alg)
    _, defect = order_constants(order)
    val = _pow2_half(9 * big_l + 13).as_real()
    val = val * (s ** (9 * big_l + 12)).as_real()
    t_pow = t.inverse() ** (9 * big_l + 11)
    val = val * Rooted(t_pow.base, t_pow.k * 2).as_real()  # t^{-(9L+11)/2}
    val = val * (defect ** (4 * (n - big_l) * (9 * big_l + 12))).as_real()
    val = val * const_TK(field, big_l, big_m + 2 * big_j + 1)
    return val


# ---------------------------------------------------------------------------
# constructive searches


def _d_rank(vectors: Sequence[Sequence[QuatElement]]) -> int:
    """Right rank of vectors in D^N: the pivots of the matrix with the
    vectors as columns, so v and v*mu are dependent."""
    return linalg.rank(linalg.transpose(vectors))


def _subspace_form(u: DSubspace) -> List[List[QuatElement]]:
    """C*C for the constraint rows C of U: x*(C*C)x = sum_r N((Cx)_r) vanishes
    exactly on U, as the reduced norm of a definite algebra is totally positive
    off 0."""
    rows, cols = u.constraint_rows(), range(u.ambient)
    return [[sum((r[a].conj() * r[b] for r in rows), u.algebra.zero()) for b in cols]
            for a in cols]


def _form_values(grams, arr):
    """[m^t G m for every row m of arr] for each integer matrix G of grams: int64
    under an explicit overflow guard, Python ints past it (as lattice._int_dtype)."""
    import numpy as np

    n = arr.shape[1]
    big = max(abs(x) for g in grams for row in g for x in row)
    mx = int(np.abs(arr).max(initial=1))
    dtype = np.int64 if n * n * big * mx * mx < 2 ** 62 else object
    arr = arr.astype(dtype)
    return [((arr @ np.array(g, dtype=dtype)) * arr).sum(axis=1) for g in grams]


def _height_key(h: Rooted) -> float:
    return real_to_float(h.as_real())


def _shell_heights(field: NumberField, norms, arr, memo, value=None) -> list:
    """value(h(x)), or the searches' (float key, h(x)), for each row m of arr:
    h(x) from the integer reduced norms of x's coordinates (``quat.norm_grams``)
    by the channel path of quat.height_h, memoized on them."""
    vals = [(_form_values(grams, arr), den) for grams, den in norms]
    # one flat key per row, the coordinates of N(x_1), N(x_2), ..., from
    # each coordinate column read once as Python ints
    keys = list(zip(*(v.tolist() for coords, _ in vals for v in coords)))
    for key in dict.fromkeys(keys):  # distinct keys, in row order
        if key not in memo:
            it = iter(key)
            nrms = [field.scaled_element([next(it) for _ in coords], den)
                    for coords, den in vals]
            h = Rooted(_arch_sq_prod(field, [field.one()] + nrms), 2 * field.degree)
            memo[key] = (_height_key(h), h) if value is None else value(h)
    return [memo[key] for key in keys]


def _search_shells(module: OkModule, alg: QuatAlgebra, zeros, avoid_subspaces,
                   avoid_forms, max_radius: Fraction):
    """Yield each shell's surviving (height, m) list in search order.

    Shells are the new points of the cube of radius 1, 2, 4, ... up to
    max_radius, with x = sum_i m_i z_i over the module's Z-basis.  x survives
    when every form of ``zeros`` vanishes at x, x lies in no avoided subspace
    and no avoided form vanishes at x: all decided on integer Gram matrices
    (``quat.module_gram``) for the whole shell, before any height.  Heights of
    the survivors are sorted stably by float key, and a stable sort commutes
    with the filters: the order is that of sorting first, filtering after."""
    import numpy as np

    lat = module.module_lattice()
    filters = [(module_gram(module, f)[0], True) for f in zeros]
    avoid = [_subspace_form(u) for u in avoid_subspaces] + list(avoid_forms)
    filters += [(module_gram(module, f)[0], False) for f in avoid]
    norms = norm_grams(module, alg)
    memo = {}
    emitted = set()
    radius = Fraction(1)
    while radius <= max_radius:
        pts = [m for m in enumerate_cube(lat, radius) if any(m) and m not in emitted]
        emitted.update(pts)
        arr = np.array(pts, dtype=np.int64).reshape(len(pts), lat.rank)
        for grams, zero_wanted in filters:
            arr = arr[np.all([v == 0 for v in _form_values(grams, arr)], axis=0) == zero_wanted]
        batch = list(zip(_shell_heights(alg.field, norms, arr, memo), map(tuple, arr.tolist())))
        batch.sort(key=lambda p: p[0][0])
        yield [(h, m) for (_, h), m in batch]
        radius *= 2


def search_basis(z: DSubspace, order: QuatOrder,
                 avoid_subspaces: Sequence[DSubspace] = (),
                 avoid_forms: Sequence[Sequence[Sequence[QuatElement]]] = (),
                 max_radius: Fraction = Fraction(64)) -> Dict[str, object]:
    """Find a small basis of Z over D avoiding subspaces and form zero sets.

    Returns the basis, the heights of its vectors, the search bound, and a
    PASS/FAIL/INCONCLUSIVE status comparing the last height with the bound;
    raises BudgetExceeded when max_radius is reached first.  The basis is
    in search order, not in certified height order: shell by shell as the
    cube radius doubles, each shell sorted by a float approximation of the
    height, and a later shell can hold smaller heights (ROADMAP item 4).

    Filter order: on each shell the avoided subspaces and form zero sets
    are removed first, on integer coordinates; heights are computed only
    for the survivors, and the right D-rank test runs on them in search order.
    QuatElements are built only for rank-test candidates and the basis.
    """
    alg = z.algebra
    field = alg.field
    d = field.degree
    big_l = z.dim
    big_m = len(avoid_subspaces)
    big_j = len(avoid_forms)
    module = intersection_module(z, order)
    basis: List[List[QuatElement]] = []
    heights: List[Rooted] = []
    for batch in _search_shells(module, alg, (), avoid_subspaces, avoid_forms, max_radius):
        for h, m in batch:
            if len(basis) == big_l:
                break
            xs = bracket_inv(alg, z_combination(module.z_basis, m))
            if basis and _d_rank(basis + [xs]) != len(basis) + 1:
                continue
            basis.append(xs)
            heights.append(h)
        if len(basis) == big_l:
            break
    if len(basis) < big_l:
        raise BudgetExceeded(
            "basis search exhausted its radius budget (%d of %d found)"
            % (len(basis), big_l)
        )
    ho = subspace_height_HO(z, order)
    s, _, _, _ = s_t_constants(alg)
    _, defect = order_constants(order)
    dk = Fraction(abs(field.discriminant))
    bound = to_real(4 * big_l)
    bound = bound * pow_real(big_m + 2 * big_j + 1, Fraction(1, d))
    bound = bound * pow_real(dk, Fraction(big_l + 1, 2 * d))
    bound = bound * s.as_real()
    bound = bound * (defect ** (4 * (z.ambient - big_l))).as_real()
    bound = bound * (ho ** 4).as_real()
    top = heights[-1]
    try:
        ok = cmp_real(top.as_real(), bound, context="basis bound") <= 0
        status = "PASS" if ok else "FAIL"
    except PrecisionExhausted:
        status = INCONCLUSIVE
    return {
        "basis": basis,
        "heights": heights,
        "bound": bound,
        "status": status,
    }


def search_isotropic(form, z: DSubspace, order: QuatOrder,
                     avoid_subspaces: Sequence[DSubspace] = (),
                     avoid_forms: Sequence[Sequence[Sequence[QuatElement]]] = (),
                     max_radius: Fraction = Fraction(64)) -> Dict[str, object]:
    """Find a small zero of a hermitian form in Z avoiding the given sets.

    Returns the point, its height, the explicit search bound and a
    PASS/FAIL/INCONCLUSIVE status comparing the two; raises BudgetExceeded
    when max_radius is reached first.

    Filter order: on each shell the zeros of the form are taken first, then
    the avoided subspaces and form zero sets are removed, all on integer
    coordinates; heights are computed only for the survivors, and the point
    is the first survivor in search order (not certified height order, as
    in search_basis).  Only that point is built as QuatElements.
    """
    alg = z.algebra
    d = alg.field.degree
    big_l = z.dim
    big_m = len(avoid_subspaces)
    big_j = len(avoid_forms)
    module = intersection_module(z, order)
    found = None
    for batch in _search_shells(module, alg, [form], avoid_subspaces, avoid_forms, max_radius):
        if batch:
            h, m = batch[0]
            found = (h, bracket_inv(alg, z_combination(module.z_basis, m)))
            break
    if found is None:
        raise BudgetExceeded("isotropic search exhausted its radius budget")
    h, xs = found
    a_const = const_A(order, z.ambient, big_l, big_m, big_j)
    hinf_f = height_Hinf([e for row in form for e in row])
    w = hinf_f ** (9 * big_l + 11)
    hf_pow = Rooted(w.base, w.k * 2)  # H_inf(F)^{(9L+11)/2}
    ho = subspace_height_HO(z, order)
    bound = a_const * hf_pow.as_real() * (ho ** (4 * (9 * big_l + 12))).as_real()
    try:
        ok = cmp_real(h.as_real(), bound, context="isotropic bound") <= 0
        status = "PASS" if ok else "FAIL"
    except PrecisionExhausted:
        status = INCONCLUSIVE
    return {"point": xs, "height": h, "bound": bound, "status": status}
