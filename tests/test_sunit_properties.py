"""Property tests: S-unit valuations and counts, and divisor-lattice counts,
against independent recounts.

``SUnitContext.ord_at`` and ``is_s_unit`` work on integer coordinates with a
cached divider per place.  They are compared here with the Fraction
algorithm they replaced: divide by the generator until the quotient leaves
O_K, and call x an S-unit when x prod p^(-ord_p(x)) and its inverse are both
integral.  ``count_sunits`` is compared with a walk of exponent vectors over
a box derived here in floating point, with each S-height taken from mpmath
logarithms of the exact embeddings; ``count_supported`` with a walk of the
whole cube that sums the points by repeated addition on the curve.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latheights import intmat
from latheights.funcfield import GENUS0, GENUS1, INF, CurveContext, DivisorLattice, count_supported
from latheights.lattice import _coefficient_box
from latheights.nf import nf_new
from latheights.reals import real_to_float
from latheights.sunits import SUnitContext, count_sunits

PROPERTY = settings(max_examples=100)

Q = nf_new([-1, 1], [[1]])
K2 = nf_new([-2, 0, 1], [[1, 0], [0, 1]])
# half-integral basis 1, (1 + sqrt5)/2
K5 = nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
KI = nf_new([1, 0, 1], [[1, 0], [0, 1]])


def _contexts():
    return {
        "Q-S23": SUnitContext(Q, s1=[(Q.rational(2), 2), (Q.rational(3), 3)]),
        "Q(sqrt2)-S(sqrt2)": SUnitContext(K2, s1=[(K2.gen(), 2)]),
        # sqrt2 (1 + sqrt2)^5: the same place, a skewed generator
        "Q(sqrt2)-S(58+41sqrt2)": SUnitContext(K2, s1=[(K2.element([58, 41]), 2)]),
        # 2 is inert (norm 4); (5 + sqrt5)/2 has norm 5 and lies over 5
        "Q(sqrt5)-S2,5": SUnitContext(
            K5, s1=[(K5.rational(2), 4), (K5.element([Fraction(5, 2), Fraction(1, 2)]), 5)]
        ),
        "Q(i)-S(1+i)": SUnitContext(KI, s1=[(KI.element([1, 1]), 2)], omega=4),
    }


CONTEXTS = _contexts()
NAMES = sorted(CONTEXTS)


# ---------------------------------------------------------------------------
# the Fraction reference: repeated division and integrality tests


def _ref_ord_integral(gen, y):
    k = 0
    while True:
        y = y / gen
        if not y.is_integral():
            return k
        k += 1


def _ref_ord(field, gen, x):
    den = x.denominator()
    k = _ref_ord_integral(gen, x * den)
    if den != 1:
        k -= _ref_ord_integral(gen, field.rational(den))
    return k


def _ref_is_s_unit(ctx, x):
    if x.is_zero():
        return False
    u = x
    for gen, _ in ctx.s1:
        u = u / gen ** _ref_ord(ctx.field, gen, x)
    return u.is_integral() and u.inv().is_integral()


# ---------------------------------------------------------------------------
# valuations and the S-unit test


def _element(field, nums, den):
    return field.element([Fraction(a, den) for a in nums[: field.degree]])


@st.composite
def _cases(draw):
    """(context, x): x = +-prod g^e times a small factor (often 1), so that
    S-units, near misses and arbitrary elements all occur."""
    name = draw(st.sampled_from(NAMES))
    ctx = CONTEXTS[name]
    field = ctx.field
    x = field.rational(draw(st.sampled_from([1, -1])))
    for g in ctx.all_gens:
        x = x * g ** draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["unit", "rational", "element"]))
    if kind == "rational":
        x = x * Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    elif kind == "element":
        nums = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=2))
        assume(any(nums[: field.degree]))
        x = x * _element(field, nums, draw(st.integers(1, 6)))
    return name, x


@PROPERTY
@given(_cases())
def test_ord_at_matches_repeated_division(case):
    name, x = case
    ctx = CONTEXTS[name]
    for gen, _ in ctx.s1:
        assert ctx.ord_at(gen, x) == _ref_ord(ctx.field, gen, x), (name, x, gen)


@PROPERTY
@given(_cases())
def test_is_s_unit_matches_reference(case):
    name, x = case
    ctx = CONTEXTS[name]
    assert ctx.is_s_unit(x) == _ref_is_s_unit(ctx, x), (name, x)


def test_s_unit_test_edge_cases():
    ctx = CONTEXTS["Q(i)-S(1+i)"]
    # (2 + i)/(2 - i) has norm 1 and no valuation at 1 + i, but it is not a unit
    x = KI.element([2, 1]) / KI.element([2, -1])
    assert not ctx.is_s_unit(x) and not _ref_is_s_unit(ctx, x)
    assert ctx.is_s_unit(KI.element([0, 1]))  # i, a root of unity
    assert ctx.is_s_unit(KI.rational(Fraction(1, 2)))  # 2 = -i (1 + i)^2
    assert not ctx.is_s_unit(KI.zero())
    ctx5 = CONTEXTS["Q(sqrt5)-S2,5"]
    assert ctx5.ord_at(K5.rational(2), K5.rational(Fraction(3, 8))) == -3
    # sqrt5 and (5 + sqrt5)/2 differ by a unit; 5 is ramified
    assert ctx5.ord_at(ctx5.s1[1][0], K5.element([0, 1])) == 1
    assert ctx5.ord_at(ctx5.s1[1][0], K5.rational(5)) == 2


# ---------------------------------------------------------------------------
# S-unit counts against an mpmath recount


def _mp_log_abs(ctx, a):
    """log|a|_v over S at 60 digits: the archimedean places of Q or Q(sqrt m)
    from the power-basis coefficients, the finite ones from the reference
    valuations."""
    with mpmath.workdps(60):
        c = [mpmath.mpf(x.numerator) / x.denominator for x in a.coeffs]
        if ctx.field.degree == 1:
            arch = [abs(c[0])]
        else:
            m = -ctx.field.minpoly[0]
            root = mpmath.sqrt(abs(m))
            if m > 0:
                arch = [abs(c[0] + c[1] * root), abs(c[0] - c[1] * root)]
            else:
                arch = [mpmath.hypot(c[0], c[1] * root)]
        vec = [mpmath.log(x) for x in arch]
        for gen, np in ctx.s1:
            vec.append(-mpmath.log(np) * _ref_ord(ctx.field, gen, a))
        return vec


def _float_caps(ctx, b):
    """Exponent caps B * ||row i of (V^T V)^-1 V^T||_1 (+1), V the log basis."""
    ll = ctx.log_lattice()
    with mpmath.workdps(40):
        b = mpmath.mpf(b.numerator) / b.denominator
        v = mpmath.matrix([[mpmath.mpf(real_to_float(c)) for c in col] for col in ll.basis]).T
        pinv = (v.T * v) ** -1 * v.T
        return [
            int(mpmath.floor(b * sum(abs(pinv[i, j]) for j in range(pinv.cols)))) + 1
            for i in range(pinv.rows)
        ]


@settings(max_examples=12)
@given(st.sampled_from(NAMES), st.sampled_from([Fraction(k, 4) for k in range(1, 13)]))
def test_count_sunits_matches_recount(name, b):
    ctx = CONTEXTS[name]
    caps = _float_caps(ctx, b)
    assume(math.prod(2 * c + 1 for c in caps) <= 1200)
    with mpmath.workdps(60):
        bound = mpmath.mpf(b.numerator) / b.denominator
    count, near = 0, 0
    for es in itertools.product(*[range(-c, c + 1) for c in caps]):
        a = ctx.field.one()
        for e, g in zip(es, ctx.all_gens):
            a = a * g ** e
        h = max(abs(c) for c in _mp_log_abs(ctx, a))
        with mpmath.workdps(60):
            near += abs(h - bound) < mpmath.mpf(10) ** -40
            count += h <= bound
    assume(not near)
    assert count_sunits(ctx, b) == ctx.omega * count
    # the walked box holds the library's proven one
    assert all(c <= f for c, f in zip(_coefficient_box(ctx.log_lattice().lattice, b), caps))


# ---------------------------------------------------------------------------
# function-field counts against a whole-cube walk on the curve


def _curve_points(q, a, b):
    pts = [INF]
    for x in range(q):
        for y in range(q):
            if (y * y - x ** 3 - a * x - b) % q == 0:
                pts.append((x, y))
    return pts


@st.composite
def _curves(draw):
    q = draw(st.sampled_from([3, 5, 7, 11]))
    if draw(st.booleans()):
        pts = [INF] + list(range(q))
        chosen = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=3, unique=True))
        return CurveContext(q, GENUS0, points=chosen)
    a, b = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
    assume((4 * a ** 3 + 27 * b ** 2) % q)
    pts = _curve_points(q, a, b)
    assume(len(pts) >= 2)
    chosen = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=3, unique=True))
    return CurveContext(q, GENUS1, a=a, b=b, points=chosen)


def _sum_by_addition(ctx, vec):
    acc = INF
    for e, p in zip(vec, ctx.points):
        step = p if e >= 0 else ctx.ec_neg(p)
        for _ in range(abs(e)):
            acc = ctx.ec_add(acc, step)
    return acc


@PROPERTY
@given(_curves(), st.integers(0, 4))
def test_count_supported_matches_recount(ctx, b):
    n = ctx.n
    count = 0
    for vec in itertools.product(range(-b, b + 1), repeat=n):
        if sum(vec) != 0:
            continue
        if ctx.model == GENUS0 or _sum_by_addition(ctx, vec) == INF:
            count += 1
    assert count_supported(ctx, b) == (ctx.q - 1) * count


@PROPERTY
@given(_curves(), st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_divisor_lattice_contains_matches_fresh_hnf(ctx, vec):
    lat = DivisorLattice(ctx)
    vec = vec[: ctx.n]
    vec[0] -= sum(vec)  # onto the sum-zero hyperplane
    assert lat.contains(vec) == intmat.lattice_contains(lat.basis, vec)
    if ctx.model == GENUS1:
        assert lat.contains(vec) == (_sum_by_addition(ctx, vec) == INF)


@pytest.mark.parametrize("vec", [[0, 0], [1, -1], [1, 0, 0], [0, 0, 0, 0]])
def test_divisor_lattice_rejects_bad_shapes(vec):
    lat = DivisorLattice(CurveContext(5, GENUS0, points=[0, 1, INF]))
    assert not lat.contains(vec)
