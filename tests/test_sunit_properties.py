"""Property tests: S-unit valuations, heights and counts, and divisor-lattice
counts, against independent recounts.

``SUnitContext._s_valuations`` works on integer coordinates with a cached
divider per place.  It is compared here with the Fraction algorithm it
replaced: divide by the generator until the quotient leaves O_K, and call x
an S-unit when x prod p^(-ord_p(x)) and its inverse are both integral.
``SUnitContext.s_height_le`` is compared with the interval S-height
``s_height`` on every element the count walks.  ``count_sunits`` is compared
with a walk of exponent vectors over a box derived here in floating point,
with each S-height taken from mpmath logarithms of the exact embeddings;
``count_supported`` with a walk of the whole cube that sums the points by
repeated addition on the curve.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latheights import intmat, sunits
from latheights.funcfield import GENUS0, GENUS1, INF, CurveContext, DivisorLattice, count_supported
from latheights.lattice import _coefficient_box
from latheights.nf import nf_new
from latheights.reals import cmp_real, endpoints, log_real, real_to_float
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
        "Q(i)-S(1+i)": SUnitContext(KI, s1=[(KI.element([1, 1]), 2)]),
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


def _ord(ctx, gen, x):
    """ord_gen(x) = ord_gen(y) - ord_gen(den) for x = y/den, by the
    library's integer dividers, for any x != 0."""
    n, t, _, _ = ctx._place(gen)
    c, den = ctx.field.scaled_coords(x)
    return sunits._ord(n, t, c)[0] - sunits._ord(n, t, [den * e for e in ctx.field.one_coords])[0]


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_s_valuations_divide_once_per_unit_of_valuation(monkeypatch, k):
    """x = 2^k eps / 5 with the unit eps: the pass divides by 2 k + 1 times
    at its place (k that succeed, one that fails), not once more per unit
    of valuation to form the unit part.  5 = gen^2 times a unit at the
    place over 5, so ord(x) = -2 there, and ord(5) is memoized."""
    ctx = CONTEXTS["Q(sqrt5)-S2,5"]
    (two, _), (five, _) = ctx.s1
    x = two ** k * ctx.unit_gens[0] / 5
    assert ctx._s_valuations(x) == [k, -2]  # memoizes ord(5) at each place
    calls = []
    divide = sunits._divide

    def spy(n, t, c):
        calls.append(n)
        return divide(n, t, c)

    monkeypatch.setattr(sunits, "_divide", spy)
    assert ctx._s_valuations(x) == [k, -2]
    assert calls.count(ctx._place(two)[0]) == k + 1
    assert calls.count(ctx._place(five)[0]) == 1


@PROPERTY
@given(_cases())
def test_s_valuations_match_repeated_division(case):
    name, x = case
    ctx = CONTEXTS[name]
    ref = [_ref_ord(ctx.field, gen, x) for gen, _ in ctx.s1]
    assert [_ord(ctx, gen, x) for gen, _ in ctx.s1] == ref, (name, x)
    vals = ctx._s_valuations(x)
    assert vals is None or vals == ref, (name, x)


@PROPERTY
@given(_cases())
def test_s_valuations_none_exactly_off_s_units(case):
    name, x = case
    ctx = CONTEXTS[name]
    assert (ctx._s_valuations(x) is not None) == _ref_is_s_unit(ctx, x), (name, x)


def test_s_unit_test_edge_cases():
    ctx = CONTEXTS["Q(i)-S(1+i)"]
    # (2 + i)/(2 - i) has norm 1 and no valuation at 1 + i, but it is not a unit
    x = KI.element([2, 1]) / KI.element([2, -1])
    assert ctx._s_valuations(x) is None and not _ref_is_s_unit(ctx, x)
    assert ctx._s_valuations(KI.element([0, 1])) == [0]  # i, a root of unity
    assert ctx._s_valuations(KI.rational(Fraction(1, 2))) == [-2]  # 2 = -i (1 + i)^2
    assert ctx._s_valuations(KI.zero()) is None
    ctx5 = CONTEXTS["Q(sqrt5)-S2,5"]
    assert _ord(ctx5, K5.rational(2), K5.rational(Fraction(3, 8))) == -3
    assert ctx5._s_valuations(K5.rational(Fraction(3, 8))) is None
    assert ctx5._s_valuations(K5.rational(Fraction(1, 8))) == [-3, 0]
    # sqrt5 and (5 + sqrt5)/2 differ by a unit; 5 is ramified
    assert ctx5._s_valuations(K5.element([0, 1])) == [0, 1]
    assert ctx5._s_valuations(K5.rational(5)) == [0, 2]


# ---------------------------------------------------------------------------
# the exact S-height filter against the interval S-height


def _bench_contexts():
    """The S-unit contexts of the sunit-ffield benchmark workload, and Q(i)
    with S = {1 + i}."""
    return {
        "Q(sqrt5)-Sinf": SUnitContext(K5),
        "Q(sqrt2)-Sinf": SUnitContext(K2),
        "Q-S23": SUnitContext(Q, s1=[(Q.rational(2), 2), (Q.rational(3), 3)]),
        "Q(sqrt2)-S2": SUnitContext(K2, s1=[(K2.gen(), 2)]),
        "Q(i)-S(1+i)": SUnitContext(KI, s1=[(KI.element([1, 1]), 2)]),
    }


BENCH_CONTEXTS = _bench_contexts()
TIE_GAP = Fraction(1, 2 ** 90)


def _dyadic(x, bits=120):
    """A dyadic rational within 2^-bits of the real x."""
    lo, hi = endpoints(x, 2 * bits)
    return Fraction(round((lo + hi) / 2 * 2 ** bits), 2 ** bits)


def _near_ties(ctx):
    """B = k H_S(g) +- 2^-90 for each generator g and k = 1, 2: the height
    of g^k lies 2^-90 from B, which 64 bits cannot separate.  For the finite
    generators (2, 3, sqrt2, 1 + i) H_S(g) is log N(p)."""
    out = []
    for g in ctx.all_gens:
        h = _dyadic(ctx.s_height(g))
        out += [k * h + sign * TIE_GAP for k in (1, 2) for sign in (-1, 1)]
    return out


def _walk(ctx, b):
    """Every element a = prod g_i^e_i that ``count_sunits(ctx, b)`` walks."""
    caps = _coefficient_box(ctx.log_lattice().lattice, b)
    for es in itertools.product(*[range(-c, c + 1) for c in caps]):
        a = ctx.field.one()
        for e, g in zip(es, ctx.all_gens):
            a = a * g ** e
        yield a


@pytest.mark.parametrize("name", sorted(BENCH_CONTEXTS))
def test_s_height_le_matches_interval_height(name):
    ctx = BENCH_CONTEXTS[name]
    for b in [Fraction(1, 2), 1, 2, 3, 5, 8] + _near_ties(ctx):
        for a in _walk(ctx, b):
            expect = cmp_real(ctx.s_height(a), b) <= 0
            assert ctx.s_height_le(a, b) == expect, (name, b, a)


def _recount(ctx, b, caps):
    """(count, near): the elements over the box ``caps`` whose S-height,
    from 60-digit mpmath logarithms, is at most b, and those within 1e-40
    of b."""
    with mpmath.workdps(60):
        bound = mpmath.mpf(b.numerator) / b.denominator
    count, near = 0, 0
    for es in itertools.product(*[range(-c, c + 1) for c in caps]):
        a = ctx.field.one()
        for e, g in zip(es, ctx.all_gens):
            a = a * g ** e
        with mpmath.workdps(60):  # abs rounds to the working precision
            h = max(abs(c) for c in _mp_log_abs(ctx, a))
            near += abs(h - bound) < mpmath.mpf(10) ** -40
            count += h <= bound
    return count, near


def test_count_at_log2_near_tie():
    """Q with S = {2, 3} at B = log 2 -+ 2^-90: both pipelines (which
    ``count_sunits`` checks against each other) give the reference walk's
    counts, and the counts differ by the four elements +-2^(+-1) of height
    exactly log 2."""
    ctx = BENCH_CONTEXTS["Q-S23"]
    log2 = _dyadic(log_real(2))
    counts = []
    for b in (log2 - TIE_GAP, log2 + TIE_GAP):
        count, near = _recount(ctx, b, _float_caps(ctx, b))
        assert near == 0
        assert count_sunits(ctx, b) == ctx.omega * count
        counts.append(count_sunits(ctx, b))
    assert counts[1] - counts[0] == 4


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
    count, near = _recount(ctx, b, caps)
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
