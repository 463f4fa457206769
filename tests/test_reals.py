from fractions import Fraction

import math
import time

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from latheights import reals
from latheights.errors import PrecisionExhausted, ValidationError
from latheights.bounds import lemma_reports
from latheights.lattice import RealLattice, _rat_upper, enumerate_cube, supnorm_min
from latheights.reals import (
    PRECISION,
    BallReal,
    QuadReal,
    Rooted,
    _add,
    _exact_iroot,
    _binop_ball,
    _mul,
    _squarefree_split,
    abs_real,
    cmp_exp,
    cmp_real,
    endpoints,
    log_real,
    max_real,
    min_real,
    nthroot_real,
    pi_real,
    pow_real,
    quad2_sign,
    quad_sign,
    real_to_float,
    scaled_quad,
    sqrt_real,
    to_real,
)
from latheights.report import ball_mid_rad, report_record


def test_quad_normalization():
    x = QuadReal(1, 1, 8)  # 1 + sqrt(8) = 1 + 2 sqrt(2)
    assert (x.a, x.b, x.m) == (1, 2, 2)
    y = QuadReal(3, 5, 4)  # 3 + 5*2
    assert y.is_rational and y.as_fraction() == 13


def test_quad_arithmetic_and_sign():
    r2 = QuadReal(0, 1, 2)
    assert (r2 * r2).as_fraction() == 2
    assert ((1 + r2) * (1 - r2)).as_fraction() == -1
    assert (r2 - Fraction(99, 70)).sign() < 0
    assert (r2 - Fraction(7, 5)).sign() > 0
    assert (r2 - r2).sign() == 0
    assert cmp_real(r2, Fraction(3, 2)) < 0


def test_quad_division():
    phi = QuadReal(Fraction(1, 2), Fraction(1, 2), 5)
    inv = to_real(1) / phi
    # 1/phi = phi - 1
    assert inv == phi - 1


def test_quad_division_by_zero():
    r2 = QuadReal(0, 1, 2)
    for zero in (QuadReal(0), r2 - r2, (1 + r2) * (1 - r2) + 1):
        with pytest.raises(ZeroDivisionError):
            r2 / zero
    with pytest.raises(ZeroDivisionError):
        1 / QuadReal(0)


def test_quad_hash_matches_equality():
    r2 = QuadReal(0, 1, 2)
    assert QuadReal(1) == 1 and hash(QuadReal(1)) == hash(1)
    assert len({QuadReal(1), 1}) == 1
    half = QuadReal(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    # a product that cancels to a rational hashes like that rational
    assert hash((1 + r2) * (1 - r2)) == hash(-1)
    assert {r2 * r2: "two"}[2] == "two"
    assert hash(QuadReal(3, 1, 8)) == hash(QuadReal(3, 2, 2))


def test_sqrt_exact_rational():
    s = sqrt_real(Fraction(9, 4))
    assert isinstance(s, QuadReal) and s.as_fraction() == Fraction(3, 2)
    s2 = sqrt_real(Fraction(1, 2))
    assert isinstance(s2, QuadReal) and s2.m == 2 and s2.b == Fraction(1, 2)


def test_ball_comparison_refines():
    r2 = sqrt_real(2)
    b = BallReal(lambda p: log_real(7).interval(p))
    assert cmp_real(b, r2) > 0  # log 7 ~ 1.9459 > 1.4142
    assert cmp_real(b, 2) < 0


def test_ball_equal_raises():
    x = sqrt_real(QuadReal(0, 1, 2) * QuadReal(0, 1, 2))  # ball sqrt(2) route?
    # construct genuinely equal ball vs exact
    b = BallReal(lambda p: to_real(2).interval(p))
    old_cap = PRECISION.cap
    PRECISION.cap = 256
    try:
        with pytest.raises(PrecisionExhausted):
            cmp_real(b, 2)
    finally:
        PRECISION.cap = old_cap


def test_max_and_abs():
    r2 = sqrt_real(2)
    assert max_real(1, r2) == r2
    assert abs_real(1 - r2) == r2 - 1


def test_nthroot_and_pow():
    assert nthroot_real(27, 3).as_fraction() == 3
    x = pow_real(2, Fraction(3, 2))  # 2*sqrt(2)
    assert cmp_real(x, QuadReal(0, 2, 2)) == 0 or abs(float(x.interval(64).a) - 2.8284271) < 1e-5


def test_exact_iroot_large_powers():
    # beyond float range, and perfect powers a float root rounds away from
    assert _exact_iroot((3**40 + 1) ** 2, 2) == 3**40 + 1
    assert _exact_iroot(10**400, 2) == 10**200
    assert _exact_iroot(10**400 + 1, 2) is None
    assert _exact_iroot((7**50 + 3) ** 5, 5) == 7**50 + 3
    assert nthroot_real(Fraction(1, 10**600), 3).as_fraction() == Fraction(1, 10**200)
    assert Rooted(10**400, 2).base.as_fraction() == 10**200


@settings(max_examples=200)
@given(st.integers(1, 10**60), st.integers(1, 9))
def test_exact_iroot_inverts_powers(r, n):
    assert _exact_iroot(r**n, n) == r
    if n > 1:
        assert _exact_iroot(r**n + 1, n) is None


def test_rooted_compare():
    h = Rooted(2, 2)  # sqrt(2)
    assert h.cmp(Fraction(3, 2)) < 0
    assert h.cmp(Fraction(7, 5)) > 0
    assert (h * h).cmp(2) == 0
    assert (h**4).cmp(4) == 0
    g = Rooted(8, 2)
    assert h.cmp(g) < 0


def test_refinement_monotone():
    b = log_real(3)
    i1 = b.interval(64)
    i2 = b.interval(256)
    assert i1.a <= i2.a and i2.b <= i1.b


def test_enclosure_depends_only_on_precision():
    # a composite ball: its 64-bit enclosure is the same before and after a
    # 1024-bit evaluation and an escalated comparison
    x = log_real(3) * sqrt_real(5) + pi_real() / log_real(QuadReal(1, 1, 2))
    before = endpoints(x, 64)
    x.interval(1024)
    assert cmp_real(x, 2 * endpoints(x, 1024)[1]) < 0  # a 64-bit decision
    assert endpoints(x, 64) == before
    y = log_real(7)
    low = endpoints(y, 64)
    with pytest.raises(PrecisionExhausted):
        cmp_real(y, y)  # runs to the cap
    assert endpoints(y, 64) == low
    assert endpoints(y, PRECISION.cap) != low


def test_unbounded_enclosure_raises():
    # [1, 2] / [-1, 1] is [-inf, +inf]: no endpoint may read as 0
    ball = BallReal(lambda p: iv.mpf([1, 2]) / iv.mpf([-1, 1]))
    for read in (endpoints, _rat_upper, ball_mid_rad):
        with pytest.raises(ValidationError):
            read(ball)
    half_open = log_real(BallReal(lambda p: iv.mpf([0, 1])))  # [-inf, 0]
    with pytest.raises(ValidationError):
        endpoints(half_open)


def test_log_of_tiny_quad_refines():
    # (1 - sqrt2)^40 ~ 4.9e-16 is a difference of two numbers near 1e15: its
    # 64-bit enclosure dips below 0, and the log must refine, not fail
    x = QuadReal(1, -1, 2) ** 40
    assert cmp_real(log_real(x), -35) < 0
    assert cmp_real(log_real(x), -36) > 0


def _squarefree_split_trial(m):
    """The plain trial division up to sqrt(m): fine for small m only."""
    s, m0, k = 1, m, 2
    while k * k <= m0:
        while m0 % (k * k) == 0:
            m0 //= k * k
            s *= k
        k += 1
    return s, m0


PRIMES = [2, 3, 5, 7, 11, 101, 997, 7919]


@settings(max_examples=300)
@given(st.integers(1, 10**9))
def test_squarefree_split_matches_trial_division(m):
    assert _squarefree_split(m) == _squarefree_split_trial(m)


@pytest.mark.parametrize("p", PRIMES)
def test_squarefree_split_prime_products(p):
    for q in PRIMES:
        for k in (1, 2, 12, 45):
            for m in (k * p * q, k * p * p, k * p * p * q, k * p * p * p):
                assert _squarefree_split(m) == _squarefree_split_trial(m), m


def test_squarefree_split_large_prime_square():
    # the radicand of h(y, c y) with c = 4 * 10^9 + 7 over Q(sqrt2): 3 c^2,
    # whose trial division up to sqrt(m) does not return in useful time
    c = 4 * 10**9 + 7
    assert _squarefree_split(c) == (1, c)  # c is squarefree
    assert _squarefree_split(3 * c * c) == (c, 3)
    assert _squarefree_split(0) == (1, 0)
    assert _squarefree_split(1) == (1, 1)


def test_squarefree_split_two_large_primes():
    # two prime factors past the cube-root trial division: Pollard-Brent rho
    # splits them; before it, (2^61 - 1)(2^31 - 1) ran for minutes
    p, q, c = 2**61 - 1, 2**31 - 1, 4 * 10**9 + 7
    cases = [(p * q, (1, p * q)), (3 * c * c, (c, 3)),
             (12 * p * p * q, (2 * p, 3 * q)), (q**3 * c * p, (q, q * c * p))]
    for m, want in cases:
        start = time.perf_counter()
        assert _squarefree_split(m) == want
        assert time.perf_counter() - start < 0.5


# primes from 1031 up, so that products of them reach the rho stage
LARGE_PRIMES = [1031, 7919, 65537, 10**6 + 3, 10**9 + 7, 4 * 10**9 + 7, 2**31 - 1, 2**61 - 1]


@settings(max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(PRIMES + LARGE_PRIMES), st.integers(1, 4)),
                min_size=1, max_size=4))
def test_squarefree_split_of_known_factorizations(factors):
    exps = {}
    for p, e in factors:
        exps[p] = exps.get(p, 0) + e
    m, s, m0 = 1, 1, 1
    for p, e in exps.items():
        m, s, m0 = m * p**e, s * p ** (e // 2), m0 * p ** (e % 2)
    assert _squarefree_split(m) == (s, m0)


def test_squarefree_split_falls_back_past_the_proven_bound(monkeypatch):
    # a factor that passes Miller-Rabin at or past the proven bound is not
    # taken for a prime: the split goes on by trial division, still exact
    monkeypatch.setattr(reals, "_MR_PROVEN", 10**4)
    assert reals._prime_factors(10007 * 10009) is None
    for m in (10007 * 10009 * 10037, 10007**2 * 10009 * 1031, 2 * 10007**3):
        assert _squarefree_split(m) == _squarefree_split_trial(m)


# values a + b sqrt(m): rationals (b = 0, negative Fractions included) and
# elements of Q(sqrt 2), Q(sqrt 3), Q(sqrt 5)
fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
rationals = st.builds(QuadReal, fractions)
irrationals = st.builds(QuadReal, fractions, fractions.filter(bool), st.sampled_from([2, 3, 5]))


def _triple(x):
    return x.a, x.b, x.m


def _general_mul(x, y):
    m = x.m or y.m
    return QuadReal(x.a * y.a + x.b * y.b * m, x.a * y.b + x.b * y.a, m)


@settings(max_examples=200)
@given(st.one_of(
    st.tuples(rationals, rationals),
    st.tuples(rationals, irrationals),
    st.tuples(irrationals, rationals),
    st.tuples(irrationals, irrationals).filter(lambda p: p[0].m == p[1].m),
))
def test_rational_fast_paths_match_general_formula(pair):
    """_mul skips the zero terms of a rational factor: its result, like
    _add's, is the (a, b, m) triple, with Fraction parts, and hash of the
    general formula normalised by QuadReal."""
    x, y = pair
    want_mul = _general_mul(x, y)
    want_add = QuadReal(x.a + y.a, x.b + y.b, x.m or y.m)
    for got, want in ((_mul(x, y), want_mul), (_add(x, y), want_add)):
        assert _triple(got) == _triple(want)
        assert all(type(v) is Fraction for v in (got.a, got.b))
        assert hash(got) == hash(want) and got == want


@given(st.one_of(st.integers(-(2**70), 2**70), fractions, st.booleans()))
@example(True)
@example(Fraction(-3, 4))
def test_to_real_of_rationals_matches_constructor(x):
    got, want = to_real(x), QuadReal(x)
    assert _triple(got) == _triple(want) == (Fraction(x), 0, 0)
    assert all(type(v) is Fraction for v in (got.a, got.b))
    assert hash(got) == hash(want) == hash(x)


# values over several radicands, squarefree or not (12 = 2^2 * 3, 4 = 2^2)
_radicals = st.builds(QuadReal, fractions, fractions, st.sampled_from([0, 2, 3, 4, 5, 6, 12]))


def _is_normal(x):
    """(p + q sqrt m) / d with d > 0, gcd(p, q, d) = 1, m squarefree, and
    q == 0 exactly when m == 0."""
    p, q, d, m = x.p, x.q, x.d, x.m
    return (all(type(v) is int for v in (p, q, d, m)) and d > 0 and math.gcd(p, q, d) == 1
            and (q == 0) == (m == 0) and (m == 0 or _squarefree_split(m) == (1, m)))


def _reference_mul(x, y):
    """x * y from the Fraction parts, or None when it is a ball."""
    if x.m == 0 or y.m == 0 or x.m == y.m:
        return _general_mul(x, y)
    if x.a == 0 and y.a == 0:
        return QuadReal(0, x.b * y.b, x.m * y.m)
    return None


@settings(max_examples=300)
@given(_radicals, _radicals)
def test_integer_form_is_normal_and_matches_fraction_reference(x, y):
    """Every operation leaves the normal form; a rational hashes as its
    Fraction; the quotient and the comparison, across two radicands too,
    agree with the same computation on the Fraction parts."""
    results = [x, y, x + y, x - y, x * y, -x, abs_real(x), x * 3, Fraction(2, 7) - x]
    if y != 0:
        results.append(x / y)
        den = y.a * y.a - y.b * y.b * y.m
        want = _reference_mul(x, QuadReal(y.a / den, -y.b / den, y.m))
        if want is not None:
            assert _triple(x / y) == _triple(want)
    for v in results:
        if isinstance(v, QuadReal):
            assert _is_normal(v)
            if v.is_rational:
                assert hash(v) == hash(Fraction(v.p, v.d)) and v == Fraction(v.p, v.d)
    assert x.sign() == quad_sign(x.a, x.b, x.m)
    assert cmp_real(x, y) == quad2_sign(x.a - y.a, x.b, x.m, -y.b, y.m)


def test_quadratic_arithmetic_builds_no_fraction(monkeypatch):
    """Sums, differences, products, quotients, signs and comparisons of
    QuadReals, over one radicand and over two (quad2_sign), work on the
    integers p, q, d: with the operands built, no Fraction is made."""
    x = QuadReal(Fraction(3, 4), Fraction(-5, 6), 5)
    y = QuadReal(Fraction(-7, 2), Fraction(1, 9), 5)
    z = QuadReal(Fraction(2, 3), Fraction(1, 7), 3)
    t = Fraction(5, 8)
    r = QuadReal(t)
    built = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
    values = [x + y, x - y, x * y, x / y, x * r, r / x, x + 3, 2 - x, -x, x / 4,
              x.sign(), (x - y).sign(), cmp_real(x, y), cmp_real(x, r), cmp_real(r, 1),
              cmp_real(x, z), cmp_real(z, y), cmp_real(z, t)]
    monkeypatch.undo()
    assert built == []
    assert values[:3] == [QuadReal(x.a + y.a, x.b + y.b, 5), QuadReal(x.a - y.a, x.b - y.b, 5),
                          _general_mul(x, y)]
    assert values[-3:] == [quad2_sign(x.a - z.a, x.b, 5, -z.b, 3),
                           quad2_sign(z.a - y.a, z.b, 3, -y.b, 5),
                           quad_sign(z.a - t, z.b, 3)]


def test_interval_reads_each_part_in_lowest_terms():
    """With gcd(p, d) > 1 and p longer than 64 bits, the enclosure comes
    from p/d and q/d in lowest terms, as from the Fraction pair: iv.mpf of
    the unreduced numerator rounds outward differently at 64 bits."""
    p, q, d = 3 * (2**70 + 1), 7, 15
    x, r = scaled_quad(p, q, d, 2), scaled_quad(p, 0, d, 0)
    assert (x.p, x.q, x.d) == (p, q, d) and math.gcd(p, d) == 15 and p.bit_length() > 64
    a, b = Fraction(p, d), Fraction(q, d)

    def pair(n, e):
        return BallReal(lambda prec: iv.mpf(n.numerator) / n.denominator
                        + iv.mpf(e.numerator) / e.denominator * iv.sqrt(iv.mpf(2)))

    unreduced = BallReal(lambda prec: iv.mpf(p) / d + iv.mpf(q) / d * iv.sqrt(iv.mpf(2)))
    assert ball_mid_rad(x) == ball_mid_rad(pair(a, b)) != ball_mid_rad(unreduced)
    assert ball_mid_rad(r) == ball_mid_rad(pair(a, Fraction(0)))
    assert ball_mid_rad(r) != ball_mid_rad(BallReal(lambda prec: iv.mpf(p) / d))


def _mpmath_chain(p, q, d, m, prec):
    """The enclosure of (p + q sqrt(m)) / d that mpmath's interval arithmetic
    gives at prec bits, each part's fraction in lowest terms: the reference
    that ``reals._enclosure`` equals bit for bit."""
    old = iv.prec
    try:
        iv.prec = prec

        def part(n):
            g = math.gcd(n, d)
            return iv.mpf(n // g) / (d // g)

        x = part(p)
        if q:
            x += part(q) * iv.sqrt(iv.mpf(m))
        return x
    finally:
        iv.prec = old


_wide = st.one_of(st.integers(-1000, 1000), st.integers(-2**70, 2**70),
                  st.integers(-2**300, 2**300))


@settings(max_examples=400)
@given(p=_wide, q=_wide, d=_wide.map(lambda n: abs(n) + 1), m=_wide.map(lambda n: abs(n) + 2),
       g=st.one_of(st.just(1), st.integers(2, 2**80)),
       prec=st.sampled_from([53, 64, 128, 256, PRECISION.cap]))
@example(p=0, q=-3, d=7, m=2, g=1, prec=64)  # p = 0 and a negative q
# sqrt(2^64 - 1) lies within 2^-33 of 2^32: rounding up carries to 2^64 * 2^-32
@example(p=0, q=-1, d=1, m=2**64 - 1, g=1, prec=64)
@example(p=2**54 - 1, q=0, d=1, m=2, g=1, prec=53)  # 2^54 - 1 rounds up to 2^54
@example(p=5, q=3, d=2**80 + 1, m=2**89 - 1, g=1, prec=64)  # d and m past 64 bits
@example(p=3 * (2**70 + 1), q=7, d=15, m=2, g=1, prec=64)  # gcd(p, d) = 15
@example(p=-(2**70 + 1), q=7, d=5, m=3, g=3, prec=64)
def test_enclosure_matches_the_mpmath_chain(p, q, d, m, g, prec):
    """``reals._enclosure`` equals mpmath's outward-rounded chain bit for
    bit, as an mpmath interval and as the exact endpoints of a QuadReal."""
    p, d = p * g, d * g  # gcd(p, d) >= g
    want = _mpmath_chain(p, q, d, m, prec)
    assert reals._iv(*reals._enclosure(p, q, d, m, prec))._mpi_ == want._mpi_
    x = scaled_quad(p, q, d, m)  # normalises gcd(p, q, d) = 1
    want = _mpmath_chain(x.p, x.q, x.d, x.m, prec)
    assert x.interval(prec)._mpi_ == want._mpi_
    assert endpoints(x, prec) == tuple((-1) ** sign * Fraction(int(man)) * Fraction(2) ** exp
                                       for sign, man, exp, _ in want._mpi_)


def test_exact_values_read_no_mpmath_interval(monkeypatch):
    """endpoints, _rat_upper, real_to_float and ball_mid_rad of a surd and
    of a rational QuadReal, and the report records of a cnt-lem lattice,
    read the integer enclosure: with mpmath's interval context, as its one
    accessor ``reals._mp`` hands it out, replaced by a sentinel that
    raises, they all run."""

    class NoIv:
        def __getattr__(self, name):
            raise AssertionError("mpmath iv.%s reached" % name)

    lat = RealLattice.from_rows([[3, 1], [-2, 4], [1, 1]])
    det_val, (c, _) = lat.det_value(), supnorm_min(lat)
    reps = [rep for radius in (2, 3, 7)
            for rep in lemma_reports("lat", radius, len(enumerate_cube(lat, radius)),
                                     3, 2, det_val, c, integral=True)]
    surd, rat = QuadReal(Fraction(7, 3), Fraction(-5, 11), 2), QuadReal(Fraction(-22, 7))
    bounds = [r.bound_value for r in reps if r.bound_value is not None]
    assert {b.is_rational for b in bounds} == {True, False} and not det_val.is_rational
    want = [report_record(r) for r in reps]
    reads = [f(x) for x in (surd, rat) for f in (endpoints, _rat_upper, real_to_float, ball_mid_rad)]
    monkeypatch.setattr(reals, "_mp", NoIv)
    assert [report_record(r) for r in reps] == want
    assert [f(x) for x in (surd, rat)
            for f in (endpoints, _rat_upper, real_to_float, ball_mid_rad)] == reads


# ---------------------------------------------------------------------------
# every BallReal op encloses the value that mpmath computes at high precision

_REF_BITS = 1024


def _mpq(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _fraction(x):
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** exp


def _quad_leaf(a, b, m, ball):
    """(value, reference): a + b sqrt(m), exact or wrapped as a ball."""
    x = QuadReal(a, b, m)
    with mpmath.workprec(_REF_BITS):
        ref = _mpq(a) + _mpq(b) * mpmath.sqrt(m)
    return (BallReal(x.interval) if ball else x), ref


def _log_leaf(q):
    with mpmath.workprec(_REF_BITS):
        return log_real(q), mpmath.log(_mpq(q))


def _pi_leaf():
    with mpmath.workprec(_REF_BITS):
        return pi_real(), +mpmath.pi


_leaves = st.one_of(
    st.builds(_quad_leaf, fractions, fractions, st.sampled_from([2, 3, 5, 7]), st.booleans()),
    st.builds(_log_leaf, st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**3))),
    st.builds(_pi_leaf),
)

_BINARY = {
    "+": (lambda x, y: x + y, lambda u, v: u + v),
    "-": (lambda x, y: x - y, lambda u, v: u - v),
    "*": (lambda x, y: x * y, lambda u, v: u * v),
    "/": (lambda x, y: x / y, lambda u, v: u / v),
    "max": (max_real, max),
    "min": (min_real, min),
}
_UNARY = {
    "sqrt": (sqrt_real, mpmath.sqrt),
    "cbrt": (lambda x: nthroot_real(x, 3), lambda u: mpmath.root(u, 3)),
    "root5": (lambda x: nthroot_real(x, 5), lambda u: mpmath.root(u, 5)),
    "log": (log_real, mpmath.log),
}


def _assert_encloses(x, ref):
    want = _fraction(ref)
    for prec in (64, 128, 256):
        lo, hi = endpoints(x, prec)
        assert lo <= want <= hi, (prec, lo, want, hi)


@settings(max_examples=300)
@given(_leaves, _leaves, st.sampled_from(sorted(_BINARY)))
def test_binary_ops_enclose_mpmath(left, right, op):
    (x, u), (y, v) = left, right
    if op == "/":
        assume(abs(v) > 1e-6)
    ours, theirs = _BINARY[op]
    with mpmath.workprec(_REF_BITS):
        ref = theirs(u, v)
    _assert_encloses(ours(x, y), ref)


@settings(max_examples=200)
@given(_leaves, st.sampled_from(sorted(_UNARY)))
def test_unary_ops_enclose_mpmath(leaf, op):
    x, u = leaf
    assume(abs(u) > 1e-6)
    ours, theirs = _UNARY[op]
    with mpmath.workprec(_REF_BITS):
        ref = theirs(abs(u))
    _assert_encloses(ours(abs_real(x)), ref)


# ---------------------------------------------------------------------------
# QuadReals with different radicands: exact signs, winners and products

_SQUAREFREE = [0, 1, 2, 3, 5, 6, 7, 10, 11, 15, 30, 1009, 2 * 3 * 5 * 7 * 11 * 13]
_wide = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6))


def _mp_value(a, b, p, c, q):
    with mpmath.workprec(_REF_BITS):
        return _mpq(a) + _mpq(b) * mpmath.sqrt(p) + _mpq(c) * mpmath.sqrt(q)


@settings(max_examples=300)
@given(_wide, _wide, st.sampled_from(_SQUAREFREE), _wide, st.sampled_from(_SQUAREFREE),
       st.integers(0, 60))
@example(Fraction(0), Fraction(1), 2, Fraction(-1), 2, 0)  # exact zero, p == q
@example(Fraction(5), Fraction(1), 2, Fraction(-2), 3, 0)  # opposite signs
def test_quad2_sign_against_mpmath(a, b, p, c, q, tight):
    """With tight > 0, a is replaced by minus b sqrt(p) + c sqrt(q) rounded
    to tight decimals, so the sum is at most 10**-tight: the second squaring
    has to decide a deep cancellation."""
    if tight:
        with mpmath.workprec(_REF_BITS):
            near = _mp_value(0, b, p, c, q) * 10**tight
            a = -Fraction(int(mpmath.nint(near)), 10**tight)
    ref = _mp_value(a, b, p, c, q)
    got = quad2_sign(a, b, p, c, q)
    if abs(ref) > mpmath.mpf(2) ** (-_REF_BITS // 2):
        assert got == (1 if ref > 0 else -1), (a, b, p, c, q)
    else:  # |sum| < 2**-512 at 1024 bits: a true zero
        assert got == 0, (a, b, p, c, q)
    assert cmp_real(QuadReal(a, b, p), QuadReal(0, -c, q)) == got


_mixed = st.builds(QuadReal, fractions, fractions, st.sampled_from([0, 2, 3, 5, 6, 7, 10]))


@settings(max_examples=200)
@given(st.lists(_mixed, min_size=1, max_size=5))
def test_max_min_of_quadreals_are_exact_winners(xs):
    for pick, choose in ((max_real, max), (min_real, min)):
        got = pick(*xs)
        assert isinstance(got, QuadReal)
        assert any(got == x for x in xs)
        assert all(cmp_real(x, got) * (1 if pick is max_real else -1) <= 0 for x in xs)
        with mpmath.workprec(_REF_BITS):
            refs = [_mpq(x.a) + _mpq(x.b) * mpmath.sqrt(x.m) for x in xs]
            value = _mpq(got.a) + _mpq(got.b) * mpmath.sqrt(got.m)
        assert value == choose(refs)


@settings(max_examples=200)
@given(fractions.filter(bool), st.sampled_from(_SQUAREFREE[2:]),
       fractions.filter(bool), st.sampled_from(_SQUAREFREE[2:]))
def test_pure_radical_product_is_exact(b, p, c, q):
    assume(p != q)
    x, y = QuadReal(0, b, p), QuadReal(0, c, q)
    got = _mul(x, y)
    assert isinstance(got, QuadReal) and got.a == 0
    assert got.m == 0 or _squarefree_split(got.m) == (1, got.m)
    assert got == QuadReal(0, b * c, p * q)  # the normalising constructor
    ball = _binop_ball(x, y, lambda u, v: u * v)
    for prec in (64, 256):
        lo, hi = endpoints(ball, prec)
        glo, ghi = endpoints(got, prec)
        assert lo <= ghi and glo <= hi  # the enclosures meet
    with mpmath.workprec(_REF_BITS):
        ref = _mpq(b) * mpmath.sqrt(p) * _mpq(c) * mpmath.sqrt(q)
    _assert_encloses(got, ref)


# ---------------------------------------------------------------------------
# comparisons with e^b


_exponents = st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 12))


@settings(max_examples=50)
@given(_exponents)
def test_exp_endpoints_enclose_and_nest(b):
    with mpmath.workprec(_REF_BITS):
        ref = _fraction(mpmath.exp(_mpq(b)))
    outer = None
    for prec in (64, 128, 256, 512):
        lo, hi = reals._exp_endpoints(b, prec)
        assert lo < ref < hi, (prec, lo, ref, hi)
        if outer is not None:
            assert outer[0] <= lo and hi <= outer[1]
        outer = lo, hi


@settings(max_examples=200)
@given(st.one_of(rationals, irrationals), _exponents)
def test_cmp_exp_against_mpmath(x, b):
    assume(x.sign() > 0)
    with mpmath.workprec(_REF_BITS):
        diff = _mpq(x.a) + _mpq(x.b) * mpmath.sqrt(x.m) - mpmath.exp(_mpq(b))
    assert cmp_exp(x, b) == (1 if diff > 0 else -1)
    # the same value as a ball is decided by its enclosure
    assert cmp_exp(BallReal(x.interval), b) == cmp_exp(x, b)


def _near_log2():
    """(b-, b+): dyadic exponents 2^-90 either side of log 2."""
    with mpmath.workprec(_REF_BITS):
        log2 = Fraction(int(mpmath.floor(mpmath.log(2) * 2 ** 120)), 2 ** 120)
    gap = Fraction(1, 2 ** 90)
    return log2 - gap, log2 + gap


def test_cmp_exp_near_tie_decides_at_128_bits(monkeypatch):
    below, above = _near_log2()
    # 64 bits cannot separate 2 from e^b: the enclosures meet
    lo, hi = reals._exp_endpoints(above, 64)
    assert lo < 2 < hi
    monkeypatch.setattr(PRECISION, "cap", 128)
    assert cmp_exp(2, below) == 1 and cmp_exp(2, above) == -1
    assert cmp_exp(QuadReal(0, 1, 2), below / 2) == 1  # sqrt2 against e^(b/2)
    assert cmp_exp(Fraction(1, 2), -above) == 1 and cmp_exp(Fraction(1, 2), -below) == -1


def test_cmp_exp_exhausts_at_the_cap(monkeypatch):
    below, _ = _near_log2()
    monkeypatch.setattr(PRECISION, "cap", 64)
    with pytest.raises(PrecisionExhausted, match="64 bits .near tie."):
        cmp_exp(2, below, context="near tie")
    # a ball that is e^b itself never separates
    monkeypatch.setattr(PRECISION, "cap", 256)
    ball = BallReal(lambda p: iv.exp(iv.mpf(1)))
    with pytest.raises(PrecisionExhausted):
        cmp_exp(ball, 1)
    with pytest.raises(ValidationError):
        cmp_exp(2, 0)
