import math
import time
from fractions import Fraction

import pytest

from latheights import reals
from latheights.bounds import HOLDS, INCONCLUSIVE
from latheights.errors import ValidationError
from latheights.lattice import _coefficient_box
from latheights.nf import nf_new
from latheights.reals import PRECISION, cmp_real, endpoints, max_real, real_to_float, to_real
from latheights.sunits import (
    SUnitContext,
    _is_prime_power,
    count_sunits,
    fundamental_unit_real_quadratic,
    lemma_sunit_bounds,
    regulator_bound_checks,
)


def field_q():
    return nf_new([-1, 1], [[1]])


def field_sqrt2():
    return nf_new([-2, 0, 1], [[1, 0], [0, 1]])


def field_sqrt5():
    return nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])


def field_sqrt3():
    return nf_new([-3, 0, 1], [[1, 0], [0, 1]])


def field_i():
    return nf_new([1, 0, 1], [[1, 0], [0, 1]])


def row_sums_contain_zero(ctx):
    """Product formula over S: the coordinates of log_embed(g) sum to 0
    within their enclosure, for each generator g of O_S^*."""
    for vec in map(ctx.log_embed, ctx.all_gens):
        iv = to_real(sum(vec[1:], vec[0])).interval(PRECISION.start)
        if not iv.a <= 0 <= iv.b:
            return False
    return True


def ctx_q_23():
    k = field_q()
    return SUnitContext(k, s1=[(k.rational(2), 2), (k.rational(3), 3)])


def test_fundamental_units():
    k5 = field_sqrt5()
    eps = fundamental_unit_real_quadratic(k5)
    assert eps == k5.element([Fraction(1, 2), Fraction(1, 2)])  # (1+sqrt5)/2
    k2 = field_sqrt2()
    assert fundamental_unit_real_quadratic(k2) == k2.element([1, 1])  # 1+sqrt2
    k3 = field_sqrt3()
    assert fundamental_unit_real_quadratic(k3) == k3.element([2, 1])  # 2+sqrt3


def test_log_embed_and_s_height():
    k5 = field_sqrt5()
    ctx = SUnitContext(k5)
    eps = ctx.unit_gens[0]
    vec = ctx.log_embed(eps)
    # (log eps, -log eps): |eps| |eps'| = |N(eps)| = 1
    log_eps = math.log((1 + math.sqrt(5)) / 2)
    assert math.isclose(real_to_float(vec[0]), log_eps, rel_tol=1e-12)
    assert math.isclose(real_to_float(vec[1]), -log_eps, rel_tol=1e-12)
    assert math.isclose(real_to_float(ctx.s_height(eps)), log_eps, rel_tol=1e-12)
    # roots of unity embed to zero
    z = ctx.log_embed(k5.rational(-1))
    assert all(abs(real_to_float(c)) < 1e-30 for c in z)
    assert real_to_float(ctx.s_height(k5.one())) == 0.0

    kq = field_q()
    ctx2 = SUnitContext(kq, s1=[(kq.rational(2), 2)])
    v2 = ctx2.log_embed(kq.rational(2))
    assert math.isclose(real_to_float(v2[0]), math.log(2), rel_tol=1e-12)
    assert math.isclose(real_to_float(v2[1]), -math.log(2), rel_tol=1e-12)
    assert math.isclose(
        real_to_float(ctx2.s_height(kq.rational(8))), 3 * math.log(2), rel_tol=1e-12
    )
    with pytest.raises(ValidationError):
        ctx2.log_embed(kq.rational(3))  # not an S-unit
    assert ctx2._s_valuations(kq.rational(Fraction(1, 4))) == [-2]


def test_log_lattice_shapes():
    k5 = field_sqrt5()
    ll = SUnitContext(k5).log_lattice()
    assert ll.rank == 1
    log_eps = math.log((1 + math.sqrt(5)) / 2)
    # covolume sqrt2 log eps; classical regulator log eps; H_SK = log eps
    assert math.isclose(real_to_float(ll.regulator), math.sqrt(2) * log_eps, rel_tol=1e-12)
    assert math.isclose(
        real_to_float(ll.classical_regulator), log_eps, rel_tol=1e-12
    )
    assert math.isclose(real_to_float(ll.hsk), log_eps, rel_tol=1e-12)
    assert row_sums_contain_zero(ll.ctx)

    kq = field_q()
    ll2 = SUnitContext(kq, s1=[(kq.rational(2), 2)]).log_lattice()
    assert math.isclose(real_to_float(ll2.hsk), math.log(2), rel_tol=1e-12)
    assert row_sums_contain_zero(ll2.ctx)

    # imaginary quadratic: rank zero
    ll3 = SUnitContext(field_i()).log_lattice()
    assert ll3.rank == 0


def test_height_filter_builds_no_ball_per_candidate(monkeypatch):
    """Once L_S is built, a count builds the same balls whatever the number
    of elements it walks: the S-height filter compares exact absolute values
    with the e^(+-B) enclosures, built once per bound and precision."""
    ctx = ctx_q_23()
    ctx.log_lattice()
    built = []
    init = reals.BallReal.__init__

    def spy(self, fn):
        built.append(fn)
        init(self, fn)

    monkeypatch.setattr(reals.BallReal, "__init__", spy)
    per_bound = {}
    for b in (1, 8):
        reals._exp_endpoints.cache_clear()
        del built[:]
        count_sunits(ctx, b)
        # e^b and e^-b at 64 bits: no comparison at these bounds escalates
        assert reals._exp_endpoints.cache_info().currsize == 2
        per_bound[b] = len(built)
    walked = {b: math.prod(2 * c + 1 for c in _coefficient_box(ctx.log_lattice().lattice, b))
              for b in (1, 8)}
    assert walked[8] > 50 * walked[1]
    assert per_bound[8] == per_bound[1] < 20


def test_count_sunits():
    k5 = field_sqrt5()
    ctx = SUnitContext(k5)
    # 2 log eps ~ 0.9624 <= 1 < 3 log eps: exponents -2..2, omega = 2
    assert count_sunits(ctx, 1) == 10
    # B below H_SK: roots of unity only
    assert count_sunits(ctx, Fraction(1, 4)) == 2

    kq = field_q()
    ctx2 = SUnitContext(kq, s1=[(kq.rational(2), 2)])
    assert count_sunits(ctx2, 2) == 10  # 2 * |{-2..2}|

    ctx3 = ctx_q_23()
    c = count_sunits(ctx3, 2)
    # pipelines agree internally; spot value from direct enumeration
    assert c == 2 * sum(
        1
        for a in range(-3, 4)
        for b in range(-2, 3)
        if max(abs(a * math.log(2) + b * math.log(3)),
               abs(a) * math.log(2), abs(b) * math.log(3)) <= 2
    )

    # rank zero
    assert count_sunits(SUnitContext(field_i()), 1) == 4

    with pytest.raises(ValidationError):
        count_sunits(ctx, 0)


def test_lemma_sunit_bounds():
    k5 = field_sqrt5()
    ctx = SUnitContext(k5)
    lower, upper = lemma_sunit_bounds(ctx, 1)
    assert upper.exact_count == 10
    # upper = 2(2/log eps + 1) ~ 10.31
    assert math.isclose(
        real_to_float(upper.bound_value),
        2 * (2 / math.log((1 + math.sqrt(5)) / 2) + 1),
        rel_tol=1e-9,
    )
    assert upper.verdict == HOLDS
    assert lower.applicable and lower.verdict == HOLDS

    # B below the lower threshold
    lower2, upper2 = lemma_sunit_bounds(ctx, Fraction(1, 4))
    assert not lower2.applicable and lower2.verdict == INCONCLUSIVE
    assert upper2.verdict == HOLDS

    # rank-2 context over Q
    lower3, upper3 = lemma_sunit_bounds(ctx_q_23(), 3)
    assert upper3.verdict == HOLDS
    assert lower3.verdict in (HOLDS, INCONCLUSIVE)

    # rank zero: exact
    l0, u0 = lemma_sunit_bounds(SUnitContext(field_i()), 1)
    assert l0.verdict == HOLDS and u0.verdict == HOLDS
    assert l0.exact_count == 4


def test_sandwich_grid():
    contexts = [
        SUnitContext(field_sqrt5()),
        SUnitContext(field_sqrt2()),
        ctx_q_23(),
    ]
    for ctx in contexts:
        for b in (Fraction(1, 2), 1, 2, 3, 5):
            lower, upper = lemma_sunit_bounds(ctx, b)
            assert upper.verdict == HOLDS, (ctx.field, b)
            assert lower.verdict != "VIOLATED", (ctx.field, b)


def test_regulator_bounds():
    checks = regulator_bound_checks(SUnitContext(field_sqrt5()), h_k=1)
    assert all(checks.values())
    checks2 = regulator_bound_checks(ctx_q_23(), h_k=1)
    assert all(checks2.values())
    checks3 = regulator_bound_checks(SUnitContext(field_sqrt2()), h_k=1)
    assert all(checks3.values())


def field_sqrt_m3():
    return nf_new([1, 1, 1], [[1, 0], [0, 1]])  # Z[omega], omega^2 + omega + 1 = 0


@pytest.mark.parametrize("make, omega", [(field_i, 4), (field_sqrt_m3, 6), (field_q, 2),
                                         (field_sqrt5, 2), (field_sqrt3, 2)])
def test_roots_of_unity_read_from_the_field(make, omega):
    """omega_K from D_K: +-1, +-i over Q(i) and the sixth roots of unity over
    Q(sqrt -3); with S = {inf} the unit group is finite, so each of them is
    an S-unit of height 1 and the count at B = 1 is omega_K."""
    ctx = SUnitContext(make())
    assert ctx.omega == omega
    if ctx.log_lattice().rank == 0:
        assert count_sunits(ctx, 1) == omega
        assert [r.exact_count for r in lemma_sunit_bounds(ctx, 1)] == [omega, omega]


def test_context_refuses_degree_above_two():
    cubic = nf_new([-1, -2, 1, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValidationError):
        SUnitContext(cubic, unit_gens=[cubic.gen()])


def test_context_validation():
    kq = field_q()
    with pytest.raises(ValidationError):
        SUnitContext(kq, s1=[(kq.rational(6), 6)])  # 6 is not a prime power
    with pytest.raises(ValidationError):
        SUnitContext(kq, s1=[(kq.rational(2), 3)])  # wrong norm
    with pytest.raises(ValidationError):
        SUnitContext(kq, s1=[(kq.rational(Fraction(1, 2)), 2)])  # not integral
    with pytest.raises(ValidationError):
        # wrong number of generators for |S|
        SUnitContext(kq, s1=[(kq.rational(2), 2)], unit_gens=[kq.rational(3)])
    with pytest.raises(ValidationError):
        # dependent generators: the same prime listed twice
        SUnitContext(kq, s1=[(kq.rational(2), 2), (kq.rational(2), 2)]).log_lattice()


def test_count_sunits_skewed_generators():
    # three generator sets of one S-unit group of Q(sqrt2), S = {inf, inf', (sqrt2)}:
    # 58 + 41 sqrt2 = sqrt2 (1 + sqrt2)^5, so the last two bases are skewed and
    # an S-unit of height <= B can need an exponent far beyond B / H_SK
    k = field_sqrt2()
    sqrt2 = k.gen()
    eps = k.element([1, 1])
    contexts = [
        SUnitContext(k, s1=[(sqrt2, 2)]),
        SUnitContext(k, s1=[(k.element([58, 41]), 2)]),
        SUnitContext(k, s1=[(sqrt2, 2)], unit_gens=[eps * sqrt2 ** 5]),
    ]
    for b, expected in ((1, 10), (2, 34), (3, 94)):
        assert [count_sunits(ctx, b) for ctx in contexts] == [expected] * 3, b


def test_is_prime_power_large_norms():
    cases = {1_000_003: True, 10**9 + 7: True, 2**40: True, 6 * (10**9 + 7): False,
             3**20: True, 2 * 3**20: False, 1: False, 0: False, 2: True, 12: False,
             (10**9 + 7)**2: True, 2 * (10**9 + 7)**2: False,
             (10**9 + 7) * (10**9 + 9): False}
    start = time.perf_counter()
    assert {n: _is_prime_power(n) for n in cases} == cases
    assert time.perf_counter() - start < 0.5
    # a finite place of norm 1,000,003 (a prime) is accepted at once
    kq = field_q()
    SUnitContext(kq, s1=[(kq.rational(1_000_003), 1_000_003)])


def _inline_sunit_bounds(ctx, b):
    """The sandwich as lemma_sunit_bounds once wrote it on L_S: (lower value or
    None below the threshold, upper value)."""
    ll, n, w, bb = ctx.log_lattice(), ctx.n_places, ctx.omega, to_real(Fraction(b))
    h, reg = ll.hsk, ll.regulator
    upper = w * (2 * bb / h + 1) ** (n - 1)
    thresh = Fraction(n - 1, 2) * max_real(reg / h ** (n - 2), h)
    if cmp_real(bb, thresh) < 0:
        return None, upper
    lower = w * (2 * bb * h ** (n - 2) / ((n - 1) * reg) - 1) * (2 * bb / ((n - 1) * h) - 1) ** (n - 2)
    return lower, upper


def test_lemma_sunit_bounds_match_inline_formulas():
    # the counting lemma on L_S = (|S|, |S| - 1, R_S, H_SK) scaled by omega_K gives
    # the 64-bit enclosures of the formulas it replaced, with the same applicability
    kq, k2 = field_q(), field_sqrt2()
    contexts = [
        SUnitContext(field_sqrt5()),
        SUnitContext(k2),
        SUnitContext(kq, s1=[(kq.rational(2), 2), (kq.rational(3), 3)]),
        SUnitContext(k2, s1=[(k2.gen(), 2)]),
    ]
    for ctx in contexts:
        for b in (Fraction(1, 2), 1, 2, 3, 5):
            lower, upper = lemma_sunit_bounds(ctx, b)
            low, up = _inline_sunit_bounds(ctx, b)
            assert endpoints(upper.bound_value) == endpoints(up), (ctx.n_places, b)
            assert lower.applicable == (low is not None), (ctx.n_places, b)
            if low is not None:
                assert endpoints(lower.bound_value) == endpoints(low), (ctx.n_places, b)
