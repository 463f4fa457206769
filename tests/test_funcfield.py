import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latheights import funcfield
from latheights.bounds import HOLDS, INCONCLUSIVE
from latheights.errors import ValidationError
from latheights.funcfield import (
    GENUS0,
    GENUS1,
    INF,
    CurveContext,
    DivisorLattice,
    count_supported,
    det_bound_checks,
    lemma_pcount_bounds,
)
from latheights.intmat import ZSpan
from latheights.lattice import supnorm_min
from latheights.reals import cmp_real, real_to_float, sqrt_real, to_real
from funcfield_references import divisor_lattice_reference


def p1_two_points():
    return CurveContext(5, GENUS0, points=[0, INF])


def p1_three_points():
    return CurveContext(5, GENUS0, points=[0, 1, INF])


def e5():
    return CurveContext(5, GENUS1, a=1, b=1)


def test_rational_points():
    assert len(CurveContext(5, GENUS0).rational_points()) == 6
    assert len(e5().rational_points()) == 9
    assert len(CurveContext(5, GENUS1, a=-1, b=0).rational_points()) == 8


def test_context_validation():
    with pytest.raises(ValidationError):
        CurveContext(6, GENUS0)  # composite q
    with pytest.raises(ValidationError):
        CurveContext(5, GENUS1, a=0, b=0)  # singular
    with pytest.raises(ValidationError):
        CurveContext(5, GENUS0, points=[])
    with pytest.raises(ValidationError):
        CurveContext(5, GENUS0, points=[0, 0])
    with pytest.raises(ValidationError):
        CurveContext(5, GENUS0, points=[7])
    with pytest.raises(ValidationError):
        CurveContext(4099, GENUS0)  # cap


def test_group_law():
    ctx = e5()
    pts = ctx.rational_points()
    for p in pts:
        assert ctx.ec_add(p, INF) == p
        assert ctx.ec_add(p, ctx.ec_neg(p)) == INF
    # associativity, exhaustively over E(F_5)
    for p in pts:
        for r in pts:
            for s in pts:
                assert ctx.ec_add(ctx.ec_add(p, r), s) == ctx.ec_add(
                    p, ctx.ec_add(r, s)
                )
    # the group order annihilates every point
    for p in pts:
        assert ctx.ec_mul(len(pts), p) == INF


def test_divisor_lattice_genus0():
    lat = DivisorLattice(p1_two_points())
    assert lat.jxp_order == 1
    assert lat.basis == [[1, -1]]
    assert lat.det_sq() == 2  # det = sqrt(n)
    lat3 = DivisorLattice(p1_three_points())
    assert lat3.jxp_order == 1
    assert lat3.det_sq() == 3
    assert lat3.contains([2, -1, -1]) and not lat3.contains([1, 1, -1])


def test_divisor_lattice_genus1():
    ctx = CurveContext(5, GENUS1, a=1, b=1, points=[INF, (0, 1), (0, 4)])
    lat = DivisorLattice(ctx)
    # |J_{X,P}| = order of the subgroup generated by (0,1) - inf and (0,4) - inf
    o = 1
    acc = (0, 1)
    while acc != INF:
        acc = ctx.ec_add(acc, (0, 1))
        o += 1
    assert lat.jxp_order == o
    assert lat.det_sq() == 3 * o * o
    # every basis vector sums to zero and maps to the identity
    for vec in lat.basis:
        assert sum(vec) == 0
        acc = INF
        for e, p in zip(vec, ctx.points):
            acc = ctx.ec_add(acc, ctx.ec_mul(e, p))
        assert acc == INF


def test_p_height():
    lat = DivisorLattice(p1_two_points())
    assert lat.p_height([0, 0]) == 0
    assert lat.p_height([3, -3]) == 3
    lat3 = DivisorLattice(p1_three_points())
    assert lat3.p_height([2, -1, -1]) == 2
    with pytest.raises(ValidationError):
        lat3.p_height([1, 1, -1])


def test_count_supported():
    assert count_supported(p1_two_points(), 3) == 28  # 4 * |{-3..3}|
    assert count_supported(p1_two_points(), 0) == 4  # constants
    assert count_supported(p1_three_points(), 1) == 4 * 7
    ctx = CurveContext(5, GENUS1, a=1, b=1, points=[INF, (0, 1), (0, 4)])
    c = count_supported(ctx, 2)
    lat = DivisorLattice(ctx)
    assert c == 4 * len(lat.points_in_cube(2))


def test_lemma_pcount():
    lower, upper = lemma_pcount_bounds(p1_two_points(), 2)
    assert lower.applicable
    # lower = 4(2*2/sqrt2 - 1); upper = 4*5*1 = 20 = exact
    assert math.isclose(
        real_to_float(lower.bound_value), 4 * (4 / math.sqrt(2) - 1), rel_tol=1e-9
    )
    assert upper.exact_count == 20
    assert real_to_float(upper.bound_value) == 20.0
    assert lower.verdict == HOLDS and upper.verdict == HOLDS
    # below threshold
    lower0, upper0 = lemma_pcount_bounds(p1_two_points(), 0)
    assert not lower0.applicable and lower0.verdict == INCONCLUSIVE
    assert upper0.verdict == HOLDS


def test_sandwich_grid():
    contexts = [
        p1_two_points(),
        p1_three_points(),
        CurveContext(5, GENUS1, a=1, b=1, points=[INF, (0, 1), (0, 4)]),
        CurveContext(7, GENUS0, points=[0, 1, INF]),
    ]
    for ctx in contexts:
        for b in range(0, 6):
            lower, upper = lemma_pcount_bounds(ctx, b)
            assert upper.verdict == HOLDS, (ctx.model, ctx.q, b)
            assert lower.verdict != "VIOLATED", (ctx.model, ctx.q, b)


def test_det_bound_checks():
    for ctx in (
        p1_two_points(),
        p1_three_points(),
        CurveContext(5, GENUS1, a=1, b=1, points=[INF, (0, 1), (0, 4)]),
        CurveContext(5, GENUS1, a=-1, b=0, points=[INF, (0, 0), (1, 0)]),
    ):
        checks = det_bound_checks(ctx)
        assert all(checks.values()), (ctx.model, checks)
        # the certified sup-norm minimum against a walk of a cube that holds
        # a nonzero vector: ord(c_i) e_i lifts to sup-norm ord(c_i) <= |J|
        lat = ctx.divisor_lattice()
        walk = min(max(map(abs, v)) for v in lat.points_in_cube(max(1, lat.jxp_order)) if any(v))
        assert supnorm_min(lat._real)[0] == walk


def e5_three_points():
    return CurveContext(5, GENUS1, a=1, b=1, points=[INF, (0, 1), (0, 4)])


def test_det_identity_is_decided_by_its_check_record(monkeypatch):
    """A wrong |J| reaches the DET_IDENTITY record, which reads false;
    building the divisor lattice does not raise."""
    real = funcfield.DivisorLattice.__init__

    def off_by_one(self, ctx):
        real(self, ctx)
        self.jxp_order += 1

    monkeypatch.setattr(funcfield.DivisorLattice, "__init__", off_by_one)
    checks = det_bound_checks(e5_three_points())
    assert checks["det_identity"] is False


def test_one_divisor_lattice_per_curve(monkeypatch):
    expected = {}
    for name, ctx in (("p1", p1_three_points()), ("e5", e5_three_points())):
        expected[name] = (
            [count_supported(ctx, b) for b in range(4)],
            [(r.exact_count, r.verdict) for b in range(4) for r in lemma_pcount_bounds(ctx, b)],
            det_bound_checks(ctx),
        )
    builds = []
    real = funcfield.DivisorLattice

    class Spy(real):
        def __init__(self, ctx):
            builds.append(ctx)
            super().__init__(ctx)

    monkeypatch.setattr(funcfield, "DivisorLattice", Spy)
    for name, ctx in (("p1", p1_three_points()), ("e5", e5_three_points())):
        got = (
            [count_supported(ctx, b) for b in range(4)],
            [(r.exact_count, r.verdict) for b in range(4) for r in lemma_pcount_bounds(ctx, b)],
            det_bound_checks(ctx),
        )
        assert got == expected[name]
        assert builds.count(ctx) == 1
    assert len(builds) == 2


def _points_in_cube_walk(lat, b):
    """The ambient walk: every sum-zero vector of sup-norm <= b, kept when
    the lattice contains it.  A reference for the lattice enumeration."""
    out = []
    for es in itertools.product(range(-b, b + 1), repeat=lat.ctx.n - 1):
        vec = [-sum(es)] + list(es)
        if abs(vec[0]) <= b and lat.contains(vec):
            out.append(tuple(vec))
    return out


def test_points_in_cube_matches_ambient_walk():
    # the three curves of the ffield suite
    for ctx in (p1_two_points(), p1_three_points(), e5_three_points()):
        lat = ctx.divisor_lattice()
        for b in range(13):
            got = lat.points_in_cube(b)
            assert len(got) == len(set(got))
            assert set(got) == set(_points_in_cube_walk(lat, b)), (ctx.points, b)


def test_lemma_pcount_bounds_match_inline_formulas():
    # the counting lemma on L_P = (n, n - 1, sqrt(n) |J|, 1) scaled by q - 1 equals
    # the exact formulas it replaced, with the same applicability
    contexts = [
        p1_two_points(),
        p1_three_points(),
        CurveContext(5, GENUS1, a=1, b=1, points=[INF, (0, 1), (0, 4)]),
        CurveContext(7, GENUS0, points=[0, 1, INF]),
    ]
    for ctx in contexts:
        n, q, j = ctx.n, ctx.q, ctx.divisor_lattice().jxp_order
        root_n = sqrt_real(n)
        for b in range(0, 13):
            lower, upper = lemma_pcount_bounds(ctx, b)
            up = to_real(q - 1) * (Fraction(2 * b, j) + 1) * (2 * b + 1) ** (n - 2)
            assert upper.bound_value == up, (ctx.model, n, b)
            applicable = cmp_real(b, Fraction(n - 1, 2) * root_n * j) >= 0
            assert lower.applicable == applicable, (ctx.model, n, b)
            if applicable:
                low = (q - 1) * (to_real(2 * b) / ((n - 1) * root_n * j) - 1) * (
                    Fraction(2 * b, n - 1) - 1) ** (n - 2)
                assert lower.bound_value == low, (ctx.model, n, b)


def _same_lattice(ctx):
    lat = DivisorLattice(ctx)
    j, basis = divisor_lattice_reference(ctx)
    assert lat.jxp_order == j, (ctx.q, ctx.a, ctx.b, ctx.points)
    assert ZSpan(lat.basis, ctx.n).hnf == ZSpan(basis, ctx.n).hnf, (ctx.q, ctx.a, ctx.b, ctx.points)


def test_relation_kernel_matches_reference_on_genus0():
    for q in (5, 7):
        pts = CurveContext(q, GENUS0).rational_points()
        for n in range(2, 6):
            for chosen in (pts[:n], pts[-n:], pts[::2][:n]):
                _same_lattice(CurveContext(q, GENUS0, points=chosen))


@settings(max_examples=60)
@given(st.data())
def test_relation_kernel_matches_reference_on_genus1(data):
    """|J_{X,P}| and the HNF of L_P agree with the exponent-product search
    on random point sets of nonsingular curves over F_5, F_7 and F_11."""
    q = data.draw(st.sampled_from([5, 7, 11]))
    a, b = data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))
    assume((4 * a ** 3 + 27 * b ** 2) % q)
    pts = CurveContext(q, GENUS1, a=a, b=b).rational_points()
    n = data.draw(st.integers(2, min(4, len(pts))))
    chosen = data.draw(st.lists(st.sampled_from(pts), min_size=n, max_size=n, unique=True))
    _same_lattice(CurveContext(q, GENUS1, a=a, b=b, points=chosen))


def test_divisor_lattice_build_takes_one_group_sum_per_orbit_step(monkeypatch):
    """Building L_P on E: y^2 = x^3 + x + 1 over F_23 with 4 points, where
    |J_{X,P}| = 28, makes at most |J| (n - 1) orbit-step sums beside the
    n - 1 class constructions c_i = [P_i - P_0]: no search over exponent
    vectors, which would take |J|^(n-1) = 21,952 group sums."""
    ctx = CurveContext(23, GENUS1, a=1, b=1, points=[INF, (0, 1), (0, 22), (1, 7)])
    calls = []
    real = CurveContext.ec_add

    def counted(self, p, r):
        calls.append(1)
        return real(self, p, r)

    monkeypatch.setattr(CurveContext, "ec_add", counted)
    lat = DivisorLattice(ctx)
    build = len(calls)
    calls.clear()
    ctx.divisor_class([-1, 1, 0, 0])
    per_class = len(calls)
    n, j = ctx.n, lat.jxp_order
    assert j == 28
    assert build <= j * (n - 1) + (n - 1) * per_class, (build, per_class)
