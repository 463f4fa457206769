"""Property tests: the cube enumeration and the totally real fast count
against independent recounts.

Each oracle is compared with a brute-force walk of its coefficient box
whose membership test uses plain Fraction arithmetic, not the library's
line intervals.  Hypothesis runs derandomized (``conftest.py``), so every
run sees the same examples.
"""

import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from latheights import intmat, lattice, linalg, reals
from latheights.bounds import _fast_count_totally_real, as_rooted
from latheights.errors import BudgetExceeded, PrecisionExhausted, ValidationError
from latheights.heights import height_h
from latheights.lattice import RealLattice, _coefficient_box, enumerate_cube
from latheights.modules import OkModule, z_combination
from latheights.nf import FracIdeal, nf_new
from latheights.reals import PRECISION, QuadReal, abs_real, cmp_real, endpoints, log_real
from lattice_references import box_slabs

PROPERTY = settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
BOX_LIMIT = 2000  # candidates per brute-force walk


def _slab_order(caps):
    """The box |m_j| <= caps[j] with the first longest axis outermost and
    the other axes lexicographic inside it."""
    axis = max(range(len(caps)), key=lambda j: caps[j])
    order = [axis] + [j for j in range(len(caps)) if j != axis]
    for combo in itertools.product(*[range(-caps[j], caps[j] + 1) for j in order]):
        m = [0] * len(caps)
        for j, v in zip(order, combo):
            m[j] = v
        yield tuple(m)


def _box_size(caps):
    total = 1
    for c in caps:
        total *= 2 * c + 1
    return total


def _one_line(caps):
    """The box |m_j| <= caps[j] is one line through 0, every cap 0 but one."""
    return _box_size(caps) == 2 * max(caps) + 1


def _lines(caps):
    """The prefix lines of the box: its size over the free axis's length."""
    return _box_size(caps) // (2 * max(caps) + 1)


def _points_at(scalar_lines, lat, radius):
    """enumerate_cube's points with SCALAR_LINES set to scalar_lines: -1
    sends every box to the numpy kernel ``line_runs``, a huge value every
    box to the Python-int walk."""
    keep, lattice.SCALAR_LINES = lattice.SCALAR_LINES, scalar_lines
    try:
        return enumerate_cube(lat, radius)
    finally:
        lattice.SCALAR_LINES = keep


def _kernel_points(lat, radius):
    """The points through ``line_runs``, which keeps that kernel under test
    on the small boxes that the library walks on Python ints."""
    return _points_at(-1, lat, radius)


def _sign(q):
    return (q > 0) - (q < 0)


def _sign_sqrt(x, y, m):
    """Sign of x + y sqrt(m) for rationals x, y and an integer m >= 0."""
    if _sign(x) * _sign(y) >= 0:
        return _sign(x) or _sign(y)
    # opposite signs: the term with the larger square wins
    return _sign(x) * _sign(x * x - y * y * m)


def _in_cube(cols, m, radius, root):
    """|sum_j m_j cols[j]|_inf <= radius, entries (a, b) meaning a + b sqrt(root)."""
    for i in range(len(cols[0])):
        a = sum(mj * col[i][0] for mj, col in zip(m, cols))
        b = sum(mj * col[i][1] for mj, col in zip(m, cols))
        if _sign_sqrt(a - radius, b, root) > 0 or _sign_sqrt(-a - radius, -b, root) > 0:
            return False
    return True


def _brute(cols, radius, root, caps):
    return [m for m in _slab_order(caps) if _in_cube(cols, m, radius, root)]


def _sqrt2_unit(k):
    """(a, b) with (1 + sqrt2)^k = a + b sqrt2; a - b sqrt2 = (1 - sqrt2)^k."""
    a, b = 1, 0
    for _ in range(k):
        a, b = a + 2 * b, a + b
    return a, b


def _lattice(cols, root):
    return RealLattice([[QuadReal(a, b, root) for a, b in col] for col in cols])


def _columns(draw, entry):
    n = draw(st.integers(1, 3))
    big_l = draw(st.integers(1, n))
    return [[draw(entry) for _ in range(n)] for _ in range(big_l)]


@st.composite
def rational_cases(draw):
    entry = st.builds(
        lambda p, q: (Fraction(p, q), 0), st.integers(-6, 6), st.sampled_from([1, 1, 2, 3])
    )
    cols = _columns(draw, entry)
    radius = Fraction(draw(st.integers(0, 12)), draw(st.sampled_from([1, 2, 3])))
    return cols, radius


@st.composite
def sqrt2_cases(draw):
    entry = st.tuples(st.integers(-4, 4), st.integers(-3, 3))
    cols = _columns(draw, entry)
    radius = Fraction(draw(st.integers(0, 8)), draw(st.sampled_from([1, 2])))
    return cols, radius


def _check_against_brute(cols, radius, root):
    lat = _lattice(cols, root)
    try:
        caps = _coefficient_box(lat, radius)
    except ValidationError:  # dependent columns
        assume(False)
    assume(_box_size(caps) <= BOX_LIMIT)
    assert enumerate_cube(lat, radius) == _brute(cols, radius, root, caps)


@PROPERTY
@given(rational_cases())
def test_enumerate_cube_rational_matches_brute_force(case):
    _check_against_brute(*case, root=0)


@PROPERTY
@given(sqrt2_cases())
def test_enumerate_cube_sqrt2_matches_brute_force(case):
    _check_against_brute(*case, root=2)


def test_enumerate_cube_rechecks_the_float_band(monkeypatch):
    # x = 1 + (sqrt2 - 1)^26 exceeds 1 by 1.1e-10, inside the safety band a
    # float screen would need: the line intervals, exact on integers, drop
    # the point (1, 0) -> (x, 1) with no certified re-check, in the Python-int
    # walk of this 3-line box and in the kernel
    a, b = _sqrt2_unit(26)
    cols = [[(1 + a, -b), (1, 0)], [(1, 0), (0, 0)]]
    calls, kernel = _spy_recheck(monkeypatch), lattice.line_runs
    runs = []
    monkeypatch.setattr(lattice, "line_runs", lambda *args: runs.append(args) or kernel(*args))
    want = _brute(cols, 1, 2, _coefficient_box(_lattice(cols, 2), 1))
    pts = enumerate_cube(_lattice(cols, 2), 1)
    assert (1, 0) not in pts and (1, -1) in pts
    assert pts == want and runs == []
    pts = _kernel_points(_lattice(cols, 2), 1)
    assert (1, 0) not in pts and (1, -1) in pts
    assert pts == want
    assert len(runs) == 1 and calls == []


@st.composite
def sqrt5_half_cases(draw):
    """Half-integer entries (den 2) and radii in thirds (R den not integral)."""
    entry = st.builds(
        lambda a, b: (Fraction(a, 2), Fraction(b, 2)), st.integers(-5, 5), st.integers(-3, 3)
    )
    cols = _columns(draw, entry)
    radius = Fraction(draw(st.integers(0, 12)), draw(st.sampled_from([1, 2, 3])))
    return cols, radius


@PROPERTY
@given(sqrt5_half_cases())
def test_enumerate_cube_sqrt5_half_integers_match_brute_force(case):
    _check_against_brute(*case, root=5)


GOLDEN = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2))]  # (1 +- sqrt5)/2


@st.composite
def boundary_cases(draw):
    """Entries (a + 7 s sqrt5)/2 with s in {-1, 0, 1}: the irrational parts
    of a coordinate often cancel, so many points sit exactly on
    |coordinate| = R, where the float sums of 7 sqrt5 round either way."""
    entry = st.builds(
        lambda a, s: (Fraction(a, 2), Fraction(7 * s, 2)),
        st.integers(-20, 20), st.sampled_from([-1, 0, 0, 1]),
    )
    n = draw(st.integers(2, 3))
    cols = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(2, n)))]
    return cols, Fraction(draw(st.integers(1, 12)))


@PROPERTY
@given(boundary_cases())
def test_enumerate_cube_exact_boundary_points(case):
    cols, radius = case
    lat = _lattice(cols, 5)
    try:
        caps = _coefficient_box(lat, radius)
    except ValidationError:  # dependent columns
        assume(False)
    assume(_box_size(caps) <= BOX_LIMIT)
    pts = enumerate_cube(lat, radius)
    assert pts == _brute(cols, radius, 5, caps)
    assume(any(abs_real(v) == radius for m in pts for v in lat.point(m)))


def test_enumerate_cube_pell_near_tie_beyond_int64():
    # x = 1 + (sqrt2 - 1)^60 exceeds 1 by 1.1e-23; its scaled integers are
    # about 5e22 > 2^64, so only exact Python-int arithmetic can reject (1, 0)
    a, b = _sqrt2_unit(60)
    assert a > 2**64
    cols = [[(1 + a, -b), (1, 0)], [(1, 0), (0, 0)]]
    lat = _lattice(cols, 2)
    pts = enumerate_cube(lat, 1)
    assert (1, 0) not in pts and (1, -1) in pts
    assert pts == _brute(cols, 1, 2, _coefficient_box(lat, 1))


# negative slopes x + y sqrt r with parts of mixed signs: N = x^2 - r y^2
# is negative for some (the value has the sign of y) and positive for the
# others (the sign of x), e.g. 1 - sqrt2 and -3/2 + sqrt2
MIXED_NEGATIVE = {2: [(1, -1), (-3, 2), (Fraction(-3, 2), 1), (-1, Fraction(1, 2))],
                  5: [(-3, 1), (2, -1), (Fraction(-5, 2), 1), (Fraction(1, 2), Fraction(-1, 2))]}


@st.composite
def kernel_cases(draw):
    """Q(sqrt2) and Q(sqrt5) lattices with integer and half-integer entries
    whose free-axis column has a flat coordinate and a negative slope with
    mixed-sign parts, at radii in halves and thirds, scaled by 1 or by at
    least 2**62 (with the radius) to take the Python-int path."""
    root = draw(st.sampled_from([2, 5]))
    half = st.builds(lambda a, b: (Fraction(a, 2), Fraction(b, 2)),
                     st.integers(-6, 6), st.integers(-4, 4))
    n = draw(st.integers(2, 3))
    cols = [[draw(half) for _ in range(n)] for _ in range(draw(st.integers(1, n)))]
    radius = Fraction(draw(st.integers(0, 12)), draw(st.sampled_from([1, 2, 3])))
    try:
        axis = _free_axis_of(_coefficient_box(_lattice(cols, root), radius))
    except ValidationError:  # dependent columns
        assume(False)
    flat, neg = draw(st.permutations(range(n)))[:2]
    cols[axis][flat] = (Fraction(0), Fraction(0))
    cols[axis][neg] = draw(st.sampled_from(MIXED_NEGATIVE[root]))
    scale = draw(st.sampled_from([1, 2**62 + draw(st.integers(0, 2**70))]))
    return cols, radius, root, scale


@PROPERTY
@given(kernel_cases())
def test_line_kernel_matches_brute_force(case):
    """The exact line intervals against a Fraction walk of the box, with a
    flat coordinate and a mixed-sign negative slope on the free axis, on
    int64 and, scaled past 2**62, on Python ints; the count builds no
    rows.  enumerate_cube walks a box of at most SCALAR_LINES lines on
    Python ints, so the kernel is also run on the box itself."""
    cols, radius, root, scale = case
    lat = _lattice(cols, root)
    try:
        caps = _coefficient_box(lat, radius)
    except ValidationError:  # dependent columns
        assume(False)
    assume(_box_size(caps) <= BOX_LIMIT)
    column = cols[_free_axis_of(caps)]
    assume((0, 0) in column and any(c in MIXED_NEGATIVE[root] for c in column))
    big = _lattice([[(a * scale, b * scale) for a, b in col] for col in cols], root)
    assert _coefficient_box(big, radius * scale) == caps
    dtypes, kernel = [], lattice._floor_div
    lattice._floor_div = lambda xa, *args: dtypes.append(xa.dtype) or kernel(xa, *args)
    want = _brute(cols, radius, root, caps)
    try:
        pts = enumerate_cube(big, radius * scale)
        assert (dtypes == []) == (_lines(caps) <= lattice.SCALAR_LINES)
        kpts = _kernel_points(big, radius * scale)
    finally:
        lattice._floor_div = kernel
    for got in (pts, kpts):
        assert len(got) == len(want) and got._rows is None  # counted, not built
        assert got == want
    assert set(dtypes) == {np.dtype(object) if scale > 1 else np.dtype(np.int64)}


def _pell(root, count):
    """count solutions (a, b) of a^2 - root b^2 = +-1, b ascending: the
    powers of the unit 1 + sqrt2 or 2 + sqrt5, of norm -1."""
    a, b = 1, 0
    step = {2: (1, 1), 5: (2, 1)}[root]
    out = []
    for _ in range(count):
        a, b = a * step[0] + root * b * step[1], a * step[1] + b * step[0]
        out.append((a, b))
    return out


@pytest.mark.parametrize("root", [2, 5])
def test_floor_div_exact_near_squares(root):
    """f^2 root = a^2 +- 1 for the Pell pairs (a, f): the float square root
    of f^2 root rounds to a whole number or across it once f^2 root passes
    2**53, and the integer corrections must give floor(f sqrt root) on both
    sides, for f of either sign, in int64 and on Python ints."""
    pairs = [(a, b) for a, b in _pell(root, 40) if b * b * root < 2**62]
    assert pairs[-1][1] ** 2 * root > 2**60
    fs = [s * (b + d) for _, b in pairs for d in (-1, 0, 1) for s in (1, -1)]
    es = [0, 1, -1, 7, -(2**40)]
    for dtype in (np.int64, object):
        f = np.array([x for x in fs for _ in es], dtype=dtype)
        e = np.array(es * len(fs), dtype=dtype)
        for n in (1, 3):
            got = lattice._floor_div(e, f, 1, 0, n, root)  # (e + f sqrt r) * 1 / n
            want = [(int(x) + (math.isqrt(int(y) ** 2 * root) if y >= 0
                               else -math.isqrt(int(y) ** 2 * root) - 1)) // n
                    for x, y in zip(e.tolist(), f.tolist())]
            assert got.tolist() == want


def test_q_sqrt_r_counts_make_no_certified_comparison(monkeypatch):
    """A Q(sqrt r) cube enumeration and the totally real module count
    decide every point on integers: neither calls cmp_real nor
    real_to_float, and the points match the Fraction walk."""
    from latheights import bounds, cli

    def refuse(*args, **kwargs):
        raise AssertionError("a float or a certified comparison decided a point")

    for module in (reals, lattice, bounds):
        for name in ("cmp_real", "real_to_float"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    cols = [[GOLDEN[0], GOLDEN[1], (0, 0)], [GOLDEN[1], (1, 0), (0, 0)], [(1, 0), (0, 0), (1, 0)]]
    pts = enumerate_cube(_lattice(cols, 5), Fraction(5, 2))
    assert pts == _brute(cols, Fraction(5, 2), 5, _coefficient_box(_lattice(cols, 5), Fraction(5, 2)))
    instances = dict(cli._thm1_instances())
    assert _fast_count_totally_real(instances["Q(sqrt2)-ideal-L1"], Fraction(32**2)) == 5789
    assert _fast_count_totally_real(instances["Q(sqrt5)-free-L1"], Fraction(16**2)) == 3015


def _spy_recheck(monkeypatch):
    calls = []
    real = lattice._certified_in_cube

    def spy(lat, m, radius):
        calls.append(m)
        return real(lat, m, radius)

    monkeypatch.setattr(lattice, "_certified_in_cube", spy)
    return calls


def test_band_of_quadratic_lattice_skips_certified_recheck(monkeypatch):
    cols = [[GOLDEN[0], GOLDEN[1], (0, 0)], [GOLDEN[1], (1, 0), (0, 0)], [(1, 0), (0, 0), (1, 0)]]
    lat = _lattice(cols, 5)
    caps = _coefficient_box(lat, 1)  # caches the box norms, which use quad_sign
    calls = _spy_recheck(monkeypatch)
    signs, real = [], reals.quad_sign

    def spy_sign(*args):
        signs.append(args)
        return real(*args)

    for module in (reals, lattice):
        monkeypatch.setattr(module, "quad_sign", spy_sign)
    pts = enumerate_cube(lat, 1)
    assert pts == _brute(cols, 1, 5, caps)
    assert (1, 1, 0) in pts  # phi + conj(phi) = 1: on the face, in the band
    # the Python-int walk signs its flat coordinate on integers; the kernel
    # decides every point on integer arrays, with no scalar sign
    assert calls == [] and all(type(x) is int for args in signs for x in args)
    signs.clear()
    assert _kernel_points(lat, 1) == pts
    assert calls == [] and signs == []


def test_band_of_ball_lattice_uses_certified_recheck(monkeypatch):
    calls = _spy_recheck(monkeypatch)
    # the radius is the lower end of log 3's enclosure: the integer walk
    # cannot tell +-1 from the boundary, and cmp_real finds them outside
    radius = endpoints(log_real(3))[0]
    assert enumerate_cube(RealLattice([[log_real(3)]]), radius) == [(0,)]
    assert sorted(calls) == [(-1,), (1,)]


def test_exact_coordinates_of_a_ball_lattice_are_decided_on_integers(monkeypatch):
    """O_K of the cyclic cubic x^3 + x^2 - 2x - 1 as a ball lattice: the
    vectors +-1 lie on the boundary of the cube of radius 1, through the
    column of 1s alone, whose enclosure has width 0.  The walk decides them
    on integers, so a 128-bit cap leaves the minimum and its witness
    certified."""
    field = nf_new([-1, -2, 1, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    lat = OkModule.free_module(field, 1).module_lattice()
    assert lat.scaled_columns() is None
    monkeypatch.setattr(PRECISION, "cap", 128)
    calls = _spy_recheck(monkeypatch)
    value, witness = lattice.supnorm_min(lat)
    assert endpoints(value) == (1, 1) and witness == (-1, 0, 0)
    assert calls == []


def _within_table(xs, ys, top, m, q):
    """Rows (x, y, p) and whether q |x + y sqrt(m)| <= p, by QuadReal, for
    p at and next to q |x|, and p in {0, 1, top}."""
    rows, want = [], []
    for x in xs + [-x for x in xs]:
        for y in ys + [-y for y in ys]:
            t = QuadReal(x, y, m)
            for p in sorted({0, 1, abs(x) * q, abs(x) * q + 1, max(abs(x) * q - 1, 0), top}):
                rows.append((x, y, p))
                want.append((QuadReal(Fraction(p, q)) - abs_real(t)).sign() >= 0)
    return rows, want


@pytest.mark.parametrize("m", [2, 5])
@pytest.mark.parametrize("q", [1, 3])
def test_quad_within_matches_quadreal_sign(m, q):
    """The band's array decision, once as int64 inside the overflow guard
    and once on Python ints past 2**64 and on Pell-unit parts."""
    small = [0, 1, 7, 40], [0, 1, 5, 29], 2**20
    pell = _sqrt2_unit(70)
    large = ([0, 1, 7, 2**64 + 1, pell[0], pell[0] + 1],
             [0, 1, 5, 2**65, pell[1], pell[1] - 1], 2**70)
    for (xs, ys, top), dtype in ((small, "int64"), (large, object)):
        rows, want = _within_table(xs, ys, top, m, q)
        assert lattice._int_dtype([xs + ys], [0], q, max(p for _, _, p in rows), m) == dtype
        x, y, p = (np.array(c, dtype=dtype) for c in zip(*rows))
        assert lattice._quad_within(x, y, m, p, q).tolist() == want
        zero = np.zeros(1, dtype=dtype)
        assert lattice._quad_within(zero, zero, m, 0, q).all()
        assert lattice._quad_within(zero + 5 * q, zero, m, 5 * q * q, q).all()  # |x| = t
        assert not lattice._quad_within(zero - 5, zero - 1, m, 5 * q, q).any()


@pytest.mark.parametrize("b, dtype", [(2**28, object), (2**28 + 1, object),
                                      (5625, np.int64), (5626, object)])
def test_enumerate_cube_band_on_both_sides_of_the_int64_guard(monkeypatch, b, dtype):
    """Two columns whose sqrt2 parts cancel, so (1, 0) and (1, 1) sit on the
    face |x|_inf = 1.  The kernel's guard (k (U + q E (cap + 1) L))^2 r,
    with k = 2 (1 + r) C for the largest conjugate entry C = a + 1 of the
    free column, U = q = 1, E = a + 1, caps 1 and L = 2, is far above
    2**62 at b = 2**28 and 2**28 + 1, and just below and above it at
    b = 5625 and 5626."""
    a = math.isqrt(2 * b * b) - 1
    cols = [[(1 + a, -b), (1, 0)], [(-a, b), (0, 0)]]
    lat = _lattice(cols, 2)
    caps = _coefficient_box(lat, 1)
    k = 2 * 3 * (a + 1)
    guard = (k * (1 + (a + 1) * (max(caps) + 1) * 2)) ** 2 * 2
    assert caps == [1, 1] and (guard < 2**62) == (dtype is np.int64)
    seen, real = [], lattice._floor_div

    def spy(e, *args):
        seen.append(e.dtype)
        return real(e, *args)

    monkeypatch.setattr(lattice, "_floor_div", spy)
    want = _brute(cols, 1, 2, caps)
    pts = enumerate_cube(lat, 1)  # 3 lines: walked on Python ints
    assert pts == want and seen == []
    assert (1, 0) in pts and (1, 1) in pts
    pts = _kernel_points(lat, 1)
    assert pts == want
    assert (1, 0) in pts and (1, 1) in pts
    assert seen and set(seen) == {np.dtype(dtype)}


def test_coefficient_box_caches_row_norms(monkeypatch):
    """One solve per lattice: the integer solve on an integer Gram matrix,
    linalg.solve on an irrational or ball Gram matrix."""
    calls = []

    def spy(module):
        solve = module.solve

        def run(a, b):
            calls.append(module.__name__)
            return solve(a, b)

        monkeypatch.setattr(module, "solve", run)

    spy(linalg)
    spy(intmat)
    makers = [
        (lambda: _lattice([[(1, 1), (Fraction(1, 2), 0)], [(0, -1), (3, 2)]], 2), linalg),
        (lambda: _lattice([[(3, 0), (Fraction(1, 2), 0)], [(0, 0), (5, 0)]], 0), intmat),
        (lambda: _lattice([[(0, 1), (1, 0)], [(2, 1), (1, -2)]], 2), intmat),
        (lambda: RealLattice([[log_real(3), 1], [1, log_real(5)]]), linalg),
    ]
    radii = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2), Fraction(10**6 + 1, 7)]
    for make, solver in makers:
        lat, calls[:] = make(), []
        caps = [_coefficient_box(lat, r) for r in radii]
        assert calls == [solver.__name__]
        assert caps == [_coefficient_box(make(), r) for r in radii]


def _gauss_jordan_inverse(g):
    """G^{-1} by Gauss-Jordan on [G | I], written out here."""
    n = len(g)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(g)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k] != 0)
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k:
                m[i] = [x - m[i][k] * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]


def _floor_quad(x):
    """Exact floor of x = a + b sqrt(m) from integer square roots."""
    q = x.a.denominator * x.b.denominator
    p, r = int(x.a * q), int(x.b * q)
    root = math.isqrt(r * r * x.m)  # r sqrt(m) is irrational unless r = 0
    return (p + root if r >= 0 else p - root - 1) // q


def _reference_caps(cols, radius):
    """floor(radius * l1 norm) of each row of G^{-1} B^T, with a plain
    Fraction G^{-1} when the Gram matrix is rational."""
    zero = QuadReal(0)
    gram = [[sum((x * y for x, y in zip(u, v)), zero) for v in cols] for u in cols]
    if all(e.is_rational for row in gram for e in row):
        gram = [[e.as_fraction() for e in row] for row in gram]
    caps = []
    for row in _gauss_jordan_inverse(gram):
        s = zero
        for t in range(len(cols[0])):
            v = sum((g * col[t] for g, col in zip(row, cols)), zero)
            s = s + (v if v.sign() >= 0 else -v)
        caps.append(_floor_quad(s * radius))
    return caps


@st.composite
def box_cases(draw):
    """Random rational and Q(sqrt m) lattices (rational or irrational Gram),
    and Minkowski lattices of modules over Q(sqrt2), Q(sqrt5), whose Gram
    matrices are rational."""
    kind = draw(st.sampled_from(["rational", "sqrt2", "module"]))
    if kind == "rational":
        cols, radius = draw(rational_cases())
        return _lattice(cols, 0), radius
    if kind == "sqrt2":
        cols, radius = draw(sqrt2_cases())
        return _lattice(cols, 2), radius
    root, n, ys, radius = draw(module_cases())
    field = _field(root)
    unit = FracIdeal.unit(field)
    try:
        module = OkModule.from_pseudo_basis(
            field, n, [([field.element(list(c)) for c in y], unit) for y in ys]
        )
    except ValidationError:
        assume(False)
    return module.module_lattice(), radius


@PROPERTY
@given(box_cases())
def test_coefficient_box_matches_fraction_inverse(case):
    lat, radius = case
    try:
        want = _reference_caps(lat.columns, radius)
    except StopIteration:  # singular Gram: dependent columns
        with pytest.raises(ValidationError):
            _coefficient_box(lat, radius)
        return
    assert _coefficient_box(lat, radius) == want


@PROPERTY
@given(rational_cases(), st.integers(0, 2**70))
def test_enumerate_cube_python_int_path(case, shift):
    """Entries of 2^62 and more overflow int64: the line intervals must be
    taken on Python ints and give the points of the unscaled lattice, in the
    same order; the unscaled lattice stays on int64.  A box of at most
    SCALAR_LINES lines is walked on Python ints and picks no dtype, so the
    kernel is also run on the box itself."""
    cols, radius = case
    scale = 2**62 + shift
    big = _lattice([[(a * scale, 0) for a, _ in col] for col in cols], 0)
    try:
        caps = _coefficient_box(big, radius * scale)
    except ValidationError:  # dependent columns
        assume(False)
    assume(_box_size(caps) <= BOX_LIMIT)
    pick, dtypes = lattice._int_dtype, []

    def spy(*args):
        dtypes.append(pick(*args))
        return dtypes[-1]

    lattice._int_dtype = spy
    try:
        pts = enumerate_cube(big, radius * scale)
        small = enumerate_cube(_lattice(cols, 0), radius)
        walked, dtypes[:] = list(dtypes), []
        kernel = (_kernel_points(big, radius * scale), _kernel_points(_lattice(cols, 0), radius))
    finally:
        lattice._int_dtype = pick
    assert walked == ([] if _lines(caps) <= lattice.SCALAR_LINES else [object, "int64"])
    assert dtypes == [object, "int64"]
    assert pts == _brute(cols, radius, 0, caps)
    assert pts == small
    assert kernel == (pts, small)


def _free_axis_of(caps):
    return max(range(len(caps)), key=lambda j: caps[j])


@st.composite
def flat_line_cases(draw):
    """Rational lattices whose free-axis column has a zero coordinate, so
    that coordinate is flat on every line, and a negative one (a negative
    slope); radii include 0 and 1/3."""
    cols, radius = draw(rational_cases())
    assume(len(cols[0]) >= 2)
    radius = draw(st.sampled_from([Fraction(0), Fraction(1, 3), radius]))
    try:
        axis = _free_axis_of(_coefficient_box(_lattice(cols, 0), radius))
    except ValidationError:  # dependent columns
        assume(False)
    flat, neg = draw(st.permutations(range(len(cols[0]))))[:2]
    cols[axis][flat] = (Fraction(0), 0)
    cols[axis][neg] = (-Fraction(draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3]))), 0)
    return cols, radius


@PROPERTY
@given(flat_line_cases())
def test_enumerate_cube_flat_coordinates_and_negative_slopes(case):
    cols, radius = case
    lat = _lattice(cols, 0)
    try:
        caps = _coefficient_box(lat, radius)
    except ValidationError:  # dependent columns
        assume(False)
    assume(_box_size(caps) <= BOX_LIMIT)
    column = [a for a, _ in cols[_free_axis_of(caps)]]
    assume(0 in column and min(column) < 0)
    want = _brute(cols, radius, 0, caps)
    assert len(enumerate_cube(lat, radius)) == len(want)
    assert enumerate_cube(lat, radius) == want


@PROPERTY
@given(rational_cases())
def test_len_of_a_rational_enumeration_builds_no_rows(case):
    cols, radius = case
    lat = _lattice(cols, 0)
    try:
        caps = _coefficient_box(lat, radius)
    except ValidationError:  # dependent columns
        assume(False)
    assume(_box_size(caps) <= BOX_LIMIT)
    sort, sorts = np.lexsort, []

    def spy(keys):
        sorts.append(len(keys))
        return sort(keys)

    np.lexsort = spy
    try:
        pts = enumerate_cube(lat, radius)
        count = len(pts)
        assert pts._rows is None and sorts == []
        rows = list(pts)
        assert sorts == [1] and list(pts) == rows  # one stable sort by t
    finally:
        np.lexsort = sort
    assert count == len(rows) == len(_brute(cols, radius, 0, caps))


@st.composite
def one_line_cases(draw):
    """(cols, radius, root, scale): a Q, Q(sqrt2) or Q(sqrt5) lattice (half
    integers over Q(sqrt5)) whose cube box is one line.  Rank 1, or rank
    >= 2 with one column drawn plainly and the others k times longer, at a
    radius below 1 / s for the second largest row norm s of the
    pseudo-inverse, halved until the box is one line; zero and negative
    coordinates; radii 0, below the least nonzero entry or free; scaled by
    1 or, with the radius, by at least 2**62."""
    root = draw(st.sampled_from([0, 2, 5]))
    den = {0: draw(st.sampled_from([1, 2, 3])), 2: 1, 5: 2}[root]
    entry = st.builds(lambda a, b: (Fraction(a, den), Fraction(b, den) if root else 0),
                      st.integers(-6, 6), st.integers(-3, 3))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 40))
    cols = [[draw(entry) for _ in range(n)]]
    cols += [[(a * k, b * k) for a, b in (draw(entry) for _ in range(n))]
             for _ in range(draw(st.integers(1, n)) - 1)]
    cols = draw(st.permutations(cols))
    lat = _lattice(cols, root)
    try:
        norms = sorted(map(reals.real_to_float, lattice._pinv_row_norms(lat)))
    except ValidationError:  # dependent columns
        assume(False)
    reach = 1 / norms[-2] if len(norms) > 1 else 60
    least = min(abs(a + b * math.sqrt(root)) for col in cols for a, b in col if a or b)
    radius = {"zero": Fraction(0), "below": Fraction(math.floor(least * 0.9 * 12), 12),
              "free": Fraction(math.floor(reach * draw(st.integers(1, 100))), 100)}[
        draw(st.sampled_from(["zero", "below", "free", "free", "free"]))]
    while not _one_line(_coefficient_box(lat, radius)):
        radius /= 2
    scale = draw(st.sampled_from([1, 2**62 + draw(st.integers(0, 2**70))]))
    return cols, radius, root, scale


@settings(PROPERTY, max_examples=200)
@given(one_line_cases())
def test_one_line_box_is_counted_in_closed_form(case):
    """A one-line box, the Python-int walk's case of one line, gives the
    Fraction walk's points, in slab order, with no kernel walk, on int64
    and past the 2**62 guard; len() builds no rows."""
    cols, radius, root, scale = case
    caps = _coefficient_box(_lattice(cols, root), radius)
    assume(_box_size(caps) <= BOX_LIMIT)
    big = _lattice([[(a * scale, b * scale) for a, b in col] for col in cols], root)
    assert _coefficient_box(big, radius * scale) == caps
    runs, kernel = [], lattice.line_runs
    lattice.line_runs = lambda *args: runs.append(args) or kernel(*args)
    try:
        pts = enumerate_cube(big, radius * scale)
    finally:
        lattice.line_runs = kernel
    want = _brute(cols, radius, root, caps)
    assert len(pts) == len(want) and pts._rows is None and runs == []
    assert pts == want
    assert pts.rows.dtype == np.int64 and pts.rows.shape == (len(want), len(caps))


@pytest.mark.parametrize("root", [0, 2, 5])
def test_one_line_box_keeps_the_column_and_budget_checks(monkeypatch, root):
    """A zero column is refused before the walk, and a one-line box
    past ENUM_BUDGET raises BudgetExceeded, in enumerate_cube and, over Q,
    in supnorm_min."""
    y = 1 if root else 0
    for cols in ([[(0, 0), (0, 0)]], [[(3, y), (1, 0)], [(0, 0), (0, 0)]]):
        with pytest.raises(ValidationError):
            enumerate_cube(_lattice(cols, root), 5)
    cols = [[(3, y), (-1, 0), (0, 0)]]
    caps = _coefficient_box(_lattice(cols, root), 7)
    monkeypatch.setattr(lattice, "ENUM_BUDGET", _box_size(caps) - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_cube(_lattice(cols, root), 7)
    monkeypatch.setattr(lattice, "ENUM_BUDGET", _box_size(caps))
    assert enumerate_cube(_lattice(cols, root), 7) == _brute(cols, 7, root, caps)
    if not root:
        monkeypatch.setattr(lattice, "ENUM_BUDGET", 2)  # the box at r0 = 3 is |m| <= 1
        with pytest.raises(BudgetExceeded):
            lattice.supnorm_min(_lattice(cols, 0))
        with pytest.raises(ValidationError):
            lattice.supnorm_min(_lattice([[(0, 0), (0, 0)]], 0))


@st.composite
def walk_cases(draw):
    """(cols, radius, root, scale): Q with denominators up to 3, Q(sqrt2)
    and Q(sqrt5) half integers, radius 0 or drawn, scaled by 1 or, with the
    radius, by 2**62 and up to 2**70 more; in half the cases the free-axis
    column gets a flat coordinate and a negative slope, over Q(sqrt r) one
    with parts of mixed signs."""
    root = draw(st.sampled_from([0, 2, 5]))
    den = {0: draw(st.sampled_from([1, 2, 3])), 2: 1, 5: 2}[root]
    entry = st.builds(lambda a, b: (Fraction(a, den), Fraction(b, den) if root else 0),
                      st.integers(-6, 6), st.integers(-3, 3))
    cols = _columns(draw, entry)
    radius = draw(st.sampled_from([Fraction(0), Fraction(draw(st.integers(1, 12)),
                                                        draw(st.sampled_from([1, 2, 3])))]))
    if len(cols[0]) >= 2 and draw(st.booleans()):
        try:
            axis = _free_axis_of(_coefficient_box(_lattice(cols, root), radius))
        except ValidationError:  # dependent columns
            assume(False)
        flat, neg = draw(st.permutations(range(len(cols[0]))))[:2]
        cols[axis][flat] = (Fraction(0), 0)
        cols[axis][neg] = draw(st.sampled_from(MIXED_NEGATIVE[root])) if root else (
            -Fraction(draw(st.integers(1, 6)), den), 0)
    scale = draw(st.sampled_from([1, 2**62 + draw(st.integers(0, 2**70))]))
    return cols, radius, root, scale


def _check_walk_and_kernel(cols, radius, root, scale, caps):
    """The Python-int walk and the kernel, each forced on the box of caps,
    give the Fraction walk's count without building rows, then its points
    in slab order as int64 rows."""
    big = _lattice([[(a * scale, b * scale) for a, b in col] for col in cols], root)
    want = _brute(cols, radius, root, caps)
    runs, kernel = [], lattice.line_runs
    lattice.line_runs = lambda *args: runs.append(args) or kernel(*args)
    try:
        walked = _points_at(10**9, big, radius * scale)
        assert runs == []
        kernel_pts = _kernel_points(big, radius * scale)
        assert len(runs) == 1
    finally:
        lattice.line_runs = kernel
    for pts in (walked, kernel_pts):
        assert len(pts) == len(want) and pts._rows is None
        assert pts == want
        assert pts.rows.dtype == np.int64 and pts.rows.shape == (len(want), len(caps))


@settings(PROPERTY, max_examples=150)
@given(st.one_of(walk_cases(), one_line_cases()))
def test_scalar_walk_matches_the_kernel_and_brute_force(case):
    cols, radius, root, scale = case
    try:
        caps = _coefficient_box(_lattice(cols, root), radius)
    except ValidationError:  # dependent columns
        assume(False)
    assume(_box_size(caps) <= BOX_LIMIT)
    _check_walk_and_kernel(cols, radius, root, scale, caps)


# boxes of exactly SCALAR_LINES (49) lines and of 51, the next line count
# (every count is odd, a product of odd cap lengths), over Q, Q(sqrt2) and
# Q(sqrt5) half integers, each with a flat coordinate on its free axis
THRESHOLD_BOXES = [
    (0, [[(-2, 0), (Fraction(-3, 2), 0), (0, 0)], [(Fraction(1, 2), 0), (Fraction(1, 2), 0), (-2, 0)],
         [(0, 0), (Fraction(-3, 2), 0), (0, 0)]], 6, 49),
    (0, [[(-2, 0), (Fraction(1, 2), 0), (Fraction(-1, 2), 0)], [(-1, 0), (-2, 0), (1, 0)],
         [(Fraction(3, 2), 0), (Fraction(-1, 2), 0), (0, 0)]], 3, 51),
    (2, [[(2, -2), (0, 0), (-4, 2)], [(2, 0), (4, -1), (-4, 2)], [(-1, -1), (-1, -2), (-1, -2)]],
     6, 49),
    (2, [[(0, 2), (0, 0), (3, -1)], [(2, 1), (0, 0), (1, 0)], [(0, -1), (-3, 0), (-4, 2)]],
     Fraction(9, 2), 51),
    (5, [[(Fraction(-1, 2), 1), (Fraction(-3, 2), -1), (Fraction(-1, 2), 1)],
         [(Fraction(3, 2), Fraction(1, 2)), (0, 1), (Fraction(-1, 2), Fraction(1, 2))],
         [(0, 0), (Fraction(-1, 2), 0), (Fraction(1, 2), 1)]], 8, 49),
    (5, [[(-1, 1), (0, Fraction(-1, 2)), (2, Fraction(1, 2))], [(Fraction(3, 2), -1), (0, 0), (0, 0)],
         [(Fraction(1, 2), 0), (Fraction(-1, 2), 0), (2, -1)]], Fraction(7, 2), 51),
]


@pytest.mark.parametrize("root, cols, radius, lines", THRESHOLD_BOXES)
@pytest.mark.parametrize("scale", [1, 2**62 + 2**69 + 1])
def test_boxes_at_the_line_threshold(root, cols, radius, lines, scale):
    """enumerate_cube walks a box of SCALAR_LINES lines on Python ints and
    hands one line more to the kernel; both agree with the Fraction walk."""
    big = _lattice([[(a * scale, b * scale) for a, b in col] for col in cols], root)
    caps = _coefficient_box(big, radius * scale)
    assert lattice.SCALAR_LINES == 49 and _lines(caps) == lines
    assert any(entry == (0, 0) for entry in cols[_free_axis_of(caps)])  # a flat coordinate
    runs, kernel = [], lattice.line_runs
    lattice.line_runs = lambda *args: runs.append(args) or kernel(*args)
    try:
        pts = enumerate_cube(big, radius * scale)
    finally:
        lattice.line_runs = kernel
    assert len(runs) == (lines > lattice.SCALAR_LINES)
    assert pts == _brute(cols, radius, root, caps)
    _check_walk_and_kernel(cols, Fraction(radius), root, scale, caps)


def test_rational_budget_is_checked_on_the_box_before_any_array(monkeypatch):
    cols = [[(3, 0), (1, 0)], [(-2, 0), (5, 0)]]
    lat = _lattice(cols, 0)
    caps = _coefficient_box(lat, 7)
    grids, grid = [], lattice._prefix_grid
    monkeypatch.setattr(lattice, "_prefix_grid", lambda *a: grids.append(a) or grid(*a))
    monkeypatch.setattr(lattice, "ENUM_BUDGET", _box_size(caps) - 1)
    for enum in (enumerate_cube, _kernel_points):
        with pytest.raises(BudgetExceeded):
            enum(lat, 7)
    assert grids == []
    monkeypatch.setattr(lattice, "ENUM_BUDGET", _box_size(caps))
    assert enumerate_cube(lat, 7) == _brute(cols, 7, 0, caps) and grids == []  # Python ints
    assert _kernel_points(lat, 7) == _brute(cols, 7, 0, caps) and len(grids) == 1


@PROPERTY
@given(st.one_of(rational_cases().map(lambda c: (c, 0)), sqrt2_cases().map(lambda c: (c, 2))),
       st.sampled_from([1, 2**62]))
def test_cube_points_are_python_int_tuples_and_compare_both_ways(case, scale):
    (cols, radius), root = case
    cols = [[(a * scale, b * scale) for a, b in col] for col in cols]
    lat = _lattice(cols, root)
    try:
        caps = _coefficient_box(lat, radius * scale)
    except ValidationError:  # dependent columns
        assume(False)
    assume(_box_size(caps) <= BOX_LIMIT)
    pts = enumerate_cube(lat, radius * scale)
    first = list(pts)
    assert all(type(m) is tuple and all(type(x) is int for x in m) for m in first)
    assert list(pts) == first and len(pts) == len(first)
    want = _brute(cols, radius * scale, root, caps)
    assert pts == want and want == pts
    assert pts == tuple(want) and tuple(want) == pts
    assert pts != want + [()] and want + [()] != pts
    assert pts.rows.shape == (len(want), len(caps))


def _check_reversed_points_are_negated(lat, radius):
    """m -> -m reverses the slab order of the cube's points and leaves 0 in
    the middle: the invariant on which supnorm_min searches only the first
    half of them."""
    rows = enumerate_cube(lat, radius).rows
    assert len(rows) % 2 == 1 and not rows[len(rows) // 2].any()
    assert np.array_equal(rows[::-1], -rows)


@PROPERTY
@given(st.one_of(rational_cases().map(lambda c: (c, 0)), sqrt2_cases().map(lambda c: (c, 2)),
                 sqrt5_half_cases().map(lambda c: (c, 5))),
       st.sampled_from([1, 2**62]))
def test_reversed_cube_points_are_the_negated_points(case, scale):
    """Q lattices on int64 and scaled past 2**62, Q(sqrt2) and Q(sqrt5)."""
    (cols, radius), root = case
    lat = _lattice([[(a * scale, b * scale) for a, b in col] for col in cols], root)
    try:
        caps = _coefficient_box(lat, radius * scale)
    except ValidationError:  # dependent columns
        assume(False)
    assume(_box_size(caps) <= BOX_LIMIT)
    _check_reversed_points_are_negated(lat, radius * scale)


@settings(PROPERTY, max_examples=100)
@given(one_line_cases())
def test_reversed_one_line_points_are_the_negated_points(case):
    cols, radius, root, scale = case
    lat = _lattice([[(a * scale, b * scale) for a, b in col] for col in cols], root)
    _check_reversed_points_are_negated(lat, radius * scale)


@st.composite
def ball_cases(draw):
    """(columns, radius): integer entries, logarithms +-log k and the two
    radicands +-sqrt2, +-sqrt3, any of which makes the lattice one without
    scaled columns, walked on its integer enclosure by _enumerate_generic.
    The radius is an odd multiple of 1/8: a coordinate is an integer plus
    the logarithm of a rational plus a sqrt2 + b sqrt3, which equals no
    such radius (Lindemann), so no boundary tie leaves the certified
    re-check undecided."""
    n = draw(st.integers(1, 3))
    sign = st.sampled_from([-1, 1])
    entry = st.one_of(st.integers(-3, 3),
                      st.builds(lambda k, g: g * log_real(k), st.integers(2, 9), sign),
                      st.builds(lambda m, g: QuadReal(0, g, m), st.sampled_from([2, 3]), sign))
    cols = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, n)))]
    if n > 1 and draw(st.booleans()):  # sqrt2 and sqrt3 side by side
        cols[0][:2] = QuadReal(0, 1, 2), QuadReal(0, 1, 3)
    else:
        cols[0][0] = log_real(draw(st.integers(2, 9)))
    return cols, Fraction(2 * draw(st.integers(0, 23)) + 1, 8)


def _ball_lattice_case(case):
    """(lattice, radius, caps) of a ball case, skipped when its columns are
    dependent or its box is past BOX_LIMIT."""
    cols, radius = case
    lat = RealLattice(cols)
    assert lat.scaled_columns() is None
    try:
        caps = _coefficient_box(lat, radius)
    except (ValidationError, PrecisionExhausted):  # dependent columns
        assume(False)
    assume(_box_size(caps) <= BOX_LIMIT)
    return lat, radius, caps


@PROPERTY
@given(ball_cases())
def test_reversed_ball_lattice_points_are_the_negated_points(case):
    lat, radius, _ = _ball_lattice_case(case)
    _check_reversed_points_are_negated(lat, radius)


@PROPERTY
@given(ball_cases(), st.data())
def test_ball_lattice_points_match_the_certified_box_walk(case, data):
    """On logarithms and two radicands, the points of both walks are those
    of a walk of every box point in slab order that decides each by
    cmp_real on the point's own coordinates.  Half the radii are an end of
    the 128-bit enclosure of the largest entry |x| of a column, within
    2^-127 of |x|: the 64-bit midpoint that the integer walk reads is on the
    wrong side of such a radius half the time, so the walk must widen its
    radius and re-decide the points in its error band."""
    cols, radius = case
    if data.draw(st.booleans()):
        x = max(data.draw(st.sampled_from(cols)), key=lambda x: endpoints(abs_real(x)))
        radius = data.draw(st.sampled_from(endpoints(abs_real(x), 128)))
    lat, radius, caps = _ball_lattice_case((cols, radius))
    try:
        want = [m for m in _slab_order(caps)
                if all(cmp_real(abs_real(v), radius) <= 0 for v in lat.point(m))]
    except PrecisionExhausted:  # a rational coordinate, as a ball, on the boundary
        assume(False)
    assert enumerate_cube(lat, radius) == want
    assert _kernel_points(lat, radius) == want


def _field(root):
    if root == 2:
        return nf_new([-2, 0, 1], [[1, 0], [0, 1]])
    return nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])


@st.composite
def module_cases(draw):
    root = draw(st.sampled_from([2, 5]))
    n = draw(st.integers(1, 2))
    big_l = draw(st.integers(1, n))

    entry = st.tuples(st.integers(-2, 2), st.integers(-1, 1))  # a + b sqrt(root)
    ys = [[draw(entry) for _ in range(n)] for _ in range(big_l)]
    radius = Fraction(draw(st.integers(2, 6)), draw(st.sampled_from([1, 2])))
    return root, n, ys, radius


@PROPERTY
@given(module_cases())
def test_fast_count_matches_height_recount(case):
    root, n, ys, radius = case
    field = _field(root)
    unit = FracIdeal.unit(field)
    try:
        module = OkModule.from_pseudo_basis(
            field, n, [([field.element(list(c)) for c in y], unit) for y in ys]
        )
    except ValidationError:  # dependent pseudo-basis vectors
        assume(False)
    rd = radius**2
    caps = _coefficient_box(module.module_lattice(), rd)
    assume(_box_size(caps) <= BOX_LIMIT)
    fast = _fast_count_totally_real(module, rd)
    assert fast is not None
    count = 0
    for m in enumerate_cube(module.module_lattice(), rd):
        if not any(m):
            count += 1
            continue
        x = z_combination(module.z_basis, m)
        if (height_h(field, x).as_rooted() ** 2).cmp(as_rooted(rd)) <= 0:
            count += 1
    assert fast == count


@pytest.mark.parametrize("root", [2, 5])
def test_fast_count_declines_fractional_modules(root):
    field = _field(root)
    half = FracIdeal.principal(field, field.rational(Fraction(1, 2)))
    module = OkModule.from_pseudo_basis(field, 1, [([field.one()], half)])
    assert _fast_count_totally_real(module, Fraction(9)) is None
    assert _fast_count_totally_real(OkModule.free_module(field, 1), Fraction(9)) is not None


def _leibniz_det(g):
    """det g over Q by the permutation expansion, written out here."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(g))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(g)), 2))
        total += (-1) ** inversions * math.prod(g[i][perm[i]] for i in range(len(g)))
    return total


def _walk_rational_lattice(lat):
    """Run supnorm_min and det_value on a rational lattice with RealLattice.point
    and cmp_real made to fail: the minimum reads ``enumerate_cube``'s
    points on integers."""
    saved = RealLattice.point, reals.cmp_real, lattice.cmp_real

    def refuse(*args, **kwargs):
        raise AssertionError("rational supnorm_min or det_value left the integers")

    RealLattice.point, reals.cmp_real, lattice.cmp_real = refuse, refuse, refuse
    try:
        return lattice.supnorm_min(lat), lat.det_value()
    finally:
        RealLattice.point, reals.cmp_real, lattice.cmp_real = saved


@PROPERTY
@given(rational_cases(), st.sampled_from([1, 2**62]), st.integers(0, 2**70))
def test_rational_supnorm_min_matches_brute_force(case, scale, shift):
    """Square and L < n lattices with integer, half and third entries, also
    scaled past the int64 guard: the minimum equals a Fraction walk of the
    box of radius r0 (the smallest column sup-norm, caps from a plain
    Fraction inverse), the witness is the first minimal vector in slab order,
    and det_value squares to the Gram determinant."""
    cols, _ = case
    scale += shift if scale > 1 else 0
    cols = [[a * scale for a, _ in col] for col in cols]
    lat = _lattice([[(a, 0) for a in col] for col in cols], 0)
    gram = [[sum(map(operator.mul, u, v)) for v in cols] for u in cols]
    r0 = min(max(map(abs, col)) for col in cols)
    try:
        caps = _reference_caps(lat.columns, r0)
    except StopIteration:  # singular Gram: dependent columns
        with pytest.raises(ValidationError):
            lattice.supnorm_min(lat)
        return
    assume(_box_size(caps) <= BOX_LIMIT)
    (value, witness), det_val = _walk_rational_lattice(lat)
    norm = {m: max(abs(sum(c * col[i] for c, col in zip(m, cols))) for i in range(len(cols[0])))
            for m in _slab_order(caps) if any(m)}
    best = min(norm.values())
    assert repr(value) == repr(QuadReal(best))
    assert witness == next(m for m in norm if norm[m] == best)
    assert det_val * det_val == _leibniz_det(gram)


def _supnorm_caps(lat):
    """The caps of the sup-norm minimum's box: the cube whose radius is the
    least column sup-norm."""
    _, den, cols, _ = lat.scaled_columns()
    return _coefficient_box(lat, Fraction(min(max(map(abs, col)) for col in cols), den))


def _supnorm_full_box(lat):
    """(best, witness, minimal rows, free axis) of a rational lattice by the
    walk of every slab of its box, the zero row left out of each: best is
    max |A m| on the integer columns A = den B, the witness its first strict
    minimum in slab order, and the minimal rows every nonzero m reaching it."""
    cols, caps = lat.scaled_columns()[2], _supnorm_caps(lat)
    best = best_m = None
    nonzero = []
    for vals, coeffs in box_slabs(caps, cols, lattice._int_dtype(cols, caps)):
        norms = np.abs(vals).max(axis=1)
        rows = np.flatnonzero((coeffs != 0).any(axis=1))
        nonzero += [(int(norms[i]), tuple(coeffs[i].tolist())) for i in rows]
        if rows.size:
            i = rows[np.argmin(norms[rows])]
            if best is None or norms[i] < best:
                best, best_m = int(norms[i]), tuple(coeffs[i].tolist())
    return best, best_m, [m for v, m in nonzero if v == best], lattice._free_axis(caps)[0]


@st.composite
def supnorm_cases(draw):
    """(rows, kind): an integer basis, of any shape, or drawn from a seed
    until its only minimal vectors have coefficient 0 on the free axis
    ("axis0"), or until it has more than one minimal pair +-m ("pairs")."""
    kind = draw(st.sampled_from(["any", "axis0", "pairs"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    for _ in range(400):
        n = rng.randint(1 if kind == "any" else 2, 4)
        big_l = rng.randint(1 if kind == "any" else 2, n)
        rows = [[rng.randint(-9, 9) for _ in range(big_l)] for _ in range(n)]
        lat = RealLattice.from_rows(rows)
        if intmat.det(lat.int_gram()[0]) == 0:
            continue
        r0 = min(max(abs(row[j]) for row in rows) for j in range(big_l))
        if _box_size(_coefficient_box(lat, r0)) > BOX_LIMIT:
            continue
        if kind == "any":
            return rows, kind
        _, _, minimal, axis = _supnorm_full_box(lat)
        if kind == "axis0" and all(m[axis] == 0 for m in minimal) or (
                kind == "pairs" and len(minimal) > 2):
            return rows, kind
    assume(False)


@PROPERTY
@example(([[-6, 7], [9, 3], [-4, -5], [-1, 4]], "axis0"), 1)
@given(supnorm_cases(), st.sampled_from([1, 2**62 + 3]))
def test_half_box_supnorm_min_matches_the_full_box_walk(case, scale):
    """The search of the first half of the cube's points returns the
    full-box walk's minimum and witness: when every minimal vector has
    m_axis = 0, when there are several minimal pairs, and on Python ints
    past the int64 guard."""
    rows, kind = case
    lat = RealLattice.from_rows([[x * scale for x in row] for row in rows])
    best, witness, minimal, axis = _supnorm_full_box(lat)
    (value, got), _ = _walk_rational_lattice(lat)
    assert (value, got) == (QuadReal(best), witness)
    assert kind != "axis0" or got[axis] == 0
    assert kind != "pairs" or len(minimal) > 2


@st.composite
def one_line_supnorm_cases(draw):
    """Integer bases, one column drawn plainly and the others k times longer,
    whose sup-norm box is one line."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(2, 30))
    entry = st.integers(-9, 9)
    cols = [[draw(entry) for _ in range(n)]]
    cols += [[k * draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, n)) - 1)]
    cols = draw(st.permutations(cols))
    lat = RealLattice(cols)
    assume(intmat.det(lat.int_gram()[0]) != 0)
    assume(_one_line(_supnorm_caps(lat)))
    return cols


@PROPERTY
@given(one_line_supnorm_cases(), st.sampled_from([1, 2**62 + 3]))
def test_one_line_supnorm_min_matches_the_full_box_walk(cols, scale):
    """On a one-line box the minimum is the free column's sup-norm with
    witness -e_a, as the full-box walk finds it, on int64 and past the
    int64 guard."""
    lat = RealLattice([[x * scale for x in col] for col in cols])
    best, witness, _, axis = _supnorm_full_box(lat)
    (value, got), _ = _walk_rational_lattice(lat)
    assert (value, got) == (QuadReal(best), witness)
    assert got == tuple(-(j == axis) for j in range(len(cols)))


@PROPERTY
@given(rational_cases(), sqrt2_cases(), st.integers(0, 60), st.sampled_from([1, 2, 3, 7, 12]))
def test_integer_caps_equal_the_floor_of_the_rational_upper_bound(rational, sqrt2, k, den):
    """A rational lattice's caps are max(0, floor(_rat_upper(s R))) for its
    row norms s, made with no _rat_upper call, at radii with denominators;
    a Q(sqrt2) lattice's caps are that formula too."""
    radius = Fraction(k, den)
    rat, surd = _lattice(rational[0], 0), _lattice(sqrt2[0], 2)
    want = []
    for lat in (rat, surd):
        try:
            norms = lattice._pinv_row_norms(lat)
        except ValidationError:  # dependent columns
            norms = None
        want.append(norms and [max(0, math.floor(lattice._rat_upper(s * radius)))
                               for s in norms])
    upper = lattice._rat_upper

    def refuse(x):
        raise AssertionError("a rational row norm went through _rat_upper")

    lattice._rat_upper = refuse
    try:
        assert want[0] is None or _coefficient_box(rat, radius) == want[0]
    finally:
        lattice._rat_upper = upper
    assert want[1] is None or _coefficient_box(surd, radius) == want[1]
