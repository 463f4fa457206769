import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latheights import cli, lattice, nf, reals
from latheights.errors import PrecisionExhausted, ValidationError
from latheights.lattice import (
    RealLattice,
    _coefficient_box,
    _rat_upper,
    bound_lower,
    bound_upper,
    enumerate_cube,
    lower_bound_threshold,
    max_grassmann_sublattice,
    supnorm_min,
)
from latheights.modules import _ideal_lattice
from latheights.reals import (
    BallReal, QuadReal, abs_real, cmp_real, endpoints, max_real, min_real, sqrt_real, to_real)
from latheights.sunits import SUnitContext


def test_enumerate_z2():
    lat = RealLattice([[1, 0], [0, 1]])
    assert len(enumerate_cube(lat, 1)) == 9
    assert len(enumerate_cube(lat, 2)) == 25


def test_enumerate_2z():
    lat = RealLattice([[2]])
    pts = enumerate_cube(lat, 3)
    assert sorted(m[0] for m in pts) == [-1, 0, 1]


def test_enumerate_skew():
    lat = RealLattice([[1, 1], [1, -1]])
    assert len(enumerate_cube(lat, 1)) == 5


def test_enumerate_boundary_exact():
    # point exactly on the boundary must be included (closed cube)
    lat = RealLattice([[Fraction(1, 2)]])
    pts = enumerate_cube(lat, Fraction(3, 2))
    assert sorted(m[0] for m in pts) == [-3, -2, -1, 0, 1, 2, 3]


def test_enumerate_quadratic_entries():
    r2 = QuadReal(0, 1, 2)
    lat = RealLattice([[1, 1], [r2, -r2]])  # sigma-embedding of Z[sqrt2]
    # |a + b sqrt2| <= R and |a - b sqrt2| <= R
    pts = enumerate_cube(lat, 2)
    coeffs = set(pts)
    assert (0, 0) in coeffs and (1, 0) in coeffs and (0, 1) in coeffs
    assert (2, 1) not in coeffs  # 2 + sqrt2 > 2
    for a, b in coeffs:
        v = abs(a + b * math.sqrt(2))
        w = abs(a - b * math.sqrt(2))
        assert max(v, w) <= 2 + 1e-9


def test_supnorm_min():
    assert cmp_real(supnorm_min(RealLattice([[1, 0], [0, 1]]))[0], 1) == 0
    assert cmp_real(supnorm_min(RealLattice([[2, 0], [0, 3]]))[0], 2) == 0
    assert cmp_real(supnorm_min(RealLattice([[1, 1], [1, -1]]))[0], 1) == 0


def test_supnorm_min_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        lat = RealLattice.from_rows(rows)
        if cmp_real(lat.det_value(), 0) == 0:
            continue
        value, witness = supnorm_min(lat)
        # every nonzero vector of the box that holds the cube of radius
        # r0, the smallest column sup-norm, which bounds the minimum
        r0 = min(max(abs(r[j]) for r in rows) for j in range(n))
        caps = _coefficient_box(lat, Fraction(r0))
        norm = {m: max(abs(sum(c * r[j] for j, c in enumerate(m))) for r in rows)
                for m in itertools.product(*[range(-c, c + 1) for c in caps]) if any(m)}
        best = min(norm.values())
        assert cmp_real(value, best) == 0
        # the witness is the first minimal vector of the searched cube
        first = [m for m in enumerate_cube(lat, Fraction(best)) if any(m) and norm[m] == best]
        assert witness == first[0]


def test_det_value():
    lat = RealLattice([[1, 1], [1, -1]])
    assert cmp_real(lat.det_value(), 2) == 0
    lat2 = RealLattice([[1, 1]])  # single vector (1,1): det = sqrt(2)
    assert cmp_real(lat2.det_value() ** 2, 2) == 0


def test_bound_upper_cases():
    # Z^2, R=1, full rank
    b = bound_upper(2, 2, 1, 1, 1)
    assert cmp_real(b, 9) == 0
    # L < N branch
    b2 = bound_upper(3, 2, 1, 1, 1)
    assert cmp_real(b2, 9) == 0  # (2R/c+1)^{N-1} = 3^2
    # integral branch for 2Z^2 in Z^2: min(full-rank branch, integral branch)
    lat = RealLattice([[2, 0], [0, 2]])
    exact = len(enumerate_cube(lat, 2))
    b3 = bound_upper(2, 2, 4, 2, 2, integral=True)
    assert exact == 9
    assert cmp_real(b3, exact) >= 0
    # the integral branch alone gives (2*sqrt2*2/4+1)(2*2+1)
    root = sqrt_real(2)
    val = (2 * root * 2 / 4 + 1) * 5
    assert cmp_real(b3, val) <= 0


def test_bound_lower_cases():
    v = bound_lower(2, 1, 1, 2)  # Z^2 at R=2
    assert cmp_real(v, 1) == 0
    assert len(enumerate_cube(RealLattice([[1, 0], [0, 1]]), 2)) >= 1
    v2 = bound_lower(1, 1, 1, 1)
    assert cmp_real(v2, 1) == 0
    v3 = bound_lower(2, 4, 2, 4)
    assert cmp_real(v3, 1) == 0
    with pytest.raises(ValidationError):
        bound_lower(2, 4, 2, Fraction(1, 10))


def test_max_grassmann():
    lat = RealLattice.from_rows([[1, 0], [0, 1], [0, 0]])
    omega, d = max_grassmann_sublattice(lat)
    assert cmp_real(d, 1) == 0
    assert omega.ambient_dim == 2 and omega.rank == 2

    lat2 = RealLattice.from_rows([[1, 0], [0, 1], [1, 1]])
    _, d2 = max_grassmann_sublattice(lat2)
    assert cmp_real(d2, 1) == 0

    lat3 = RealLattice.from_rows([[2, 0], [0, 1], [0, 0]])
    _, d3 = max_grassmann_sublattice(lat3)
    assert cmp_real(d3, 2) == 0


def _random_integral_lattice(rng):
    n = rng.randint(1, 4)
    big_l = rng.randint(1, n)
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(big_l)] for _ in range(n)]
        lat = RealLattice.from_rows(rows)
        g = lat.gram()
        from latheights import linalg

        if linalg.det([[e.as_fraction() for e in row] for row in g]) != 0:
            return lat


def test_sandwich_property():
    rng = random.Random(2024)
    accepted = 0
    while accepted < 40:
        lat = _random_integral_lattice(rng)
        n, big_l = lat.ambient_dim, lat.rank
        det_val = lat.det_value()
        c, _ = supnorm_min(lat)
        thresh = lower_bound_threshold(big_l, det_val, c)

        radius = Fraction(math.ceil(_rat_upper(thresh)))
        caps = _coefficient_box(lat, radius)
        total = 1
        for cc in caps:
            total *= 2 * cc + 1
        if total > 200_000:
            continue
        exact = len(enumerate_cube(lat, radius))
        up = bound_upper(n, big_l, det_val, c, radius, integral=True)
        low = bound_lower(big_l, det_val, c, radius)
        assert cmp_real(low, exact) <= 0, (lat.columns, radius)
        assert cmp_real(up, exact) >= 0, (lat.columns, radius)
        accepted += 1


def test_det_sandwich_and_projection():
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        lat = _random_integral_lattice(rng)
        n, big_l = lat.ambient_dim, lat.rank
        omega, det_omega = max_grassmann_sublattice(lat)
        det_lambda = lat.det_value()
        binom_root = sqrt_real(math.comb(n, big_l))
        assert cmp_real(det_omega, det_lambda) <= 0
        assert cmp_real(det_lambda, binom_root * det_omega) <= 0
        # projection inequality: |Lambda cap C_N(R)| >= |Omega cap C_L(R/L)|
        radius = Fraction(rng.randint(1, 6))
        caps = _coefficient_box(lat, radius)
        total = 1
        for cc in caps:
            total *= 2 * cc + 1
        if total > 200_000:
            continue
        big = len(enumerate_cube(lat, radius))
        small = len(enumerate_cube(omega, Fraction(radius, big_l)))
        assert small <= big
        checked += 1


def test_count_monotone_in_radius():
    lat = RealLattice([[1, 1], [1, -1]])
    prev = -1
    for r in range(5):
        cur = len(enumerate_cube(lat, r))
        assert cur >= prev
        prev = cur


def _supnorm_min_no_skip(lat):
    """The sup-norm minimum search that compares every nonzero vector of the
    cube, -m after m included; an exhausted comparison keeps the incumbent."""
    r0 = min_real(*[max_real(*map(abs_real, col)) for col in lat.columns])
    best = best_m = None
    for m in enumerate_cube(lat, _rat_upper(r0)):
        if not any(m):
            continue
        s = max_real(*map(abs_real, lat.point(m)))
        try:
            if best is None or cmp_real(s, best) < 0:
                best, best_m = s, m
        except PrecisionExhausted:
            pass
    return best, best_m


def _nonrational_lattices():
    """The S-unit log lattices of the sunits suite (and of Q(sqrt2) with the
    place above 2), and the scaling-ideal lattices of the thm1 modules over
    Q(sqrt2) and Q(sqrt5)."""
    kq, k2 = cli._field_q(), cli._field_sqrt2()
    contexts = [SUnitContext(cli._field_sqrt5()), SUnitContext(k2),
                SUnitContext(kq, s1=[(kq.rational(2), 2), (kq.rational(3), 3)]),
                SUnitContext(k2, s1=[(k2.gen(), 2)])]
    out = [RealLattice(ctx.log_lattice().basis) for ctx in contexts]
    for _, module in cli._thm1_instances():
        if module.field.degree == 2:
            out.append(_ideal_lattice(module.field, module.scaling_ideal()))
    return out


def test_supnorm_min_skip_matches_no_skip_search():
    # |B(-m)| = |Bm|: skipping -m changes neither the minimum nor its witness
    for lat in _nonrational_lattices():
        assert lat.scaled_columns() is None or lat.scaled_columns()[0] != 0
        want, want_m = _supnorm_min_no_skip(lat)
        got, got_m = supnorm_min(lat)
        assert got_m == want_m
        assert endpoints(got, 256) == endpoints(want, 256)


def _supnorm_min_seen_skip(lat):
    """The sup-norm minimum search of the whole cube in slab order, as the
    library made it for irrational and ball lattices before it read only
    the first half of the points: r0 folded column by column, and -m of a
    visited m (and m = 0) skipped through a set of the visited points.  An
    exhausted comparison keeps the incumbent."""
    r0 = None
    for col in lat.columns:
        s = max_real(*[abs_real(e) for e in col])
        r0 = s if r0 is None else min_real(r0, s)
    best = best_m = None
    seen = set()
    for m in enumerate_cube(lat, _rat_upper(r0)):
        seen.add(m)
        if tuple(-x for x in m) in seen:
            continue
        s = max_real(*[abs_real(v) for v in lat.point(m)])
        try:
            if best is None or cmp_real(s, best, context="supnorm min") < 0:
                best, best_m = s, m
        except PrecisionExhausted:  # a tie between distinct vectors
            pass
    return best, best_m


def _assert_matches_seen_skip(lat):
    want, want_m = _supnorm_min_seen_skip(lat)
    got, got_m = supnorm_min(lat)
    assert (repr(got), got_m) == (repr(want), want_m)


def test_supnorm_min_matches_the_seen_skip_search():
    # the ideal lattices of minima_ck_zk over Q(sqrt2) and Q(sqrt5), and
    # the S-unit log lattices (ball entries)
    for lat in _nonrational_lattices():
        _assert_matches_seen_skip(lat)


@st.composite
def quad_bases(draw):
    """A basis of 1 to 3 columns in Q(sqrt r)^n, n <= 3, entries (a + b sqrt r)
    / den, whose sup-norm box has at most 20,000 points."""
    root = draw(st.sampled_from([2, 3, 5, 7]))
    den = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 3))
    entry = st.builds(lambda a, b: QuadReal(Fraction(a, den), Fraction(b, den), root),
                      st.integers(-5, 5), st.integers(-3, 3))
    lat = RealLattice([[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, n)))])
    r0 = _rat_upper(min_real(*[max_real(*map(abs_real, col)) for col in lat.columns]))
    try:
        caps = _coefficient_box(lat, r0)
    except ValidationError:  # dependent columns
        assume(False)
    assume(math.prod(2 * c + 1 for c in caps) <= 20_000)
    return lat


@settings(max_examples=80, deadline=None)
@given(quad_bases())
def test_supnorm_min_on_quadratic_bases_matches_the_seen_skip_search(lat):
    _assert_matches_seen_skip(lat)


@st.composite
def lower_cases(draw):
    """(L, det, c, R): det rational or a square root, c rational, and R
    within 3/4 of the threshold, often on it."""
    big_l = draw(st.integers(1, 4))
    c = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 6)))
    g = draw(st.integers(1, 400))
    det_val = sqrt_real(g) if draw(st.booleans()) else to_real(Fraction(g, draw(st.integers(1, 5))))
    thresh = lower_bound_threshold(big_l, det_val, c)
    base = thresh.as_fraction() if thresh.is_rational else _rat_upper(thresh)
    radius = max(Fraction(0), base + Fraction(draw(st.integers(-3, 3)), 4))
    return big_l, det_val, c, radius


@settings(max_examples=300)
@given(lower_cases())
def test_bound_lower_raises_exactly_below_threshold(case):
    big_l, det_val, c, radius = case
    below = cmp_real(radius, lower_bound_threshold(big_l, det_val, c)) < 0
    try:
        value = bound_lower(big_l, det_val, c, radius)
    except ValidationError:
        assert below
    else:
        assert not below and isinstance(value, QuadReal)
        assert cmp_real(value, 0) >= 0


# scaled_quad calls of `verify cnt-lem --seed 42` with the bounds formed as
# closed forms on integers; operator dispatch made 28,795
CNT_LEM_SCALED_QUADS = 8_270


def test_cnt_lem_builds_no_ball(monkeypatch, capsys):
    # every cnt-lem bound lives in Q(sqrt g) or Q(sqrt(C(n, L) g)): no BallReal
    built, init = [], reals.BallReal.__init__

    def spy(self, fn):
        built.append(fn)
        init(self, fn)

    calls, make = [0], reals.scaled_quad

    def count(*args):
        calls[0] += 1
        return make(*args)

    monkeypatch.setattr(reals.BallReal, "__init__", spy)
    for module in (reals, lattice, nf):  # every module that holds the name
        monkeypatch.setattr(module, "scaled_quad", count)
    assert cli.main(["verify", "cnt-lem", "--seed", "42"]) == 0
    assert built == []
    # the bounds are formed once per branch, not operator by operator
    assert calls[0] <= CNT_LEM_SCALED_QUADS * 11 // 10, calls[0]
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (tie,) = [r for r in records if r["instance"] == "lat-045-N2-L1"
              and r["kind"] == "UPPER" and r["R_mid"] == "3"]
    # bound and count are both exactly 3: an exact comparison decides it
    assert (tie["exact"], tie["bound_mid"], tie["verdict"]) == (3, "3", "HOLDS")


# boxes of more than SCALAR_LINES (49) lines among the 500 count
# enumerations (33) and the 130 sup-norm enumerations (11) of `verify
# cnt-lem --seed 42`: only they are walked by line_runs, the others on
# Python ints
CNT_LEM_LINE_WALKS = 33 + 11


def test_cnt_lem_walks_only_multi_line_boxes(monkeypatch, capsys):
    calls = {name: 0 for name in ("enumerate_cube", "line_runs")}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        counted = spy(name, getattr(lattice, name))
        for module in (lattice, cli):  # cli imports enumerate_cube by name
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    assert cli.main(["verify", "cnt-lem", "--seed", "42"]) == 0
    capsys.readouterr()
    assert calls == {"enumerate_cube": 500 + 130, "line_runs": CNT_LEM_LINE_WALKS}


# ---------------------------------------------------------------------------
# the closed-form bounds against the operator formulas


def _dispatch_upper(n, big_l, det_val, c, radius, integral=False):
    """bound_upper by Real operator dispatch, one branch at a time."""
    det_val, c, radius = to_real(det_val), to_real(c), to_real(Fraction(radius))
    branches = []
    if big_l == n:
        branches.append(
            (2 * radius * c ** (n - 1) / det_val + 1) * (2 * radius / c + 1) ** (n - 1)
        )
    else:
        branches.append((2 * radius / c + 1) ** (n - 1))
    if integral:
        root = sqrt_real(math.comb(n, big_l))
        branches.append(
            (2 * root * radius / det_val + 1) * (2 * radius + 1) ** (big_l - 1)
        )
    return min_real(*branches)


def _dispatch_threshold(big_l, det_val, c):
    det_val, c = to_real(det_val), to_real(c)
    return Fraction(big_l, 2) * max_real(det_val / c ** (big_l - 1), c)


def _dispatch_lower(big_l, det_val, c, radius):
    det_val, c = to_real(det_val), to_real(c)
    radius = to_real(Fraction(radius))
    main = 2 * radius * c ** (big_l - 1) / (big_l * det_val) - 1
    growth = 2 * radius / (big_l * c) - 1
    for factor in (main, growth):
        if cmp_real(factor, 0, context="lower bound threshold") < 0:
            raise ValidationError("lower bound not applicable: R below threshold")
    return main * growth ** (big_l - 1)


def _parts(x):
    assert isinstance(x, QuadReal)
    return x.p, x.q, x.d, x.m


SHAPES = [(n, big_l) for n in range(1, 7) for big_l in range(1, n + 1)]


@st.composite
def lemma_inputs(draw):
    """(n, L, det, c, R): L = n or L < n (C(n, L) with a square factor, as
    C(4, 1) = 4, or without), det the root of a rational Gram determinant
    that is a square or not, c and R rationals with denominators, and R
    often exactly on the rational lower-bound threshold or just below it."""
    n, big_l = draw(st.sampled_from(SHAPES))
    g = draw(st.integers(1, 40))
    gram_det = Fraction(g * g if draw(st.booleans()) else g, draw(st.sampled_from([1, 3, 4, 9])))
    det_val = sqrt_real(gram_det)
    c = Fraction(draw(st.integers(1, 24)), draw(st.sampled_from([1, 1, 2, 3, 7])))
    thresh = _dispatch_threshold(big_l, det_val, c)
    mode = draw(st.sampled_from(["free", "on", "below"])) if thresh.is_rational else "free"
    if mode == "free":
        radius = Fraction(draw(st.integers(0, 300)), draw(st.sampled_from([1, 2, 5, 6])))
    else:
        radius = thresh.as_fraction() - (Fraction(1, 1000) if mode == "below" else 0)
    return n, big_l, det_val, c, radius, mode


@settings(max_examples=400)
@given(lemma_inputs(), st.booleans(), st.booleans())
def test_closed_form_bounds_equal_the_operator_formulas(case, integral, c_real):
    """bound_upper, lower_bound_threshold and bound_lower give exactly the
    QuadReal of the operator formulas, and raise where they raise; c comes
    as a Fraction or as a QuadReal."""
    n, big_l, det_val, c_frac, radius, mode = case
    c = to_real(c_frac) if c_real else c_frac
    assert _parts(bound_upper(n, big_l, det_val, c, radius, integral)) == _parts(
        _dispatch_upper(n, big_l, det_val, c, radius, integral))
    thresh = lower_bound_threshold(big_l, det_val, c)
    assert _parts(thresh) == _parts(_dispatch_threshold(big_l, det_val, c))
    try:
        want = _dispatch_lower(big_l, det_val, c, radius)
    except ValidationError:
        with pytest.raises(ValidationError):
            bound_lower(big_l, det_val, c, radius)
        assert mode != "on"
        return
    got = bound_lower(big_l, det_val, c, radius)
    assert _parts(got) == _parts(want)
    assert mode != "below"
    if mode == "on":
        # one factor is 0 on the threshold: main, or growth with power L - 1
        main_zero = det_val.is_rational and radius * 2 * c_frac ** (big_l - 1) == (
            big_l * det_val.as_fraction())
        assert (got == 0) == (big_l > 1 or main_zero)


def test_ball_det_bounds_bracket_the_exact_bounds():
    """A ball det takes the operator formulas: its enclosures contain the
    closed forms of the same exact det."""
    for n, big_l, g, c, radius in [(3, 3, 8, Fraction(3, 2), Fraction(17, 2)),
                                   (4, 1, 5, 2, 9), (2, 1, 7, Fraction(1, 3), 4)]:
        exact = sqrt_real(g)
        ball = BallReal(lambda prec, x=exact: x.interval(prec))
        pairs = [(bound_upper(n, big_l, ball, c, radius, True),
                  bound_upper(n, big_l, exact, c, radius, True)),
                 (lower_bound_threshold(big_l, ball, c), lower_bound_threshold(big_l, exact, c)),
                 (bound_lower(big_l, ball, c, radius), bound_lower(big_l, exact, c, radius))]
        for enclosed, value in pairs:
            assert isinstance(enclosed, BallReal) and isinstance(value, QuadReal)
            lo, hi = endpoints(enclosed)
            assert cmp_real(lo, value) <= 0 <= cmp_real(hi, value)
