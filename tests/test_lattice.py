import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latheights import cli, reals
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
    QuadReal, abs_real, cmp_real, endpoints, max_real, min_real, sqrt_real, to_real)
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


def test_cnt_lem_builds_no_ball(monkeypatch, capsys):
    # every cnt-lem bound lives in Q(sqrt g) or Q(sqrt(C(n, L) g)): no BallReal
    built, init = [], reals.BallReal.__init__

    def spy(self, fn):
        built.append(fn)
        init(self, fn)

    monkeypatch.setattr(reals.BallReal, "__init__", spy)
    assert cli.main(["verify", "cnt-lem", "--seed", "42"]) == 0
    assert built == []
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (tie,) = [r for r in records if r["instance"] == "lat-045-N2-L1"
              and r["kind"] == "UPPER" and r["R_mid"] == "3"]
    # bound and count are both exactly 3: an exact comparison decides it
    assert (tie["exact"], tie["bound_mid"], tie["verdict"]) == (3, "3", "HOLDS")
