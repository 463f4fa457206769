"""Property tests for number-field elements held as integer numerators over
one least denominator.

Every ring operation is compared with a reference on Fraction power-basis
coefficients that reduces by polynomial division by the minimal polynomial,
so it shares no code with the integer power table.  After each operation
the representation must be canonical: den > 0 and gcd(num, den) = 1, so
equal values built by different routes are equal and hash alike.  A spy on
``Fraction.__new__`` guards the integer path.  Hypothesis runs derandomized.
"""

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latheights import bounds, cli
from latheights.modules import z_combination
from latheights.nf import nf_new
from latheights.quat import DSubspace, bracket_inv, intersection_module, norm_grams
from latheights.reals import BallReal

PROPERTY = settings(max_examples=60)

FIELDS = {
    "Q": nf_new([-1, 1], [[1]]),
    "Q(sqrt2)": nf_new([-2, 0, 1], [[1, 0], [0, 1]]),
    "Q(sqrt5)": nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]),
    "Q(i)": nf_new([1, 0, 1], [[1, 0], [0, 1]]),
    # a cubic: two rows of the power table, theta^3 and theta^4
    "x^3-3x-1": nf_new([-1, -3, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
}

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
nonzero_rationals = rationals.filter(lambda q: q != 0)


@st.composite
def field_and_coeffs(draw, count=1):
    name = draw(st.sampled_from(sorted(FIELDS)))
    d = FIELDS[name].degree
    return (FIELDS[name],) + tuple(
        draw(st.lists(rationals, min_size=d, max_size=d)) for _ in range(count))


def _ref_mul(field, p, q):
    """Fraction coefficients of p * q reduced modulo the minimal polynomial."""
    d = field.degree
    conv = [Fraction(0)] * (2 * d - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            conv[i + j] += a * b
    for k in range(2 * d - 2, d - 1, -1):
        c, conv[k] = conv[k], Fraction(0)
        for i in range(d):
            conv[k - d + i] -= c * field.minpoly[i]
    return conv[:d]


def _canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    assert all(type(n) is int for n in x.num) and type(x.den) is int
    return x


@PROPERTY
@given(field_and_coeffs(count=2))
def test_ring_operations_match_fraction_reference(case):
    field, p, q = case
    x, y = field.element(p), field.element(q)
    assert list(_canonical(x).coeffs) == p
    assert list(_canonical(x + y).coeffs) == [a + b for a, b in zip(p, q)]
    assert list(_canonical(x - y).coeffs) == [a - b for a, b in zip(p, q)]
    assert list(_canonical(-x).coeffs) == [-a for a in p]
    assert list(_canonical(x * y).coeffs) == _ref_mul(field, p, q)
    assert x * y == y * x


@PROPERTY
@given(field_and_coeffs(), nonzero_rationals, st.integers(-20, 20))
def test_scalar_operations_match_fraction_reference(case, r, n):
    field, p = case
    x = field.element(p)
    assert list(_canonical(x * r).coeffs) == [a * r for a in p]
    assert list(_canonical(x * n).coeffs) == [a * n for a in p]
    assert list(_canonical(x / r).coeffs) == [a / r for a in p]
    assert list(_canonical(x + r).coeffs) == [p[0] + r] + p[1:]
    assert list(_canonical(r - x).coeffs) == [r - p[0]] + [-a for a in p[1:]]
    if n:
        assert list(_canonical(x / n).coeffs) == [a / n for a in p]


@PROPERTY
@given(field_and_coeffs())
def test_inverse_matches_fraction_reference(case):
    field, p = case
    x = field.element(p)
    if x.is_zero():
        return
    inv = _canonical(x.inv())
    one = [Fraction(1)] + [Fraction(0)] * (field.degree - 1)
    assert _ref_mul(field, p, list(inv.coeffs)) == one
    assert _canonical(x / x) == 1


@PROPERTY
@given(field_and_coeffs(), st.integers(1, 12))
def test_equal_values_by_different_routes_are_equal(case, k):
    field, p = case
    x = field.element(p)
    c, m = field.scaled_coords(x)
    routes = [
        field.element([Fraction(a.numerator * k, a.denominator * k) for a in p]),
        field.element([str(a) for a in p]),
        field.scaled_element([k * n for n in x.num], k * x.den),
        field.from_scaled_coords([k * v for v in c], k * m),
        field.from_int_coords([Fraction(v, m) for v in c]),
        (x * k) * Fraction(1, k),
        x * field.one(),
        (x + field.gen()) - field.gen(),
    ]
    for y in routes:
        assert _canonical(y) == x
        assert (y.num, y.den) == (x.num, x.den)
        assert hash(y) == hash(x)
    assert len({x, *routes}) == 1


@PROPERTY
@given(st.sampled_from(sorted(FIELDS)), rationals, nonzero_rationals)
def test_rational_elements_equal_their_value(name, q, r):
    field = FIELDS[name]
    x = field.rational(q)
    assert x == q and q == x
    assert x.is_rational() and x.as_fraction() == q
    assert x + field.gen() - field.gen() == q
    assert field.rational(r) * field.rational(r).inv() == 1
    if q.denominator == 1:
        assert x == int(q)
        assert hash(x) == hash(field.rational(int(q)))
    if field.degree > 1:
        y = x + field.gen() * r
        assert y != q and not y.is_rational()


def _count_fractions(monkeypatch):
    built = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    return built


def test_ring_operations_build_no_fraction(monkeypatch):
    k5 = FIELDS["Q(sqrt5)"]
    x = k5.element([Fraction(1, 3), Fraction(5, 7)])
    y = k5.element([Fraction(-2, 5), Fraction(1, 2)])
    built = _count_fractions(monkeypatch)
    Fraction(1, 2)
    assert len(built) == 1  # the spy sees a build
    del built[:]
    products = [x * y, x + y, x - y, -x, x * 3, x + 1, x == y, x.is_zero(),
                k5.scaled_coords(x * y)]
    assert built == []
    assert products[0] == y * x


def test_shell_heights_build_no_fraction_per_row(monkeypatch):
    """The searches' survivor rows reach the channel path as field elements
    built from the integer reduced-norm values: with the channel path
    stubbed, one call over many rows builds no Fraction."""
    _, alg, order, _ = next(inst for inst in cli._main_quat_instances()
                                if inst[1].field.minpoly == (-5, 0, 1))
    field = alg.field
    module = intersection_module(DSubspace(alg, 1, basis_cols=[[alg.one()]]), order)
    norms = norm_grams(module, alg)
    # rows with distinct reduced norms, so each reaches the channel path
    rng, by_norm = random.Random(5), {}
    while len(by_norm) < 20:
        m = [rng.randint(-3, 3) for _ in module.z_basis]
        if any(m):
            (x,) = bracket_inv(alg, z_combination(module.z_basis, m))
            by_norm.setdefault(x.nrm(), m)
    rows = list(by_norm.values())
    seen = []
    ball = BallReal(lambda prec: None)

    def channel_stub(f, nrms):
        seen.append(nrms)
        return ball

    monkeypatch.setattr(bounds, "_arch_sq_prod", channel_stub)
    built = _count_fractions(monkeypatch)
    out = bounds._shell_heights(field, norms, np.array(rows, dtype=np.int64), {},
                                value=lambda h: h)
    assert built == []
    assert len(out) == len(seen) == len(rows)
    assert seen == [[field.one(), nrm] for nrm in by_norm]


def test_shell_heights_one_height_per_distinct_norm_row(monkeypatch):
    """Rows with equal reduced norms share one height: the channel path
    runs once per distinct row, in first-appearance order, and every row
    (object dtype included) reads its own row's value."""
    _, alg, order, _ = next(inst for inst in cli._main_quat_instances()
                                if inst[1].field.minpoly == (-2, 0, 1))
    module = intersection_module(DSubspace(alg, 1, basis_cols=[[alg.one()]]), order)
    norms = norm_grams(module, alg)
    rng = random.Random(11)
    rows = [[rng.randint(-2, 2) for _ in module.z_basis] for _ in range(60)]
    rows = [m for m in rows if any(m)]
    rows += [[-v for v in m] for m in rows[::-1]]  # N(-x) = N(x)
    want = bounds._shell_heights(alg.field, norms, np.array(rows, dtype=np.int64), {})
    calls = []
    path = bounds._arch_sq_prod

    def counted(f, nrms):
        calls.append(tuple(nrms[1:]))
        return path(f, nrms)

    monkeypatch.setattr(bounds, "_arch_sq_prod", counted)
    for dtype in (np.int64, object):
        del calls[:]
        got = bounds._shell_heights(alg.field, norms, np.array(rows, dtype=dtype), {})
        assert [key for key, _ in got] == [key for key, _ in want]
        assert all(h.cmp(w) == 0 for (_, h), (_, w) in zip(got, want))
        assert len(calls) == len(set(calls)) <= len(rows) // 2
