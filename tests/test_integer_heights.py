"""Property tests: heights on integer coordinates against the generic code.

The finite parts read ideal indices off cached integer multiplication
tables, field channels of degree <= 2 are evaluated in closed form, and
closed QuadReal arithmetic skips normalisation.  Each of these is compared
here with the generic computation it replaced: the content ideal built as a
FracIdeal, the products w * x formed in quaternion arithmetic, a Horner
loop, the normalising QuadReal constructor and sympy.  Hypothesis runs
derandomized, so every run sees the same examples.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from latheights import cli, intmat, linalg, quat
from latheights.errors import ValidationError
from latheights.heights import (
    clear_denominators,
    content_ideal,
    height_H,
    height_H2,
    hfin_integral,
    hfin_matrix,
)
from latheights.intmat import lattice_index
from latheights.modules import OkModule
from latheights.nf import FracIdeal, _eval_at, nf_new
from latheights.quat import QuatOrder, height_HfinO
from latheights.reals import QuadReal, _quad

PROPERTY = settings(max_examples=40)

FIELDS = {
    "Q": nf_new([-1, 1], [[1]]),
    "Q(sqrt2)": nf_new([-2, 0, 1], [[1, 0], [0, 1]]),
    # half-integral basis 1, (1 + sqrt5)/2
    "Q(sqrt5)": nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]),
    "Q(i)": nf_new([1, 0, 1], [[1, 0], [0, 1]]),
}
SQUAREFREE = [2, 3, 5, 6, 7, 10, 13]

small = st.integers(-12, 12)
fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


def _integral(field, coords):
    return field.from_int_coords(coords[: field.degree])


# ---------------------------------------------------------------------------
# finite parts over a number field


@PROPERTY
@given(
    st.sampled_from(sorted(FIELDS)),
    st.lists(st.lists(small, min_size=2, max_size=2), min_size=1, max_size=3),
)
def test_content_norm_matches_frac_ideal(name, vecs):
    field = FIELDS[name]
    x = [_integral(field, v) for v in vecs]
    if all(xi.is_zero() for xi in x):
        with pytest.raises(ValidationError):
            hfin_integral(field, x)
        return
    assert hfin_integral(field, x) == 1 / content_ideal(field, x).norm()


@PROPERTY
@given(
    st.sampled_from(sorted(FIELDS)),
    st.lists(st.lists(fractions, min_size=2, max_size=2), min_size=1, max_size=3),
)
def test_height_finite_parts_match_frac_ideal(name, vecs):
    field = FIELDS[name]
    x = [field.element(v[: field.degree]) for v in vecs]
    if all(xi.is_zero() for xi in x):
        return
    fin = 1 / content_ideal(field, clear_denominators(x)).norm()
    assert height_H(field, x).finite_pow == fin
    assert height_H2(field, x).finite_pow == fin**2


def _matrix_index_reference(field, rows):
    """Index of the image of O_K^N (None: infinite), from products rows[i][j] * w."""
    gens = []
    for j in range(len(rows[0])):
        for w in field.basis_elements():
            flat = []
            for row in rows:
                flat.extend(int(c) for c in field.int_coords(row[j] * w))
            gens.append(flat)
    return lattice_index(gens, len(rows) * field.degree)


@PROPERTY
@given(
    st.sampled_from(sorted(FIELDS)),
    st.integers(1, 2),
    st.lists(st.lists(small, min_size=2, max_size=2), min_size=6, max_size=6),
)
def test_hfin_matrix_matches_products(name, m, entries):
    field = FIELDS[name]
    n = 3
    rows = [[_integral(field, entries[i * n + j]) for j in range(n)] for i in range(m)]
    idx = _matrix_index_reference(field, rows)
    if idx is None:
        with pytest.raises(ValidationError, match="rank deficient"):
            hfin_matrix(field, rows)
    else:
        assert hfin_matrix(field, rows) == Fraction(1, idx)


def test_integrality_is_still_checked():
    field = FIELDS["Q(sqrt5)"]
    half = field.rational(Fraction(1, 2))
    with pytest.raises(ValidationError, match="coordinate is not integral"):
        hfin_integral(field, [field.one(), half])
    with pytest.raises(ValidationError, match="matrix entry is not integral"):
        hfin_matrix(field, [[field.one(), half]])
    # (1 + sqrt5)/2 is integral in the half-integral basis
    assert hfin_integral(field, [field.element([Fraction(1, 2), Fraction(1, 2)])]) == 1


# ---------------------------------------------------------------------------
# the finite height on quaternion orders


def _orders():
    """The special and a non-special (Hurwitz-type) order over each field."""
    out = []
    for fname, alg, special, _ in cli._main_quat_instances():
        units = [alg.one(), alg.i(), alg.j(), (alg.one() + alg.i() + alg.j() + alg.k()) / 2]
        out.append((fname + "-special", special))
        out.append((fname + "-hurwitz", QuatOrder.ok_span(alg, units)))
    return out


ORDERS = dict(_orders())


def _flat(x):
    return [c for comp in x.c for c in comp.coeffs]


def _fraction_coords(order, x):
    """Coordinates of x in the order's Z-basis from a Fraction inverse of the
    basis matrix: flat(x) = c B, so c = flat(x) B^{-1}."""
    inv = linalg.inverse([_flat(e) for e in order.z_basis])
    v = _flat(x)
    return [sum((v[i] * inv[i][j] for i in range(len(v))), Fraction(0)) for j in range(len(v))]


def _hfin_reference(order, xs):
    """1 / [O : sum O x] from the products w * x, formed in the algebra."""
    gens = [[int(c) for c in _fraction_coords(order, w * x)] for x in xs for w in order.z_basis]
    return Fraction(1, lattice_index(gens, len(order.z_basis)))


def _order_element(order, coords):
    alg = order.algebra
    return sum((e * c for e, c in zip(order.z_basis, coords)), alg.zero())


quat_coords = st.lists(st.integers(-2, 2), min_size=8, max_size=8)


@PROPERTY
@given(st.sampled_from(sorted(ORDERS)), quat_coords, quat_coords, st.booleans())
def test_height_HfinO_matches_products(name, cx, cy, third):
    order = ORDERS[name]
    x, y = _order_element(order, cx), _order_element(order, cy)
    if x.is_zero():
        return
    # O x + O xy differs from x O + xy O, so the side of the product shows
    xs = [x, x * y] + ([y] if third else [])
    assert height_HfinO(order, xs) == _hfin_reference(order, xs)


@PROPERTY
@given(st.sampled_from(sorted(ORDERS)), st.lists(fractions, min_size=8, max_size=8))
def test_order_coordinates_match_fraction_inverse(name, coords):
    order = ORDERS[name]
    x = _order_element(order, coords)
    ref = _fraction_coords(order, x)
    assert ref == coords  # the reference recovers the coordinates it was built from
    assert order.coords_of(x) == ref
    assert order.contains(x) == all(c.denominator == 1 for c in ref)
    m, (c,) = order.scaled_coords([x])
    assert [Fraction(t, m) for t in c] == ref


def test_contains_builds_no_hnf(monkeypatch):
    """Ideals, modules and orders reduce against the HNF built with them."""
    field = FIELDS["Q(sqrt5)"]
    ideal = FracIdeal.principal(field, field.element([3, 1]))
    module = OkModule.from_z_generators(
        field, 2, [[w * a, w * b] for w in field.basis_elements()
                   for a, b in ((field.one(), field.rational(2)), (field.zero(), field.gen()))])
    order = ORDERS["Q(sqrt5)-hurwitz"]
    calls = []
    real = intmat._row_hnf
    monkeypatch.setattr(intmat, "_row_hnf", lambda *a, **k: calls.append(1) or real(*a, **k))
    alg = order.algebra
    for t in range(-3, 4):
        x = field.element([t, Fraction(t, 2)])
        ideal.contains(x)
        module.contains([x, x * 2])
        order.contains(alg.element(x, x, 1, Fraction(1, 2)))
    assert calls == []
    intmat.lattice_contains([[1, 0]], [1, 0])  # the spy sees a fresh HNF
    assert calls == [1]


@PROPERTY
@given(st.sampled_from(sorted(ORDERS)), st.lists(quat_coords, min_size=2, max_size=2),
       st.booleans())
def test_image_index_matches_products(name, entries, two_rows):
    """[O^M : A(O^N)] against the products A_ij * w formed in the algebra, w
    on the right: A O and O A differ for non-central entries."""
    order = ORDERS[name]
    x, y = (_order_element(order, c) for c in entries)
    rows = [[x, y]] + ([[y, x * y]] if two_rows else [])
    gens = [[int(c) for row in rows for c in _fraction_coords(order, row[j] * w)]
            for j in range(2) for w in order.z_basis]
    idx = lattice_index(gens, len(rows) * len(order.z_basis))
    _, coords = quat._scaled_matrix(order, rows)
    if idx is None:
        with pytest.raises(ValidationError, match="rank deficient"):
            quat._image_index(order, coords)
    else:
        assert quat._image_index(order, coords) == idx


def test_height_HfinO_membership():
    order = ORDERS["Q(sqrt5)-special"]
    alg = order.algebra
    hurwitz = (alg.one() + alg.i() + alg.j() + alg.k()) / 2
    with pytest.raises(ValidationError, match="coordinate outside the order"):
        height_HfinO(order, [alg.one(), hurwitz])
    assert height_HfinO(ORDERS["Q(sqrt5)-hurwitz"], [hurwitz]) == 1
    with pytest.raises(ValidationError, match="zero vector"):
        height_HfinO(order, [alg.zero()])


# ---------------------------------------------------------------------------
# exact channels and closed QuadReal arithmetic


def _horner(coeffs, root):
    """Horner's rule on the pairs (a, b) of a + b*sqrt(m), in Fractions."""
    a = b = Fraction(0)
    for c in reversed(coeffs):
        a, b = a * root.a + b * root.b * root.m + c, a * root.b + b * root.a
    return QuadReal(a, b, root.m)


def _same(x, y):
    return isinstance(x, QuadReal) and (x.a, x.b, x.m) == (y.a, y.b, y.m)


@PROPERTY
@given(
    st.lists(fractions, min_size=1, max_size=2),
    fractions,
    fractions,
    st.sampled_from([0] + SQUAREFREE),
)
def test_closed_form_channel_matches_horner(coeffs, ra, rb, m):
    root = QuadReal(ra, rb, m)
    assert _same(_eval_at(tuple(coeffs), root), _horner(coeffs, root))


@PROPERTY
@given(st.sampled_from(["Q", "Q(sqrt2)", "Q(sqrt5)"]), st.lists(fractions, min_size=2, max_size=2))
def test_field_channels_match_horner(name, coeffs):
    field = FIELDS[name]
    a = field.element(coeffs[: field.degree])
    roots = [r.to_quad() for r in field._real_roots]
    for val, root in zip(field.channel_values(a), roots):
        assert _same(val, _horner(a.coeffs, root))


def _quads(m):
    return st.builds(lambda a, b: QuadReal(a, b, m), fractions, fractions)


@PROPERTY
@given(
    st.sampled_from(SQUAREFREE).flatmap(
        lambda m: st.tuples(_quads(m), st.one_of(_quads(m), _quads(0)))
    )
)
def test_private_constructor_matches_quadreal(pair):
    x, y = pair
    m = x.m or y.m
    assert _same(x + y, QuadReal(x.a + y.a, x.b + y.b, m))
    assert _same(x - y, QuadReal(x.a - y.a, x.b - y.b, m))
    assert _same(-x, QuadReal(-x.a, -x.b, x.m))
    assert _same(x * y, QuadReal(x.a * y.a + x.b * y.b * m, x.a * y.b + x.b * y.a, m))
    if y != 0:
        den = y.a * y.a - y.b * y.b * y.m
        inv = QuadReal(y.a / den, -y.b / den, y.m)
        assert _same(x / y, x * inv)
    for c in (x - x, x + (-x), x * 0):
        assert _same(c, QuadReal(0))


def test_private_constructor_cancels_to_rational():
    r2 = QuadReal(0, 1, 2)
    for val, want in (
        ((1 + r2) * (1 - r2), -1),
        (r2 * r2, 2),
        ((3 + r2) - r2, 3),
        (r2 / r2, 1),
        (QuadReal(Fraction(1, 2), Fraction(1, 2), 5) * QuadReal(Fraction(1, 2), Fraction(-1, 2), 5), -1),
    ):
        assert _same(val, QuadReal(want)) and val.m == 0 and hash(val) == hash(want)
    assert _same(_quad(Fraction(3), Fraction(0), 7), QuadReal(3))


def _sym(x):
    return sympy.Rational(x.a.numerator, x.a.denominator) + sympy.Rational(
        x.b.numerator, x.b.denominator
    ) * sympy.sqrt(x.m)


def _sym_equal(x, expr):
    return sympy.expand(sympy.radsimp(_sym(x) - expr)) == 0


@settings(max_examples=25)
@given(st.sampled_from(SQUAREFREE).flatmap(lambda m: st.tuples(_quads(m), _quads(m))))
def test_quadreal_ops_match_sympy(pair):
    x, y = pair
    sx, sy = _sym(x), _sym(y)
    assert _sym_equal(x + y, sx + sy)
    assert _sym_equal(x - y, sx - sy)
    assert _sym_equal(x * y, sx * sy)
    assert _sym_equal(-x, -sx)
    if y != 0:
        assert _sym_equal(x / y, sx / sy)
    assert x.sign() == sympy.sign(sx)
    assert (x - y).sign() == sympy.sign(sympy.expand(sx - sy))
