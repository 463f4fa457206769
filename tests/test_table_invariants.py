"""Field and quaternion-order invariants read from the integer multiplication
table, against computations that never touch it: characteristic polynomials
and norms as sympy resultants, Res_y(f, g) = prod g(theta) over the roots
theta of the monic minimal polynomial f, and the reduced-trace determinant
of an O_K-basis expanded by sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from latheights.errors import ValidationError
from latheights.nf import NumberField
from latheights.quat import QuatAlgebra, QuatOrder

X, Y = sympy.symbols("x y")
HALF = Fraction(1, 2)

# name -> (minimal polynomial, integral basis, discriminant)
FIELDS = {
    "Q": ([-1, 1], [[1]], 1),
    "Q(sqrt2)": ([-2, 0, 1], [[1, 0], [0, 1]], 8),
    "Q(sqrt5)": ([-5, 0, 1], [[1, 0], [HALF, HALF]], 5),
    "Q(i)": ([1, 0, 1], [[1, 0], [0, 1]], -4),
    "cyclic cubic": ([-1, -2, 1, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 49),
}
K = {name: NumberField(mp, basis) for name, (mp, basis, _) in FIELDS.items()}


def _poly(coeffs, var=Y):
    return sum(sympy.Rational(c.numerator, c.denominator) * var**k
               for k, c in enumerate(map(Fraction, coeffs)))


def _ref_norm(field, poly):
    """N(g(theta)) = Res_y(minpoly, g)."""
    return Fraction(str(sympy.resultant(_poly(field.minpoly), poly, Y)))


def _charpoly(a):
    """Monic characteristic polynomial of a, coefficients high to low."""
    res = sympy.Poly(sympy.resultant(_poly(a.field.minpoly), X - _poly(a.coeffs), Y), X)
    lead = res.LC()
    return [Fraction(str(c / lead)) for c in res.all_coeffs()]


def _elements(name):
    d = K[name].degree
    coeff = st.fractions(min_value=-30, max_value=30, max_denominator=6)
    return st.lists(coeff, min_size=d, max_size=d).filter(any).map(K[name].element)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_discriminant_is_the_trace_pairing_determinant(name):
    assert K[name].discriminant == FIELDS[name][2]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_norm_trace_inverse_match_the_characteristic_polynomial(name):
    @settings(max_examples=25)
    @given(_elements(name))
    def check(a):
        cp = _charpoly(a)
        d = a.field.degree
        assert len(cp) == d + 1
        assert a.norm() == (-1) ** d * cp[-1]
        assert a.trace() == -cp[1]
        assert a * a.inv() == 1

    check()


# ---------------------------------------------------------------------------
# quaternion orders


def _algebra(name):
    k = K[name]
    return QuatAlgebra(k, k.rational(-1), k.rational(-1))


def _bases(alg):
    """O_K-bases of the special and the Hurwitz-type order."""
    units = [alg.one(), alg.i(), alg.j(), alg.k()]
    return {"special": units, "hurwitz": units[:3] + [sum(units[1:], units[0]) / 2]}


def _ref_disc_norm(alg, gens):
    """|N(det_K trd(q_a q_b))| for an O_K-basis q_0, ..., q_3."""
    gram = sympy.Matrix(4, 4, lambda a, b: _poly((gens[a] * gens[b]).trace().coeffs))
    det = sympy.rem(sympy.expand(gram.det()), _poly(alg.field.minpoly), Y)
    return abs(_ref_norm(alg.field, det))


ORDER_FIELDS = ["Q", "Q(sqrt2)", "Q(sqrt5)"]


@pytest.mark.parametrize("name", ORDER_FIELDS)
@pytest.mark.parametrize("kind", ["special", "hurwitz"])
def test_order_discriminant_matches_the_reduced_trace_determinant(name, kind):
    alg = _algebra(name)
    gens = _bases(alg)[kind]
    order = QuatOrder.special(alg) if kind == "special" else QuatOrder.ok_span(alg, gens)
    nd = order.discriminant_norm()
    assert nd == _ref_disc_norm(alg, gens)
    assert nd == {"special": 16, "hurwitz": 4}[kind] ** alg.field.degree


@pytest.mark.parametrize("name", ORDER_FIELDS)
def test_conjugate_orders_share_the_discriminant(name):
    alg = _algebra(name)
    comp = st.integers(min_value=-3, max_value=3)

    @settings(max_examples=8)
    @given(st.lists(comp, min_size=4, max_size=4).filter(any),
           st.sampled_from(["special", "hurwitz"]))
    def check(u, kind):
        unit = alg.element(*u)
        gens = [unit * q * unit.inv() for q in _bases(alg)[kind]]
        nd = QuatOrder.ok_span(alg, gens).discriminant_norm()
        assert nd == _ref_disc_norm(alg, gens)
        assert nd == QuatOrder.ok_span(alg, _bases(alg)[kind]).discriminant_norm()

    check()


def test_order_from_a_plain_z_basis():
    # the Hurwitz-type order over Q(sqrt5), given only by its Z-basis
    alg = _algebra("Q(sqrt5)")
    gens = _bases(alg)["hurwitz"]
    z_basis = [q * w for q in gens for w in alg.field.basis_elements()]
    assert QuatOrder(alg, z_basis).discriminant_norm() == _ref_disc_norm(alg, gens) == 16


def test_order_must_contain_the_ring_of_integers():
    # Z[2 sqrt2]<1, i, j, k> is a ring, but not an O_K-module
    alg = _algebra("Q(sqrt2)")
    k = alg.field
    units = [alg.one(), alg.i(), alg.j(), alg.k()]
    z_basis = [q * w for q in units for w in (k.one(), k.gen() * 2)]
    with pytest.raises(ValidationError, match="O_K"):
        QuatOrder(alg, z_basis)
