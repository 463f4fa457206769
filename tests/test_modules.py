import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latheights.errors import ValidationError
from latheights.heights import height_h
from latheights.lattice import supnorm_min
from latheights.modules import OkModule, minima_ck_zk, sigma_embed
from latheights.nf import FracIdeal, nf_new
from latheights.reals import QuadReal, Rooted, cmp_real, sqrt_real


def field_q():
    return nf_new([-1, 1], [[1]])


def field_sqrt2():
    return nf_new([-2, 0, 1], [[1, 0], [0, 1]])


def field_sqrt5():
    return nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])


def field_i():
    return nf_new([1, 0, 1], [[1, 0], [0, 1]])


def field_sqrt_m3():
    return nf_new([3, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])


def test_sigma_embed():
    kq = field_q()
    v = [kq.rational(3), kq.rational(-1)]
    assert [e.as_fraction() for e in sigma_embed(kq, v)] == [3, -1]

    k2 = field_sqrt2()
    out = sigma_embed(k2, [k2.gen()])
    assert out[0] == QuadReal(0, 1, 2)
    assert out[1] == QuadReal(0, -1, 2)

    ki = field_i()
    out2 = sigma_embed(ki, [ki.one() + ki.gen()])
    assert cmp_real(out2[0], 1) == 0  # Re
    assert cmp_real(out2[1], 1) == 0  # Im


def test_free_module_lattice():
    kq = field_q()
    m = OkModule.free_module(kq, 2)
    lat = m.module_lattice()
    assert lat.ambient_dim == 2 and lat.rank == 2
    assert cmp_real(lat.det_value(), 1) == 0
    assert m.module_discriminant() == 1


def test_ok_lattice_det_sqrt2():
    k2 = field_sqrt2()
    m = OkModule.free_module(k2, 1)
    lat = m.module_lattice()
    # spanned by (1,1) and (sqrt2,-sqrt2): det = 2 sqrt2 = |D_K|^{1/2}, D_K=8
    assert cmp_real(lat.det_value() ** 2, 8) == 0
    assert m.module_discriminant() == 8


def test_det_formula_across_modules():
    # det(Lambda_K(M))^2 4^{L r2} = |D(M)|, as module_discriminant documents
    cases = []
    kq = field_q()
    cases.append(OkModule.free_module(kq, 2))
    k5 = field_sqrt5()
    cases.append(OkModule.free_module(k5, 1))
    cases.append(OkModule.free_module(k5, 2))  # |D| = 25: |D|^L would read 625
    ki = field_i()
    cases.append(OkModule.free_module(ki, 1))
    s5 = FracIdeal.principal(k5, k5.gen())
    cases.append(OkModule.from_pseudo_basis(k5, 1, [([k5.one()], s5)]))
    half = FracIdeal.principal(kq, kq.rational(Fraction(1, 2)))
    cases.append(OkModule.from_pseudo_basis(kq, 1, [([kq.one()], half)]))
    for m in cases:
        big_l = m.rank
        r2 = m.field.signature[1]
        det = m.module_lattice().det_value()
        disc = m.module_discriminant()
        lhs = (det * Fraction(2) ** (big_l * r2)) ** 2
        assert cmp_real(lhs, abs(disc)) == 0, (m.field, disc)
    assert cases[2].module_discriminant() == 25


def test_module_discriminant_values():
    k5 = field_sqrt5()
    s5 = FracIdeal.principal(k5, k5.gen())
    m = OkModule.from_pseudo_basis(k5, 1, [([k5.one()], s5)])
    assert m.module_discriminant() == 125

    kq = field_q()
    half = FracIdeal.principal(kq, kq.rational(Fraction(1, 2)))
    m2 = OkModule.from_pseudo_basis(kq, 1, [([kq.one()], half)])
    assert m2.module_discriminant() == Fraction(1, 4)

    assert OkModule.free_module(k5, 3).module_discriminant() == 125


def test_from_z_generators_matches_pseudo():
    k5 = field_sqrt5()
    s5 = FracIdeal.principal(k5, k5.gen())
    m1 = OkModule.from_pseudo_basis(k5, 1, [([k5.one()], s5)])
    gens = [[g] for g in s5.z_basis]
    m2 = OkModule.from_z_generators(k5, 1, gens)
    assert m2.rank == 1
    assert m2.module_discriminant() == m1.module_discriminant()
    assert m2.contains([k5.gen()]) and not m2.contains([k5.one()])


def test_z_generator_discriminant_from_int_gram():
    """A rank-2 module over Q(sqrt5) given by Z-generators has no
    pseudo-basis: its discriminant is read from the integer Gram matrix of
    its lattice (with a denominator, from the ideal 1/3) and equals the
    pseudo-basis formula D_K^L N(I_1)^2 N(I_2)^2 = 5^2 4^2 / 9^2."""
    k5 = field_sqrt5()
    pairs = [([k5.one(), k5.gen()], FracIdeal.principal(k5, k5.rational(2))),
             ([k5.zero(), k5.one()], FracIdeal.principal(k5, k5.rational(Fraction(1, 3))))]
    m1 = OkModule.from_pseudo_basis(k5, 2, pairs)
    m2 = OkModule.from_z_generators(k5, 2, m1.z_basis)
    assert m2.pseudo_basis is None and m2.module_lattice().int_gram()[1] > 1
    assert m2.module_discriminant() == m1.module_discriminant() == Fraction(400, 81)
    # O_K^3 from its Z-basis: D_K^3, with no cube root taken of it
    free = OkModule.free_module(k5, 3)
    assert OkModule.from_z_generators(k5, 3, free.z_basis).module_discriminant() == 125


def test_scaling_ideal():
    kq = field_q()
    m = OkModule.free_module(kq, 2)
    assert m.scaling_ideal() == FracIdeal.unit(kq)

    half = FracIdeal.principal(kq, kq.rational(Fraction(1, 2)))
    m2 = OkModule.from_pseudo_basis(kq, 1, [([kq.one()], half)])
    u = m2.scaling_ideal()
    assert u.contains(kq.rational(2)) and not u.contains(kq.one())

    k5 = field_sqrt5()
    s5 = FracIdeal.principal(k5, k5.gen())
    inv_gen = [k5.gen().inv()]
    m3 = OkModule.from_pseudo_basis(k5, 1, [(inv_gen, s5)])
    assert m3.scaling_ideal() == FracIdeal.unit(k5)


def test_ck_zk():
    kq = field_q()
    c, ac, z, az = minima_ck_zk(OkModule.free_module(kq, 2))
    assert c.cmp(1) == 0 and z.cmp(1) == 0

    half = FracIdeal.principal(kq, kq.rational(Fraction(1, 2)))
    m2 = OkModule.from_pseudo_basis(kq, 1, [([kq.one()], half)])
    c2, ac2, z2, _ = minima_ck_zk(m2)
    assert c2.cmp(2) == 0
    assert z2.cmp(4) == 0
    assert abs(ac2.as_fraction()) == 2

    third = FracIdeal.principal(kq, kq.rational(Fraction(1, 3)))
    m3 = OkModule.from_pseudo_basis(kq, 1, [([kq.one()], third)])
    c3, _, z3, _ = minima_ck_zk(m3)
    assert c3.cmp(3) == 0
    assert z3.cmp(9) == 0


def test_coordinate_lower_bound():
    # every nonzero x in M has |sigma(x)|_inf >= (1/sqrt2) c_K(M)^{-1}
    kq = field_q()
    k5 = field_sqrt5()
    half = FracIdeal.principal(kq, kq.rational(Fraction(1, 2)))
    mods = [
        OkModule.free_module(kq, 2),
        OkModule.from_pseudo_basis(kq, 1, [([kq.one()], half)]),
        OkModule.free_module(k5, 1),
    ]
    for m in mods:
        c, _, _, _ = minima_ck_zk(m)
        smin, _ = supnorm_min(m.module_lattice())
        bound = (c.inverse() * Rooted(Fraction(1, 2), 2)).as_real()
        assert cmp_real(smin, bound) >= 0


def test_height_supnorm_bound():
    # h(x) <= z_K(M) * |sigma(x)|_inf for random module elements
    rng = random.Random(41)
    k5 = field_sqrt5()
    kq = field_q()
    half = FracIdeal.principal(kq, kq.rational(Fraction(1, 2)))
    mods = [
        OkModule.free_module(k5, 1),
        OkModule.from_pseudo_basis(kq, 1, [([kq.one()], half)]),
    ]
    from latheights.reals import abs_real, max_real

    checked = 0
    for m in mods:
        _, _, z, _ = minima_ck_zk(m)
        for _ in range(25):
            coeffs = [rng.randint(-5, 5) for _ in m.z_basis]
            if all(c == 0 for c in coeffs):
                continue
            x = None
            for c, v in zip(coeffs, m.z_basis):
                if c:
                    term = [vi * c for vi in v]
                    x = term if x is None else [a + b for a, b in zip(x, term)]
            emb = sigma_embed(m.field, x)
            sup = max_real(*[abs_real(e) for e in emb])
            h = height_h(m.field, x).as_rooted()
            rhs = z * sup
            assert h.cmp(rhs) <= 0
            checked += 1
    assert checked >= 40


FIELDS = {"Q": field_q(), "Q(sqrt2)": field_sqrt2(), "Q(sqrt5)": field_sqrt5(),
          "Q(i)": field_i(), "Q(sqrt-3)": field_sqrt_m3()}


@st.composite
def pseudo_bases(draw):
    """(field, N, pairs): L <= N <= 2 random K-vectors with small power-basis
    coefficients, over principal ideals of small elements."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    d = field.degree
    coeff = st.integers(-3, 3)

    def element():
        den = draw(st.sampled_from([1, 1, 2]))
        return field.element([Fraction(draw(coeff), den) for _ in range(d)])

    n = draw(st.integers(1, 2))
    pairs = []
    for _ in range(draw(st.integers(1, n))):
        gen = element()
        assume(not gen.is_zero())
        pairs.append(([element() for _ in range(n)], FracIdeal.principal(field, gen)))
    return field, n, pairs


@settings(max_examples=60)
@given(pseudo_bases())
def test_pseudo_basis_discriminant_matches_int_gram(case):
    """Both branches of module_discriminant agree: the pseudo-basis formula
    with its factor N(det V^T V), and the integer Gram determinant of the
    same module given by Z-generators."""
    field, n, pairs = case
    try:
        m1 = OkModule.from_pseudo_basis(field, n, pairs)
    except ValidationError:  # dependent pseudo-basis vectors
        assume(False)
    m2 = OkModule.from_z_generators(field, n, m1.z_basis)
    assert m2.pseudo_basis is None
    assert m1.module_discriminant() == m2.module_discriminant()


def test_non_unimodular_pseudo_basis_discriminant():
    # 2Z as the pseudo-basis [([2], (1))] over Q: covolume 2, D = 4
    kq = field_q()
    two = OkModule.from_pseudo_basis(kq, 1, [([kq.rational(2)], FracIdeal.unit(kq))])
    assert two.module_discriminant() == 4
    assert OkModule.from_z_generators(kq, 1, two.z_basis).module_discriminant() == 4
