import random
from fractions import Fraction

import pytest

from latheights.errors import ValidationError
from latheights.heights import (
    clear_denominators,
    form_height,
    grassmann,
    height_H,
    height_H2,
    height_h,
    hfin_integral,
    hfin_matrix,
    subspace_height,
)
from latheights.nf import nf_new
from latheights.reals import cmp_real


def field_q():
    return nf_new([-1, 1], [[1]])


def field_sqrt2():
    return nf_new([-2, 0, 1], [[1, 0], [0, 1]])


def field_sqrt5():
    return nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])


def test_height_H_basics():
    kq = field_q()
    h = height_H(kq, [kq.one(), kq.zero()])
    assert h.as_rooted().cmp(1) == 0
    h2 = height_H(kq, [kq.rational(3), kq.rational(2)])
    assert h2.as_rooted().cmp(3) == 0

    k2 = field_sqrt2()
    # (1, theta): finite part 1, both infinite channels give sqrt(2),
    # so H = (sqrt2 * sqrt2)^{1/2} = sqrt(2)
    hv = height_H(k2, [k2.one(), k2.gen()])
    assert hv.power == 2
    assert hv.finite_pow == 1
    r = hv.as_rooted()
    assert (r**2).cmp(2) == 0


def test_height_H_zero_rejected():
    kq = field_q()
    with pytest.raises(ValidationError):
        height_H(kq, [kq.zero(), kq.zero()])


def test_height_h():
    kq = field_q()
    assert height_h(kq, [kq.zero()]).as_rooted().cmp(1) == 0
    assert height_h(kq, [kq.rational(Fraction(3, 2))]).as_rooted().cmp(3) == 0

    k5 = field_sqrt5()
    phi = k5.element([Fraction(1, 2), Fraction(1, 2)])
    hv = height_h(k5, [phi])
    # h(phi)^2 = phi (max(1,phi) * max(1,|1-phi|) = phi, content trivial)
    assert cmp_real(hv.value_pow(), k5.channel_values(phi)[0]) == 0


def test_height_H2():
    kq = field_q()
    assert height_H2(kq, [kq.one(), kq.zero(), kq.zero()]).as_rooted().cmp(1) == 0
    hv = height_H2(kq, [kq.one(), kq.one()])
    assert cmp_real(hv.value_pow(), 2) == 0  # sqrt(2)^2
    assert height_H2(kq, [kq.rational(3), kq.rational(4)]).as_rooted().cmp(5) == 0


def test_h_dominates_H():
    kq = field_q()
    rng = random.Random(9)
    for _ in range(20):
        x = [
            kq.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            for _ in range(3)
        ]
        if all(xi.is_zero() for xi in x):
            continue
        hh = height_h(kq, x)
        hH = height_H(kq, x)
        assert hh.as_rooted().cmp(hH.as_rooted()) >= 0


def test_grassmann():
    kq = field_q()
    cols = [
        [kq.one(), kq.zero(), kq.zero()],
        [kq.zero(), kq.one(), kq.zero()],
    ]
    g = grassmann(kq, cols)
    assert [e.as_fraction() for e in g] == [1, 0, 0]

    cols2 = [
        [kq.one(), kq.zero(), kq.one()],
        [kq.zero(), kq.one(), kq.one()],
    ]
    g2 = grassmann(kq, cols2)
    assert [e.as_fraction() for e in g2] == [1, 1, -1]

    single = [[kq.rational(3), kq.rational(5)]]
    assert [e.as_fraction() for e in grassmann(kq, single)] == [3, 5]


def test_subspace_height():
    kq = field_q()
    coord = [
        [kq.one(), kq.zero(), kq.zero()],
        [kq.zero(), kq.one(), kq.zero()],
    ]
    assert subspace_height(kq, coord).as_rooted().cmp(1) == 0

    line = [[kq.one(), kq.one()]]
    hv = subspace_height(kq, line)
    assert cmp_real(hv.value_pow(), 2) == 0  # sqrt 2

    plane = [
        [kq.one(), kq.zero(), kq.one()],
        [kq.zero(), kq.one(), kq.one()],
    ]
    assert cmp_real(subspace_height(kq, plane).value_pow(), 3) == 0  # sqrt 3


def test_subspace_height_basis_independent():
    kq = field_q()
    rng = random.Random(23)
    base = [
        [kq.rational(1), kq.rational(0), kq.rational(1)],
        [kq.rational(0), kq.rational(1), kq.rational(2)],
    ]
    h0 = subspace_height(kq, base)
    for _ in range(20):
        # random GL_2(Q) change of basis
        while True:
            a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
            if a * d - b * c != 0:
                break
        new_cols = [
            [base[0][i] * a + base[1][i] * c for i in range(3)],
            [base[0][i] * b + base[1][i] * d for i in range(3)],
        ]
        h1 = subspace_height(kq, new_cols)
        assert h0.as_rooted().cmp(h1.as_rooted()) == 0


def test_scaling_invariance():
    k2 = field_sqrt2()
    rng = random.Random(31)
    for _ in range(10):
        x = [
            k2.element([rng.randint(-4, 4), rng.randint(-4, 4)]) for _ in range(2)
        ]
        if all(xi.is_zero() for xi in x):
            continue
        a = k2.element([rng.randint(-3, 3) or 1, rng.randint(-3, 3)])
        if a.is_zero():
            continue
        h1 = height_H(k2, x)
        h2 = height_H(k2, [a * xi for xi in x])
        assert h1.as_rooted().cmp(h2.as_rooted()) == 0


def test_hfin_integral():
    kq = field_q()
    assert hfin_integral(kq, [kq.one(), kq.rational(7)]) == 1
    assert hfin_integral(kq, [kq.rational(2), kq.rational(4)]) == Fraction(1, 2)

    k5 = field_sqrt5()
    assert hfin_integral(k5, [k5.gen(), k5.rational(5)]) == Fraction(1, 5)
    with pytest.raises(ValidationError):
        hfin_integral(kq, [kq.rational(Fraction(1, 2))])


def test_hfin_matrix():
    kq = field_q()
    assert hfin_matrix(kq, [[kq.one(), kq.zero()]]) == 1
    assert hfin_matrix(kq, [[kq.rational(2), kq.zero()]]) == Fraction(1, 2)

    k2 = field_sqrt2()
    assert hfin_matrix(k2, [[k2.gen(), k2.rational(2)]]) == Fraction(1, 2)


def test_form_height():
    kq = field_q()
    eye = [[kq.one(), kq.zero()], [kq.zero(), kq.one()]]
    assert form_height(kq, eye).as_rooted().cmp(1) == 0
    diag = [[kq.one(), kq.zero()], [kq.zero(), kq.rational(2)]]
    assert form_height(kq, diag).as_rooted().cmp(2) == 0
    anti = [[kq.zero(), kq.one()], [kq.one(), kq.zero()]]
    assert form_height(kq, anti).as_rooted().cmp(1) == 0
    with pytest.raises(ValidationError):
        form_height(kq, [[kq.zero(), kq.one()], [kq.rational(2), kq.zero()]])


def test_integral_scaling_heights():
    kq = field_q()
    # H(1/2, 1) = 2 = h(1, 2), the height of the integral scaling by 2
    assert height_H(kq, [kq.rational(Fraction(1, 2)), kq.one()]).as_rooted().cmp(2) == 0
    assert height_h(kq, [kq.one(), kq.rational(2)]).as_rooted().cmp(2) == 0


def test_clear_denominators():
    kq = field_q()
    y = clear_denominators([kq.rational(Fraction(1, 6)), kq.rational(Fraction(1, 4))])
    assert [e.as_fraction() for e in y] == [2, 3]
