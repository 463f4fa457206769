import random
from fractions import Fraction

import pytest

from latheights import linalg
from latheights.errors import ValidationError
from latheights.nf import nf_new
from latheights.quat import (
    DSubspace,
    QuatAlgebra,
    QuatOrder,
    _hermitian_square_det_abs,
    bracket,
    bracket_inv,
    eval_hermitian,
    height_HO,
    height_HfinO,
    height_Hinf,
    height_h,
    height_hinf,
    intersection_module,
    minima_cz_order,
    nrd,
    order_constants,
    s_t_constants,
    trace_form,
    trace_form_block,
)
from latheights.reals import Rooted, cmp_real
from quat_references import eval_quadratic, hinf_constraint_minors


def field_q():
    return nf_new([-1, 1], [[1]])


def field_sqrt5():
    return nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])


def alg_hamilton(k=None):
    k = k or field_q()
    return QuatAlgebra(k, k.rational(-1), k.rational(-1))


def alg_m13():
    k = field_q()
    return QuatAlgebra(k, k.rational(-1), k.rational(-3))


def test_algebra_validation():
    k = field_q()
    with pytest.raises(ValidationError):
        QuatAlgebra(k, k.rational(1), k.rational(-1))  # alpha positive
    k5 = field_sqrt5()
    # 1 - 2*phi = -sqrt5 is not totally negative? sigma channels: -sqrt5, +sqrt5
    bad = k5.one() - k5.element([1, 1])
    with pytest.raises(ValidationError):
        QuatAlgebra(k5, bad, k5.rational(-1))
    # totally negative over Q(sqrt5): -1 works
    QuatAlgebra(k5, k5.rational(-1), k5.rational(-1))


def test_quat_arithmetic():
    a = alg_hamilton()
    i, j, k = a.i(), a.j(), a.k()
    assert i * j == k
    assert j * i == -k
    assert i * i == -1
    assert j * j == -1
    assert k * k == -1
    assert i.nrm() == a.field.one()
    assert i.trace().is_zero()
    assert i.conj() == -i

    x = a.one() + i + j + k
    assert x.nrm().as_fraction() == 4

    y = a.one() + i
    assert (y * j).nrm() == y.nrm() * j.nrm()
    assert (y * j).nrm().as_fraction() == 2


def test_quat_norm_multiplicative_random():
    rng = random.Random(7)
    a = alg_m13()
    for _ in range(20):
        x = a.element(*[rng.randint(-4, 4) for _ in range(4)])
        y = a.element(*[rng.randint(-4, 4) for _ in range(4)])
        assert (x * y).nrm() == x.nrm() * y.nrm()
        assert (x + x.conj()) == a.element(x.trace())
        assert x.conj().conj() == x


def test_inverse():
    a = alg_m13()
    x = a.element(1, 2, 0, 1)
    assert x * x.inv() == a.one()
    assert x.inv() * x == a.one()


def test_arch_abs():
    a = alg_m13()
    for x, want in ((a.one(), 1), (a.i(), 1), (a.j(), 3)):  # |j| = sqrt3
        assert cmp_real(a.field.channel_values(x.nrm())[0], want) == 0


def test_s_t_constants():
    s, t, _, _ = s_t_constants(alg_hamilton())
    assert s.cmp(1) == 0 and t.cmp(1) == 0

    s2, t2, _, _ = s_t_constants(alg_m13())
    assert (s2 * s2).cmp(3) == 0  # s = sqrt3
    assert t2.cmp(1) == 0

    k = field_q()
    a3 = QuatAlgebra(k, k.rational(-2), k.rational(-1))
    s3, t3, _, _ = s_t_constants(a3)
    assert (s3 * s3).cmp(2) == 0
    assert t3.cmp(1) == 0


def _rand_quat(alg, rng):
    d = alg.field.degree
    return alg.element(*[alg.field.element([rng.randint(-2, 2) for _ in range(d)])
                         for _ in range(4)])


def _left_regular(s):
    """4n x 4n matrix over K of x -> S x on D^n in bracket coordinates."""
    alg = s[0][0].algebra
    units = [alg.one(), alg.i(), alg.j(), alg.k()]
    n = len(s)
    return [[(s[m][l] * units[b]).c[r] for l in range(n) for b in range(4)]
            for m in range(n) for r in range(4)]


def _rand_square(alg, rng, n):
    """Random n x n matrix over D; about one in three has a row that is a
    left multiple of another, so it is singular."""
    s = [[_rand_quat(alg, rng) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 1 / 3:
        mu = _rand_quat(alg, rng)
        s[-1] = [mu * x for x in s[0]]
    return s


def test_nrd_against_left_regular_representation():
    rng = random.Random(47)
    singular = nonsingular = 0
    k5 = field_sqrt5()
    # (-1,-1/Q), (-1,-3/Q), (-1,-1/Q(sqrt5)), (-2,-5/Q(sqrt5))
    for alg in (alg_hamilton(), alg_m13(), alg_hamilton(k5),
                QuatAlgebra(k5, k5.rational(-2), k5.rational(-5))):
        field = alg.field
        for n in (1, 2, 3):
            for _ in range(4):
                s = _rand_square(alg, rng, n)
                t = _rand_square(alg, rng, n)
                v = nrd(s)
                # det lambda(S) = Nrd(S)^2
                lam = linalg.det(_left_regular(s))
                assert lam == v * v
                if lam == 0:
                    singular += 1
                    assert v.is_zero()
                else:
                    nonsingular += 1
                    assert all(cmp_real(ch, 0) > 0 for ch in field.channel_values(v))
                st = [[sum((s[i][m] * t[m][j] for m in range(n)), alg.zero())
                       for j in range(n)] for i in range(n)]
                assert nrd(st) == v * nrd(t)
        for _ in range(10):
            x = _rand_quat(alg, rng)
            assert nrd([[x]]) == x.nrm()
    assert singular >= 5 and nonsingular >= 20


def test_bracket_roundtrip():
    a = alg_m13()
    x = a.element(0, 1, 2, 0)
    assert [e.as_fraction() for e in bracket([x])] == [0, 1, 2, 0]
    rng = random.Random(3)
    xs = [a.element(*[rng.randint(-5, 5) for _ in range(4)]) for _ in range(3)]
    back = bracket_inv(a, bracket(xs))
    assert all(u == v for u, v in zip(xs, back))


def test_local_sandwich():
    # t_v max|x(m)|_v <= |x|_v <= 2 s_v max|x(m)|_v, squared comparisons
    rng = random.Random(19)
    from latheights.reals import abs_real, max_real

    for alg in (alg_hamilton(), alg_m13(), alg_hamilton(field_sqrt5())):
        field = alg.field
        _, _, s_sq, t_sq = s_t_constants(alg)
        for _ in range(25):
            x = alg.element(*[rng.randint(-5, 5) for _ in range(4)])
            if x.is_zero():
                continue
            for n in range(field.degree):
                comp_max = max_real(
                    *[abs_real(field.channel_values(c)[n]) for c in x.c]
                )
                lhs = t_sq[n] * comp_max * comp_max
                mid = field.channel_values(x.nrm())[n]
                rhs = 4 * s_sq[n] * comp_max * comp_max
                assert cmp_real(lhs, mid) <= 0
                assert cmp_real(mid, rhs) <= 0


def test_global_sandwich():
    # t h([x]) <= h(x) and h(x)^d <= 2^d s h([x])^d
    rng = random.Random(23)
    from latheights.heights import height_h as height_h_K

    for alg in (alg_m13(), alg_hamilton(field_sqrt5())):
        field = alg.field
        d = field.degree
        s, t, _, _ = s_t_constants(alg)
        for _ in range(10):
            xs = [
                alg.element(*[rng.randint(-3, 3) for _ in range(4)])
                for _ in range(2)
            ]
            hq = height_h(xs)
            hk = height_h_K(field, bracket(xs)).as_rooted()
            assert (t * hk).cmp(hq) <= 0
            assert (hq**d).cmp(s * (hk**d) * Fraction(2) ** d) <= 0


def test_height_hinf_basics():
    a = alg_m13()
    assert height_Hinf([a.one()]).cmp(1) == 0
    assert height_hinf([a.one()]).cmp(1) == 0
    ah = alg_hamilton()
    assert height_Hinf([ah.i()]).cmp(1) == 0
    assert height_hinf([ah.i()]).cmp(1) == 0
    assert height_Hinf([a.element(2)]).cmp(2) == 0
    assert height_hinf([a.element(2)]).cmp(2) == 0


def test_height_HfinO():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    assert height_HfinO(od, [a.one(), a.element(5)]) == 1
    assert height_HfinO(od, [a.element(2)]) == Fraction(1, 16)
    assert height_HfinO(od, [a.i(), a.j()]) == 1


def test_height_HO():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    e1 = [a.one(), a.zero()]
    assert height_HO(od, e1).cmp(1) == 0
    x = [a.element(Fraction(1, 2)), a.one()]
    assert height_HO(od, x).cmp(2) == 0
    # right-scaling invariance under unit-norm t
    rng = random.Random(29)
    for _ in range(5):
        while True:
            t = a.element(*[rng.randint(-2, 2) for _ in range(4)])
            if not t.is_zero():
                break
        xs = [a.element(1, 1, 0, 0), a.element(0, 0, 1, 1)]
        h1 = height_HO(od, xs)
        h2 = height_HO(od, [v * t for v in xs])
        # H^O(x t) = H^O(x) for all invertible t
        assert h1.cmp(h2) == 0


def test_order_validation_and_constants():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    nd, m = order_constants(od)
    assert nd == 16  # (4 alpha beta)^2 with 4ab = 4
    assert m.cmp(1) == 0

    a13 = alg_m13()
    nd2, m2 = order_constants(QuatOrder.special(a13))
    assert nd2 == 144  # (4 alpha beta)^2 with 4ab = 12
    assert m2.cmp(1) == 0

    k = a.field
    with pytest.raises(ValidationError):
        # i/2 does not generate a ring over the remaining elements
        QuatOrder(
            a,
            [a.one(), a.i() * Fraction(1, 2), a.j(), a.k()],
        )


def test_hurwitz_order():
    a = alg_hamilton()
    h = a.element(*[Fraction(1, 2)] * 4)  # (1+i+j+k)/2
    hur = QuatOrder.ok_span(a, [a.one(), a.i(), a.j(), h])
    nd, m = order_constants(hur)
    # index-2 overorder of the standard basis order: 16 / 2^2 = 4
    assert nd == 4
    assert hur.contains(h * h)


def test_trace_form_block_and_Q():
    a = alg_m13()
    k = a.field
    blk = trace_form_block(a.one())
    diag = [blk[t][t].as_fraction() for t in range(4)]
    al, be = -1, -3
    assert diag == [2, -2 * al, -2 * be, 2 * al * be]
    for r in range(4):
        for c in range(4):
            if r != c:
                assert blk[r][c].is_zero()

    # Q([x]) = 2 F(x) for random hermitian F and x
    rng = random.Random(31)
    for _ in range(10):
        f01 = a.element(*[rng.randint(-3, 3) for _ in range(4)])
        f00 = a.element(rng.randint(-3, 3))
        f11 = a.element(rng.randint(-3, 3))
        form = [[f00, f01], [f01.conj(), f11]]
        b = trace_form(form)
        # symmetry
        for r in range(8):
            for c in range(8):
                assert (b[r][c] - b[c][r]).is_zero()
        xs = [a.element(*[rng.randint(-3, 3) for _ in range(4)]) for _ in range(2)]
        q = eval_quadratic(b, bracket(xs))
        fval = eval_hermitian(form, xs)
        assert (q - fval * 2).is_zero()
        assert fval.is_zero() == q.is_zero()


def test_subspace_heights_and_duality():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    # coordinate axis e_1 D in D^2: constraint (0, 1)
    z = DSubspace(a, 2, constraint_rows=[[a.zero(), a.one()]])
    assert subspace_height_cmp_one(z, od)

    # span{(1,1)}: H_inf part det rho((1,1)(1,1)*) = det rho(2) = 4
    z2 = DSubspace(a, 2, basis_cols=[[a.one(), a.one()]])
    from latheights.quat import subspace_height_HO, subspace_height_HO_basis

    h_basis = subspace_height_HO_basis(z2, od)
    h_constraint = subspace_height_HO(z2, od)
    assert h_basis.cmp(h_constraint) == 0

    # duality on random 1-dim subspaces of D^2
    rng = random.Random(37)
    for _ in range(6):
        while True:
            col = [
                a.element(*[rng.randint(-2, 2) for _ in range(4)]) for _ in range(2)
            ]
            if not all(x.is_zero() for x in col):
                break
        zz = DSubspace(a, 2, basis_cols=[col])
        h1 = subspace_height_HO(zz, od)
        h2 = subspace_height_HO(zz.perp(), od)
        assert h1.cmp(h2) == 0


def test_basis_and_constraint_must_describe_one_subspace():
    """C X = 0 is not enough: X = (1, 1, 0) and C = (0, 0, 1) in D^3 give a
    line inside the plane ker C.  Ranks must add up to N, and both be full."""
    a = alg_hamilton()
    one, zero = a.one(), a.zero()
    with pytest.raises(ValidationError, match="different subspaces"):
        DSubspace(a, 3, basis_cols=[[one, one, zero]], constraint_rows=[[zero, zero, one]])
    with pytest.raises(ValidationError, match="different subspaces"):  # rank X = 1
        DSubspace(a, 3, basis_cols=[[one, one, zero]] * 2, constraint_rows=[[zero, zero, one]])
    with pytest.raises(ValidationError, match="different subspaces"):  # rank C = 1
        DSubspace(a, 3, basis_cols=[[one, zero, zero]], constraint_rows=[[zero, zero, one]] * 2)
    with pytest.raises(ValidationError, match="does not annihilate"):
        DSubspace(a, 3, basis_cols=[[one, one, zero], [zero, zero, one]],
                  constraint_rows=[[one, one, zero]])
    z = DSubspace(a, 3, basis_cols=[[one, one, zero], [zero, zero, a.i()]],
                  constraint_rows=[[one, -one, zero]])
    assert z.dim == 2


def subspace_height_cmp_one(z, od):
    from latheights.quat import subspace_height_HO

    return subspace_height_HO(z, od).cmp(1) == 0


def test_cauchy_binet_agreement():
    a = alg_m13()
    rng = random.Random(41)
    for _ in range(8):
        while True:
            col = [
                a.element(*[rng.randint(-2, 2) for _ in range(4)]) for _ in range(2)
            ]
            if not all(x.is_zero() for x in col):
                break
        z = DSubspace(a, 2, basis_cols=[col])
        g = Rooted(_hermitian_square_det_abs(z.constraint_rows()), 4)  # power 4d
        m = hinf_constraint_minors(z)  # power 2d
        assert g.cmp(m) == 0


def test_det_rho_cc_star_in_K():
    a = alg_hamilton(field_sqrt5())
    rng = random.Random(43)
    for _ in range(5):
        row = [
            a.element(*[a.field.element([rng.randint(-2, 2), rng.randint(-1, 1)]) for _ in range(4)])
            for _ in range(2)
        ]
        if all(x.is_zero() for x in row):
            continue
        from latheights.quat import _hermitian_square_det_channels

        ch = _hermitian_square_det_channels([row])
        assert len(ch) == 2  # lands in K: one value per channel


def test_intersection_module_and_cz():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    z = DSubspace(a, 2, basis_cols=[[a.one(), a.one()]])
    mod = intersection_module(z, od)
    assert mod.rank == 4  # 4Ld with L=1, d=1
    c, _, zv, _ = minima_cz_order(z, od)
    assert c.cmp(1) == 0 and zv.cmp(1) == 0

    # order with a half-integer element: minimal clearing scalar is 2
    h = a.element(*[Fraction(1, 2)] * 4)
    hur = QuatOrder.ok_span(a, [a.one(), a.i(), a.j(), h])
    z2 = DSubspace(a, 1, basis_cols=[[a.one()]])
    c2, wit, z2v, _ = minima_cz_order(z2, hur)
    assert c2.cmp(2) == 0
    assert z2v.cmp(4) == 0
