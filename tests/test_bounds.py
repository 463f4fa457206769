import math
import random
from fractions import Fraction

import pytest

from latheights import bounds
from latheights.bounds import (
    HOLDS,
    INCONCLUSIVE,
    LOWER,
    UPPER,
    BoundReport,
    _d_rank,
    const_A,
    const_E1_E2,
    const_E3_E4,
    const_rv,
    const_TK,
    det_mz_check,
    exact_count_d,
    exact_count_module,
    exact_count_zo,
    loher_masser_upper,
    search_basis,
    search_isotropic,
    thm1_lower,
    thm_main1_lower,
    thm_main2_upper,
)
from latheights.errors import BudgetExceeded, ValidationError
from latheights.heights import height_h as height_h_nf
from latheights.modules import OkModule, minima_ck_zk
from latheights.nf import FracIdeal, nf_new
from latheights.quat import DSubspace, QuatAlgebra, QuatOrder, bracket_inv, height_h
from latheights.reals import PRECISION, QuadReal, cmp_real, real_to_float


def field_q():
    return nf_new([-1, 1], [[1]])


def field_sqrt2():
    return nf_new([-2, 0, 1], [[1, 0], [0, 1]])


def field_sqrt5():
    return nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])


def field_i():
    return nf_new([1, 0, 1], [[1, 0], [0, 1]])


def alg_hamilton(k=None):
    k = k or field_q()
    return QuatAlgebra(k, k.rational(-1), k.rational(-1))


def axis_subspace(a):
    # e_1 D inside D^2, via the constraint x_2 = 0
    return DSubspace(a, 2, constraint_rows=[[a.zero(), a.one()]])


# ---------------------------------------------------------------------------
# module counting


def test_const_E1_E2_values():
    # rank-1 free module over Q: E1 = 2^{-1}, E2 = 2 sqrt2
    e1, e2 = const_E1_E2(OkModule.free_module(field_q(), 1))
    assert e1.cmp(Fraction(1, 2)) == 0
    assert (e2 * e2).cmp(8) == 0
    # rank-1 free module over Q(sqrt5): E1 = E2 = sqrt2
    e1b, e2b = const_E1_E2(OkModule.free_module(field_sqrt5(), 1))
    assert (e1b * e1b).cmp(2) == 0
    assert (e2b * e2b).cmp(2) == 0


def test_exact_count_module_frozen():
    kq = field_q()
    assert exact_count_module(OkModule.free_module(kq, 1), 1) == 3  # 0, +-1
    assert exact_count_module(OkModule.free_module(kq, 2), 2) == 25
    # golden ratio radius over Q(sqrt5): closed condition picks up the exact
    # ties at +-phi^2 and +-phi^-2, giving 11 points, not 9
    k5 = field_sqrt5()
    phi = QuadReal(Fraction(1, 2), Fraction(1, 2), 5)
    assert exact_count_module(OkModule.free_module(k5, 1), phi) == 11


def test_exact_count_module_radius_validation():
    with pytest.raises(ValidationError):
        exact_count_module(OkModule.free_module(field_q(), 1), Fraction(1, 2))


def test_thm1_lower_holds():
    rep = thm1_lower(OkModule.free_module(field_q(), 1), Fraction(3))
    assert rep.applicable and rep.kind == LOWER
    assert rep.exact_count == 7  # 0, +-1, +-2, +-3
    assert cmp_real(rep.bound_value, 5) == 0  # R/E1 - 1 with E1 = 1/2
    assert rep.verdict == HOLDS
    assert rep.exact_count == 7 and rep.verdict == HOLDS and rep.kind == LOWER


def test_thm1_lower_computes_minima_once(monkeypatch):
    # the threshold and the growth constant come from one minima_ck_zk call
    calls = []

    def spy(module):
        calls.append(module)
        return minima_ck_zk(module)

    monkeypatch.setattr(bounds, "minima_ck_zk", spy)
    module = OkModule.free_module(field_sqrt5(), 1)
    assert thm1_lower(module, Fraction(4)).verdict == HOLDS
    assert calls == [module]


def test_thm1_below_threshold():
    # rank-2 over Q: threshold E1 = sqrt2 > 1
    rep = thm1_lower(OkModule.free_module(field_q(), 2), 1)
    assert not rep.applicable
    assert rep.verdict == INCONCLUSIVE
    assert rep.bound_value is None
    assert rep.note == "below threshold"


def test_thm1_random_instances_never_violated():
    rng = random.Random(59)
    kq = field_q()
    k5 = field_sqrt5()
    half = FracIdeal.principal(kq, kq.rational(Fraction(1, 2)))
    instances = [
        OkModule.free_module(kq, 1),
        OkModule.free_module(kq, 2),
        OkModule.free_module(k5, 1),
        OkModule.from_pseudo_basis(kq, 1, [([kq.one()], half)]),
    ]
    checked = 0
    for mod in instances:
        for _ in range(2):
            r = Fraction(rng.randint(2, 5))
            rep = thm1_lower(mod, r)
            assert rep.verdict != "VIOLATED", (mod.field.degree, r)
            if rep.applicable:
                checked += 1
    assert checked >= 3


# ---------------------------------------------------------------------------
# quaternion counting


def test_const_E3_E4_values():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    z = axis_subspace(a)
    e3, e4, e3p = const_E3_E4(od, z)
    # L = d = 1, c = z = s = 1, N(Delta) = 16: E3 = 2 sqrt2, E4 = 1/(2 sqrt2)
    assert (e3 * e3).cmp(8) == 0
    assert (e4 * e4).cmp(Fraction(1, 8)) == 0
    # E3' = (2^4 * 1 * sqrt16)^{-1} = 1/64
    assert e3p.cmp(Fraction(1, 64)) == 0


def test_exact_count_zo_frozen():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    z = axis_subspace(a)
    # R = 1: zero plus the eight units +-1, +-i, +-j, +-k
    assert exact_count_zo(z, od, 1) == 9
    assert exact_count_zo(z, od, 2) == 89


def test_exact_count_zo_pipeline_consistency():
    # Z = e_1 D in D^2 and Z = D^1 count the same set
    a = alg_hamilton()
    od = QuatOrder.special(a)
    z2 = axis_subspace(a)
    z1 = DSubspace(a, 1, basis_cols=[[a.one()]])
    for r in (1, 2):
        assert exact_count_zo(z2, od, r) == exact_count_zo(z1, od, r)


def test_field_count_contained_in_quaternion_count():
    # with s = 1, h(x) <= 2 h([x]); so field points of height <= R/2 inject
    # into the quaternionic count at radius R
    a = alg_hamilton()
    kq = a.field
    od = QuatOrder.special(a)
    free4 = OkModule.free_module(kq, 4)
    z1 = DSubspace(a, 1, basis_cols=[[a.one()]])
    field_count = exact_count_module(free4, 1)
    assert field_count == 81  # all vectors with coordinates in {0, +-1}
    assert field_count <= exact_count_zo(z1, od, 2)


def test_thm_main1_lower_holds():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    z = axis_subspace(a)
    rep = thm_main1_lower(z, od, Fraction(3))
    assert rep.applicable and rep.kind == LOWER
    # |{x in O_D : h(x) <= 3}|: frozen enumeration value
    assert rep.exact_count == 425
    assert rep.verdict == HOLDS
    # bound = (3/(2 sqrt2) - 1)^4
    expect = (3 / (2 * math.sqrt(2)) - 1) ** 4
    assert math.isclose(real_to_float(rep.bound_value), expect, rel_tol=1e-9)


def test_thm_main1_below_threshold():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    z = axis_subspace(a)
    rep = thm_main1_lower(z, od, Fraction(2))  # 2 < 2 sqrt2
    assert not rep.applicable
    assert rep.verdict == INCONCLUSIVE
    assert rep.exact_count == 89


def test_det_mz_identity():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    assert det_mz_check(axis_subspace(a), od)
    z2 = DSubspace(a, 2, basis_cols=[[a.one(), a.one()]])
    assert det_mz_check(z2, od)
    k = field_q()
    a13 = QuatAlgebra(k, k.rational(-1), k.rational(-3))
    od13 = QuatOrder.special(a13)
    z3 = DSubspace(a13, 2, basis_cols=[[a13.one(), a13.element(1, 1, 0, 0)]])
    assert det_mz_check(z3, od13)
    # Hurwitz order: index-2 overorder changes both sides consistently
    h = a.element(*[Fraction(1, 2)] * 4)
    hur = QuatOrder.ok_span(a, [a.one(), a.i(), a.j(), h])
    assert det_mz_check(axis_subspace(a), hur)


def test_loher_masser_value_and_degree_guard():
    val = loher_masser_upper(2, 4, 1)
    assert math.isclose(real_to_float(val), (1088 * 2 * math.log(2)) ** 4, rel_tol=1e-9)
    with pytest.raises(ValidationError):
        loher_masser_upper(1, 4, 1)


def test_exact_count_d_and_main2():
    k2 = field_sqrt2()
    a = alg_hamilton(k2)
    od = QuatOrder.special(a)
    # h <= 1 in D over Q(sqrt2): zero plus the eight norm-one units
    assert exact_count_d(a, od, 1, 1) == 9
    rep = thm_main2_upper(a, od, 1, 1)
    assert rep.kind == UPPER
    assert rep.exact_count == 9
    assert rep.verdict == HOLDS


def test_main2_rejects_degree_one():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    with pytest.raises(ValidationError):
        thm_main2_upper(a, od, 1, 1)


# ---------------------------------------------------------------------------
# field constants


def test_const_rv_values():
    # real place, j = 2: pi^{-1/2} Gamma(2)^{1/2} = pi^{-1/2}
    assert math.isclose(real_to_float(const_rv(True, 2)), math.pi ** -0.5, rel_tol=1e-12)
    # real place, j = 3
    expect = math.pi ** -0.5 * math.gamma(2.5) ** (1 / 3)
    assert math.isclose(real_to_float(const_rv(True, 3)), expect, rel_tol=1e-12)
    # complex place, j = 1: (2 pi)^{-1/2} Gamma(2)^{1/2}
    assert math.isclose(
        real_to_float(const_rv(False, 1)), (2 * math.pi) ** -0.5, rel_tol=1e-12
    )
    # j = 0 convention: empty product is 1
    assert cmp_real(const_rv(True, 0), 1) == 0
    with pytest.raises(ValidationError):
        const_rv(True, -1)


def test_const_TK_monotone_and_finite():
    kq = field_q()
    t11 = real_to_float(const_TK(kq, 1, 1))
    t12 = real_to_float(const_TK(kq, 1, 2))
    assert 0 < t11 < t12
    ki = field_i()
    t23 = real_to_float(const_TK(ki, 2, 3))
    assert t23 > 0 and math.isfinite(t23)
    with pytest.raises(ValidationError):
        const_TK(kq, 0, 1)


def test_const_A_substitution():
    # Hamilton order over Q(sqrt5): s = t = 1, defect 1, so
    # A = 2^{(9L+13)/2} T_K(L, M + 2J + 1)
    k5 = field_sqrt5()
    a = alg_hamilton(k5)
    od = QuatOrder.special(a)
    val = real_to_float(const_A(od, 2, 1, 0, 0))
    expect = 2 ** 11 * real_to_float(const_TK(k5, 1, 1))
    assert math.isclose(val, expect, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# constructive searches


def full_space(a):
    return DSubspace(
        a, 2, basis_cols=[[a.one(), a.zero()], [a.zero(), a.one()]]
    )


def test_search_basis_plain():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    res = search_basis(full_space(a), od)
    assert res["status"] == "PASS"
    assert len(res["basis"]) == 2
    assert all(h.cmp(1) == 0 for h in res["heights"])
    # bound = 4L |D_K|^{(L+1)/(2d)} s H^O(Z)^4 = 8
    assert math.isclose(real_to_float(res["bound"]), 8.0, rel_tol=1e-9)


def test_search_basis_avoiding_subspace():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    u1 = DSubspace(a, 2, basis_cols=[[a.one(), a.zero()]])
    res = search_basis(full_space(a), od, avoid_subspaces=[u1])
    assert res["status"] == "PASS"
    assert len(res["basis"]) == 2
    # no basis vector lies in the avoided axis
    for v in res["basis"]:
        assert not v[1].is_zero()


def _right_multiple(u, v):
    """mu with v = u mu, or None (u nonzero)."""
    t = next(t for t, x in enumerate(u) if not x.is_zero())
    mu = u[t].inv() * v[t]
    return mu if all(x * mu == y for x, y in zip(u, v)) else None


def test_search_basis_right_rank():
    # Z is a right subspace: v and v*j span the same line, so a basis must
    # not hold both (a left rank on the rows took (1, i, 0)*j as new)
    a = alg_hamilton()
    od = QuatOrder.special(a)
    z = DSubspace(a, 3, basis_cols=[[a.one(), a.i(), a.zero()],
                                   [a.one(), a.zero(), a.element(2)]])
    res = search_basis(z, od, max_radius=Fraction(8))
    assert res["status"] == "PASS"
    b0, b1 = res["basis"]
    assert _right_multiple(b0, b1) is None and _right_multiple(b1, b0) is None


def _rand_quat(a, rng):
    d = a.field.degree
    return a.element(*[a.field.element([rng.randint(-2, 2) for _ in range(d)])
                       for _ in range(4)])


def test_d_rank_is_right_rank():
    rng = random.Random(53)
    k5 = field_sqrt5()
    for a in (alg_hamilton(), QuatAlgebra(k5, k5.rational(-2), k5.rational(-5))):
        for _ in range(8):
            v = [a.one(), _rand_quat(a, rng), _rand_quat(a, rng)]
            mu = _rand_quat(a, rng)
            if mu.is_zero():
                continue
            assert _d_rank([v, [x * mu for x in v]]) == 1
            # mu v = v lam forces lam = mu (v_0 = 1), so mu v is a right
            # multiple of v exactly when mu commutes with v_1 and v_2
            central = all(mu * x == x * mu for x in v)
            assert _d_rank([v, [mu * x for x in v]]) == (1 if central else 2)
        assert _d_rank([[a.one(), a.i()], [a.j(), a.i() * a.j()]]) == 1  # (1, i) j
        assert _d_rank([[a.one(), a.i()], [a.j(), a.j() * a.i()]]) == 2  # j (1, i)


def test_search_isotropic_hyperbolic():
    a = alg_hamilton()
    od = QuatOrder.special(a)
    f = [[a.zero(), a.one()], [a.one(), a.zero()]]
    res = search_isotropic(f, full_space(a), od)
    assert res["status"] == "PASS"
    assert res["height"].cmp(1) == 0
    x = res["point"]
    # conj(x1) x2 + conj(x2) x1 = 0
    val = x[0].conj() * x[1] + x[1].conj() * x[0]
    assert val.is_zero()


def test_search_isotropic_anisotropic_exhausts():
    # the norm form has no nonzero zeros over a definite algebra
    a = alg_hamilton()
    od = QuatOrder.special(a)
    z1 = DSubspace(a, 1, basis_cols=[[a.one()]])
    f = [[a.one()]]
    with pytest.raises(BudgetExceeded):
        search_isotropic(f, z1, od, max_radius=Fraction(2))



def test_precision_cap_gives_an_inconclusive_record(monkeypatch):
    """Over the cyclic cubic field x^3 + x^2 - 2x - 1 the embedded unit
    vectors sit on the cube boundary, which the certified comparison cannot
    decide at a 128-bit cap.  The report is INCONCLUSIVE, and its note
    names the comparison context, instead of the error ending the run."""
    field = nf_new([-1, -2, 1, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    monkeypatch.setattr(PRECISION, "cap", 128)
    rep = thm1_lower(OkModule.free_module(field, 1), 2)
    assert rep.verdict == INCONCLUSIVE and rep.kind == LOWER
    assert rep.exact_count is None and rep.bound_value is None
    assert "precision cap" in rep.note and "(cube boundary)" in rep.note
