"""End-to-end acceptance checks: every verification pipeline on its full
desk-scale grid, plus the determinism contract of the command-line driver.
"""

import hashlib
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath

from latheights import cli
from latheights.bounds import (
    HOLDS,
    VIOLATED,
    const_A,
    const_TK,
    search_basis,
    search_isotropic,
)
from latheights.heights import content_ideal, grassmann, height_H, height_h, subspace_height
from latheights.nf import nf_new
from latheights.quat import (
    DSubspace,
    QuatAlgebra,
    QuatOrder,
    _hermitian_square_det_abs,
    bracket,
    eval_hermitian,
    height_h as quat_height_h,
    order_constants,
    s_t_constants,
    subspace_height_HO,
    trace_form,
)
from latheights.reals import Rooted, abs_real, cmp_real, max_real, real_to_float
from latheights.report import ball_mid_rad
from latheights.sunits import SUnitContext, count_sunits
from latheights.funcfield import GENUS0, INF, CurveContext, count_supported
from latheights import linalg
from quat_references import eval_quadratic, hinf_constraint_minors


def field_q():
    return nf_new([-1, 1], [[1]])


def field_sqrt2():
    return nf_new([-2, 0, 1], [[1, 0], [0, 1]])


def field_sqrt5():
    return nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])


def field_gauss():
    return nf_new([1, 0, 1], [[1, 0], [0, 1]])


def _no_violations(records):
    bad = [r for r in records if r["verdict"] == VIOLATED]
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# 1. random-lattice counting sandwich


def test_lattice_count_sandwich_grid():
    t0 = time.monotonic()
    records = cli.suite_cnt_lem(seed=42)
    elapsed = time.monotonic() - t0
    _no_violations(records)
    instances = {r["instance"] for r in records}
    assert len(instances) == 100
    for name in instances:
        mine = [r for r in records if r["instance"] == name]
        kinds = [r["kind"] for r in mine]
        assert kinds.count("LOWER") == 4 and kinds.count("UPPER") == 4
        det = [r for r in mine if r["kind"] == "DET"]
        proj = [r for r in mine if r["kind"] == "PROJ"]
        assert det and det[0]["verdict"] == HOLDS
        assert proj and proj[0]["verdict"] == HOLDS
    assert elapsed < 60, elapsed


# ---------------------------------------------------------------------------
# 2. number-field height core


def test_product_formula_tight():
    rng = random.Random(11)
    for field in (field_sqrt2(), field_sqrt5(), field_gauss()):
        checked = 0
        while checked < 50:
            a = field.element(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2)]
            )
            if a.is_zero():
                continue
            checked += 1
            prod = None
            for absv, dv in field.arch_places(a):
                term = absv ** dv
                prod = term if prod is None else prod * term
            prod = prod * (1 / abs(a.norm()))
            mid, rad = ball_mid_rad(prod, prec=256)
            assert rad < Fraction(1, 10 ** 20)
            assert abs(mid - 1) <= rad


def test_h_dominates_H_dominates_one():
    rng = random.Random(13)
    for field in (field_q(), field_sqrt2(), field_sqrt5()):
        checked = 0
        while checked < 20:
            vec = [
                field.element([rng.randint(-5, 5) for _ in range(field.degree)])
                for _ in range(3)
            ]
            if all(x.is_zero() for x in vec):
                continue
            if content_ideal(field, vec).norm() != 1:
                continue
            checked += 1
            hh = height_H(field, vec)
            h = height_h(field, vec)
            assert hh.as_rooted().cmp(1) >= 0
            assert h.as_rooted().cmp(hh.as_rooted()) >= 0


def test_subspace_height_basis_independent_20():
    rng = random.Random(17)
    for field in (field_q(), field_sqrt2()):
        base = [
            [field.element([rng.randint(-3, 3) for _ in range(field.degree)])
             for _ in range(3)]
            for _ in range(2)
        ]
        coords = grassmann(field, base)
        if all(g.is_zero() for g in coords):
            continue
        h0 = subspace_height(field, base)
        for _ in range(20):
            while True:
                a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
                if a * d - b * c != 0:
                    break
            new_cols = [
                [base[0][i] * a + base[1][i] * c for i in range(3)],
                [base[0][i] * b + base[1][i] * d for i in range(3)],
            ]
            assert h0.as_rooted().cmp(subspace_height(field, new_cols).as_rooted()) == 0


def test_archimedean_cauchy_binet_exact():
    rng = random.Random(19)
    for field in (field_q(), field_sqrt5()):
        for _ in range(10):
            cols = [
                [field.element([rng.randint(-3, 3) for _ in range(field.degree)])
                 for _ in range(3)]
                for _ in range(2)
            ]
            minors = grassmann(field, cols)
            gram = [
                [
                    sum(
                        (cols[a][i] * cols[b][i] for i in range(1, 3)),
                        cols[a][0] * cols[b][0],
                    )
                    for b in range(2)
                ]
                for a in range(2)
            ]
            det_gram = linalg.det(gram)
            sq_sum = sum((g * g for g in minors[1:]), minors[0] * minors[0])
            assert (det_gram - sq_sum).is_zero()


# ---------------------------------------------------------------------------
# 3. module point-count lower bound grid


def test_module_count_grid():
    t0 = time.monotonic()
    records = cli.suite_thm1(seed=0)
    elapsed = time.monotonic() - t0
    _no_violations(records)
    holds = [r for r in records if r["verdict"] == HOLDS]
    assert len(holds) >= 18
    # every undecided record is an explicit budget exhaustion, never a tie
    for r in records:
        if r["verdict"] not in (HOLDS, VIOLATED):
            assert r["note"] == "enumeration budget exceeded", r
    assert elapsed < 300, elapsed


# ---------------------------------------------------------------------------
# 4. quaternion heights


def _acceptance_algebras():
    kq = field_q()
    out = [
        QuatAlgebra(kq, kq.rational(-1), kq.rational(-1)),
        QuatAlgebra(kq, kq.rational(-1), kq.rational(-3)),
    ]
    for field in (field_sqrt2(), field_sqrt5()):
        out.append(QuatAlgebra(field, field.rational(-1), field.rational(-1)))
    return out


def test_quaternion_local_sandwich_100():
    rng = random.Random(23)
    for alg in _acceptance_algebras():
        field = alg.field
        _, _, s_sq, t_sq = s_t_constants(alg)
        checked = 0
        while checked < 100:
            x = alg.element(*[rng.randint(-5, 5) for _ in range(4)])
            if x.is_zero():
                continue
            checked += 1
            for n in range(field.degree):
                comp = max_real(
                    *[abs_real(field.channel_values(c)[n]) for c in x.c]
                )
                mid = field.channel_values(x.nrm())[n]
                assert cmp_real(t_sq[n] * comp * comp, mid) <= 0
                assert cmp_real(mid, 4 * s_sq[n] * comp * comp) <= 0


def test_quaternion_global_sandwich_100():
    rng = random.Random(29)
    for alg in _acceptance_algebras():
        field = alg.field
        d = field.degree
        s, t, _, _ = s_t_constants(alg)
        checked = 0
        while checked < 100:
            xs = [
                alg.element(*[rng.randint(-3, 3) for _ in range(4)])
                for _ in range(2)
            ]
            if all(x.is_zero() for x in xs):
                continue
            checked += 1
            hq = quat_height_h(xs)
            hk = height_h(field, bracket(xs)).as_rooted()
            assert (t * hk).cmp(hq) <= 0
            assert (hq ** d).cmp(s * (hk ** d) * Fraction(2) ** d) <= 0


def test_trace_form_doubles_hermitian_50():
    rng = random.Random(31)
    kq = field_q()
    alg = QuatAlgebra(kq, kq.rational(-1), kq.rational(-3))
    for _ in range(50):
        f01 = alg.element(*[rng.randint(-3, 3) for _ in range(4)])
        form = [
            [alg.element(rng.randint(-3, 3)), f01],
            [f01.conj(), alg.element(rng.randint(-3, 3))],
        ]
        b = trace_form(form)
        xs = [alg.element(*[rng.randint(-3, 3) for _ in range(4)]) for _ in range(2)]
        q = eval_quadratic(b, bracket(xs))
        assert (q - eval_hermitian(form, xs) * 2).is_zero()


def test_hinf_two_formulas_agree():
    rng = random.Random(37)
    for alg in _acceptance_algebras():
        for _ in range(6):
            while True:
                col = [
                    alg.element(*[rng.randint(-2, 2) for _ in range(4)])
                    for _ in range(2)
                ]
                if not all(x.is_zero() for x in col):
                    break
            z = DSubspace(alg, 2, basis_cols=[col])
            gram = Rooted(_hermitian_square_det_abs(z.constraint_rows()), 4 * alg.field.degree)
            assert gram.cmp(hinf_constraint_minors(z)) == 0


def test_subspace_duality_10_lines():
    rng = random.Random(41)
    kq = field_q()
    alg = QuatAlgebra(kq, kq.rational(-1), kq.rational(-1))
    od = QuatOrder.special(alg)
    for _ in range(10):
        while True:
            col = [
                alg.element(*[rng.randint(-2, 2) for _ in range(4)])
                for _ in range(2)
            ]
            if not all(x.is_zero() for x in col):
                break
        z = DSubspace(alg, 2, basis_cols=[col])
        assert subspace_height_HO(z, od).cmp(
            subspace_height_HO(z.perp(), od)
        ) == 0


# ---------------------------------------------------------------------------
# 5 and 6. quaternion counting bounds


def test_subspace_count_grid():
    records = cli.suite_main1(seed=0)
    _no_violations(records)
    det = [r for r in records if r["kind"] == "DET"]
    assert len(det) == 4 and all(r["verdict"] == HOLDS for r in det)
    for r in records:
        if r["kind"] == "LOWER" and r["verdict"] != HOLDS:
            assert r["note"] == "enumeration budget exceeded", r


def test_quaternion_count_upper_grid():
    records = cli.suite_main2(seed=0)
    _no_violations(records)
    r1 = [r for r in records if r["kind"] == "UPPER" and r["exact"] is not None]
    assert r1 and all(r["verdict"] == HOLDS for r in r1)
    contain = [r for r in records if r["kind"] == "CONTAIN"]
    assert len(contain) == 2 and all(r["verdict"] == HOLDS for r in contain)


# ---------------------------------------------------------------------------
# 7. S-unit counting


def test_sunit_grid_and_spot_value():
    records = cli.suite_sunits(seed=0)
    _no_violations(records)
    assert count_sunits(SUnitContext(field_sqrt5()), Fraction(1)) == 10


# ---------------------------------------------------------------------------
# 8. function-field counting


def test_function_field_grid_and_spot_value():
    records = cli.suite_ffield(seed=0)
    _no_violations(records)
    ctx = CurveContext(5, GENUS0, points=[0, INF])
    assert count_supported(ctx, 3) == 28


# ---------------------------------------------------------------------------
# 9. constructive searches and search constants


def test_search_basis_avoiding_subspace_and_form():
    field = field_sqrt2()
    alg = QuatAlgebra(field, field.rational(-1), field.rational(-1))
    od = QuatOrder.special(alg)
    z = DSubspace(
        alg, 2,
        basis_cols=[[alg.one(), alg.zero()], [alg.zero(), alg.one()]],
    )
    avoid_u = DSubspace(alg, 2, constraint_rows=[[alg.zero(), alg.one()]])
    hyper = [
        [alg.zero(), alg.one()],
        [alg.one(), alg.zero()],
    ]
    res = search_basis(z, od, avoid_subspaces=[avoid_u], avoid_forms=[hyper])
    assert res["status"] == "PASS"
    assert len(res["basis"]) == 2
    for xs in res["basis"]:
        assert not all(x.is_zero() for x in xs[1:])  # off the avoided subspace
        assert not eval_hermitian(hyper, xs).is_zero()
    for h in res["heights"]:
        assert cmp_real(h.as_real(), res["bound"]) <= 0


def test_search_isotropic_hyperbolic_bound():
    field = field_sqrt2()
    alg = QuatAlgebra(field, field.rational(-1), field.rational(-1))
    od = QuatOrder.special(alg)
    z = DSubspace(
        alg, 2,
        basis_cols=[[alg.one(), alg.zero()], [alg.zero(), alg.one()]],
    )
    hyper = [
        [alg.zero(), alg.one()],
        [alg.one(), alg.zero()],
    ]
    res = search_isotropic(hyper, z, od)
    assert res["status"] == "PASS"
    assert eval_hermitian(hyper, res["point"]).is_zero()
    assert cmp_real(res["height"].as_real(), res["bound"]) <= 0


def _tk_float(field, ell, j):
    d = field.degree
    r1, r2 = field.signature
    mx = max(ell, 9)
    dk = abs(field.discriminant)
    pi = mpmath.mpf(mpmath.pi)

    def rv(is_real, jj):
        if jj == 0:
            return mpmath.mpf(1)
        if is_real:
            return mpmath.gamma(mpmath.mpf(jj) / 2 + 1) ** (mpmath.mpf(1) / jj) / mpmath.sqrt(pi)
        return mpmath.gamma(jj + 1) ** (mpmath.mpf(1) / (2 * jj)) / mpmath.sqrt(2 * pi)

    val = mpmath.mpf(27)
    val *= pi ** (-mpmath.mpf(r2 * ell * (9 * ell + 14)) / (2 * d))
    exp2 = mpmath.mpf(r2 * ell * (9 * ell + 14) + (21 * ell - 21) * d + 5 * r1 + 4) / (2 * d)
    val *= mpmath.mpf(2) ** (exp2 + mx)
    val *= mpmath.mpf(ell) ** (mpmath.mpf(27 * ell + 51) / 2)
    val *= mpmath.mpf(j) ** (mpmath.mpf(2) / d)
    val *= mpmath.mpf(j + 2) ** (mpmath.mpf(3) / d)
    val *= mpmath.mpf(dk) ** (mpmath.mpf(ell * (9 * ell + 14) + 14) / (2 * d) + mx)
    prod = mpmath.mpf(1)
    for _ in range(r1):
        prod *= rv(True, ell - 1) ** (mpmath.mpf(1) / d)
    for _ in range(r2):
        prod *= rv(False, ell - 1) ** (mpmath.mpf(2) / d)
    return val * prod ** mx


def test_search_constants_match_direct_substitution():
    mpmath.mp.prec = 160
    tuples = [
        (field_sqrt2(), 1, 1),
        (field_sqrt5(), 2, 3),
        (field_sqrt2(), 1, 4),
    ]
    for field, ell, j in tuples:
        lib = real_to_float(const_TK(field, ell, j))
        direct = float(_tk_float(field, ell, j))
        assert abs(lib - direct) <= 1e-10 * abs(direct), (ell, j, lib, direct)

    # combined constant on three parameter tuples
    for field, big_l, pair in (
        (field_sqrt2(), 1, (0, 0)),
        (field_sqrt5(), 1, (1, 0)),
        (field_sqrt2(), 1, (0, 1)),
    ):
        big_m, big_j = pair
        alg = QuatAlgebra(field, field.rational(-1), field.rational(-1))
        od = QuatOrder.special(alg)
        lib = real_to_float(const_A(od, 2, big_l, big_m, big_j))
        s, t, _, _ = s_t_constants(alg)
        _, defect = order_constants(od)
        sf = real_to_float(s.as_real())
        tf = real_to_float(t.as_real())
        direct = (
            2 ** ((9 * big_l + 13) / 2)
            * sf ** (9 * big_l + 12)
            * tf ** (-(9 * big_l + 11) / 2)
            * float(defect) ** (4 * (2 - big_l) * (9 * big_l + 12))
            * float(_tk_float(field, big_l, big_m + 2 * big_j + 1))
        )
        assert abs(lib - direct) <= 1e-10 * abs(direct), (big_l, pair, lib, direct)


# ---------------------------------------------------------------------------
# 10. driver determinism


def test_verify_all_deterministic():
    cmd = [sys.executable, "-m", "latheights.cli", "verify", "all", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, timeout=3600)
    second = subprocess.run(cmd, capture_output=True, timeout=3600)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty report
    # the report bytes are pinned: 1,123 records, 1,096 HOLDS, 27 INCONCLUSIVE
    digest = hashlib.sha256(first.stdout).hexdigest()
    assert digest == "83619e45e86d2b582db987bbbcc7cc777dffb8fef19f220f744f832e43fbffbd"
    assert b"VIOLATED" not in first.stdout
