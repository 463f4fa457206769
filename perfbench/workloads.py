"""The benchmark's workloads: drawn inputs turned into operations.

An operation is one instance's record group, one search call or one count
call.  It returns the report records a user of ``latheights verify`` would
see.  Library calls go through module attributes (``bounds.thm1_lower``),
so the tracer's rebinding reaches them; the instances of the verify suites
come from ``cli`` itself.  The inputs come from ``inputs.py``.

Every ``build`` makes fresh fields, modules and contexts, so no pass of a
run reuses the caches of an earlier one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

from latheights import (
    bounds,
    cli,
    errors,
    funcfield,
    heights,
    lattice,
    modules,
    nf,
    quat,
    reals,
    report,
    sunits,
)

INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class Op:
    label: str
    run: Callable[[], List[dict]]


# ---------------------------------------------------------------------------
# lattice-grid: the cnt-lem pipeline on seeded random integral lattices

BOX_LIMIT = 200_000  # verify cnt-lem skips lattices whose 4R box is larger


def _bound_record(name, radius, exact, bound, kind, context):
    rep = bounds.BoundReport(name, radius, exact, bound, kind, True,
                             bounds._verdict(kind, exact, bound, context))
    return report.report_record(rep)


def _lattice_op(k, rows):
    """One lattice through suite_cnt_lem's steps: the sandwich at 4 radii,
    the DET check and the PROJ check."""
    n, big_l = len(rows), len(rows[0])
    name = "lat-%03d-N%d-L%d" % (k + 1, n, big_l)

    def run():
        lat = lattice.RealLattice.from_rows(rows)
        det_val = lat.det_value()
        c, _ = lattice.supnorm_min(lat)
        thresh = lattice.lower_bound_threshold(big_l, det_val, c)
        base = Fraction(math.ceil(lattice._rat_upper(thresh)))
        radii = [base, base + 1, 2 * base, 4 * base]
        total = 1
        for cap in lattice._coefficient_box(lat, radii[-1]):
            total *= 2 * cap + 1
        if total > BOX_LIMIT:
            return []
        recs = []
        for radius in radii:
            exact = len(lattice.enumerate_cube(lat, radius))
            up = lattice.bound_upper(n, big_l, det_val, c, radius, integral=True)
            low = lattice.bound_lower(big_l, det_val, c, radius)
            recs.append(_bound_record(name, radius, exact, low, "LOWER", "cnt-lem low"))
            recs.append(_bound_record(name, radius, exact, up, "UPPER", "cnt-lem up"))
        omega, det_omega = lattice.max_grassmann_sublattice(lat)
        binom_root = reals.sqrt_real(math.comb(n, big_l))
        det_ok = (
            reals.cmp_real(det_omega, det_val, context="det sandwich") <= 0
            and reals.cmp_real(det_val, binom_root * det_omega,
                               context="det sandwich") <= 0
        )
        recs.append(report.check_record(name, "DET", det_ok))
        big = len(lattice.enumerate_cube(lat, radii[0]))
        small = len(lattice.enumerate_cube(omega, radii[0] / big_l))
        recs.append(report.check_record(name, "PROJ", small <= big))
        return recs

    return Op(name, run)


def build_lattice_grid(lattices) -> List[Op]:
    return [_lattice_op(k, rows) for k, rows in enumerate(lattices)]


# ---------------------------------------------------------------------------
# nf-heights: the thm1, main1 and main2 grids plus seeded thm1 instances

# base radii max(1, ceil(threshold)) of the verify thm1 / main1 grids
THM1_BASE = {
    "Q-free-L1": 1, "Q-free-L2": 2, "Q-ideal-L1": 1,
    "Q(sqrt2)-free-L1": 4, "Q(sqrt2)-free-L2": 363, "Q(sqrt2)-ideal-L1": 8,
    "Q(sqrt5)-free-L1": 4, "Q(sqrt5)-free-L2": 142, "Q(sqrt5)-ideal-L1": 16,
}
MAIN1_BASE = {"axis": 91, "diag": 1449}


def _thm1_op(name, module, base):
    def run():
        minima = modules.minima_ck_zk(module)
        return [report.report_record(bounds.thm1_lower(
            module, base * mult, instance=name, minima=minima)) for mult in (1, 2, 4)]
    return Op("thm1:" + name, run)


def _extra_thm1_op(name, module, radii):
    def run():
        return [report.report_record(bounds.thm1_lower(module, r, instance=name))
                for r in radii]
    return Op("thm1x:" + name, run)


def _main1_op(name, z, order, base):
    def run():
        minima = quat.minima_cz_order(z, order)
        recs = [report.report_record(bounds.thm_main1_lower(
            z, order, base * mult, instance=name, minima=minima)) for mult in (1, 2)]
        recs.append(report.check_record(name, "DET", bounds.det_mz_check(z, order)))
        return recs
    return Op("main1:" + name, run)


def _main2_op(fname, alg, order, radius):
    def run():
        return [report.report_record(bounds.thm_main2_upper(
            alg, order, 1, Fraction(radius), instance=fname))]
    return Op("main2:%s:R=%d" % (fname, radius), run)


def _contain_op(fname, alg, order):
    """Field points of height <= R/(2 s^{1/d}) map to quaternion points of
    height <= R: the containment loop of suite_main2 (R = 2), kept here so
    that it is an operation of its own."""
    def run():
        field = alg.field
        d = field.degree
        s, _, _, _ = quat.s_t_constants(alg)
        radius = Fraction(2)
        inner = (reals.to_real(radius) / 2) ** d / s.as_real()
        free4 = modules.OkModule.free_module(field, 4)
        ok, checked = True, 0
        for m in lattice.enumerate_cube(free4.module_lattice(), lattice._rat_upper(inner)):
            if not any(m):
                continue
            vec = None
            for cc, v in zip(m, free4.z_basis):
                if cc:
                    term = [vi * cc for vi in v]
                    vec = term if vec is None else [a + b for a, b in zip(vec, term)]
            h_k = heights.height_h(field, vec).as_rooted()
            if (h_k ** d).cmp(inner, context="containment filter") > 0:
                continue
            checked += 1
            xs = quat.bracket_inv(alg, vec)
            if quat.height_h_order(order, xs).cmp(radius, context="containment") > 0:
                ok = False
        return [report.check_record(fname, "CONTAIN", ok and checked > 0,
                                    inputs={"R": str(radius), "points": checked})]
    return Op("main2:%s:contain" % fname, run)


def build_nf_heights(extra_radii) -> List[Op]:
    ops = [_thm1_op(name, mod, THM1_BASE[name]) for name, mod in cli._thm1_instances()]
    for fname, _, order, subspaces in cli._main_quat_instances():
        for zname, z in subspaces:
            ops.append(_main1_op("%s-%s" % (fname, zname), z, order, MAIN1_BASE[zname]))
    for fname, alg, order, _ in cli._main_quat_instances():
        ops.append(_main2_op(fname, alg, order, 1))
        ops.append(_main2_op(fname, alg, order, 2))
        ops.append(_contain_op(fname, alg, order))
    kq, k5 = cli._field_q(), cli._field_sqrt5()
    half = nf.FracIdeal.principal(kq, kq.rational(Fraction(1, 2)))
    extra = [
        ("x-Q-free-L1", modules.OkModule.free_module(kq, 1)),
        ("x-Q-free-L2", modules.OkModule.free_module(kq, 2)),
        ("x-Q(sqrt5)-free-L1", modules.OkModule.free_module(k5, 1)),
        ("x-Q-half-L1", modules.OkModule.from_pseudo_basis(kq, 1, [([kq.one()], half)])),
    ]
    for (name, mod), radii in zip(extra, extra_radii):
        ops.append(_extra_thm1_op(name, mod, radii))
    return ops


# ---------------------------------------------------------------------------
# quat-search: constructive searches on quaternion bracket lattices

SEARCH_RADIUS = Fraction(64)  # search_basis default radius cap
ISOTROPIC_RADIUS = Fraction(2)


def _basis_op(name, zname, z, order):
    def run():
        res = bounds.search_basis(z, order, max_radius=SEARCH_RADIUS)
        basis = res["basis"]
        ok = res["status"] == "PASS" and len(basis) == z.dim
        for xs, h in zip(basis, res["heights"]):
            # a returned vector is nonzero, lies in Z and respects the bound
            in_z = xs[1].is_zero() if zname == "axis" else xs[0] == xs[1]
            ok = ok and in_z and not xs[0].is_zero()
            ok = ok and reals.cmp_real(h.as_real(), res["bound"]) <= 0
        rec = report.check_record(name, "BASIS", ok,
                                  inputs={"R": str(SEARCH_RADIUS), "found": len(basis)})
        if res["status"] == INCONCLUSIVE:
            rec["verdict"] = INCONCLUSIVE
        return [rec]
    return Op("basis:" + name, run)


def _isotropic_op(name, form, z, order):
    """The norm form is anisotropic on a definite algebra: the documented
    outcome is an exhausted search; a returned point must be a zero."""
    def run():
        try:
            res = bounds.search_isotropic(form, z, order, max_radius=ISOTROPIC_RADIUS)
        except errors.BudgetExceeded as exc:
            if "exhausted" not in str(exc):
                raise
            ok, outcome = True, "exhausted"
        else:
            ok = quat.eval_hermitian(form, res["point"]).is_zero()
            outcome = "found"
        return [report.check_record(name, "ISOTROPIC", ok, inputs={
            "R": str(ISOTROPIC_RADIUS), "outcome": outcome})]
    return Op("isotropic:" + name, run)


def build_quat_search(seed: int) -> List[Op]:
    ops = []
    for fname, alg, order, subspaces in cli._main_quat_instances():
        if fname == "Q(sqrt2)":
            z1 = quat.DSubspace(alg, 1, basis_cols=[[alg.one()]])
            ops.append(_isotropic_op(fname + "-D1-norm", [[alg.one()]], z1, order))
        for zname, z in subspaces:
            ops.append(_basis_op("%s-%s" % (fname, zname), zname, z, order))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sunit-ffield: S-unit counts on ball log lattices, divisor lattice counts

SUNIT_BOUNDS = (Fraction(1, 2), 1, 2, 3, 5, 8)
FFIELD_BOUNDS = tuple(range(0, 13))


def _sunit_contexts():
    kq, k2 = cli._field_q(), cli._field_sqrt2()
    return [
        ("Q(sqrt5)-Sinf", sunits.SUnitContext(cli._field_sqrt5())),
        ("Q(sqrt2)-Sinf", sunits.SUnitContext(k2)),
        ("Q-S23", sunits.SUnitContext(kq, s1=[(kq.rational(2), 2), (kq.rational(3), 3)])),
        ("Q(sqrt2)-S2", sunits.SUnitContext(k2, s1=[(k2.gen(), 2)])),
    ]


def _curve_contexts():
    return [
        ("P1-F5-P2", funcfield.CurveContext(5, funcfield.GENUS0, points=[0, funcfield.INF])),
        ("P1-F5-P3", funcfield.CurveContext(5, funcfield.GENUS0,
                                            points=[0, 1, funcfield.INF])),
        ("E-F5-P3", funcfield.CurveContext(5, funcfield.GENUS1, a=1, b=1,
                                           points=[funcfield.INF, (0, 1), (0, 4)])),
    ]


def _sunit_op(name, ctx, b):
    def run():
        return [report.report_record(r)
                for r in sunits.lemma_sunit_bounds(ctx, b, instance=name)]
    return Op("sunits:%s:B=%s" % (name, b), run)


def _regulator_op(name, ctx):
    def run():
        checks = sunits.regulator_bound_checks(ctx, 1)
        return [report.check_record(name, key.upper(), ok)
                for key, ok in sorted(checks.items())]
    return Op("sunits:%s:regulator" % name, run)


def _ffield_op(name, ctx, b):
    def run():
        return [report.report_record(r)
                for r in funcfield.lemma_pcount_bounds(ctx, b, instance=name)]
    return Op("ffield:%s:B=%d" % (name, b), run)


def _divisor_op(name, ctx):
    def run():
        checks = funcfield.det_bound_checks(ctx)
        return [report.check_record(name, key.upper(), ok)
                for key, ok in sorted(checks.items())]
    return Op("ffield:%s:det" % name, run)


def build_sunit_ffield(seed: int) -> List[Op]:
    ops = []
    for name, ctx in _sunit_contexts():
        ops += [_sunit_op(name, ctx, b) for b in SUNIT_BOUNDS]
        ops.append(_regulator_op(name, ctx))
    for name, ctx in _curve_contexts():
        ops += [_ffield_op(name, ctx, b) for b in FFIELD_BOUNDS]
        ops.append(_divisor_op(name, ctx))
    random.Random(seed).shuffle(ops)
    return ops


# name -> build(inputs.draw(name, seed)); why each workload exists is in README.md
WORKLOADS: Dict[str, Callable[[object], List[Op]]] = {
    "lattice-grid": build_lattice_grid,
    "nf-heights": build_nf_heights,
    "quat-search": build_quat_search,
    "sunit-ffield": build_sunit_ffield,
}
