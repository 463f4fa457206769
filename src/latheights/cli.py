"""Command-line driver: exact heights, certified counts, and verification
suites over instance specification files.

Exit codes: 0 success, 1 a verification produced VIOLATED (or more
INCONCLUSIVE results than allowed), 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from . import lattice as lattice_mod
from .bounds import (
    INCONCLUSIVE,
    VIOLATED,
    det_mz_check,
    lemma_reports,
    main1_threshold,
    thm1_lower,
    thm1_threshold,
    thm_main1_lower,
    thm_main2_upper,
)
from .errors import BudgetExceeded, LatHeightsError, SpecFileError, ValidationError
from .funcfield import GENUS0, GENUS1, INF, CurveContext, det_bound_checks, lemma_pcount_bounds
from .heights import height_H, height_h
from .lattice import (
    RealLattice,
    _box_size,
    _coefficient_box,
    _rat_upper,
    enumerate_cube,
    lower_bound_threshold,
    max_grassmann_sublattice,
    supnorm_min,
)
from .modules import OkModule, minima_ck_zk, z_combination
from .nf import FracIdeal, nf_new
from .quat import (
    DSubspace,
    QuatAlgebra,
    QuatOrder,
    bracket_inv,
    height_h_order,
    minima_cz_order,
    s_t_constants,
)
from .reals import PRECISION, cmp_real, sqrt_real, to_real
from .report import ball_mid_rad, check_record, frac_decimal, render, report_record
from .specfile import Block, parse_file, read_algebra, read_field_entry, read_nf_vector, read_order
from .sunits import SUnitContext, lemma_sunit_bounds, regulator_bound_checks


def _field_q():
    return nf_new([-1, 1], [[1]])


def _field_sqrt2():
    return nf_new([-2, 0, 1], [[1, 0], [0, 1]])


def _field_sqrt5():
    return nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])


# ---------------------------------------------------------------------------
# suites


def suite_cnt_lem(seed: int) -> List[Dict[str, object]]:
    """Random integral lattices: counting sandwich and determinant identities."""
    rng = random.Random(seed)
    records = []
    accepted = 0
    while accepted < 100:
        n = rng.randint(1, 5)
        big_l = rng.randint(1, n)
        rows = [[rng.randint(-9, 9) for _ in range(big_l)] for _ in range(n)]
        lat = RealLattice.from_rows(rows)
        det_val = lat.det_value()  # from the integer Gram matrix
        if det_val == 0:
            continue
        try:
            c, _ = supnorm_min(lat)
        except BudgetExceeded:
            continue
        thresh = lower_bound_threshold(big_l, det_val, c)
        base = Fraction(math.ceil(_rat_upper(thresh)))
        radii = [base, base + 1, 2 * base, 4 * base]
        if _box_size(_coefficient_box(lat, radii[-1])) > 200_000:
            continue
        name = "lat-%03d-N%d-L%d" % (accepted + 1, n, big_l)
        batch, counts = [], []
        try:
            for radius in radii:
                counts.append(len(enumerate_cube(lat, radius)))
                batch += map(report_record, lemma_reports(
                    name, radius, counts[-1], n, big_l, det_val, c, integral=True))
            omega, det_omega = max_grassmann_sublattice(lat)
            binom_root = sqrt_real(math.comb(n, big_l))
            det_ok = (
                cmp_real(det_omega, det_val, context="det sandwich") <= 0
                and cmp_real(det_val, binom_root * det_omega,
                             context="det sandwich") <= 0
            )
            batch.append(check_record(name, "DET", det_ok))
            small = len(enumerate_cube(omega, Fraction(radii[0], big_l)))
            batch.append(check_record(name, "PROJ", small <= counts[0]))
        except BudgetExceeded:
            continue
        records.extend(batch)
        accepted += 1
    return records


def _thm1_instances():
    kq = _field_q()
    k2 = _field_sqrt2()
    k5 = _field_sqrt5()
    out = []
    for name, field, prime in (
        ("Q", kq, kq.rational(2)),
        ("Q(sqrt2)", k2, k2.gen()),
        ("Q(sqrt5)", k5, k5.gen()),
    ):
        out.append((name + "-free-L1", OkModule.free_module(field, 1)))
        out.append((name + "-free-L2", OkModule.free_module(field, 2)))
        ideal = FracIdeal.principal(field, prime)
        out.append((
            name + "-ideal-L1",
            OkModule.from_pseudo_basis(field, 1, [([field.one()], ideal)]),
        ))
    return out


def suite_thm1(seed: int) -> List[Dict[str, object]]:
    records = []
    for name, module in _thm1_instances():
        minima = minima_ck_zk(module)
        thresh, _ = thm1_threshold(module, minima)
        base = Fraction(max(1, math.ceil(_rat_upper(thresh.as_real()))))
        for mult in (1, 2, 4):
            rep = thm1_lower(module, base * mult, instance=name, minima=minima)
            records.append(report_record(rep))
    return records


def _main_quat_instances():
    out = []
    for fname, field in (("Q(sqrt2)", _field_sqrt2()), ("Q(sqrt5)", _field_sqrt5())):
        alg = QuatAlgebra(field, field.rational(-1), field.rational(-1))
        order = QuatOrder.special(alg)
        axis = DSubspace(alg, 2, constraint_rows=[[alg.zero(), alg.one()]])
        diag = DSubspace(alg, 2, basis_cols=[[alg.one(), alg.one()]])
        out.append((fname, alg, order, [("axis", axis), ("diag", diag)]))
    return out


def suite_main1(seed: int) -> List[Dict[str, object]]:
    records = []
    for fname, alg, order, subspaces in _main_quat_instances():
        for zname, z in subspaces:
            name = "%s-%s" % (fname, zname)
            minima = minima_cz_order(z, order)
            thresh, _ = main1_threshold(z, order, minima)
            base = Fraction(max(1, math.ceil(_rat_upper(thresh.as_real()))))
            for mult in (1, 2):
                rep = thm_main1_lower(z, order, base * mult, instance=name,
                                      minima=minima)
                records.append(report_record(rep))
            records.append(check_record(name, "DET", det_mz_check(z, order)))
    return records


def suite_main2(seed: int) -> List[Dict[str, object]]:
    records = []
    for fname, alg, order, _ in _main_quat_instances():
        for radius in (1, 2):
            rep = thm_main2_upper(alg, order, 1, Fraction(radius), instance=fname)
            records.append(report_record(rep))
        # bracket containment: field points of height <= R/(2 s^{1/d})
        # map to quaternion points of height <= R
        field = alg.field
        d = field.degree
        s, _, _, _ = s_t_constants(alg)
        radius = Fraction(2)
        # field points with h_K <= R / (2 s^{1/d}), i.e. h_K^d <= (R/2)^d / s
        inner = (to_real(radius) / 2) ** d / s.as_real()
        free4 = OkModule.free_module(field, 4)
        cube = _rat_upper(inner)
        ok = True
        checked = 0
        for m in enumerate_cube(free4.module_lattice(), cube):
            if all(c == 0 for c in m):
                continue
            vec = z_combination(free4.z_basis, m)
            h_k = height_h(field, vec).as_rooted()
            if (h_k ** d).cmp(inner, context="containment filter") > 0:
                continue
            checked += 1
            xs = bracket_inv(alg, vec)
            if height_h_order(order, xs).cmp(Fraction(radius),
                                             context="containment") > 0:
                ok = False
        records.append(check_record(fname, "CONTAIN", ok and checked > 0,
                                    inputs={"R": str(radius), "points": checked}))
    return records


def _lemma_suite(contexts, radii, lemma, checks) -> List[Dict[str, object]]:
    """A LOWER/UPPER record pair per context and radius, then the context's
    checks in key order."""
    records = []
    for name, ctx in contexts:
        for b in radii:
            lower, upper = lemma(ctx, b, instance=name)
            records.append(report_record(lower))
            records.append(report_record(upper))
        for key, ok in sorted(checks(ctx).items()):
            records.append(check_record(name, key.upper(), ok))
    return records


def suite_sunits(seed: int) -> List[Dict[str, object]]:
    kq = _field_q()
    contexts = [
        ("Q(sqrt5)-Sinf", SUnitContext(_field_sqrt5())),
        ("Q(sqrt2)-Sinf", SUnitContext(_field_sqrt2())),
        ("Q-S23", SUnitContext(kq, s1=[(kq.rational(2), 2), (kq.rational(3), 3)])),
    ]
    return _lemma_suite(contexts, (Fraction(1, 2), 1, 2, 3, 5), lemma_sunit_bounds,
                        lambda ctx: regulator_bound_checks(ctx, h_k=1))


def suite_ffield(seed: int) -> List[Dict[str, object]]:
    contexts = [
        ("P1-F5-P2", CurveContext(5, GENUS0, points=[0, INF])),
        ("P1-F5-P3", CurveContext(5, GENUS0, points=[0, 1, INF])),
        ("E-F5-P3", CurveContext(5, GENUS1, a=1, b=1,
                                 points=[INF, (0, 1), (0, 4)])),
    ]
    return _lemma_suite(contexts, range(5), lemma_pcount_bounds, det_bound_checks)


_SUITE_FN = {
    "cnt-lem": suite_cnt_lem,
    "thm1": suite_thm1,
    "main1": suite_main1,
    "main2": suite_main2,
    "sunits": suite_sunits,
    "ffield": suite_ffield,
}
SUITES = list(_SUITE_FN) + ["all"]


# ---------------------------------------------------------------------------
# commands


def cmd_height(args) -> int:
    root = parse_file(args.file)
    kind_groups = root.require("kind")
    kind = kind_groups[0][0]
    if kind == "nf-height":
        field = read_field_entry(root)
        vec = read_nf_vector(field, *root.entry("vector"))
        if all(e.is_zero() for e in vec):
            raise ValidationError("height of the zero vector is undefined")
        h = height_h(field, vec).as_rooted()
        hh = height_H(field, vec).as_rooted()
        mid, rad = ball_mid_rad(h)
        print("h = %s (+- %s)" % (frac_decimal(mid), frac_decimal(rad)))
        mid2, rad2 = ball_mid_rad(hh)
        print("H = %s (+- %s)" % (frac_decimal(mid2), frac_decimal(rad2)))
        return 0
    if kind == "quat-height":
        alg = read_algebra(root)
        order = read_order(alg, root)
        groups, line = root.entry("vector")
        comps = read_nf_vector(alg.field, groups, line)
        if len(comps) % 4:
            raise SpecFileError("quaternion vector needs 4 components each", line)
        xs = [alg.element(*comps[i:i + 4]) for i in range(0, len(comps), 4)]
        if all(x.is_zero() for x in xs):
            raise ValidationError("height of the zero vector is undefined")
        h = height_h_order(order, xs)
        mid, rad = ball_mid_rad(h)
        print("h = %s (+- %s)" % (frac_decimal(mid), frac_decimal(rad)))
        return 0
    raise SpecFileError("unknown height kind %r" % kind, root.line)


def _read_module(root: Block) -> OkModule:
    field = read_field_entry(root)
    rank_g = root.require("rank")
    rank = int(rank_g[0][0])
    gens = root.get_all("generator")
    if not gens:
        return OkModule.free_module(field, rank)
    vecs = []
    for groups, line in gens:
        vecs.append(read_nf_vector(field, groups, line))
    return OkModule.from_z_generators(field, rank, vecs)


def _count_radius(text: str, integral: bool) -> Fraction:
    """The radius argument of ``count``: a rational number, an integer when
    ``integral``; ValidationError otherwise."""
    try:
        radius = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError("the count radius must be a rational number, got %r" % text)
    if integral and radius.denominator != 1:
        raise ValidationError("the ffield count radius B must be an integer, got %r" % text)
    return radius


def cmd_count(args) -> int:
    kind = args.kind
    radius = _count_radius(args.radius, kind == "ffield")
    root = parse_file(args.file)
    instance = os.path.basename(args.file)
    if kind == "module":
        reps = [thm1_lower(_read_module(root), radius, instance=instance)]
    elif kind == "sunits":
        field = read_field_entry(root)
        s1 = []
        for groups, line in root.get_all("prime"):
            gen = read_nf_vector(field, groups[:1], line)[0]
            s1.append((gen, int(groups[1][0])))
        ctx = SUnitContext(field, s1=s1)
        omega_g = root.get("omega")
        if omega_g and int(omega_g[0][0]) != ctx.omega:
            raise ValidationError("omega %s differs from the field's %d roots of unity"
                                  % (omega_g[0][0], ctx.omega))
        reps = lemma_sunit_bounds(ctx, radius, instance=instance)
    elif kind == "ffield":
        q = int(root.require("q")[0][0])
        model = root.require("model")[0][0]
        a = int(root.get("a", [["0"]])[0][0])
        b = int(root.get("b", [["0"]])[0][0])
        points = None
        pts_groups = root.get("points")
        if pts_groups:
            points = []
            for g in pts_groups:
                if not g:
                    continue
                if g[0] == "inf":
                    points.append(INF)
                elif len(g) == 1:
                    points.append(int(g[0]))
                else:
                    points.append((int(g[0]), int(g[1])))
        ctx = CurveContext(q, model, a=a, b=b, points=points)
        reps = lemma_pcount_bounds(ctx, int(radius), instance=instance)
    else:
        raise SpecFileError("unknown count kind %r" % kind)
    print(render([report_record(rep) for rep in reps], args.format))
    return 1 if any(rep.verdict == VIOLATED for rep in reps) else 0


def cmd_verify(args) -> int:
    names = list(_SUITE_FN) if args.suite == "all" else [args.suite]
    records: List[Dict[str, object]] = []
    for name in names:
        for rec in _SUITE_FN[name](args.seed):
            rec["inputs"] = dict(rec.get("inputs") or {}, suite=name)
            records.append(rec)
    print(render(records, args.format))
    violated = sum(1 for r in records if r["verdict"] == VIOLATED)
    inconclusive = sum(1 for r in records if r["verdict"] == INCONCLUSIVE)
    if violated:
        return 1
    if args.max_inconclusive is not None and inconclusive > args.max_inconclusive:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-start", type=int, default=None,
                        help="initial working precision in bits")
    common.add_argument("--precision-cap", type=int, default=None,
                        help="precision cap in bits (env LATHEIGHTS_PRECISION_CAP)")
    common.add_argument("--budget", type=int, default=None,
                        help="enumeration budget (candidate vectors)")
    common.add_argument("--seed", type=int, default=42, help="suite random seed")
    common.add_argument("--format", choices=["jsonl", "csv", "pretty"],
                        default="jsonl")
    p = argparse.ArgumentParser(
        prog="latheights",
        description="Exact heights and certified lattice point-count bounds",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("height", parents=[common],
                        help="print the height of a vector")
    ph.add_argument("file")
    ph.set_defaults(fn=cmd_height)

    pc = sub.add_parser("count", parents=[common],
                        help="exact count vs bound for one instance")
    pc.add_argument("kind", choices=["module", "sunits", "ffield"])
    pc.add_argument("file")
    pc.add_argument("radius", help="height bound R (or B)")
    pc.set_defaults(fn=cmd_count)

    pv = sub.add_parser("verify", parents=[common],
                        help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    pv.add_argument("--max-inconclusive", type=int, default=None,
                    help="fail when more than this many INCONCLUSIVE results "
                         "(default: tolerate all)")
    pv.set_defaults(fn=cmd_verify)
    return p


def _apply_settings(args) -> None:
    """Set the working precision and the enumeration budget of the run from
    the options (the cap falls back to LATHEIGHTS_PRECISION_CAP); raises
    ValidationError on a value that is not a positive integer or on a start
    precision above the cap, before anything is set."""
    cap, env = args.precision_cap, os.environ.get("LATHEIGHTS_PRECISION_CAP", "")
    if cap is None and env:
        try:
            cap = int(env)
        except ValueError:
            raise ValidationError("LATHEIGHTS_PRECISION_CAP must be an integer, got %r" % env)
    named = (("precision start", args.precision_start), ("precision cap", cap),
             ("budget", args.budget))
    for name, value in named:
        if value is not None and value <= 0:
            raise ValidationError("the %s must be positive, got %d" % (name, value))
    start = PRECISION.start if args.precision_start is None else args.precision_start
    cap = PRECISION.cap if cap is None else cap
    if start > cap:
        raise ValidationError("precision start %d exceeds the cap %d" % (start, cap))
    PRECISION.start, PRECISION.cap = start, cap
    if args.budget is not None:
        lattice_mod.ENUM_BUDGET = args.budget


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    saved = PRECISION.start, PRECISION.cap, lattice_mod.ENUM_BUDGET
    try:
        _apply_settings(args)
        return args.fn(args)
    except SpecFileError as e:
        print("specification error: %s" % e, file=sys.stderr)
        return 2
    except LatHeightsError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    finally:  # the settings hold for this run only
        PRECISION.start, PRECISION.cap, lattice_mod.ENUM_BUDGET = saved


if __name__ == "__main__":
    sys.exit(main())
