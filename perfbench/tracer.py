"""Spans around the public functions of each latheights layer.

Installing the tracer rebinds every listed function in every ``latheights``
module namespace that holds it (the defining module and every module that
imported it by name), and on the class for methods.  Each call then records
a span: its function, start, end, parent span and operation id.  Spans stay
in memory; per-layer metrics are computed from them when a pass ends, and
the first pass's spans are written out when the run ends (later passes
repeat the same operations).

The ``QuadReal``/``Fraction`` operators are deliberately not wrapped: they
run hundreds of thousands of times per pass and would swamp the timings.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from typing import Dict, List, Tuple

# group -> (module, attribute) targets; "Class.method" names a method.
GROUPS: Dict[str, List[Tuple[str, str]]] = {
    "enum": [("lattice", "enumerate_cube"), ("bounds", "_fast_count_totally_real")],
    "box": [("lattice", "_coefficient_box")],
    "recheck": [("lattice", "_certified_in_cube")],
    "supnorm": [("lattice", "supnorm_min")],
    "linalg": [("linalg", n) for n in (
        "mat_mul", "mat_vec", "transpose", "det", "solve", "inverse",
        "row_echelon", "rank", "kernel_basis")],
    "cmp": [("reals", "cmp_real")],
    "ideal": [("nf", "FracIdeal.from_generators")],
    "arch": [("nf", "NumberField.channel_values"), ("nf", "NumberField.arch_places")],
    "heights": [("heights", n) for n in (
        "height_H", "height_h", "height_H2", "content_ideal", "grassmann",
        "subspace_height", "hfin_integral", "hfin_matrix", "form_height")],
    "minima": [("modules", "minima_ck_zk")],
    "qheight": [("quat", n) for n in (
        "height_Hinf", "height_hinf", "height_HO", "height_h", "height_h_order")],
    "hfin": [("quat", "height_HfinO")],
    "intersection": [("quat", "intersection_module")],
    "hermitian": [("quat", "eval_hermitian")],
    "intmat": [("intmat", n) for n in (
        "det", "_row_hnf", "hnf", "rank", "lattice_index", "kernel", "matmul_vec",
        "snf_diagonal", "rational_to_scaled", "lattice_intersection",
        "lattice_contains")],
    "oracle": [("bounds", n) for n in (
        "exact_count_module", "exact_count_zo", "exact_count_d")],
    "const": [("bounds", n) for n in (
        "const_E1_E2", "const_E3_E4", "const_rv", "const_TK", "const_A",
        "loher_masser_upper")],
    "search": [("bounds", "search_basis"), ("bounds", "search_isotropic")],
    # _verdict decides the cnt-lem records, which no theorem function wraps
    "verdict": [("bounds", "thm1_lower"), ("bounds", "thm_main1_lower"),
                ("bounds", "thm_main2_upper"), ("sunits", "lemma_sunit_bounds"),
                ("funcfield", "lemma_pcount_bounds"), ("bounds", "_verdict")],
    "scount": [("sunits", "count_sunits")],
    "slattice": [("sunits", "SUnitContext.log_lattice")],
    "regulator": [("sunits", "regulator_bound_checks")],
    "fcount": [("funcfield", "count_supported")],
    "fdet": [("funcfield", "det_bound_checks")],
    "report": [("report", "report_record"), ("report", "check_record"),
               ("report", "render")],
}

# per-layer metric -> unit; every workload reports all of them
LAYER_METRICS: Dict[str, str] = {
    "lattice.enum_calls": "count",
    "lattice.enum_self_s": "s",
    "lattice.candidates": "count",
    "lattice.survivors": "count",
    "lattice.survivor_ratio": "ratio",
    "lattice.budget_exceeded": "count",
    "lattice.band_rechecks": "count",
    "lattice.recheck_s": "s",
    "lattice.box_s": "s",
    "lattice.supnorm_s": "s",
    "linalg.calls": "count",
    "linalg.s": "s",
    "reals.cmp_calls": "count",
    "reals.cmp_s": "s",
    "reals.cmp_escalated": "count",
    "reals.cmp_exhausted": "count",
    "reals.max_bits": "bits",
    "nf.ideal_calls": "count",
    "nf.ideal_s": "s",
    "nf.arch_calls": "count",
    "nf.arch_s": "s",
    "heights.evals": "count",
    "heights.self_s": "s",
    "modules.minima_calls": "count",
    "modules.minima_s": "s",
    "quat.height_evals": "count",
    "quat.height_s": "s",
    "quat.hfin_s": "s",
    "quat.intersection_s": "s",
    "quat.hermitian_evals": "count",
    "quat.hermitian_s": "s",
    "intmat.calls": "count",
    "intmat.s": "s",
    "bounds.oracle_s": "s",
    "bounds.const_s": "s",
    "bounds.search_s": "s",
    "bounds.inconclusive_budget": "count",
    "bounds.inconclusive_threshold": "count",
    "bounds.inconclusive_precision": "count",
    "sunits.count_s": "s",
    "sunits.lattice_s": "s",
    "sunits.regulator_s": "s",
    "funcfield.count_s": "s",
    "funcfield.det_s": "s",
    "report.s": "s",
}

# span fields
NAME, GROUP, START, END, PARENT, OP, INFO = range(7)


def _inconclusive_reason(rep):
    if rep == "INCONCLUSIVE":  # _verdict says so only when precision ran out
        return "precision"
    if getattr(rep, "verdict", None) != "INCONCLUSIVE":
        return None
    note = rep.note or ""
    if "budget" in note:
        return "budget"
    if "threshold" in note:
        return "threshold"
    return "precision"


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = None
        self._saved: List[Tuple[object, str, object]] = []
        self._errors = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, group):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        info_hook = self._info_hook(group)
        errors = self._errors

        def wrapper(*args, **kwargs):
            span = [name, group, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except errors.LatHeightsError as exc:
                span[END] = clock()
                stack.pop()
                if not getattr(exc, "_bench_seen", False):
                    exc._bench_seen = True
                    if isinstance(exc, errors.PrecisionExhausted):
                        span[INFO] = "exhausted"
                    elif isinstance(exc, errors.BudgetExceeded) and "enumeration" in str(exc):
                        span[INFO] = "budget"
                raise
            except BaseException:
                span[END] = clock()
                stack.pop()
                raise
            span[END] = clock()
            stack.pop()
            if info_hook is not None:
                span[INFO] = info_hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _info_hook(self, group):
        if group == "box":
            def caps_total(args, caps):
                total = 1
                for c in caps:
                    total *= 2 * c + 1
                return total
            return caps_total
        if group == "enum":
            def survivors(args, result):
                if result is None:  # the fast path declined the input
                    return None
                return result if isinstance(result, int) else len(result)
            return survivors
        if group == "cmp":
            def bits(args, result):
                # a BallReal operand caches the precision it was refined to
                return max((getattr(x, "_prec", 0) for x in args[:2]), default=0)
            return bits
        if group == "verdict":
            def reasons(args, result):
                reps = result if isinstance(result, tuple) else (result,)
                return [r for r in map(_inconclusive_reason, reps) if r]
            return reasons
        return None

    def install(self):
        """Rebind every target in every loaded latheights module and class."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        from latheights import errors

        self._errors = errors
        pkg = {n: m for n, m in sys.modules.items()
               if m is not None and (n == "latheights" or n.startswith("latheights."))}
        for group, targets in GROUPS.items():
            for modname, attr in targets:
                # a renamed or removed target raises, so no layer reads 0 unseen
                mod = pkg["latheights." + modname]
                if "." in attr:
                    self._install_method(mod, attr, group)
                    continue
                fn = getattr(mod, attr)
                wrapper = self._wrap(fn, "%s.%s" % (modname, attr), group)
                for m in pkg.values():
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._saved.append((m, key, fn))
                            setattr(m, key, wrapper)

    def _install_method(self, mod, attr, group):
        clsname, meth = attr.split(".")
        cls = getattr(mod, clsname)
        raw = vars(cls)[meth]
        name = "%s.%s" % (mod.__name__.rsplit(".", 1)[-1], attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, group))
        else:
            new = self._wrap(raw, name, group)
        self._saved.append((cls, meth, raw))
        setattr(cls, meth, new)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    # -- results ----------------------------------------------------------

    def take_pass(self) -> List[list]:
        """Hand over the spans recorded since the last call."""
        out = self.spans[:]
        del self.spans[:]
        return out


def layer_metrics(spans: List[list], start_bits: int) -> Dict[str, float]:
    """Per-layer metrics of one pass, computed from its spans.

    ``start_bits`` is the library's starting precision: a comparison counts
    as escalated when an operand was refined beyond it.
    """
    n = len(spans)
    child_time = [0.0] * n
    masks = [0] * n
    bit = {g: 1 << i for i, g in enumerate(GROUPS)}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child_time[p] += s[END] - s[START]
            masks[i] = masks[p] | bit[spans[p][GROUP]]

    calls = dict.fromkeys(GROUPS, 0)     # outermost calls within the group
    every = dict.fromkeys(GROUPS, 0)     # all calls
    incl = dict.fromkeys(GROUPS, 0.0)    # outermost inclusive time
    self_s = dict.fromkeys(GROUPS, 0.0)  # self time of every span
    boxes = {}  # enumeration span -> size of its (first) coefficient box
    survivors = budget = escalated = exhausted = max_bits = enum_calls = 0
    reasons = {"budget": 0, "threshold": 0, "precision": 0}
    for i, s in enumerate(spans):
        g = s[GROUP]
        dur = s[END] - s[START]
        every[g] += 1
        self_s[g] += dur - child_time[i]
        if not masks[i] & bit[g]:
            calls[g] += 1
            incl[g] += dur
        info = s[INFO]
        if info == "budget":
            budget += 1
        elif g == "cmp":
            if info == "exhausted":
                exhausted += 1
            elif info:
                escalated += info > start_bits
                max_bits = max(max_bits, info)
        elif g == "enum" and isinstance(info, int):
            enum_calls += 1
            survivors += info
        elif g == "box" and s[PARENT] >= 0:
            boxes.setdefault(s[PARENT], info)
        elif g == "verdict" and info and not masks[i] & bit[g]:
            for r in info:
                reasons[r] += 1
    # only boxes that were enumerated: not refused, not declined by the fast path
    candidates = sum(size for p, size in boxes.items()
                     if spans[p][GROUP] == "enum" and isinstance(spans[p][INFO], int))

    return {
        "lattice.enum_calls": enum_calls,
        "lattice.enum_self_s": self_s["enum"],
        "lattice.candidates": candidates,
        "lattice.survivors": survivors,
        "lattice.survivor_ratio": survivors / candidates if candidates else 0.0,
        "lattice.budget_exceeded": budget,
        "lattice.band_rechecks": every["recheck"],
        "lattice.recheck_s": incl["recheck"],
        "lattice.box_s": incl["box"],
        "lattice.supnorm_s": incl["supnorm"],
        "linalg.calls": calls["linalg"],
        "linalg.s": incl["linalg"],
        "reals.cmp_calls": every["cmp"],
        "reals.cmp_s": incl["cmp"],
        "reals.cmp_escalated": escalated,
        "reals.cmp_exhausted": exhausted,
        "reals.max_bits": max_bits,
        "nf.ideal_calls": calls["ideal"],
        "nf.ideal_s": incl["ideal"],
        "nf.arch_calls": calls["arch"],
        "nf.arch_s": incl["arch"],
        "heights.evals": calls["heights"],
        "heights.self_s": self_s["heights"],
        "modules.minima_calls": calls["minima"],
        "modules.minima_s": incl["minima"],
        "quat.height_evals": calls["qheight"],
        "quat.height_s": incl["qheight"],
        "quat.hfin_s": incl["hfin"],
        "quat.intersection_s": incl["intersection"],
        "quat.hermitian_evals": calls["hermitian"],
        "quat.hermitian_s": incl["hermitian"],
        "intmat.calls": calls["intmat"],
        "intmat.s": incl["intmat"],
        "bounds.oracle_s": incl["oracle"],
        "bounds.const_s": incl["const"],
        "bounds.search_s": incl["search"],
        "bounds.inconclusive_budget": reasons["budget"],
        "bounds.inconclusive_threshold": reasons["threshold"],
        "bounds.inconclusive_precision": reasons["precision"],
        "sunits.count_s": incl["scount"],
        "sunits.lattice_s": incl["slattice"],
        "sunits.regulator_s": incl["regulator"],
        "funcfield.count_s": incl["fcount"],
        "funcfield.det_s": incl["fdet"],
        "report.s": incl["report"],
    }


def write_spans(path, spans: List[list]) -> None:
    """Write spans as gzipped JSON lines; a span's id is its line number."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT], "op": s[OP],
            }, separators=(",", ":")))
            fh.write("\n")
