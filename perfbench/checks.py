"""Answer checks: golden records on the default seed, invariants on all seeds.

An operation fails when it raises, when one of its records is VIOLATED, when a pass disagrees with the first pass,
or, on the default seed, when it differs from the golden record in a count
or in a decided verdict.  INCONCLUSIVE -> decided is allowed; it shows in
``decided_frac`` instead.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 42
DECIDED = ("HOLDS", "VIOLATED")


class OpResult(NamedTuple):
    label: str
    outcome: str  # "ok" or "error: ..."
    records: List[dict]


def norm(rec: dict) -> dict:
    """The fields the answer check compares."""
    inputs = rec.get("inputs") or {}
    radius = rec.get("R_mid")
    exact = rec.get("exact")
    return {
        "instance": rec["instance"],
        "kind": rec["kind"],
        "R": radius if radius is not None else inputs.get("R"),
        "exact": exact if exact is not None else inputs.get("points", inputs.get("found")),
        "verdict": rec["verdict"],
        "note": rec.get("note") or "",
    }


def _key(r: dict):
    return (r["instance"], r["kind"], r["R"])


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / (workload + ".json")


def load_golden(workload: str) -> Dict[str, dict]:
    with open(golden_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def golden_entry(res: OpResult) -> dict:
    return {"outcome": res.outcome,
            "records": sorted((norm(r) for r in res.records), key=_key)}


def compare_golden(res: OpResult, gold: Optional[dict]) -> Optional[str]:
    """Why `res` disagrees with its golden entry, or None."""
    if gold is None:
        return "no golden record for this operation"
    if res.outcome != gold["outcome"]:
        return "outcome %s, golden %s" % (res.outcome, gold["outcome"])
    got = {_key(r): r for r in map(norm, res.records)}
    want = {_key(r): r for r in gold["records"]}
    if got.keys() != want.keys():
        return "record set differs: %s" % sorted(set(got) ^ set(want), key=str)[:3]
    for key, w in want.items():
        g = got[key]
        if w["exact"] is not None and g["exact"] != w["exact"]:
            return "%s: count %s, golden %s" % (key, g["exact"], w["exact"])
        if w["verdict"] in DECIDED and g["verdict"] != w["verdict"]:
            return "%s: verdict %s, golden %s" % (key, g["verdict"], w["verdict"])
    return None


def monotone_failures(results: List[OpResult]) -> Dict[str, str]:
    """Ops whose counts decrease with R within an (instance, kind) series."""
    series: Dict[tuple, list] = {}
    for res in results:
        for r in map(norm, res.records):
            if r["R"] is not None and isinstance(r["exact"], int):
                series.setdefault((r["instance"], r["kind"]), []).append(
                    (Fraction(r["R"]), r["exact"], res.label))
    bad = {}
    for key, pts in series.items():
        pts.sort()
        for (r0, e0, _), (r1, e1, label) in zip(pts, pts[1:]):
            if e1 < e0:
                bad[label] = "%s: count %d at R=%s below %d at R=%s" % (key, e1, r1, e0, r0)
    return bad


def check_pass(results: List[OpResult], first: Optional[List[OpResult]],
               golden: Optional[Dict[str, dict]]) -> Dict[str, str]:
    """label -> reason for every failed operation of one pass."""
    failed = {}
    for k, res in enumerate(results):
        if res.outcome.startswith("error"):
            failed[res.label] = res.outcome
        elif any(r["verdict"] == "VIOLATED" for r in res.records):
            failed[res.label] = "VIOLATED record"
        elif first is not None and golden_entry(res) != golden_entry(first[k]):
            failed[res.label] = "differs from the first pass"
        elif golden is not None:
            why = compare_golden(res, golden.get(res.label))
            if why:
                failed[res.label] = why
    for label, why in monotone_failures(results).items():
        failed.setdefault(label, why)
    return failed


def census(results: List[OpResult]) -> Dict[str, int]:
    """Verdict census: HOLDS, VIOLATED and INCONCLUSIVE by reason."""
    out = Counter()
    for res in results:
        for r in res.records:
            v = r["verdict"]
            if v == "INCONCLUSIVE":
                note = r.get("note") or ""
                reason = ("budget" if "budget" in note else
                          "threshold" if "threshold" in note else "precision")
                v = "INCONCLUSIVE:" + reason
            out[v] += 1
    return dict(sorted(out.items()))
