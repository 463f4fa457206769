"""Deterministic rendering of verification reports.

Certified values are serialized as decimal midpoint + decimal radius +
working precision in bits, never as bare floats; JSON-lines records are
emitted in sorted order so identical runs are byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Optional, Sequence

from .bounds import BoundReport
from .reals import PRECISION, Rooted, dyadic_endpoints

_DIGITS = 25


def _mid_rad(x, prec: Optional[int] = None):
    """(mid, rad, den): the midpoint and radius of the enclosure of a
    certified value at ``prec`` bits (default ``PRECISION.start``) are
    mid / den and rad / den, den a power of two (``dyadic_endpoints``)."""
    if isinstance(x, Rooted):
        x = x.as_real()
    lo, hi, k = dyadic_endpoints(x, prec)
    return lo + hi, hi - lo, 2 << k


def ball_mid_rad(x, prec: Optional[int] = None):
    """(midpoint, radius) of a certified value as exact Fractions, from its
    enclosure at ``prec`` bits (default ``PRECISION.start``)."""
    mid, rad, den = _mid_rad(x, prec)
    return Fraction(mid, den), Fraction(rad, den)


def _decimal(n: int, d: int, digits: int = _DIGITS) -> str:
    """n / d (d > 0) as a fixed-point decimal string, exact to `digits`
    fractional digits: |n| / d times 10**digits rounded half up."""
    s = str((2 * abs(n) * 10 ** digits + d) // (2 * d)).rjust(digits + 1, "0")
    whole, frac = s[:-digits], s[-digits:].rstrip("0")
    return ("-" if n < 0 else "") + whole + ("." + frac if frac else "")


def frac_decimal(f: Fraction, digits: int = _DIGITS) -> str:
    """Fixed-point decimal string, exact to `digits` fractional digits."""
    return _decimal(f.numerator, f.denominator, digits)


def _value_fields(prefix: str, x) -> Dict[str, object]:
    if x is None:
        return {prefix + "_mid": None, prefix + "_rad": None}
    if isinstance(x, (int, Fraction)):
        return {prefix + "_mid": frac_decimal(x), prefix + "_rad": "0"}
    mid, rad, den = _mid_rad(x)
    return {prefix + "_mid": _decimal(mid, den), prefix + "_rad": _decimal(rad, den)}


def report_record(rep: BoundReport,
                  inputs: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    rec: Dict[str, object] = {
        "instance": rep.instance,
        "kind": rep.kind,
        "inputs": inputs or {},
        "exact": rep.exact_count,
        "verdict": rep.verdict,
        "applicable": rep.applicable,
        "note": rep.note,
        "bits": PRECISION.start,
    }
    rec.update(_value_fields("R", rep.radius))
    rec.update(_value_fields("bound", rep.bound_value))
    return rec


def check_record(instance: str, kind: str, ok: bool,
                 inputs: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """A boolean invariant check rendered in the same record shape."""
    return {
        "instance": instance,
        "kind": kind,
        "inputs": inputs or {},
        "exact": None,
        "verdict": "HOLDS" if ok else "VIOLATED",
        "applicable": True,
        "note": "",
        "bits": PRECISION.start,
        "R_mid": None,
        "R_rad": None,
        "bound_mid": None,
        "bound_rad": None,
    }


def _sort_key(rec: Dict[str, object]):
    return (
        str(rec.get("instance")),
        str(rec.get("kind")),
        str(rec.get("R_mid")),
        json.dumps(rec.get("inputs"), sort_keys=True),
    )


def render_jsonl(records: Sequence[Dict[str, object]]) -> str:
    lines = [
        json.dumps(rec, sort_keys=True, separators=(",", ":"))
        for rec in sorted(records, key=_sort_key)
    ]
    return "\n".join(lines)


_CSV_COLS = ["instance", "kind", "R_mid", "exact", "bound_mid", "verdict"]
_CSV_HEADER = ["instance", "kind", "R", "exact", "bound", "verdict"]


def render_csv(records: Sequence[Dict[str, object]]) -> str:
    out = [",".join(_CSV_HEADER)]
    for rec in sorted(records, key=_sort_key):
        row = []
        for col in _CSV_COLS:
            v = rec.get(col)
            row.append("" if v is None else str(v))
        out.append(",".join(row))
    return "\n".join(out)


def render_pretty(records: Sequence[Dict[str, object]]) -> str:
    out = []
    for rec in sorted(records, key=_sort_key):
        bits = []
        bits.append("%-28s" % rec.get("instance"))
        bits.append("%-6s" % rec.get("kind"))
        r = rec.get("R_mid")
        bits.append("R=%s" % (r if r is not None else "-"))
        e = rec.get("exact")
        bits.append("exact=%s" % (e if e is not None else "-"))
        b = rec.get("bound_mid")
        bits.append("bound=%s" % (b if b is not None else "-"))
        bits.append(rec.get("verdict", ""))
        if rec.get("note"):
            bits.append("(%s)" % rec["note"])
        out.append("  ".join(str(x) for x in bits))
    return "\n".join(out)


def render(records: Sequence[Dict[str, object]], fmt: str) -> str:
    if fmt == "jsonl":
        return render_jsonl(records)
    if fmt == "csv":
        return render_csv(records)
    if fmt == "pretty":
        return render_pretty(records)
    raise ValueError("unknown format %r" % fmt)
