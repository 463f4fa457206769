"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py
"""

import importlib
import pkgutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import latheights  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _snapshot():
    """Every attribute of every latheights module and traced class."""
    mods = [importlib.import_module("latheights." + m.name)
            for m in pkgutil.iter_modules(latheights.__path__)]
    snap = {}
    for mod in mods:
        snap[mod.__name__] = dict(vars(mod))
        for name, val in vars(mod).items():
            if isinstance(val, type) and val.__module__ == mod.__name__:
                snap[mod.__name__ + "." + name] = dict(vars(val))
    return mods, snap


def test_install_and_uninstall_restore_every_rebound_name():
    mods, before = _snapshot()
    from latheights import bounds, lattice, nf

    original = lattice.enumerate_cube
    tr = tracer.Tracer()
    tr.install()
    try:
        # rebound where defined, where imported by name, and on classes
        assert lattice.enumerate_cube is not original
        assert bounds.enumerate_cube is lattice.enumerate_cube
        assert "from_generators" in vars(nf.FracIdeal)
        assert vars(nf.FracIdeal)["from_generators"] is not before[
            "latheights.nf.FracIdeal"]["from_generators"]
        lat = lattice.RealLattice.from_rows([[1, 0], [0, 2]])
        assert len(lattice.enumerate_cube(lat, Fraction(1))) == 3
        names = {s[tracer.NAME] for s in tr.take_pass()}
        assert {"lattice.enumerate_cube", "lattice._coefficient_box"} <= names
    finally:
        tr.uninstall()
    _, after = _snapshot()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        for name, val in attrs.items():
            assert after[key][name] is val, (key, name)


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90([1.0] * 99) is None
    assert 88 <= run.p90([float(i) for i in range(100)]) <= 90


def _records(entry):
    return [{"instance": r["instance"], "kind": r["kind"], "R_mid": r["R"],
             "exact": r["exact"], "verdict": r["verdict"], "note": r["note"],
             "inputs": {}}
            for r in entry["records"]]


def test_answer_check_flags_tampered_count_and_flipped_verdict():
    golden = checks.load_golden("lattice-grid")
    label, entry = next((k, v) for k, v in golden.items()
                        if any(r["verdict"] == "HOLDS" and r["exact"] for r in v["records"]))
    good = checks.OpResult(label, "ok", _records(entry))
    assert checks.check_pass([good], None, golden) == {}

    tampered = _records(entry)
    counted = next(r for r in tampered if r["exact"])
    counted["exact"] += 1
    bad = checks.check_pass([checks.OpResult(label, "ok", tampered)], None, golden)
    assert label in bad and "count" in bad[label]

    flipped = _records(entry)
    next(r for r in flipped if r["verdict"] == "HOLDS")["verdict"] = "VIOLATED"
    bad = checks.check_pass([checks.OpResult(label, "ok", flipped)], None, golden)
    assert label in bad

    # INCONCLUSIVE -> decided is allowed; decided -> INCONCLUSIVE is not
    softened = _records(entry)
    next(r for r in softened if r["verdict"] == "HOLDS")["verdict"] = "INCONCLUSIVE"
    assert label in checks.check_pass([checks.OpResult(label, "ok", softened)], None, golden)


def test_counts_must_not_decrease_with_radius():
    recs = [{"instance": "x", "kind": "LOWER", "R_mid": r, "exact": e,
             "verdict": "HOLDS", "inputs": {}} for r, e in (("1", 5), ("2", 4))]
    bad = checks.check_pass([checks.OpResult("op", "ok", recs)], None, None)
    assert "op" in bad


def test_workload_names_match():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_a_different_seed_changes_the_lattice_grid_inputs():
    assert inputs.draw_lattices(1, 20) == inputs.draw_lattices(1, 20)
    assert inputs.draw_lattices(1, 20) != inputs.draw_lattices(2, 20)


def test_self_time_subtracts_child_spans():
    # enumerate_cube 0..10 with a coefficient box child 1..4
    spans = [
        ["lattice.enumerate_cube", "enum", 0.0, 10.0, -1, "op", 7],
        ["lattice._coefficient_box", "box", 1.0, 4.0, 0, "op", 27],
    ]
    m = tracer.layer_metrics(spans, 64)
    assert m["lattice.enum_self_s"] == 7.0
    assert m["lattice.box_s"] == 3.0
    assert m["lattice.candidates"] == 27 and m["lattice.survivors"] == 7
    assert set(m) == set(tracer.LAYER_METRICS)


def test_an_inconclusive_verdict_counts_once_at_the_outermost_call():
    # thm1_lower reporting INCONCLUSIVE from a _verdict inside it, then a
    # _verdict of its own (as the cnt-lem records have)
    spans = [
        ["bounds.thm1_lower", "verdict", 0.0, 2.0, -1, "op", ["precision"]],
        ["bounds._verdict", "verdict", 0.5, 1.0, 0, "op", ["precision"]],
        ["bounds._verdict", "verdict", 3.0, 4.0, -1, "op", ["precision"]],
    ]
    assert tracer.layer_metrics(spans, 64)["bounds.inconclusive_precision"] == 2
    assert tracer._inconclusive_reason("INCONCLUSIVE") == "precision"
    assert tracer._inconclusive_reason("HOLDS") is None


def test_a_renamed_trace_target_fails_loudly(monkeypatch):
    groups = dict(tracer.GROUPS, box=[("lattice", "_renamed_coefficient_box")])
    monkeypatch.setattr(tracer, "GROUPS", groups)
    mods, before = _snapshot()
    tr = tracer.Tracer()
    try:
        try:
            tr.install()
        except AttributeError:
            pass
        else:
            raise AssertionError("a missing target must raise")
    finally:
        tr.uninstall()
    _, after = _snapshot()
    for key, attrs in before.items():
        for name, val in attrs.items():
            assert after[key][name] is val, (key, name)


def test_reference_clock_rescales_by_the_speed_sampled_during_an_interval():
    clock = refclock.RefClock()
    # the machine runs at half speed from t = 10 on
    clock.times = [0.1 * k for k in range(200)]
    clock.loops = [refclock.REF_NOMINAL_S * (1 if t < 10 else 2) for t in clock.times]
    assert clock.rescale(1.0, 2.0, 3.0) == 1.0
    assert clock.rescale(1.0, 14.0, 15.0) == 0.5
    # a phase change halfway through counts each half by its length
    assert abs(clock.rescale(1.0, 9.0, 10.95) - 0.75) < 1e-12
    # an interval beyond the last sample uses the nearest samples
    assert clock.rescale(1.0, 50.0, 51.0) == 0.5
