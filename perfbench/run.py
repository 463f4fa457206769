#!/usr/bin/env python3
"""latheights benchmark: certified-checker workloads, checked answers.

    python3 perfbench/run.py                       # every workload, untraced
                                                   # and traced, as a table
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` the run is one closed-loop client in this process: it
runs the workload's operations one after another, repeats the whole pass
while another pass still fits in ``--seconds`` (always at least one), checks
every answer and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics, with times in reference seconds (``refclock.py``);
``--trace 1`` gives the per-layer metrics from spans.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

WORKLOAD_NAMES = ("lattice-grid", "nf-heights", "quat-search", "sunit-ffield")
DEFAULT_SECONDS = 25
SETUP_PROBES = 5
CLOCK_PREROLL = 10  # reference samples taken before and after a measurement
PROBE_TIMEOUT = 60
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
TRACE_DIR = ROOT / ".bench_traces"

# gated end-to-end metrics; op_p50_ms, op_p90_ms, failed_frac and the times
# in wall-clock seconds are printed on the line before the result (see
# README.md for why they are not gated)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "decided_frac": "ratio"}


def import_library():
    """Import latheights from the checkout's src/ and the harness modules."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import latheights
    except ImportError as exc:
        sys.exit("perfbench: cannot import latheights from %s: %s" % (SRC, exc))
    found = [Path(p).resolve() for p in latheights.__path__]
    if found != [(SRC / "latheights").resolve()]:
        sys.exit("perfbench: latheights was imported from %s, not from %s"
                 % (found, SRC))


def p90(samples):
    """The 90th percentile, or None with fewer than P90_MIN_SAMPLES samples."""
    if len(samples) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "latheights").glob("*.py")))


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload: str, seed: int) -> None:
    """Draw the inputs, then import the library and build the workload's
    objects once; print the seconds of the second part."""
    sys.path.insert(0, str(HERE))
    import inputs
    import refclock

    data = inputs.draw(workload, seed)
    clock = refclock.RefClock()
    for _ in range(CLOCK_PREROLL):
        clock.sample()
    clock.start()
    try:
        t0, n0 = time.perf_counter(), clock.now()
        import_library()
        import workloads

        workloads.WORKLOADS[workload](data)
        n1, t1 = clock.now(), time.perf_counter()
    finally:
        clock.stop()
    for _ in range(CLOCK_PREROLL):
        clock.sample()
    print(n1 - n0, clock.rescale(n1 - n0, t0, t1))


def measure_setup(workload: str, seed: int) -> list:
    """(wall, reference) set-up seconds of SETUP_PROBES fresh interpreters,
    one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT, cwd=str(ROOT))
        if proc.returncode != 0:
            sys.exit("perfbench: set-up probe failed:\n" + proc.stderr)
        out.append(tuple(map(float, proc.stdout.split()[-2:])))
    return out


# ---------------------------------------------------------------------------
# one workload


def run_pass(build, data, tracer, report, checks, clock):
    """Run every operation of a fresh build once.

    Returns (latencies, intervals, results): an operation's latency leaves
    out the clock's samples; its interval is its perf_counter start and end.
    """
    ops = build(data)
    latencies, intervals, results = [], [], []
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
        t0, n0 = time.perf_counter(), clock.now()
        try:
            records = op.run()
            outcome = "ok"
        except Exception as exc:  # any raise is a failed operation
            records, outcome = [], "error: %s: %s" % (type(exc).__name__, exc)
        report.render(records, "jsonl")
        latencies.append(clock.now() - n0)
        intervals.append((t0, time.perf_counter()))
        results.append(checks.OpResult(op.label, outcome, records))
    return latencies, intervals, results


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_library()
    setup = measure_setup(name, seed)
    import checks
    import inputs
    import refclock
    import tracer as tracing
    import workloads
    from latheights import reals, report

    build = workloads.WORKLOADS[name]
    data = inputs.draw(name, seed)
    golden = checks.load_golden(name) if seed == checks.DEFAULT_SEED else None
    start_bits = reals.PRECISION.start  # the library's starting precision
    tr = tracing.Tracer() if trace else None
    # the traced run takes no samples: they would land inside the spans
    clock = refclock.RefClock()
    passes, latencies, layer, first_spans = [], [], [], None
    first, failed, attempted = None, {}, 0
    if tr is not None:
        tr.install()
    else:
        for _ in range(CLOCK_PREROLL):
            clock.sample()
        clock.start()
    try:
        t_begin = time.perf_counter()
        while True:
            lat, intervals, results = run_pass(build, data, tr, report, checks, clock)
            passes.append((lat, intervals))
            latencies += lat
            attempted += len(results)
            for label, why in checks.check_pass(results, first, golden).items():
                failed["pass %d %s" % (len(passes), label)] = why
            first = first or results
            if tr is not None:
                spans = tr.take_pass()
                layer.append(tracing.layer_metrics(spans, start_bits))
                first_spans = first_spans or spans  # later passes repeat it
            elapsed = time.perf_counter() - t_begin
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    finally:
        if tr is not None:
            tr.uninstall()
        else:
            clock.stop()
            for _ in range(CLOCK_PREROLL):  # samples after the last operation
                clock.sample()

    walls = [sum(lat) for lat, _ in passes]

    records = [r for res in first for r in res.records]
    decided = sum(r["verdict"] in checks.DECIDED for r in records)
    tail = p90(latencies)
    info = {
        "workload": name, "seed": seed, "trace": trace, "passes": len(walls),
        "ops_per_pass": len(first), "op_samples": len(latencies),
        "wall_raw_s": statistics.median(walls), "pass_walls_raw": walls,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": None if tail is None else tail * 1000,
        "failed_frac": len(failed) / attempted,
        "failures": dict(list(failed.items())[:10]),
        "census": checks.census(first), "src_lines": src_line_count(),
        "env": environment(),
    }
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / ("%s-seed%d.jsonl.gz" % (name, seed))
        tracing.write_spans(path, first_spans)
        info["spans_per_pass"] = len(first_spans)
        metrics = {m: {"value": statistics.median(p[m] for p in layer), "unit": unit}
                   for m, unit in tracing.LAYER_METRICS.items()}
    else:
        ref_walls = [sum(clock.rescale(x, t0, t1) for x, (t0, t1) in zip(lat, iv))
                     for lat, iv in passes]
        info.update({
            "pass_walls": ref_walls,
            "setup_raw_s": statistics.median(raw for raw, _ in setup),
            "ref_loop_ms": statistics.median(clock.loops) * 1000,
            "clock_samples": len(clock.loops),
        })
        values = {
            "wall_s": statistics.median(ref_walls),
            "setup_s": statistics.median(ref for _, ref in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "decided_frac": decided / len(records),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}
    print("# " + json.dumps(info, sort_keys=True))
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": metrics}


def write_golden(name: str) -> None:
    """Record one pass on the default seed as the workload's golden answers.

    Run only at a commit whose answers are trusted."""
    import_library()
    import checks
    import inputs
    import workloads
    from latheights import report

    import refclock

    data = inputs.draw(name, checks.DEFAULT_SEED)
    _, _, results = run_pass(workloads.WORKLOADS[name], data, None, report, checks,
                             refclock.RefClock())
    bad = checks.check_pass(results, None, None)
    if bad:
        sys.exit("perfbench: not writing golden answers, checks failed: %s" % bad)
    lines = ["%s: %s" % (json.dumps(res.label), json.dumps(checks.golden_entry(res),
                                                         sort_keys=True))
             for res in results]
    with open(checks.golden_path(name), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


# ---------------------------------------------------------------------------
# every workload, as one table


def _child(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=str(ROOT))
    if proc.returncode != 0:
        sys.exit("perfbench: %s failed:\n%s" % (workload, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2][2:]), json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    import_library()
    import tracer as tracing

    ok = True
    layer_rows = {}
    print("%-13s %-13s %12s  %s" % ("workload", "metric", "value", "unit"))
    for name in WORKLOAD_NAMES:
        info, res = _child(name, seed, seconds, 0)
        tinfo, tres = _child(name, seed, seconds, 1)
        ok = ok and res["correct"] and tres["correct"]
        rows = [(m, v["value"], v["unit"]) for m, v in res["metrics"].items()]
        rows.append(("op_p50_ms", info["op_p50_ms"], "ms (n=%d)" % info["op_samples"]))
        if info["op_p90_ms"] is not None:
            rows.append(("op_p90_ms", info["op_p90_ms"],
                         "ms (n=%d)" % info["op_samples"]))
        rows.append(("failed_frac", info["failed_frac"], "ratio"))
        rows.append(("wall_raw_s", info["wall_raw_s"], "s"))
        rows.append(("setup_raw_s", info["setup_raw_s"], "s"))
        rows.append(("ref_loop_ms", info["ref_loop_ms"], "ms"))
        rows.append(("trace_overhead_s", tinfo["wall_raw_s"] - info["wall_raw_s"], "s"))
        for metric, value, unit in rows:
            print("%-13s %-13s %12.6g  %s" % (name, metric, value, unit))
        print("%-13s census %s; %d passes; src %d lines" % (
            name, json.dumps(info["census"]), info["passes"], info["src_lines"]))
        layer_rows[name] = tres["metrics"]
    print()
    print("%-28s %s" % ("per-layer (traced run)", " ".join("%13s" % n for n in WORKLOAD_NAMES)))
    for metric, unit in tracing.LAYER_METRICS.items():
        vals = " ".join("%13.6g" % layer_rows[n][metric]["value"] for n in WORKLOAD_NAMES)
        print("%-28s %s  %s" % (metric, vals, unit))
    print()
    print("environment: %s" % json.dumps(info["env"]))
    print("all answers correct" if ok else "SOME ANSWERS FAILED THE CHECK")
    return 0 if ok else 1


def main(argv=None) -> int:
    for var in THREAD_VARS:  # before numpy is imported; children inherit it
        os.environ[var] = "1"
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-golden", action="store_true",
                    help="record the default-seed answers of --workload")
    args = ap.parse_args(argv)
    if (args.write_golden or args.setup_probe) and args.workload is None:
        ap.error("--write-golden needs --workload")
    if args.write_golden:
        write_golden(args.workload)
        return 0
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
