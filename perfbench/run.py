"""morekg benchmark: the ingest, query and redact workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 42 --seconds 25 --trace 0

One process, one thread, a closed loop with one client: the timed body
runs again as soon as the previous iteration ends, until ``--seconds``
have passed.  Set-up runs first, eight or more times: a child process
writes the inputs, then this process loads them; the peak RSS is reset
after it.  Outside the timed body, every output is checked against
independent oracles (see README.md).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run, in which traced and untraced iterations
alternate so that the tracing overhead can be reported.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  Spans and raw samples are written to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# Set-up repeats at least SETUP_MIN_REPS times and until SETUP_MIN_S have
# passed, so that the fastest set-up is not taken from one slow spell of
# the machine.
SETUP_MIN_REPS = 8
SETUP_MIN_S = 5.0
MIN_SAMPLES = 3  # per mode (untraced, traced) of the timed body
OVERRUN_S = 60  # most the loop runs past --seconds to reach MIN_SAMPLES
CHILD_TIMEOUT_S = 150
TAIL_PERCENTILES = (50, 90, 99, 99.9)


def _import_morekg():
    """Make ``src/morekg`` of this checkout importable, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import morekg
    except ImportError as e:
        sys.exit("perfbench: cannot import morekg from %s: %s" % (ROOT / "src", e))
    if Path(morekg.__file__).resolve().parent != ROOT / "src" / "morekg":
        sys.exit("perfbench: morekg imported from %s, not from this checkout"
                 % morekg.__file__)


# (metric, unit, statistic, span or note name).  Statistics, over the
# roots (iterations, set-up repetitions, verification rounds) of the
# phase that contains the span:
#   s / ms   median of the span's self time summed within a root
#   ms_call  median of the mean self time per call within a root
#   tps      median of the span's work count per self-time second
#   n        median of the span's work count summed within a root
#   note     median of an exact count recorded once per root
def _layer_metrics(shapes):
    m = [
        ("fixtures.generate_fixture_s", "s", "s", "fixtures.generate_fixture"),
        ("ingestion.load_bundle_s", "s", "s", "ingestion.load_bundle"),
        ("ingestion.validate_bundle_s", "s", "s", "ingestion.validate_bundle"),
        ("ingestion.emit_kg_s", "s", "s", "ingestion.emit_kg"),
        ("ingestion.emit_kg_tps", "1/s", "tps", "ingestion.emit_kg"),
        ("ingestion.emit_kg_triples", "count", "n", "ingestion.emit_kg"),
        ("rdf.rss_bytes_per_triple", "B", "note", "rdf.rss_bytes_per_triple"),
        ("rules.materialize_s", "s", "s", "rules.materialize"),
        ("rules.materialize_tps", "1/s", "tps", "rules.materialize"),
        ("rules.new_triples", "count", "note", "rules.new_triples"),
        ("rules.output_triples", "count", "note", "rules.output_triples"),
    ]
    for fn in ("write_ntriples", "parse_ntriples", "write_turtle", "parse_turtle"):
        m += [("serdes.%s_s" % fn, "s", "s", "serdes." + fn),
              ("serdes.%s_tps" % fn, "1/s", "tps", "serdes." + fn)]
    m.append(("query.parse_query_ms", "ms", "ms_call", "query.parse_query"))
    for shape in shapes:
        m += [("query.evaluate_ms." + shape, "ms", "ms", "query.evaluate." + shape),
              ("query.rows." + shape, "count", "n", "query.evaluate." + shape),
              ("query.to_csv_ms." + shape, "ms", "ms", "query.to_csv." + shape)]
    m += [
        ("privacy.apply_policy_s.public", "s", "s", "privacy.apply_policy.public"),
        ("privacy.apply_policy_s.researcher", "s", "s", "privacy.apply_policy.researcher"),
        ("privacy.view_triples.public", "count", "note", "privacy.view_triples.public"),
        ("privacy.dropped_triples.public", "count", "note", "privacy.dropped_triples.public"),
        ("privacy.audit_view_s", "s", "s", "privacy.audit_view"),
    ]
    return m


def _layer_value(table, stat, name):
    if stat == "note":
        values = table.notes.get(name)
        return statistics.median(values) if values else None
    rows = table.rows(name)
    if not rows:
        return None
    if stat == "s":
        return statistics.median(sec for sec, _, _ in rows)
    if stat == "ms":
        return 1000 * statistics.median(sec for sec, _, _ in rows)
    if stat == "ms_call":
        return 1000 * statistics.median(sec / calls for sec, _, calls in rows)
    if stat == "tps":
        return statistics.median(n / sec for sec, n, _ in rows)
    return statistics.median(n for _, n, _ in rows)


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    best = None
    for p in TAIL_PERCENTILES:
        if len(samples) * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return "none (n < 20)", float("nan")
    return "p%g" % best, _percentile(samples, best)


def _percentile(samples, p):
    if p == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]


def _run_child(args: list[str]) -> dict:
    """Run this script with ``args`` in a child process; returns the JSON
    object it prints."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())] + args,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                          check=True, text=True)
    return json.loads(proc.stdout)


def _child_prepare(wl, args) -> int:
    """Write the inputs; prints the seconds this took (interpreter start-up
    excluded) and, when traced, the spans."""
    from spans import Tracer
    tr = Tracer(args.trace == 1)
    t0 = time.perf_counter()
    with tr.root("setup", "prepare"):
        wl.prepare(Path(args.prepare), args.seed, tr)
    print(json.dumps({"prepare_s": time.perf_counter() - t0, "spans": tr.export()}))
    return 0


def _memory_kb(field: str) -> int:
    """``VmRSS`` (resident now) or ``VmHWM`` (peak) of this process.

    ``getrusage`` is only the fallback: on Linux its ru_maxrss starts from
    the RSS of the process that started this one, which can hide ours."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _reset_peak_rss() -> bool:
    """Reset ``VmHWM`` to the current RSS (Linux); False if unsupported.

    Without it, the peak that ``peak_rss_mb`` reports could be set-up's."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as f:
            f.write("5")
    except OSError:
        return False
    return True


def _child_probe_rss(args) -> int:
    """RSS growth across emit_kg per emitted triple, in a fresh process."""
    from morekg.ingestion import emit_kg, load_bundle
    from morekg.ontology import build_schema
    bundle = load_bundle(args.probe_rss)
    schema = build_schema(bundle.items)
    gc.collect()
    before = _memory_kb("VmRSS")
    g = emit_kg(bundle, schema)
    after = _memory_kb("VmRSS")
    print(json.dumps({"bytes_per_triple": (after - before) * 1024 / len(g)}))
    return 0


def measure(wl, args) -> int:
    from oracle import BundleFacts
    from spans import SpanTable, Tracer
    from workloads import SHAPES, verify_mix, verify_views

    tr = Tracer(args.trace == 1)
    off = Tracer(False)
    work = OUT / ("work-%s-%d-%d" % (wl.name, args.seed, os.getpid()))
    child_args = ["--workload", wl.name, "--seed", str(args.seed),
                  "--trace", str(args.trace)]
    try:
        setup_s = []
        state = None
        setup_start = time.perf_counter()
        while (len(setup_s) < SETUP_MIN_REPS
               or time.perf_counter() - setup_start < SETUP_MIN_S):
            state = None
            gc.collect()
            shutil.rmtree(work, ignore_errors=True)
            with tr.root("setup", "setup"):
                child = _run_child(child_args + ["--prepare", str(work)])
                tr.absorb(child["spans"], "setup")
                t0 = time.perf_counter()
                state = wl.setup_state(work, tr)
                setup_s.append(child["prepare_s"] + time.perf_counter() - t0)
        facts = BundleFacts(work / "bundle")
        gc.collect()
        peak_reset = _reset_peak_rss()
        if not peak_reset:
            print("perfbench: cannot reset the peak RSS; peak_rss_mb may be"
                  " set-up's", file=sys.stderr)

        walls = {False: [], True: []}
        query_s: list[float] = []
        attempted = failed = 0
        errors: list[str] = []

        def record(results):
            nonlocal attempted, failed
            for label, err in results:
                attempted += 1
                if err:
                    failed += 1
                    errors.append("%s: %s" % (label, err))

        deadline = time.perf_counter() + args.seconds
        out = None
        i = 0
        while True:
            traced = tr.enabled and i % 2 == 1
            i += 1
            out = None
            gc.collect()
            t = tr if traced else off
            t0 = time.perf_counter()
            try:
                with t.root("body", "iteration"):
                    out = wl.body(state, t)
                walls[traced].append(time.perf_counter() - t0)
                query_s.extend(sec for _, sec, _ in out.get("calls", ()))
                record(wl.check(state, out, facts, t))
                if wl.mix_after_iteration:
                    results, samples = verify_mix(out["kg"], facts, t)
                    record(results)
                    query_s.extend(samples)
            except Exception:
                attempted += 1
                failed += 1
                errors.append(traceback.format_exc())
            done = [len(walls[False])] + ([len(walls[True])] if tr.enabled else [])
            if time.perf_counter() >= deadline and min(done) >= MIN_SAMPLES:
                break
            if time.perf_counter() >= deadline + OVERRUN_S:
                break  # slow or failing iterations; report what ran
        peak_rss_mb = _memory_kb("VmHWM") / 1024

        kg = (out or {}).get("kg")
        if kg is None:
            print("perfbench: no iteration produced a KG to verify", file=sys.stderr)
            for e in errors:
                print(e, file=sys.stderr)
            return 1
        if wl.verify_views:
            record(verify_views(kg, facts, state["policy"], tr))
        del kg, out, state

        if tr.enabled:
            with tr.root("probe", "probe.rss"):
                probe = _run_child(["--workload", wl.name, "--probe-rss",
                                    str(work / "bundle")])
                tr.note("rdf.rss_bytes_per_triple", probe["bytes_per_triple"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {}
    if tr.enabled:
        table = SpanTable(tr)
        metrics = {}
        for name, unit, stat, source in _layer_metrics(SHAPES):
            value = _layer_value(table, stat, source)
            if value is None:
                errors.append("no spans recorded for per-layer metric %s" % name)
                failed += 1
                attempted += 1
                continue
            metrics[name] = value
            units[name] = unit
        metrics["query_p50_ms"] = 1000 * statistics.median(query_s)
        metrics["query_p90_ms"] = 1000 * _percentile(query_s, 90)
        units["query_p50_ms"] = units["query_p90_ms"] = "ms"
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
        units["trace.overhead_s"] = "s"
        metrics["failed_frac"] = failed / attempted
        units["failed_frac"] = "1"
    else:
        metrics = {
            # The fastest iteration and set-up, not the medians: the machines
            # this runs on change speed by 1.5x or more for seconds at a time,
            # and over ten seeds the minimum spread least (README.md, "Noise").
            "wall_s": min(walls[False]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": min(setup_s),
            "ok_frac": 1 - failed / attempted,
        }
        units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "1"}

    for e in errors:
        print("FAILED %s" % e, file=sys.stderr)
    _print_report(wl, args, walls, setup_s, query_s, metrics, units, attempted, failed)
    OUT.mkdir(exist_ok=True)
    side = OUT / ("%s-seed%d-trace%d.json" % (wl.name, args.seed, args.trace))
    side.write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "participants": wl.participants,
        "items": wl.items, "seconds": args.seconds, "trace": args.trace,
        "peak_rss_reset": peak_reset,
        "metrics": metrics, "wall_s_untraced": walls[False],
        "wall_s_traced": walls[True], "setup_s": setup_s, "query_s": query_s,
        "errors": errors, "spans": tr.export(),
    }), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _print_report(wl, args, walls, setup_s, query_s, metrics, units, attempted, failed):
    print("workload %s: %d participants x %d items, seed %d, %gs, trace %d"
          % (wl.name, wl.participants, wl.items, args.seed, args.seconds, args.trace))
    for label, samples in (("wall_s untraced", walls[False]),
                           ("wall_s traced", walls[True]),
                           ("setup_s", setup_s),
                           ("query call s", query_s)):
        if samples:
            name, value = tail(samples)
            print("  %-16s n=%-5d median=%.6g  tail %s=%.6g"
                  % (label, len(samples), statistics.median(samples), name, value))
    for name, value in metrics.items():
        print("  %-40s %.6g %s" % (name, value, units[name]))
    print("  checks: %d attempted, %d failed" % (attempted, failed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", help=argparse.SUPPRESS)
    parser.add_argument("--probe-rss", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_morekg()
    from workloads import WORKLOADS
    if args.probe_rss:
        return _child_probe_rss(args)
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    if args.seed is None:
        args.seed = wl.seed
    if args.prepare:
        return _child_prepare(wl, args)
    return measure(wl, args)


if __name__ == "__main__":
    sys.exit(main())
