"""Benchmark of the cgolay package: one workload per invocation.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from its src
directory.  A run sets up (timed in fresh processes), then repeats whole
rounds of the workload until the next round would pass --seconds (with a
minimum round count), checks every output against the benchmark's own
computations, and prints one JSON object as its last line: correct,
attempted, failed, and the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1).  A traced run alternates untraced and
traced rounds, so it also measures the tracing overhead, and writes its
spans to .perfbench/trace/.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"

WORKLOADS = ("census", "refute", "lists", "queries")
SETUP_PROBES = 7

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
}

PER_LAYER = {
    "pipeline.halves_s": "s",
    "pipeline.stage1_s": "s",
    "pipeline.stage2_s": "s",
    "pipeline.resume_s": "s",
    "pipeline.bytes_written": "bytes",
    "filters.enumerate_halves_s": "s",
    "filters.hall_columns_s": "s",
    "filters.halves_screened": "count",
    "filters.halves_kept": "count",
    "filters.halves_keep_ratio": "ratio",
    "filters.joins_tested": "count",
    "filters.joins_kept": "count",
    "filters.joins_per_s": "1/s",
    "encoding.members_searched": "count",
    "encoding.members_with_partner": "count",
    "encoding.useful_ratio": "ratio",
    "encoding.search_s": "s",
    "encoding.search_p50_ms": "ms",
    "encoding.search_max_ms": "ms",
    "encoding.callback_calls": "count",
    "encoding.conflicts": "count",
    "encoding.callback_s": "s",
    "progsat.kernel_s": "s",
    "progsat.solutions": "count",
    "core.verify_calls": "count",
    "core.verify_s": "s",
    "postprocess.census_s": "s",
    "postprocess.pairs_closed": "count",
    "postprocess.classes": "count",
    "trace.overhead_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_package():
    """Import cgolay from this checkout's src, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    cg = importlib.import_module("cgolay")
    for module in ("core", "filters", "encoding", "progsat", "pipeline", "postprocess"):
        importlib.import_module(f"cgolay.{module}")
    if Path(cg.__file__).resolve().parent != (src / "cgolay").resolve():
        raise SystemExit(f"error: cgolay imported from {cg.__file__}, not {src}")
    return cg


def measure_setup(length, probes):
    """Median wall time of fresh processes importing cgolay and building a config.

    One untimed probe first, so byte-compiling a fresh checkout is not counted.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(length)]
    times = []
    for k in range(probes + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        if k:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def query_latencies(wl, rounds):
    """(p50, tail) in ms.  Queries: over every query, tail at the fixed
    percentile.  Enumeration: over lengths, each length's median time across
    rounds; the tail is the slowest length (too few samples for a percentile)."""
    if isinstance(wl, workloads.Queries):
        ms = [op.seconds * 1e3 for r in rounds for op in r.ops if op.output is not None]
        cut = statistics.quantiles(ms, n=100, method="inclusive")[workloads.TAIL_PERCENTILE - 1]
        return statistics.median(ms), cut
    per_length = {}
    for r in rounds:
        for op in r.ops:
            if op.output is not None:
                per_length.setdefault(op.key, []).append(op.seconds * 1e3)
    medians = [statistics.median(v) for v in per_length.values()]
    return statistics.median(medians), max(medians)


def run(name, seed, seconds, trace, smoke=False, workers=None):
    """One benchmark run; returns the result object to print."""
    wl = workloads.make(name, seed, smoke, workers)
    log(f"{name}: {wl.describe()}, seed {seed}, trace {trace}")
    setup_s = measure_setup(wl.setup_length, 1 if smoke else SETUP_PROBES)
    cg = load_package()

    work = STATE / "work" / str(os.getpid())
    spool = STATE / "trace" / f"spool-{os.getpid()}"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer(cg, spool) if trace else None
    untraced = spans.NoTracer()
    min_rounds = max(wl.min_rounds, 2) if trace else wl.min_rounds

    rounds, traced_rounds, layer_rows, search_durations = [], [], [], []
    correct, peak, error = True, None, None
    start = time.perf_counter()
    try:
        while True:
            t_round = time.perf_counter()
            done = len(rounds) + len(traced_rounds)
            is_traced = trace and done % 2 == 1
            if is_traced:
                tracer.run_id = f"{name}-seed{seed}-round{done}"
                tracer.install()
                try:
                    with tracer.span("bench.round", workload=name):
                        rnd = wl.run_round(cg, work, tracer)
                finally:
                    tracer.uninstall()
            else:
                rnd = wl.run_round(cg, work, untraced)
            shutil.rmtree(work, ignore_errors=True)
            (traced_rounds if is_traced else rounds).append(rnd)
            if peak is None:
                peak = peak_rss_mb()  # before any check allocates
            if is_traced:
                round_spans = [s for s in tracer.collect() if s["run"] == tracer.run_id]
                row, durations = spans.layer_metrics(round_spans, rnd.extra)
                layer_rows.append(row)
                search_durations.extend(durations)
            try:
                wl.check(rnd)
            except workloads.CheckFailed as exc:
                correct, error = False, str(exc)
                break
            now = time.perf_counter()
            if done + 1 >= min_rounds and (now - start) + (now - t_round) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(spool, ignore_errors=True)

    every = rounds + traced_rounds
    attempted = sum(len(r.ops) for r in every)
    failed = sum(r.failed for r in every)
    if error:
        log(f"CHECK FAILED: {error}")
    metrics = {}
    if not trace:
        wall = sum(r.wall for r in rounds)
        p50, tail = query_latencies(wl, rounds)
        values = {
            "wall_s": statistics.median(r.wall for r in rounds),
            "cpu_s": statistics.median(r.cpu for r in rounds),
            "peak_rss_mb": peak,
            "setup_s": setup_s,
            "queries_per_s": sum(len(r.ops) - r.failed for r in rounds) / wall,
            "query_p50_ms": p50,
            "query_tail_ms": tail,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        log(f"{len(rounds)} rounds, {attempted} operations, {time.perf_counter() - start:.1f} s; "
            f"round walls {[round(r.wall, 3) for r in rounds]}")
    elif traced_rounds:
        values = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
        ms = [d * 1e3 for d in search_durations]
        values["encoding.search_p50_ms"] = statistics.median(ms) if ms else 0.0
        values["encoding.search_max_ms"] = max(ms, default=0.0)
        values["trace.overhead_s"] = statistics.median(r.wall for r in traced_rounds) - statistics.median(
            r.wall for r in rounds
        )
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        out = STATE / "trace" / f"{name}-seed{seed}.jsonl"
        out.write_text("".join(json.dumps(s) + "\n" for s in tracer.spans))
        log(f"{len(rounds)} untraced + {len(traced_rounds)} traced rounds; spans in {out}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke():
    """Every workload at tiny sizes, untraced and traced, with every check on,
    plus the checkers' own tests and the metric names against BENCHMARK.json."""
    import test_checks

    for test in [getattr(test_checks, t) for t in dir(test_checks) if t.startswith("test_")]:
        test()
    log("checker tests passed")
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        data = json.loads(spec.read_text())
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in data[key]}
            if declared != table:
                raise SystemExit(f"BENCHMARK.json {key} disagrees with run.py")
        if [w["name"] for w in data["workloads"]] != list(WORKLOADS):
            raise SystemExit("BENCHMARK.json workloads disagree with run.py")
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            result = run(name, seed=1, seconds=0, trace=trace, smoke=True)
            ok &= result["correct"] and not result["failed"]
            log(f"smoke {name} trace={trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"({time.perf_counter() - t0:.1f} s)")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, help="override the workload's worker count")
    parser.add_argument("--smoke", action="store_true", help="all workloads at tiny sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cgolay" / "__init__.py").is_file():
        log(f"error: no cgolay package under {ROOT / 'src'}; run from a full checkout")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workers is not None and not 1 <= args.workers <= (os.cpu_count() or 1):
        parser.error("--workers must lie in 1..nproc")
    result = run(args.workload, args.seed, args.seconds, args.trace, workers=args.workers)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
