"""Span tracing of cgolay's layers from outside the package.

The tracer replaces public functions of the package's modules with timing
wrappers while a traced round runs, and puts the originals back after it.
The pipeline looks its callees up as module attributes, so the wrappers
also see the calls the pipeline makes, including those in its forked
worker processes.

A span is one call: name, start and end (seconds since the tracer was
made; perf_counter is system-wide, so forked workers share the clock),
its own id, the id of the span open when it began, the round it belongs
to (run id), the process id, and counts: a summary of the call's result
plus the growth, during the call, of two per-process counters that are
too hot for a span per call -- PartnerChecker.__call__ (calls, conflict
verdicts, seconds) and core.is_golay_pair (calls, seconds, and seconds
spent inside a partner search).  Spans stay in memory; a forked worker
appends each finished span to its own file, which the parent merges.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

# counter slots carried in every span's counts, as deltas over the span
COUNTERS = ("cb_calls", "cb_conflicts", "cb_s", "verify_calls", "verify_s", "verify_search_s")


def _summaries(cg):
    """(owner, attribute, span name, result summary) of every wrapped call."""
    pipeline, filters, encoding, postprocess = cg.pipeline, cg.filters, cg.encoding, cg.postprocess
    return (
        (pipeline, "enumerate_pairs", "pipeline.enumerate_pairs", lambda r, a: {"pairs": len(r)}),
        (pipeline, "run_preprocessing", "pipeline.run_preprocessing",
         lambda r, a: {"evens": len(r[0]), "odds": len(r[1])}),
        (pipeline, "run_stage1", "pipeline.run_stage1", lambda r, a: {"survivors": len(r)}),
        (pipeline, "run_stage2", "pipeline.run_stage2", lambda r, a: {"pairs": len(r)}),
        (filters, "enumerate_half_candidates", "filters.enumerate_half_candidates",
         lambda r, a: {"kept": len(r)}),
        (filters, "half_hall_columns", "filters.half_hall_columns", lambda r, a: {"rows": len(a[0])}),
        (encoding, "find_partners", "encoding.find_partners", lambda r, a: {"partners": len(r)}),
        (postprocess, "build_omegas", "postprocess.build_omegas",
         lambda r, a: dict(zip(("sequences", "pairs", "classes"), r.counts))),
    )


class Tracer:
    def __init__(self, cg, spool_dir):
        self._cg = cg
        self._spool = spool_dir
        self._pid = os.getpid()
        self._t0 = time.perf_counter()
        self._serial = 0
        self._stack = []
        self._out = None
        self._out_pid = None
        self._saved = []
        self._searching = 0
        self.run_id = None
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        self._serial += 1
        rec = {
            "name": name,
            "id": f"{os.getpid()}:{self._serial}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "pid": os.getpid(),
            "start": time.perf_counter() - self._t0,
            "_base": dict(self.counters),
        }
        self._stack.append(rec)
        return rec

    def _close(self, rec, counts):
        rec["end"] = time.perf_counter() - self._t0
        self._stack.pop()
        base = rec.pop("_base")
        counts = dict(counts)
        for key in COUNTERS:
            counts[key] = self.counters[key] - base[key]
        rec["counts"] = counts
        if os.getpid() == self._pid:
            self.spans.append(rec)
            return
        # a forked worker: its memory dies with it, so spool every span
        if self._out_pid != os.getpid():
            self._out = open(self._spool / f"worker-{os.getpid()}.jsonl", "a")
            self._out_pid = os.getpid()
        self._out.write(json.dumps(rec) + "\n")
        self._out.flush()

    @contextlib.contextmanager
    def span(self, name, **counts):
        """A benchmark-level span; counts added inside the block are kept."""
        rec = self._open(name)
        try:
            yield counts
        finally:
            self._close(rec, counts)

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def install(self):
        for owner, attr, name, summary in _summaries(self._cg):
            self._patch(owner, attr, self._span_wrapper(name, summary))
        self._patch(self._cg.encoding.PartnerChecker, "__call__", self._callback_wrapper)
        self._patch(self._cg.core, "is_golay_pair", self._verify_wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, name, summary):
        searching = name == "encoding.find_partners"

        def make(original):
            def traced(*args, **kwargs):
                rec = self._open(name)
                self._searching += searching
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._searching -= searching
                self._close(rec, summary(result, args))
                return result

            return traced

        return make

    def _callback_wrapper(self, original):
        conflict = self._cg.progsat.Conflict
        counters = self.counters

        def traced(checker, solver):
            t = time.perf_counter()
            verdict = original(checker, solver)
            counters["cb_s"] += time.perf_counter() - t
            counters["cb_calls"] += 1
            if isinstance(verdict, conflict):
                counters["cb_conflicts"] += 1
            return verdict

        return traced

    def _verify_wrapper(self, original):
        counters = self.counters

        def traced(pair):
            t = time.perf_counter()
            verdict = original(pair)
            dt = time.perf_counter() - t
            counters["verify_calls"] += 1
            counters["verify_s"] += dt
            if self._searching:
                counters["verify_search_s"] += dt
            return verdict

        return traced

    # -- output ----------------------------------------------------------------

    def collect(self):
        """Every span so far: own ones plus those spooled by forked workers."""
        for path in sorted(self._spool.glob("worker-*.jsonl")):
            self.spans.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        self.spans.sort(key=lambda s: s["start"])
        return self.spans


class NoTracer:
    """Stand-in for untraced rounds: spans cost nothing."""

    @contextlib.contextmanager
    def span(self, name, **counts):
        yield counts


def process_roots(spans):
    """Spans with no parent in their own process: their counter deltas add up
    to every counter increment of the round without double counting."""
    pid_of = {s["id"]: s["pid"] for s in spans}
    return [s for s in spans if s["parent"] is None or pid_of.get(s["parent"]) != s["pid"]]


def under(spans, ancestor_name):
    """Ids of spans that have an ancestor (or are one) with the given name."""
    by_id = {s["id"]: s for s in spans}
    out = set()
    for s in spans:
        cur = s
        while cur is not None:
            if cur["name"] == ancestor_name:
                out.add(s["id"])
                break
            cur = by_id.get(cur["parent"])
    return out


def layer_metrics(spans, extra):
    """Per-layer figures of one traced round, plus its search durations (s).

    Calls made while resuming from a filled directory are kept out of the
    stage times; they make up pipeline.resume_s instead.
    """
    resumed = under(spans, "bench.resume")
    fresh = [s for s in spans if s["id"] not in resumed]

    def named(name):
        return [s for s in fresh if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def ratio(part, base):
        return part / base if base else 0.0

    roots = process_roots(spans)
    c = {key: sum(s["counts"][key] for s in roots) for key in COUNTERS}
    pre = named("pipeline.run_preprocessing")
    searches = named("encoding.find_partners")
    durations = [s["end"] - s["start"] for s in searches]
    omegas = named("postprocess.build_omegas")
    stage1_s = busy("pipeline.run_stage1")
    joins_tested = sum(s["counts"]["evens"] * s["counts"]["odds"] for s in pre)
    kept = sum(s["counts"]["kept"] for s in named("filters.enumerate_half_candidates"))
    screened = extra.get("halves_screened", 0)
    with_partner = sum(1 for s in searches if s["counts"]["partners"])
    search_s = sum(durations)
    inner = sum(s["counts"]["cb_s"] + s["counts"]["verify_search_s"] for s in searches)
    return {
        "pipeline.halves_s": busy("pipeline.run_preprocessing"),
        "pipeline.stage1_s": stage1_s,
        "pipeline.stage2_s": busy("pipeline.run_stage2"),
        "pipeline.resume_s": sum(s["end"] - s["start"] for s in spans if s["name"] == "bench.resume"),
        "pipeline.bytes_written": extra.get("bytes_written", 0),
        "filters.enumerate_halves_s": busy("filters.enumerate_half_candidates"),
        "filters.hall_columns_s": busy("filters.half_hall_columns"),
        "filters.halves_screened": screened,
        "filters.halves_kept": kept,
        "filters.halves_keep_ratio": ratio(kept, screened),
        "filters.joins_tested": joins_tested,
        "filters.joins_kept": sum(s["counts"]["survivors"] for s in named("pipeline.run_stage1")),
        "filters.joins_per_s": ratio(joins_tested, stage1_s),
        "encoding.members_searched": len(searches),
        "encoding.members_with_partner": with_partner,
        "encoding.useful_ratio": ratio(with_partner, len(searches)),
        "encoding.search_s": search_s,
        "encoding.callback_calls": c["cb_calls"],
        "encoding.conflicts": c["cb_conflicts"],
        "encoding.callback_s": c["cb_s"],
        "progsat.kernel_s": search_s - inner,
        "progsat.solutions": sum(s["counts"]["partners"] for s in searches),
        "core.verify_calls": c["verify_calls"],
        "core.verify_s": c["verify_s"],
        "postprocess.census_s": sum(s["end"] - s["start"] for s in omegas),
        "postprocess.pairs_closed": sum(s["counts"]["pairs"] for s in omegas),
        "postprocess.classes": sum(s["counts"]["classes"] for s in omegas),
    }, durations
