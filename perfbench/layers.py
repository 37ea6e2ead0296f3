"""The traced run: per-layer metrics from benchmark-side spans.

The phase has three parts on one host clock:

1. an untraced half (``telemetry.overhead`` compares against it);
2. traced pass 0, run twice: the counts of the two runs must be equal
   (same seed, same inputs), or the benchmark reports an error instead
   of numbers;
3. further traced passes until the time is up.

Times are medians of host-normalized span durations; counts come from
pass 0, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path

from tracer import LAYER_OF, SpanRecorder
from workloads import Tally, run_phase

LAYERS = ("sim", "harness", "core", "cache", "service", "other")
#: resolve_context is memoised per process, so its cost is sampled
#: explicitly this many times
RESOLVE_SAMPLES = 5


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def traced_phase(wl, clock, tally, start, seconds, record):
    """Run the traced phase; returns the per-layer metrics (or ``None``)."""
    from repro import telemetry
    from repro.harness import experiment

    untraced = Tally(clock)
    run_phase(wl, untraced, start + seconds / 2, min_cells=1)
    recorder = SpanRecorder()
    tally.recorder = recorder
    telemetry.configure(enabled=True)
    recorder.install()
    try:
        first = run_phase(wl, tally, 0.0, min_cells=0)
        repeat = run_phase(wl, tally, 0.0, min_cells=0)
        if first != repeat:
            record["count_mismatch"] = {"first": first, "repeat": repeat}
            return None
        rest = run_phase(wl, tally, start + seconds, first_pass=1, min_cells=0)
        spec = wl.probe_spec()
        for _ in range(RESOLVE_SAMPLES):
            with recorder.span("resolve"):
                experiment.resolve_context(spec)
    finally:
        recorder.uninstall()
        telemetry.configure(enabled=False)
        telemetry.drain_events()
    clock.close()
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.problems += untraced.problems
    counts = first + repeat + rest
    record["pass_counts"] = counts
    runs = Path(__file__).resolve().parent / "runs"
    runs.mkdir(exist_ok=True)
    spans_path = runs / f"{wl.name}-seed{wl.seed}-trace1.spans.jsonl"
    recorder.write(spans_path, clock.norm_span)
    record["spans"] = spans_path.name
    return layer_metrics(recorder, clock, tally, untraced, counts)


def layer_metrics(recorder, clock, tally, untraced, counts) -> dict:
    """Every per-layer metric; layers a workload does not exercise read 0."""
    spans = recorder.spans
    dur = {sid: clock.norm_span(t0, t1) for sid, _p, _n, t0, t1 in spans}
    name = {sid: n for sid, _p, n, _t0, _t1 in spans}
    parent = {sid: p for sid, p, _n, _t0, _t1 in spans}
    children = defaultdict(list)
    for sid, p, _n, _t0, _t1 in spans:
        if p is not None:
            children[p].append(sid)

    def named(*names):
        return [sid for sid in dur if name[sid] in names]

    def child_time(sid, *names):
        return sum(dur[c] for c in children[sid] if name[c] in names)

    def ancestor(sid, names):
        while sid is not None and name[sid] not in names:
            sid = parent[sid]
        return None if sid is None else name[sid]

    c0 = counts[0]
    total = defaultdict(float)
    for c in counts:
        for key, value in c.items():
            total[key] += value
    reps = named("run_resolved")
    rep_in = defaultdict(list)
    for sid in reps:
        rep_in[ancestor(sid, ("cell", "cell.inject"))].append(dur[sid])
    get_or_run = named("ResultCache.get_or_run")
    misses = {s for s in get_or_run if child_time(s, "run_experiment") > 0}
    hits = [s for s in get_or_run if s not in misses]
    cells = c0.get("cells", 0)
    self_time = recorder.self_times(clock.norm_span)
    by_layer = defaultdict(float)
    for sid, value in self_time.items():
        by_layer[LAYER_OF.get(name[sid], "other")] += value
    traced_rate = _ratio(tally.reps, sum(clock.norm(iv) for iv in tally.timed))
    untraced_rate = _ratio(untraced.reps, sum(clock.norm(iv) for iv in untraced.timed))

    metrics = {
        "sim.rep_s": (_median(dur[s] for s in reps), "s"),
        "sim.events_per_rep": (_ratio(c0["engine_events_executed"], c0["engine_runs"]), "count"),
        "sim.ns_per_event": (
            1e9 * _ratio(sum(dur[s] for s in reps), total["engine_events_executed"]), "ns"),
        "sim.compactions_per_rep": (_ratio(c0["engine_compactions"], c0["engine_runs"]), "count"),
        "noise.inject_ratio": (
            _ratio(_mean(rep_in["cell.inject"]), _mean(rep_in["cell"])), "ratio"),
        "core.collect_s": (_median(dur[s] for s in named("collect_traces")), "s"),
        "core.collect_runs": (c0.get("collect_runs", 0), "count"),
        "core.configure_s": (_median(dur[s] for s in named("generate_config")), "s"),
        "core.config_events": (c0.get("config_events", 0), "count"),
        "harness.resolve_s": (_median(dur[s] for s in named("resolve_context")), "s"),
        "harness.dispatch_s": (
            _median(dur[s] - child_time(s, "run_resolved") for s in named("run_experiment")), "s"),
        "cache.miss_store_s": (
            _median(dur[s] - child_time(s, "run_experiment") for s in misses), "s"),
        "cache.hit_s": (_median(dur[s] for s in hits), "s"),
        "cache.entry_kb": (_ratio(c0.get("entry_bytes", 0), c0.get("entries_written", 0)) / 1024, "kB"),
        "cache.hit_ratio": (_ratio(len(hits), len(get_or_run)), "ratio"),
        "service.submit_s": (
            _ratio(_median(dur[s] for s in named("submit")), cells), "s"),
        "service.lease_s": (_median(dur[s] for s in named("JobQueue.lease")), "s"),
        "service.queue_depth": (c0.get("queue_depth", 0), "count"),
        "service.queue_wait_p50_s": (
            _median(raw * clock.scale(at) for at, raw in tally.waits), "s"),
        "service.publish_s": (
            _median(dur[s] for s in named("SharedResultStore.store_chunk",
                                          "SharedResultStore.store_entry")), "s"),
        "service.merge_s": (_median(dur[s] for s in named("SharedResultStore.merge_chunks")), "s"),
        "service.collect_s": (
            _ratio(_median(dur[s] for s in named("collect_sweep")), cells), "s"),
        "service.dedup_ratio": (
            _ratio(c0.get("deduplicated", 0), c0.get("submitted", 0) + c0.get("deduplicated", 0)), "ratio"),
        "service.busy_retries": (c0.get("busy_retries", 0), "count"),
        "service.failed": (total["failed"], "count"),
        "telemetry.overhead": (_ratio(untraced_rate, traced_rate), "ratio"),
    }
    traced = sum(self_time.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (_ratio(by_layer[layer], traced), "ratio")
    return metrics


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0
