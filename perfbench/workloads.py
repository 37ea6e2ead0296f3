"""The benchmark's three workloads.

Each workload runs in *passes*.  A pass is a fixed amount of work whose
inputs derive from ``(workload seed, pass index)`` alone, and it ends
with its own output checks, outside the timed intervals.  The benchmark
runs passes until its time is up.

* ``sim-bound`` — the engine's static-region completion cascade is
  nearly all the time, so an event-loop change shows here first and no
  other layer works (its cache read-back is timed separately).
* ``paper-pipeline`` — the paper's three stages plus a Table-5-style
  grid, cold then warm: osnoise tracer, trace-replay injector, SYCL
  pools, ``repro.core`` and the result cache on both writes and reads.
* ``service-sweep`` — a sweep drained by one in-process worker: queue,
  lease, store, shard merge and collection dominate, simulation is cheap.

``repro`` is imported in :meth:`Workload.setup`, never at module import,
so the set-up probe times the program's imports.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from hostclock import HostClock, Interval

#: passes served from cache/store are repeated this many times per pass,
#: each bracketed on its own: they last milliseconds, so a single one
#: samples the host too briefly to report steadily
WARM_REPEATS = 5
#: a measured phase keeps going past its time until it has timed this
#: many simulating intervals, so the tail percentile has ten beyond it
MIN_CELLS = 30


def derive_seed(*parts) -> int:
    """A 31-bit seed that is a pure function of ``parts``."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def same_bytes(a, b) -> bool:
    """Two ResultSets hold bit-identical times, anomalies and failures."""
    return (
        a.times.tobytes() == b.times.tobytes()
        and list(a.anomalies) == list(b.anomalies)
        and len(a.failures) == len(b.failures)
    )


def entry_counts(root: Path) -> dict:
    """Result entries under a cache/store root and their total size."""
    entries = sorted(root.glob("*.json"))
    return {
        "entries_written": len(entries),
        "entry_bytes": sum(p.stat().st_size for p in entries),
    }


@dataclass
class Tally:
    """Timed intervals and operation outcomes of one measured phase."""

    clock: HostClock
    #: span recorder of a traced phase (``None`` when tracing is off)
    recorder: object = None
    reps: int = 0
    timed: list = field(default_factory=list)
    #: ``(interval, cells run)`` of operations that simulate
    cells: list = field(default_factory=list)
    #: per pass, ``(interval, cells served)`` of each repeat of the pass
    #: served from cache/store
    cached: dict = field(default_factory=dict)
    #: the pass being run (set by :func:`run_phase`)
    pass_index: int = 0
    #: ``(instant, raw wall seconds)`` of waits the program timed itself
    waits: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @contextmanager
    def op(self, label: str, fresh: bool = False):
        """Time one operation; the interval is yielded for filing.

        ``fresh`` takes reference brackets right before and after it,
        for short intervals that would otherwise share brackets with
        much other work.
        """
        scope = self.recorder.span(label) if self.recorder is not None else nullcontext()
        iv = self.clock.start(fresh)
        try:
            with scope:
                yield iv
        finally:
            self.clock.stop(iv, fresh)
            self.timed.append(iv)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def add_cached(self, iv: Interval, cells: int) -> None:
        self.cached.setdefault(self.pass_index, []).append((iv, cells))

    def add_cell(self, iv: Interval, rs) -> None:
        self.cells.append((iv, 1))
        self.reps += len(rs.times)
        self.check(not rs.failures, f"{rs.spec.label()}: {len(rs.failures)} failed reps")


class Workload:
    name = ""
    #: golden-equivalence cases replayed by the output check
    golden_cases: tuple = ()

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, k: int, tally: Tally) -> dict:
        """Run pass ``k``; returns its exact counts."""
        raise NotImplementedError

    def probe_spec(self):
        """The spec whose context resolution the traced run samples."""
        raise NotImplementedError

    def final_checks(self, tally: Tally) -> None:
        """Replay the golden slice, float-hex exact."""
        from tests.golden_cases import FIXTURE_PATH, build_cases, run_case

        from repro.harness.executor import SerialExecutor

        fixtures = json.loads((Path(__file__).resolve().parent.parent / FIXTURE_PATH).read_text())
        expected = {c["name"]: c for c in fixtures["cases"]}
        cases = {c["name"]: c for c in build_cases()}
        for name in self.golden_cases:
            got = run_case(cases[name], executor=SerialExecutor())
            tally.check(got["reps"] == expected[name]["reps"], f"golden case {name} diverged")

    def _pass_dir(self, tag) -> Path:
        path = self.workdir / f"{self.name}-pass{tag}"
        shutil.rmtree(path, ignore_errors=True)
        return path


# ----------------------------------------------------------------------
class SimBound(Workload):
    """a64fx/minife, OpenMP static, 48 threads, 2 reps per cell."""

    name = "sim-bound"
    golden_cases = ("a64fx-minife", "a64fx-replay-minife")
    CELLS_PER_PASS = 4
    REPS = 2
    READBACK_CELLS = 64

    def spec(self, seed: int):
        return self.ExperimentSpec(
            platform="a64fx",
            workload="minife",
            model="omp",
            strategy="Rm",
            reps=self.REPS,
            seed=seed,
            tracing=False,
            workload_params={"cg_iters": 40},
        )

    def setup(self) -> None:
        from repro.harness import experiment
        from repro.harness.cache import ResultCache
        from repro.harness.chunkrunner import resolved_context
        from repro.harness.executor import SerialExecutor

        self.ExperimentSpec = experiment.ExperimentSpec
        self.experiment = experiment
        self.ResultCache = ResultCache
        self.executor = SerialExecutor()
        resolved_context(self.spec(self.seed))
        self.first = None
        self.cache = None
        self.stored: dict = {}

    def run_pass(self, k: int, tally: Tally) -> dict:
        results = []
        for j in range(self.CELLS_PER_PASS):
            spec = self.spec(derive_seed(self.seed, k, j))
            with tally.op("cell") as iv:
                rs = self.experiment.run_experiment(spec, executor=self.executor)
            tally.add_cell(iv, rs)
            results.append((spec, rs))
        if self.first is None:
            self.first = results[0]
        # Read-back: the cells are stored untimed, then the latest
        # READBACK_CELLS stored cells (cycled while fewer exist) are served
        # from the result cache, so every pass reads the same amount; the
        # cold cells above never touch the cache.
        if self.cache is None:
            self.cache = self.ResultCache(self._pass_dir("cache"), executor=self.executor)
        written = []
        for spec, rs in results:
            rspec, stack, key = self.cache.resolve_cell(spec)
            self.cache.store_entry(key, rspec, stack, rs)
            self.stored[key] = (spec, rs)
            written.append(self.cache.entry_path(key))
        while len(self.stored) > self.READBACK_CELLS:
            del self.stored[next(iter(self.stored))]
        stored = list(self.stored.values())
        window = [stored[i % len(stored)] for i in range(-self.READBACK_CELLS, 0)]
        for _ in range(WARM_REPEATS):
            with tally.op("cached", fresh=True) as iv:
                backs = [self.cache.get_or_run(spec) for spec, _ in window]
            tally.add_cached(iv, len(window))
            for (spec, rs), back in zip(window, backs):
                tally.check(same_bytes(rs, back), f"{spec.label()}: read-back differs")
        tally.check(self.cache.misses == 0, "read-back pass missed the cache")
        return {
            "cells": len(results),
            "entries_written": len(written),
            "entry_bytes": sum(p.stat().st_size for p in written),
        }

    def probe_spec(self):
        return self.spec(self.seed)

    def final_checks(self, tally: Tally) -> None:
        super().final_checks(tally)
        spec, rs = self.first
        again = self.experiment.run_experiment(spec, executor=self.executor)
        tally.check(same_bytes(rs, again), f"{spec.label()}: re-run differs")


# ----------------------------------------------------------------------
class PaperPipeline(Workload):
    """intel-9700kf/minife: collect, configure, a 24-cell grid cold and warm."""

    name = "paper-pipeline"
    golden_cases = ("intel-replay", "intel-schedbench-guided-sycl")
    PLATFORM = "intel-9700kf"
    WORKLOAD = "minife"
    #: one rep per grid cell and a small collection keep a pass short:
    #: the warm pass's cost follows the size of the pass's generated
    #: config, so a run must average over many configs to be steady
    REPS = 1
    #: one collection batch (``min_degradation=0`` stops the worst-case
    #: hunt after it), so every pass simulates the same number of reps
    COLLECT_REPS = 8
    #: the pipeline's accelerated anomaly lottery during collection
    COLLECT_ANOMALY_PROB = 0.15
    #: injection runs see fresh inherent noise (as the campaigns do)
    INJECT_SEED_OFFSET = 1_000_003

    def setup(self) -> None:
        from repro.core import collection, config
        from repro.harness.cache import ResultCache
        from repro.harness.chunkrunner import resolved_context
        from repro.harness.executor import SerialExecutor
        from repro.harness.experiment import ExperimentSpec
        from repro.mitigation.strategies import STRATEGY_NAMES

        self.collection, self.config = collection, config
        self.ResultCache = ResultCache
        self.ExperimentSpec = ExperimentSpec
        self.strategies = STRATEGY_NAMES
        self.executor = SerialExecutor()
        resolved_context(self._collect_spec(self.seed))

    def _collect_spec(self, seed: int):
        return self.ExperimentSpec(
            self.PLATFORM, self.WORKLOAD, "omp", "Rm", reps=self.COLLECT_REPS,
            seed=seed, anomaly_prob=self.COLLECT_ANOMALY_PROB,
        )

    def run_pass(self, k: int, tally: Tally) -> dict:
        cache = self.ResultCache(self._pass_dir(k), executor=self.executor)
        cspec = self._collect_spec(derive_seed(self.seed, k, "collect"))
        with tally.op("collect"):
            col = self.collection.collect_traces(
                cspec, reps=self.COLLECT_REPS, min_degradation=0.0,
                profile_excludes_anomalies=True, executor=self.executor,
            )
        tally.reps += len(col.exec_times)
        with tally.op("configure"):
            cfg = self.config.generate_config(
                col.worst_trace, col.profile, meta={"collected_from": cspec.label()}
            )
        cold = []
        for model in ("omp", "sycl"):
            for strategy in self.strategies:
                spec = self.ExperimentSpec(
                    self.PLATFORM, self.WORKLOAD, model, strategy, reps=self.REPS,
                    seed=derive_seed(self.seed, k, model, strategy),
                )
                inject = spec.with_(seed=spec.seed + self.INJECT_SEED_OFFSET)
                for label, cell, noise in (("cell", spec, None), ("cell.inject", inject, cfg)):
                    with tally.op(label) as iv:
                        rs = cache.get_or_run(cell, noise=noise)
                    tally.add_cell(iv, rs)
                    cold.append((cell, noise, rs))
        for _ in range(WARM_REPEATS):
            with tally.op("cached", fresh=True) as iv:
                warm = [cache.get_or_run(cell, noise=noise) for cell, noise, _ in cold]
            tally.add_cached(iv, len(cold))
            for (cell, _, rs), back in zip(cold, warm):
                tally.check(same_bytes(rs, back), f"{cell.label()}: warm pass differs from cold")
        counts = {
            "cells": len(cold),
            "collect_runs": len(col.exec_times),
            "config_events": cfg.n_events,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            **entry_counts(cache.root),
        }
        shutil.rmtree(cache.root, ignore_errors=True)
        return counts

    def probe_spec(self):
        return self._collect_spec(self.seed)


# ----------------------------------------------------------------------
class ServiceSweep(Workload):
    """intel-9700kf/nbody: 300 single-rep cells + 20 sharded 6-rep cells."""

    name = "service-sweep"
    golden_cases = ("intel-nbody", "amd-schedbench-sycl")
    PLATFORM = "intel-9700kf"
    SINGLE_SEEDS = 150
    MULTI_SEEDS = 10
    MULTI_REPS = 6
    SHARD = 2
    MODELS = ("omp", "sycl")
    #: jobs drained per timed interval: a single job lasts a few
    #: milliseconds, too short to normalize steadily on its own
    DRAIN_GROUP = 12

    def setup(self) -> None:
        from repro.harness.chunkrunner import resolved_context
        from repro.harness.executor import SerialExecutor
        from repro.harness.experiment import ExperimentSpec, run_experiment
        from repro.service import JobQueue, ServiceClient, SharedResultStore, Worker

        self.JobQueue, self.SharedResultStore = JobQueue, SharedResultStore
        self.ServiceClient, self.Worker = ServiceClient, Worker
        self.run_experiment = run_experiment
        self.base = ExperimentSpec(self.PLATFORM, "nbody", reps=1, tracing=False)
        self.executor = SerialExecutor()
        for model in self.MODELS:
            resolved_context(self.base.with_(model=model))
        self._open(self._pass_dir("setup"))[0].close()

    def probe_spec(self):
        return self.base

    def _open(self, path: Path):
        queue = self.JobQueue(path / "queue.sqlite")
        store = self.SharedResultStore(path / "store")
        return queue, store, self.ServiceClient(queue, store, shard=self.SHARD)

    def _submit(self, client, k: int) -> list:
        sweeps = (
            (self.base, self.SINGLE_SEEDS, "single"),
            (self.base.with_(reps=self.MULTI_REPS), self.MULTI_SEEDS, "multi"),
        )
        return [
            client.submit_sweep(
                base, model=list(self.MODELS),
                seed=[derive_seed(self.seed, k, tag, i) for i in range(n)],
            )
            for base, n, tag in sweeps
        ]

    def run_pass(self, k: int, tally: Tally) -> dict:
        path = self._pass_dir(k)
        queue, store, client = self._open(path)
        worker = self.Worker(
            queue, store, worker_id=f"bench-{k}", executor=self.executor, poll_s=0.05
        )
        busy0 = queue.stats()["busy_retries"]
        try:
            with tally.op("submit"):
                sweeps = self._submit(client, k)
            depth = queue.counts()["queued"]
            drain_start = time.perf_counter()
            while True:
                with tally.op("drain") as iv:
                    ran = worker.run(drain=True, max_jobs=self.DRAIN_GROUP)
                if not ran:
                    break
                tally.cells.append((iv, ran))
            with tally.op("collect_sweep"):
                first = [client.collect_sweep(s) for s in sweeps]
            results = [rs for sweep in first for rs in sweep.results]
            tally.reps += sum(len(rs.times) for rs in results)
            for rs in results:
                tally.check(not rs.failures, f"{rs.spec.label()}: failed reps")
            for _ in range(WARM_REPEATS):
                with tally.op("resubmit", fresh=True) as iv:
                    again = [client.collect_sweep(s) for s in self._submit(client, k)]
                tally.add_cached(iv, len(results))
                for rs, back in zip(results, (rs for sweep in again for rs in sweep.results)):
                    tally.check(same_bytes(rs, back), f"{rs.spec.label()}: resubmission differs")
            sample = results[derive_seed(self.seed, k, "sample") % len(results)]
            local = self.run_experiment(sample.spec, executor=self.executor)
            tally.check(same_bytes(sample, local), f"{sample.spec.label()}: service != in-process")
            stats = worker.stats()
            status = queue.counts()
            tally.check(stats["jobs_failed"] == 0, f"{stats['jobs_failed']} jobs failed")
            tally.check(
                status["quarantined"] + status["failed"] == 0,
                f"{status['quarantined']} quarantined, {status['failed']} failed jobs",
            )
            # submit -> lease, from the queue's own wall-clock stamps
            tally.waits.extend(
                (drain_start, job.started_at - job.submitted_at)
                for job in queue.jobs()
                if job.started_at is not None
            )
            cstats = client.stats()
            return {
                "cells": len(results),
                "queue_depth": depth,
                "jobs_done": stats["jobs_done"],
                "chunks_done": stats["chunks_done"],
                "merges": stats["merges"],
                **entry_counts(store.root),
                "submitted": cstats["submitted"],
                "deduplicated": cstats["deduplicated"],
                "failed": stats["jobs_failed"] + status["quarantined"] + status["failed"],
                "busy_retries": queue.stats()["busy_retries"] - busy0,
            }
        finally:
            queue.close()
            shutil.rmtree(path, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SimBound, PaperPipeline, ServiceSweep)}


def run_phase(wl, tally, deadline: float, first_pass: int = 0, min_cells: int = MIN_CELLS) -> list:
    """Run passes until ``deadline`` and ``min_cells``; at least one pass.

    Returns each pass's exact counts, with the engine's event counters
    (which the program publishes only while telemetry is on).  An
    exception counts as a failed operation and ends the phase.
    """
    from repro import telemetry

    counts = []
    k = first_pass
    while True:
        before = telemetry.counters_snapshot().get("engine", {})
        tally.pass_index = k
        try:
            pass_counts = wl.run_pass(k, tally)
        except Exception:
            tally.attempted += 1
            tally.failed += 1
            tally.problems.append(traceback.format_exc())
            break
        after = telemetry.counters_snapshot().get("engine", {})
        for name in ("runs", "events_executed", "compactions"):
            pass_counts[f"engine_{name}"] = after.get(name, 0) - before.get(name, 0)
        counts.append(pass_counts)
        k += 1
        if time.perf_counter() >= deadline and len(tally.cells) >= min_cells:
            break
    return counts
