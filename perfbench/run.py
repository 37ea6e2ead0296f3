#!/usr/bin/env python3
"""Host-normalized benchmark of the simulator, pipeline and campaign service.

Run from the repository root::

    python3 perfbench/run.py --workload sim-bound --seed 1 --seconds 20 --trace 0

One process, serial execution, three workloads (see ``workloads.py``
and ``README.md``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run and checks
that its counts repeat exactly.  The last line of standard output is
one JSON object; the full run record (raw wall times, reference
timings, host and version details) and the traced run's spans go to
``perfbench/runs/``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from hostclock import HostClock  # noqa: E402
from workloads import WORKLOADS, Tally, run_phase  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
TAIL_BEYOND = 10

#: environment the benchmark pins (``None`` = removed), so that an
#: exported variable or a stale cache cannot change what is measured
PINNED_ENV = {
    "REPRO_JOBS": "1",
    "REPRO_SHARD_REPS": "0",
    "REPRO_TELEMETRY": "0",
    "REPRO_NO_CACHE": None,
    "REPRO_CHAOS": None,
    "REPRO_CHUNK_SIZE": None,
    "REPRO_BASELINE_REPS": None,
    "REPRO_INJECT_REPS": None,
    "REPRO_COLLECT_REPS": None,
}


def pin_env(workdir: Path) -> None:
    for name, value in PINNED_ENV.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    # SQLite and any library temp files stay inside the checkout too
    os.environ["TMPDIR"] = str(workdir)
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# ----------------------------------------------------------------------
def setup_probe(workload: str, workdir: Path, seed: int) -> None:
    """Child-process entry: set up once and report the time it took."""
    pin_env(workdir)
    WORKLOADS[workload](workdir, seed).setup()
    print(json.dumps({"setup_raw_s": time.perf_counter() - _T_START}))


def time_setups(clock, workload: str, workdir: Path, seed: int) -> list:
    """Time :data:`SETUP_PROBES` fresh processes from start to first operation."""
    probes = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        iv = clock.start()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--workdir", str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        clock.stop(iv)
        probes.append((iv, json.loads(out.stdout.splitlines()[-1])["setup_raw_s"]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return probes


def tail(values: list) -> tuple:
    """Highest percentile with :data:`TAIL_BEYOND` values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def cached_cell(clock, cached: dict) -> float:
    """Per-cell time served from cache: median over a pass's repeats
    (same input, so the median drops host noise), mean over passes
    (different inputs: a warm hit on an injected cell re-hashes that
    pass's generated config, whose size varies with the seed)."""
    per_pass = [
        statistics.median(clock.norm(iv) / n for iv, n in repeats)
        for repeats in cached.values()
    ]
    return statistics.fmean(per_pass)


def end_to_end(clock, tally, setups) -> tuple:
    """The end-to-end metrics and the raw figures behind them."""
    norm_total = sum(clock.norm(iv) for iv in tally.timed)
    raw_total = sum(iv.raw_s for iv in tally.timed)
    cells = [clock.norm(iv) / n for iv, n in tally.cells]
    tail_s, tail_pct, n_cells = tail(cells)
    metrics = {
        "setup_s": (statistics.median([raw * clock.scale(iv.t0) for iv, raw in setups]), "s"),
        "reps_per_s": (tally.reps / norm_total, "1/s"),
        "cell_p50_s": (statistics.median(cells), "s"),
        "cell_tail_s": (tail_s, "s"),
        "cached_cell_s": (cached_cell(clock, tally.cached), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "setup_raw_s": [raw for _, raw in setups],
        "reps_per_s_raw": tally.reps / raw_total,
        "cell_p50_raw_s": statistics.median([iv.raw_s / n for iv, n in tally.cells]),
        "cell_raw_s": [iv.raw_s / n for iv, n in tally.cells],
        "cell_tail_percentile": tail_pct,
        "cell_tail_beyond": TAIL_BEYOND,
        "cells": n_cells,
        "reps": tally.reps,
        "timed_raw_s": raw_total,
        "timed_norm_s": norm_total,
    }
    return metrics, raw


# ----------------------------------------------------------------------
def measure(args, workdir: Path) -> tuple:
    clock = HostClock()
    wl = WORKLOADS[args.workload](workdir, args.seed)
    setups = time_setups(clock, args.workload, workdir, args.seed) if not args.trace else []
    wl.setup()
    start = time.perf_counter()
    tally = Tally(clock)
    record: dict = {}
    if not args.trace:
        record["pass_counts"] = run_phase(wl, tally, start + args.seconds)
        clock.close()
        wl.final_checks(tally)
        metrics, record["raw"] = end_to_end(clock, tally, setups)
    else:
        from layers import traced_phase

        metrics = traced_phase(wl, clock, tally, start, args.seconds, record)
        if metrics is None:
            return None, tally, record
        wl.final_checks(tally)
    record["reference"] = clock.reference_record()
    return metrics, tally, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.workdir, args.seed)
        return 0

    # The reference loop only tracks the host if it runs on the same CPU
    # as the work: on a shared host the CPUs are loaded independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        pin_env(workdir)
        metrics, tally, record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        print("error: the traced run's counts did not repeat for the same seed:", file=sys.stderr)
        print(json.dumps(record.get("count_mismatch"), indent=1), file=sys.stderr)
        return 3

    import numpy

    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_rev=git_rev(),
        host_cpus=os.cpu_count(),
        host_cpus_usable=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=numpy.__version__,
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
