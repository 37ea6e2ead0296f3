"""Differential tests for the scheduler's spin-alone completion fast path.

A static region's thread that finishes alone on its CPU skips the
dirty-CPU, sibling and share phases of ``Scheduler._update``
(``Scheduler._spin_alone``), and the bandwidth decision on that path may
come from a running estimate of the demand sum instead of an exact
re-sum.  Both are claimed to be invisible: every test here runs the same
scenario twice — as shipped, and with ``_spin_alone`` patched back to
the general ``_update`` — and requires bit-identical observables.
"""

from __future__ import annotations

import math

import pytest

from repro.harness.executor import SerialExecutor
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.sim.cpu import Topology
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.memory import MemorySystem
from repro.sim.scheduler import SchedParams, Scheduler
from repro.sim.task import Task
from tests.golden_cases import build_cases, run_case


def _general_spin_alone(self, task):
    """The completion as the general path handles it."""
    task.to_spin()
    self._update({task.cpu})


@pytest.fixture
def spin_alone_calls(monkeypatch):
    """Count fast-path hits, so a differential cannot pass vacuously."""
    calls = []
    fast = Scheduler._spin_alone

    def counted(self, task):
        fast(self, task)
        calls.append(self._demand_err)

    monkeypatch.setattr(Scheduler, "_spin_alone", counted)
    return calls


def _both_paths(monkeypatch, run):
    """``run()`` with the fast path, then with the general path."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(Scheduler, "_spin_alone", _general_spin_alone)
        general = run()
    return fast, general


# ----------------------------------------------------------------------
# seeded end-to-end scenarios
# ----------------------------------------------------------------------
_CASES = {c["name"]: c for c in build_cases()}

_SCENARIOS = {
    # no SMT, 48 streaming threads, bandwidth saturated
    "a64fx-saturated": dict(platform="a64fx", workload="minife", seed=7,
                            workload_params={"cg_iters": 6}),
    # SMT=2: the sibling's busy state feeds every share
    "amd-smt2-stream": dict(platform="amd-9950x3d", workload="babelstream", seed=8,
                            workload_params={"iters": 6}),
    # FIFO replay noise preempting the team (throttling off)
    "a64fx-fifo-replay": dict(_CASES["a64fx-replay-minife"], seed=9),
    # pinned (TP) vs roaming (Rm) under FIFO noise
    "intel-replay-tp": dict(_CASES["intel-replay"], seed=10, strategy="TP"),
    "intel-replay-rm": dict(_CASES["intel-replay"], seed=11, strategy="Rm"),
    # at most 4 streamers: every decision takes the exact sum
    "a64fx-4-streamers": dict(platform="a64fx", workload="minife", seed=12, n_threads=4,
                              workload_params={"cg_iters": 6}),
}


def _signature(name: str) -> dict:
    """Float-hex times, counters and executed-event counts of a scenario."""
    executed = []
    run_machine = Machine.run

    def counting_run(self, *args, **kwargs):
        result = run_machine(self, *args, **kwargs)
        executed.append(self.engine.events_executed)
        return result

    Machine.run = counting_run
    try:
        sig = run_case(dict(_SCENARIOS[name], name=name))
    finally:
        Machine.run = run_machine
    sig["events_executed"] = executed
    return sig


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_fast_path_matches_general_path(name, monkeypatch, spin_alone_calls):
    fast, general = _both_paths(monkeypatch, lambda: _signature(name))
    assert spin_alone_calls, f"{name}: the fast path never ran"
    assert fast == general


def test_estimate_decides_most_completions(spin_alone_calls):
    """On the saturated a64fx run the estimate (not the exact sum) takes
    most decisions; a regression to always-exact would still be
    bit-identical, so only this count shows it."""
    _signature("a64fx-saturated")
    estimated = sum(1 for err in spin_alone_calls if err > 0.0)
    assert estimated > len(spin_alone_calls) // 2


def test_fast_path_matches_through_run_experiment(monkeypatch):
    spec = ExperimentSpec(platform="a64fx", workload="minife", strategy="TP", reps=2, seed=13,
                          tracing=False, workload_params={"cg_iters": 4})

    def times():
        return [float(x).hex() for x in run_experiment(spec, executor=SerialExecutor()).times]

    fast, general = _both_paths(monkeypatch, times)
    assert fast == general


# ----------------------------------------------------------------------
# unit cases at the estimate's decision edges
# ----------------------------------------------------------------------
def _streaming_team(works, demand, bandwidth, tolerance=0.01):
    """Persistent pinned team, one thread per CPU, streaming ``demand``
    each; thread ``i`` gets ``works[i]`` seconds of work."""
    engine = Engine()
    sched = Scheduler(
        engine,
        Topology(n_physical=len(works), smt=1),
        memory=MemorySystem(bandwidth),
        params=SchedParams(mem_rescale_tolerance=tolerance),
    )
    done = []
    team = [Task(f"t{i}", affinity=frozenset({i}), pinned=True, persistent=True)
            for i in range(len(works))]
    for i, t in enumerate(team):
        sched.submit(t, cpu=i)
    for t, w in zip(team, works):
        t.on_complete = lambda t: done.append((t.name, engine.now.hex()))
        sched.assign_work(t, w, mem_demand=demand)
    sched.refresh_many(team)
    return engine, sched, team, done


def _run_team(works, demand, bandwidth, tolerance=0.01):
    engine, sched, team, done = _streaming_team(works, demand, bandwidth, tolerance)
    scales = []
    while engine.pending_count():
        engine.run(until=engine.next_event_time())
        scales.append(sched._mem_scale.hex())
    return {
        "done": done,
        "scales": scales,
        "cpu_time": [t.total_cpu_time.hex() for t in team],
        "events": engine.events_executed,
        "seq": engine._seq,
        "compactions": engine.compactions,
    }


def _drift(old_total, new_total, bandwidth):
    mem = MemorySystem(bandwidth)
    old = mem.scale_for(old_total)
    return abs(mem.scale_for(new_total) - old) / old


def test_drift_exactly_at_quarter_takes_exact_sum(monkeypatch, spin_alone_calls):
    # 10 streamers at demand 1 on bandwidth 5: scale 0.5.  Two finish
    # together, so the second departure leaves demand 8 (scale 0.625)
    # before the deferred rescale: drift is exactly 0.25 — not above it.
    assert _drift(10.0, 8.0, 5.0) == 0.25
    works = [1.0, 1.0] + [2.0] * 8
    fast, general = _both_paths(monkeypatch, lambda: _run_team(works, 1.0, 5.0))
    assert fast == general
    # first departure: estimated; second: the interval straddles 0.25
    assert spin_alone_calls[0] > 0.0
    assert spin_alone_calls[1] == 0.0


def test_drift_exactly_at_tolerance_takes_exact_sum(monkeypatch, spin_alone_calls):
    tolerance = _drift(10.0, 9.0, 5.0)
    works = [1.0] + [2.0] * 9
    fast, general = _both_paths(monkeypatch, lambda: _run_team(works, 1.0, 5.0, tolerance))
    assert fast == general
    # the estimate cannot tell "drift == tolerance" from "drift > tolerance"
    assert spin_alone_calls[0] == 0.0


@pytest.mark.parametrize("total", [9.0, 10.0])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_demand_within_an_ulp_of_bandwidth(monkeypatch, total, ulps):
    # 10 streamers at demand 1: the bandwidth sits within an ulp of the
    # demand before (10) or after (9) the first departure.
    bandwidth = total
    for _ in range(abs(ulps)):
        bandwidth = math.nextafter(bandwidth, math.inf if ulps > 0 else 0.0)
    works = [1.0] + [1.5] * 4 + [2.0] * 5
    fast, general = _both_paths(monkeypatch, lambda: _run_team(works, 1.0, bandwidth))
    assert fast == general


def test_four_streamers_always_take_exact_sum(monkeypatch, spin_alone_calls):
    works = [1.0, 1.25, 1.5, 1.75, 2.0]
    fast, general = _both_paths(monkeypatch, lambda: _run_team(works, 1.0, 2.5))
    assert fast == general
    assert spin_alone_calls and all(err == 0.0 for err in spin_alone_calls)


# ----------------------------------------------------------------------
# known issue, pinned until a fixture-regenerating change fixes it
# ----------------------------------------------------------------------
@pytest.mark.xfail(
    strict=True,
    reason="_apply_mem_rescale rates tasks as cpu_share * scale, dropping "
    "speed_penalty; fixing it changes the golden fixtures",
)
def test_deferred_rescale_keeps_speed_penalty():
    # Thread 1 carries a post-migration penalty.  Thread 0's early
    # departure moves the scale by ~11% (between the tolerance and
    # 0.25), which defers one rescale by mem_rescale_delay.
    engine, sched, team, _ = _streaming_team([1.0] + [3.0] * 9, 1.0, 5.0)
    slow = team[1]
    slow.speed_penalty = 0.97
    sched.refresh(slow)
    assert slow.rate == slow.cpu_share * sched._mem_scale * 0.97
    engine.run(until=2.0 + 2 * sched.params.mem_rescale_delay)
    assert sched._mem_scale == MemorySystem(5.0).scale_for(9.0)  # the rescale ran
    assert slow.rate == slow.cpu_share * sched._mem_scale * 0.97
