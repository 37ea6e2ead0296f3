"""Scheduler: ranks queued cells for lease order.

Scoring is a pure function of the queue database and the clock, so the
ranking is reproducible from the queue file alone::

    score = priority * w.priority
          + age_s    * w.aging
          - expected_s * w.runtime
          + (1 if store had the key at submit) * w.cache_hit
          + (1 if a chunk of an in-flight cell)  * w.shard_progress
          - distinct_dead_workers * w.hazard

* **priority** — client-assigned urgency, the dominant term;
* **aging** — seconds since submission, so starved low-priority work
  eventually overtakes fresh high-priority work;
* **expected runtime** — the resolved-context duration estimate times
  the rep count, recorded at submit; shorter cells first empties the
  queue fastest (smallest-job-first) without starving long ones
  (aging wins eventually);
* **cache-hit probability** — cells whose key already had a store
  entry at submit are near-free (the worker serves them from the
  store), so they jump the queue and unblock waiting clients early;
* **shard progress** — a chunk whose sibling chunks are already leased
  or done belongs to a cell that is *partially computed*: finishing it
  releases a whole merged result, while starting a fresh cell merely
  begins another.  Preferring in-flight cells bounds the number of
  half-done parents and cuts sweep tail latency;
* **hazard** — a job that has already killed a worker mid-lease
  (recorded in its death history) is demoted below fresh work: if it
  is poisonous, healthy cells finish first and fewer workers die
  confirming it before the dead-letter quarantine trips.

Ties break deterministically by submission time then key, so two
schedulers over the same snapshot produce the same order.  The score
runs inside SQLite as the ``ORDER BY`` of the lease query
(:meth:`Scheduler.order_by`), so a lease decodes only the rows it
claims, however deep the queue.  Scheduling affects *when* a cell
runs, never *what* it computes — results are content-keyed and
bit-identical in any execution order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["Scheduler", "SchedulerWeights"]


@dataclass(frozen=True)
class SchedulerWeights:
    """Relative weights of the five scoring terms (score units are
    arbitrary; only differences matter)."""

    #: per unit of client-assigned priority
    priority: float = 100.0
    #: per second of queue age — a cell gains one priority unit's worth
    #: of score every ``priority / aging`` seconds of waiting
    aging: float = 1.0
    #: per second of expected runtime (subtracted: shortest-first)
    runtime: float = 10.0
    #: flat bonus for cells already present in the shared store
    cache_hit: float = 1000.0
    #: flat bonus for chunk sub-jobs whose cell is already in flight
    #: (some sibling chunk leased or done) — finish before starting.
    #: Below ``cache_hit`` (store-served cells stay near-free) and above
    #: five priority units, so only an explicitly urgent fresh cell
    #: preempts completing a half-done one.
    shard_progress: float = 500.0
    #: penalty per *distinct worker* a job has already killed mid-lease
    #: — suspected-poisonous work runs after healthy work, so a bad cell
    #: takes out the fleet as late and as rarely as possible.  Scaled
    #: like ``shard_progress`` so one death roughly cancels the
    #: in-flight bonus and outweighs five priority units.
    hazard: float = 500.0


#: the score of one queued ``jobs`` row, as SQL: the terms of the
#: module docstring in its order, left to right, so SQLite's IEEE
#: doubles reproduce the float arithmetic term for term.  A chunk is in
#: flight when some sibling is leased or done (``idx_jobs_parent``); a
#: death with a missing or null ``worker`` counts as one distinct worker.
#: The NULL checks skip both subqueries on the common row (a whole
#: cell that never lost a worker), where each would add the same 0.
_SCORE_SQL = """
    priority * :w_priority
    + MAX(0.0, :now - submitted_at) * :w_aging
    - expected_s * :w_runtime
    + CASE WHEN cached THEN :w_cache_hit ELSE 0.0 END
    + CASE WHEN parent IS NOT NULL AND EXISTS (
          SELECT 1 FROM jobs AS sib WHERE sib.parent = jobs.parent
          AND sib.status IN ('leased', 'done')
      ) THEN :w_shard_progress ELSE 0.0 END
    - CASE WHEN deaths IS NULL THEN 0 ELSE (
          SELECT COUNT(DISTINCT json_quote(json_extract(value, '$.worker')))
          FROM json_each(jobs.deaths)) END * :w_hazard"""


class Scheduler:
    """Deterministic lease order over the queue's ``jobs`` table."""

    def __init__(self, weights: SchedulerWeights | None = None):
        self.weights = weights if weights is not None else SchedulerWeights()

    def order_by(self, now: float) -> tuple[str, dict]:
        """``ORDER BY`` clause of lease order and its bound parameters:
        descending score, then submission time, then key."""
        params = {f"w_{k}": float(v) for k, v in asdict(self.weights).items()}
        params["now"] = float(now)
        return f"{_SCORE_SQL} DESC, submitted_at, key", params
