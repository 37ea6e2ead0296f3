"""Host-normalized timing.

On a shared host the same simulated rep can take twice as long from one
second to the next, depending on what other tenants run.  Wall time
alone cannot repeat within a tenth, so every interval this benchmark
reports is divided by the speed of a fixed pure-Python reference loop,
sampled just before and just after it in the same process, and scaled
back to seconds at a nominal reference speed.  The reference loop calls
no program code: host drift cancels, program changes do not.

A *bracket* is the median of several reference samples (one slow sample
must not skew a whole bracket).  Brackets are taken between timed
intervals, at most :data:`REFRESH_S` of timed work apart, and before the
first and after the last interval, so every interval lies between two
brackets and is normalized by their mean.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time
from dataclasses import dataclass, field

#: nominal duration of one reference sample; a normalized second is a
#: second on a host that runs the reference loop in this time
NOMINAL_REF_S = 0.002
#: reference samples per bracket (the bracket value is their median)
SAMPLES = 5
#: timed work allowed between two brackets
REFRESH_S = 0.1
#: iterations of the two halves of one reference sample (about 1 ms each
#: on an uncontended host)
_ARITH_ITERS = 15000
_EVENT_ITERS = 2000


class _Thread:
    __slots__ = ("rate", "work", "steps")

    def __init__(self, rate: float):
        self.rate = rate
        self.work = 1.0
        self.steps = 0


def reference_sample() -> float:
    """Seconds for one pass of the fixed reference loop.

    Two halves: integer arithmetic, and a toy event loop (a heap of
    ``(time, seq, thread)`` tuples, slotted objects, a dict) shaped like
    the simulator's engine but sharing no code with it.  Under host
    contention each half alone slowed by a factor that matched the
    simulator's in some periods and not others (the arithmetic half
    under-reacts when the event half over-reacts); their sum tracked it
    best over time (spread of the means of 40-rep blocks of a64fx/minife
    reps: 1.7%, against 2.8-3.2% for either half alone and 9.8% raw).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(_ARITH_ITERS):
        acc = (acc * 31 + i) & 0xFFFFF
    threads = [_Thread(1.0 + 0.01 * i) for i in range(48)]
    heap = [(0.0, i, th) for i, th in enumerate(threads)]
    seen: dict = {}
    seq = len(heap)
    for _ in range(_EVENT_ITERS):
        now, _, th = heapq.heappop(heap)
        th.steps += 1
        th.rate = th.rate * 0.999 + 0.002
        seen[th.steps & 63] = now
        seq += 1
        heapq.heappush(heap, (now + th.work / th.rate, seq, th))
    return time.perf_counter() - t0


@dataclass
class Interval:
    """One timed interval: raw ``perf_counter`` stamps."""

    t0: float
    t1: float = 0.0

    @property
    def raw_s(self) -> float:
        return self.t1 - self.t0


@dataclass
class HostClock:
    """Times intervals and normalizes them against reference brackets."""

    #: ``(stamp, median, samples)`` per bracket, in time order
    brackets: list = field(default_factory=list)
    _stamps: list = field(default_factory=list)
    _since: float = float("inf")

    def bracket(self) -> None:
        samples = [reference_sample() for _ in range(SAMPLES)]
        self._stamps.append(time.perf_counter())
        self.brackets.append((self._stamps[-1], statistics.median(samples), samples))
        self._since = 0.0

    def start(self, fresh: bool = False) -> Interval:
        """Open an interval, bracketing first when one is due or ``fresh``."""
        if fresh or self._since >= REFRESH_S:
            self.bracket()
        return Interval(time.perf_counter())

    def stop(self, iv: Interval, fresh: bool = False) -> Interval:
        """Close an interval; ``fresh`` brackets right after it too."""
        iv.t1 = time.perf_counter()
        self._since += iv.raw_s
        if fresh:
            self.bracket()
        return iv

    def close(self) -> None:
        """Take the closing bracket; call once all intervals are done."""
        self.bracket()

    def scale(self, t: float) -> float:
        """Nominal seconds per raw second at instant ``t``.

        ``t`` must lie inside a timed interval, i.e. between two
        brackets.
        """
        i = bisect.bisect_right(self._stamps, t)
        if i == 0 or i == len(self._stamps):
            raise ValueError("instant outside the bracketed span; call close() first")
        ref = 0.5 * (self.brackets[i - 1][1] + self.brackets[i][1])
        return NOMINAL_REF_S / ref

    def norm(self, iv: Interval) -> float:
        """Host-normalized duration of ``iv`` in nominal seconds."""
        return iv.raw_s * self.scale(iv.t0)

    def norm_span(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.scale(t0)

    def reference_record(self) -> dict:
        """Raw reference timings for the run record."""
        return {
            "nominal_ref_s": NOMINAL_REF_S,
            "samples_per_bracket": SAMPLES,
            "refresh_s": REFRESH_S,
            "bracket_medians_s": [b[1] for b in self.brackets],
            "samples_s": [b[2] for b in self.brackets],
        }
