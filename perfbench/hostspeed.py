"""Latencies at a fixed reference host speed.

The benchmark runs on a few vCPUs of a shared machine, and their speed
drifts by a fifth or more over seconds to minutes as other tenants load the
same cores.  The same Example 2.1 answer, with the same hash seed, took 23%
longer in one process than in the next one; the whole gap was host speed.
Averaging over a longer run does not remove a drift that lasts minutes, so
the benchmark reads the host's speed with a fixed pure-Python loop that runs
none of the program's code, and reports its times at the speed at which
that loop takes ``REFERENCE_PROBE_S``.  A change to the program moves a
scaled time exactly as it moves the raw one; a change in the host's speed
does not.

* A closed-loop operation (one that only computes) is timed between two
  readings of :func:`probe_s` and scaled by the reference over their mean
  (:class:`ScaledClock`).  On the host above, this brought the per-process
  medians of each one-shot operation to within 3% of each other.
* An open loop is paced (:class:`HostPace`): its schedule is laid out in
  reference time and stretched by the host's current slowdown, and each
  request's latency is divided by the slowdown it was offered at.  Scaling
  the latencies alone would not do: on a slower host the same wall-clock
  rate keeps the event loop busier, and a drift that took the loop from 16%
  to 21% busy more than doubled the frontend's read p99.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

now = time.perf_counter

#: Iterations of one probe loop, about a millisecond.
PROBE_LOOPS = 20_000
#: What :func:`probe_s` reads at the reference speed: about its median on
#: the 2-vCPU host the benchmark's bounds were set on, so scaled latencies
#: read like raw ones there.
REFERENCE_PROBE_S = 0.0013


def loop_s(loops: int) -> float:
    """One run of the fixed loop."""
    start = now()
    total = 0
    for value in range(loops):
        total += value * value % 7
    return now() - start


def probe_s() -> float:
    """The fastest of three runs of the fixed loop: the host's current speed.

    The minimum drops a reading an interrupt or a context switch landed in;
    a slow host slows all three.
    """
    return min(loop_s(PROBE_LOOPS) for _ in range(3))


class HostPace:
    """The host's current slowdown against the reference, for an open loop.

    The probe runs on the event loop, so its loops are a quarter of the
    closed-loop ones (three take about a millisecond), and it runs at most
    every ``gap_s``; the slowdown follows the median of the last five
    readings, so one slow spell the length of a reading does not move it.
    """

    LOOPS = PROBE_LOOPS // 4

    def __init__(self, gap_s: float = 0.1) -> None:
        self.gap_s = gap_s
        self.readings: deque[float] = deque((self._read() for _ in range(5)), maxlen=5)
        self._probed_at = now()

    def _read(self) -> float:
        return min(loop_s(self.LOOPS) for _ in range(3)) * PROBE_LOOPS / self.LOOPS

    def slowdown(self) -> float:
        """Wall seconds per reference second at the moment."""
        if now() - self._probed_at >= self.gap_s:
            self.readings.append(self._read())
            self._probed_at = now()
        return statistics.median(self.readings) / REFERENCE_PROBE_S


class ScaledClock:
    """Scales the raw latencies of closed-loop operations to the reference speed.

    :meth:`record` queues an operation's raw latency; the next probe, taken
    once ``gap_s`` has passed since the last one (or by :meth:`flush`),
    scales every queued latency by the mean of the probes on either side of
    it.  The probe runs between operations, never inside a timed one.
    """

    def __init__(self, gap_s: float) -> None:
        self.gap_s = gap_s
        self.factors: list[float] = []
        self._pending: list[tuple[list, float]] = []
        self._probe = probe_s()
        self._probed_at = now()

    def record(self, samples: list, seconds: float) -> None:
        """Append ``seconds``, scaled and in milliseconds, to ``samples``."""
        self._pending.append((samples, seconds))
        if now() - self._probed_at >= self.gap_s:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        probe = probe_s()
        factor = REFERENCE_PROBE_S / ((self._probe + probe) / 2)
        self.factors.append(factor)
        for samples, seconds in self._pending:
            samples.append(seconds * factor * 1e3)
        self._pending.clear()
        self._probe = probe
        self._probed_at = now()

    def summary(self) -> dict:
        """The scale factors applied, for the run record."""
        return {
            "probes": len(self.factors),
            "factor_median": statistics.median(self.factors),
            "factor_min": min(self.factors),
            "factor_max": max(self.factors),
        }
