"""Structured runtime telemetry: hierarchical spans, counters, histograms.

A :class:`Telemetry` object is a per-run recorder.  Instrumented code never
holds one directly — it reads the module-level :data:`ACTIVE` slot, which is
``None`` unless a recorder has been installed:

* **hot loops** (join steps, fixpoint rounds, solver calls) hoist
  ``tel = telemetry.ACTIVE`` once and guard each record with
  ``if tel is not None`` — the disabled path costs exactly one module
  attribute load per instrumentation point, which is what keeps the fully
  instrumented engine within noise of the uninstrumented one;
* **coarse scopes** (an epoch, a grounding, a planner stage) use
  :func:`maybe_span`, which returns a shared no-op context manager while
  telemetry is disabled.

Spans are hierarchical: entering a span pushes it on the recorder's stack,
so spans opened inside it record it as their parent and the trace exporter
(:mod:`repro.obs.export`) can reconstruct the full tree.  Counters are
monotone numeric totals; histograms accumulate ``count/total/min/max`` per
metric name (enough for latency and size distributions without storing
samples).

Enable telemetry for a scope with :func:`enabled`::

    from repro.obs import enabled

    with enabled() as tel:
        session.insert_facts(batch)
        answers = session.certain_answers()
    print(tel.summary())

or install a recorder for the process lifetime with :func:`install`.
Recorders are deliberately not thread-safe: the engine is single-threaded
(sharded sessions run their shards in-process, one after another).
"""

from __future__ import annotations

import math
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "ACTIVE",
    "Histogram",
    "Reservoir",
    "Span",
    "Telemetry",
    "enabled",
    "install",
    "maybe_span",
    "now",
    "uninstall",
]

#: The repo's one monotone clock.  Engine and serving code time intervals
#: through this alias (``_telemetry.now()``) instead of importing
#: ``time.perf_counter`` directly — ``tools/lint_invariants.py`` (RL001)
#: confines raw ``perf_counter`` references to this package and the
#: benchmark harness, so there is a single seam for faking time.
now: Callable[[], float] = time.perf_counter


class Histogram:
    """Streaming ``count/total/min/max`` accumulator for one metric."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def describe(self) -> dict[str, float | None]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class Reservoir:
    """Sliding-window sample store with nearest-rank quantile queries.

    :class:`Histogram` deliberately stores no samples, so it cannot answer
    p50/p99 — the figures the serving frontend reports per tenant.  A
    ``Reservoir`` keeps the most recent ``capacity`` observations in a
    bounded deque; :meth:`quantile` sorts on demand (queries are rare
    relative to observations).  Like the rest of this module it is not
    thread-safe, which is fine: the frontend is a single-threaded asyncio
    loop.
    """

    __slots__ = ("_samples",)

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"Reservoir capacity must be >= 1, got {capacity}")
        self._samples: deque[float] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._samples)

    def observe(self, value: float) -> None:
        self._samples.append(value)

    def quantile(self, q: float) -> float | None:
        """The nearest-rank ``q``-quantile of the window (None when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[index]

    def describe(self) -> dict[str, float | int | None]:
        return {
            "count": len(self._samples),
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


class Span:
    """One recorded scope: name, wall-clock interval, attributes, parent.

    ``parent`` is the index of the enclosing span in
    :attr:`Telemetry.spans` (or ``None`` for a root), assigned at *open*
    time from the recorder's span stack — which is what gives the exporter
    a well-formed tree without the instrumentation threading context
    objects through every call.  ``duration_s`` is ``None`` while the span
    is still open.
    """

    __slots__ = ("name", "index", "parent", "start_s", "duration_s", "attributes")

    def __init__(self, name: str, index: int, parent: int | None, start_s: float) -> None:
        self.name = name
        self.index = index
        self.parent = parent
        self.start_s = start_s
        self.duration_s: float | None = None
        self.attributes: dict[str, object] | None = None

    def set(self, **attributes: object) -> None:
        """Attach attributes to the span (merged over earlier ones)."""
        if self.attributes is None:
            self.attributes = attributes
        else:
            self.attributes.update(attributes)

    def describe(self) -> dict[str, object]:
        info: dict[str, object] = {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.attributes:
            info["attributes"] = dict(self.attributes)
        return info


class _SpanHandle:
    """Context manager closing one span (and popping the recorder stack)."""

    __slots__ = ("_telemetry", "span")

    def __init__(self, telemetry: Telemetry, span: Span) -> None:
        self._telemetry = telemetry
        self.span = span

    def set(self, **attributes: object) -> None:
        self.span.set(**attributes)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self._telemetry._close(self.span)


class _NoopSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()
    span: None = None

    def set(self, **attributes: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Telemetry:
    """A telemetry recorder: span tree + typed counters + histograms.

    ``clock`` is injectable for tests; it must be monotone (the default is
    :func:`time.perf_counter`).  All span timestamps are relative to the
    recorder's own ``epoch_s`` (the clock reading at construction), so
    exported traces start at t=0.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.epoch_s = clock()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self._stack: list[Span] = []

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, **attributes: object) -> _SpanHandle:
        """Open a span; use as a context manager (closing pops the stack)."""
        parent = self._stack[-1].index if self._stack else None
        span = Span(name, len(self.spans), parent, self._clock() - self.epoch_s)
        if attributes:
            span.attributes = attributes
        self.spans.append(span)
        self._stack.append(span)
        return _SpanHandle(self, span)

    def _close(self, span: Span) -> None:
        span.duration_s = self._clock() - self.epoch_s - span.start_s
        # Tolerate mis-nested closes (an exception unwound past an open
        # child): pop through to the closing span so the stack never leaks.
        while self._stack:
            if self._stack.pop() is span:
                break

    def event(self, name: str, **attributes: object) -> None:
        """Record an instant event: a zero-duration span at the current time."""
        parent = self._stack[-1].index if self._stack else None
        span = Span(name, len(self.spans), parent, self._clock() - self.epoch_s)
        span.duration_s = 0.0
        if attributes:
            span.attributes = attributes
        self.spans.append(span)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    # -- counters and histograms -----------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the monotone counter ``name``."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + value

    def record(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # -- views -----------------------------------------------------------------

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def describe(self) -> dict[str, object]:
        """A JSON-able dump of everything recorded so far."""
        return {
            "spans": [span.describe() for span in self.spans],
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: histogram.describe()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def summary(self, top: int = 20) -> str:
        """The time-annotated span tree plus top counters (see exporter)."""
        from .export import text_summary

        return text_summary(self, top=top)

    def chrome_trace(self) -> dict[str, object]:
        """The Chrome trace-event document (see exporter)."""
        from .export import chrome_trace

        return chrome_trace(self)


#: The installed recorder, or ``None`` while telemetry is disabled.  Hot
#: paths read this exactly once per instrumentation point.
ACTIVE: Telemetry | None = None


def install(telemetry: Telemetry | None = None) -> Telemetry:
    """Install (and return) a recorder as the process-wide :data:`ACTIVE`."""
    global ACTIVE
    if telemetry is None:
        telemetry = Telemetry()
    ACTIVE = telemetry
    return telemetry


def uninstall() -> None:
    """Disable telemetry (restore the one-attribute-load no-op path)."""
    global ACTIVE
    ACTIVE = None


@contextmanager
def enabled(telemetry: Telemetry | None = None) -> Iterator[Telemetry]:
    """Enable telemetry for a ``with`` scope, restoring the previous state.

    Yields the recorder, so the scope's spans/counters can be exported
    after the block::

        with enabled() as tel:
            session.certain_answers()
        trace = tel.chrome_trace()
    """
    global ACTIVE
    previous = ACTIVE
    recorder = telemetry if telemetry is not None else Telemetry()
    ACTIVE = recorder
    try:
        yield recorder
    finally:
        ACTIVE = previous


def maybe_span(name: str, **attributes: object) -> "_SpanHandle | _NoopSpan":
    """A span on the active recorder, or the shared no-op when disabled.

    The disabled cost is one module attribute load, a comparison and the
    (empty) context-manager protocol — use it for per-epoch / per-stage
    scopes; inner loops should hoist ``tel = ACTIVE`` themselves.
    """
    tel = ACTIVE
    if tel is None:
        return NOOP_SPAN
    return tel.span(name, **attributes)
