"""The metrics core: counters, gauges, fixed-bucket histograms.

Design constraints (docs/telemetry.md):

* **True no-op when disabled.**  Instrumented call sites do
  ``sink().incr(...)`` unconditionally; :func:`sink` returns either the
  process-local :class:`MetricsRegistry` or the module-level
  :data:`NULL` sink whose methods are empty.  No dict lookup, no
  branching at the call site — disabled cost is one global read plus a
  no-op method call, which the perf gate bounds at ≤5% on
  ``validation_workload(400)``.  Heavier per-frame accounting (the plan
  executor's observer) is additionally gated on ``sink().enabled`` so
  the disabled path allocates nothing.
* **Pickle-friendly snapshots.**  :meth:`MetricsRegistry.snapshot`
  returns plain dicts/lists/numbers — the same shape
  :class:`~repro.engine.snapshot.GraphSnapshot` uses to cross the
  process boundary — so engine workers can piggyback a
  snapshot on each task result and the coordinator merges it with
  :meth:`MetricsRegistry.merge`.
* **Deterministic merge semantics.**  Counters and histogram buckets
  add; gauges take the incoming value (last writer wins).  Merging is
  associative and commutative for counters/histograms, so the
  coordinator may fold worker snapshots in any order.

Thread safety: operations are plain dict updates under the GIL;
concurrent increments from several threads are best-effort (a lost
update is possible, a crash is not).  Violation results are never derived from
metrics, so the byte-identity contract is unaffected.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from typing import Any

#: Default histogram bucket upper bounds (counts-like metrics): powers
#: of two up to 1024, with an implicit +Inf overflow bucket.
DEFAULT_BOUNDS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Bucket upper bounds for duration metrics, in seconds.
SECONDS_BOUNDS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Histogram:
    """A fixed-bucket histogram: cumulative-friendly counts per bound.

    ``counts`` has ``len(bounds) + 1`` slots; the last is the +Inf
    overflow bucket.  Bounds are upper bounds (Prometheus ``le``
    semantics): an observation lands in the first bucket whose bound is
    ``>= value``.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (inclusive Prometheus ``le`` bounds)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def to_dict(self) -> dict[str, Any]:
        """A plain-dict, pickle/JSON-friendly copy."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, other: "Histogram | dict[str, Any]") -> None:
        """Add another histogram's buckets in (bounds must agree)."""
        if isinstance(other, Histogram):
            bounds, counts = other.bounds, other.counts
            total, n = other.sum, other.count
        else:
            bounds, counts = tuple(other["bounds"]), other["counts"]
            total, n = other["sum"], other["count"]
        if bounds != self.bounds:
            raise ValueError(
                f"histogram bound mismatch: {self.bounds} vs {bounds}"
            )
        for index, value in enumerate(counts):
            self.counts[index] += value
        self.sum += total
        self.count += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, sum={self.sum})"


class MetricsRegistry:
    """Process-local metric store: counters, gauges, histograms.

    The active registry is reached through :func:`sink`; call sites
    never hold a registry reference, so :func:`enable` /
    :func:`disable` / :func:`collecting` swap the target atomically.
    """

    enabled = True

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- writes --------------------------------------------------------
    def incr(self, name: str, value: int | float = 1) -> None:
        """Add ``value`` to a counter (created at 0)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge (last write wins)."""
        self.gauges[name] = value

    def observe(
        self, name: str, value: float, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> None:
        """Record one observation in a histogram (created on first use)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(bounds)
        histogram.observe(value)

    def merge_histogram(self, name: str, histogram: Histogram) -> None:
        """Fold a locally accumulated histogram in (bulk observe)."""
        mine = self.histograms.get(name)
        if mine is None:
            mine = self.histograms[name] = Histogram(histogram.bounds)
        mine.merge(histogram)

    # -- reads ---------------------------------------------------------
    def counter_value(self, name: str) -> int | float:
        """The counter's current value (0 when never incremented)."""
        return self.counters.get(name, 0)

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict, pickle-friendly copy of the current state."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self.histograms.items()
            },
        }

    # -- merge / reset -------------------------------------------------
    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (typically from a worker process) in.

        Counters sum; gauges take the incoming value; histogram bucket
        counts add element-wise (bounds must agree).
        """
        counters = self.counters
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        self.gauges.update(snapshot.get("gauges", {}))
        for name, payload in snapshot.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(
                    tuple(payload["bounds"])
                )
            histogram.merge(payload)

    def clear(self) -> None:
        """Drop every counter, gauge, and histogram."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )


class _NullSink:
    """The disabled sink: every write is a no-op, every read is empty."""

    enabled = False

    __slots__ = ()

    def incr(self, name: str, value: int | float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(
        self, name: str, value: float, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> None:
        pass

    def merge_histogram(self, name: str, histogram: Histogram) -> None:
        pass

    def counter_value(self, name: str) -> int:
        return 0

    def merge(self, snapshot: dict[str, Any]) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullSink()"


#: The singleton disabled sink.
NULL = _NullSink()

#: The persistent process-local registry :func:`enable` installs.
_REGISTRY = MetricsRegistry()

#: The active sink.  Call sites read it through :func:`sink`; it is the
#: only module state hot paths touch.
_SINK: MetricsRegistry | _NullSink = NULL


def sink() -> MetricsRegistry | _NullSink:
    """The active metrics sink (the registry when enabled, else NULL)."""
    return _SINK


def enabled() -> bool:
    """True while instrumentation routes into the real registry."""
    return _SINK.enabled


def enable() -> MetricsRegistry:
    """Route instrumentation into the process-local registry."""
    global _SINK
    _SINK = _REGISTRY
    return _REGISTRY


def disable() -> None:
    """Restore the no-op sink (the default)."""
    global _SINK
    _SINK = NULL


def registry() -> MetricsRegistry:
    """The persistent registry, whether or not it is the active sink."""
    return _REGISTRY


def snapshot() -> dict[str, Any]:
    """Snapshot the persistent registry (plain dicts, pickleable)."""
    return _REGISTRY.snapshot()


def merge_snapshot(payload: dict[str, Any]) -> None:
    """Fold a worker snapshot into the active sink (no-op if disabled)."""
    _SINK.merge(payload)


def reset() -> None:
    """Clear the persistent registry (the active sink is unchanged)."""
    _REGISTRY.clear()


@contextmanager
def collecting() -> Iterator[MetricsRegistry]:
    """Collect into a fresh registry, restoring the prior sink on exit.

    This is the worker-side half of cross-process aggregation: a task
    runs under ``collecting()``, snapshots the fresh registry, and ships
    the snapshot home on its result.  Worker processes are single-
    threaded per task, so swapping the module global is safe there.
    """
    global _SINK
    previous = _SINK
    fresh = MetricsRegistry()
    _SINK = fresh
    try:
        yield fresh
    finally:
        _SINK = previous


__all__ = [
    "DEFAULT_BOUNDS",
    "SECONDS_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "NULL",
    "collecting",
    "disable",
    "enable",
    "enabled",
    "merge_snapshot",
    "registry",
    "reset",
    "sink",
    "snapshot",
]
