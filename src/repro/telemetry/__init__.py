"""repro.telemetry — metrics, spans, and plan-execution profiling.

The observability substrate of the layered runtime (docs/telemetry.md):

* :mod:`repro.telemetry.metrics` — the process-local
  :class:`MetricsRegistry` (counters / gauges / fixed-bucket
  histograms) behind a swap-in :func:`sink`; disabled (the default) it
  is the no-op :data:`NULL` sink, so instrumentation costs one global
  read per event and the violation streams stay byte-identical.
* :mod:`repro.telemetry.spans` — nested timed sections with NDJSON
  export (``--telemetry ndjson:<path>`` on the CLI), one-shot or
  incrementally flushed per batch.
* :mod:`repro.telemetry.trace` — the cross-boundary half of spans: a
  pickle/JSON-friendly :class:`TraceContext` carried through worker
  task payloads and serve wire frames, plus :func:`assemble_traces` to
  rebuild one causal tree per update batch.
* :mod:`repro.telemetry.slowlog` — ring-buffered observed
  match-plan captures (:func:`~repro.matching.plan.explain_pools`) for
  shard executions over a configurable latency threshold.
* cross-process aggregation — engine/fragment workers run tasks under
  :func:`collecting` and piggyback plain-dict snapshots on task
  results (worker spans and slow plans ride the same snapshot); the
  coordinator folds them in with :func:`merge_snapshot` and
  :func:`absorb_remote`.
* :mod:`repro.telemetry.prometheus` — text-exposition formatting,
  mounted live on the serve layer's ``/metrics`` route.
* :mod:`repro.telemetry.report` — derived headline stats (escalated-
  pivot share, warm-pool hit rate, border-replica share), the
  ``cli stats`` text dump, and the ``cli trace`` tree rendering.

Stdlib-only by design: every other ``repro`` layer imports this one,
so it imports none of them.
"""

from repro.telemetry.metrics import (
    DEFAULT_BOUNDS,
    SECONDS_BOUNDS,
    Histogram,
    MetricsRegistry,
    NULL,
    collecting,
    disable,
    enable,
    enabled,
    merge_snapshot,
    registry,
    reset,
    sink,
    snapshot,
)
from repro.telemetry.prometheus import render_prometheus
from repro.telemetry.report import (
    derived_stats,
    format_text,
    format_trace,
    histogram_quantile,
)
from repro.telemetry.slowlog import (
    clear_slow_plans,
    drain_slow_plans,
    record_slow_plan,
    set_slow_plan_capacity,
    set_slow_plan_threshold,
    slow_plan_threshold,
)
from repro.telemetry.spans import (
    Span,
    absorb_remote,
    absorb_spans,
    clear_spans,
    close_export,
    drain_spans,
    export_ndjson,
    flush_export,
    max_spans,
    open_export,
    record_span,
    set_max_spans,
    span,
)
from repro.telemetry.trace import (
    TraceContext,
    TraceNode,
    assemble_traces,
    current_trace,
    propagation_context,
    start_trace,
    tracing,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "SECONDS_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "NULL",
    "Span",
    "TraceContext",
    "TraceNode",
    "absorb_remote",
    "absorb_spans",
    "assemble_traces",
    "clear_slow_plans",
    "clear_spans",
    "close_export",
    "collecting",
    "current_trace",
    "derived_stats",
    "disable",
    "drain_slow_plans",
    "drain_spans",
    "enable",
    "enabled",
    "export_ndjson",
    "flush_export",
    "format_text",
    "format_trace",
    "histogram_quantile",
    "max_spans",
    "merge_snapshot",
    "open_export",
    "propagation_context",
    "record_slow_plan",
    "record_span",
    "registry",
    "render_prometheus",
    "reset",
    "set_max_spans",
    "set_slow_plan_capacity",
    "set_slow_plan_threshold",
    "sink",
    "slow_plan_threshold",
    "snapshot",
    "span",
    "start_trace",
    "tracing",
]
