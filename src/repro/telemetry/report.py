"""Human-facing views of a metrics snapshot: derived stats and text.

:func:`derived_stats` computes the headline ratios the raw counters
imply — warm-pool hit rate, index hit rate, LPT imbalance, push
latency — the numbers ``cli stats`` leads with.
:func:`format_text` renders the derived block plus the full snapshot as
an aligned text dump.  :func:`format_trace` renders one assembled trace
(see :func:`repro.telemetry.trace.assemble_traces`) as an indented tree
with per-span durations and a self-time attribution — the ``cli trace``
view of "where did this batch's milliseconds go".
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.trace import TraceNode, ref_process


def histogram_quantile(histogram: dict[str, Any] | None, q: float) -> float | None:
    """A Prometheus-style quantile estimate from bucket counts.

    Linear interpolation within the bucket that crosses rank ``q``;
    ``None`` for a missing or empty histogram.  Values beyond the last
    bound are clamped to it (the +Inf bucket has no width to
    interpolate over), so tail quantiles are conservative lower bounds.
    """
    if not histogram or not histogram.get("count"):
        return None
    bounds = histogram["bounds"]
    counts = histogram["counts"]
    rank = q * histogram["count"]
    cumulative = 0
    for position, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= rank and bucket_count:
            if position >= len(bounds):
                return float(bounds[-1])
            lower = bounds[position - 1] if position else 0.0
            fraction = (rank - (cumulative - bucket_count)) / bucket_count
            return lower + (bounds[position] - lower) * fraction
    return float(bounds[-1])


def derived_stats(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Headline ratios derived from raw counters/gauges.

    Missing inputs yield ``None`` (rendered as ``n/a``) rather than
    zero, so "never measured" is distinguishable from "measured zero".
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})

    warm = counters.get("engine.pool.warm_hits", 0)
    builds = counters.get("engine.pool.cold_builds", 0)
    lookups = warm + builds
    warm_rate = (warm / lookups) if lookups else None

    index_hits = counters.get("index.hits", 0)
    index_misses = counters.get("index.misses", 0) + counters.get("index.stale", 0)
    index_lookups = index_hits + index_misses
    index_rate = (index_hits / index_lookups) if index_lookups else None

    filter_hits = counters.get("serve.filter.hits", 0)
    filter_misses = counters.get("serve.filter.misses", 0)
    filter_checks = filter_hits + filter_misses
    filter_hit_rate = (filter_hits / filter_checks) if filter_checks else None
    push = histograms.get("serve.push_seconds")

    return {
        "warm_pool_hit_rate": warm_rate,
        "frames_expanded": counters.get("plan.frames_expanded", 0),
        "index_hit_rate": index_rate,
        "lpt_imbalance": gauges.get("engine.lpt_imbalance"),
        "push_p50_seconds": histogram_quantile(push, 0.50),
        "push_p99_seconds": histogram_quantile(push, 0.99),
        "serve_filter_hit_rate": filter_hit_rate,
        "serve_queue_depth_p99": histogram_quantile(
            histograms.get("serve.queue_depth"), 0.99
        ),
    }


def _ratio(value: float | None) -> str:
    if value is None:
        return "n/a"
    return f"{value:.1%}"


def _seconds(value: float | None) -> str:
    if value is None:
        return "n/a"
    return f"{value * 1000:.2f}ms"


def _number(value: float | None) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and value != int(value):
        return f"{value:.4g}"
    return str(int(value))


def format_text(snapshot: dict[str, Any]) -> str:
    """Render the derived block plus the raw snapshot as text."""
    derived = derived_stats(snapshot)
    lines = ["== derived =="]
    lines.append(f"warm-pool hit rate:      {_ratio(derived['warm_pool_hit_rate'])}")
    lines.append(f"index hit rate:          {_ratio(derived['index_hit_rate'])}")
    lines.append(f"LPT imbalance:           {_number(derived['lpt_imbalance'])}")
    lines.append(f"frames expanded (total): {_number(derived['frames_expanded'])}")
    lines.append(f"push latency p50/p99:    {_seconds(derived['push_p50_seconds'])} / {_seconds(derived['push_p99_seconds'])}")
    lines.append(f"serve filter hit rate:   {_ratio(derived['serve_filter_hit_rate'])}")
    lines.append(f"serve queue depth p99:   {_number(derived['serve_queue_depth_p99'])}")

    counters = snapshot.get("counters", {})
    lines.append("")
    lines.append("== counters ==")
    if counters:
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"{name.ljust(width)}  {_number(counters[name])}")
    else:
        lines.append("(none)")

    gauges = snapshot.get("gauges", {})
    lines.append("")
    lines.append("== gauges ==")
    if gauges:
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"{name.ljust(width)}  {_number(gauges[name])}")
    else:
        lines.append("(none)")

    histograms = snapshot.get("histograms", {})
    lines.append("")
    lines.append("== histograms ==")
    if histograms:
        for name in sorted(histograms):
            payload = histograms[name]
            count = payload["count"]
            mean = payload["sum"] / count if count else 0.0
            lines.append(f"{name}: count={count} sum={payload['sum']:.4g} mean={mean:.4g}")
    else:
        lines.append("(none)")
    return "\n".join(lines)


def _attrs_inline(record: dict[str, Any]) -> str:
    attrs = record.get("attrs")
    if not attrs:
        return ""
    rendered = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
    return f"  [{rendered}]"


def format_trace(
    trace_id: str,
    roots: list[TraceNode],
    *,
    slow_plans: list[dict[str, Any]] | None = None,
) -> str:
    """Render one assembled trace as an indented tree plus attribution.

    Each line shows the span's duration and its share of the trace
    total; spans recorded in a different process than the trace root
    are marked with their process tag — the boundary crossings at a
    glance.  The trailing "where the milliseconds went" block
    aggregates *self time* (duration minus direct children) by span
    name, which is the honest answer to "what was actually slow": a
    parent that merely waits on children attributes nothing to itself.
    """
    total = sum(root.duration_s for root in roots)
    root_proc = ref_process(roots[0].ref) if roots and roots[0].ref else ""
    lines = [f"trace {trace_id}  ({total * 1000:.2f}ms, {len(roots)} root(s))"]
    self_by_name: dict[str, float] = {}
    for root in roots:
        for depth, node in root.walk():
            share = f"{node.duration_s / total:5.1%}" if total else "    -"
            proc = ref_process(node.ref) if node.ref else ""
            marker = f"  @{proc}" if proc and proc != root_proc else ""
            error = "  !error" if node.record.get("error") else ""
            lines.append(
                f"  {'  ' * depth}{node.name}  {node.duration_s * 1000:.2f}ms"
                f"  {share}{marker}{error}{_attrs_inline(node.record)}"
            )
            self_by_name[node.name] = self_by_name.get(node.name, 0.0) + node.self_seconds()
    lines.append("")
    lines.append("where the milliseconds went (self time):")
    ranked = sorted(self_by_name.items(), key=lambda item: -item[1])
    for name, seconds in ranked[:8]:
        share = f"{seconds / total:5.1%}" if total else "    -"
        lines.append(f"  {name:<24} {seconds * 1000:8.2f}ms  {share}")
    for record in slow_plans or []:
        lines.append("")
        lines.append(
            f"slow plan: {record.get('name', '?')}  "
            f"{float(record.get('seconds', 0.0)) * 1000:.2f}ms"
        )
        explain = record.get("explain")
        if explain:
            lines.extend(f"  {line}" for line in str(explain).splitlines())
    return "\n".join(lines)


__all__ = ["derived_stats", "format_text", "format_trace", "histogram_quantile"]
