"""Slow-plan capture: the observed match plan of a slow shard, on the spot.

A plan execution that blows past a latency threshold is exactly the
moment its observed frame counts are worth keeping — waiting for the
operator to re-run ``cli explain`` loses the workload that was slow.
:func:`record_slow_plan` snapshots the explain text (plus the shard
context and the active trace ref) into a bounded ring buffer; records
ride the NDJSON telemetry export as ``{"type": "slow_plan", ...}``
lines next to the spans of the batch that triggered them, and worker
processes ship theirs home piggybacked on the ``collect=True`` metrics
snapshot.

The threshold is off by default (``None``): the hot path pays one
module-global read per shard to find that out.  Configure with the
``REPRO_SLOW_PLAN_MS`` environment variable or
:func:`set_slow_plan_threshold` (the CLI's ``--slow-plan-ms`` flag).
Overflow drops the **oldest** record (the newest slow plan is the one
being debugged) and increments ``telemetry.slow_plans_dropped`` —
capture must never raise or grow without bound.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

#: Default ring-buffer capacity for captured slow-plan records.
DEFAULT_SLOW_PLAN_CAPACITY = 64

#: Environment variable naming the capture threshold in milliseconds.
ENV_SLOW_PLAN_MS = "REPRO_SLOW_PLAN_MS"


def _threshold_from_env() -> float | None:
    raw = os.environ.get(ENV_SLOW_PLAN_MS)
    if not raw:
        return None
    try:
        millis = float(raw)
    except ValueError:
        return None
    return millis / 1000.0 if millis >= 0 else None


_THRESHOLD_S: float | None = _threshold_from_env()
_CAPACITY = DEFAULT_SLOW_PLAN_CAPACITY
_RECORDS: list[dict[str, Any]] = []


def _after_fork() -> None:
    # A forked pool worker inherits the coordinator's captured records;
    # clearing them keeps its piggyback snapshot from double-shipping.
    _RECORDS.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_after_fork)


def slow_plan_threshold() -> float | None:
    """The active capture threshold in seconds (``None`` = capture off)."""
    return _THRESHOLD_S


def set_slow_plan_threshold(seconds: float | None) -> None:
    """Set the capture threshold in seconds (``None`` disables capture)."""
    global _THRESHOLD_S
    _THRESHOLD_S = seconds


def set_slow_plan_capacity(capacity: int) -> None:
    """Resize the ring buffer (existing overflow is trimmed oldest-first)."""
    global _CAPACITY
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    _CAPACITY = capacity
    overflow = len(_RECORDS) - capacity
    if overflow > 0:
        del _RECORDS[:overflow]
        _metrics.sink().incr("telemetry.slow_plans_dropped", overflow)


def record_slow_plan(name: str, seconds: float, explain: str, **attrs: Any) -> None:
    """Capture one slow plan execution into the ring buffer.

    ``explain`` is the pre-rendered program text with the run's
    observed totals (:func:`~repro.matching.plan.explain_pools`);
    ``attrs`` carry shard context (pivot, shard size, ...).  The
    active trace — if any — is recorded as ``trace_id``/``parent_ref``
    so ``cli trace`` can place the record inside the batch's tree.
    """
    record: dict[str, Any] = {
        "type": "slow_plan",
        "name": name,
        "seconds": seconds,
        "explain": explain,
        "ts": time.time(),
    }
    ctx = _trace.propagation_context()
    if ctx is not None:
        record["trace_id"] = ctx.trace_id
        if ctx.parent_ref is not None:
            record["parent_ref"] = ctx.parent_ref
    if attrs:
        record["attrs"] = attrs
    _RECORDS.append(record)
    if len(_RECORDS) > _CAPACITY:
        del _RECORDS[0]
        _metrics.sink().incr("telemetry.slow_plans_dropped")


def absorb_slow_plans(records: Any) -> None:
    """Fold worker-shipped slow-plan records in (bounded, oldest out)."""
    if not records:
        return
    _RECORDS.extend(records)
    overflow = len(_RECORDS) - _CAPACITY
    if overflow > 0:
        del _RECORDS[:overflow]
        _metrics.sink().incr("telemetry.slow_plans_dropped", overflow)


def drain_slow_plans() -> list[dict[str, Any]]:
    """Return and clear the captured slow-plan records."""
    records = list(_RECORDS)
    _RECORDS.clear()
    return records


def clear_slow_plans() -> None:
    """Drop the captured slow-plan records without returning them."""
    _RECORDS.clear()


__all__ = [
    "DEFAULT_SLOW_PLAN_CAPACITY",
    "ENV_SLOW_PLAN_MS",
    "absorb_slow_plans",
    "clear_slow_plans",
    "drain_slow_plans",
    "record_slow_plan",
    "set_slow_plan_capacity",
    "set_slow_plan_threshold",
    "slow_plan_threshold",
]
