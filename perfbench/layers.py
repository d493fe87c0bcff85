"""Per-layer metrics from a traced run's span dumps.

``traced_serve.py`` dumps, per server start, the start-up span totals
and one record per applied batch.  This module turns them into the
per-layer metrics named in ``BENCHMARK.json``; ``perfbench/README.md``
says which end-to-end metric each one should move.
"""

from __future__ import annotations

import statistics

from bench import Result, end_to_end


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _startup(dump: dict, name: str, kind: str = "total") -> float:
    entry = dump["startup"].get(name)
    return entry[kind] if entry else 0.0


def per_layer(untraced: Result, traced: Result) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for one traced run."""
    dumps = [cold.dump for cold in traced.cold]
    steady = traced.steady_dump
    measured = set(traced.seqs)
    batches = [b for b in steady["batches"] if b.get("seq") in measured]
    encode = {int(seq): seconds for seq, seconds in steady["encode"].items()}
    checkpoints = [b for b in batches if "checkpoint" in b]

    def ms(batch: dict, name: str) -> float:
        return batch.get(name, 0.0) * 1e3

    latency = dict(zip(traced.seqs, traced.latencies))
    accounted = [
        latency[b["seq"]]
        - b.get("validate_update", 0.0)
        - b.get("log_append", 0.0)
        - b.get("refresh", 0.0)
        - b.get("checkpoint", 0.0)
        - encode.get(b["seq"], 0.0)
        for b in batches
    ]
    rechecked = sum(b["rechecked"] for b in batches)
    useful = sum(b["retired"] + b["updated"] for b in batches)
    overhead = (
        end_to_end(traced)["batch_ms.p50"] / end_to_end(untraced)["batch_ms.p50"] - 1
    )
    return {
        "graph.validate_ms": (_median(ms(b, "validate_update") for b in batches), "ms"),
        "graph.apply_ms": (_median(ms(b, "apply_update_indexed") for b in batches), "ms"),
        "graph.log_append_ms": (_median(ms(b, "log_append") for b in batches), "ms"),
        "graph.log_bytes_per_batch": (
            _mean(b.get("log_append.bytes", 0) for b in batches),
            "bytes",
        ),
        "graph.checkpoint_ms": (_median(ms(b, "checkpoint") for b in checkpoints), "ms"),
        "graph.checkpoints": (len(checkpoints), "count"),
        "graph.checkpoint_bytes": (_median(b["checkpoint.bytes"] for b in checkpoints), "bytes"),
        "graph.log_scan_s": (_median(_startup(d, "replay_update_log", "self") for d in dumps), "s"),
        "graph.checkpoint_decode_s": (
            _median(_startup(d, "graph_from_arrays") for d in dumps),
            "s",
        ),
        "graph.replay_apply_s": (_median(_startup(d, "apply_update_indexed") for d in dumps), "s"),
        "streaming.refresh_ms": (_median(ms(b, "refresh") for b in batches), "ms"),
        "streaming.introduce_ms": (_median(ms(b, "delta_violations") for b in batches), "ms"),
        "streaming.retire_ms": (_median(ms(b, "refresh.self") for b in batches), "ms"),
        "streaming.rechecked_per_batch": (_mean(b["rechecked"] for b in batches), "count"),
        "streaming.changed_per_batch": (
            _mean(b["introduced"] + b["retired"] + b["updated"] for b in batches),
            "count",
        ),
        "streaming.recheck_yield": (useful / rechecked if rechecked else 0.0, "ratio"),
        "streaming.bootstrap_s": (_median(_startup(d, "bootstrap") for d in dumps), "s"),
        "matching.view_build_s": (_median(_startup(d, "build_view") for d in dumps), "s"),
        "matching.sigma_compile_s": (
            _median(_startup(d, "compile_sigma", "self") for d in dumps),
            "s",
        ),
        "matching.pool_exec_ms": (_median(ms(b, "execute_over_pools") for b in batches), "ms"),
        "matching.pool_calls_per_batch": (
            _mean(b.get("execute_over_pools.calls", 0) for b in batches),
            "count",
        ),
        "reasoning.validate_s": (
            _median(_startup(d, "find_violations", "self") for d in dumps),
            "s",
        ),
        "serve.encode_ms": (_median(encode.get(b["seq"], 0.0) * 1e3 for b in batches), "ms"),
        "serve.delta_bytes_per_batch": (_mean(traced.delta_bytes), "bytes"),
        "serve.bootstrap_ms": (
            _median(d["bootstrap_writes"][0] * 1e3 for d in dumps if d["bootstrap_writes"]),
            "ms",
        ),
        "serve.bootstrap_bytes": (_median(c.bootstrap_bytes for c in traced.cold), "bytes"),
        "serve.other_ms": (_median(accounted) * 1e3, "ms"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
