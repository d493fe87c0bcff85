#!/usr/bin/env python
"""The CI perf-regression gate for the matching core, Σ grouping, the
engine runtime, streaming, the telemetry layer, and the push server.

Six gates, all against thresholds committed in
``benchmarks/baseline.json``:

* **matching** — plan-compiled validation versus the seed interpreter
  on the committed reference workload (the kernel of
  ``benchmarks/bench_matching.py``, which also asserts byte-identical
  violation reports and match streams); fails when the compiled-plan
  speedup drops below its floor (≥ 3x).  Emits ``BENCH_matching.json``.
* **sigma** — the grouped full Σ scan versus per-rule plans, and
  support counting versus materializing every match, on the committed
  Σ-overlapping workload (the kernel of
  ``benchmarks/bench_discovery.py``, which also asserts byte-identical
  violation reports and match counts); fails when either the
  multi-rule validation speedup or the discovery support-counting
  speedup drops below its floor (both ≥ 2x).  Emits
  ``BENCH_discovery.json``.
* **engine** — wall-clock for the serial backend, the warm engine
  over a worker sweep, and a private one-shot engine pool on the
  committed reference workload, asserting the violation reports are
  byte-identical; fails when the warm engine's speedup over the serial
  backend or over the one-shot pool drops below its floor.  Emits
  ``BENCH_engine.json``.
* **streaming** — per-batch ledger maintenance
  (:class:`repro.streaming.ViolationLedger`) versus full revalidation
  on the committed churn workload (the kernel of
  ``benchmarks/bench_streaming.py``, which also asserts byte-identity
  of the maintained and recomputed reports); fails when the per-batch
  speedup drops below its floor (≥ 5x).  Emits ``BENCH_streaming.json``.
* **telemetry** — instrumentation overhead on serial validation of the
  reference workload: disabled (the null-sink default) must stay within
  5% of a back-to-back reference run, enabled within 15%, and the
  violation reports must be byte-identical either way.  Emits
  ``BENCH_telemetry.json`` plus the enabled run's NDJSON trace
  (``telemetry.ndjson``, uploaded as a CI artifact).
* **serve** — the violation-subscription push server (the kernel of
  ``benchmarks/bench_serve.py``): one server sustaining the committed
  load shape (50 subscribers, 20 update batches/s for 30 s) with every
  subscriber's delta stream gap-free and resync-free, a p99
  end-to-end push latency ≤ 250 ms, and per-batch delta maintenance
  ≥ 5x cheaper than per-subscriber full revalidation.  Emits
  ``BENCH_serve.json``.

Run it locally exactly as CI does::

    python benchmarks/perf_gate.py                # gate against baseline.json
    python benchmarks/perf_gate.py --no-gate      # measure + emit only

The thresholds are deliberately conservative: they hold on a 1-core
container and leave the multi-core CI runners ample margin.  Since the
plan-compiled matching core, the *serial* baseline enjoys the same
per-pattern compilation caching warm engine workers do, so on one core
the engine's contract is broadcast amortization (warm vs cold-process
floor) plus a bounded-dispatch-overhead sanity floor vs serial — its
vs-serial edge is real parallel scale-out, which a 1-core container
cannot show.  The ledger's edge is work proportional to each batch's
neighborhood instead of |G|.  See benchmarks/README.md for the refresh
procedure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks._emit import emit_bench, measure  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH, help="thresholds file")
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=Path(__file__).resolve().parent / "out",
        help="where the BENCH_*.json files land (default: benchmarks/out)",
    )
    parser.add_argument("--no-gate", action="store_true", help="measure and emit, never fail")
    args = parser.parse_args(argv)

    from repro.engine import EnginePool, get_pool, plan_tasks, pool_for, shutdown_pools
    from repro.engine.snapshot import snapshot_graph
    from repro.indexing import attach_index, detach_index
    from repro.parallel import parallel_find_violations
    from repro.workloads import bounded_rule_set, validation_workload

    baseline = json.loads(args.baseline.read_text())
    workload = baseline["workload"]
    gate_workers = baseline["gate_workers"]
    repeats = baseline["repeats"]
    thresholds = baseline["thresholds"]

    # ------------------------------------------------------------------
    # Matching gate: plan-compiled validation vs the seed interpreter.
    # ------------------------------------------------------------------
    from benchmarks.bench_matching import run_matching_bench

    matching_conf = baseline["matching"]
    matching_workload = matching_conf["workload"]
    matching_thresholds = matching_conf["thresholds"]
    print(
        f"matching workload: validation_workload({matching_workload['nodes']}, "
        f"rng={matching_workload['rng']}), best of {matching_conf['repeats']}"
    )
    matching = run_matching_bench(
        nodes=matching_workload["nodes"],
        rng=matching_workload["rng"],
        repeats=matching_conf["repeats"],
    )
    for record in matching["records"]:
        print(
            f"  {record['matcher']:<5} ({record['mode']:<9})  "
            f"{record['wall_s'] * 1000:8.2f} ms  "
            f"{record['violations']} violation(s)"
        )
    print(
        f"  plan_vs_seed: {matching['speedup_unindexed']:.2f}x unindexed, "
        f"{matching['speedup_indexed']:.2f}x indexed "
        f"(streams byte-identical)"
    )
    matching_path = emit_bench(
        "matching",
        matching["records"],
        meta={
            "workload": matching_workload,
            "repeats": matching_conf["repeats"],
            "speedup_unindexed": matching["speedup_unindexed"],
            "speedup_indexed": matching["speedup_indexed"],
            "thresholds": matching_thresholds,
        },
        directory=args.output_dir,
    )
    print(f"wrote {matching_path}")

    # ------------------------------------------------------------------
    # Sigma gate: grouped Σ vs per-rule plans, both consumers.
    # ------------------------------------------------------------------
    from benchmarks.bench_discovery import run_sigma_bench

    sigma_conf = baseline["sigma"]
    sigma_workload = sigma_conf["workload"]
    sigma_thresholds = sigma_conf["thresholds"]
    print(
        f"sigma workload: overlapping_workload({sigma_workload['nodes']}, "
        f"rng={sigma_workload['rng']}) + overlapping_rule_set"
        f"({sigma_workload['variants']}), best of {sigma_conf['repeats']}"
    )
    sigma_bench = run_sigma_bench(
        nodes=sigma_workload["nodes"],
        rng=sigma_workload["rng"],
        variants=sigma_workload["variants"],
        repeats=sigma_conf["repeats"],
    )
    for record in sigma_bench["records"]:
        detail = (
            f"{record['rules']} rule(s), {record['violations']} violation(s)"
            if record["section"] == "validation"
            else f"{record['patterns']} pattern(s), {record['total_matches']} match(es)"
        )
        print(
            f"  {record['section']:<10} {record['executor']:<9}  "
            f"{record['wall_s'] * 1000:8.2f} ms  {detail}"
        )
    print(
        f"  sigma_vs_per_rule: {sigma_bench['speedup_validation']:.2f}x validation, "
        f"{sigma_bench['speedup_discovery']:.2f}x discovery "
        f"(reports and counts byte-identical)"
    )
    sigma_path = emit_bench(
        "discovery",
        sigma_bench["records"],
        meta={
            "config": sigma_bench["config"],
            "speedup_validation": sigma_bench["speedup_validation"],
            "speedup_discovery": sigma_bench["speedup_discovery"],
            "thresholds": sigma_thresholds,
        },
        directory=args.output_dir,
    )
    print(f"wrote {sigma_path}")

    graph = validation_workload(workload["nodes"], rng=workload["rng"])
    sigma = bounded_rule_set()

    records: list[dict] = []
    reports: dict[str, object] = {}

    def run(backend: str, workers: int, label: str):
        wall, report = measure(
            lambda: parallel_find_violations(graph, sigma, workers=workers, backend=backend),
            repeats,
        )
        records.append(
            {
                "backend": backend,
                "label": label,
                "workers": report.workers,
                "wall_s": wall,
                "violations": len(report.violations),
                "matches": report.total_matches(),
                "indexed": report.indexed,
            }
        )
        reports[f"{label}@{report.workers}"] = report
        print(f"  {label:<22} workers={report.workers}  {wall * 1000:8.2f} ms")
        return wall

    print(f"workload: validation_workload({workload['nodes']}, rng={workload['rng']})")
    print(f"repeats:  best of {repeats}")

    # Serial runs one grouped Σ scan whatever the worker count (its
    # report says one worker).
    detach_index(graph)
    serial_wall = run("serial", gate_workers, "serial (unindexed)")

    attach_index(graph)
    serial_indexed = run("serial", gate_workers, "serial (indexed)")

    # Cold = first engine call builds + broadcasts the pool.
    cold_wall, cold_report = measure(
        lambda: parallel_find_violations(graph, sigma, workers=gate_workers, backend="engine"),
        1,
    )
    records.append(
        {
            "backend": "engine",
            "label": "engine (cold start)",
            "workers": gate_workers,
            "wall_s": cold_wall,
            "violations": len(cold_report.violations),
            "matches": cold_report.total_matches(),
            "indexed": cold_report.indexed,
        }
    )
    reports[f"engine-cold@{gate_workers}"] = cold_report
    print(f"  {'engine (cold start)':<22} workers={gate_workers}  {cold_wall * 1000:8.2f} ms")

    engine_by_workers = {}
    for workers in (2, gate_workers, 8):
        parallel_find_violations(graph, sigma, workers=workers, backend="engine")  # warm
        engine_by_workers[workers] = run("engine", workers, "engine (warm)")

    # What the warm pool amortizes: a private pool per call (snapshot,
    # start-up broadcast, one validation, close).
    def one_shot():
        cold_pool = EnginePool(snapshot_graph(graph), gate_workers)
        try:
            units = plan_tasks(graph, sigma, gate_workers)
            return cold_pool.validate_units(units), cold_pool.indexed
        finally:
            cold_pool.close()

    one_shot_wall, (shard_results, one_shot_indexed) = measure(one_shot, 3)
    one_shot_violations = [v for found, _ in shard_results for v in found]
    records.append(
        {
            "backend": "engine",
            "label": "engine (one-shot pool)",
            "workers": gate_workers,
            "wall_s": one_shot_wall,
            "violations": len(one_shot_violations),
            "matches": sum(stats.matches for _, stats in shard_results),
            "indexed": one_shot_indexed,
        }
    )
    print(
        f"  {'engine (one-shot pool)':<22} workers={gate_workers}  {one_shot_wall * 1000:8.2f} ms"
    )

    pool = get_pool(graph, gate_workers)
    broadcast_bytes = pool.broadcast_bytes
    assert pool_for(graph) is pool
    shutdown_pools()

    # ------------------------------------------------------------------
    # Correctness: every backend's report must be identical.
    # ------------------------------------------------------------------
    reference = reports["serial (unindexed)@1"].violations
    mismatched = [key for key, report in reports.items() if report.violations != reference]
    if Counter(one_shot_violations) != Counter(reference):
        mismatched.append("engine (one-shot pool)")
    if mismatched:
        print(f"FAIL: backends diverged from serial: {mismatched}", file=sys.stderr)
        return 1
    print(f"violations: {len(reference)} — identical across all backends")

    engine_wall = engine_by_workers[gate_workers]
    speedups = {
        "engine_warm_vs_serial": serial_wall / engine_wall,
        "engine_warm_vs_serial_indexed": serial_indexed / engine_wall,
        "engine_warm_vs_process_cold": one_shot_wall / engine_wall,
    }
    for name, value in speedups.items():
        print(f"  {name}: {value:.2f}x")

    path = emit_bench(
        "engine",
        records,
        meta={
            "workload": workload,
            "gate_workers": gate_workers,
            "repeats": repeats,
            "speedups": speedups,
            "broadcast_bytes": broadcast_bytes,
            "thresholds": thresholds,
        },
        directory=args.output_dir,
    )
    print(f"wrote {path}")

    # ------------------------------------------------------------------
    # Streaming gate: ledger maintenance vs full revalidation per batch.
    # ------------------------------------------------------------------
    from benchmarks.bench_streaming import run_streaming_bench

    streaming_conf = baseline["streaming"]
    streaming_workload = streaming_conf["workload"]
    streaming_thresholds = streaming_conf["thresholds"]
    print(
        f"streaming workload: churn_stream(nodes={streaming_workload['nodes']}, "
        f"batches={streaming_workload['batches']}, rng={streaming_workload['rng']})"
    )
    streaming = run_streaming_bench(
        nodes=streaming_workload["nodes"],
        batches=streaming_workload["batches"],
        batch_size=streaming_workload["batch_size"],
        delete_fraction=streaming_workload["delete_fraction"],
        rng=streaming_workload["rng"],
        indexed=streaming_workload["indexed"],
    )
    print(
        f"  ledger maintenance   {streaming['ledger_wall_s'] * 1000:8.2f} ms "
        f"over {streaming_workload['batches']} batch(es)"
    )
    print(f"  full revalidation    {streaming['full_wall_s'] * 1000:8.2f} ms")
    print(
        f"  ledger_vs_full_per_batch: {streaming['speedup_per_batch']:.2f}x "
        f"(reports byte-identical; {streaming['final_violations']} final violation(s))"
    )
    streaming_path = emit_bench(
        "streaming",
        streaming["records"],
        meta={
            "workload": streaming_workload,
            "bootstrap_wall_s": streaming["bootstrap_wall_s"],
            "ledger_wall_s": streaming["ledger_wall_s"],
            "full_wall_s": streaming["full_wall_s"],
            "speedup_per_batch": streaming["speedup_per_batch"],
            "final_violations": streaming["final_violations"],
            "checkpoint_wall_s": streaming["checkpoint_wall_s"],
            "checkpoint_bytes": streaming["checkpoint_bytes"],
            "thresholds": streaming_thresholds,
        },
        directory=args.output_dir,
    )
    print(f"wrote {streaming_path}")

    # ------------------------------------------------------------------
    # Telemetry gate: instrumentation overhead, disabled and enabled.
    # ------------------------------------------------------------------
    from repro import telemetry

    telemetry_conf = baseline["telemetry"]
    telemetry_repeats = telemetry_conf["repeats"]
    telemetry_thresholds = telemetry_conf["thresholds"]
    print(
        f"telemetry workload: validation_workload({workload['nodes']}, "
        f"rng={workload['rng']}), serial, best of {telemetry_repeats}"
    )
    detach_index(graph)
    telemetry.disable()
    telemetry.reset()
    telemetry.clear_spans()

    def serial_run():
        return parallel_find_violations(graph, sigma, workers=1, backend="serial")

    # Interleaved best-of sampling: one reference, one disabled, and one
    # enabled run per round, so slow drift on a shared runner hits all
    # three modes alike instead of skewing whichever was measured last.
    # Reference and disabled are the same code path (the null sink is
    # the default); their ratio is pure measurement noise, which the 5%
    # gate bounds.
    reference_samples: list[float] = []
    disabled_samples: list[float] = []
    enabled_samples: list[float] = []
    try:
        for _ in range(telemetry_repeats):
            wall, reference_report = measure(serial_run, 1)
            reference_samples.append(wall)
            wall, disabled_report = measure(serial_run, 1)
            disabled_samples.append(wall)
            telemetry.enable()
            wall, enabled_report = measure(serial_run, 1)
            enabled_samples.append(wall)
            telemetry.disable()
        telemetry.enable()
        telemetry_snapshot = telemetry.snapshot()
        ndjson_path = Path(args.output_dir) / "telemetry.ndjson"
        ndjson_lines = telemetry.export_ndjson(str(ndjson_path))
    finally:
        telemetry.disable()
    reference_wall = min(reference_samples)
    disabled_wall = min(disabled_samples)
    enabled_wall = min(enabled_samples)
    if (
        disabled_report.violations != reference_report.violations
        or enabled_report.violations != reference_report.violations
    ):
        print(
            "FAIL: telemetry perturbed the violation report "
            "(enabled/disabled runs must be byte-identical)",
            file=sys.stderr,
        )
        return 1
    disabled_overhead = disabled_wall / reference_wall
    enabled_overhead = enabled_wall / reference_wall
    print(f"  serial reference       {reference_wall * 1000:8.2f} ms")
    print(
        f"  telemetry disabled     {disabled_wall * 1000:8.2f} ms "
        f"({disabled_overhead:.3f}x)"
    )
    print(
        f"  telemetry enabled      {enabled_wall * 1000:8.2f} ms "
        f"({enabled_overhead:.3f}x, "
        f"{len(telemetry_snapshot['counters'])} counter(s) collected)"
    )
    print(f"wrote {ndjson_path} ({ndjson_lines} line(s))")
    telemetry_path = emit_bench(
        "telemetry",
        [
            {"mode": "reference", "wall_s": reference_wall},
            {"mode": "disabled", "wall_s": disabled_wall, "overhead": disabled_overhead},
            {"mode": "enabled", "wall_s": enabled_wall, "overhead": enabled_overhead},
        ],
        meta={
            "workload": workload,
            "repeats": telemetry_repeats,
            "disabled_overhead": disabled_overhead,
            "enabled_overhead": enabled_overhead,
            "counters_collected": len(telemetry_snapshot["counters"]),
            "thresholds": telemetry_thresholds,
        },
        directory=args.output_dir,
    )
    print(f"wrote {telemetry_path}")

    # ------------------------------------------------------------------
    # Serve gate: push-server load — latency tail, stream integrity,
    # and delta push vs per-subscriber full revalidation.
    # ------------------------------------------------------------------
    from benchmarks.bench_serve import run_serve_bench

    serve_conf = baseline["serve"]
    serve_workload = serve_conf["workload"]
    serve_thresholds = serve_conf["thresholds"]
    print(
        f"serve workload: {serve_workload['subscribers']} subscriber(s), "
        f"{serve_workload['updates_per_s']} update(s)/s for "
        f"{serve_workload['duration_s']:.0f} s over churn_stream"
        f"(nodes={serve_workload['nodes']}, rng={serve_workload['rng']})"
    )
    serve = run_serve_bench(
        subscribers=serve_workload["subscribers"],
        updates_per_s=serve_workload["updates_per_s"],
        duration_s=serve_workload["duration_s"],
        nodes=serve_workload["nodes"],
        batch_size=serve_workload["batch_size"],
        rng=serve_workload["rng"],
    )
    print(
        f"  applied {serve['batches']} batch(es) at "
        f"{serve['achieved_updates_per_s']:.2f}/s — "
        f"{serve['gaps']} gap(s), {serve['resyncs']} resync(s)"
    )
    print(
        f"  push latency p50/p95/p99: "
        f"{serve['push_p50_s'] * 1000:.2f} / "
        f"{serve['push_p95_s'] * 1000:.2f} / "
        f"{serve['push_p99_s'] * 1000:.2f} ms"
    )
    print(f"  delta_vs_full_per_batch: {serve['delta_vs_full']:.2f}x")
    serve_path = emit_bench(
        "serve",
        serve["records"],
        meta={
            "config": serve["config"],
            "push_p50_s": serve["push_p50_s"],
            "push_p95_s": serve["push_p95_s"],
            "push_p99_s": serve["push_p99_s"],
            "delta_vs_full": serve["delta_vs_full"],
            "achieved_updates_per_s": serve["achieved_updates_per_s"],
            "thresholds": serve_thresholds,
        },
        directory=args.output_dir,
    )
    print(f"wrote {serve_path}")

    if args.no_gate:
        return 0

    failures = []
    if matching["speedup_unindexed"] < matching_thresholds["min_plan_speedup_vs_seed"]:
        failures.append(
            f"plan-compiled validation speedup over the seed interpreter "
            f"{matching['speedup_unindexed']:.2f}x < "
            f"{matching_thresholds['min_plan_speedup_vs_seed']}x"
        )
    if sigma_bench["speedup_validation"] < sigma_thresholds["min_sigma_speedup_validation"]:
        failures.append(
            f"grouped multi-rule validation speedup over per-rule plans "
            f"{sigma_bench['speedup_validation']:.2f}x < "
            f"{sigma_thresholds['min_sigma_speedup_validation']}x"
        )
    if sigma_bench["speedup_discovery"] < sigma_thresholds["min_sigma_speedup_discovery"]:
        failures.append(
            f"discovery support-counting speedup over materializing every "
            f"match {sigma_bench['speedup_discovery']:.2f}x < "
            f"{sigma_thresholds['min_sigma_speedup_discovery']}x"
        )
    if streaming["speedup_per_batch"] < streaming_thresholds["min_ledger_speedup_vs_full"]:
        failures.append(
            f"streaming ledger speedup over full revalidation "
            f"{streaming['speedup_per_batch']:.2f}x < "
            f"{streaming_thresholds['min_ledger_speedup_vs_full']}x"
        )
    if speedups["engine_warm_vs_serial"] < thresholds["min_engine_warm_speedup_vs_serial"]:
        failures.append(
            f"engine warm speedup over serial "
            f"{speedups['engine_warm_vs_serial']:.2f}x < "
            f"{thresholds['min_engine_warm_speedup_vs_serial']}x"
        )
    if (
        speedups["engine_warm_vs_serial_indexed"]
        < thresholds["min_engine_warm_speedup_vs_serial_indexed"]
    ):
        failures.append(
            f"engine warm speedup over indexed serial "
            f"{speedups['engine_warm_vs_serial_indexed']:.2f}x < "
            f"{thresholds['min_engine_warm_speedup_vs_serial_indexed']}x"
        )
    if (
        speedups["engine_warm_vs_process_cold"]
        < thresholds["min_engine_warm_speedup_vs_process_cold"]
    ):
        failures.append(
            f"engine warm speedup over a cold one-shot process pool "
            f"{speedups['engine_warm_vs_process_cold']:.2f}x < "
            f"{thresholds['min_engine_warm_speedup_vs_process_cold']}x"
        )
    if disabled_overhead > telemetry_thresholds["max_disabled_overhead"]:
        failures.append(
            f"telemetry-disabled serial validation overhead "
            f"{disabled_overhead:.3f}x > "
            f"{telemetry_thresholds['max_disabled_overhead']}x"
        )
    if enabled_overhead > telemetry_thresholds["max_enabled_overhead"]:
        failures.append(
            f"telemetry-enabled serial validation overhead "
            f"{enabled_overhead:.3f}x > "
            f"{telemetry_thresholds['max_enabled_overhead']}x"
        )
    if serve["gaps"] or serve["resyncs"]:
        failures.append(
            f"serve streams not clean under the committed load: "
            f"{serve['gaps']} gap(s), {serve['resyncs']} resync(s) "
            f"(every subscriber must see every delta in order)"
        )
    if serve["push_p99_s"] > serve_thresholds["max_p99_push_s"]:
        failures.append(
            f"serve p99 push latency {serve['push_p99_s'] * 1000:.2f} ms > "
            f"{serve_thresholds['max_p99_push_s'] * 1000:.0f} ms"
        )
    if serve["delta_vs_full"] < serve_thresholds["min_delta_vs_full"]:
        failures.append(
            f"serve delta push advantage over per-subscriber full "
            f"revalidation {serve['delta_vs_full']:.2f}x < "
            f"{serve_thresholds['min_delta_vs_full']}x"
        )
    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("perf gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
