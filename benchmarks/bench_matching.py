"""Matching benchmarks: the plan-compiled core vs the seed interpreter.

The matching claim (ISSUE 4): routing validation through compiled
match plans — candidate pools derived once per graph version, step
programs ranked from their sizes, an iterative intersection-driven
executor — beats the seed recursive enumerator (kept as
:func:`repro.matching.seed_find_homomorphisms`) by **at least 3x** on
``validation_workload(400)``, while yielding byte-identical match
streams and violation reports.

:func:`run_matching_bench` is the shared measurement kernel: the pytest
entry points below assert the correctness half and emit wall clocks,
and the CI perf gate (``benchmarks/perf_gate.py``) runs the same kernel
against the thresholds committed in ``benchmarks/baseline.json`` and
writes ``BENCH_matching.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_matching.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks._emit import measure  # noqa: E402
from repro.indexing import attach_index, detach_index  # noqa: E402
from repro.matching import find_homomorphisms, seed_find_homomorphisms  # noqa: E402
from repro.reasoning.validation import (  # noqa: E402
    Violation,
    evaluate_match,
    find_violations,
    x_literal_restrictions,
)
from repro.workloads import bounded_rule_set, validation_workload  # noqa: E402

DEFAULT_CONFIG = {"nodes": 400, "rng": 13, "repeats": 5}


def _seed_find_violations(graph, sigma):
    """find_violations re-spelled over the seed enumerator (the exact
    pre-plan interpretation: candidate sets re-derived per call)."""
    found = []
    for ged in sigma:
        restrict = x_literal_restrictions(graph, ged)
        for match in seed_find_homomorphisms(ged.pattern, graph, restrict=restrict):
            failed = evaluate_match(graph, ged, match)
            if failed:
                found.append(Violation(ged, tuple(sorted(match.items())), failed))
    return found


def run_matching_bench(nodes: int = 400, rng: int = 13, repeats: int = 5) -> dict:
    """Validate the committed workload through both matcher generations
    — seed interpreter vs compiled plans, unindexed and indexed — and
    return records plus the headline (unindexed) speedup.

    Correctness is asserted inside the kernel: violation reports are
    byte-identical in every configuration, and each dependency's raw
    match stream is compared elementwise.
    """
    graph = validation_workload(nodes, rng=rng)
    sigma = bounded_rule_set()

    records: list[dict] = []
    speedups: dict[str, float] = {}
    for indexed in (False, True):
        if indexed:
            attach_index(graph)
        else:
            detach_index(graph)
        try:
            seed_wall, seed_report = measure(
                lambda: _seed_find_violations(graph, sigma), repeats
            )
            plan_wall, plan_report = measure(
                lambda: find_violations(graph, sigma), repeats
            )
            assert plan_report == seed_report, "plan validation diverged from seed"
            for ged in sigma:
                plan_stream = list(find_homomorphisms(ged.pattern, graph))
                seed_stream = list(seed_find_homomorphisms(ged.pattern, graph))
                assert plan_stream == seed_stream, (
                    f"{ged.name}: match stream not byte-identical"
                )
            label = "indexed" if indexed else "unindexed"
            speedups[label] = seed_wall / plan_wall if plan_wall else float("inf")
            records.append(
                {
                    "mode": label,
                    "matcher": "seed",
                    "wall_s": seed_wall,
                    "violations": len(seed_report),
                }
            )
            records.append(
                {
                    "mode": label,
                    "matcher": "plan",
                    "wall_s": plan_wall,
                    "violations": len(plan_report),
                }
            )
        finally:
            detach_index(graph)

    return {
        "config": {"nodes": nodes, "rng": rng, "repeats": repeats},
        "records": records,
        "speedup_unindexed": speedups["unindexed"],
        "speedup_indexed": speedups["indexed"],
    }


# ----------------------------------------------------------------------
# pytest entry points (run in CI's test job with --benchmark-disable)
# ----------------------------------------------------------------------


def test_plan_validation_matches_seed():
    """The correctness half on a smaller instance (assertions run
    inside the kernel; quick enough for the plain test job)."""
    result = run_matching_bench(nodes=150, rng=13, repeats=1)
    assert len(result["records"]) == 4


def test_plan_validation_beats_seed():
    """The performance half: compiled plans beat the seed interpreter
    on the committed workload (the CI gate enforces the 3x floor; this
    in-suite check uses a conservative 1.5x so shared test runners stay
    green)."""
    result = run_matching_bench(**DEFAULT_CONFIG)
    assert result["speedup_unindexed"] > 1.5, (
        f"plan-executed validation only {result['speedup_unindexed']:.1f}x "
        f"faster than the seed interpreter"
    )
    _emit(result)


def _emit(result: dict) -> None:
    from benchmarks._emit import emit_bench

    emit_bench(
        "matching",
        result["records"],
        meta={
            "config": result["config"],
            "speedup_unindexed": result["speedup_unindexed"],
            "speedup_indexed": result["speedup_indexed"],
        },
    )


if __name__ == "__main__":
    import json

    outcome = run_matching_bench(**DEFAULT_CONFIG)
    _emit(outcome)
    print(json.dumps({k: v for k, v in outcome.items() if k != "records"}, indent=2))
