"""GFD discovery benchmark: levelwise mining cost vs. data and LHS size
— plus the grouped-Σ vs per-rule section.

Shape claims:

* mining time grows with the number of matches (linear table build)
  and combinatorially with ``max_lhs`` (levelwise lattice), which is
  why the default is a small LHS budget — mirroring the bounded-size
  argument of Section 5.3;
* every exact rule discovered validates on the profiled graph
  (soundness of the miner, asserted);
* the discovered set shrinks under the implication cover (discovery
  over-generates; the Theorem 4/5 machinery de-duplicates it).

The Σ claim: the grouped full scan — one plan enumeration per
(pattern, X-restriction) group, every member rule evaluated on each
match — beats the per-rule
:func:`~repro.matching.homomorphism.find_homomorphisms` loop by
**at least 2x** on the committed Σ-overlapping workload, and
discovery's support counting (``count_matches``, which counts the
deepest step's candidates instead of binding them) beats a loop that
materializes every match by at least 2x, while producing
byte-identical violation reports and match counts.
:func:`run_sigma_bench` is the shared measurement kernel: the pytest
entry points below assert the correctness half with conservative
speedup floors, and the CI perf gate (``benchmarks/perf_gate.py``) runs
the same kernel against the thresholds in ``benchmarks/baseline.json``
and writes ``BENCH_discovery.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_discovery.py -q
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks._emit import measure  # noqa: E402
from repro.discovery import discover_gfds, enumerate_candidate_patterns  # noqa: E402
from repro.graph.graph import Graph  # noqa: E402
from repro.reasoning import validates  # noqa: E402

SCALES = [10, 20, 40]

DEFAULT_SIGMA_CONFIG = {"nodes": 600, "rng": 0, "variants": 24, "repeats": 5}


def typed_workload(n: int) -> Graph:
    """n creator pairs with regular attributes (exact rules exist)."""
    g = Graph()
    for i in range(n):
        g.add_node(f"p{i}", "person", {"type": "programmer", "senior": i % 2})
        g.add_node(f"g{i}", "product", {"type": "video game", "platform": "pc"})
        g.add_edge(f"p{i}", "create", f"g{i}")
    return g


@pytest.mark.parametrize("n", SCALES)
def test_discovery_scaling_with_data(benchmark, n):
    g = typed_workload(n)
    rules = benchmark(lambda: discover_gfds(g, max_lhs=1, min_support=2))
    assert rules
    benchmark.extra_info["nodes"] = g.num_nodes
    benchmark.extra_info["rules"] = len(rules)


@pytest.mark.parametrize("max_lhs", [0, 1, 2])
def test_discovery_scaling_with_lhs_budget(benchmark, max_lhs):
    g = typed_workload(15)
    rules = benchmark(lambda: discover_gfds(g, max_lhs=max_lhs, min_support=2))
    benchmark.extra_info["max_lhs"] = max_lhs
    benchmark.extra_info["rules"] = len(rules)


def test_shape_soundness_and_cover():
    g = typed_workload(12)
    discovered = discover_gfds(g, max_lhs=1, min_support=2)
    assert discovered
    for rule in discovered:
        assert rule.exact
        assert validates(g, [rule.ged])

    from repro.optimization.cover import compute_cover

    report = compute_cover([r.ged for r in discovered])
    assert len(report.cover) < len(discovered)


# ----------------------------------------------------------------------
# Grouped Σ vs per-rule plans
# ----------------------------------------------------------------------


def _per_rule_find_violations(graph, sigma):
    """``find_violations`` re-spelled as the pre-Σ per-rule loop (one
    ``find_homomorphisms`` walk per dependency)."""
    from repro.matching.homomorphism import find_homomorphisms
    from repro.reasoning.validation import (
        Violation,
        evaluate_match,
        x_literal_restrictions,
    )

    found = []
    for ged in sigma:
        restrict = x_literal_restrictions(graph, ged)
        for match in find_homomorphisms(ged.pattern, graph, restrict=restrict):
            failed = evaluate_match(graph, ged, match)
            if failed:
                found.append(Violation(ged, tuple(sorted(match.items())), failed))
    return found


def _materializing_counts(graph, patterns):
    """Support counting re-spelled as a loop that materializes every
    match (one ``find_homomorphisms`` walk per pattern)."""
    from repro.matching.homomorphism import find_homomorphisms

    return [sum(1 for _ in find_homomorphisms(pattern, graph)) for pattern in patterns]


def run_sigma_bench(
    nodes: int = 600, rng: int = 0, variants: int = 12, repeats: int = 5
) -> dict:
    """Both Σ consumers, each against its per-rule spelling, on the
    committed Σ-overlapping workload, returning records plus the two
    headline speedups.

    * **validation** — the per-rule plan loop vs the grouped
      :func:`~repro.reasoning.find_violations`, byte-identical
      violation reports asserted inside the kernel;
    * **discovery** — the materializing per-pattern loop vs
      :func:`~repro.matching.homomorphism.count_matches` per pattern
      over the workload's schema candidates, equal counts asserted.

    Both sides run warm (candidate pools cached per graph version), so
    the measured gap is enumeration and match building, not pool
    derivation.
    """
    from repro.matching.homomorphism import count_matches
    from repro.reasoning import find_violations
    from repro.workloads import overlapping_rule_set, overlapping_workload

    graph = overlapping_workload(nodes, rng)
    sigma = overlapping_rule_set(variants)
    candidates = enumerate_candidate_patterns(
        graph, min_support=1, include_paths=True, include_forks=True
    )
    patterns = [c.pattern for c in candidates if c.shape != "node"]

    # Interleaved best-of sampling (the telemetry gate's idiom): one
    # sample of each side per round, so drift on a shared runner hits
    # both sides alike instead of skewing whichever ran last.
    per_rule_wall = grouped_wall = loop_wall = count_wall = None
    for _ in range(repeats):
        wall, per_rule_report = measure(
            lambda: _per_rule_find_violations(graph, sigma), 1
        )
        per_rule_wall = wall if per_rule_wall is None else min(per_rule_wall, wall)
        wall, grouped_report = measure(lambda: find_violations(graph, sigma), 1)
        grouped_wall = wall if grouped_wall is None else min(grouped_wall, wall)
        wall, loop_counts = measure(lambda: _materializing_counts(graph, patterns), 1)
        loop_wall = wall if loop_wall is None else min(loop_wall, wall)
        wall, counts = measure(
            lambda: [count_matches(pattern, graph) for pattern in patterns], 1
        )
        count_wall = wall if count_wall is None else min(count_wall, wall)
    assert grouped_report == per_rule_report, (
        "grouped validation diverged from per-rule plans"
    )
    assert counts == loop_counts, "counting diverged from materialized matches"

    records = [
        {
            "section": "validation",
            "executor": "per_rule",
            "wall_s": per_rule_wall,
            "rules": len(sigma),
            "violations": len(per_rule_report),
        },
        {
            "section": "validation",
            "executor": "grouped",
            "wall_s": grouped_wall,
            "rules": len(sigma),
            "violations": len(grouped_report),
        },
        {
            "section": "discovery",
            "executor": "per_rule",
            "wall_s": loop_wall,
            "patterns": len(patterns),
            "total_matches": sum(loop_counts),
        },
        {
            "section": "discovery",
            "executor": "counting",
            "wall_s": count_wall,
            "patterns": len(patterns),
            "total_matches": sum(counts),
        },
    ]
    return {
        "config": {"nodes": nodes, "rng": rng, "variants": variants, "repeats": repeats},
        "records": records,
        "speedup_validation": per_rule_wall / grouped_wall if grouped_wall else float("inf"),
        "speedup_discovery": loop_wall / count_wall if count_wall else float("inf"),
    }


def test_sigma_validation_matches_per_rule():
    """The correctness half on a smaller instance (assertions run
    inside the kernel; quick enough for the plain test job)."""
    from repro.reasoning.validation import sigma_groups
    from repro.workloads import overlapping_rule_set, overlapping_workload

    result = run_sigma_bench(nodes=200, rng=0, variants=6, repeats=1)
    assert len(result["records"]) == 4
    graph = overlapping_workload(200, 0)
    sigma = overlapping_rule_set(6)
    assert len(sigma_groups(graph, sigma)) < len(sigma)


def test_sigma_beats_per_rule():
    """The performance half: grouping beats per-rule plans and counting
    beats materializing (the CI gate enforces the 2x floors; this
    in-suite check uses a conservative 1.4x so shared test runners stay
    green)."""
    result = run_sigma_bench(**DEFAULT_SIGMA_CONFIG)
    assert result["speedup_validation"] > 1.4, (
        f"grouped validation only {result['speedup_validation']:.1f}x "
        f"faster than per-rule plans"
    )
    assert result["speedup_discovery"] > 1.4, (
        f"support counting only {result['speedup_discovery']:.1f}x "
        f"faster than materializing every match"
    )
    _emit(result)


def _emit(result: dict) -> None:
    from benchmarks._emit import emit_bench

    emit_bench(
        "discovery",
        result["records"],
        meta={
            "config": result["config"],
            "speedup_validation": result["speedup_validation"],
            "speedup_discovery": result["speedup_discovery"],
        },
    )


if __name__ == "__main__":
    import json

    outcome = run_sigma_bench(**DEFAULT_SIGMA_CONFIG)
    _emit(outcome)
    print(json.dumps({k: v for k, v in outcome.items() if k != "records"}, indent=2))
