"""The delta kernel's Σ grouping: one pin enumeration serves every
rule of its (pattern, restriction) group."""

from repro.telemetry import metrics
from repro.workloads import overlapping_rule_set, overlapping_workload


class TestSigmaGrouping:
    def test_delta_kernel_replays_pin_streams_across_rules(self):
        from repro.streaming import delta_violations

        graph = overlapping_workload(80, rng=2)
        sigma = overlapping_rule_set(6)
        touched = sorted(graph.node_ids)[:5]
        with metrics.collecting() as registry:
            first = delta_violations(graph, sigma, touched)
            counters = registry.snapshot()["counters"]
        # Literal variants over one skeleton replay the memoized stream
        # instead of re-running the ball search...
        assert counters.get("matching.sigma.stream_reuse", 0) > 0
        # ...and replays are invisible in the output: a fresh call (new
        # memo) reports the identical tagged violations.
        assert delta_violations(graph, sigma, touched) == first
