"""The delta kernel's Σ grouping: one executor run per (group, pattern
variable) serves every rule of its (pattern, restriction) group."""

from repro.reasoning.validation import sigma_groups
from repro.telemetry import metrics
from repro.workloads import overlapping_rule_set, overlapping_workload


class TestSigmaGrouping:
    def test_one_run_per_group_variable_serves_every_member_rule(self):
        """``matching.sigma.stream_reuse`` counts, per (group, variable)
        run, the member rules beyond the first that read its stream —
        so it is positive on literal variants and bounded by one run
        per variable, however many nodes are touched."""
        from repro.streaming import delta_violations

        graph = overlapping_workload(80, rng=2)
        sigma = overlapping_rule_set(6)
        touched = sorted(graph.node_ids)[:5]
        with metrics.collecting() as registry:
            first = delta_violations(graph, sigma, touched)
            counters = registry.snapshot()["counters"]
        reuse = counters.get("matching.sigma.stream_reuse", 0)
        bound = sum(
            (len(members) - 1) * len(pattern.variables)
            for pattern, _, members in sigma_groups(graph, sigma)
        )
        assert 0 < reuse <= bound
        # Sharing a run is invisible in the output: a fresh call
        # reports the identical tagged violations.
        assert delta_violations(graph, sigma, touched) == first
