"""The CLI observability surface: stats, --telemetry, observed explain."""

import json

import pytest

from repro import paper, telemetry
from repro.cli import main
from repro.deps import GED, IdLiteral
from repro.deps.io import ged_to_dict
from repro.engine import shutdown_pools
from repro.graph import GraphBuilder
from repro.graph.io import UpdateLogWriter, graph_to_json
from repro.graph.update import GraphUpdate
from repro.reasoning.incremental import apply_update


@pytest.fixture(autouse=True)
def _clean_telemetry_and_pools():
    telemetry.disable()
    telemetry.reset()
    telemetry.clear_spans()
    yield
    shutdown_pools()
    telemetry.disable()
    telemetry.reset()
    telemetry.clear_spans()


def _dirty_graph():
    return (
        GraphBuilder()
        .node("fin", "country")
        .node("hel", "city", name="Helsinki")
        .node("spb", "city", name="Saint Petersburg")
        .edge("fin", "capital", "hel")
        .edge("fin", "capital", "spb")
        .build()
    )


@pytest.fixture
def kb_files(tmp_path):
    graph_path = tmp_path / "kb.json"
    graph_path.write_text(graph_to_json(_dirty_graph()))
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps([ged_to_dict(paper.phi2())]))
    return graph_path, rules_path


class TestStats:
    def test_fragment_backend_reports_headline_stats(self, kb_files, capsys):
        graph_path, rules_path = kb_files
        code = main(
            ["stats", "--graph", str(graph_path), "--rules", str(rules_path),
             "--backend", "fragment", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 1  # dirty graph, same contract as pvalidate
        # the acceptance headline block
        assert "escalated-pivot share:" in out
        assert "warm-pool hit rate:" in out
        assert "border-replica share:" in out
        assert "per-fragment frames expanded:" in out
        assert "fragment.pivots.local" in out
        # per-fragment frame attribution actually collected
        assert "fragment.frames_expanded.fragment" in out

    def test_json_format(self, kb_files, capsys):
        graph_path, rules_path = kb_files
        code = main(
            ["stats", "--graph", str(graph_path), "--rules", str(rules_path),
             "--backend", "serial", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["backend"] == "serial"
        assert payload["snapshot"]["counters"]["plan.frames_expanded"] > 0
        assert "escalated_pivot_share" in payload["derived"]

    def test_prom_format(self, kb_files, capsys):
        graph_path, rules_path = kb_files
        main(
            ["stats", "--graph", str(graph_path), "--rules", str(rules_path),
             "--backend", "serial", "--format", "prom"]
        )
        out = capsys.readouterr().out
        assert "# TYPE repro_plan_frames_expanded counter" in out
        assert "repro_validate_runs 1" in out

    def test_stats_leaves_telemetry_disabled(self, kb_files):
        graph_path, rules_path = kb_files
        main(["stats", "--graph", str(graph_path), "--rules", str(rules_path)])
        assert not telemetry.enabled()


class TestTelemetryFlag:
    def test_pvalidate_exports_ndjson(self, kb_files, tmp_path, capsys):
        graph_path, rules_path = kb_files
        target = tmp_path / "run.ndjson"
        code = main(
            ["pvalidate", "--graph", str(graph_path), "--rules", str(rules_path),
             "--backend", "fragment", "--telemetry", f"ndjson:{target}"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "violation" in captured.out  # normal output unchanged
        assert str(target) in captured.err
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        span_names = {line["name"] for line in lines if line["type"] == "span"}
        assert "cli.pvalidate" in span_names and "pvalidate" in span_names
        (metrics_line,) = [line for line in lines if line["type"] == "metrics"]
        counters = metrics_line["snapshot"]["counters"]
        assert counters["validate.runs"] == 1
        assert counters["plan.frames_expanded"] > 0
        assert not telemetry.enabled()  # flag cleans up after itself

    def test_bad_spec_exits_2(self, kb_files, capsys):
        graph_path, rules_path = kb_files
        code = main(
            ["validate", "--graph", str(graph_path), "--rules", str(rules_path),
             "--telemetry", "csv:out.csv"]
        )
        assert code == 2
        assert "ndjson:<path>" in capsys.readouterr().err


class TestStreamSummary:
    def _log(self, tmp_path):
        base = _dirty_graph()
        log_path = tmp_path / "updates.jsonl"
        writer = UpdateLogWriter(log_path)
        writer.write_base(base)
        update = GraphUpdate(
            nodes=(("tpe", "city", (("name", "Tampere"),)),),
            edges=(("fin", "capital", "tpe"),),
        )
        apply_update(base, update)
        writer.append(update, base)
        writer.close()
        return log_path

    @pytest.mark.parametrize("backend", ["serial", "fragment"])
    def test_summary_carries_routing_and_escalation_counts(
        self, kb_files, tmp_path, capsys, backend
    ):
        _, rules_path = kb_files
        log_path = self._log(tmp_path)
        main(
            ["stream", "--log", str(log_path), "--rules", str(rules_path),
             "--backend", backend, "--workers", "2"]
        )
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        (summary,) = [line for line in lines if line["type"] == "summary"]
        assert {"routed_ops", "full_ops", "escalated_nodes"} <= set(summary)
        if backend == "fragment":
            assert summary["routed_ops"] > 0
            assert summary["full_ops"] >= summary["routed_ops"]
        else:
            assert summary["routed_ops"] == 0


class TestObservedExplain:
    def test_observed_annotations_render_actual_counts(self, kb_files, tmp_path, capsys):
        graph_path, rules_path = kb_files
        # phi2 alone, and phi2 plus a literal variant over its pattern:
        # the grouped full scan enumerates the pair once, through the
        # very plan both rules render.
        variant = GED(paper.q2(), [], [IdLiteral("y", "z")], name="phi2-id")
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(json.dumps([ged_to_dict(paper.phi2()), ged_to_dict(variant)]))
        for path, rules in ((rules_path, 1), (pair_path, 2)):
            code = main(
                ["explain", "--graph", str(graph_path), "--rules", str(path),
                 "--observed"]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert out.count("== ") == rules
            assert "[obs. " in out
            assert "frame(s)" in out and "row probe(s)" in out
            assert "not executed" not in out  # every step of phi2's plan ran
            assert not telemetry.enabled()

    def test_default_explain_is_unannotated(self, kb_files, capsys):
        graph_path, rules_path = kb_files
        main(["explain", "--graph", str(graph_path), "--rules", str(rules_path)])
        assert "[obs. " not in capsys.readouterr().out


class TestTraceCommand:
    def _export(self, kb_files, tmp_path):
        """A real --telemetry export to render (engine pool = worker spans)."""
        graph_path, rules_path = kb_files
        target = tmp_path / "run.ndjson"
        main(
            ["pvalidate", "--graph", str(graph_path), "--rules", str(rules_path),
             "--backend", "engine", "--workers", "2",
             "--telemetry", f"ndjson:{target}"]
        )
        return target

    def test_renders_indented_tree_with_attribution(self, kb_files, tmp_path, capsys):
        target = self._export(kb_files, tmp_path)
        capsys.readouterr()
        code = main(["trace", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("trace ")
        assert "cli.pvalidate" in out
        # indentation shows causality; shares and ms on every line
        assert "    pvalidate" in out
        assert "ms" in out and "%" in out
        assert "where the milliseconds went (self time):" in out
        # the pool workers' spans landed in the same tree, marked with
        # their foreign process tag
        assert "engine.batch" in out
        assert "  @" in out

    def test_trace_id_prefix_filter(self, kb_files, tmp_path, capsys):
        target = self._export(kb_files, tmp_path)
        records = [json.loads(line) for line in target.read_text().splitlines()]
        trace_id = next(r["trace_id"] for r in records if "trace_id" in r)
        capsys.readouterr()
        assert main(["trace", str(target), "--trace-id", trace_id[:6]]) == 0
        assert trace_id in capsys.readouterr().out

        assert main(["trace", str(target), "--trace-id", "zzzzzz"]) == 1
        assert "no traced spans" in capsys.readouterr().err

    def test_untraced_export_exits_1(self, tmp_path, capsys):
        target = tmp_path / "empty.ndjson"
        target.write_text(json.dumps({"type": "metrics", "snapshot": {}}) + "\n")
        assert main(["trace", str(target)]) == 1
        assert "no traced spans" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["trace", "/nonexistent/run.ndjson"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_slow_plans_render_inside_their_trace(self, kb_files, tmp_path, capsys):
        graph_path, rules_path = kb_files
        target = tmp_path / "slow.ndjson"
        main(
            ["pvalidate", "--graph", str(graph_path), "--rules", str(rules_path),
             "--backend", "serial", "--slow-plan-ms", "0",
             "--telemetry", f"ndjson:{target}"]
        )
        capsys.readouterr()
        assert main(["trace", str(target)]) == 0
        out = capsys.readouterr().out
        assert "slow plan:" in out
        assert "match plan" in out  # the captured explain text, indented
