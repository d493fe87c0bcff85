"""The ledger's ``updated`` list, end to end.

A batch that changes *which* Y literals a held violation fails keeps the
violation's key (dependency position, embedding) but not its failed
set: the ledger reports it under ``updated``, neither retired nor
re-introduced.  Churn streams rarely produce one, so these cases build
it on purpose — a rule with two Y literals over one node — and follow
it through the ledger, the ``stream`` CLI and a served subscription.
"""

import asyncio
import json

import pytest

from repro.cli import main
from repro.deps import GED, ConstantLiteral
from repro.deps.io import ged_to_dict
from repro.graph import GraphBuilder
from repro.graph.io import UpdateLogWriter, graph_to_json
from repro.graph.update import GraphUpdate
from repro.indexing import attach_index, get_index
from repro.indexing.maintenance import apply_update_indexed
from repro.patterns import Pattern
from repro.reasoning import find_violations
from repro.serve import ServeClient, ViolationServer
from repro.streaming import ViolationLedger, canonical_report, violation_to_dict

INDEXED = pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])


def run(coro):
    """Run a scenario, failing it instead of hanging past 30 s."""
    return asyncio.run(asyncio.wait_for(coro, 30))


def both_one() -> GED:
    """x.a = 1 and x.b = 1 on every L node: two Y literals, so a
    violation can fail one, the other, or both."""
    return GED(
        Pattern({"x": "L"}),
        [],
        [ConstantLiteral("x", "a", 1), ConstantLiteral("x", "b", 1)],
        name="both-one",
    )


def tagged() -> GED:
    """A second rule, on M nodes, that never changes here: it gives the
    filters something to leave out."""
    return GED(Pattern({"y": "M"}), [], [ConstantLiteral("y", "tag", "ok")], name="tagged")


def base_graph():
    """n fails x.b = 1; m satisfies both-one; k fails tagged."""
    return (
        GraphBuilder()
        .node("n", "L", a=1, b=2)
        .node("m", "L", a=1, b=1)
        .node("k", "M", tag="bad")
        .build()
    )


def make_ledger(indexed):
    graph = base_graph()
    if indexed:
        attach_index(graph)
    sigma = [both_one(), tagged()]
    ledger = ViolationLedger(graph, sigma)
    ledger.bootstrap()
    return graph, sigma, ledger


def failed(violation) -> list[str]:
    return [str(literal) for literal in violation.failed]


def assert_exact(ledger, graph, sigma):
    assert ledger.violations() == canonical_report(sigma, find_violations(graph, sigma))


class TestLedgerUpdated:
    @INDEXED
    def test_failing_one_more_literal_is_an_update(self, indexed):
        graph, sigma, ledger = make_ledger(indexed)
        (before,) = [v for v in ledger.violations() if v.ged.name == "both-one"]
        assert failed(before) == ["x.b = 1"]
        delta = ledger.refresh(GraphUpdate(attrs=[("n", "a", 5)]))
        assert delta.introduced == [] and delta.retired == []
        (after,) = delta.updated
        assert after.match == before.match
        assert failed(after) == ["x.a = 1", "x.b = 1"]
        assert delta.rechecked == 1 and not delta.is_empty()
        assert delta.to_dict()["updated"] == [
            {"rule": "both-one", "match": [["x", "n"]], "failed": ["x.a = 1", "x.b = 1"]}
        ]
        assert len(ledger) == 2
        assert_exact(ledger, graph, sigma)
        if indexed:
            assert get_index(graph) is not None

    @INDEXED
    def test_failing_one_fewer_literal_is_an_update(self, indexed):
        graph, sigma, ledger = make_ledger(indexed)
        ledger.refresh(GraphUpdate(attrs=[("n", "a", 5)]))
        delta = ledger.refresh(GraphUpdate(attrs=[("n", "b", 1)]))
        (after,) = delta.updated
        assert failed(after) == ["x.a = 1"]
        assert delta.introduced == [] and delta.retired == []
        assert_exact(ledger, graph, sigma)

    @INDEXED
    def test_the_updated_entry_is_what_a_later_fix_retires(self, indexed):
        graph, sigma, ledger = make_ledger(indexed)
        ledger.refresh(GraphUpdate(attrs=[("n", "a", 5)]))
        delta = ledger.refresh(GraphUpdate(attrs=[("n", "a", 1), ("n", "b", 1)]))
        (retired,) = delta.retired
        # The retired entry carries the failed set it held last, the
        # one the update before installed.
        assert failed(retired) == ["x.a = 1", "x.b = 1"]
        assert delta.updated == [] and delta.introduced == []
        assert [v.ged.name for v in ledger.violations()] == ["tagged"]
        assert_exact(ledger, graph, sigma)

    @INDEXED
    def test_rewriting_the_failed_literal_keeps_the_entry(self, indexed):
        """A read attribute rewritten to another failing value is
        rechecked, but its failed set is unchanged: no update."""
        graph, sigma, ledger = make_ledger(indexed)
        delta = ledger.refresh(GraphUpdate(attrs=[("n", "b", 3)]))
        assert delta.is_empty() and delta.rechecked == 1
        assert_exact(ledger, graph, sigma)

    def test_updated_violation_keeps_its_key_and_position(self):
        graph, sigma, ledger = make_ledger(False)
        keys_before = [(position, v.match) for position, v in ledger.entries()]
        delta = ledger.refresh(GraphUpdate(attrs=[("n", "a", 5)]))
        (after,) = delta.updated
        assert after.ged is sigma[0]
        assert ledger.position_of(after.ged) == 0
        assert [(position, v.match) for position, v in ledger.entries()] == keys_before
        assert not ledger.clean

    def test_deltas_fold_to_the_final_state(self):
        """introduced − retired, with updated entries replaced, folded
        over a stream that updates, retires and re-introduces."""
        graph, sigma, ledger = make_ledger(False)
        state = {(v.ged.name, v.match): v for v in ledger.violations()}
        batches = [
            GraphUpdate(attrs=[("n", "a", 5)]),
            GraphUpdate(attrs=[("m", "b", 7)]),
            GraphUpdate(attrs=[("n", "b", 1)]),
            GraphUpdate(attrs=[("m", "a", 0)]),
            GraphUpdate(attrs=[("n", "a", 1)]),
        ]
        kinds = []
        for update in batches:
            delta = ledger.refresh(update)
            kinds.append((len(delta.introduced), len(delta.retired), len(delta.updated)))
            for v in delta.retired:
                del state[(v.ged.name, v.match)]
            for v in delta.updated:
                assert (v.ged.name, v.match) in state
                state[(v.ged.name, v.match)] = v
            for v in delta.introduced:
                assert (v.ged.name, v.match) not in state
                state[(v.ged.name, v.match)] = v
        assert kinds == [(0, 0, 1), (1, 0, 0), (0, 0, 1), (0, 0, 1), (0, 1, 0)]
        assert sorted(state.values(), key=lambda v: (v.ged.name, v.match)) == sorted(
            ledger.violations(), key=lambda v: (v.ged.name, v.match)
        )
        assert_exact(ledger, graph, sigma)


class TestUpdatedDownstream:
    BATCHES = [
        GraphUpdate(attrs=[("n", "a", 5)]),
        GraphUpdate(attrs=[("n", "b", 1)]),
    ]

    def test_stream_cli_reports_updates(self, tmp_path, capsys):
        live = base_graph()
        log_path = tmp_path / "updates.jsonl"
        with UpdateLogWriter(log_path) as writer:
            writer.write_base(live)
            for update in self.BATCHES:
                apply_update_indexed(live, update)
                writer.append(update, live)
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps([ged_to_dict(g) for g in (both_one(), tagged())]))
        graph_path = tmp_path / "base.json"
        graph_path.write_text(graph_to_json(base_graph()))
        code = main(
            ["stream", "--log", str(log_path), "--rules", str(rules_path),
             "--graph", str(graph_path)]
        )
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        deltas = [line for line in lines if line["type"] == "delta"]
        assert [[v["failed"] for v in d["updated"]] for d in deltas] == [
            [["x.a = 1", "x.b = 1"]],
            [["x.a = 1"]],
        ]
        assert all(d["introduced"] == [] and d["retired"] == [] for d in deltas)
        assert lines[-1]["violations"] == 2
        assert code == 1

    def test_served_updates_reach_the_subscribers_they_match(self):
        graph = base_graph()
        sigma = [both_one(), tagged()]

        async def scenario():
            async with ViolationServer(graph, sigma) as server:
                everything = await ServeClient.connect("127.0.0.1", server.port)
                by_rule = await ServeClient.connect("127.0.0.1", server.port)
                elsewhere = await ServeClient.connect("127.0.0.1", server.port)
                await everything.subscribe()
                await by_rule.subscribe({"rules": ["both-one"]})
                await elsewhere.subscribe({"labels": ["M"]})
                acks, frames = [], {"all": [], "rule": [], "other": []}
                for update in self.BATCHES:
                    acks.append(await everything.send_update(update))
                    for name, client in (
                        ("all", everything), ("rule", by_rule), ("other", elsewhere)
                    ):
                        frames[name].append(await client.next_event(timeout=5))
                for client in (everything, by_rule, elsewhere):
                    await client.close()
            return acks, frames

        acks, frames = run(scenario())
        assert [(a["introduced"], a["retired"], a["updated"]) for a in acks] == [
            (0, 0, 1),
            (0, 0, 1),
        ]
        expected = [
            [{"rule": "both-one", "match": [["x", "n"]], "failed": ["x.a = 1", "x.b = 1"]}],
            [{"rule": "both-one", "match": [["x", "n"]], "failed": ["x.a = 1"]}],
        ]
        assert [f["updated"] for f in frames["all"]] == expected
        assert [f["updated"] for f in frames["rule"]] == expected
        # The M-label subscriber still gets a frame per batch (gap-free
        # seqs), with the L-node update filtered out.
        assert [(f["seq"], f["updated"]) for f in frames["other"]] == [(1, []), (2, [])]
        final = canonical_report(sigma, find_violations(graph, sigma))
        assert violation_to_dict(final[0]) == expected[-1][0]
