"""Round-trip the Prometheus exposition through a real text parser.

Substring assertions (test_report.py) catch missing families; this
module parses the full text-format grammar — ``# HELP`` / ``# TYPE``
comment lines, bare samples, ``{le="..."}`` bucket labels — so a
malformed exposition (bad escaping, non-cumulative buckets, missing
``+Inf``) fails even when every expected substring is present.  The
parser is stdlib-only and intentionally minimal: exactly the subset
:func:`repro.telemetry.render_prometheus` emits.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import paper, telemetry
from repro.deps.io import ged_to_dict
from repro.graph import GraphBuilder
from repro.graph.io import graph_to_json
from repro.telemetry import metrics

REPO_ROOT = Path(__file__).resolve().parents[2]

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"')


def parse_exposition(text: str) -> dict:
    """Parse exposition text into ``{family: {...}}``.

    Each family carries ``help``, ``type``, and ``samples`` — a list of
    ``(name, labels-dict, float-value)``.  Raises AssertionError on any
    line outside the grammar, samples before their ``# TYPE``, or a
    HELP/TYPE pair naming different families.
    """
    families: dict[str, dict] = {}
    pending_help: tuple[str, str] | None = None
    current: str | None = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            pending_help = (name, help_text)
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert kind in ("counter", "gauge", "histogram"), line
            assert pending_help is not None and pending_help[0] == name, (
                f"TYPE without matching HELP: {line!r}"
            )
            families[name] = {
                "help": pending_help[1],
                "type": kind,
                "samples": [],
            }
            current = name
            pending_help = None
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
        match = _SAMPLE.match(line)
        assert match, f"unparsable sample line: {line!r}"
        name = match.group("name")
        family = current
        assert family is not None, f"sample before any TYPE: {line!r}"
        assert name == family or name.startswith(family + "_"), (
            f"sample {name!r} outside family {family!r}"
        )
        labels = {}
        if match.group("labels"):
            for pair in _LABEL.finditer(match.group("labels")):
                labels[pair.group("key")] = pair.group("value")
        families[family]["samples"].append(
            (name, labels, float(match.group("value")))
        )
    return families


def check_histogram(family: str, payload: dict) -> None:
    """Conventional histogram shape: cumulative buckets ending at +Inf."""
    buckets = [s for s in payload["samples"] if s[0] == f"{family}_bucket"]
    assert buckets, f"{family}: no bucket samples"
    bounds = [s[1]["le"] for s in buckets]
    assert bounds[-1] == "+Inf"
    finite = [float(b) for b in bounds[:-1]]
    assert finite == sorted(finite), f"{family}: le bounds not ascending"
    counts = [s[2] for s in buckets]
    assert counts == sorted(counts), f"{family}: buckets not cumulative"
    count_sample = [s for s in payload["samples"] if s[0] == f"{family}_count"]
    assert count_sample and count_sample[0][2] == counts[-1]
    assert any(s[0] == f"{family}_sum" for s in payload["samples"])


@pytest.fixture(autouse=True)
def _clean_metrics():
    metrics.disable()
    metrics.reset()
    yield
    metrics.disable()
    metrics.reset()


class TestSyntheticRoundTrip:
    def test_every_family_kind_parses_and_round_trips(self):
        metrics.enable()
        sink = metrics.sink()
        sink.incr("plan.compiles", 3)
        sink.gauge("serve.seq", 7)
        for value in (0.0005, 0.003, 0.3):
            sink.observe("serve.apply_seconds", value, metrics.SECONDS_BOUNDS)
        families = parse_exposition(telemetry.render_prometheus(metrics.snapshot()))

        counter = families["repro_plan_compiles"]
        assert counter["type"] == "counter"
        assert counter["help"].endswith("plan.compiles")  # raw dotted name
        assert counter["samples"] == [("repro_plan_compiles", {}, 3.0)]

        gauge = families["repro_serve_seq"]
        assert gauge["type"] == "gauge"
        assert gauge["samples"] == [("repro_serve_seq", {}, 7.0)]

        histogram = families["repro_serve_apply_seconds"]
        assert histogram["type"] == "histogram"
        check_histogram("repro_serve_apply_seconds", histogram)

    def test_empty_snapshot_renders_empty_and_parses(self):
        assert parse_exposition(telemetry.render_prometheus(metrics.snapshot())) == {}


class TestCliStatsExposition:
    def test_cli_stats_prom_output_fully_parses(self, tmp_path):
        graph = (
            GraphBuilder()
            .node("fin", "country")
            .node("hel", "city", name="Helsinki")
            .node("spb", "city", name="Saint Petersburg")
            .edge("fin", "capital", "hel")
            .edge("fin", "capital", "spb")
            .build()
        )
        graph_path = tmp_path / "kb.json"
        graph_path.write_text(graph_to_json(graph))
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps([ged_to_dict(paper.phi2())]))

        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "stats",
                "--graph", str(graph_path), "--rules", str(rules_path),
                "--backend", "fragment", "--workers", "1", "--format", "prom",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin",
            },
            timeout=120,
        )
        assert result.returncode == 1, result.stderr  # dirty fixture
        families = parse_exposition(result.stdout)
        assert families, "stats --format prom emitted nothing"
        # every family the run emitted must parse with HELP+TYPE and,
        # for histograms, the full bucket contract
        for name, payload in families.items():
            assert name.startswith("repro_")
            assert payload["help"].startswith("repro metric ")
            assert payload["samples"], f"{name}: family with no samples"
            if payload["type"] == "histogram":
                check_histogram(name, payload)
        # the profiled validation always produces these
        assert "repro_plan_frames_expanded" in families
        assert any(payload["type"] == "histogram" for payload in families.values())
