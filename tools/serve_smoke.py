#!/usr/bin/env python
"""Smoke the live ops surface of `cli serve` end to end.

Boots a real ``python -m repro.cli serve`` subprocess on an ephemeral
port with NDJSON telemetry export, then — exactly as CI's serve-smoke
job does —

1. curls ``/healthz`` and ``/metrics`` over plain HTTP on the *same*
   port the protocol clients use, checking the health payload's fields
   and that the exposition parses;
2. publishes one update batch through the wire protocol under a trace
   context this script mints (the protocol and HTTP clients must
   coexist on one listener);
3. waits for the bounded run to exit and asserts the exported
   ``trace.ndjson`` holds the server's tree for that batch under the
   minted trace id, hanging off this script's span ref — the wire is
   the process boundary the context crosses — with the batch's
   validate, log-append, apply, introduce and push spans.

The trace file is left under ``--out`` for artifact upload.  Exit 0
clean, 1 with a one-line reason otherwise.  Stdlib only::

    python tools/serve_smoke.py --out smoke-out
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def write_fixtures(out: Path) -> tuple[Path, Path, Path]:
    """A tiny dirty graph + one rule, in the CLI's JSON formats."""
    graph = {
        "nodes": [
            {"id": "c1", "label": "city", "attrs": {"pop": 1}},
            {"id": "p1", "label": "person", "attrs": {"age": 0}},
        ],
        "edges": [["p1", "lives_in", "c1"]],
    }
    rule = {
        "name": "resident-age",
        "pattern": {
            "variables": ["p", "c"],
            "labels": {"p": "person", "c": "city"},
            "edges": [["p", "lives_in", "c"]],
        },
        "X": [],
        "Y": [{"kind": "const", "var": "p", "attr": "age", "value": 30}],
    }
    graph_path = out / "kb.json"
    graph_path.write_text(json.dumps(graph))
    rules_path = out / "rules.json"
    rules_path.write_text(json.dumps([rule]))
    return graph_path, rules_path, out / "updates.jsonl"


def http_get(port: int, path: str) -> tuple[int, dict, bytes]:
    """One GET against the serve listener; returns (status, headers, body)."""
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:  # 404 etc. still carry a body
        return error.code, dict(error.headers), error.read()


def publish_one_batch(port: int, trace) -> dict:
    """Send one update over the wire protocol under ``trace``; returns
    the ack frame."""
    import asyncio

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.graph.update import GraphUpdate
    from repro.serve import ServeClient

    async def run() -> dict:
        # A subscriber makes the batch exercise push delivery (the
        # serve.push span).
        watcher = await ServeClient.connect("127.0.0.1", port)
        client = await ServeClient.connect("127.0.0.1", port)
        try:
            await watcher.subscribe()
            update = GraphUpdate(
                nodes=[("p2", "person", {"age": 30}), ("p3", "person", {"age": 0})]
            )
            ack = await client.send_update(update, trace=trace)
            event = await watcher.next_event()
            assert event.get("type") in ("delta", "resync"), event
            return ack
        finally:
            await client.close()
            await watcher.close()

    return asyncio.run(run())


BATCH_SPANS = {
    "serve.validate",
    "serve.log_append",
    "stream.apply",
    "stream.introduce",
    "serve.push",
}


def check_trace(trace_path: Path, trace) -> str | None:
    """Assert the server's batch tree sits under the minted ``trace``,
    as a child of its parent ref; None = clean."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.telemetry import assemble_traces

    records = [
        json.loads(line)
        for line in trace_path.read_text().splitlines()
        if line.strip()
    ]
    roots = assemble_traces(records).get(trace.trace_id)
    if not roots:
        return f"no spans exported under the minted trace id {trace.trace_id}"
    if len(roots) != 1 or roots[0].name != "serve.batch":
        return f"expected one serve.batch root, got {[root.name for root in roots]}"
    (root,) = roots
    if root.record.get("parent_ref") != trace.parent_ref:
        return f"serve.batch parent {root.record.get('parent_ref')!r} != {trace.parent_ref!r}"
    names = {node.name for _, node in root.walk()}
    if not BATCH_SPANS <= names:
        return f"batch tree lacks {sorted(BATCH_SPANS - names)}"
    print(f"trace {trace.trace_id}: {sorted(names)} under {trace.parent_ref}")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="smoke-out", help="artifact directory")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph_path, rules_path, log_path = write_fixtures(out)
    trace_path = out / "trace.ndjson"
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.telemetry.trace import TraceContext, make_ref, start_trace

    # A context minted here: a fresh trace id whose parent is a span ref
    # of this process, so the server's batch tree must hang off it.
    trace = TraceContext(start_trace().trace_id, make_ref(1))

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--log", str(log_path), "--rules", str(rules_path),
            "--graph", str(graph_path),
            "--telemetry", f"ndjson:{trace_path}",
            "--max-batches", "1", "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    try:
        listening = json.loads(proc.stdout.readline())
        assert listening["type"] == "listening", listening
        port = listening["port"]

        status, headers, body = http_get(port, "/healthz")
        health = json.loads(body)
        if status != 200 or health.get("status") != "ok":
            print(f"FAIL /healthz: {status} {health}", file=sys.stderr)
            return 1
        for field in ("seq", "epoch", "subscribers", "queue_depth_p99"):
            if field not in health:
                print(f"FAIL /healthz missing {field!r}", file=sys.stderr)
                return 1
        print(f"/healthz ok: {health}")

        status, headers, body = http_get(port, "/metrics")
        text = body.decode("utf-8")
        if status != 200 or "text/plain" not in headers.get("Content-Type", ""):
            print(f"FAIL /metrics: {status} {headers}", file=sys.stderr)
            return 1
        if "# TYPE" not in text or "serve_seq" not in text:
            print(f"FAIL /metrics body:\n{text}", file=sys.stderr)
            return 1
        print(f"/metrics ok: {len(text.splitlines())} line(s)")

        ack = publish_one_batch(port, trace)
        if ack.get("type") != "ack" or ack.get("trace_id") != trace.trace_id:
            print(f"FAIL publish ack: {ack}", file=sys.stderr)
            return 1
        print(f"publish ok: {ack}")
    finally:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    deadline = time.time() + 10
    while not trace_path.exists() and time.time() < deadline:
        time.sleep(0.1)
    if not trace_path.exists():
        print("FAIL: no trace.ndjson exported", file=sys.stderr)
        return 1
    reason = check_trace(trace_path, trace)
    if reason is not None:
        print(f"FAIL trace: {reason}", file=sys.stderr)
        print(trace_path.read_text(), file=sys.stderr)
        return 1
    print(f"serve smoke clean; trace artifact at {trace_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
