"""Drive ``repro.cli serve`` as a user would and measure what they wait for.

One process, one thread, blocking sockets, at most two connections to
the server: a subscriber (all rules) and a publisher.  The loop is
closed: the publisher writes one update frame, then waits for its
``ack`` and for the subscriber's ``delta`` frame with that ``seq``
before it sends the next one.

A run starts the server ``spawns`` times on the workload's log, and
times spawn to the ``listening`` line (``setup_s``) and spawn to the
complete bootstrap frame (``first_report_s``).  The last start before
the half-way point stays up for the *steady* phase: after a warm-up, a
fixed number of batches (``spec.rate`` per second asked for) is
published to it, so that every run with one seed applies the same
updates to the same graph however fast the host is.  Every other start
is killed as soon as its bootstrap is checked.  Correctness is checked
outside every timed region.

The host's CPU speed drifts over tens of seconds, so the run also times
:func:`probe` before every start and every ``PROBE_EVERY_S`` of the
steady phase, and :func:`end_to_end` reports times at the reference
speed (``PROBE_REF_S``).
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.deps.io import ged_to_dict
from repro.graph.io import UpdateLogWriter, update_to_dict
from repro.graph.update import apply_update_plain
from repro.reasoning.validation import find_violations
from repro.serve.protocol import encode_frame
from repro.streaming.ledger import canonical_report, violation_to_dict

from workloads import WorkloadSpec, build_inputs

_clock = time.perf_counter
_TICKS = os.sysconf("SC_CLK_TCK")
_HERE = Path(__file__).resolve().parent

#: Batches published before the measured window opens (they fill the
#: plan and program caches and take the publisher's ``hello``).
WARMUP_BATCHES = 50

#: Seconds to wait for any single server reply, or for a traced server
#: to dump its spans (start-up is bounded by the run's deadline).
IO_TIMEOUT = 60.0

#: The steady phase stops early once it has run this many times the
#: seconds asked for (a much slower server); the metrics are per batch.
WINDOW_SLACK = 3.0

#: Seconds of steady phase between two host-speed probes.
PROBE_EVERY_S = 1.0

#: Median :func:`probe` time on the reference host (one AMD EPYC vCPU).
PROBE_REF_S = 0.065

_PROBE_RECORDS = json.dumps([
    {"id": f"n{i}", "label": ("user", "item", "shop")[i % 3], "attrs": {"score": i % 7}}
    for i in range(2400)
])


def probe() -> float:
    """Seconds a fixed block of interpreter work takes on the host now.

    JSON decode and encode, dict and tuple building: the kind of work
    the server does, but in code the program under test never changes.
    """
    start = _clock()
    for _ in range(25):
        records = json.loads(_PROBE_RECORDS)
        groups: dict[tuple, list] = {}
        for record in records:
            groups.setdefault((record["label"], record["attrs"]["score"]), []).append(
                record["id"]
            )
        sorted((key, tuple(ids)) for key, ids in groups.items())
        json.dumps([record for record in records if record["attrs"]["score"] != 1])
    return _clock() - start


class BenchError(Exception):
    """The server misbehaved in a way the run cannot recover from."""


class FrameSocket:
    """A blocking, length-prefixed protocol connection."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        """Write pre-encoded frame bytes."""
        self.sock.sendall(data)

    def read(self) -> bytes:
        """One frame's payload bytes."""
        prefix = self.reader.read(4)
        if len(prefix) < 4:
            raise BenchError("server closed the connection")
        length = int.from_bytes(prefix, "big")
        payload = self.reader.read(length)
        if len(payload) < length:
            raise BenchError("server closed the connection mid-frame")
        return payload

    def close(self) -> None:
        """Close the connection."""
        self.reader.close()
        self.sock.close()


class Server:
    """One ``cli serve`` process (plain, or under the traced launcher)."""

    def __init__(self, args: list[str], workdir: Path, dump: Path | None):
        self.dump = dump
        if dump is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, str(_HERE / "traced_serve.py"), str(dump), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path("src").resolve())
        self.stderr = open(workdir / "server.stderr", "ab")
        self.started = _clock()
        self.proc = subprocess.Popen(
            command,
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
        )
        self.pid = self.proc.pid

    def wait_listening(self) -> dict:
        """Block until the server prints its ``listening`` record."""
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"server exited before listening (code {self.proc.wait()})")
        record = json.loads(line)
        if record.get("type") != "listening":
            raise BenchError(f"unexpected first server line: {line!r}")
        self.port = record["port"]
        return record

    def cpu_seconds(self) -> float:
        """User + system CPU of the server so far (``/proc/<pid>/stat``)."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server (``/proc/<pid>/status``), in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> dict | None:
        """Kill the server; a traced one is asked to dump its spans first."""
        if self.proc.poll() is None:
            if self.dump is not None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=IO_TIMEOUT)
                except subprocess.TimeoutExpired:
                    pass
            if self.proc.poll() is None:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        if self.dump is not None and self.dump.exists():
            return json.loads(self.dump.read_text())
        return None


@dataclass
class Cold:
    """One start of the server."""

    setup_s: float
    first_report_s: float
    bootstrap_bytes: int
    dump: dict | None = None


@dataclass
class Result:
    """What one run measured and checked."""

    cold: list[Cold] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # measured window only
    seqs: list[int] = field(default_factory=list)  # seq of each measured latency
    delta_bytes: list[int] = field(default_factory=list)  # measured window only
    window_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    steady_dump: dict | None = None
    cut_short: bool = False  # the window hit WINDOW_SLACK before the stream ended
    probes: list[float] = field(default_factory=list)  # probe() seconds, whole run

    def host_speed(self) -> float:
        """How much slower than the reference host this run's host was."""
        return statistics.median(self.probes) / PROBE_REF_S

    def fail(self, problem: str) -> None:
        """Count one failed operation or check."""
        self.failed += 1
        self.problems.append(problem)


def _expected(graph, sigma) -> list[dict]:
    """The oracle: canonically ordered from-scratch violations."""
    return [violation_to_dict(v) for v in canonical_report(sigma, find_violations(graph, sigma))]


def _subscriber_state(bootstrap: dict, deltas: list[dict], sigma, result: Result) -> list[dict]:
    """Bootstrap plus every delta, as a canonically ordered list."""
    position = {ged.name: index for index, ged in enumerate(sigma)}
    state = {}
    for v in bootstrap["violations"]:
        state[(v["rule"], tuple(map(tuple, v["match"])))] = v
    expected_seq = bootstrap["seq"] + 1
    for frame in deltas:
        if frame.get("type") != "delta":
            result.fail(f"subscriber got a {frame.get('type')!r} frame, not a delta")
            continue
        if frame["seq"] != expected_seq:
            result.fail(f"seq gap: expected {expected_seq}, got {frame['seq']}")
        expected_seq = frame["seq"] + 1
        for v in frame["retired"]:
            if state.pop((v["rule"], tuple(map(tuple, v["match"]))), None) is None:
                result.fail("delta retired an unknown violation")
        for v in frame["updated"]:
            key = (v["rule"], tuple(map(tuple, v["match"])))
            if key not in state:
                result.fail("delta updated an unknown violation")
            state[key] = v
        for v in frame["introduced"]:
            key = (v["rule"], tuple(map(tuple, v["match"])))
            if key in state:
                result.fail("delta introduced a known violation")
            state[key] = v
    return [state[key] for key in sorted(state, key=lambda k: (position[k[0]], k[1]))]


def run(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    workdir: Path,
    *,
    traced: bool,
    spawns: int,
) -> Result:
    """One run: set up, then ``spawns`` cold starts around the steady phase."""
    stream_batches = WARMUP_BATCHES + max(1, round(spec.rate * seconds))
    inputs = build_inputs(spec, seed, stream_batches)
    sigma = inputs.sigma
    rules = workdir / "rules.json"
    rules.write_text(json.dumps([ged_to_dict(ged) for ged in sigma]))
    start_log = workdir / "start.jsonl"
    with UpdateLogWriter(start_log) as writer:
        writer.write_base(inputs.base)
        for update in inputs.tail:
            writer.append(update)
    # A start that is killed before any batch writes nothing to its log,
    # so those starts share the start log; only the steady server appends
    # and gets a copy.  Both are written back to disk now: done by the
    # kernel later, that writeback stalls the server mid-phase.
    steady_log = workdir / "steady.jsonl"
    shutil.copyfile(start_log, steady_log)
    for path in (start_log, steady_log):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    frames = [
        encode_frame({"type": "update", "update": update_to_dict(update)})
        for update in inputs.stream
    ]
    oracle_graph = inputs.base
    for update in inputs.tail:
        apply_update_plain(oracle_graph, update)
    boot_expected = _expected(oracle_graph, sigma)
    subscribe = encode_frame({"type": "subscribe"})
    serve_args = ["serve", "--rules", str(rules)]
    if spec.checkpoint_every:
        serve_args += ["--checkpoint-every", str(spec.checkpoint_every)]

    result = Result()
    # The load generator's heap (inputs, frames) is large, so one of its
    # own collections would land inside a timed batch as a pause the
    # server never caused.  What it allocates from here to the oracle is
    # acyclic, so reference counting frees it.  A run that raises ends
    # the process, so there is no path back here with collection off.
    gc.collect()
    gc.disable()

    def cold_start(attempt: int, log: Path) -> tuple[Server, FrameSocket, Cold, dict]:
        """Start a server on ``log``; time and check it."""
        dump = workdir / f"dump{attempt}.json" if traced else None
        result.probes.append(probe())
        result.attempted += 1
        server = Server(serve_args + ["--log", str(log)], workdir, dump)
        sub = None
        try:
            listening = server.wait_listening()
            setup_s = _clock() - server.started
            sub = FrameSocket(server.port)
            sub.send(subscribe)
            sub.read()  # hello
            boot_payload = sub.read()
            first_report_s = _clock() - server.started
            bootstrap = json.loads(boot_payload)
            if bootstrap.get("type") != "bootstrap":
                raise BenchError(f"start {attempt}: expected a bootstrap, got {bootstrap!r}")
        except BaseException:
            if sub is not None:
                sub.close()
            server.stop()
            raise
        cold = Cold(setup_s, first_report_s, len(boot_payload))
        result.cold.append(cold)
        if listening["seq"] != len(inputs.tail) or bootstrap["seq"] != len(inputs.tail):
            result.fail(f"start {attempt}: resumed at seq {listening['seq']}, "
                        f"expected {len(inputs.tail)}")
        elif bootstrap["violations"] != boot_expected:
            result.fail(f"start {attempt}: bootstrap differs from the replayed log's oracle")
        return server, sub, cold, bootstrap

    def start_and_kill(attempt: int) -> None:
        server, sub, cold, _ = cold_start(attempt, start_log)
        sub.close()
        cold.dump = server.stop()

    # -- cold phase: half the starts before the steady phase, half after,
    # so that one slow stretch of the machine cannot take them all ------
    before = spawns - spawns // 2
    for attempt in range(before - 1):
        start_and_kill(attempt)
    server, sub, cold, bootstrap = cold_start(before - 1, steady_log)

    # -- steady phase on the last start -----------------------------------
    pub = None
    try:
        pub = FrameSocket(server.port)
        hello_pending = True
        deltas: list[bytes] = []
        applied = []  # the updates the server acknowledged, in order
        sent = 0
        cpu_start = window_start = None
        deadline = probe_due = None
        probing = 0.0  # seconds of the window spent in probes
        while sent < len(frames):
            if sent == WARMUP_BATCHES:
                cpu_start = server.cpu_seconds()
                window_start = probe_due = _clock()
                deadline = window_start + seconds * WINDOW_SLACK
            if deadline is not None:
                now = _clock()
                if now >= deadline:
                    result.cut_short = True
                    break
                if now >= probe_due:
                    result.probes.append(probe())
                    probe_due = _clock()
                    probing += probe_due - now
                    probe_due += PROBE_EVERY_S
            started = _clock()
            pub.send(frames[sent])
            sent += 1
            result.attempted += 1
            if hello_pending:
                pub.read()
                hello_pending = False
            ack = json.loads(pub.read())
            if ack.get("type") != "ack":
                result.fail(f"update {sent} rejected: {ack.get('message')}")
                continue
            payload = sub.read()
            elapsed = _clock() - started
            deltas.append(payload)
            applied.append(inputs.stream[sent - 1])
            if deadline is not None:
                result.latencies.append(elapsed)
                result.seqs.append(ack["seq"])
                result.delta_bytes.append(len(payload))
        if deadline is None:
            raise BenchError("the generated stream is shorter than the warm-up")
        result.window_s = _clock() - window_start - probing
        result.cpu_s = server.cpu_seconds() - cpu_start
        result.peak_rss_mb = server.peak_rss_mb()
    finally:
        for connection in (pub, sub):
            if connection is not None:
                connection.close()
        result.steady_dump = cold.dump = server.stop()

    for attempt in range(before, spawns):
        start_and_kill(attempt)

    gc.enable()

    # -- oracle, outside the timed regions ---------------------------------
    state = _subscriber_state(bootstrap, [json.loads(d) for d in deltas], sigma, result)
    for update in applied:
        apply_update_plain(oracle_graph, update)
    if state != _expected(oracle_graph, sigma):
        result.fail("subscriber state differs from find_violations on the final graph")
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(result: Result) -> dict[str, float]:
    """The user-visible metrics of one untraced run, at the reference host speed."""
    batches = len(result.latencies)
    slow = result.host_speed()
    return {
        "batch_ms.p50": statistics.median(result.latencies) * 1e3 / slow,
        "batch_ms.p99": percentile(result.latencies, 99) * 1e3 / slow,
        "batches_per_s": batches / result.window_s * slow,
        "cpu_ms_per_batch": result.cpu_s * 1e3 / batches / slow,
        "setup_s": statistics.median(c.setup_s for c in result.cold) / slow,
        "first_report_s": statistics.median(c.first_report_s for c in result.cold) / slow,
        "peak_rss_mb": result.peak_rss_mb,
    }
