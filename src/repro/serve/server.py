"""The violation-subscription push server.

:class:`ViolationServer` is the coordinator of the coordinator-entity
pattern the streaming layer was built toward: one
:class:`~repro.streaming.ledger.ViolationLedger` applies every update
batch, and a dispatcher fans the exact per-batch violation delta out to
every subscribed connection.  Subscribers are the entities: they attach with
a server-side :class:`~repro.serve.filters.SubscriptionFilter`, receive
a **bootstrap snapshot** of the current violation set on attach (late
attachers are first-class), and from then on get one ``delta`` frame
per applied batch — gap-free ``seq`` numbering, so a client can verify
it lost nothing.

Durability rides the existing update log
(:class:`~repro.graph.io.UpdateLogWriter`): a batch is acknowledged
only after it is appended to the log *and* applied through the ledger,
and a restarted server resumes — state, ``seq`` numbering, and all —
from :func:`~repro.graph.io.replay_update_log` (see
:meth:`ViolationServer.from_log`).

Slow consumers never backpressure the ledger: each subscriber owns a
**bounded queue** drained by its own writer task, and the apply path
only ever enqueues without awaiting.  On overflow the oldest queued
frames are dropped and a ``resync`` marker is enqueued; when the writer
task drains the marker it sends the ``resync`` frame followed by a
fresh bootstrap, and suppresses any stale queued deltas at or below the
new bootstrap's ``seq`` — the client never sees a gap or a duplicate,
only an explicit re-base.  The full wire contract lives in
``docs/serve-protocol.md``.

The same listener doubles as the live ops surface (spec §9): a
connection whose first byte is an HTTP method letter is answered as a
one-shot HTTP/1.1 exchange — ``GET /healthz`` (liveness JSON) or
``GET /metrics`` (the Prometheus exposition) — and closed.  Protocol
clients are unaffected: their first byte is ``0x00`` or ``{``.

With telemetry enabled every applied batch runs under a
:class:`~repro.telemetry.trace.TraceContext` — adopted from the update
frame's optional ``trace`` field when the client sent one, freshly
minted otherwise — so the batch's validate / log-append / ledger
refresh / push deliveries assemble into one causal tree
(docs/telemetry.md).
"""

from __future__ import annotations

import asyncio
import json
import time
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.deps.ged import GED
from repro.errors import GraphError, ReproError
from repro.graph.graph import Graph
from repro.graph.io import UpdateLogWriter, replay_update_log, update_from_dict
from repro.graph.update import GraphUpdate, validate_update
from repro.streaming.ledger import StreamDelta, ViolationLedger, violation_to_dict
from repro.telemetry import metrics as _metrics
from repro.telemetry import spans as _spans
from repro.telemetry import trace as _trace
from repro.telemetry.prometheus import render_prometheus
from repro.telemetry.report import histogram_quantile

from repro.serve.filters import SubscriptionFilter
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    detect_framing,
    extract_trace,
    read_frame,
    write_frame,
)

#: First bytes that select the HTTP ops surface instead of the wire
#: protocol (GET / HEAD — all the surface serves).
_HTTP_FIRST_BYTES = b"GH"

#: Default bound on one subscriber's outbound queue (frames).
DEFAULT_QUEUE_SIZE = 256

_RESYNC = "resync"
_FRAME = "frame"
_CLOSE = "close"

#: The connection failures the server absorbs — a peer that resets,
#: hangs up mid-frame or sends a bad frame ends only its own connection
#: — and the reason each is counted under
#: (``serve.connection_errors.<reason>``), most specific class first.
_CONNECTION_ERRORS = (
    (asyncio.IncompleteReadError, "incomplete_read"),
    (ProtocolError, "protocol"),
    (ConnectionError, "connection"),
    (OSError, "os"),
)


class _Subscriber:
    """One subscribed connection: a filter, a bounded outbound queue,
    and the writer task that drains it.

    The queue holds ``(kind, enqueued_at, frame, trace)`` items;
    ``kind`` is a delta/bootstrap frame, a resync marker, or the close
    sentinel, and ``trace`` is the batch's
    :class:`~repro.telemetry.trace.TraceContext` (``None`` for frames
    outside a batch).  All enqueueing is non-blocking (the apply path
    must never await a slow consumer); the writer task owns every
    actual socket write and records one ``serve.push`` span per traced
    delivery — post-hoc via :func:`repro.telemetry.spans.record_span`,
    because holding a thread-local trace across an ``await`` would
    leak it into unrelated asyncio tasks.
    """

    def __init__(
        self,
        server: "ViolationServer",
        writer: asyncio.StreamWriter,
        framing: str,
        queue_size: int,
    ):
        self.server = server
        self.writer = writer
        self.framing = framing
        self.filter = SubscriptionFilter()
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self.task: asyncio.Task | None = None
        self.alive = True
        self.dropped = 0  # frames dropped since the last resync marker
        self.last_bootstrap_seq = -1  # writer-task side: stale-delta suppression

    def start(self) -> None:
        """Spawn the writer task (once, after the first subscribe)."""
        if self.task is None:
            self.task = asyncio.get_running_loop().create_task(self._drain())

    def enqueue_frame(
        self, frame: dict[str, Any], trace: "_trace.TraceContext | None" = None
    ) -> None:
        """Queue one frame, applying the overflow policy on a full queue."""
        self._put((_FRAME, time.perf_counter(), frame, trace))

    def enqueue_close(self) -> None:
        """Queue the close sentinel (drains ahead of it, then ``bye``)."""
        self._put((_CLOSE, time.perf_counter(), None, None))

    def _put(self, item: tuple) -> None:
        if not self.alive:
            return
        try:
            self.queue.put_nowait(item)
        except asyncio.QueueFull:
            self._overflow(item)
        sink = _metrics.sink()
        if sink.enabled:
            sink.observe(
                "serve.queue_depth", self.queue.qsize(), _metrics.DEFAULT_BOUNDS
            )

    def _overflow(self, item: tuple) -> None:
        """Drop-oldest overflow: every queued frame ahead of the marker
        is stale once any frame is lost (a gap forces a re-bootstrap),
        so the whole backlog is dropped and one resync marker takes its
        place, followed by the item that overflowed."""
        dropped = 0
        while True:
            try:
                kind, _, _, _ = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if kind == _FRAME:
                dropped += 1
            elif kind == _CLOSE:
                # Never lose a close: put it back behind the marker.
                item = (_CLOSE, time.perf_counter(), None, None)
        self.dropped += dropped
        self.server._count("serve.frames_dropped", dropped)
        self.queue.put_nowait((_RESYNC, time.perf_counter(), None, None))
        if item[0] != _RESYNC:
            self.queue.put_nowait(item)

    async def _drain(self) -> None:
        """The writer task: one socket write at a time, in queue order."""
        try:
            while True:
                kind, enqueued_at, frame, trace = await self.queue.get()
                if kind == _CLOSE:
                    await self._send({"type": "bye", "reason": "shutdown"})
                    break
                if kind == _RESYNC:
                    await self._resync()
                    continue
                if frame.get("type") == "delta" and frame["seq"] <= self.last_bootstrap_seq:
                    continue  # stale: already covered by the last bootstrap
                if frame.get("type") == "bootstrap":
                    self.last_bootstrap_seq = frame["seq"]
                await self._send(frame)
                elapsed = time.perf_counter() - enqueued_at
                sink = _metrics.sink()
                if sink.enabled:
                    sink.observe(
                        "serve.push_seconds", elapsed, _metrics.SECONDS_BOUNDS
                    )
                    if trace is not None:
                        _spans.record_span(
                            "serve.push",
                            elapsed,
                            trace=trace,
                            frame=frame.get("type"),
                            seq=frame.get("seq"),
                        )
                self.server._push_samples.append(elapsed)
        except (ConnectionError, OSError) as exc:
            self.server._count_connection_error(exc)
        except asyncio.CancelledError:
            pass  # shutdown, not an error
        finally:
            self.alive = False
            self.server._unsubscribe(self)

    async def _resync(self) -> None:
        """Send the resync marker plus a fresh bootstrap of current state."""
        dropped, self.dropped = self.dropped, 0
        self.server._count("serve.resyncs")
        await self._send(
            {"type": "resync", "seq": self.server.seq, "dropped": dropped}
        )
        frame = self.server._bootstrap_frame(self.filter)
        self.last_bootstrap_seq = frame["seq"]
        await self._send(frame)

    async def _send(self, frame: dict[str, Any]) -> None:
        await write_frame(self.writer, frame, self.framing)
        self.server._count("serve.frames_sent")


class ViolationServer:
    """A long-running asyncio push server over one (G, Σ, update log).

    Parameters
    ----------
    graph:
        the live data graph; with ``log_path`` set it must correspond to
        the log's tail state (:meth:`from_log` guarantees this).
    sigma:
        the dependency set, fixed for the server's lifetime.
    log_path:
        the durable JSONL update log (``docs/update-log.md``); every
        accepted batch is appended before it is applied, so a restarted
        server resumes exactly.  ``None`` runs ephemeral (no durability).
    checkpoint_every:
        forwarded to the log writer (a checkpoint every k batches keeps
        recovery O(tail)); a clean :meth:`stop` also checkpoints.
    log_seq:
        the log's last ``seq`` when the caller has just replayed it
        (:meth:`from_log` passes the replay's), so the writer need not
        read the file again; ``None`` lets the writer read it.
    queue_size:
        per-subscriber outbound queue bound (frames) before the
        drop-oldest + resync overflow policy engages.
    host / port:
        listen address; port 0 picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        graph: Graph,
        sigma: Sequence[GED],
        *,
        log_path: str | Path | None = None,
        checkpoint_every: int | None = None,
        log_seq: int | None = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.graph = graph
        self.sigma = list(sigma)
        self.host = host
        self._requested_port = port
        self._log_writer: UpdateLogWriter | None = None
        if log_path is not None:
            self._log_writer = UpdateLogWriter(
                log_path, checkpoint_every=checkpoint_every, seq=log_seq
            )
            # Asked after the writer mended the tail: a log whose only
            # record was torn is as empty as a new one.
            if self._log_writer.empty:
                self._log_writer.write_base(graph)
        self.ledger = ViolationLedger(graph, sigma)
        self.ledger.bootstrap()
        if self._log_writer is not None:
            self.ledger.seq = self._log_writer.seq
        #: The log seq this incarnation resumed at; changes on restart,
        #: so a reconnecting client can observe that it crossed one.
        self.epoch = self.ledger.seq
        self._queue_size = queue_size
        self._apply_lock = asyncio.Lock()
        self._server: asyncio.base_events.Server | None = None
        self._subscribers: list[_Subscriber] = []
        self._stopped = asyncio.Event()
        self._batches_applied = 0
        self._max_batches: int | None = None
        self._counters: dict[str, int] = {}
        self._apply_seconds = 0.0
        self._push_samples: list[float] = []

    # ------------------------------------------------------------------
    # Construction from the durable log
    # ------------------------------------------------------------------
    @classmethod
    def from_log(
        cls,
        log_path: str | Path,
        sigma: Sequence[GED],
        *,
        base_graph: Graph | None = None,
        **kwargs: Any,
    ) -> "ViolationServer":
        """Resume (or begin) serving from a durable update log.

        An existing log is replayed — latest checkpoint plus tail — and
        the server continues its ``seq`` numbering from the replay's
        last seq, so the file is read once; a fresh log (or one whose
        only record was torn) records ``base_graph`` as its seq-0 base
        checkpoint.  Exactly one of the two sources must determine the
        base state.
        """
        path = Path(log_path)
        if not path.exists():
            if base_graph is None:
                raise GraphError(
                    f"update log {path} does not exist; pass base_graph to start fresh"
                )
            return cls(base_graph, sigma, log_path=path, **kwargs)
        replay = replay_update_log(path, base_graph)
        return cls(replay.graph, sigma, log_path=path, log_seq=replay.last_seq, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (resolve :attr:`port`) and begin accepting."""
        self._server = await asyncio.start_server(
            self._handle,
            self.host,
            self._requested_port,
            limit=MAX_FRAME_BYTES + 16,
        )

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def seq(self) -> int:
        """The last applied batch's sequence number."""
        return self.ledger.seq

    @property
    def subscriber_count(self) -> int:
        """Currently attached subscribers."""
        return len(self._subscribers)

    async def run(self, max_batches: int | None = None) -> None:
        """Serve until :meth:`stop` (or until ``max_batches`` batches
        have been applied — the CLI's bounded smoke mode)."""
        if self._server is None:
            await self.start()
        self._max_batches = max_batches
        await self._stopped.wait()

    async def stop(self, *, checkpoint: bool = True) -> None:
        """Graceful shutdown: ``bye`` every subscriber, close the
        listener, and optionally checkpoint the log (making the next
        boot's recovery O(1)).

        ``checkpoint=False`` skips the shutdown checkpoint — the
        crash-simulation mode the resume tests use, leaving recovery to
        replay the update tail.
        """
        for subscriber in list(self._subscribers):
            subscriber.enqueue_close()
        tasks = [s.task for s in list(self._subscribers) if s.task is not None]
        if tasks:
            await asyncio.wait(tasks, timeout=1.0)
        for subscriber in list(self._subscribers):
            if subscriber.task is not None and not subscriber.task.done():
                subscriber.task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._log_writer is not None:
            if checkpoint and self._batches_applied:
                with _spans.span("serve.checkpoint", seq=self.seq, shutdown=True):
                    self._log_writer.checkpoint(self.graph)
            self._log_writer.close()
            self._log_writer = None
        self._stopped.set()

    async def __aenter__(self) -> "ViolationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        if not self._stopped.is_set():
            await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """One connection: detect framing, greet, then serve frames.

        A first byte of ``G``/``H`` (GET/HEAD) diverts the connection
        to the one-shot HTTP ops surface before framing detection —
        :func:`detect_framing` rejects anything but ``0x00``/``{``.
        """
        self._count("serve.connections")
        subscriber: _Subscriber | None = None
        try:
            first = await reader.readexactly(1)
            reader._buffer[0:0] = first  # type: ignore[attr-defined]
            if first in _HTTP_FIRST_BYTES:
                await self._handle_http(reader, writer)
                return
            framing = await detect_framing(reader)
            await write_frame(writer, self._hello_frame(), framing)
            while True:
                try:
                    frame = await read_frame(reader, framing)
                except ProtocolError as exc:
                    await write_frame(
                        writer,
                        {"type": "error", "code": "bad-frame", "message": str(exc), "fatal": True},
                        framing,
                    )
                    await write_frame(writer, {"type": "bye", "reason": "protocol error"}, framing)
                    break
                if frame is None or frame["type"] == "bye":
                    break
                if frame["type"] == "subscribe":
                    subscriber = await self._on_subscribe(frame, writer, framing, subscriber)
                elif frame["type"] == "update":
                    await self._on_update(frame, writer, framing)
                else:
                    await write_frame(
                        writer,
                        {
                            "type": "error",
                            "code": "bad-type",
                            "message": f"clients may not send {frame['type']!r} frames",
                            "fatal": False,
                        },
                        framing,
                    )
        except (ConnectionError, asyncio.IncompleteReadError, ProtocolError, OSError) as exc:
            self._count_connection_error(exc)
        except asyncio.CancelledError:
            # Loop shutdown: run the cleanup below and end *uncancelled*,
            # or 3.11's stream-protocol callback logs a spurious error
            # when it probes the finished task's exception.
            pass
        finally:
            if subscriber is not None:
                subscriber.alive = False
                self._unsubscribe(subscriber)
                if subscriber.task is not None:
                    subscriber.task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError) as exc:
                self._count_connection_error(exc)
            except asyncio.CancelledError:
                pass  # shutdown, not an error

    async def _on_subscribe(
        self,
        frame: dict[str, Any],
        writer: asyncio.StreamWriter,
        framing: str,
        subscriber: _Subscriber | None,
    ) -> _Subscriber | None:
        """Attach (or re-filter) a subscriber and enqueue its bootstrap."""
        try:
            flt = SubscriptionFilter.from_dict(frame.get("filter"))
        except ProtocolError as exc:
            await write_frame(
                writer,
                {"type": "error", "code": "bad-filter", "message": str(exc), "fatal": False},
                framing,
            )
            return subscriber
        if subscriber is None:
            subscriber = _Subscriber(self, writer, framing, self._queue_size)
            self._subscribers.append(subscriber)
            self._gauge_subscribers()
        subscriber.filter = flt
        self._count("serve.subscribes")
        # Bootstrap through the queue: it orders ahead of every delta
        # the apply path enqueues afterwards, and the writer task's
        # stale-delta suppression keys off its seq.
        subscriber.enqueue_frame(self._bootstrap_frame(flt))
        subscriber.start()
        return subscriber

    async def _on_update(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter, framing: str
    ) -> None:
        """Decode, validate, log, apply, fan out, acknowledge.

        With telemetry enabled the batch is traced: the context rides
        in from the frame's optional ``trace`` field (a traced client),
        or is minted here — either way the ack echoes the trace id so
        the publisher can find its batch in the export.
        """
        try:
            update = update_from_dict(frame.get("update"))
        except (GraphError, TypeError, ValueError) as exc:
            self._count("serve.updates_rejected")
            await write_frame(
                writer,
                {"type": "error", "code": "bad-update", "message": str(exc), "fatal": False},
                framing,
            )
            return
        ctx: _trace.TraceContext | None = None
        if _metrics.sink().enabled:
            ctx = extract_trace(frame)
            if ctx is None:
                ctx = _trace.start_trace()
        async with self._apply_lock:
            try:
                delta = self._apply(update, ctx)
            except ReproError as exc:
                self._count("serve.updates_rejected")
                await write_frame(
                    writer,
                    {"type": "error", "code": "bad-update", "message": str(exc), "fatal": False},
                    framing,
                )
                return
        ack = {
            "type": "ack",
            "seq": delta.seq,
            "introduced": len(delta.introduced),
            "retired": len(delta.retired),
            "updated": len(delta.updated),
        }
        if ctx is not None:
            ack["trace_id"] = ctx.trace_id
        await write_frame(writer, ack, framing)
        if self._max_batches is not None and self._batches_applied >= self._max_batches:
            await self.stop()

    # ------------------------------------------------------------------
    # The coordinator: apply one batch, fan the delta out
    # ------------------------------------------------------------------
    def _apply(
        self, update: GraphUpdate, ctx: "_trace.TraceContext | None" = None
    ) -> StreamDelta:
        """Validate, append to the durable log, refresh the ledger, and
        enqueue the per-subscriber filtered delta frames.

        Synchronous by design: no await between validation and fan-out,
        so subscribe/bootstrap handling can never observe a half-applied
        batch — which also makes it safe to run under ``tracing(ctx)``
        (the thread-local trace cannot leak across a task switch).
        Runs under the apply lock (batches are strictly serial).  With
        an export open, buffered trace records are flushed to disk
        after every batch.
        """
        started = time.perf_counter()
        with _trace.tracing(ctx):
            with _spans.span("serve.batch", size=update.size()):
                with _spans.span("serve.validate"):
                    # Validate against the live graph *before* touching the
                    # log: a rejected batch must leave no durable trace.
                    validate_update(self.graph, update)
                if self._log_writer is not None:
                    with _spans.span("serve.log_append"):
                        # No graph here: the batch is not applied yet, and a
                        # periodic checkpoint must capture post-batch state
                        # (written below).
                        self._log_writer.append(update)
                delta = self.ledger.refresh(update)
                if (
                    self._log_writer is not None
                    and self._log_writer.checkpoint_every
                    and delta.seq % self._log_writer.checkpoint_every == 0
                ):
                    with _spans.span("serve.checkpoint", seq=delta.seq):
                        self._log_writer.checkpoint(self.graph)
                self._batches_applied += 1
                self._count("serve.updates")
                push_ctx = _trace.propagation_context()
                for subscriber in list(self._subscribers):
                    subscriber.enqueue_frame(
                        self._delta_frame(delta, subscriber.filter), push_ctx
                    )
                    self._count("serve.deltas_pushed")
        elapsed = time.perf_counter() - started
        self._apply_seconds += elapsed
        sink = _metrics.sink()
        if sink.enabled:
            sink.observe("serve.apply_seconds", elapsed, _metrics.SECONDS_BOUNDS)
        _spans.flush_export()
        return delta

    # ------------------------------------------------------------------
    # The HTTP ops surface: /healthz and /metrics on the same listener
    # ------------------------------------------------------------------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one HTTP/1.1 request and let the caller close.

        Deliberately minimal (stdlib readers, two routes, always
        ``Connection: close``): this is a scrape/liveness surface, not
        a web server.  The caller's ``finally`` closes the writer.
        """
        try:
            request = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5.0)
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            asyncio.LimitOverrunError,
        ):
            return
        request_line = request.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        parts = request_line.split()
        method = parts[0] if parts else ""
        path = (parts[1] if len(parts) > 1 else "/").split("?", 1)[0]
        self._count("serve.http_requests")
        if path == "/healthz":
            body = (
                json.dumps(self._healthz_payload(), sort_keys=True) + "\n"
            ).encode("utf-8")
            status, content_type = "200 OK", "application/json"
        elif path == "/metrics":
            body = render_prometheus(self._scrape_snapshot()).encode("utf-8")
            status, content_type = "200 OK", "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = b'{"error":"not found"}\n'
            status, content_type = "404 Not Found", "application/json"
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head if method == "HEAD" else head + body)
        await writer.drain()

    def _healthz_payload(self) -> dict[str, Any]:
        """The ``/healthz`` body: liveness plus the headline gauges."""
        histograms = _metrics.snapshot().get("histograms", {})
        return {
            "status": "ok",
            "seq": self.seq,
            "epoch": self.epoch,
            "subscribers": len(self._subscribers),
            "violations": len(self.ledger),
            "batches_applied": self._batches_applied,
            "queue_depth_p99": histogram_quantile(
                histograms.get("serve.queue_depth"), 0.99
            ),
            "telemetry": _metrics.enabled(),
        }

    def _scrape_snapshot(self) -> dict[str, Any]:
        """The snapshot ``/metrics`` renders.

        The telemetry registry, with the server's always-on counters
        folded in by max() — when telemetry is enabled the registry
        mirrors them already (``_count`` writes both), so taking the
        larger value avoids double counting while keeping the scrape
        meaningful with telemetry off.
        """
        snapshot = _metrics.snapshot()
        counters = snapshot["counters"]
        for name, value in self._counters.items():
            if counters.get(name, 0) < value:
                counters[name] = value
        gauges = snapshot["gauges"]
        gauges["serve.seq"] = self.seq
        gauges["serve.epoch"] = self.epoch
        gauges.setdefault("serve.subscribers", len(self._subscribers))
        return snapshot

    # ------------------------------------------------------------------
    # Frame builders
    # ------------------------------------------------------------------
    def _hello_frame(self) -> dict[str, Any]:
        """The greeting sent once per connection, before any request."""
        return {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "server": "repro.serve",
            "epoch": self.epoch,
            "seq": self.seq,
            "rules": len(self.sigma),
            "violations": len(self.ledger),
        }

    def _bootstrap_frame(self, flt: SubscriptionFilter) -> dict[str, Any]:
        """The filtered current-state snapshot for one subscriber."""
        violations = [
            violation_to_dict(violation)
            for position, violation in self.ledger.entries()
            if self._filter_match(flt, position, violation)
        ]
        return {
            "type": "bootstrap",
            "seq": self.seq,
            "epoch": self.epoch,
            "violations": violations,
        }

    def _delta_frame(self, delta: StreamDelta, flt: SubscriptionFilter) -> dict[str, Any]:
        """One batch's delta, narrowed to a subscriber's filter.

        Every subscriber gets a frame for every batch — possibly with
        all three lists empty — so its ``seq`` stream stays gap-free
        and losing a frame is detectable.
        """
        position = self.ledger.position_of
        return {
            "type": "delta",
            "seq": delta.seq,
            "introduced": [
                violation_to_dict(v)
                for v in delta.introduced
                if self._filter_match(flt, position(v.ged), v)
            ],
            "retired": [
                violation_to_dict(v)
                for v in delta.retired
                if self._filter_match(flt, position(v.ged), v)
            ],
            "updated": [
                violation_to_dict(v)
                for v in delta.updated
                if self._filter_match(flt, position(v.ged), v)
            ],
        }

    def _filter_match(self, flt: SubscriptionFilter, position: int, violation) -> bool:
        """One filter evaluation, counted for the hit-rate telemetry."""
        if flt.is_all:
            return True
        matched = flt.matches(position, violation, self.graph)
        sink = _metrics.sink()
        if sink.enabled:
            sink.incr("serve.filter.hits" if matched else "serve.filter.misses")
        return matched

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _unsubscribe(self, subscriber: _Subscriber) -> None:
        """Detach a subscriber (death of its connection or writer task)."""
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)
            self._gauge_subscribers()

    def _gauge_subscribers(self) -> None:
        sink = _metrics.sink()
        if sink.enabled:
            sink.gauge("serve.subscribers", len(self._subscribers))

    def _count(self, name: str, value: int = 1) -> None:
        """Built-in counter (always on) plus the telemetry sink when enabled."""
        if value:
            self._counters[name] = self._counters.get(name, 0) + value
            sink = _metrics.sink()
            if sink.enabled:
                sink.incr(name, value)

    def _count_connection_error(self, exc: BaseException) -> None:
        """Count one absorbed connection failure under its reason."""
        for kind, reason in _CONNECTION_ERRORS:
            if isinstance(exc, kind):
                self._count(f"serve.connection_errors.{reason}")
                return

    def stats(self) -> dict[str, Any]:
        """Lifetime serving statistics, independent of the telemetry
        registry (the load harness reads these; ``cli stats`` reads the
        registry's mirror of the same counters)."""
        return {
            **dict(sorted(self._counters.items())),
            "batches_applied": self._batches_applied,
            "apply_seconds": self._apply_seconds,
            "subscribers": len(self._subscribers),
            "seq": self.seq,
            "epoch": self.epoch,
            "push_samples": len(self._push_samples),
        }

    def push_latencies(self) -> list[float]:
        """Enqueue-to-written latency samples (seconds), in push order."""
        return list(self._push_samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ViolationServer(seq={self.seq}, epoch={self.epoch}, "
            f"subscribers={len(self._subscribers)})"
        )


__all__ = ["DEFAULT_QUEUE_SIZE", "ViolationServer"]
