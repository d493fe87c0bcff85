"""Run ``repro.cli serve`` with timing wrappers around each layer's entry points.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_serve.py DUMP.json serve --log L --rules R ...

Everything after the dump path is handed to ``repro.cli.main``.  Before
that, the layer entry points are replaced by timing wrappers *where
their callers look them up* (module globals or class attributes), so
nothing under ``src/`` changes.  Each wrapped call is a span; a span's
self time is its duration minus the time of the wrapped spans nested in
it.  On SIGTERM the totals and per-batch records are written to
``DUMP.json`` and the process exits.

Spans opened while the server applies a batch (from its
``validate_update`` call until the next one) go to that batch's record;
all others (log replay, ledger bootstrap, the first view and Σ-DAG
compile) go to the start-up totals.  ``write_frame`` spans an ``await``,
so it is timed on its own and never nests: delta frames are recorded by
``seq``, bootstrap frames in a list.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Recorder:
    """The spans of one server process: start-up totals and per-batch records."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, start, nested time]
        self.startup = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        self.batches: list[dict] = []
        self.batch: dict | None = None  # the batch being applied, if any
        self.encode: dict[int, float] = {}  # delta seq -> write_frame seconds
        self.bootstrap_writes: list[float] = []

    def _add(self, key: str, value) -> None:
        self.batch[key] = self.batch.get(key, 0) + value

    def push(self, name: str) -> None:
        """Open a span."""
        self.stack.append([name, _clock(), 0.0])

    def pop(self) -> None:
        """Close the innermost span and charge it to its parent."""
        name, start, nested = self.stack.pop()
        total = _clock() - start
        if self.stack:
            self.stack[-1][2] += total
        if self.batch is not None:
            self._add(name, total)
            self._add(name + ".self", total - nested)
            self._add(name + ".calls", 1)
        else:
            entry = self.startup[name]
            entry["calls"] += 1
            entry["total"] += total
            entry["self"] += total - nested

    def timed(self, name: str, fn):
        """Wrap ``fn`` so that every call is one span."""

        def wrapper(*args, **kwargs):
            self.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop()

        return wrapper

    def timed_generator(self, name: str, fn):
        """Wrap a generator function: every resumption is one span."""

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if self.batch is not None:
                self._add(name + ".calls", 1)
            while True:
                self.push(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.pop()
                yield item

        return wrapper

    def timed_log_write(self, name: str, fn):
        """Wrap a log-writer method; the bytes it wrote go to the batch."""

        def wrapper(writer, *args, **kwargs):
            before = os.fstat(writer._file.fileno()).st_size
            self.push(name)
            try:
                return fn(writer, *args, **kwargs)
            finally:
                self.pop()
                if self.batch is not None:
                    self._add(name + ".bytes", os.fstat(writer._file.fileno()).st_size - before)

        return wrapper

    def opens_batch(self, fn):
        """Wrap the server's ``validate_update``: each call starts a batch."""
        timed = self.timed("validate_update", fn)

        def wrapper(*args, **kwargs):
            self.batch = {}
            self.batches.append(self.batch)
            return timed(*args, **kwargs)

        return wrapper

    def timed_refresh(self, fn):
        """Wrap ``ViolationLedger.refresh``, keeping the delta's work counts."""
        timed = self.timed("refresh", fn)

        def wrapper(*args, **kwargs):
            delta = timed(*args, **kwargs)
            if self.batch is not None:
                self.batch["seq"] = delta.seq
                self.batch["rechecked"] = delta.rechecked
                self.batch["introduced"] = len(delta.introduced)
                self.batch["retired"] = len(delta.retired)
                self.batch["updated"] = len(delta.updated)
            return delta

        return wrapper

    def timed_write_frame(self, fn):
        """Wrap the server's ``write_frame`` (a coroutine; never nested)."""

        async def wrapper(writer, frame, framing):
            start = _clock()
            await fn(writer, frame, framing)
            elapsed = _clock() - start
            kind = frame.get("type")
            if kind == "delta":
                self.encode[frame["seq"]] = elapsed
            elif kind == "bootstrap":
                self.bootstrap_writes.append(elapsed)

        return wrapper

    def dump(self, path: str) -> None:
        """Write everything recorded, plus per-layer batch histograms."""
        names = sorted(
            {key[: -len(".self")] for batch in self.batches for key in batch
             if key.endswith(".self")}
        )
        payload = {
            "startup": dict(self.startup),
            "batches": self.batches,
            "encode": {str(seq): seconds for seq, seconds in self.encode.items()},
            "bootstrap_writes": self.bootstrap_writes,
            "histograms": {
                name + "_us": _histogram([b[name] for b in self.batches if name in b])
                for name in names
            },
        }
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)


def _histogram(values: list[float]) -> dict[str, int]:
    """Counts per power-of-two microsecond bucket (key = upper bound)."""
    counts: dict[str, int] = defaultdict(int)
    for value in values:
        bound = 1
        while bound < value * 1e6:
            bound *= 2
        counts[str(bound)] += 1
    return dict(sorted(counts.items(), key=lambda item: int(item[0])))


def install(recorder: Recorder) -> None:
    """Replace each layer entry point where its caller looks it up."""
    import repro.graph.io as graph_io
    import repro.indexing.maintenance as maintenance
    import repro.matching.view as view
    import repro.reasoning.validation as validation
    import repro.serve.server as server
    import repro.streaming.delta as delta
    import repro.streaming.ledger as ledger

    timed = recorder.timed
    server.validate_update = recorder.opens_batch(server.validate_update)
    server.write_frame = recorder.timed_write_frame(server.write_frame)
    server.replay_update_log = timed("replay_update_log", server.replay_update_log)
    writer = graph_io.UpdateLogWriter
    writer.append = recorder.timed_log_write("log_append", writer.append)
    writer.checkpoint = recorder.timed_log_write("checkpoint", writer.checkpoint)
    graph_io.graph_from_arrays = timed("graph_from_arrays", graph_io.graph_from_arrays)
    maintenance.apply_update_indexed = timed(
        "apply_update_indexed", maintenance.apply_update_indexed
    )
    ledger.ViolationLedger.refresh = recorder.timed_refresh(ledger.ViolationLedger.refresh)
    ledger.ViolationLedger.bootstrap = timed("bootstrap", ledger.ViolationLedger.bootstrap)
    ledger.delta_violations = timed("delta_violations", ledger.delta_violations)
    ledger.find_violations = timed("find_violations", ledger.find_violations)
    delta.execute_over_pools = recorder.timed_generator(
        "execute_over_pools", delta.execute_over_pools
    )
    view.build_view = timed("build_view", view.build_view)
    validation.compile_sigma = timed("compile_sigma", validation.compile_sigma)


def main(argv: list[str]) -> int:
    """Install the wrappers and run the CLI; dump on SIGTERM."""
    if len(argv) < 2:
        print("usage: traced_serve.py DUMP.json serve [serve options]", file=sys.stderr)
        return 2
    dump_path, cli_args = argv[0], argv[1:]

    recorder = Recorder()

    def on_term(signum, frame):
        recorder.dump(dump_path)
        sys.stdout.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    install(recorder)
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
