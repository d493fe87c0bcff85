"""(De)serialization for graphs: JSON files, flat-array snapshots, and
the durable update log.

The JSON format is a plain dictionary so graphs can be stored in files,
shipped over APIs, or embedded in experiment manifests:

.. code-block:: json

    {
      "nodes": [{"id": "a1", "label": "album", "attrs": {"title": "Bleach"}}],
      "edges": [["a1", "primary_artist", "p1"]]
    }

The flat-array format (:func:`graph_to_arrays` / :func:`graph_from_arrays`,
over :meth:`Graph.to_columns` / :meth:`Graph.from_columns`, which own
the layout) is the wire representation behind :mod:`repro.engine.snapshot`
and the log's checkpoints: every distinct value is interned once in a
pool and the node/edge structure becomes a handful of ``array('I')``
integer columns, which pickle an order of magnitude cheaper than the
object graph (no per-Node class payload, no per-edge tuple objects).
Nodes, attributes and edges keep the graph's insertion order, so it is
lossless down to table order — rebuilding yields a graph that is ``==``
to the original and encodes to the same columns — but, unlike the JSON
format, it is a Python pickle-time optimization, not an interchange
format.

The **update log** (:class:`UpdateLogWriter` / :func:`read_update_log` /
:func:`replay_update_log`) makes streams of
:class:`~repro.graph.update.GraphUpdate` batches durable and resumable:
one JSONL line per batch, each stamped with a monotone sequence number,
interleaved with periodic *checkpoint* lines carrying the full graph in
the flat-array encoding: the pool as a JSON list, each integer column
as the base64 text of its little-endian uint32 bytes (format 2; a
format-1 log spells the columns as JSON lists, and still replays).
Replaying from the latest checkpoint rather than the beginning is what
makes recovery O(tail), not O(history).  A final line cut short by a
crash is skipped by the readers and truncated by the next writer.  The
exact line formats are specified in ``docs/update-log.md``; attribute
values must be JSON-representable (the same restriction the plain JSON
graph format has).
"""

from __future__ import annotations

import gc
import json
import os
import sys
from array import array
from binascii import Error as Base64Error, a2b_base64, b2a_base64
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.update import GraphUpdate
from repro.telemetry import metrics as _metrics


def graph_to_dict(g: Graph) -> dict[str, Any]:
    """A JSON-ready dictionary representation of ``g``."""
    return {
        "nodes": [
            {"id": n.id, "label": n.label, "attrs": dict(n.attributes)}
            for n in g.nodes
        ],
        "edges": sorted([s, l, t] for (s, l, t) in g.edges),
    }


def graph_from_dict(data: dict[str, Any]) -> Graph:
    """Rebuild a graph from :func:`graph_to_dict` output."""
    if not isinstance(data, dict) or "nodes" not in data:
        raise GraphError("graph dictionary must contain a 'nodes' list")
    g = Graph()
    for entry in data["nodes"]:
        g.add_node(entry["id"], entry["label"], entry.get("attrs") or {})
    for edge in data.get("edges", []):
        source, label, target = edge
        g.add_edge(source, label, target)
    return g


def graph_to_json(g: Graph, indent: int | None = None) -> str:
    return json.dumps(graph_to_dict(g), indent=indent, sort_keys=True)


def graph_from_json(text: str) -> Graph:
    return graph_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Flat-array snapshot encoding (the repro.engine broadcast format)
# ----------------------------------------------------------------------


#: The integer columns of the flat-array encoding, in the order
#: :meth:`Graph.from_columns` takes them.
_ARRAY_COLUMNS = (
    "node_ids",
    "node_labels",
    "attr_node",
    "attr_name",
    "attr_value",
    "edge_src",
    "edge_label",
    "edge_dst",
)


def graph_to_arrays(g: Graph) -> dict[str, Any]:
    """Encode ``g`` as an interned pool plus flat integer columns.

    The columns of :meth:`Graph.to_columns <repro.graph.graph.Graph.to_columns>`,
    by name: ``pool`` (each distinct value once), ``node_ids`` /
    ``node_labels`` (one entry per node, in insertion order),
    ``attr_node`` / ``attr_name`` / ``attr_value`` (one entry per
    attribute; ``attr_node`` indexes into ``node_ids``) and ``edge_src``
    / ``edge_label`` / ``edge_dst`` (one entry per edge, in insertion
    order; ``edge_src`` / ``edge_dst`` index into ``node_ids``).
    """
    return dict(zip(("pool", *_ARRAY_COLUMNS), g.to_columns()))


def graph_from_arrays(data: dict[str, Any]) -> Graph:
    """Rebuild a graph from :func:`graph_to_arrays` output.

    Integer columns may be ``array('I')``, plain lists (a format-1
    checkpoint's JSON spelling) or packed strings (a format-2
    checkpoint's, see :func:`_packed`).  One bulk build
    (:meth:`Graph.from_columns`) fills the graph; a malformed encoding —
    a missing or ragged column, a packed column that is not base64 of
    whole uint32s, a slot outside the pool, a position outside
    ``node_ids``, or a value the graph refuses — raises
    :class:`GraphError` rather than decoding to a different graph.
    """
    try:
        pool = data["pool"]
        columns = [data[column] for column in _ARRAY_COLUMNS]
    except (KeyError, TypeError):
        columns = None
    if (
        columns is None
        or not isinstance(pool, (list, array))
        or not all(isinstance(c, (list, array, str)) for c in columns)
    ):
        raise GraphError(
            "a flat-array graph needs a pool list and the integer columns "
            + ", ".join(_ARRAY_COLUMNS)
        )
    columns = [
        _unpacked(column, name) if isinstance(column, str) else column
        for name, column in zip(_ARRAY_COLUMNS, columns)
    ]
    return Graph.from_columns(pool, *columns)


#: Packed columns are little-endian uint32; ``array('I')`` holds them.
_BYTESWAP = sys.byteorder == "big"


def _packed(column: array) -> str:
    """``column`` (an ``array('I')``) as the base64 text of its
    little-endian uint32 bytes: a checkpoint's integer column."""
    if column.itemsize != 4:
        raise GraphError(f"array('{column.typecode}') items are not 4-byte uint32s")
    if _BYTESWAP:
        column = array(column.typecode, column)
        column.byteswap()
    return b2a_base64(column, newline=False).decode("ascii")


def _unpacked(text: str, name: str) -> array:
    """The ``array('I')`` a :func:`_packed` string spells; raises
    :class:`GraphError` unless ``text`` is canonical base64 of whole
    uint32s."""
    try:
        raw = a2b_base64(text)
    except (Base64Error, ValueError):
        raise GraphError(f"{name} is not a base64 packed column") from None
    # The decoder skips characters outside the alphabet; the writer's
    # spelling is the only one accepted.
    if b2a_base64(raw, newline=False) != text.encode("ascii"):
        raise GraphError(f"{name} is not a base64 packed column")
    if len(raw) % 4:
        raise GraphError(f"{name} holds {len(raw)} bytes, not whole uint32s")
    column = array("I")
    if column.itemsize != 4:
        raise GraphError("array('I') items are not 4-byte uint32s on this platform")
    column.frombytes(raw)
    if _BYTESWAP:
        column.byteswap()
    return column


# ----------------------------------------------------------------------
# The durable update log (JSONL; format spec in docs/update-log.md)
# ----------------------------------------------------------------------

#: Version stamp the writer puts on every update-log line.  Format 2
#: packs a checkpoint's integer columns (:func:`_packed`); format 1
#: spelled them as JSON lists.  Update records are the same in both.
UPDATE_LOG_FORMAT = 2

#: The formats the readers accept, record by record: a format-1 log
#: reopened by this writer continues in format 2.
_READABLE_FORMATS = (1, 2)


def update_to_dict(update: GraphUpdate) -> dict[str, Any]:
    """A JSON-ready dictionary for one batch (empty fields omitted)."""
    payload: dict[str, Any] = {}
    if update.nodes:
        payload["nodes"] = [[i, l, dict(a or {})] for i, l, a in update.nodes]
    if update.edges:
        payload["edges"] = [list(edge) for edge in update.edges]
    if update.attrs:
        payload["attrs"] = [list(entry) for entry in update.attrs]
    if update.del_nodes:
        payload["del_nodes"] = list(update.del_nodes)
    if update.del_edges:
        payload["del_edges"] = [list(edge) for edge in update.del_edges]
    if update.del_attrs:
        payload["del_attrs"] = [list(entry) for entry in update.del_attrs]
    return payload


def update_from_dict(data: dict[str, Any]) -> GraphUpdate:
    """Rebuild a batch from :func:`update_to_dict` output."""
    if not isinstance(data, dict):
        raise GraphError(f"update dictionary expected, got {type(data).__name__}")
    return GraphUpdate(
        nodes=[(i, l, dict(a)) for i, l, a in data.get("nodes", ())],
        edges=[tuple(edge) for edge in data.get("edges", ())],
        attrs=[tuple(entry) for entry in data.get("attrs", ())],
        del_nodes=list(data.get("del_nodes", ())),
        del_edges=[tuple(edge) for edge in data.get("del_edges", ())],
        del_attrs=[tuple(entry) for entry in data.get("del_attrs", ())],
    )


def _checkpoint_arrays(g: Graph) -> dict[str, Any]:
    """Flat-array encoding with the integer columns packed."""
    pool, *columns = g.to_columns()
    return dict(zip(("pool", *_ARRAY_COLUMNS), [pool, *map(_packed, columns)]))


def _last_line_start(handle: Any, size: int) -> int:
    """Offset of the last line of a binary file of ``size`` bytes,
    found by reading backwards from its end."""
    end = size
    while end > 0:
        start = max(0, end - (1 << 16))
        handle.seek(start)
        cut = handle.read(end - start).rfind(b"\n")
        if cut >= 0:
            return start + cut + 1
        end = start
    return 0


def _is_seq(value: Any) -> bool:
    """A record's ``seq`` is a non-negative ``int`` (a ``bool`` is not)."""
    return type(value) is int and value >= 0


@dataclass
class LogRecord:
    """One decoded update-log line."""

    seq: int
    type: str  # "update" | "checkpoint"
    update: GraphUpdate | None = None
    graph: Graph | None = None


class UpdateLogWriter:
    """Append-only JSONL writer for a stream of update batches.

    ``checkpoint_every=k`` writes a checkpoint line (the full graph,
    flat-array encoded) after every k-th batch; the caller passes the
    maintained graph to :meth:`append` so checkpoints always capture the
    post-batch state.  ``seq`` numbers batches from 1; a checkpoint
    carries the seq of the last batch it includes (seq 0 = base graph
    before any batch).

    Reopening an existing log **resumes** its numbering: the writer
    reads the last record's ``seq`` (every record type carries the
    current batch count) and continues from there, so the format's
    monotone-seq contract survives restarts.  A caller that has just
    replayed the log passes the replay's ``last_seq`` as ``seq``
    instead, so the file is not read a second time.

    Before either, the writer mends an existing log's final line when
    it lacks its newline (a write cut short by a crash): a line that
    parses gets its newline, so the next record starts on a line of its
    own; a line that does not is **torn** — the readers stop before it
    — and is truncated away, counted in ``log.torn_tails_truncated``.
    """

    def __init__(
        self,
        path: str | Path,
        checkpoint_every: int | None = None,
        *,
        seq: int | None = None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.path = Path(path)
        self.checkpoint_every = checkpoint_every
        self._mend_tail(self.path)
        self.seq = self._resume_seq(self.path) if seq is None else seq
        self._file = open(self.path, "a", encoding="utf-8")

    @staticmethod
    def _mend_tail(path: Path) -> None:
        """End an existing log with a newline: complete a final line
        that parses, truncate one that does not (see the class
        docstring).  Reads one byte when the log already ends in one."""
        try:
            handle = open(path, "rb+")
        except FileNotFoundError:
            return
        with handle:
            size = handle.seek(0, os.SEEK_END)
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            start = _last_line_start(handle, size)
            handle.seek(start)
            line = handle.read()
            try:
                if line.strip():  # a blank line is skipped, not torn
                    json.loads(line)
            except ValueError:
                handle.truncate(start)
                _metrics.sink().incr("log.torn_tails_truncated")
            else:
                handle.write(b"\n")

    @staticmethod
    def _resume_seq(path: Path) -> int:
        """The seq of an existing log's last record (0 for a new log)."""
        if not path.exists():
            return 0
        last_line = None
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    last_line = line
        if last_line is None:
            return 0
        try:
            record = json.loads(last_line)
            seq = record["seq"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise GraphError(
                f"cannot resume update log {path}: last record is malformed"
            ) from None
        if not _is_seq(seq):
            raise GraphError(f"cannot resume update log {path}: bad seq {seq!r}")
        return seq

    @property
    def empty(self) -> bool:
        """Whether the log holds nothing yet: a new file, or one whose
        only record was torn and truncated away."""
        return os.fstat(self._file.fileno()).st_size == 0

    def _write(self, line: str) -> None:
        self._file.write(line + "\n")
        self._file.flush()

    def _write_checkpoint(self, graph: Graph) -> None:
        """Write a checkpoint record of ``graph`` at the current seq.

        The record is built and dumped with the cyclic collector paused
        (its previous state restored after): the encoder allocates tens
        of thousands of tuples and lists and no cycle, so the collections
        they would set off find nothing.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            line = json.dumps(
                {
                    "format": UPDATE_LOG_FORMAT,
                    "type": "checkpoint",
                    "seq": self.seq,
                    "arrays": _checkpoint_arrays(graph),
                },
                sort_keys=True,
            )
        finally:
            if collecting:
                gc.enable()
        self._write(line)

    def write_base(self, graph: Graph) -> None:
        """Record the base graph as a seq-0 checkpoint (optional; a log
        without one replays against a caller-supplied base graph)."""
        self._write_checkpoint(graph)

    def append(self, update: GraphUpdate, graph: Graph | None = None) -> int:
        """Append one batch; returns its sequence number.

        With ``checkpoint_every`` configured and ``graph`` provided, a
        checkpoint of the (already-updated) graph follows every k-th
        batch.
        """
        self.seq += 1
        self._write(
            json.dumps(
                {
                    "format": UPDATE_LOG_FORMAT,
                    "type": "update",
                    "seq": self.seq,
                    "update": update_to_dict(update),
                },
                sort_keys=True,
            )
        )
        if (
            self.checkpoint_every is not None
            and graph is not None
            and self.seq % self.checkpoint_every == 0
        ):
            self.checkpoint(graph)
        return self.seq

    def checkpoint(self, graph: Graph) -> None:
        """Write a checkpoint of ``graph`` at the current seq."""
        self._write_checkpoint(graph)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "UpdateLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scan_update_log(path: str | Path) -> Iterator[dict[str, Any]]:
    """Validated *raw* records, one JSON dictionary per line.

    The cheap layer under :func:`read_update_log`: format, type and seq
    (a non-negative ``int``) are checked but nothing is materialized —
    in particular checkpoint graphs stay as their array dictionaries,
    so callers that skip or postpone checkpoints (replay, the ``stream``
    CLI) never pay O(|G|) decodes for records they discard.

    A final line that lacks its newline and does not parse is a torn
    write, not a record: the scan stops before it.  Any other line that
    does not parse raises.
    """
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if not raw.endswith("\n"):
                    return
                raise GraphError(f"{path}:{line_no}: not valid JSON ({exc})") from None
            if not isinstance(record, dict) or "type" not in record or "seq" not in record:
                raise GraphError(f"{path}:{line_no}: malformed update-log record")
            stamp = record.get("format")
            if type(stamp) is not int or stamp not in _READABLE_FORMATS:
                raise GraphError(
                    f"{path}:{line_no}: unsupported update-log format "
                    f"{stamp!r} (this reader speaks "
                    f"{' and '.join(map(str, _READABLE_FORMATS))})"
                )
            if record["type"] not in ("update", "checkpoint"):
                raise GraphError(
                    f"{path}:{line_no}: unknown record type {record['type']!r}"
                )
            if not _is_seq(record["seq"]):
                raise GraphError(f"{path}:{line_no}: bad seq {record['seq']!r}")
            yield record


def _decode_record(record: dict[str, Any]) -> LogRecord:
    if record["type"] == "update":
        return LogRecord(record["seq"], "update", update=update_from_dict(record["update"]))
    return LogRecord(record["seq"], "checkpoint", graph=graph_from_arrays(record["arrays"]))


def read_update_log(path: str | Path) -> Iterator[LogRecord]:
    """Decode an update log line by line (checkpoints included)."""
    for record in scan_update_log(path):
        yield _decode_record(record)


@dataclass
class ReplayResult:
    """What :func:`replay_update_log` did."""

    graph: Graph
    applied: int  # update batches actually applied
    last_seq: int  # seq of the last record consumed (0 = empty log)
    resumed_from: int  # checkpoint seq the replay started at (0 = base)


def replay_update_log(
    path: str | Path,
    graph: Graph | None = None,
    *,
    use_checkpoints: bool = True,
) -> ReplayResult:
    """Replay a log into a graph (index-maintaining, batch-atomic).

    With ``graph=None`` the log must contain at least one checkpoint;
    replay restores the **latest** checkpoint and applies only the
    batches after it.  With a caller-supplied base graph, all batches
    are applied (checkpoints are skipped, or — when ``use_checkpoints``
    — the latest one replaces the state wholesale so the tail still
    wins; pass ``use_checkpoints=False`` to force a full from-base
    replay, e.g. to cross-check checkpoint integrity).
    """
    from repro.indexing.maintenance import apply_update_indexed

    # Single raw scan: keep the latest checkpoint's (undecoded) arrays
    # and only the raw update tail after it, so recovery work and peak
    # memory are O(tail + |latest checkpoint|), not O(history).
    latest_checkpoint: dict[str, Any] | None = None
    tail: list[dict[str, Any]] = []
    for record in scan_update_log(path):
        if record["type"] == "checkpoint":
            if use_checkpoints:
                latest_checkpoint = record
                tail = []
        else:
            tail.append(record)
    resumed_from = 0
    if latest_checkpoint is not None:
        graph = graph_from_arrays(latest_checkpoint["arrays"])
        resumed_from = latest_checkpoint["seq"]
    if graph is None:
        raise GraphError(
            f"update log {path} has no checkpoint; pass the base graph to replay against"
        )
    applied = 0
    last_seq = resumed_from
    for record in tail:
        apply_update_indexed(graph, update_from_dict(record["update"]))
        applied += 1
        last_seq = record["seq"]
    return ReplayResult(graph, applied, last_seq, resumed_from)
