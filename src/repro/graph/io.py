"""(De)serialization for graphs: JSON files, flat-array snapshots, and
the durable update log.

The JSON format is a plain dictionary so graphs can be stored in files,
shipped over APIs, or embedded in experiment manifests:

.. code-block:: json

    {
      "nodes": [{"id": "a1", "label": "album", "attrs": {"title": "Bleach"}}],
      "edges": [["a1", "primary_artist", "p1"]]
    }

The flat-array format (:func:`graph_to_arrays` / :func:`graph_from_arrays`)
is the wire representation behind :mod:`repro.engine.snapshot`: every
string is interned once in a pool and the node/edge structure becomes a
handful of ``array('I')`` integer columns, which pickle an order of
magnitude cheaper than the object graph (no per-Node class payload, no
per-edge tuple objects).  It is lossless — rebuilding yields a graph that
is ``==`` to the original — but, unlike the JSON format, it is a Python
pickle-time optimization, not an interchange format.

The **update log** (:class:`UpdateLogWriter` / :func:`read_update_log` /
:func:`replay_update_log`) makes streams of
:class:`~repro.graph.update.GraphUpdate` batches durable and resumable:
one JSONL line per batch, each stamped with a monotone sequence number,
interleaved with periodic *checkpoint* lines carrying the full graph in
the flat-array encoding (arrays spelled as JSON lists).  Replaying from
the latest checkpoint rather than the beginning is what makes recovery
O(tail), not O(history).  The exact line formats are specified in
``docs/update-log.md``; attribute values must be JSON-representable
(the same restriction the plain JSON graph format has).
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.update import GraphUpdate


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


class _Pool:
    """Interning pool: assigns each distinct value one integer slot.

    Values are deduplicated by ``(type, value)`` so ``1``, ``1.0`` and
    ``True`` — equal under ``==`` — keep their exact identity through a
    roundtrip.  Unhashable values (graphs may carry them; the index
    layer treats them as unindexable) are appended without dedup.
    """

    def __init__(self) -> None:
        self.values: list[Any] = []
        self._slots: dict[Any, int] = {}

    def intern(self, value: Any) -> int:
        try:
            key = (type(value), value)
            slot = self._slots.get(key)
            if slot is None:
                slot = len(self.values)
                self._slots[key] = slot
                self.values.append(value)
            return slot
        except TypeError:  # unhashable value: store without dedup
            self.values.append(value)
            return len(self.values) - 1


def graph_to_arrays(g: Graph) -> dict[str, Any]:
    """Encode ``g`` as interned pools plus flat integer columns.

    Layout (all columns index into ``pool``):

    * ``node_ids`` / ``node_labels`` — one entry per node, in the
      graph's deterministic insertion order;
    * ``attr_node`` / ``attr_name`` / ``attr_value`` — one entry per
      attribute; ``attr_node`` indexes into ``node_ids``;
    * ``edge_src`` / ``edge_label`` / ``edge_dst`` — one entry per edge,
      sorted; ``edge_src``/``edge_dst`` index into ``node_ids``.
    """
    pool = _Pool()
    node_ids = array("I")
    node_labels = array("I")
    node_slot: dict[str, int] = {}
    attr_node = array("I")
    attr_name = array("I")
    attr_value = array("I")
    for position, node in enumerate(g.nodes):
        node_slot[node.id] = position
        node_ids.append(pool.intern(node.id))
        node_labels.append(pool.intern(node.label))
        for name, value in node.attributes.items():
            attr_node.append(position)
            attr_name.append(pool.intern(name))
            attr_value.append(pool.intern(value))
    edge_src = array("I")
    edge_label = array("I")
    edge_dst = array("I")
    for source, label, target in sorted(g.edges):
        edge_src.append(node_slot[source])
        edge_label.append(pool.intern(label))
        edge_dst.append(node_slot[target])
    return {
        "pool": pool.values,
        "node_ids": node_ids,
        "node_labels": node_labels,
        "attr_node": attr_node,
        "attr_name": attr_name,
        "attr_value": attr_value,
        "edge_src": edge_src,
        "edge_label": edge_label,
        "edge_dst": edge_dst,
    }


def graph_from_arrays(data: dict[str, Any]) -> Graph:
    """Rebuild a graph from :func:`graph_to_arrays` output.

    Integer columns may be ``array('I')`` or plain lists (a checkpoint's
    JSON spelling).  One bulk build (:meth:`Graph.from_columns`) fills
    the graph; a malformed encoding — a missing or ragged column, a slot
    outside the pool, a position outside ``node_ids``, or a value the
    graph refuses — raises :class:`GraphError` rather than decoding to a
    different graph.
    """
    try:
        pool = data["pool"]
        columns = [data[column] for column in _ARRAY_COLUMNS]
    except (KeyError, TypeError):
        columns = None
    if columns is None or not all(isinstance(c, (list, array)) for c in [pool, *columns]):
        raise GraphError(
            "a flat-array graph needs a pool list and the integer columns "
            + ", ".join(_ARRAY_COLUMNS)
        )
    return Graph.from_columns(pool, *columns)


# ----------------------------------------------------------------------
# The durable update log (JSONL; format spec in docs/update-log.md)
# ----------------------------------------------------------------------

#: Version stamp carried by every update-log line.
UPDATE_LOG_FORMAT = 1


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
    """Flat-array encoding with integer columns spelled as JSON lists."""
    arrays = graph_to_arrays(g)
    payload: dict[str, Any] = {"pool": arrays["pool"]}
    for column in _ARRAY_COLUMNS:
        payload[column] = list(arrays[column])
    return payload


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
        self.seq = self._resume_seq(self.path) if seq is None else seq
        self._file = open(self.path, "a", encoding="utf-8")

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

    def _write(self, record: dict[str, Any]) -> None:
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()

    def write_base(self, graph: Graph) -> None:
        """Record the base graph as a seq-0 checkpoint (optional; a log
        without one replays against a caller-supplied base graph)."""
        self._write(
            {
                "format": UPDATE_LOG_FORMAT,
                "type": "checkpoint",
                "seq": self.seq,
                "arrays": _checkpoint_arrays(graph),
            }
        )

    def append(self, update: GraphUpdate, graph: Graph | None = None) -> int:
        """Append one batch; returns its sequence number.

        With ``checkpoint_every`` configured and ``graph`` provided, a
        checkpoint of the (already-updated) graph follows every k-th
        batch.
        """
        self.seq += 1
        self._write(
            {
                "format": UPDATE_LOG_FORMAT,
                "type": "update",
                "seq": self.seq,
                "update": update_to_dict(update),
            }
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
        self._write(
            {
                "format": UPDATE_LOG_FORMAT,
                "type": "checkpoint",
                "seq": self.seq,
                "arrays": _checkpoint_arrays(graph),
            }
        )

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
    """
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GraphError(f"{path}:{line_no}: not valid JSON ({exc})") from None
            if not isinstance(record, dict) or "type" not in record or "seq" not in record:
                raise GraphError(f"{path}:{line_no}: malformed update-log record")
            if record.get("format") != UPDATE_LOG_FORMAT:
                raise GraphError(
                    f"{path}:{line_no}: unsupported update-log format "
                    f"{record.get('format')!r} (this reader speaks {UPDATE_LOG_FORMAT})"
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
