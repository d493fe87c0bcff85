"""Checkpoint column spellings, read and written apart from ``repro.graph.io``.

A format-2 checkpoint packs each integer column as the base64 text of
its little-endian uint32 bytes; a format-1 checkpoint spelled it as a
JSON list.  These helpers use ``base64`` and ``struct`` only, so the
tests compare the decoder under test against an independent reading.
"""

import base64
import struct

INTEGER_COLUMNS = (
    "node_ids", "node_labels", "attr_node", "attr_name", "attr_value",
    "edge_src", "edge_label", "edge_dst",
)


def integers(column) -> list[int]:
    """A column's integers, from a packed string, a list or an array."""
    if isinstance(column, str):
        raw = base64.b64decode(column, validate=True)
        return list(struct.unpack(f"<{len(raw) // 4}I", raw))
    return list(column)


def pack(values) -> str:
    """``values`` as a packed (format-2) column."""
    return base64.b64encode(struct.pack(f"<{len(values)}I", *values)).decode("ascii")


def as_lists(data: dict) -> dict:
    """``data`` with its integer columns spelled as JSON lists (format 1)."""
    return {**data, **{name: integers(data[name]) for name in INTEGER_COLUMNS}}


def respell(data: dict, name: str, values) -> None:
    """Set column ``name`` of ``data`` to ``values``, in the spelling
    ``data``'s columns already use."""
    data[name] = pack(values) if isinstance(data["node_ids"], str) else list(values)
