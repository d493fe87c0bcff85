"""repro.serve — the violation-subscription push server.

The streaming layer made violation maintenance continuous
(:class:`~repro.streaming.ledger.ViolationLedger` emits exact per-batch
deltas); this package makes it a **service**: a long-running, stdlib-only
asyncio server that accepts :class:`~repro.graph.update.GraphUpdate`
batches over a socket, applies them atomically through the durable
update log and the ledger, and *pushes* each batch's violation delta to
every subscribed client the moment it exists.

The architecture is the coordinator-entity pattern: the ledger is the
coordinator (one writer applying updates), subscribers are the entities
(many readers, each with a server-side filter over dependency ids, node
sets, and label predicates), and a late attacher is bootstrapped with a
snapshot of the current violation set instead of a replay.  Slow
consumers get bounded per-subscriber queues with an explicit
drop-oldest + ``resync`` overflow policy, so one stalled reader never
backpressures the ledger.

* :mod:`repro.serve.protocol` — the wire codec: canonical JSON frames
  in length-prefixed or line-delimited framing (auto-detected from the
  first byte).  The contract is specified in ``docs/serve-protocol.md``
  and conformance-tested against this module.
* :mod:`repro.serve.filters` — server-side subscription filters.
* :mod:`repro.serve.server` — :class:`ViolationServer`, the coordinator.
* :mod:`repro.serve.client` — :class:`ServeClient`, the asyncio client
  behind ``cli subscribe``, the live-monitoring example, and the load
  harness.

Typical use::

    server = ViolationServer.from_log("updates.jsonl", sigma,
                                      base_graph=g, checkpoint_every=50)
    await server.start()
    ...
    client = await ServeClient.connect("127.0.0.1", server.port)
    bootstrap = await client.subscribe({"labels": ["city"]})
    async for event in client.events():   # delta / resync / bye
        handle(event)
"""

from repro.serve.client import ServeClient
from repro.serve.filters import SubscriptionFilter
from repro.serve.protocol import (
    CLIENT_FRAME_TYPES,
    FRAME_TYPES,
    LENGTH_PREFIXED,
    LINE_DELIMITED,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    SERVER_FRAME_TYPES,
    decode_frames,
    decode_payload,
    encode_frame,
    encode_payload,
)
from repro.serve.server import DEFAULT_QUEUE_SIZE, ViolationServer

__all__ = [
    "CLIENT_FRAME_TYPES",
    "DEFAULT_QUEUE_SIZE",
    "FRAME_TYPES",
    "LENGTH_PREFIXED",
    "LINE_DELIMITED",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SERVER_FRAME_TYPES",
    "ServeClient",
    "SubscriptionFilter",
    "ViolationServer",
    "decode_frames",
    "decode_payload",
    "encode_frame",
    "encode_payload",
]
