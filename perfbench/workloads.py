"""Seeded inputs for the serve benchmark: graphs, rule sets, update streams.

Everything here runs during set-up, outside every timed region.  The
program under test only ever sees what this module writes to disk (the
rules file and the update log) and the update frames the load
generator sends.

:class:`ChurnGenerator` is an O(1)-amortised-per-operation version of
``repro.workloads.churn._ChurnGenerator``: same operation mix (a batch's
deletions are drawn first, each with probability ``DELETE_FRACTION``,
uniformly over edge / attribute / node; its additions fill the rest of
the batch, uniformly over node (wired to one existing node by a random
edge) / edge / attribute write), but random picks come from swap-remove
arrays instead of ``sorted(shadow.edges)`` and full node-list scans.
Every batch is valid against the state the stream has reached, so it
passes ``validate_update`` in the server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.deps.ged import GED
from repro.graph.graph import Graph
from repro.graph.update import GraphUpdate
from repro.workloads import (
    bounded_rule_set,
    overlapping_rule_set,
    overlapping_workload,
    validation_workload,
)


#: Expected share of a batch's operations that are deletions.
DELETE_FRACTION = 0.35


class _Bag:
    """A list with O(1) add, remove and uniform random pick."""

    def __init__(self, items=()):
        self.items = list(items)
        self.pos = {item: i for i, item in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def add(self, item) -> None:
        if item not in self.pos:
            self.pos[item] = len(self.items)
            self.items.append(item)

    def remove(self, item) -> None:
        i = self.pos.pop(item)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def pick(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


class ChurnGenerator:
    """Valid insert/delete/attribute batches over a shadow of the graph.

    ``attribute_values`` maps each attribute name a batch may write to
    the values it draws from.  The shadow graph is mutated as batches
    are drawn; callers that need the base state keep their own copy.
    """

    def __init__(
        self,
        shadow: Graph,
        rng: random.Random,
        *,
        node_labels: list[str],
        edge_labels: list[str],
        attribute_values: dict[str, list],
        min_nodes: int,
    ):
        self.shadow = shadow
        self.rng = rng
        self.node_labels = node_labels
        self.edge_labels = edge_labels
        self.attribute_names = sorted(attribute_values)
        self.attribute_values = attribute_values
        self.min_nodes = min_nodes
        self.counter = 0
        # Sorted once: set iteration order varies with the hash seed.
        self.nodes = _Bag(shadow.node_ids)
        self.edges = _Bag(sorted(shadow.edges))
        self.attrs = _Bag(
            (node.id, name) for node in shadow.nodes for name in node.attributes
        )

    def _drop_node(self, node_id: str) -> None:
        for name in self.shadow.node(node_id).attributes:
            self.attrs.remove((node_id, name))
        for edge in self.shadow.remove_node(node_id):
            self.edges.remove(edge)
        self.nodes.remove(node_id)

    def _add_edge(self, edge: tuple[str, str, str]) -> None:
        self.shadow.add_edge(*edge)
        self.edges.add(edge)

    def _set_attr(self, node_id: str, name: str, value) -> None:
        self.shadow.set_attribute(node_id, name, value)
        self.attrs.add((node_id, name))

    def batch(self, batch_size: int) -> GraphUpdate:
        """Draw one batch and apply it to the shadow."""
        rng, shadow = self.rng, self.shadow
        del_nodes: list[str] = []
        del_edges: list[tuple[str, str, str]] = []
        del_attrs: list[tuple[str, str]] = []
        nodes: list[tuple[str, str, dict]] = []
        edges: list[tuple[str, str, str]] = []
        attrs: list[tuple[str, str, object]] = []

        deletions = sum(1 for _ in range(batch_size) if rng.random() < DELETE_FRACTION)
        for _ in range(deletions):
            kind = rng.choice(("edge", "attr", "node"))
            if kind == "edge" and self.edges:
                edge = self.edges.pick(rng)
                shadow.remove_edge(*edge)
                self.edges.remove(edge)
                del_edges.append(edge)
            elif kind == "attr" and self.attrs:
                node_id, name = self.attrs.pick(rng)
                shadow.remove_attribute(node_id, name)
                self.attrs.remove((node_id, name))
                del_attrs.append((node_id, name))
            elif kind == "node" and len(self.nodes) > self.min_nodes:
                node_id = self.nodes.pick(rng)
                self._drop_node(node_id)
                del_nodes.append(node_id)

        for _ in range(max(1, batch_size - deletions)):
            kind = rng.choice(("node", "edge", "attr"))
            if kind == "node":
                self.counter += 1
                node_id = f"churn{self.counter}"
                label = rng.choice(self.node_labels)
                node_attrs = {}
                if rng.random() < 0.8:
                    name = rng.choice(self.attribute_names)
                    node_attrs[name] = rng.choice(self.attribute_values[name])
                other = self.nodes.pick(rng) if self.nodes else None
                shadow.add_node(node_id, label, node_attrs)
                self.nodes.add(node_id)
                for name in node_attrs:
                    self.attrs.add((node_id, name))
                nodes.append((node_id, label, node_attrs))
                if other is not None:
                    edge_label = rng.choice(self.edge_labels)
                    edge = (node_id, edge_label, other) if rng.random() < 0.5 else (
                        other, edge_label, node_id
                    )
                    self._add_edge(edge)
                    edges.append(edge)
            elif kind == "edge" and len(self.nodes) > 1:
                source = self.nodes.pick(rng)
                target = self.nodes.pick(rng)
                while target == source:
                    target = self.nodes.pick(rng)
                edge = (source, rng.choice(self.edge_labels), target)
                self._add_edge(edge)
                edges.append(edge)
            elif kind == "attr" and self.nodes:
                node_id = self.nodes.pick(rng)
                name = rng.choice(self.attribute_names)
                value = rng.choice(self.attribute_values[name])
                self._set_attr(node_id, name, value)
                attrs.append((node_id, name, value))

        return GraphUpdate(nodes, edges, attrs, del_nodes, del_edges, del_attrs)


@dataclass
class Inputs:
    """One workload's generated inputs.

    ``base`` is the log's base checkpoint; ``tail`` holds the batches
    already in the log after it when the server starts; ``stream`` is
    what the publisher sends, in order.
    """

    base: Graph
    sigma: list[GED]
    tail: list[GraphUpdate]
    stream: list[GraphUpdate]


@dataclass(frozen=True)
class WorkloadSpec:
    """The shape of one workload (sizes are the full-size defaults)."""

    name: str
    graph: str  # "validation" | "overlapping"
    nodes: int
    checkpoint_every: int | None
    tail_batches: int = 0
    spawns: int = 2  # cold starts per run (setup_s is their median)
    #: Measured batches per second asked for: the steady phase publishes
    #: ``rate * seconds`` batches, about ``seconds`` long on the reference
    #: host.  A fixed count, not a fixed time, so that the graph every
    #: run ends on (and so checkpoint size and peak RSS) depends on the
    #: seed alone and not on how fast the host was.
    rate: int = 100


#: Every ``serve-sigma`` start is a recovery: it replays a 200-batch
#: un-checkpointed tail, the state a SIGKILL leaves.  ``serve-churn``
#: starts on a bare base checkpoint.
SPECS = {
    "serve-churn": WorkloadSpec("serve-churn", "validation", 10_000, 50, spawns=16, rate=150),
    "serve-sigma": WorkloadSpec(
        "serve-sigma", "overlapping", 30_000, None, tail_batches=200, spawns=12, rate=150
    ),
}

#: Smoke-test sizes: the same shapes, small enough to run in seconds.
TINY = {
    "serve-churn": WorkloadSpec("serve-churn", "validation", 300, 5),
    "serve-sigma": WorkloadSpec("serve-sigma", "overlapping", 600, None, tail_batches=20),
}

#: Operations per update batch.
BATCH_SIZE = 32

_VALUES = [1, 2, 3]
#: ``tier`` writes keep the overlapping workload's skew (~90% tier 1).
_TIER_VALUES = [1] * 9 + [2]


def build_inputs(spec: WorkloadSpec, seed: int, stream_batches: int) -> Inputs:
    """Generate the base graph, Σ, the log tail and the update stream."""
    rng = random.Random(seed)
    if spec.graph == "validation":
        graph = validation_workload(spec.nodes, rng=seed)
        sigma = bounded_rule_set()
        values = {"score": _VALUES, "region": _VALUES}
    else:
        graph = overlapping_workload(spec.nodes, rng=seed)
        sigma = overlapping_rule_set(24)
        values = {"score": _VALUES, "region": _VALUES, "tier": _TIER_VALUES}
    start = graph.copy()
    generator = ChurnGenerator(
        graph,
        rng,
        node_labels=["user", "item", "shop"],
        edge_labels=["buys", "sells", "rates"],
        attribute_values=values,
        min_nodes=max(4, spec.nodes // 4),
    )
    tail = [generator.batch(BATCH_SIZE) for _ in range(spec.tail_batches)]
    stream = [generator.batch(BATCH_SIZE) for _ in range(stream_batches)]
    return Inputs(start, sigma, tail, stream)
