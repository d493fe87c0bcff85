"""Property graphs (Section 2): nodes with labels + attributes, labeled edges."""

from repro.graph.builder import GraphBuilder
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_undirected_graph,
    random_labeled_graph,
    star_graph,
    undirected_edge_set,
)
from repro.graph.graph import ID_ATTRIBUTE, Edge, Graph, Node, Value
from repro.graph.io import (
    UpdateLogWriter,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    read_update_log,
    replay_update_log,
    scan_update_log,
    update_from_dict,
    update_to_dict,
)
from repro.graph.relational import Relation, graph_to_relation, relations_to_graph
from repro.graph.update import GraphUpdate, validate_update

__all__ = [
    "ID_ATTRIBUTE",
    "Edge",
    "Graph",
    "GraphBuilder",
    "GraphUpdate",
    "Node",
    "Relation",
    "UpdateLogWriter",
    "Value",
    "complete_graph",
    "cycle_graph",
    "graph_from_dict",
    "graph_from_json",
    "graph_to_dict",
    "graph_to_json",
    "graph_to_relation",
    "path_graph",
    "random_connected_undirected_graph",
    "random_labeled_graph",
    "read_update_log",
    "relations_to_graph",
    "replay_update_log",
    "scan_update_log",
    "star_graph",
    "undirected_edge_set",
    "update_from_dict",
    "update_to_dict",
    "validate_update",
]
