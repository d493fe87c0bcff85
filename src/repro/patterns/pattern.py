"""Graph patterns Q[x̄] (Section 2).

A pattern is a directed graph ``Q[x̄] = (V_Q, E_Q, L_Q)`` whose nodes are
*variables*: ``x̄`` lists the variables, ``L_Q`` assigns each a label from
Γ ∪ {'_'} (``_`` = wildcard), and edges are labeled triples over the
variables (edge labels may also be ``_``).

Patterns are immutable after construction (dependencies share them), and
support the paper's *copy* operation: ``Q2[ȳ] is a copy of Q1[x̄] via a
bijection f : x̄ → ȳ`` — used to build GKeys, whose pattern is a pattern
composed with a disjoint renamed copy of itself.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import PatternError
from repro.patterns.labels import WILDCARD

PatternEdge = tuple[str, str, str]


class Pattern:
    """An immutable graph pattern over a list of variables.

    Parameters
    ----------
    nodes:
        mapping ``variable -> label`` (label may be :data:`WILDCARD`).
    edges:
        iterable of ``(source_var, edge_label, target_var)`` triples
        (edge label may be :data:`WILDCARD`).
    variables:
        optional explicit ordering of x̄; defaults to the ``nodes``
        insertion order.  The order matters only for presentation.
    """

    def __init__(
        self,
        nodes: Mapping[str, str],
        edges: Iterable[PatternEdge] = (),
        variables: Sequence[str] | None = None,
    ):
        if not nodes:
            raise PatternError("a pattern must have at least one variable")
        self._labels: dict[str, str] = {}
        for variable, label in nodes.items():
            if not isinstance(variable, str) or not variable:
                raise PatternError(f"pattern variable must be a non-empty string, got {variable!r}")
            if not isinstance(label, str) or not label:
                raise PatternError(f"pattern label must be a non-empty string, got {label!r}")
            self._labels[variable] = label
        self._edges: tuple[PatternEdge, ...] = tuple(dict.fromkeys(edges))
        for source, label, target in self._edges:
            if source not in self._labels:
                raise PatternError(f"edge source {source!r} is not a pattern variable")
            if target not in self._labels:
                raise PatternError(f"edge target {target!r} is not a pattern variable")
            if not isinstance(label, str) or not label:
                raise PatternError(f"edge label must be a non-empty string, got {label!r}")
        if variables is None:
            self._variables = tuple(self._labels)
        else:
            if set(variables) != set(self._labels) or len(set(variables)) != len(variables):
                raise PatternError("explicit variable list must be a permutation of the node keys")
            self._variables = tuple(variables)
        # Adjacency indexes for the matcher.
        self._out: dict[str, list[tuple[str, str]]] = {v: [] for v in self._labels}
        self._in: dict[str, list[tuple[str, str]]] = {v: [] for v in self._labels}
        for source, label, target in self._edges:
            self._out[source].append((label, target))
            self._in[target].append((label, source))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def variables(self) -> tuple[str, ...]:
        """x̄ — the pattern's variables, in declaration order."""
        return self._variables

    @property
    def edges(self) -> tuple[PatternEdge, ...]:
        return self._edges

    def label_of(self, variable: str) -> str:
        try:
            return self._labels[variable]
        except KeyError:
            raise PatternError(f"unknown pattern variable {variable!r}") from None

    def has_variable(self, variable: str) -> bool:
        return variable in self._labels

    @property
    def labels(self) -> dict[str, str]:
        """A copy of the variable -> label mapping."""
        return dict(self._labels)

    def out_edges(self, variable: str) -> list[tuple[str, str]]:
        """``(edge_label, target_var)`` pairs leaving ``variable``."""
        return list(self._out[variable])

    def in_edges(self, variable: str) -> list[tuple[str, str]]:
        """``(edge_label, source_var)`` pairs entering ``variable``."""
        return list(self._in[variable])

    def degree(self, variable: str) -> int:
        return len(self._out[variable]) + len(self._in[variable])

    @property
    def num_variables(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def size(self) -> int:
        """|Q| = number of variables + edges."""
        return len(self._labels) + len(self._edges)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def copy_with_bijection(self, bijection: Mapping[str, str]) -> "Pattern":
        """``Q2[ȳ]``, a copy of this pattern via ``f : x̄ → ȳ``.

        The bijection must be total on the variables and produce a
        *disjoint* variable set (the paper requires x̄ and ȳ disjoint).
        """
        if set(bijection) != set(self._labels):
            raise PatternError("bijection must be defined exactly on the pattern's variables")
        images = list(bijection.values())
        if len(set(images)) != len(images):
            raise PatternError("bijection must be injective")
        if set(images) & set(self._labels):
            raise PatternError("copy variables must be disjoint from the original variables")
        nodes = {bijection[v]: self._labels[v] for v in self._variables}
        edges = [(bijection[s], l, bijection[t]) for (s, l, t) in self._edges]
        return Pattern(nodes, edges, variables=[bijection[v] for v in self._variables])

    def renamed_copy(self, suffix: str = "_copy") -> tuple["Pattern", dict[str, str]]:
        """A disjoint copy with variables renamed by appending ``suffix``.

        Returns the copy and the bijection used.
        """
        bijection = {v: v + suffix for v in self._variables}
        return self.copy_with_bijection(bijection), bijection

    def compose(self, other: "Pattern") -> "Pattern":
        """The pattern composed of this pattern and a disjoint ``other``.

        This is how GKey patterns are formed: ``Q`` composed with a copy
        of ``Q`` (Section 3 (2)).
        """
        overlap = set(self._labels) & set(other._labels)
        if overlap:
            raise PatternError(f"cannot compose patterns sharing variables: {sorted(overlap)}")
        nodes = dict(self._labels)
        nodes.update(other._labels)
        edges = list(self._edges) + list(other._edges)
        return Pattern(nodes, edges, variables=list(self._variables) + list(other._variables))

    def is_copy_of(self, other: "Pattern", bijection: Mapping[str, str]) -> bool:
        """Check the paper's copy condition for an explicit bijection."""
        if set(bijection) != set(other._labels):
            return False
        if set(bijection.values()) != set(self._labels):
            return False
        if set(bijection.values()) & set(other._labels):
            return False
        for variable, label in other._labels.items():
            if self._labels[bijection[variable]] != label:
                return False
        mapped = {(bijection[s], l, bijection[t]) for (s, l, t) in other._edges}
        return mapped == set(self._edges)

    def connected_components(self) -> list[set[str]]:
        """Weakly connected components of the pattern's variables."""
        seen: set[str] = set()
        components: list[set[str]] = []
        for start in self._variables:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                current = frontier.pop()
                neighbors = [t for _, t in self._out[current]] + [s for _, s in self._in[current]]
                for neighbor in neighbors:
                    if neighbor not in component:
                        component.add(neighbor)
                        frontier.append(neighbor)
            seen |= component
            components.append(component)
        return components

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self._labels == other._labels
            and set(self._edges) == set(other._edges)
            and self._variables == other._variables
        )

    def __hash__(self) -> int:
        # Memoized: patterns are immutable and every cache in the
        # matching stack (plan registries, Σ grouping, step caches)
        # keys on them, often once per enumerated match.
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = self._hash = hash(
                (tuple(sorted(self._labels.items())), frozenset(self._edges), self._variables)
            )
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pattern({list(self._variables)!r}, edges={len(self._edges)})"


def single_node_pattern(variable: str = "x", label: str = WILDCARD) -> Pattern:
    """The one-variable pattern used by domain/existence constraints."""
    return Pattern({variable: label})
