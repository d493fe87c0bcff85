"""Materializing pattern matches as a table.

Discovery evaluates many literal sets over the same matches; scanning
the graph per literal would redo homomorphism work.  A
:class:`MatchTable` enumerates the matches once and stores, per row,

* the node id bound to each variable, and
* the value of every (variable, attribute) pair that occurs in the
  matched nodes (missing attributes are recorded as :data:`MISSING`,
  which compares equal to nothing — the paper's existence semantics:
  a literal over a missing attribute is *not* satisfied in Y position
  and vacuously skipped in X position is handled by the caller).

Columns are the union of attributes seen across rows, so the table is
wide but complete: every literal over the pattern's variables can be
evaluated by column lookups.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.deps.literals import (
    ConstantLiteral,
    IdLiteral,
    Literal,
    VariableLiteral,
)
from repro.graph.graph import Graph, Value
from repro.matching.homomorphism import find_homomorphisms
from repro.patterns.pattern import Pattern


class _Missing:
    """Sentinel for 'attribute absent at this node' (equal to nothing)."""

    def __repr__(self) -> str:
        return "MISSING"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("__missing__")


MISSING = _Missing()


@dataclass
class MatchTable:
    """The matches of one pattern, materialized.

    ``rows[i][var]`` is the node id variable ``var`` takes in match i;
    ``values[i][(var, attr)]`` its attribute value or :data:`MISSING`.
    """

    pattern: Pattern
    rows: list[dict[str, str]]
    values: list[dict[tuple[str, str], Value]]
    columns: list[tuple[str, str]]

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def literal_holds(self, row: int, literal: Literal) -> bool:
        """Whether match ``row`` satisfies ``literal`` (Section 3
        semantics: missing attributes never satisfy)."""
        if isinstance(literal, ConstantLiteral):
            value = self.values[row].get((literal.var, literal.attr), MISSING)
            return value is not MISSING and value == literal.const
        if isinstance(literal, VariableLiteral):
            v1 = self.values[row].get((literal.var1, literal.attr1), MISSING)
            v2 = self.values[row].get((literal.var2, literal.attr2), MISSING)
            return v1 is not MISSING and v2 is not MISSING and v1 == v2
        if isinstance(literal, IdLiteral):
            return self.rows[row][literal.var1] == self.rows[row][literal.var2]
        raise TypeError(f"unsupported literal {literal!r}")

    def satisfying(
        self, literals: Sequence[Literal], within: Sequence[int] | None = None
    ) -> list[int]:
        """Row indexes satisfying all ``literals`` (within a row subset)."""
        pool = range(self.num_rows) if within is None else within
        return [row for row in pool if all(self.literal_holds(row, l) for l in literals)]

    def distinct_values(self, var: str, attr: str) -> set[Value]:
        """Distinct present values of ``var.attr`` across all rows."""
        found: set[Value] = set()
        for row_values in self.values:
            value = row_values.get((var, attr), MISSING)
            if value is not MISSING:
                found.add(value)
        return found


def build_match_table(pattern: Pattern, graph: Graph, limit: int | None = None) -> MatchTable:
    """Enumerate matches of ``pattern`` in ``graph`` into a table.

    Discovery profiles many candidate patterns against one unchanging
    graph, so each pattern's candidate pools are derived once for the
    whole discovery sweep: repeated patterns (support recounts,
    confidence scans) reuse them from the graph's pool cache.
    """
    rows: list[dict[str, str]] = []
    values: list[dict[tuple[str, str], Value]] = []
    columns: dict[tuple[str, str], None] = {}
    for match in find_homomorphisms(pattern, graph, limit=limit):
        rows.append(dict(match))
        row_values: dict[tuple[str, str], Value] = {}
        for variable, node_id in match.items():
            for attr, value in graph.node(node_id).attributes.items():
                row_values[(variable, attr)] = value
                columns[(variable, attr)] = None
        values.append(row_values)
    return MatchTable(pattern, rows, values, sorted(columns))


__all__ = ["MISSING", "MatchTable", "build_match_table"]
