"""Pattern shapes the streaming delta kernel must get right.

The kernel runs once per (Σ group, pattern variable), with that
variable's pool replaced by its pin set of touched nodes.  It binds
every other variable of the pin set's component through an edge check,
so it passes the graph's live label rows as pools instead of a
pattern-radius ball, and one match may come out of several variables'
runs.  :func:`shape_rule_set` covers the shapes where that could go
wrong: a wildcard node label behind a wildcard edge, a wildcard
variable in a second component, a self-loop, a radius-2 path, and a
family of rules on that path that differ only in their literals (two
share an X literal, so an index gives them their own restriction
group).

The rules run over :func:`~repro.workloads.churn_stream`'s
user/item/shop graph.  Churn batches never add self-loops, so
:func:`shape_churn_stream` plants them on the base graph.
"""

from dataclasses import replace

import pytest

from repro.deps import GED, ConstantLiteral, VariableLiteral
from repro.patterns import Pattern
from repro.workloads import churn_stream


def _path() -> Pattern:
    """The radius-2 path a -buys-> b -sells-> c (a fresh, equal object
    per call, as rules loaded from a file have)."""
    return Pattern(
        {"a": "item", "b": "item", "c": "item"},
        [("a", "buys", "b"), ("b", "sells", "c")],
    )


def shape_rule_set() -> list[GED]:
    wildcard = Pattern({"x": "_", "i": "item"}, [("x", "_", "i")])
    split = Pattern({"u": "user", "i": "item", "w": "_"}, [("u", "buys", "i")])
    loop = Pattern({"u": "user", "i": "item"}, [("u", "rates", "u"), ("u", "_", "i")])
    return [
        GED(
            wildcard,
            [ConstantLiteral("x", "region", 1)],
            [ConstantLiteral("i", "region", 1)],
            name="wildcard",
        ),
        GED(
            split,
            [ConstantLiteral("w", "score", 3)],
            [VariableLiteral("u", "region", "w", "region")],
            name="two-components",
        ),
        GED(loop, [], [VariableLiteral("u", "score", "i", "score")], name="self-loop"),
        GED(_path(), [], [ConstantLiteral("a", "score", 1)], name="path-score"),
        GED(
            _path(), [], [VariableLiteral("a", "region", "c", "region")], name="path-region"
        ),
        GED(
            _path(),
            [ConstantLiteral("b", "score", 2)],
            [ConstantLiteral("c", "region", 2)],
            name="path-x-region",
        ),
        GED(
            _path(),
            [ConstantLiteral("b", "score", 2)],
            [VariableLiteral("a", "score", "c", "score")],
            name="path-x-score",
        ),
    ]


def shape_churn_stream(n_nodes=200, batches=20, batch_size=8, rng=None):
    """:func:`~repro.workloads.churn_stream` with :func:`shape_rule_set`
    and a ``rates`` self-loop on every third user of the base graph."""
    stream = churn_stream(n_nodes=n_nodes, batches=batches, batch_size=batch_size, rng=rng)
    users = sorted(stream.base.nodes_with_label("user"))
    for user in users[::3]:
        stream.base.add_edge(user, "rates", user)
    return replace(stream, sigma=shape_rule_set())


#: The churn-stream inputs of the streaming equivalence suites: the
#: bounded rule set, and the shapes above over the same graph family.
STREAMS = pytest.mark.parametrize(
    "make_stream", [churn_stream, shape_churn_stream], ids=["bounded", "shapes"]
)
