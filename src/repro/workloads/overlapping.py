"""A deliberately Σ-overlapping workload: shared shape skeletons,
varying literals.

Real dependency sets are families: one shape-and-label skeleton
instantiated with many attribute literals (Example 1's store rules all
ride the same ``user -buys-> item`` core).  This generator builds a
graph for three such skeletons — the workload the perf gate's
``sigma`` section measures grouped-vs-per-rule validation on.

Two properties shape it:

* **Regularity** — every user both buys and rates, every item is
  bought and sold, every shop sells and is rated, so degree pruning
  never empties a skeleton's pools, and users are deliberately the
  smallest label pool so every skeleton's cost model binds ``u``
  first: ``edge`` completes at depth 1, ``path`` extends it with a
  sells probe, and ``tri`` adds one extra row check.
* **Low triangle closure** — the regularity floor edges are assigned
  *independently* (a correlated floor would plant one triangle per
  shop), so ``tri`` enumerates many ``(u, i)`` frames but completes
  few matches.  Rule families are weighted toward ``tri``
  (``variants`` copies, vs ``variants // 12`` paths and
  ``variants // 24`` edges) because that is where grouping pays most:
  per-rule plans re-walk the whole search per literal variant, while
  the per-match literal evaluation both paths must do stays tiny.

:func:`overlapping_rule_set` instantiates the skeletons with different
Y-literals and an empty X — identical patterns fall into a *single*
(pattern, restriction) group, so the grouped scan walks each skeleton
once however many literal variants ride it (and, X being empty, an
attached index imposes no restriction pools that could split a group).
"""

from __future__ import annotations

import random

from repro.deps.ged import GED
from repro.deps.literals import ConstantLiteral, VariableLiteral
from repro.graph.graph import Graph
from repro.patterns.pattern import Pattern


def overlapping_workload(
    n_nodes: int,
    rng: random.Random | int | None = None,
    buys_per_user: int = 3,
    rates_per_user: int = 1,
) -> Graph:
    """A regular user/item/shop graph for the Σ-overlapping rule set.

    Node budget splits ~1/6 users, ~2/6 items, ~3/6 shops.  Every user
    buys ``buys_per_user`` items and rates ``rates_per_user`` shops;
    a decorrelated floor then gives every item a buyer and a selling
    shop and every shop a sale and a rating, so each label pool
    survives degree pruning intact without planting triangles.
    """
    if rng is None or isinstance(rng, int):
        rng = random.Random(rng if rng is not None else 0)
    n_users = max(2, n_nodes // 6)
    n_items = max(2, n_nodes // 3)
    n_shops = max(2, n_nodes - n_users - n_items)
    graph = Graph()
    users = [f"u{i:04d}" for i in range(n_users)]
    items = [f"i{i:04d}" for i in range(n_items)]
    shops = [f"s{i:04d}" for i in range(n_shops)]
    # ``tier`` is deliberately skewed (~90% tier 1): the rule literals
    # target it so most matches *satisfy* their rule — a validation
    # where every match becomes a Violation measures report
    # construction, not enumeration sharing.
    def attrs() -> dict:
        return {
            "score": rng.randint(1, 3),
            "region": rng.randint(1, 3),
            "tier": 1 if rng.random() < 0.9 else 2,
        }

    for node_id in users:
        graph.add_node(node_id, "user", attrs())
    for node_id in items:
        graph.add_node(node_id, "item", attrs())
    for node_id in shops:
        graph.add_node(node_id, "shop", attrs())

    def connect(source: str, label: str, target: str) -> None:
        if not graph.has_edge(source, label, target):
            graph.add_edge(source, label, target)

    for user in users:
        for item in rng.sample(items, min(buys_per_user, n_items)):
            connect(user, "buys", item)
        for shop in rng.sample(shops, min(rates_per_user, n_shops)):
            connect(user, "rates", shop)
    # Regularity floor, drawn independently per edge: correlated
    # assignments (shop k sells item k, user k rates shop k) would
    # plant one guaranteed triangle per shop and blow up the tri
    # skeleton's match count.
    for item in items:
        connect(rng.choice(shops), "sells", item)
        connect(rng.choice(users), "buys", item)
    for shop in shops:
        connect(shop, "sells", rng.choice(items))
        connect(rng.choice(users), "rates", shop)
    return graph


#: The three shared skeletons (module-level so every caller gets the
#: *same* Pattern objects and the plan caches can do their job).
EDGE_SKELETON = Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")])
PATH_SKELETON = Pattern(
    {"u": "user", "i": "item", "s": "shop"},
    [("u", "buys", "i"), ("s", "sells", "i")],
)
TRI_SKELETON = Pattern(
    {"u": "user", "i": "item", "s": "shop"},
    [("u", "buys", "i"), ("s", "sells", "i"), ("u", "rates", "s")],
)


def overlapping_rule_set(variants: int = 24) -> list[GED]:
    """A Σ of literal variants over the three skeletons.

    ``variants`` tri rules, ``max(1, variants // 12)`` path rules and
    ``max(1, variants // 24)`` edge rules — every rule's X is empty and
    Y varies per rule, so the set is exactly grouping's target shape:
    few distinct patterns, many literal variants, weighted hard toward
    the low-closure ``tri`` skeleton whose enumeration-to-match ratio
    is where enumerating once per group pays.  Every Y targets the skewed ``tier``
    attribute, so most matches satisfy their rule — violations stay a
    realistic minority instead of dominating the validation wall clock
    with report construction.
    """
    rules: list[GED] = []
    for variant in range(variants):
        rules.append(
            GED(
                TRI_SKELETON,
                [],
                [VariableLiteral("i", "tier", "s", "tier")]
                if variant % 2
                else [ConstantLiteral("i" if variant % 4 else "u", "tier", 1)],
                name=f"tri-tier-{variant}",
            )
        )
        if variant < max(1, variants // 12):
            rules.append(
                GED(
                    PATH_SKELETON,
                    [],
                    [VariableLiteral("u", "tier", "s", "tier")]
                    if variant % 2
                    else [ConstantLiteral("s", "tier", 1)],
                    name=f"path-tier-{variant}",
                )
            )
        if variant < max(1, variants // 24):
            rules.append(
                GED(
                    EDGE_SKELETON,
                    [],
                    [ConstantLiteral("i", "tier", 1)],
                    name=f"edge-tier-{variant}",
                )
            )
    return rules


__all__ = [
    "EDGE_SKELETON",
    "PATH_SKELETON",
    "TRI_SKELETON",
    "overlapping_rule_set",
    "overlapping_workload",
]
