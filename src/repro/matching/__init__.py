"""Pattern matching: homomorphism semantics (Section 2/3) + injective variant.

The hot path is plan-compiled: every consumer runs one executor
(:func:`execute_over_pools`) over a pattern's candidate pools, cached
per graph version (:mod:`repro.matching.view`), and
:func:`find_homomorphisms` is the thin compatibility wrapper every
consumer already speaks.
"""

from repro.matching.candidates import candidate_sets, order_for_sizes, variable_order
from repro.matching.homomorphism import (
    Match,
    count_matches,
    find_homomorphisms,
    find_match,
    has_match,
    is_homomorphism,
    seed_find_homomorphisms,
)
from repro.matching.locality import (
    ball_closes_locally,
    ball_levels,
    pattern_distances,
    pattern_radius,
    pivot_radius,
    split_local_pivots,
)
from repro.matching.isomorphism import (
    count_injective_matches,
    find_injective_matches,
    has_injective_match,
)
from repro.matching.plan import execute_over_pools

__all__ = [
    "Match",
    "ball_closes_locally",
    "ball_levels",
    "candidate_sets",
    "count_injective_matches",
    "count_matches",
    "execute_over_pools",
    "find_homomorphisms",
    "find_injective_matches",
    "find_match",
    "has_injective_match",
    "has_match",
    "is_homomorphism",
    "order_for_sizes",
    "pattern_distances",
    "pattern_radius",
    "pivot_radius",
    "seed_find_homomorphisms",
    "split_local_pivots",
    "variable_order",
]
